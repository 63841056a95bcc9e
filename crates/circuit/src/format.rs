//! The compiled-circuit on-disk format (little-endian, version 1).
//!
//! ```text
//! magic "LSCS" | version u32
//! n_players u32
//! n_clauses u32; per clause: len u32, canonical var ids u32…
//! root u32
//! n_nodes u32; per node (arena order, so NodeId(i) = i-th record):
//!   tag u8:  0 True · 1 False · 2 Leaf   (var u32)
//!            3 And        (len u32, children u32…)
//!            4 Decision   (var u32, hi u32, lo u32)
//!            5 DisjointOr (len u32, children u32…)
//! model count: n_limbs u32, little-endian u64 limbs…   (exact BigNat)
//! scores flag u8: 0 absent · 1 present, then n_players f64 bit patterns u64…
//! footer "LSFT" | body_len u64 | crc32 u32              (ls_fault::persist)
//! ```
//!
//! Nodes are written in arena order and rebuilt with
//! [`Circuit::from_nodes`], which performs no simplification — so every
//! `NodeId`, every `BigNat` limb, and every score bit pattern round-trips
//! exactly. The canonical clause list rides along as the collision guard:
//! a load whose clauses disagree with the requested shape is rejected as
//! [`StoreError::ShapeMismatch`] instead of silently answering for the
//! wrong lineage.

use ls_fault::{Cursor, DecodeError, Put};
use ls_provenance::{BigNat, Circuit, Node, NodeId};
use ls_relational::FactId;
use std::fmt;
use std::io;

/// File magic for circuit store entries.
pub const MAGIC: &[u8; 4] = b"LSCS";
/// Current format version.
pub const VERSION: u32 = 1;

/// Typed failure modes of the store. Loads never panic: every malformed,
/// truncated, corrupt, or mismatched file surfaces here and the store falls
/// back to a fresh compilation.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error (includes CRC/footer verification
    /// failures from `ls_fault::persist`, which arrive as `InvalidData`).
    Io(io::Error),
    /// The file does not start with `"LSCS"`.
    BadMagic,
    /// The file's format version is not [`VERSION`].
    VersionMismatch(u32),
    /// The body is structurally malformed (truncated field, invalid node
    /// record, out-of-range id, non-decomposable circuit, a circuit variable
    /// outside the canonical universe).
    Corrupt(String),
    /// The file decoded cleanly but its canonical clauses or universe size
    /// are not the requested shape's (hash collision or mis-filed entry).
    ShapeMismatch,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "circuit store io: {e}"),
            StoreError::BadMagic => write!(f, "circuit store: bad magic"),
            StoreError::VersionMismatch(v) => {
                write!(f, "circuit store: unsupported version {v}")
            }
            StoreError::Corrupt(msg) => write!(f, "circuit store: corrupt entry: {msg}"),
            StoreError::ShapeMismatch => {
                write!(f, "circuit store: entry does not match requested shape")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Corrupt(e.to_string())
    }
}

/// A decoded store entry: the compiled canonical circuit plus everything
/// needed to answer without recompiling.
#[derive(Debug)]
pub struct EntryData {
    /// Canonical universe size.
    pub n_players: u32,
    /// Canonical clause list (collision guard; see module docs).
    pub clauses: Vec<Vec<u32>>,
    /// Root node of the compiled circuit.
    pub root: NodeId,
    /// The compiled decision-DNNF over canonical facts `0..n_players`.
    pub circuit: Circuit,
    /// Exact model count over the canonical universe.
    pub model_count: BigNat,
    /// Canonical Shapley scores (`scores[i]` for canonical fact `i`) if a
    /// consumer has computed and persisted them; bit-exact f64 round-trip.
    pub scores: Option<Vec<f64>>,
}

/// Serialize an entry body (unsealed; the store seals + writes atomically).
pub fn encode(e: &EntryData) -> Vec<u8> {
    encode_parts(
        e.n_players,
        &e.clauses,
        e.root,
        &e.circuit,
        &e.model_count,
        e.scores.as_deref(),
    )
}

/// [`encode`] on borrowed parts, so the store writes a resident entry
/// without copying its clauses or node arena.
pub(crate) fn encode_parts(
    n_players: u32,
    clauses: &[Vec<u32>],
    root: NodeId,
    circuit: &Circuit,
    model_count: &BigNat,
    scores: Option<&[f64]>,
) -> Vec<u8> {
    let mut w = Vec::with_capacity(64 + 16 * circuit.len());
    w.put_bytes(MAGIC);
    w.put_u32(VERSION);
    w.put_u32(n_players);
    w.put_u32(clauses.len() as u32);
    for clause in clauses {
        w.put_u32(clause.len() as u32);
        clause.iter().for_each(|&v| w.put_u32(v));
    }
    w.put_u32(root.0);
    let nodes = circuit.nodes();
    w.put_u32(nodes.len() as u32);
    for node in nodes {
        match node {
            Node::True => w.put_u8(0),
            Node::False => w.put_u8(1),
            Node::Leaf(v) => {
                w.put_u8(2);
                w.put_u32(v.0);
            }
            Node::And(ch) => {
                w.put_u8(3);
                put_ids(&mut w, ch);
            }
            Node::Decision { var, hi, lo } => {
                w.put_u8(4);
                w.put_u32(var.0);
                w.put_u32(hi.0);
                w.put_u32(lo.0);
            }
            Node::DisjointOr(ch) => {
                w.put_u8(5);
                put_ids(&mut w, ch);
            }
        }
    }
    let limbs = model_count.limbs();
    w.put_u32(limbs.len() as u32);
    limbs.iter().for_each(|&l| w.put_u64(l));
    match scores {
        None => w.put_u8(0),
        Some(s) => {
            debug_assert_eq!(s.len(), n_players as usize);
            w.put_u8(1);
            s.iter().for_each(|&v| w.put_f64(v));
        }
    }
    w
}

/// A `u32` count, then each child id.
fn put_ids(w: &mut Vec<u8>, ids: &[NodeId]) {
    w.put_u32(ids.len() as u32);
    ids.iter().for_each(|c| w.put_u32(c.0));
}

fn get_ids(r: &mut Cursor<'_>) -> Result<Vec<NodeId>, DecodeError> {
    let len = r.count(4)?;
    (0..len).map(|_| r.u32().map(NodeId)).collect()
}

/// Parse an entry body (already unsealed — CRC verified by the caller).
pub fn decode(body: &[u8]) -> Result<EntryData, StoreError> {
    let mut r = Cursor::new(body);
    if r.take(4)? != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(StoreError::VersionMismatch(version));
    }
    let n_players = r.u32()?;
    let n_clauses = r.count(4)?;
    let mut clauses = Vec::with_capacity(n_clauses);
    for _ in 0..n_clauses {
        let len = r.count(4)?;
        let mut clause = Vec::with_capacity(len);
        for _ in 0..len {
            let v = r.u32()?;
            if v >= n_players {
                return Err(StoreError::Corrupt(format!(
                    "clause var {v} out of range (n_players {n_players})"
                )));
            }
            clause.push(v);
        }
        clauses.push(clause);
    }
    let root = NodeId(r.u32()?);
    let n_nodes = r.count(1)?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let node = match r.u8()? {
            0 => Node::True,
            1 => Node::False,
            2 => Node::Leaf(FactId(r.u32()?)),
            3 => Node::And(get_ids(&mut r)?),
            4 => Node::Decision {
                var: FactId(r.u32()?),
                hi: NodeId(r.u32()?),
                lo: NodeId(r.u32()?),
            },
            5 => Node::DisjointOr(get_ids(&mut r)?),
            t => return Err(StoreError::Corrupt(format!("unknown node tag {t}"))),
        };
        nodes.push(node);
    }
    if root.0 as usize >= nodes.len() {
        return Err(StoreError::Corrupt(format!(
            "root {} out of range ({} nodes)",
            root.0,
            nodes.len()
        )));
    }
    let circuit = Circuit::from_nodes(nodes).map_err(StoreError::Corrupt)?;
    if let Some(v) = circuit.support(root).last().filter(|v| v.0 >= n_players) {
        return Err(StoreError::Corrupt(format!(
            "circuit var {} out of range (n_players {n_players})",
            v.0
        )));
    }
    let n_limbs = r.count(8)?;
    let limbs = (0..n_limbs).map(|_| r.u64()).collect::<Result<_, _>>()?;
    let model_count = BigNat::from_limbs(limbs);
    let scores = match r.u8()? {
        0 => None,
        1 => {
            let mut s = Cursor::new(r.take((n_players as usize).saturating_mul(8))?);
            Some((0..n_players).map(|_| s.f64()).collect::<Result<_, _>>()?)
        }
        t => return Err(StoreError::Corrupt(format!("bad scores flag {t}"))),
    };
    r.finish()?;
    Ok(EntryData {
        n_players,
        clauses,
        root,
        circuit,
        model_count,
        scores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_provenance::{compile, CompileOptions, Dnf};
    use ls_relational::Monomial;

    fn sample_entry(scores: Option<Vec<f64>>) -> EntryData {
        let dnf = Dnf::from_monomials(vec![
            Monomial::from_facts(vec![FactId(0), FactId(1)]),
            Monomial::from_facts(vec![FactId(1), FactId(2)]),
            Monomial::from_facts(vec![FactId(3)]),
        ]);
        let compiled = compile(&dnf, CompileOptions::default());
        let universe = dnf.variables();
        let model_count = compiled.circuit.count_models(compiled.root, &universe);
        EntryData {
            n_players: 4,
            clauses: vec![vec![3], vec![0, 1], vec![1, 2]],
            root: compiled.root,
            circuit: compiled.circuit,
            model_count,
            scores,
        }
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let entry = sample_entry(Some(vec![0.25, 0.5f64.sqrt(), 1.0 / 3.0, -0.0]));
        let body = encode(&entry);
        let back = decode(&body).unwrap();
        assert_eq!(back.n_players, entry.n_players);
        assert_eq!(back.clauses, entry.clauses);
        assert_eq!(back.root, entry.root);
        assert_eq!(back.circuit.nodes(), entry.circuit.nodes());
        assert_eq!(back.model_count, entry.model_count);
        let a = entry.scores.unwrap();
        let b = back.scores.clone().unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "f64 must round-trip bit-exactly");
        }
        // Re-encoding the decoded entry is byte-identical (canonical format).
        assert_eq!(body, encode(&back));
    }

    #[test]
    fn decode_rejects_malformed_bodies() {
        let entry = sample_entry(None);
        let body = encode(&entry);
        assert!(matches!(decode(&body[..3]), Err(StoreError::Corrupt(_))));
        assert!(matches!(
            decode(&body[..body.len() - 1]),
            Err(StoreError::Corrupt(_))
        ));
        let mut bad_magic = body.clone();
        bad_magic[0] = b'X';
        assert!(matches!(decode(&bad_magic), Err(StoreError::BadMagic)));
        let mut bad_version = body.clone();
        bad_version[4] = 99;
        assert!(matches!(
            decode(&bad_version),
            Err(StoreError::VersionMismatch(99))
        ));
        // A huge declared clause count must not allocate.
        let mut huge = body;
        huge[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&huge), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn counting_on_decoded_circuit_matches_original() {
        let entry = sample_entry(None);
        let body = encode(&entry);
        let back = decode(&body).unwrap();
        let universe: Vec<FactId> = (0..4).map(FactId).collect();
        let a = entry.circuit.count_by_size(entry.root, &universe);
        let b = back.circuit.count_by_size(back.root, &universe);
        assert_eq!(a, b);
        assert!(back.circuit.check_invariants(back.root).is_ok());
    }
}
