//! Decoder fuzz for every persisted format, mirroring the wire-frame fuzz
//! in `tests/wire.rs`.
//!
//! Six decoders share one byte codec (`ls_fault::codec`), so they share its
//! contract. Three are called on bytes directly: the `LSCS` circuit-store
//! entry, the feedback record and the `LSAD` optimizer state. Three are
//! called on files sealed with `write_sealed`, so the checksum passes and
//! the body parser itself is what gets fuzzed: the `LSMD` model file, the
//! `LSTC` training checkpoint (loaded and restored into a model) and the
//! online `CURRENT` pointer. For each:
//!
//! * arbitrary bytes give `Ok` or a typed error, never a panic;
//! * every truncation of a valid encoding is an error;
//! * every count or length field set to `u32::MAX` is an error, never an
//!   oversized allocation;
//! * one trailing byte is an error.
//!
//! "Typed" means `StoreError` for the circuit store and an
//! `InvalidData` `io::Error` for the rest.

use ls_circuit::{format, EntryData};
use ls_core::{
    load_current, load_model, publish_snapshot, FeedbackRecord, LearnShapleyModel, Stage,
    Tokenizer, TrainCheckpoint,
};
use ls_fault::{read_verified, write_sealed};
use ls_nn::{Adam, AdamConfig, EncoderConfig, Snapshot};
use ls_provenance::{BigNat, Circuit, Node, NodeId};
use ls_relational::FactId;
use proptest::prelude::*;
use std::io;
use std::path::{Path, PathBuf};

const SEED: u64 = 17;

/// A decoder: `Ok`, or `Err` carrying the typed rejection.
type Decode = Box<dyn Fn(&[u8]) -> Result<(), String>>;

/// One decoder under test.
struct Format {
    name: &'static str,
    /// A valid encoding.
    valid: Vec<u8>,
    /// Offsets of the `u32` count and length fields in `valid`.
    counts: Vec<usize>,
    decode: Decode,
}

/// `Ok` or an `InvalidData` rejection; any other error kind fails.
fn typed<T>(result: io::Result<T>) -> Result<(), String> {
    match result {
        Ok(_) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => Err(e.to_string()),
        Err(e) => panic!("untyped {:?} error: {e}", e.kind()),
    }
}

fn tokenizer() -> Tokenizer {
    Tokenizer::build(["select title from movies where year"].into_iter(), 16)
}

fn tiny_model(tokenizer: &Tokenizer) -> LearnShapleyModel {
    LearnShapleyModel::new(EncoderConfig {
        vocab: tokenizer.vocab_size(),
        d_model: 2,
        heads: 1,
        layers: 1,
        ff_dim: 2,
        max_len: 4,
        seed: 3,
    })
}

/// Push the count fields of an `LSCK` snapshot written at `at`; returns
/// the offset just past it.
fn snapshot_counts(snap: &Snapshot, at: usize, counts: &mut Vec<usize>) -> usize {
    counts.push(at + 4); // tensor count
    let mut off = at + 8;
    for (rows, cols) in snap.shapes() {
        counts.extend([off, off + 4]);
        off += 8 + 4 * rows * cols;
    }
    off
}

/// Push the count fields of an `LSAD` state written at `at`.
fn adam_counts(opt: &Adam, at: usize, counts: &mut Vec<usize>) {
    // Magic, five f32 hyper-parameters and the u64 step come first.
    let mut off = at + 32;
    counts.push(off);
    off += 4;
    for len in opt.buffer_lens() {
        counts.push(off);
        off += 4 + 8 * len;
    }
}

fn circuit_entry() -> Format {
    let nodes = vec![
        Node::True,
        Node::Leaf(FactId(0)),
        Node::Leaf(FactId(1)),
        Node::And(vec![NodeId(1), NodeId(2)]),
        Node::Leaf(FactId(2)),
        Node::DisjointOr(vec![NodeId(3), NodeId(4)]),
    ];
    let entry = EntryData {
        n_players: 3,
        clauses: vec![vec![2], vec![0, 1]],
        root: NodeId(5),
        circuit: Circuit::from_nodes(nodes).expect("valid arena"),
        model_count: BigNat::from_u64(5),
        scores: Some(vec![1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0]),
    };
    let mut counts = vec![12]; // clause count
    let mut off = 16;
    for clause in &entry.clauses {
        counts.push(off);
        off += 4 + 4 * clause.len();
    }
    off += 4; // root
    counts.push(off); // node count
    off += 4;
    for node in entry.circuit.nodes() {
        off += 1; // tag
        match node {
            Node::And(ch) | Node::DisjointOr(ch) => {
                counts.push(off);
                off += 4 + 4 * ch.len();
            }
            Node::Leaf(_) => off += 4,
            Node::Decision { .. } => off += 12,
            Node::True | Node::False => {}
        }
    }
    counts.push(off); // limb count
    Format {
        name: "LSCS",
        valid: format::encode(&entry),
        counts,
        decode: Box::new(|b| format::decode(b).map(|_| ()).map_err(|e| e.to_string())),
    }
}

fn feedback_record() -> Format {
    let rec = FeedbackRecord {
        query_sql: "SELECT title FROM movies".into(),
        tuple_fact: "(Memento) ; movies(0)".into(),
        target: 0.75,
    };
    Format {
        name: "feedback record",
        valid: rec.encode(),
        counts: vec![0, 4 + rec.query_sql.len()],
        decode: Box::new(|b| typed(FeedbackRecord::decode(b))),
    }
}

fn optimizer_state() -> Format {
    let mut model = tiny_model(&tokenizer());
    let opt = Adam::new(&mut model, AdamConfig::default());
    let mut valid = Vec::new();
    opt.write_state(&mut valid);
    let mut counts = Vec::new();
    adam_counts(&opt, 0, &mut counts);
    Format {
        name: "LSAD",
        valid,
        counts,
        decode: Box::new(|b| typed(Adam::read_state(b))),
    }
}

/// Seal `body` at `path`, so the checksum passes and the body is parsed.
fn sealed(path: &Path, body: &[u8]) {
    write_sealed(path, body.to_vec()).expect("write sealed file");
}

fn model_file(dir: &Path) -> Format {
    let tok = tokenizer();
    let mut model = tiny_model(&tok);
    let path = dir.join("model.lsmd");
    ls_core::save_model(&mut model, &tok, &path).expect("save");
    // Magic, version, six u32 config fields and the u64 seed come first.
    let mut counts = vec![40];
    let mut off = 44;
    for (word, _) in tok.entries() {
        counts.push(off + 4); // word length, after the id
        off += 8 + word.len();
    }
    snapshot_counts(&Snapshot::capture(&mut model), off, &mut counts);
    Format {
        name: "LSMD",
        valid: read_verified(&path).expect("read back"),
        counts,
        decode: Box::new(move |b| {
            sealed(&path, b);
            typed(load_model(&path))
        }),
    }
}

fn training_checkpoint(dir: &Path) -> Format {
    let tok = tokenizer();
    let mut model = tiny_model(&tok);
    let opt = Adam::new(&mut model, AdamConfig::default());
    let best = Snapshot::capture(&mut model);
    let path = dir.join("online.lstc");
    let ck = TrainCheckpoint::capture(Stage::Online, &mut model, &opt, (&best, 0.0, 0), 1, 2, SEED);
    ck.save(&path).expect("save");
    // Magic, version, stage tag and five u64 fields precede the u64
    // optimizer-state length, whose low half is a u32 length field. The
    // optimizer's `LSAD` bytes, the live weights and the best weights
    // follow; the checkpoint captured the first two from `opt` and `model`.
    let mut counts = vec![49];
    let mut opt_state = Vec::new();
    opt.write_state(&mut opt_state);
    adam_counts(&opt, 57, &mut counts);
    let live = Snapshot::capture(&mut model);
    let off = snapshot_counts(&live, 57 + opt_state.len(), &mut counts);
    snapshot_counts(&best, off, &mut counts);
    Format {
        name: "LSTC",
        valid: read_verified(&path).expect("read back"),
        counts,
        decode: Box::new(move |b| {
            sealed(&path, b);
            let mut model = tiny_model(&tokenizer());
            typed(
                TrainCheckpoint::load(&path, Stage::Online, SEED)
                    .and_then(|ck| ck.expect("file exists").restore(&mut model)),
            )
        }),
    }
}

fn current_pointer(dir: &Path) -> Format {
    let tok = tokenizer();
    publish_snapshot(dir, 3, &mut tiny_model(&tok), &tok).expect("publish");
    let dir = dir.to_path_buf();
    Format {
        name: "CURRENT",
        valid: read_verified(&dir.join("CURRENT")).expect("read back"),
        counts: vec![8], // name length, after the u64 generation
        decode: Box::new(move |b| {
            sealed(&dir.join("CURRENT"), b);
            typed(load_current(&dir))
        }),
    }
}

/// A scratch directory, removed when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every format under test; file-backed ones live in a directory unique to
/// `tag`, so tests running in parallel never share a file.
fn formats(tag: &str) -> (Scratch, Vec<Format>) {
    let dir = std::env::temp_dir().join(format!("ls-decode-fuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let formats = vec![
        circuit_entry(),
        feedback_record(),
        optimizer_state(),
        model_file(&dir),
        training_checkpoint(&dir),
        current_pointer(&dir),
    ];
    (Scratch(dir), formats)
}

#[test]
fn valid_encodings_decode() {
    let (_dir, formats) = formats("valid");
    for f in formats {
        assert_eq!((f.decode)(&f.valid), Ok(()), "{}", f.name);
    }
}

#[test]
fn every_truncation_is_an_error() {
    let (_dir, formats) = formats("truncation");
    for f in formats {
        for cut in 0..f.valid.len() {
            assert!(
                (f.decode)(&f.valid[..cut]).is_err(),
                "{}: cut at {cut} of {} decoded",
                f.name,
                f.valid.len()
            );
        }
    }
}

#[test]
fn every_count_or_length_at_u32_max_is_an_error() {
    let (_dir, formats) = formats("counts");
    for f in formats {
        assert!(!f.counts.is_empty(), "{}", f.name);
        for &at in &f.counts {
            let mut bytes = f.valid.clone();
            let field = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            assert!(
                (field as usize) < bytes.len(),
                "{}: offset {at} holds {field}, not a count",
                f.name
            );
            bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(
                (f.decode)(&bytes).is_err(),
                "{}: u32::MAX at offset {at} decoded",
                f.name
            );
        }
    }
}

#[test]
fn one_trailing_byte_is_an_error() {
    let (_dir, formats) = formats("trailing");
    for f in formats {
        let mut bytes = f.valid.clone();
        bytes.push(0);
        assert!((f.decode)(&bytes).is_err(), "{}: trailing byte", f.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes, bare and behind each format's own first eight
    /// bytes (so the soup gets past the magic and version checks): the
    /// only acceptable outcomes are `Ok` or a typed error. A panic, an
    /// untyped error or an abort fails the test.
    #[test]
    fn decoders_never_panic_on_byte_soup(
        soup in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        let (_dir, formats) = formats("soup");
        for f in formats {
            let _ = (f.decode)(&soup);
            let _ = (f.decode)(&[&f.valid[..8], &soup[..]].concat());
        }
    }
}
