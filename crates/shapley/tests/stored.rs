//! Differential tests for the store-backed exact path: scores answered
//! through the `ls-circuit` store — freshly compiled, score-cached, or
//! persisted-and-reloaded by a different store instance — must equal the
//! plain [`shapley_values`] output bit-for-bit (f64 `to_bits` equality).

use ls_circuit::{CanonicalShape, CircuitStore, EntryData};
use ls_provenance::{BigNat, Circuit, Dnf, Node, NodeId};
use ls_relational::{FactId, Monomial};
use ls_shapley::{shapley_values, shapley_values_stored, FactScores};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

fn dnf(monos: &[&[u32]]) -> Dnf {
    Dnf::from_monomials(
        monos
            .iter()
            .map(|ids| Monomial::from_facts(ids.iter().map(|&i| FactId(i)).collect()))
            .collect(),
    )
}

/// The store-backed scores of `d`, through the shape the caller builds.
fn stored(store: &CircuitStore, d: &Dnf) -> FactScores {
    shapley_values_stored(store, &CanonicalShape::of(d))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ls_shapley_stored_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn assert_bits_equal(plain: &FactScores, stored: &FactScores, ctx: &str) {
    assert_eq!(plain.len(), stored.len(), "{ctx}: key sets differ");
    for (f, v) in plain {
        assert_eq!(
            v.to_bits(),
            stored[f].to_bits(),
            "{ctx}: fact {f} differs: {v} vs {}",
            stored[f]
        );
    }
}

#[test]
fn stored_path_is_bit_identical_cold_warm_and_reloaded() {
    let dir = temp_dir("diff");
    let cases = [
        dnf(&[&[0]]),
        dnf(&[&[0, 1]]),
        dnf(&[&[0], &[1, 2]]),
        dnf(&[&[0, 1, 4, 6], &[0, 2, 4, 7], &[0, 3, 5, 8]]),
        dnf(&[&[3, 9], &[9, 17], &[17, 21, 40], &[55]]),
    ];
    let store = CircuitStore::open(&dir, 16).unwrap();
    for d in &cases {
        let plain = shapley_values(d);
        // Cold: compiles the canonical circuit, scores it, caches scores.
        let cold = stored(&store, d);
        assert_bits_equal(&plain, &cold, "cold");
        // Warm: answered from the attached canonical scores.
        let warm = stored(&store, d);
        assert_bits_equal(&plain, &warm, "warm");
    }
    // A different store instance over the same directory: every answer now
    // goes through the persisted file (decode + score reload).
    let reloaded = CircuitStore::open(&dir, 16).unwrap();
    for d in &cases {
        let plain = shapley_values(d);
        let from_disk = stored(&reloaded, d);
        assert_bits_equal(&plain, &from_disk, "reloaded");
    }
    assert_eq!(
        reloaded.stats().misses,
        0,
        "everything should come off disk"
    );
    assert!(reloaded.stats().disk_hits >= 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn shape_sharing_compiles_once_for_renamed_lineages() {
    let dir = temp_dir("shared");
    let store = CircuitStore::open(&dir, 16).unwrap();
    // Same shape under three different fact labelings.
    let variants = [
        dnf(&[&[0, 1], &[1, 2]]),
        dnf(&[&[10, 11], &[11, 12]]),
        dnf(&[&[5, 100], &[100, 2000]]),
    ];
    for d in &variants {
        let plain = shapley_values(d);
        let from_store = stored(&store, d);
        assert_bits_equal(&plain, &from_store, "renamed variant");
    }
    // One compile served all three labelings.
    assert_eq!(store.stats().misses, 1);
    assert_eq!(store.stats().mem_hits, 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn degenerate_provenance_matches_plain_path() {
    let dir = temp_dir("degenerate");
    let store = CircuitStore::open(&dir, 4).unwrap();
    for d in [Dnf::fls(), Dnf::tru()] {
        assert!(stored(&store, &d).is_empty());
        assert!(shapley_values(&d).is_empty());
    }
    let _ = fs::remove_dir_all(&dir);
}

fn small_dnf() -> impl Strategy<Value = Dnf> {
    proptest::collection::vec(proptest::collection::vec(0u32..40, 1..4), 1..6).prop_map(|monos| {
        Dnf::from_monomials(
            monos
                .into_iter()
                .map(|ids| Monomial::from_facts(ids.into_iter().map(FactId).collect()))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Canonicalization is transparent on arbitrary small lineages: the
    /// stored path agrees with the plain path bit-for-bit, both on the
    /// compile miss and on the score-cache hit.
    #[test]
    fn stored_matches_plain_bitwise(d in small_dnf()) {
        let dir = temp_dir("prop");
        let store = CircuitStore::open(&dir, 8).unwrap();
        let plain = shapley_values(&d);
        for pass in ["miss", "hit"] {
            let from_store = stored(&store, &d);
            prop_assert_eq!(plain.len(), from_store.len());
            for (f, v) in &plain {
                prop_assert_eq!(
                    v.to_bits(), from_store[f].to_bits(),
                    "{} pass, fact {}: {} vs {}", pass, f, v, from_store[f]
                );
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Seal a hand-made entry for `shape` into the store's directory: a
/// CRC-valid file whose circuit no compilation of the shape produces.
fn plant_entry(store: &CircuitStore, shape: &CanonicalShape, n_players: u32, nodes: Vec<Node>) {
    let circuit = Circuit::from_nodes(nodes).unwrap();
    let body = ls_circuit::format::encode(&EntryData {
        n_players,
        clauses: shape.clauses.clone(),
        root: NodeId(circuit.len() as u32 - 1),
        circuit,
        model_count: BigNat::one(),
        scores: None,
    });
    fs::write(store.entry_path(shape.key), ls_fault::seal(body)).unwrap();
}

/// Sealed entries that decode cleanly but cannot answer for their shape —
/// a circuit over a variable outside the universe, a non-monotone circuit
/// (a negative marginal), and a universe of the wrong size — answer the
/// plain path's bits, count a load error, and are replaced on disk.
#[test]
fn crafted_store_entries_answer_the_plain_bits() {
    let d = dnf(&[&[40]]);
    let shape = CanonicalShape::of(&d);
    let plain = shapley_values(&d);
    let not_x0 = Node::Decision {
        var: FactId(0),
        hi: NodeId(0),
        lo: NodeId(1),
    };
    let cases = [
        ("leaf_out_of_universe", 1, vec![Node::Leaf(FactId(7))]),
        (
            "negative_marginal",
            1,
            vec![Node::False, Node::True, not_x0],
        ),
        ("universe_size", 2, vec![Node::Leaf(FactId(0))]),
    ];
    for (tag, n_players, nodes) in cases {
        let dir = temp_dir(tag);
        let store = CircuitStore::open(&dir, 4).unwrap();
        plant_entry(&store, &shape, n_players, nodes);
        assert_bits_equal(&plain, &stored(&store, &d), tag);
        assert_eq!(store.stats().load_errors, 1, "{tag}");
        // The replacement on disk answers the next store cleanly.
        let reopened = CircuitStore::open(&dir, 4).unwrap();
        assert_bits_equal(&plain, &stored(&reopened, &d), tag);
        assert_eq!(reopened.stats().load_errors, 0, "{tag}");
        let _ = fs::remove_dir_all(&dir);
    }
}
