//! Store-backed exact Shapley: compile once per lineage *shape*, score from
//! cache thereafter.
//!
//! Two observations make this sound. First, the compiler is a deterministic
//! function of the DNF, and its variable ordering, component splits, and
//! cache tie-breaks all key off the *relative* order of `FactId`s — so the
//! monotone renaming that produces the canonical shape yields a circuit
//! isomorphic to the one the original DNF compiles to. Second, the exact
//! Shapley computation is itself a pure function of (circuit, sorted player
//! list). Together: the canonical scores attached to a store entry, renamed
//! back through [`CanonicalShape::players`], are bit-for-bit the scores
//! [`crate::shapley_values`] would have produced from scratch. The
//! differential tests in `tests/stored.rs` pin exactly that.

use crate::exact::{score, FactScores};
use ls_circuit::{CanonicalShape, CircuitStore};
use ls_relational::FactId;

/// Exact Shapley values of every fact of `shape`'s lineage, answered
/// through the compiled-circuit `store`.
///
/// A persisted or resident entry for the shape is reused (recurring shapes
/// across tuples compile once per store directory, ever). Canonical scores
/// are attached to the entry on first scoring, so warm hits are pure
/// rename-and-lookup. An entry whose circuit scores a negative marginal —
/// no compilation of a monotone lineage has one — counts as a load error
/// and is compiled afresh.
///
/// Returns the same map — bit-for-bit — as [`crate::shapley_values`] on the
/// DNF the shape was canonicalized from.
pub fn shapley_values_stored(store: &CircuitStore, shape: &CanonicalShape) -> FactScores {
    if shape.players.is_empty() {
        return FactScores::new();
    }
    let entry = store.get_or_compile_shape(shape);
    if let Some(canonical) = entry.scores().filter(|s| s.len() == shape.n_players()) {
        return rename_back(shape, canonical);
    }
    let canon_players: Vec<FactId> = (0..shape.n_players() as u32).map(FactId).collect();
    let (entry, scores) = match score(&entry.circuit, entry.root, &canon_players) {
        Some(scores) => (entry, scores),
        None => {
            let fresh = store.recompile(shape);
            let scores = score(&fresh.circuit, fresh.root, &canon_players)
                .expect("a freshly compiled circuit has no negative marginal");
            (fresh, scores)
        }
    };
    let out = rename_back(shape, &scores);
    // Persistence is best-effort: a full disk must not fail scoring.
    let _ = store.put_scores(&entry, scores);
    out
}

/// Map canonical per-variable scores back to the original fact ids.
fn rename_back(shape: &CanonicalShape, canonical: &[f64]) -> FactScores {
    shape
        .players
        .iter()
        .copied()
        .zip(canonical.iter().copied())
        .collect()
}
