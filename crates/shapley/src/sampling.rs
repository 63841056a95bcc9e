//! Monte-Carlo Shapley estimation by permutation sampling.
//!
//! Samples random permutations of the players and averages each fact's
//! marginal contribution `φ(pred ∪ {f}) − φ(pred)` over its predecessors in
//! the permutation. Unbiased, with `O(1/√samples)` error — the standard
//! fallback when exact computation is too expensive, and one of the ablation
//! baselines benchmarked against the circuit method.
//!
//! For a monotone DNF exactly one fact per permutation has marginal 1: the
//! pivotal fact, whose arrival first makes the query true. It is found by
//! the flip rule shared with the stratified sampler
//! ([`ls_circuit::pivot_position`]): one pass over the canonical clause
//! table, with arrival positions read off the permutation.
//!
//! Randomness comes from the workspace-shared counter-mode SplitMix64
//! ([`ls_fault::draw`]) — the same generator behind fault planning and the
//! stratified sampler in `ls-circuit`. Permutation `s` is a pure function of
//! `(seed, s)`, so samples can be scored in fixed-size chunks across the
//! `ls-par` pool: per-chunk tallies are exact integer counts combined in
//! chunk order, making the estimate bit-identical at every `LS_THREADS`.

use crate::exact::FactScores;
use ls_circuit::{pivot_position, CanonicalShape};
use ls_fault::draw;
use ls_provenance::Dnf;

/// Stream id separating permutation draws from other SplitMix64 consumers.
const PERM_STREAM: u64 = 0x0073_6861_706c_6579; // "shapley"

/// Samples per parallel chunk; fixed so the chunk partition (and therefore
/// the combination order) never depends on the thread count.
const CHUNK: usize = 64;

/// Estimate Shapley values from `samples` random permutations.
///
/// Deterministic in `(provenance, samples, seed)` alone: the reported map has
/// the same key set as [`crate::shapley_values`] (every lineage fact, no
/// others), and every f64 is reproduced bit-for-bit at any thread count.
pub fn shapley_values_sampled(provenance: &Dnf, samples: usize, seed: u64) -> FactScores {
    estimate(provenance, samples, seed).0
}

/// [`shapley_values_sampled`] plus the number of coalitions a prefix walk
/// would evaluate: `t* + 1` per permutation whose pivotal fact arrives at
/// position `t*` (reported as `shapley.sampled.coalitions`).
fn estimate(provenance: &Dnf, samples: usize, seed: u64) -> (FactScores, u64) {
    let shape = CanonicalShape::of(provenance);
    let players = &shape.players;
    let mut out = FactScores::new();
    if players.is_empty() || samples == 0 {
        for &f in players {
            out.insert(f, 0.0);
        }
        return (out, 0);
    }
    let mut sp = ls_obs::span("shapley.sampled")
        .with("players", players.len())
        .with("samples", samples);
    let n = players.len();
    let chunks: Vec<usize> = (0..samples.div_ceil(CHUNK)).collect();
    // Each chunk walks its own sample range; a permutation is re-derived
    // from scratch per sample (identity + Fisher–Yates on pure draws), so
    // chunk results are independent of execution order. Credits are integer
    // counts — exactly one player flips a satisfiable permutation — so the
    // in-order reduction below is exact, not merely associative-by-luck.
    let tallies = ls_par::par_map(&chunks, |_, &c| {
        let lo = c * CHUNK;
        let hi = (lo + CHUNK).min(samples);
        let mut counts = vec![0u64; n];
        let mut coalitions = 0u64;
        let mut perm: Vec<usize> = (0..n).collect();
        let mut arrival = vec![0u32; n];
        for s in lo..hi {
            for (i, p) in perm.iter_mut().enumerate() {
                *p = i;
            }
            for i in (1..n).rev() {
                let r = draw(seed, PERM_STREAM, (s * n + i) as u64);
                perm.swap(i, (r % (i as u64 + 1)) as usize);
            }
            for (t, &p) in perm.iter().enumerate() {
                arrival[p] = t as u32;
            }
            let t = pivot_position(&shape.clauses, &arrival);
            counts[perm[t]] += 1;
            coalitions += t as u64 + 1;
        }
        (counts, coalitions)
    });
    let mut totals = vec![0u64; n];
    let mut coalitions = 0u64;
    for (counts, walked) in tallies {
        for (t, c) in totals.iter_mut().zip(counts) {
            *t += c;
        }
        coalitions += walked;
    }
    for (i, &f) in players.iter().enumerate() {
        out.insert(f, totals[i] as f64 / samples as f64);
    }
    sp.record("coalitions", coalitions);
    if ls_obs::enabled() {
        ls_obs::meter("shapley.sampled.coalitions").mark(coalitions);
        ls_obs::counter("shapley.sampled.permutations").add(samples as u64);
    }
    (out, coalitions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::shapley_values;
    use ls_relational::{FactId, Monomial};
    use proptest::prelude::*;

    /// The prefix walk the flip rule replaced, kept as the oracle: insert
    /// each permutation's facts into a sorted prefix and re-evaluate the
    /// DNF after every insertion, counting the coalitions evaluated.
    fn walk_sampled(provenance: &Dnf, samples: usize, seed: u64) -> (FactScores, u64) {
        let players = provenance.variables();
        let n = players.len();
        if n == 0 || samples == 0 {
            return (players.into_iter().map(|f| (f, 0.0)).collect(), 0);
        }
        let mut counts = vec![0u64; n];
        let mut coalitions = 0u64;
        let mut perm: Vec<usize> = (0..n).collect();
        let mut prefix: Vec<FactId> = Vec::with_capacity(n);
        for s in 0..samples {
            for (i, p) in perm.iter_mut().enumerate() {
                *p = i;
            }
            for i in (1..n).rev() {
                let r = draw(seed, PERM_STREAM, (s * n + i) as u64);
                perm.swap(i, (r % (i as u64 + 1)) as usize);
            }
            prefix.clear();
            let mut prev_sat = provenance.eval_sorted(&[]);
            for &idx in &perm {
                let f = players[idx];
                let pos = prefix.binary_search(&f).unwrap_err();
                prefix.insert(pos, f);
                let now_sat = provenance.eval_sorted(&prefix);
                coalitions += 1;
                if now_sat && !prev_sat {
                    counts[idx] += 1;
                }
                prev_sat = now_sat;
                if prev_sat {
                    break;
                }
            }
        }
        let scores = players
            .iter()
            .zip(&counts)
            .map(|(&f, &c)| (f, c as f64 / samples as f64))
            .collect();
        (scores, coalitions)
    }

    /// Random monotone DNFs: 1–10 clauses over a 1–16 fact universe (sparse
    /// fact ids, so the canonical renaming is not the identity), plus the
    /// single-fact and single-clause edge cases.
    fn monotone_dnf() -> impl Strategy<Value = Dnf> {
        let fact = |v: u32| FactId(3 + 5 * v);
        let general = (1u32..=16)
            .prop_flat_map(|universe| {
                proptest::collection::vec(proptest::collection::vec(0..universe, 1..=4), 1..=10)
            })
            .prop_map(move |clauses| {
                Dnf::from_monomials(
                    clauses
                        .into_iter()
                        .map(|c| Monomial::from_facts(c.into_iter().map(fact).collect()))
                        .collect(),
                )
            });
        let single_fact = (0u32..16)
            .prop_map(move |v| Dnf::from_monomials(vec![Monomial::from_facts(vec![fact(v)])]));
        let single_clause = proptest::collection::vec(0u32..16, 1..=16).prop_map(move |c| {
            Dnf::from_monomials(vec![Monomial::from_facts(
                c.into_iter().map(fact).collect(),
            )])
        });
        prop_oneof![general, single_fact, single_clause]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The flip rule credits the fact the prefix walk credits and
        /// counts the coalitions it evaluates, across partial chunks.
        #[test]
        fn flip_rule_matches_the_prefix_walk(
            dnf in monotone_dnf(),
            seed in 0u64..1 << 32,
            samples in prop_oneof![Just(1usize), Just(63), Just(64), Just(500)],
        ) {
            let (got, got_walked) = estimate(&dnf, samples, seed);
            let (want, want_walked) = walk_sampled(&dnf, samples, seed);
            let bits = |m: &FactScores| m.iter().map(|(&f, v)| (f, v.to_bits())).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(got_walked, want_walked);
        }
    }

    fn dnf(monos: &[&[u32]]) -> Dnf {
        Dnf::from_monomials(
            monos
                .iter()
                .map(|ids| Monomial::from_facts(ids.iter().map(|&i| FactId(i)).collect()))
                .collect(),
        )
    }

    #[test]
    fn converges_to_exact() {
        let d = dnf(&[&[0, 1, 4, 6], &[0, 2, 4, 7], &[0, 3, 5, 8]]);
        let exact = shapley_values(&d);
        let est = shapley_values_sampled(&d, 20_000, 7);
        for (f, v) in &exact {
            let e = est[f];
            assert!((e - v).abs() < 0.02, "fact {f}: sampled {e} vs exact {v}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let d = dnf(&[&[0, 1], &[1, 2]]);
        let a = shapley_values_sampled(&d, 500, 42);
        let b = shapley_values_sampled(&d, 500, 42);
        assert_eq!(a, b);
        let c = shapley_values_sampled(&d, 500, 43);
        assert!(
            a != c || a.len() <= 1,
            "different seeds should usually differ"
        );
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let d = dnf(&[&[0, 1, 4, 6], &[0, 2, 4, 7], &[0, 3, 5, 8], &[1, 9]]);
        let serial = ls_par::with_threads(1, || shapley_values_sampled(&d, 1_000, 11));
        for t in [2usize, 4] {
            let par = ls_par::with_threads(t, || shapley_values_sampled(&d, 1_000, 11));
            assert_eq!(serial.len(), par.len());
            for (f, v) in &serial {
                assert_eq!(v.to_bits(), par[f].to_bits(), "fact {f:?} at {t} threads");
            }
        }
    }

    #[test]
    fn estimates_sum_to_one() {
        // Efficiency holds per permutation (exactly one player flips the
        // outcome), so the estimate sums to 1 exactly.
        let d = dnf(&[&[0, 1], &[2], &[1, 3]]);
        let est = shapley_values_sampled(&d, 777, 5);
        let total: f64 = est.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_samples_gives_zeros() {
        let d = dnf(&[&[0, 1]]);
        let est = shapley_values_sampled(&d, 0, 1);
        assert_eq!(est.len(), 2);
        assert!(est.values().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_provenance() {
        assert!(shapley_values_sampled(&Dnf::fls(), 100, 1).is_empty());
    }

    #[test]
    fn key_set_always_matches_exact() {
        // The degenerate paths (constant provenance, zero samples) must
        // report exactly the facts the exact engine would.
        for d in [Dnf::fls(), Dnf::tru(), dnf(&[&[0, 1], &[2]]), dnf(&[&[5]])] {
            for samples in [0usize, 64] {
                let exact_keys: Vec<FactId> = shapley_values(&d).into_keys().collect();
                let sampled_keys: Vec<FactId> =
                    shapley_values_sampled(&d, samples, 3).into_keys().collect();
                assert_eq!(sampled_keys, exact_keys, "dnf {d} at {samples} samples");
            }
        }
    }
}
