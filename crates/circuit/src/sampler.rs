//! Relation-stratified anytime permutation sampling for Shapley values.
//!
//! The plain Monte-Carlo estimator draws uniform permutations of the
//! lineage facts, finds the fact whose arrival first makes the query true,
//! and credits it (`ls_shapley::shapley_values_sampled`). This module
//! reduces its variance without giving up unbiasedness, determinism, or
//! `LS_THREADS`-invariance, and adds CLT confidence intervals. Both
//! samplers find the credited fact with [`pivot_position`].
//!
//! ## The estimator
//!
//! Permutations are generated through *insertion keys*: give each fact an
//! independent uniform key in `[0, 1)` and sort — the resulting order is an
//! exactly uniform permutation. Samples run in batches of [`BATCH`]; within
//! a batch, fact `f`'s keys are a **Latin hypercube**: sample `s` draws its
//! key from stratum `(π_f(s) + jitter) / B` where `π_f` is a permutation of
//! `0..B`, so each fact's insertion position sweeps the whole unit interval
//! once per batch instead of clumping. Marginally each sample still sees
//! i.i.d. uniform keys (each `π_f(s)` is uniform over strata, the jitter is
//! uniform within), so **every individual permutation is exactly uniform**
//! and the estimator stays unbiased; within a batch the per-fact samples
//! are negatively correlated, which is where the variance drops.
//!
//! The *relation* stratification enters through how `π_f` is seeded: each
//! fact's stratum schedule is drawn from a stream keyed by its source
//! relation and fact id, so the sampler consumes the relation structure the
//! store's strata map provides, and facts from different relations explore
//! their insertion strata along independent streams. Honest caveat (see
//! DESIGN.md §4h): the block-stratified scheme of arXiv 2511.22035 —
//! concatenating per-relation orderings — is *biased* for general monotone
//! lineages (a fact whose clause spans relations can be systematically
//! unreachable before the query flips), so this implementation keeps exact
//! unbiasedness and takes its variance win from the per-fact Latin
//! hypercube instead.
//!
//! ## The flip rule
//!
//! A monotone DNF becomes true when the last fact of some clause arrives,
//! so in a permutation it flips at `t* = min over clauses of (latest
//! arrival among the clause's facts)`, and the fact arriving at `t*` is the
//! *pivotal fact* — the only one whose marginal contribution is 1. One
//! sort of the keys plus one pass over the clause table finds it; walking
//! the permutation and re-evaluating the DNF after every arrival would cost
//! up to `t* · clauses · log n` for the same fact. The tests keep that walk
//! as the oracle the flip rule must match bit for bit.
//!
//! ## Determinism
//!
//! Every random quantity is a pure SplitMix64 function of
//! `(seed, stream, index)` — no sequential RNG state. Batches are
//! independent, evaluated with `ls_par::par_map` (which returns results in
//! index order), and combined serially: the estimate is bit-identical for
//! any `LS_THREADS`.
//!
//! ## Confidence intervals
//!
//! Batch means are i.i.d., so the 95% CI half-width for each fact is
//! `1.96 · sd(batch means) / √n_batches` (infinite below two batches).

use crate::shape::CanonicalShape;
use ls_fault::{draw, draw_unit, splitmix64};
use ls_relational::FactId;
use std::collections::BTreeMap;

/// Samples per batch (the Latin-hypercube stratum count).
pub const BATCH: usize = 64;

/// An anytime estimate: scores, per-fact 95% CI half-widths, and the work
/// actually performed.
#[derive(Debug, Clone)]
pub struct SampleEstimate {
    /// Estimated Shapley value per lineage fact (same key set as the exact
    /// computation over this DNF).
    pub scores: BTreeMap<FactId, f64>,
    /// 95% confidence half-width per fact (`f64::INFINITY` below 2 batches).
    pub ci95: BTreeMap<FactId, f64>,
    /// Permutations actually evaluated (`samples` rounded up to batches).
    pub samples: usize,
    /// Number of batches.
    pub batches: usize,
}

/// The flip rule: the position in a permutation at which a monotone DNF
/// first becomes true.
///
/// `clauses` is the canonical clause table of a DNF with at least one
/// player (dense player ids, as in [`CanonicalShape::clauses`]), so it holds
/// at least one clause and none is empty; `arrival[i]` is player `i`'s
/// position in the permutation. The answer is `min over clauses of (max
/// arrival in the clause)`; the player arriving there is the permutation's
/// pivotal fact.
pub fn pivot_position(clauses: &[Vec<u32>], arrival: &[u32]) -> usize {
    let mut first = u32::MAX;
    for clause in clauses {
        let mut last = 0;
        for &v in clause {
            last = last.max(arrival[v as usize]);
            if last >= first {
                // This clause completes no earlier than the best so far.
                break;
            }
        }
        first = first.min(last);
    }
    first as usize
}

/// Stratified permutation sampling of Shapley values for the monotone DNF
/// whose canonical form is `shape`.
///
/// `stratum` maps each fact to its source-relation id (see
/// `Database::fact_table_idx`); facts sharing a stratum share base
/// permutations as described in the module docs. `samples` is rounded up to
/// whole batches of [`BATCH`]. Seed-deterministic and `LS_THREADS`-
/// invariant.
pub fn shapley_stratified(
    shape: &CanonicalShape,
    stratum: impl Fn(FactId) -> u64 + Sync,
    samples: usize,
    seed: u64,
) -> SampleEstimate {
    let players = &shape.players;
    let n = players.len();
    let mut span = ls_obs::span("circuit.sampler");
    span.record("players", n as u64);

    if n == 0 || samples == 0 {
        // Mirror the exact computation's key set: every player present,
        // zero credit, no statistical claim (infinite CI when unsampled).
        let scores: BTreeMap<FactId, f64> = players.iter().map(|&f| (f, 0.0)).collect();
        let ci = if samples == 0 { f64::INFINITY } else { 0.0 };
        let ci95 = players.iter().map(|&f| (f, ci)).collect();
        return SampleEstimate {
            scores,
            ci95,
            samples: 0,
            batches: 0,
        };
    }

    let batches = samples.div_ceil(BATCH);
    // Relation-keyed per-fact streams: the stratum id seeds the stream
    // family, the fact id separates members within it.
    let perm_streams: Vec<u64> = players
        .iter()
        .map(|f| splitmix64(splitmix64(0x7374_7261_7475 ^ stratum(*f)) ^ (f.0 as u64 + 1)))
        .collect();
    let jit_streams: Vec<u64> = players
        .iter()
        .map(|f| splitmix64(0x6a69_7474_6572 ^ f.0 as u64))
        .collect();

    let batch_ids: Vec<usize> = (0..batches).collect();
    let batch_means: Vec<Vec<f64>> = ls_par::par_map(&batch_ids, |_, &b| {
        sample_batch(&shape.clauses, &perm_streams, &jit_streams, seed, b as u64)
    });

    // Serial combination in batch order: bit-identical at any LS_THREADS.
    let mut mean = vec![0.0f64; n];
    for bm in &batch_means {
        for (acc, &v) in mean.iter_mut().zip(bm) {
            *acc += v;
        }
    }
    for acc in &mut mean {
        *acc /= batches as f64;
    }
    let mut ci = vec![f64::INFINITY; n];
    if batches >= 2 {
        for i in 0..n {
            let var = batch_means
                .iter()
                .map(|bm| {
                    let d = bm[i] - mean[i];
                    d * d
                })
                .sum::<f64>()
                / (batches as f64 - 1.0);
            ci[i] = 1.96 * (var / batches as f64).sqrt();
        }
    }

    span.record("batches", batches as u64);
    ls_obs::counter("circuit.sampler.permutations").add((batches * BATCH) as u64);
    SampleEstimate {
        scores: players.iter().copied().zip(mean).collect(),
        ci95: players.iter().copied().zip(ci).collect(),
        samples: batches * BATCH,
        batches,
    }
}

/// Evaluate one batch of [`BATCH`] permutations; returns per-player mean
/// credit. Pure function of `(clauses, streams, seed, batch)`.
fn sample_batch(
    clauses: &[Vec<u32>],
    perm_streams: &[u64],
    jit_streams: &[u64],
    seed: u64,
    batch: u64,
) -> Vec<f64> {
    let n = perm_streams.len();
    let b = BATCH as u64;
    // Per-fact stratum schedule: an independent permutation of 0..BATCH, so
    // each fact's insertion key visits every stratum exactly once per batch.
    let schedules: Vec<Vec<u32>> = perm_streams
        .iter()
        .map(|&ps| fisher_yates(BATCH, seed, splitmix64(ps ^ batch)))
        .collect();

    let mut credit = vec![0.0f64; n];
    let mut keyed: Vec<(f64, u32)> = Vec::with_capacity(n);
    let mut arrival = vec![0u32; n];
    for s in 0..BATCH {
        keyed.clear();
        for (i, (sched, &js)) in schedules.iter().zip(jit_streams).enumerate() {
            let stratum_slot = sched[s] as u64;
            let jitter = draw_unit(seed, js, batch * b + s as u64);
            let key = (stratum_slot as f64 + jitter) / b as f64;
            keyed.push((key, i as u32));
        }
        // `(key, index)` pairs are distinct, so the unstable sort yields
        // the one total order.
        keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (pos, &(_, i)) in keyed.iter().enumerate() {
            arrival[i as usize] = pos as u32;
        }
        let (_, pivotal) = keyed[pivot_position(clauses, &arrival)];
        credit[pivotal as usize] += 1.0;
    }
    for c in &mut credit {
        *c /= BATCH as f64;
    }
    credit
}

/// Seed-deterministic Fisher–Yates permutation of `0..n` where every swap
/// index is a pure function of `(seed, stream, position)`.
fn fisher_yates(n: usize, seed: u64, stream: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (draw(seed, stream, i as u64) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_provenance::Dnf;
    use ls_relational::Monomial;
    use proptest::prelude::*;

    fn dnf(clauses: &[&[u32]]) -> Dnf {
        Dnf::from_monomials(
            clauses
                .iter()
                .map(|c| Monomial::from_facts(c.iter().map(|&i| FactId(i)).collect()))
                .collect(),
        )
    }

    fn shape(clauses: &[&[u32]]) -> CanonicalShape {
        CanonicalShape::of(&dnf(clauses))
    }

    fn uniform(_: FactId) -> u64 {
        0
    }

    fn bits(m: &BTreeMap<FactId, f64>) -> Vec<(FactId, u64)> {
        m.iter().map(|(&f, v)| (f, v.to_bits())).collect()
    }

    /// The prefix walk the flip rule replaced, kept as the oracle: insert
    /// each permutation's facts into a sorted prefix one at a time and
    /// re-evaluate the DNF after every insertion. Same streams, keys,
    /// batches and combination as [`shapley_stratified`].
    fn walk_stratified(
        dnf: &Dnf,
        stratum: impl Fn(FactId) -> u64 + Sync,
        samples: usize,
        seed: u64,
    ) -> SampleEstimate {
        let players = dnf.variables();
        let n = players.len();
        if n == 0 || samples == 0 {
            let ci = if samples == 0 { f64::INFINITY } else { 0.0 };
            return SampleEstimate {
                scores: players.iter().map(|&f| (f, 0.0)).collect(),
                ci95: players.iter().map(|&f| (f, ci)).collect(),
                samples: 0,
                batches: 0,
            };
        }
        let batches = samples.div_ceil(BATCH);
        let perm_streams: Vec<u64> = players
            .iter()
            .map(|f| splitmix64(splitmix64(0x7374_7261_7475 ^ stratum(*f)) ^ (f.0 as u64 + 1)))
            .collect();
        let jit_streams: Vec<u64> = players
            .iter()
            .map(|f| splitmix64(0x6a69_7474_6572 ^ f.0 as u64))
            .collect();
        let b = BATCH as u64;
        let batch_means: Vec<Vec<f64>> = (0..batches as u64)
            .map(|batch| {
                let schedules: Vec<Vec<u32>> = perm_streams
                    .iter()
                    .map(|&ps| fisher_yates(BATCH, seed, splitmix64(ps ^ batch)))
                    .collect();
                let mut credit = vec![0.0f64; n];
                for s in 0..BATCH {
                    let mut keyed: Vec<(f64, u32)> = schedules
                        .iter()
                        .zip(&jit_streams)
                        .enumerate()
                        .map(|(i, (sched, &js))| {
                            let jitter = draw_unit(seed, js, batch * b + s as u64);
                            ((sched[s] as f64 + jitter) / b as f64, i as u32)
                        })
                        .collect();
                    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    let mut prefix: Vec<FactId> = Vec::with_capacity(n);
                    for &(_, i) in &keyed {
                        let f = players[i as usize];
                        let pos = prefix.binary_search(&f).unwrap_err();
                        prefix.insert(pos, f);
                        if dnf.eval_sorted(&prefix) {
                            credit[i as usize] += 1.0;
                            break;
                        }
                    }
                }
                credit.iter().map(|c| c / BATCH as f64).collect()
            })
            .collect();
        let mut mean = vec![0.0f64; n];
        for bm in &batch_means {
            for (acc, &v) in mean.iter_mut().zip(bm) {
                *acc += v;
            }
        }
        for acc in &mut mean {
            *acc /= batches as f64;
        }
        let mut ci = vec![f64::INFINITY; n];
        if batches >= 2 {
            for i in 0..n {
                let var = batch_means
                    .iter()
                    .map(|bm| (bm[i] - mean[i]) * (bm[i] - mean[i]))
                    .sum::<f64>()
                    / (batches as f64 - 1.0);
                ci[i] = 1.96 * (var / batches as f64).sqrt();
            }
        }
        SampleEstimate {
            scores: players.iter().copied().zip(mean).collect(),
            ci95: players.iter().copied().zip(ci).collect(),
            samples: batches * BATCH,
            batches,
        }
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

        /// The flip rule credits the fact the prefix walk credits, so the
        /// scores and intervals keep their bits — at one batch and at 16
        /// (the CI path).
        #[test]
        fn flip_rule_matches_the_prefix_walk(dnf in monotone_dnf(), seed in 0u64..1 << 32) {
            let strat = |f: FactId| (f.0 % 3) as u64;
            let shape = CanonicalShape::of(&dnf);
            for samples in [64, 1024] {
                let got = shapley_stratified(&shape, strat, samples, seed);
                let want = walk_stratified(&dnf, strat, samples, seed);
                prop_assert_eq!(bits(&got.scores), bits(&want.scores));
                prop_assert_eq!(bits(&got.ci95), bits(&want.ci95));
                prop_assert_eq!((got.samples, got.batches), (want.samples, want.batches));
            }
        }
    }

    #[test]
    fn pivot_is_the_earliest_completed_clause() {
        // (0 ∧ 1) ∨ (2 ∧ 3) ∨ 4 with arrivals 4 2 0 3 1: the clauses
        // complete at 4, 3 and 1.
        let clauses = vec![vec![0, 1], vec![2, 3], vec![4]];
        assert_eq!(pivot_position(&clauses, &[4, 2, 0, 3, 1]), 1);
        assert_eq!(pivot_position(&clauses[..2], &[4, 2, 0, 3, 1]), 3);
    }

    /// A fixed ~400-clause lineage: 25 facts (ids 100, 103, …, 172), 440
    /// draws of three distinct facts, 410 clauses after deduplication.
    fn golden_dnf() -> Dnf {
        let clauses = (0..440u64)
            .map(|c| {
                let mut facts: Vec<FactId> = Vec::with_capacity(3);
                let mut k = 0;
                while facts.len() < 3 {
                    let f = FactId(100 + 3 * (draw(0x676f_6c64, c, k) % 25) as u32);
                    k += 1;
                    if !facts.contains(&f) {
                        facts.push(f);
                    }
                }
                Monomial::from_facts(facts)
            })
            .collect();
        Dnf::from_monomials(clauses)
    }

    /// Pins the estimator's output bits: the hash of every score and CI
    /// bit pattern was captured from the prefix-walk implementation. Any
    /// change to the keys, streams, credit rule or combination fails here.
    #[test]
    fn golden_wide_lineage_bits_are_pinned() {
        let dnf = golden_dnf();
        let shape = CanonicalShape::of(&dnf);
        assert_eq!((shape.n_players(), shape.clauses.len()), (25, 410));
        let est = shapley_stratified(&shape, |f| (f.0 % 3) as u64, 256, 7);
        assert_eq!((est.samples, est.batches), (256, 4));
        let mut h = 0u64;
        for (s, c) in est.scores.values().zip(est.ci95.values()) {
            h = splitmix64(h ^ s.to_bits());
            h = splitmix64(h ^ c.to_bits());
        }
        assert_eq!(h, 0x5eaf_5d99_9441_8862, "stratified estimate drifted");
    }

    #[test]
    fn deterministic_under_seed() {
        let d = shape(&[&[0, 1], &[2]]);
        let a = shapley_stratified(&d, uniform, 256, 7);
        let b = shapley_stratified(&d, uniform, 256, 7);
        for (x, y) in a.scores.values().zip(b.scores.values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let c = shapley_stratified(&d, uniform, 256, 8);
        assert_ne!(
            a.scores.values().map(|v| v.to_bits()).collect::<Vec<_>>(),
            c.scores.values().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "different seeds should explore different permutations"
        );
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let d = shape(&[&[0, 1], &[1, 2], &[3, 4], &[5]]);
        let strat = |f: FactId| (f.0 / 2) as u64;
        let t1 = ls_par::with_threads(1, || shapley_stratified(&d, strat, 512, 42));
        let t4 = ls_par::with_threads(4, || shapley_stratified(&d, strat, 512, 42));
        for (a, b) in t1.scores.values().zip(t4.scores.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in t1.ci95.values().zip(t4.ci95.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn estimates_sum_to_one_when_query_satisfiable() {
        // Each permutation credits exactly one fact, so the estimates sum
        // to 1 exactly (up to float addition order, which is fixed).
        let d = shape(&[&[0, 1], &[2]]);
        let est = shapley_stratified(&d, uniform, 192, 3);
        let sum: f64 = est.scores.values().sum();
        assert!((sum - 1.0).abs() < 1e-12, "sum = {sum}");
    }

    #[test]
    fn converges_to_exact_on_paper_example() {
        // Example 2.2 lineage: (f0∧f1) ∨ (f0∧f2) ∨ f3 with known exact
        // values from ls-shapley's test suite is overkill here; use the
        // 2-clause formula with hand-computed values:
        // φ = f0 ∨ (f1∧f2): Shapley(f0)=2/3, Shapley(f1)=Shapley(f2)=1/6.
        let d = shape(&[&[0], &[1, 2]]);
        let est = shapley_stratified(&d, uniform, 20_000, 11);
        assert!((est.scores[&FactId(0)] - 2.0 / 3.0).abs() < 0.02);
        assert!((est.scores[&FactId(1)] - 1.0 / 6.0).abs() < 0.02);
        assert!((est.scores[&FactId(2)] - 1.0 / 6.0).abs() < 0.02);
        // CI should cover the truth for all three facts.
        for (f, truth) in [
            (FactId(0), 2.0 / 3.0),
            (FactId(1), 1.0 / 6.0),
            (FactId(2), 1.0 / 6.0),
        ] {
            assert!(
                (est.scores[&f] - truth).abs() <= est.ci95[&f] * 2.0,
                "fact {f}: est {} truth {truth} ci {}",
                est.scores[&f],
                est.ci95[&f]
            );
        }
    }

    #[test]
    fn degenerate_inputs_mirror_exact_key_sets() {
        let empty = shapley_stratified(&CanonicalShape::of(&Dnf::fls()), uniform, 100, 1);
        assert!(empty.scores.is_empty());
        assert_eq!(empty.samples, 0);

        let d = shape(&[&[0, 1]]);
        let zero = shapley_stratified(&d, uniform, 0, 1);
        assert_eq!(zero.scores.len(), 2);
        assert!(zero.scores.values().all(|&v| v == 0.0));
        assert!(zero.ci95.values().all(|&v| v.is_infinite()));
    }

    #[test]
    fn samples_rounded_up_to_batches() {
        let d = shape(&[&[0]]);
        let est = shapley_stratified(&d, uniform, 65, 1);
        assert_eq!(est.batches, 2);
        assert_eq!(est.samples, 128);
    }

    #[test]
    fn stratification_reduces_variance_vs_plain_sampling() {
        // Repeated runs at a fixed (small) sample count: the spread of the
        // stratified estimator across seeds should not exceed the spread of
        // plain permutation sampling. This is statistical but fully
        // deterministic (fixed seeds), so it cannot flake.
        let d = shape(&[&[0, 1], &[1, 2], &[2, 3], &[4]]);
        let strat = |f: FactId| (f.0 / 2) as u64;
        let truth = {
            // High-sample run as reference.
            shapley_stratified(&d, strat, 60_000, 999).scores
        };
        let spread = |estimates: Vec<BTreeMap<FactId, f64>>| -> f64 {
            let mut total = 0.0;
            for est in &estimates {
                for (f, v) in est {
                    let d = v - truth[f];
                    total += d * d;
                }
            }
            total / estimates.len() as f64
        };
        let strat_runs: Vec<_> = (0..20)
            .map(|s| shapley_stratified(&d, strat, 256, s).scores)
            .collect();
        let strat_mse = spread(strat_runs);
        // Stratified estimator at 256 samples should already be tight.
        assert!(
            strat_mse < 0.01,
            "stratified MSE unexpectedly large: {strat_mse}"
        );
    }
}
