//! Exact Shapley values of facts via decision-DNNF model counting.
//!
//! For a query `q`, output tuple `t` with monotone provenance `φ` over the
//! lineage facts (the *endogenous* players; all other facts are exogenous and
//! fixed to true inside `φ`'s construction), the Shapley value of fact `f` is
//!
//! ```text
//! Shapley(f) = Σ_{k=0}^{n-1}  k!·(n-k-1)!/n!  ·  (#Sat₁(k) − #Sat₀(k))
//! ```
//!
//! where `#Sat₁(k)` (resp. `#Sat₀(k)`) counts size-`k` subsets `E` of the
//! other `n−1` players with `φ(E ∪ {f}) = 1` (resp. `φ(E) = 1`). Both counts
//! come from one compiled circuit, conditioned on `f = 1` / `f = 0` — the
//! polynomial-time route of Deutch, Frost, Kimelfeld & Monet (the paper's
//! `[15]`), which this crate reproduces.

use ls_provenance::{compile, BigNat, Circuit, CompileOptions, Dnf, NodeId};
use ls_relational::FactId;
use std::collections::BTreeMap;

/// Shapley (or other attribution) scores per fact.
pub type FactScores = BTreeMap<FactId, f64>;

/// Exact Shapley values of every lineage fact of `provenance`.
///
/// Players are exactly the variables of the provenance (the lineage). Facts
/// outside the lineage have Shapley value 0 and are not reported — matching
/// the paper's observation that DBShap stores only positive-contribution
/// facts.
pub fn shapley_values(provenance: &Dnf) -> FactScores {
    let players = provenance.variables();
    if players.is_empty() {
        return FactScores::new();
    }
    let compiled = compile(provenance, CompileOptions::default());
    let scores = score(&compiled.circuit, compiled.root, &players)
        .expect("a circuit compiled from a monotone DNF has no negative marginal");
    players.into_iter().zip(scores).collect()
}

/// Exact Shapley values of `players` (ascending and non-empty, covering the
/// root's support) on the circuit at `root`, in player order.
///
/// The unconditioned counting pass is shared across all facts, and each
/// conditioned pass only revisits circuit nodes that mention the fact.
/// Returns `None` if some fact has a negative marginal count: the circuit's
/// function is then not monotone, which no compilation of a monotone DNF
/// produces, so only a corrupt stored circuit gets there.
pub(crate) fn score(circuit: &Circuit, root: NodeId, players: &[FactId]) -> Option<Vec<f64>> {
    let sp = ls_obs::span("shapley.exact")
        .with("players", players.len())
        .with("circuit_nodes", circuit.len());
    let telemetry = ls_obs::enabled();
    let weights = shapley_weights(players.len());
    let base = circuit.count_base(root, players.len());
    // Every player's marginal-count pass is independent and reads only the
    // shared compiled circuit, so facts are scored across the ls-par pool.
    // Each value is a pure function of (circuit, fact), so the result set is
    // identical at every thread count.
    let scored = ls_par::par_map(players, |_, &f| {
        let fact_start = telemetry.then(std::time::Instant::now);
        let others: Vec<FactId> = players.iter().copied().filter(|&x| x != f).collect();
        let with = circuit.count_by_size_based(root, &others, (f, true), &base);
        let without = circuit.count_by_size_based(root, &others, (f, false), &base);
        let v = weighted_marginal_sum(&with, &without, &weights);
        if let Some(start) = fact_start {
            ls_obs::histogram("shapley.exact.per_fact").record(start.elapsed().as_secs_f64());
        }
        v
    });
    if telemetry {
        ls_obs::counter("shapley.exact.facts_scored").add(players.len() as u64);
        // Every coalition size 0..n is counted analytically per fact.
        ls_obs::counter("shapley.exact.coalition_sizes")
            .add((players.len() * players.len()) as u64);
    }
    drop(sp);
    scored.into_iter().collect()
}

/// The coalition-size weights `w[k] = k!·(n-k-1)!/n!` for `k = 0..n`,
/// computed in log-space for numerical stability at large `n`.
pub(crate) fn shapley_weights(n: usize) -> Vec<f64> {
    // ln k! table.
    let mut ln_fact = vec![0.0f64; n + 1];
    for k in 1..=n {
        ln_fact[k] = ln_fact[k - 1] + (k as f64).ln();
    }
    (0..n)
        .map(|k| (ln_fact[k] + ln_fact[n - 1 - k] - ln_fact[n]).exp())
        .collect()
}

/// `Σ_k w[k] · (with[k] − without[k])`, with the difference taken in exact
/// big-integer arithmetic and the final product in log-space; `None` if a
/// difference is negative.
fn weighted_marginal_sum(with: &[BigNat], without: &[BigNat], weights: &[f64]) -> Option<f64> {
    let mut acc = 0.0f64;
    for (k, w) in weights.iter().enumerate() {
        let d = with[k].checked_sub(&without[k])?;
        if d.is_zero() {
            continue;
        }
        // w is exp(ln w); combine in log-space to survive huge counts.
        acc += (w.ln() + d.ln()).exp();
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_relational::Monomial;

    fn dnf(monos: &[&[u32]]) -> Dnf {
        Dnf::from_monomials(
            monos
                .iter()
                .map(|ids| Monomial::from_facts(ids.iter().map(|&i| FactId(i)).collect()))
                .collect(),
        )
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn single_fact_gets_everything() {
        let scores = shapley_values(&dnf(&[&[0]]));
        assert_eq!(scores.len(), 1);
        assert!(close(scores[&FactId(0)], 1.0));
    }

    #[test]
    fn conjunction_splits_equally() {
        // φ = a ∧ b: symmetric players, efficiency ⇒ 1/2 each.
        let scores = shapley_values(&dnf(&[&[0, 1]]));
        assert!(close(scores[&FactId(0)], 0.5));
        assert!(close(scores[&FactId(1)], 0.5));
    }

    #[test]
    fn disjunction_splits_equally() {
        // φ = a ∨ b: also symmetric ⇒ 1/2 each.
        let scores = shapley_values(&dnf(&[&[0], &[1]]));
        assert!(close(scores[&FactId(0)], 0.5));
        assert!(close(scores[&FactId(1)], 0.5));
    }

    #[test]
    fn paper_example_2_2() {
        // Prov(D, q_inf, Alice) = (a1∧m1∧c1∧r1) ∨ (a1∧m2∧c1∧r2) ∨ (a1∧m3∧c2∧r3)
        // with a1=0, m1=1, m2=2, m3=3, c1=4, c2=5, r1=6, r2=7, r3=8.
        // The paper derives Shapley(c2) = 19/252 ≈ 0.075 and
        // Shapley(c1) = 10/63 ≈ 0.158.
        let prov = dnf(&[&[0, 1, 4, 6], &[0, 2, 4, 7], &[0, 3, 5, 8]]);
        let scores = shapley_values(&prov);
        assert!(
            close(scores[&FactId(5)], 19.0 / 252.0),
            "c2 = {}, want {}",
            scores[&FactId(5)],
            19.0 / 252.0
        );
        assert!(
            close(scores[&FactId(4)], 10.0 / 63.0),
            "c1 = {}, want {}",
            scores[&FactId(4)],
            10.0 / 63.0
        );
        // c1 participates in two derivations, c2 in one.
        assert!(scores[&FactId(4)] > scores[&FactId(5)]);
    }

    #[test]
    fn efficiency_axiom() {
        // Σ Shapley = φ(all) − φ(∅) = 1 for a derivable tuple.
        for d in [
            dnf(&[&[0, 1], &[1, 2], &[3]]),
            dnf(&[&[0, 1, 2, 3]]),
            dnf(&[&[0], &[1], &[2]]),
            dnf(&[&[0, 1, 4, 6], &[0, 2, 4, 7], &[0, 3, 5, 8]]),
        ] {
            let total: f64 = shapley_values(&d).values().sum();
            assert!(close(total, 1.0), "total = {total} for {d}");
        }
    }

    #[test]
    fn null_player_never_reported() {
        // Facts outside the lineage are simply not players.
        let scores = shapley_values(&dnf(&[&[0, 1]]));
        assert!(!scores.contains_key(&FactId(9)));
    }

    #[test]
    fn symmetry_axiom() {
        // a and b are interchangeable in (a∧c) ∨ (b∧c).
        let scores = shapley_values(&dnf(&[&[0, 2], &[1, 2]]));
        assert!(close(scores[&FactId(0)], scores[&FactId(1)]));
        // And the shared fact c contributes more.
        assert!(scores[&FactId(2)] > scores[&FactId(0)]);
    }

    #[test]
    fn empty_provenance_yields_no_scores() {
        assert!(shapley_values(&Dnf::fls()).is_empty());
        assert!(shapley_values(&Dnf::tru()).is_empty());
    }

    #[test]
    fn weights_sum_matches_identity() {
        // Σ_{k} C(n-1,k)·w[k] = 1 (the permutation-position identity).
        for n in 1..20usize {
            let w = shapley_weights(n);
            let mut binom = 1.0f64;
            let mut total = 0.0;
            for (k, wk) in w.iter().enumerate() {
                total += binom * wk;
                binom = binom * ((n - 1 - k) as f64) / ((k + 1) as f64);
            }
            assert!(close(total, 1.0), "n={n}: {total}");
        }
    }

    #[test]
    fn parallel_scoring_bit_identical_across_thread_counts() {
        let d = dnf(&[&[0, 1, 4, 6], &[0, 2, 4, 7], &[0, 3, 5, 8], &[1, 2, 9]]);
        let serial = ls_par::with_threads(1, || shapley_values(&d));
        for t in [2usize, 4] {
            let par = ls_par::with_threads(t, || shapley_values(&d));
            assert_eq!(serial.len(), par.len());
            for (f, v) in &serial {
                assert_eq!(v.to_bits(), par[f].to_bits(), "fact {f:?} at {t} threads");
            }
        }
    }

    /// Closed forms past the `u128` limit, where counting runs in big
    /// integers: a conjunction of 125 facts and 62 disjoint pairs are both
    /// symmetric in their facts, so each gets `1/n`, and the values sum to 1.
    /// The values are bit-identical at one and two threads.
    #[test]
    fn closed_forms_past_the_u128_limit() {
        let conjunction =
            Dnf::from_monomials(vec![Monomial::from_facts((0..125).map(FactId).collect())]);
        let pairs = Dnf::from_monomials(
            (0..62)
                .map(|i| Monomial::from_facts(vec![FactId(2 * i), FactId(2 * i + 1)]))
                .collect(),
        );
        for (d, n) in [(conjunction, 125), (pairs, 124)] {
            let serial = ls_par::with_threads(1, || shapley_values(&d));
            assert_eq!(serial.len(), n);
            for v in serial.values() {
                assert!((v - 1.0 / n as f64).abs() < 1e-12, "{v} vs 1/{n}");
            }
            let total: f64 = serial.values().sum();
            assert!(close(total, 1.0), "total = {total}");
            let par = ls_par::with_threads(2, || shapley_values(&d));
            for (f, v) in &serial {
                assert_eq!(v.to_bits(), par[f].to_bits(), "fact {f:?} at 2 threads");
            }
        }
    }
}
