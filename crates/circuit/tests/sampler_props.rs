//! Property tests for the stratified sampler's statistical contract.
//!
//! On random small DNFs the anytime estimate must bracket the exact
//! Shapley value: `|estimate − exact| ≤ 3·ci95` per fact. The exact
//! reference is brute-forced here from the subset formula (n ≤ 6, so 64
//! subsets) — ls-shapley can't be a dev-dependency without a cycle, and
//! an independent oracle is the stronger check anyway.

use ls_circuit::{shapley_stratified, CanonicalShape};
use ls_provenance::Dnf;
use ls_relational::{FactId, Monomial};
use proptest::prelude::*;

/// Does `set` (bitmask over `players` indices) satisfy the DNF?
fn satisfied(dnf: &Dnf, players: &[FactId], set: u64) -> bool {
    let held = |f: FactId| {
        players
            .iter()
            .position(|&p| p == f)
            .is_some_and(|i| set >> i & 1 == 1)
    };
    dnf.monomials()
        .iter()
        .any(|m| m.facts().iter().all(|&f| held(f)))
}

/// Exact Shapley by the subset formula: Σ_S |S|!·(n−|S|−1)!/n! · marginal.
fn exact_shapley(dnf: &Dnf, players: &[FactId]) -> Vec<f64> {
    let n = players.len();
    let fact: Vec<f64> = (0..=n)
        .map(|k| (1..=k).map(|x| x as f64).product())
        .collect();
    let mut out = vec![0.0; n];
    for (i, v) in out.iter_mut().enumerate() {
        for set in 0u64..1 << n {
            if set >> i & 1 == 1 {
                continue;
            }
            let s = set.count_ones() as usize;
            let marginal = (satisfied(dnf, players, set | 1 << i) as u8
                - satisfied(dnf, players, set) as u8) as f64;
            *v += fact[s] * fact[n - s - 1] / fact[n] * marginal;
        }
    }
    out
}

fn small_dnf() -> impl Strategy<Value = Dnf> {
    // 1–4 clauses of 1–3 facts over a 6-fact universe; minimization may
    // absorb clauses, leaving anywhere from 1 player up to 6.
    proptest::collection::vec(proptest::collection::vec(0u32..6, 1..=3), 1..=4).prop_map(
        |clauses| {
            Dnf::from_monomials(
                clauses
                    .into_iter()
                    .map(|c| Monomial::from_facts(c.into_iter().map(FactId).collect()))
                    .collect(),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline statistical contract: per fact, the exact value lies
    /// within 3× the reported 95% half-width of the estimate. The sampler
    /// is deterministic given (dnf, seed), so this is a reproducible
    /// assertion, not a flaky coin flip.
    #[test]
    fn ci_brackets_the_exact_value(dnf in small_dnf(), seed in 0u64..1024) {
        let players = dnf.variables();
        prop_assume!(!players.is_empty());
        let exact = exact_shapley(&dnf, &players);
        // Two strata (even/odd fact id) stand in for source relations.
        let est = shapley_stratified(&CanonicalShape::of(&dnf), |f| (f.0 % 2) as u64, 1024, seed);
        for (i, &f) in players.iter().enumerate() {
            let err = (est.scores[&f] - exact[i]).abs();
            let bound = 3.0 * est.ci95[&f] + 1e-9;
            prop_assert!(
                err <= bound,
                "fact {f:?}: |{} − {}| = {err} > {bound}",
                est.scores[&f],
                exact[i]
            );
        }
    }

    /// The estimate's key set always mirrors the exact computation's.
    #[test]
    fn key_set_matches_players(dnf in small_dnf(), samples in (0usize..3).prop_map(|i| [0usize, 64, 256][i])) {
        let players = dnf.variables();
        let est = shapley_stratified(&CanonicalShape::of(&dnf), |f| (f.0 % 2) as u64, samples, 11);
        let keys: Vec<FactId> = est.scores.keys().copied().collect();
        prop_assert_eq!(keys, players);
    }
}
