//! CNF Proxy — the fast, inexact ranking heuristic of the paper's `[15]`.
//!
//! The original CNF Proxy applies the Tseytin transformation to the
//! non-factorized DNF provenance and scores facts on the resulting CNF
//! instead of solving the intractable exact problem. The Tseytin CNF of a
//! monotone DNF has one auxiliary per monomial, tied to exactly that
//! monomial's facts, so this implementation scores the monomials directly.
//! The published description leaves the scoring function abstract; we
//! reproduce it with a probabilistic clause-weight score that preserves the
//! proxy's two key behavioural properties:
//!
//! * facts appearing in more derivations score higher, and
//! * facts inside shorter (more constraining) monomials score higher.
//!
//! Concretely, a fact `f` earns `2^{-(|m|-1)}` for every monomial `m ∋ f` —
//! the probability that the *rest* of the monomial is satisfied under uniform
//! random assignment, i.e. the probability that `f` is pivotal for that
//! derivation. This equals the Banzhaf value of `f` in the single-monomial
//! game and upper-bounds it in general (by union bound), which makes it a
//! cheap and surprisingly faithful ranking proxy. Scores are normalized to
//! sum to 1 so they are comparable with Shapley vectors.

use crate::exact::FactScores;
use ls_provenance::Dnf;

/// Rank facts with the CNF-proxy heuristic: each monomial `m` adds
/// `2^{-(|m|-1)}` to every fact in it, and the scores are normalized to sum
/// to 1. The constants `true` and `false` yield no scores.
pub fn cnf_proxy_scores(provenance: &Dnf) -> FactScores {
    let mut out = FactScores::new();
    if provenance.is_false() || provenance.is_true() {
        return out;
    }
    for m in provenance.monomials() {
        let len = m.len().max(1);
        let weight = 0.5f64.powi(len as i32 - 1);
        for &f in m.facts() {
            *out.entry(f).or_insert(0.0) += weight;
        }
    }
    let total: f64 = out.values().sum();
    if total > 0.0 {
        for v in out.values_mut() {
            *v /= total;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::shapley_values;
    use ls_relational::{FactId, Monomial};

    fn dnf(monos: &[&[u32]]) -> Dnf {
        Dnf::from_monomials(
            monos
                .iter()
                .map(|ids| Monomial::from_facts(ids.iter().map(|&i| FactId(i)).collect()))
                .collect(),
        )
    }

    #[test]
    fn scores_sum_to_one() {
        let d = dnf(&[&[0, 1], &[1, 2], &[3]]);
        let scores = cnf_proxy_scores(&d);
        let total: f64 = scores.values().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_derivations_score_higher() {
        // Fact 1 is in two monomials of equal size; facts 0 and 2 in one.
        let d = dnf(&[&[0, 1], &[1, 2]]);
        let scores = cnf_proxy_scores(&d);
        assert!(scores[&FactId(1)] > scores[&FactId(0)]);
        assert!((scores[&FactId(0)] - scores[&FactId(2)]).abs() < 1e-12);
    }

    #[test]
    fn shorter_monomials_score_higher() {
        let d = dnf(&[&[0], &[1, 2, 3]]);
        let scores = cnf_proxy_scores(&d);
        assert!(scores[&FactId(0)] > scores[&FactId(1)]);
    }

    #[test]
    fn ranking_often_matches_exact_on_paper_example() {
        let d = dnf(&[&[0, 1, 4, 6], &[0, 2, 4, 7], &[0, 3, 5, 8]]);
        let proxy = cnf_proxy_scores(&d);
        let exact = shapley_values(&d);
        // The proxy must agree on the paper's headline comparison: c1 (fact
        // 4, two derivations) ranks above c2 (fact 5, one derivation).
        assert!(proxy[&FactId(4)] > proxy[&FactId(5)]);
        assert!(exact[&FactId(4)] > exact[&FactId(5)]);
        // And the head fact a1 (in all derivations) tops both rankings.
        let top_proxy = proxy.iter().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        let top_exact = exact.iter().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert_eq!(top_proxy, &FactId(0));
        assert_eq!(top_exact, &FactId(0));
    }

    #[test]
    fn constants_yield_empty_scores() {
        assert!(cnf_proxy_scores(&Dnf::tru()).is_empty());
        assert!(cnf_proxy_scores(&Dnf::fls()).is_empty());
    }
}
