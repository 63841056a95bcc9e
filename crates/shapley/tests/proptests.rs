//! Property tests: the circuit-based exact Shapley implementation agrees
//! with brute-force enumeration on random monotone provenance, and satisfies
//! the Shapley axioms (efficiency, symmetry via permutation-invariance,
//! monotonicity of values).

use ls_provenance::Dnf;
use ls_relational::{FactId, Monomial};
use ls_shapley::{shapley_values, shapley_values_bruteforce, shapley_values_sampled};
use proptest::prelude::*;

fn small_dnf() -> impl Strategy<Value = Dnf> {
    proptest::collection::vec(proptest::collection::vec(0u32..9, 1..4), 1..6).prop_map(|monos| {
        Dnf::from_monomials(
            monos
                .into_iter()
                .map(|ids| Monomial::from_facts(ids.into_iter().map(FactId).collect()))
                .collect(),
        )
    })
}

proptest! {
    /// Circuit-based exact values equal brute-force values.
    #[test]
    fn exact_matches_bruteforce(d in small_dnf()) {
        let fast = shapley_values(&d);
        let brute = shapley_values_bruteforce(&d);
        prop_assert_eq!(fast.len(), brute.len());
        for (f, v) in &brute {
            prop_assert!((fast[f] - v).abs() < 1e-9, "fact {} differs: {} vs {}", f, fast[f], v);
        }
    }

    /// Efficiency: values sum to 1 for derivable tuples (non-constant φ).
    #[test]
    fn efficiency(d in small_dnf()) {
        prop_assume!(!d.is_true() && !d.is_false());
        let total: f64 = shapley_values(&d).values().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total = {}", total);
    }

    /// All values are strictly positive (every lineage fact appears in some
    /// derivation of a monotone DNF, hence is pivotal for some coalition).
    #[test]
    fn positivity(d in small_dnf()) {
        for (f, v) in shapley_values(&d) {
            prop_assert!(v > 0.0, "fact {} got non-positive value {}", f, v);
        }
    }

    /// Renaming variables permutes values consistently (anonymity).
    #[test]
    fn anonymity_under_relabeling(d in small_dnf(), offset in 1u32..50) {
        let orig = shapley_values(&d);
        let shifted = Dnf::from_monomials(
            d.monomials()
                .iter()
                .map(|m| Monomial::from_facts(
                    m.facts().iter().map(|f| FactId(f.0 + offset)).collect(),
                ))
                .collect(),
        );
        let relabeled = shapley_values(&shifted);
        for (f, v) in orig {
            prop_assert!((relabeled[&FactId(f.0 + offset)] - v).abs() < 1e-12);
        }
    }

    /// The sampling estimator is within Monte-Carlo error of the exact value.
    #[test]
    fn sampling_within_tolerance(d in small_dnf(), seed in any::<u64>()) {
        let exact = shapley_values(&d);
        let est = shapley_values_sampled(&d, 4000, seed);
        for (f, v) in &exact {
            // 4000 samples → σ ≈ 0.008; allow 6σ.
            prop_assert!((est[f] - v).abs() < 0.05, "fact {}: {} vs {}", f, est[f], v);
        }
    }
}
