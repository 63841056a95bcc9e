//! Property tests: the compiled decision-DNNF is equivalent to its source
//! DNF, and cardinality-resolved model counting matches brute-force
//! enumeration — with and without conditioning.

use ls_provenance::{compile, CompileOptions, Dnf, VarOrder};
use ls_relational::{FactId, Monomial};
use proptest::prelude::*;

/// A random monotone DNF over at most 10 variables with at most 6 monomials.
fn small_dnf() -> impl Strategy<Value = Dnf> {
    proptest::collection::vec(proptest::collection::vec(0u32..10, 1..5), 0..6).prop_map(|monos| {
        Dnf::from_monomials(
            monos
                .into_iter()
                .map(|ids| Monomial::from_facts(ids.into_iter().map(FactId).collect()))
                .collect(),
        )
    })
}

fn all_assignments(vars: &[FactId]) -> Vec<Vec<FactId>> {
    (0u32..(1 << vars.len()))
        .map(|mask| {
            vars.iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, f)| *f)
                .collect()
        })
        .collect()
}

proptest! {
    /// Compiled circuit computes the same Boolean function as the DNF.
    #[test]
    fn circuit_equivalent_to_dnf(d in small_dnf()) {
        for opts in [
            CompileOptions::default(),
            CompileOptions { var_order: VarOrder::Lexicographic, ..Default::default() },
            CompileOptions { disable_factoring: true, ..Default::default() },
        ] {
            let c = compile(&d, opts);
            c.circuit.check_invariants(c.root).unwrap();
            for assignment in all_assignments(&d.variables()) {
                prop_assert_eq!(
                    d.eval_sorted(&assignment),
                    c.circuit.eval_sorted(c.root, &assignment)
                );
            }
        }
    }

    /// Counting by cardinality matches brute-force enumeration.
    #[test]
    fn counting_matches_bruteforce(d in small_dnf()) {
        let c = compile(&d, CompileOptions::default());
        let vars = d.variables();
        let counts = c.circuit.count_by_size(c.root, &vars);
        let mut expected = vec![0u64; vars.len() + 1];
        for assignment in all_assignments(&vars) {
            if d.eval_sorted(&assignment) {
                expected[assignment.len()] += 1;
            }
        }
        let got: Vec<f64> = counts.iter().map(|c| c.to_f64()).collect();
        let expected_f: Vec<f64> = expected.iter().map(|&e| e as f64).collect();
        prop_assert_eq!(got, expected_f);
    }

    /// Conditioned counting matches brute-force enumeration of the
    /// conditioned function over the remaining variables.
    #[test]
    fn conditioned_counting_matches_bruteforce(d in small_dnf(), var_pick in 0usize..10, val in any::<bool>()) {
        let vars = d.variables();
        prop_assume!(!vars.is_empty());
        let var = vars[var_pick % vars.len()];
        let others: Vec<FactId> = vars.iter().copied().filter(|&v| v != var).collect();
        let c = compile(&d, CompileOptions::default());
        let base = c.circuit.count_base(c.root, vars.len());
        let counts = c.circuit.count_by_size_based(c.root, &others, (var, val), &base);
        let conditioned = d.condition(var, val);
        let mut expected = vec![0u64; others.len() + 1];
        for assignment in all_assignments(&others) {
            if conditioned.eval_sorted(&assignment) {
                expected[assignment.len()] += 1;
            }
        }
        let got: Vec<f64> = counts.iter().map(|c| c.to_f64()).collect();
        let expected_f: Vec<f64> = expected.iter().map(|&e| e as f64).collect();
        prop_assert_eq!(got, expected_f);
    }

    /// Counting over an enlarged universe multiplies totals by powers of two.
    #[test]
    fn universe_extension_scales_total(d in small_dnf(), extra in 1usize..4) {
        let vars = d.variables();
        let mut big = vars.clone();
        for i in 0..extra {
            big.push(FactId(100 + i as u32));
        }
        big.sort_unstable();
        let c = compile(&d, CompileOptions::default());
        let total_small = c.circuit.count_models(c.root, &vars).to_f64();
        let total_big = c.circuit.count_models(c.root, &big).to_f64();
        prop_assert_eq!(total_big, total_small * (1u64 << extra) as f64);
    }

    /// Compilation caching and hash-consing never change semantics: circuit
    /// size is monotone-ish but more importantly both heuristics agree.
    #[test]
    fn heuristics_agree(d in small_dnf()) {
        let a = compile(&d, CompileOptions::default());
        let b = compile(
            &d,
            CompileOptions { var_order: VarOrder::Lexicographic, ..Default::default() },
        );
        let vars = d.variables();
        let ca = a.circuit.count_by_size(a.root, &vars);
        let cb = b.circuit.count_by_size(b.root, &vars);
        let fa: Vec<f64> = ca.iter().map(|c| c.to_f64()).collect();
        let fb: Vec<f64> = cb.iter().map(|c| c.to_f64()).collect();
        prop_assert_eq!(fa, fb);
    }
}
