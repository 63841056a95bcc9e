//! Inside the exact-Shapley machinery: provenance → circuit → counting.
//!
//! Walks the knowledge-compilation pipeline on the paper's running example:
//! Boolean provenance in DNF, compilation to a decision-DNNF (with the
//! disjoint-OR and common-factor optimizations visible in the stats),
//! Graphviz export, cardinality-resolved model counting, and the Shapley
//! values assembled from the counts.
//!
//! ```text
//! cargo run --release --example provenance_circuits [out.dot]
//! ```

use learnshapley::prelude::*;
use learnshapley::provenance::{circuit_to_dot, VarOrder};
use learnshapley::relational::Monomial;

fn main() {
    // Prov(D, q_inf, Alice) from the paper's Example 2.1.
    let prov = Dnf::from_monomials(vec![
        Monomial::from_facts(vec![FactId(0), FactId(1), FactId(4), FactId(6)]),
        Monomial::from_facts(vec![FactId(0), FactId(2), FactId(4), FactId(7)]),
        Monomial::from_facts(vec![FactId(0), FactId(3), FactId(5), FactId(8)]),
    ]);
    println!("provenance (DNF): {prov}");
    println!(
        "lineage: {} facts, {} derivations\n",
        prov.variables().len(),
        prov.len()
    );

    // Compile under the default heuristics and the ablation configurations.
    for (label, opts) in [
        (
            "default (most-frequent + factoring + disjoint-OR)",
            CompileOptions::default(),
        ),
        (
            "lexicographic variable order",
            CompileOptions {
                var_order: VarOrder::Lexicographic,
                ..Default::default()
            },
        ),
        (
            "no disjoint-OR decomposition",
            CompileOptions {
                disable_or_decomposition: true,
                ..Default::default()
            },
        ),
    ] {
        let c = compile(&prov, opts);
        println!(
            "{label}: {} nodes, {} decisions, {} cache hits",
            c.stats.nodes, c.stats.decisions, c.stats.cache_hits
        );
    }

    let compiled = compile(&prov, CompileOptions::default());
    compiled
        .circuit
        .check_invariants(compiled.root)
        .expect("decomposability/determinism invariants");

    // Cardinality-resolved model counting — the primitive behind Shapley.
    let universe = prov.variables();
    let counts = compiled.circuit.count_by_size(compiled.root, &universe);
    println!("\nsatisfying assignments by number of present facts:");
    for (k, c) in counts.iter().enumerate() {
        let v = c.to_f64();
        if v > 0.0 {
            println!("  |E| = {k}: {v}");
        }
    }
    let total = compiled.circuit.count_models(compiled.root, &universe);
    println!("total models: {total} of 2^{} subsets", universe.len());

    // Shapley values assembled from conditioned counts.
    let scores = shapley_values(&prov);
    println!("\nexact Shapley values:");
    for f in rank_descending(&scores) {
        println!("  {f}: {:.6}", scores[&f]);
    }
    println!(
        "\nΣ = {:.6} (efficiency axiom: the derivable tuple distributes 1.0)",
        scores.values().sum::<f64>()
    );

    // Graphviz export.
    let dot = circuit_to_dot(&compiled.circuit, compiled.root);
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "circuit.dot".into());
    match std::fs::write(&path, &dot) {
        Ok(()) => println!("\ncircuit written to {path} (render: dot -Tsvg {path})"),
        Err(e) => println!("\ncould not write {path}: {e}\n{dot}"),
    }
}
