//! Explaining query answers over a realistic movie database.
//!
//! Generates the synthetic IMDB-like database, runs a join query, and
//! explains one output tuple three different ways: exact Shapley (knowledge
//! compilation), permutation sampling and the CNF Proxy heuristic — then
//! compares the three query-similarity metrics on a family of related
//! queries (the paper's Examples 2.3, 2.4 and 3.1 in the wild).
//!
//! ```text
//! cargo run --release --example movie_explanations
//! ```

use learnshapley::prelude::*;
use std::time::Instant;

fn main() {
    let db = generate_imdb(&ImdbConfig::default());
    println!(
        "synthetic IMDB: {} facts across tables {:?}\n",
        db.fact_count(),
        db.table_names()
    );

    // Which actors appear in movies of American companies?
    let q = parse_query(
        "SELECT DISTINCT actors.name FROM movies, actors, companies, roles \
         WHERE movies.title = roles.movie AND actors.name = roles.actor AND \
         movies.company = companies.name AND companies.country = 'USA'",
    )
    .unwrap();
    let result = evaluate(&db, &q).unwrap();
    println!("query returns {} actors", result.len());

    // Explain the answer with the richest provenance.
    let tuple = result
        .tuples
        .iter()
        .max_by_key(|t| t.derivations.len())
        .expect("non-empty result");
    println!(
        "\nexplaining {} — {} derivations, {} facts in lineage",
        tuple.value_string(),
        tuple.derivations.len(),
        tuple.lineage().len()
    );
    let prov = Dnf::of_tuple(tuple);

    let start = Instant::now();
    let exact = shapley_values(&prov);
    let exact_time = start.elapsed();
    let start = Instant::now();
    let sampled = shapley_values_sampled(&prov, 2000, 42);
    let sampled_time = start.elapsed();
    let start = Instant::now();
    let proxy = cnf_proxy_scores(&prov);
    let proxy_time = start.elapsed();

    println!("\ntop-5 facts by each attribution method:");
    println!(
        "{:<44} {:>8} {:>8} {:>8}",
        "fact", "exact", "sampled", "proxy"
    );
    for f in rank_descending(&exact).into_iter().take(5) {
        let (table, row) = db.fact(f).unwrap();
        let label: String = format!("{table} {row}").chars().take(42).collect();
        println!(
            "{:<44} {:>8.4} {:>8.4} {:>8.4}",
            label, exact[&f], sampled[&f], proxy[&f]
        );
    }
    println!("\ntimings: exact {exact_time:?}, sampled {sampled_time:?}, proxy {proxy_time:?}");

    // ---- Query similarity on a mutated family ------------------------------
    let variants = [
        (
            "projection swap (≈ q3)",
            "SELECT DISTINCT actors.age FROM movies, actors, companies, roles \
          WHERE movies.title = roles.movie AND actors.name = roles.actor AND \
          movies.company = companies.name AND companies.country = 'USA'",
        ),
        (
            "extra predicate (≈ q1)",
            "SELECT DISTINCT actors.name FROM movies, actors, companies, roles \
          WHERE movies.title = roles.movie AND actors.name = roles.actor AND \
          movies.company = companies.name AND companies.country = 'USA' AND \
          actors.age > 40",
        ),
        (
            "different country",
            "SELECT DISTINCT actors.name FROM movies, actors, companies, roles \
          WHERE movies.title = roles.movie AND actors.name = roles.actor AND \
          movies.company = companies.name AND companies.country = 'Japan'",
        ),
    ];
    println!("\nsimilarity of q to its variants (syntax / witness / rank):");
    for (label, sql) in variants {
        let v = parse_query(sql).unwrap();
        let v_result = evaluate(&db, &v).unwrap();
        let sim_s = syntax_similarity(&q, &v);
        let sim_w = witness_similarity(&result, &v_result);

        // Rank-based similarity needs per-tuple Shapley rankings.
        let scores_of = |r: &ls_relational::QueryResult| -> Vec<FactScores> {
            r.tuples
                .iter()
                .take(6)
                .map(|t| shapley_values(&Dnf::of_tuple(t)))
                .collect()
        };
        let sim_r = rank_based_similarity(
            &scores_of(&result),
            &scores_of(&v_result),
            &RankSimOptions::default(),
        );
        println!("  {label:<26} {sim_s:.3} / {sim_w:.3} / {sim_r:.3}");
    }
    println!(
        "\nnote the projection swap: witness similarity collapses to ~0 while \
         rank-based similarity stays high — the gap the paper's novel metric closes."
    );
}
