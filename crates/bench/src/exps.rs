//! One function per table/figure of the paper's evaluation section.
//!
//! Every function is self-contained (it trains what it needs at the given
//! [`Scale`]) and returns a [`TextTable`] that the `experiments` binary
//! prints and writes to `results/*.csv`. The shape targets each experiment
//! must reproduce are listed in DESIGN.md §3.

use crate::methods::{eval_nearest, matrices, table3_methods, train_and_eval, NQ_NEIGHBORS};
use crate::report::{f3, f4, TextTable};
use crate::scale::Scale;
use ls_core::{
    linear_slope, ndcg_at_k, partial_ndcg_at_k, pearson, precision_at_k, predict_scores,
    EncoderKind, NqMetric, PretrainObjectives, Trained,
};
use ls_dbshap::{
    nested_train_subsets, split_similarity_row, table1 as ds_table1, unseen_fact_fraction, Dataset,
    SimilarityMatrices, Split, SWEEP_FRACTIONS,
};
use ls_provenance::{compile, CompileOptions, Dnf, VarOrder};
use ls_shapley::{
    cnf_proxy_scores, rank_descending, shapley_values, shapley_values_sampled, FactScores,
};
use std::time::Duration;

/// The harness reads its timing columns back from the shared ls-obs
/// histograms, so recording must be on even when `LS_OBS` is unset.
fn ensure_recording() {
    if ls_obs::level() < ls_obs::Level::Summary {
        ls_obs::set_level(ls_obs::Level::Summary);
    }
}

/// Histogram handle scoped to one experiment: recording is forced on and any
/// samples from earlier experiments in the same process are cleared.
fn scoped_hist(name: &'static str) -> &'static ls_obs::Histogram {
    ensure_recording();
    let h = ls_obs::histogram(name);
    h.reset();
    h
}

/// Seconds (from histogram stats) back to a printable `Duration`.
fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

/// Per-(query, tuple) evaluation of one trained model on a query set.
#[derive(Debug, Clone)]
pub struct PairEval {
    /// Query index in the dataset.
    pub query: usize,
    /// Tuple index within the query result.
    pub tuple_idx: usize,
    /// Lineage size.
    pub lineage_len: usize,
    /// Number of tables joined by the query.
    pub join_width: usize,
    /// NDCG@10 of the predicted ranking.
    pub ndcg10: f64,
    /// Predicted scores.
    pub predicted: FactScores,
    /// Gold Shapley scores.
    pub gold: FactScores,
}

/// Evaluate a trained model per (query, tuple) pair.
pub fn per_pair_eval(trained: &mut Trained, ds: &Dataset, queries: &[usize]) -> Vec<PairEval> {
    let max_len = trained.model.encoder.config.max_len;
    let mut out = Vec::new();
    for &qi in queries {
        let q = &ds.queries[qi];
        for t in &q.tuples {
            let tuple = &q.result.tuples[t.tuple_idx];
            let lineage: Vec<_> = t.shapley.keys().copied().collect();
            let predicted = predict_scores(
                &trained.model,
                &trained.tokenizer,
                &ds.db,
                &q.sql,
                tuple,
                &lineage,
                max_len,
            );
            out.push(PairEval {
                query: qi,
                tuple_idx: t.tuple_idx,
                lineage_len: lineage.len(),
                join_width: q.query.join_width(),
                ndcg10: ndcg_at_k(&predicted, &t.shapley, 10),
                predicted,
                gold: t.shapley.clone(),
            });
        }
    }
    out
}

/// Table 1 — DBShap statistics per split for both databases.
pub fn table1(imdb: &Dataset, academic: &Dataset) -> TextTable {
    let mut t = TextTable::new(
        "Table 1 — DBShap statistics (this reproduction's scale)",
        &["database", "split", "# queries", "# results", "# facts"],
    );
    for ds in [imdb, academic] {
        let [tr, dv, te, total] = ds_table1(ds);
        for (name, s) in [("train", tr), ("dev", dv), ("test", te), ("total", total)] {
            t.row(vec![
                ds.db_name.clone(),
                name.into(),
                s.queries.to_string(),
                s.results.to_string(),
                s.facts.to_string(),
            ]);
        }
    }
    t
}

/// Table 2 — average query similarities between splits.
pub fn table2(ds: &Dataset, ms: &SimilarityMatrices) -> TextTable {
    let mut t = TextTable::new(
        format!("Table 2 — average query similarities ({})", ds.db_name),
        &["metric", "train-train", "train-dev", "train-test", "all"],
    );
    for (name, m) in [
        ("Syntax-Based Similarity", &ms.syntax),
        ("Witness-Based Similarity", &ms.witness),
        ("Rank-Based Similarity", &ms.rank),
    ] {
        let r = split_similarity_row(ds, m);
        t.row(vec![
            name.into(),
            f3(r.train_train),
            f3(r.train_dev),
            f3(r.train_test),
            f3(r.all),
        ]);
    }
    t
}

/// Figure 7 — pairwise similarity heatmaps (returned as summary stats; the
/// caller also writes the raw matrices as CSV and prints ASCII heatmaps).
pub fn fig7_summary(ds: &Dataset, ms: &SimilarityMatrices) -> TextTable {
    let mut t = TextTable::new(
        format!("Figure 7 — similarity-matrix structure ({})", ds.db_name),
        &[
            "metric",
            "mean",
            "frac > 0.1",
            "frac > 0.5",
            "orthogonality vs syntax",
        ],
    );
    let frac = |m: &ls_similarity::SimilarityMatrix, thr: f64| {
        let n = m.len();
        let mut cnt = 0usize;
        let mut tot = 0usize;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    tot += 1;
                    if m.get(i, j) > thr {
                        cnt += 1;
                    }
                }
            }
        }
        cnt as f64 / tot.max(1) as f64
    };
    // Orthogonality: mean |sim_m − sim_syntax| off-diagonal.
    let ortho = |m: &ls_similarity::SimilarityMatrix| {
        let n = m.len();
        let mut total = 0.0;
        let mut cnt = 0usize;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    total += (m.get(i, j) - ms.syntax.get(i, j)).abs();
                    cnt += 1;
                }
            }
        }
        total / cnt.max(1) as f64
    };
    for (name, m) in [
        ("syntax", &ms.syntax),
        ("witness", &ms.witness),
        ("rank", &ms.rank),
    ] {
        t.row(vec![
            name.into(),
            f3(m.mean_offdiag()),
            f3(frac(m, 0.1)),
            f3(frac(m, 0.5)),
            f3(ortho(m)),
        ]);
    }
    t
}

/// Table 3 — main results on one database.
pub fn table3(ds: &Dataset, scale: &Scale) -> TextTable {
    let mut t = TextTable::new(
        format!("Table 3 — main results ({})", ds.db_name),
        &["method", "NDCG@10", "p@1", "p@3", "p@5"],
    );
    for m in table3_methods(ds, scale) {
        t.row(vec![
            m.name,
            f3(m.summary.ndcg10),
            f3(m.summary.p1),
            f3(m.summary.p3),
            f3(m.summary.p5),
        ]);
    }
    t
}

/// Table 4 — pre-training similarity-combination ablation (Academic).
pub fn table4(ds: &Dataset, scale: &Scale) -> TextTable {
    let combos: [(&str, PretrainObjectives); 7] = [
        (
            "witness & syntax & rank (full)",
            PretrainObjectives {
                rank: true,
                witness: true,
                syntax: true,
            },
        ),
        (
            "witness & rank (w/o syntax)",
            PretrainObjectives {
                rank: true,
                witness: true,
                syntax: false,
            },
        ),
        (
            "syntax & rank (w/o witness)",
            PretrainObjectives {
                rank: true,
                witness: false,
                syntax: true,
            },
        ),
        (
            "witness & syntax (w/o rank)",
            PretrainObjectives {
                rank: false,
                witness: true,
                syntax: true,
            },
        ),
        (
            "syntax only",
            PretrainObjectives {
                rank: false,
                witness: false,
                syntax: true,
            },
        ),
        (
            "witness only",
            PretrainObjectives {
                rank: false,
                witness: true,
                syntax: false,
            },
        ),
        (
            "rank only",
            PretrainObjectives {
                rank: true,
                witness: false,
                syntax: false,
            },
        ),
    ];
    let train = ds.split_indices(Split::Train);
    let test = ds.split_indices(Split::Test);
    let ms = matrices(ds);
    let mut t = TextTable::new(
        format!("Table 4 — pre-training objective ablation ({})", ds.db_name),
        &["pre-training objectives", "NDCG@10", "p@1", "p@3", "p@5"],
    );
    for (label, obj) in combos {
        let mut cfg = scale.pipeline(EncoderKind::Base);
        cfg.pretrain = Some(obj);
        let (_, s) = train_and_eval(ds, Some(&ms), &train, &test, &cfg);
        t.row(vec![
            label.into(),
            f3(s.ndcg10),
            f3(s.p1),
            f3(s.p3),
            f3(s.p5),
        ]);
    }
    t
}

/// Table 5 — qualitative example: ranking a lineage containing facts unseen
/// during training.
pub fn table5(ds: &Dataset, scale: &Scale) -> TextTable {
    let train = ds.split_indices(Split::Train);
    let test = ds.split_indices(Split::Test);
    let ms = matrices(ds);
    let (mut trained, _) = train_and_eval(
        ds,
        Some(&ms),
        &train,
        &test,
        &scale.pipeline(EncoderKind::Base),
    );
    let seen = ds.facts_in_split(Split::Train);

    // Pick the test tuple with the best mix: has unseen facts, small enough
    // lineage to print.
    let pairs = per_pair_eval(&mut trained, ds, &test);
    let chosen = pairs
        .iter()
        .filter(|p| p.lineage_len <= 8 && p.gold.keys().any(|f| !seen.contains(f)))
        .max_by(|a, b| a.ndcg10.total_cmp(&b.ndcg10))
        .or_else(|| pairs.iter().max_by(|a, b| a.ndcg10.total_cmp(&b.ndcg10)));

    let mut t = TextTable::new(
        format!("Table 5 — ranking with unseen facts ({})", ds.db_name),
        &["predicted rank", "true rank", "fact", "unseen?"],
    );
    if let Some(p) = chosen {
        let pred_order = rank_descending(&p.predicted);
        let gold_order = rank_descending(&p.gold);
        for (gold_pos, f) in gold_order.iter().enumerate() {
            let pred_pos = pred_order.iter().position(|x| x == f).unwrap();
            let rendered = ls_core::render_fact(&ds.db, *f);
            let short: String = rendered.chars().take(48).collect();
            t.row(vec![
                (pred_pos + 1).to_string(),
                (gold_pos + 1).to_string(),
                short,
                if seen.contains(f) {
                    "".into()
                } else {
                    "UNSEEN".into()
                },
            ]);
        }
    }
    t
}

/// Table 6 — inference times: average and maximum per (query, tuple) pair.
pub fn table6(ds: &Dataset, scale: &Scale) -> TextTable {
    let train = ds.split_indices(Split::Train);
    let test = ds.split_indices(Split::Test);
    let ms = matrices(ds);
    let (base, _) = train_and_eval(
        ds,
        Some(&ms),
        &train,
        &test,
        &scale.pipeline(EncoderKind::Base),
    );
    let (large, _) = train_and_eval(
        ds,
        Some(&ms),
        &train,
        &test,
        &scale.pipeline(EncoderKind::Large),
    );
    let nq_syntax = ls_core::NearestQueries::fit(ds, &train, NqMetric::Syntax, NQ_NEIGHBORS);
    let nq_witness = ls_core::NearestQueries::fit(ds, &train, NqMetric::Witness, NQ_NEIGHBORS);

    // Per-pair latencies land in scoped ls-obs histograms — the same
    // measurement path the engine's own telemetry uses.
    const K_BASE: &str = "bench.table6.learnshapley_base";
    const K_LARGE: &str = "bench.table6.learnshapley_large";
    const K_SYNTAX: &str = "bench.table6.nq_syntax";
    const K_WITNESS: &str = "bench.table6.nq_witness";
    const K_EXACT: &str = "bench.table6.exact_shapley";
    const K_PROXY: &str = "bench.table6.cnf_proxy";
    for k in [K_BASE, K_LARGE, K_SYNTAX, K_WITNESS, K_EXACT, K_PROXY] {
        scoped_hist(k);
    }

    for &qi in &test {
        let q = &ds.queries[qi];
        let probe = ls_core::QueryProbe {
            query: &q.query,
            result: &q.result,
            tuple_scores: None,
        };
        for t in &q.tuples {
            let tuple = &q.result.tuples[t.tuple_idx];
            let lineage: Vec<_> = t.shapley.keys().copied().collect();
            let max_len = base.model.encoder.config.max_len;

            let _ = ls_obs::time(K_BASE, || {
                predict_scores(
                    &base.model,
                    &base.tokenizer,
                    &ds.db,
                    &q.sql,
                    tuple,
                    &lineage,
                    max_len,
                )
            });
            let _ = ls_obs::time(K_LARGE, || {
                predict_scores(
                    &large.model,
                    &large.tokenizer,
                    &ds.db,
                    &q.sql,
                    tuple,
                    &lineage,
                    max_len,
                )
            });
            let _ = ls_obs::time(K_SYNTAX, || nq_syntax.predict(&probe, &lineage));
            let _ = ls_obs::time(K_WITNESS, || nq_witness.predict(&probe, &lineage));

            let prov = Dnf::of_tuple(tuple);
            let _ = ls_obs::time(K_EXACT, || shapley_values(&prov));
            let _ = ls_obs::time(K_PROXY, || cnf_proxy_scores(&prov));
        }
    }

    let mut t = TextTable::new(
        format!(
            "Table 6 — inference time per (query, tuple) ({})",
            ds.db_name
        ),
        &["method", "avg", "max"],
    );
    for (name, key) in [
        ("NearestQueries-witness", K_WITNESS),
        ("NearestQueries-syntax", K_SYNTAX),
        ("LearnShapley-base", K_BASE),
        ("LearnShapley-large", K_LARGE),
        ("exact Shapley (knowledge compilation)", K_EXACT),
        ("CNF Proxy (inexact)", K_PROXY),
    ] {
        let st = ls_obs::histogram(key).stats();
        t.row(vec![
            name.into(),
            crate::report::dur(secs(st.mean)),
            crate::report::dur(secs(st.max)),
        ]);
    }
    t
}

/// Figures 9a/9b — NDCG@10 vs. lineage size and vs. join width.
pub fn fig9(ds: &Dataset, scale: &Scale) -> (TextTable, TextTable) {
    let train = ds.split_indices(Split::Train);
    let test = ds.split_indices(Split::Test);
    let ms = matrices(ds);
    let (mut trained, _) = train_and_eval(
        ds,
        Some(&ms),
        &train,
        &test,
        &scale.pipeline(EncoderKind::Base),
    );
    let pairs = per_pair_eval(&mut trained, ds, &test);

    // 9a: bins over lineage size + linear trendline slope.
    let mut t9a = TextTable::new(
        format!("Figure 9a — NDCG@10 vs lineage size ({})", ds.db_name),
        &["lineage bin", "pairs", "mean NDCG@10"],
    );
    let bins: &[(usize, usize)] = &[(1, 5), (6, 10), (11, 20), (21, 40), (41, usize::MAX)];
    for &(lo, hi) in bins {
        let vals: Vec<f64> = pairs
            .iter()
            .filter(|p| p.lineage_len >= lo && p.lineage_len <= hi)
            .map(|p| p.ndcg10)
            .collect();
        if vals.is_empty() {
            continue;
        }
        let label = if hi == usize::MAX {
            format!("{lo}+")
        } else {
            format!("{lo}-{hi}")
        };
        t9a.row(vec![
            label,
            vals.len().to_string(),
            f3(vals.iter().sum::<f64>() / vals.len() as f64),
        ]);
    }
    let xs: Vec<f64> = pairs.iter().map(|p| p.lineage_len as f64).collect();
    let ys: Vec<f64> = pairs.iter().map(|p| p.ndcg10).collect();
    t9a.row(vec![
        "trendline slope".into(),
        pairs.len().to_string(),
        f4(linear_slope(&xs, &ys)),
    ]);

    // 9b: group by join width.
    let mut t9b = TextTable::new(
        format!("Figure 9b — NDCG@10 vs #joined tables ({})", ds.db_name),
        &["join width", "pairs", "mean NDCG@10"],
    );
    let max_w = pairs.iter().map(|p| p.join_width).max().unwrap_or(0);
    for w in 1..=max_w {
        let vals: Vec<f64> = pairs
            .iter()
            .filter(|p| p.join_width == w)
            .map(|p| p.ndcg10)
            .collect();
        if vals.is_empty() {
            continue;
        }
        t9b.row(vec![
            w.to_string(),
            vals.len().to_string(),
            f3(vals.iter().sum::<f64>() / vals.len() as f64),
        ]);
    }
    let xs: Vec<f64> = pairs.iter().map(|p| p.join_width as f64).collect();
    t9b.row(vec![
        "pearson r".into(),
        pairs.len().to_string(),
        f4(pearson(&xs, &ys)),
    ]);
    (t9a, t9b)
}

/// Figure 10 — NDCG@10 vs similarity of the probe query to the log: nearest
/// single query (top) and mean of the 5 nearest (bottom), for each metric.
pub fn fig10(ds: &Dataset, scale: &Scale) -> TextTable {
    let train = ds.split_indices(Split::Train);
    let test = ds.split_indices(Split::Test);
    let ms = matrices(ds);
    let (mut trained, _) = train_and_eval(
        ds,
        Some(&ms),
        &train,
        &test,
        &scale.pipeline(EncoderKind::Base),
    );
    let pairs = per_pair_eval(&mut trained, ds, &test);

    let mut t = TextTable::new(
        format!(
            "Figure 10 — NDCG@10 vs nearest-query similarity ({})",
            ds.db_name
        ),
        &["metric", "aggregation", "pairs", "pearson r", "slope"],
    );
    for (name, m) in [
        ("syntax", &ms.syntax),
        ("witness", &ms.witness),
        ("rank", &ms.rank),
    ] {
        for (agg_name, top_k) in [("nearest-1", 1usize), ("mean nearest-5", 5)] {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for p in &pairs {
                let mut sims: Vec<f64> = train.iter().map(|&ti| m.get(p.query, ti)).collect();
                sims.sort_by(|a, b| b.total_cmp(a));
                let k = top_k.min(sims.len());
                if k == 0 {
                    continue;
                }
                xs.push(sims[..k].iter().sum::<f64>() / k as f64);
                ys.push(p.ndcg10);
            }
            t.row(vec![
                name.into(),
                agg_name.into(),
                xs.len().to_string(),
                f4(pearson(&xs, &ys)),
                f4(linear_slope(&xs, &ys)),
            ]);
        }
    }
    t
}

/// Figure 11 — query-log size sweep: every method retrained/refit on nested
/// 10/25/50/75/100% subsets of the training queries.
pub fn fig11(ds: &Dataset, scale: &Scale) -> TextTable {
    let test = ds.split_indices(Split::Test);
    let ms = matrices(ds);
    let subsets = nested_train_subsets(ds, SWEEP_FRACTIONS, scale.seed ^ 0xf11);
    let mut t = TextTable::new(
        format!("Figure 11 — query-log size sweep ({})", ds.db_name),
        &[
            "log %",
            "queries",
            "unseen facts %",
            "method",
            "NDCG@10",
            "p@1",
            "p@5",
        ],
    );
    for (frac, subset) in SWEEP_FRACTIONS.iter().zip(&subsets) {
        let unseen = unseen_fact_fraction(ds, subset);
        let pct = format!("{:.0}%", frac * 100.0);
        let (_, ls) = train_and_eval(
            ds,
            Some(&ms),
            subset,
            &test,
            &scale.pipeline(EncoderKind::Base),
        );
        t.row(vec![
            pct.clone(),
            subset.len().to_string(),
            format!("{:.1}%", unseen * 100.0),
            "LearnShapley-base".into(),
            f3(ls.ndcg10),
            f3(ls.p1),
            f3(ls.p5),
        ]);
        for metric in [NqMetric::Syntax, NqMetric::Witness, NqMetric::Rank] {
            let s = eval_nearest(ds, subset, &test, metric, NQ_NEIGHBORS);
            t.row(vec![
                pct.clone(),
                subset.len().to_string(),
                format!("{:.1}%", unseen * 100.0),
                format!("NearestQueries-{}", metric.label()),
                f3(s.ndcg10),
                f3(s.p1),
                f3(s.p5),
            ]);
        }
    }
    t
}

/// Figure 12 — partial NDCG restricted to facts seen vs. unseen in training.
pub fn fig12(ds: &Dataset, scale: &Scale) -> TextTable {
    let train = ds.split_indices(Split::Train);
    let test = ds.split_indices(Split::Test);
    let ms = matrices(ds);
    let (mut trained, _) = train_and_eval(
        ds,
        Some(&ms),
        &train,
        &test,
        &scale.pipeline(EncoderKind::Base),
    );
    let pairs = per_pair_eval(&mut trained, ds, &test);
    let seen = ds.facts_in_split(Split::Train);

    let mut seen_scores = Vec::new();
    let mut unseen_scores = Vec::new();
    for p in &pairs {
        let seen_facts: Vec<_> = p
            .gold
            .keys()
            .copied()
            .filter(|f| seen.contains(f))
            .collect();
        let unseen_facts: Vec<_> = p
            .gold
            .keys()
            .copied()
            .filter(|f| !seen.contains(f))
            .collect();
        if seen_facts.len() >= 2 {
            seen_scores.push(partial_ndcg_at_k(&p.predicted, &p.gold, &seen_facts, 10));
        }
        if unseen_facts.len() >= 2 {
            unseen_scores.push(partial_ndcg_at_k(&p.predicted, &p.gold, &unseen_facts, 10));
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let total_facts: usize = pairs.iter().map(|p| p.gold.len()).sum();
    let unseen_facts: usize = pairs
        .iter()
        .map(|p| p.gold.keys().filter(|f| !seen.contains(f)).count())
        .sum();
    let mut t = TextTable::new(
        format!(
            "Figure 12 — partial NDCG, seen vs unseen facts ({})",
            ds.db_name
        ),
        &["subset", "pairs", "mean partial NDCG@10"],
    );
    t.row(vec![
        "seen facts".into(),
        seen_scores.len().to_string(),
        f3(mean(&seen_scores)),
    ]);
    t.row(vec![
        "unseen facts".into(),
        unseen_scores.len().to_string(),
        f3(mean(&unseen_scores)),
    ]);
    t.row(vec![
        "unseen fact share".into(),
        format!("{unseen_facts}/{total_facts}"),
        format!(
            "{:.1}%",
            100.0 * unseen_facts as f64 / total_facts.max(1) as f64
        ),
    ]);
    t
}

/// Design-choice ablation benches (DESIGN.md §4): compiler heuristics and
/// Shapley method quality/time trade-offs on test-set provenance.
pub fn ablation_compiler(ds: &Dataset) -> TextTable {
    let test = ds.split_indices(Split::Test);
    let mut provs: Vec<Dnf> = Vec::new();
    for &qi in &test {
        let q = &ds.queries[qi];
        for t in &q.tuples {
            provs.push(Dnf::of_tuple(&q.result.tuples[t.tuple_idx]));
        }
    }
    let configs: [(&str, &str, CompileOptions); 4] = [
        (
            "most-frequent + factoring + or-decomp",
            "bench.ablation.compiler.default",
            CompileOptions::default(),
        ),
        (
            "lexicographic order",
            "bench.ablation.compiler.lexicographic",
            CompileOptions {
                var_order: VarOrder::Lexicographic,
                ..Default::default()
            },
        ),
        (
            "no factoring",
            "bench.ablation.compiler.no_factoring",
            CompileOptions {
                disable_factoring: true,
                ..Default::default()
            },
        ),
        (
            "no or-decomposition",
            "bench.ablation.compiler.no_or_decomp",
            CompileOptions {
                disable_or_decomposition: true,
                ..Default::default()
            },
        ),
    ];
    let mut t = TextTable::new(
        format!(
            "Ablation — knowledge compiler design choices ({})",
            ds.db_name
        ),
        &[
            "configuration",
            "provs",
            "total nodes",
            "total decisions",
            "compile time",
        ],
    );
    for (name, key, opts) in configs {
        scoped_hist(key);
        let (nodes, decisions) = ls_obs::time(key, || {
            let mut nodes = 0usize;
            let mut decisions = 0usize;
            for p in &provs {
                let c = compile(p, opts);
                nodes += c.stats.nodes;
                decisions += c.stats.decisions;
            }
            (nodes, decisions)
        });
        t.row(vec![
            name.into(),
            provs.len().to_string(),
            nodes.to_string(),
            decisions.to_string(),
            crate::report::dur(secs(ls_obs::histogram(key).stats().sum)),
        ]);
    }
    t
}

/// Ablation — exact vs. sampled vs. CNF-proxy ranking quality and time.
pub fn ablation_shapley_methods(ds: &Dataset) -> TextTable {
    let test = ds.split_indices(Split::Test);
    let mut t = TextTable::new(
        format!("Ablation — Shapley method quality/time ({})", ds.db_name),
        &[
            "method",
            "pairs",
            "mean NDCG@10 vs exact",
            "mean p@1",
            "total time",
        ],
    );
    struct Row {
        ndcg: f64,
        p1: f64,
        n: usize,
    }
    const KEYS: [&str; 4] = [
        "bench.ablation.shapley.exact",
        "bench.ablation.shapley.sampled200",
        "bench.ablation.shapley.sampled2000",
        "bench.ablation.shapley.cnf_proxy",
    ];
    for k in KEYS {
        scoped_hist(k);
    }
    let mut rows: Vec<(&str, Row)> = vec![
        (
            "exact (self-check)",
            Row {
                ndcg: 0.0,
                p1: 0.0,
                n: 0,
            },
        ),
        (
            "permutation sampling (200)",
            Row {
                ndcg: 0.0,
                p1: 0.0,
                n: 0,
            },
        ),
        (
            "permutation sampling (2000)",
            Row {
                ndcg: 0.0,
                p1: 0.0,
                n: 0,
            },
        ),
        (
            "CNF Proxy",
            Row {
                ndcg: 0.0,
                p1: 0.0,
                n: 0,
            },
        ),
    ];
    for &qi in &test {
        let q = &ds.queries[qi];
        for tr in &q.tuples {
            let gold = &tr.shapley;
            let prov = Dnf::of_tuple(&q.result.tuples[tr.tuple_idx]);
            let evals: [(usize, FactScores); 4] = {
                let exact = ls_obs::time(KEYS[0], || shapley_values(&prov));
                let samp200 = ls_obs::time(KEYS[1], || shapley_values_sampled(&prov, 200, 7));
                let samp2000 = ls_obs::time(KEYS[2], || shapley_values_sampled(&prov, 2000, 7));
                let proxy = ls_obs::time(KEYS[3], || cnf_proxy_scores(&prov));
                [(0, exact), (1, samp200), (2, samp2000), (3, proxy)]
            };
            for (i, scores) in evals {
                rows[i].1.ndcg += ndcg_at_k(&scores, gold, 10);
                rows[i].1.p1 += precision_at_k(&scores, gold, 1);
                rows[i].1.n += 1;
            }
        }
    }
    for (i, (name, r)) in rows.into_iter().enumerate() {
        let n = r.n.max(1) as f64;
        t.row(vec![
            name.into(),
            r.n.to_string(),
            f3(r.ndcg / n),
            f3(r.p1 / n),
            crate::report::dur(secs(ls_obs::histogram(KEYS[i]).stats().sum)),
        ]);
    }
    t
}

/// Scaling study — where the paper's cost asymmetry comes from: exact
/// Shapley computation grows with provenance size and structure, while
/// model inference is linear in the lineage with a fixed per-fact cost.
/// Synthetic provenance families of growing size (join-star, chain, and
/// two-level joins) are timed under every attribution method.
pub fn scaling_study() -> TextTable {
    use ls_relational::{FactId, Monomial};
    // Star: one head fact shared by k (movie, role) derivation pairs.
    let star = |k: u32| -> Dnf {
        Dnf::from_monomials(
            (0..k)
                .map(|i| {
                    Monomial::from_facts(vec![FactId(0), FactId(1 + 2 * i), FactId(2 + 2 * i)])
                })
                .collect(),
        )
    };
    // Chain: overlapping pairs (f_i ∧ f_{i+1}).
    let chain = |k: u32| -> Dnf {
        Dnf::from_monomials(
            (0..k)
                .map(|i| Monomial::from_facts(vec![FactId(i), FactId(i + 1)]))
                .collect(),
        )
    };
    // Two-level: k groups of (shared company ∧ movie_i ∧ role_i) with the
    // company shared by pairs of groups — denser sharing structure.
    let two_level = |k: u32| -> Dnf {
        Dnf::from_monomials(
            (0..k)
                .map(|i| {
                    Monomial::from_facts(vec![
                        FactId(1000 + i / 2), // company shared by two groups
                        FactId(1 + 2 * i),
                        FactId(2 + 2 * i),
                    ])
                })
                .collect(),
        )
    };

    let mut t = TextTable::new(
        "Scaling — attribution cost vs provenance size (synthetic families)",
        &[
            "family",
            "lineage",
            "derivs",
            "exact",
            "sampled(500)",
            "cnf proxy",
            "sampled NDCG@10",
        ],
    );
    for (name, mk) in [
        ("star", &star as &dyn Fn(u32) -> Dnf),
        ("chain", &chain),
        ("two-level", &two_level),
    ] {
        for k in [8u32, 24, 48] {
            let prov = mk(k);
            let n = prov.variables().len();
            // Scoped per (family, k): each row reports its own single run.
            const K_EXACT: &str = "bench.scaling.exact";
            const K_SAMPLED: &str = "bench.scaling.sampled";
            const K_PROXY: &str = "bench.scaling.cnf_proxy";
            for key in [K_EXACT, K_SAMPLED, K_PROXY] {
                scoped_hist(key);
            }
            let exact = ls_obs::time(K_EXACT, || shapley_values(&prov));
            let sampled = ls_obs::time(K_SAMPLED, || shapley_values_sampled(&prov, 500, 11));
            let _ = ls_obs::time(K_PROXY, || cnf_proxy_scores(&prov));
            let quality = ndcg_at_k(&sampled, &exact, 10);
            t.row(vec![
                name.into(),
                n.to_string(),
                prov.len().to_string(),
                crate::report::dur(secs(ls_obs::histogram(K_EXACT).stats().sum)),
                crate::report::dur(secs(ls_obs::histogram(K_SAMPLED).stats().sum)),
                crate::report::dur(secs(ls_obs::histogram(K_PROXY).stats().sum)),
                f3(quality),
            ]);
        }
    }
    t
}

/// Extension (§7 future work) — fine-tuning with negative samples so the
/// model can rank *arbitrary* fact sets, not just true lineages. Evaluated
/// on distractor-augmented lineages: each test lineage is mixed with random
/// non-contributing facts (gold score 0) and the model must both rank the
/// real facts and push the distractors down.
pub fn extension_negatives(ds: &Dataset, scale: &Scale) -> TextTable {
    use rand::Rng;
    use rand::SeedableRng;
    let train = ds.split_indices(Split::Train);
    let test = ds.split_indices(Split::Test);
    let ms = matrices(ds);

    let mut t = TextTable::new(
        format!("Extension — negative-sample fine-tuning ({})", ds.db_name),
        &[
            "training",
            "pairs",
            "NDCG@10 (with distractors)",
            "lineage-detection precision",
        ],
    );
    for (label, negatives) in [
        ("positives only (paper)", 0usize),
        ("with 3 negatives/tuple", 3),
    ] {
        let mut cfg = scale.pipeline(EncoderKind::Base);
        cfg.finetune_cfg.negatives = negatives;
        let (trained, _) = train_and_eval(ds, Some(&ms), &train, &test, &cfg);

        let mut rng = rand::rngs::StdRng::seed_from_u64(scale.seed ^ 0xd15);
        let fact_count = ds.db.fact_count() as u32;
        let mut ndcg = 0.0f64;
        let mut detect = 0.0f64;
        let mut pairs = 0usize;
        let max_len = trained.model.encoder.config.max_len;
        for &qi in &test {
            let q = &ds.queries[qi];
            for tr in &q.tuples {
                let tuple = &q.result.tuples[tr.tuple_idx];
                let lineage: Vec<ls_relational::FactId> = tr.shapley.keys().copied().collect();
                // Add as many distractors as real facts (capped at 10).
                let k = lineage.len().min(10);
                let mut probe_set = lineage.clone();
                let mut guard = 0;
                while probe_set.len() < lineage.len() + k && guard < 200 {
                    guard += 1;
                    let f = ls_relational::FactId(rng.gen_range(0..fact_count));
                    if !probe_set.contains(&f) && !tr.shapley.contains_key(&f) {
                        probe_set.push(f);
                    }
                }
                let predicted = predict_scores(
                    &trained.model,
                    &trained.tokenizer,
                    &ds.db,
                    &q.sql,
                    tuple,
                    &probe_set,
                    max_len,
                );
                // Gold over the probe set: Shapley for lineage, 0 for
                // distractors.
                let mut gold = tr.shapley.clone();
                for f in &probe_set {
                    gold.entry(*f).or_insert(0.0);
                }
                ndcg += ndcg_at_k(&predicted, &gold, 10);
                // Detection: fraction of the top-|lineage| predictions that
                // are true lineage facts.
                let top: Vec<_> = rank_descending(&predicted)
                    .into_iter()
                    .take(lineage.len())
                    .collect();
                let hits = top.iter().filter(|f| tr.shapley.contains_key(f)).count();
                detect += hits as f64 / lineage.len().max(1) as f64;
                pairs += 1;
            }
        }
        let n = pairs.max(1) as f64;
        t.row(vec![
            label.into(),
            pairs.to_string(),
            f3(ndcg / n),
            f3(detect / n),
        ]);
    }
    t
}

/// Extension (§7 future work) — cross-schema generalization: a model
/// trained on one database's log applied to the other schema. The paper
/// positions LearnShapley as an *in-domain* system; this experiment
/// quantifies how much is lost when that assumption is dropped (expected:
/// most of the signal, since vocabulary and schema tokens do not transfer).
pub fn extension_cross_schema(source: &Dataset, target: &Dataset, scale: &Scale) -> TextTable {
    let src_train = source.split_indices(Split::Train);
    let tgt_test = target.split_indices(Split::Test);
    let tgt_train = target.split_indices(Split::Train);
    let ms = matrices(source);

    let (trained, _) = train_and_eval(
        source,
        Some(&ms),
        &src_train,
        &source.split_indices(Split::Test),
        &scale.pipeline(EncoderKind::Base),
    );

    // Apply to the target schema: tokenizer coverage collapses, so most fact
    // tokens become [UNK].
    let max_len = trained.model.encoder.config.max_len;
    let mut cross = ls_core::EvalSummary::default();
    for &qi in &tgt_test {
        let q = &target.queries[qi];
        for t in &q.tuples {
            let tuple = &q.result.tuples[t.tuple_idx];
            let lineage: Vec<_> = t.shapley.keys().copied().collect();
            let pred = predict_scores(
                &trained.model,
                &trained.tokenizer,
                &target.db,
                &q.sql,
                tuple,
                &lineage,
                max_len,
            );
            cross.add(&pred, &t.shapley);
        }
    }
    let cross = cross.finish();

    // Reference: the same architecture trained in-domain on the target.
    let tgt_ms = matrices(target);
    let (_, in_domain) = train_and_eval(
        target,
        Some(&tgt_ms),
        &tgt_train,
        &tgt_test,
        &scale.pipeline(EncoderKind::Base),
    );

    // Tokenizer coverage diagnostic.
    let mut cov = 0.0f64;
    let mut cnt = 0usize;
    for &qi in &tgt_test {
        cov += trained.tokenizer.coverage(&target.queries[qi].sql);
        cnt += 1;
    }

    let mut t = TextTable::new(
        format!(
            "Extension — cross-schema transfer ({} → {})",
            source.db_name, target.db_name
        ),
        &["setting", "NDCG@10", "p@1", "p@5", "query-token coverage"],
    );
    t.row(vec![
        format!("train {} / test {}", source.db_name, target.db_name),
        f3(cross.ndcg10),
        f3(cross.p1),
        f3(cross.p5),
        f3(cov / cnt.max(1) as f64),
    ]);
    t.row(vec![
        format!("in-domain {} (reference)", target.db_name),
        f3(in_domain.ndcg10),
        f3(in_domain.p1),
        f3(in_domain.p5),
        "1.000".into(),
    ]);
    t
}

/// Ablation — Hungarian vs. greedy matching inside rank-based similarity:
/// agreement of the resulting matrices and their cost.
pub fn ablation_matching(ds: &Dataset) -> TextTable {
    use ls_similarity::{rank_based_similarity, Matcher, RankSimOptions};
    let n = ds.queries.len().min(24);
    let scores: Vec<_> = ds.queries[..n].iter().map(|q| q.tuple_scores()).collect();
    let mut t = TextTable::new(
        format!(
            "Ablation — rank-similarity matching algorithm ({})",
            ds.db_name
        ),
        &[
            "matcher",
            "pairs",
            "mean sim",
            "mean |Δ| vs Hungarian",
            "max Δ",
            "time",
        ],
    );
    let mut hungarian_vals = Vec::new();
    for (label, key, matcher) in [
        (
            "Hungarian (paper)",
            "bench.ablation.matching.hungarian",
            Matcher::Hungarian,
        ),
        ("greedy", "bench.ablation.matching.greedy", Matcher::Greedy),
    ] {
        let opts = RankSimOptions {
            matcher,
            ..Default::default()
        };
        scoped_hist(key);
        let vals = ls_obs::time(key, || {
            let mut vals = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    vals.push(rank_based_similarity(&scores[i], &scores[j], &opts));
                }
            }
            vals
        });
        let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
        let (mean_d, max_d) = if hungarian_vals.is_empty() {
            (0.0, 0.0)
        } else {
            let diffs: Vec<f64> = vals
                .iter()
                .zip(&hungarian_vals)
                .map(|(a, b): (&f64, &f64)| (a - b).abs())
                .collect();
            (
                diffs.iter().sum::<f64>() / diffs.len() as f64,
                diffs.iter().cloned().fold(0.0, f64::max),
            )
        };
        t.row(vec![
            label.into(),
            vals.len().to_string(),
            f3(mean),
            f4(mean_d),
            f4(max_d),
            crate::report::dur(secs(ls_obs::histogram(key).stats().sum)),
        ]);
        if hungarian_vals.is_empty() {
            hungarian_vals = vals;
        }
    }
    t
}

/// The adversarial wide-join workload: a cast-heavy IMDB (≈30 roles per
/// movie) plus the widest disjoint-arm fanout queries the generator finds on
/// it. Lineages reach thousands of minimized clauses per output tuple.
pub fn wide_join_workload() -> (ls_relational::Database, Vec<ls_relational::Query>) {
    use ls_dbshap::{generate_imdb, generate_wide_join_log, imdb_spec, ImdbConfig};
    let db = generate_imdb(&ImdbConfig {
        movies: 60,
        actors: 40,
        roles_per_movie: 30,
        ..Default::default()
    });
    let queries = generate_wide_join_log(&db, &imdb_spec(), 3, 7);
    (db, queries)
}

/// Semiring sweep on the wide-join workload: exact monotone-DNF lineage vs.
/// `TopKClauses(k)` for k ∈ {4, 16, 64} — median latency, lineage shape, and
/// clauses dropped. Asserts the k bound actually held on every tuple.
pub fn wide_join_sweep(
    db: &ls_relational::Database,
    queries: &[ls_relational::Query],
) -> TextTable {
    use ls_relational::{evaluate_interned, evaluate_with, Provenance, TopKClauses};
    use std::time::Instant;

    fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
        let mut trials = Vec::new();
        let mut out = None;
        for _ in 0..5 {
            let t0 = Instant::now();
            out = Some(std::hint::black_box(f()));
            trials.push(t0.elapsed().as_secs_f64());
        }
        trials.sort_by(f64::total_cmp);
        (trials[trials.len() / 2], out.unwrap())
    }

    let mut t = TextTable::new(
        "Wide-join sweep — exact vs top-k clause lineage",
        &[
            "query",
            "semiring",
            "latency (ms)",
            "max clauses",
            "mean clauses",
            "truncated",
        ],
    );
    for (qi, q) in queries.iter().enumerate() {
        let (secs, exact) = timed(|| evaluate_interned(db, q).unwrap());
        let shape = ls_dbshap::lineage_shape(&exact);
        t.row(vec![
            format!("w{qi}"),
            "exact".into(),
            f3(secs * 1e3),
            shape.max_clauses.to_string(),
            f3(shape.mean_clauses),
            "0".into(),
        ]);
        for k in [4usize, 16, 64] {
            let (secs, (prov, rows)) = timed(|| {
                let mut prov = TopKClauses::new(k);
                let rows = evaluate_with(db, q, &mut prov).unwrap();
                (prov, rows)
            });
            let sizes: Vec<usize> = rows.iter().map(|(_, tag)| prov.tag_size(tag)).collect();
            let max = sizes.iter().copied().max().unwrap_or(0);
            let mean = sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64;
            // The whole point of the semiring: the bound must actually hold,
            // and can only ever truncate (never exceed) the exact shape.
            assert!(max <= k, "top-{k} lineage kept {max} clauses");
            assert!(max <= shape.max_clauses);
            t.row(vec![
                format!("w{qi}"),
                format!("top-{k}"),
                f3(secs * 1e3),
                max.to_string(),
                f3(mean),
                prov.truncated_clauses().to_string(),
            ]);
        }
    }
    t
}

/// Cold → warm compiled-circuit store cycle on a dataset build.
///
/// Three passes over the same Academic dataset build: plain (no store), a
/// cold store (every shape compiles once and persists), and a warm store
/// (a fresh process over the same directory — every lookup must come off
/// disk or the LRU). The warm pass is the acceptance gate: it must record
/// a non-zero hit rate and zero fresh compiles.
pub fn circuit_store_cycle(scale: &Scale, dir: &std::path::Path) -> TextTable {
    use ls_circuit::CircuitStore;
    use ls_dbshap::{academic_spec, generate_academic, AcademicConfig};
    use std::time::Instant;

    let gen = AcademicConfig {
        seed: scale.seed ^ 0x2,
        ..Default::default()
    };
    let cfg = scale.dataset_config(scale.seed ^ 0x22);
    let spec = academic_spec();
    let _ = std::fs::remove_dir_all(dir);

    let mut t = TextTable::new(
        "Compiled-circuit store — cold vs warm dataset build",
        &[
            "pass",
            "build (s)",
            "compiles",
            "mem hits",
            "disk hits",
            "hit rate",
        ],
    );
    let mut run = |pass: &str, store: Option<&CircuitStore>| {
        let t0 = Instant::now();
        let ds = Dataset::build_with_store(generate_academic(&gen), &spec, &cfg, store);
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(&ds);
        let (misses, mem, disk) = store.map_or((0, 0, 0), |s| {
            let st = s.stats();
            (st.misses, st.mem_hits, st.disk_hits)
        });
        let total = misses + mem + disk;
        t.row(vec![
            pass.into(),
            f3(secs),
            misses.to_string(),
            mem.to_string(),
            disk.to_string(),
            if total == 0 {
                "—".into()
            } else {
                f3((mem + disk) as f64 / total as f64)
            },
        ]);
        (misses, mem + disk)
    };

    run("plain", None);
    let cold = CircuitStore::open(dir, 4096).expect("open circuit store");
    let (cold_misses, _) = run("cold store", Some(&cold));
    drop(cold);
    // A fresh handle over the same directory: the warm pass simulates the
    // next offline build reusing the previous run's persisted circuits.
    let warm = CircuitStore::open(dir, 4096).expect("reopen circuit store");
    let (warm_misses, warm_hits) = run("warm store", Some(&warm));
    assert!(cold_misses > 0, "cold pass must compile something");
    assert!(warm_hits > 0, "warm store must record a non-zero hit rate");
    assert_eq!(warm_misses, 0, "warm pass must not recompile any shape");
    t
}

/// SLO tier sweep on the wide-join workload: for the widest lineages, show
/// which tier each latency budget selects (cold store, model assumed
/// loaded) and what that tier actually costs and loses in accuracy.
pub fn circuit_tier_sweep() -> TextTable {
    use ls_circuit::{shapley_stratified, CacheState, CanonicalShape, SloPolicy, Tier};
    use ls_relational::evaluate_interned;
    use std::time::Instant;

    let (db, queries) = wide_join_workload();
    // The widest output tuple per query, as (players, clauses, Dnf).
    let mut tuples: Vec<(usize, usize, Dnf)> = Vec::new();
    for q in &queries {
        let result = evaluate_interned(&db, q).expect("wide-join query evaluates");
        let widest = result
            .tuples
            .iter()
            .map(|tu| Dnf::from_recovered(&result.arena, &tu.derivations))
            .max_by_key(|d| d.variables().len());
        if let Some(d) = widest {
            tuples.push((d.variables().len(), d.len(), d));
        }
    }
    tuples.sort_by_key(|(p, _, _)| std::cmp::Reverse(*p));
    tuples.truncate(3);

    let policy = SloPolicy::default();
    let cold = CacheState {
        circuit_cached: false,
        scores_cached: false,
        model_available: true,
    };
    let budgets = [
        ("100µs", Duration::from_micros(100)),
        ("1ms", Duration::from_millis(1)),
        ("100ms", Duration::from_millis(100)),
    ];

    let mut t = TextTable::new(
        "SLO tier sweep — wide-join lineages, cold store",
        &[
            "lineage",
            "budget",
            "tier",
            "samples",
            "est (µs)",
            "measured (ms)",
            "mean |err|",
        ],
    );
    for (players, clauses, dnf) in &tuples {
        let t0 = Instant::now();
        let exact = shapley_values(dnf);
        let exact_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut chosen = Vec::new();
        for (name, budget) in budgets {
            let d = policy.choose(*players, *clauses, budget, cold);
            chosen.push(d.tier);
            let (measured, err) = match d.tier {
                Tier::Exact => (f3(exact_ms), f4(0.0)),
                Tier::Learned => ("—".into(), "—".into()),
                Tier::Sampled => {
                    let t0 = Instant::now();
                    let est = shapley_stratified(
                        &CanonicalShape::of(dnf),
                        |f| db.fact_table_idx(f).map_or(u64::MAX, |t| t as u64),
                        d.samples,
                        7,
                    );
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    let mean_err = exact
                        .iter()
                        .map(|(f, &v)| (est.scores.get(f).copied().unwrap_or(0.0) - v).abs())
                        .sum::<f64>()
                        / exact.len().max(1) as f64;
                    (f3(ms), f4(mean_err))
                }
            };
            t.row(vec![
                format!("{players}p/{clauses}c"),
                name.into(),
                d.tier.to_string(),
                d.samples.to_string(),
                f3(d.estimated_ns / 1e3),
                measured,
                err,
            ]);
        }
        // The acceptance criterion: tight and loose budgets land on
        // different tiers for wide-join lineages.
        assert_ne!(
            chosen.first(),
            chosen.last(),
            "tight vs loose budgets must select different tiers at {players} players"
        );
    }
    t
}

/// Plain vs relation-stratified permutation sampling: mean squared error
/// against exact Shapley across seeds, at equal sample budgets. Stratified
/// sampling spends its permutations evenly across per-relation orderings,
/// so its estimator variance must not exceed the plain sampler's.
pub fn circuit_sampler_variance() -> TextTable {
    use ls_circuit::{shapley_stratified, CanonicalShape};
    use ls_relational::evaluate_interned;

    let (db, queries) = wide_join_workload();
    let result = evaluate_interned(&db, &queries[0]).expect("wide-join query evaluates");
    let dnf = result
        .tuples
        .iter()
        .map(|tu| Dnf::from_recovered(&result.arena, &tu.derivations))
        .max_by_key(|d| d.variables().len())
        .expect("workload produced tuples");
    let exact = shapley_values(&dnf);
    let shape = CanonicalShape::of(&dnf);
    let seeds: Vec<u64> = (0..16).map(|i| 1000 + i * 37).collect();

    let mse = |scores: &dyn Fn(u64) -> FactScores| {
        let mut total = 0.0;
        for &s in &seeds {
            let est = scores(s);
            total += exact
                .iter()
                .map(|(f, &v)| (est.get(f).copied().unwrap_or(0.0) - v).powi(2))
                .sum::<f64>()
                / exact.len().max(1) as f64;
        }
        total / seeds.len() as f64
    };

    let mut t = TextTable::new(
        "Sampling estimator variance — plain vs relation-stratified",
        &["samples", "estimator", "mean sq err", "vs plain"],
    );
    for samples in [256usize, 1024] {
        let plain = mse(&|s| shapley_values_sampled(&dnf, samples, s));
        let strat = mse(&|s| {
            shapley_stratified(
                &shape,
                |f| db.fact_table_idx(f).map_or(u64::MAX, |t| t as u64),
                samples,
                s,
            )
            .scores
            .into_iter()
            .collect()
        });
        t.row(vec![
            samples.to_string(),
            "plain".into(),
            format!("{plain:.3e}"),
            "1.000".into(),
        ]);
        t.row(vec![
            samples.to_string(),
            "stratified".into(),
            format!("{strat:.3e}"),
            f3(strat / plain.max(f64::MIN_POSITIVE)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_tables_render_on_quick_scale() {
        let s = Scale::quick();
        let imdb = s.imdb_dataset();
        let academic = s.academic_dataset();
        let t1 = table1(&imdb, &academic);
        assert_eq!(t1.rows.len(), 8);
        let ms = matrices(&imdb);
        let t2 = table2(&imdb, &ms);
        assert_eq!(t2.rows.len(), 3);
        let f7 = fig7_summary(&imdb, &ms);
        assert_eq!(f7.rows.len(), 3);
        // Syntax row is self-orthogonal: last column 0.
        assert_eq!(f7.rows[0][4], "0.000");
    }

    #[test]
    fn compiler_ablation_runs() {
        let s = Scale::quick();
        let ds = s.imdb_dataset();
        let t = ablation_compiler(&ds);
        assert_eq!(t.rows.len(), 4);
        // OR-decomposition disabled must not produce fewer nodes than the
        // default (it removes a compression).
        let default_nodes: usize = t.rows[0][2].parse().unwrap();
        let no_or_nodes: usize = t.rows[3][2].parse().unwrap();
        assert!(no_or_nodes >= default_nodes);
    }

    #[test]
    fn scaling_study_has_all_families() {
        let t = scaling_study();
        assert_eq!(t.rows.len(), 9);
        // Exact time at the largest star exceeds the smallest (growth).
        assert!(t.rows.iter().all(|r| !r[3].is_empty()));
    }

    #[test]
    fn matching_ablation_greedy_close_to_hungarian() {
        let s = Scale::quick();
        let ds = s.imdb_dataset();
        let t = ablation_matching(&ds);
        assert_eq!(t.rows.len(), 2);
        let mean_delta: f64 = t.rows[1][3].parse().unwrap();
        assert!(mean_delta >= 0.0);
        let hungarian_mean: f64 = t.rows[0][2].parse().unwrap();
        let greedy_mean: f64 = t.rows[1][2].parse().unwrap();
        // Greedy never produces a heavier matching.
        assert!(greedy_mean <= hungarian_mean + 1e-9);
    }

    #[test]
    fn shapley_method_ablation_quality_ordering() {
        let s = Scale::quick();
        let ds = s.imdb_dataset();
        let t = ablation_shapley_methods(&ds);
        assert_eq!(t.rows.len(), 4);
        let exact_ndcg: f64 = t.rows[0][2].parse().unwrap();
        let samp2000: f64 = t.rows[2][2].parse().unwrap();
        assert!(
            (exact_ndcg - 1.0).abs() < 1e-9,
            "exact self-check must be 1.0"
        );
        assert!(samp2000 > 0.8, "2000-sample estimate should rank well");
    }
}
