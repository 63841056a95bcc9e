//! The DBShap dataset: queries, results, exact Shapley quartets, and splits.
//!
//! A dataset is built offline exactly as the paper describes (Figure 6): run
//! every log query with provenance tracking, compute the exact Shapley value
//! of every lineage fact with respect to every (sampled) output tuple via the
//! knowledge-compilation pipeline, and split *queries* 70/10/20 into
//! train/dev/test.

use crate::querygen::{generate_log, QueryGenConfig, SchemaSpec};
use ls_circuit::{CanonicalShape, CircuitStore};
use ls_provenance::Dnf;
use ls_relational::{to_sql, Database, FactId, Query, QueryResult};
use ls_shapley::{shapley_values, shapley_values_stored, FactScores};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Which split a query belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Training queries (70%).
    Train,
    /// Development queries (10%), used for checkpoint selection.
    Dev,
    /// Held-out test queries (20%).
    Test,
}

/// Shapley ground truth for one (query, output tuple) pair.
#[derive(Debug, Clone)]
pub struct TupleRecord {
    /// Index into the query's `result.tuples`.
    pub tuple_idx: usize,
    /// Exact Shapley value of every lineage fact (the gold ranking).
    pub shapley: FactScores,
}

impl TupleRecord {
    /// Lineage size (number of contributing facts).
    pub fn lineage_len(&self) -> usize {
        self.shapley.len()
    }
}

/// One query of the log with its results and Shapley ground truth.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Position in the log.
    pub id: usize,
    /// Canonical SQL text.
    pub sql: String,
    /// Parsed query.
    pub query: Query,
    /// Full evaluation result with provenance.
    pub result: QueryResult,
    /// Ground-truth records for the sampled output tuples.
    pub tuples: Vec<TupleRecord>,
}

impl QueryRecord {
    /// Per-tuple Shapley maps, in tuple order (input to rank similarity).
    pub fn tuple_scores(&self) -> Vec<FactScores> {
        self.tuples.iter().map(|t| t.shapley.clone()).collect()
    }
}

/// Build configuration.
#[derive(Debug, Clone, Copy)]
pub struct DatasetConfig {
    /// Split shuffle seed.
    pub seed: u64,
    /// Query-log generation knobs.
    pub query_gen: QueryGenConfig,
    /// Cap on output tuples per query that receive Shapley ground truth
    /// (evenly strided over the result; the paper computes all, at the cost
    /// of days of offline compute).
    pub max_tuples_per_query: usize,
    /// Skip tuples whose lineage exceeds this many facts (exact computation
    /// on the biggest DBShap lineages is what made the original offline pass
    /// take days).
    pub max_lineage: usize,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            seed: 1234,
            query_gen: QueryGenConfig::default(),
            max_tuples_per_query: 12,
            max_lineage: 60,
        }
    }
}

/// The full benchmark object.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// "IMDB" or "Academic".
    pub db_name: String,
    /// The underlying database.
    pub db: Database,
    /// Query records, id-ordered.
    pub queries: Vec<QueryRecord>,
    /// `splits[i]` is the split of `queries[i]`.
    pub splits: Vec<Split>,
}

impl Dataset {
    /// Build a dataset over any database + schema spec.
    pub fn build(db: Database, spec: &SchemaSpec, cfg: &DatasetConfig) -> Dataset {
        Dataset::build_with_store(db, spec, cfg, None)
    }

    /// [`Dataset::build`] routed through a compiled-circuit store: every
    /// ground-truth Shapley computation canonicalizes its lineage and reuses
    /// the store entry for that shape. Lineage shapes recur heavily across
    /// tuples and queries (the same join pattern over different facts), so a
    /// warm store turns most of the offline pass into cache lookups — and a
    /// persisted store directory survives across builds. Scores are
    /// bit-identical to the storeless build (pinned by test).
    ///
    /// Each query is evaluated once, by the log generator, which validates
    /// it on its result; the record keeps that result. The generator runs
    /// on the calling thread and the ground truth of each accepted query
    /// runs on the ls-par pool as soon as the query is accepted, while the
    /// generator evaluates the next candidate.
    pub fn build_with_store(
        db: Database,
        spec: &SchemaSpec,
        cfg: &DatasetConfig,
        store: Option<&CircuitStore>,
    ) -> Dataset {
        let mut sp = ls_obs::span("dbshap.build").with("db", spec.name);
        // Each record is a pure function of its query and result, and
        // records come back in log order, so the output is identical at
        // every thread count. The per-tuple Shapley fan-out inside
        // `ground_truth` (and the per-fact fan-out inside `shapley_values`)
        // runs inline on the same worker: parallelism nests only one level.
        let queries = ls_par::stream(
            |emit| {
                generate_log(&db, spec, &cfg.query_gen, |query, result| {
                    emit((query, result))
                })
            },
            |id, (query, result)| {
                let tuples =
                    ls_obs::time("dbshap.ground_truth", || ground_truth(&result, cfg, store));
                QueryRecord {
                    id,
                    sql: to_sql(&query),
                    query,
                    result,
                    tuples,
                }
            },
        );
        sp.record("queries", queries.len());
        let recorded_tuples: u64 = queries.iter().map(|q| q.tuples.len() as u64).sum();
        sp.record("recorded_tuples", recorded_tuples);
        if ls_obs::enabled() {
            ls_obs::counter("dbshap.tuples_recorded").add(recorded_tuples);
        }
        let splits = make_splits(queries.len(), cfg.seed);
        Dataset {
            db_name: spec.name.to_owned(),
            db,
            queries,
            splits,
        }
    }

    /// Query indices belonging to a split.
    pub fn split_indices(&self, s: Split) -> Vec<usize> {
        self.splits
            .iter()
            .enumerate()
            .filter(|(_, &sp)| sp == s)
            .map(|(i, _)| i)
            .collect()
    }

    /// All facts appearing in any lineage of a split's recorded tuples —
    /// used by the seen/unseen analysis (§5.7).
    pub fn facts_in_split(&self, s: Split) -> BTreeSet<FactId> {
        let mut out = BTreeSet::new();
        for &qi in &self.split_indices(s) {
            for t in &self.queries[qi].tuples {
                out.extend(t.shapley.keys().copied());
            }
        }
        out
    }

    /// Total `(q, t, f, Shapley)` quartets recorded in a split.
    pub fn quartet_count(&self, s: Split) -> usize {
        self.split_indices(s)
            .iter()
            .map(|&qi| {
                self.queries[qi]
                    .tuples
                    .iter()
                    .map(TupleRecord::lineage_len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Total output tuples (full results, not just sampled) in a split.
    pub fn result_count(&self, s: Split) -> usize {
        self.split_indices(s)
            .iter()
            .map(|&qi| self.queries[qi].result.len())
            .sum()
    }
}

/// Exact Shapley ground truth for a strided sample of the result's tuples.
/// Tuples are scored across the ls-par pool (inline when already inside a
/// worker); each record is a pure function of its tuple, and records are
/// collected in tuple order.
///
/// Scoring consumes the *recovered* interned lineage — the clause refs the
/// monotone-DNF semiring's `recover_fn` produced — so lineage sizing and the
/// compiled Dnf come from the arena, without touching decoded monomials. The
/// arena's clause refs decode to the same minimal sorted DNF as the decoded
/// view, so the resulting Shapley values are bit-identical to scoring
/// `Dnf::of_tuple` on the decoded tuple.
fn ground_truth(
    result: &QueryResult,
    cfg: &DatasetConfig,
    store: Option<&CircuitStore>,
) -> Vec<TupleRecord> {
    let n = result.len();
    if n == 0 {
        return Vec::new();
    }
    let stride = n.div_ceil(cfg.max_tuples_per_query);
    let sampled: Vec<usize> = (0..n).step_by(stride.max(1)).collect();
    let arena = &result.interned.arena;
    ls_par::par_map(&sampled, |_, &tuple_idx| {
        let derivations = &result.interned.tuples[tuple_idx].derivations;
        let lineage = arena.union_facts(derivations);
        if lineage.is_empty() || lineage.len() > cfg.max_lineage {
            return None;
        }
        let dnf = Dnf::from_recovered(arena, derivations);
        let shapley = match store {
            Some(s) => shapley_values_stored(s, &CanonicalShape::of(&dnf)),
            None => shapley_values(&dnf),
        };
        debug_assert_eq!(shapley.len(), lineage.len());
        Some(TupleRecord { tuple_idx, shapley })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Query-level 70/10/20 split (seeded shuffle; every split non-empty once
/// the log has ≥ 4 queries).
fn make_splits(n: usize, seed: u64) -> Vec<Split> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let n_dev = (n / 10).max(usize::from(n >= 4));
    let n_test = (n / 5).max(usize::from(n >= 4));
    let mut splits = vec![Split::Train; n];
    for &i in idx.iter().take(n_dev) {
        splits[i] = Split::Dev;
    }
    for &i in idx.iter().skip(n_dev).take(n_test) {
        splits[i] = Split::Test;
    }
    splits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imdb::{generate_imdb, ImdbConfig};
    use crate::querygen::imdb_spec;

    fn tiny() -> Dataset {
        let db = generate_imdb(&ImdbConfig::default());
        let cfg = DatasetConfig {
            query_gen: QueryGenConfig {
                num_queries: 14,
                ..Default::default()
            },
            ..Default::default()
        };
        Dataset::build(db, &imdb_spec(), &cfg)
    }

    #[test]
    fn splits_partition_queries() {
        let ds = tiny();
        let (tr, dv, te) = (
            ds.split_indices(Split::Train),
            ds.split_indices(Split::Dev),
            ds.split_indices(Split::Test),
        );
        assert_eq!(tr.len() + dv.len() + te.len(), ds.queries.len());
        assert!(!tr.is_empty() && !dv.is_empty() && !te.is_empty());
        assert!(tr.len() > te.len());
        assert!(te.len() >= dv.len());
    }

    #[test]
    fn ground_truth_is_normalized() {
        let ds = tiny();
        let mut seen_any = false;
        for q in &ds.queries {
            for t in &q.tuples {
                seen_any = true;
                let total: f64 = t.shapley.values().sum();
                assert!(
                    (total - 1.0).abs() < 1e-6,
                    "efficiency violated: {total} for {}",
                    q.sql
                );
                assert!(t.shapley.values().all(|&v| v > 0.0));
            }
        }
        assert!(seen_any, "no ground truth at all");
    }

    #[test]
    fn tuple_sampling_respects_cap() {
        let ds = tiny();
        for q in &ds.queries {
            assert!(q.tuples.len() <= DatasetConfig::default().max_tuples_per_query + 1);
            for t in &q.tuples {
                assert!(t.lineage_len() <= DatasetConfig::default().max_lineage);
                assert!(t.tuple_idx < q.result.len());
            }
        }
    }

    #[test]
    fn deterministic_build() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.queries.len(), b.queries.len());
        for (qa, qb) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.sql, qb.sql);
            assert_eq!(qa.tuples.len(), qb.tuples.len());
        }
        assert_eq!(a.splits, b.splits);
    }

    /// `a` and `b` hold the same queries, splits and ground truth, bit for
    /// bit.
    fn assert_same_records(a: &Dataset, b: &Dataset, what: &str) {
        assert_eq!(a.queries.len(), b.queries.len(), "{what}");
        assert_eq!(a.splits, b.splits, "{what}");
        for (qa, qb) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.id, qb.id);
            assert_eq!(qa.sql, qb.sql, "{what}");
            assert_eq!(qa.tuples.len(), qb.tuples.len(), "{what}");
            for (ta, tb) in qa.tuples.iter().zip(&qb.tuples) {
                assert_eq!(ta.tuple_idx, tb.tuple_idx);
                assert_eq!(ta.shapley.len(), tb.shapley.len());
                for ((fa, va), (fb, vb)) in ta.shapley.iter().zip(&tb.shapley) {
                    assert_eq!(fa, fb);
                    assert_eq!(va.to_bits(), vb.to_bits(), "{what}");
                }
            }
        }
    }

    #[test]
    fn build_bit_identical_across_thread_counts() {
        let serial = ls_par::with_threads(1, tiny);
        for t in [2usize, 4] {
            let par = ls_par::with_threads(t, tiny);
            assert_same_records(&serial, &par, &format!("threads={t}"));
        }
        // The store-backed build streams compiles and store writes next to
        // the generator: at every width it gives the storeless records.
        for t in [1usize, 2, 4] {
            let dir =
                std::env::temp_dir().join(format!("ls_dbshap_threads_{t}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store = CircuitStore::open(&dir, 256).unwrap();
            let cfg = DatasetConfig {
                query_gen: QueryGenConfig {
                    num_queries: 14,
                    ..Default::default()
                },
                ..Default::default()
            };
            let db = generate_imdb(&ImdbConfig::default());
            let stored = ls_par::with_threads(t, || {
                Dataset::build_with_store(db, &imdb_spec(), &cfg, Some(&store))
            });
            assert_same_records(&serial, &stored, &format!("store, threads={t}"));
            assert!(store.stats().misses > 0, "a cold store compiles");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn store_backed_build_is_bit_identical_and_reuses_shapes() {
        let dir = std::env::temp_dir().join(format!("ls_dbshap_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plain = tiny();

        let db = generate_imdb(&ImdbConfig::default());
        let cfg = DatasetConfig {
            query_gen: QueryGenConfig {
                num_queries: 14,
                ..Default::default()
            },
            ..Default::default()
        };
        let store = CircuitStore::open(&dir, 256).unwrap();
        let stored = Dataset::build_with_store(db, &imdb_spec(), &cfg, Some(&store));

        assert_eq!(plain.queries.len(), stored.queries.len());
        let mut lineages = 0usize;
        for (qa, qb) in plain.queries.iter().zip(&stored.queries) {
            assert_eq!(qa.tuples.len(), qb.tuples.len(), "query {}", qa.sql);
            for (ta, tb) in qa.tuples.iter().zip(&qb.tuples) {
                lineages += 1;
                assert_eq!(ta.tuple_idx, tb.tuple_idx);
                assert_eq!(ta.shapley.len(), tb.shapley.len());
                for ((fa, va), (fb, vb)) in ta.shapley.iter().zip(&tb.shapley) {
                    assert_eq!(fa, fb);
                    assert_eq!(va.to_bits(), vb.to_bits(), "fact {fa} in {}", qa.sql);
                }
            }
        }
        // Shapes recur across lineages: strictly fewer compiles than tuples.
        let st = store.stats();
        assert_eq!(st.mem_hits + st.disk_hits + st.misses, lineages as u64);
        assert!(
            st.misses < lineages as u64,
            "no shape reuse across {lineages} lineages (misses {})",
            st.misses
        );

        // A rebuild over the same persisted directory compiles nothing.
        let db = generate_imdb(&ImdbConfig::default());
        let warm = CircuitStore::open(&dir, 256).unwrap();
        let again = Dataset::build_with_store(db, &imdb_spec(), &cfg, Some(&warm));
        assert_eq!(again.queries.len(), plain.queries.len());
        assert_eq!(warm.stats().misses, 0, "warm build should be all cache");
        assert!(warm.stats().disk_hits > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn facts_in_split_nonempty_and_disjointish() {
        let ds = tiny();
        let train_facts = ds.facts_in_split(Split::Train);
        let test_facts = ds.facts_in_split(Split::Test);
        assert!(!train_facts.is_empty());
        assert!(!test_facts.is_empty());
        // The paper reports ~38% unseen facts in test; here we just require
        // both shared and (usually) some unseen facts to exist.
        let shared = test_facts.intersection(&train_facts).count();
        assert!(shared > 0, "test facts should overlap train facts");
    }

    #[test]
    fn quartet_and_result_counts_positive() {
        let ds = tiny();
        assert!(ds.quartet_count(Split::Train) > 0);
        assert!(ds.result_count(Split::Train) > 0);
        assert!(ds.result_count(Split::Train) >= ds.split_indices(Split::Train).len());
    }
}
