//! Degraded-mode scorers for serving.
//!
//! When the learned model cannot be used — a worker pool suffering repeated
//! panics, a circuit breaker open after transport faults — the server can
//! still answer ranking requests from a cheaper, model-free scorer. The
//! natural choice is the paper's §5.1 Nearest Queries baseline under the
//! witness metric (`sim_w`): evaluate the probe query against the database,
//! compare its witness set to the training log, and score each lineage fact
//! by its aggregated historical Shapley value over the nearest neighbors.
//!
//! A fallback is best-effort by contract: [`FallbackScorer::score`] returns
//! `None` when it cannot produce scores (unparsable SQL, failed
//! evaluation), in which case the caller should surface a typed error
//! rather than fabricate numbers.

use crate::nearest::{NearestQueries, NqMetric, QueryProbe};
use ls_dbshap::Dataset;
use ls_relational::{evaluate, parse_query, Database, FactId};

/// A model-free scorer a server can degrade to when the learned path is
/// unhealthy. Implementations must be cheap relative to the model and must
/// never panic on malformed input — return `None` instead.
pub trait FallbackScorer: Send + Sync {
    /// Score `lineage` for `query_sql`, in lineage order. `None` means the
    /// fallback itself could not answer (e.g. the SQL does not parse).
    fn score(&self, query_sql: &str, lineage: &[FactId]) -> Option<Vec<f64>>;

    /// Short label for telemetry ("nearest-witness", "uniform", ...).
    fn name(&self) -> &'static str;
}

/// The paper's `sim_w` Nearest Queries baseline as a serving fallback:
/// parse the probe SQL, evaluate it against the training database to obtain
/// its witness set, and let the fitted [`NearestQueries`] model score the
/// lineage from the historical Shapley values of the nearest log queries.
pub struct NearestFallback {
    nq: NearestQueries,
    db: Database,
}

impl NearestFallback {
    /// Fit on the dataset's training queries with neighbor count `n` (the
    /// paper found `n = 3` best).
    pub fn fit(ds: &Dataset, train_queries: &[usize], n: usize) -> NearestFallback {
        NearestFallback {
            nq: NearestQueries::fit(ds, train_queries, NqMetric::Witness, n),
            db: ds.db.clone(),
        }
    }
}

impl FallbackScorer for NearestFallback {
    fn score(&self, query_sql: &str, lineage: &[FactId]) -> Option<Vec<f64>> {
        let mut sp = ls_obs::span("core.fallback.nearest").with("lineage", lineage.len());
        let query = parse_query(query_sql).ok()?;
        let result = evaluate(&self.db, &query).ok()?;
        let probe = QueryProbe {
            query: &query,
            result: &result,
            tuple_scores: None,
        };
        let scores = self.nq.predict(&probe, lineage);
        sp.record("scored", lineage.len());
        Some(
            lineage
                .iter()
                .map(|f| scores.get(f).copied().unwrap_or(0.0))
                .collect(),
        )
    }

    fn name(&self) -> &'static str {
        "nearest-witness"
    }
}

/// The zero scorer: every fact gets 0.0, preserving availability when no
/// training log is at hand. Rankings degenerate to lineage order; responses
/// must be marked degraded so clients can tell.
#[derive(Debug, Default, Clone, Copy)]
pub struct UniformFallback;

impl FallbackScorer for UniformFallback {
    fn score(&self, _query_sql: &str, lineage: &[FactId]) -> Option<Vec<f64>> {
        Some(vec![0.0; lineage.len()])
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_dbshap::{
        generate_imdb, imdb_spec, Dataset, DatasetConfig, ImdbConfig, QueryGenConfig, Split,
    };

    fn tiny() -> Dataset {
        let db = generate_imdb(&ImdbConfig {
            companies: 10,
            actors: 40,
            movies: 50,
            roles_per_movie: 2,
            seed: 9,
        });
        let cfg = DatasetConfig {
            query_gen: QueryGenConfig {
                num_queries: 10,
                ..Default::default()
            },
            max_tuples_per_query: 4,
            max_lineage: 25,
            ..Default::default()
        };
        Dataset::build(db, &imdb_spec(), &cfg)
    }

    #[test]
    fn nearest_fallback_scores_training_query_lineage() {
        let ds = tiny();
        let train = ds.split_indices(Split::Train);
        let fb = NearestFallback::fit(&ds, &train, 3);
        let q = &ds.queries[train[0]];
        let t = &q.tuples[0];
        let lineage: Vec<FactId> = t.shapley.keys().copied().collect();
        let scores = fb.score(&q.sql, &lineage).expect("fallback must answer");
        assert_eq!(scores.len(), lineage.len());
        // A query from the training log is its own nearest neighbor, so at
        // least one lineage fact carries its historical (positive) Shapley.
        assert!(scores.iter().any(|&s| s > 0.0), "scores {scores:?}");
        assert_eq!(fb.name(), "nearest-witness");
    }

    #[test]
    fn nearest_fallback_rejects_garbage_sql() {
        let ds = tiny();
        let train = ds.split_indices(Split::Train);
        let fb = NearestFallback::fit(&ds, &train, 3);
        assert!(fb.score("DROP TABLE everything;", &[FactId(0)]).is_none());
        assert!(fb.score("", &[FactId(0)]).is_none());
    }

    #[test]
    fn uniform_fallback_always_answers() {
        let fb = UniformFallback;
        let lineage = [FactId(1), FactId(2), FactId(3)];
        assert_eq!(fb.score("anything at all", &lineage), Some(vec![0.0; 3]));
        assert_eq!(fb.name(), "uniform");
    }
}
