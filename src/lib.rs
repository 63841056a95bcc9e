//! # learnshapley
//!
//! Umbrella crate of the LearnShapley reproduction (*"Predicting Fact
//! Contributions from Query Logs with Machine Learning"*, EDBT 2024): it
//! re-exports every workspace crate under one roof so examples and
//! downstream users can depend on a single package.
//!
//! * [`relational`] — SPJU engine with fact-annotated provenance evaluation;
//! * [`provenance`] — Boolean provenance, decision-DNNF knowledge
//!   compiler, exact cardinality-resolved model counting;
//! * [`shapley`] — exact / sampled / proxy Shapley values of facts;
//! * [`similarity`] — syntax-, witness-, and rank-based query similarity;
//! * [`nn`] — the transformer-encoder substrate with manual backprop;
//! * [`dbshap`] — the DBShap benchmark generator (databases, query logs,
//!   exact ground truth, splits, statistics);
//! * [`core`] — LearnShapley itself: tokenizer, model, pre-training,
//!   fine-tuning, inference, Nearest Queries baselines, metrics.
//!
//! ```
//! use learnshapley::prelude::*;
//!
//! // A two-table fragment of the paper's running example: which movies
//! // were produced by an American company?
//! let mut db = Database::new();
//! db.create_table(TableSchema::new("movies", &[
//!     ("title", ColType::Str), ("year", ColType::Int), ("company", ColType::Str)]));
//! db.create_table(TableSchema::new("companies", &[
//!     ("name", ColType::Str), ("country", ColType::Str)]));
//! db.insert("movies", vec!["Superman".into(), 2007.into(), "Universal".into()]);
//! db.insert("companies", vec!["Universal".into(), "USA".into()]);
//!
//! let q = parse_query(
//!     "SELECT movies.title FROM movies, companies \
//!      WHERE movies.company = companies.name AND companies.country = 'USA'").unwrap();
//! let result = evaluate(&db, &q).unwrap();
//! let prov = Dnf::of_tuple(&result.tuples[0]);
//! let scores = shapley_values(&prov);
//! assert_eq!(scores.len(), 2); // both facts contribute (1/2 each)
//! ```

pub use ls_core as core;
pub use ls_dbshap as dbshap;
pub use ls_nn as nn;
pub use ls_obs as obs;
pub use ls_provenance as provenance;
pub use ls_relational as relational;
pub use ls_shapley as shapley;
pub use ls_similarity as similarity;

/// The most commonly used items, flattened.
pub mod prelude {
    pub use ls_core::{
        evaluate_model, ndcg_at_k, precision_at_k, predict_scores, rank_lineage,
        train_learnshapley, EncoderKind, LearnShapleyModel, NearestQueries, NqMetric,
        PipelineConfig, PretrainObjectives, QueryProbe, Tokenizer, TrainConfig,
    };
    pub use ls_dbshap::{
        academic_spec, generate_academic, generate_imdb, imdb_spec, similarity_matrices,
        AcademicConfig, Dataset, DatasetConfig, ImdbConfig, QueryGenConfig, Split,
    };
    pub use ls_provenance::{compile, CompileOptions, Dnf};
    pub use ls_relational::{
        evaluate, parse_query, to_sql, ColType, Database, FactId, Monomial, Query, TableSchema,
        Value,
    };
    pub use ls_shapley::{
        cnf_proxy_scores, rank_descending, shapley_values, shapley_values_sampled, FactScores,
    };
    pub use ls_similarity::{
        rank_based_similarity, syntax_similarity, witness_similarity, RankSimOptions,
    };
}
