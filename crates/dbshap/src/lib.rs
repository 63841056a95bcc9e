//! # ls-dbshap
//!
//! A generator for DBShap-style benchmarks: seeded synthetic IMDB-like and
//! Academic-like databases, an SPJU query-log generator that produces
//! near-duplicate query families, an offline ground-truth pass computing the
//! exact Shapley value of every lineage fact for every (query, output tuple)
//! pair, query-level 70/10/20 splits, and the statistics behind the paper's
//! Table 1, Table 2 and Figure 7.
//!
//! The original DBShap is built from the real IMDB and Microsoft Academic
//! databases (proprietary / large); this crate reproduces its *structure* at
//! laptop scale — see DESIGN.md §1 for the substitution argument.
//!
//! ```no_run
//! use ls_dbshap::{Dataset, DatasetConfig, generate_imdb, ImdbConfig, imdb_spec};
//!
//! let db = generate_imdb(&ImdbConfig::default());
//! let ds = Dataset::build(db, &imdb_spec(), &DatasetConfig::default());
//! println!("{} queries, {} train quartets", ds.queries.len(),
//!          ds.quartet_count(ls_dbshap::Split::Train));
//! ```

#![warn(missing_docs)]

pub mod academic;
pub mod dataset;
pub mod feedback;
pub mod imdb;
pub mod names;
pub mod querygen;
pub mod stats;
pub mod subset;

pub use academic::{generate_academic, AcademicConfig};
pub use dataset::{Dataset, DatasetConfig, QueryRecord, Split, TupleRecord};
pub use feedback::{drift_feedback_events, DriftConfig, FeedbackEvent};
pub use imdb::{generate_imdb, ImdbConfig};
pub use names::NamePool;
pub use querygen::{
    academic_spec, generate_query_log, generate_wide_join_log, imdb_spec, QueryGenConfig,
    SchemaSpec,
};
pub use stats::{
    lineage_shape, similarity_matrices, split_similarity_row, split_stats, table1, LineageShape,
    SimilarityMatrices, SplitSimilarityRow, SplitStats,
};
pub use subset::{nested_train_subsets, unseen_fact_fraction, SWEEP_FRACTIONS};
