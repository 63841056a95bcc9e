//! # ls-relational
//!
//! An in-memory relational engine for the SPJU (Select-Project-Join-Union)
//! fragment, with fact-level provenance annotations.
//!
//! This crate is the data substrate of the LearnShapley reproduction: it
//! provides typed values, schemas, annotated tables, a SQL-subset parser and
//! printer, a canonical logical representation of SPJU queries, a
//! provenance-tracking evaluator (output tuples carry their monotone-DNF
//! Boolean provenance), and operation-set extraction used by syntax-based
//! query similarity.
//!
//! ## Quick example
//!
//! ```
//! use ls_relational::{Database, TableSchema, ColType, parse_query, evaluate};
//!
//! let mut db = Database::new();
//! db.create_table(TableSchema::new(
//!     "movies",
//!     &[("title", ColType::Str), ("year", ColType::Int)],
//! ));
//! db.insert("movies", vec!["Superman".into(), 2007.into()]);
//! db.insert("movies", vec!["Aquaman".into(), 2006.into()]);
//!
//! let q = parse_query("SELECT movies.title FROM movies WHERE movies.year = 2007").unwrap();
//! let result = evaluate(&db, &q).unwrap();
//! assert_eq!(result.len(), 1);
//! assert_eq!(result.tuples[0].value_string(), "(Superman)");
//! // Each output tuple knows exactly which input facts derived it:
//! assert_eq!(result.tuples[0].lineage().len(), 1);
//! ```

#![warn(missing_docs)]

pub mod algebra;
pub mod arena;
pub mod database;
pub mod dict;
pub mod eval;
pub mod fact;
mod hash;
pub mod ops;
pub mod results;
pub mod row;
pub mod schema;
pub mod semiring;
pub mod sql;
pub mod table;
pub mod value;

pub use algebra::{CmpOp, ColRef, JoinCond, Query, Selection, SpjBlock, TableRef};
pub use arena::{LineageArena, MonoRef};
pub use database::Database;
pub use dict::ValueDict;
pub use eval::{evaluate_with, EvalError};
pub use fact::{minimize_dnf, FactId, Monomial};
pub use ops::{operations, Operation};
pub use results::{
    evaluate, evaluate_interned, InternedResult, InternedTuple, OutputTuple, QueryResult,
};
pub use row::IdRow;
pub use schema::{Column, TableSchema};
pub use semiring::{Counting, DnfTag, MonotoneDnf, Provenance, TopKClauses};
pub use sql::parser::{parse_query, ParseError};
pub use sql::printer::to_sql;
pub use table::{Row, Table};
pub use value::{ColType, Value, ValueId};
