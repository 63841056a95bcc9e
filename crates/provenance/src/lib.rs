//! # ls-provenance
//!
//! Boolean provenance machinery for SPJU query answering: minimized monotone
//! DNF expressions ([`Dnf`]), a knowledge compiler from DNF to
//! decision-DNNF circuits ([`compile`]), and cardinality-resolved exact
//! model counting on those circuits — the algorithmic substrate behind exact
//! Shapley value computation.
//!
//! ## Pipeline
//!
//! ```
//! use ls_provenance::{Dnf, compile, CompileOptions};
//! use ls_relational::{FactId, Monomial};
//!
//! // Provenance (a∧b) ∨ (a∧c): tuple derivable via two derivations.
//! let dnf = Dnf::from_monomials(vec![
//!     Monomial::from_facts(vec![FactId(0), FactId(1)]),
//!     Monomial::from_facts(vec![FactId(0), FactId(2)]),
//! ]);
//! let compiled = compile(&dnf, CompileOptions::default());
//! let universe = dnf.variables();
//! let counts = compiled.circuit.count_by_size(compiled.root, &universe);
//! // Satisfying subsets: {a,b}, {a,c}, {a,b,c} → by size: 0,0,2,1.
//! let as_f64: Vec<f64> = counts.iter().map(|c| c.to_f64()).collect();
//! assert_eq!(as_f64, vec![0.0, 0.0, 2.0, 1.0]);
//! ```

#![warn(missing_docs)]

pub mod bigint;
pub mod circuit;
pub mod compiler;
pub mod dot;
pub mod expr;

pub use bigint::BigNat;
pub use circuit::{Circuit, Node, NodeId};
pub use compiler::{compile, CompileOptions, CompileStats, Compiled, VarOrder};
pub use dot::circuit_to_dot;
pub use expr::Dnf;
