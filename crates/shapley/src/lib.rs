//! # ls-shapley
//!
//! Shapley values of facts in query answering — the quantitative backbone of
//! the LearnShapley reproduction. Four scoring engines over the same
//! [`ls_provenance::Dnf`] provenance input:
//!
//! * [`shapley_values`] — exact, via decision-DNNF compilation and
//!   cardinality-resolved model counting (the route of the paper's `[15]`);
//! * [`shapley_values_bruteforce`] — exponential-time oracle for testing;
//! * [`shapley_values_sampled`] — unbiased permutation-sampling estimator;
//! * [`cnf_proxy_scores`] — the fast inexact *CNF Proxy* ranking heuristic;
//!
//! plus the ranking helpers every consumer shares, and
//! [`shapley_values_stored`] — the exact engine routed through the
//! `ls-circuit` compiled-circuit store so recurring lineage shapes compile
//! once and answer from cache thereafter.
//!
//! ```
//! use ls_provenance::Dnf;
//! use ls_relational::{FactId, Monomial};
//! use ls_shapley::{shapley_values, rank_descending};
//!
//! // The paper's Example 2.2: Alice's provenance in q_inf.
//! let prov = Dnf::from_monomials(vec![
//!     Monomial::from_facts(vec![FactId(0), FactId(1), FactId(4), FactId(6)]),
//!     Monomial::from_facts(vec![FactId(0), FactId(2), FactId(4), FactId(7)]),
//!     Monomial::from_facts(vec![FactId(0), FactId(3), FactId(5), FactId(8)]),
//! ]);
//! let scores = shapley_values(&prov);
//! // Shapley(c1) = 10/63, Shapley(c2) = 19/252 — exactly as derived by hand.
//! assert!((scores[&FactId(4)] - 10.0 / 63.0).abs() < 1e-9);
//! assert!((scores[&FactId(5)] - 19.0 / 252.0).abs() < 1e-9);
//! let ranking = rank_descending(&scores);
//! assert_eq!(ranking[0], FactId(0)); // a1 tops the ranking
//! ```

#![warn(missing_docs)]

pub mod exact;
pub mod naive;
pub mod proxy;
pub mod ranking;
pub mod sampling;
pub mod stored;

pub use exact::{shapley_values, FactScores};
pub use naive::{shapley_values_bruteforce, MAX_BRUTE_FORCE_PLAYERS};
pub use proxy::cnf_proxy_scores;
pub use ranking::{average_ranks, rank_descending, top_k};
pub use sampling::shapley_values_sampled;
pub use stored::shapley_values_stored;
