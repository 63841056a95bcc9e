//! # ls-circuit — compiled-circuit store, stratified sampler, SLO tiers
//!
//! The scale substrate for Shapley attribution (ROADMAP item 2), three
//! pieces that compose into a per-request answer path:
//!
//! * **[`CircuitStore`]** — compiled decision-DNNFs keyed by the canonical
//!   [`shape`] of their lineage: recurring shapes across
//!   tuples, dataset builds, and serving compile **once**, persist in a
//!   compact versioned binary format (crash-atomic, CRC-sealed, bit-exact
//!   f64/BigNat round-trip), and load thereafter, with an in-process LRU
//!   and `circuit.*` telemetry. Canonical Shapley scores attach to entries,
//!   turning warm hits into pure lookups.
//! * **[`shapley_stratified`]** — a seed-deterministic, `LS_THREADS`-
//!   invariant relation-stratified permutation sampler returning anytime
//!   estimates with CLT confidence intervals. It and the plain sampler in
//!   `ls-shapley` find each permutation's pivotal fact with
//!   [`pivot_position`], one pass over the canonical clause table.
//! * **[`SloPolicy`]** — the accuracy–latency selector over the three-tier
//!   answer path (exact circuit / learned model / stratified sampling),
//!   recorded per served response.
//!
//! Zero external dependencies; sits below `ls-shapley` so both the exact
//! pipeline and the serving layer can share one store.

#![warn(missing_docs)]

pub mod format;
pub mod sampler;
pub mod shape;
pub mod store;
pub mod tier;

pub use format::{EntryData, StoreError};
pub use sampler::{pivot_position, shapley_stratified, SampleEstimate, BATCH};
pub use shape::{CanonicalShape, ShapeKey};
pub use store::{CircuitEntry, CircuitStore, StoreStats};
pub use tier::{CacheState, SloPolicy, Tier, TierDecision};
