//! # ls-fault — deterministic fault injection and self-healing primitives
//!
//! Two halves of one robustness story:
//!
//! * **Break things on purpose, reproducibly.** A [`FaultSpec`] compiled
//!   under a seed becomes a [`FaultPlan`] — an *explicit schedule* of which
//!   hits at which injection sites fail, panic, stall, corrupt, or tear.
//!   Production code consults plans only through the object-safe
//!   [`Injector`] trait (default [`NoFaults`]), threaded by `Arc`, never by
//!   globals; [`FaultyRead`]/[`FaultyWrite`] realize wire-level faults and
//!   [`ChaosProxy`] interposes them on live TCP traffic. Same seed ⇒ same
//!   schedule, which is what makes chaos tests assertable.
//!
//! * **Survive things breaking.** [`lock_safe`]/[`wait_safe`]/
//!   [`wait_timeout_safe`] recover poisoned mutexes so one panic fails one
//!   job instead of a whole server; [`Backoff`] yields capped exponential
//!   retry delays with deterministic jitter; [`CircuitBreaker`] flips
//!   callers onto a degraded path after repeated primary failures and
//!   probes its way back; [`crc32`] anchors crash-atomic persistence
//!   footers, and [`codec`] is the one byte layout ([`Put`] writer,
//!   [`Cursor`] reader) behind every persisted and wire format.
//!
//! Everything is `std`-only (plus `ls-obs` for the `fault.*` metrics).

#![warn(missing_docs)]

pub mod backoff;
pub mod breaker;
pub mod codec;
pub mod crc;
pub mod io;
pub mod persist;
pub mod plan;
pub mod proxy;
pub mod rng;
pub mod sync;

pub use backoff::Backoff;
pub use breaker::{BreakerState, CircuitBreaker};
pub use codec::{Cursor, DecodeError, Put};
pub use crc::{crc32, crc32_update};
pub use io::{FaultyRead, FaultyWrite, INJECTED_ERROR_MSG};
pub use persist::{
    fsync_with, read_verified, rename_with, seal, unseal, write_atomic, write_sealed,
};
pub use plan::{
    FaultAction, FaultKind, FaultPlan, FaultRule, FaultSpec, Injector, NoFaults, Trigger,
};
pub use proxy::ChaosProxy;
pub use rng::{draw, draw_unit, site_stream, splitmix64};
pub use sync::{lock_safe, wait_safe, wait_timeout_safe};
