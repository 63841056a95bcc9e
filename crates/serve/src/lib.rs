//! # ls-serve — zero-dependency model serving for LearnShapley
//!
//! Serving infrastructure for a trained LearnShapley model: load a
//! [`persisted snapshot`](ls_core::load_model) once, share its weights
//! read-only across a pool of worker threads, and answer ranking requests
//! through dynamic micro-batching, an LRU ranking cache, and explicit
//! admission control — all on `std` alone.
//!
//! ```text
//! ServeHandle::rank ─▶ admission (cache / depth / deadline)
//!                        └▶ micro-batcher ─▶ worker pool ─▶ response
//! ```
//!
//! Two front doors:
//!
//! * **in-process** — [`Server::start`] + [`ServeHandle::rank`];
//! * **TCP** — [`TcpServer`] speaking the `LSBP` binary protocol of
//!   [`proto`] (a mandatory version hello, then length-prefixed frames),
//!   with [`TcpRankClient`] as the matching client.
//!
//! The contract that makes the subsystem trustworthy is *determinism*: for a
//! fixed model snapshot, a response is bit-identical to what the serial
//! [`ls_core::rank_lineage`] produces — for any worker count, any batching
//! boundary, cache hit or miss, in-process or over TCP. See
//! [`server`] for how the invariant is enforced and `tests/serve.rs` for the
//! differential test that pins it.
//!
//! Telemetry flows through `ls-obs` when enabled: `serve.queue_depth`
//! (gauge), `serve.batch_items` / `serve.latency` (histograms), and
//! `serve.cache_hit` / `serve.cache_miss` / `serve.shed_overload` /
//! `serve.shed_deadline` (counters).
//!
//! ## Tracing & introspection
//!
//! Every request can carry an [`ls_obs::TraceContext`] end to end: the TCP
//! client mints (or propagates) one, the wire carries its raw 64-bit ids, and
//! the engine threads it through queue → batcher → worker pool so spans and
//! stage histograms (`serve.stage.*`) attribute to the request. Successful
//! traced responses return a [`StageBreakdown`] whose disjoint stages sum
//! exactly to the server-side latency. The same TCP port answers
//! [`proto::AdminCommand`] introspection frames (metrics snapshots with
//! exemplars, queue/breaker/cache state, active traces, flight-recorder
//! dumps) — `bin/obsctl` is the matching CLI.
//!
//! ## Resilience
//!
//! The stack self-heals around `ls-fault`'s primitives (see the repository
//! DESIGN.md §4d). A worker panic fails exactly one job (`catch_unwind` +
//! an idempotent completion latch) and the pool respawns dead threads; a
//! circuit breaker ([`ServeConfig::breaker_failures`]) flips dispatch to a
//! model-free [`ls_core::FallbackScorer`] with responses explicitly marked
//! [`RankResponse::degraded`]; torn TCP frames poison one connection, never
//! the listener; and [`TcpRankClient`] reconnects with capped jittered
//! backoff under a [`RetryPolicy`]. Chaos coverage lives in
//! `tests/chaos.rs`: seeded fault plans drive the stack and every request
//! must end in a typed error or a response bit-identical to the fault-free
//! serial path.
//!
//! The `serve-loadgen` binary drives a server with closed-loop clients and
//! reports throughput and latency percentiles; see the repository README.

pub mod cache;
mod evloop;
pub mod online;
pub mod poller;
pub mod proto;
pub mod server;
pub mod tcp;

pub use cache::{LruCache, RankKey};
pub use online::{OnlineOptions, OnlineState};
pub use poller::{Backend, Event, Interest, Poller, Waker};
pub use proto::{frame_error, AdminCommand, Frame, FrameError, MAX_FRAME};
pub use server::{
    ModelBundle, RankRequest, RankResponse, ServeConfig, ServeError, ServeHandle, Server,
    StageBreakdown,
};
pub use tcp::{RetryPolicy, TcpOptions, TcpRankClient, TcpServer};

// The tier vocabulary of the SLO answer path, re-exported so clients can
// inspect [`RankResponse::tier`] without depending on `ls-circuit` directly.
pub use ls_circuit::{SloPolicy, Tier};
