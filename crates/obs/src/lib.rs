//! # ls-obs — observability substrate for the LearnShapley workspace
//!
//! A from-scratch (zero external dependency) tracing + metrics layer:
//!
//! * **Spans** — RAII guards recording named, hierarchical timed regions
//!   with key/value fields ([`span`]). Parenting is tracked per thread;
//!   every span close feeds a duration histogram named after the span.
//! * **Metrics** — process-global [`Counter`]s, [`Gauge`]s, fixed-bucket
//!   [`Histogram`]s with p50/p90/p99 summaries, and throughput [`Meter`]s
//!   (rows/sec, tokens/sec, coalitions/sec), all interned in a registry
//!   and safe under thread contention.
//! * **Sinks** — an env-filtered human-readable stderr reporter and a
//!   JSON-Lines exporter ([`init_jsonl`]) so experiment runs carry
//!   machine-readable telemetry beside their CSVs.
//!
//! ## Env filtering
//!
//! The `LS_OBS` variable selects the stderr verbosity:
//!
//! | value            | behaviour                                        |
//! |------------------|--------------------------------------------------|
//! | unset / `off`/`0`| silent; span guards are no-ops (near-zero cost)  |
//! | `summary` / `1`  | [`report`] prints the metrics summary at exit    |
//! | `span` / `2`     | additionally prints every span close, indented   |
//! | `trace` / `3`    | additionally prints span opens                   |
//!
//! `LS_OBS_JSONL=<path>` (or [`init_jsonl`]) streams span-close and
//! metric-snapshot records as JSON Lines. Telemetry recording is active
//! whenever either sink is on; with both off the hot paths reduce to one
//! relaxed atomic load.
//!
//! ## Request-scoped tracing and the flight recorder
//!
//! [`TraceContext`] carries a request's identity across thread and process
//! boundaries explicitly (the per-thread span stack cannot follow work into
//! a pool): capture with [`TraceContext::current`], attach on the far side
//! with [`TraceContext::attach`]. The [`recorder`] module is
//! an always-cheap lock-free ring buffer of recent span/event/fault
//! activity, enabled with `LS_OBS_RECORDER=<slots-per-thread>` and dumped
//! to `LS_OBS_RECORDER_DUMP=<path>` as JSONL on panic or at [`report`].

mod json;
mod metrics;
pub mod recorder;
mod sink;
mod span;
mod trace;

pub use json::{parse as parse_json, Json};
pub use metrics::{Counter, Gauge, HistStats, Histogram, Meter, EXEMPLAR_SLOTS};
pub use sink::{
    flush, init_jsonl, init_jsonl_writer, jsonl_active, metrics_json, report, summary,
    take_jsonl_writer,
};
pub use span::{current_span_id, FieldValue, Span};
pub use trace::{current_trace_id, TraceContext, TraceGuard};

use std::sync::atomic::{AtomicU8, Ordering};

/// Stderr verbosity, parsed from `LS_OBS`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Level {
    Off = 0,
    Summary = 1,
    Spans = 2,
    Trace = 3,
}

const LEVEL_UNINIT: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNINIT);

fn parse_level(raw: &str) -> Level {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "0" | "off" | "false" => Level::Off,
        "1" | "summary" => Level::Summary,
        "2" | "span" | "spans" => Level::Spans,
        _ => Level::Trace,
    }
}

/// Current stderr verbosity (reads `LS_OBS` once, then cached).
#[inline]
pub fn level() -> Level {
    let raw = LEVEL.load(Ordering::Relaxed);
    match raw {
        0 => return Level::Off,
        1 => return Level::Summary,
        2 => return Level::Spans,
        3 => return Level::Trace,
        _ => {}
    }
    let parsed = match std::env::var("LS_OBS") {
        Ok(v) => parse_level(&v),
        Err(_) => Level::Off,
    };
    LEVEL.store(parsed as u8, Ordering::Relaxed);
    // Opportunistically honour LS_OBS_JSONL on first touch.
    if parsed != Level::Off || std::env::var_os("LS_OBS_JSONL").is_some() {
        sink::init_jsonl_from_env();
    }
    // Same first-touch hook for the flight recorder env toggles.
    recorder::init_from_env();
    parsed
}

/// Override the stderr verbosity programmatically (wins over `LS_OBS`).
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Is any telemetry consumer active? Hot paths should gate per-item work on
/// this; it is a single relaxed atomic load after the first call.
#[inline]
pub fn enabled() -> bool {
    level() != Level::Off || sink::jsonl_active()
}

/// Open a timed region. Closes (and records) when the guard drops.
///
/// ```
/// let _g = ls_obs::span("shapley.exact").with("n_vars", 8u64);
/// // ... work ...
/// ```
#[inline]
pub fn span(name: &'static str) -> Span {
    Span::open(name)
}

/// Process-global counter handle (interned; cache it in hot loops).
pub fn counter(name: &'static str) -> &'static Counter {
    metrics::registry().counter(name)
}

/// Process-global gauge handle.
pub fn gauge(name: &'static str) -> &'static Gauge {
    metrics::registry().gauge(name)
}

/// Process-global histogram handle.
pub fn histogram(name: &'static str) -> &'static Histogram {
    metrics::registry().histogram(name)
}

/// Process-global throughput meter handle.
pub fn meter(name: &'static str) -> &'static Meter {
    metrics::registry().meter(name)
}

/// Time a closure into the named histogram and return its result.
#[inline]
pub fn time<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = std::time::Instant::now();
    let out = f();
    histogram(name).record(start.elapsed().as_secs_f64());
    out
}

/// Zero every registered metric (counters, gauges, histograms, meters).
/// Span ids keep advancing. Intended for test isolation and for the bench
/// harness to scope measurements per experiment.
pub fn reset() {
    metrics::registry().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing() {
        assert_eq!(parse_level(""), Level::Off);
        assert_eq!(parse_level("off"), Level::Off);
        assert_eq!(parse_level("summary"), Level::Summary);
        assert_eq!(parse_level("1"), Level::Summary);
        assert_eq!(parse_level("SPAN"), Level::Spans);
        assert_eq!(parse_level("trace"), Level::Trace);
        assert_eq!(parse_level("verbose"), Level::Trace);
    }

    #[test]
    fn time_returns_closure_result() {
        set_level(Level::Summary);
        assert_eq!(time("obs.test.time", || 41 + 1), 42);
        assert!(histogram("obs.test.time").stats().count >= 1);
    }
}
