//! Request-scoped trace contexts with explicit cross-thread propagation.
//!
//! The span layer ([`crate::span`]) tracks parenting with a per-thread
//! stack, which breaks the moment a request hops threads: a span opened on
//! a pool worker starts a fresh root instead of nesting under the
//! submitting span. A [`TraceContext`] is the explicit fix — a small `Copy`
//! value `{ trace_id, span_id, parent }` minted once per request, handed
//! across thread (and process) boundaries by value, and *attached* on the
//! receiving side so spans opened there adopt the carried identity:
//!
//! ```
//! let ctx = ls_obs::TraceContext::root();
//! let handle = {
//!     let ctx = ctx; // Copy: moves into the worker by value
//!     std::thread::spawn(move || {
//!         let _g = ctx.attach(); // spans now nest under `ctx.span_id`
//!         let _s = ls_obs::span("worker.step");
//!     })
//! };
//! handle.join().unwrap();
//! ```
//!
//! Trace ids are 64-bit, process-salted SplitMix64 outputs — unique within
//! a process by construction (a counter feeds the mix) and collision-free
//! across client/server processes for any realistic request volume. The
//! wire carries them as raw `u64`s; telemetry renders them as 16-digit hex
//! so the full 64 bits survive JSON's f64 numbers.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// The ambient trace id on this thread (0 = untraced).
    static TRACE: Cell<u64> = const { Cell::new(0) };
}

/// One SplitMix64 output for the given state (also used by the flight
/// recorder's sequence stamps).
#[must_use]
pub(crate) fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Process-wide salt so two processes started near-simultaneously still
/// mint disjoint trace ids (pid ⊕ wall-clock nanos at first use).
fn process_salt() -> u64 {
    static SALT: OnceLock<u64> = OnceLock::new();
    *SALT.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        splitmix64(nanos ^ (u64::from(std::process::id()) << 32))
    })
}

/// A request-scoped trace identity, passed explicitly across threads and
/// carried over the wire so client- and server-side spans stitch into one
/// trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The request's trace id (nonzero; 0 means "no trace").
    pub trace_id: u64,
    /// The span this context points at — new spans opened under an
    /// [`TraceContext::attach`] guard nest beneath it. 0 = trace root.
    pub span_id: u64,
    /// The span `span_id` itself nests under (informational; 0 = none).
    pub parent: u64,
}

impl TraceContext {
    /// Mint a fresh root context with a new process-salted trace id.
    pub fn root() -> TraceContext {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let seq = NEXT.fetch_add(1, Ordering::Relaxed);
        // `| 1` keeps minted ids nonzero (0 is the "untraced" sentinel).
        TraceContext {
            trace_id: splitmix64(seq ^ process_salt()) | 1,
            span_id: 0,
            parent: 0,
        }
    }

    /// Capture the calling thread's ambient context: the active trace id
    /// plus the innermost open span. `None` when no trace is attached —
    /// callers forwarding work to another thread capture this *before*
    /// spawning and attach it on the other side.
    pub fn current() -> Option<TraceContext> {
        let trace_id = TRACE.with(Cell::get);
        if trace_id == 0 {
            return None;
        }
        Some(TraceContext {
            trace_id,
            span_id: crate::span::current_span_id(),
            parent: 0,
        })
    }

    /// Make this context ambient on the calling thread until the returned
    /// guard drops: spans opened meanwhile carry `trace_id` and nest under
    /// `span_id`, even though the thread never opened that span itself.
    /// Guards nest; each restores exactly what it replaced.
    #[must_use = "the context detaches when the guard drops"]
    pub fn attach(&self) -> TraceGuard {
        let prev_trace = TRACE.with(|t| t.replace(self.trace_id));
        let prev_span = crate::span::set_current(self.span_id);
        TraceGuard {
            prev_trace,
            prev_span,
        }
    }

    /// A context pointing at `span_id` within the same trace (what a span
    /// boundary hands to downstream workers).
    #[must_use]
    pub fn at_span(&self, span_id: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id,
            parent: self.span_id,
        }
    }
}

/// RAII guard restoring the previous ambient trace and span on drop.
pub struct TraceGuard {
    prev_trace: u64,
    prev_span: u64,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        TRACE.with(|t| t.set(self.prev_trace));
        crate::span::set_current(self.prev_span);
    }
}

/// The calling thread's ambient trace id (0 = untraced). Hot paths use this
/// to exemplar-tag histogram samples.
#[inline]
pub fn current_trace_id() -> u64 {
    TRACE.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_ids_are_unique_and_nonzero() {
        let a = TraceContext::root();
        let b = TraceContext::root();
        assert_ne!(a.trace_id, 0);
        assert_ne!(b.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
    }

    #[test]
    fn attach_sets_and_restores_ambient_state() {
        assert_eq!(current_trace_id(), 0);
        let ctx = TraceContext {
            trace_id: 0xabcd,
            span_id: 42,
            parent: 0,
        };
        {
            let _g = ctx.attach();
            assert_eq!(current_trace_id(), 0xabcd);
            assert_eq!(crate::span::current_span_id(), 42);
            let inner = TraceContext {
                trace_id: 7,
                span_id: 9,
                parent: 0,
            };
            {
                let _g2 = inner.attach();
                assert_eq!(current_trace_id(), 7);
            }
            assert_eq!(current_trace_id(), 0xabcd, "nested guards restore");
        }
        assert_eq!(current_trace_id(), 0);
        assert_eq!(crate::span::current_span_id(), 0);
    }

    #[test]
    fn current_captures_trace_and_span() {
        assert!(TraceContext::current().is_none());
        let ctx = TraceContext {
            trace_id: 5,
            span_id: 17,
            parent: 0,
        };
        let _g = ctx.attach();
        let got = TraceContext::current().unwrap();
        assert_eq!(got.trace_id, 5);
        assert_eq!(got.span_id, 17);
    }
}
