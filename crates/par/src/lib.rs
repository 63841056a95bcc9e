//! # ls-par — deterministic data-parallel runtime
//!
//! A zero-dependency (std-only) worker-pool layer used by the training,
//! Shapley, and dataset-building stacks. Everything here runs on one
//! persistent pool: helper threads are spawned once, lazily, and park
//! between jobs, and the thread that submits a job works a share of it
//! itself, so `LS_THREADS=2` means the caller plus one helper. Borrows flow
//! into the shares without `Arc` gymnastics, and — crucially — **every
//! construct is deterministic**: the value computed for item `i` and the
//! order values are combined in never depend on the number of threads or
//! on scheduling. Parallelism only decides *who* computes, never *what*.
//!
//! * [`par_map`] / [`par_map_init`] — chunked map over a slice; shares
//!   claim chunks from an atomic cursor, results are reassembled in item
//!   order. `par_map_init` gives each share a lazily-created scratch state
//!   (a model clone, a scorer) that is reused across its chunks.
//! * [`par_chunks_mut`] — statically partition a mutable slice into
//!   disjoint chunks and process them concurrently (kernel row-blocking).
//! * [`stream`] — the caller runs a producer while the pool consumes each
//!   item as soon as it is emitted; results come back in emission order
//!   (the dataset build overlaps its serial log generator with the ground
//!   truth this way).
//! * [`par_reduce`] / [`tree_reduce`] — map + **fixed-shape binary tree**
//!   reduction: the combine tree depends only on the item count, so
//!   floating-point reductions are bit-identical at any thread count.
//!
//! The pool serves one job at a time. A thread that submits while another
//! thread's job holds the helpers does not wait: it works its whole job
//! itself, which gives the same result under the determinism contract. A
//! panic in any share is re-raised on the submitter once every share of
//! the job has stopped, and the helpers then serve the next job.
//!
//! ## Thread-count resolution
//!
//! The pool width is resolved per call site, in priority order:
//!
//! 1. a scoped programmatic override ([`with_threads`]) on the calling
//!    thread — used by the determinism test suite to compare 1/2/4-thread
//!    runs inside one process;
//! 2. the `LS_THREADS` environment variable (parsed once);
//! 3. [`std::thread::available_parallelism`].
//!
//! Every share, the caller's included, runs as a pool worker, and calls
//! made *from inside a pool worker* always run inline (single-level
//! parallelism): nesting `par_map` inside `par_map` cannot oversubscribe.
//! A wider width than the pool has spawned so far grows the helper set.
//!
//! ## The determinism contract
//!
//! For a `par_map_init` result to be independent of thread count, the
//! mapping closure must be a pure function of `(freshly-initialized state,
//! item)`: it may mutate its worker state (activation caches, scratch
//! buffers), but any such mutation must not change the value computed for
//! a *later* item. Model-forward caches and packing scratch satisfy this
//! (they are overwritten per call); an RNG carried in worker state would
//! not.
//!
//! ## Telemetry
//!
//! With observability on (`LS_OBS`), the pool exports `par.tasks` /
//! `par.chunks` counters, a `par.queue_depth` gauge sampled at every chunk
//! claim, a `par.pool.spawns` counter (once per helper per process), a
//! `par.pool.size` gauge (helpers plus the caller), a
//! `par.pool.inline_busy` counter of jobs their caller worked alone because
//! another job held the helpers, and a `par.worker.busy` histogram of busy
//! seconds per share — every share, the caller's and each stream
//! consumer's included, less the time a consumer waits for the producer.

#![warn(missing_docs)]

mod pool;
mod reduce;

pub use pool::{par_chunks_mut, par_map, par_map_init, stream};
pub use reduce::{par_reduce, tree_reduce};

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Scoped programmatic override (0 = none) on this thread.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// Set while this thread is a pool worker: nested calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

static ENV_THREADS: OnceLock<usize> = OnceLock::new();

fn env_threads() -> usize {
    *ENV_THREADS.get_or_init(|| match std::env::var("LS_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n.min(256),
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    })
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The pool width the *next* parallel construct on this thread will use:
/// the [`with_threads`] override if one is active, else `LS_THREADS`, else
/// the machine's available parallelism. Always ≥ 1.
pub fn threads() -> usize {
    let o = OVERRIDE.with(Cell::get);
    if o >= 1 {
        o
    } else {
        env_threads()
    }
}

/// True while the current thread is executing inside a pool worker.
/// Parallel constructs called in this state run inline (no nested pools).
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Run `f` with the pool width pinned to `n` on this thread (restored on
/// exit, panic-safe). This is how the determinism suite compares
/// `LS_THREADS=1,2,4` executions inside one process.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = OVERRIDE.with(Cell::get);
    let _restore = Restore(prev);
    OVERRIDE.with(|c| c.set(n.max(1)));
    f()
}

/// Guard marking the current thread as a pool worker for its lifetime.
pub(crate) struct WorkerGuard {
    prev: bool,
}

impl WorkerGuard {
    pub(crate) fn enter() -> Self {
        let prev = IN_WORKER.with(Cell::get);
        IN_WORKER.with(|c| c.set(true));
        WorkerGuard { prev }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_WORKER.with(|c| c.set(prev));
    }
}

/// Effective worker count for `n` items on this thread: 1 when called from
/// inside a worker (inline nesting), otherwise `min(threads(), n)`.
pub(crate) fn effective_threads(n: usize) -> usize {
    if in_worker() {
        1
    } else {
        threads().min(n.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_overrides_and_restores() {
        let before = threads();
        let inside = with_threads(3, threads);
        assert_eq!(inside, 3);
        assert_eq!(threads(), before);
    }

    #[test]
    fn with_threads_clamps_zero_to_one() {
        assert_eq!(with_threads(0, threads), 1);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = threads();
        let r = std::panic::catch_unwind(|| with_threads(7, || panic!("boom")));
        assert!(r.is_err());
        assert_eq!(threads(), before);
    }

    #[test]
    fn nested_with_threads() {
        with_threads(4, || {
            assert_eq!(threads(), 4);
            with_threads(2, || assert_eq!(threads(), 2));
            assert_eq!(threads(), 4);
        });
    }

    #[test]
    fn worker_guard_nests() {
        assert!(!in_worker());
        {
            let _a = WorkerGuard::enter();
            assert!(in_worker());
            {
                let _b = WorkerGuard::enter();
                assert!(in_worker());
            }
            assert!(in_worker());
        }
        assert!(!in_worker());
    }
}
