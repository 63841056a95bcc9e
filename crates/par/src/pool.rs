//! The persistent worker pool and its front ends: chunk-claiming
//! `par_map`, static mutable-slice partitioning, and the order-preserving
//! producer `stream`.
//!
//! Every front end hands one task to [`run`], which works `workers` shares
//! of it. The submitting thread works share 0 itself; helper threads,
//! spawned once and parked between jobs, claim the others. The pool serves
//! one job at a time: a submitter that finds the helpers busy with another
//! thread's job works all of its shares itself.

use crate::{effective_threads, WorkerGuard};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One job's work: share `s` of it is `task(s)`.
type Task<'a> = dyn Fn(usize) + Sync + 'a;
type Panic = Box<dyn Any + Send>;

/// The job the helpers serve.
struct Job {
    task: &'static Task<'static>,
    trace: Option<ls_obs::TraceContext>,
    workers: usize,
    /// The lowest share nobody has claimed yet.
    next: usize,
    /// Shares helpers have claimed and not finished.
    running: usize,
    /// The first panic of a helper's share.
    panic: Option<Panic>,
}

impl Job {
    fn claim(&mut self) -> Option<usize> {
        (self.next < self.workers).then(|| {
            self.next += 1;
            self.next - 1
        })
    }
}

struct Pool {
    /// Helper threads spawned so far; they live as long as the process.
    helpers: usize,
    job: Option<Job>,
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    helpers: 0,
    job: None,
});
/// Helpers park here between shares.
static WORK: Condvar = Condvar::new();
/// A submitter waits here for its helpers' shares.
static DONE: Condvar = Condvar::new();

thread_local! {
    /// Seconds the current share has spent parked on a stream queue, which
    /// its busy time leaves out.
    static PARKED: Cell<f64> = const { Cell::new(0.0) };
}

/// The pool state. No share runs under this lock, and every update leaves
/// the state valid, so a poisoned lock still holds a valid state.
fn lock() -> MutexGuard<'static, Pool> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn park(cv: &Condvar, pool: MutexGuard<'static, Pool>) -> MutexGuard<'static, Pool> {
    cv.wait(pool).unwrap_or_else(PoisonError::into_inner)
}

/// Work one share on this thread as a pool worker: nested parallel calls
/// run inline, spans nest under the submitter's, and a panic comes back as
/// the payload.
fn run_share(trace: Option<ls_obs::TraceContext>, share: impl FnOnce()) -> Result<(), Panic> {
    catch_unwind(AssertUnwindSafe(|| {
        let _worker = WorkerGuard::enter();
        let _trace = trace.as_ref().map(ls_obs::TraceContext::attach);
        let t0 = ls_obs::enabled().then(Instant::now);
        PARKED.set(0.0);
        share();
        if let Some(t0) = t0 {
            let busy = t0.elapsed().as_secs_f64() - PARKED.get();
            ls_obs::histogram("par.worker.busy").record(busy.max(0.0));
        }
    }))
}

fn helper() {
    let mut pool = lock();
    loop {
        let claimed = pool.job.as_mut().and_then(|job| {
            let share = job.claim()?;
            job.running += 1;
            Some((job.task, job.trace, share))
        });
        let Some(claimed) = claimed else {
            pool = park(&WORK, pool);
            continue;
        };
        drop(pool);
        // `claimed` and its task reference end here, before `running` drops.
        let result = {
            let (task, trace, share) = claimed;
            run_share(trace, || task(share))
        };
        pool = lock();
        let job = pool
            .job
            .as_mut()
            .expect("a job stays posted while a helper works a share of it");
        job.running -= 1;
        if let Err(p) = result {
            job.panic.get_or_insert(p);
        }
        if job.running == 0 {
            DONE.notify_all();
        }
    }
}

/// Spawn helpers until there are `want`. A spawn the OS refuses leaves the
/// pool smaller; the submitter then works the shares no helper claims.
/// Helpers are never joined: each lives for the process, and it catches
/// every share's panic, so a detached helper hides none.
fn grow(pool: &mut Pool, want: usize) {
    while pool.helpers < want {
        let spawned = std::thread::Builder::new()
            .name(format!("ls-par-{}", pool.helpers + 1))
            .spawn(helper);
        if spawned.is_err() {
            break;
        }
        pool.helpers += 1;
        if ls_obs::enabled() {
            ls_obs::counter("par.pool.spawns").incr();
        }
    }
}

/// Work `workers` shares of one job and return once every one has finished.
/// The caller works share 0, `lead`, itself; helpers claim shares
/// `1..workers`, share `s` being `task(s)`, and the caller works any that no
/// helper has claimed once `lead` is done. A panic in any share is re-raised
/// here after all of them stop.
fn run(workers: usize, lead: impl FnOnce(), task: &Task<'_>) {
    let trace = ls_obs::TraceContext::current();
    let mut pool = lock();
    if pool.job.is_some() {
        // Another thread's job holds the helpers: work every share here.
        drop(pool);
        if ls_obs::enabled() {
            ls_obs::counter("par.pool.inline_busy").incr();
        }
        let shares = run_share(trace, lead)
            .and_then(|()| (1..workers).try_for_each(|s| run_share(trace, || task(s))));
        if let Err(p) = shares {
            resume_unwind(p);
        }
        return;
    }
    grow(&mut pool, workers - 1);
    if ls_obs::enabled() {
        ls_obs::gauge("par.pool.size").set((pool.helpers + 1) as f64);
    }
    // SAFETY: the helpers see `task` as `'static`, but only through the job
    // posted below, and every use ends before this frame does: from here to
    // the `take` of the job, the caller runs shares only under
    // `catch_unwind`, reaches the pool only through `lock` and `park`,
    // which do not panic on a poisoned lock, and leaves its wait only once
    // no helper holds a claimed share, and so the reference. No share can
    // be claimed once the job is taken.
    let task_ref = unsafe { std::mem::transmute::<&Task<'_>, &'static Task<'static>>(task) };
    pool.job = Some(Job {
        task: task_ref,
        trace,
        workers,
        next: 1,
        running: 0,
        panic: None,
    });
    drop(pool);
    for _ in 1..workers {
        WORK.notify_one();
    }
    let mut panic = run_share(trace, lead).err();
    loop {
        let share = lock().job.as_mut().and_then(Job::claim);
        let Some(share) = share else { break };
        if let Err(p) = run_share(trace, || task(share)) {
            panic.get_or_insert(p);
        }
    }
    let mut pool = lock();
    while pool.job.as_ref().is_some_and(|job| job.running > 0) {
        pool = park(&DONE, pool);
    }
    let job = pool.job.take();
    drop(pool);
    if let Some(p) = panic.or(job.and_then(|job| job.panic)) {
        resume_unwind(p);
    }
}

/// `(index, value)` pieces from the shares of one job, reassembled in index
/// order.
struct Gather<R>(Mutex<Vec<(usize, R)>>);

impl<R> Gather<R> {
    fn new() -> Self {
        Gather(Mutex::new(Vec::new()))
    }

    fn extend(&self, part: Vec<(usize, R)>) {
        // Pieces are pushed whole, so a poisoned lock holds whole pieces.
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(part);
    }

    fn into_sorted(self) -> impl Iterator<Item = R> {
        let mut pieces = self.0.into_inner().unwrap_or_else(PoisonError::into_inner);
        pieces.sort_unstable_by_key(|(i, _)| *i);
        pieces.into_iter().map(|(_, r)| r)
    }
}

/// Chunk size for `n` items over `workers` workers: four claims per worker
/// for load balancing, never below 1.
fn chunk_size(n: usize, workers: usize) -> usize {
    n.div_ceil(workers * 4).max(1)
}

/// Map every item of `items` through `f`, in parallel, returning results in
/// item order. `f(i, &items[i])` must be a pure function of its arguments —
/// the output is then identical at every thread count.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_init(items, || (), move |(), i, t| f(i, t))
}

/// [`par_map`] with per-worker scratch state: `init()` runs lazily on each
/// worker that claims work (once per worker, not per item) and the state is
/// passed mutably to every call that worker makes. See the crate-level
/// determinism contract: mutations of the state must not leak into later
/// items' results.
pub fn par_map_init<T, R, S, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = effective_threads(n);
    if workers <= 1 || n <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    let chunk = chunk_size(n, workers);
    let telemetry = ls_obs::enabled();
    let next = AtomicUsize::new(0);
    let pieces = Gather::new();
    let share = |_| {
        let mut out = Vec::new();
        let mut state: Option<S> = None;
        loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + chunk).min(n);
            if telemetry {
                ls_obs::gauge("par.queue_depth").set(n.saturating_sub(end) as f64);
                ls_obs::counter("par.chunks").incr();
            }
            let st = state.get_or_insert_with(&init);
            let vals: Vec<R> = items[start..end]
                .iter()
                .enumerate()
                .map(|(off, t)| f(st, start + off, t))
                .collect();
            out.push((start, vals));
        }
        pieces.extend(out);
    };
    run(workers, || share(0), &share);
    if telemetry {
        ls_obs::counter("par.tasks").add(n as u64);
    }
    let mut out = Vec::with_capacity(n);
    for vals in pieces.into_sorted() {
        out.extend(vals);
    }
    out
}

/// Split `data` into contiguous chunks of `chunk_len` elements and process
/// each with `f(chunk_index, chunk)`, in parallel, returning per-chunk
/// results in chunk order. Chunks are distributed round-robin over the pool
/// up front (static partition — right for uniform work like GEMM row
/// blocks). Each chunk is owned by exactly one worker, so `f` may freely
/// mutate it; determinism again requires only that `f` is a pure function
/// of `(chunk_index, chunk contents)`.
pub fn par_chunks_mut<T, R, F>(data: &mut [T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let workers = effective_threads(n_chunks);
    if workers <= 1 || n_chunks <= 1 {
        return data
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(i, c)| f(i, c))
            .collect();
    }
    // Deal chunks round-robin: share w gets chunks w, w+workers, …
    let mut per_share: Vec<Vec<(usize, &mut [T])>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, c) in data.chunks_mut(chunk_len).enumerate() {
        per_share[i % workers].push((i, c));
    }
    let per_share: Vec<_> = per_share.into_iter().map(Mutex::new).collect();
    let pieces = Gather::new();
    let share = |s: usize| {
        // Each share is worked once, so its lock is never contended.
        let mine =
            std::mem::take(&mut *per_share[s].lock().unwrap_or_else(PoisonError::into_inner));
        pieces.extend(mine.into_iter().map(|(i, c)| (i, f(i, c))).collect());
    };
    run(workers, || share(0), &share);
    if ls_obs::enabled() {
        ls_obs::counter("par.tasks").add(n_chunks as u64);
    }
    pieces.into_sorted().collect()
}

/// The hand-off between a stream's producer and its consumers.
struct Queue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

struct QueueState<T> {
    items: VecDeque<(usize, T)>,
    emitted: usize,
    /// The producer has returned: consumers leave once `items` is empty.
    closed: bool,
    /// A share panicked: consumers leave now and later items are dropped.
    abandoned: bool,
}

impl<T> Queue<T> {
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        // Every update is one field write or one push or pop.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, item: T) {
        let mut st = self.lock();
        if st.abandoned {
            return;
        }
        let i = st.emitted;
        st.emitted += 1;
        st.items.push_back((i, item));
        drop(st);
        self.ready.notify_one();
    }

    /// The next item in emission order, waiting for the producer while the
    /// queue is empty and open.
    fn pop(&self) -> Option<(usize, T)> {
        let mut st = self.lock();
        loop {
            if st.abandoned {
                return None;
            }
            if let Some(item) = st.items.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            let t0 = ls_obs::enabled().then(Instant::now);
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
            if let Some(t0) = t0 {
                PARKED.set(PARKED.get() + t0.elapsed().as_secs_f64());
            }
        }
    }

    /// Run `body`, and abandon the queue if it panics, so that no consumer
    /// waits on a producer that is gone.
    fn abandon_on_panic<X>(&self, body: impl FnOnce() -> X) -> X {
        catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|p| {
            self.shut(true);
            resume_unwind(p)
        })
    }

    /// Emit no more: consumers leave once the queue is empty, or at once
    /// when `abandon`, dropping what is left.
    fn shut(&self, abandon: bool) {
        let mut st = self.lock();
        st.closed = true;
        st.abandoned |= abandon;
        drop(st);
        self.ready.notify_all();
    }
}

/// Run `produce` on the calling thread and feed every item it emits to
/// `consume` on the pool as soon as it is emitted; return the results in
/// emission order. `consume(i, item)` receives the item's emission index
/// `i` and must be a pure function of its arguments — the output is then
/// identical at every thread count.
///
/// The caller produces while the helpers consume; once `produce` returns,
/// the caller consumes what is left and joins the helpers. At one thread
/// (or inside a pool worker) each item is consumed inline as it is
/// emitted. A panic in the producer or a consumer releases every waiting
/// consumer and is re-raised here once all of them stop.
pub fn stream<T, R, P, C>(produce: P, consume: C) -> Vec<R>
where
    T: Send,
    R: Send,
    P: FnOnce(&mut dyn FnMut(T)),
    C: Fn(usize, T) -> R + Sync,
{
    let workers = effective_threads(usize::MAX);
    if workers <= 1 {
        let mut out = Vec::new();
        produce(&mut |item| out.push(consume(out.len(), item)));
        return out;
    }
    let queue = Queue {
        state: Mutex::new(QueueState {
            items: VecDeque::new(),
            emitted: 0,
            closed: false,
            abandoned: false,
        }),
        ready: Condvar::new(),
    };
    let results = Gather::new();
    let consume_all = || {
        let mut out = Vec::new();
        while let Some((i, item)) = queue.pop() {
            out.push((i, consume(i, item)));
        }
        results.extend(out);
    };
    let lead = || {
        produce(&mut |item| queue.push(item));
        queue.shut(false);
        consume_all();
    };
    run(workers, || queue.abandon_on_panic(lead), &|_| {
        queue.abandon_on_panic(consume_all)
    });
    if ls_obs::enabled() {
        ls_obs::counter("par.tasks").add(queue.lock().emitted as u64);
    }
    results.into_sorted().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_threads;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        for t in [1, 2, 4, 9] {
            let out = with_threads(t, || par_map(&items, |i, &x| (i, x * 2)));
            assert_eq!(out.len(), items.len());
            for (i, (idx, v)) in out.iter().enumerate() {
                assert_eq!(*idx, i);
                assert_eq!(*v, i * 2);
            }
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[41u32], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn par_map_init_initializes_lazily_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..100).collect();
        let out = with_threads(4, || {
            par_map_init(
                &items,
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    0u64
                },
                |state, _, &x| {
                    *state += 1; // scratch mutation must not affect results
                    u64::from(x) * 3
                },
            )
        });
        assert_eq!(out, (0..100u64).map(|x| x * 3).collect::<Vec<_>>());
        let n = inits.load(Ordering::SeqCst);
        assert!((1..=4).contains(&n), "init ran {n} times");
    }

    #[test]
    fn par_chunks_mut_touches_every_element_once() {
        let mut data: Vec<u32> = vec![0; 1000];
        let sums = with_threads(4, || {
            par_chunks_mut(&mut data, 64, |ci, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1 + ci as u32;
                }
                chunk.len()
            })
        });
        assert_eq!(sums.iter().sum::<usize>(), 1000);
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, 1 + (i / 64) as u32);
        }
    }

    #[test]
    fn nested_calls_run_inline() {
        let items: Vec<u32> = (0..16).collect();
        let out = with_threads(4, || {
            par_map(&items, |_, &x| {
                // Inside a worker: nested map must run inline, not spawn.
                let inner = par_map(&[1u32, 2, 3], |_, &y| y);
                assert!(crate::in_worker());
                x + inner.iter().sum::<u32>()
            })
        });
        assert_eq!(out, (0..16).map(|x| x + 6).collect::<Vec<_>>());
    }

    #[test]
    fn workers_inherit_submitting_trace_context() {
        ls_obs::set_level(ls_obs::Level::Summary);
        let ctx = ls_obs::TraceContext::root();
        let _g = ctx.attach();
        let outer = ls_obs::span("par.test.outer");
        let outer_id = outer.id();
        assert_ne!(outer_id, 0);
        let items: Vec<u32> = (0..64).collect();
        let out = with_threads(4, || {
            par_map(&items, |_, &x| {
                // Pool workers see the submitter's trace id, and spans they
                // open nest under the submitting span, not a fresh root.
                assert_eq!(ls_obs::current_trace_id(), ctx.trace_id);
                assert_eq!(ls_obs::current_span_id(), outer_id);
                x
            })
        });
        assert_eq!(out, items);
        drop(outer);
        ls_obs::set_level(ls_obs::Level::Off);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let r = std::panic::catch_unwind(|| {
            with_threads(2, || {
                par_map(&items, |_, &x| {
                    if x == 13 {
                        panic!("unlucky");
                    }
                    x
                })
            })
        });
        assert!(r.is_err());
        // The helpers that saw the panic serve the next call.
        let out = with_threads(2, || par_map(&items, |_, &x| x + 1));
        assert_eq!(out, (1..65).collect::<Vec<u32>>());
    }

    #[test]
    fn stream_returns_results_in_emission_order() {
        for t in [1, 2, 3] {
            let out = with_threads(t, || {
                stream(
                    |emit| {
                        for x in 0..40u64 {
                            emit(x * 3);
                        }
                    },
                    |i, x| {
                        assert!(crate::in_worker() || t == 1);
                        (i, x + 1)
                    },
                )
            });
            let want: Vec<(usize, u64)> = (0..40).map(|i| (i as usize, i * 3 + 1)).collect();
            assert_eq!(out, want, "threads={t}");
        }
    }

    #[test]
    fn stream_of_an_empty_producer_is_empty() {
        for t in [1, 2, 4] {
            let out: Vec<u32> = with_threads(t, || stream(|_| {}, |_, x: u32| x));
            assert!(out.is_empty());
        }
    }

    #[test]
    fn stream_producer_panic_propagates() {
        for t in [1, 2, 4] {
            let r = std::panic::catch_unwind(|| {
                with_threads(t, || {
                    stream(
                        |emit| {
                            for x in 0..10u32 {
                                emit(x);
                            }
                            panic!("producer gave up");
                        },
                        |_, x| x,
                    )
                })
            });
            assert!(r.is_err(), "threads={t}");
        }
    }

    #[test]
    fn stream_consumer_panic_propagates() {
        for t in [1, 2, 4] {
            let r = std::panic::catch_unwind(|| {
                with_threads(t, || {
                    stream(
                        |emit| {
                            for x in 0..50u32 {
                                emit(x);
                            }
                        },
                        |_, x| {
                            if x == 7 {
                                panic!("bad item");
                            }
                            x
                        },
                    )
                })
            });
            assert!(r.is_err(), "threads={t}");
        }
    }
}
