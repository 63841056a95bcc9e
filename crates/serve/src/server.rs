//! The serving engine: bounded submission queue → dynamic micro-batcher →
//! worker pool, with an LRU ranking cache in front and admission control at
//! the door.
//!
//! ## Architecture
//!
//! ```text
//!  clients ──rank()──▶ [admission: cache probe, depth check]
//!                          │ miss, depth ok
//!                          ▼
//!                   pending: VecDeque<Job>        (bounded by queue_depth)
//!                          │
//!                   micro-batcher thread          (batch_deadline window,
//!                          │                       max_batch_items budget)
//!                          ▼
//!                   work: VecDeque<WorkItem>      (per-job fact chunks)
//!                          │
//!            ┌─────────────┼─────────────┐
//!            ▼             ▼             ▼
//!        worker 0      worker 1   …  worker N−1    (Arc-shared weights,
//!            │             │             │          per-chunk scratch)
//!            └──── last chunk finalizes job ───▶ cache insert, client wakeup
//! ```
//!
//! ## Determinism invariant
//!
//! For a fixed model snapshot, the response for a request is **bit-identical**
//! regardless of worker count, batching boundaries, or cache state:
//!
//! * every fact's score is produced by [`ls_core::LineageScorer::score_fact`]
//!   — the same code path the serial [`ls_core::predict_scores`] uses — whose
//!   `forward_infer` pass computes the `[CLS]` row alone through the last
//!   encoder block, with the training forward's float ops for that row in
//!   the same order, so a score does not depend on which worker (or how
//!   many) computed it;
//! * each score is written into its *request-order slot*, so completion order
//!   (which does vary across runs) never influences the output;
//! * the ranking is assembled from the completed slot vector exactly the way
//!   `rank_lineage` assembles it (insertion in lineage order + descending
//!   sort with fact-id tie-break);
//! * the cache stores that final vector verbatim, so hits replay it bit-for-bit.

use crate::cache::{LruCache, RankKey};
use ls_circuit::{shapley_stratified, CacheState, CanonicalShape, CircuitStore, SloPolicy, Tier};
use ls_core::{
    render_tuple, FallbackScorer, LearnShapleyModel, LineageScorer, ScoreContext, Tokenizer,
};
use ls_fault::{
    lock_safe, wait_safe, wait_timeout_safe, CircuitBreaker, FaultAction, Injector, NoFaults,
};
use ls_provenance::Dnf;
use ls_relational::{Database, FactId, OutputTuple};
use ls_shapley::FactScores;
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything a worker needs to score facts, loaded once and `Arc`-shared
/// read-only across the pool.
pub struct ModelBundle {
    /// The frozen model (weights only touched through `&self` inference).
    pub model: LearnShapleyModel,
    /// The frozen vocabulary.
    pub tokenizer: Tokenizer,
    /// The database facts are rendered from.
    pub db: Database,
    /// Sequence-length budget for the packed (query, tuple+fact) pairs.
    pub max_len: usize,
}

impl ModelBundle {
    /// Load a persisted model snapshot (see `ls_core::persist`) and pair it
    /// with the serving database.
    ///
    /// `max_len` must fit both the packing (`[CLS] a [SEP] b [SEP]` needs 5
    /// tokens) and the model's positional table; otherwise this is an
    /// `InvalidInput` error, where it would panic a worker on every request
    /// that packs past the table.
    pub fn load(path: &Path, db: Database, max_len: usize) -> io::Result<Self> {
        let (model, tokenizer) = ls_core::load_model(path)?;
        let table = model.encoder.config.max_len;
        if !(5..=table).contains(&max_len) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("serving max_len {max_len} is outside 5..={table}, the model's positions"),
            ));
        }
        Ok(ModelBundle {
            model,
            tokenizer,
            db,
            max_len,
        })
    }
}

/// A ranking request: score the facts of `lineage` for `(query_sql, tuple)`.
#[derive(Debug, Clone)]
pub struct RankRequest {
    /// Canonical SQL text of the query.
    pub query_sql: String,
    /// The output tuple of interest (only its values matter for scoring).
    pub tuple: OutputTuple,
    /// The lineage facts to rank.
    pub lineage: Vec<FactId>,
    /// Optional per-request deadline; if scoring has not *started* by then
    /// the request is shed with [`ServeError::DeadlineExceeded`]. `None`
    /// falls back to [`ServeConfig::default_deadline`].
    pub deadline: Option<Duration>,
    /// Optional accuracy–latency budget for the tiered answer path. When
    /// set — and the server holds a circuit store and the request's
    /// `tuple.derivations` carry the provenance — the SLO policy picks the
    /// most accurate tier that fits: exact circuit Shapley or stratified
    /// sampling answer inline, the learned tier rides the batched pipeline.
    /// `None` always takes the learned pipeline.
    pub slo: Option<Duration>,
}

/// Per-stage latency attribution for one request, in microseconds. Stages
/// are disjoint and exhaustive: `probe + queue + batch + score + other =
/// total` exactly (`other` absorbs scheduling slack between stage marks, so
/// the identity holds by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageBreakdown {
    /// Admission: state-lock acquisition plus ranking-cache probe.
    pub probe_us: u64,
    /// Waiting in the submission queue for the micro-batcher.
    pub queue_us: u64,
    /// Batch assembly: coalescing window share plus context precompute and
    /// chunk expansion.
    pub batch_us: u64,
    /// Worker-pool scoring, from dispatch to the finalizing chunk.
    pub score_us: u64,
    /// Everything not covered by a named stage (wakeup latency, response
    /// assembly).
    pub other_us: u64,
    /// End-to-end server-side latency (probe start → client wakeup).
    pub total_us: u64,
}

/// Interned handles for the per-stage histograms. Looking a histogram up by
/// name takes the registry mutex; on the warm cache-hit path (~µs per
/// request, many client threads) that contention alone blows the tracing
/// overhead budget, so the hot paths go through these pre-resolved refs.
pub(crate) struct StageHists {
    pub probe: &'static ls_obs::Histogram,
    pub queue: &'static ls_obs::Histogram,
    pub batch: &'static ls_obs::Histogram,
    pub score: &'static ls_obs::Histogram,
    pub other: &'static ls_obs::Histogram,
    pub latency: &'static ls_obs::Histogram,
    pub serialize: &'static ls_obs::Histogram,
}

pub(crate) fn stage_hists() -> &'static StageHists {
    static HISTS: OnceLock<StageHists> = OnceLock::new();
    HISTS.get_or_init(|| StageHists {
        probe: ls_obs::histogram("serve.stage.probe"),
        queue: ls_obs::histogram("serve.stage.queue"),
        batch: ls_obs::histogram("serve.stage.batch"),
        score: ls_obs::histogram("serve.stage.score"),
        other: ls_obs::histogram("serve.stage.other"),
        latency: ls_obs::histogram("serve.latency"),
        serialize: ls_obs::histogram("serve.stage.serialize"),
    })
}

/// A completed ranking.
///
/// Equality deliberately ignores [`RankResponse::stages`]: timing metadata
/// varies run to run, while the determinism contract (and the chaos suite's
/// bit-identity assertions) cover the payload fields only.
#[derive(Debug, Clone)]
pub struct RankResponse {
    /// Predicted scores, aligned with the request's lineage order.
    pub scores: Vec<f64>,
    /// Facts ordered by descending score (fact-id tie-break).
    pub ranking: Vec<FactId>,
    /// True when served from the ranking cache.
    pub cached: bool,
    /// True when the circuit breaker routed this request to the fallback
    /// scorer instead of the model — the scores are the Nearest Queries
    /// baseline's, not the learned model's, and were not cached.
    pub degraded: bool,
    /// Per-stage latency attribution, populated only when the request ran
    /// under a trace (never for cached replays of another trace's work).
    pub stages: Option<StageBreakdown>,
    /// Which answer path produced the scores: the learned pipeline, the
    /// exact circuit store, or the stratified sampler. `None` for responses
    /// that carry no scores (empty lineage) and for degraded fallbacks.
    pub tier: Option<Tier>,
}

impl PartialEq for RankResponse {
    fn eq(&self, other: &Self) -> bool {
        self.scores == other.scores
            && self.ranking == other.ranking
            && self.cached == other.cached
            && self.degraded == other.degraded
            && self.tier == other.tier
    }
}

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The submission queue is at capacity; the request was rejected
    /// immediately rather than queued (closed-loop clients should back off).
    Overloaded,
    /// The request's deadline passed before scoring started.
    DeadlineExceeded,
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// The request was malformed (empty query, unknown fact id, …).
    BadRequest(String),
    /// Transport-level failure (TCP clients only).
    Transport(String),
    /// The server failed internally while scoring (worker panic, injected
    /// fault, fallback unable to answer). The request may be retried.
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "overloaded"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::ShuttingDown => write!(f, "shutting down"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::Transport(m) => write!(f, "transport: {m}"),
            ServeError::Internal(m) => write!(f, "internal: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Serving knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads scoring facts. Each chunk a worker takes builds a
    /// fresh `LineageScorer`, with its own `InferScratch`, from the job's
    /// pinned bundle.
    pub workers: usize,
    /// Maximum in-flight requests (admitted but not yet answered); the
    /// admission bound of the subsystem.
    pub queue_depth: usize,
    /// Fact-item budget per micro-batch: the batcher dispatches as soon as
    /// this many items are pending, without waiting out the window.
    pub max_batch_items: usize,
    /// Micro-batch window: on the first pending request the batcher waits at
    /// most this long for more work to coalesce before dispatching.
    pub batch_deadline: Duration,
    /// Ranking-cache entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Consecutive scoring failures that open the circuit breaker and flip
    /// dispatch to the fallback scorer (0 disables the breaker entirely).
    pub breaker_failures: u64,
    /// How long an open breaker waits before probing the model path again.
    pub breaker_cooldown: Duration,
    /// Cost model steering SLO-budgeted requests across the three tiers
    /// (only consulted when a circuit store is attached).
    pub slo_policy: SloPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            // Sized like the compute pool so `LS_THREADS` governs serving
            // too; serving stays correct (if slower) at one worker.
            workers: ls_par::threads(),
            queue_depth: 256,
            max_batch_items: 64,
            batch_deadline: Duration::from_micros(500),
            cache_capacity: 1024,
            default_deadline: None,
            breaker_failures: 0,
            breaker_cooldown: Duration::from_millis(250),
            slo_policy: SloPolicy::default(),
        }
    }
}

/// One admitted request moving through the pipeline.
struct Job {
    query_sql: String,
    tuple: OutputTuple,
    lineage: Vec<FactId>,
    key: RankKey,
    /// Registry key for the active-trace listing (monotone per process).
    seq: u64,
    /// The submitting thread's trace context, carried with the job so
    /// batcher/worker-side spans and histograms attribute to the request.
    trace: Option<ls_obs::TraceContext>,
    /// Admission-stage cost (lock + cache probe), measured before queuing.
    probe_us: u64,
    /// Stage marks: microseconds since `submitted` when the job left the
    /// queue, when its work was dispatched, and when scoring finished.
    /// Written once each at pipeline milestones; 0 = not reached.
    drained_us: AtomicU64,
    dispatched_us: AtomicU64,
    scored_us: AtomicU64,
    submitted: Instant,
    deadline: Option<Instant>,
    /// Query/tuple-side precomputation, done once by the batcher.
    ctx: OnceLock<ScoreContext>,
    /// The model snapshot (and its generation) this job is scored by, pinned
    /// by the batcher at dispatch. Pinning makes a concurrent hot-swap safe:
    /// in-flight jobs finish on the snapshot they started with — all chunks,
    /// one model — and only their cache insert is generation-gated.
    pinned: OnceLock<(Arc<ModelBundle>, u64)>,
    /// Per-fact score slots (f64 bit patterns), written lock-free by index.
    scores: Vec<AtomicU64>,
    /// Slots still unwritten; the worker that zeroes this finalizes the job.
    remaining: AtomicUsize,
    /// Completion latch: the first path to flip this owns delivery; later
    /// attempts (a finalize racing a failure, a double fault) are no-ops —
    /// one injected worker panic fails exactly one job, exactly once.
    finished: AtomicBool,
    /// The response, set exactly once; guarded for the client wait.
    result: Mutex<ResultSlot>,
    done: Condvar,
}

/// The async completion callback a [`ResultSlot`] may hold.
pub(crate) type RankNotify = Box<dyn FnOnce(Result<RankResponse, ServeError>) + Send>;

/// Delivery state for one job: either a blocking waiter will collect
/// `value`, or an async `notify` callback consumes the result directly.
/// Both live under one mutex so registration cannot race completion — a
/// result that landed before registration is handed back to the registering
/// caller instead, and a result landing after registration takes the
/// callback; exactly one party ever sees the response.
#[derive(Default)]
struct ResultSlot {
    value: Option<Result<RankResponse, ServeError>>,
    notify: Option<RankNotify>,
}

impl Job {
    /// Stamp a stage mark with "now", as µs since submission. Idempotent in
    /// effect (later stamps only ever grow the mark along the pipeline).
    fn mark(&self, cell: &AtomicU64) {
        cell.store(
            self.submitted.elapsed().as_micros() as u64,
            Ordering::Relaxed,
        );
    }

    /// Assemble the disjoint stage attribution from the pipeline marks.
    fn breakdown(&self) -> StageBreakdown {
        let drained = self.drained_us.load(Ordering::Relaxed);
        let dispatched = self.dispatched_us.load(Ordering::Relaxed).max(drained);
        let scored = self.scored_us.load(Ordering::Relaxed).max(dispatched);
        let elapsed = (self.submitted.elapsed().as_micros() as u64).max(scored);
        StageBreakdown {
            probe_us: self.probe_us,
            queue_us: drained,
            batch_us: dispatched - drained,
            score_us: scored - dispatched,
            other_us: elapsed - scored,
            total_us: self.probe_us + elapsed,
        }
    }

    fn complete(&self, shared: &Shared, mut result: Result<RankResponse, ServeError>) {
        if self.finished.swap(true, Ordering::AcqRel) {
            return; // another path already delivered
        }
        if let (Ok(resp), Some(ctx)) = (&mut result, &self.trace) {
            let b = self.breakdown();
            resp.stages = Some(b);
            // Stage histograms carry the trace as an exemplar, linking
            // "p99 queue wait is X" back to a concrete offending request.
            let t = ctx.trace_id;
            let h = stage_hists();
            h.probe.record_traced(b.probe_us as f64 * 1e-6, t);
            h.queue.record_traced(b.queue_us as f64 * 1e-6, t);
            h.batch.record_traced(b.batch_us as f64 * 1e-6, t);
            h.score.record_traced(b.score_us as f64 * 1e-6, t);
            h.other.record_traced(b.other_us as f64 * 1e-6, t);
        }
        // Latency records whenever obs is on *or* the request carried a
        // trace — the same condition under which the stage histograms above
        // fill, so snapshots stay mutually consistent.
        if ls_obs::enabled() || self.trace.is_some() {
            let trace = self.trace.as_ref().map_or(0, |c| c.trace_id);
            stage_hists()
                .latency
                .record_traced(self.submitted.elapsed().as_secs_f64(), trace);
            ls_obs::counter("serve.responses").incr();
        }
        // Release the queue slot *before* waking the client: a closed-loop
        // client that submits its next request immediately after waking must
        // see the slot it just freed, or it would be shed spuriously.
        let mut st = lock_safe(&shared.state);
        st.inflight -= 1;
        st.active.remove(&self.seq);
        let depth = st.inflight;
        drop(st);
        ls_obs::gauge("serve.queue_depth").set(depth as f64);
        let mut slot = lock_safe(&self.result);
        debug_assert!(slot.value.is_none(), "job completed twice");
        if let Some(cb) = slot.notify.take() {
            // Async consumer: hand over the result outside the lock (the
            // callback may do I/O bookkeeping like waking an event loop).
            drop(slot);
            cb(result);
        } else {
            slot.value = Some(result);
            drop(slot);
            self.done.notify_all();
        }
    }

    fn wait(&self) -> Result<RankResponse, ServeError> {
        let mut slot = lock_safe(&self.result);
        loop {
            if let Some(r) = slot.value.take() {
                return r;
            }
            slot = wait_safe(&self.done, slot);
        }
    }
}

/// A contiguous chunk of one job's lineage, ready for a worker.
struct WorkItem {
    job: Arc<Job>,
    start: usize,
    end: usize,
}

struct State {
    pending: VecDeque<Arc<Job>>,
    work: VecDeque<WorkItem>,
    /// Traced jobs currently in flight, keyed by job sequence number — the
    /// admin protocol's active-trace listing.
    active: std::collections::HashMap<u64, Arc<Job>>,
    /// Admitted but unanswered requests (the admission-control quantity).
    inflight: usize,
    /// Jobs drained from `pending` that the batcher has not yet expanded
    /// into work items; keeps workers from exiting early on shutdown.
    batching: usize,
    paused: bool,
    shutdown: bool,
    cache: LruCache<RankKey, RankResponse>,
    /// Model generation the cache's entries were scored under. A finalizing
    /// job whose pinned generation differs (its model was swapped out while
    /// it was in flight) answers its client but must not insert — the cache
    /// only ever replays the *current* snapshot's scores.
    cache_generation: u64,
}

struct Shared {
    state: Mutex<State>,
    /// Signaled on submit, pause/resume and shutdown; the batcher waits here.
    batcher_cv: Condvar,
    /// Signaled when work items are published; workers wait here.
    worker_cv: Condvar,
    cfg: ServeConfig,
    /// The live model snapshot, hot-swappable at runtime. Guarded by a
    /// mutex so the (bundle, generation) pair is always read consistently;
    /// the critical section is two pointer copies — `Arc::clone` + a load —
    /// so it is never a scoring bottleneck.
    model: Mutex<Arc<ModelBundle>>,
    /// Bumped under the `model` lock on every swap.
    generation: AtomicU64,
    /// The online-learning engine (WAL + trainer), attached at most once by
    /// [`Server::enable_online`].
    online: OnceLock<Arc<crate::online::OnlineState>>,
    /// Fault-injection seam: every scoring and polling step consults this
    /// ([`NoFaults`] in production — a virtual call per chunk, nothing more).
    injector: Arc<dyn Injector>,
    /// Trips to the degraded path after repeated scoring failures.
    breaker: CircuitBreaker,
    /// Model-free scorer used while the breaker is open.
    fallback: Option<Arc<dyn FallbackScorer>>,
    /// Compiled-circuit store backing the exact tier (and shape probes) of
    /// SLO-budgeted requests; `None` disables the tiered path entirely.
    circuit: Option<Arc<CircuitStore>>,
    /// Live worker threads; respawned replacements are pushed here so
    /// shutdown can join them too.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// The current model snapshot and its generation, read as a consistent
    /// pair: jobs pin the result, so every fact of a request is scored by
    /// exactly one snapshot even if a swap lands mid-flight.
    fn model(&self) -> (Arc<ModelBundle>, u64) {
        let m = lock_safe(&self.model);
        (m.clone(), self.generation.load(Ordering::Acquire))
    }
}

/// Outcome of admission: either served from cache or queued.
enum Admitted {
    Done(RankResponse),
    Queued(Arc<Job>),
}

/// A cloneable client handle onto a running [`Server`].
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Rank a lineage, blocking until the response is ready (or the request
    /// is rejected by admission control).
    pub fn rank(&self, req: RankRequest) -> Result<RankResponse, ServeError> {
        match self.submit(req)? {
            Admitted::Done(resp) => Ok(resp),
            Admitted::Queued(job) => job.wait(),
        }
    }

    /// Rank a lineage without blocking the submitting thread: `done` is
    /// invoked exactly once with the result. Inline outcomes (cache hits,
    /// admission rejections, empty lineages, tiered answers) call it
    /// synchronously on this thread; queued work calls it later from
    /// whichever pipeline thread completes the job. The TCP event-loop
    /// shards use the crate-private `rank_or_notify` beneath it, which
    /// returns an inline outcome instead of calling back.
    pub fn rank_async(
        &self,
        req: RankRequest,
        done: impl FnOnce(Result<RankResponse, ServeError>) + Send + 'static,
    ) {
        let mut done = Some(done);
        let now = self.rank_or_notify(req, || {
            Box::new(
                done.take()
                    .expect("the callback is registered at most once"),
            )
        });
        if let Some(result) = now {
            let done = done.expect("an answer given now registers no callback");
            done(result);
        }
    }

    /// Admit `req` and return its answer when one is ready now: a cache hit,
    /// an admission or validation error, an empty lineage, a tiered answer,
    /// or a queued job that finished before its callback was registered.
    /// Otherwise register `notify()` on the queued job — the pipeline thread
    /// that completes it calls the callback — and return `None`. The
    /// callback is built only when it is registered, so an answer given now
    /// costs no allocation for it.
    pub(crate) fn rank_or_notify(
        &self,
        req: RankRequest,
        notify: impl FnOnce() -> RankNotify,
    ) -> Option<Result<RankResponse, ServeError>> {
        match self.submit(req) {
            Ok(Admitted::Done(resp)) => Some(Ok(resp)),
            Err(e) => Some(Err(e)),
            Ok(Admitted::Queued(job)) => {
                let mut slot = lock_safe(&job.result);
                if slot.value.is_some() {
                    slot.value.take()
                } else {
                    slot.notify = Some(notify());
                    None
                }
            }
        }
    }

    /// Admission control: probe the cache, enforce the queue bound, enqueue.
    fn submit(&self, req: RankRequest) -> Result<Admitted, ServeError> {
        // Interned once: a name lookup takes the registry mutex, which the
        // warm cache-hit path cannot afford per request (see `StageHists`).
        static REQUESTS: OnceLock<&'static ls_obs::Counter> = OnceLock::new();
        static CACHE_HIT: OnceLock<&'static ls_obs::Counter> = OnceLock::new();
        REQUESTS
            .get_or_init(|| ls_obs::counter("serve.requests"))
            .incr();
        if req.query_sql.is_empty() {
            return Err(ServeError::BadRequest("empty query".into()));
        }
        let (bundle, _) = self.shared.model();
        for &f in &req.lineage {
            if bundle.db.fact(f).is_none() {
                return Err(ServeError::BadRequest(format!("unknown fact id {}", f.0)));
            }
        }
        if req.lineage.is_empty() {
            // Nothing to score; answer inline without consuming queue depth.
            return Ok(Admitted::Done(RankResponse {
                scores: Vec::new(),
                ranking: Vec::new(),
                cached: false,
                degraded: false,
                stages: None,
                tier: None,
            }));
        }
        if let Some(resp) = self.try_tiered(&req)? {
            return Ok(Admitted::Done(resp));
        }
        // The submitting thread's trace (if any) rides with the job so every
        // downstream stage attributes to this request.
        let trace = ls_obs::TraceContext::current();
        let key = RankKey::new(
            req.query_sql.clone(),
            render_tuple(&req.tuple),
            &req.lineage,
        );
        let probe_start = Instant::now();
        let mut st = lock_safe(&self.shared.state);
        if st.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if let Some(hit) = st.cache.get(&key) {
            let mut resp = hit.clone();
            resp.cached = true;
            let probe_us = probe_start.elapsed().as_micros() as u64;
            resp.stages = trace.map(|ctx| {
                stage_hists()
                    .probe
                    .record_traced(probe_us as f64 * 1e-6, ctx.trace_id);
                StageBreakdown {
                    probe_us,
                    total_us: probe_us,
                    ..StageBreakdown::default()
                }
            });
            CACHE_HIT
                .get_or_init(|| ls_obs::counter("serve.cache_hit"))
                .incr();
            return Ok(Admitted::Done(resp));
        }
        ls_obs::counter("serve.cache_miss").incr();
        if st.inflight >= self.shared.cfg.queue_depth {
            ls_obs::counter("serve.shed_overload").incr();
            return Err(ServeError::Overloaded);
        }
        st.inflight += 1;
        let depth = st.inflight;
        let n = req.lineage.len();
        let deadline = req
            .deadline
            .or(self.shared.cfg.default_deadline)
            .map(|d| Instant::now() + d);
        static NEXT_JOB: AtomicU64 = AtomicU64::new(1);
        let job = Arc::new(Job {
            key,
            seq: NEXT_JOB.fetch_add(1, Ordering::Relaxed),
            trace,
            probe_us: probe_start.elapsed().as_micros() as u64,
            drained_us: AtomicU64::new(0),
            dispatched_us: AtomicU64::new(0),
            scored_us: AtomicU64::new(0),
            submitted: Instant::now(),
            deadline,
            ctx: OnceLock::new(),
            pinned: OnceLock::new(),
            scores: (0..n).map(|_| AtomicU64::new(0)).collect(),
            remaining: AtomicUsize::new(n),
            finished: AtomicBool::new(false),
            result: Mutex::new(ResultSlot::default()),
            done: Condvar::new(),
            query_sql: req.query_sql,
            tuple: req.tuple,
            lineage: req.lineage,
        });
        if job.trace.is_some() {
            st.active.insert(job.seq, job.clone());
        }
        st.pending.push_back(job.clone());
        drop(st);
        ls_obs::gauge("serve.queue_depth").set(depth as f64);
        self.shared.batcher_cv.notify_one();
        Ok(Admitted::Queued(job))
    }

    /// The SLO tier fast path: when the request carries a latency budget
    /// and its provenance, and a circuit store is attached, pick the most
    /// accurate tier that fits and — for exact and sampled — answer inline
    /// on the submitting thread, without consuming queue depth or touching
    /// the ranking cache (exact/sampled scores are Shapley values, not
    /// model scores; caching them under the same key would poison learned
    /// replays). A `Learned` decision returns `None` and rides the batched
    /// pipeline like any other request.
    fn try_tiered(&self, req: &RankRequest) -> Result<Option<RankResponse>, ServeError> {
        let (Some(store), Some(budget)) = (&self.shared.circuit, req.slo) else {
            return Ok(None);
        };
        if req.tuple.derivations.is_empty() {
            return Ok(None);
        }
        if lock_safe(&self.shared.state).shutdown {
            return Err(ServeError::ShuttingDown);
        }
        let start = Instant::now();
        let shape = CanonicalShape::of(&Dnf::from_monomials(req.tuple.derivations.clone()));
        if shape.players.is_empty() {
            return Ok(None);
        }
        let (circuit_cached, scores_cached) = store.probe(&shape);
        let cache = CacheState {
            circuit_cached,
            scores_cached,
            // Unless the breaker is closed, learned answers go to the
            // fallback, so the policy must choose between exact and sampled.
            model_available: self.shared.breaker.state() == ls_fault::BreakerState::Closed,
        };
        let decision = self.shared.cfg.slo_policy.choose(
            shape.n_players(),
            shape.clauses.len(),
            budget,
            cache,
        );
        let fact_scores = match decision.tier {
            Tier::Learned => {
                ls_obs::counter("serve.tier.learned").incr();
                return Ok(None);
            }
            Tier::Exact => {
                ls_obs::counter("serve.tier.exact").incr();
                ls_shapley::shapley_values_stored(store, &shape)
            }
            Tier::Sampled => {
                ls_obs::counter("serve.tier.sampled").incr();
                let (bundle, _) = self.shared.model();
                let db = &bundle.db;
                // Seeded by the canonical shape: identical requests sample
                // identically, so tiered responses stay reproducible.
                let seed = shape.key.0 ^ shape.key.1;
                shapley_stratified(
                    &shape,
                    |f| db.fact_table_idx(f).map_or(u64::MAX, |t| t as u64),
                    decision.samples,
                    seed,
                )
                .scores
            }
        };
        // Align with the request's lineage order (facts outside the
        // provenance contribute nothing, exactly as in the exact engine).
        let scores: Vec<f64> = req
            .lineage
            .iter()
            .map(|f| fact_scores.get(f).copied().unwrap_or(0.0))
            .collect();
        let mut ranked = FactScores::new();
        for (i, &f) in req.lineage.iter().enumerate() {
            ranked.insert(f, scores[i]);
        }
        let ranking = ls_shapley::rank_descending(&ranked);
        let stages = ls_obs::TraceContext::current().map(|ctx| {
            let score_us = start.elapsed().as_micros() as u64;
            stage_hists()
                .score
                .record_traced(score_us as f64 * 1e-6, ctx.trace_id);
            StageBreakdown {
                score_us,
                total_us: score_us,
                ..StageBreakdown::default()
            }
        });
        if ls_obs::enabled() {
            ls_obs::counter("serve.responses").incr();
        }
        Ok(Some(RankResponse {
            scores,
            ranking,
            cached: false,
            degraded: false,
            stages,
            tier: Some(decision.tier),
        }))
    }

    /// Current in-flight request count (admitted, unanswered).
    pub fn inflight(&self) -> usize {
        lock_safe(&self.shared.state).inflight
    }

    /// Hot-swap the model snapshot, returning the new generation. The swap
    /// is zero-downtime and never drops or mis-scores a request:
    ///
    /// * jobs already dispatched keep scoring on their **pinned** snapshot —
    ///   every response is bit-identical to whichever snapshot scored it;
    /// * jobs dispatched after the swap pin the new snapshot;
    /// * the ranking cache is cleared under the same state lock that gates
    ///   inserts, and its generation is bumped, so scores from the old
    ///   snapshot can never be replayed as the new one's.
    pub fn swap_model(&self, bundle: Arc<ModelBundle>) -> u64 {
        let mut m = lock_safe(&self.shared.model);
        *m = bundle;
        let generation = self.shared.generation.fetch_add(1, Ordering::AcqRel) + 1;
        // Still holding the model lock: a batcher pinning "new bundle, old
        // generation" (or vice versa) is impossible.
        let mut st = lock_safe(&self.shared.state);
        st.cache.clear();
        st.cache_generation = generation;
        drop(st);
        drop(m);
        ls_obs::counter("wal.swaps").incr();
        ls_obs::gauge("serve.model_generation").set(generation as f64);
        generation
    }

    /// The generation of the currently-live model snapshot (0 = the bundle
    /// the server started with).
    pub fn model_generation(&self) -> u64 {
        self.shared.generation.load(Ordering::Acquire)
    }

    /// Submit one feedback record to the online-learning WAL. Returns the
    /// record's log sequence number once it is **crash-durable** (appended
    /// and fsynced) — the online trainer picks it up asynchronously.
    /// Fails typed when the server runs without [`Server::enable_online`],
    /// and rejects a non-finite `target` before it reaches the WAL: one NaN
    /// or infinite label would turn every weight NaN on the next optimizer
    /// step, and WAL replay would repeat it after every restart.
    pub fn feedback(&self, rec: &ls_core::FeedbackRecord) -> Result<u64, ServeError> {
        let Some(online) = self.shared.online.get() else {
            return Err(ServeError::BadRequest(
                "online learning is not enabled on this server".into(),
            ));
        };
        if !rec.target.is_finite() {
            return Err(ServeError::BadRequest(format!(
                "feedback target {} is not finite",
                rec.target
            )));
        }
        online.append(rec)
    }

    /// The live snapshot and its generation (what the online engine clones
    /// the serving `Database` and `max_len` from when loading a new one).
    pub(crate) fn current_model(&self) -> (Arc<ModelBundle>, u64) {
        self.shared.model()
    }

    /// Operational state as a JSON object (the admin protocol's `state`
    /// answer): queue and pool occupancy, cache fill, breaker state.
    pub fn state_json(&self) -> String {
        let cfg = &self.shared.cfg;
        let (inflight, pending, work, paused, shutdown, cache_len, cache_cap) = {
            let st = lock_safe(&self.shared.state);
            (
                st.inflight,
                st.pending.len(),
                st.work.len(),
                st.paused,
                st.shutdown,
                st.cache.len(),
                st.cache.capacity(),
            )
        };
        let breaker = match self.shared.breaker.state() {
            ls_fault::BreakerState::Closed => "closed",
            ls_fault::BreakerState::Open => "open",
            ls_fault::BreakerState::HalfOpen => "half-open",
        };
        let online = match self.shared.online.get() {
            None => String::from("null"),
            Some(o) => o.status_json(),
        };
        format!(
            concat!(
                "{{\"inflight\":{},\"queue_depth\":{},\"pending\":{},\"work_items\":{},",
                "\"paused\":{},\"shutdown\":{},\"workers\":{},\"generation\":{},",
                "\"cache\":{{\"len\":{},\"capacity\":{}}},\"breaker\":\"{}\",",
                "\"online\":{}}}"
            ),
            inflight,
            cfg.queue_depth,
            pending,
            work,
            paused,
            shutdown,
            cfg.workers,
            self.model_generation(),
            cache_len,
            cache_cap,
            breaker,
            online
        )
    }

    /// Active (admitted, unanswered) traced requests as a JSON array: trace
    /// id, age, lineage size, and how far through the pipeline each has got.
    pub fn traces_json(&self) -> String {
        let jobs: Vec<Arc<Job>> = {
            let st = lock_safe(&self.shared.state);
            st.active.values().cloned().collect()
        };
        let mut entries: Vec<(u64, String)> = jobs
            .iter()
            .filter_map(|job| {
                let ctx = job.trace.as_ref()?;
                let b = job.breakdown();
                Some((
                    job.seq,
                    format!(
                        concat!(
                            "{{\"trace\":\"{:016x}\",\"seq\":{},\"facts\":{},",
                            "\"age_us\":{},\"queue_us\":{},\"batch_us\":{},\"score_us\":{}}}"
                        ),
                        ctx.trace_id,
                        job.seq,
                        job.lineage.len(),
                        job.submitted.elapsed().as_micros() as u64,
                        b.queue_us,
                        b.batch_us,
                        b.score_us,
                    ),
                ))
            })
            .collect();
        entries.sort_unstable_by_key(|(seq, _)| *seq);
        let mut out = String::from("[");
        for (i, (_, e)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(e);
        }
        out.push(']');
        out
    }
}

/// A running serving instance: one micro-batcher plus a worker pool.
pub struct Server {
    shared: Arc<Shared>,
    batcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Start the batcher and worker threads.
    ///
    /// # Panics
    /// Panics if `cfg.workers == 0` or `cfg.queue_depth == 0`.
    pub fn start(bundle: Arc<ModelBundle>, cfg: ServeConfig) -> Server {
        Server::start_with(bundle, cfg, Arc::new(NoFaults), None)
    }

    /// [`Server::start`] with an explicit fault injector and an optional
    /// degraded-mode fallback scorer. Production passes [`NoFaults`]; chaos
    /// tests pass a compiled `FaultPlan`. With `breaker_failures > 0` and a
    /// fallback, repeated scoring failures flip dispatch to the fallback and
    /// responses are marked [`RankResponse::degraded`] until a half-open
    /// probe of the model path succeeds.
    pub fn start_with(
        bundle: Arc<ModelBundle>,
        cfg: ServeConfig,
        injector: Arc<dyn Injector>,
        fallback: Option<Arc<dyn FallbackScorer>>,
    ) -> Server {
        Server::start_full(bundle, cfg, injector, fallback, None)
    }

    /// [`Server::start`] with a compiled-circuit store attached: requests
    /// carrying an [`RankRequest::slo`] budget and provenance are answered
    /// through the three-tier policy (exact / learned / sampled), with the
    /// chosen tier recorded on the response.
    pub fn start_with_store(
        bundle: Arc<ModelBundle>,
        cfg: ServeConfig,
        store: Arc<CircuitStore>,
    ) -> Server {
        Server::start_full(bundle, cfg, Arc::new(NoFaults), None, Some(store))
    }

    /// The fully-general constructor behind every `start*` variant.
    pub fn start_full(
        bundle: Arc<ModelBundle>,
        cfg: ServeConfig,
        injector: Arc<dyn Injector>,
        fallback: Option<Arc<dyn FallbackScorer>>,
        circuit: Option<Arc<CircuitStore>>,
    ) -> Server {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.queue_depth >= 1, "need a positive queue depth");
        let breaker = CircuitBreaker::new(cfg.breaker_failures, cfg.breaker_cooldown);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: VecDeque::new(),
                work: VecDeque::new(),
                active: std::collections::HashMap::new(),
                inflight: 0,
                batching: 0,
                paused: false,
                shutdown: false,
                cache: LruCache::new(cfg.cache_capacity),
                cache_generation: 0,
            }),
            batcher_cv: Condvar::new(),
            worker_cv: Condvar::new(),
            cfg,
            model: Mutex::new(bundle),
            generation: AtomicU64::new(0),
            online: OnceLock::new(),
            injector,
            breaker,
            fallback,
            circuit,
            workers: Mutex::new(Vec::new()),
        });
        let batcher = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("ls-serve-batcher".into())
                .spawn(move || batcher_loop(&shared))
                .expect("spawn batcher")
        };
        for i in 0..shared.cfg.workers {
            spawn_worker(&shared, i);
        }
        Server {
            shared,
            batcher: Some(batcher),
        }
    }

    /// A client handle (cheap to clone, usable from any thread).
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: self.shared.clone(),
        }
    }

    /// The server's fault injector, shared with the online engine so the
    /// feedback WAL lives under the same chaos plan as the serving path.
    pub(crate) fn injector(&self) -> Arc<dyn Injector> {
        self.shared.injector.clone()
    }

    /// Attach the online engine (at most once per server).
    pub(crate) fn attach_online(&self, online: Arc<crate::online::OnlineState>) -> Result<(), ()> {
        self.shared.online.set(online).map_err(|_| ())
    }

    /// Current circuit-breaker state (for tests and operational probes).
    pub fn breaker_state(&self) -> ls_fault::BreakerState {
        self.shared.breaker.state()
    }

    /// Stop dispatching batches (submissions still accepted up to the queue
    /// bound). Used for maintenance windows — and by the overload tests to
    /// fill the queue deterministically.
    pub fn pause(&self) {
        lock_safe(&self.shared.state).paused = true;
        self.shared.batcher_cv.notify_all();
    }

    /// Resume dispatching after [`Server::pause`].
    pub fn resume(&self) {
        lock_safe(&self.shared.state).paused = false;
        self.shared.batcher_cv.notify_all();
    }

    /// Graceful shutdown: stop admitting, serve everything already admitted,
    /// then join the batcher and workers.
    pub fn shutdown(mut self) {
        // Stop the online trainer first: it swaps models through a
        // ServeHandle and must not race the drain below.
        if let Some(online) = self.shared.online.get() {
            online.stop_and_join();
        }
        {
            let mut st = lock_safe(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.batcher_cv.notify_all();
        self.shared.worker_cv.notify_all();
        if let Some(b) = self.batcher.take() {
            let _ = b.join();
        }
        // The batcher exits only after `pending` is fully drained; wake the
        // workers again in case they raced the last work publication.
        self.shared.worker_cv.notify_all();
        // Respawned workers push fresh handles while we join, so drain until
        // the list stays empty.
        loop {
            let handles: Vec<JoinHandle<()>> = lock_safe(&self.shared.workers).drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for w in handles {
                let _ = w.join();
            }
        }
    }
}

/// Spawn one worker thread, registering its handle for shutdown. A
/// [`RespawnGuard`] inside the thread replaces it if a panic ever escapes
/// the per-chunk `catch_unwind` (so the pool never shrinks silently).
fn spawn_worker(shared: &Arc<Shared>, idx: usize) {
    let shared_for_thread = shared.clone();
    let handle = std::thread::Builder::new()
        .name(format!("ls-serve-worker-{idx}"))
        .spawn(move || {
            let guard = RespawnGuard {
                shared: shared_for_thread,
                idx,
            };
            worker_loop(&guard.shared);
        })
        .expect("spawn worker");
    lock_safe(&shared.workers).push(handle);
}

/// Replaces a worker thread that died by panic. `Drop` runs during unwind,
/// so the pool heals without any supervisor thread; on a normal exit the
/// guard just releases the thread's share of the server state, so a shut
/// down server frees its model, cache and circuit store.
struct RespawnGuard {
    shared: Arc<Shared>,
    idx: usize,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        ls_obs::counter("serve.worker_respawn").incr();
        let draining = lock_safe(&self.shared.state).shutdown;
        if !draining {
            spawn_worker(&self.shared, self.idx);
        }
    }
}

/// The micro-batcher: coalesce pending jobs up to `max_batch_items` facts or
/// `batch_deadline`, whichever hits first, then expand them into per-worker
/// chunks.
fn batcher_loop(shared: &Shared) {
    let cfg = &shared.cfg;
    loop {
        let mut st = lock_safe(&shared.state);
        // Wait for work (or for a resume, or for shutdown — which overrides
        // pause so draining always proceeds).
        while (st.pending.is_empty() || st.paused) && !st.shutdown {
            st = wait_safe(&shared.batcher_cv, st);
        }
        if st.pending.is_empty() && st.shutdown {
            break;
        }
        // Micro-batch window: from first sight of a nonempty queue, wait for
        // more work up to the deadline or the item budget. Shutdown skips
        // the wait — drain as fast as possible.
        let window_ends = Instant::now() + cfg.batch_deadline;
        loop {
            if st.shutdown {
                break;
            }
            let items: usize = st.pending.iter().map(|j| j.lineage.len()).sum();
            if items >= cfg.max_batch_items {
                break;
            }
            let now = Instant::now();
            if now >= window_ends {
                break;
            }
            let (guard, timed_out) = wait_timeout_safe(&shared.batcher_cv, st, window_ends - now);
            st = guard;
            if timed_out {
                break;
            }
        }
        // Drain one batch's worth of jobs.
        let mut batch = Vec::new();
        let mut items = 0usize;
        while let Some(job) = st.pending.front() {
            let n = job.lineage.len();
            if !batch.is_empty() && items + n > cfg.max_batch_items {
                break;
            }
            items += n;
            let job = st.pending.pop_front().unwrap();
            // Queue stage ends here: the job now belongs to batch assembly.
            job.mark(&job.drained_us);
            batch.push(job);
        }
        st.batching += batch.len();
        drop(st);

        if ls_obs::enabled() && items > 0 {
            ls_obs::histogram("serve.batch_items").record(items as f64);
        }
        let now = Instant::now();
        let mut work = Vec::new();
        for job in batch {
            if job.deadline.is_some_and(|d| now > d) {
                ls_obs::counter("serve.shed_deadline").incr();
                job.complete(shared, Err(ServeError::DeadlineExceeded));
                continue;
            }
            // Circuit open: the model path is unhealthy. Score inline via
            // the fallback (or fail typed), never touching the worker pool.
            if !shared.breaker.allow_primary() {
                degrade(shared, &job);
                continue;
            }
            // Hoist the query/tuple-side work out of the per-fact loop, once
            // per job rather than once per fact (or per chunk). The model
            // snapshot is pinned here, in the same breath: every chunk of
            // this job scores on this bundle, whatever swaps land later.
            let _trace = job.trace.as_ref().map(ls_obs::TraceContext::attach);
            let (bundle, generation) = shared.model();
            let ctx = ScoreContext::new(&bundle.tokenizer, &job.query_sql, &job.tuple);
            let _ = job.ctx.set(ctx);
            let _ = job.pinned.set((bundle, generation));
            let n = job.lineage.len();
            let chunk = n.div_ceil(cfg.workers).max(1);
            let mut start = 0;
            while start < n {
                let end = (start + chunk).min(n);
                work.push(WorkItem {
                    job: job.clone(),
                    start,
                    end,
                });
                start = end;
            }
            // Batch stage ends: the job's chunks are about to be published.
            job.mark(&job.dispatched_us);
        }
        let mut st = lock_safe(&shared.state);
        st.batching = 0;
        st.work.extend(work);
        drop(st);
        shared.worker_cv.notify_all();
    }
}

/// Serve one job from the fallback scorer while the breaker is open. The
/// response is marked degraded and is **not** cached: once the model path
/// recovers, the same key must be scored by the model again.
fn degrade(shared: &Shared, job: &Arc<Job>) {
    ls_obs::counter("serve.degraded.responses").incr();
    // The fallback scores inline on the batcher thread: dispatch and score
    // stages collapse onto it.
    job.mark(&job.dispatched_us);
    let result = match &shared.fallback {
        Some(fb) => match fb.score(&job.query_sql, &job.lineage) {
            Some(scores) => {
                let mut fact_scores = FactScores::new();
                for (i, &f) in job.lineage.iter().enumerate() {
                    fact_scores.insert(f, scores[i]);
                }
                let ranking = ls_shapley::rank_descending(&fact_scores);
                Ok(RankResponse {
                    scores,
                    ranking,
                    cached: false,
                    degraded: true,
                    stages: None,
                    tier: None,
                })
            }
            None => Err(ServeError::Internal(format!(
                "degraded: fallback scorer \"{}\" could not answer",
                fb.name()
            ))),
        },
        None => Err(ServeError::Internal(
            "degraded: circuit open and no fallback scorer configured".into(),
        )),
    };
    if result.is_err() {
        ls_obs::counter("serve.degraded.errors").incr();
    }
    job.mark(&job.scored_us);
    job.complete(shared, result);
}

/// A worker: pull fact chunks, score them with a thread-local scratch into
/// the job's request-order slots, finalize on the last chunk.
///
/// Scoring runs inside `catch_unwind`, so a panic — injected or genuine —
/// fails exactly the job whose chunk was being scored and leaves the worker
/// alive for the next item. The `serve.worker.poll` site is *outside* that
/// boundary on purpose: a fault there kills the whole thread (before any
/// work item is held), exercising the [`RespawnGuard`] path.
fn worker_loop(shared: &Shared) {
    loop {
        match shared.injector.decide("serve.worker.poll") {
            FaultAction::Panic => panic!("injected worker-thread abort"),
            FaultAction::Delay(d) => std::thread::sleep(d),
            _ => {}
        }
        let item = {
            let mut st = lock_safe(&shared.state);
            loop {
                if let Some(item) = st.work.pop_front() {
                    break item;
                }
                if st.shutdown && st.pending.is_empty() && st.batching == 0 {
                    return;
                }
                st = wait_safe(&shared.worker_cv, st);
            }
        };
        let job = item.job.clone();
        match catch_unwind(AssertUnwindSafe(|| score_chunk(shared, &item))) {
            Ok(Ok(())) => {}
            Ok(Err(msg)) => {
                // Injected I/O-style error: typed failure for this job only.
                shared.breaker.on_failure();
                ls_obs::counter("serve.worker_error").incr();
                job.complete(shared, Err(ServeError::Internal(msg)));
            }
            Err(_) => {
                shared.breaker.on_failure();
                ls_obs::counter("serve.worker_panic").incr();
                job.complete(
                    shared,
                    Err(ServeError::Internal("worker panicked while scoring".into())),
                );
            }
        }
    }
}

/// Score one chunk into the job's request-order slots; the worker that
/// zeroes `remaining` finalizes. `Err` carries an injected scoring fault.
///
/// The scorer is built per chunk from the job's **pinned** bundle (cheap:
/// [`LineageScorer::new`] only creates an empty scratch) rather than
/// held for the worker thread's lifetime — that is what lets a hot-swap
/// land between chunks of *different* jobs while every chunk of *one* job
/// scores on one snapshot.
fn score_chunk(shared: &Shared, item: &WorkItem) -> Result<(), String> {
    let job = &item.job;
    // Adopt the request's trace for this chunk: the worker thread never saw
    // the submitting span, so the explicit context is the only way spans and
    // histogram samples recorded here attribute to the right request.
    let _trace = job.trace.as_ref().map(ls_obs::TraceContext::attach);
    let _span = ls_obs::enabled()
        .then(|| ls_obs::span("serve.worker.chunk").with("facts", (item.end - item.start) as u64));
    let ctx = job.ctx.get().expect("context built before dispatch");
    let (bundle, _) = job.pinned.get().expect("bundle pinned before dispatch");
    let mut scorer =
        LineageScorer::new(&bundle.model, &bundle.tokenizer, &bundle.db, bundle.max_len);
    for i in item.start..item.end {
        match shared.injector.decide("serve.worker.score") {
            FaultAction::Panic => panic!("injected worker panic"),
            FaultAction::Error => return Err("injected scoring fault".into()),
            FaultAction::Delay(d) => std::thread::sleep(d),
            _ => {}
        }
        let score = scorer.score_fact(ctx, job.lineage[i]);
        job.scores[i].store(score.to_bits(), Ordering::Release);
    }
    let n = item.end - item.start;
    ls_obs::counter("serve.facts_scored").add(n as u64);
    if job.remaining.fetch_sub(n, Ordering::AcqRel) == n {
        finalize(shared, job);
    }
    Ok(())
}

/// Assemble the response exactly the way serial `rank_lineage` does, cache
/// it, and wake the client.
fn finalize(shared: &Shared, job: &Arc<Job>) {
    // A job that already failed (panic in a sibling chunk) must not reach
    // the cache with partially-written slots.
    if job.finished.load(Ordering::Acquire) {
        return;
    }
    // Scoring ends with the finalizing chunk; what remains is assembly.
    job.mark(&job.scored_us);
    let scores: Vec<f64> = job
        .scores
        .iter()
        .map(|s| f64::from_bits(s.load(Ordering::Acquire)))
        .collect();
    // Identical assembly to `predict_scores` + `rank_descending`: insert in
    // lineage order, sort by descending score with fact-id tie-break.
    let mut fact_scores = FactScores::new();
    for (i, &f) in job.lineage.iter().enumerate() {
        fact_scores.insert(f, scores[i]);
    }
    let ranking = ls_shapley::rank_descending(&fact_scores);
    let resp = RankResponse {
        scores,
        ranking,
        cached: false,
        degraded: false,
        stages: None,
        tier: Some(Tier::Learned),
    };
    {
        // Generation gate: a job that was scored by a snapshot the server
        // has since swapped out still answers its client (bit-identical to
        // the snapshot that scored it), but its scores must not enter the
        // cache — cached entries always replay the live snapshot.
        let generation = job.pinned.get().map_or(0, |(_, g)| *g);
        let mut st = lock_safe(&shared.state);
        if generation == st.cache_generation {
            st.cache.insert(job.key.clone(), resp.clone());
        } else {
            ls_obs::counter("serve.cache_insert_stale_gen").incr();
        }
    }
    shared.breaker.on_success();
    job.complete(shared, Ok(resp));
}
