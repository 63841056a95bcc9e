//! The three serving workloads: `serve-learned`, `serve-wire` and
//! `serve-mixed`.
//!
//! Each serving workload has the same skeleton: set up several times
//! (timed; the last set-up is the one measured), warm what the workload says
//! is warm, then alternate open-loop windows at a fixed rate (latency from
//! due time) and closed-loop windows with a fixed in-flight window
//! (throughput) for the run's seconds, with every answer checked.

use crate::inputs::{self, Rng, TIERS};
use crate::measure::{
    cycle, end_to_end, gen_lag, in_order, measure, per_layer, timed_setups, wire_bytes, Load,
    Measured, Opts, Timed,
};
use crate::pacer::{self, Clock, OpRec, RunClock, Target};
use crate::report::Outcome;
use crate::stats::percentile;
use crate::trace::{Spans, Tracer};
use crate::wire::{Answer, Outgoing, WireResp, WireTarget};
use ls_circuit::CircuitStore;
use ls_core::{FeedbackRecord, OnlineConfig, OnlineTrainer};
use ls_relational::{Database, FactId};
use ls_serve::{
    ModelBundle, OnlineOptions, RankRequest, RankResponse, ServeConfig, ServeError, ServeHandle,
    Server, StageBreakdown, TcpServer, Tier,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

// The load of each workload. Open-loop rates are fixed constants, never
// derived from a run (README.md gives the measurements they come from).
// Closed-loop in-flight windows are per connection on the wire workloads;
// a closed-loop measurement window holds whole request cycles and lasts
// 0.15 to 0.5 s at the throughput measured on a 2-core host.
const CONNECTIONS: usize = 2;
const LEARNED_REQUESTS: usize = 60;
const LEARNED_RATE: f64 = 50.0;
const LEARNED_WINDOW: usize = 4;
const WIRE_REQUESTS: usize = 256;
const WIRE_FACTS: usize = 12;
const WIRE_RATE: f64 = 20_000.0;
const WIRE_WINDOW: usize = 32;
const MIXED_RATE: f64 = 200.0;
const MIXED_WINDOW: usize = 4;

fn serve_config(cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_depth: 4096,
        cache_capacity,
        ..ServeConfig::default()
    }
}

/// A running server (and its TCP front-end), torn down on drop.
struct Stack {
    server: Option<Server>,
    tcp: Option<TcpServer>,
    dir: PathBuf,
}

impl Stack {
    fn handle(&self) -> ServeHandle {
        self.server.as_ref().expect("server running").handle()
    }

    fn addr(&self) -> std::net::SocketAddr {
        self.tcp
            .as_ref()
            .expect("tcp front-end running")
            .local_addr()
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        if let Some(t) = self.tcp.take() {
            t.stop();
        }
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A fresh scratch directory for set-up `k`.
fn setup_dir(opts: &Opts, name: &str, k: usize) -> PathBuf {
    let dir = opts.work.join(format!("{name}-{k}"));
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

/// An answer as compared: score bits, ranking, tier.
type Served = (Vec<u64>, Vec<FactId>, Option<Tier>);

/// The first answer served for each request; every later answer to the
/// same request must match it bit for bit.
#[derive(Default)]
struct FirstAnswers(HashMap<usize, Served>);

impl FirstAnswers {
    fn same(&mut self, req: usize, r: &RankResponse) -> bool {
        let bits: Vec<u64> = r.scores.iter().map(|s| s.to_bits()).collect();
        match self.0.get(&req) {
            Some((b, rank, tier)) => *b == bits && *rank == r.ranking && *tier == r.tier,
            None => {
                self.0.insert(req, (bits, r.ranking.clone(), r.tier));
                true
            }
        }
    }
}

/// Everything a serving workload reports once its checks are done.
fn report(
    out: &mut Outcome,
    opts: &Opts,
    setups: &Timed,
    m: &Measured,
    tracer: &Tracer,
    latency_of: impl Fn(usize) -> bool,
) {
    out.attempted = m.attempted();
    out.failed += m.missing();
    gen_lag(out, &mut m.lags_ms(), opts.trace);
    if opts.trace {
        per_layer(out, tracer, m);
    } else {
        end_to_end(out, setups, m, &m.latencies_ms(latency_of));
    }
}

/// The server's part of an answer: a `server` span ending at `end`, with
/// its stage breakdown laid out inside it. Inline tier answers carry only a
/// score stage, which is named for the tier that computed it.
fn server_spans(spans: &mut Spans, end: f64, s: &StageBreakdown, tier: Option<Tier>) {
    let us = |v: u64| v as f64 * 1e-6;
    let score = match tier {
        Some(Tier::Exact) => "tier.exact",
        Some(Tier::Sampled) => "tier.sampled",
        _ => "serve.score",
    };
    let from = end - us(s.total_us);
    let server = spans.child(0, "server", from, end);
    spans.sequence(
        server,
        from,
        &[
            ("serve.probe", us(s.probe_us)),
            ("serve.queue", us(s.queue_us)),
            ("serve.batch", us(s.batch_us)),
            (score, us(s.score_us)),
            ("serve.other", us(s.other_us)),
        ],
    );
}

/// Spans for one wire operation: generator lag, client encode, the server
/// and its stages, client decode. What is left — socket, event loop and
/// kernel time — stays the root's self time (unattributed).
fn wire_spans(o: &OpRec, r: &WireResp) -> Spans {
    let mut spans = Spans::root(o.due, o.done);
    spans.child(0, "gen.lag", o.due, o.sent);
    spans.child(0, "wire.encode", o.sent, o.sent + r.encode_s);
    if let Answer::Rank(Ok(RankResponse {
        stages: Some(s),
        tier,
        ..
    })) = &r.answer
    {
        server_spans(&mut spans, o.done - r.decode_s, s, *tier);
    }
    spans.child(0, "wire.decode", o.done - r.decode_s, o.done);
    spans
}

/// Compare served learned-tier answers for up to 64 seeded distinct
/// requests among `candidates` (request index, request) against the serial
/// `ls_core` oracle.
fn oracle_learned(
    out: &mut Outcome,
    bundle: &ModelBundle,
    candidates: &[(usize, &RankRequest)],
    served: &FirstAnswers,
    rng: &mut Rng,
) {
    let mut seen: Vec<&(usize, &RankRequest)> = candidates
        .iter()
        .filter(|(i, _)| served.0.contains_key(i))
        .collect();
    rng.shuffle(&mut seen);
    let mut checked = 0;
    for &&(i, r) in seen.iter().take(64) {
        let (bits, ranking, _) = &served.0[&i];
        let want = ls_core::predict_scores(
            &bundle.model,
            &bundle.tokenizer,
            &bundle.db,
            &r.query_sql,
            &r.tuple,
            &r.lineage,
            bundle.max_len,
        );
        let want_bits: Vec<u64> = r.lineage.iter().map(|f| want[f].to_bits()).collect();
        let want_rank = ls_core::rank_lineage(
            &bundle.model,
            &bundle.tokenizer,
            &bundle.db,
            &r.query_sql,
            &r.tuple,
            &r.lineage,
            bundle.max_len,
        );
        if *bits != want_bits || *ranking != want_rank {
            out.problem(format!(
                "request {i}: served answer differs from rank_lineage"
            ));
        }
        checked += 1;
    }
    out.extra("oracle_checked", checked as f64, "count");
}

/// In-process requests through `ServeHandle::rank_async`; completions are
/// stamped on the thread that completes them.
struct InProcess<'a> {
    clock: RunClock,
    handle: ServeHandle,
    requests: &'a [RankRequest],
    tx: Sender<(u64, f64, Result<RankResponse, ServeError>)>,
    rx: Receiver<(u64, f64, Result<RankResponse, ServeError>)>,
}

impl Target for InProcess<'_> {
    type Resp = Result<RankResponse, ServeError>;

    fn send(&mut self, op: u64, req: usize, trace: Option<ls_obs::TraceContext>) {
        let tx = self.tx.clone();
        let clock = self.clock;
        let _attached = trace.as_ref().map(ls_obs::TraceContext::attach);
        self.handle
            .rank_async(self.requests[req].clone(), move |r| {
                let _ = tx.send((op, clock.now(), r));
            });
    }

    fn wait(&mut self, until: f64, out: &mut Vec<(u64, f64, Self::Resp)>) {
        if let Ok(x) = self.rx.recv_timeout(self.clock.until(until)) {
            out.push(x);
            out.extend(self.rx.try_iter());
        }
    }
}

/// `serve-learned`: in-process, cache off, learned tier, ragged lineages.
pub fn serve_learned(opts: &Opts) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let clock = RunClock::new();
    let (setups, (stack, bundle, requests)) = timed_setups(|k| {
        let dir = setup_dir(opts, "learned", k);
        let (db, cands) = inputs::academic(opts.seed);
        let mut rng = Rng::new(opts.seed, 10);
        let shapes = inputs::ragged_shapes(LEARNED_REQUESTS);
        let requests = inputs::rank_requests(&db, &cands, &shapes, &mut rng);
        let tok = inputs::tokenizer(&db, &requests);
        let bundle = inputs::model_bundle(db, &tok, inputs::sub_seed(opts.seed, 3), &dir)
            .expect("persist and reload the model");
        let server = Server::start(bundle.clone(), serve_config(0));
        let stack = Stack {
            server: Some(server),
            tcp: None,
            dir,
        };
        (stack, bundle, requests)
    });
    let (tx, rx) = channel();
    let mut target = InProcess {
        clock,
        handle: stack.handle(),
        requests: &requests,
        tx,
        rx,
    };
    let load = Load {
        rate: Some(LEARNED_RATE),
        window: LEARNED_WINDOW,
        cycle: requests.len(),
        closed_ops: requests.len(),
    };
    let mut first = FirstAnswers::default();
    let mut tracer = Tracer::default();
    let m = measure(
        &clock,
        &mut target,
        &load,
        opts,
        in_order(requests.len()),
        |o, r| {
            let ok = matches!(&r, Ok(resp) if resp.tier == Some(Tier::Learned)
                && !resp.cached
                && !resp.degraded
                && first.same(o.req, resp));
            if !ok {
                out.failed += 1;
                return;
            }
            if o.trace != 0 {
                let mut spans = Spans::root(o.due, o.done);
                spans.child(0, "gen.lag", o.due, o.sent);
                if let Ok(RankResponse {
                    stages: Some(s),
                    tier,
                    ..
                }) = &r
                {
                    server_spans(&mut spans, o.done, s, *tier);
                }
                tracer.record(o.op, o.trace, spans);
            }
        },
    );
    let all: Vec<(usize, &RankRequest)> = requests.iter().enumerate().collect();
    oracle_learned(
        &mut out,
        &bundle,
        &all,
        &first,
        &mut Rng::new(opts.seed, 12),
    );
    report(&mut out, opts, &setups, &m, &tracer, |_| true);
    if opts.trace {
        wire_bytes(&mut out, 0, 0, 0);
    } else {
        let facts: usize = requests.iter().map(|r| r.lineage.len()).sum();
        let per_op = facts as f64 / requests.len() as f64;
        let ops = out
            .metrics
            .iter()
            .find(|(n, _)| *n == "ops_per_s")
            .map_or(0.0, |m| m.1);
        out.extra("facts_per_s", ops * per_op, "facts/s");
    }
    drop(target);
    drop(stack);
    (out, tracer)
}

/// Connect to the front-end and send every request of `0..n` once, `first`
/// recording the answers: the cache warm-up. Returns the requests that did
/// not get a good answer.
fn warm_cache<'a>(
    clock: RunClock,
    stack: &Stack,
    n: usize,
    request: impl Fn(usize) -> Outgoing<'a> + 'a,
    first: &mut FirstAnswers,
) -> usize {
    let mut warm = WireTarget::connect(clock, stack.addr(), CONNECTIONS, request)
        .expect("connect to the front-end");
    let mut bad = 0;
    let unanswered = pacer::pump(&clock, &mut warm, n, 64, 0, 60.0, |i, r| match r.answer {
        Answer::Rank(Ok(resp)) => {
            first.same(i, &resp);
        }
        _ => bad += 1,
    });
    bad + unanswered
}

/// What a wire workload counts of its answers.
#[derive(Default)]
struct WireTally {
    bytes_out: usize,
    bytes_in: usize,
    answers: usize,
    broken: Option<String>,
    /// Client-observed minus server-reported time of traced rank answers.
    residual_us: Vec<f64>,
}

impl WireTally {
    fn count(&mut self, o: &OpRec, r: &WireResp) {
        self.bytes_out += r.bytes_out;
        self.bytes_in += r.bytes_in;
        self.answers += 1;
        if let (
            true,
            Answer::Rank(Ok(RankResponse {
                stages: Some(s), ..
            })),
        ) = (o.trace != 0, &r.answer)
        {
            self.residual_us
                .push((o.done - o.sent) * 1e6 - s.total_us as f64);
        }
    }

    fn report(mut self, out: &mut Outcome, trace: bool) {
        if let Some(why) = self.broken {
            out.problem(format!("wire: {why}"));
        }
        if trace {
            wire_bytes(out, self.bytes_out, self.bytes_in, self.answers);
            if !self.residual_us.is_empty() {
                out.extra(
                    "wire.client_residual_us",
                    percentile(&mut self.residual_us, 0.5),
                    "us",
                );
            }
        }
    }
}

/// `serve-wire`: binary TCP front-end, 2 pipelined connections, a working
/// set of 256 12-fact requests warmed into the response cache.
pub fn serve_wire(opts: &Opts) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let clock = RunClock::new();
    let mut warm_failures = 0;
    let mut first = FirstAnswers::default();
    let (setups, (stack, requests)) = timed_setups(|k| {
        let dir = setup_dir(opts, "wire", k);
        let (db, cands) = inputs::academic(opts.seed);
        let mut rng = Rng::new(opts.seed, 20);
        let wire_shapes = inputs::even_shapes(WIRE_REQUESTS, WIRE_FACTS);
        let requests = inputs::rank_requests(&db, &cands, &wire_shapes, &mut rng);
        let tok = inputs::tokenizer(&db, &requests);
        let bundle = inputs::model_bundle(db, &tok, inputs::sub_seed(opts.seed, 3), &dir)
            .expect("persist and reload the model");
        let server = Server::start(bundle, serve_config(1024));
        let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind loopback");
        let stack = Stack {
            server: Some(server),
            tcp: Some(tcp),
            dir,
        };
        // Warm the cache: one answer per request, which is also the
        // reference every measured answer must match.
        first = FirstAnswers::default();
        warm_failures = warm_cache(
            clock,
            &stack,
            requests.len(),
            |i| Outgoing::Rank(&requests[i]),
            &mut first,
        );
        (stack, requests)
    });
    if warm_failures > 0 {
        out.problem(format!("cache warm-up failed for {warm_failures} requests"));
    }
    let mut target = WireTarget::connect(clock, stack.addr(), CONNECTIONS, |i| {
        Outgoing::Rank(&requests[i])
    })
    .expect("connect to the front-end");
    let load = Load {
        rate: Some(WIRE_RATE),
        window: WIRE_WINDOW * CONNECTIONS,
        cycle: requests.len(),
        closed_ops: 128 * requests.len(),
    };
    let mut tracer = Tracer::default();
    let mut tally = WireTally::default();
    let mut uncached = 0u64;
    let m = measure(
        &clock,
        &mut target,
        &load,
        opts,
        cycle(requests.len(), &mut Rng::new(opts.seed, 21)),
        |o, r| {
            let ok = match &r.answer {
                Answer::Rank(Ok(resp)) => {
                    uncached += u64::from(!resp.cached);
                    resp.cached && first.same(o.req, resp)
                }
                Answer::Broken(why) => {
                    tally.broken.get_or_insert_with(|| why.clone());
                    false
                }
                _ => false,
            };
            if !ok {
                out.failed += 1;
                return;
            }
            tally.count(o, &r);
            if o.trace != 0 {
                tracer.record(o.op, o.trace, wire_spans(o, &r));
            }
        },
    );
    if uncached > 0 {
        out.problem(format!(
            "{uncached} answers missed the warmed cache (hit ratio < 1)"
        ));
    }
    let attempted = m.attempted();
    out.extra(
        "cache_hit_ratio",
        1.0 - uncached as f64 / attempted.max(1) as f64,
        "ratio",
    );
    tally.report(&mut out, opts.trace);
    report(&mut out, opts, &setups, &m, &tracer, |_| true);
    drop(target);
    drop(stack);
    (out, tracer)
}

/// The request classes of `serve-mixed`, laid out in one index space.
struct MixedSet {
    light: Vec<RankRequest>,
    slo: [Vec<RankRequest>; 3],
    feedback: Vec<FeedbackRecord>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Light,
    Slo(usize),
    Feedback,
}

impl MixedSet {
    fn class(&self, i: usize) -> (Class, usize) {
        let mut i = i;
        if i < self.light.len() {
            return (Class::Light, i);
        }
        i -= self.light.len();
        for (g, group) in self.slo.iter().enumerate() {
            if i < group.len() {
                return (Class::Slo(g), i);
            }
            i -= group.len();
        }
        (Class::Feedback, i)
    }

    fn outgoing(&self, i: usize) -> Outgoing<'_> {
        match self.class(i) {
            (Class::Light, j) => Outgoing::Rank(&self.light[j]),
            (Class::Slo(g), j) => Outgoing::Rank(&self.slo[g][j]),
            (Class::Feedback, j) => Outgoing::Feedback(&self.feedback[j]),
        }
    }

    fn index(&self, class: Class, j: usize) -> usize {
        let slo_before = |g: usize| self.slo[..g].iter().map(Vec::len).sum::<usize>();
        match class {
            Class::Light => j,
            Class::Slo(g) => self.light.len() + slo_before(g) + j,
            Class::Feedback => self.light.len() + slo_before(3) + j,
        }
    }

    fn rank(&self, i: usize) -> Option<&RankRequest> {
        match self.outgoing(i) {
            Outgoing::Rank(r) => Some(r),
            Outgoing::Feedback(_) => None,
        }
    }
}

/// Rank requests per `serve-mixed` block: 17 cache hits and 2 SLO requests.
const MIXED_BLOCK: u64 = 19;

/// Seconds between `serve-mixed` feedback frames, in both phases: 5% of
/// the open-loop requests, and in the closed loop the same trainer and WAL
/// load instead of one that grows with throughput.
const FEEDBACK_EVERY: f64 = 1.0 / (0.05 * MIXED_RATE);

/// The `serve-mixed` request stream: a feedback frame whenever one is due
/// on the run clock, otherwise the next rank request. Block `b` of
/// [`MIXED_BLOCK`] rank requests sends 17 cache-hit requests (the light set
/// in a seeded cycle) and two SLO requests (cycling through the exact,
/// learned and sampled groups), in an order seeded per block.
fn mixed_picker(set: &MixedSet, seed: u64, clock: RunClock) -> impl FnMut(u64) -> usize + '_ {
    let mut light = cycle(set.light.len(), &mut Rng::new(seed, 33));
    let (mut slo, mut feedback, mut next_feedback) = (0usize, 0usize, 0.0f64);
    let mut block: (u64, Vec<u64>) = (u64::MAX, Vec::new());
    let mut k = 0u64;
    move |_| {
        let now = clock.now();
        if now >= next_feedback {
            next_feedback = (next_feedback + FEEDBACK_EVERY).max(now);
            feedback += 1;
            return set.index(Class::Feedback, (feedback - 1) % set.feedback.len());
        }
        let (b, slot) = (k / MIXED_BLOCK, k % MIXED_BLOCK);
        k += 1;
        if block.0 != b {
            let mut slots: Vec<u64> = (0..MIXED_BLOCK).collect();
            Rng::new(seed, 30 + b).shuffle(&mut slots);
            block = (b, slots);
        }
        if block.1[slot as usize] < 17 {
            return set.index(Class::Light, light(0));
        }
        slo += 1;
        let g = (slo - 1) % 3;
        set.index(Class::Slo(g), ((slo - 1) / 3) % set.slo[g].len())
    }
}

/// `serve-mixed`: cache hits, SLO-tiered requests and feedback frames share
/// the binary front-end's event-loop shards.
pub fn serve_mixed(opts: &Opts) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let clock = RunClock::new();
    let mut warm_failures = 0;
    let mut first = FirstAnswers::default();
    let (setups, (stack, bundle, set)) = timed_setups(|k| {
        let dir = setup_dir(opts, "mixed", k);
        let (db, cands) = inputs::wide_join(opts.seed);
        let mut rng = Rng::new(opts.seed, 31);
        let wire_shapes = inputs::even_shapes(WIRE_REQUESTS, WIRE_FACTS);
        let light = inputs::rank_requests(&db, &cands, &wire_shapes, &mut rng);
        let slo = inputs::slo_sets(&cands, 8, &mut rng);
        let feedback = inputs::feedback(&db, &light, 512, &mut rng);
        let set = MixedSet {
            light,
            slo,
            feedback,
        };
        let all: Vec<RankRequest> = set
            .light
            .iter()
            .chain(set.slo.iter().flatten())
            .cloned()
            .collect();
        let tok = inputs::tokenizer(&db, &all);
        let (stack, bundle) =
            mixed_stack(&dir, db, &tok, opts.seed).expect("start the mixed stack");
        // Answer every rank request once before timing: the cache-hit class
        // fills the response cache, and the exact group compiles its shapes
        // into the store that started cold.
        first = FirstAnswers::default();
        warm_failures = warm_cache(
            clock,
            &stack,
            set.index(Class::Feedback, 0),
            |i| set.outgoing(i),
            &mut first,
        );
        (stack, bundle, set)
    });
    if warm_failures > 0 {
        out.problem(format!("cache warm-up failed for {warm_failures} requests"));
    }
    for (g, group) in set.slo.iter().enumerate() {
        if group.is_empty() {
            out.problem(format!(
                "no wide-join tuple fits the {} tier band",
                TIERS[g]
            ));
        }
    }
    if !out.problems.is_empty() {
        return (out, Tracer::default());
    }
    let mut target = WireTarget::connect(clock, stack.addr(), CONNECTIONS, |i| set.outgoing(i))
        .expect("connect to the front-end");
    let load = Load {
        rate: Some(MIXED_RATE),
        window: MIXED_WINDOW * CONNECTIONS,
        cycle: MIXED_BLOCK as usize,
        closed_ops: 80 * MIXED_BLOCK as usize,
    };
    let mut tracer = Tracer::default();
    let mut tally = WireTally::default();
    let mut tiers = [0u64; 3];
    let m = measure(
        &clock,
        &mut target,
        &load,
        opts,
        mixed_picker(&set, opts.seed, clock),
        |o, r| {
            let class = set.class(o.req).0;
            let ok = match (&r.answer, class) {
                (Answer::Rank(Ok(resp)), Class::Light) => {
                    resp.cached && resp.tier == Some(Tier::Learned) && first.same(o.req, resp)
                }
                (Answer::Rank(Ok(resp)), Class::Slo(g)) => {
                    let right_tier = resp.tier == Some(TIERS[g]);
                    tiers[g] += u64::from(right_tier);
                    right_tier && !resp.degraded && first.same(o.req, resp)
                }
                (Answer::Feedback(Ok(_)), Class::Feedback) => true,
                (Answer::Broken(why), _) => {
                    tally.broken.get_or_insert_with(|| why.clone());
                    false
                }
                _ => false,
            };
            if !ok {
                out.failed += 1;
                return;
            }
            tally.count(o, &r);
            if o.trace != 0 {
                tracer.record(o.op, o.trace, wire_spans(o, &r));
            }
        },
    );
    for (g, &n) in tiers.iter().enumerate() {
        out.extra(format!("tier_{}_answers", TIERS[g]), n as f64, "count");
        if n == 0 {
            out.problem(format!("no request was answered by the {} tier", TIERS[g]));
        }
    }
    oracle_exact(&mut out, &set, &first);
    let learned: Vec<(usize, &RankRequest)> = (0..set.light.len())
        .chain((0..set.slo[1].len()).map(|j| set.index(Class::Slo(1), j)))
        .map(|i| (i, set.rank(i).expect("rank request")))
        .collect();
    oracle_learned(
        &mut out,
        &bundle,
        &learned,
        &first,
        &mut Rng::new(opts.seed, 32),
    );
    tally.report(&mut out, opts.trace);
    // The latency metrics cover the cache-hit class: the requests whose
    // latency the heavy classes can block. The other classes are reported
    // on their own.
    let is_light = |req: usize| set.class(req).0 == Class::Light;
    report(&mut out, opts, &setups, &m, &tracer, is_light);
    if !opts.trace {
        let class_pct = |want: fn(Class) -> bool, q: f64| {
            percentile(&mut m.latencies_ms(|r| want(set.class(r).0)).adjusted(), q)
        };
        out.extra("light_p99_ms", class_pct(|c| c == Class::Light, 0.99), "ms");
        out.extra(
            "tiered_p50_ms",
            class_pct(|c| matches!(c, Class::Slo(_)), 0.50),
            "ms",
        );
        out.extra(
            "feedback_p90_ms",
            class_pct(|c| c == Class::Feedback, 0.90),
            "ms",
        );
    }
    drop(target);
    (out, tracer)
}

fn mixed_stack(
    dir: &Path,
    db: Database,
    tok: &ls_core::Tokenizer,
    seed: u64,
) -> std::io::Result<(Stack, Arc<ModelBundle>)> {
    let bundle = inputs::model_bundle(db, tok, inputs::sub_seed(seed, 3), dir)?;
    let store = Arc::new(CircuitStore::open(dir.join("store"), 4096)?);
    let server = Server::start_with_store(bundle.clone(), serve_config(1024), store);
    let trainer = OnlineTrainer::new(
        inputs::fresh_model(tok.vocab_size(), inputs::sub_seed(seed, 3)),
        tok.clone(),
        // One optimizer step per feedback record spreads the trainer's work
        // evenly over time; batches of several records would land as bursts
        // that slow some measurement windows and not others.
        OnlineConfig {
            max_len: inputs::MAX_LEN,
            seed,
            batch: 1,
            ..OnlineConfig::default()
        },
    );
    // publish_every = 0: a hot-swap clears the response cache, which would
    // make the cache-hit class's latency depend on when swaps land.
    server.enable_online(
        trainer,
        OnlineOptions {
            wal_dir: dir.join("wal"),
            snapshot_dir: dir.join("snapshots"),
            publish_every: 0,
            poll: Duration::from_millis(20),
        },
    )?;
    let tcp = TcpServer::start(server.handle(), "127.0.0.1:0")?;
    Ok((
        Stack {
            server: Some(server),
            tcp: Some(tcp),
            dir: dir.to_path_buf(),
        },
        bundle,
    ))
}

/// Exact-tier answers must equal `ls_shapley::shapley_values` bit for bit
/// (scores in lineage order, ranking by the same assembly the server uses).
fn oracle_exact(out: &mut Outcome, set: &MixedSet, first: &FirstAnswers) {
    for (j, r) in set.slo[0].iter().enumerate() {
        let i = set.index(Class::Slo(0), j);
        let Some((bits, ranking, _)) = first.0.get(&i) else {
            continue;
        };
        let exact = ls_shapley::shapley_values(&ls_provenance::Dnf::from_monomials(
            r.tuple.derivations.clone(),
        ));
        let mut scores = ls_shapley::FactScores::new();
        for f in &r.lineage {
            scores.insert(*f, exact.get(f).copied().unwrap_or(0.0));
        }
        let want_bits: Vec<u64> = r.lineage.iter().map(|f| scores[f].to_bits()).collect();
        if *bits != want_bits || *ranking != ls_shapley::rank_descending(&scores) {
            out.problem(format!(
                "exact answer for request {i} differs from shapley_values"
            ));
        }
    }
}
