//! The measurement core every workload shares: the run options, set-up
//! timing, the alternating open- and closed-loop windows, and the end-to-end
//! and per-layer metrics computed from them.
//!
//! Every set-up and every window is bracketed by readings of the host's
//! slowness (see `calib`), and every end-to-end timing is adjusted by the
//! slowness around it.

use crate::calib::Gauge;
use crate::inputs::{self, Rng};
use crate::pacer::{self, Arrivals, Clock, OpRec, Phase, RunClock, Schedule, Target};
use crate::report::Outcome;
use crate::stats::{median, percentile, window_ops};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// How one workload run is asked to behave.
pub struct Opts {
    pub seed: u64,
    /// Measured seconds.
    pub secs: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout (models, stores, WAL).
    pub work: PathBuf,
}

/// Set-ups per run, `setup_s` being their median: at least
/// [`MIN_SETUPS`], and more while they have taken under [`SETUP_SECS`] in
/// all, up to [`MAX_SETUPS`]: one set-up of tens of milliseconds can take a
/// fifth more or less time than the next, so short set-ups are repeated
/// more.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_SECS: f64 = 1.0;

/// Measured operations are numbered from here (the warm-up uses the
/// numbers below).
const FIRST_OP: u64 = 1 << 40;

/// Times measured on the host: each with the request (or set-up) it timed
/// and the host's slowness while it was measured.
#[derive(Default)]
pub struct Timed(Vec<(usize, f64, f64)>);

impl Timed {
    pub fn push(&mut self, req: usize, time: f64, slowness: f64) {
        self.0.push((req, time, slowness));
    }

    /// The times as measured.
    pub fn raw(&self) -> Vec<f64> {
        self.0.iter().map(|t| t.1).collect()
    }

    /// The times adjusted to the reference host.
    pub fn adjusted(&self) -> Vec<f64> {
        self.0.iter().map(|t| t.1 / t.2).collect()
    }

    /// The typical time of the request set, from `times` (one per sample,
    /// in order): each distinct request's median time, and the geometric
    /// mean of those medians.
    ///
    /// A request's median over its repeats drops the repeats a spell or a
    /// neighbour's burst slowed. The geometric mean then weighs every
    /// request alike, small or large, and moves smoothly: a median pooled
    /// over a ragged request set sits between requests whose times differ
    /// by a tenth or more, and jumps when two of them trade places.
    pub fn typical(&self, times: Vec<f64>) -> f64 {
        let mut by_req: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (t, s) in times.into_iter().zip(&self.0) {
            by_req.entry(s.0).or_default().push(t);
        }
        if by_req.is_empty() {
            return f64::NAN;
        }
        let logs: f64 = by_req.values_mut().map(|v| median(v).ln()).sum();
        (logs / by_req.len() as f64).exp()
    }
}

/// Run `setup` as often as the set-up rule above says, timing each; keep
/// the last result.
pub fn timed_setups<S>(mut setup: impl FnMut(usize) -> S) -> (Timed, S) {
    let mut times = Timed::default();
    let mut kept = None;
    let mut gauge = Gauge::new();
    let mut total = 0.0;
    let mut k = 0;
    while k < MIN_SETUPS || (total < SETUP_SECS && k < MAX_SETUPS) {
        drop(kept.take());
        let t0 = std::time::Instant::now();
        kept = Some(setup(k));
        let secs = t0.elapsed().as_secs_f64();
        times.push(k, secs, gauge.after());
        total += secs;
        k += 1;
    }
    (times, kept.expect("at least one set-up"))
}

/// Request indices for successive operations: a seeded permutation of
/// `0..n`, repeated, so that every `n` consecutive operations send each
/// request once (a cycle: the unit of equal work the windows are made of).
pub fn cycle(n: usize, rng: &mut Rng) -> impl FnMut(u64) -> usize {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut k = 0usize;
    move |_| {
        k += 1;
        order[(k - 1) % n]
    }
}

/// Request indices `0..n` in order, repeated: the cycle of a request set
/// whose order is fixed already.
pub fn in_order(n: usize) -> impl FnMut(u64) -> usize {
    let mut k = 0usize;
    move |_| {
        k += 1;
        (k - 1) % n
    }
}

/// A workload's load: its open-loop rate (none for `offline`), its
/// closed-loop in-flight window, the length of its request cycle, and the
/// operations in one closed-loop window (whole cycles of a serving
/// workload's requests; one `offline` job).
pub struct Load {
    pub rate: Option<f64>,
    pub window: usize,
    pub cycle: usize,
    pub closed_ops: usize,
}

/// One measured window and the host's slowness around it.
pub struct Window {
    pub phase: Phase,
    pub slowness: f64,
}

impl Window {
    /// The window's rate, adjusted to the reference host.
    fn rate(&self) -> f64 {
        self.phase.rate() * self.slowness
    }
}

/// What a workload's windows measured, in run order.
pub struct Measured {
    /// Open-loop windows (none for `offline`).
    pub open: Vec<Window>,
    /// Closed-loop windows; in a trace run the odd ones are traced.
    pub closed: Vec<Window>,
}

/// Switch the program's own telemetry (`ls-obs`) on or off; it is on
/// exactly while operations are traced.
fn obs(on: bool) {
    ls_obs::set_level(if on {
        ls_obs::Level::Summary
    } else {
        ls_obs::Level::Off
    });
}

/// Run `opts.secs` seconds of alternating windows: an open-loop window of
/// whole request cycles at the load's rate (when it has one), then a
/// closed-loop window of `closed_ops` operations, each followed by a
/// reading of the host's slowness. Interleaving spreads both kinds over the
/// whole run.
/// In a trace run every open-loop window is traced and closed-loop windows
/// alternate untraced and traced, which gives the tracing overhead.
pub fn measure<T: Target>(
    clock: &RunClock,
    target: &mut T,
    load: &Load,
    opts: &Opts,
    mut pick: impl FnMut(u64) -> usize,
    mut check: impl FnMut(&OpRec, T::Resp),
) -> Measured {
    if opts.trace {
        ls_obs::reset();
    }
    let end = clock.now() + opts.secs;
    let mut first_op = FIRST_OP;
    let mut m = Measured {
        open: Vec::new(),
        closed: Vec::new(),
    };
    let mut gauge = Gauge::new();
    let mut window = |phase: Phase| Window {
        phase,
        slowness: gauge.after(),
    };
    while clock.now() < end || m.closed.is_empty() {
        if let Some(rate) = load.rate {
            obs(opts.trace);
            crate::wire::generator_priority(true);
            let sched = Schedule {
                arrivals: Arrivals::Open { rate },
                ops: window_ops(load.cycle, rate) as u64,
                first_op,
            };
            let p = pacer::run_phase(clock, target, sched, &mut pick, |_| opts.trace, &mut check);
            // The closed loop measures throughput: client and server share
            // the cores on equal terms there.
            crate::wire::generator_priority(false);
            first_op += p.issued;
            m.open.push(window(p));
        }
        let traced = opts.trace && m.closed.len() % 2 == 1;
        obs(traced);
        let sched = Schedule {
            arrivals: Arrivals::Closed {
                window: load.window,
            },
            ops: load.closed_ops as u64,
            first_op,
        };
        let p = pacer::run_phase(clock, target, sched, &mut pick, |_| traced, &mut check);
        first_op += p.issued;
        m.closed.push(window(p));
    }
    obs(false);
    m
}

impl Measured {
    fn phases(&self) -> impl Iterator<Item = &Phase> {
        self.open.iter().chain(&self.closed).map(|w| &w.phase)
    }

    pub fn attempted(&self) -> u64 {
        self.phases().map(|p| p.issued).sum()
    }

    pub fn missing(&self) -> u64 {
        self.phases().map(|p| p.missing).sum()
    }

    /// Closed-loop throughput: the median of the windows' rates, adjusted
    /// to the reference host.
    pub fn throughput(&self) -> f64 {
        median(&mut self.closed.iter().map(Window::rate).collect::<Vec<_>>())
    }

    /// The same, as measured.
    pub fn raw_throughput(&self) -> f64 {
        median(
            &mut self
                .closed
                .iter()
                .map(|w| w.phase.rate())
                .collect::<Vec<_>>(),
        )
    }

    /// The host's median slowness over the run's windows.
    pub fn slowness(&self) -> f64 {
        let all = self.open.iter().chain(&self.closed);
        median(&mut all.map(|w| w.slowness).collect::<Vec<_>>())
    }

    /// The tracing overhead of a trace run: 1 - traced / untraced
    /// closed-loop throughput, each the median of its alternate windows.
    pub fn trace_overhead(&self) -> f64 {
        let rates = |traced: usize| -> Vec<f64> {
            self.closed
                .iter()
                .skip(traced)
                .step_by(2)
                .map(Window::rate)
                .collect()
        };
        let (off, on) = (median(&mut rates(0)), median(&mut rates(1)));
        if off > 0.0 && on.is_finite() {
            1.0 - on / off
        } else {
            0.0
        }
    }

    /// Seconds tracing was on: every open-loop window and every other
    /// closed-loop window.
    pub fn traced_secs(&self) -> f64 {
        let secs = |w: &Window| w.phase.end - w.phase.start;
        self.open.iter().map(secs).sum::<f64>()
            + self.closed.iter().skip(1).step_by(2).map(secs).sum::<f64>()
    }

    /// Open-loop latencies (ms) of the requests that `keep` admits. A
    /// request never answered counts as infinitely late.
    pub fn latencies_ms(&self, keep: impl Fn(usize) -> bool) -> Timed {
        let mut t = Timed::default();
        for w in &self.open {
            for s in w.phase.samples.iter().filter(|s| keep(s.req as usize)) {
                let ms = if s.latency.is_nan() {
                    f64::INFINITY
                } else {
                    f64::from(s.latency) * 1e3
                };
                t.push(s.req as usize, ms, w.slowness);
            }
        }
        t
    }

    /// How late the generator sent its open-loop requests (ms).
    pub fn lags_ms(&self) -> Vec<f64> {
        self.open
            .iter()
            .flat_map(|w| w.phase.samples.iter().map(|s| f64::from(s.lag) * 1e3))
            .collect()
    }
}

/// The end-to-end metrics every workload reports the same way: set-up time,
/// closed-loop throughput and typical latency, adjusted to the reference
/// host, and peak memory. The same timings as measured, the host's
/// slowness and the pooled latency percentiles are printed as extras
/// without bounds.
pub fn end_to_end(out: &mut Outcome, setups: &Timed, m: &Measured, latency_ms: &Timed) {
    let mut lat = latency_ms.adjusted();
    out.metric("setup_s", median(&mut setups.adjusted()));
    out.metric("ops_per_s", m.throughput());
    out.metric("latency_p50_gmean_ms", latency_ms.typical(lat.clone()));
    out.metric("peak_rss_mb", crate::report::peak_rss_mb());
    out.extra("latency_p50_ms", percentile(&mut lat, 0.50), "ms");
    out.extra("latency_p95_ms", percentile(&mut lat, 0.95), "ms");
    out.extra("latency_samples", lat.len() as f64, "count");
    out.extra("host_slowness", m.slowness(), "ratio");
    out.extra("raw.setup_s", median(&mut setups.raw()), "s");
    out.extra("raw.ops_per_s", m.raw_throughput(), "op/s");
    out.extra(
        "raw.latency_p50_gmean_ms",
        latency_ms.typical(latency_ms.raw()),
        "ms",
    );
}

/// How late the generator sent its open-loop requests, at p99 (ms). Above
/// 1 ms a run's latencies include the generator's own lateness.
pub fn gen_lag(out: &mut Outcome, lags_ms: &mut [f64], trace: bool) {
    let p99 = percentile(lags_ms, 0.99);
    if trace {
        out.metric("bench.gen_lag_p99_ms", p99);
    } else {
        out.extra("gen_lag_p99_ms", p99, "ms");
    }
    if p99 > 1.0 {
        out.warn(format!(
            "generator ran {p99:.3} ms late at p99 (limit 1 ms): latencies are suspect"
        ));
    }
}

/// The per-layer metrics every workload reports the same way: span self
/// times from `tracer`, and the `ls-obs` registry the program filled while
/// tracing was on.
pub fn per_layer(out: &mut Outcome, tracer: &Tracer, m: &Measured) {
    out.metric("bench.unattributed_frac", tracer.self_frac("op"));
    for metric in crate::report::PER_LAYER {
        if let Some(span) = metric.name.strip_suffix(".self_frac") {
            out.metric(metric.name, tracer.self_frac(span));
        }
    }
    let ops = tracer.ops().max(1) as f64;
    let total = tracer.total().max(1e-12);
    let hist = |name: &'static str| ls_obs::histogram(name).stats();
    for (metric, name) in [
        ("nn.forward.busy_frac", "nn.forward"),
        ("nn.backward.busy_frac", "nn.backward"),
        ("relational.evaluate.busy_frac", "relational.evaluate"),
        ("provenance.compile.busy_frac", "provenance.compile"),
        ("shapley.exact.busy_frac", "shapley.exact"),
        ("circuit.sampler.busy_frac", "circuit.sampler"),
        ("similarity.matrix.busy_frac", "similarity.matrix"),
        ("serve.feedback.append.busy_frac", "serve.feedback.append"),
    ] {
        out.metric(metric, hist(name).sum / total);
    }
    // Pool workers' busy time over the time the pool could have worked:
    // every pool thread through every traced second.
    out.metric(
        "par.worker_busy_frac",
        hist("par.worker.busy").sum / (ls_par::threads() as f64 * m.traced_secs().max(1e-9)),
    );
    let forwards = hist("nn.forward").count as f64;
    let flops = ls_obs::meter("kernel.flops").count() as f64;
    let tokens = ls_obs::meter("nn.tokens").count() as f64;
    let bytes = flops
        * gemm_bytes_per_flop(if forwards > 0.0 {
            tokens / forwards
        } else {
            0.0
        });
    out.metric("kernel.flops_per_op", flops / ops);
    out.metric("kernel.bytes_per_op", bytes / ops);
    out.metric("nn.forwards_per_op", forwards / ops);
    out.metric(
        "nn.backwards_per_op",
        hist("nn.backward").count as f64 / ops,
    );
    let c = |name: &'static str| ls_obs::counter(name).get() as f64;
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    out.metric(
        "serve.cache_hit_ratio",
        ratio(c("serve.cache_hit"), c("serve.cache_miss")),
    );
    out.metric("serve.batch_items_mean", hist("serve.batch_items").mean);
    out.metric(
        "serve.shed",
        c("serve.shed_overload") + c("serve.shed_deadline"),
    );
    out.metric("tier.exact.count", c("serve.tier.exact"));
    out.metric("tier.learned.count", c("serve.tier.learned"));
    out.metric("tier.sampled.count", c("serve.tier.sampled"));
    out.metric("circuit.compiles", c("circuit.store.misses"));
    out.metric(
        "circuit.store_hit_ratio",
        ratio(
            c("circuit.store.mem_hits") + c("circuit.store.disk_hits"),
            c("circuit.store.misses"),
        ),
    );
    out.metric("wal.fsyncs", c("wal.fsyncs"));
    out.metric(
        "core.online.records_trained",
        c("core.online.records_trained"),
    );
    out.metric("trace.overhead_frac", m.trace_overhead());

    // The same layers in the units the program records them in, for
    // people reading one run (not in BENCHMARK.json: a layer a workload
    // does not use would read 0 on every run).
    out.extra("kernel.flops", flops, "count");
    out.extra("kernel.bytes", bytes, "B");
    let facts = c("serve.facts_scored");
    if facts > 0.0 {
        out.extra(
            "core.score_per_fact_us",
            hist("serve.worker.chunk").sum / facts * 1e6,
            "us",
        );
    }
    for (extra, name, scale, unit) in [
        ("nn.forward_ms", "nn.forward", 1e3, "ms"),
        ("nn.backward_ms", "nn.backward", 1e3, "ms"),
        ("core.pretrain.epoch_s", "core.pretrain.epoch", 1.0, "s"),
        ("core.finetune.epoch_s", "core.finetune.epoch", 1.0, "s"),
        ("relational.evaluate_ms", "relational.evaluate", 1e3, "ms"),
        ("provenance.compile_ms", "provenance.compile", 1e3, "ms"),
        ("shapley.exact_ms", "shapley.exact", 1e3, "ms"),
        ("dbshap.build_ms", "dbshap.build", 1e3, "ms"),
        ("similarity.matrix_ms", "similarity.matrix", 1e3, "ms"),
    ] {
        let s = hist(name);
        if s.count > 0 {
            out.extra(extra, s.mean * scale, unit);
        }
    }
    let append = hist("serve.feedback.append");
    if append.count > 0 {
        out.extra("serve.feedback.append_us.p50", append.p50 * 1e6, "us");
        out.extra("serve.feedback.append_us.p99", append.p99 * 1e6, "us");
    }
    for (extra, span) in [
        ("serve.stage.probe_ms", "serve.probe"),
        ("serve.stage.queue_ms", "serve.queue"),
        ("serve.stage.batch_ms", "serve.batch"),
        ("serve.stage.score_ms", "serve.score"),
        ("serve.stage.other_ms", "serve.other"),
        ("tier.exact_ms", "tier.exact"),
        ("tier.sampled_ms", "tier.sampled"),
    ] {
        let mut d = tracer.durations(span);
        if !d.is_empty() {
            out.extra(format!("{extra}.p50"), percentile(&mut d, 0.50) * 1e3, "ms");
            out.extra(format!("{extra}.p99"), percentile(&mut d, 0.99) * 1e3, "ms");
        }
    }
    for (extra, span) in [
        ("proto.encode_ns", "wire.encode"),
        ("proto.decode_ns", "wire.decode"),
    ] {
        let d = tracer.durations(span);
        if !d.is_empty() {
            out.extra(extra, d.iter().sum::<f64>() / d.len() as f64 * 1e9, "ns");
        }
    }
}

/// Bytes a GEMM reads and writes per floating-point operation, computed for
/// one LS-base encoder layer over `tokens` tokens: every operand and result
/// moved once (f32), per projection, attention product and FFN product. A
/// computed estimate from tensor shapes, not a measurement.
fn gemm_bytes_per_flop(tokens: f64) -> f64 {
    if tokens <= 0.0 {
        return 0.0;
    }
    let cfg = ls_core::EncoderKind::Base.config(1, inputs::MAX_LEN);
    let (t, d, f, h) = (
        tokens,
        cfg.d_model as f64,
        cfg.ff_dim as f64,
        cfg.heads as f64,
    );
    let dh = d / h;
    let mut shapes = vec![(t, d, d); 4];
    for _ in 0..cfg.heads {
        shapes.push((t, dh, t));
        shapes.push((t, t, dh));
    }
    shapes.push((t, d, f));
    shapes.push((t, f, d));
    let bytes: f64 = shapes
        .iter()
        .map(|&(n, k, m)| 4.0 * (n * k + k * m + n * m))
        .sum();
    let flops: f64 = shapes.iter().map(|&(n, k, m)| 2.0 * n * k * m).sum();
    bytes / flops
}

/// Wire bytes per request (0 for workloads that do not use the wire).
pub fn wire_bytes(out: &mut Outcome, bytes_out: usize, bytes_in: usize, n: usize) {
    let n = n.max(1) as f64;
    out.metric("wire.bytes_out_per_req", bytes_out as f64 / n);
    out.metric("wire.bytes_in_per_req", bytes_in as f64 / n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_time_is_the_geometric_mean_of_request_medians() {
        // Two requests of 1 ms and 4 ms, each sent in three windows: a calm
        // one, one on a host twice as slow, and one where a burst held the
        // second request up to 40 ms.
        let mut t = Timed::default();
        for (req, ms, slowness) in [
            (0, 1.0, 1.0),
            (1, 4.0, 1.0),
            (0, 2.0, 2.0),
            (1, 8.0, 2.0),
            (0, 1.0, 1.0),
            (1, 40.0, 1.0),
        ] {
            t.push(req, ms, slowness);
        }
        // Adjusted, each request's median is its calm time: sqrt(1 * 4).
        assert!((t.typical(t.adjusted()) - 2.0).abs() < 1e-12);
        // As measured, the slow host's 8 ms is the second one's median.
        assert!((t.typical(t.raw()) - 8f64.sqrt()).abs() < 1e-12);
        assert!(Timed::default().typical(Vec::new()).is_nan());
    }
}
