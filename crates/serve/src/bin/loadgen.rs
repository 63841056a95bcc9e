//! serve-loadgen — closed-loop load generator for the ls-serve subsystem.
//!
//! Builds a synthetic movie database, trains nothing (a freshly initialized
//! small-ablation model is representative for *throughput*: inference cost
//! does not depend on the weight values), persists the model, loads it back
//! through the serving path, and drives it with closed-loop clients.
//!
//! Reported per configuration: requests served, shed counts, throughput
//! (req/s and facts/s) and exact p50/p99/p99.9/max latency from the full
//! sample set.
//!
//! ```text
//! serve-loadgen [--workers 1,2,4] [--clients 4] [--requests 200]
//!               [--queue 256] [--batch 64] [--cache 1024] [--cache-off]
//!               [--lineage 12] [--queries 24] [--serial] [--tcp]
//!               [--seed 7] [--max-len 64] [--fault] [--fault-seed 42]
//!               [--trace-sample N] [--assert-overhead PCT]
//! ```
//!
//! `--serial` adds a single-threaded `rank_lineage` baseline pass over the
//! same request stream; `--tcp` routes one configuration through the TCP
//! front-end to include protocol cost; `--fault` adds a chaos configuration:
//! a seeded fault plan injects scoring errors and panics while the circuit
//! breaker degrades to the uniform fallback, reporting degraded/failed
//! counts, degraded-mode throughput, and breaker recovery latency.
//!
//! `--feedback` adds an online-learning configuration: the server runs with
//! the feedback WAL + trainer enabled while a dedicated writer streams
//! feedback records alongside the rank closed loop, reporting rank latency
//! with training active, feedback append p50/p99, and how far the trainer
//! got (records trained, snapshots published + hot-swapped).
//!
//! `--trace-sample N` attaches a fresh `TraceContext` to every request, and
//! after each traced pass prints (a) the per-stage attribution of the p99
//! tail cohort ("p99 is 78% queue wait") and (b) N full stage-breakdown
//! samples. `--assert-overhead PCT` runs the warm-cache pass twice — tracing
//! off, then tracing on — and exits nonzero if the traced pass loses more
//! than PCT percent throughput. `--listen HOST:PORT` keeps a warm TCP
//! server alive after the runs so `obsctl` can introspect a live process.
//!
//! ## Connection sweep (`--connections`)
//!
//! `--connections 1000,5000,10000` drives the event-loop front-end with N
//! concurrent connections from a single nonblocking client loop (one fd per
//! connection, multiplexed over the same `Poller` the server uses, each
//! opened with the protocol hello). The sweep *verifies* every
//! response: a warmup pass captures the server's answer for each distinct
//! request, and every sweep response must match it bit-for-bit (f64 score
//! bits and ranking) under the id it was issued with — one mixed, dropped,
//! or corrupted response fails the process. Typed `Overloaded` answers
//! count as shed, not drops: graceful overload is the contract, silence is
//! not. `--open-loop RPS` switches arrivals from closed-loop (one in flight
//! per connection) to a paced open loop that issues globally at the target
//! rate regardless of completions, pipelining onto connections round-robin.
//! `--connect HOST:PORT` points the sweep at an already-running
//! `--listen` process (same `--seed`/`--queries`/`--lineage` so the fact
//! ids resolve), splitting client and server across processes when one
//! process's fd limit cannot hold both sides of 10k sockets. The process
//! raises its own `RLIMIT_NOFILE` soft limit to the hard limit at sweep
//! start. `--sweep-requests N` overrides the per-configuration request
//! count (default: enough to cycle every connection at least four times).

use ls_core::{
    save_model, FeedbackRecord, LearnShapleyModel, OnlineConfig, OnlineTrainer, Tokenizer,
    UniformFallback,
};
use ls_fault::{FaultKind, FaultPlan, FaultRule, FaultSpec};
use ls_nn::EncoderConfig;
use ls_relational::{ColType, Database, FactId, OutputTuple, TableSchema, Value};
use ls_serve::{
    proto, Event, Interest, ModelBundle, OnlineOptions, Poller, RankRequest, RankResponse,
    RetryPolicy, ServeConfig, ServeError, Server, StageBreakdown, TcpRankClient, TcpServer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Args {
    workers: Vec<usize>,
    clients: usize,
    requests: usize,
    queue: usize,
    batch: usize,
    cache: usize,
    lineage: usize,
    queries: usize,
    max_len: usize,
    seed: u64,
    serial: bool,
    tcp: bool,
    fault: bool,
    fault_seed: u64,
    feedback: bool,
    trace_sample: usize,
    assert_overhead: Option<f64>,
    listen: Option<String>,
    connections: Vec<usize>,
    open_loop: Option<f64>,
    sweep_requests: Option<usize>,
    connect: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workers: vec![1, 2, 4],
            clients: 4,
            requests: 200,
            queue: 256,
            batch: 64,
            cache: 1024,
            lineage: 12,
            queries: 24,
            max_len: 64,
            seed: 7,
            serial: false,
            tcp: false,
            fault: false,
            fault_seed: 42,
            feedback: false,
            trace_sample: 0,
            assert_overhead: None,
            listen: None,
            connections: Vec::new(),
            open_loop: None,
            sweep_requests: None,
            connect: None,
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = || {
            it.next()
                .unwrap_or_else(|| panic!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--workers" => {
                args.workers = take()
                    .split(',')
                    .map(|w| w.parse().expect("worker count"))
                    .collect();
            }
            "--clients" => args.clients = take().parse().expect("client count"),
            "--requests" => args.requests = take().parse().expect("request count"),
            "--queue" => args.queue = take().parse().expect("queue depth"),
            "--batch" => args.batch = take().parse().expect("batch items"),
            "--cache" => args.cache = take().parse().expect("cache capacity"),
            "--cache-off" => args.cache = 0,
            "--lineage" => args.lineage = take().parse().expect("lineage size"),
            "--queries" => args.queries = take().parse().expect("query count"),
            "--max-len" => args.max_len = take().parse().expect("max len"),
            "--seed" => args.seed = take().parse().expect("seed"),
            "--serial" => args.serial = true,
            "--tcp" => args.tcp = true,
            "--fault" => args.fault = true,
            "--fault-seed" => args.fault_seed = take().parse().expect("fault seed"),
            "--feedback" => args.feedback = true,
            "--trace-sample" => args.trace_sample = take().parse().expect("trace sample count"),
            "--assert-overhead" => {
                args.assert_overhead = Some(take().parse().expect("overhead percent"));
            }
            "--listen" => args.listen = Some(take()),
            "--connections" => {
                args.connections = take()
                    .split(',')
                    .map(|c| c.parse().expect("connection count"))
                    .collect();
            }
            "--open-loop" => args.open_loop = Some(take().parse().expect("open-loop rate")),
            "--sweep-requests" => {
                args.sweep_requests = Some(take().parse().expect("sweep request count"));
            }
            "--connect" => args.connect = Some(take()),
            "--help" | "-h" => {
                println!(
                    "serve-loadgen [--workers 1,2,4] [--clients N] [--requests N] \
                     [--queue N] [--batch N] [--cache N | --cache-off] [--lineage N] \
                     [--queries N] [--max-len N] [--seed N] [--serial] [--tcp] \
                     [--fault] [--fault-seed N] [--feedback] [--trace-sample N] \
                     [--assert-overhead PCT] [--listen HOST:PORT] \
                     [--connections N,N,...] [--open-loop RPS] \
                     [--sweep-requests N] [--connect HOST:PORT]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// A synthetic movie database big enough that lineages reference varied rows.
fn build_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "movies",
        &[
            ("title", ColType::Str),
            ("year", ColType::Int),
            ("rating", ColType::Int),
        ],
    ));
    db.create_table(TableSchema::new(
        "directors",
        &[("name", ColType::Str), ("movie", ColType::Str)],
    ));
    let words = [
        "night", "garden", "iron", "silent", "echo", "crimson", "paper", "glass", "winter",
        "harbor", "atlas", "ember", "valley", "signal", "orbit", "meadow",
    ];
    let names = [
        "Avery", "Blake", "Casey", "Devon", "Ellis", "Finley", "Gray", "Harper", "Indira", "Jules",
        "Kiran", "Lane",
    ];
    for i in 0..400 {
        let title = format!(
            "{} {} {}",
            words[rng.gen_range(0..words.len())],
            words[rng.gen_range(0..words.len())],
            i
        );
        let year = 1970 + rng.gen_range(0..55) as i64;
        let rating = rng.gen_range(1..11) as i64;
        db.insert(
            "movies",
            vec![
                Value::Str(title.clone()),
                Value::Int(year),
                Value::Int(rating),
            ],
        );
        if i % 4 == 0 {
            db.insert(
                "directors",
                vec![
                    Value::Str(names[rng.gen_range(0..names.len())].to_string()),
                    Value::Str(title),
                ],
            );
        }
    }
    db
}

/// The request stream: distinct (query, tuple, lineage) triples cycled by
/// the closed-loop clients. Cycling is what makes the warm pass hit the
/// cache.
fn build_requests(db: &Database, args: &Args, rng: &mut StdRng) -> Vec<RankRequest> {
    let fact_count = db.fact_count() as u32;
    (0..args.queries)
        .map(|qi| {
            let year = 1975 + (qi % 40) as i64;
            let query_sql = format!(
                "SELECT title, rating FROM movies WHERE year >= {year} AND rating > {}",
                qi % 9
            );
            let tuple = OutputTuple {
                values: vec![
                    Value::Str(format!("title {qi}")),
                    Value::Int((qi % 10) as i64),
                ],
                derivations: Vec::new(),
            };
            // Distinct facts: duplicates would collapse in FactScores and
            // shrink the ranking.
            let mut lineage = Vec::with_capacity(args.lineage);
            while lineage.len() < args.lineage.min(fact_count as usize) {
                let f = FactId(rng.gen_range(0..fact_count));
                if !lineage.contains(&f) {
                    lineage.push(f);
                }
            }
            RankRequest {
                query_sql,
                tuple,
                lineage,
                deadline: None,
                slo: None,
            }
        })
        .collect()
}

#[derive(Debug, Default)]
struct RunStats {
    served: usize,
    shed: usize,
    cached: usize,
    /// Responses answered by the fallback scorer with the breaker open.
    degraded: usize,
    /// Requests that ended in a typed Internal error (injected faults).
    failed: usize,
    latencies: Vec<Duration>,
    wall: Duration,
    facts: usize,
    /// Per-stage breakdowns of traced (non-cache-hit) responses.
    stages: Vec<StageBreakdown>,
}

impl RunStats {
    fn throughput(&self) -> f64 {
        self.served as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn report(&mut self, label: &str) {
        self.latencies.sort();
        let pct = |p: f64| -> Duration {
            if self.latencies.is_empty() {
                return Duration::ZERO;
            }
            let idx = ((self.latencies.len() as f64 - 1.0) * p).round() as usize;
            self.latencies[idx]
        };
        let secs = self.wall.as_secs_f64().max(1e-9);
        let chaos = if self.degraded > 0 || self.failed > 0 {
            format!("  degraded {:>5}  failed {:>4}", self.degraded, self.failed)
        } else {
            String::new()
        };
        println!(
            "{label:<28} served {:>6}  shed {:>4}  cached {:>6}  {:>9.1} req/s  {:>10.0} facts/s  p50 {:>9.3?}  p99 {:>9.3?}  p99.9 {:>9.3?}  max {:>9.3?}{chaos}",
            self.served,
            self.shed,
            self.cached,
            self.served as f64 / secs,
            self.facts as f64 / secs,
            pct(0.50),
            pct(0.99),
            pct(0.999),
            self.latencies.last().copied().unwrap_or(Duration::ZERO),
        );
    }

    /// Attribute the p99 tail to its dominant stage and dump `sample` full
    /// breakdowns — the "p99 is 78% queue wait" line the tracing work exists
    /// to produce.
    fn report_stages(&mut self, sample: usize) {
        if self.stages.is_empty() {
            return;
        }
        self.stages.sort_by_key(|b| b.total_us);
        let p99_idx = ((self.stages.len() as f64 - 1.0) * 0.99).round() as usize;
        let cohort = &self.stages[p99_idx..];
        let sums = cohort.iter().fold([0u64; 6], |mut acc, b| {
            for (slot, v) in acc.iter_mut().zip([
                b.probe_us, b.queue_us, b.batch_us, b.score_us, b.other_us, b.total_us,
            ]) {
                *slot += v;
            }
            acc
        });
        let total = sums[5].max(1);
        let named = [
            ("probe", sums[0]),
            ("queue wait", sums[1]),
            ("batch assembly", sums[2]),
            ("score", sums[3]),
            ("other", sums[4]),
        ];
        let (dominant, dominant_us) = named
            .iter()
            .max_by_key(|(_, us)| *us)
            .copied()
            .unwrap_or(("other", 0));
        let pct_of = |us: u64| 100.0 * us as f64 / total as f64;
        println!(
            "  p99 tail ({} traced requests): p99 is {:.0}% {dominant}  \
             [probe {:.0}%  queue {:.0}%  batch {:.0}%  score {:.0}%  other {:.0}%]",
            cohort.len(),
            pct_of(dominant_us),
            pct_of(sums[0]),
            pct_of(sums[1]),
            pct_of(sums[2]),
            pct_of(sums[3]),
            pct_of(sums[4]),
        );
        // Full breakdowns, slowest first.
        for b in self.stages.iter().rev().take(sample) {
            println!(
                "    trace sample: total {:>7}us = probe {:>5}us + queue {:>6}us + \
                 batch {:>5}us + score {:>6}us + other {:>5}us",
                b.total_us, b.probe_us, b.queue_us, b.batch_us, b.score_us, b.other_us
            );
        }
    }

    fn merge(&mut self, local: RunStats) {
        self.served += local.served;
        self.shed += local.shed;
        self.cached += local.cached;
        self.degraded += local.degraded;
        self.failed += local.failed;
        self.facts += local.facts;
        self.latencies.extend(local.latencies);
        self.stages.extend(local.stages);
    }
}

/// Closed-loop client pass: `clients` threads pull the next request index
/// from a shared counter until `total` requests have been issued.
fn drive(
    handle: &ls_serve::ServeHandle,
    requests: &[RankRequest],
    clients: usize,
    total: usize,
    traced: bool,
) -> RunStats {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let stats = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut local = RunStats::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let req = requests[i % requests.len()].clone();
                        let facts = req.lineage.len();
                        // A fresh root per request: the guard keeps the
                        // context attached for the duration of the call.
                        let _trace = traced.then(|| ls_obs::TraceContext::root().attach());
                        let t0 = Instant::now();
                        match handle.rank(req) {
                            Ok(resp) => {
                                local.served += 1;
                                local.facts += facts;
                                local.latencies.push(t0.elapsed());
                                if resp.cached {
                                    local.cached += 1;
                                }
                                if resp.degraded {
                                    local.degraded += 1;
                                }
                                if let Some(b) = resp.stages {
                                    local.stages.push(b);
                                }
                            }
                            Err(ServeError::Overloaded | ServeError::DeadlineExceeded) => {
                                local.shed += 1;
                            }
                            Err(ServeError::Internal(_)) => local.failed += 1,
                            Err(e) => panic!("unexpected serve error: {e}"),
                        }
                    }
                    local
                })
            })
            .collect();
        let mut merged = RunStats::default();
        for h in handles {
            merged.merge(h.join().expect("client thread"));
        }
        merged
    });
    let mut stats = stats;
    stats.wall = start.elapsed();
    stats
}

fn main() {
    let args = parse_args();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let db = build_db(&mut rng);
    let requests = build_requests(&db, &args, &mut rng);

    // Client-only mode: drive the sweep against an already-running
    // `--listen` process. The request stream is rebuilt deterministically
    // from the same seed, so fact ids resolve on the remote side; no local
    // model or server is needed.
    if let Some(addr) = args.connect.clone() {
        let conns = if args.connections.is_empty() {
            vec![args.clients]
        } else {
            args.connections.clone()
        };
        let ok = run_sweep(&args, &requests, &addr, &conns);
        ls_obs::report();
        std::process::exit(if ok { 0 } else { 1 });
    }

    // Tokenizer over the request corpus plus rendered facts, mirroring how
    // the pipeline builds vocabulary from training text.
    let mut corpus: Vec<String> = requests.iter().map(|r| r.query_sql.clone()).collect();
    for f in 0..db.fact_count() {
        if let Some((table, row)) = db.fact(FactId(f as u32)) {
            corpus.push(format!("{table} {}", row.tuple_string()));
        }
    }
    let tokenizer = Tokenizer::build(corpus.iter().map(String::as_str), 2000);
    let mut model = LearnShapleyModel::new(EncoderConfig::small_ablation(
        tokenizer.vocab_size(),
        args.max_len,
    ));

    // Persist and reload through the serving path, so loadgen also exercises
    // the snapshot format end to end.
    let dir = std::env::temp_dir().join(format!("ls-serve-loadgen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let snapshot = dir.join("model.lsmd");
    save_model(&mut model, &tokenizer, &snapshot).expect("save model");
    drop(model);
    let bundle =
        Arc::new(ModelBundle::load(&snapshot, db, args.max_len).expect("load model snapshot"));

    println!(
        "serve-loadgen: {} queries x lineage {} ({} facts/request), {} clients, {} requests/run",
        args.queries, args.lineage, args.lineage, args.clients, args.requests
    );

    if args.serial {
        // Single-threaded baseline through the plain library path.
        let start = Instant::now();
        let mut stats = RunStats::default();
        for i in 0..args.requests {
            let req = &requests[i % requests.len()];
            let t0 = Instant::now();
            let ranking = ls_core::rank_lineage(
                &bundle.model,
                &bundle.tokenizer,
                &bundle.db,
                &req.query_sql,
                &req.tuple,
                &req.lineage,
                bundle.max_len,
            );
            assert_eq!(ranking.len(), req.lineage.len());
            stats.served += 1;
            stats.facts += req.lineage.len();
            stats.latencies.push(t0.elapsed());
        }
        stats.wall = start.elapsed();
        stats.report("serial rank_lineage");
    }

    for &workers in &args.workers {
        let cfg = ServeConfig {
            workers,
            queue_depth: args.queue,
            max_batch_items: args.batch,
            batch_deadline: Duration::from_micros(500),
            cache_capacity: args.cache,
            default_deadline: None,
            ..Default::default()
        };
        let server = Server::start(bundle.clone(), cfg);
        let handle = server.handle();
        let traced = args.trace_sample > 0;
        let mut cold = drive(&handle, &requests, args.clients, args.requests, traced);
        cold.report(&format!("serve w={workers} cold"));
        cold.report_stages(args.trace_sample);
        if args.cache > 0 {
            let mut warm = drive(&handle, &requests, args.clients, args.requests, traced);
            warm.report(&format!("serve w={workers} warm"));
            warm.report_stages(args.trace_sample);
        }
        server.shutdown();
    }

    if let Some(bound) = args.assert_overhead {
        run_overhead(&args, &bundle, &requests, bound);
    }

    if args.tcp {
        let workers = *args.workers.last().unwrap_or(&2);
        let server = Server::start(
            bundle.clone(),
            ServeConfig {
                workers,
                queue_depth: args.queue,
                max_batch_items: args.batch,
                cache_capacity: args.cache,
                ..Default::default()
            },
        );
        let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind tcp");
        let addr = tcp.local_addr();
        let start = Instant::now();
        let next = AtomicUsize::new(0);
        let mut stats = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..args.clients)
                .map(|_| {
                    let next = &next;
                    let requests = &requests;
                    scope.spawn(move || {
                        let mut client = TcpRankClient::connect(addr).expect("connect");
                        let mut local = RunStats::default();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= args.requests {
                                break;
                            }
                            let req = &requests[i % requests.len()];
                            let t0 = Instant::now();
                            match client.rank(req) {
                                Ok(resp) => {
                                    local.served += 1;
                                    local.facts += req.lineage.len();
                                    local.latencies.push(t0.elapsed());
                                    if resp.cached {
                                        local.cached += 1;
                                    }
                                }
                                Err(ServeError::Overloaded | ServeError::DeadlineExceeded) => {
                                    local.shed += 1
                                }
                                Err(e) => panic!("tcp error: {e}"),
                            }
                        }
                        local
                    })
                })
                .collect();
            let mut merged = RunStats::default();
            for h in handles {
                merged.merge(h.join().expect("tcp client thread"));
            }
            merged
        });
        stats.wall = start.elapsed();
        stats.report(&format!("serve w={workers} tcp"));
        tcp.stop();
        server.shutdown();
    }

    if args.fault {
        run_fault(&args, &bundle, &requests);
    }

    if args.feedback {
        run_feedback(&args, &bundle, &requests);
    }

    let mut sweep_ok = true;
    if !args.connections.is_empty() {
        // In-process sweep: client and server share this fd table, so each
        // connection costs two descriptors — the rlimit raise below covers
        // both sides. For counts the local hard limit cannot hold, split
        // processes with `--listen` + `--connect`.
        let workers = *args.workers.last().unwrap_or(&2);
        let server = Server::start(
            bundle.clone(),
            ServeConfig {
                workers,
                queue_depth: args.queue,
                max_batch_items: args.batch,
                cache_capacity: args.cache.max(requests.len()),
                ..Default::default()
            },
        );
        let tcp = TcpServer::start(server.handle(), "127.0.0.1:0").expect("bind sweep server");
        let addr = tcp.local_addr().to_string();
        let conns = args.connections.clone();
        sweep_ok = run_sweep(&args, &requests, &addr, &conns);
        tcp.stop();
        server.shutdown();
    }

    let _ = std::fs::remove_dir_all(&dir);

    if !sweep_ok {
        ls_obs::report();
        std::process::exit(1);
    }

    // Interactive mode: keep a warm server on `addr` after the runs so
    // `obsctl` (or any rank client) can poke at a live process.
    if let Some(addr) = &args.listen {
        let workers = *args.workers.last().unwrap_or(&2);
        let server = Server::start(
            bundle.clone(),
            ServeConfig {
                workers,
                queue_depth: args.queue,
                max_batch_items: args.batch,
                cache_capacity: args.cache,
                ..Default::default()
            },
        );
        let tcp = TcpServer::start(server.handle(), addr.as_str()).expect("bind listen addr");
        println!(
            "listening on {} (rank + admin frames; Ctrl-C to stop)",
            tcp.local_addr()
        );
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }

    // Flush the metric summary / JSONL sink (LS_OBS, LS_OBS_JSONL).
    ls_obs::report();
}

/// Tracing-overhead bound: drive the same warm-cache configuration with
/// tracing off and on, and fail the process if the traced pass loses more
/// than `bound` percent throughput. Each mode takes the best of three warm
/// passes so a scheduler hiccup cannot fail the bound on its own.
fn run_overhead(args: &Args, bundle: &Arc<ModelBundle>, requests: &[RankRequest], bound: f64) {
    let workers = *args.workers.last().unwrap_or(&2);
    let cfg = ServeConfig {
        workers,
        queue_depth: args.queue,
        max_batch_items: args.batch,
        batch_deadline: Duration::from_micros(500),
        cache_capacity: args.cache.max(1024),
        default_deadline: None,
        ..Default::default()
    };
    let server = Server::start(bundle.clone(), cfg);
    let handle = server.handle();
    // Fill the cache once, then measure.
    drive(&handle, requests, args.clients, args.requests, false);
    let best = |traced: bool| -> f64 {
        (0..3)
            .map(|_| drive(&handle, requests, args.clients, args.requests, traced).throughput())
            .fold(0.0f64, f64::max)
    };
    let base = best(false);
    let traced = best(true);
    server.shutdown();
    let overhead = 100.0 * (1.0 - traced / base.max(1e-9));
    println!(
        "tracing overhead (warm, w={workers}): off {base:.1} req/s, on {traced:.1} req/s, \
         overhead {overhead:.2}% (bound {bound}%)"
    );
    if overhead > bound {
        eprintln!("tracing overhead {overhead:.2}% exceeds bound {bound}%");
        std::process::exit(1);
    }
}

/// Chaos configuration: drive the server under a seeded fault plan that
/// injects scoring errors and panics, with the circuit breaker flipping to
/// the uniform fallback. Two measurements come out:
///
/// * **degraded throughput** — the closed-loop pass reports served /
///   degraded / failed counts and req/s exactly like the healthy runs, so
///   the cost of faults and fallback dispatch is directly comparable;
/// * **recovery latency** — a deterministic error burst trips the breaker,
///   then a single-threaded probe loop measures wall time from the first
///   degraded response until the model path answers at full fidelity again.
fn run_fault(args: &Args, bundle: &Arc<ModelBundle>, requests: &[RankRequest]) {
    let workers = *args.workers.last().unwrap_or(&2);
    let cooldown = Duration::from_millis(50);
    let cfg = ServeConfig {
        workers,
        queue_depth: args.queue,
        max_batch_items: args.batch,
        cache_capacity: 0, // every request must exercise the scoring path
        breaker_failures: 3,
        breaker_cooldown: cooldown,
        ..Default::default()
    };

    // Steady-state chaos: ~2% injected scoring errors, ~0.5% panics. The
    // schedule is fixed by --fault-seed, so a run is exactly replayable.
    let spec = FaultSpec::new()
        .rule(FaultRule::bernoulli(
            "serve.worker.score",
            FaultKind::Error,
            20,
        ))
        .rule(FaultRule::bernoulli(
            "serve.worker.score",
            FaultKind::Panic,
            5,
        ));
    let plan = Arc::new(FaultPlan::compile(args.fault_seed, &spec));
    let server = Server::start_with(
        bundle.clone(),
        cfg.clone(),
        plan.clone(),
        Some(Arc::new(UniformFallback)),
    );
    let handle = server.handle();
    let mut stats = drive(&handle, requests, args.clients, args.requests, false);
    stats.report(&format!("serve w={workers} fault"));
    println!(
        "  fault plan seed {}: {} faults fired during the closed loop",
        args.fault_seed,
        plan.fired()
    );
    server.shutdown();

    // Recovery latency: a deterministic burst of 3 consecutive scoring
    // errors opens the breaker; measure open -> first full-fidelity answer.
    let spec = FaultSpec::new().rule(FaultRule::at(
        "serve.worker.score",
        FaultKind::Error,
        &[0, 1, 2],
    ));
    let server = Server::start_with(
        bundle.clone(),
        cfg,
        Arc::new(FaultPlan::compile(args.fault_seed, &spec)),
        Some(Arc::new(UniformFallback)),
    );
    let handle = server.handle();
    let mut opened_at = None;
    let mut degraded_while_open = 0usize;
    let mut recovery = None;
    for i in 0..10_000 {
        let req = requests[i % requests.len()].clone();
        match handle.rank(req) {
            Ok(resp) if resp.degraded => {
                opened_at.get_or_insert_with(Instant::now);
                degraded_while_open += 1;
            }
            Ok(_) => {
                if let Some(at) = opened_at {
                    recovery = Some(at.elapsed());
                    break;
                }
            }
            Err(ServeError::Internal(_)) => {
                // The burst itself; the breaker opens after the third.
                opened_at.get_or_insert_with(Instant::now);
            }
            Err(e) => panic!("unexpected serve error: {e}"),
        }
    }
    match recovery {
        Some(d) => println!(
            "  breaker recovery: open -> full fidelity in {d:.3?} \
             ({degraded_while_open} degraded responses served while open, cooldown {cooldown:?})"
        ),
        None => println!("  breaker recovery: did not recover within the probe budget"),
    }
    server.shutdown();
}

/// Online-learning configuration: rank traffic and a feedback stream share
/// the server. One writer thread appends `requests` feedback records through
/// the WAL while the closed-loop clients rank; the trainer consumes, trains,
/// and hot-swaps published snapshots under that load. Reported: the rank
/// pass (so swap cost shows up in p50/p99 next to the healthy runs),
/// feedback append latency, and trainer progress.
fn run_feedback(args: &Args, bundle: &Arc<ModelBundle>, requests: &[RankRequest]) {
    let workers = *args.workers.last().unwrap_or(&2);
    let cfg = ServeConfig {
        workers,
        queue_depth: args.queue,
        max_batch_items: args.batch,
        batch_deadline: Duration::from_micros(500),
        cache_capacity: args.cache,
        default_deadline: None,
        ..Default::default()
    };
    let dir = std::env::temp_dir().join(format!("ls-serve-loadgen-online-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = OnlineOptions {
        wal_dir: dir.join("wal"),
        snapshot_dir: dir.join("snapshots"),
        publish_every: 64,
        poll: Duration::from_millis(2),
    };
    let online_cfg = OnlineConfig {
        batch: 16,
        lr: 1e-3,
        max_len: args.max_len,
        seed: args.seed,
    };
    let trainer = OnlineTrainer::new(
        LearnShapleyModel::new(EncoderConfig::small_ablation(
            bundle.tokenizer.vocab_size(),
            args.max_len,
        )),
        bundle.tokenizer.clone(),
        online_cfg,
    );

    let server = Server::start(bundle.clone(), cfg);
    let online = server
        .enable_online(trainer, opts)
        .expect("enable online engine");
    let handle = server.handle();

    // Feedback writer: one record per rank request, derived from the same
    // request stream so trained text matches served text.
    let records: Vec<FeedbackRecord> = (0..args.requests)
        .map(|i| {
            let req = &requests[i % requests.len()];
            FeedbackRecord {
                query_sql: req.query_sql.clone(),
                tuple_fact: format!("tuple {i} | fact {}", req.lineage[i % req.lineage.len()].0),
                target: (i % 100) as f32 / 100.0,
            }
        })
        .collect();
    let (mut stats, mut append_lat) = std::thread::scope(|scope| {
        let writer = {
            let handle = handle.clone();
            let records = &records;
            scope.spawn(move || {
                let mut lat = Vec::with_capacity(records.len());
                for rec in records {
                    let t0 = Instant::now();
                    handle.feedback(rec).expect("feedback append");
                    lat.push(t0.elapsed());
                }
                lat
            })
        };
        let stats = drive(&handle, requests, args.clients, args.requests, false);
        (stats, writer.join().expect("feedback writer"))
    });
    stats.report(&format!("serve w={workers} +feedback"));

    append_lat.sort();
    let pct = |p: f64| append_lat[((append_lat.len() as f64 - 1.0) * p).round() as usize];
    println!(
        "  feedback stream: {} records appended  p50 {:>9.3?}  p99 {:>9.3?}  max {:>9.3?}",
        append_lat.len(),
        pct(0.50),
        pct(0.99),
        append_lat.last().copied().unwrap_or(Duration::ZERO),
    );

    // Give the trainer one publish interval to catch up, then report how far
    // it got; shutdown() checkpoints and joins it either way.
    let deadline = Instant::now() + Duration::from_secs(10);
    while online.published_generation() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    println!(
        "  online trainer: appended {}  trained {}  published generation {}  model generation {}",
        online.appended(),
        online.trained(),
        online.published_generation(),
        handle.model_generation(),
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Connection sweep: N concurrent connections from one nonblocking client
// loop, with bit-exact verification of every response.
// ---------------------------------------------------------------------------

/// Raise this process's `RLIMIT_NOFILE` soft limit to its hard limit and
/// return the resulting soft limit. 10k-connection sweeps need ~1 fd per
/// connection client-side (2 with an in-process server); the default soft
/// limit of 1024 would otherwise fail the sweep at accept/connect time.
fn raise_nofile_limit() -> u64 {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    unsafe {
        let mut lim = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return 0;
        }
        if lim.cur < lim.max {
            let want = RLimit {
                cur: lim.max,
                max: lim.max,
            };
            if setrlimit(RLIMIT_NOFILE, &want) == 0 {
                return lim.max;
            }
        }
        lim.cur
    }
}

/// The reference answer for one distinct request, captured during warmup:
/// score f64 bits (exact equality, NaN-safe) plus the ranking.
struct Expected {
    score_bits: Vec<u64>,
    ranking: Vec<FactId>,
}

/// One connection of the sweep client.
struct SweepConn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    in_off: usize,
    outbuf: Vec<u8>,
    out_off: usize,
    /// id -> (request index, enqueue time) for every response still owed.
    inflight: HashMap<u64, (usize, Instant)>,
    registered: Interest,
    dead: bool,
}

impl SweepConn {
    fn desired_interest(&self) -> Interest {
        Interest {
            readable: true,
            writable: self.out_off < self.outbuf.len(),
        }
    }
}

/// Tallies for one connection-count sweep configuration.
#[derive(Default)]
struct SweepStats {
    served: usize,
    shed: usize,
    mismatched: usize,
    unknown_ids: usize,
    conn_failures: usize,
    latencies: Vec<Duration>,
    bytes_out: u64,
    bytes_in: u64,
}

/// Run the full sweep matrix against `addr`; returns false if any
/// configuration dropped, mixed, or corrupted a response.
fn run_sweep(args: &Args, requests: &[RankRequest], addr: &str, conns: &[usize]) -> bool {
    let limit = raise_nofile_limit();
    let max_conns = conns.iter().copied().max().unwrap_or(0);
    println!(
        "connection sweep: {addr}  connections {conns:?}  arrivals {}  fd soft limit {limit}",
        match args.open_loop {
            Some(r) => format!("open-loop {r} req/s"),
            None => "closed-loop (1 in flight per connection)".to_string(),
        },
    );
    if (max_conns as u64) + 64 > limit {
        eprintln!(
            "sweep error: {max_conns} connections will not fit under fd limit {limit}; \
             raise ulimit -n or use --listen/--connect two-process mode"
        );
        return false;
    }

    // Warmup on a plain blocking client: capture the reference answer for
    // every distinct request (and fill the server's cache so the sweep
    // measures the serving path, not first-touch scoring).
    let expected = match capture_expected(addr, requests) {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("sweep warmup failed: {msg}");
            return false;
        }
    };
    let mut all_ok = true;
    for &n in conns {
        let total = args
            .sweep_requests
            .unwrap_or_else(|| args.requests.max(n * 4));
        match sweep_config(addr, n, total, args.open_loop, requests, &expected) {
            Ok((stats, wall)) => {
                let ok = report_sweep(n, total, stats, wall);
                all_ok &= ok;
            }
            Err(msg) => {
                eprintln!("sweep conns={n}: {msg}");
                all_ok = false;
            }
        }
    }
    all_ok
}

/// Blocking warmup pass: one answer per distinct request, with shed
/// responses retried (the reference must be a real answer).
fn capture_expected(addr: &str, requests: &[RankRequest]) -> Result<Vec<Expected>, String> {
    let mut client = TcpRankClient::connect_with(addr, RetryPolicy::default())
        .map_err(|e| format!("connect: {e}"))?;
    requests
        .iter()
        .map(|req| {
            for _ in 0..50 {
                match client.rank(req) {
                    Ok(resp) => {
                        return Ok(Expected {
                            score_bits: resp.scores.iter().map(|s| s.to_bits()).collect(),
                            ranking: resp.ranking,
                        })
                    }
                    Err(ServeError::Overloaded | ServeError::DeadlineExceeded) => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => return Err(format!("warmup rank: {e}")),
                }
            }
            Err("warmup rank: shed 50 times in a row".to_string())
        })
        .collect()
}

/// Drive one connection-count configuration and verify every byte that
/// comes back.
fn sweep_config(
    addr: &str,
    n_conns: usize,
    total: usize,
    open_loop: Option<f64>,
    requests: &[RankRequest],
    expected: &[Expected],
) -> Result<(SweepStats, Duration), String> {
    let mut poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    let mut conns: Vec<SweepConn> = Vec::with_capacity(n_conns);
    for i in 0..n_conns {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect #{i}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        // Negotiate while still blocking; the loop below only ever sees
        // length-prefixed frames.
        proto::negotiate(&mut stream).map_err(|e| format!("hello #{i}: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        poller
            .register(
                std::os::unix::io::AsRawFd::as_raw_fd(&stream),
                i as u64,
                Interest::READ,
            )
            .map_err(|e| format!("register: {e}"))?;
        conns.push(SweepConn {
            stream,
            inbuf: Vec::new(),
            in_off: 0,
            outbuf: Vec::new(),
            out_off: 0,
            inflight: HashMap::new(),
            registered: Interest::READ,
            dead: false,
        });
    }

    let mut stats = SweepStats::default();
    let mut issued = 0usize;
    let mut finished = 0usize; // responses accounted for (served + shed)
    let mut next_id = 1u64;
    let mut rr = 0usize;
    let start = Instant::now();
    let deadline = start + Duration::from_secs(180);

    // Prime the closed loop: one request in flight per connection.
    if open_loop.is_none() {
        for conn in conns.iter_mut() {
            if issued >= total {
                break;
            }
            enqueue(conn, requests, issued, next_id);
            issued += 1;
            next_id += 1;
        }
    }

    let mut events: Vec<Event> = Vec::new();
    while finished + stats.conn_failures.min(total) < total {
        if Instant::now() > deadline {
            let dropped = total - finished;
            return Err(format!(
                "timed out after {:?}: {dropped} responses never arrived \
                 (served {}, shed {})",
                start.elapsed(),
                stats.served,
                stats.shed
            ));
        }
        // Open-loop pacing: issue every request whose arrival time has come,
        // regardless of completions (pipelining round-robin across conns).
        if let Some(rate) = open_loop {
            let due = ((start.elapsed().as_secs_f64() * rate) as usize).min(total);
            while issued < due {
                let i = rr % n_conns;
                rr += 1;
                if conns[i].dead {
                    if conns.iter().all(|c| c.dead) {
                        return Err("every connection died".to_string());
                    }
                    continue;
                }
                enqueue(&mut conns[i], requests, issued, next_id);
                issued += 1;
                next_id += 1;
            }
        }
        // Flush what we queued, reconcile interest, then wait.
        for (i, conn) in conns.iter_mut().enumerate() {
            if conn.dead {
                continue;
            }
            if let Err(msg) = flush_conn(conn, &mut stats) {
                kill_conn(conn, &mut poller, &mut stats, &msg);
                continue;
            }
            let want = conn.desired_interest();
            if want != conn.registered {
                let fd = std::os::unix::io::AsRawFd::as_raw_fd(&conn.stream);
                if poller.modify(fd, i as u64, want).is_ok() {
                    conn.registered = want;
                }
            }
        }
        let timeout = if open_loop.is_some() {
            Duration::from_millis(1)
        } else {
            Duration::from_millis(100)
        };
        poller
            .wait(&mut events, Some(timeout))
            .map_err(|e| format!("poll wait: {e}"))?;
        for &ev in &events {
            let i = ev.token as usize;
            if i >= conns.len() || conns[i].dead {
                continue;
            }
            if ev.readable {
                if let Err(msg) = read_conn(&mut conns[i], expected, &mut stats, &mut finished) {
                    kill_conn(&mut conns[i], &mut poller, &mut stats, &msg);
                    continue;
                }
                // Closed loop: a completed response frees the slot.
                if open_loop.is_none() {
                    while conns[i].inflight.is_empty() && issued < total {
                        enqueue(&mut conns[i], requests, issued, next_id);
                        issued += 1;
                        next_id += 1;
                    }
                }
            }
            if ev.writable {
                if let Err(msg) = flush_conn(&mut conns[i], &mut stats) {
                    kill_conn(&mut conns[i], &mut poller, &mut stats, &msg);
                    continue;
                }
            }
        }
        // Closed loop with dead connections: reassign their quota so the
        // run still terminates (the failures are already counted).
        if open_loop.is_none() {
            for conn in conns.iter_mut() {
                if conn.dead || issued >= total {
                    continue;
                }
                if conn.inflight.is_empty() && conn.outbuf.len() == conn.out_off {
                    enqueue(conn, requests, issued, next_id);
                    issued += 1;
                    next_id += 1;
                }
            }
            if conns.iter().all(|c| c.dead) {
                return Err("every connection died".to_string());
            }
        }
    }
    Ok((stats, start.elapsed()))
}

/// Encode request `issued` under `id` into the connection's write buffer.
fn enqueue(conn: &mut SweepConn, requests: &[RankRequest], issued: usize, id: u64) {
    let req_idx = issued % requests.len();
    conn.outbuf
        .extend_from_slice(&proto::encode_binary_request(id, &requests[req_idx], None));
    conn.inflight.insert(id, (req_idx, Instant::now()));
}

/// Write as much buffered data as the socket accepts.
fn flush_conn(conn: &mut SweepConn, stats: &mut SweepStats) -> Result<(), String> {
    while conn.out_off < conn.outbuf.len() {
        match (&conn.stream).write(&conn.outbuf[conn.out_off..]) {
            Ok(0) => return Err("write: connection closed".to_string()),
            Ok(n) => {
                conn.out_off += n;
                stats.bytes_out += n as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("write: {e}")),
        }
    }
    if conn.out_off == conn.outbuf.len() {
        conn.outbuf.clear();
        conn.out_off = 0;
    }
    Ok(())
}

/// Drain readable bytes and verify every complete response frame.
fn read_conn(
    conn: &mut SweepConn,
    expected: &[Expected],
    stats: &mut SweepStats,
    finished: &mut usize,
) -> Result<(), String> {
    loop {
        let filled = conn.inbuf.len();
        conn.inbuf.resize(filled + 64 * 1024, 0);
        match (&conn.stream).read(&mut conn.inbuf[filled..]) {
            Ok(0) => {
                conn.inbuf.truncate(filled);
                return Err("read: server closed connection".to_string());
            }
            Ok(n) => {
                conn.inbuf.truncate(filled + n);
                stats.bytes_in += n as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                conn.inbuf.truncate(filled);
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                conn.inbuf.truncate(filled);
            }
            Err(e) => {
                conn.inbuf.truncate(filled);
                return Err(format!("read: {e}"));
            }
        }
    }
    loop {
        let avail = &conn.inbuf[conn.in_off..];
        if avail.len() < 4 {
            break;
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("sized")) as usize;
        if avail.len() < 4 + len {
            break;
        }
        let payload = &avail[4..4 + len];
        let (id, result) =
            proto::decode_binary_response(payload).map_err(|e| format!("decode: {e}"))?;
        match conn.inflight.remove(&id) {
            None => stats.unknown_ids += 1, // a response we never asked for
            Some((req_idx, t0)) => {
                *finished += 1;
                match result {
                    Ok(resp) => {
                        stats.latencies.push(t0.elapsed());
                        if response_matches(&resp, &expected[req_idx]) {
                            stats.served += 1;
                        } else {
                            stats.mismatched += 1;
                        }
                    }
                    Err(ServeError::Overloaded | ServeError::DeadlineExceeded) => {
                        stats.shed += 1;
                    }
                    Err(e) => return Err(format!("typed server error: {e}")),
                }
            }
        }
        conn.in_off += 4 + len;
    }
    if conn.in_off == conn.inbuf.len() {
        conn.inbuf.clear();
        conn.in_off = 0;
    } else if conn.in_off >= 64 * 1024 {
        conn.inbuf.drain(..conn.in_off);
        conn.in_off = 0;
    }
    Ok(())
}

fn response_matches(resp: &RankResponse, exp: &Expected) -> bool {
    resp.scores.len() == exp.score_bits.len()
        && resp
            .scores
            .iter()
            .zip(&exp.score_bits)
            .all(|(s, &b)| s.to_bits() == b)
        && resp.ranking == exp.ranking
}

/// Tear down a failed connection; its in-flight requests count as failures.
fn kill_conn(conn: &mut SweepConn, poller: &mut Poller, stats: &mut SweepStats, msg: &str) {
    if !conn.dead {
        eprintln!("sweep connection failed: {msg}");
        let _ = poller.deregister(std::os::unix::io::AsRawFd::as_raw_fd(&conn.stream));
        stats.conn_failures += conn.inflight.len().max(1);
        conn.inflight.clear();
        conn.dead = true;
    }
}

/// Print one sweep result row; returns whether the configuration was clean.
fn report_sweep(conns: usize, total: usize, mut stats: SweepStats, wall: Duration) -> bool {
    stats.latencies.sort();
    let pct = |p: f64| -> Duration {
        if stats.latencies.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((stats.latencies.len() as f64 - 1.0) * p).round() as usize;
        stats.latencies[idx]
    };
    let secs = wall.as_secs_f64().max(1e-9);
    let answered = (stats.served + stats.shed).max(1) as u64;
    println!(
        "sweep conns={conns:<6} served {:>7}  shed {:>5}  {:>9.1} req/s  \
         p50 {:>9.3?}  p99 {:>9.3?}  p99.9 {:>9.3?}  bytes/req out {:>5} in {:>5}",
        stats.served,
        stats.shed,
        stats.served as f64 / secs,
        pct(0.50),
        pct(0.99),
        pct(0.999),
        stats.bytes_out / answered,
        stats.bytes_in / answered,
    );
    let clean = stats.mismatched == 0 && stats.unknown_ids == 0 && stats.conn_failures == 0;
    if !clean {
        eprintln!(
            "sweep conns={conns}: VERIFICATION FAILED — \
             {} mismatched, {} unknown ids, {} connection failures (of {total} requests)",
            stats.mismatched, stats.unknown_ids, stats.conn_failures
        );
    }
    clean
}
