//! The `offline` workload: the paper's offline path with no serving layer.
//!
//! One operation is one offline job over a seeded query-log slice: build
//! the DBShap dataset for both schemas through a cold circuit store
//! (evaluate → lineage → d-DNNF compile → exact Shapley), rebuild it from
//! the persisted store, pretrain and fine-tune a fresh LS-base model on it,
//! and evaluate NDCG@10 on its test split. Operations cycle through
//! [`JOBS`] distinct jobs, each a measurement window of its own. Jobs run
//! back to back (a closed loop of one) and use the ls-par pool inside.

use crate::inputs::{self, sub_seed, MAX_LEN};
use crate::measure::{
    cycle, end_to_end, gen_lag, measure, per_layer, timed_setups, wire_bytes, Load, Opts, Timed,
};
use crate::pacer::{OpRec, RunClock, Target};
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{Spans, Tracer};
use ls_circuit::CircuitStore;
use ls_core::{
    build_pretrain_pairs, build_tokenizer, evaluate_model, finetune, pretrain, PretrainObjectives,
    TrainConfig,
};
use ls_dbshap::{
    academic_spec, generate_academic, generate_imdb, imdb_spec, similarity_matrices,
    AcademicConfig, Dataset, DatasetConfig, ImdbConfig, Split,
};
use ls_relational::Database;
use std::path::{Path, PathBuf};

/// Distinct jobs per seed. Job times vary with the queries a seed draws,
/// so the more jobs, the less a run's typical job time depends on the seed.
/// An odd number: a trace run traces every other job, and so each job in
/// every other cycle.
const JOBS: usize = 33;
/// Queries per schema in one job's log slice, and how much of each query's
/// output the dataset records.
const QUERIES: usize = 10;
const MAX_TUPLES: usize = 4;
const MAX_LINEAGE: usize = 25;
/// Per-epoch sample caps of the job's training (one epoch each).
const PRETRAIN_PAIRS: usize = 8;
const FINETUNE_SAMPLES: usize = 16;

/// The set-up's job; measured jobs are numbered from 0.
const WARM_JOB: u64 = 1 << 32;

/// What one job produced.
pub struct Job {
    /// The job's spans on the run clock.
    spans: Spans,
    /// `(build, rebuild, train)` seconds.
    phases: (f64, f64, f64),
    ndcg10: f64,
    samples: usize,
    problems: Vec<String>,
}

struct Dbs {
    academic: Database,
    imdb: Database,
}

fn dataset_config(seed: u64, job: u64, schema: u64) -> DatasetConfig {
    DatasetConfig {
        seed: sub_seed(seed, 1000 + 2 * job + schema),
        query_gen: inputs::academic_log(sub_seed(seed, 5000 + 2 * job + schema), QUERIES),
        max_tuples_per_query: MAX_TUPLES,
        max_lineage: MAX_LINEAGE,
    }
}

/// Exact Shapley values and tuple choice of two builds agree bit for bit.
fn same_dataset(a: &Dataset, b: &Dataset) -> bool {
    a.queries.len() == b.queries.len()
        && a.splits == b.splits
        && a.queries.iter().zip(&b.queries).all(|(qa, qb)| {
            qa.sql == qb.sql
                && qa.tuples.len() == qb.tuples.len()
                && qa.tuples.iter().zip(&qb.tuples).all(|(ta, tb)| {
                    ta.tuple_idx == tb.tuple_idx
                        && ta.shapley.len() == tb.shapley.len()
                        && ta
                            .shapley
                            .iter()
                            .zip(&tb.shapley)
                            .all(|((fa, va), (fb, vb))| fa == fb && va.to_bits() == vb.to_bits())
                })
        })
}

fn run_job(clock: &RunClock, dbs: &Dbs, seed: u64, job: u64, dir: &Path) -> Job {
    use crate::pacer::Clock;
    let mut problems = Vec::new();
    let _ = std::fs::remove_dir_all(dir);
    let build = |store: &CircuitStore| {
        let a = Dataset::build_with_store(
            dbs.academic.clone(),
            &academic_spec(),
            &dataset_config(seed, job, 0),
            Some(store),
        );
        let i = Dataset::build_with_store(
            dbs.imdb.clone(),
            &imdb_spec(),
            &dataset_config(seed, job, 1),
            Some(store),
        );
        (a, i)
    };
    let open = || CircuitStore::open(dir, 4096).expect("open the circuit store");

    let t0 = clock.now();
    let (academic, imdb) = build(&open());
    let t1 = clock.now();
    // A fresh handle over the persisted directory: every shape comes back
    // from disk, nothing is compiled again.
    let warm = open();
    let (academic2, imdb2) = build(&warm);
    let t2 = clock.now();
    if !same_dataset(&academic, &academic2) || !same_dataset(&imdb, &imdb2) {
        problems.push(format!(
            "job {job}: rebuilt dataset differs from the cold build"
        ));
    }
    if warm.stats().misses != 0 {
        problems.push(format!(
            "job {job}: rebuild compiled {} shapes",
            warm.stats().misses
        ));
    }

    // Every non-test query trains: with no dev split, fine-tuning keeps its
    // last epoch instead of spending a seed-dependent share of the job on
    // dev evaluation.
    let mut academic = academic;
    for s in academic.splits.iter_mut() {
        if *s == Split::Dev {
            *s = Split::Train;
        }
    }
    let train = academic.split_indices(Split::Train);
    let tok = build_tokenizer(&academic, &train, 2400);
    let mut model = inputs::fresh_model(tok.vocab_size(), sub_seed(seed, 3));
    let ms = similarity_matrices(&academic, &Default::default());
    let (pairs, mut dev_pairs) = build_pretrain_pairs(&academic, &ms);
    dev_pairs.truncate(PRETRAIN_PAIRS);
    let cfg = |samples| TrainConfig {
        epochs: 1,
        max_len: MAX_LEN,
        max_samples_per_epoch: samples,
        batch: 8,
        seed: sub_seed(seed, 7000 + job),
        ..TrainConfig::default()
    };
    let t3 = clock.now();
    let pre = pretrain(
        &mut model,
        &tok,
        &pairs,
        &dev_pairs,
        PretrainObjectives::default(),
        &cfg(PRETRAIN_PAIRS),
    );
    let t4 = clock.now();
    let fine = finetune(&mut model, &tok, &academic, &train, &cfg(FINETUNE_SAMPLES));
    let t5 = clock.now();
    let test = academic.split_indices(Split::Test);
    let eval = evaluate_model(&model, &tok, &academic, &test, MAX_LEN);
    let t6 = clock.now();
    let _ = std::fs::remove_dir_all(dir);
    let mut spans = Spans::root(t0, t6);
    spans.child(0, "offline.build", t0, t1);
    spans.child(0, "offline.rebuild", t1, t2);
    let train_span = spans.child(0, "offline.train", t2, t5);
    spans.child(train_span, "offline.pretrain", t3, t4);
    spans.child(train_span, "offline.finetune", t4, t5);
    spans.child(0, "offline.eval", t5, t6);
    Job {
        spans,
        phases: (t1 - t0, t2 - t1, t5 - t2),
        ndcg10: eval.ndcg10,
        samples: pre.samples + fine.samples,
        problems,
    }
}

/// Jobs run synchronously on the generator thread: `send` does the work,
/// `wait` hands back the result.
struct Jobs<'a> {
    clock: RunClock,
    dbs: &'a Dbs,
    seed: u64,
    dir: PathBuf,
    done: Option<(u64, f64, Job)>,
}

impl Target for Jobs<'_> {
    type Resp = Job;

    fn send(&mut self, op: u64, req: usize, _trace: Option<ls_obs::TraceContext>) {
        use crate::pacer::Clock;
        let job = run_job(&self.clock, self.dbs, self.seed, req as u64, &self.dir);
        self.done = Some((op, self.clock.now(), job));
    }

    fn wait(&mut self, until: f64, out: &mut Vec<(u64, f64, Job)>) {
        match self.done.take() {
            Some(d) => out.push(d),
            None => std::thread::sleep(self.clock.until(until)),
        }
    }
}

pub fn offline(opts: &Opts) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let clock = RunClock::new();
    let dir = opts.work.join("offline");
    // Set-up: generate both databases and run one job, which touches every
    // lazily initialised part of the path once.
    let (setups, dbs) = timed_setups(|_| {
        let dbs = Dbs {
            academic: generate_academic(&AcademicConfig::default()),
            imdb: generate_imdb(&ImdbConfig::default()),
        };
        let warm = run_job(&clock, &dbs, opts.seed, WARM_JOB, &dir);
        for p in warm.problems {
            out.problem(p);
        }
        dbs
    });
    let mut target = Jobs {
        clock,
        dbs: &dbs,
        seed: opts.seed,
        dir: dir.clone(),
        done: None,
    };
    let load = Load {
        rate: None,
        window: 1,
        cycle: JOBS,
        // One job per window, so that every job is timed against the host's
        // slowness just before and after it: a cycle of jobs lasts seconds,
        // and two readings around it say little about the host in between.
        closed_ops: 1,
    };
    let mut tracer = Tracer::default();
    // Per job, in order: job and duration (s), generator lag (ms), and what
    // it made.
    let (mut durations, mut lags_ms) = (Vec::new(), Vec::new());
    let (mut phases, mut samples, mut ndcg) = (Vec::new(), 0usize, Vec::new());
    let m = measure(
        &clock,
        &mut target,
        &load,
        opts,
        cycle(JOBS, &mut inputs::Rng::new(opts.seed, 40)),
        |o: &OpRec, job: Job| {
            durations.push((o.req, o.done - o.sent));
            if !job.problems.is_empty() {
                out.failed += 1;
                out.problems.extend(job.problems);
                return;
            }
            lags_ms.push((o.sent - o.due) * 1e3);
            phases.push(job.phases);
            samples += job.samples;
            ndcg.push((o.req, job.ndcg10));
            if o.trace != 0 {
                tracer.record(o.op, o.trace, job.spans);
            }
        },
    );
    // Determinism: the same job again gives the same NDCG, bit for bit.
    if let Some(&(req, want)) = ndcg.first() {
        let again = run_job(&clock, &dbs, opts.seed, req as u64, &dir);
        if again.ndcg10.to_bits() != want.to_bits() {
            out.problem(format!("job {req}: NDCG@10 differs on a second run"));
        }
    }
    out.attempted = m.attempted();
    out.failed += m.missing();
    gen_lag(&mut out, &mut lags_ms, opts.trace);
    if opts.trace {
        per_layer(&mut out, &tracer, &m);
        wire_bytes(&mut out, 0, 0, 0);
    } else {
        // Each closed-loop window is one job.
        let mut job_ms = Timed::default();
        for (w, &(job, d)) in m.closed.iter().zip(&durations) {
            job_ms.push(job, d * 1e3, w.slowness);
        }
        end_to_end(&mut out, &setups, &m, &job_ms);
        let phase =
            |f: fn(&(f64, f64, f64)) -> f64| median(&mut phases.iter().map(f).collect::<Vec<_>>());
        out.extra("build_ms", phase(|p| p.0) * 1e3, "ms");
        out.extra("rebuild_ms", phase(|p| p.1) * 1e3, "ms");
        let train_secs: f64 = phases.iter().map(|p| p.2).sum();
        out.extra(
            "train_samples_per_s",
            samples as f64 / train_secs.max(1e-9),
            "samples/s",
        );
        // Each distinct job's NDCG@10 once, so the mean is the same however
        // many times each job ran.
        let per_job: std::collections::BTreeMap<usize, f64> = ndcg.iter().copied().collect();
        let mean = per_job.values().sum::<f64>() / per_job.len().max(1) as f64;
        out.extra("ndcg10", mean, "ratio");
    }
    let _ = std::fs::remove_dir_all(&dir);
    (out, tracer)
}
