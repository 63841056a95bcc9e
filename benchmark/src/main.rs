//! ls-benchmark — the repository's seeded end-to-end benchmark.
//!
//! ```text
//! ls-benchmark [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ls-benchmark bench-diff A/ B/ [--spec BENCHMARK.json]
//! ```
//!
//! With `--workload`, one workload runs in this process; every metric is
//! printed by name with its unit, and the last line of standard output is
//! the JSON result `{"correct", "attempted", "failed", "metrics"}` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). Without
//! `--workload`, every workload runs in a child process of its own, so
//! set-up, peak memory and caches are per workload. `--out DIR` also writes
//! `DIR/results.json` (with the host) and, for trace runs,
//! `DIR/<workload>.trace.jsonl`. The exit status is nonzero when any answer
//! was wrong or any operation failed.
//!
//! Scratch files (models, circuit stores, the feedback WAL) live under
//! `.bench_work/` in the working directory and are removed at exit.

mod calib;
mod diff;
mod inputs;
mod measure;
mod offline;
mod pacer;
mod report;
mod serve;
mod stats;
mod trace;
mod wire;

use measure::Opts;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, in run order.
const WORKLOADS: [&str; 4] = ["serve-learned", "serve-wire", "serve-mixed", "offline"];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    "usage: ls-benchmark [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       \
     ls-benchmark bench-diff A/ B/ [--spec BENCHMARK.json]"
        .to_string()
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w} (one of {WORKLOADS:?})"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(a)
}

/// Pin what the program reads from the environment, before any thread
/// starts: the compute pool runs two threads and the event loop one shard
/// (with the generator and the pool, that already fills a 2-core host),
/// and telemetry is switched by the benchmark alone.
fn pin_environment() {
    std::env::set_var("LS_THREADS", "2");
    std::env::set_var("LS_EVLOOP_SHARDS", "1");
    for v in [
        "LS_OBS",
        "LS_OBS_JSONL",
        "LS_OBS_RECORDER",
        "LS_OBS_RECORDER_DUMP",
        "LS_POLLER",
        "LS_NODELAY",
    ] {
        std::env::remove_var(v);
    }
}

fn main() -> ExitCode {
    pin_environment();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("bench-diff") => run_diff(&args[1..]),
        Some("run") => parse_run(&args[1..]).and_then(|a| run(&a)),
        Some("--help" | "-h") => {
            println!("{}", usage());
            Ok(true)
        }
        _ => parse_run(&args).and_then(|a| run(&a)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ls-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_diff(args: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            spec = PathBuf::from(it.next().ok_or("--spec needs a value")?);
        } else {
            dirs.push(PathBuf::from(a));
        }
    }
    let [a, b] = dirs.as_slice() else {
        return Err(usage());
    };
    diff::bench_diff(a, b, &spec)
}

fn run(a: &Args) -> Result<bool, String> {
    if let Some(out) = &a.out {
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    let ok = match &a.workload {
        Some(w) => run_one(a, w)?,
        None => run_children(a)?,
    };
    if let Some(out) = &a.out {
        write_results(out, a).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(ok)
}

fn run_one(a: &Args, workload: &str) -> Result<bool, String> {
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let opts = Opts {
        seed: a.seed,
        secs: a.seconds,
        trace: a.trace,
        work: work.clone(),
    };
    let (mut outcome, tracer) = match workload {
        "serve-learned" => serve::serve_learned(&opts),
        "serve-wire" => serve::serve_wire(&opts),
        "serve-mixed" => serve::serve_mixed(&opts),
        "offline" => offline::offline(&opts),
        _ => unreachable!("workload names are checked when parsed"),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    outcome.finish(a.trace);
    if let Some(out) = &a.out {
        let entry = out.join(format!("{workload}.json"));
        std::fs::write(&entry, outcome.json_object())
            .map_err(|e| format!("{}: {e}", entry.display()))?;
        if a.trace {
            let path = out.join(format!("{workload}.trace.jsonl"));
            tracer
                .write_jsonl(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    outcome.print_table(workload);
    println!("{}", outcome.json_line());
    Ok(outcome.correct)
}

/// Run every workload in a child process of its own.
fn run_children(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut all_ok = true;
    for w in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }]);
        if let Some(out) = &a.out {
            cmd.arg("--out").arg(out);
        }
        let status = cmd
            .status()
            .map_err(|e| format!("running the {w} workload: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

/// Gather every `<workload>.json` entry in `out` into `out/results.json`.
fn write_results(out: &Path, a: &Args) -> std::io::Result<()> {
    let mut entries = Vec::new();
    for w in WORKLOADS {
        if let Ok(entry) = std::fs::read_to_string(out.join(format!("{w}.json"))) {
            entries.push(format!("\"{w}\":{entry}"));
        }
    }
    let doc = format!(
        "{{\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\"workloads\":{{{}}}}}\n",
        a.seed,
        report::num(a.seconds),
        u8::from(a.trace),
        report::host_json(),
        entries.join(",")
    );
    std::fs::write(out.join("results.json"), doc)
}
