//! The metric catalogue and the result formats.

use std::fmt::Write as _;

/// A metric's name and unit, exactly as `BENCHMARK.json` lists them.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, measured with tracing off, on every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("ops_per_s", "op/s"),
    m("latency_p50_gmean_ms", "ms"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from the traced run, on every workload. A layer a
/// workload does not exercise reads 0. Times are given as shares of the
/// traced operations' time, so that a layer's number is comparable across
/// workloads and never a time that reads 0 on every run.
pub const PER_LAYER: &[Metric] = &[
    // Self time of each span the benchmark records, as a share of the
    // traced operations' total time; with the root's share
    // (`bench.unattributed_frac`) they sum to 1.
    m("bench.unattributed_frac", "frac"),
    m("gen.lag.self_frac", "frac"),
    m("wire.encode.self_frac", "frac"),
    m("wire.decode.self_frac", "frac"),
    m("serve.probe.self_frac", "frac"),
    m("serve.queue.self_frac", "frac"),
    m("serve.batch.self_frac", "frac"),
    m("serve.score.self_frac", "frac"),
    m("serve.other.self_frac", "frac"),
    m("tier.exact.self_frac", "frac"),
    m("tier.sampled.self_frac", "frac"),
    m("offline.build.self_frac", "frac"),
    m("offline.rebuild.self_frac", "frac"),
    m("offline.train.self_frac", "frac"),
    m("offline.pretrain.self_frac", "frac"),
    m("offline.finetune.self_frac", "frac"),
    m("offline.eval.self_frac", "frac"),
    // Busy time the program's own ls-obs histograms record, per second of
    // traced operation time (work on several threads can add up to more
    // than 1).
    m("nn.forward.busy_frac", "frac"),
    m("nn.backward.busy_frac", "frac"),
    m("relational.evaluate.busy_frac", "frac"),
    m("provenance.compile.busy_frac", "frac"),
    m("shapley.exact.busy_frac", "frac"),
    m("circuit.sampler.busy_frac", "frac"),
    m("similarity.matrix.busy_frac", "frac"),
    m("serve.feedback.append.busy_frac", "frac"),
    m("par.worker_busy_frac", "frac"),
    // Work counts and ratios.
    m("kernel.flops_per_op", "count"),
    m("kernel.bytes_per_op", "B"),
    m("nn.forwards_per_op", "count"),
    m("nn.backwards_per_op", "count"),
    m("serve.cache_hit_ratio", "ratio"),
    m("serve.batch_items_mean", "count"),
    m("serve.shed", "count"),
    m("tier.exact.count", "count"),
    m("tier.learned.count", "count"),
    m("tier.sampled.count", "count"),
    m("circuit.compiles", "count"),
    m("circuit.store_hit_ratio", "ratio"),
    m("wal.fsyncs", "count"),
    m("core.online.records_trained", "count"),
    m("wire.bytes_out_per_req", "B"),
    m("wire.bytes_in_per_req", "B"),
    // The benchmark's own health.
    m("bench.gen_lag_p99_ms", "ms"),
    m("trace.overhead_frac", "frac"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The catalogue metrics of this run's mode.
    pub metrics: Vec<(&'static str, f64)>,
    /// Workload-specific numbers for people and `results.json`:
    /// `(name, value, unit)`.
    pub extra: Vec<(String, f64, &'static str)>,
    /// Why the run is not correct, one line each.
    pub problems: Vec<String>,
    /// Doubts about the measurement that do not make answers wrong.
    pub warnings: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "uncatalogued metric {name}");
        self.metrics.push((name, value));
    }

    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extra.push((name.into(), value, unit));
    }

    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    pub fn warn(&mut self, w: impl Into<String>) {
        self.warnings.push(w.into());
    }

    /// Decide correctness once every check has reported: every catalogued
    /// metric of the run's mode must be present and finite (and nothing
    /// else is reported), and no operation may have failed.
    pub fn finish(&mut self, trace: bool) {
        let want = if trace { PER_LAYER } else { END_TO_END };
        for m in want {
            match self.metrics.iter().find(|(n, _)| *n == m.name) {
                None => self.problem(format!("metric {} was not measured", m.name)),
                Some((_, v)) if !v.is_finite() => self.problem(format!("metric {} is {v}", m.name)),
                Some(_) => {}
            }
        }
        self.metrics
            .retain(|(n, _)| want.iter().any(|m| m.name == *n));
        self.metrics
            .sort_by_key(|(n, _)| want.iter().position(|m| m.name == *n));
        if self.attempted == 0 {
            self.problem("no operation was attempted");
        }
        if self.failed > 0 {
            self.problem(format!(
                "{} of {} operations failed",
                self.failed, self.attempted
            ));
        }
        self.correct = self.problems.is_empty();
    }

    /// The contract line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            let unit = unit_of(name).unwrap_or("");
            let _ = write!(
                s,
                "{}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                if i > 0 { "," } else { "" },
                num(*v)
            );
        }
        s.push_str("}}");
        s
    }

    /// Human-readable lines: every metric by name with its unit.
    pub fn print_table(&self, workload: &str) {
        for (name, v) in &self.metrics {
            println!(
                "{workload:<14} {name:<36} {:>16} {}",
                fmt_num(*v),
                unit_of(name).unwrap_or("")
            );
        }
        for (name, v, unit) in &self.extra {
            println!(
                "{workload:<14} {:<36} {:>16} {unit}",
                format!("({name})"),
                fmt_num(*v)
            );
        }
        for w in &self.warnings {
            println!("{workload:<14} WARNING: {w}");
        }
        for p in &self.problems {
            println!("{workload:<14} PROBLEM: {p}");
        }
    }

    /// This outcome as a JSON object (the `results.json` entry): the
    /// contract line's keys plus `extra`, `problems` and `warnings`.
    pub fn json_object(&self) -> String {
        let mut s = self.json_line();
        s.pop(); // reopen the top-level object
        s.push_str(",\"extra\":{");
        for (i, (name, v, unit)) in self.extra.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                if i > 0 { "," } else { "" },
                escape(name),
                num(*v)
            );
        }
        s.push('}');
        for (key, lines) in [("problems", &self.problems), ("warnings", &self.warnings)] {
            let items: Vec<String> = lines.iter().map(|l| format!("\"{}\"", escape(l))).collect();
            let _ = write!(s, ",\"{key}\":[{}]", items.join(","));
        }
        s.push('}');
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
/// Non-finite values have no JSON form; they are written as 0, and
/// [`Outcome::finish`] marks a run with a non-finite metric incorrect.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn fmt_num(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Peak resident set size of this process, in MB (the kernel's high-water
/// mark, `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host a result was measured on, as a JSON object.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or(String::new(), |(_, v)| v.trim().to_string())
    };
    let flags: Vec<String> = field("flags")
        .split_whitespace()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":\"{}\",\"cpu_flags\":[{}],\"ls_threads\":{}}}",
        escape(&field("model name")),
        flags.join(","),
        ls_par::threads()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for m in END_TO_END {
            o.metric(m.name, 0.25);
        }
        o.finish(false);
        assert!(o.correct, "{:?}", o.problems);
        let doc = ls_obs::parse_json(&o.json_line()).expect("valid JSON");
        let ls_obs::Json::Obj(keys) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let setup = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("unit").and_then(ls_obs::Json::as_str), Some("s"));
    }

    #[test]
    fn a_missing_or_non_finite_metric_or_a_failure_is_incorrect() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", f64::NAN);
        o.finish(false);
        assert!(!o.correct);
        assert!(o
            .problems
            .iter()
            .any(|p| p.contains("ops_per_s was not measured")));
        assert!(o.problems.iter().any(|p| p.contains("setup_s is NaN")));
        let mut o = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        for m in END_TO_END {
            o.metric(m.name, 1.0);
        }
        o.finish(false);
        assert!(!o.correct);
    }

    #[test]
    fn peak_rss_is_read_from_the_kernel() {
        let mb = peak_rss_mb();
        assert!(mb.is_finite() && mb > 0.0, "{mb}");
    }
}
