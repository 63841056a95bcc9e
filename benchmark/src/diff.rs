//! `bench-diff A B`: compare two sets of runs with the bounds in
//! `BENCHMARK.json`, by the rules of the choosing-metrics guide (§5–§8).
//!
//! A side is every untraced `results.json` under a directory; runs pair up
//! in path order (run `k` of A with run `k` of B). Per (workload, metric):
//!
//! * `unresolved` — either side's quartile spread (over its median) exceeds
//!   the bound, unless every run of B reads better than every run of A
//!   (then `better`);
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `better` — B wins at least nine tenths of the pairs (ties count for
//!   neither) and the medians differ by more than A's quartile distance;
//! * `same` — anything else.
//!
//! A `failed_frac` row per workload (failed over attempted operations,
//! summed over the runs) reads `worse` when B's share is higher. The exit
//! status is nonzero on any `worse`.

use crate::stats::{median, quartiles};
use ls_obs::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ls_obs::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(spec: &Path) -> Result<Vec<Bound>, String> {
    let doc = read_json(spec)?;
    let Some(Json::Arr(list)) = doc.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", spec.display()));
    };
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok(Bound {
                    name: n.to_string(),
                    lower_is_better: b == "lower",
                    bound: x,
                }),
                _ => Err(format!("{}: malformed end_to_end entry", spec.display())),
            }
        })
        .collect()
}

fn results_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            results_files(&path, out)?;
        } else if path.file_name().is_some_and(|n| n == "results.json") {
            out.push(path);
        }
    }
    Ok(())
}

/// One set of runs.
#[derive(Default)]
struct Side {
    /// (workload, metric) -> values in run order.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// workload -> (failed, attempted), summed over the runs.
    failures: BTreeMap<String, (f64, f64)>,
}

fn load_side(dir: &Path) -> Result<Side, String> {
    let mut files = Vec::new();
    results_files(dir, &mut files).map_err(|e| format!("{}: {e}", dir.display()))?;
    files.sort();
    let mut side = Side::default();
    for f in &files {
        let doc = read_json(f)?;
        if doc.get("trace").and_then(Json::as_f64).unwrap_or(0.0) != 0.0 {
            continue;
        }
        let Some(Json::Obj(workloads)) = doc.get("workloads") else {
            continue;
        };
        for (w, entry) in workloads {
            let num = |k: &str| entry.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let tally = side.failures.entry(w.clone()).or_default();
            tally.0 += num("failed");
            tally.1 += num("attempted");
            if let Some(Json::Obj(metrics)) = entry.get("metrics") {
                for (name, m) in metrics {
                    if let Some(v) = m.get("value").and_then(Json::as_f64) {
                        side.values
                            .entry((w.clone(), name.clone()))
                            .or_default()
                            .push(v);
                    }
                }
            }
        }
    }
    if side.failures.is_empty() {
        return Err(format!("{}: no untraced results.json found", dir.display()));
    }
    Ok(side)
}

/// Median and quartiles of a side's values.
fn summary(v: &[f64]) -> (f64, f64, f64) {
    let m = median(&mut v.to_vec());
    match quartiles(v) {
        Some([q1, _, q3]) => (m, q1, q3),
        None => (m, m, m),
    }
}

/// Label one (workload, metric) row.
pub fn label(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let (ma, q1a, q3a) = summary(a);
    let (mb, q1b, q3b) = summary(b);
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let spread = |q1: f64, q3: f64, m: f64| if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    if spread(q1a, q3a, ma) > bound || spread(q1b, q3b, mb) > bound {
        return if all_better { "better" } else { "unresolved" };
    }
    let rel = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
    let worse_by = if lower_is_better { rel } else { -rel };
    if worse_by > bound {
        return "worse";
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    if pairs > 0
        && wins as f64 >= 0.9 * pairs as f64
        && better(mb, ma)
        && (mb - ma).abs() > q3a - q1a
    {
        return "better";
    }
    "same"
}

pub fn bench_diff(a: &Path, b: &Path, spec: &Path) -> Result<bool, String> {
    let bounds = bounds(spec)?;
    let (sa, sb) = (load_side(a)?, load_side(b)?);
    let mut workloads: Vec<&String> = sa.failures.keys().chain(sb.failures.keys()).collect();
    workloads.sort();
    workloads.dedup();
    println!(
        "{:<14} {:<16} {:>34} {:>34} {:>9}  label",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    let mut worse = false;
    for w in workloads {
        for bd in &bounds {
            let key = (w.clone(), bd.name.clone());
            let (Some(va), Some(vb)) = (sa.values.get(&key), sb.values.get(&key)) else {
                println!(
                    "{w:<14} {:<16} {:>34} {:>34} {:>9}  unresolved",
                    bd.name, "missing on one side", "", ""
                );
                continue;
            };
            let lab = label(va, vb, bd.lower_is_better, bd.bound);
            worse |= lab == "worse";
            let ((ma, q1a, q3a), (mb, q1b, q3b)) = (summary(va), summary(vb));
            let change = if ma != 0.0 {
                (mb - ma) / ma.abs() * 100.0
            } else {
                0.0
            };
            println!(
                "{w:<14} {:<16} {:>34} {:>34} {:>8.2}%  {lab}",
                bd.name,
                format!("{ma:.6} [{q1a:.6}, {q3a:.6}]"),
                format!("{mb:.6} [{q1b:.6}, {q3b:.6}]"),
                change
            );
        }
        let share = |s: &Side| {
            s.failures
                .get(w)
                .map_or(0.0, |&(failed, attempted)| failed / attempted.max(1.0))
        };
        let (fa, fb) = (share(&sa), share(&sb));
        let lab = if fb > fa { "worse" } else { "same" };
        worse |= lab == "worse";
        println!(
            "{w:<14} {:<16} {:>34} {:>34} {:>9}  {lab}",
            "failed_frac",
            format!("{fa:.6}"),
            format!("{fb:.6}"),
            ""
        );
    }
    Ok(!worse)
}

#[cfg(test)]
mod tests {
    use super::label;

    #[test]
    fn labels_follow_the_rules() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(label(&base, &base, true, 0.1), "same");
        // 30% slower with a 10% bound: worse.
        let slow: Vec<f64> = base.iter().map(|x| x * 1.3).collect();
        assert_eq!(label(&base, &slow, true, 0.1), "worse");
        // Higher is better: the same change is a gain, and every pair wins.
        assert_eq!(label(&base, &slow, false, 0.1), "better");
        // Slightly faster, but within the baseline's own spread: same.
        let close: Vec<f64> = base.iter().map(|x| x * 0.995).collect();
        assert_eq!(label(&base, &close, true, 0.1), "same");
        // Spread wider than the bound and overlapping: unresolved.
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(label(&base, &noisy, true, 0.1), "unresolved");
        // Noisy but every run better than every run of A: better.
        let fast_noisy = [10.0, 30.0, 20.0, 12.0, 28.0];
        assert_eq!(label(&base, &fast_noisy, true, 0.1), "better");
    }
}
