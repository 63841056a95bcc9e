//! Smoke test: every workload runs end to end for 2 s at a fixed seed,
//! untraced and traced, and keeps the benchmark's contract.

use ls_obs::{parse_json, Json};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ls-benchmark");

fn read(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        _ => panic!("BENCHMARK.json has no {key} list"),
    }
}

fn name(m: &Json) -> &str {
    m.get("name").and_then(Json::as_str).expect("named entry")
}

/// Run the benchmark in `dir` (so its scratch files stay there).
fn bench(dir: &Path, args: &[&str]) -> String {
    std::fs::create_dir_all(dir).expect("scratch dir");
    let out = Command::new(BIN)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run ls-benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{args:?} failed:\n{stdout}");
    stdout
}

/// Every span of a trace file lies inside its parent, and a span and its
/// parent belong to one request.
fn assert_spans_nest(path: &Path) {
    let text = std::fs::read_to_string(path).expect("trace file");
    let mut spans = HashMap::new();
    let mut children = Vec::new();
    for line in text.lines() {
        let s = parse_json(line).expect("trace line is JSON");
        let f = |k: &str| s.get(k).and_then(Json::as_f64).expect("span field");
        let (id, parent) = (f("id") as u64, f("parent") as u64);
        spans.insert(id, (f("start_us"), f("end_us"), f("op")));
        if parent != 0 {
            children.push((id, parent));
        }
    }
    assert!(
        !children.is_empty(),
        "{} has no child spans",
        path.display()
    );
    for (id, parent) in children {
        let (s, e, op) = spans[&id];
        let (ps, pe, pop) = spans[&parent];
        assert_eq!(op, pop, "span {id} and its parent belong to one request");
        assert!(
            ps <= s && s <= e && e <= pe,
            "span {id} [{s}, {e}] escapes its parent [{ps}, {pe}]"
        );
    }
}

#[test]
fn every_workload_keeps_the_contract() {
    let spec = read(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    let workloads: Vec<&str> = list(&spec, "workloads").iter().map(name).collect();
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&tmp);

    // The contract line: the last line of stdout, with exactly four keys.
    let args = [
        "--workload",
        workloads[0],
        "--seed",
        "7",
        "--seconds",
        "2",
        "--trace",
        "0",
    ];
    let stdout = bench(&tmp, &args);
    let last = parse_json(stdout.lines().last().expect("output")).expect("last line is JSON");
    let Json::Obj(keys) = &last else {
        panic!("last line is not an object")
    };
    let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);

    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = tmp.join(format!("trace-{trace}"));
        let out_arg = out.to_str().expect("utf-8 path");
        let args = [
            "run",
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            trace,
            "--out",
            out_arg,
        ];
        let stdout = bench(&tmp, &args);
        let results = read(&out.join("results.json"));
        let entry = |w: &str| {
            results
                .get("workloads")
                .and_then(|ws| ws.get(w))
                .unwrap_or_else(|| panic!("{w} missing from results.json"))
                .clone()
        };
        let metric = |w: &str, k: &str| {
            entry(w)
                .get("metrics")
                .and_then(|ms| ms.get(k))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{w} {k}"))
        };
        for w in &workloads {
            let e = entry(w);
            let num = |k: &str| e.get(k).and_then(Json::as_f64).expect("count");
            assert_eq!(e.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert!(num("attempted") >= 1.0, "{w} attempted nothing");
            assert_eq!(num("failed"), 0.0, "{w}: failed_frac must be 0");
            for m in list(&spec, section) {
                let got = e
                    .get("metrics")
                    .and_then(|ms| ms.get(name(m)))
                    .unwrap_or_else(|| panic!("{w} did not emit {}", name(m)));
                let v = got.get("value").and_then(Json::as_f64).expect("value");
                assert!(v.is_finite(), "{w} {} = {v}", name(m));
                if section == "end_to_end" {
                    assert!(v > 0.0, "{w} {} reads 0", name(m));
                }
                assert_eq!(got.get("unit"), m.get("unit"), "{w} {} unit", name(m));
                // Printed by name with its unit, too.
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                let printed = stdout.lines().any(|l| {
                    let t: Vec<&str> = l.split_whitespace().collect();
                    t.len() == 4 && t[0] == *w && t[1] == name(m) && t[3] == unit
                });
                assert!(printed, "{w} {} not printed with its unit", name(m));
            }
            if trace == "1" {
                assert_spans_nest(&out.join(format!("{w}.trace.jsonl")));
            }
        }
        if trace == "1" {
            assert_eq!(metric("serve-wire", "serve.cache_hit_ratio"), 1.0);
            for tier in ["exact", "learned", "sampled"] {
                let n = metric("serve-mixed", &format!("tier.{tier}.count"));
                assert!(n > 0.0, "serve-mixed never chose the {tier} tier");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
