//! Spans the benchmark records around its calls into the program.
//!
//! Every traced operation gets a root span `op` from its due time to its
//! answer; each layer boundary the benchmark can see becomes a span below
//! it (the generator's lateness, the client codec, the server and its stage
//! breakdown, the offline phases). A span's self time is its duration minus
//! the part of it that its children cover; the root's self time is time no
//! layer accounts for. Self times and durations are summed over every
//! traced operation; the spans themselves are kept for an evenly spaced
//! sample of at most [`KEPT_OPS`] operations and written out at exit.

use crate::report::escape;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

/// Operations whose spans are kept for the trace file.
pub const KEPT_OPS: usize = 100;

/// The spans of one operation. Index 0 is the root; every other span names
/// its parent by index, and parents come before their children.
pub struct Spans(Vec<(&'static str, f64, f64, usize)>);

impl Spans {
    /// An operation spanning `[start, end]`.
    pub fn root(start: f64, end: f64) -> Spans {
        Spans(vec![("op", start, end.max(start), 0)])
    }

    /// Add `name` over `[start, end]` under span `parent`, clipped into the
    /// parent, and return its index.
    pub fn child(&mut self, parent: usize, name: &'static str, start: f64, end: f64) -> usize {
        let (_, ps, pe, _) = self.0[parent];
        let s = start.clamp(ps, pe);
        self.0.push((name, s, end.clamp(s, pe), parent));
        self.0.len() - 1
    }

    /// Lay `stages` out back to back under `parent`, from `from`.
    pub fn sequence(&mut self, parent: usize, from: f64, stages: &[(&'static str, f64)]) {
        let mut t = from;
        for &(name, len) in stages {
            self.child(parent, name, t, t + len);
            t += len;
        }
    }
}

struct Kept {
    index: u64,
    op: u64,
    trace: u64,
    spans: Spans,
}

#[derive(Default)]
pub struct Tracer {
    ops: u64,
    /// Σ root duration over every traced operation.
    total: f64,
    self_time: BTreeMap<&'static str, f64>,
    /// Every span's duration, per name (seconds).
    durations: BTreeMap<&'static str, Vec<f32>>,
    kept: Vec<Kept>,
    /// Keep every `stride`-th operation (doubles as the sample fills up).
    stride: u64,
}

impl Tracer {
    /// Record operation `op`, which carried trace id `trace` (0 if none).
    pub fn record(&mut self, op: u64, trace: u64, spans: Spans) {
        let s = &spans.0;
        for (i, &(name, start, end, _)) in s.iter().enumerate() {
            let mut children: Vec<(f64, f64)> = s
                .iter()
                .enumerate()
                .skip(1)
                .filter(|&(j, c)| j != i && c.3 == i)
                .map(|(_, c)| (c.1, c.2))
                .collect();
            *self.self_time.entry(name).or_default() += (end - start) - union_len(&mut children);
            self.durations
                .entry(name)
                .or_default()
                .push((end - start) as f32);
        }
        self.total += s[0].2 - s[0].1;
        let stride = self.stride.max(1);
        if self.ops.is_multiple_of(stride) {
            self.kept.push(Kept {
                index: self.ops,
                op,
                trace,
                spans,
            });
            if self.kept.len() > 2 * KEPT_OPS {
                self.kept.retain(|k| k.index % (2 * stride) == 0);
                self.stride = 2 * stride;
            }
        }
        self.ops += 1;
    }

    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Σ duration of every traced operation, in seconds.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Self time of the spans named `name` as a share of the operations'
    /// total time.
    pub fn self_frac(&self, name: &str) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        self.self_time.get(name).copied().unwrap_or(0.0) / self.total
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.durations
            .get(name)
            .map_or_else(Vec::new, |d| d.iter().map(|&x| f64::from(x)).collect())
    }

    /// Write the kept operations' spans as JSON lines: one object per span,
    /// times in µs on the run clock. Span ids are unique in the file, and
    /// every span of one operation carries its `op` and `trace` id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut next_id = 1u64;
        for k in &self.kept {
            let base = next_id;
            for (i, &(name, start, end, parent)) in k.spans.0.iter().enumerate() {
                let parent_id = if i == 0 { 0 } else { base + parent as u64 };
                writeln!(
                    out,
                    "{{\"id\":{},\"parent\":{parent_id},\"op\":{},\"trace\":\"{:016x}\",\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                    base + i as u64,
                    k.op,
                    k.trace,
                    escape(name),
                    start * 1e6,
                    end * 1e6
                )?;
            }
            next_id += k.spans.0.len() as u64;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` (sorted in place).
fn union_len(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let mut t = Tracer::default();
        // Root 10 s; children cover [1,3] and [2,5] (overlapping) and [8,9];
        // a grandchild covers [2,4] of the second child.
        let mut s = Spans::root(0.0, 10.0);
        s.child(0, "a", 1.0, 3.0);
        let b = s.child(0, "b", 2.0, 5.0);
        s.child(0, "c", 8.0, 9.0);
        s.child(b, "d", 2.0, 4.0);
        t.record(1, 0, s);
        assert!((t.self_frac("op") - 0.5).abs() < 1e-12);
        assert!((t.self_frac("a") - 0.2).abs() < 1e-12);
        assert!((t.self_frac("b") - 0.1).abs() < 1e-12);
        assert!((t.self_frac("d") - 0.2).abs() < 1e-12);
        // Children outside their parent are clipped into it.
        let mut s = Spans::root(0.0, 10.0);
        s.child(0, "e", 9.5, 20.0);
        t.record(2, 0, s);
        assert!((t.total() - 20.0).abs() < 1e-12);
        assert!((t.self_frac("e") - 0.5 / 20.0).abs() < 1e-12);
        assert_eq!(t.durations("e"), vec![0.5]);
    }

    #[test]
    fn sequence_lays_stages_end_to_end() {
        let mut s = Spans::root(0.0, 3.0);
        s.sequence(0, 1.0, &[("x", 0.5), ("y", 0.25)]);
        assert_eq!(s.0[1], ("x", 1.0, 1.5, 0));
        assert_eq!(s.0[2], ("y", 1.5, 1.75, 0));
    }

    #[test]
    fn the_kept_sample_stays_bounded_and_even() {
        let mut t = Tracer::default();
        for op in 0..10 * KEPT_OPS as u64 {
            t.record(op, 0, Spans::root(0.0, 1.0));
        }
        assert_eq!(t.ops(), 10 * KEPT_OPS as u64);
        assert!(t.kept.len() <= 2 * KEPT_OPS && t.kept.len() >= KEPT_OPS / 2);
        let gaps: Vec<u64> = t.kept.windows(2).map(|w| w[1].index - w[0].index).collect();
        assert!(gaps.iter().all(|&g| g == gaps[0]), "evenly spaced");
    }
}
