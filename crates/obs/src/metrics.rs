//! Metric primitives and the process-global registry.
//!
//! All handles are `&'static`: the registry interns each name once (leaking
//! one allocation per distinct metric, bounded by the instrumentation
//! vocabulary) so hot paths touch only atomics after the first lookup.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Monotone event counter.
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins instantaneous value (stored as f64 bits).
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    const fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// Geometric bucket layout shared by all histograms: `BUCKETS` buckets
/// spanning [`HIST_MIN`, `HIST_MAX`), each `GROWTH`× wider than the last,
/// plus implicit under/overflow at the edges. With 1024 buckets over 21
/// decades the relative quantization error is `GROWTH - 1` ≈ 4.8%.
const BUCKETS: usize = 1024;
const HIST_MIN: f64 = 1e-9;
const HIST_MAX: f64 = 1e12;

fn growth() -> f64 {
    static G: OnceLock<f64> = OnceLock::new();
    *G.get_or_init(|| (HIST_MAX / HIST_MIN).powf(1.0 / BUCKETS as f64))
}

fn bucket_index(v: f64) -> usize {
    // NaN and sub-minimum values (including negatives) land in bucket 0.
    if v.partial_cmp(&HIST_MIN) != Some(std::cmp::Ordering::Greater) {
        return 0;
    }
    let idx = ((v / HIST_MIN).ln() / growth().ln()) as usize;
    idx.min(BUCKETS - 1)
}

/// Upper bound of bucket `i` — the value reported for percentiles landing
/// in that bucket (conservative: never under-reports).
fn bucket_upper(i: usize) -> f64 {
    HIST_MIN * growth().powi(i as i32 + 1)
}

/// Exemplar slots kept per histogram: recent traced samples that link an
/// aggregate distribution back to concrete trace ids for tail attribution.
pub const EXEMPLAR_SLOTS: usize = 4;

/// Fixed-bucket lock-free histogram over positive values (typically
/// seconds; any positive unit works).
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    // Round-robin exemplar ring: (value bits, trace id) pairs. The two
    // atomics per slot are not written as one unit — a concurrent overwrite
    // can pair one sample's value with another's trace — which is an
    // accepted trade for staying lock-free; exemplars are diagnostic
    // pointers, not measurements.
    ex_next: AtomicU64,
    ex_value_bits: [AtomicU64; EXEMPLAR_SLOTS],
    ex_trace: [AtomicU64; EXEMPLAR_SLOTS],
}

/// Point-in-time histogram summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistStats {
    pub count: u64,
    pub sum: f64,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Histogram {
    fn new() -> Self {
        let buckets: Box<[AtomicU64; BUCKETS]> = (0..BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .try_into()
            .unwrap_or_else(|_| unreachable!("length fixed at BUCKETS"));
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0),
            ex_next: AtomicU64::new(0),
            ex_value_bits: std::array::from_fn(|_| AtomicU64::new(0)),
            ex_trace: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[inline]
    pub fn record(&self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // f64 adds/min/max via CAS loops; contention is per-histogram.
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
        let _ = self
            .min_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v < f64::from_bits(bits)).then(|| v.to_bits())
            });
        let _ = self
            .max_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v > f64::from_bits(bits)).then(|| v.to_bits())
            });
    }

    /// Record a sample carrying its trace id: the sample lands in the
    /// buckets as usual and, when `trace` is nonzero, also claims an
    /// exemplar slot so tail investigations can jump from "p99 is 40ms" to
    /// an actual trace exhibiting it.
    #[inline]
    pub fn record_traced(&self, v: f64, trace: u64) {
        self.record(v);
        if trace != 0 && v.is_finite() && v >= 0.0 {
            let i = self.ex_next.fetch_add(1, Ordering::Relaxed) as usize % EXEMPLAR_SLOTS;
            self.ex_value_bits[i].store(v.to_bits(), Ordering::Relaxed);
            self.ex_trace[i].store(trace, Ordering::Release);
        }
    }

    /// The populated exemplar slots as `(value, trace_id)` pairs, oldest
    /// slot order (not sample order).
    pub fn exemplars(&self) -> Vec<(f64, u64)> {
        (0..EXEMPLAR_SLOTS)
            .filter_map(|i| {
                let trace = self.ex_trace[i].load(Ordering::Acquire);
                (trace != 0).then(|| {
                    (
                        f64::from_bits(self.ex_value_bits[i].load(Ordering::Relaxed)),
                        trace,
                    )
                })
            })
            .collect()
    }

    /// Percentile estimate (`q` in `[0, 1]`) from the bucket counts. Exact min
    /// and max are substituted at the extremes.
    pub fn percentile(&self, q: f64) -> f64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_upper(i).min(f64::from_bits(self.max_bits.load(Ordering::Relaxed)));
            }
        }
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    pub fn stats(&self) -> HistStats {
        let count = self.count.load(Ordering::Relaxed);
        let sum = f64::from_bits(self.sum_bits.load(Ordering::Relaxed));
        let min = if count == 0 {
            0.0
        } else {
            f64::from_bits(self.min_bits.load(Ordering::Relaxed))
        };
        HistStats {
            count,
            sum,
            mean: if count == 0 { 0.0 } else { sum / count as f64 },
            min,
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
        }
    }

    /// Zero this histogram only (the bench harness scopes measurements per
    /// experiment this way; [`crate::reset`] zeroes everything).
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0, Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits.store(0, Ordering::Relaxed);
        self.ex_next.store(0, Ordering::Relaxed);
        for i in 0..EXEMPLAR_SLOTS {
            self.ex_trace[i].store(0, Ordering::Relaxed);
            self.ex_value_bits[i].store(0, Ordering::Relaxed);
        }
    }
}

/// Throughput meter: a counter plus its observation window start.
pub struct Meter {
    count: AtomicU64,
    epoch: Mutex<Instant>,
}

impl Meter {
    fn new() -> Self {
        Meter {
            count: AtomicU64::new(0),
            epoch: Mutex::new(Instant::now()),
        }
    }

    #[inline]
    pub fn mark(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Events per second since creation (or last reset).
    pub fn per_sec(&self) -> f64 {
        let elapsed = self.epoch.lock().unwrap().elapsed().as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        self.count.load(Ordering::Relaxed) as f64 / elapsed
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        *self.epoch.lock().unwrap() = Instant::now();
    }
}

/// Interning registry for every metric kind.
#[derive(Default)]
pub(crate) struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
    meters: Mutex<BTreeMap<&'static str, &'static Meter>>,
}

pub(crate) fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

impl Registry {
    pub(crate) fn counter(&self, name: &'static str) -> &'static Counter {
        let mut map = self.counters.lock().unwrap();
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(Counter::new())))
    }

    pub(crate) fn gauge(&self, name: &'static str) -> &'static Gauge {
        let mut map = self.gauges.lock().unwrap();
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(Gauge::new())))
    }

    pub(crate) fn histogram(&self, name: &'static str) -> &'static Histogram {
        let mut map = self.histograms.lock().unwrap();
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
    }

    pub(crate) fn meter(&self, name: &'static str) -> &'static Meter {
        let mut map = self.meters.lock().unwrap();
        map.entry(name)
            .or_insert_with(|| Box::leak(Box::new(Meter::new())))
    }

    pub(crate) fn reset(&self) {
        for c in self.counters.lock().unwrap().values() {
            c.reset();
        }
        for g in self.gauges.lock().unwrap().values() {
            g.reset();
        }
        for h in self.histograms.lock().unwrap().values() {
            h.reset();
        }
        for m in self.meters.lock().unwrap().values() {
            m.reset();
        }
    }

    /// Snapshot every metric, alphabetically, for the sinks.
    pub(crate) fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (*k, v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (*k, v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (*k, v.stats(), v.exemplars()))
                .collect(),
            meters: self
                .meters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (*k, (v.count(), v.per_sec())))
                .collect(),
        }
    }
}

/// One histogram in a snapshot: name, stats, and (value, trace) exemplars.
pub(crate) type HistogramSnapshot = (&'static str, HistStats, Vec<(f64, u64)>);

pub(crate) struct RegistrySnapshot {
    pub counters: Vec<(&'static str, u64)>,
    pub gauges: Vec<(&'static str, f64)>,
    pub histograms: Vec<HistogramSnapshot>,
    pub meters: Vec<(&'static str, (u64, f64))>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone_and_bounded() {
        let mut last = 0;
        for exp in -10..13 {
            let idx = bucket_index(10f64.powi(exp));
            assert!(idx >= last);
            assert!(idx < BUCKETS);
            last = idx;
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
    }
}
