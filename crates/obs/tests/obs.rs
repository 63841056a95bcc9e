//! Integration tests for ls-obs: histogram percentiles, nested-span
//! parenting, counter atomicity under contention, and JSONL round-trips.
//!
//! The registry, level, and JSONL sink are process-global, so every test
//! uses its own metric names and every test that sets the level or owns the
//! sink serializes on one mutex.

use ls_obs::{HistStats, Json, Level};
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Guards the global level and JSONL sink (one writer slot per process). A
/// test that fails while holding it does not poison the others.
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// An in-memory `Write` target whose bytes stay reachable after the sink
/// takes ownership of the boxed writer.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn histogram_percentiles_on_known_distribution() {
    let _guard = global_lock();
    ls_obs::set_level(Level::Summary);
    let h = ls_obs::histogram("test.hist.uniform");
    h.reset();
    // 1ms..=1000ms uniform: p50 ≈ 0.5s, p90 ≈ 0.9s, p99 ≈ 0.99s. The
    // geometric buckets quantize within ~5% relative error.
    for i in 1..=1000 {
        h.record(i as f64 * 1e-3);
    }
    let st: HistStats = h.stats();
    assert_eq!(st.count, 1000);
    assert!((st.min - 1e-3).abs() < 1e-9, "min {}", st.min);
    assert!((st.max - 1.0).abs() < 1e-9, "max {}", st.max);
    assert!((st.mean - 0.5005).abs() < 1e-6, "mean {}", st.mean);
    for (q, want) in [(st.p50, 0.5), (st.p90, 0.9), (st.p99, 0.99)] {
        assert!(
            (q - want).abs() / want < 0.06,
            "percentile {q} too far from {want}"
        );
    }
    // Percentiles never exceed the recorded maximum.
    assert!(st.p99 <= st.max + 1e-12);
}

#[test]
fn histogram_percentiles_heavy_tail() {
    let _guard = global_lock();
    ls_obs::set_level(Level::Summary);
    let h = ls_obs::histogram("test.hist.tail");
    h.reset();
    // 97 fast ops at 1ms, three stragglers at 10s: p50/p90 stay at the
    // mode; p99 (rank 99 of 100) must reach into the tail.
    for _ in 0..97 {
        h.record(1e-3);
    }
    for _ in 0..3 {
        h.record(10.0);
    }
    let st = h.stats();
    assert!(st.p50 < 2e-3, "p50 {}", st.p50);
    assert!(st.p90 < 2e-3, "p90 {}", st.p90);
    assert!(st.p99 > 1.0, "p99 {} must see the straggler", st.p99);
    // Non-finite and negative samples are dropped, not recorded.
    h.record(f64::NAN);
    h.record(f64::INFINITY);
    h.record(-1.0);
    assert_eq!(h.stats().count, 100);
}

#[test]
fn counter_atomic_under_contention() {
    let _guard = global_lock();
    ls_obs::set_level(Level::Summary);
    let c = ls_obs::counter("test.counter.contended");
    let threads = 8;
    let per_thread = 10_000u64;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            std::thread::spawn(move || {
                // Handles are &'static, so each thread can intern its own.
                let c = ls_obs::counter("test.counter.contended");
                for _ in 0..per_thread {
                    c.incr();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(c.get(), threads * per_thread);
}

#[test]
fn meter_counts_and_rates() {
    let _guard = global_lock();
    ls_obs::set_level(Level::Summary);
    let m = ls_obs::meter("test.meter.rows");
    m.mark(500);
    m.mark(250);
    assert_eq!(m.count(), 750);
    assert!(m.per_sec() > 0.0);
}

#[test]
fn nested_spans_parent_correctly_and_round_trip() {
    let _guard = global_lock();
    ls_obs::set_level(Level::Summary);
    let buf = SharedBuf::default();
    ls_obs::init_jsonl_writer(Box::new(buf.clone()));

    {
        let _outer = ls_obs::span("test.outer").with("k", 1u64);
        assert_ne!(ls_obs::current_span_id(), 0);
        {
            let _inner = ls_obs::span("test.inner").with("label", "leaf");
        }
        let _sibling = ls_obs::span("test.sibling");
    }
    assert_eq!(ls_obs::current_span_id(), 0, "stack must unwind to root");
    ls_obs::flush();
    drop(ls_obs::take_jsonl_writer());

    let text = buf.contents();
    let records: Vec<Json> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| ls_obs::parse_json(l).expect("every JSONL line parses"))
        .collect();
    let span_of = |name: &str| {
        records
            .iter()
            .find(|r| {
                r.get("t").and_then(Json::as_str) == Some("span")
                    && r.get("name").and_then(Json::as_str) == Some(name)
            })
            .unwrap_or_else(|| panic!("no span record for {name}"))
    };
    let outer = span_of("test.outer");
    let inner = span_of("test.inner");
    let sibling = span_of("test.sibling");
    let id = |r: &Json| r.get("id").and_then(Json::as_u64).unwrap();
    let parent = |r: &Json| r.get("parent").and_then(Json::as_u64).unwrap();
    assert_eq!(parent(outer), 0, "outer span is a root");
    assert_eq!(parent(inner), id(outer), "inner nests under outer");
    assert_eq!(parent(sibling), id(outer), "sibling also nests under outer");
    assert!(
        inner
            .get("fields")
            .and_then(|f| f.get("label"))
            .and_then(Json::as_str)
            == Some("leaf"),
        "fields survive the round trip: {text}"
    );

    // The flush() appended a metrics snapshot; it must parse and carry the
    // span-duration histograms fed by the guards above.
    let metrics = records
        .iter()
        .find(|r| r.get("t").and_then(Json::as_str) == Some("metrics"))
        .expect("flush writes a metrics record");
    let hists = metrics.get("histograms").expect("histograms object");
    let outer_hist = hists.get("test.outer").expect("span feeds its histogram");
    assert!(outer_hist.get("count").and_then(Json::as_u64).unwrap() >= 1);
}

#[test]
fn spans_span_threads_independently() {
    let _guard = global_lock();
    ls_obs::set_level(Level::Summary);
    // Parenting is per-thread: a span opened on another thread must not
    // adopt this thread's open span as parent.
    let _outer = ls_obs::span("test.thread.outer");
    let outer_id = ls_obs::current_span_id();
    assert_ne!(outer_id, 0);
    let child_parent = std::thread::spawn(|| {
        let _s = ls_obs::span("test.thread.worker");
        // The worker thread's stack starts at root.
        ls_obs::current_span_id()
    })
    .join()
    .unwrap();
    assert_ne!(child_parent, 0, "worker span is open on its own thread");
    assert_ne!(child_parent, outer_id, "ids are process-unique");
    assert_eq!(
        ls_obs::current_span_id(),
        outer_id,
        "this thread undisturbed"
    );
}

#[test]
fn exemplar_histograms_carry_trace_ids() {
    let _guard = global_lock();
    ls_obs::set_level(Level::Summary);
    let h = ls_obs::histogram("test.hist.exemplar");
    h.reset();
    h.record_traced(0.25, 0xabc);
    h.record_traced(0.5, 0xdef);
    let ex = h.exemplars();
    assert!(ex.contains(&(0.25, 0xabc)), "first exemplar kept: {ex:?}");
    assert!(ex.contains(&(0.5, 0xdef)), "second exemplar kept: {ex:?}");
    // Trace 0 (untraced) and non-finite samples never become exemplars.
    h.record_traced(1.0, 0);
    h.record_traced(f64::NAN, 7);
    assert!(!h.exemplars().iter().any(|&(_, t)| t == 7));
    assert_eq!(h.exemplars().len(), 2);
    // Round-robin eviction: overfilling keeps exactly the newest slots.
    for i in 0..ls_obs::EXEMPLAR_SLOTS as u64 {
        h.record_traced(0.1 + i as f64 * 0.01, 1000 + i);
    }
    let ex = h.exemplars();
    assert_eq!(ex.len(), ls_obs::EXEMPLAR_SLOTS);
    assert!(
        ex.iter().all(|&(_, t)| t >= 1000),
        "old traces evicted: {ex:?}"
    );
    // Exemplar bookkeeping never perturbs the distribution itself: every
    // finite sample above was recorded, including the untraced one.
    assert_eq!(h.stats().count, 3 + ls_obs::EXEMPLAR_SLOTS as u64);
    // reset() clears exemplars along with the buckets.
    h.reset();
    assert!(h.exemplars().is_empty());
}

#[test]
fn flight_recorder_dumps_on_panic() {
    use ls_obs::recorder;
    recorder::enable(256);
    let dir = std::env::temp_dir().join(format!(
        "ls-obs-recorder-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("flight.jsonl");
    recorder::set_dump_path(path.to_str().unwrap());
    recorder::install_panic_hook();

    recorder::record(
        recorder::EventKind::Event,
        "test.prelude.event",
        0x5151,
        11,
        22,
    );
    let err = std::panic::catch_unwind(|| panic!("recorder black-box test"));
    assert!(err.is_err());

    let text = std::fs::read_to_string(&path).expect("panic hook wrote the dump");
    assert!(!text.trim().is_empty(), "dump is non-empty");
    let records: Vec<Json> = text
        .lines()
        .map(|l| ls_obs::parse_json(l).expect("each dump line is JSON"))
        .collect();
    // The event recorded before the panic survives, with its payload.
    let prelude = records
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some("test.prelude.event"))
        .expect("prelude event in dump");
    assert_eq!(prelude.get("a").and_then(Json::as_u64), Some(11));
    assert_eq!(prelude.get("b").and_then(Json::as_u64), Some(22));
    assert_eq!(
        prelude.get("trace").and_then(Json::as_str),
        Some(format!("{:016x}", 0x5151).as_str())
    );
    // The panic itself lands in the ring as the last-breath event.
    assert!(
        records
            .iter()
            .any(|r| r.get("name").and_then(Json::as_str) == Some("recorder black-box test")),
        "panic message recorded: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disabled_spans_are_inert() {
    let _guard = global_lock();
    // With level Off and no sink, spans carry no id and record nothing.
    drop(ls_obs::take_jsonl_writer());
    ls_obs::set_level(Level::Off);
    if !ls_obs::jsonl_active() {
        let h = ls_obs::histogram("test.disabled.span");
        h.reset();
        let s = ls_obs::span("test.disabled.span");
        assert_eq!(s.id(), 0);
        drop(s);
        assert_eq!(h.stats().count, 0, "disabled span must not record");
    }
    ls_obs::set_level(Level::Summary);
}
