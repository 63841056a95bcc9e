//! The persistent pool's lifecycle: helper reuse and growth, panics in the
//! caller's and a helper's share, a second submitter while the helpers are
//! busy, and a stream consuming while its producer still runs.
//!
//! These tests read the process-wide `par.pool.*` counters and rely on the
//! helpers being free, so they take one lock each and run one at a time.

use ls_par::{par_chunks_mut, par_map, stream, with_threads};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

/// Runs the test alone, with telemetry on so the pool counts.
fn alone() -> MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    ls_obs::set_level(ls_obs::Level::Summary);
    guard
}

fn spawns() -> u64 {
    ls_obs::counter("par.pool.spawns").get()
}

fn squares(n: u64) -> Vec<u64> {
    (0..n).map(|x| x * x).collect()
}

#[test]
fn helpers_are_spawned_once_and_reused() {
    let _alone = alone();
    let items: Vec<u64> = (0..64).collect();
    // The first call at width 3 spawns what the pool lacks, and no call at
    // that width spawns again.
    assert_eq!(
        with_threads(3, || par_map(&items, |_, &x| x * x)),
        squares(64)
    );
    let warm = spawns();
    for _ in 0..100 {
        assert_eq!(
            with_threads(3, || par_map(&items, |_, &x| x * x)),
            squares(64)
        );
    }
    assert_eq!(spawns(), warm, "helpers respawned at the same width");
    // A wider width grows the helper set once.
    let wide = 16;
    assert_eq!(
        with_threads(wide, || par_map(&items, |_, &x| x * x)),
        squares(64)
    );
    let grown = spawns();
    assert!(grown > warm, "a wider width spawned no helper");
    assert!(
        grown <= (wide - 1) as u64,
        "{grown} helpers for width {wide}"
    );
    for _ in 0..10 {
        assert_eq!(
            with_threads(wide, || par_map(&items, |_, &x| x * x)),
            squares(64)
        );
    }
    assert_eq!(spawns(), grown, "helpers respawned at the wider width");
}

/// Two chunks at width 2, one per share. Both shares meet at a barrier, so
/// they run at once and share 1 is a helper's. The share on the thread
/// `panics_on` picks signals and panics; the other share finishes its work
/// only after that signal. Returns whether the panic reached the caller and
/// whether the other share had finished by then.
fn two_shares_one_panics(panics_on: fn(ThreadId, ThreadId) -> bool) -> (bool, bool) {
    let caller = std::thread::current().id();
    let meet = Barrier::new(2);
    let other_done = AtomicBool::new(false);
    let (panicking_tx, panicking_rx) = channel();
    let (panicking_tx, panicking_rx) = (Mutex::new(panicking_tx), Mutex::new(panicking_rx));
    let mut data = [0u8; 2];
    let r = catch_unwind(AssertUnwindSafe(|| {
        with_threads(2, || {
            par_chunks_mut(&mut data, 1, |_, chunk| {
                meet.wait();
                let me = std::thread::current().id();
                if panics_on(me, caller) {
                    panicking_tx.lock().unwrap().send(()).unwrap();
                    panic!("share on {me:?} failed");
                }
                panicking_rx
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(30))
                    .expect("the other share panics");
                chunk[0] = 1;
                other_done.store(true, Ordering::SeqCst);
            })
        })
    }));
    (r.is_err(), other_done.load(Ordering::SeqCst))
}

#[test]
fn panics_in_either_share_propagate_and_the_helpers_recover() {
    let _alone = alone();
    let items: Vec<u64> = (0..200).collect();
    // A helper's share panics, and the caller's share runs to its end.
    let (raised, other_done) = two_shares_one_panics(|me, caller| me != caller);
    assert!(raised && other_done);
    assert_eq!(
        with_threads(2, || par_map(&items, |_, &x| x * x)),
        squares(200)
    );
    // The caller's share panics; the panic reaches the caller only after
    // the helper's share has run to its end.
    let (raised, other_done) = two_shares_one_panics(|me, caller| me == caller);
    assert!(raised && other_done);
    assert_eq!(
        with_threads(2, || par_map(&items, |_, &x| x * x)),
        squares(200)
    );
}

#[test]
fn a_second_submitter_runs_inline_while_the_helpers_are_busy() {
    let _alone = alone();
    let inline_busy = || ls_obs::counter("par.pool.inline_busy").get();
    let before = inline_busy();
    let items: Vec<u64> = (0..50).collect();
    let (started_tx, started_rx) = channel();
    let (done_tx, done_rx) = channel::<()>();
    let (started_tx, done_rx) = (Mutex::new(started_tx), Mutex::new(done_rx));
    std::thread::scope(|s| {
        let first = s.spawn(|| {
            with_threads(2, || {
                par_map(&items, |i, &x| {
                    if i == 0 {
                        // Hold this job open until the second submitter is
                        // done.
                        started_tx.lock().unwrap().send(()).unwrap();
                        done_rx
                            .lock()
                            .unwrap()
                            .recv_timeout(Duration::from_secs(30))
                            .expect("the second submitter finishes");
                    }
                    x * x
                })
            })
        });
        started_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the first job starts");
        let second = with_threads(2, || par_map(&items, |_, &x| x + 1));
        done_tx.send(()).unwrap();
        assert_eq!(second, (1..51).collect::<Vec<u64>>());
        assert_eq!(first.join().unwrap(), squares(50));
    });
    assert_eq!(inline_busy(), before + 1);
}

#[test]
fn stream_consumes_while_the_producer_still_runs() {
    let _alone = alone();
    let (ack_tx, ack_rx) = channel();
    let ack_tx = Mutex::new(ack_tx);
    let out = with_threads(2, || {
        stream(
            |emit| {
                for x in 0..5u64 {
                    emit(x);
                    // Each item is consumed before the producer emits the
                    // next one.
                    let got: u64 = ack_rx
                        .recv_timeout(Duration::from_secs(30))
                        .expect("a helper consumes the item while the producer waits");
                    assert_eq!(got, x);
                }
            },
            |_, x| {
                ack_tx.lock().unwrap().send(x).unwrap();
                x * 10
            },
        )
    });
    assert_eq!(out, vec![0, 10, 20, 30, 40]);
}

#[test]
fn a_producer_panic_releases_waiting_consumers() {
    let _alone = alone();
    let (consumed_tx, consumed_rx) = channel();
    let consumed_tx = Mutex::new(consumed_tx);
    let r = catch_unwind(AssertUnwindSafe(|| {
        with_threads(4, || {
            stream(
                |emit| {
                    emit(1u32);
                    // The consumers are waiting for more when this panics.
                    consumed_rx
                        .recv_timeout(Duration::from_secs(30))
                        .expect("a helper consumes the first item");
                    panic!("producer failed");
                },
                |_, x| {
                    consumed_tx.lock().unwrap().send(()).unwrap();
                    x
                },
            )
        })
    }));
    assert!(r.is_err());
    let items: Vec<u64> = (0..30).collect();
    assert_eq!(
        with_threads(4, || par_map(&items, |_, &x| x * x)),
        squares(30)
    );
}

#[test]
fn every_share_records_its_busy_time() {
    let _alone = alone();
    let busy = || ls_obs::histogram("par.worker.busy").stats();
    let items: Vec<u64> = (0..64).collect();
    // Three shares, the caller's included, whoever works them.
    let before = busy().count;
    assert_eq!(
        with_threads(3, || par_map(&items, |_, &x| x * x)),
        squares(64)
    );
    assert_eq!(busy().count, before + 3);
    // A stream's producer and each consumer record one share apiece, and
    // a consumer's wait for the producer is not busy time.
    let (before, sum_before) = (busy().count, busy().sum);
    let mut produced_for = 0.0;
    let out = with_threads(2, || {
        stream(
            |emit| {
                let t0 = std::time::Instant::now();
                emit(7u64);
                std::thread::sleep(Duration::from_millis(200));
                produced_for = t0.elapsed().as_secs_f64();
            },
            |_, x| x,
        )
    });
    assert_eq!(out, vec![7]);
    let after = busy();
    assert_eq!(after.count, before + 2);
    let added = after.sum - sum_before;
    assert!(
        added >= produced_for && added < 1.5 * produced_for,
        "busy {added:.3} s for a {produced_for:.3} s producer and an idle consumer"
    );
}
