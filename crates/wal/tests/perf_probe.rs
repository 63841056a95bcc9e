//! Ignored perf probes backing the EXPERIMENTS.md "Online learning"
//! tables. Not assertions — they print measured append throughput and
//! recovery-scan time. Run with:
//!
//! ```bash
//! cargo test -p ls-wal --release --test perf_probe -- --ignored --nocapture
//! ```

use ls_fault::NoFaults;
use ls_wal::{replay, Wal, WalOptions};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ls_wal_perf_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const RECORDS: usize = 50_000;
const PAYLOAD: usize = 96; // ~ an encoded FeedbackRecord

#[test]
#[ignore = "perf probe, run with --ignored --nocapture"]
fn append_throughput_by_fsync_batch() {
    let payload = vec![0x5a_u8; PAYLOAD];
    println!("fsync_every  records/s      MB/s     fsyncs");
    for fsync_every in [1usize, 8, 64, 512] {
        let dir = temp_dir(&format!("tput_{fsync_every}"));
        let opts = WalOptions {
            segment_bytes: 8 << 20,
            fsync_every,
        };
        let mut wal = Wal::open_with(&dir, opts, Arc::new(NoFaults)).unwrap();
        let t0 = Instant::now();
        for _ in 0..RECORDS {
            wal.append(&payload).unwrap();
        }
        wal.sync().unwrap();
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "{fsync_every:>11}  {:>9.0}  {:>8.1}  {:>9}",
            RECORDS as f64 / secs,
            (RECORDS * PAYLOAD) as f64 / secs / 1e6,
            RECORDS.div_ceil(fsync_every),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
#[ignore = "perf probe, run with --ignored --nocapture"]
fn recovery_scan_time() {
    let payload = vec![0x5a_u8; PAYLOAD];
    println!("   records  segments   reopen     replay");
    for records in [10_000usize, 50_000, 200_000] {
        let dir = temp_dir(&format!("recover_{records}"));
        let opts = WalOptions {
            segment_bytes: 1 << 20,
            fsync_every: 512,
        };
        {
            let mut wal = Wal::open_with(&dir, opts.clone(), Arc::new(NoFaults)).unwrap();
            for _ in 0..records {
                wal.append(&payload).unwrap();
            }
            wal.sync().unwrap();
        }
        let t0 = Instant::now();
        let wal = Wal::open_with(&dir, opts, Arc::new(NoFaults)).unwrap();
        let reopen = t0.elapsed();
        let segments = wal.recovery().segments;
        drop(wal);
        let t0 = Instant::now();
        let (recs, _) = replay(&dir, 0).unwrap();
        let replay_t = t0.elapsed();
        assert_eq!(recs.len(), records);
        println!("{records:>10}  {segments:>8}  {reopen:>8.2?}  {replay_t:>8.2?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
