//! Kill-at-any-byte crash-recovery fuzz.
//!
//! For many seeds, a writer appends records while a seeded fault plan
//! injects `Error`/`Truncate` faults at every I/O seam (`wal.append.write`,
//! `wal.sync.fsync`, `wal.rotate.rename`). The first injected failure is the
//! "crash" — exactly what a kill at that byte would leave on disk, since the
//! writer poisons itself and stops. We then reopen with recovery and assert
//! the crash contract:
//!
//! * recovered records are a **prefix** of the appended sequence (never a
//!   gap, never a reorder, never a phantom);
//! * the prefix **covers every acked record** (append + covering fsync
//!   returned `Ok`);
//! * recovery is idempotent (a second open finds a clean tail) and the log
//!   accepts appends again.
//!
//! `Corrupt` is deliberately excluded here: flipping bytes that an fsync
//! already covered models bit rot, not a crash, and is asserted separately
//! (mid-log corruption ⇒ typed `WalError::Corrupt`) in the unit tests.

use ls_fault::{FaultKind, FaultPlan, FaultRule, FaultSpec, Injector, NoFaults};
use ls_wal::{replay, Wal, WalError, WalOptions};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ls-wal-fuzz-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn payload(i: u64) -> Vec<u8> {
    format!("feedback-{i:06}-{}", "p".repeat((i % 29) as usize)).into_bytes()
}

/// One crash trial: append under faults until the first injected failure,
/// then recover and check the prefix/acked invariants. Returns how many
/// records the crashed run acked.
fn crash_trial(seed: u64, fsync_every: usize, segment_bytes: u64) -> u64 {
    let dir = temp_dir(&format!("s{seed}-f{fsync_every}"));
    let spec = FaultSpec::new()
        .rule(FaultRule::bernoulli(
            "wal.append.write",
            FaultKind::Error,
            12,
        ))
        .rule(FaultRule::bernoulli(
            "wal.append.write",
            FaultKind::Truncate,
            12,
        ))
        .rule(FaultRule::bernoulli("wal.sync.fsync", FaultKind::Error, 8))
        .rule(FaultRule::bernoulli(
            "wal.rotate.rename",
            FaultKind::Error,
            40,
        ));
    let plan: Arc<dyn Injector> = Arc::new(FaultPlan::compile(seed, &spec));
    let opts = WalOptions {
        segment_bytes,
        fsync_every,
    };

    let mut attempted: Vec<Vec<u8>> = Vec::new();
    let mut acked = 0u64;
    match Wal::open_with(&dir, opts, plan) {
        Ok(mut wal) => {
            for i in 0..600u64 {
                let p = payload(i);
                attempted.push(p.clone());
                match wal.append(&p) {
                    Ok(_) => {}
                    Err(WalError::Io(_)) => break, // the crash
                    Err(WalError::Poisoned) => break,
                    Err(e) => panic!("seed {seed}: unexpected error {e}"),
                }
            }
            // Whether the loop crashed out or ran clean, durable_lsn is
            // what the writer acked before the cut.
            acked = wal.durable_lsn();
        }
        Err(WalError::Io(_)) => {} // crashed while creating the first segment
        Err(e) => panic!("seed {seed}: unexpected open error {e}"),
    }

    // Reopen without faults: this is the post-crash recovery.
    let wal = Wal::open_with(&dir, WalOptions::default(), Arc::new(NoFaults))
        .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
    let report = *wal.recovery();
    drop(wal);
    let (records, replay_report) = replay(&dir, 0).unwrap();
    assert_eq!(
        report.records, replay_report.records,
        "seed {seed}: writer recovery and read-only replay disagree"
    );

    // Prefix property: recovered records are exactly attempted[0..n].
    assert!(
        records.len() <= attempted.len(),
        "seed {seed}: recovered {} records but only {} were appended",
        records.len(),
        attempted.len()
    );
    for (i, (lsn, p)) in records.iter().enumerate() {
        assert_eq!(*lsn, i as u64, "seed {seed}: LSN gap at {i}");
        assert_eq!(p, &attempted[i], "seed {seed}: payload mismatch at {i}");
    }
    // No acked record may be lost.
    assert!(
        records.len() as u64 >= acked,
        "seed {seed}: lost acked records — acked {acked}, recovered {}",
        records.len()
    );

    // Recovery is idempotent and the log is writable again.
    let mut wal = Wal::open(&dir).unwrap();
    assert_eq!(wal.recovery().truncated_tail_bytes, 0, "seed {seed}");
    let next = wal.append(b"post-recovery append").unwrap();
    assert_eq!(next, records.len() as u64, "seed {seed}");

    let _ = fs::remove_dir_all(&dir);
    acked
}

#[test]
fn kill_at_any_byte_recovers_prefix_of_acked() {
    let mut crashed_with_acks = 0u32;
    for seed in 0..40u64 {
        let acked = crash_trial(seed, 1, 1 << 20);
        if acked > 0 {
            crashed_with_acks += 1;
        }
    }
    assert!(
        crashed_with_acks > 10,
        "fuzz too weak: only {crashed_with_acks}/40 trials acked anything"
    );
}

#[test]
fn kill_at_any_byte_with_fsync_batching() {
    for seed in 100..130u64 {
        crash_trial(seed, 8, 1 << 20);
    }
}

#[test]
fn kill_at_any_byte_across_rotations() {
    for seed in 200..230u64 {
        crash_trial(seed, 1, 256);
    }
}

#[test]
fn double_crash_then_recover() {
    // Crash, recover, crash again under a different schedule, recover again:
    // the prefix property must hold across the whole history.
    let dir = temp_dir("double");
    let mut appended: Vec<Vec<u8>> = Vec::new();
    let mut acked = 0u64;
    for (round, seed) in [3u64, 11u64].into_iter().enumerate() {
        let spec = FaultSpec::new()
            .rule(FaultRule::bernoulli(
                "wal.append.write",
                FaultKind::Truncate,
                25,
            ))
            .rule(FaultRule::bernoulli("wal.sync.fsync", FaultKind::Error, 15));
        let plan: Arc<dyn Injector> = Arc::new(FaultPlan::compile(seed, &spec));
        let opts = WalOptions {
            segment_bytes: 512,
            fsync_every: 1,
        };
        let Ok(mut wal) = Wal::open_with(&dir, opts, plan) else {
            continue;
        };
        // Recovery may have cut unacked tail records from the last round;
        // our appended history must shrink to match what survived.
        appended.truncate(wal.next_lsn() as usize);
        for i in 0..200u64 {
            let p = format!("round-{round}-rec-{i}").into_bytes();
            appended.push(p.clone());
            match wal.append(&p) {
                Ok(_) => acked = wal.durable_lsn(),
                Err(_) => break,
            }
        }
    }
    let (records, _) = replay(&dir, 0).unwrap();
    assert!(records.len() as u64 >= acked, "lost acked records");
    assert!(records.len() <= appended.len());
    for (i, (lsn, p)) in records.iter().enumerate() {
        assert_eq!(*lsn, i as u64);
        assert_eq!(p, &appended[i]);
    }
    let _ = fs::remove_dir_all(&dir);
}
