//! The serving-side online-learning engine: feedback WAL ingestion, the
//! background trainer thread, and zero-downtime snapshot hot-swap.
//!
//! ```text
//!  client ──feedback()──▶ ls-wal append+fsync ──▶ acked LSN
//!                               │
//!                    trainer thread (poll):
//!                      replay from watermark ─▶ OnlineTrainer batches
//!                               │ every publish_every records
//!                      publish snapshot ─▶ CURRENT ─▶ swap_model()
//! ```
//!
//! Crash story, end to end: feedback is acknowledged only after its WAL
//! fsync; the trainer's watermark rides in its `Stage::Online` checkpoint;
//! snapshots and the `CURRENT` pointer are written crash-atomically. Kill
//! the process at any byte and restart: [`Server::enable_online`] reloads
//! `CURRENT` (hot-swapping the last published weights in), the trainer
//! resumes from its checkpoint, and WAL replay re-delivers exactly the
//! acked records after its watermark — same batches, same boundaries,
//! bit-identical weights to a run that never crashed.

use crate::server::{ModelBundle, ServeError, ServeHandle, Server};
use ls_core::{FeedbackRecord, OnlineTrainer};
use ls_fault::lock_safe;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Knobs for [`Server::enable_online`].
#[derive(Debug, Clone)]
pub struct OnlineOptions {
    /// Directory of the feedback WAL (created if missing).
    pub wal_dir: PathBuf,
    /// Directory snapshots and the trainer checkpoint are published into.
    pub snapshot_dir: PathBuf,
    /// Publish + hot-swap after this many newly trained records (0 = ingest
    /// and train but never auto-publish; [`ServeHandle::swap_model`] stays
    /// available for manual swaps).
    pub publish_every: u64,
    /// Trainer poll interval between WAL scans.
    pub poll: Duration,
}

impl Default for OnlineOptions {
    fn default() -> Self {
        OnlineOptions {
            wal_dir: PathBuf::from("wal"),
            snapshot_dir: PathBuf::from("snapshots"),
            publish_every: 64,
            poll: Duration::from_millis(20),
        }
    }
}

/// Shared state of the online engine: the WAL writer (client appends) plus
/// the trainer thread's lifecycle and progress counters.
pub struct OnlineState {
    wal: Mutex<ls_wal::Wal>,
    opts: OnlineOptions,
    appended: AtomicU64,
    trained: AtomicU64,
    published_generation: AtomicU64,
    stop: AtomicBool,
    trainer: Mutex<Option<JoinHandle<()>>>,
}

impl OnlineState {
    /// Append one feedback record; the returned LSN is crash-durable.
    ///
    /// The TCP event-loop shards answer feedback frames inline, so the
    /// append+fsync below runs on a shard thread and stalls every
    /// connection that shard owns for its duration. The
    /// `serve.feedback.append` histogram keeps that cost visible.
    pub(crate) fn append(&self, rec: &FeedbackRecord) -> Result<u64, ServeError> {
        let t0 = ls_obs::enabled().then(std::time::Instant::now);
        let mut wal = lock_safe(&self.wal);
        match wal.append(&rec.encode()) {
            Ok(lsn) => {
                self.appended.fetch_add(1, Ordering::Relaxed);
                ls_obs::counter("serve.feedback.accepted").incr();
                if let Some(t0) = t0 {
                    ls_obs::histogram("serve.feedback.append")
                        .record_traced(t0.elapsed().as_secs_f64(), ls_obs::current_trace_id());
                }
                Ok(lsn)
            }
            Err(e) => {
                ls_obs::counter("serve.feedback.rejected").incr();
                Err(ServeError::Internal(format!("feedback wal: {e}")))
            }
        }
    }

    /// Progress as a JSON object for the admin `state` answer.
    pub(crate) fn status_json(&self) -> String {
        format!(
            "{{\"appended\":{},\"trained\":{},\"published_generation\":{}}}",
            self.appended.load(Ordering::Relaxed),
            self.trained.load(Ordering::Relaxed),
            self.published_generation.load(Ordering::Relaxed),
        )
    }

    /// Records accepted into the WAL since this engine started.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Records consumed by completed optimizer steps.
    pub fn trained(&self) -> u64 {
        self.trained.load(Ordering::Relaxed)
    }

    /// Generation of the last snapshot this engine published (0 = none).
    pub fn published_generation(&self) -> u64 {
        self.published_generation.load(Ordering::Relaxed)
    }

    /// Signal the trainer thread and join it (idempotent).
    pub(crate) fn stop_and_join(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = lock_safe(&self.trainer).take() {
            let _ = h.join();
        }
    }
}

impl Server {
    /// Attach the online-learning engine: open (recovering) the feedback
    /// WAL, hot-swap in the last published snapshot if one exists, resume
    /// the trainer from its checkpoint, and start the background training
    /// loop. Returns the engine handle; fails typed if called twice.
    ///
    /// `trainer` carries the model the online loop continues from; when a
    /// published snapshot or trainer checkpoint exists on disk, recovery
    /// state overrides the passed-in weights.
    pub fn enable_online(
        &self,
        mut trainer: OnlineTrainer,
        opts: OnlineOptions,
    ) -> io::Result<Arc<OnlineState>> {
        let handle = self.handle();
        std::fs::create_dir_all(&opts.snapshot_dir)?;
        let wal = ls_wal::Wal::open_with(
            &opts.wal_dir,
            ls_wal::WalOptions::default(),
            self.injector(),
        )
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;

        // Crash recovery, reader side: hot-swap the last published snapshot
        // so serving resumes on the newest trained weights immediately.
        let mut published = 0u64;
        if let Some((generation, path)) = ls_core::load_current(&opts.snapshot_dir)? {
            let (cur, _) = handle.current_model();
            let bundle = ModelBundle::load(&path, cur.db.clone(), cur.max_len)?;
            handle.swap_model(Arc::new(bundle));
            published = generation;
        }
        // Crash recovery, trainer side: the checkpoint restores weights,
        // optimizer moments, and the WAL watermark.
        let ck_path = opts.snapshot_dir.join("trainer.lstc");
        trainer.resume(&ck_path)?;

        let state = Arc::new(OnlineState {
            wal: Mutex::new(wal),
            opts: opts.clone(),
            appended: AtomicU64::new(0),
            trained: AtomicU64::new(trainer.consumed()),
            published_generation: AtomicU64::new(published),
            stop: AtomicBool::new(false),
            trainer: Mutex::new(None),
        });
        // Attach before spawning: a second enable_online must fail without
        // ever starting a rogue trainer thread.
        self.attach_online(state.clone()).map_err(|()| {
            io::Error::new(
                io::ErrorKind::AlreadyExists,
                "online learning already enabled",
            )
        })?;
        let thread_state = state.clone();
        let thread = std::thread::Builder::new()
            .name("ls-serve-trainer".into())
            .spawn(move || trainer_loop(&thread_state, trainer, handle, published))
            .expect("spawn online trainer");
        *lock_safe(&state.trainer) = Some(thread);
        Ok(state)
    }
}

/// The background training loop: poll the WAL, train complete batches,
/// publish + hot-swap every `publish_every` newly consumed records.
fn trainer_loop(
    state: &Arc<OnlineState>,
    mut trainer: OnlineTrainer,
    handle: ServeHandle,
    mut generation: u64,
) {
    let opts = &state.opts;
    let ck_path = opts.snapshot_dir.join("trainer.lstc");
    let mut last_published = trainer.consumed();
    while !state.stop.load(Ordering::Acquire) {
        // Read-only replay is safe concurrently with the live writer: the
        // writer's unsynced tail parses as torn and is simply not yet
        // visible. Replay starts at the trainer's watermark, so a poll
        // reads only the segment the watermark falls in and what follows.
        let watermark = trainer.consumed() + trainer.buffered() as u64;
        match ls_wal::replay(&opts.wal_dir, watermark) {
            Ok((records, _)) => {
                for (lsn, payload) in records {
                    match FeedbackRecord::decode(&payload) {
                        Ok(rec) => trainer.ingest(lsn, rec),
                        Err(_) => {
                            // An undecodable record is a poisoned producer,
                            // not a torn write (the WAL frame CRC passed);
                            // count it and keep the stream moving.
                            ls_obs::counter("serve.feedback.undecodable").incr();
                            trainer.ingest(
                                lsn,
                                FeedbackRecord {
                                    query_sql: String::new(),
                                    tuple_fact: String::new(),
                                    target: 0.0,
                                },
                            );
                        }
                    }
                }
            }
            Err(_) => {
                ls_obs::counter("serve.feedback.replay_errors").incr();
            }
        }
        trainer.train_pending();
        state.trained.store(trainer.consumed(), Ordering::Relaxed);
        if opts.publish_every > 0 && trainer.consumed() - last_published >= opts.publish_every {
            generation += 1;
            let swapped = trainer
                .checkpoint(&ck_path)
                .and_then(|()| trainer.publish(&opts.snapshot_dir, generation))
                .and_then(|path| {
                    let (cur, _) = handle.current_model();
                    ModelBundle::load(&path, cur.db.clone(), cur.max_len)
                });
            match swapped {
                Ok(bundle) => {
                    handle.swap_model(Arc::new(bundle));
                    state
                        .published_generation
                        .store(generation, Ordering::Relaxed);
                    last_published = trainer.consumed();
                }
                Err(_) => {
                    // Publication failed (disk fault): the serving path is
                    // untouched — old snapshot keeps answering — and the
                    // next cycle retries at the same generation.
                    generation -= 1;
                    ls_obs::counter("serve.feedback.publish_errors").incr();
                }
            }
        }
        // Bounded catnap so shutdown never waits longer than `poll`.
        std::thread::sleep(opts.poll);
    }
    // Terminal checkpoint so a clean shutdown resumes exactly here.
    let _ = trainer.checkpoint(&ck_path);
}
