//! Online learning from a feedback WAL: deterministic replay training and
//! atomic snapshot publication.
//!
//! The streaming counterpart of [`crate::finetune()`]. Ranking feedback
//! arrives as [`FeedbackRecord`]s through a crash-atomic write-ahead log
//! (`ls-wal`); an [`OnlineTrainer`] consumes them **in LSN order, in
//! fixed-size batches at fixed absolute record boundaries** — never
//! dependent on arrival chunking, thread count, or wall clock — running
//! exactly the fine-tuning update rule (forward → scaled-MSE backward →
//! per-batch gradient clip → Adam step). That makes the whole loop a pure
//! function of `(WAL contents, seed)`:
//!
//! > same log + same seed ⇒ bit-identical model bytes, at any `LS_THREADS`.
//!
//! Trained weights are published as model snapshots (`save_model`, already
//! crash-atomic and CRC-sealed) plus a sealed `CURRENT` pointer written
//! last — a reader ([`load_current`]) therefore always observes either the
//! previous complete snapshot or the new complete snapshot, never a torn
//! one. The serving layer hot-swaps whatever `CURRENT` names.

use crate::checkpoint::{Stage, TrainCheckpoint};
use crate::finetune::push_gold_records;
use crate::model::LearnShapleyModel;
use crate::persist::save_model;
use crate::pretrain::GRAD_CLIP;
use crate::tokenizer::Tokenizer;
use ls_dbshap::{Dataset, FeedbackEvent};
use ls_fault::{read_verified, write_sealed, Cursor, DecodeError, Put};
use ls_nn::{Adam, AdamConfig, Snapshot};
use std::io;
use std::path::{Path, PathBuf};

/// One unit of ranking feedback: "for this query and this rendered
/// tuple-and-fact, the fact's (scaled) contribution is `target`". Offline
/// fine-tuning trains on the same records, so online updates speak the same
/// input language as offline training.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackRecord {
    /// The query's SQL.
    pub query_sql: String,
    /// Rendered `tuple ; fact` segment ([`crate::render_tuple_and_fact_featured`]).
    pub tuple_fact: String,
    /// Regression target (same scale as fine-tuning: top fact of a tuple ≈
    /// [`crate::SHAPLEY_SCALE`]).
    pub target: f32,
}

impl FeedbackRecord {
    /// Append the WAL payload form to `w`: the two strings, then `target`
    /// as raw `f32` bits. The `LSBP` feedback request carries exactly
    /// these bytes after its kind byte and id.
    pub fn write_to(&self, w: &mut Vec<u8>) {
        w.put_str(&self.query_sql);
        w.put_str(&self.tuple_fact);
        w.put_f32(self.target);
    }

    /// Read one record from `c`, leaving it just past the record.
    pub fn read_from(c: &mut Cursor<'_>) -> Result<FeedbackRecord, DecodeError> {
        Ok(FeedbackRecord {
            query_sql: c.str()?.to_string(),
            tuple_fact: c.str()?.to_string(),
            target: c.f32()?,
        })
    }

    /// Serialize to the WAL payload form.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Vec::with_capacity(self.query_sql.len() + self.tuple_fact.len() + 12);
        self.write_to(&mut w);
        w
    }

    /// Parse a WAL payload; every malformed variant, trailing bytes
    /// included, is a typed `InvalidData` error.
    pub fn decode(bytes: &[u8]) -> io::Result<FeedbackRecord> {
        let mut c = Cursor::new(bytes);
        let rec = FeedbackRecord::read_from(&mut c)?;
        c.finish()?;
        Ok(rec)
    }
}

/// Online-trainer knobs. Batch boundaries are part of the replay contract:
/// changing `batch` (or `lr`, `max_len`, `seed`) is a different training
/// function and yields different — though still deterministic — weights.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Records per optimizer step. Batches start at absolute record indices
    /// `0, batch, 2·batch, …`, independent of how records arrive.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Sequence-length cap for packed inputs.
    pub max_len: usize,
    /// Run seed; checkpoints refuse to resume under a different one.
    pub seed: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            batch: 8,
            lr: 3e-4,
            max_len: 64,
            seed: 99,
        }
    }
}

/// The streaming trainer. Owns the model it updates; the serving layer
/// takes published snapshots, never this live copy.
pub struct OnlineTrainer {
    model: LearnShapleyModel,
    tokenizer: Tokenizer,
    opt: Adam,
    cfg: OnlineConfig,
    /// Records fully consumed by completed optimizer steps — also the WAL
    /// watermark: the next record this trainer wants has LSN
    /// `consumed + pending.len()`.
    consumed: u64,
    steps: u64,
    pending: Vec<FeedbackRecord>,
}

impl OnlineTrainer {
    /// Wrap a (typically fine-tuned) model for streaming updates.
    pub fn new(model: LearnShapleyModel, tokenizer: Tokenizer, cfg: OnlineConfig) -> OnlineTrainer {
        let mut model = model;
        let opt = Adam::new(
            &mut model,
            AdamConfig {
                lr: cfg.lr,
                ..Default::default()
            },
        );
        OnlineTrainer {
            model,
            tokenizer,
            opt,
            cfg,
            consumed: 0,
            steps: 0,
            pending: Vec::new(),
        }
    }

    /// The live model (read-only: snapshots are published via
    /// [`OnlineTrainer::publish`]).
    pub fn model(&self) -> &LearnShapleyModel {
        &self.model
    }

    /// The tokenizer the trainer renders inputs with.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Records consumed by completed optimizer steps (the WAL watermark is
    /// `consumed() + buffered()`).
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Records buffered but not yet trained (less than one full batch,
    /// unless [`OnlineTrainer::train_pending`] hasn't run).
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Completed optimizer steps.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Offer one WAL record. Records at LSNs the trainer already holds are
    /// ignored (replay overlap after a restart); the LSN must otherwise
    /// continue the stream — the WAL guarantees gap-free delivery.
    pub fn ingest(&mut self, lsn: u64, rec: FeedbackRecord) {
        let watermark = self.consumed + self.pending.len() as u64;
        if lsn < watermark {
            return;
        }
        debug_assert_eq!(lsn, watermark, "WAL replay must be gap-free");
        self.pending.push(rec);
    }

    /// Train every complete batch sitting in the buffer. Partial batches
    /// stay buffered — their boundary is fixed at an absolute record index,
    /// so training them early would make weights depend on arrival timing.
    pub fn train_pending(&mut self) {
        while self.pending.len() >= self.cfg.batch.max(1) {
            let batch: Vec<FeedbackRecord> = self.pending.drain(..self.cfg.batch.max(1)).collect();
            self.train_batch(&batch);
        }
    }

    /// Terminal flush: train the trailing partial batch (used when a replay
    /// run ends; a live trainer leaves it buffered for the stream to fill).
    pub fn flush(&mut self) {
        if !self.pending.is_empty() {
            let batch: Vec<FeedbackRecord> = self.pending.drain(..).collect();
            self.train_batch(&batch);
        }
    }

    /// One optimizer step over `batch` — exactly the fine-tuning update:
    /// data-parallel per-example gradients reduced in example order, serial
    /// clip + Adam step. Bit-identical at every `LS_THREADS`.
    fn train_batch(&mut self, batch: &[FeedbackRecord]) {
        let idx: Vec<usize> = (0..batch.len()).collect();
        let grads = crate::data_parallel::batch_grads(&self.model, &idx, |worker, &si| {
            let s = &batch[si];
            let (tokens, segs) =
                self.tokenizer
                    .encode_pair(&s.query_sql, &s.tuple_fact, self.cfg.max_len);
            let pred = worker.forward_value(&tokens, &segs);
            worker.backward_value(2.0 * (pred - s.target));
        });
        crate::data_parallel::add_grads(&mut self.model, &grads);
        ls_nn::clip_grad_norm(&mut self.model, GRAD_CLIP * batch.len() as f32);
        self.opt.step(&mut self.model, 1.0 / batch.len() as f32);
        self.consumed += batch.len() as u64;
        self.steps += 1;
        ls_obs::counter("core.online.steps").incr();
        ls_obs::counter("core.online.records_trained").add(batch.len() as u64);
    }

    /// Persist the loop state (weights, Adam moments, watermark) as a
    /// [`Stage::Online`] checkpoint. Buffered records are *not* part of the
    /// state — they re-enter via WAL replay from the watermark.
    pub fn checkpoint(&mut self, path: &Path) -> io::Result<()> {
        let snap = Snapshot::capture(&mut self.model);
        TrainCheckpoint::capture(
            Stage::Online,
            &mut self.model,
            &self.opt,
            (&snap, 0.0, 0),
            self.steps as usize,
            self.consumed as usize,
            self.cfg.seed,
        )
        .save(path)?;
        ls_obs::counter("core.checkpoint.saved").incr();
        Ok(())
    }

    /// Resume from a [`Stage::Online`] checkpoint if one exists at `path`.
    /// Returns whether state was restored; buffered records are cleared —
    /// the caller replays the WAL from [`OnlineTrainer::consumed`].
    pub fn resume(&mut self, path: &Path) -> io::Result<bool> {
        match TrainCheckpoint::load(path, Stage::Online, self.cfg.seed)? {
            None => Ok(false),
            Some(state) => {
                self.opt = state.restore(&mut self.model)?;
                self.steps = state.epochs_done as u64;
                self.consumed = state.samples as u64;
                self.pending.clear();
                ls_obs::counter("core.checkpoint.resumed").incr();
                Ok(true)
            }
        }
    }

    /// Publish the current weights as snapshot `generation` in `dir`:
    /// write the sealed model file, then atomically repoint `CURRENT` at
    /// it. Readers racing with this see the old or the new generation,
    /// never a torn file.
    pub fn publish(&mut self, dir: &Path, generation: u64) -> io::Result<PathBuf> {
        publish_snapshot(dir, generation, &mut self.model, &self.tokenizer)
    }
}

/// File name of snapshot `generation`.
pub fn snapshot_name(generation: u64) -> String {
    format!("snap-{generation:016x}.lsmd")
}

/// Write `model` as snapshot `generation` under `dir` and atomically
/// repoint the sealed `CURRENT` file at it. Publication order (snapshot
/// first, pointer last, both crash-atomic) is what makes the pair safe to
/// read concurrently with a crash at any byte.
pub fn publish_snapshot(
    dir: &Path,
    generation: u64,
    model: &mut LearnShapleyModel,
    tokenizer: &Tokenizer,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let name = snapshot_name(generation);
    let path = dir.join(&name);
    save_model(model, tokenizer, &path)?;
    let mut body = Vec::with_capacity(8 + 4 + name.len());
    body.put_u64(generation);
    body.put_str(&name);
    write_sealed(&dir.join("CURRENT"), body)?;
    ls_obs::counter("core.online.published").incr();
    Ok(path)
}

/// Resolve the currently-published snapshot: `Ok(None)` when nothing was
/// ever published, the generation and snapshot path otherwise. A pointer
/// naming a missing or torn snapshot is a typed error — the publisher's
/// write order makes that state unreachable without external interference.
pub fn load_current(dir: &Path) -> io::Result<Option<(u64, PathBuf)>> {
    let pointer = dir.join("CURRENT");
    let body = match read_verified(&pointer) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut r = Cursor::new(&body);
    let generation = r.u64()?;
    let name = r.str()?;
    r.finish()?;
    if name.contains(['/', '\\']) || name.contains("..") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "CURRENT pointer names a non-local path",
        ));
    }
    Ok(Some((generation, dir.join(name))))
}

/// Replay an entire feedback WAL into a fresh trainer state: ingest every
/// record in LSN order, train all batches, flush the trailing partial one.
/// This is the deterministic-replay entry point — the resulting weights are
/// a pure function of `(WAL contents, model init, cfg)`.
pub fn replay_train(
    wal_dir: &Path,
    model: LearnShapleyModel,
    tokenizer: Tokenizer,
    cfg: OnlineConfig,
) -> io::Result<OnlineTrainer> {
    let (records, _report) = ls_wal::replay(wal_dir, 0)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let mut trainer = OnlineTrainer::new(model, tokenizer, cfg);
    for (lsn, payload) in records {
        trainer.ingest(lsn, FeedbackRecord::decode(&payload)?);
    }
    trainer.train_pending();
    trainer.flush();
    Ok(trainer)
}

/// Materialize feedback records for a stream of (query, tuple) interest
/// events from the dataset's recorded ground truth — one record per lineage
/// fact, with the fine-tuning records' targets.
pub fn feedback_from_gold(ds: &Dataset, events: &[FeedbackEvent]) -> Vec<FeedbackRecord> {
    let mut out = Vec::new();
    for e in events {
        let q = &ds.queries[e.query];
        if let Some(t) = q.tuples.get(e.tuple) {
            push_gold_records(ds, q, t, &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_codec_round_trips() {
        let rec = FeedbackRecord {
            query_sql: "SELECT title FROM movies WHERE year > 2000".into(),
            tuple_fact: "tuple ; fact".into(),
            target: 3.25,
        };
        let bytes = rec.encode();
        assert_eq!(FeedbackRecord::decode(&bytes).unwrap(), rec);
    }

    #[test]
    fn record_codec_rejects_every_malformed_variant() {
        let rec = FeedbackRecord {
            query_sql: "q".into(),
            tuple_fact: "tf".into(),
            target: 1.0,
        };
        let bytes = rec.encode();
        // Truncations at every byte are typed errors, never panics.
        for cut in 0..bytes.len() {
            assert!(
                FeedbackRecord::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(FeedbackRecord::decode(&long).is_err());
        // Non-UTF-8 string body.
        let mut bad_utf8 = bytes.clone();
        bad_utf8[4] = 0xFF;
        assert!(FeedbackRecord::decode(&bad_utf8).is_err());
        // Declared length overrunning the payload.
        let mut overrun = bytes;
        overrun[0] = 200;
        assert!(FeedbackRecord::decode(&overrun).is_err());
    }

    #[test]
    fn current_pointer_round_trips_and_rejects_traversal() {
        let dir = std::env::temp_dir().join(format!("ls-online-cur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(load_current(&dir).unwrap().is_none());
        let mut body = Vec::new();
        body.put_u64(7);
        body.put_str("snap-0000000000000007.lsmd");
        write_sealed(&dir.join("CURRENT"), body).unwrap();
        let (g, p) = load_current(&dir).unwrap().unwrap();
        assert_eq!(g, 7);
        assert!(p.ends_with("snap-0000000000000007.lsmd"));
        // A pointer escaping the directory is refused.
        let mut evil = Vec::new();
        evil.put_u64(8);
        evil.put_str("../evil.lsmd");
        write_sealed(&dir.join("CURRENT"), evil).unwrap();
        assert!(load_current(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
