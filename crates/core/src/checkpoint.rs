//! Mid-training checkpoint/resume for the pre-training and fine-tuning
//! loops.
//!
//! A checkpoint freezes everything the loop needs to continue *bit-
//! identically*: the live weights, the best-so-far weights and their
//! metric, the Adam moment buffers and step count (exact `f32` bit
//! patterns), the sample counter, and how many epochs completed — the
//! shuffle RNG is fast-forwarded on resume by replaying the completed
//! epochs' permutations from the same seed. An interrupted run resumed from
//! its checkpoint therefore finishes with weights whose bits equal the
//! uninterrupted run's (pinned by `tests/checkpoint_resume.rs`).
//!
//! Files are written through the crash-atomic, CRC32-checksummed
//! persistence layer ([`ls_fault::persist`]): a crash during a checkpoint
//! save leaves the previous checkpoint intact, and a corrupted file is
//! rejected at load instead of silently resuming from garbage.

use crate::model::LearnShapleyModel;
use ls_fault::{read_verified, write_sealed, Cursor, Put};
use ls_nn::{Adam, Snapshot};
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"LSTC";
const VERSION: u32 = 1;

/// Where and how often to checkpoint a training loop.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint file path (overwritten atomically at each save).
    pub path: PathBuf,
    /// Save after every this many completed epochs (`0` behaves as `1`).
    pub every_epochs: usize,
}

impl CheckpointConfig {
    /// Checkpoint to `path` after every epoch.
    pub fn new(path: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            path: path.into(),
            every_epochs: 1,
        }
    }

    fn period(&self) -> usize {
        self.every_epochs.max(1)
    }

    /// Should a checkpoint be written after `epoch` completes?
    pub(crate) fn due(&self, epoch: usize) -> bool {
        epoch.is_multiple_of(self.period())
    }
}

/// Which training loop a checkpoint belongs to (loading the wrong stage's
/// file is rejected).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Query-similarity pre-training ([`crate::pretrain()`]).
    Pretrain,
    /// Shapley-regression fine-tuning ([`crate::finetune()`]).
    Finetune,
    /// Streaming feedback training ([`crate::online::OnlineTrainer`]); the
    /// `samples` field doubles as the WAL consumption watermark.
    Online,
}

impl Stage {
    fn tag(self) -> u8 {
        match self {
            Stage::Pretrain => 0,
            Stage::Finetune => 1,
            Stage::Online => 2,
        }
    }
}

/// A frozen training-loop state. See the module docs for the resume
/// contract.
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    /// The loop this checkpoint belongs to.
    pub stage: Stage,
    /// Epochs fully completed (resume starts at `epochs_done + 1`).
    pub epochs_done: usize,
    /// Samples consumed so far.
    pub samples: usize,
    /// Best dev metric reached (MSE for pretrain, NDCG for finetune).
    pub best_metric: f64,
    /// Epoch of the best checkpoint (1-based, 0 = none yet).
    pub best_epoch: usize,
    /// The shuffle seed the run was started with (must match on resume).
    pub seed: u64,
    /// Live weights at the end of `epochs_done`. Crate-private, like the
    /// two fields below: [`TrainCheckpoint::restore`], which checks the
    /// layout first, is the only way into a model.
    pub(crate) model: Snapshot,
    /// Best-so-far weights.
    pub(crate) best: Snapshot,
    /// Serialized Adam state: the `LSAD` bytes of [`Adam::write_state`],
    /// decoded and checked against the model by [`TrainCheckpoint::restore`].
    pub(crate) opt_state: Vec<u8>,
}

impl TrainCheckpoint {
    /// Capture the loop state after an epoch.
    pub fn capture(
        stage: Stage,
        model: &mut LearnShapleyModel,
        opt: &Adam,
        best: (&Snapshot, f64, usize),
        epochs_done: usize,
        samples: usize,
        seed: u64,
    ) -> TrainCheckpoint {
        let mut opt_state = Vec::new();
        opt.write_state(&mut opt_state);
        TrainCheckpoint {
            stage,
            epochs_done,
            samples,
            best_metric: best.1,
            best_epoch: best.2,
            seed,
            model: Snapshot::capture(model),
            best: best.0.clone(),
            opt_state,
        }
    }

    /// Atomically persist to `path` with a checksum footer.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut w = Vec::new();
        w.put_bytes(MAGIC);
        w.put_u32(VERSION);
        w.put_u8(self.stage.tag());
        for v in [
            self.epochs_done as u64,
            self.samples as u64,
            self.best_metric.to_bits(),
            self.best_epoch as u64,
            self.seed,
        ] {
            w.put_u64(v);
        }
        w.put_u64(self.opt_state.len() as u64);
        w.put_bytes(&self.opt_state);
        self.model.write_to(&mut w);
        self.best.write_to(&mut w);
        write_sealed(path, w)
    }

    /// Load a checkpoint for `stage` from `path`. Returns `Ok(None)` if the
    /// file does not exist (fresh start); corruption, truncation, trailing
    /// bytes, or a stage/seed mismatch is an error.
    pub fn load(path: &Path, stage: Stage, seed: u64) -> io::Result<Option<TrainCheckpoint>> {
        if !path.exists() {
            return Ok(None);
        }
        let body = read_verified(path)?;
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut r = Cursor::new(&body);
        if r.take(4)? != MAGIC {
            return Err(bad("bad training-checkpoint magic"));
        }
        if r.u32()? != VERSION {
            return Err(bad("unsupported training-checkpoint version"));
        }
        if r.u8()? != stage.tag() {
            return Err(bad("checkpoint belongs to the other training stage"));
        }
        let epochs_done = r.u64()? as usize;
        let samples = r.u64()? as usize;
        let best_metric = f64::from_bits(r.u64()?);
        let best_epoch = r.u64()? as usize;
        if r.u64()? != seed {
            return Err(bad("checkpoint was written under a different seed"));
        }
        let opt_len = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
        let opt_state = r.take(opt_len)?.to_vec();
        let model = Snapshot::read_from(&mut r)?;
        let best = Snapshot::read_from(&mut r)?;
        r.finish()?;
        Ok(Some(TrainCheckpoint {
            stage,
            epochs_done,
            samples,
            best_metric,
            best_epoch,
            seed,
            model,
            best,
            opt_state,
        }))
    }

    /// Deserialize the stored optimizer, unchecked against any model: only
    /// [`TrainCheckpoint::restore`] hands one out, after the layout check.
    fn optimizer(&self) -> io::Result<Adam> {
        Adam::read_state(&self.opt_state)
    }

    /// Resume into `model`: check that both snapshots and every Adam
    /// moment buffer fit its parameter layout, then restore the live
    /// weights and return the optimizer. A checkpoint written for another
    /// model is an `InvalidData` error and leaves `model` untouched.
    pub fn restore(&self, model: &mut LearnShapleyModel) -> io::Result<Adam> {
        let opt = self.optimizer()?;
        let cfg = model.encoder.config;
        let shapes = || LearnShapleyModel::param_shapes(&cfg);
        let lens = shapes().map(|(rows, cols)| rows * cols);
        let fits = self.model.shapes().eq(shapes())
            && self.best.shapes().eq(shapes())
            && opt.buffer_lens().eq(lens);
        if !fits {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "checkpoint does not fit the model's parameter layout",
            ));
        }
        self.model.restore(model);
        Ok(opt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_nn::{AdamConfig, EncoderConfig};

    fn toy() -> LearnShapleyModel {
        LearnShapleyModel::new(EncoderConfig {
            vocab: 16,
            d_model: 8,
            heads: 2,
            layers: 1,
            ff_dim: 16,
            max_len: 16,
            seed: 3,
        })
    }

    #[test]
    fn roundtrip() {
        let mut model = toy();
        let opt = Adam::new(&mut model, AdamConfig::default());
        let best = Snapshot::capture(&mut model);
        let ck = TrainCheckpoint::capture(
            Stage::Pretrain,
            &mut model,
            &opt,
            (&best, 0.25, 2),
            3,
            120,
            77,
        );
        let path = std::env::temp_dir().join("ls_train_ck_roundtrip.bin");
        ck.save(&path).unwrap();
        let back = TrainCheckpoint::load(&path, Stage::Pretrain, 77)
            .unwrap()
            .expect("checkpoint exists");
        assert_eq!(back.epochs_done, 3);
        assert_eq!(back.samples, 120);
        assert_eq!(back.best_metric.to_bits(), 0.25f64.to_bits());
        assert_eq!(back.best_epoch, 2);
        assert_eq!(back.model, ck.model);
        assert_eq!(back.best, ck.best);
        assert_eq!(back.optimizer().unwrap().steps(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_fresh_start() {
        let path = std::env::temp_dir().join("ls_train_ck_missing.bin");
        let _ = std::fs::remove_file(&path);
        assert!(TrainCheckpoint::load(&path, Stage::Pretrain, 1)
            .unwrap()
            .is_none());
    }

    #[test]
    fn wrong_stage_and_seed_rejected() {
        let mut model = toy();
        let opt = Adam::new(&mut model, AdamConfig::default());
        let best = Snapshot::capture(&mut model);
        let ck =
            TrainCheckpoint::capture(Stage::Finetune, &mut model, &opt, (&best, 0.5, 1), 1, 10, 9);
        let path = std::env::temp_dir().join("ls_train_ck_stage.bin");
        ck.save(&path).unwrap();
        assert!(TrainCheckpoint::load(&path, Stage::Pretrain, 9).is_err());
        assert!(TrainCheckpoint::load(&path, Stage::Finetune, 8).is_err());
        assert!(TrainCheckpoint::load(&path, Stage::Finetune, 9)
            .unwrap()
            .is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_checkpoint_rejected() {
        let mut model = toy();
        let opt = Adam::new(&mut model, AdamConfig::default());
        let best = Snapshot::capture(&mut model);
        let ck =
            TrainCheckpoint::capture(Stage::Pretrain, &mut model, &opt, (&best, 0.5, 1), 1, 10, 9);
        let path = std::env::temp_dir().join("ls_train_ck_corrupt.bin");
        ck.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        assert!(TrainCheckpoint::load(&path, Stage::Pretrain, 9).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
