//! Pre-training on the three query-similarity objectives (§3.3).
//!
//! Input: pairs of log queries packed as `[CLS] q [SEP] q' [SEP]`; targets:
//! their rank-based, witness-based and syntax-based similarities. The loss is
//! the weighted sum `α·ℓ_r + β·ℓ_w + γ·ℓ_s` of per-head MSEs (the paper found
//! equal weights best; objectives can be masked for the Table-4 ablation).
//! After every epoch the dev-pair MSE is measured and the best checkpoint is
//! restored at the end — matching the paper's checkpoint-selection rule.

use crate::checkpoint::{CheckpointConfig, Stage, TrainCheckpoint};
use crate::model::{LearnShapleyModel, HEAD_RANK, HEAD_SYNTAX, HEAD_WITNESS};
use crate::tokenizer::Tokenizer;
use ls_dbshap::{Dataset, SimilarityMatrices, Split};
use ls_nn::{Adam, AdamConfig, Snapshot};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io;

/// Global gradient-norm clip applied per optimizer step (scaled by the
/// batch size since gradients are accumulated before averaging).
pub const GRAD_CLIP: f32 = 5.0;

/// Which similarity objectives are active (Table-4 ablation mask).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PretrainObjectives {
    /// Rank-based similarity head.
    pub rank: bool,
    /// Witness-based similarity head.
    pub witness: bool,
    /// Syntax-based similarity head.
    pub syntax: bool,
}

impl Default for PretrainObjectives {
    fn default() -> Self {
        PretrainObjectives {
            rank: true,
            witness: true,
            syntax: true,
        }
    }
}

impl PretrainObjectives {
    /// Per-head multipliers (`α, β, γ`), equal weights for enabled heads.
    pub fn mask(&self) -> [f32; 3] {
        let mut m = [0.0; 3];
        m[HEAD_RANK] = f32::from(self.rank);
        m[HEAD_WITNESS] = f32::from(self.witness);
        m[HEAD_SYNTAX] = f32::from(self.syntax);
        m
    }

    /// A short label like "rank+witness+syntax".
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.rank {
            parts.push("rank");
        }
        if self.witness {
            parts.push("witness");
        }
        if self.syntax {
            parts.push("syntax");
        }
        if parts.is_empty() {
            "none".to_owned()
        } else {
            parts.join("+")
        }
    }
}

/// Shared training knobs.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Sequence-length cap for packed inputs.
    pub max_len: usize,
    /// Per-epoch sample cap (subsampled after shuffling; 0 = all).
    pub max_samples_per_epoch: usize,
    /// Gradient-accumulation batch size.
    pub batch: usize,
    /// Fine-tuning only: negative samples (random non-lineage facts with
    /// target 0) added per recorded tuple. The paper's §7 limitation —
    /// LearnShapley is trained on positive samples only and cannot separate
    /// contributing from non-contributing facts — is lifted by setting this
    /// above zero.
    pub negatives: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 6,
            lr: 3e-4,
            max_len: 64,
            max_samples_per_epoch: 1200,
            batch: 8,
            negatives: 0,
            seed: 99,
        }
    }
}

/// One pre-training example: two SQL strings and the three target sims.
#[derive(Debug, Clone)]
pub struct PretrainPair {
    /// First query's SQL.
    pub a: String,
    /// Second query's SQL.
    pub b: String,
    /// Targets `[sim_r, sim_w, sim_s]`.
    pub targets: [f32; 3],
}

/// Pre-training pairs from the dataset: train×train pairs for training,
/// train×dev pairs for checkpoint selection.
pub fn build_pretrain_pairs(
    ds: &Dataset,
    ms: &SimilarityMatrices,
) -> (Vec<PretrainPair>, Vec<PretrainPair>) {
    let train = ds.split_indices(Split::Train);
    let dev = ds.split_indices(Split::Dev);
    let pair = |i: usize, j: usize| PretrainPair {
        a: ds.queries[i].sql.clone(),
        b: ds.queries[j].sql.clone(),
        targets: [
            ms.rank.get(i, j) as f32,
            ms.witness.get(i, j) as f32,
            ms.syntax.get(i, j) as f32,
        ],
    };
    let mut train_pairs = Vec::new();
    for (x, &i) in train.iter().enumerate() {
        for &j in train.iter().skip(x + 1) {
            train_pairs.push(pair(i, j));
        }
    }
    let mut dev_pairs = Vec::new();
    for &i in &train {
        for &j in &dev {
            dev_pairs.push(pair(i, j));
        }
    }
    (train_pairs, dev_pairs)
}

/// Pre-training outcome.
#[derive(Debug, Clone, Copy)]
pub struct PretrainReport {
    /// Best dev MSE reached (over enabled heads).
    pub best_dev_mse: f64,
    /// Epoch of the selected checkpoint (1-based).
    pub best_epoch: usize,
    /// Samples consumed in total.
    pub samples: usize,
}

/// Run the pre-training stage. The model is left at the best-dev checkpoint.
pub fn pretrain(
    model: &mut LearnShapleyModel,
    tokenizer: &Tokenizer,
    train_pairs: &[PretrainPair],
    dev_pairs: &[PretrainPair],
    objectives: PretrainObjectives,
    cfg: &TrainConfig,
) -> PretrainReport {
    pretrain_inner(
        model,
        tokenizer,
        train_pairs,
        dev_pairs,
        objectives,
        cfg,
        None,
    )
    .expect("pretrain without checkpointing performs no I/O")
}

/// [`pretrain()`] with crash-resumable epoch checkpoints: the loop state is
/// persisted to `ckpt.path` (atomically, checksummed) after each due epoch,
/// and a run that finds an existing checkpoint continues from it —
/// finishing with weights bit-identical to an uninterrupted run.
pub fn pretrain_resumable(
    model: &mut LearnShapleyModel,
    tokenizer: &Tokenizer,
    train_pairs: &[PretrainPair],
    dev_pairs: &[PretrainPair],
    objectives: PretrainObjectives,
    cfg: &TrainConfig,
    ckpt: &CheckpointConfig,
) -> io::Result<PretrainReport> {
    pretrain_inner(
        model,
        tokenizer,
        train_pairs,
        dev_pairs,
        objectives,
        cfg,
        Some(ckpt),
    )
}

fn pretrain_inner(
    model: &mut LearnShapleyModel,
    tokenizer: &Tokenizer,
    train_pairs: &[PretrainPair],
    dev_pairs: &[PretrainPair],
    objectives: PretrainObjectives,
    cfg: &TrainConfig,
    ckpt: Option<&CheckpointConfig>,
) -> io::Result<PretrainReport> {
    let mut sp = ls_obs::span("core.pretrain")
        .with("pairs", train_pairs.len())
        .with("epochs", cfg.epochs);
    ls_obs::gauge("core.pretrain.lr").set(f64::from(cfg.lr));
    let mask = objectives.mask();
    let active: f32 = mask.iter().sum::<f32>().max(1.0);
    let mut opt = Adam::new(
        model,
        AdamConfig {
            lr: cfg.lr,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..train_pairs.len()).collect();
    let mut best = (f64::INFINITY, 0usize, Snapshot::capture(model));
    let mut samples = 0usize;
    let mut start_epoch = 1usize;
    if let Some(ck) = ckpt {
        if let Some(state) = TrainCheckpoint::load(&ck.path, Stage::Pretrain, cfg.seed)? {
            opt = state.restore(model)?;
            best = (state.best_metric, state.best_epoch, state.best.clone());
            samples = state.samples;
            start_epoch = state.epochs_done + 1;
            // Fast-forward the shuffle stream: replay the completed epochs'
            // permutations so epoch `start_epoch` sees the same order it
            // would have in an uninterrupted run.
            for _ in 0..state.epochs_done {
                order.shuffle(&mut rng);
            }
            ls_obs::counter("core.checkpoint.resumed").incr();
            sp.record("resumed_epochs", state.epochs_done);
        }
    }

    for epoch in start_epoch..=cfg.epochs {
        let mut esp = ls_obs::span("core.pretrain.epoch").with("epoch", epoch);
        order.shuffle(&mut rng);
        let take = if cfg.max_samples_per_epoch == 0 {
            order.len()
        } else {
            order.len().min(cfg.max_samples_per_epoch)
        };
        // Each minibatch is computed data-parallel over examples (one shard
        // per example, reduced in example order — see `data_parallel`); the
        // clip + optimizer step stay serial on the reduced gradient.
        let chosen: Vec<usize> = order.iter().take(take).copied().collect();
        for chunk in chosen.chunks(cfg.batch.max(1)) {
            let grads = crate::data_parallel::batch_grads(model, chunk, |worker, &pi| {
                let p = &train_pairs[pi];
                let (tokens, segs) = tokenizer.encode_pair(&p.a, &p.b, cfg.max_len);
                let pred = worker.forward_sims(&tokens, &segs);
                let mut d = [0.0f32; 3];
                for h in 0..3 {
                    d[h] = mask[h] * 2.0 * (pred[h] - p.targets[h]) / active;
                }
                worker.backward_sims(d);
            });
            crate::data_parallel::add_grads(model, &grads);
            samples += chunk.len();
            ls_nn::clip_grad_norm(model, GRAD_CLIP * chunk.len() as f32);
            opt.step(model, 1.0 / chunk.len() as f32);
        }
        let dev = dev_mse(model, tokenizer, dev_pairs, mask, cfg.max_len);
        esp.record("dev_mse", dev);
        ls_obs::gauge("core.pretrain.dev_mse").set(dev);
        drop(esp);
        if dev < best.0 {
            best = (dev, epoch, Snapshot::capture(model));
        }
        if let Some(ck) = ckpt {
            if ck.due(epoch) {
                TrainCheckpoint::capture(
                    Stage::Pretrain,
                    model,
                    &opt,
                    (&best.2, best.0, best.1),
                    epoch,
                    samples,
                    cfg.seed,
                )
                .save(&ck.path)?;
                ls_obs::counter("core.checkpoint.saved").incr();
            }
        }
    }
    best.2.restore(model);
    sp.record("best_dev_mse", best.0);
    sp.record("best_epoch", best.1);
    Ok(PretrainReport {
        best_dev_mse: best.0,
        best_epoch: best.1,
        samples,
    })
}

/// Mean squared error over pairs, restricted to enabled heads. Pairs are
/// scored in parallel through the read-only inference path (bit-identical
/// to the training forward) and their error terms summed in pair order, so
/// the result is the same at every thread count.
pub fn dev_mse(
    model: &LearnShapleyModel,
    tokenizer: &Tokenizer,
    pairs: &[PretrainPair],
    mask: [f32; 3],
    max_len: usize,
) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let active: f32 = mask.iter().sum::<f32>().max(1.0);
    let terms = ls_par::par_map_init(pairs, ls_nn::InferScratch::new, |scratch, _, p| {
        let (tokens, segs) = tokenizer.encode_pair(&p.a, &p.b, max_len);
        let pred = model.infer_sims(&tokens, &segs, scratch);
        let mut t = 0.0f64;
        for h in 0..3 {
            let e = (pred[h] - p.targets[h]) as f64;
            t += (mask[h] as f64) * e * e / active as f64;
        }
        t
    });
    terms.iter().sum::<f64>() / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_nn::EncoderConfig;

    fn toy_pairs() -> Vec<PretrainPair> {
        vec![
            PretrainPair {
                a: "select a.x from a".into(),
                b: "select a.x from a where a.y = 1".into(),
                targets: [0.8, 0.5, 0.5],
            },
            PretrainPair {
                a: "select b.z from b".into(),
                b: "select a.x from a".into(),
                targets: [0.1, 0.0, 0.0],
            },
        ]
    }

    fn toy_model_and_tokenizer() -> (LearnShapleyModel, Tokenizer) {
        let pairs = toy_pairs();
        let corpus: Vec<&str> = pairs
            .iter()
            .flat_map(|p| [p.a.as_str(), p.b.as_str()])
            .collect();
        let tok = Tokenizer::build(corpus.into_iter(), 64);
        let model = LearnShapleyModel::new(EncoderConfig {
            vocab: tok.vocab_size(),
            d_model: 8,
            heads: 2,
            layers: 1,
            ff_dim: 16,
            max_len: 32,
            seed: 4,
        });
        (model, tok)
    }

    #[test]
    fn objectives_mask_and_label() {
        let all = PretrainObjectives::default();
        assert_eq!(all.mask(), [1.0, 1.0, 1.0]);
        assert_eq!(all.label(), "rank+witness+syntax");
        let only_w = PretrainObjectives {
            rank: false,
            witness: true,
            syntax: false,
        };
        assert_eq!(only_w.mask()[HEAD_WITNESS], 1.0);
        assert_eq!(only_w.mask()[HEAD_RANK], 0.0);
        assert_eq!(only_w.label(), "witness");
        let none = PretrainObjectives {
            rank: false,
            witness: false,
            syntax: false,
        };
        assert_eq!(none.label(), "none");
    }

    #[test]
    fn pretraining_reduces_dev_mse() {
        let (mut model, tok) = toy_model_and_tokenizer();
        let pairs = toy_pairs();
        let mask = PretrainObjectives::default().mask();
        let before = dev_mse(&model, &tok, &pairs, mask, 32);
        let cfg = TrainConfig {
            epochs: 30,
            lr: 3e-3,
            max_len: 32,
            max_samples_per_epoch: 0,
            batch: 2,
            negatives: 0,
            seed: 1,
        };
        let report = pretrain(
            &mut model,
            &tok,
            &pairs,
            &pairs, // dev = train here: we only check optimization works
            PretrainObjectives::default(),
            &cfg,
        );
        assert!(
            report.best_dev_mse < before * 0.5,
            "{before} → {}",
            report.best_dev_mse
        );
        assert!(report.best_epoch >= 1);
        assert_eq!(report.samples, 2 * 30);
    }

    #[test]
    fn masked_objectives_do_not_train_their_head() {
        let (mut model, tok) = toy_model_and_tokenizer();
        let pairs = toy_pairs();
        // Train with only the syntax head enabled.
        let cfg = TrainConfig {
            epochs: 10,
            lr: 3e-3,
            max_len: 32,
            max_samples_per_epoch: 0,
            batch: 2,
            negatives: 0,
            seed: 1,
        };
        let obj = PretrainObjectives {
            rank: false,
            witness: false,
            syntax: true,
        };
        let before_rank_mse = dev_mse(&model, &tok, &pairs, [1.0, 0.0, 0.0], 32);
        pretrain(&mut model, &tok, &pairs, &pairs, obj, &cfg);
        let after_syntax_mse = dev_mse(&model, &tok, &pairs, [0.0, 0.0, 1.0], 32);
        // Syntax head fits well.
        assert!(after_syntax_mse < 0.1, "syntax mse {after_syntax_mse}");
        // Rank head was never optimized directly; it should not be fit as
        // tightly (it can drift via the shared encoder, so just sanity-check
        // it is not better than the trained head by an order of magnitude).
        let after_rank_mse = dev_mse(&model, &tok, &pairs, [1.0, 0.0, 0.0], 32);
        assert!(after_rank_mse > after_syntax_mse * 0.1 || before_rank_mse < 0.05);
    }

    #[test]
    fn dev_mse_empty_pairs() {
        let (model, tok) = toy_model_and_tokenizer();
        assert_eq!(dev_mse(&model, &tok, &[], [1.0; 3], 32), 0.0);
    }
}
