//! Fine-tuning on Shapley-value regression and model evaluation (§3.3, §5).
//!
//! Each fine-tuning example packs `[CLS] query [SEP] tuple ; fact [SEP]` and
//! regresses the fact's (scaled) exact Shapley value. After every epoch the
//! dev-set NDCG@10 is measured and the best checkpoint is kept — the paper's
//! fine-tuning checkpoint-selection rule.

use crate::checkpoint::{CheckpointConfig, Stage, TrainCheckpoint};
use crate::encoding::render_tuple_and_fact_featured;
use crate::eval::{ndcg_at_k, precision_at_k};
use crate::model::LearnShapleyModel;
use crate::online::FeedbackRecord;
use crate::pretrain::{TrainConfig, GRAD_CLIP};
use crate::tokenizer::Tokenizer;
use ls_dbshap::{Dataset, QueryRecord, Split, TupleRecord};
use ls_nn::{Adam, AdamConfig, Snapshot};
use ls_shapley::FactScores;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io;

/// Regression-target scale. The paper multiplies Shapley values by 1000 to
/// avoid numerical issues with its tiny raw values; here targets are first
/// normalized *within each tuple* (divided by the tuple's maximum Shapley
/// value, so the top fact regresses to `SHAPLEY_SCALE`). Absolute Shapley
/// magnitude is a function of the lineage size, which the model cannot — and
/// for ranking purposes need not — recover from text; the per-tuple
/// normalization removes that irreducible variance while preserving every
/// within-tuple ranking, which is what NDCG/p@k measure.
pub const SHAPLEY_SCALE: f32 = 4.0;

/// Append the gold records of one recorded tuple to `out`: one per lineage
/// fact, targeting its exact Shapley value over the tuple's largest, times
/// [`SHAPLEY_SCALE`].
pub(crate) fn push_gold_records(
    ds: &Dataset,
    q: &QueryRecord,
    t: &TupleRecord,
    out: &mut Vec<FeedbackRecord>,
) {
    let tuple = &q.result.tuples[t.tuple_idx];
    let max_v = t
        .shapley
        .values()
        .cloned()
        .fold(f64::MIN, f64::max)
        .max(1e-12);
    for (&f, &v) in &t.shapley {
        out.push(FeedbackRecord {
            query_sql: q.sql.clone(),
            tuple_fact: render_tuple_and_fact_featured(&ds.db, &q.sql, tuple, f),
            target: (v / max_v) as f32 * SHAPLEY_SCALE,
        });
    }
}

/// Materialize fine-tuning records from the recorded ground truth of the
/// given query subset. With `negatives > 0`, each recorded tuple also
/// contributes that many random *non-lineage* facts with target 0 — the
/// extension the paper's §7 calls for so the model can separate
/// contributing from non-contributing facts.
pub fn build_finetune_samples_with_negatives(
    ds: &Dataset,
    queries: &[usize],
    negatives: usize,
    seed: u64,
) -> Vec<FeedbackRecord> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e6a);
    let fact_count = ds.db.fact_count() as u32;
    let mut out = Vec::new();
    for &qi in queries {
        let q = &ds.queries[qi];
        for t in &q.tuples {
            push_gold_records(ds, q, t, &mut out);
            let tuple = &q.result.tuples[t.tuple_idx];
            let mut added = 0usize;
            let mut guard = 0usize;
            while added < negatives && guard < negatives * 20 + 20 {
                guard += 1;
                let f = ls_relational::FactId(rng.gen_range(0..fact_count));
                if t.shapley.contains_key(&f) {
                    continue;
                }
                out.push(FeedbackRecord {
                    query_sql: q.sql.clone(),
                    tuple_fact: render_tuple_and_fact_featured(&ds.db, &q.sql, tuple, f),
                    target: 0.0,
                });
                added += 1;
            }
        }
    }
    out
}

/// Aggregate ranking quality over a set of (query, tuple) pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvalSummary {
    /// Mean NDCG@10.
    pub ndcg10: f64,
    /// Mean precision@1.
    pub p1: f64,
    /// Mean precision@3.
    pub p3: f64,
    /// Mean precision@5.
    pub p5: f64,
    /// Number of (query, tuple) pairs evaluated.
    pub pairs: usize,
}

impl EvalSummary {
    /// Accumulate one (query, tuple) evaluation.
    pub fn add(&mut self, predicted: &FactScores, gold: &FactScores) {
        self.ndcg10 += ndcg_at_k(predicted, gold, 10);
        self.p1 += precision_at_k(predicted, gold, 1);
        self.p3 += precision_at_k(predicted, gold, 3);
        self.p5 += precision_at_k(predicted, gold, 5);
        self.pairs += 1;
    }

    /// Finalize means.
    pub fn finish(mut self) -> EvalSummary {
        if self.pairs > 0 {
            let n = self.pairs as f64;
            self.ndcg10 /= n;
            self.p1 /= n;
            self.p3 /= n;
            self.p5 /= n;
        }
        self
    }
}

/// Evaluate a model on the recorded tuples of the given queries. The
/// (query, tuple) pairs are scored in parallel — each worker owns a
/// [`crate::inference::LineageScorer`] over the shared model — and the
/// summary is accumulated in pair order, so the result is identical at
/// every thread count.
pub fn evaluate_model(
    model: &LearnShapleyModel,
    tokenizer: &Tokenizer,
    ds: &Dataset,
    queries: &[usize],
    max_len: usize,
) -> EvalSummary {
    let units: Vec<(usize, usize)> = queries
        .iter()
        .flat_map(|&qi| (0..ds.queries[qi].tuples.len()).map(move |ti| (qi, ti)))
        .collect();
    let predictions = ls_par::par_map_init(
        &units,
        || crate::inference::LineageScorer::new(model, tokenizer, &ds.db, max_len),
        |scorer, _, &(qi, ti)| {
            let q = &ds.queries[qi];
            let t = &q.tuples[ti];
            let tuple = &q.result.tuples[t.tuple_idx];
            let lineage: Vec<_> = t.shapley.keys().copied().collect();
            let ctx = crate::inference::ScoreContext::new(tokenizer, &q.sql, tuple);
            scorer.score_lineage(&ctx, &lineage)
        },
    );
    let mut summary = EvalSummary::default();
    for (&(qi, ti), predicted) in units.iter().zip(&predictions) {
        summary.add(predicted, &ds.queries[qi].tuples[ti].shapley);
    }
    summary.finish()
}

/// Fine-tuning outcome.
#[derive(Debug, Clone, Copy)]
pub struct FinetuneReport {
    /// Best dev NDCG@10 reached.
    pub best_dev_ndcg: f64,
    /// Epoch of the selected checkpoint (1-based).
    pub best_epoch: usize,
    /// Samples consumed in total.
    pub samples: usize,
}

/// Run fine-tuning on the given training-query subset; the model is left at
/// the best-dev-NDCG checkpoint.
pub fn finetune(
    model: &mut LearnShapleyModel,
    tokenizer: &Tokenizer,
    ds: &Dataset,
    train_queries: &[usize],
    cfg: &TrainConfig,
) -> FinetuneReport {
    finetune_inner(model, tokenizer, ds, train_queries, cfg, None)
        .expect("finetune without checkpointing performs no I/O")
}

/// [`finetune()`] with crash-resumable epoch checkpoints: the loop state is
/// persisted to `ckpt.path` (atomically, checksummed) after each due epoch,
/// and a run that finds an existing checkpoint continues from it —
/// finishing with weights bit-identical to an uninterrupted run.
pub fn finetune_resumable(
    model: &mut LearnShapleyModel,
    tokenizer: &Tokenizer,
    ds: &Dataset,
    train_queries: &[usize],
    cfg: &TrainConfig,
    ckpt: &CheckpointConfig,
) -> io::Result<FinetuneReport> {
    finetune_inner(model, tokenizer, ds, train_queries, cfg, Some(ckpt))
}

fn finetune_inner(
    model: &mut LearnShapleyModel,
    tokenizer: &Tokenizer,
    ds: &Dataset,
    train_queries: &[usize],
    cfg: &TrainConfig,
    ckpt: Option<&CheckpointConfig>,
) -> io::Result<FinetuneReport> {
    let samples_all =
        build_finetune_samples_with_negatives(ds, train_queries, cfg.negatives, cfg.seed);
    let mut sp = ls_obs::span("core.finetune")
        .with("samples", samples_all.len())
        .with("epochs", cfg.epochs);
    ls_obs::gauge("core.finetune.lr").set(f64::from(cfg.lr));
    let dev = ds.split_indices(Split::Dev);
    let mut opt = Adam::new(
        model,
        AdamConfig {
            lr: cfg.lr,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xf1e7);
    let mut order: Vec<usize> = (0..samples_all.len()).collect();
    let mut best = (f64::NEG_INFINITY, 0usize, Snapshot::capture(model));
    let mut consumed = 0usize;
    let mut start_epoch = 1usize;
    if let Some(ck) = ckpt {
        if let Some(state) = TrainCheckpoint::load(&ck.path, Stage::Finetune, cfg.seed)? {
            opt = state.restore(model)?;
            best = (state.best_metric, state.best_epoch, state.best.clone());
            consumed = state.samples;
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
        let mut esp = ls_obs::span("core.finetune.epoch").with("epoch", epoch);
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
            let grads = crate::data_parallel::batch_grads(model, chunk, |worker, &si| {
                let s = &samples_all[si];
                let (tokens, segs) =
                    tokenizer.encode_pair(&s.query_sql, &s.tuple_fact, cfg.max_len);
                let pred = worker.forward_value(&tokens, &segs);
                worker.backward_value(2.0 * (pred - s.target));
            });
            crate::data_parallel::add_grads(model, &grads);
            consumed += chunk.len();
            ls_nn::clip_grad_norm(model, GRAD_CLIP * chunk.len() as f32);
            opt.step(model, 1.0 / chunk.len() as f32);
        }
        let dev_score = evaluate_model(model, tokenizer, ds, &dev, cfg.max_len).ndcg10;
        esp.record("dev_ndcg10", dev_score);
        ls_obs::gauge("core.finetune.dev_ndcg10").set(dev_score);
        drop(esp);
        if dev_score > best.0 {
            best = (dev_score, epoch, Snapshot::capture(model));
        }
        if let Some(ck) = ckpt {
            if ck.due(epoch) {
                TrainCheckpoint::capture(
                    Stage::Finetune,
                    model,
                    &opt,
                    (&best.2, best.0, best.1),
                    epoch,
                    consumed,
                    cfg.seed,
                )
                .save(&ck.path)?;
                ls_obs::counter("core.checkpoint.saved").incr();
            }
        }
    }
    best.2.restore(model);
    sp.record("best_dev_ndcg10", best.0);
    sp.record("best_epoch", best.1);
    Ok(FinetuneReport {
        best_dev_ndcg: best.0,
        best_epoch: best.1,
        samples: consumed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_relational::FactId;

    fn scores(pairs: &[(u32, f64)]) -> FactScores {
        pairs.iter().map(|&(f, v)| (FactId(f), v)).collect()
    }

    #[test]
    fn summary_averages() {
        let mut s = EvalSummary::default();
        let gold = scores(&[(0, 0.7), (1, 0.3)]);
        s.add(&gold, &gold); // perfect
        let flipped = scores(&[(0, 0.3), (1, 0.7)]);
        s.add(&flipped, &gold); // p@1 = 0
        let done = s.finish();
        assert_eq!(done.pairs, 2);
        assert!((done.p1 - 0.5).abs() < 1e-12);
        assert!(done.ndcg10 < 1.0 && done.ndcg10 > 0.5);
    }

    #[test]
    fn finish_on_empty_is_zero() {
        let s = EvalSummary::default().finish();
        assert_eq!(s.pairs, 0);
        assert_eq!(s.ndcg10, 0.0);
    }
}
