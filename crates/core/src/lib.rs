//! # ls-core
//!
//! LearnShapley itself: the ML system that learns to rank database facts by
//! their (hidden) Shapley contribution to query answers, from a log of past
//! queries, answers and exact Shapley values.
//!
//! The crate composes the substrates of this workspace:
//!
//! * a [`Tokenizer`] over SQL text, tuples and facts (vocabulary built from
//!   the training split only);
//! * the [`LearnShapleyModel`] — a transformer encoder (from `ls-nn`) with
//!   three similarity regression heads (pre-training, §3.3) and a Shapley
//!   regression head (fine-tuning);
//! * training loops with checkpoint selection on the dev split
//!   ([`pretrain()`](pretrain()), [`finetune()`](finetune()));
//! * inference over a lineage ([`predict_scores`], [`rank_lineage`]);
//! * the [`NearestQueries`] baselines;
//! * the evaluation metrics of §5.2 ([`ndcg_at_k`], [`precision_at_k`],
//!   [`partial_ndcg_at_k`]).

#![warn(missing_docs)]

pub mod checkpoint;
mod data_parallel;
pub mod encoding;
pub mod eval;
pub mod fallback;
pub mod finetune;
pub mod inference;
pub mod model;
pub mod nearest;
pub mod online;
pub mod persist;
pub mod pipeline;
pub mod pretrain;
pub mod tokenizer;

pub use checkpoint::{CheckpointConfig, Stage, TrainCheckpoint};
pub use encoding::{
    render_fact, render_featured_hoisted, render_tuple, render_tuple_and_fact_featured,
};
pub use eval::{linear_slope, ndcg_at_k, partial_ndcg_at_k, pearson, precision_at_k};
pub use fallback::{FallbackScorer, NearestFallback, UniformFallback};
pub use finetune::{
    build_finetune_samples_with_negatives, evaluate_model, finetune, finetune_resumable,
    EvalSummary, FinetuneReport, SHAPLEY_SCALE,
};
pub use inference::{predict_scores, rank_lineage, LineageScorer, ScoreContext};
pub use model::{LearnShapleyModel, HEAD_RANK, HEAD_SYNTAX, HEAD_WITNESS};
pub use nearest::{NearestQueries, NqMetric, QueryProbe};
pub use online::{
    feedback_from_gold, load_current, publish_snapshot, replay_train, snapshot_name,
    FeedbackRecord, OnlineConfig, OnlineTrainer,
};
pub use persist::{load_model, save_model};
pub use pipeline::{build_tokenizer, train_learnshapley, EncoderKind, PipelineConfig, Trained};
pub use pretrain::{
    build_pretrain_pairs, dev_mse, pretrain, pretrain_resumable, PretrainObjectives, PretrainPair,
    PretrainReport, TrainConfig, GRAD_CLIP,
};
pub use tokenizer::{split_words, Tokenizer, CLS, PAD, SEP, SPECIALS, UNK};
