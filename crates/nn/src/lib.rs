//! # ls-nn
//!
//! A minimal, dependency-light neural-network substrate: dense `f32`
//! tensors, a BERT-style transformer encoder (token + positional + segment
//! embeddings, multi-head self-attention, GELU feed-forward, post-layer-norm
//! residual blocks) with fully hand-written backward passes, an AdamW
//! optimizer, and checkpoint snapshots.
//!
//! This crate is the paper's "BERT" substitute (see DESIGN.md §1): the same
//! two-sentence `[CLS]/[SEP]` interface, regression heads on the `[CLS]`
//! state, pre-training/fine-tuning loops — at a width and depth that trains
//! in minutes on a CPU. Every layer's backward pass is verified against
//! finite differences in the unit tests.
//!
//! ```
//! use ls_nn::{EncoderConfig, TransformerEncoder, Tensor};
//!
//! let cfg = EncoderConfig { vocab: 50, d_model: 16, heads: 2, layers: 1,
//!                           ff_dim: 32, max_len: 8, seed: 1 };
//! let mut enc = TransformerEncoder::new(cfg);
//! // The whole hidden state: every row through every block.
//! let hidden = enc.forward(&[0, 7, 9], &[0, 0, 1], 3);
//! assert_eq!((hidden.rows, hidden.cols), (3, 16));
//! // A training step on the [CLS] row alone: the last block computes
//! // only that row, and backward takes a gradient on it.
//! let cls = enc.forward(&[0, 7, 9], &[0, 0, 1], 1);
//! assert_eq!(cls.row(0), hidden.row(0));
//! let mut d = Tensor::zeros(1, 16);
//! d.set(0, 0, 1.0);
//! enc.backward(&d);
//! ```

#![warn(missing_docs)]

pub mod attention;
pub mod checkpoint;
pub mod encoder;
pub mod infer;
pub mod kernels;
pub mod linear;
pub mod norm;
pub mod optim;
pub mod param;
pub mod schedule;
pub mod tensor;
pub mod vmath;

pub use attention::MultiHeadAttention;
pub use checkpoint::Snapshot;
pub use encoder::{EncoderBlock, EncoderConfig, FeedForward, TransformerEncoder};
pub use infer::InferScratch;
pub use linear::Linear;
pub use norm::LayerNorm;
pub use optim::{Adam, AdamConfig};
pub use param::{Param, Visit};
pub use schedule::clip_grad_norm;
pub use tensor::{softmax_rows, softmax_rows_backward, Tensor};
