//! Read-only inference support: caller-owned scratch buffers, and the
//! leading-rows helpers behind the `[CLS]`-only last block.
//!
//! The training forward passes ([`crate::TransformerEncoder::forward`] and
//! friends) cache activations *inside* the layers for the hand-written
//! backward passes, so they take `&mut self`. That coupling is fine for
//! training but wrong for serving: a deployed model's weights are frozen,
//! and N worker threads should share one copy of them read-only.
//!
//! The `forward_infer` family of methods splits the two concerns:
//!
//! * **weights** stay inside the layers and are only read (`&self`), so a
//!   model can be `Arc`-shared across threads;
//! * **scratch** — the mutable sequence-level activation buffers — lives in
//!   an [`InferScratch`] value that the caller owns and reuses across
//!   calls.
//!
//! Every regression head reads the `[CLS]` state (row 0) alone, so both
//! passes carry only that row through the last block.
//! [`crate::TransformerEncoder::forward_infer`] returns it, and the training
//! forward returns the leading `rows` rows, `rows = 1` for every head's
//! training step. In that last block K and V still project all `n` rows
//! (row 0 attends over the whole sequence), while Q, the score row,
//! softmax, value mix, `W_O`, both residuals, both layer norms and the
//! feed-forward run on the leading rows only; the training backward takes
//! a gradient on those rows and returns one for all `n`. Blocks before the
//! last produce all `n` rows, which the next block's K and V need. At 64
//! tokens on LS-base that removes 40% of the forward's flops, and 40% of a
//! training step's forward and backward together (DESIGN.md §4l).
//!
//! Every `forward_infer` performs *exactly* the same floating-point
//! operations in the same order as its training counterpart for each row
//! it produces: each GEMM output element is one ascending-`p` chain
//! whatever the row count (see [`crate::kernels`]), and layer norm, GELU,
//! the residual adds and softmax work per row. So the returned row is
//! bit-identical to row 0 of `forward` at any `rows` — the property the
//! serving layer's differential tests pin down.

use crate::tensor::Tensor;
use std::borrow::Cow;

/// Caller-owned mutable workspace for `forward_infer` passes.
///
/// Holds the embedding buffer (`n × d_model`) that the training path
/// allocates per call; reusing one scratch across calls avoids that
/// allocation. A scratch may be reused across sequence lengths, and any
/// number of scratches may drive one shared model. Layer-internal
/// temporaries (the Q/K/V projections, the transposed K, each head's score
/// rows, the head concat, block outputs, the feed-forward hidden state) are
/// still allocated per call — they are small and their lifetime is confined
/// to a single layer. The heads themselves copy nothing: they read Q, Kᵀ
/// and V as strided views and write the concat in place.
#[derive(Debug, Default, Clone)]
pub struct InferScratch {
    /// Embedding staging buffer (`n × d_model`), fully overwritten per call.
    pub(crate) seq: Tensor,
}

impl InferScratch {
    /// A fresh, empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reshape `t` to `rows × cols` without zeroing (callers overwrite every
    /// cell). Reuses the allocation when the element count already matches.
    pub(crate) fn reshape(t: &mut Tensor, rows: usize, cols: usize) {
        if t.rows != rows || t.cols != cols {
            t.data.resize(rows * cols, 0.0);
            t.rows = rows;
            t.cols = cols;
        }
    }
}

/// The first `rows` rows of `x`: borrowed when that is all of `x`, copied
/// otherwise.
///
/// # Panics
/// Panics unless `1 <= rows <= x.rows`.
pub(crate) fn leading_rows(x: &Tensor, rows: usize) -> Cow<'_, Tensor> {
    assert!(
        (1..=x.rows).contains(&rows),
        "{rows} leading rows of a {}-row tensor",
        x.rows
    );
    if rows == x.rows {
        Cow::Borrowed(x)
    } else {
        Cow::Owned(Tensor::from_vec(
            rows,
            x.cols,
            x.data[..rows * x.cols].to_vec(),
        ))
    }
}

/// Add `src` into the leading `src.rows` rows of `dst`, each element as
/// `dst + src`.
///
/// # Panics
/// Panics unless `src` is as wide as `dst` and no taller.
pub(crate) fn add_leading_rows(dst: &mut Tensor, src: &Tensor) {
    assert!(
        src.cols == dst.cols && src.rows <= dst.rows,
        "{}×{} added into the leading rows of {}×{}",
        src.rows,
        src.cols,
        dst.rows,
        dst.cols
    );
    for (d, s) in dst.data.iter_mut().zip(&src.data) {
        *d += s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{EncoderConfig, TransformerEncoder};

    fn cfg() -> EncoderConfig {
        EncoderConfig {
            vocab: 13,
            d_model: 8,
            heads: 2,
            layers: 2,
            ff_dim: 16,
            max_len: 12,
            seed: 41,
        }
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn forward_infer_is_bit_identical_to_forward() {
        // A model with no blocks returns embedding row 0.
        for layers in [2, 0] {
            let mut enc = TransformerEncoder::new(EncoderConfig { layers, ..cfg() });
            let frozen = enc.clone();
            let mut scratch = InferScratch::new();
            for (tokens, segs) in [
                (vec![1u32, 5, 2, 6, 2], vec![0u8, 0, 0, 1, 1]),
                (vec![3u32, 3, 3], vec![0u8, 1, 1]),
                (vec![12u32], vec![0u8]),
            ] {
                let hidden = enc.forward(&tokens, &segs, tokens.len());
                let trained = enc.forward(&tokens, &segs, 1);
                let cls = frozen.forward_infer(&tokens, &segs, &mut scratch);
                assert_eq!((cls.rows, cls.cols), (1, hidden.cols), "one [CLS] row");
                assert_eq!(
                    bits(cls.row(0)),
                    bits(hidden.row(0)),
                    "bit-identical [CLS] row, {layers} layers"
                );
                assert_eq!(cls, trained, "training [CLS] row, {layers} layers");
            }
        }
    }

    #[test]
    fn scratch_reuse_across_shapes_is_safe() {
        let enc = TransformerEncoder::new(cfg());
        let mut scratch = InferScratch::new();
        // Long then short then long: stale trailing data must not leak.
        let long = enc.forward_infer(&[1, 2, 3, 4, 5, 6], &[0, 0, 0, 1, 1, 1], &mut scratch);
        let short = enc.forward_infer(&[1, 2], &[0, 1], &mut scratch);
        let long2 = enc.forward_infer(&[1, 2, 3, 4, 5, 6], &[0, 0, 0, 1, 1, 1], &mut scratch);
        assert_eq!(long.data, long2.data);
        let fresh = enc.forward_infer(&[1, 2], &[0, 1], &mut InferScratch::new());
        assert_eq!(short.data, fresh.data);
    }

    #[test]
    fn two_scratches_one_model() {
        // The whole point of the split: one read-only model, many scratches.
        let enc = TransformerEncoder::new(cfg());
        let mut s1 = InferScratch::new();
        let mut s2 = InferScratch::new();
        let a = enc.forward_infer(&[7, 8, 9], &[0, 0, 1], &mut s1);
        let b = enc.forward_infer(&[7, 8, 9], &[0, 0, 1], &mut s2);
        assert_eq!(a.data, b.data);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn infer_oov_panics() {
        let enc = TransformerEncoder::new(cfg());
        enc.forward_infer(&[99], &[0], &mut InferScratch::new());
    }
}
