//! Transformer encoder: embeddings, GELU feed-forward blocks, residual
//! connections with post-layer-norm — the BERT-style architecture the paper
//! builds LearnShapley on, at laptop scale.

use crate::attention::MultiHeadAttention;
use crate::linear::Linear;
use crate::norm::LayerNorm;
use crate::param::{Param, Visit};
use crate::tensor::Tensor;
use crate::vmath;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Position-wise feed-forward network: `Linear → GELU → Linear`.
#[derive(Debug, Clone)]
pub struct FeedForward {
    lin1: Linear,
    lin2: Linear,
    cache_pre: Option<Tensor>,
}

impl FeedForward {
    /// `d_model → ff_dim → d_model`.
    pub fn new(d_model: usize, ff_dim: usize, rng: &mut StdRng) -> Self {
        FeedForward {
            lin1: Linear::new(d_model, ff_dim, rng),
            lin2: Linear::new(ff_dim, d_model, rng),
            cache_pre: None,
        }
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let pre = self.lin1.forward(x);
        let mut act = pre.clone();
        vmath::gelu(&mut act.data);
        self.cache_pre = Some(pre);
        self.lin2.forward(&act)
    }

    /// Inference forward pass: same arithmetic as [`FeedForward::forward`]
    /// but read-only. Bit-identical to the training forward.
    pub fn forward_infer(&self, x: &Tensor) -> Tensor {
        let mut act = self.lin1.forward_infer(x);
        vmath::gelu(&mut act.data);
        self.lin2.forward_infer(&act)
    }

    /// Backward pass.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut dpre = self.lin2.backward(dy);
        let mut grad = self.cache_pre.take().expect("forward before backward");
        vmath::gelu_grad(&mut grad.data);
        for (d, g) in dpre.data.iter_mut().zip(&grad.data) {
            *d *= g;
        }
        self.lin1.backward(&dpre)
    }
}

impl Visit for FeedForward {
    fn visit(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.lin1.visit(f);
        self.lin2.visit(f);
    }
}

/// One encoder block: self-attention and feed-forward, each wrapped in a
/// residual connection followed by layer norm (post-LN, as in BERT).
#[derive(Debug, Clone)]
pub struct EncoderBlock {
    attn: MultiHeadAttention,
    norm1: LayerNorm,
    ffn: FeedForward,
    norm2: LayerNorm,
}

impl EncoderBlock {
    /// A fresh block.
    pub fn new(d_model: usize, heads: usize, ff_dim: usize, rng: &mut StdRng) -> Self {
        EncoderBlock {
            attn: MultiHeadAttention::new(d_model, heads, rng),
            norm1: LayerNorm::new(d_model),
            ffn: FeedForward::new(d_model, ff_dim, rng),
            norm2: LayerNorm::new(d_model),
        }
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let a = self.attn.forward(x);
        let mut res1 = x.clone();
        res1.add_assign(&a);
        let x1 = self.norm1.forward(&res1);
        let f = self.ffn.forward(&x1);
        let mut res2 = x1.clone();
        res2.add_assign(&f);
        self.norm2.forward(&res2)
    }

    /// Inference forward pass: same arithmetic as [`EncoderBlock::forward`]
    /// but read-only. Bit-identical to the training forward.
    pub fn forward_infer(&self, x: &Tensor) -> Tensor {
        let a = self.attn.forward_infer(x);
        let mut res1 = x.clone();
        res1.add_assign(&a);
        let x1 = self.norm1.forward_infer(&res1);
        let f = self.ffn.forward_infer(&x1);
        let mut res2 = x1;
        res2.add_assign(&f);
        self.norm2.forward_infer(&res2)
    }

    /// Backward pass.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let dres2 = self.norm2.backward(dy);
        let dffn_in = self.ffn.backward(&dres2);
        let mut dx1 = dres2;
        dx1.add_assign(&dffn_in);
        let dres1 = self.norm1.backward(&dx1);
        let dattn_in = self.attn.backward(&dres1);
        let mut dx = dres1;
        dx.add_assign(&dattn_in);
        dx
    }
}

impl Visit for EncoderBlock {
    fn visit(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.attn.visit(f);
        self.norm1.visit(f);
        self.ffn.visit(f);
        self.norm2.visit(f);
    }
}

/// Encoder hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Vocabulary size (token ids are `0..vocab`).
    pub vocab: usize,
    /// Hidden width.
    pub d_model: usize,
    /// Attention heads per layer.
    pub heads: usize,
    /// Number of encoder blocks.
    pub layers: usize,
    /// Feed-forward inner width.
    pub ff_dim: usize,
    /// Maximum sequence length (positional table size).
    pub max_len: usize,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl EncoderConfig {
    /// The "base" configuration of the reproduction (stands in for
    /// BERT-base at laptop scale).
    pub fn base(vocab: usize, max_len: usize) -> Self {
        EncoderConfig {
            vocab,
            d_model: 48,
            heads: 4,
            layers: 2,
            ff_dim: 96,
            max_len,
            seed: 17,
        }
    }

    /// The "large" configuration (stands in for BERT-large: wider + deeper).
    pub fn large(vocab: usize, max_len: usize) -> Self {
        EncoderConfig {
            vocab,
            d_model: 64,
            heads: 8,
            layers: 3,
            ff_dim: 128,
            max_len,
            seed: 17,
        }
    }

    /// Parameter shapes `(rows, cols)` of `TransformerEncoder::new(self)`
    /// in visitation order, listed without allocating any of them — what a
    /// loader checks a stored snapshot against before building the model.
    pub fn param_shapes(&self) -> impl Iterator<Item = (usize, usize)> {
        let (d, ff) = (self.d_model, self.ff_dim);
        let linear = move |i, o| [(i, o), (1, o)]; // weight, bias
        let norm = [(1, d); 2]; // gamma, beta
        let block = move |_| {
            [linear(d, d); 4] // attention: W_Q, W_K, W_V, W_O
                .into_iter()
                .flatten()
                .chain(norm)
                .chain(linear(d, ff))
                .chain(linear(ff, d))
                .chain(norm)
        };
        [(self.vocab, d), (self.max_len, d), (2, d)] // token, position, segment
            .into_iter()
            .chain((0..self.layers).flat_map(block))
    }

    /// The small randomly-initialized transformer of the paper's ablation
    /// (§5.5: "a transformer encoder with 3 layers and 8 attention heads",
    /// scaled to this reproduction's width).
    pub fn small_ablation(vocab: usize, max_len: usize) -> Self {
        EncoderConfig {
            vocab,
            d_model: 32,
            heads: 8,
            layers: 3,
            ff_dim: 64,
            max_len,
            seed: 17,
        }
    }
}

/// A BERT-style transformer encoder over token sequences.
///
/// Input embeddings are the sum of token, learned positional, and segment
/// embeddings (segment 0/1 corresponds to the text before/after the `[SEP]`,
/// mirroring BERT's two-sentence packing).
#[derive(Debug, Clone)]
pub struct TransformerEncoder {
    /// Hyper-parameters.
    pub config: EncoderConfig,
    tok_emb: Param,
    pos_emb: Param,
    seg_emb: Param,
    blocks: Vec<EncoderBlock>,
    cache_tokens: Option<(Vec<u32>, Vec<u8>)>,
}

impl TransformerEncoder {
    /// Initialize from a config (seeded, deterministic).
    pub fn new(config: EncoderConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let std = 0.02f32.max((1.0 / config.d_model as f32).sqrt() * 0.5);
        let tok_emb = Param::new(Tensor::randn(config.vocab, config.d_model, std, &mut rng));
        let pos_emb = Param::new(Tensor::randn(config.max_len, config.d_model, std, &mut rng));
        let seg_emb = Param::new(Tensor::randn(2, config.d_model, std, &mut rng));
        let blocks = (0..config.layers)
            .map(|_| EncoderBlock::new(config.d_model, config.heads, config.ff_dim, &mut rng))
            .collect();
        TransformerEncoder {
            config,
            tok_emb,
            pos_emb,
            seg_emb,
            blocks,
            cache_tokens: None,
        }
    }

    /// Encode a token sequence; returns the full hidden state (`n × d`).
    ///
    /// # Panics
    /// Panics on empty input, out-of-vocabulary ids, or sequences longer
    /// than `max_len` (callers truncate).
    pub fn forward(&mut self, tokens: &[u32], segments: &[u8]) -> Tensor {
        let t0 = ls_obs::enabled().then(std::time::Instant::now);
        assert!(!tokens.is_empty(), "empty token sequence");
        assert_eq!(
            tokens.len(),
            segments.len(),
            "token/segment length mismatch"
        );
        assert!(
            tokens.len() <= self.config.max_len,
            "sequence length {} exceeds max_len {}",
            tokens.len(),
            self.config.max_len
        );
        let d = self.config.d_model;
        let mut x = Tensor::zeros(tokens.len(), d);
        for (i, (&t, &s)) in tokens.iter().zip(segments).enumerate() {
            assert!(
                (t as usize) < self.config.vocab,
                "token id {t} out of vocabulary"
            );
            assert!(s < 2, "segment id must be 0 or 1");
            let row = x.row_mut(i);
            let te = self.tok_emb.v.row(t as usize);
            let pe = self.pos_emb.v.row(i);
            let se = self.seg_emb.v.row(s as usize);
            for c in 0..d {
                row[c] = te[c] + pe[c] + se[c];
            }
        }
        for b in &mut self.blocks {
            x = b.forward(&x);
        }
        self.cache_tokens = Some((tokens.to_vec(), segments.to_vec()));
        if let Some(t0) = t0 {
            ls_obs::histogram("nn.forward").record(t0.elapsed().as_secs_f64());
            ls_obs::meter("nn.tokens").mark(tokens.len() as u64);
        }
        x
    }

    /// Inference-only encode: same arithmetic (and panics) as
    /// [`TransformerEncoder::forward`], but read-only on the encoder so the
    /// weights can be `Arc`-shared across worker threads. The mutable
    /// sequence staging buffer lives in the caller-owned
    /// [`InferScratch`](crate::InferScratch); results are bit-identical to
    /// the training forward.
    pub fn forward_infer(
        &self,
        tokens: &[u32],
        segments: &[u8],
        scratch: &mut crate::InferScratch,
    ) -> Tensor {
        let t0 = ls_obs::enabled().then(std::time::Instant::now);
        assert!(!tokens.is_empty(), "empty token sequence");
        assert_eq!(
            tokens.len(),
            segments.len(),
            "token/segment length mismatch"
        );
        assert!(
            tokens.len() <= self.config.max_len,
            "sequence length {} exceeds max_len {}",
            tokens.len(),
            self.config.max_len
        );
        let d = self.config.d_model;
        crate::InferScratch::reshape(&mut scratch.seq, tokens.len(), d);
        for (i, (&t, &s)) in tokens.iter().zip(segments).enumerate() {
            assert!(
                (t as usize) < self.config.vocab,
                "token id {t} out of vocabulary"
            );
            assert!(s < 2, "segment id must be 0 or 1");
            let row = scratch.seq.row_mut(i);
            let te = self.tok_emb.v.row(t as usize);
            let pe = self.pos_emb.v.row(i);
            let se = self.seg_emb.v.row(s as usize);
            for c in 0..d {
                row[c] = te[c] + pe[c] + se[c];
            }
        }
        let mut x: Option<Tensor> = None;
        for b in &self.blocks {
            let y = b.forward_infer(x.as_ref().unwrap_or(&scratch.seq));
            x = Some(y);
        }
        let out = x.unwrap_or_else(|| scratch.seq.clone());
        if let Some(t0) = t0 {
            ls_obs::histogram("nn.forward").record(t0.elapsed().as_secs_f64());
            ls_obs::meter("nn.tokens").mark(tokens.len() as u64);
        }
        out
    }

    /// Backward from a gradient on the full hidden state; accumulates all
    /// parameter gradients (embeddings included).
    pub fn backward(&mut self, dhidden: &Tensor) {
        let t0 = ls_obs::enabled().then(std::time::Instant::now);
        let mut dx = dhidden.clone();
        for b in self.blocks.iter_mut().rev() {
            dx = b.backward(&dx);
        }
        let (tokens, segments) = self.cache_tokens.take().expect("forward before backward");
        for (i, (&t, &s)) in tokens.iter().zip(&segments).enumerate() {
            let grow = dx.row(i).to_vec();
            for (c, gv) in grow.iter().enumerate() {
                self.tok_emb.g.data[t as usize * self.config.d_model + c] += gv;
                self.pos_emb.g.data[i * self.config.d_model + c] += gv;
                self.seg_emb.g.data[s as usize * self.config.d_model + c] += gv;
            }
        }
        if let Some(t0) = t0 {
            ls_obs::histogram("nn.backward").record(t0.elapsed().as_secs_f64());
        }
    }
}

impl Visit for TransformerEncoder {
    fn visit(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.tok_emb);
        f(&mut self.pos_emb);
        f(&mut self.seg_emb);
        for b in &mut self.blocks {
            b.visit(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> EncoderConfig {
        EncoderConfig {
            vocab: 11,
            d_model: 8,
            heads: 2,
            layers: 2,
            ff_dim: 16,
            max_len: 12,
            seed: 5,
        }
    }

    #[test]
    fn encoder_forward_shape() {
        let mut enc = TransformerEncoder::new(tiny_config());
        let h = enc.forward(&[1, 2, 3, 4], &[0, 0, 1, 1]);
        assert_eq!((h.rows, h.cols), (4, 8));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = TransformerEncoder::new(tiny_config());
        let mut b = TransformerEncoder::new(tiny_config());
        let ha = a.forward(&[5, 6, 7], &[0, 1, 1]);
        let hb = b.forward(&[5, 6, 7], &[0, 1, 1]);
        assert_eq!(ha, hb);
    }

    #[test]
    fn position_matters() {
        let mut enc = TransformerEncoder::new(tiny_config());
        let h1 = enc.forward(&[1, 2], &[0, 0]);
        let h2 = enc.forward(&[2, 1], &[0, 0]);
        assert_ne!(h1.data, h2.data);
    }

    #[test]
    fn segment_matters() {
        let mut enc = TransformerEncoder::new(tiny_config());
        let h1 = enc.forward(&[1, 2], &[0, 0]);
        let h2 = enc.forward(&[1, 2], &[0, 1]);
        assert_ne!(h1.data, h2.data);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_token_panics() {
        let mut enc = TransformerEncoder::new(tiny_config());
        enc.forward(&[99], &[0]);
    }

    #[test]
    #[should_panic(expected = "exceeds max_len")]
    fn too_long_panics() {
        let mut enc = TransformerEncoder::new(tiny_config());
        let toks: Vec<u32> = (0..13).map(|i| i % 10).collect();
        let segs = vec![0u8; 13];
        enc.forward(&toks, &segs);
    }

    #[test]
    fn end_to_end_gradient_check_on_cls() {
        // Loss = dot(u, hidden[0]); check d tok_emb by finite differences.
        let mut enc = TransformerEncoder::new(tiny_config());
        let tokens = [3u32, 1, 4];
        let segs = [0u8, 0, 1];
        let u: Vec<f32> = (0..8).map(|i| (i as f32 * 0.37).sin()).collect();
        let h = enc.forward(&tokens, &segs);
        let mut dh = Tensor::zeros(h.rows, h.cols);
        dh.row_mut(0).copy_from_slice(&u);
        enc.backward(&dh);
        let loss = |enc: &mut TransformerEncoder| -> f32 {
            let h = enc.forward(&tokens, &segs);
            h.row(0).iter().zip(&u).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-2f32;
        // Probe a handful of embedding entries of token 3.
        for c in [0usize, 3, 7] {
            let idx = 3 * 8 + c;
            let analytic = enc.tok_emb.g.data[idx];
            let mut p = enc.clone();
            p.tok_emb.v.data[idx] += eps;
            let mut m = enc.clone();
            m.tok_emb.v.data[idx] -= eps;
            let numeric = (loss(&mut p) - loss(&mut m)) / (2.0 * eps);
            assert!(
                (numeric - analytic).abs() < 0.05 * (1.0 + numeric.abs()),
                "tok_emb[3][{c}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn feedforward_gradcheck() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ffn = FeedForward::new(4, 8, &mut rng);
        let x = Tensor::randn(2, 4, 0.8, &mut rng);
        let u = Tensor::randn(2, 4, 1.0, &mut rng);
        ffn.forward(&x);
        let dx = ffn.backward(&u);
        let loss = |ffn: &mut FeedForward, x: &Tensor| -> f32 {
            let y = ffn.forward(x);
            y.data.iter().zip(&u.data).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-2f32;
        for i in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let numeric = (loss(&mut ffn.clone(), &xp) - loss(&mut ffn.clone(), &xm)) / (2.0 * eps);
            assert!(
                (numeric - dx.data[i]).abs() < 0.05 * (1.0 + numeric.abs()),
                "dx[{i}]"
            );
        }
    }

    #[test]
    fn param_shapes_list_the_built_parameters() {
        for cfg in [tiny_config(), EncoderConfig::base(30, 16)] {
            let mut enc = TransformerEncoder::new(cfg);
            let mut built = Vec::new();
            enc.visit(&mut |p| built.push((p.v.rows, p.v.cols)));
            assert_eq!(cfg.param_shapes().collect::<Vec<_>>(), built);
        }
    }

    #[test]
    fn standard_configs_have_expected_scale() {
        let base = EncoderConfig::base(100, 64);
        let large = EncoderConfig::large(100, 64);
        assert!(large.d_model > base.d_model);
        assert!(large.layers > base.layers);
        let mut b = TransformerEncoder::new(base);
        let mut l = TransformerEncoder::new(large);
        assert!(l.param_count() > b.param_count());
    }
}
