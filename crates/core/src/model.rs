//! The LearnShapley model: a transformer encoder with three similarity
//! regression heads (pre-training) and one Shapley-value regression head
//! (fine-tuning), all reading the `[CLS]` representation — Figure 4 of the
//! paper.

use ls_nn::{EncoderConfig, InferScratch, Linear, Param, Tensor, TransformerEncoder, Visit};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Index of the rank-similarity head.
pub const HEAD_RANK: usize = 0;
/// Index of the witness-similarity head.
pub const HEAD_WITNESS: usize = 1;
/// Index of the syntax-similarity head.
pub const HEAD_SYNTAX: usize = 2;

/// Encoder + heads.
#[derive(Debug, Clone)]
pub struct LearnShapleyModel {
    /// The shared encoder.
    pub encoder: TransformerEncoder,
    /// Similarity regression heads `[rank, witness, syntax]`, each `d → 1`.
    pub sim_heads: Vec<Linear>,
    /// Shapley-value regression head (`d → 1`).
    pub value_head: Linear,
    last_shape: Option<(usize, usize)>,
}

impl LearnShapleyModel {
    /// Fresh model from an encoder config (heads share its seed).
    pub fn new(cfg: EncoderConfig) -> Self {
        let encoder = TransformerEncoder::new(cfg);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4ead);
        let sim_heads = (0..3)
            .map(|_| Linear::new(cfg.d_model, 1, &mut rng))
            .collect();
        let value_head = Linear::new(cfg.d_model, 1, &mut rng);
        LearnShapleyModel {
            encoder,
            sim_heads,
            value_head,
            last_shape: None,
        }
    }

    /// Parameter shapes of `LearnShapleyModel::new(cfg)` in visitation
    /// order, listed without allocating the model (see
    /// [`EncoderConfig::param_shapes`]).
    pub(crate) fn param_shapes(cfg: &EncoderConfig) -> impl Iterator<Item = (usize, usize)> {
        // Three similarity heads and the value head, each `Linear(d, 1)`.
        let head = [(cfg.d_model, 1), (1, 1)];
        cfg.param_shapes()
            .chain(std::iter::repeat_n(head, 4).flatten())
    }

    fn encode_cls(&mut self, tokens: &[u32], segments: &[u8]) -> Tensor {
        let hidden = self.encoder.forward(tokens, segments);
        self.last_shape = Some((hidden.rows, hidden.cols));
        let mut cls = Tensor::zeros(1, hidden.cols);
        cls.row_mut(0).copy_from_slice(hidden.row(0));
        cls
    }

    fn backprop_cls(&mut self, dcls: Tensor) {
        let (rows, cols) = self.last_shape.expect("forward before backward");
        let mut dhidden = Tensor::zeros(rows, cols);
        dhidden.row_mut(0).copy_from_slice(dcls.row(0));
        self.encoder.backward(&dhidden);
    }

    /// Pre-training forward: predicted `[sim_r, sim_w, sim_s]` for a packed
    /// query pair.
    pub fn forward_sims(&mut self, tokens: &[u32], segments: &[u8]) -> [f32; 3] {
        let cls = self.encode_cls(tokens, segments);
        let mut out = [0.0f32; 3];
        for (i, head) in self.sim_heads.iter_mut().enumerate() {
            out[i] = head.forward(&cls).data[0];
        }
        out
    }

    /// Pre-training backward from per-head loss gradients.
    pub fn backward_sims(&mut self, d: [f32; 3]) {
        let cols = self.last_shape.expect("forward before backward").1;
        let mut dcls = Tensor::zeros(1, cols);
        for (i, head) in self.sim_heads.iter_mut().enumerate() {
            let dhead = head.backward(&Tensor::from_vec(1, 1, vec![d[i]]));
            dcls.add_assign(&dhead);
        }
        self.backprop_cls(dcls);
    }

    /// Fine-tuning forward: predicted (scaled) Shapley value for a packed
    /// (query, tuple+fact) pair.
    pub fn forward_value(&mut self, tokens: &[u32], segments: &[u8]) -> f32 {
        let cls = self.encode_cls(tokens, segments);
        self.value_head.forward(&cls).data[0]
    }

    /// Read-only Shapley-value inference: same arithmetic as
    /// [`LearnShapleyModel::forward_value`] (bit-identical result) but
    /// `&self`, so one model can be `Arc`-shared across serving workers.
    /// The caller owns the mutable [`InferScratch`]; one per worker thread.
    pub fn infer_value(&self, tokens: &[u32], segments: &[u8], scratch: &mut InferScratch) -> f32 {
        let hidden = self.encoder.forward_infer(tokens, segments, scratch);
        let cls = scratch.stage_cls(&hidden);
        self.value_head.forward_infer(cls).data[0]
    }

    /// Read-only similarity inference: same arithmetic as
    /// [`LearnShapleyModel::forward_sims`] (bit-identical result) but
    /// `&self`, so dev evaluation can share one model across workers. The
    /// caller owns the mutable [`InferScratch`]; one per worker thread.
    pub fn infer_sims(
        &self,
        tokens: &[u32],
        segments: &[u8],
        scratch: &mut InferScratch,
    ) -> [f32; 3] {
        let hidden = self.encoder.forward_infer(tokens, segments, scratch);
        let cls = scratch.stage_cls(&hidden);
        let mut out = [0.0f32; 3];
        for (i, head) in self.sim_heads.iter().enumerate() {
            out[i] = head.forward_infer(cls).data[0];
        }
        out
    }

    /// Fine-tuning backward from the value-loss gradient.
    pub fn backward_value(&mut self, d: f32) {
        let dcls = self.value_head.backward(&Tensor::from_vec(1, 1, vec![d]));
        self.backprop_cls(dcls);
    }
}

impl Visit for LearnShapleyModel {
    fn visit(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.encoder.visit(f);
        for h in &mut self.sim_heads {
            h.visit(f);
        }
        self.value_head.visit(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ls_nn::{Adam, AdamConfig};

    fn tiny() -> LearnShapleyModel {
        LearnShapleyModel::new(EncoderConfig {
            vocab: 20,
            d_model: 8,
            heads: 2,
            layers: 1,
            ff_dim: 16,
            max_len: 16,
            seed: 3,
        })
    }

    #[test]
    fn param_shapes_list_the_built_parameters() {
        let mut m = tiny();
        let mut built = Vec::new();
        m.visit(&mut |p| built.push((p.v.rows, p.v.cols)));
        let listed: Vec<_> = LearnShapleyModel::param_shapes(&m.encoder.config).collect();
        assert_eq!(listed, built);
    }

    #[test]
    fn forward_shapes() {
        let mut m = tiny();
        let sims = m.forward_sims(&[1, 5, 2, 6, 2], &[0, 0, 0, 1, 1]);
        assert_eq!(sims.len(), 3);
        let v = m.forward_value(&[1, 5, 2, 6, 2], &[0, 0, 0, 1, 1]);
        assert!(v.is_finite());
    }

    #[test]
    fn infer_value_matches_forward_value_bitwise() {
        let mut m = tiny();
        let frozen = m.clone();
        let mut scratch = InferScratch::new();
        for (tokens, segs) in [
            (vec![1u32, 5, 2, 6, 2], vec![0u8, 0, 0, 1, 1]),
            (vec![4u32, 4], vec![0u8, 1]),
            (vec![19u32], vec![0u8]),
        ] {
            let trained = m.forward_value(&tokens, &segs);
            let inferred = frozen.infer_value(&tokens, &segs, &mut scratch);
            assert_eq!(trained.to_bits(), inferred.to_bits());
        }
    }

    #[test]
    fn infer_sims_matches_forward_sims_bitwise() {
        let mut m = tiny();
        let frozen = m.clone();
        let mut scratch = InferScratch::new();
        for (tokens, segs) in [
            (vec![1u32, 5, 2, 6, 2], vec![0u8, 0, 0, 1, 1]),
            (vec![4u32, 4], vec![0u8, 1]),
        ] {
            let trained = m.forward_sims(&tokens, &segs);
            let inferred = frozen.infer_sims(&tokens, &segs, &mut scratch);
            for h in 0..3 {
                assert_eq!(trained[h].to_bits(), inferred[h].to_bits());
            }
        }
    }

    #[test]
    fn heads_are_independent() {
        let mut m = tiny();
        let sims = m.forward_sims(&[1, 5, 2], &[0, 0, 1]);
        // Different random heads on the same CLS give different outputs.
        assert!(sims[0] != sims[1] || sims[1] != sims[2]);
    }

    #[test]
    fn value_training_step_reduces_loss() {
        let mut m = tiny();
        let mut opt = Adam::new(
            &mut m,
            AdamConfig {
                lr: 0.01,
                weight_decay: 0.0,
                ..Default::default()
            },
        );
        let tokens = [1u32, 7, 9, 2, 11];
        let segs = [0u8, 0, 0, 1, 1];
        let target = 0.8f32;
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..60 {
            let v = m.forward_value(&tokens, &segs);
            let loss = (v - target) * (v - target);
            m.backward_value(2.0 * (v - target));
            opt.step(&mut m, 1.0);
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.1,
            "loss {} → {last_loss}",
            first_loss.unwrap()
        );
    }

    #[test]
    fn sims_training_step_reduces_loss() {
        let mut m = tiny();
        let mut opt = Adam::new(
            &mut m,
            AdamConfig {
                lr: 0.01,
                weight_decay: 0.0,
                ..Default::default()
            },
        );
        let tokens = [1u32, 4, 2, 8, 2];
        let segs = [0u8, 0, 0, 1, 1];
        let targets = [0.3f32, 0.0, 0.9];
        let loss_of =
            |p: [f32; 3]| -> f32 { p.iter().zip(&targets).map(|(a, b)| (a - b) * (a - b)).sum() };
        let first = loss_of(m.forward_sims(&tokens, &segs));
        for _ in 0..80 {
            let p = m.forward_sims(&tokens, &segs);
            let d = [
                2.0 * (p[0] - targets[0]),
                2.0 * (p[1] - targets[1]),
                2.0 * (p[2] - targets[2]),
            ];
            m.backward_sims(d);
            opt.step(&mut m, 1.0);
        }
        let last = loss_of(m.forward_sims(&tokens, &segs));
        assert!(last < first * 0.1, "loss {first} → {last}");
    }

    #[test]
    fn param_count_includes_heads() {
        let mut m = tiny();
        let mut enc = TransformerEncoder::new(m.encoder.config);
        let enc_params = enc.param_count();
        // 4 heads × (8 weights + 1 bias).
        assert_eq!(m.param_count(), enc_params + 4 * 9);
    }
}
