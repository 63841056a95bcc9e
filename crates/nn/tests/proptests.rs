//! Property tests for the NN substrate: end-to-end gradient checks of the
//! full encoder on random shapes and inputs, checkpoint round-trips, and
//! the `[CLS]`-only inference pass against the training forward.

use ls_nn::{EncoderConfig, InferScratch, Snapshot, Tensor, TransformerEncoder, Visit};
use proptest::prelude::*;

fn config() -> impl Strategy<Value = EncoderConfig> {
    (
        1usize..3,
        prop_oneof![Just(4usize), Just(8)],
        1usize..3,
        any::<u64>(),
    )
        .prop_map(|(layers, d_model, heads_pow, seed)| EncoderConfig {
            vocab: 12,
            d_model,
            heads: heads_pow.min(d_model / 2),
            layers,
            ff_dim: d_model * 2,
            max_len: 10,
            seed,
        })
}

fn tokens() -> impl Strategy<Value = (Vec<u32>, Vec<u8>)> {
    proptest::collection::vec((0u32..12, 0u8..2), 1..8).prop_map(|v| v.into_iter().unzip())
}

/// A config with 0 to 3 blocks and a sequence of 1 to `max_len` tokens.
fn config_and_sequence() -> impl Strategy<Value = (EncoderConfig, (Vec<u32>, Vec<u8>))> {
    (config(), 0usize..=3, 1usize..=16).prop_flat_map(|(cfg, layers, max_len)| {
        let cfg = EncoderConfig {
            layers,
            max_len,
            ..cfg
        };
        let seq = proptest::collection::vec((0u32..12, 0u8..2), 1..=max_len)
            .prop_map(|v| v.into_iter().unzip());
        (Just(cfg), seq)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Finite-difference gradient check of the full encoder (loss = random
    /// linear functional of the [CLS] row) at a few probed parameters.
    #[test]
    fn encoder_gradcheck((toks, segs) in tokens(), cfg in config(), probe in any::<u32>()) {
        let mut enc = TransformerEncoder::new(cfg);
        let d = cfg.d_model;
        let u: Vec<f32> = (0..d).map(|i| ((i as f32 + 1.3) * 0.7).sin()).collect();
        let h = enc.forward(&toks, &segs);
        let mut dh = Tensor::zeros(h.rows, h.cols);
        dh.row_mut(0).copy_from_slice(&u);
        enc.backward(&dh);

        // Collect analytic grads and flatten params.
        let mut analytic: Vec<f32> = Vec::new();
        enc.visit(&mut |p| analytic.extend_from_slice(&p.g.data));
        let total = analytic.len();
        let idx = (probe as usize) % total;

        let loss = |enc: &mut TransformerEncoder| -> f32 {
            let h = enc.forward(&toks, &segs);
            h.row(0).iter().zip(&u).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-2f32;
        let mut plus = enc.clone();
        perturb(&mut plus, idx, eps);
        let mut minus = enc.clone();
        perturb(&mut minus, idx, -eps);
        let numeric = (loss(&mut plus) - loss(&mut minus)) / (2.0 * eps);
        prop_assert!(
            (numeric - analytic[idx]).abs() < 0.08 * (1.0 + numeric.abs()),
            "param {}: numeric {} vs analytic {}", idx, numeric, analytic[idx]
        );
    }

    /// Snapshot capture → perturb → restore returns identical outputs.
    #[test]
    fn snapshot_roundtrip((toks, segs) in tokens(), cfg in config()) {
        let mut enc = TransformerEncoder::new(cfg);
        let before = enc.forward(&toks, &segs);
        let snap = Snapshot::capture(&mut enc);
        enc.visit(&mut |p| p.v.scale(1.37));
        let perturbed = enc.forward(&toks, &segs);
        prop_assert_ne!(&before, &perturbed);
        snap.restore(&mut enc);
        let after = enc.forward(&toks, &segs);
        prop_assert_eq!(before, after);
        // Binary round-trip too.
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        let loaded = Snapshot::read_from(&mut bytes.as_slice()).unwrap();
        prop_assert_eq!(snap, loaded);
    }

    /// The encoder is a pure function of (params, input): same tokens give
    /// the same hidden state across repeated calls.
    #[test]
    fn forward_is_pure((toks, segs) in tokens(), cfg in config()) {
        let mut enc = TransformerEncoder::new(cfg);
        let a = enc.forward(&toks, &segs);
        let b = enc.forward(&toks, &segs);
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The inference pass returns row 0 of the training forward's hidden
    /// state, bit for bit, at any depth (a model with no blocks included)
    /// and any length up to the positional table.
    #[test]
    fn forward_infer_is_row_0_of_forward((cfg, (toks, segs)) in config_and_sequence()) {
        let mut enc = TransformerEncoder::new(cfg);
        let hidden = enc.forward(&toks, &segs);
        let cls = enc.forward_infer(&toks, &segs, &mut InferScratch::new());
        prop_assert_eq!((cls.rows, cls.cols), (1, cfg.d_model));
        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(cls.row(0)), bits(hidden.row(0)));
    }
}

fn perturb(enc: &mut TransformerEncoder, flat_idx: usize, eps: f32) {
    let mut offset = 0usize;
    enc.visit(&mut |p| {
        if flat_idx >= offset && flat_idx < offset + p.len() {
            p.v.data[flat_idx - offset] += eps;
        }
        offset += p.len();
    });
}
