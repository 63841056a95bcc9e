//! Property tests for the NN substrate: end-to-end gradient checks of the
//! full encoder on random shapes and inputs, checkpoint round-trips, the
//! `[CLS]`-only inference pass and the `[CLS]`-pruned training step against
//! the full-sequence pass, and the blocked GEMM on strided views against
//! the naive oracles.

use ls_nn::kernels::{gemm, Op};
use ls_nn::{EncoderConfig, InferScratch, Snapshot, Tensor, TransformerEncoder, Visit};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    /// linear functional of the [CLS] row, through the pruned last block) at
    /// a few probed parameters.
    #[test]
    fn encoder_gradcheck((toks, segs) in tokens(), cfg in config(), probe in any::<u32>()) {
        let mut enc = TransformerEncoder::new(cfg);
        let d = cfg.d_model;
        let u: Vec<f32> = (0..d).map(|i| ((i as f32 + 1.3) * 0.7).sin()).collect();
        enc.forward(&toks, &segs, 1);
        enc.backward(&Tensor::from_vec(1, d, u.clone()));

        // Collect analytic grads and flatten params.
        let mut analytic: Vec<f32> = Vec::new();
        enc.visit(&mut |p| analytic.extend_from_slice(&p.g.data));
        let total = analytic.len();
        let idx = (probe as usize) % total;

        let loss = |enc: &mut TransformerEncoder| -> f32 {
            let cls = enc.forward(&toks, &segs, 1);
            cls.row(0).iter().zip(&u).map(|(a, b)| a * b).sum()
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
        let n = toks.len();
        let before = enc.forward(&toks, &segs, n);
        let snap = Snapshot::capture(&mut enc);
        enc.visit(&mut |p| p.v.scale(1.37));
        let perturbed = enc.forward(&toks, &segs, n);
        prop_assert_ne!(&before, &perturbed);
        snap.restore(&mut enc);
        let after = enc.forward(&toks, &segs, n);
        prop_assert_eq!(before, after);
        // Binary round-trip too.
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes);
        let loaded = Snapshot::read_from(&mut ls_fault::Cursor::new(&bytes)).unwrap();
        prop_assert_eq!(snap, loaded);
    }

    /// The encoder is a pure function of (params, input): same tokens give
    /// the same hidden state across repeated calls.
    #[test]
    fn forward_is_pure((toks, segs) in tokens(), cfg in config()) {
        let mut enc = TransformerEncoder::new(cfg);
        let a = enc.forward(&toks, &segs, toks.len());
        let b = enc.forward(&toks, &segs, toks.len());
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The inference pass returns row 0 of the full hidden state (the
    /// training forward at `rows = n`), bit for bit, at any depth (a model
    /// with no blocks included) and any length up to the positional table.
    #[test]
    fn forward_infer_is_row_0_of_forward((cfg, (toks, segs)) in config_and_sequence()) {
        let mut enc = TransformerEncoder::new(cfg);
        let hidden = enc.forward(&toks, &segs, toks.len());
        let cls = enc.forward_infer(&toks, &segs, &mut InferScratch::new());
        prop_assert_eq!((cls.rows, cls.cols), (1, cfg.d_model));
        prop_assert_eq!(bits(cls.row(0)), bits(hidden.row(0)));
    }

    /// The `[CLS]`-pruned training step against the full-sequence
    /// reference: `forward(.., 1)` + `backward(dcls)` and `forward(.., n)` +
    /// `backward` of the gradient with rows 1..n set to zero give the same
    /// `[CLS]` row and the same gradient of every parameter, embeddings
    /// included, by `to_bits`, at any depth (a model with no blocks
    /// included) and any length up to the positional table.
    #[test]
    fn pruned_backward_matches_full_reference(
        (cfg, (toks, segs)) in config_and_sequence(),
        seed in any::<u64>(),
    ) {
        let n = toks.len();
        let dcls = Tensor::randn(1, cfg.d_model, 1.0, &mut StdRng::seed_from_u64(seed));
        let mut pruned = TransformerEncoder::new(cfg);
        let mut full = pruned.clone();

        let cls = pruned.forward(&toks, &segs, 1);
        pruned.backward(&dcls);
        let hidden = full.forward(&toks, &segs, n);
        let mut dhidden = Tensor::zeros(n, cfg.d_model);
        dhidden.row_mut(0).copy_from_slice(dcls.row(0));
        full.backward(&dhidden);

        prop_assert_eq!((cls.rows, cls.cols), (1, cfg.d_model));
        prop_assert_eq!(bits(cls.row(0)), bits(hidden.row(0)), "[CLS] row");
        let grads = |enc: &mut TransformerEncoder| {
            let mut out = Vec::new();
            enc.visit(&mut |p| out.push(bits(&p.g.data)));
            out
        };
        for (i, (p, f)) in grads(&mut pruned).iter().zip(&grads(&mut full)).enumerate() {
            prop_assert_eq!(p, f, "gradient of parameter {}", i);
        }
    }

    /// `gemm` on padded, offset views of A, B and the output, at 1 and 2
    /// threads, equals the naive oracle of its layout by `to_bits`, and
    /// writes no output element outside its view; the `Tensor` methods
    /// (natural strides) equal it too.
    #[test]
    fn gemm_views_match_naive_oracles(
        (n, k, m) in gemm_shape(),
        op in prop_oneof![Just(Op::NN), Just(Op::TN), Just(Op::NT)],
        pads in (0usize..4, 0usize..4, 0usize..4),
        off in 0usize..5,
        sparse in any::<bool>(),
        threads in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let (a, b) = match op {
            Op::NN => (matrix(n, k, seed, sparse), matrix(k, m, !seed, sparse)),
            Op::TN => (matrix(k, n, seed, sparse), matrix(k, m, !seed, sparse)),
            Op::NT => (matrix(n, k, seed, sparse), matrix(m, k, !seed, sparse)),
        };
        let (want, dense) = match op {
            Op::NN => (a.matmul_naive(&b), a.matmul(&b)),
            Op::TN => (a.t_matmul_naive(&b), a.t_matmul(&b)),
            Op::NT => (a.matmul_t_naive(&b), a.matmul_t(&b)),
        };
        prop_assert_eq!(bits(&dense.data), bits(&want.data), "natural strides");

        let (pa, pb, pc) = pads;
        let (av, bv) = (embed(&a, off, pa), embed(&b, off, pb));
        let ldc = m + pc;
        let mut out = vec![7.0f32; off + n * ldc];
        for r in 0..n {
            out[off + r * ldc..][..m].fill(0.0);
        }
        ls_par::with_threads(threads, || {
            gemm(op, &av[off..], a.cols + pa, &bv[off..], b.cols + pb, n, k, m, &mut out[off..], ldc)
        });
        for r in 0..n {
            prop_assert_eq!(bits(&out[off + r * ldc..][..m]), bits(want.row(r)), "row {}", r);
        }
        let outside = out
            .iter()
            .enumerate()
            .filter(|&(i, _)| i < off || (i - off) % ldc >= m)
            .all(|(_, &v)| v == 7.0);
        prop_assert!(outside, "wrote outside the output view");
    }
}

/// `(n, k, m)`: shapes around the tile edges — one output row, n % 8 ≠ 0,
/// m < 16 and m % 16 ≠ 0, k past one 256-deep block — or products big
/// enough for the row-parallel split.
fn gemm_shape() -> impl Strategy<Value = (usize, usize, usize)> {
    prop_oneof![
        (
            prop_oneof![Just(1usize), 2usize..40],
            prop_oneof![1usize..64, 250usize..300],
            1usize..40,
        ),
        (48usize..64, 257usize..300, 800usize..840),
    ]
}

/// A `rows × cols` matrix of mixed-sign values from `seed`; with `sparse`,
/// about a quarter of its entries are +0.0 or −0.0.
fn matrix(rows: usize, cols: usize, seed: u64, sparse: bool) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| {
            let mut h = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            match h % 8 {
                0 | 1 if sparse => [0.0, -0.0][(h % 2) as usize],
                _ => ((h >> 8) % 4000) as f32 / 1000.0 - 2.0,
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// `t` embedded at element `off` of a NaN-filled buffer with row stride
/// `t.cols + pad`: a padded, offset view of the same matrix.
fn embed(t: &Tensor, off: usize, pad: usize) -> Vec<f32> {
    let ld = t.cols + pad;
    let mut buf = vec![f32::NAN; off + t.rows * ld];
    for r in 0..t.rows {
        buf[off + r * ld..][..t.cols].copy_from_slice(t.row(r));
    }
    buf
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
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
