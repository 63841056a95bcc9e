//! Golden bits of LS-base inference.
//!
//! An LS-base `LearnShapleyModel` whose every weight comes from an integer
//! hash (set through `Visit`, so libm plays no part in the weights) encodes
//! four fixed 64-token sequences. `infer_value` and a hash of the whole
//! hidden state must reproduce the pinned bits exactly. The bits were
//! captured while GELU and softmax still called libm `tanhf`/`expf`, so the
//! test pins that `ls_nn::vmath` changed no bit of the model's output, and
//! that the output no longer depends on which libm the host loads.

use ls_core::LearnShapleyModel;
use ls_nn::{EncoderConfig, InferScratch, Visit};

const VOCAB: usize = 300;
const LEN: usize = 64;

/// splitmix64's finalizer.
fn mix(mut h: u64) -> u64 {
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// LS-base with weights uniform in [−0.5, 0.5), exact in `f32`.
fn hashed_model() -> LearnShapleyModel {
    let mut model = LearnShapleyModel::new(EncoderConfig::base(VOCAB, LEN));
    let mut n = 0u64;
    model.visit(&mut |p| {
        for v in &mut p.v.data {
            n += 1;
            *v = (mix(n) >> 40) as f32 / (1u32 << 24) as f32 - 0.5;
        }
    });
    model
}

/// Sequence `s`: hashed ids over the non-special vocabulary, segment 1
/// from position `split` on.
fn sequence(s: u64, split: usize) -> (Vec<u32>, Vec<u8>) {
    let tokens = (0..LEN as u64)
        .map(|i| 4 + (mix(s << 32 | i) % (VOCAB as u64 - 4)) as u32)
        .collect();
    let segments = (0..LEN).map(|i| u8::from(i >= split)).collect();
    (tokens, segments)
}

/// FNV-1a over the bits of every hidden-state element.
fn fnv(data: &[f32]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x100_0000_01b3)
    })
}

/// `(sequence seed, segment split) → (infer_value bits, hidden-state FNV)`.
const GOLDEN: [((u64, usize), (u32, u64)); 4] = [
    ((1, 20), (0x3e9ef5c2, 0x577b_a3a9_0893_39f7)),
    ((2, 33), (0x3e983654, 0x0931_9beb_9115_abac)),
    ((3, 48), (0x3e83f34e, 0x462f_865f_0476_2416)),
    ((4, 61), (0x3e8800e0, 0xc3fc_4080_3a37_33d5)),
];

#[test]
fn ls_base_inference_bits_are_pinned() {
    let model = hashed_model();
    let mut scratch = InferScratch::new();
    let got: Vec<(u32, u64)> = GOLDEN
        .iter()
        .map(|&((s, split), _)| {
            let (tokens, segments) = sequence(s, split);
            let value = model.infer_value(&tokens, &segments, &mut scratch);
            let hidden = model
                .encoder
                .forward_infer(&tokens, &segments, &mut scratch);
            (value.to_bits(), fnv(&hidden.data))
        })
        .collect();
    let want: Vec<(u32, u64)> = GOLDEN.iter().map(|g| g.1).collect();
    assert_eq!(got, want, "golden bits moved; got {got:#x?}");
}
