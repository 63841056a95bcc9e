//! Golden bits of LS-base inference.
//!
//! An LS-base `LearnShapleyModel` whose every weight comes from an integer
//! hash (set through `Visit`, so libm plays no part in the weights) encodes
//! four fixed 64-token sequences. `infer_value` and a hash of the whole
//! hidden state must reproduce the pinned bits exactly. The bits were
//! captured while GELU and softmax still called libm `tanhf`/`expf`, so the
//! test pins that `ls_nn::vmath` changed no bit of the model's output, and
//! that the output no longer depends on which libm the host loads. They
//! were also captured while inference still carried every row through the
//! last block: the hidden state now comes from the training `forward` with
//! `rows = n` (the only pass that still produces every row), `infer_value`
//! from the `[CLS]`-only inference path, whose row must equal the hidden
//! state's row 0.

mod common;

use common::{hashed_model, sequence};
use ls_nn::InferScratch;

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
    let mut trainer = model.encoder.clone();
    let mut scratch = InferScratch::new();
    let got: Vec<(u32, u64)> = GOLDEN
        .iter()
        .map(|&((s, split), _)| {
            let (tokens, segments) = sequence(s, split);
            let value = model.infer_value(&tokens, &segments, &mut scratch);
            let cls = model
                .encoder
                .forward_infer(&tokens, &segments, &mut scratch);
            let hidden = trainer.forward(&tokens, &segments, tokens.len());
            assert_eq!(
                fnv(&cls.data),
                fnv(hidden.row(0)),
                "[CLS] row of sequence {s}"
            );
            (value.to_bits(), fnv(&hidden.data))
        })
        .collect();
    let want: Vec<(u32, u64)> = GOLDEN.iter().map(|g| g.1).collect();
    assert_eq!(got, want, "golden bits moved; got {got:#x?}");
}
