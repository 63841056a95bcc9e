//! The hashed LS-base model and the 64-token sequences that the golden
//! inference and training suites share.

use ls_core::LearnShapleyModel;
use ls_nn::{EncoderConfig, Visit};

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
pub fn hashed_model() -> LearnShapleyModel {
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
pub fn sequence(s: u64, split: usize) -> (Vec<u32>, Vec<u8>) {
    let tokens = (0..LEN as u64)
        .map(|i| 4 + (mix(s << 32 | i) % (VOCAB as u64 - 4)) as u32)
        .collect();
    let segments = (0..LEN).map(|i| u8::from(i >= split)).collect();
    (tokens, segments)
}
