//! Training schedule utilities: global gradient-norm clipping.

use crate::param::Visit;

/// Clip the global gradient norm to `max_norm`.
///
/// Computes the L2 norm over *all* accumulated gradients of the module and,
/// if it exceeds `max_norm`, rescales every gradient by `max_norm / norm`.
/// Returns the pre-clip norm.
pub fn clip_grad_norm(module: &mut dyn Visit, max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let mut sq = 0.0f64;
    module.visit(&mut |p| {
        for g in &p.g.data {
            sq += (*g as f64) * (*g as f64);
        }
    });
    let norm = (sq as f32).sqrt();
    if norm > max_norm && norm.is_finite() {
        let scale = max_norm / norm;
        module.visit(&mut |p| p.g.scale(scale));
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clipping_caps_the_norm() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Linear::new(4, 4, &mut rng);
        layer.backward(
            &Tensor::from_vec(1, 4, vec![10.0, -10.0, 10.0, -10.0]),
            &Tensor::from_vec(1, 4, vec![100.0, 100.0, 100.0, 100.0]),
        );
        let before = clip_grad_norm(&mut layer, 1.0);
        assert!(before > 1.0);
        // After clipping, the norm equals max_norm (within float error).
        let after = clip_grad_norm(&mut layer, 1.0);
        assert!((after - 1.0).abs() < 1e-4, "post-clip norm {after}");
    }

    #[test]
    fn small_gradients_untouched() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut layer = Linear::new(2, 2, &mut rng);
        layer.backward(
            &Tensor::from_vec(1, 2, vec![0.01, 0.01]),
            &Tensor::from_vec(1, 2, vec![0.01, 0.01]),
        );
        let g_before = layer.w.g.clone();
        let norm = clip_grad_norm(&mut layer, 10.0);
        assert!(norm < 10.0);
        assert_eq!(layer.w.g, g_before);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_max_norm_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = Linear::new(2, 2, &mut rng);
        clip_grad_norm(&mut layer, 0.0);
    }
}
