//! Fully-connected layer with hand-written backward pass.

use crate::param::{Param, Visit};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// `y = x·W + b`, where `x` is `n × in`, `W` is `in × out`, `b` is `1 × out`.
///
/// The layer holds only its parameters: the layer that feeds it keeps the
/// input for backward, and passes it to [`Linear::backward`].
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix (`in × out`).
    pub w: Param,
    /// Bias row (`1 × out`).
    pub b: Param,
}

impl Linear {
    /// Xavier-style initialization: `std = sqrt(2 / (in + out))`.
    pub fn new(dim_in: usize, dim_out: usize, rng: &mut StdRng) -> Self {
        let std = (2.0 / (dim_in + dim_out) as f32).sqrt();
        Linear {
            w: Param::new(Tensor::randn(dim_in, dim_out, std, rng)),
            b: Param::new(Tensor::zeros(1, dim_out)),
        }
    }

    /// Forward pass `x·W + b`. Read-only, so one layer can be shared
    /// across threads; training and inference run the same arithmetic.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = x.matmul(&self.w.v);
        for r in 0..y.rows {
            let row = y.row_mut(r);
            for (v, b) in row.iter_mut().zip(&self.b.v.data) {
                *v += b;
            }
        }
        y
    }

    /// Backward pass from the gradient `dy` on the output of
    /// [`Linear::forward`] over `x`: accumulates `dW`, `db`, returns `dx`.
    pub fn backward(&mut self, x: &Tensor, dy: &Tensor) -> Tensor {
        // dW = xᵀ·dy ; db = colsum(dy) ; dx = dy·Wᵀ.
        self.w.g.add_assign(&x.t_matmul(dy));
        for r in 0..dy.rows {
            for (gb, d) in self.b.g.data.iter_mut().zip(dy.row(r)) {
                *gb += d;
            }
        }
        dy.matmul_t(&self.w.v)
    }
}

impl Visit for Linear {
    fn visit(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut l = Linear::new(3, 2, &mut rng());
        l.w.v = Tensor::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]);
        l.b.v = Tensor::from_vec(1, 2, vec![10., 20.]);
        let x = Tensor::from_vec(1, 3, vec![1., 2., 3.]);
        let y = l.forward(&x);
        assert_eq!(y.data, vec![1. + 3. + 10., 2. + 3. + 20.]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut l = Linear::new(3, 2, &mut rng());
        let x = Tensor::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7]);
        // Scalar loss = sum(y ⊙ u) for a fixed random-ish u.
        let u = Tensor::from_vec(2, 2, vec![1.0, -2.0, 0.5, 1.5]);
        let dx = l.backward(&x, &u);

        let eps = 1e-3f32;
        // Check dW.
        for i in 0..l.w.v.data.len() {
            let mut lp = l.clone();
            lp.w.v.data[i] += eps;
            let yp = lp.forward(&x);
            let mut lm = l.clone();
            lm.w.v.data[i] -= eps;
            let ym = lm.forward(&x);
            let fp: f32 = yp.data.iter().zip(&u.data).map(|(a, b)| a * b).sum();
            let fm: f32 = ym.data.iter().zip(&u.data).map(|(a, b)| a * b).sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - l.w.g.data[i]).abs() < 1e-2,
                "dW[{i}]: numeric {numeric} vs analytic {}",
                l.w.g.data[i]
            );
        }
        // Check dx.
        for i in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let yp = l.forward(&xp);
            let ym = l.forward(&xm);
            let fp: f32 = yp.data.iter().zip(&u.data).map(|(a, b)| a * b).sum();
            let fm: f32 = ym.data.iter().zip(&u.data).map(|(a, b)| a * b).sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - dx.data[i]).abs() < 1e-2,
                "dx[{i}]: numeric {numeric} vs analytic {}",
                dx.data[i]
            );
        }
        // Check db: column sums of u.
        assert!((l.b.g.data[0] - 1.5).abs() < 1e-6);
        assert!((l.b.g.data[1] - (-0.5)).abs() < 1e-6);
    }

    #[test]
    fn gradients_accumulate_across_calls() {
        let mut l = Linear::new(2, 1, &mut rng());
        let x = Tensor::from_vec(1, 2, vec![1.0, 1.0]);
        let dy = Tensor::from_vec(1, 1, vec![1.0]);
        l.backward(&x, &dy);
        let after_one = l.w.g.data.clone();
        l.backward(&x, &dy);
        for (a, b) in l.w.g.data.iter().zip(&after_one) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
    }

    #[test]
    fn visit_order() {
        let mut l = Linear::new(2, 2, &mut rng());
        let mut sizes = Vec::new();
        l.visit(&mut |p| sizes.push(p.len()));
        assert_eq!(sizes, vec![4, 2]);
        assert_eq!(l.param_count(), 6);
    }
}
