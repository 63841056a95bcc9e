//! Dense row-major `f32` matrices — the only tensor shape the encoder needs.
//!
//! The network processes one token sequence at a time, so every activation is
//! a 2-D matrix (`seq_len × d_model`, `seq_len × seq_len`, …). Keeping the
//! representation this small makes the hand-written backward passes easy to
//! audit and property-test.

use rand::rngs::StdRng;
use rand::Rng;

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major data, `rows * cols` entries.
    pub data: Vec<f32>,
}

impl Tensor {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from explicit data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// Gaussian init with the given standard deviation (Box-Muller from the
    /// seeded RNG, keeping the whole substrate reproducible).
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut StdRng) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        while data.len() < rows * cols {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < rows * cols {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { rows, cols, data }
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrow row `r` mutably.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · other` (`(n×k) · (k×m) → n×m`), via the blocked kernel in
    /// [`crate::kernels`] — bit-identical to [`Tensor::matmul_naive`].
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(n, m);
        crate::kernels::gemm(
            crate::kernels::Op::NN,
            &self.data,
            k,
            &other.data,
            m,
            n,
            k,
            m,
            &mut out.data,
            m,
        );
        out
    }

    /// `selfᵀ · other` (`(k×n)ᵀ · (k×m) → n×m`) without materializing the
    /// transpose — the shape used by weight-gradient accumulation. Blocked;
    /// bit-identical to [`Tensor::t_matmul_naive`].
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let (k, n, m) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(n, m);
        crate::kernels::gemm(
            crate::kernels::Op::TN,
            &self.data,
            n,
            &other.data,
            m,
            n,
            k,
            m,
            &mut out.data,
            m,
        );
        out
    }

    /// `self · otherᵀ` (`(n×k) · (m×k)ᵀ → n×m`) — the shape used by input
    /// gradients. Blocked (the transpose happens once per panel, during
    /// packing); bit-identical to [`Tensor::matmul_t_naive`].
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let (n, k, m) = (self.rows, self.cols, other.rows);
        let mut out = Tensor::zeros(n, m);
        crate::kernels::gemm(
            crate::kernels::Op::NT,
            &self.data,
            k,
            &other.data,
            k,
            n,
            k,
            m,
            &mut out.data,
            m,
        );
        out
    }

    /// The seed triple-loop `self · other`, kept as the differential-test
    /// oracle and benchmark baseline for [`Tensor::matmul`].
    pub fn matmul_naive(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(n, m);
        for i in 0..n {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * m..(i + 1) * m];
            for (p, &a) in a_row.iter().enumerate().take(k) {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[p * m..(p + 1) * m];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// The seed `selfᵀ · other`, kept as the oracle/baseline for
    /// [`Tensor::t_matmul`].
    pub fn t_matmul_naive(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let (k, n, m) = (self.rows, self.cols, other.cols);
        let mut out = Tensor::zeros(n, m);
        for p in 0..k {
            let a_row = self.row(p);
            let b_row = other.row(p);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * m..(i + 1) * m];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// The seed `self · otherᵀ` with its per-dot column stride, kept as the
    /// oracle/baseline for [`Tensor::matmul_t`].
    pub fn matmul_t_naive(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let (n, k, m) = (self.rows, self.cols, other.rows);
        let mut out = Tensor::zeros(n, m);
        for i in 0..n {
            let a_row = self.row(i);
            for j in 0..m {
                let b_row = other.row(j);
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a_row[p] * b_row[p];
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Element-wise in-place addition.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scalar multiplication.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Zero all entries (gradient reset).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|a| *a = 0.0);
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }
}

/// Row-wise softmax (in place), numerically stabilized. The exponentials
/// come from the lane-wise `vmath::exp` kernel; the row sum is one
/// sequential chain in index order.
pub fn softmax_rows(t: &mut Tensor) {
    for r in 0..t.rows {
        let row = t.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for v in row.iter_mut() {
            *v -= max;
        }
        crate::vmath::exp(row);
        let mut sum = 0.0f32;
        for &v in row.iter() {
            sum += v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Backward of row-wise softmax: given the softmax output `a` and upstream
/// gradient `da`, returns the gradient w.r.t. the pre-softmax scores:
/// `ds = a ⊙ (da − rowsum(da ⊙ a))`.
pub fn softmax_rows_backward(a: &Tensor, da: &Tensor) -> Tensor {
    assert_eq!((a.rows, a.cols), (da.rows, da.cols));
    let mut out = Tensor::zeros(a.rows, a.cols);
    for r in 0..a.rows {
        let arow = a.row(r);
        let darow = da.row(r);
        let dot: f32 = arow.iter().zip(darow).map(|(x, y)| x * y).sum();
        let orow = out.row_mut(r);
        for c in 0..a.cols {
            orow[c] = arow[c] * (darow[c] - dot);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]);
        // aᵀ is 2×3; aᵀ·b is 2×2.
        let c = a.t_matmul(&b);
        assert_eq!(c.rows, 2);
        assert_eq!(c.cols, 2);
        // aᵀ = [[1,3,5],[2,4,6]]; aᵀ·b = [[1+5, 3+5],[2+6, 4+6]]
        assert_eq!(c.data, vec![6., 8., 8., 10.]);
    }

    #[test]
    fn matmul_t_matches() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(2, 3, vec![1., 1., 1., 2., 0., 1.]);
        // a·bᵀ: [[6, 5],[15, 14]]
        let c = a.matmul_t(&b);
        assert_eq!(c.data, vec![6., 5., 15., 14.]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn softmax_rows_normalizes() {
        let mut t = Tensor::from_vec(2, 3, vec![1., 2., 3., 0., 0., 0.]);
        softmax_rows(&mut t);
        for r in 0..2 {
            let s: f32 = t.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Uniform row stays uniform.
        assert!((t.get(1, 0) - 1.0 / 3.0).abs() < 1e-6);
        // Larger logits get larger mass.
        assert!(t.get(0, 2) > t.get(0, 1));
    }

    #[test]
    fn softmax_backward_finite_difference() {
        let logits = Tensor::from_vec(1, 4, vec![0.3, -0.2, 0.8, 0.1]);
        let upstream = Tensor::from_vec(1, 4, vec![0.5, -1.0, 0.25, 2.0]);
        let mut a = logits.clone();
        softmax_rows(&mut a);
        let analytic = softmax_rows_backward(&a, &upstream);
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut plus = logits.clone();
            plus.data[i] += eps;
            softmax_rows(&mut plus);
            let mut minus = logits.clone();
            minus.data[i] -= eps;
            softmax_rows(&mut minus);
            let f_plus: f32 = plus
                .data
                .iter()
                .zip(&upstream.data)
                .map(|(a, b)| a * b)
                .sum();
            let f_minus: f32 = minus
                .data
                .iter()
                .zip(&upstream.data)
                .map(|(a, b)| a * b)
                .sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (numeric - analytic.data[i]).abs() < 1e-3,
                "dim {i}: numeric {numeric} vs analytic {}",
                analytic.data[i]
            );
        }
    }

    #[test]
    fn randn_is_seeded_and_spread() {
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(7);
        let a = Tensor::randn(8, 8, 1.0, &mut rng1);
        let b = Tensor::randn(8, 8, 1.0, &mut rng2);
        assert_eq!(a, b);
        let mean: f32 = a.data.iter().sum::<f32>() / 64.0;
        assert!(mean.abs() < 0.5);
        assert!(a.norm() > 1.0);
    }

    #[test]
    fn add_scale_zero() {
        let mut a = Tensor::from_vec(1, 3, vec![1., 2., 3.]);
        let b = Tensor::from_vec(1, 3, vec![0.5, 0.5, 0.5]);
        a.add_assign(&b);
        assert_eq!(a.data, vec![1.5, 2.5, 3.5]);
        a.scale(2.0);
        assert_eq!(a.data, vec![3., 5., 7.]);
        a.fill_zero();
        assert_eq!(a.data, vec![0., 0., 0.]);
    }

    /// Deterministic test matrices with mixed signs, magnitudes, and (when
    /// `sparse`) exact ±0.0 entries to exercise the naive kernels' zero-skip.
    fn pseudo(rows: usize, cols: usize, seed: u32, sparse: bool) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                if sparse && h.is_multiple_of(4) {
                    if h.is_multiple_of(8) {
                        -0.0
                    } else {
                        0.0
                    }
                } else {
                    ((h >> 8) as f32 / (1 << 24) as f32 - 0.5) * 3.0
                }
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols), "{what}: shape");
        for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: elem {i}: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_kernels_bit_identical_to_naive() {
        // Shapes covering micro-kernel edges (n below, at, one past and at
        // twice MR = 8; m below, at, one past and at twice NR = 16) plus
        // the actual encoder shapes (seq×48·48, seq×48·96, …).
        for &(n, k, m) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 8),
            (8, 48, 16),
            (9, 12, 17),
            (16, 96, 32),
            (6, 48, 96),
            (17, 48, 48),
            (31, 96, 48),
            (40, 64, 128),
        ] {
            for sparse in [false, true] {
                let a = pseudo(n, k, 11, sparse);
                let b = pseudo(k, m, 23, sparse);
                assert_bits_eq(
                    &a.matmul(&b),
                    &a.matmul_naive(&b),
                    &format!("matmul {n}x{k}x{m} sparse={sparse}"),
                );
                let at = pseudo(k, n, 31, sparse);
                assert_bits_eq(
                    &at.t_matmul(&b),
                    &at.t_matmul_naive(&b),
                    &format!("t_matmul {n}x{k}x{m} sparse={sparse}"),
                );
                let bt = pseudo(m, k, 41, sparse);
                assert_bits_eq(
                    &a.matmul_t(&bt),
                    &a.matmul_t_naive(&bt),
                    &format!("matmul_t {n}x{k}x{m} sparse={sparse}"),
                );
            }
        }
    }

    #[test]
    fn blocked_kernels_bit_identical_across_thread_counts() {
        // Above the kernel's parallel threshold: the row-split path must
        // reproduce the serial bits exactly.
        let a = pseudo(256, 128, 5, false);
        let b = pseudo(128, 256, 6, false);
        let serial = ls_par::with_threads(1, || a.matmul(&b));
        for t in [2, 4] {
            let par = ls_par::with_threads(t, || a.matmul(&b));
            assert_bits_eq(&par, &serial, &format!("threads={t}"));
        }
        assert_bits_eq(&serial, &a.matmul_naive(&b), "serial vs naive");
    }

    #[test]
    fn rows_accessors() {
        let mut a = Tensor::zeros(2, 2);
        a.set(1, 0, 5.0);
        assert_eq!(a.get(1, 0), 5.0);
        assert_eq!(a.row(1), &[5.0, 0.0]);
        a.row_mut(0)[1] = 3.0;
        assert_eq!(a.get(0, 1), 3.0);
    }
}
