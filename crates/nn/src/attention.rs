//! Multi-head self-attention with hand-written backward pass.

use crate::infer::{add_leading_rows, leading_rows};
use crate::kernels::{gemm, Op};
use crate::linear::Linear;
use crate::param::{Param, Visit};
use crate::tensor::{softmax_rows, softmax_rows_backward, Tensor};
use rand::rngs::StdRng;

/// Multi-head scaled dot-product self-attention (`d_model` split into
/// `heads` equal slices; projections `W_Q, W_K, W_V, W_O` are `d × d`).
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    d_model: usize,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    /// The input over all `n` rows: what `W_K` and `W_V` read, and `W_Q`
    /// its leading `rows` rows.
    x: Tensor,
    /// The leading `rows` rows of Q.
    q: Tensor,
    /// K and V over all `n` rows.
    k: Tensor,
    v: Tensor,
    /// Softmax attention rows per head (`rows × n` each).
    attn: Vec<Tensor>,
    /// The concatenated heads `W_O` read.
    concat: Tensor,
}

/// Copy columns `[h*dh, (h+1)*dh)` of `src` into a fresh `n × dh` tensor.
fn slice_head(src: &Tensor, h: usize, dh: usize) -> Tensor {
    let mut out = Tensor::zeros(src.rows, dh);
    for r in 0..src.rows {
        let s = src.row(r);
        out.row_mut(r).copy_from_slice(&s[h * dh..(h + 1) * dh]);
    }
    out
}

/// Add `part` (`n × dh`) into columns `[h*dh, (h+1)*dh)` of `dst`.
fn merge_head(dst: &mut Tensor, part: &Tensor, h: usize, dh: usize) {
    for r in 0..dst.rows {
        let d = dst.row_mut(r);
        for (c, &v) in part.row(r).iter().enumerate() {
            d[h * dh + c] += v;
        }
    }
}

/// `tᵀ` as a fresh tensor.
fn transpose(t: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(t.cols, t.rows);
    for r in 0..t.rows {
        for (c, &v) in t.row(r).iter().enumerate() {
            out.data[c * t.rows + r] = v;
        }
    }
    out
}

impl MultiHeadAttention {
    /// A fresh attention module.
    ///
    /// # Panics
    /// Panics if `d_model` is not divisible by `heads`.
    pub fn new(d_model: usize, heads: usize, rng: &mut StdRng) -> Self {
        assert_eq!(d_model % heads, 0, "d_model must be divisible by heads");
        MultiHeadAttention {
            wq: Linear::new(d_model, d_model, rng),
            wk: Linear::new(d_model, d_model, rng),
            wv: Linear::new(d_model, d_model, rng),
            wo: Linear::new(d_model, d_model, rng),
            heads,
            d_model,
            cache: None,
        }
    }

    /// The shared per-head attention body: scaled dot-product scores,
    /// softmax, value mix, head concat. Returns the concatenated heads and,
    /// when `keep_attn`, the per-head softmax matrices for backward. This
    /// is the single arithmetic path behind both
    /// [`MultiHeadAttention::forward`] and
    /// [`MultiHeadAttention::forward_infer`].
    ///
    /// Each head works on strided views of `q`, `k` and `v` rather than
    /// copies: K is transposed once, head h's scores are the NN product of
    /// Q's columns `[h·dh, (h+1)·dh)` with the same rows of Kᵀ (the pairs
    /// and order of the NT product of the slices), and its value mix is
    /// written straight into its columns of the concat, whose +0 starts
    /// each mix chain as a fresh product's did. The old merge's `+0 + v`
    /// could only turn a −0 into +0, which no GEMM chain reading the
    /// concat can tell apart (DESIGN.md §4m).
    fn attend(&self, q: &Tensor, k: &Tensor, v: &Tensor, keep_attn: bool) -> (Tensor, Vec<Tensor>) {
        let (rows, n, d) = (q.rows, k.rows, self.d_model);
        let dh = d / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let kt = transpose(k);
        let mut concat = Tensor::zeros(rows, d);
        let mut attn = Vec::with_capacity(if keep_attn { self.heads } else { 0 });
        for h in 0..self.heads {
            let c = h * dh;
            let mut scores = Tensor::zeros(rows, n);
            gemm(
                Op::NN,
                &q.data[c..],
                d,
                &kt.data[c * n..],
                n,
                rows,
                dh,
                n,
                &mut scores.data,
                n,
            );
            scores.scale(scale);
            softmax_rows(&mut scores);
            gemm(
                Op::NN,
                &scores.data,
                n,
                &v.data[c..],
                d,
                rows,
                n,
                dh,
                &mut concat.data[c..],
                d,
            );
            if keep_attn {
                attn.push(scores);
            }
        }
        (concat, attn)
    }

    /// Training forward pass over `x` (`n × d_model`) that produces the
    /// first `rows` output rows (`rows × d_model`): `rows = n` for a block
    /// whose output feeds another block, `rows = 1` for the last block,
    /// whose `[CLS]` row is all the heads read. K and V project all `n`
    /// rows, since every query attends over the whole sequence; Q, the
    /// `rows × n` scores, softmax, value mix and `W_O` run on the leading
    /// `rows` rows only, and only those are cached for backward, next to one
    /// copy of `x`. Each row is bit-identical to the same row of the
    /// `rows = n` pass.
    ///
    /// # Panics
    /// Panics unless `1 <= rows <= n`.
    pub fn forward(&mut self, x: &Tensor, rows: usize) -> Tensor {
        let q = self.wq.forward(&leading_rows(x, rows));
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let (concat, attn) = self.attend(&q, &k, &v, true);
        let y = self.wo.forward(&concat);
        self.cache = Some(AttnCache {
            x: x.clone(),
            q,
            k,
            v,
            attn,
            concat,
        });
        y
    }

    /// Inference forward pass: the arithmetic of
    /// [`MultiHeadAttention::forward`] for the same `rows`, but read-only
    /// (no q/k/v/attention cache), so the weights can be shared across
    /// threads. Bit-identical to the training forward.
    ///
    /// # Panics
    /// Panics unless `1 <= rows <= n`.
    pub fn forward_infer(&self, x: &Tensor, rows: usize) -> Tensor {
        let q = self.wq.forward(&leading_rows(x, rows));
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let (concat, _) = self.attend(&q, &k, &v, false);
        self.wo.forward(&concat)
    }

    /// Backward pass from the gradient `dy` (`rows × d_model`) on the rows
    /// the last [`MultiHeadAttention::forward`] produced; accumulates the
    /// projection gradients and returns `dx` for all `n` input rows. dQ
    /// covers the leading `rows` rows; dK and dV cover all `n`, from the
    /// kept `rows × n` attention rows. A leading row sums
    /// `(dx_Q + dx_K) + dx_V` and any other row `dx_K + dx_V`: the bits a
    /// `rows = n` pass gives each row when its gradient is zero past
    /// `rows` (DESIGN.md §4l).
    ///
    /// # Panics
    /// Panics if called before [`MultiHeadAttention::forward`].
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let dh = self.d_model / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let cache = self.cache.take().expect("forward before backward");
        let dconcat = self.wo.backward(&cache.concat, dy);
        let (rows, n) = (cache.q.rows, cache.k.rows);
        let mut dq = Tensor::zeros(rows, self.d_model);
        let mut dk = Tensor::zeros(n, self.d_model);
        let mut dv = Tensor::zeros(n, self.d_model);
        for h in 0..self.heads {
            let dch = slice_head(&dconcat, h, dh);
            let vh = slice_head(&cache.v, h, dh);
            let qh = slice_head(&cache.q, h, dh);
            let kh = slice_head(&cache.k, h, dh);
            let a = &cache.attn[h];
            // Ch = A·Vh, with A the kept `rows × n` attention rows.
            let da = dch.matmul_t(&vh);
            let dvh = a.t_matmul(&dch);
            let mut ds = softmax_rows_backward(a, &da);
            ds.scale(scale);
            let dqh = ds.matmul(&kh);
            let dkh = ds.t_matmul(&qh);
            merge_head(&mut dq, &dqh, h, dh);
            merge_head(&mut dk, &dkh, h, dh);
            merge_head(&mut dv, &dvh, h, dh);
        }
        let dx_q = self.wq.backward(&leading_rows(&cache.x, rows), &dq);
        let mut dx = self.wk.backward(&cache.x, &dk);
        add_leading_rows(&mut dx, &dx_q);
        dx.add_assign(&self.wv.backward(&cache.x, &dv));
        dx
    }
}

impl Visit for MultiHeadAttention {
    fn visit(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit(f);
        self.wk.visit(f);
        self.wv.visit(f);
        self.wo.visit(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data.iter().map(|v| v.to_bits()).collect()
    }

    /// The attention body on per-head copies: slice each head's Q, K and V
    /// columns out, NT scores, NN value mix, add the mix into a zeroed
    /// concat. The oracle the strided `attend` must match bit for bit.
    fn attend_sliced(
        attn: &MultiHeadAttention,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
    ) -> (Tensor, Vec<Tensor>) {
        let dh = attn.d_model / attn.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut concat = Tensor::zeros(q.rows, attn.d_model);
        let mut all = Vec::new();
        for h in 0..attn.heads {
            let qh = slice_head(q, h, dh);
            let kh = slice_head(k, h, dh);
            let vh = slice_head(v, h, dh);
            let mut scores = qh.matmul_t(&kh);
            scores.scale(scale);
            softmax_rows(&mut scores);
            let ch = scores.matmul(&vh);
            merge_head(&mut concat, &ch, h, dh);
            all.push(scores);
        }
        (concat, all)
    }

    /// The module's output for the leading `rows` rows of `x`, through the
    /// sliced oracle, with its per-head softmax matrices.
    fn forward_sliced(attn: &MultiHeadAttention, x: &Tensor, rows: usize) -> (Tensor, Vec<Tensor>) {
        let q = attn.wq.forward(&leading_rows(x, rows));
        let k = attn.wk.forward(x);
        let v = attn.wv.forward(x);
        let (concat, scores) = attend_sliced(attn, &q, &k, &v);
        (attn.wo.forward(&concat), scores)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Strided heads against the sliced oracle, by `to_bits`, for the
        /// `[CLS]` row alone and for every row: the training forward (its
        /// output and the softmax rows it keeps for backward) and the
        /// inference forward.
        #[test]
        fn strided_heads_match_sliced_oracle(
            heads in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
            dh in prop_oneof![Just(4usize), Just(8), Just(12)],
            n in 1usize..20,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut attn = MultiHeadAttention::new(heads * dh, heads, &mut rng);
            let x = Tensor::randn(n, heads * dh, 1.0, &mut rng);
            for rows in [1, n] {
                let (want, want_attn) = forward_sliced(&attn, &x, rows);
                let got = attn.forward(&x, rows);
                prop_assert_eq!(bits(&got), bits(&want), "training forward, {} rows", rows);
                let kept = &attn.cache.as_ref().expect("forward keeps its cache").attn;
                prop_assert_eq!(kept.len(), heads);
                for (a, b) in kept.iter().zip(&want_attn) {
                    prop_assert_eq!(bits(a), bits(b), "softmax rows");
                }
                prop_assert_eq!(bits(&attn.forward_infer(&x, rows)), bits(&want), "{} rows", rows);
            }
        }
    }

    #[test]
    fn negative_zeros_in_concat_leave_wo_output_bits() {
        // The strided path writes each head's value mix into the zeroed
        // concat where the sliced one added it (`+0 + v`, which turns a −0
        // into +0). `W_O` reads the concat through GEMM chains that start at
        // +0, so the sign of a zero there cannot reach its output — here
        // including a row of zeros alone, whose chains never leave ±0.
        let attn = MultiHeadAttention::new(8, 2, &mut rng());
        let mut concat = Tensor::randn(5, 8, 1.0, &mut rng());
        for (i, v) in concat.data.iter_mut().enumerate() {
            if i % 3 == 0 || i < 8 {
                *v = 0.0;
            }
        }
        let mut negated = concat.clone();
        for v in &mut negated.data {
            if *v == 0.0 {
                *v = -0.0;
            }
        }
        assert_eq!(
            bits(&attn.wo.forward(&concat)),
            bits(&attn.wo.forward(&negated))
        );
    }

    #[test]
    fn forward_shape() {
        let mut attn = MultiHeadAttention::new(8, 2, &mut rng());
        let x = Tensor::randn(5, 8, 1.0, &mut rng());
        let y = attn.forward(&x, 5);
        assert_eq!((y.rows, y.cols), (5, 8));
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_heads_panic() {
        MultiHeadAttention::new(7, 2, &mut rng());
    }

    #[test]
    fn attention_rows_are_distributions() {
        let mut attn = MultiHeadAttention::new(4, 2, &mut rng());
        let x = Tensor::randn(3, 4, 1.0, &mut rng());
        attn.forward(&x, 3);
        let cache = attn.cache.as_ref().unwrap();
        for a in &cache.attn {
            for r in 0..a.rows {
                let s: f32 = a.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut attn = MultiHeadAttention::new(4, 2, &mut rng());
        let x = Tensor::randn(3, 4, 0.7, &mut rng());
        let u = Tensor::randn(3, 4, 1.0, &mut rng());
        attn.forward(&x, 3);
        let dx = attn.backward(&u);
        let loss = |attn: &mut MultiHeadAttention, x: &Tensor| -> f32 {
            let y = attn.forward(x, 3);
            y.data.iter().zip(&u.data).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-2f32;
        for i in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let numeric =
                (loss(&mut attn.clone(), &xp) - loss(&mut attn.clone(), &xm)) / (2.0 * eps);
            assert!(
                (numeric - dx.data[i]).abs() < 0.05 * (1.0 + numeric.abs()),
                "dx[{i}]: numeric {numeric} vs analytic {}",
                dx.data[i]
            );
        }
    }

    #[test]
    fn weight_gradients_match_finite_differences() {
        let mut attn = MultiHeadAttention::new(4, 1, &mut rng());
        let x = Tensor::randn(2, 4, 0.7, &mut rng());
        let u = Tensor::randn(2, 4, 1.0, &mut rng());
        attn.forward(&x, 2);
        attn.backward(&u);
        let analytic_wq = attn.wq.w.g.clone();
        let loss = |attn: &mut MultiHeadAttention| -> f32 {
            let y = attn.forward(&x, 2);
            y.data.iter().zip(&u.data).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-2f32;
        for i in 0..analytic_wq.data.len() {
            let mut p = attn.clone();
            p.wq.w.v.data[i] += eps;
            let mut m = attn.clone();
            m.wq.w.v.data[i] -= eps;
            let numeric = (loss(&mut p) - loss(&mut m)) / (2.0 * eps);
            assert!(
                (numeric - analytic_wq.data[i]).abs() < 0.05 * (1.0 + numeric.abs()),
                "dWq[{i}]: numeric {numeric} vs analytic {}",
                analytic_wq.data[i]
            );
        }
    }

    #[test]
    fn head_slicing_roundtrip() {
        let t = Tensor::from_vec(2, 4, vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let h0 = slice_head(&t, 0, 2);
        let h1 = slice_head(&t, 1, 2);
        assert_eq!(h0.data, vec![1., 2., 5., 6.]);
        assert_eq!(h1.data, vec![3., 4., 7., 8.]);
        let mut back = Tensor::zeros(2, 4);
        merge_head(&mut back, &h0, 0, 2);
        merge_head(&mut back, &h1, 1, 2);
        assert_eq!(back.data, t.data);
    }

    #[test]
    fn single_token_sequence() {
        let mut attn = MultiHeadAttention::new(4, 2, &mut rng());
        let x = Tensor::randn(1, 4, 1.0, &mut rng());
        let y = attn.forward(&x, 1);
        assert_eq!((y.rows, y.cols), (1, 4));
        // Attention over one token is the identity distribution.
        let cache = attn.cache.as_ref().unwrap();
        for a in &cache.attn {
            assert!((a.get(0, 0) - 1.0).abs() < 1e-6);
        }
        let dx = attn.backward(&Tensor::randn(1, 4, 1.0, &mut rng()));
        assert_eq!((dx.rows, dx.cols), (1, 4));
    }

    #[test]
    fn param_count() {
        let mut attn = MultiHeadAttention::new(8, 2, &mut rng());
        // 4 projections × (8×8 weights + 8 bias) = 4 × 72 = 288.
        assert_eq!(attn.param_count(), 288);
    }
}
