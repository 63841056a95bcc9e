//! GEMM kernel sweep: blocked (ls-nn `kernels::gemm`) vs. the seed's naive
//! loops, over square sizes and the encoder shapes that dominate training
//! and serving (the `[CLS]`-row products of the last block included), for
//! all three layouts (NN = A·B, TN = Aᵀ·B, NT = A·Bᵀ) — plus one attention
//! layer's head products on strided views as the encoder runs them, the two
//! element-wise kernels of the same forward pass (GELU over the LS-base
//! feed-forward activation, softmax over its four heads' attention scores),
//! each timed as the old per-element libm formula and as the `ls_nn::vmath`
//! lane kernel, and a train-epoch throughput bench across `LS_THREADS`
//! settings.
//!
//! Every benchmarked pair computes bit-identical outputs (pinned by the
//! `to_bits` differential tests in `ls-nn`; for the libm rows, on hosts
//! whose libm is glibc 2.36's, see `vmath`'s exhaustive test), so the
//! comparison is purely about time.

use criterion::{criterion_group, criterion_main, Criterion};
use ls_core::{build_pretrain_pairs, pretrain, PretrainObjectives, TrainConfig};
use ls_nn::kernels::{gemm, Op};
use ls_nn::{softmax_rows, vmath, Tensor};
use std::hint::black_box;

/// Deterministic pseudo-random tensor (hash-mixed, no RNG state).
fn pseudo(rows: usize, cols: usize, seed: u64) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| {
            let mut h = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            ((h % 2000) as f32 - 1000.0) / 500.0
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

fn bench_gemm(c: &mut Criterion) {
    // (n, k, m): out is n×m. Squares trace the scaling curve; the rest are
    // the LS-base encoder's hot shapes (seq=64, d_model=48, ff=96,
    // per-head d=12).
    let shapes: &[(usize, usize, usize)] = &[
        (64, 64, 64),
        (128, 128, 128),
        (256, 256, 256),
        (512, 512, 512),
        (64, 48, 48), // token mix: x·W
        (64, 48, 96), // FF expand
        (64, 96, 48), // FF contract
        (64, 12, 64), // attention scores q·kᵀ (per head)
        (64, 64, 12), // attention value mix a·v (per head)
        // The last block's [CLS]-row products: Q / W_O, FF expand, FF
        // contract, one head's score row, one head's value mix.
        (1, 48, 48),
        (1, 48, 96),
        (1, 96, 48),
        (1, 12, 64),
        (1, 64, 12),
    ];
    for &(n, k, m) in shapes {
        let mut g = c.benchmark_group(format!("gemm_{n}x{k}x{m}"));
        g.sample_size(if n >= 512 { 10 } else { 30 });
        let a = pseudo(n, k, 1);
        let b = pseudo(k, m, 2);
        g.bench_function("nn_blocked", |be| be.iter(|| black_box(a.matmul(&b))));
        g.bench_function("nn_naive", |be| be.iter(|| black_box(a.matmul_naive(&b))));

        let at = pseudo(k, n, 3); // TN: A stored k×n
        g.bench_function("tn_blocked", |be| be.iter(|| black_box(at.t_matmul(&b))));
        g.bench_function("tn_naive", |be| {
            be.iter(|| black_box(at.t_matmul_naive(&b)))
        });

        let bt = pseudo(m, k, 4); // NT: B stored m×k
        g.bench_function("nt_blocked", |be| be.iter(|| black_box(a.matmul_t(&bt))));
        g.bench_function("nt_naive", |be| {
            be.iter(|| black_box(a.matmul_t_naive(&bt)))
        });
        g.finish();
    }
}

/// One LS-base attention layer's head products at 64 tokens, as
/// `MultiHeadAttention` runs them: four heads of width 12 on strided views
/// (no per-head copies). Scores are the NN product of each head's columns
/// of Q with the same rows of Kᵀ (transposed once per layer); each value
/// mix is written straight into the head's columns of the concat.
fn bench_attention_heads(c: &mut Criterion) {
    let (n, d, heads) = (64usize, 48usize, 4usize);
    let dh = d / heads;
    let q = pseudo(n, d, 7);
    let kt = pseudo(d, n, 8);
    let v = pseudo(n, d, 9);
    let attn = pseudo(n, n, 10);
    let mut g = c.benchmark_group("attention_heads_4x64");
    g.sample_size(30);
    g.bench_function("scores_nn_kt_views", |be| {
        be.iter(|| {
            for h in 0..heads {
                let mut s = Tensor::zeros(n, n);
                gemm(
                    Op::NN,
                    &q.data[h * dh..],
                    d,
                    &kt.data[h * dh * n..],
                    n,
                    n,
                    dh,
                    n,
                    &mut s.data,
                    n,
                );
                black_box(s);
            }
        })
    });
    g.bench_function("mix_into_concat_views", |be| {
        be.iter(|| {
            let mut concat = Tensor::zeros(n, d);
            for h in 0..heads {
                gemm(
                    Op::NN,
                    &attn.data,
                    n,
                    &v.data[h * dh..],
                    d,
                    n,
                    n,
                    dh,
                    &mut concat.data[h * dh..],
                    d,
                );
            }
            black_box(concat)
        })
    });
    g.finish();
}

/// GELU as the encoder computed it before `vmath`: one libm `tanhf` per
/// element.
fn gelu_libm(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// GELU's derivative as the encoder computed it before `vmath`.
fn gelu_grad_libm(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let t = (C * (x + 0.044715 * x * x * x)).tanh();
    let dinner = C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

/// Row softmax as the encoder computed it before `vmath`: one libm `expf`
/// per element.
fn softmax_rows_libm(t: &mut Tensor) {
    for r in 0..t.rows {
        let row = t.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

fn bench_elementwise(c: &mut Criterion) {
    // One LS-base feed-forward activation at 64 tokens (64×96), forward and
    // backward.
    let pre = pseudo(64, 96, 5);
    let mut g = c.benchmark_group("gelu_64x96");
    g.sample_size(30);
    g.bench_function("libm", |be| {
        be.iter(|| {
            let mut a = pre.clone();
            a.data.iter_mut().for_each(|v| *v = gelu_libm(*v));
            black_box(a)
        })
    });
    g.bench_function("lanes", |be| {
        be.iter(|| {
            let mut a = pre.clone();
            vmath::gelu(&mut a.data);
            black_box(a)
        })
    });
    g.bench_function("grad_libm", |be| {
        be.iter(|| {
            let mut a = pre.clone();
            a.data.iter_mut().for_each(|v| *v = gelu_grad_libm(*v));
            black_box(a)
        })
    });
    g.bench_function("grad_lanes", |be| {
        be.iter(|| {
            let mut a = pre.clone();
            vmath::gelu_grad(&mut a.data);
            black_box(a)
        })
    });
    g.finish();

    // One LS-base attention layer at 64 tokens: 4 heads of 64×64 scores.
    let scores: Vec<Tensor> = (0..4).map(|h| pseudo(64, 64, 10 + h)).collect();
    let mut g = c.benchmark_group("softmax_4x64x64");
    g.sample_size(30);
    g.bench_function("libm", |be| {
        be.iter(|| {
            for s in &scores {
                let mut a = s.clone();
                softmax_rows_libm(&mut a);
                black_box(a);
            }
        })
    });
    g.bench_function("lanes", |be| {
        be.iter(|| {
            for s in &scores {
                let mut a = s.clone();
                softmax_rows(&mut a);
                black_box(a);
            }
        })
    });
    g.finish();
}

fn bench_train_epoch(c: &mut Criterion) {
    let scale = ls_bench::Scale::quick();
    let ds = scale.imdb_dataset();
    let ms = ls_bench::matrices(&ds);
    let (train_pairs, dev_pairs) = build_pretrain_pairs(&ds, &ms);
    let pipeline = scale.pipeline(ls_core::EncoderKind::Base);
    let all: Vec<usize> = (0..ds.queries.len()).collect();
    let tok = ls_core::build_tokenizer(&ds, &all, pipeline.max_vocab);
    let enc_cfg = pipeline.encoder.config(
        tok.vocab_size(),
        pipeline
            .pretrain_cfg
            .max_len
            .max(pipeline.finetune_cfg.max_len),
    );
    let model0 = ls_core::LearnShapleyModel::new(enc_cfg);
    let cfg = TrainConfig {
        epochs: 1,
        ..pipeline.pretrain_cfg
    };

    let mut g = c.benchmark_group("train_epoch");
    g.sample_size(10);
    for threads in [1usize, 2, 4] {
        g.bench_function(format!("pretrain_threads_{threads}"), |be| {
            be.iter(|| {
                let mut model = model0.clone();
                ls_par::with_threads(threads, || {
                    black_box(pretrain(
                        &mut model,
                        &tok,
                        &train_pairs,
                        &dev_pairs,
                        PretrainObjectives::default(),
                        &cfg,
                    ))
                })
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_attention_heads,
    bench_elementwise,
    bench_train_epoch
);
criterion_main!(benches);
