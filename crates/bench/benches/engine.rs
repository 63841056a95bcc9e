//! Criterion benches for the relational substrate: SQL parsing,
//! provenance-tracking evaluation across join widths, and neural forward /
//! backward passes (training and serving) — the fixed costs every
//! experiment pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ls_dbshap::{generate_imdb, ImdbConfig};
use ls_nn::{EncoderConfig, InferScratch, Tensor, TransformerEncoder};
use ls_relational::{evaluate, parse_query};
use std::hint::black_box;

const QUERIES: &[(&str, &str)] = &[
    (
        "width1",
        "SELECT movies.title FROM movies WHERE movies.year >= 2007",
    ),
    (
        "width2",
        "SELECT movies.title FROM movies, companies \
         WHERE movies.company = companies.name AND companies.country = 'USA'",
    ),
    (
        "width4",
        "SELECT DISTINCT actors.name FROM movies, actors, companies, roles \
         WHERE movies.title = roles.movie AND actors.name = roles.actor AND \
         movies.company = companies.name AND companies.country = 'USA'",
    ),
];

fn bench_engine(c: &mut Criterion) {
    let db = generate_imdb(&ImdbConfig::default());
    let mut g = c.benchmark_group("relational_engine");
    g.sample_size(30);
    for (name, sql) in QUERIES {
        g.bench_with_input(BenchmarkId::new("parse", name), sql, |b, sql| {
            b.iter(|| black_box(parse_query(sql).unwrap()))
        });
        let q = parse_query(sql).unwrap();
        g.bench_with_input(BenchmarkId::new("evaluate", name), &q, |b, q| {
            b.iter(|| black_box(evaluate(&db, q).unwrap()))
        });
    }
    g.finish();
}

fn bench_encoder(c: &mut Criterion) {
    let mut g = c.benchmark_group("transformer_encoder");
    g.sample_size(30);
    for (label, cfg) in [
        ("base", EncoderConfig::base(2000, 64)),
        ("large", EncoderConfig::large(2000, 64)),
    ] {
        let mut enc = TransformerEncoder::new(cfg);
        let tokens: Vec<u32> = (0..48).map(|i| (i * 37) % 2000).collect();
        let segs: Vec<u8> = (0..48).map(|i| u8::from(i >= 24)).collect();
        // The full-sequence pass (every row through every block), the
        // reference the pruned passes below are tested against.
        g.bench_function(BenchmarkId::new("forward", label), |b| {
            b.iter(|| black_box(enc.forward(&tokens, &segs, tokens.len())))
        });
        // The serving pass: read-only, [CLS] row only through the last block.
        let mut scratch = InferScratch::new();
        g.bench_function(BenchmarkId::new("forward_infer", label), |b| {
            b.iter(|| black_box(enc.forward_infer(&tokens, &segs, &mut scratch)))
        });
        // The same pass at 64 tokens, the sequence length the benchmark's
        // `serve-learned` workload scores.
        let tokens64: Vec<u32> = (0..64).map(|i| (i * 37) % 2000).collect();
        let segs64: Vec<u8> = (0..64).map(|i| u8::from(i >= 32)).collect();
        g.bench_function(BenchmarkId::new("forward_infer_64", label), |b| {
            b.iter(|| black_box(enc.forward_infer(&tokens64, &segs64, &mut scratch)))
        });
        // The training step the heads take: forward and backward through
        // the [CLS] row alone in the last block, at 48 and 64 tokens.
        for (name, tokens, segs) in [
            ("forward_backward", &tokens, &segs),
            ("forward_backward_64", &tokens64, &segs64),
        ] {
            g.bench_function(BenchmarkId::new(name, label), |b| {
                b.iter(|| {
                    let cls = enc.forward(tokens, segs, 1);
                    let mut d = Tensor::zeros(cls.rows, cls.cols);
                    d.set(0, 0, 1.0);
                    enc.backward(&d);
                    black_box(());
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_engine, bench_encoder);
criterion_main!(benches);
