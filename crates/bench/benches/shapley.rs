//! Criterion benches for Shapley computation — the paper's core cost story:
//! exact knowledge compilation vs. sampling vs. the CNF Proxy, across lineage
//! sizes, plus compiler design-choice ablations (DESIGN.md §4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ls_bench::Scale;
use ls_circuit::{shapley_stratified, CanonicalShape};
use ls_dbshap::Split;
use ls_provenance::{compile, CompileOptions, Dnf, VarOrder};
use ls_shapley::{cnf_proxy_scores, shapley_values, shapley_values_sampled};
use std::hint::black_box;

/// Collect one test-set provenance per lineage-size bucket.
fn provenance_buckets() -> Vec<(usize, Dnf)> {
    let ds = Scale::quick().imdb_dataset();
    let mut by_bucket: Vec<(usize, Dnf)> = Vec::new();
    let mut taken = std::collections::BTreeSet::new();
    for qi in ds.split_indices(Split::Test) {
        let q = &ds.queries[qi];
        for t in &q.tuples {
            let prov = Dnf::of_tuple(&q.result.tuples[t.tuple_idx]);
            let n = prov.variables().len();
            let bucket = match n {
                0 => continue,
                1..=8 => 8,
                9..=16 => 16,
                _ => 32,
            };
            if taken.insert(bucket) {
                by_bucket.push((bucket, prov));
            }
        }
    }
    by_bucket
}

fn bench_methods(c: &mut Criterion) {
    let provs = provenance_buckets();
    let mut g = c.benchmark_group("shapley_methods");
    g.sample_size(20);
    for (bucket, prov) in &provs {
        g.bench_with_input(BenchmarkId::new("exact", bucket), prov, |b, p| {
            b.iter(|| black_box(shapley_values(p)))
        });
        g.bench_with_input(BenchmarkId::new("sampled_500", bucket), prov, |b, p| {
            b.iter(|| black_box(shapley_values_sampled(p, 500, 7)))
        });
        // The sampled tier's estimator at its one-batch floor, on a shape
        // built beforehand as the tier builds it for the store probe (three
        // strata stand in for source relations).
        let shape = CanonicalShape::of(prov);
        g.bench_with_input(BenchmarkId::new("stratified_64", bucket), &shape, |b, s| {
            b.iter(|| black_box(shapley_stratified(s, |f| u64::from(f.0 % 3), 64, 7)))
        });
        g.bench_with_input(BenchmarkId::new("cnf_proxy", bucket), prov, |b, p| {
            b.iter(|| black_box(cnf_proxy_scores(p)))
        });
    }
    g.finish();
}

fn bench_compiler(c: &mut Criterion) {
    let provs = provenance_buckets();
    let Some((_, prov)) = provs.last() else {
        return;
    };
    let mut g = c.benchmark_group("compiler_ablation");
    g.sample_size(20);
    g.bench_function("default", |b| {
        b.iter(|| black_box(compile(prov, CompileOptions::default())))
    });
    g.bench_function("lexicographic", |b| {
        b.iter(|| {
            black_box(compile(
                prov,
                CompileOptions {
                    var_order: VarOrder::Lexicographic,
                    ..Default::default()
                },
            ))
        })
    });
    g.bench_function("no_factoring", |b| {
        b.iter(|| {
            black_box(compile(
                prov,
                CompileOptions {
                    disable_factoring: true,
                    ..Default::default()
                },
            ))
        })
    });
    g.bench_function("no_or_decomposition", |b| {
        b.iter(|| {
            black_box(compile(
                prov,
                CompileOptions {
                    disable_or_decomposition: true,
                    ..Default::default()
                },
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_methods, bench_compiler);
criterion_main!(benches);
