//! Criterion benchmarks of the distance kernels — the innermost operation
//! of every algorithm, at the dimensionalities of Table I (2, 6, 25, 41,
//! 50) plus the wide rows (64, 128, 256) where the AVX2 build pays off.
//!
//! The `kernel_dispatch` group pins the dispatched kernels against the
//! baseline build at d ≥ 64: `dispatch/*` rows go through
//! `fdm_core::kernel` (the AVX2 build of `metric::kernels` when the host
//! has AVX2), `scalar/*` rows call `metric::kernels` directly, compiled
//! for the baseline target. The ratio of the two is the speedup quoted in
//! docs/performance.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fdm_core::kernel;
use fdm_core::metric::{kernels, Metric};
use rand::prelude::*;
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let metrics = [
        ("euclidean", Metric::Euclidean),
        ("manhattan", Metric::Manhattan),
        ("chebyshev", Metric::Chebyshev),
        ("angular", Metric::Angular),
    ];
    for (name, metric) in metrics {
        let mut group = c.benchmark_group(name);
        for dim in [2usize, 6, 25, 41, 50, 64, 128, 256] {
            let a: Vec<f64> = (0..dim).map(|_| rng.random()).collect();
            let b_point: Vec<f64> = (0..dim).map(|_| rng.random()).collect();
            group.bench_with_input(BenchmarkId::new("dim", dim), &dim, |bench, _| {
                bench.iter(|| black_box(metric.dist(black_box(&a), black_box(&b_point))))
            });
        }
        group.finish();
    }
}

/// Dispatched vs baseline accumulation kernels at the wide dimensions,
/// where the AVX2 build has to show its win (d ≥ 64).
fn bench_dispatch_vs_scalar(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut group = c.benchmark_group("kernel_dispatch");
    for dim in [64usize, 128, 256] {
        let a: Vec<f64> = (0..dim).map(|_| rng.random()).collect();
        let b: Vec<f64> = (0..dim).map(|_| rng.random()).collect();
        type Pair = (
            &'static str,
            fn(&[f64], &[f64]) -> f64,
            fn(&[f64], &[f64]) -> f64,
        );
        let pairs: [Pair; 3] = [
            ("sum_sq_diff", kernel::sum_sq_diff, kernels::sum_sq_diff),
            ("sum_abs_diff", kernel::sum_abs_diff, kernels::sum_abs_diff),
            ("dot", kernel::dot, kernels::dot),
        ];
        for (name, dispatched, scalar) in pairs {
            group.bench_with_input(
                BenchmarkId::new(format!("dispatch/{name}"), dim),
                &dim,
                |bench, _| bench.iter(|| black_box(dispatched(black_box(&a), black_box(&b)))),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("scalar/{name}"), dim),
                &dim,
                |bench, _| bench.iter(|| black_box(scalar(black_box(&a), black_box(&b)))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_dispatch_vs_scalar);
criterion_main!(benches);
