//! Criterion benchmarks of the post-processing phase: SFDM1's swap
//! balancing vs SFDM2's clustering + matroid intersection, as `m` grows —
//! the cost the paper bounds as `O(k² log(∆)/ε)` and
//! `O(k² m log(∆)/ε · (m + log² k))` respectively (Theorems 3 and 5).
//!
//! `finalize` keeps each guess's result and reruns only guesses whose
//! candidates changed, so every iteration times the first `finalize` of a
//! clone (a clone starts with an empty memo): the full pipeline, not a
//! replay of the memo.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fdm_core::fairness::FairnessConstraint;
use fdm_core::streaming::sfdm1::{Sfdm1, Sfdm1Config};
use fdm_core::streaming::sfdm2::{Sfdm2, Sfdm2Config};
use fdm_datasets::synthetic::{synthetic_blobs, SyntheticConfig};
use std::hint::black_box;

/// Total time of `iters` cold `finalize` passes over clones of `alg`
/// (the clones themselves untimed).
fn cold_passes<A: Clone>(alg: &A, iters: u64, finalize: impl Fn(&A) -> f64) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let cold = alg.clone();
        let start = Instant::now();
        black_box(finalize(&cold));
        total += start.elapsed();
    }
    total
}

fn bench_sfdm1_post(c: &mut Criterion) {
    let data = synthetic_blobs(SyntheticConfig {
        n: 5_000,
        m: 2,
        blobs: 10,
        seed: 2,
        dim: 2,
    })
    .unwrap();
    let bounds = data.sampled_distance_bounds(300, 4.0).unwrap();
    let mut group = c.benchmark_group("sfdm1_post");
    for k in [10usize, 20, 40] {
        let constraint = FairnessConstraint::equal_representation(k, 2).unwrap();
        let mut alg = Sfdm1::new(Sfdm1Config {
            constraint,
            epsilon: 0.1,
            bounds,
            metric: data.metric(),
        })
        .unwrap();
        for e in data.iter() {
            alg.insert(&e);
        }
        group.bench_with_input(BenchmarkId::new("k", k), &alg, |b, alg| {
            b.iter_custom(|iters| cold_passes(alg, iters, |a| a.finalize().unwrap().diversity))
        });
    }
    group.finish();
}

fn bench_sfdm2_post(c: &mut Criterion) {
    let mut group = c.benchmark_group("sfdm2_post");
    for m in [2usize, 5, 10] {
        let data = synthetic_blobs(SyntheticConfig {
            n: 5_000,
            m,
            blobs: 10,
            seed: 3,
            dim: 2,
        })
        .unwrap();
        let bounds = data.sampled_distance_bounds(300, 4.0).unwrap();
        let constraint = FairnessConstraint::equal_representation(20, m).unwrap();
        let mut alg = Sfdm2::new(Sfdm2Config {
            constraint,
            epsilon: 0.1,
            bounds,
            metric: data.metric(),
        })
        .unwrap();
        for e in data.iter() {
            alg.insert(&e);
        }
        group.bench_with_input(BenchmarkId::new("m", m), &alg, |b, alg| {
            b.iter_custom(|iters| cold_passes(alg, iters, |a| a.finalize().unwrap().diversity))
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sfdm1_post, bench_sfdm2_post
);
criterion_main!(benches);
