//! Criterion micro-benchmarks of the streaming hot path: per-element insert
//! cost of Algorithm 1, SFDM1, and SFDM2 as `k`, `ε`, and `m` vary — the
//! wall-clock axis of Figs. 5 and 7 (streaming curves).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fdm_core::dataset::Dataset;
use fdm_core::fairness::FairnessConstraint;
use fdm_core::streaming::sfdm1::{Sfdm1, Sfdm1Config};
use fdm_core::streaming::sfdm2::{Sfdm2, Sfdm2Config};
use fdm_core::streaming::unconstrained::{StreamingDiversityMaximization, StreamingDmConfig};
use fdm_datasets::synthetic::{synthetic_blobs, SyntheticConfig};
use std::hint::black_box;

const STREAM: usize = 5_000;

fn dataset(m: usize) -> Dataset {
    synthetic_blobs(SyntheticConfig {
        n: STREAM,
        m,
        blobs: 10,
        seed: 1,
        dim: 2,
    })
    .unwrap()
}

fn dataset_dim(m: usize, dim: usize) -> Dataset {
    synthetic_blobs(SyntheticConfig {
        n: STREAM,
        m,
        blobs: 10,
        seed: 1,
        dim,
    })
    .unwrap()
}

fn bench_algorithm1_insert(c: &mut Criterion) {
    let data = dataset(2);
    let bounds = data.sampled_distance_bounds(300, 4.0).unwrap();
    let mut group = c.benchmark_group("alg1_insert");
    group.throughput(Throughput::Elements(STREAM as u64));
    for k in [10usize, 20, 40] {
        group.bench_with_input(BenchmarkId::new("k", k), &k, |b, &k| {
            b.iter(|| {
                let mut alg = StreamingDiversityMaximization::new(StreamingDmConfig {
                    k,
                    epsilon: 0.1,
                    bounds,
                    metric: data.metric(),
                })
                .unwrap();
                for e in data.iter() {
                    alg.insert(black_box(&e));
                }
                black_box(alg.stored_elements())
            })
        });
    }
    group.finish();
}

fn bench_sfdm1_insert_epsilon(c: &mut Criterion) {
    let data = dataset(2);
    let bounds = data.sampled_distance_bounds(300, 4.0).unwrap();
    let constraint = FairnessConstraint::equal_representation(20, 2).unwrap();
    let mut group = c.benchmark_group("sfdm1_insert");
    group.throughput(Throughput::Elements(STREAM as u64));
    for eps in [0.05f64, 0.1, 0.25] {
        group.bench_with_input(
            BenchmarkId::new("epsilon", format!("{eps}")),
            &eps,
            |b, &eps| {
                b.iter(|| {
                    let mut alg = Sfdm1::new(Sfdm1Config {
                        constraint: constraint.clone(),
                        epsilon: eps,
                        bounds,
                        metric: data.metric(),
                    })
                    .unwrap();
                    for e in data.iter() {
                        alg.insert(black_box(&e));
                    }
                    black_box(alg.stored_elements())
                })
            },
        );
    }
    group.finish();
}

fn bench_sfdm2_insert_m(c: &mut Criterion) {
    let mut group = c.benchmark_group("sfdm2_insert");
    group.throughput(Throughput::Elements(STREAM as u64));
    for m in [2usize, 5, 10] {
        let data = dataset(m);
        let bounds = data.sampled_distance_bounds(300, 4.0).unwrap();
        let constraint = FairnessConstraint::equal_representation(20, m).unwrap();
        group.bench_with_input(BenchmarkId::new("m", m), &m, |b, _| {
            b.iter(|| {
                let mut alg = Sfdm2::new(Sfdm2Config {
                    constraint: constraint.clone(),
                    epsilon: 0.1,
                    bounds,
                    metric: data.metric(),
                })
                .unwrap();
                for e in data.iter() {
                    alg.insert(black_box(&e));
                }
                black_box(alg.stored_elements())
            })
        });
    }
    group.finish();
}

/// The headline perf case of docs/performance.md: per-element insert cost
/// at `d = 128`, where the distance kernels dominate completely.
fn bench_insert_high_dim(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_insert_d");
    group.throughput(Throughput::Elements(STREAM as u64));
    for dim in [32usize, 128] {
        let data = dataset_dim(2, dim);
        let bounds = data.sampled_distance_bounds(300, 4.0).unwrap();
        let constraint = FairnessConstraint::equal_representation(20, 2).unwrap();
        group.bench_with_input(BenchmarkId::new("sfdm2", dim), &dim, |b, _| {
            b.iter(|| {
                let mut alg = Sfdm2::new(Sfdm2Config {
                    constraint: constraint.clone(),
                    epsilon: 0.1,
                    bounds,
                    metric: data.metric(),
                })
                .unwrap();
                for e in data.iter() {
                    alg.insert(black_box(&e));
                }
                black_box(alg.stored_elements())
            })
        });
        // Same stream through the batch API: pre-materialized elements fed
        // through the in-order element loop.
        let elements: Vec<_> = data.iter().collect();
        group.bench_with_input(BenchmarkId::new("sfdm2_batch", dim), &dim, |b, _| {
            b.iter(|| {
                let mut alg = Sfdm2::new(Sfdm2Config {
                    constraint: constraint.clone(),
                    epsilon: 0.1,
                    bounds,
                    metric: data.metric(),
                })
                .unwrap();
                for chunk in elements.chunks(512) {
                    alg.insert_batch(black_box(chunk));
                }
                black_box(alg.stored_elements())
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_algorithm1_insert, bench_sfdm1_insert_epsilon, bench_sfdm2_insert_m,
        bench_insert_high_dim
);
criterion_main!(benches);
