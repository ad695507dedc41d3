//! Criterion micro-benchmarks of snapshot/restore persistence: capture
//! and restore in the v2 binary codec, the full round trip, and
//! incremental (delta) capture, on an SFDM2 summary fed the same
//! 5 000-element workload as `stream_insert`'s headline case.
//!
//! The paper's space bound is what makes this cheap: the summary holds
//! `O(m·k·log ∆/ε)` elements regardless of how long the stream ran, so
//! checkpoint cost is flat in stream length — worth pinning with a bench
//! so a persistence regression (e.g. accidentally serializing per-arrival
//! scratch state) shows up as a step change. These are the headline
//! numbers behind `docs/performance.md`'s snapshot section; the process
//! also prints the encoded sizes (continuous *and* categorical
//! coordinates) so they land in the bench log.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fdm_core::fairness::FairnessConstraint;
use fdm_core::persist::{Snapshot, SnapshotDelta, SnapshotFormat, Snapshottable};
use fdm_core::point::Element;
use fdm_core::streaming::sfdm2::{Sfdm2, Sfdm2Config};
use fdm_core::streaming::sharded::ShardedStream;
use fdm_datasets::synthetic::{synthetic_blobs, SyntheticConfig};
use std::hint::black_box;

const STREAM: usize = 5_000;

fn loaded_sfdm2(dim: usize) -> Sfdm2 {
    let data = synthetic_blobs(SyntheticConfig {
        n: STREAM,
        m: 2,
        blobs: 10,
        seed: 1,
        dim,
    })
    .unwrap();
    let mut alg = Sfdm2::new(Sfdm2Config {
        constraint: FairnessConstraint::equal_representation(20, 2).unwrap(),
        epsilon: 0.1,
        bounds: data.sampled_distance_bounds(300, 4.0).unwrap(),
        metric: data.metric(),
    })
    .unwrap();
    for e in data.iter() {
        alg.insert(&e);
    }
    alg
}

/// A categorical workload: 40 binary attributes per element (the
/// CelebA-style shape where the v2 bit-packing shines).
fn loaded_categorical() -> Sfdm2 {
    let mut alg = Sfdm2::new(Sfdm2Config {
        constraint: FairnessConstraint::new(vec![10, 10]).unwrap(),
        epsilon: 0.1,
        bounds: fdm_core::dataset::DistanceBounds::new(0.5, 7.0).unwrap(),
        metric: fdm_core::metric::Metric::Euclidean,
    })
    .unwrap();
    for i in 0..STREAM {
        let point: Vec<f64> = (0..40)
            .map(|d| f64::from(((i * 2_654_435_761) >> d) as u32 & 1))
            .collect();
        alg.insert(&Element::new(i, point, i % 2));
    }
    alg
}

fn report_size(label: &str, snap: &Snapshot) {
    let bin = snap.to_bytes(SnapshotFormat::Binary).len();
    eprintln!("snapshot-size {label}: bin={bin}B");
}

fn bench_snapshot_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot");
    for dim in [16usize, 128] {
        let alg = loaded_sfdm2(dim);
        let snap = alg.snapshot();
        report_size(&format!("sfdm2_d{dim}"), &snap);
        let bin = snap.to_bytes(SnapshotFormat::Binary);
        group.bench_with_input(BenchmarkId::new("capture_bin_d", dim), &dim, |b, _| {
            b.iter(|| {
                black_box(&alg)
                    .snapshot()
                    .to_bytes(SnapshotFormat::Binary)
                    .len()
            })
        });
        group.bench_with_input(BenchmarkId::new("restore_bin_d", dim), &dim, |b, _| {
            b.iter(|| {
                let snap = Snapshot::from_bytes(black_box(&bin)).unwrap();
                Sfdm2::restore(&snap).unwrap().stored_elements()
            })
        });
        group.bench_with_input(BenchmarkId::new("roundtrip_bin_d", dim), &dim, |b, _| {
            b.iter(|| {
                let bytes = black_box(&alg).snapshot().to_bytes(SnapshotFormat::Binary);
                let snap = Snapshot::from_bytes(&bytes).unwrap();
                Sfdm2::restore(&snap).unwrap().stored_elements()
            })
        });
    }

    // Categorical coordinates: the bit-packed fast path.
    {
        let alg = loaded_categorical();
        report_size("sfdm2_categorical_d40", &alg.snapshot());
        group.bench_function("capture_bin_categorical", |b| {
            b.iter(|| {
                black_box(&alg)
                    .snapshot()
                    .to_bytes(SnapshotFormat::Binary)
                    .len()
            })
        });
    }

    // Incremental capture: delta against the previous checkpoint instead
    // of a full rewrite.
    {
        let data = synthetic_blobs(SyntheticConfig {
            n: STREAM,
            m: 2,
            blobs: 10,
            seed: 1,
            dim: 16,
        })
        .unwrap();
        let mut alg = Sfdm2::new(Sfdm2Config {
            constraint: FairnessConstraint::equal_representation(20, 2).unwrap(),
            epsilon: 0.1,
            bounds: data.sampled_distance_bounds(300, 4.0).unwrap(),
            metric: data.metric(),
        })
        .unwrap();
        let elements: Vec<Element> = data.iter().collect();
        for e in &elements[..4_500] {
            alg.insert(e);
        }
        let base = alg.snapshot();
        for e in &elements[4_500..] {
            alg.insert(e);
        }
        let full = alg.snapshot();
        let delta = SnapshotDelta::between(&base, &full).unwrap();
        eprintln!(
            "snapshot-size sfdm2_d16 delta(last 10% of stream): full_bin={}B delta={}B",
            full.to_bytes(SnapshotFormat::Binary).len(),
            delta.encoded_len()
        );
        group.bench_function("capture_delta_d16", |b| {
            b.iter(|| {
                SnapshotDelta::between(black_box(&base), &black_box(&alg).snapshot())
                    .unwrap()
                    .encoded_len()
            })
        });
        group.bench_function("apply_delta_d16", |b| {
            b.iter(|| delta.apply_to(black_box(&base)).unwrap().state.is_null())
        });
    }

    // Sharded wrapper: K shard states in one envelope.
    let data = synthetic_blobs(SyntheticConfig {
        n: STREAM,
        m: 2,
        blobs: 10,
        seed: 1,
        dim: 16,
    })
    .unwrap();
    let config = Sfdm2Config {
        constraint: FairnessConstraint::equal_representation(20, 2).unwrap(),
        epsilon: 0.1,
        bounds: data.sampled_distance_bounds(300, 4.0).unwrap(),
        metric: data.metric(),
    };
    let mut sharded: ShardedStream<Sfdm2> = ShardedStream::new(config, 4).unwrap();
    for e in data.iter() {
        sharded.insert(&e);
    }
    group.bench_function("roundtrip_sharded_k4_d16", |b| {
        b.iter(|| {
            let bytes = black_box(&sharded)
                .snapshot()
                .to_bytes(SnapshotFormat::Binary);
            let snap = Snapshot::from_bytes(&bytes).unwrap();
            ShardedStream::<Sfdm2>::restore(&snap)
                .unwrap()
                .stored_elements()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_snapshot_roundtrip);
criterion_main!(benches);
