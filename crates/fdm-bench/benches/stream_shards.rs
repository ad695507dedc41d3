//! Criterion micro-benchmarks of sharded stream ingestion: the same
//! 5 000-element SFDM2 workload as `stream_insert`'s headline case, routed
//! through [`ShardedStream`] at K ∈ {1, 2, 4} shards plus the unsharded
//! reference — the wall-clock axis of the scale-out story.
//!
//! `K = 1` measures the wrapper overhead over the plain algorithm (it must
//! be negligible: same candidates, same arena, one extra indirection).
//! `K > 1` shows the fan-out: on a single core it costs the merge pass; on
//! a multi-core box the sub-batches run concurrently on the persistent
//! pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fdm_core::dataset::Dataset;
use fdm_core::fairness::FairnessConstraint;
use fdm_core::point::Element;
use fdm_core::streaming::sfdm2::{Sfdm2, Sfdm2Config};
use fdm_core::streaming::sharded::ShardedStream;
use fdm_datasets::synthetic::{synthetic_blobs, SyntheticConfig};
use std::hint::black_box;

const STREAM: usize = 5_000;
const BATCH: usize = 512;

fn workload(dim: usize) -> (Dataset, Sfdm2Config) {
    let data = synthetic_blobs(SyntheticConfig {
        n: STREAM,
        m: 2,
        blobs: 10,
        seed: 1,
        dim,
    })
    .unwrap();
    let bounds = data.sampled_distance_bounds(300, 4.0).unwrap();
    let config = Sfdm2Config {
        constraint: FairnessConstraint::equal_representation(20, 2).unwrap(),
        epsilon: 0.1,
        bounds,
        metric: data.metric(),
    };
    (data, config)
}

/// Full pipeline cost (ingestion + merge + post-processing) per shard
/// count, at the headline d = 128.
fn bench_sharded_pipeline(c: &mut Criterion) {
    let (data, config) = workload(128);
    let elements: Vec<Element> = data.iter().collect();
    let mut group = c.benchmark_group("stream_shards");
    group.throughput(Throughput::Elements(STREAM as u64));
    for shards in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("sfdm2_k", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut alg: ShardedStream<Sfdm2> =
                        ShardedStream::new(config.clone(), shards).unwrap();
                    for chunk in elements.chunks(BATCH) {
                        alg.insert_batch(black_box(chunk));
                    }
                    black_box(alg.finalize().ok().map(|s| s.diversity))
                })
            },
        );
    }
    // Unsharded reference on the same stream (element-by-element insert +
    // finalize), so the K = 1 overhead is directly readable.
    group.bench_function("sfdm2_unsharded", |b| {
        b.iter(|| {
            let mut alg = Sfdm2::new(config.clone()).unwrap();
            for e in &elements {
                alg.insert(black_box(e));
            }
            black_box(alg.finalize().ok().map(|s| s.diversity))
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sharded_pipeline
);
criterion_main!(benches);
