//! Tail-latency benchmark for the durable insert path: p99 (and p50)
//! per-`INSERT` wall clock through a real `fdm-serve` [`Engine`] with a
//! data dir attached, so every measured insert carries its WAL append
//! and its share of dirty-set delta checkpoints.
//!
//! With delta capture the periodic checkpoint touches `O(changed)` state,
//! and every `full_every + 1`-th checkpoint collapses the chain inline
//! with a full snapshot. At this cadence (a checkpoint every 4 inserts,
//! `full_every=8`) 1 insert in 36 carries a full anchor, more than the 1%
//! the p99 looks at, so the `delta_chain` p99 lands on those inserts and
//! sits near `full_only`'s; the delta chain shows in the p50 and the
//! lower tail. The `full_only` variant (`full_every=0`, every checkpoint
//! a full inline snapshot) is the pre-delta behaviour. Batches are timed
//! per-insert and reduced to a percentile *inside* each sample (via
//! `Bencher::iter_custom`), so the recorded `median_ns` in
//! `BENCH_snapshot.json` is a median-of-batch-percentiles: a stable tail
//! estimate rather than a single noisy worst case.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fdm_core::point::Element;
use fdm_serve::protocol::{parse_line, Request, StreamSpec};
use fdm_serve::{Engine, ServeConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const OPEN: &str = "OPEN jobs sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=30";

/// Inserts per timed sample. Per-insert latencies inside one batch feed
/// one percentile estimate; the fast setting keeps the CI smoke run
/// under a few seconds while still crossing several checkpoint and
/// chain-collapse boundaries per batch (snapshot every 4 inserts).
fn batch_size() -> usize {
    let fast = std::env::var("FDM_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false);
    if fast {
        256
    } else {
        1024
    }
}

fn open_spec() -> StreamSpec {
    match parse_line(OPEN).unwrap().unwrap() {
        Request::Open { spec, .. } => spec,
        other => panic!("unexpected parse of OPEN: {other:?}"),
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fdm_bench_snapshot_p99_{}_{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A durable engine checkpointing aggressively (every 4 inserts) so the
/// checkpoint cost is *in* the measured distribution, not amortised away.
fn durable_engine(dir: &Path, full_every: u64) -> Engine {
    Engine::new(ServeConfig {
        data_dir: Some(dir.to_path_buf()),
        snapshot_every: Some(4),
        full_every,
        ..ServeConfig::default()
    })
    .unwrap()
}

/// One element of the same deterministic pseudo-stream the serve tests
/// use: two groups, bounded 2-d coordinates.
fn element(i: usize) -> (Element, String) {
    let x = (i as f64 * 0.7391).sin() * 9.0;
    let y = (i as f64 * 0.2113).cos() * 9.0;
    let line = format!("INSERT {i} {} {x} {y}", i % 2);
    (Element::new(i, vec![x, y], i % 2), line)
}

/// Runs one batch of inserts, returning the `q`-quantile of the
/// per-insert latencies (nearest-rank on the sorted batch).
fn insert_batch_quantile(engine: &Engine, next_id: &mut usize, q: f64) -> Duration {
    let batch = batch_size();
    let mut latencies = Vec::with_capacity(batch);
    for _ in 0..batch {
        let (el, line) = element(*next_id);
        *next_id += 1;
        let start = Instant::now();
        engine
            .insert("jobs", &el, &line)
            .expect("bench insert failed");
        latencies.push(start.elapsed());
    }
    latencies.sort_unstable();
    let rank = ((latencies.len() as f64 * q).ceil() as usize).clamp(1, latencies.len()) - 1;
    latencies[rank]
}

fn bench_insert_tail(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_p99");
    // (label, full_every): the delta chain vs. the inline-full baseline.
    for (label, full_every) in [("delta_chain", 8u64), ("full_only", 0u64)] {
        let dir = scratch(label);
        let engine = durable_engine(&dir, full_every);
        engine.open("jobs", &open_spec()).unwrap();
        let mut next_id = 0usize;
        group.bench_with_input(
            BenchmarkId::new("insert_p99", label),
            &full_every,
            |b, _| b.iter_custom(|_| insert_batch_quantile(&engine, &mut next_id, 0.99)),
        );
        group.bench_with_input(
            BenchmarkId::new("insert_p50", label),
            &full_every,
            |b, _| b.iter_custom(|_| insert_batch_quantile(&engine, &mut next_id, 0.50)),
        );
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

criterion_group!(benches, bench_insert_tail);
criterion_main!(benches);
