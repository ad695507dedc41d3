//! Thread-scaling harness for sharded stream ingestion.
//!
//! Rayon's global pool reads `RAYON_NUM_THREADS` exactly once per process,
//! so a sweep cannot flip thread counts in-process: the parent re-executes
//! *itself* (`--worker N`) once per requested count with the environment
//! variable pinned, and each child ingests the same synthetic SFDM2
//! workload through a [`ShardedStream`] with `K = N` shards, printing one
//! JSON object on stdout. The parent aggregates the per-count results into
//! a `BENCH_scaling.json` array.
//!
//! Run: `cargo run --release -p fdm-bench --bin stream_scaling -- \
//!           --threads 1,2,4,8 --out BENCH_scaling.json`
//!
//! Flags:
//! - `--threads A,B,...` — comma-separated thread/shard counts (default `1,2`).
//! - `--out PATH` — output JSON path (default `BENCH_scaling.json`).
//! - `FDM_BENCH_FAST=1` shrinks the stream for CI smoke runs.
//!
//! A count of 1 (or a process pinned to one CPU) has no pool: the shards
//! then run inline and the sweep measures the sharding overhead alone.

use fdm_core::fairness::FairnessConstraint;
use fdm_core::point::Element;
use fdm_core::streaming::sfdm2::{Sfdm2, Sfdm2Config};
use fdm_core::streaming::sharded::ShardedStream;
use fdm_datasets::synthetic::{synthetic_blobs, SyntheticConfig};
use std::time::Instant;

const BATCH: usize = 512;
const DIM: usize = 64;

fn stream_len() -> usize {
    if std::env::var("FDM_BENCH_FAST").is_ok() {
        2_000
    } else {
        20_000
    }
}

/// Ingests the shared workload under the current process's rayon pool and
/// prints one JSON result object on stdout.
fn worker(threads: usize) {
    let n = stream_len();
    let data = synthetic_blobs(SyntheticConfig {
        n,
        m: 2,
        blobs: 10,
        seed: 1,
        dim: DIM,
    })
    .expect("synthetic workload generation cannot fail");
    let bounds = data
        .sampled_distance_bounds(300, 4.0)
        .expect("bounds sampling cannot fail");
    let config = Sfdm2Config {
        constraint: FairnessConstraint::equal_representation(20, 2).unwrap(),
        epsilon: 0.1,
        bounds,
        metric: data.metric(),
    };
    let elements: Vec<Element> = data.iter().collect();

    // One warm-up pass primes the rayon pool and the allocator so the
    // measured pass sees steady state.
    let mut warm: ShardedStream<Sfdm2> =
        ShardedStream::new(config.clone(), threads.max(1)).unwrap();
    for chunk in elements.chunks(BATCH).take(2) {
        warm.insert_batch(chunk);
    }

    let mut alg: ShardedStream<Sfdm2> = ShardedStream::new(config, threads.max(1)).unwrap();
    let start = Instant::now();
    for chunk in elements.chunks(BATCH) {
        alg.insert_batch(chunk);
    }
    let elapsed = start.elapsed();
    let solution = alg.finalize().expect("workload must stay feasible");

    let elapsed_ns = elapsed.as_nanos() as f64;
    let mut result = serde_json::Map::new();
    let fields: [(&str, serde_json::Value); 10] = [
        (
            "id",
            serde_json::json!(format!("stream_scaling/sfdm2_d{DIM}/threads/{threads}")),
        ),
        ("threads", serde_json::json!(threads as f64)),
        ("shards", serde_json::json!(threads.max(1) as f64)),
        ("elements", serde_json::json!(n as f64)),
        (
            "kernel",
            serde_json::json!(fdm_core::kernel::active_kernel()),
        ),
        ("elapsed_ns", serde_json::json!(elapsed_ns)),
        ("per_element_ns", serde_json::json!(elapsed_ns / n as f64)),
        (
            "throughput_elems_per_s",
            serde_json::json!(n as f64 / elapsed.as_secs_f64()),
        ),
        (
            "stored_elements",
            serde_json::json!(alg.stored_elements() as f64),
        ),
        ("diversity", serde_json::json!(solution.diversity)),
    ];
    for (key, value) in fields {
        result.insert(key.to_string(), value);
    }
    let line = serde_json::to_string(&serde_json::Value::Object(result))
        .expect("JSON serialization cannot fail");
    println!("{line}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut threads_spec = String::from("1,2");
    let mut out = String::from("BENCH_scaling.json");
    let mut worker_count: Option<usize> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                threads_spec = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--threads requires a comma-separated list");
                    std::process::exit(2);
                });
            }
            "--out" => {
                i += 1;
                out = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
            }
            "--worker" => {
                i += 1;
                worker_count = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--worker requires a thread count"),
                );
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(threads) = worker_count {
        worker(threads);
        return;
    }

    let counts: Vec<usize> = threads_spec
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            s.trim().parse().unwrap_or_else(|_| {
                eprintln!("invalid thread count {s:?}");
                std::process::exit(2);
            })
        })
        .collect();
    if counts.is_empty() {
        eprintln!("--threads produced an empty sweep");
        std::process::exit(2);
    }

    let exe = std::env::current_exe().expect("cannot locate own executable");
    let mut results = Vec::new();
    for &t in &counts {
        eprintln!("stream_scaling: running worker with {t} thread(s)...");
        let output = std::process::Command::new(&exe)
            .args(["--worker", &t.to_string()])
            .env("RAYON_NUM_THREADS", t.to_string())
            .output()
            .expect("failed to spawn worker process");
        if !output.status.success() {
            eprintln!(
                "worker for {t} thread(s) failed:\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            std::process::exit(1);
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .rev()
            .find(|l| l.trim_start().starts_with('{'))
            .expect("worker printed no JSON result");
        let value: serde_json::Value = serde_json::from_str(line).expect("worker JSON must parse");
        eprintln!(
            "stream_scaling: threads={t} per_element_ns={:.0} throughput={:.0}/s",
            value["per_element_ns"].as_f64().unwrap_or(f64::NAN),
            value["throughput_elems_per_s"].as_f64().unwrap_or(f64::NAN),
        );
        results.push(value);
    }

    let json = serde_json::to_string_pretty(&results).expect("JSON serialization cannot fail");
    std::fs::write(&out, format!("{json}\n")).expect("cannot write output file");
    eprintln!("stream_scaling: wrote {} entries to {out}", results.len());
}
