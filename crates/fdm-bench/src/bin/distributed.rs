//! Loopback distributed bench: coordinator hot path over K in-process
//! workers.
//!
//! Builds a real cluster in one process — K worker engines behind TCP
//! listeners on 127.0.0.1 and a coordinator engine fronting them — and
//! measures the three coordinator hot paths this crate ships:
//!
//! 1. **Per-element INSERT** — one framed round-trip per element, the
//!    pre-batching baseline.
//! 2. **Batched INSERTB** — the pipelined fan-out: per flush round the
//!    coordinator splits a batch into per-worker sub-sequences and lands
//!    them concurrently, one round-trip per *worker* per round.
//! 3. **MERGE fan-in** — the first QUERY pulls one union block (the
//!    worker's retained elements) per worker (transfer volume read off the
//!    coordinator's own `fdm_merge_bytes_total{kind="full"}` counter); a
//!    repeat QUERY with no intervening insert is a merged-solution cache
//!    hit.
//!
//! Run: `cargo run --release -p fdm-bench --bin distributed -- \
//!           --workers 2 --batch 256 --out BENCH_distributed.json`
//!
//! Flags:
//! - `--workers K` — cluster size (default `2`).
//! - `--batch N` — client-side INSERTB chunk size (default `256`).
//! - `--out PATH` — output JSON path (default `BENCH_distributed.json`).
//! - `FDM_BENCH_FAST=1` shrinks the stream for CI smoke runs.

use fdm_core::point::Element;
use fdm_datasets::synthetic::{synthetic_blobs, SyntheticConfig};
use fdm_serve::protocol::{parse_line, Request, StreamSpec};
use fdm_serve::{serve_tcp, Engine, NetOptions, ServeConfig};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

const DIM: usize = 16;

fn stream_len() -> usize {
    if std::env::var("FDM_BENCH_FAST").is_ok() {
        1_500
    } else {
        10_000
    }
}

/// One in-process worker engine behind a TCP listener; the accept loop
/// runs until the process exits.
fn start_worker() -> String {
    let engine = Arc::new(Engine::new(ServeConfig::default()).expect("worker engine"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker listener");
    let addr = listener.local_addr().expect("worker listener addr");
    std::thread::spawn(move || serve_tcp(engine, listener, NetOptions::default()));
    addr.to_string()
}

fn coordinator(k: usize) -> Arc<Engine> {
    Arc::new(
        Engine::new(ServeConfig {
            workers: (0..k).map(|_| start_worker()).collect(),
            ..ServeConfig::default()
        })
        .expect("coordinator engine"),
    )
}

/// The synthetic two-group workload plus the OPEN spec tail that admits
/// it.
fn workload(n: usize) -> (Vec<Element>, String) {
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
    let spec = format!(
        "sfdm2 quotas=8,8 eps=0.1 dmin={} dmax={}",
        bounds.lower, bounds.upper
    );
    (data.iter().collect(), spec)
}

fn open(engine: &Engine, name: &str, spec_tail: &str) -> StreamSpec {
    let line = format!("OPEN {name} {spec_tail}");
    let (parsed_name, spec) = match parse_line(&line).unwrap().unwrap() {
        Request::Open { name, spec } => (name, spec),
        other => panic!("{other:?}"),
    };
    assert_eq!(parsed_name, name);
    engine.open(name, &spec).expect("OPEN");
    spec
}

fn insert_one(engine: &Engine, name: &str, e: &Element) {
    let coords: Vec<String> = e.point.iter().map(f64::to_string).collect();
    let line = format!("INSERT {} {} {}", e.id, e.group, coords.join(" "));
    engine.insert(name, e, &line).expect("INSERT");
}

/// Reads one counter sample (`family{labels} value` or `family value`)
/// off a `/metrics` exposition.
fn counter(metrics: &str, sample: &str) -> f64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(sample))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or(0.0)
}

fn result_object(fields: &[(&str, serde_json::Value)]) -> serde_json::Value {
    let mut map = serde_json::Map::new();
    for (key, value) in fields {
        map.insert((*key).to_string(), value.clone());
    }
    serde_json::Value::Object(map)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut workers = 2usize;
    let mut batch = 256usize;
    let mut out = String::from("BENCH_distributed.json");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                i += 1;
                workers = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&k| k >= 1)
                    .expect("--workers requires a positive count");
            }
            "--batch" => {
                i += 1;
                batch = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--batch requires a positive size");
            }
            "--out" => {
                i += 1;
                out = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let n = stream_len();
    let (elements, spec_tail) = workload(n);
    let engine = coordinator(workers);
    let mut results = Vec::new();

    // Phase 1: per-element INSERT — one round-trip per element.
    open(&engine, "percall", &spec_tail);
    let start = Instant::now();
    for e in &elements {
        insert_one(&engine, "percall", e);
    }
    let per_element = start.elapsed();
    let per_element_ns = per_element.as_nanos() as f64 / n as f64;
    eprintln!("distributed: per-element insert {per_element_ns:.0} ns/element (K={workers})");
    results.push(result_object(&[
        (
            "id",
            serde_json::json!(format!("distributed/k{workers}/insert/per_element")),
        ),
        ("workers", serde_json::json!(workers as f64)),
        ("elements", serde_json::json!(n as f64)),
        ("per_element_ns", serde_json::json!(per_element_ns)),
        (
            "throughput_elems_per_s",
            serde_json::json!(n as f64 / per_element.as_secs_f64()),
        ),
    ]));

    // Phase 2: batched INSERTB — one round-trip per worker per flush round.
    open(&engine, "batched", &spec_tail);
    let start = Instant::now();
    for chunk in elements.chunks(batch) {
        engine.insert_batch("batched", chunk).expect("INSERTB");
    }
    let batched = start.elapsed();
    let batched_ns = batched.as_nanos() as f64 / n as f64;
    let speedup = per_element_ns / batched_ns;
    eprintln!(
        "distributed: batched insert {batched_ns:.0} ns/element \
         (batch={batch}, {speedup:.1}x vs per-element)"
    );
    results.push(result_object(&[
        (
            "id",
            serde_json::json!(format!("distributed/k{workers}/insert/batched")),
        ),
        ("workers", serde_json::json!(workers as f64)),
        ("batch", serde_json::json!(batch as f64)),
        ("elements", serde_json::json!(n as f64)),
        ("per_element_ns", serde_json::json!(batched_ns)),
        (
            "throughput_elems_per_s",
            serde_json::json!(n as f64 / batched.as_secs_f64()),
        ),
        ("speedup_vs_per_element", serde_json::json!(speedup)),
    ]));

    // Phase 3: MERGE fan-in — one union block per worker, then a pure
    // cache hit.
    let start = Instant::now();
    engine.query("batched", None).expect("cold QUERY");
    let union_query = start.elapsed();
    let metrics = engine.render_metrics();
    let union_bytes = counter(&metrics, "fdm_merge_bytes_total{kind=\"full\"}");
    results.push(result_object(&[
        (
            "id",
            serde_json::json!(format!("distributed/k{workers}/merge/union")),
        ),
        ("workers", serde_json::json!(workers as f64)),
        ("elements", serde_json::json!(n as f64)),
        ("query_ns", serde_json::json!(union_query.as_nanos() as f64)),
        ("bytes", serde_json::json!(union_bytes)),
    ]));

    let start = Instant::now();
    engine.query("batched", None).expect("cached QUERY");
    let cached_query = start.elapsed();
    let metrics = engine.render_metrics();
    results.push(result_object(&[
        (
            "id",
            serde_json::json!(format!("distributed/k{workers}/merge/cached")),
        ),
        ("workers", serde_json::json!(workers as f64)),
        (
            "query_ns",
            serde_json::json!(cached_query.as_nanos() as f64),
        ),
        (
            "cache_hits",
            serde_json::json!(counter(&metrics, "fdm_merge_cache_hits_total")),
        ),
    ]));

    let json = serde_json::to_string_pretty(&results).expect("JSON serialization cannot fail");
    std::fs::write(&out, format!("{json}\n")).expect("cannot write output file");
    eprintln!("distributed: wrote {} entries to {out}", results.len());
}
