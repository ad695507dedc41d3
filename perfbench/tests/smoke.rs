//! The harness checked against itself at tiny stream sizes: every metric
//! `BENCHMARK.json` names is emitted, with its unit, for every workload
//! in both modes, and the oracle fails a run whose reply was altered.

use perfbench::e2e::Options;
use perfbench::{run_workload, workload};

/// Arrivals per stream in the smoke runs (rounded up to one query
/// interval per workload).
const TINY: usize = 256;

fn benchmark() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::parse_value(&text).expect("BENCHMARK.json parses")
}

fn listed(bench: &serde_json::Value, key: &str, field: &str) -> Vec<String> {
    bench[key]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|entry| entry[field].as_str().expect("string field").to_string())
        .collect()
}

#[test]
fn every_workload_emits_every_named_metric() {
    let bench = benchmark();
    let names: Vec<String> = workload::all().iter().map(|w| w.name.to_string()).collect();
    assert_eq!(listed(&bench, "workloads", "name"), names);
    for w in workload::all() {
        let w = w.shrunk(TINY);
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run_workload(&w, 7, 0.0, trace, Options::default())
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name));
            let record = serde_json::to_string(&outcome.record).unwrap();
            assert!(outcome.correct, "{} trace={trace}: {record}", w.name);
            assert_eq!(outcome.failed, 0, "{record}");
            let emitted: Vec<String> = outcome.metrics.iter().map(|m| m.0.to_string()).collect();
            assert_eq!(
                emitted,
                listed(&bench, key, "name"),
                "{} trace={trace}",
                w.name
            );
            let units: Vec<String> = outcome.metrics.iter().map(|m| m.2.to_string()).collect();
            assert_eq!(
                units,
                listed(&bench, key, "unit"),
                "{} trace={trace}",
                w.name
            );
            assert!(outcome.metrics.iter().all(|m| m.1.is_finite()), "{record}");
        }
    }
}

#[test]
fn oracle_trips_on_an_altered_reply() {
    for w in workload::all() {
        let w = w.shrunk(TINY);
        let outcome = run_workload(&w, 7, 0.0, false, Options { tamper_reply: true })
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let record = serde_json::to_string(&outcome.record).unwrap();
        assert!(
            !outcome.correct,
            "{}: the altered reply passed: {record}",
            w.name
        );
        assert!(record.contains("differs from the replay"), "{record}");
    }
}
