//! `compare`: two result sets side by side, one row per workload, every
//! metric beyond its bound flagged.
//!
//! A result set is any text file holding record lines — the JSON objects
//! with a `workload` key the harness prints before its final line (and
//! appends to `.bench_run/results.jsonl`). Bounds and better directions
//! come from `BENCHMARK.json`; per-layer metrics have no bound and are
//! shown without a flag.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::quartiles;

/// `metric → (bound, lower_is_better)` for the end-to-end metrics of a
/// `BENCHMARK.json`.
pub fn bounds(benchmark: &serde_json::Value) -> BTreeMap<String, (f64, bool)> {
    let mut out = BTreeMap::new();
    if let Some(list) = benchmark.get("end_to_end").and_then(|v| v.as_array()) {
        for metric in list {
            let name = metric.get("name").and_then(|v| v.as_str());
            let bound = metric.get("bound").and_then(|v| v.as_f64());
            let lower = metric.get("better").and_then(|v| v.as_str()) == Some("lower");
            if let (Some(name), Some(bound)) = (name, bound) {
                out.insert(name.to_string(), (bound, lower));
            }
        }
    }
    out
}

/// `workload → metric → values`, in order of first appearance.
type Set = Vec<(String, BTreeMap<String, Vec<f64>>)>;

/// Collects the record lines of a result file.
pub fn load(text: &str) -> Set {
    let mut set: Set = Vec::new();
    for line in text.lines() {
        let Ok(record) = serde_json::parse_value(line.trim()) else {
            continue;
        };
        let (Some(workload), Some(metrics)) = (
            record.get("workload").and_then(|v| v.as_str()),
            record.get("metrics").and_then(|v| v.as_object()),
        ) else {
            continue;
        };
        let index = match set.iter().position(|(w, _)| w == workload) {
            Some(i) => i,
            None => {
                set.push((workload.to_string(), BTreeMap::new()));
                set.len() - 1
            }
        };
        for (name, value) in metrics.iter() {
            if let Some(v) = value.as_f64() {
                set[index].1.entry(name.clone()).or_default().push(v);
            }
        }
    }
    set
}

/// Renders the comparison and counts the metrics that got worse beyond
/// their bound.
pub fn render(a: &Set, b: &Set, bounds: &BTreeMap<String, (f64, bool)>) -> (String, usize) {
    let mut out = String::new();
    let mut regressions = 0;
    for (workload, a_metrics) in a {
        let Some((_, b_metrics)) = b.iter().find(|(w, _)| w == workload) else {
            let _ = writeln!(out, "{workload}: only in the first set");
            continue;
        };
        let mut cells = Vec::new();
        for (name, a_values) in a_metrics {
            let Some(b_values) = b_metrics.get(name) else {
                continue;
            };
            let (a1, a2, a3) = quartiles(a_values);
            let (b1, b2, b3) = quartiles(b_values);
            let change = (b2 - a2) / a2.abs();
            let flag = match bounds.get(name) {
                Some(&(bound, lower_better)) => {
                    let worse = if lower_better { change } else { -change };
                    if worse > bound {
                        regressions += 1;
                        " WORSE"
                    } else if -worse > bound {
                        " better"
                    } else {
                        ""
                    }
                }
                None => "",
            };
            cells.push(format!(
                "{name} {a2:.4} [{a1:.4},{a3:.4}] n={} -> {b2:.4} [{b1:.4},{b3:.4}] n={} ({:+.1}%){flag}",
                a_values.len(),
                b_values.len(),
                change * 100.0
            ));
        }
        let _ = writeln!(out, "{workload}: {}", cells.join(" | "));
    }
    for (workload, _) in b {
        if !a.iter().any(|(w, _)| w == workload) {
            let _ = writeln!(out, "{workload}: only in the second set");
        }
    }
    (out, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_only_metrics_beyond_their_bound() {
        let bench = serde_json::parse_value(
            r#"{"end_to_end": [
                {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "eps", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let a = load(
            "{\"workload\":\"w\",\"metrics\":{\"latency_ms\":10,\"eps\":100}}\n\
             {\"workload\":\"w\",\"metrics\":{\"latency_ms\":10,\"eps\":100}}",
        );
        let b =
            load("not a record\n{\"workload\":\"w\",\"metrics\":{\"latency_ms\":12,\"eps\":105}}");
        let (text, regressions) = render(&a, &b, &bounds(&bench));
        assert_eq!(regressions, 1, "{text}");
        assert!(
            text.contains("latency_ms") && text.contains("WORSE"),
            "{text}"
        );
        assert_eq!(text.lines().count(), 1, "one row per workload: {text}");
    }
}
