//! The repository's benchmark: three workloads (`lib-ingest`,
//! `wire-durable`, `wire-cluster`) measured end to end by a closed-loop
//! load generator, and by layer in a separate traced run. See
//! `perfbench/README.md` for the metrics and what each layer metric is
//! expected to move.

pub mod compare;
pub mod e2e;
pub mod host;
mod layers;
mod stats;
mod sut;
mod trace;
pub mod workload;

use std::time::Duration;

use crate::e2e::{Options, Streams};
use crate::stats::{mean, median, quantile};
use crate::sut::RunDir;
use crate::trace::SpanLog;
use crate::workload::Workload;

/// Most spans one traced run keeps in memory.
const SPAN_CAP: usize = 400_000;

/// One run's result.
#[derive(Debug)]
pub struct Outcome {
    /// Every answer matched the oracle and no request failed.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed or refused.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The full record line: workload, seed, host, sample counts, metrics,
    /// problems.
    pub record: serde_json::Value,
}

fn obj(fields: Vec<(&str, serde_json::Value)>) -> serde_json::Value {
    serde_json::Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(v: impl Into<f64>) -> serde_json::Value {
    serde_json::json!(v.into())
}

/// Measures one workload for `seconds` on streams drawn from `seed`: end
/// to end (`trace == false`, every stream checked against the oracle's
/// replay) or by layer (`trace == true`, spans written to
/// `.bench_run/spans-<workload>-<seed>.jsonl`).
pub fn run_workload(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    options: Options,
) -> Result<Outcome, String> {
    let dir = RunDir::create(workload.name)?;
    let mut streams = Streams::new(workload, seed);
    let mut problems: Vec<String> = Vec::new();
    let (metrics, attempted, failed, extra) = if trace {
        let mut log = SpanLog::new(SPAN_CAP);
        let (arrivals, _) = streams.get(0)?;
        let layers = layers::run(workload, &arrivals, &mut streams, seconds, &dir, &mut log)?;
        let spans = std::path::Path::new(".bench_run")
            .join(format!("spans-{}-{seed}.jsonl", workload.name));
        log.write(&spans)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
        problems.extend(layers.problems.iter().cloned());
        let split = obj(layers
            .split_us
            .iter()
            .map(|(layer, us)| (*layer, num(*us)))
            .collect());
        let extra = vec![
            ("split_us", split),
            ("dominant", serde_json::json!(layers.dominant)),
            ("spans", serde_json::json!(spans.display().to_string())),
        ];
        (layers.metrics, layers.attempted, layers.failed, extra)
    } else {
        let budget = Duration::from_secs_f64(seconds);
        let run = e2e::run(
            workload,
            &mut streams,
            budget,
            workload::STREAMS,
            &dir,
            options,
            None,
        );
        problems.extend(run.problems.iter().cloned());
        // Means and p90s rather than medians and p99s: the shared host
        // switches between a fast and a slow state within a run, which
        // makes per-request times bimodal. A median then jumps between the
        // two modes with the share of time spent in each, and a p99 follows
        // disk and scheduler hiccups; a mean moves with that share only in
        // proportion, and the p90 stays inside the slow mode.
        let metrics = vec![
            ("setup_s", median(&run.setup_s), "s"),
            ("insert_eps", run.insert_eps(), "1/s"),
            ("insert_p90_us", quantile(&run.insert_us, 0.9), "us"),
            ("query_mean_ms", mean(&run.query_ms), "ms"),
            ("query_p90_ms", quantile(&run.query_ms, 0.9), "ms"),
            ("diversity", run.mean_diversity(), "distance"),
            ("stored_elements", run.mean_stored(), "count"),
            ("rss_peak_mb", run.rss_peak_mb, "MiB"),
        ];
        let samples = obj(vec![
            ("passes", num(run.passes as f64)),
            ("streams", num(workload::STREAMS as f64)),
            ("setup", num(run.setup_s.len() as f64)),
            ("insert", num(run.insert_us.len() as f64)),
            ("insert_beyond_p90", num((run.insert_us.len() / 10) as f64)),
            ("query", num(run.query_ms.len() as f64)),
            ("query_beyond_p90", num((run.query_ms.len() / 10) as f64)),
        ]);
        (
            metrics,
            run.attempted,
            run.failed,
            vec![("samples", samples)],
        )
    };
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            problems.push(format!("{name} is not a finite number"));
        }
    }
    let correct = problems.is_empty() && failed == 0;
    let mut fields = vec![
        ("workload", serde_json::json!(workload.name)),
        ("seed", num(seed as f64)),
        ("seconds", num(seconds)),
        ("trace", serde_json::json!(trace)),
        ("host", host::metadata(dir.path())),
        ("correct", serde_json::json!(correct)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("error_rate", num(failed as f64 / attempted.max(1) as f64)),
    ];
    fields.extend(extra);
    fields.push((
        "metrics",
        obj(metrics.iter().map(|(n, v, _)| (*n, num(*v))).collect()),
    ));
    fields.push((
        "problems",
        serde_json::Value::Array(
            problems
                .iter()
                .map(|p| serde_json::json!(p.as_str()))
                .collect(),
        ),
    ));
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        record: obj(fields),
    })
}

/// The final line the contract asks for: `correct`, `attempted`, `failed`
/// and every metric with its unit.
pub fn final_line(outcome: &Outcome) -> String {
    let metrics = obj(outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                *name,
                obj(vec![
                    ("value", num(*value)),
                    ("unit", serde_json::json!(*unit)),
                ]),
            )
        })
        .collect());
    let line = obj(vec![
        ("correct", serde_json::json!(outcome.correct)),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&line).expect("JSON rendering cannot fail")
}
