//! Fleet observability: lock-free counters/histograms, the one registry
//! every `/metrics` family and every `STATS` counter comes from, and a
//! hand-rolled HTTP `/metrics` endpoint in Prometheus text exposition
//! format.
//!
//! ## The registry
//!
//! Which counters exist, what they are called and how they render is
//! decided here and nowhere else. Each `*_FAMILIES` table holds one `Row`
//! per series — `(name, kind, help, label, STATS key, read)` — over a
//! `StreamSample` the engine or the coordinator copies under its stream
//! locks at scrape/`STATS` time, or over live atomics (the coordinator's
//! fleet counters, its workers' health, the process-wide [`Metrics`]).
//! Two renderers walk the same rows: `exposition` writes Prometheus text,
//! `stream_stats` and `coordinator_stats` write the `STATS` `key=value`
//! line. A counter is added by adding a row.
//!
//! The environment is offline, so there is no client library: this module
//! renders the format directly (`# HELP`/`# TYPE` comments, cumulative
//! `_bucket{le=...}` histogram series, `_sum`/`_count`). The contract the
//! CI lint script (`examples/metrics_lint.sh`) enforces:
//!
//! * every sample family is preceded by exactly one `# HELP` and one
//!   `# TYPE` line;
//! * no duplicate series (same name + label set twice);
//! * every histogram ends in an `le="+Inf"` bucket equal to its `_count`.
//!
//! Recording is a handful of relaxed atomic increments — the insert hot
//! path never takes a lock for metrics — and scraping reads engine state
//! under the same short per-stream locks `STATS` uses, so a scrape never
//! blocks inserts for longer than a counter copy (pinned by the storm test
//! in `tests/metrics.rs`).

use std::io::{Read as _, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fdm_core::persist::SnapshotParams;
use fdm_core::streaming::memo::GuessTally;

use crate::coordinator::{Coordinator, WorkerState};
use crate::engine::Engine;

/// Upper bounds (seconds) of the latency histogram buckets, with their
/// exact label spellings (so the rendered `le=` values never drift with
/// float formatting). Spans 10 µs to 2.5 s; slower observations land in
/// `+Inf`.
const LATENCY_BOUNDS: &[(f64, &str)] = &[
    (0.00001, "0.00001"),
    (0.00005, "0.00005"),
    (0.00025, "0.00025"),
    (0.001, "0.001"),
    (0.005, "0.005"),
    (0.025, "0.025"),
    (0.1, "0.1"),
    (0.5, "0.5"),
    (2.5, "2.5"),
];

/// A fixed-bucket latency histogram; `observe` is a few relaxed atomic
/// adds, rendering cumulates the buckets Prometheus-style.
pub struct Histogram {
    /// Per-bucket (non-cumulative) observation counts, one per
    /// [`LATENCY_BOUNDS`] entry plus a final overflow (`+Inf`) bucket.
    buckets: Vec<AtomicU64>,
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: (0..=LATENCY_BOUNDS.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one latency observation.
    pub fn observe(&self, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        let idx = LATENCY_BOUNDS
            .iter()
            .position(|(bound, _)| secs <= *bound)
            .unwrap_or(LATENCY_BOUNDS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations (the `+Inf` cumulative bucket).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Appends this histogram's `_bucket`/`_sum`/`_count` series for one
    /// label set, e.g. `stream="jobs"`, or for none (`labels` empty),
    /// under a family preamble the caller has already written.
    fn render(&self, out: &mut String, name: &str, labels: &str) {
        let (le_prefix, braced) = if labels.is_empty() {
            (String::new(), String::new())
        } else {
            (format!("{labels},"), format!("{{{labels}}}"))
        };
        let mut cumulative = 0u64;
        for ((_, le), bucket) in LATENCY_BOUNDS.iter().zip(&self.buckets) {
            cumulative += bucket.load(Ordering::Relaxed);
            out.push_str(&format!(
                "{name}_bucket{{{le_prefix}le=\"{le}\"}} {cumulative}\n"
            ));
        }
        let count = self.count();
        out.push_str(&format!(
            "{name}_bucket{{{le_prefix}le=\"+Inf\"}} {count}\n"
        ));
        let sum = self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        out.push_str(&format!("{name}_sum{braced} {sum}\n"));
        out.push_str(&format!("{name}_count{braced} {count}\n"));
    }
}

/// Per-stream request metrics, owned by the engine's stream entry (or the
/// coordinator's stream) so the hot path reaches them without a map
/// lookup.
pub struct StreamMetrics {
    /// `INSERT`/`INSERTB` request latency: one observation per accepted
    /// request (not per element), timed from admission — the rate limiter
    /// and the pending queue — through the checkpoint decision.
    pub insert_latency: Histogram,
    /// `QUERY` latency (post-processing under the read lock).
    pub query_latency: Histogram,
    /// Coordinator only: one observation per worker pull of an uncached
    /// `QUERY` — that worker's share of the pipelined pull phase, from the
    /// previous worker's block decode (for the first, from the start of the
    /// pull) to its own, so a `QUERY`'s observations sum to the phase.
    pub pull_latency: Histogram,
    /// Coordinator only: the merge of the pulled unions.
    pub merge_latency: Histogram,
    /// Hosted stream only: a checkpoint's or `SNAPSHOT` export's capture —
    /// params, state tree or patch, capture mark, encode. One observation
    /// per checkpoint or export counted in `fdm_snapshots_total`.
    pub checkpoint_capture: Histogram,
    /// Hosted stream only: the same checkpoint's write — atomic write and
    /// fsync, then (a checkpoint, not an export) the delta sweep and the
    /// WAL truncation.
    pub checkpoint_write: Histogram,
    /// Guesses in `U'` a `QUERY`'s post-processing answered from its
    /// per-guess memo (a node's `finalize`, a coordinator's merge).
    guesses_reused: AtomicU64,
    /// Guesses in `U'` whose post-processing pipeline ran.
    guesses_computed: AtomicU64,
}

impl StreamMetrics {
    pub(crate) fn new() -> Arc<StreamMetrics> {
        Arc::new(StreamMetrics {
            insert_latency: Histogram::new(),
            query_latency: Histogram::new(),
            pull_latency: Histogram::new(),
            merge_latency: Histogram::new(),
            checkpoint_capture: Histogram::new(),
            checkpoint_write: Histogram::new(),
            guesses_reused: AtomicU64::new(0),
            guesses_computed: AtomicU64::new(0),
        })
    }

    /// Adds one post-processing pass's tally.
    pub(crate) fn count_guesses(&self, tally: GuessTally) {
        self.guesses_reused
            .fetch_add(tally.reused, Ordering::Relaxed);
        self.guesses_computed
            .fetch_add(tally.computed, Ordering::Relaxed);
    }
}

/// Per-stream persistence health, recorded by the engine under the
/// stream's durable mutex and reported by `STATS` and `/metrics`, so an
/// operator can see checkpointing working (or not) without shelling into
/// the data directory.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PersistCounters {
    /// WAL records appended since this process opened the stream.
    pub(crate) wal_records: u64,
    /// Full snapshot files written (auto-checkpoints, anchors, and
    /// explicit `SNAPSHOT` exports).
    pub(crate) full_snapshots: u64,
    /// Incremental delta files written.
    pub(crate) delta_snapshots: u64,
    /// Total encoded bytes of the dirty-set deltas written — the actual
    /// checkpoint I/O volume, which should track the change rate, not the
    /// stream size.
    pub(crate) dirty_bytes: u64,
    /// Delta chains collapsed into a full snapshot at `--full-every`.
    pub(crate) compactions: u64,
    /// Auto-checkpoints that failed (each retry counts again); the insert
    /// that triggered one is still acknowledged.
    pub(crate) checkpoint_failures: u64,
    /// Encoded size of the most recent checkpoint/export, in bytes.
    pub(crate) last_snapshot_bytes: u64,
    /// Kind of the most recent checkpoint/export: `bin` (full) or
    /// `delta`.
    pub(crate) last_snapshot_format: Option<&'static str>,
}

/// One stream as a scrape or `STATS` sees it: a hosted stream on a single
/// node, or a logical stream on a coordinator.
pub(crate) struct StreamSample {
    pub(crate) name: String,
    /// Elements accepted (a coordinator: contiguously acknowledged).
    pub(crate) processed: u64,
    pub(crate) latency: Arc<StreamMetrics>,
    /// What only a hosted stream has; `None` on a coordinator, whose
    /// summaries and checkpoints live on the workers.
    pub(crate) node: Option<NodeSample>,
    /// A coordinator stream's round-robin cursor; `None` on a node.
    pub(crate) cursor: Option<u64>,
}

/// The hosted-stream part of a [`StreamSample`].
pub(crate) struct NodeSample {
    pub(crate) params: SnapshotParams,
    pub(crate) stored: u64,
    pub(crate) persist: PersistCounters,
}

/// Process-wide counters and gauges; per-stream series are sampled from
/// the engine's (or coordinator's) streams at scrape time.
pub struct Metrics {
    /// Live connections per transport (shared with the listener loops'
    /// slot accounting).
    tcp_connections: Arc<AtomicUsize>,
    unix_connections: Arc<AtomicUsize>,
    /// Connections refused per transport (at the cap, or while draining).
    tcp_refused: AtomicU64,
    unix_refused: AtomicU64,
    /// Panics caught at the session/insert boundary instead of crossing
    /// tenant boundaries.
    panics_contained: AtomicU64,
    /// `AUTH` attempts with a wrong token.
    auth_failures: AtomicU64,
    /// `ERR busy` rejections: pending-insert queue at capacity.
    busy_queue_full: AtomicU64,
    /// `ERR busy` rejections: per-stream insert rate limit.
    busy_rate_limited: AtomicU64,
    /// Time to parse each request line, over every session.
    request_parse: Histogram,
}

impl Metrics {
    pub(crate) fn new() -> Arc<Metrics> {
        Arc::new(Metrics {
            tcp_connections: Arc::new(AtomicUsize::new(0)),
            unix_connections: Arc::new(AtomicUsize::new(0)),
            tcp_refused: AtomicU64::new(0),
            unix_refused: AtomicU64::new(0),
            panics_contained: AtomicU64::new(0),
            auth_failures: AtomicU64::new(0),
            busy_queue_full: AtomicU64::new(0),
            busy_rate_limited: AtomicU64::new(0),
            request_parse: Histogram::new(),
        })
    }

    /// The live-connection gauge for a transport ("tcp"/"unix"); the
    /// listener's slot accounting increments/decrements it directly.
    pub fn connection_gauge(&self, transport: &str) -> Arc<AtomicUsize> {
        match transport {
            "unix" => self.unix_connections.clone(),
            _ => self.tcp_connections.clone(),
        }
    }

    /// Total live connections across both transports (the drain
    /// coordinator polls this).
    pub fn live_connections(&self) -> usize {
        self.tcp_connections.load(Ordering::SeqCst) + self.unix_connections.load(Ordering::SeqCst)
    }

    pub(crate) fn connection_refused(&self, transport: &str) {
        match transport {
            "unix" => self.unix_refused.fetch_add(1, Ordering::Relaxed),
            _ => self.tcp_refused.fetch_add(1, Ordering::Relaxed),
        };
    }

    pub(crate) fn panic_contained(&self) {
        self.panics_contained.fetch_add(1, Ordering::Relaxed);
    }

    /// Panics contained so far (test visibility).
    pub fn panics_contained(&self) -> u64 {
        self.panics_contained.load(Ordering::Relaxed)
    }

    pub(crate) fn auth_failure(&self) {
        self.auth_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn busy_queue_full(&self) {
        self.busy_queue_full.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn busy_rate_limited(&self) {
        self.busy_rate_limited.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn request_parsed(&self, elapsed: Duration) {
        self.request_parse.observe(elapsed);
    }
}

/// How a [`Row`] reads its value off a sample; `None` leaves the series
/// (and the `STATS` field) out for that sample.
enum Read<S> {
    Value(fn(&S) -> Option<u64>),
    Histogram(fn(&S) -> Option<&Histogram>),
}

use Read::{Histogram as Hist, Value};

/// One series of a family and/or one `STATS` field:
/// `(name, kind, help, label, STATS key, read)`. Consecutive rows with the
/// same name form one family under a single `# HELP`/`# TYPE`.
struct Row<S>(
    /// Family name; empty for a `STATS`-only field.
    &'static str,
    /// `counter`, `gauge` or `histogram`.
    &'static str,
    /// `# HELP` text.
    &'static str,
    /// The row's own `key="value"` label, after the sample's; or empty.
    &'static str,
    /// `STATS` key; empty for a `/metrics`-only series.
    &'static str,
    Read<S>,
);

const fn stats_only<S>(stats: &'static str, read: fn(&S) -> Option<u64>) -> Row<S> {
    Row("", "", "", "", stats, Value(read))
}

const COUNTER: &str = "counter";
const GAUGE: &str = "gauge";
const HISTOGRAM: &str = "histogram";

/// The `fdm_streams` gauge, over the number of streams a scrape saw.
#[rustfmt::skip]
const STREAM_COUNT_FAMILIES: &[Row<usize>] = &[
    Row("fdm_streams", GAUGE, "Hosted streams.", "", "", Value(|n| Some(*n as u64))),
];

/// Per-stream counters, in exposition and `STATS` order. A coordinator's
/// stream has `processed`, `cursor` and the finalize guesses; a hosted
/// stream has all but `cursor`.
#[rustfmt::skip]
const STREAM_FAMILIES: &[Row<StreamSample>] = &[
    Row("fdm_stream_processed_total", COUNTER, "Elements accepted into each stream since it was opened.",
        "", "processed", Value(|s| Some(s.processed))),
    stats_only("cursor", |s| s.cursor),
    Row("fdm_finalize_guesses_total", COUNTER,
        "Guesses in U' that QUERY post-processing answered from its per-guess memo (reused) or ran the pipeline for (computed), per stream; a coordinator counts its merge.",
        "outcome=\"reused\"", "guesses_reused", Value(|s| Some(s.latency.guesses_reused.load(Ordering::Relaxed)))),
    Row("fdm_finalize_guesses_total", COUNTER,
        "Guesses in U' that QUERY post-processing answered from its per-guess memo (reused) or ran the pipeline for (computed), per stream; a coordinator counts its merge.",
        "outcome=\"computed\"", "guesses_computed", Value(|s| Some(s.latency.guesses_computed.load(Ordering::Relaxed)))),
    Row("fdm_stream_stored", GAUGE, "Elements currently held in each stream's summary.",
        "", "stored", Value(|s| Some(s.node.as_ref()?.stored))),
    stats_only("dim", |s| Some(s.node.as_ref()?.params.dim as u64)),
    stats_only("k", |s| Some(s.node.as_ref()?.params.k as u64)),
    stats_only("shards", |s| Some(s.node.as_ref()?.params.shards as u64)),
    stats_only("window", |s| Some(s.node.as_ref()?.params.window as u64).filter(|w| *w != 0)),
    Row("fdm_wal_records_total", COUNTER, "WAL records appended per stream since this process opened it.",
        "", "wal_records", Value(|s| Some(s.node.as_ref()?.persist.wal_records))),
    Row("fdm_snapshots_total", COUNTER, "Checkpoints and SNAPSHOT exports written per stream, by kind (an export counts as full).",
        "kind=\"full\"", "snapshots", Value(|s| Some(s.node.as_ref()?.persist.full_snapshots))),
    Row("fdm_snapshots_total", COUNTER, "Checkpoints and SNAPSHOT exports written per stream, by kind (an export counts as full).",
        "kind=\"delta\"", "deltas", Value(|s| Some(s.node.as_ref()?.persist.delta_snapshots))),
    Row("fdm_checkpoint_seconds", HISTOGRAM,
        "Checkpoint and SNAPSHOT export phases, one observation each per fdm_snapshots_total count: capture (params, state or patch, capture mark, encode) and write (atomic write and fsync, delta sweep, WAL truncation).",
        "phase=\"capture\"", "", Hist(|s| s.node.as_ref().map(|_| &s.latency.checkpoint_capture))),
    Row("fdm_checkpoint_seconds", HISTOGRAM,
        "Checkpoint and SNAPSHOT export phases, one observation each per fdm_snapshots_total count: capture (params, state or patch, capture mark, encode) and write (atomic write and fsync, delta sweep, WAL truncation).",
        "phase=\"write\"", "", Hist(|s| s.node.as_ref().map(|_| &s.latency.checkpoint_write))),
    Row("fdm_delta_dirty_bytes_total", COUNTER, "Encoded bytes of dirty-set delta checkpoints written per stream.",
        "", "dirty_bytes", Value(|s| Some(s.node.as_ref()?.persist.dirty_bytes))),
    Row("fdm_compactions_total", COUNTER, "Delta chains collapsed into a full snapshot at --full-every, per stream.",
        "", "compactions", Value(|s| Some(s.node.as_ref()?.persist.compactions))),
    Row("fdm_checkpoint_failures_total", COUNTER, "Auto-checkpoints that failed per stream (each retry counts); the triggering insert is still acknowledged.",
        "", "checkpoint_failures", Value(|s| Some(s.node.as_ref()?.persist.checkpoint_failures))),
    Row("fdm_last_snapshot_bytes", GAUGE, "Encoded size of each stream's most recent checkpoint/export.",
        "", "last_snapshot_bytes", Value(|s| Some(s.node.as_ref()?.persist.last_snapshot_bytes))),
];

/// `fdm_kernel_info`, over the active kernel's name (its label).
#[rustfmt::skip]
const KERNEL_FAMILIES: &[Row<&str>] = &[
    Row("fdm_kernel_info", GAUGE, "Active distance-kernel backend (constant 1; the label carries the name).",
        "", "", Value(|_| Some(1))),
];

/// A hosted stream's request latencies.
#[rustfmt::skip]
const LATENCY_FAMILIES: &[Row<StreamSample>] = &[
    Row("fdm_insert_latency_seconds", HISTOGRAM,
        "INSERT/INSERTB request latency, one observation per accepted request (admission through the checkpoint decision).",
        "", "", Hist(|s| s.node.as_ref().map(|_| &s.latency.insert_latency))),
    Row("fdm_query_latency_seconds", HISTOGRAM,
        "QUERY latency (post-processing under the summary read lock).",
        "", "", Hist(|s| s.node.as_ref().map(|_| &s.latency.query_latency))),
];

/// A coordinator stream's request latencies (distinct names: a coordinator
/// still writes the single-node families' preambles).
#[rustfmt::skip]
const COORD_LATENCY_FAMILIES: &[Row<StreamSample>] = &[
    Row("fdm_coord_insert_latency_seconds", HISTOGRAM,
        "Coordinator INSERT/INSERTB latency (routing + worker round-trips).",
        "", "", Hist(|s| s.node.is_none().then_some(&s.latency.insert_latency))),
    Row("fdm_coord_query_latency_seconds", HISTOGRAM,
        "Coordinator QUERY latency (worker pulls + merge, or a cache hit).",
        "", "", Hist(|s| s.node.is_none().then_some(&s.latency.query_latency))),
    Row("fdm_coord_pull_seconds", HISTOGRAM,
        "Coordinator QUERY worker pulls, one observation per worker: its share of the pipelined MERGE fan-out, up to its block decode (one QUERY's observations sum to the pull phase).",
        "", "", Hist(|s| s.node.is_none().then_some(&s.latency.pull_latency))),
    Row("fdm_coord_merge_seconds", HISTOGRAM,
        "Coordinator QUERY merge of the pulled worker unions.",
        "", "", Hist(|s| s.node.is_none().then_some(&s.latency.merge_latency))),
];

/// A coordinator's merge transfer volume and solution cache.
#[rustfmt::skip]
const FLEET_FAMILIES: &[Row<Coordinator>] = &[
    Row("fdm_merge_bytes_total", COUNTER, "Union block bytes pulled from workers by QUERY fan-in.",
        "kind=\"full\"", "", Value(|c| Some(c.merge_bytes_full.load(Ordering::Relaxed)))),
    Row("fdm_merge_cache_hits_total", COUNTER,
        "QUERYs answered from the cached merged solution without touching the fleet.",
        "", "", Value(|c| Some(c.merge_cache_hits.load(Ordering::Relaxed)))),
];

/// A coordinator's per-worker health; `STATS` keys are `worker<i>_<key>`.
#[rustfmt::skip]
const WORKER_FAMILIES: &[Row<Arc<WorkerState>>] = &[
    Row("fdm_worker_up", GAUGE, "Whether the last command against each worker succeeded.",
        "", "up", Value(|w| Some(u64::from(w.up.load(Ordering::SeqCst))))),
    Row("fdm_worker_failures_total", COUNTER, "Transport-level command failures per worker.",
        "", "failures", Value(|w| Some(w.failures.load(Ordering::SeqCst)))),
];

#[rustfmt::skip]
const PROCESS_FAMILIES: &[Row<Metrics>] = &[
    Row("fdm_connections", GAUGE, "Live protocol connections per transport.",
        "transport=\"tcp\"", "", Value(|m| Some(m.tcp_connections.load(Ordering::SeqCst) as u64))),
    Row("fdm_connections", GAUGE, "Live protocol connections per transport.",
        "transport=\"unix\"", "", Value(|m| Some(m.unix_connections.load(Ordering::SeqCst) as u64))),
    Row("fdm_connections_refused_total", COUNTER, "Connections refused at the connection cap or while draining.",
        "transport=\"tcp\"", "", Value(|m| Some(m.tcp_refused.load(Ordering::Relaxed)))),
    Row("fdm_connections_refused_total", COUNTER, "Connections refused at the connection cap or while draining.",
        "transport=\"unix\"", "", Value(|m| Some(m.unix_refused.load(Ordering::Relaxed)))),
    Row("fdm_panics_contained_total", COUNTER,
        "Panics caught at the session/insert boundary and degraded to one ERR reply.",
        "", "", Value(|m| Some(m.panics_contained.load(Ordering::Relaxed)))),
    Row("fdm_auth_failures_total", COUNTER, "AUTH attempts with an invalid token.",
        "", "", Value(|m| Some(m.auth_failures.load(Ordering::Relaxed)))),
    Row("fdm_busy_rejections_total", COUNTER, "INSERTs rejected with ERR busy, by backpressure reason.",
        "reason=\"queue_full\"", "", Value(|m| Some(m.busy_queue_full.load(Ordering::Relaxed)))),
    Row("fdm_busy_rejections_total", COUNTER, "INSERTs rejected with ERR busy, by backpressure reason.",
        "reason=\"rate_limit\"", "", Value(|m| Some(m.busy_rate_limited.load(Ordering::Relaxed)))),
    Row("fdm_request_parse_seconds", HISTOGRAM,
        "Request-line parse time, one observation per line a session hands to the parser (blank and comment lines included).",
        "", "", Hist(|m| Some(&m.request_parse))),
];

/// Appends the families of `rows` over `samples` as Prometheus text: one
/// preamble per family, then every sample's series (a family's series
/// must be contiguous), labelled `labels(sample)` plus the row's label.
fn render<S>(out: &mut String, rows: &[Row<S>], samples: &[S], labels: impl Fn(&S) -> String) {
    for family in rows.chunk_by(|a, b| a.0 == b.0) {
        let Row(name, kind, help, ..) = family[0];
        if name.is_empty() {
            continue;
        }
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for sample in samples {
            let sample_labels = labels(sample);
            for Row(_, _, _, label, _, read) in family {
                let labels = match (sample_labels.as_str(), *label) {
                    (a, "") | ("", a) => a.to_string(),
                    (a, b) => format!("{a},{b}"),
                };
                match read {
                    Value(read) => match (read(sample), labels.is_empty()) {
                        (None, _) => {}
                        (Some(v), true) => out.push_str(&format!("{name} {v}\n")),
                        (Some(v), false) => out.push_str(&format!("{name}{{{labels}}} {v}\n")),
                    },
                    Hist(read) => {
                        if let Some(histogram) = read(sample) {
                            histogram.render(out, name, &labels);
                        }
                    }
                }
            }
        }
    }
}

/// Appends ` <prefix><key>=<value>` for every `STATS` row of `rows` that
/// `sample` has a value for.
fn push_stats<S>(line: &mut String, prefix: &str, rows: &[Row<S>], sample: &S) {
    for Row(.., key, read) in rows.iter().filter(|row| !row.4.is_empty()) {
        if let Value(read) = read {
            if let Some(value) = read(sample) {
                line.push_str(&format!(" {prefix}{key}={value}"));
            }
        }
    }
}

fn stream_label(s: &StreamSample) -> String {
    format!("stream=\"{}\"", s.name)
}

fn no_label<S>(_: &S) -> String {
    String::new()
}

/// The whole `/metrics` exposition: per-stream families (sorted by stream
/// name), the coordinator's fleet families on a coordinator, then
/// the process-wide families.
pub(crate) fn exposition(
    mut streams: Vec<StreamSample>,
    coordinator: Option<&Coordinator>,
    process: &Metrics,
) -> String {
    streams.sort_by(|a, b| a.name.cmp(&b.name));
    let kernel = fdm_core::kernel::active_kernel();
    let mut out = String::new();
    render(&mut out, STREAM_COUNT_FAMILIES, &[streams.len()], no_label);
    render(&mut out, STREAM_FAMILIES, &streams, stream_label);
    render(&mut out, KERNEL_FAMILIES, &[kernel], |k| {
        format!("kernel=\"{k}\"")
    });
    render(&mut out, LATENCY_FAMILIES, &streams, stream_label);
    if let Some(coordinator) = coordinator {
        render(&mut out, COORD_LATENCY_FAMILIES, &streams, stream_label);
        render(
            &mut out,
            FLEET_FAMILIES,
            std::slice::from_ref(coordinator),
            no_label,
        );
        render(&mut out, WORKER_FAMILIES, &coordinator.workers, |w| {
            format!("worker=\"{}\"", w.addr)
        });
    }
    render(
        &mut out,
        PROCESS_FAMILIES,
        std::slice::from_ref(process),
        no_label,
    );
    out
}

/// A hosted stream's `STATS` line: its algorithm, the table-driven
/// counters and geometry, then the kind of its last checkpoint and the
/// kernel backend.
pub(crate) fn stream_stats(sample: &StreamSample) -> String {
    let node = sample
        .node
        .as_ref()
        .expect("a hosted stream's sample has its node part");
    let mut line = format!("stream={} algorithm={}", sample.name, node.params.algorithm);
    push_stats(&mut line, "", STREAM_FAMILIES, sample);
    line.push_str(&format!(
        " last_snapshot_format={} kernel={}",
        node.persist.last_snapshot_format.unwrap_or("none"),
        fdm_core::kernel::active_kernel()
    ));
    line
}

/// A coordinator stream's `STATS` line: its routing counters, then each
/// worker's address, health and position.
pub(crate) fn coordinator_stats(
    sample: &StreamSample,
    workers: &[Arc<WorkerState>],
    positions: &[usize],
) -> String {
    let mut line = format!(
        "stream={} coordinator=1 workers={}",
        sample.name,
        workers.len()
    );
    push_stats(&mut line, "", STREAM_FAMILIES, sample);
    for (i, worker) in workers.iter().enumerate() {
        line.push_str(&format!(" worker{i}={}", worker.addr));
        push_stats(&mut line, &format!("worker{i}_"), WORKER_FAMILIES, worker);
        line.push_str(&format!(" worker{i}_position={}", positions[i]));
    }
    line
}

/// Longest request head the scrape listener will buffer before giving up
/// (a scrape is one short GET; anything bigger is not a scraper).
const MAX_REQUEST_HEAD: usize = 8 * 1024;

/// Serves `GET /metrics` (Prometheus text exposition v0.0.4) on the
/// listener until it errors out; every other path is a 404. One short
/// thread per request; rendering never blocks the accept loop. Blocks the
/// calling thread — spawn it.
pub fn serve_metrics(engine: Arc<Engine>, listener: TcpListener) {
    for connection in listener.incoming() {
        match connection {
            Ok(stream) => {
                let engine = engine.clone();
                std::thread::spawn(move || handle_scrape(engine, stream));
            }
            Err(e) => eprintln!("fdm-serve: metrics accept: {e}"),
        }
    }
}

fn handle_scrape(engine: Arc<Engine>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    // Read the request head (bounded); we only need the request line.
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while head.len() < MAX_REQUEST_HEAD && !head.ends_with(b"\r\n\r\n") && !head.ends_with(b"\n\n")
    {
        match stream.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            _ => break,
        }
    }
    let request_line = String::from_utf8_lossy(&head);
    let request_line = request_line.lines().next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, body) = match (method, path) {
        ("GET", "/metrics") => ("200 OK", engine.render_metrics()),
        ("GET", _) => ("404 Not Found", "not found\n".to_string()),
        _ => ("405 Method Not Allowed", "GET only\n".to_string()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}
