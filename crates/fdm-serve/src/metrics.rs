//! Fleet observability: lock-free counters/histograms and a hand-rolled
//! HTTP `/metrics` endpoint in Prometheus text exposition format.
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

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
    /// label set, written with a trailing comma (e.g. `stream="jobs",`).
    /// The family's `# HELP`/`# TYPE` must already have been emitted by
    /// the caller, once: Prometheus requires all series of one family to
    /// be contiguous under a single `# TYPE`.
    pub(crate) fn render(&self, out: &mut String, name: &str, labels: &str) {
        let mut cumulative = 0u64;
        for ((_, le), bucket) in LATENCY_BOUNDS.iter().zip(&self.buckets) {
            cumulative += bucket.load(Ordering::Relaxed);
            out.push_str(&format!(
                "{name}_bucket{{{labels}le=\"{le}\"}} {cumulative}\n"
            ));
        }
        let count = self.count();
        out.push_str(&format!("{name}_bucket{{{labels}le=\"+Inf\"}} {count}\n"));
        let sum = self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        out.push_str(&format!(
            "{name}_sum{{{labels_trim}}} {sum}\n",
            labels_trim = labels.trim_end_matches(',')
        ));
        out.push_str(&format!(
            "{name}_count{{{labels_trim}}} {count}\n",
            labels_trim = labels.trim_end_matches(',')
        ));
    }
}

/// Per-stream request metrics, owned by the engine's stream entry so the
/// hot path reaches them without a map lookup.
pub struct StreamMetrics {
    /// Accepted-`INSERT` latency (WAL append through checkpoint decision).
    pub insert_latency: Histogram,
    /// `QUERY` latency (post-processing under the read lock).
    pub query_latency: Histogram,
}

impl StreamMetrics {
    pub(crate) fn new() -> Arc<StreamMetrics> {
        Arc::new(StreamMetrics {
            insert_latency: Histogram::new(),
            query_latency: Histogram::new(),
        })
    }
}

/// Process-wide counters and gauges; per-stream series live with the
/// engine's stream entries and are rendered by [`Engine::render_metrics`].
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

    /// Appends the process-wide series (everything not per-stream).
    pub(crate) fn render_globals(&self, out: &mut String) {
        help_type(
            out,
            "fdm_connections",
            "gauge",
            "Live protocol connections per transport.",
        );
        out.push_str(&format!(
            "fdm_connections{{transport=\"tcp\"}} {}\n",
            self.tcp_connections.load(Ordering::SeqCst)
        ));
        out.push_str(&format!(
            "fdm_connections{{transport=\"unix\"}} {}\n",
            self.unix_connections.load(Ordering::SeqCst)
        ));
        help_type(
            out,
            "fdm_connections_refused_total",
            "counter",
            "Connections refused at the connection cap or while draining.",
        );
        out.push_str(&format!(
            "fdm_connections_refused_total{{transport=\"tcp\"}} {}\n",
            self.tcp_refused.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "fdm_connections_refused_total{{transport=\"unix\"}} {}\n",
            self.unix_refused.load(Ordering::Relaxed)
        ));
        help_type(
            out,
            "fdm_panics_contained_total",
            "counter",
            "Panics caught at the session/insert boundary and degraded to one ERR reply.",
        );
        out.push_str(&format!(
            "fdm_panics_contained_total {}\n",
            self.panics_contained.load(Ordering::Relaxed)
        ));
        help_type(
            out,
            "fdm_auth_failures_total",
            "counter",
            "AUTH attempts with an invalid token.",
        );
        out.push_str(&format!(
            "fdm_auth_failures_total {}\n",
            self.auth_failures.load(Ordering::Relaxed)
        ));
        help_type(
            out,
            "fdm_busy_rejections_total",
            "counter",
            "INSERTs rejected with ERR busy, by backpressure reason.",
        );
        out.push_str(&format!(
            "fdm_busy_rejections_total{{reason=\"queue_full\"}} {}\n",
            self.busy_queue_full.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "fdm_busy_rejections_total{{reason=\"rate_limit\"}} {}\n",
            self.busy_rate_limited.load(Ordering::Relaxed)
        ));
    }
}

/// Appends one family's `# HELP`/`# TYPE` preamble.
pub(crate) fn help_type(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
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
