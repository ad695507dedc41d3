//! The three workloads and the arrivals they feed the system.
//!
//! A workload's unit of work is a fixed-length stream of `synthetic_blobs`
//! arrivals (the paper's synthetic setting, at a workload-specific
//! dimension and group count). A run draws [`STREAMS`] such streams from
//! its seed and feeds them, one per pass, into a freshly set-up system,
//! cycling until its time is up, so quality metrics (`diversity`,
//! `stored_elements`) depend on the seed only, never on how fast the
//! system is.

use fdm_client::protocol::StreamSpec;
use fdm_core::point::Element;
use fdm_datasets::synthetic::{synthetic_blobs, SyntheticConfig};

/// Which system boundary a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `summary::build` in process: no server, no wire, no disk.
    LibIngest,
    /// One durable `Engine` behind `serve_tcp`, per-element `INSERT`.
    WireDurable,
    /// A coordinator over two in-memory workers, all behind `serve_tcp`,
    /// batched `INSERTB`.
    WireCluster,
}

/// One workload's shape.
#[derive(Debug, Clone)]
pub struct Workload {
    /// CLI name.
    pub name: &'static str,
    /// Which boundary it drives.
    pub kind: Kind,
    /// Point dimension.
    pub dim: usize,
    /// Group count `m`.
    pub groups: usize,
    /// SFDM2 per-group quotas (`k = Σ quotas`).
    pub quotas: &'static [usize],
    /// Shards of the summary the system under test hosts (`lib-ingest`
    /// builds `shards=2`; the cluster's two workers are its shards).
    pub shards: usize,
    /// Arrivals per stream (one pass).
    pub stream_len: usize,
    /// Elements per insert request (`insert_batch` chunk or `INSERTB`
    /// size; 1 for per-element `INSERT`).
    pub batch: usize,
    /// Insert requests between two queries (see [`query_after`]).
    pub query_every: usize,
    /// Whether the run is confined to one CPU. On the wire workloads every
    /// request hands off between the client thread and a server thread;
    /// on one CPU that is a same-CPU switch, not a cross-CPU wake-up whose
    /// cost depends on what else the host runs. `lib-ingest` is left free
    /// so that a parallel build of the library can show on it.
    pub one_cpu: bool,
}

/// Guess-ladder accuracy used by every workload.
pub const EPSILON: f64 = 0.1;

/// Independent streams per run. The quality of one stream's answer depends
/// on where its random blob centres fall; a run cycles through this many
/// streams drawn from its seed and reports the mean, so two seeds' runs
/// compare the system rather than two blob layouts.
pub const STREAMS: usize = 16;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "lib-ingest",
            kind: Kind::LibIngest,
            dim: 64,
            groups: 2,
            quotas: &[10, 10],
            shards: 2,
            stream_len: 65_536,
            batch: 256,
            query_every: 16,
            one_cpu: false,
        },
        Workload {
            name: "wire-durable",
            kind: Kind::WireDurable,
            dim: 16,
            groups: 3,
            quotas: &[4, 4, 4],
            shards: 1,
            stream_len: 4_096,
            batch: 1,
            query_every: 256,
            one_cpu: true,
        },
        Workload {
            name: "wire-cluster",
            kind: Kind::WireCluster,
            dim: 16,
            groups: 2,
            quotas: &[8, 8],
            shards: 2,
            stream_len: 32_768,
            batch: 256,
            query_every: 8,
            one_cpu: true,
        },
    ]
}

/// Looks a workload up by CLI name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload with a shorter stream (at least one full query
    /// interval) — for the harness's own smoke test.
    pub fn shrunk(mut self, stream_len: usize) -> Workload {
        let interval = self.batch * self.query_every;
        self.stream_len = stream_len.div_ceil(interval).max(1) * interval;
        self
    }
}

/// Whether a query follows insert request `i` (0-based) of `requests`:
/// one every `every` requests, placed mid-interval so that it never lands
/// in lockstep with the durable node's checkpoint and compaction schedule
/// (both multiples of 64 inserts), plus one after the last request, whose
/// answer the oracle checks.
pub fn query_after(i: usize, requests: usize, every: usize) -> bool {
    (i + 1) % every == every / 2 || i + 1 == requests
}

/// One generated stream plus the `OPEN` specs that admit it.
#[derive(Debug, Clone)]
pub struct Arrivals {
    /// The stream, in arrival order.
    pub elements: Vec<Element>,
    /// Spec of one unsharded summary (what a single node or a worker
    /// hosts, and what the coordinator is opened with).
    pub spec: StreamSpec,
    /// The same spec at the workload's shard count (what `lib-ingest`
    /// builds and what the K=2 oracle replays).
    pub sharded_spec: StreamSpec,
}

/// The generator seed of stream `index` of a run seeded with `seed`
/// (SplitMix64 finalizer, so neighbouring seeds share no streams).
pub fn stream_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(STREAMS as u64)
        .wrapping_add(index as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates stream `index` of a run seeded with `seed`. The distance
/// bounds come from `sampled_distance_bounds` over the generated data, as
/// a client would estimate them before opening a stream.
pub fn generate(workload: &Workload, seed: u64, index: usize) -> Arrivals {
    let data = synthetic_blobs(SyntheticConfig {
        n: workload.stream_len,
        m: workload.groups,
        blobs: 10,
        seed: stream_seed(seed, index),
        dim: workload.dim,
    })
    .expect("synthetic generation accepts every workload shape");
    let bounds = data
        .sampled_distance_bounds(300, 4.0)
        .expect("a generated stream has at least two distinct points");
    let quotas: Vec<String> = workload.quotas.iter().map(|q| q.to_string()).collect();
    let spec_text = format!(
        "sfdm2 quotas={} eps={EPSILON} dmin={} dmax={}",
        quotas.join(","),
        bounds.lower,
        bounds.upper
    );
    let fields: Vec<&str> = spec_text.split_whitespace().collect();
    let spec = StreamSpec::parse(&fields).expect("generated spec parses");
    let sharded_spec = StreamSpec {
        shards: workload.shards,
        ..spec.clone()
    };
    Arrivals {
        elements: data.iter().collect(),
        spec,
        sharded_spec,
    }
}
