//! The systems under test, built and torn down the way a user would: a
//! summary in process, or engines behind `serve_tcp` on 127.0.0.1 driven
//! through one `fdm_client::Client` connection.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fdm_client::client::Client;
use fdm_client::protocol::{QueryReply, StreamSpec};
use fdm_core::point::Element;
use fdm_core::solution::Solution;
use fdm_core::streaming::summary::{self, DynSummary};
use fdm_serve::{serve_tcp, Engine, NetOptions, ServeConfig};

use crate::workload::{Arrivals, Kind, Workload};

/// Auto-checkpoint interval of the durable node.
pub const SNAPSHOT_EVERY: u64 = 64;
/// Delta-chain length before a full snapshot on the durable node.
pub const FULL_EVERY: u64 = 8;
/// Worker count of the cluster workload.
pub const CLUSTER_WORKERS: usize = 2;

/// A query answer reduced to what the oracle compares: the selected ids
/// and the exact bits of the diversity value.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Selected element ids, in solution order.
    pub ids: Vec<usize>,
    /// `div(S)` of the answer.
    pub diversity: f64,
}

impl Answer {
    /// Bit-exact equality (ids, then `diversity.to_bits()`).
    pub fn same_as(&self, other: &Answer) -> bool {
        self.ids == other.ids && self.diversity.to_bits() == other.diversity.to_bits()
    }
}

impl From<Solution> for Answer {
    fn from(solution: Solution) -> Answer {
        Answer {
            ids: solution.ids(),
            diversity: solution.diversity,
        }
    }
}

impl From<QueryReply> for Answer {
    fn from(reply: QueryReply) -> Answer {
        Answer {
            ids: reply.ids,
            diversity: reply.diversity,
        }
    }
}

/// One stream hosted by the system under test, as the load generator sees
/// it.
pub trait Target {
    /// Sends one insert request; returns the elements acknowledged.
    fn insert(&mut self, chunk: &[Element]) -> Result<usize, String>;
    /// Sends one query.
    fn query(&mut self) -> Result<Answer, String>;
    /// The paper's space measure, read after the stream ends.
    fn stored(&mut self) -> Result<usize, String>;
    /// Ends the session and releases what the target can release.
    fn close(self: Box<Self>) -> Result<(), String>;
}

/// A private directory under `.bench_run/` in the working directory,
/// removed on drop.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Creates `.bench_run/<label>-<pid>-<n>` afresh (`n` counts the
    /// process's run dirs, so concurrent runs in one process never share
    /// one).
    pub fn create(label: &str) -> Result<RunDir, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(".bench_run").join(format!("{label}-{}-{n}", std::process::id()));
        remove_tree(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(RunDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, not yet existing subdirectory path.
    pub fn sub(&self, name: &str) -> PathBuf {
        let path = self.path.join(name);
        remove_tree(&path);
        path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        remove_tree(&self.path);
    }
}

/// Removes a directory tree, retrying briefly: a drained engine's
/// compactor may still be finishing a (stale, skipped) job when the tree
/// goes.
pub fn remove_tree(path: &Path) {
    for _ in 0..20 {
        match std::fs::remove_dir_all(path) {
            Ok(()) => return,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return,
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    eprintln!("perfbench: could not remove {}", path.display());
}

/// Binds a listener on an ephemeral loopback port and serves `engine` on
/// it. The accept loop holds the engine until the process exits.
pub fn serve(engine: Arc<Engine>) -> Result<String, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("listener address: {e}"))?
        .to_string();
    std::thread::spawn(move || serve_tcp(engine, listener, NetOptions::default()));
    Ok(addr)
}

/// The durable single node's configuration over `data_dir`.
pub fn durable_config(data_dir: PathBuf) -> ServeConfig {
    ServeConfig {
        data_dir: Some(data_dir),
        snapshot_every: Some(SNAPSHOT_EVERY),
        full_every: FULL_EVERY,
        ..ServeConfig::default()
    }
}

/// Starts `CLUSTER_WORKERS` in-memory worker engines behind `serve_tcp`.
pub fn start_workers() -> Result<Vec<String>, String> {
    (0..CLUSTER_WORKERS)
        .map(|_| {
            let engine = Engine::new(ServeConfig::default()).map_err(|e| e.to_string())?;
            serve(Arc::new(engine))
        })
        .collect()
}

/// Starts a coordinator engine (not yet listening) over fresh workers;
/// returns it with the workers' addresses.
pub fn coordinator() -> Result<(Engine, Vec<String>), String> {
    let workers = start_workers()?;
    let engine = Engine::new(ServeConfig {
        workers: workers.clone(),
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    Ok((engine, workers))
}

/// Reads a `key=<integer>` field off a `STATS` line.
pub fn stat_field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

fn client_err(e: fdm_client::client::ClientError) -> String {
    e.to_string()
}

/// Builds the workload's system under test and opens stream `name` on it
/// — everything `setup_s` covers.
pub fn setup(
    workload: &Workload,
    arrivals: &Arrivals,
    name: &str,
    data_dir: PathBuf,
) -> Result<Box<dyn Target>, String> {
    match workload.kind {
        Kind::LibIngest => {
            let spec = arrivals
                .sharded_spec
                .to_summary_spec()
                .map_err(|e| e.to_string())?;
            let summary = summary::build(&spec).map_err(|e| e.to_string())?;
            Ok(Box::new(LibTarget { summary }))
        }
        Kind::WireDurable => {
            let engine =
                Arc::new(Engine::new(durable_config(data_dir.clone())).map_err(|e| e.to_string())?);
            let addr = serve(engine.clone())?;
            let mut client = Client::connect_tcp(addr.as_str()).map_err(client_err)?;
            client.open(name, &arrivals.spec).map_err(client_err)?;
            Ok(Box::new(WireTarget {
                client,
                batched: false,
                durable: Some((engine, data_dir)),
                workers: Vec::new(),
                name: name.to_string(),
                spec: arrivals.spec.clone(),
            }))
        }
        Kind::WireCluster => {
            let (engine, workers) = coordinator()?;
            let addr = serve(Arc::new(engine))?;
            let mut client = Client::connect_tcp(addr.as_str()).map_err(client_err)?;
            client.open(name, &arrivals.spec).map_err(client_err)?;
            Ok(Box::new(WireTarget {
                client,
                batched: true,
                durable: None,
                workers,
                name: name.to_string(),
                spec: arrivals.spec.clone(),
            }))
        }
    }
}

struct LibTarget {
    summary: Box<dyn DynSummary>,
}

impl Target for LibTarget {
    fn insert(&mut self, chunk: &[Element]) -> Result<usize, String> {
        self.summary.insert_batch(chunk);
        Ok(chunk.len())
    }

    fn query(&mut self) -> Result<Answer, String> {
        self.summary
            .finalize()
            .map(Answer::from)
            .map_err(|e| e.to_string())
    }

    fn stored(&mut self) -> Result<usize, String> {
        Ok(self.summary.stored_elements())
    }

    fn close(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}

struct WireTarget {
    client: Client,
    batched: bool,
    /// The durable node and its data dir, drained and removed on close.
    durable: Option<(Arc<Engine>, PathBuf)>,
    /// Worker addresses of the cluster (their `STATS` carry `stored=`).
    workers: Vec<String>,
    name: String,
    spec: StreamSpec,
}

impl Target for WireTarget {
    fn insert(&mut self, chunk: &[Element]) -> Result<usize, String> {
        if self.batched {
            let (_, count) = self.client.insert_batch(chunk).map_err(client_err)?;
            Ok(count)
        } else {
            let mut acked = 0;
            for element in chunk {
                self.client.insert(element).map_err(client_err)?;
                acked += 1;
            }
            Ok(acked)
        }
    }

    fn query(&mut self) -> Result<Answer, String> {
        self.client
            .query(None)
            .map(Answer::from)
            .map_err(client_err)
    }

    fn stored(&mut self) -> Result<usize, String> {
        if self.workers.is_empty() {
            let line = self.client.stats().map_err(client_err)?;
            return stat_field(&line, "stored")
                .map(|v| v as usize)
                .ok_or_else(|| format!("STATS without stored=: {line}"));
        }
        let mut total = 0;
        for addr in &self.workers {
            let mut worker = Client::connect_tcp(addr.as_str()).map_err(client_err)?;
            worker.open(&self.name, &self.spec).map_err(client_err)?;
            let line = worker.stats().map_err(client_err)?;
            total += stat_field(&line, "stored")
                .ok_or_else(|| format!("worker STATS without stored=: {line}"))?;
            worker.quit().map_err(client_err)?;
        }
        Ok(total as usize)
    }

    fn close(self: Box<Self>) -> Result<(), String> {
        let this = *self;
        this.client.quit().map_err(client_err)?;
        if let Some((engine, dir)) = this.durable {
            // The accept loop keeps the engine alive; a drain anchors every
            // chain so pending compactions turn stale, then the data dir
            // goes. The delta-chain length left behind is not checked.
            engine.drain().map_err(|e| e.to_string())?;
            remove_tree(&dir);
        }
        Ok(())
    }
}

/// The oracle's reference: the same arrivals replayed element by element
/// into an in-process summary at the workload's shard count — `shards=1`
/// for the durable node, a K=2 `ShardedStream` for `lib-ingest` and the
/// cluster.
pub fn replay(arrivals: &Arrivals) -> Result<(Answer, usize), String> {
    let spec = arrivals
        .sharded_spec
        .to_summary_spec()
        .map_err(|e| e.to_string())?;
    let mut reference = summary::build(&spec).map_err(|e| e.to_string())?;
    for element in &arrivals.elements {
        reference.insert(element);
    }
    let answer = reference.finalize().map_err(|e| e.to_string())?;
    Ok((Answer::from(answer), reference.stored_elements()))
}
