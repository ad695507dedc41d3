//! Coordinator mode: fan one logical stream out over N worker
//! `fdm-serve` nodes.
//!
//! With `--worker ADDR:PORT` flags the engine stops hosting summaries and
//! becomes a router:
//!
//! * `OPEN` forwards the (unsharded) spec to every worker, so each worker
//!   hosts one **shard** of the logical stream — with its own WAL,
//!   snapshot chain, and crash recovery;
//! * `INSERTB` round-robins across the workers in fixed order, exactly the
//!   element-to-shard assignment
//!   [`ShardedStream`](fdm_core::streaming::sharded::ShardedStream) uses
//!   for arrival order: element *i* of a flush goes to worker
//!   `(cursor + i) % K`, and all K per-worker sub-batches flush
//!   **concurrently** — the round-trip cost of a batch is one RTT plus the
//!   slowest worker's apply, not N RTTs. `INSERT` is a one-element
//!   `INSERTB` (same routing, same heal-by-skip, same failure handling).
//!   The coordinator routes **text**: the session has already parsed and
//!   validated the client's line (a bad line is refused whole, before any
//!   worker sees it), and each worker receives the entry texts sliced from
//!   that line exactly as the client spelled them — nothing is
//!   re-rendered, so a worker's WAL holds the client's spelling of every
//!   float and answers stay bit-identical (f64 parsing is deterministic);
//! * `QUERY` pulls every worker's **union** — its summary's retained
//!   elements, the only thing a merge reads of a part — through the bare
//!   `MERGE` verb as a CRC-checked union block
//!   ([`decode_union`](crate::protocol::decode_union)), and merges the
//!   unions through the registry's
//!   [`merge_unions`](fdm_core::streaming::summary::merge_unions) — the
//!   same instance + insertion order `ShardedStream::finalize` uses, so a
//!   coordinator over K workers answers **byte-identically** to a
//!   single-process `ShardedStream` with K shards fed the same arrivals
//!   (pinned by `tests/distributed.rs`). No worker summary is restored on
//!   the coordinator. The merged solution is itself cached: a `QUERY`
//!   with no intervening `INSERT` is answered without touching the fleet.
//!
//! ## Coordinator state and restart
//!
//! The routing state is `processed` (elements acknowledged, in arrival
//! order), the cursor (`cursor ≡ processed mod K`), and per-worker
//! positions `p_w` (how many elements worker `w` holds, refreshed from
//! the worker's own count on every attach). The only other state is the
//! cached merged solution, which every insert attempt drops; the
//! coordinator keeps no copy of any worker's summary.
//!
//! After a coordinator restart, re-`OPEN` recomputes the **contiguous
//! acknowledged prefix** from the workers' positions alone: worker `w`
//! (0-indexed) holds 0-based globals `g ≡ w (mod K)`, so its first
//! missing global is `w + p_w·K`, and `processed = min_w (w + p_w·K)`.
//! No coordinator WAL is needed — the workers *are* the durable state.
//!
//! ## Failure semantics
//!
//! A worker that cannot be reached (connect, write, or read failure after
//! `CONNECT_ATTEMPTS` retries with doubling backoff) turns the command
//! into a typed `ERR worker unavailable: <addr>: <cause>` naming the
//! failing node — never a hang. The connection is dropped and re-dialed
//! on the next command touching that worker; health is visible in `STATS`
//! and as `fdm_worker_up`/`fdm_worker_failures_total` in `/metrics`. An
//! insert whose transport fails is **not** retried on another worker
//! (that would silently permute the round-robin assignment and break
//! bit-identity); the client decides whether to retry the same element.
//!
//! A **mid-batch** failure acks only the longest contiguous prefix of the
//! flush (each worker applies its whole sub-batch or none of it — the
//! worker-side `INSERTB` apply is atomic): `processed` advances by that
//! prefix, the cursor follows, and the typed error names the first
//! worker blocking it. Elements beyond the prefix that *did* land on
//! healthy workers are remembered via `p_w`; when the client replays the
//! unacked suffix (replay is deterministic, so the elements are
//! identical), the coordinator **skips** every element its target worker
//! already holds instead of re-sending it — the gap heals without
//! duplicates, for both `INSERT` and `INSERTB` replays.
//!
//! The coordinator authenticates to workers with no token: worker nodes
//! are expected to sit on the same trusted network segment (bind
//! `127.0.0.1` or a private interface), like the Unix-socket transport.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fdm_client::{Client, ClientError};
use fdm_core::streaming::summary;

use crate::engine::lock;
use crate::metrics::{self, StreamMetrics, StreamSample};
use crate::protocol::{self, ErrorReply, Payload, QueryReply, StreamSpec};

/// Total connect attempts per worker dial (first try + retries with
/// doubling backoff starting at [`INITIAL_BACKOFF`]).
const CONNECT_ATTEMPTS: usize = 5;

/// Backoff before the first connect retry; doubles per retry.
const INITIAL_BACKOFF: Duration = Duration::from_millis(25);

/// Tree-merge fan-in for wide worker fleets: more than this many unions
/// reduce in chunks before the final merge (see [`summary::merge_unions`]).
const MERGE_FAN_IN: usize = 8;

/// Health of one worker node, shared between command paths and the
/// `/metrics` renderer.
pub(crate) struct WorkerState {
    pub(crate) addr: String,
    /// Last dial/command against this worker succeeded.
    pub(crate) up: AtomicBool,
    /// Commands that failed against this worker (transport-level).
    pub(crate) failures: AtomicU64,
}

/// Coordinator-side state of one logical stream.
struct CoordStream {
    spec: StreamSpec,
    /// Contiguously acknowledged inserts across all workers (arrival
    /// order).
    processed: usize,
    /// Next worker to receive an `INSERT`; invariant
    /// `cursor == processed % workers.len()`.
    cursor: usize,
    /// Per-worker applied counts `p_w` — the skip/heal watermark.
    /// Refreshed from the worker's own count on every (re-)attach and on
    /// every acknowledged insert, so it may run ahead of the contiguous
    /// prefix after a partial batch.
    positions: Vec<usize>,
    /// One cached connection per worker, re-dialed lazily after a failure.
    conns: Vec<Option<Client>>,
    /// The last merged solution; invalidated by any insert attempt.
    cached_query: Option<QueryReply>,
    /// Coordinator-side request latencies (`fdm_coord_*` families).
    metrics: Arc<StreamMetrics>,
}

/// The worker fleet plus per-stream routing state. One mutex per stream:
/// inserts and queries of one logical stream serialize (a query is a
/// consistent cut of the round-robin order), while different streams
/// proceed independently.
pub struct Coordinator {
    pub(crate) workers: Vec<Arc<WorkerState>>,
    streams: Mutex<HashMap<String, Arc<Mutex<CoordStream>>>>,
    /// Union block bytes pulled from workers by `QUERY` fan-in.
    pub(crate) merge_bytes_full: AtomicU64,
    /// `QUERY`s answered from the cached merged solution.
    pub(crate) merge_cache_hits: AtomicU64,
}

impl Coordinator {
    /// A coordinator over the given worker addresses (`ADDR:PORT` each).
    pub fn new(addrs: Vec<String>) -> Coordinator {
        Coordinator {
            workers: addrs
                .into_iter()
                .map(|addr| {
                    Arc::new(WorkerState {
                        addr,
                        up: AtomicBool::new(false),
                        failures: AtomicU64::new(0),
                    })
                })
                .collect(),
            streams: Mutex::new(HashMap::new()),
            merge_bytes_full: AtomicU64::new(0),
            merge_cache_hits: AtomicU64::new(0),
        }
    }

    /// Records a transport failure against `worker` and renders the typed
    /// `worker unavailable` error naming it.
    fn unavailable(&self, worker: &WorkerState, e: &ClientError) -> ErrorReply {
        let cause = match e {
            // The io::Error text alone ("connection refused", "timed
            // out") — the client-side "transport error: " framing is
            // noise on the wire.
            ClientError::Io(io) => io.to_string(),
            other => other.to_string(),
        };
        worker.up.store(false, Ordering::SeqCst);
        worker.failures.fetch_add(1, Ordering::SeqCst);
        ErrorReply::worker_unavailable(format!("{}: {cause}", worker.addr))
    }

    /// Dials a worker (with retries) and attaches it to `name`/`spec`.
    /// Marks the worker up on success; returns the worker's own processed
    /// count (its authoritative position `p_w`).
    fn attach(
        &self,
        widx: usize,
        name: &str,
        spec: &StreamSpec,
    ) -> Result<(Client, usize), ErrorReply> {
        let worker = &self.workers[widx];
        let mut client = Client::connect_tcp_retry(&worker.addr, CONNECT_ATTEMPTS, INITIAL_BACKOFF)
            .map_err(|e| self.unavailable(worker, &e))?;
        let processed = match client.open(name, spec) {
            Ok(processed) => processed,
            Err(ClientError::Server(err)) => return Err(err),
            Err(e) => return Err(self.unavailable(worker, &e)),
        };
        worker.up.store(true, Ordering::SeqCst);
        Ok((client, processed))
    }

    /// The cached connection for `stream`'s `widx`-th worker, re-dialing
    /// (and re-attaching) if the previous one failed. A re-attach also
    /// refreshes `p_w` from the worker's own count: after an ambiguous
    /// transport failure (line written, ack lost) the worker's position
    /// is the truth the skip/heal logic needs.
    fn conn<'a>(
        &self,
        stream: &'a mut CoordStream,
        name: &str,
        widx: usize,
    ) -> Result<&'a mut Client, ErrorReply> {
        if stream.conns[widx].is_none() {
            let (client, worker_processed) = self.attach(widx, name, &stream.spec)?;
            stream.positions[widx] = worker_processed;
            stream.conns[widx] = Some(client);
        }
        Ok(stream.conns[widx].as_mut().expect("just ensured"))
    }

    /// `OPEN`: forward to every worker, register the routing state, and
    /// recover `processed` as the contiguous acknowledged prefix the
    /// workers' positions imply: worker `w` holds globals `g ≡ w (mod
    /// K)`, so `processed = min_w (w + p_w·K)` — this is how a restarted
    /// coordinator re-attaches, including after a partial batch left
    /// later workers ahead of the prefix.
    pub fn open(&self, name: &str, spec: &StreamSpec) -> Result<Payload, ErrorReply> {
        if spec.shards > 1 {
            return Err(ErrorReply::generic(format!(
                "coordinator streams take shards=1 (the {} workers are the shards)",
                self.workers.len()
            )));
        }
        let mut streams = lock(&self.streams);
        if let Some(existing) = streams.get(name).cloned() {
            drop(streams);
            let existing = lock(&existing);
            if existing.spec != *spec {
                return Err(ErrorReply::generic(format!(
                    "stream `{name}` is already open with different parameters"
                )));
            }
            return Ok(Payload::Attached {
                name: name.to_string(),
                processed: existing.processed,
            });
        }
        let mut conns = Vec::with_capacity(self.workers.len());
        let mut positions = Vec::with_capacity(self.workers.len());
        for widx in 0..self.workers.len() {
            let (client, worker_processed) = self.attach(widx, name, spec)?;
            positions.push(worker_processed);
            conns.push(Some(client));
        }
        let processed = positions
            .iter()
            .enumerate()
            .map(|(w, p)| w + p * self.workers.len())
            .min()
            .unwrap_or(0);
        let cursor = processed % self.workers.len();
        streams.insert(
            name.to_string(),
            Arc::new(Mutex::new(CoordStream {
                spec: spec.clone(),
                processed,
                cursor,
                positions,
                conns,
                cached_query: None,
                metrics: StreamMetrics::new(),
            })),
        );
        if processed == 0 {
            Ok(Payload::Opened {
                name: name.to_string(),
            })
        } else {
            Ok(Payload::Attached {
                name: name.to_string(),
                processed,
            })
        }
    }

    fn stream(&self, name: &str) -> Result<Arc<Mutex<CoordStream>>, ErrorReply> {
        lock(&self.streams).get(name).cloned().ok_or_else(|| {
            ErrorReply::generic(format!(
                "no stream named `{name}` (OPEN or RESTORE one first)"
            ))
        })
    }

    /// `INSERTB` (and so `INSERT`, a one-element batch): the pipelined
    /// fan-out of already validated entry texts (`<id> <group> <x1> ...
    /// <xd>` each, as the client spelled them). Returns the stream
    /// position after the batch. The batch is flushed in rounds of at most
    /// `coord_batch` entries; each round is partitioned into per-worker
    /// sub-sequences by pure cursor arithmetic and all sub-batches fly
    /// **concurrently** as one `INSERTB` line each, written verbatim into
    /// that worker's cached connection — the first on the calling thread,
    /// the rest on scoped threads, so a one-element round spawns nothing.
    /// The cursor advances only on acknowledged applies, so the
    /// round-robin assignment stays exactly
    /// [`ShardedStream`](fdm_core::streaming::sharded::ShardedStream)'s.
    /// An entry is acknowledged only once its worker acknowledged the
    /// sub-batch containing it (or it was skipped as already held); on any
    /// failure the round acks the longest contiguous prefix and the typed
    /// error names the first blocking worker.
    pub fn insert_batch(
        &self,
        name: &str,
        entries: &[&str],
        coord_batch: usize,
    ) -> Result<usize, ErrorReply> {
        let stream = self.stream(name)?;
        let mut stream = lock(&stream);
        let start = Instant::now();
        // A send can apply on a worker even if its ack is lost, so the
        // merged solution goes stale on the *attempt*.
        stream.cached_query = None;
        let k = self.workers.len();
        for chunk in entries.chunks(coord_batch.max(1)) {
            // Partition: entry i of the chunk is global g = processed + i,
            // owned by worker g % k at 1-based position g / k + 1. Entries
            // the target worker already holds are skipped (see the module
            // docs on heal-by-skip).
            let base = stream.processed;
            let mut subs: Vec<Vec<&str>> = (0..k).map(|_| Vec::new()).collect();
            let mut routed: Vec<(usize, bool)> = Vec::with_capacity(chunk.len());
            for (i, entry) in chunk.iter().enumerate() {
                let g = base + i;
                let widx = g % k;
                let skip = stream.positions[widx] > g / k;
                if !skip {
                    subs[widx].push(entry);
                }
                routed.push((widx, skip));
            }
            // Dial (and re-attach) sequentially before the flush; the
            // flush threads then own only their worker's connection.
            for (widx, sub) in subs.iter().enumerate() {
                if !sub.is_empty() {
                    self.conn(&mut stream, name, widx)?;
                }
            }
            let mut jobs: Vec<(usize, Client, Vec<&str>)> = Vec::new();
            for (widx, sub) in subs.iter_mut().enumerate() {
                if !sub.is_empty() {
                    let client = stream.conns[widx].take().expect("dialed above");
                    jobs.push((widx, client, std::mem::take(sub)));
                }
            }
            let flush = |(widx, mut client, batch): (usize, Client, Vec<&str>)| {
                let result = client.insert_entries(&batch).map(|(seq, _count)| seq);
                (widx, client, result)
            };
            let mut jobs = jobs.into_iter();
            let first = jobs.next();
            let results: Vec<(usize, Client, Result<usize, ClientError>)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = jobs.map(|job| scope.spawn(move || flush(job))).collect();
                    first
                        .map(flush)
                        .into_iter()
                        .chain(
                            handles
                                .into_iter()
                                .map(|handle| handle.join().expect("batch flush thread panicked")),
                        )
                        .collect()
                });
            let mut worker_err: Vec<Option<ErrorReply>> = (0..k).map(|_| None).collect();
            for (widx, client, result) in results {
                match result {
                    Ok(worker_seq) => {
                        self.workers[widx].up.store(true, Ordering::SeqCst);
                        stream.positions[widx] = stream.positions[widx].max(worker_seq);
                        stream.conns[widx] = Some(client);
                    }
                    Err(ClientError::Server(err)) => {
                        // The worker answered: the sub-batch was rejected
                        // atomically (nothing applied), the connection
                        // stays usable.
                        stream.conns[widx] = Some(client);
                        worker_err[widx] = Some(err);
                    }
                    Err(e) => {
                        drop(client);
                        worker_err[widx] = Some(self.unavailable(&self.workers[widx], &e));
                    }
                }
            }
            // Ack the longest contiguous prefix of the chunk: an element
            // is applied iff it was skipped or its worker's whole
            // sub-batch was acknowledged (the worker-side apply is
            // atomic, so there is no partial sub-batch case).
            let mut acked = 0usize;
            for (widx, skipped) in &routed {
                if *skipped || worker_err[*widx].is_none() {
                    acked += 1;
                } else {
                    break;
                }
            }
            stream.processed += acked;
            stream.cursor = stream.processed % k;
            if acked < chunk.len() {
                let (widx, _) = routed[acked];
                return Err(worker_err[widx]
                    .take()
                    .expect("the prefix stopped at a failed worker"));
            }
        }
        stream.metrics.insert_latency.observe(start.elapsed());
        Ok(stream.processed)
    }

    /// One `MERGE` round trip against worker `widx`: its processed count
    /// and its union block, still encoded. A transport failure drops the
    /// connection; the next contact re-dials.
    fn pull_worker(
        &self,
        stream: &mut CoordStream,
        name: &str,
        widx: usize,
    ) -> Result<(usize, Vec<u8>), ErrorReply> {
        let client = self.conn(stream, name, widx)?;
        let (_algorithm, processed, bytes) = match client.merge() {
            Ok(reply) => reply,
            Err(ClientError::Server(err)) => return Err(err),
            Err(e) => {
                stream.conns[widx] = None;
                return Err(self.unavailable(&self.workers[widx], &e));
            }
        };
        self.workers[widx].up.store(true, Ordering::SeqCst);
        self.merge_bytes_full
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok((processed, bytes))
    }

    /// `QUERY`: answered from the cached merged solution when no insert
    /// intervened; otherwise a consistent cut under the stream mutex —
    /// pull every worker's union block, decode it (a block that does not
    /// decode, say a version-3 worker's snapshot frame, is an error naming
    /// the worker) and merge the unions in worker order (= shard order).
    pub fn query(&self, name: &str, k: Option<usize>) -> Result<Payload, ErrorReply> {
        let stream = self.stream(name)?;
        let mut stream = lock(&stream);
        let start = Instant::now();
        let configured = stream.spec.k;
        if let Some(k) = k {
            if k != configured {
                return Err(ErrorReply::generic(format!(
                    "QUERY k={k} but stream `{name}` is configured for k={configured}"
                )));
            }
        }
        if let Some(cached) = stream.cached_query.clone() {
            self.merge_cache_hits.fetch_add(1, Ordering::Relaxed);
            stream.metrics.query_latency.observe(start.elapsed());
            return Ok(Payload::Query(cached));
        }
        let mut total = 0;
        let mut unions = Vec::with_capacity(self.workers.len());
        for widx in 0..self.workers.len() {
            let pull = Instant::now();
            let (processed, bytes) = self.pull_worker(&mut stream, name, widx)?;
            let union = protocol::decode_union(&bytes).map_err(|e| {
                ErrorReply::generic(format!("worker {}: MERGE: {e}", self.workers[widx].addr))
            })?;
            stream.metrics.pull_latency.observe(pull.elapsed());
            total += processed;
            unions.push(union);
        }
        if total == 0 {
            return Err(ErrorReply::empty_stream(format!(
                "stream `{name}` has processed no elements; INSERT before QUERY"
            )));
        }
        let spec = stream
            .spec
            .to_summary_spec()
            .map_err(|e| ErrorReply::generic(e.to_string()))?;
        let merge = Instant::now();
        let solution = summary::merge_unions(&spec, unions, MERGE_FAN_IN)
            .map_err(|e| ErrorReply::generic(e.to_string()))?;
        stream.metrics.merge_latency.observe(merge.elapsed());
        let reply = QueryReply {
            k: solution.len(),
            diversity: solution.diversity,
            ids: solution.ids(),
        };
        stream.cached_query = Some(reply.clone());
        stream.metrics.query_latency.observe(start.elapsed());
        Ok(Payload::Query(reply))
    }

    /// `STATS`: the coordinator's routing counters plus per-worker health
    /// — one line, `stream=` first so it classifies as a stats payload.
    pub fn stats(&self, name: &str) -> Result<Payload, ErrorReply> {
        let stream = self.stream(name)?;
        let stream = lock(&stream);
        Ok(Payload::Stats(metrics::coordinator_stats(
            &sample(name, &stream),
            &self.workers,
            &stream.positions,
        )))
    }

    /// Every logical stream, as `/metrics` reports it.
    pub(crate) fn stream_samples(&self) -> Vec<StreamSample> {
        lock(&self.streams)
            .iter()
            .map(|(name, stream)| sample(name, &lock(stream)))
            .collect()
    }
}

/// What `STATS` and `/metrics` report of one logical stream.
fn sample(name: &str, stream: &CoordStream) -> StreamSample {
    StreamSample {
        name: name.to_string(),
        processed: stream.processed as u64,
        latency: stream.metrics.clone(),
        node: None,
        cursor: Some(stream.cursor as u64),
    }
}
