//! Coordinator mode: fan one logical stream out over N worker
//! `fdm-serve` nodes.
//!
//! With `--worker ADDR:PORT` flags the engine stops hosting summaries and
//! becomes a router:
//!
//! * `OPEN` forwards the (unsharded) spec to every worker, so each worker
//!   hosts one **shard** of the logical stream — with its own WAL,
//!   snapshot chain, and crash recovery;
//! * `INSERT` round-robins across the workers in fixed order, exactly the
//!   element-to-shard assignment
//!   [`ShardedStream`](fdm_core::streaming::sharded::ShardedStream) uses
//!   for arrival order; `INSERTB` splits a batch into per-worker
//!   sub-sequences by the same arithmetic (element *i* of a flush goes to
//!   worker `(cursor + i) % K`) and flushes all K sub-batches
//!   **concurrently**, one thread per worker — the round-trip cost of a
//!   batch is one RTT plus the slowest worker's apply, not N RTTs;
//! * `QUERY` pulls every worker's summary through the incremental
//!   `MERGE since=<epoch>:<crc>` verb: each worker answers an `FDMDELT2`
//!   delta against the coordinator's cached copy of its state when the
//!   anchor matches, or a full v2 frame otherwise. The per-worker caches
//!   merge through the registry's
//!   [`merge_summary_parts`](fdm_core::streaming::summary::merge_summary_parts)
//!   — the same instance + insertion order `ShardedStream::finalize`
//!   uses, so a coordinator over K workers answers **byte-identically**
//!   to a single-process `ShardedStream` with K shards fed the same
//!   arrivals (pinned by `tests/distributed.rs`). The merged solution is
//!   itself cached: a `QUERY` with no intervening `INSERT` is answered
//!   without touching the fleet.
//!
//! ## Coordinator state and restart
//!
//! The routing state is `processed` (elements acknowledged, in arrival
//! order), the cursor (`cursor ≡ processed mod K`), and per-worker
//! positions `p_w` (how many elements worker `w` holds, refreshed from
//! the worker's own count on every attach). Everything else — the cached
//! per-worker summaries and the cached merged solution — is soft state
//! protected by `(epoch, crc)` anchors: a stale or missing cache costs a
//! full frame, never a wrong answer.
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

use fdm_client::{Client, ClientError, MergeFrame};
use fdm_core::persist::{Snapshot, SnapshotDelta};
use fdm_core::point::Element;
use fdm_core::streaming::summary::{self, DynSummary};

use crate::engine::lock;
use crate::metrics::{help_type, StreamMetrics};
use crate::protocol::{ErrorReply, Payload, QueryReply, StreamSpec};

/// Total connect attempts per worker dial (first try + retries with
/// doubling backoff starting at [`INITIAL_BACKOFF`]).
const CONNECT_ATTEMPTS: usize = 5;

/// Backoff before the first connect retry; doubles per retry.
const INITIAL_BACKOFF: Duration = Duration::from_millis(25);

/// Tree-merge fan-in for wide worker fleets: more than this many summaries
/// reduce in chunks before the final merge (see
/// [`summary::merge_summary_parts`]).
const MERGE_FAN_IN: usize = 8;

/// Health of one worker node, shared between command paths and the
/// `/metrics` renderer.
struct WorkerState {
    addr: String,
    /// Last dial/command against this worker succeeded.
    up: AtomicBool,
    /// Commands that failed against this worker (transport-level).
    failures: AtomicU64,
}

/// The coordinator's cached copy of one worker's summary, kept current by
/// the incremental `MERGE since=` exchange. `(epoch, crc)` is the anchor
/// echoed back to the worker: a match means the worker's export mark
/// still describes `base`, so its reply is a delta `apply_to` accepts
/// (the delta's own `base_crc` re-verifies this before any bytes are
/// trusted). Any mismatch — first contact, worker restart, a second
/// consumer polling the same worker — yields a full frame that replaces
/// the whole cache.
struct WorkerCache {
    /// The worker's state as of the last frame, the base deltas chain on.
    base: Snapshot,
    /// `base`, restored — the merge input. Kept alongside the snapshot so
    /// a cache-hit `QUERY` restores nothing.
    summary: Box<dyn DynSummary>,
    /// Export anchor: bumped by the worker on every full frame…
    epoch: u64,
    /// …and the CRC of the exported state, advanced by every delta.
    crc: u32,
    /// The worker's processed count as of the last frame.
    processed: usize,
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
    /// Per-worker summary caches for the incremental `QUERY` fan-in.
    caches: Vec<Option<WorkerCache>>,
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
    workers: Vec<Arc<WorkerState>>,
    streams: Mutex<HashMap<String, Arc<Mutex<CoordStream>>>>,
    /// Snapshot bytes pulled from workers, split by frame kind — the
    /// direct measure of what the delta path saves.
    merge_bytes_full: AtomicU64,
    merge_bytes_delta: AtomicU64,
    /// `QUERY`s answered from the cached merged solution.
    merge_cache_hits: AtomicU64,
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
            merge_bytes_delta: AtomicU64::new(0),
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
        let k = self.workers.len();
        streams.insert(
            name.to_string(),
            Arc::new(Mutex::new(CoordStream {
                spec: spec.clone(),
                processed,
                cursor,
                positions,
                conns,
                caches: (0..k).map(|_| None).collect(),
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

    /// `INSERT`: route to the cursor's worker; advance the cursor only on
    /// an acknowledged apply, so the round-robin assignment stays exactly
    /// [`ShardedStream`](fdm_core::streaming::sharded::ShardedStream)'s.
    /// An element the target worker already holds (landed by a partial
    /// batch whose ack was lost) is acknowledged without re-sending.
    pub fn insert(&self, name: &str, element: &Element) -> Result<Payload, ErrorReply> {
        let stream = self.stream(name)?;
        let mut stream = lock(&stream);
        let start = Instant::now();
        // The send below can apply on the worker even if its ack is lost,
        // so the merged solution goes stale on the *attempt*.
        stream.cached_query = None;
        let k = self.workers.len();
        let g = stream.processed; // 0-based global index of this element
        let widx = stream.cursor; // == g % k by the cursor invariant
        let pos = g / k + 1; // 1-based position in widx's sub-stream
        if stream.positions[widx] >= pos {
            // Heal-by-skip: replay is deterministic, so the element the
            // worker already holds is this one.
            stream.processed += 1;
            stream.cursor = stream.processed % k;
            let seq = stream.processed;
            stream.metrics.insert_latency.observe(start.elapsed());
            return Ok(Payload::Inserted { seq });
        }
        let client = self.conn(&mut stream, name, widx)?;
        match client.insert(element) {
            Ok(worker_seq) => {
                self.workers[widx].up.store(true, Ordering::SeqCst);
                stream.positions[widx] = stream.positions[widx].max(worker_seq);
                stream.processed += 1;
                stream.cursor = stream.processed % k;
                let seq = stream.processed;
                stream.metrics.insert_latency.observe(start.elapsed());
                Ok(Payload::Inserted { seq })
            }
            // The worker answered: a typed rejection (dimension mismatch,
            // busy, ...) relays verbatim; the element was not applied, so
            // the cursor stays.
            Err(ClientError::Server(err)) => Err(err),
            Err(e) => {
                // Transport failure: the connection is poisoned (we may
                // have written the line without reading an ack — the
                // worker's WAL decides whether it applied; the re-attach
                // on the next command refreshes `p_w` either way). Drop
                // it, name the worker, leave the cursor for the client's
                // retry.
                stream.conns[widx] = None;
                Err(self.unavailable(&self.workers[widx], &e))
            }
        }
    }

    /// `INSERTB`: the pipelined fan-out. The batch is flushed in rounds
    /// of at most `coord_batch` elements; each round is partitioned into
    /// per-worker sub-sequences by pure cursor arithmetic and all
    /// sub-batches fly **concurrently**, one thread per worker, each over
    /// that worker's own cached connection. An element is acknowledged
    /// only once its worker acknowledged the sub-batch containing it (or
    /// it was skipped as already held); on any failure the round acks the
    /// longest contiguous prefix and the typed error names the first
    /// blocking worker.
    pub fn insert_batch(
        &self,
        name: &str,
        elements: &[Element],
        coord_batch: usize,
    ) -> Result<Payload, ErrorReply> {
        if elements.is_empty() {
            return Err(ErrorReply::generic("INSERTB requires at least one element"));
        }
        let stream = self.stream(name)?;
        let mut stream = lock(&stream);
        let start = Instant::now();
        stream.cached_query = None;
        let k = self.workers.len();
        let count = elements.len();
        for chunk in elements.chunks(coord_batch.max(1)) {
            // Partition: element i of the chunk is global g = processed +
            // i, owned by worker g % k at 1-based position g / k + 1.
            // Elements the target worker already holds are skipped (see
            // the module docs on heal-by-skip).
            let base = stream.processed;
            let mut subs: Vec<Vec<Element>> = (0..k).map(|_| Vec::new()).collect();
            let mut routed: Vec<(usize, bool)> = Vec::with_capacity(chunk.len());
            for (i, element) in chunk.iter().enumerate() {
                let g = base + i;
                let widx = g % k;
                let skip = stream.positions[widx] > g / k;
                if !skip {
                    subs[widx].push(element.clone());
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
            let mut jobs: Vec<(usize, Client, Vec<Element>)> = Vec::new();
            for (widx, sub) in subs.iter_mut().enumerate() {
                if !sub.is_empty() {
                    let client = stream.conns[widx].take().expect("dialed above");
                    jobs.push((widx, client, std::mem::take(sub)));
                }
            }
            let results: Vec<(usize, Client, Result<usize, ClientError>)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = jobs
                        .into_iter()
                        .map(|(widx, mut client, batch)| {
                            scope.spawn(move || {
                                let result = client.insert_batch(&batch).map(|(seq, _count)| seq);
                                (widx, client, result)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|handle| handle.join().expect("batch flush thread panicked"))
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
        let seq = stream.processed;
        stream.metrics.insert_latency.observe(start.elapsed());
        Ok(Payload::InsertedBatch { seq, count })
    }

    /// One `MERGE since=` round-trip against worker `widx`, accounting
    /// the transferred bytes by frame kind. A transport failure drops the
    /// connection *and* the worker's cache (the next contact re-anchors
    /// from scratch — a restarted worker's export epoch is fresh anyway).
    fn merge_frame(
        &self,
        stream: &mut CoordStream,
        name: &str,
        widx: usize,
        anchor: (u64, u32),
    ) -> Result<MergeFrame, ErrorReply> {
        let client = self.conn(stream, name, widx)?;
        match client.merge_since(anchor) {
            Ok(frame) => {
                self.workers[widx].up.store(true, Ordering::SeqCst);
                let counter = if frame.delta {
                    &self.merge_bytes_delta
                } else {
                    &self.merge_bytes_full
                };
                counter.fetch_add(frame.bytes.len() as u64, Ordering::Relaxed);
                Ok(frame)
            }
            Err(ClientError::Server(err)) => Err(err),
            Err(e) => {
                stream.conns[widx] = None;
                stream.caches[widx] = None;
                Err(self.unavailable(&self.workers[widx], &e))
            }
        }
    }

    /// Replaces worker `widx`'s cache with a full frame.
    fn anchor_full(
        &self,
        stream: &mut CoordStream,
        widx: usize,
        frame: MergeFrame,
    ) -> Result<(), ErrorReply> {
        if frame.delta {
            // Unreachable by construction (a worker never answers a delta
            // to a `(0, 0)` anchor — export epochs start at 1), but a
            // protocol violation must not become a panic.
            return Err(ErrorReply::generic(format!(
                "worker {} answered a delta frame to an unanchored MERGE",
                self.workers[widx].addr
            )));
        }
        let base =
            Snapshot::from_bytes(&frame.bytes).map_err(|e| ErrorReply::generic(e.to_string()))?;
        let summary = summary::restore(&base).map_err(|e| ErrorReply::generic(e.to_string()))?;
        stream.caches[widx] = Some(WorkerCache {
            base,
            summary,
            epoch: frame.epoch,
            crc: frame.crc,
            processed: frame.processed,
        });
        Ok(())
    }

    /// Brings worker `widx`'s cache current: one `MERGE since=` carrying
    /// the cached anchor. A delta reply advances the cache in place; a
    /// full reply replaces it. A delta that fails to apply (a cache the
    /// crc anchor says should match but does not — defensive, not an
    /// expected state) is retried once as a forced full fetch.
    fn refresh_worker(
        &self,
        stream: &mut CoordStream,
        name: &str,
        widx: usize,
    ) -> Result<(), ErrorReply> {
        let anchor = stream.caches[widx]
            .as_ref()
            .map_or((0, 0), |c| (c.epoch, c.crc));
        let frame = self.merge_frame(stream, name, widx, anchor)?;
        if frame.delta {
            let cache = stream.caches[widx]
                .as_mut()
                .expect("a delta reply implies a cached anchor was sent");
            let applied = SnapshotDelta::from_bytes(&frame.bytes)
                .and_then(|delta| delta.apply_to(&cache.base));
            match applied {
                Ok(next) => {
                    let summary =
                        summary::restore(&next).map_err(|e| ErrorReply::generic(e.to_string()))?;
                    cache.base = next;
                    cache.summary = summary;
                    cache.epoch = frame.epoch;
                    cache.crc = frame.crc;
                    cache.processed = frame.processed;
                    return Ok(());
                }
                Err(_) => {
                    stream.caches[widx] = None;
                    let frame = self.merge_frame(stream, name, widx, (0, 0))?;
                    return self.anchor_full(stream, widx, frame);
                }
            }
        }
        self.anchor_full(stream, widx, frame)
    }

    /// `QUERY`: answered from the cached merged solution when no insert
    /// intervened; otherwise a consistent cut under the stream mutex —
    /// refresh every worker's cache (deltas where anchored, full frames
    /// where not) and merge the caches through the registry in worker
    /// order (= shard order), without moving them.
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
        for widx in 0..self.workers.len() {
            self.refresh_worker(&mut stream, name, widx)?;
        }
        let total: usize = stream
            .caches
            .iter()
            .map(|c| c.as_ref().map_or(0, |c| c.processed))
            .sum();
        if total == 0 {
            return Err(ErrorReply::empty_stream(format!(
                "stream `{name}` has processed no elements; INSERT before QUERY"
            )));
        }
        let spec = stream
            .spec
            .to_summary_spec()
            .map_err(|e| ErrorReply::generic(e.to_string()))?;
        let parts: Vec<&dyn DynSummary> = stream
            .caches
            .iter()
            .map(|c| c.as_ref().expect("refreshed above").summary.as_ref())
            .collect();
        let solution = summary::merge_summary_parts(&spec, &parts, MERGE_FAN_IN)
            .map_err(|e| ErrorReply::generic(e.to_string()))?;
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
        let mut line = format!(
            "stream={name} coordinator=1 workers={} processed={} cursor={}",
            self.workers.len(),
            stream.processed,
            stream.cursor
        );
        for (widx, worker) in self.workers.iter().enumerate() {
            line.push_str(&format!(
                " worker{widx}={} worker{widx}_up={} worker{widx}_failures={} \
                 worker{widx}_position={}",
                worker.addr,
                u8::from(worker.up.load(Ordering::SeqCst)),
                worker.failures.load(Ordering::SeqCst),
                stream.positions[widx]
            ));
        }
        Ok(Payload::Stats(line))
    }

    /// Appends the coordinator's metric families to a `/metrics`
    /// exposition: per-stream routing latency histograms (`fdm_coord_*` —
    /// distinct names because the engine always emits the single-node
    /// family preambles), merge transfer volume by frame kind, solution
    /// cache hits, and per-worker health.
    pub fn render_metrics(&self, out: &mut String) {
        let mut streams: Vec<(String, Arc<StreamMetrics>)> = lock(&self.streams)
            .iter()
            .map(|(name, stream)| (name.clone(), lock(stream).metrics.clone()))
            .collect();
        streams.sort_by(|a, b| a.0.cmp(&b.0));
        help_type(
            out,
            "fdm_coord_insert_latency_seconds",
            "histogram",
            "Coordinator INSERT/INSERTB latency (routing + worker round-trips).",
        );
        for (name, metrics) in &streams {
            metrics.insert_latency.render(
                out,
                "fdm_coord_insert_latency_seconds",
                &format!("stream=\"{name}\","),
            );
        }
        help_type(
            out,
            "fdm_coord_query_latency_seconds",
            "histogram",
            "Coordinator QUERY latency (cache refresh + merge, or a cache hit).",
        );
        for (name, metrics) in &streams {
            metrics.query_latency.render(
                out,
                "fdm_coord_query_latency_seconds",
                &format!("stream=\"{name}\","),
            );
        }
        help_type(
            out,
            "fdm_merge_bytes_total",
            "counter",
            "Snapshot bytes pulled from workers by QUERY fan-in, by frame kind.",
        );
        out.push_str(&format!(
            "fdm_merge_bytes_total{{kind=\"full\"}} {}\n",
            self.merge_bytes_full.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "fdm_merge_bytes_total{{kind=\"delta\"}} {}\n",
            self.merge_bytes_delta.load(Ordering::Relaxed)
        ));
        help_type(
            out,
            "fdm_merge_cache_hits_total",
            "counter",
            "QUERYs answered from the cached merged solution without touching the fleet.",
        );
        out.push_str(&format!(
            "fdm_merge_cache_hits_total {}\n",
            self.merge_cache_hits.load(Ordering::Relaxed)
        ));
        help_type(
            out,
            "fdm_worker_up",
            "gauge",
            "Whether the last command against each worker succeeded.",
        );
        for worker in &self.workers {
            out.push_str(&format!(
                "fdm_worker_up{{worker=\"{}\"}} {}\n",
                worker.addr,
                u8::from(worker.up.load(Ordering::SeqCst))
            ));
        }
        help_type(
            out,
            "fdm_worker_failures_total",
            "counter",
            "Transport-level command failures per worker.",
        );
        for worker in &self.workers {
            out.push_str(&format!(
                "fdm_worker_failures_total{{worker=\"{}\"}} {}\n",
                worker.addr,
                worker.failures.load(Ordering::SeqCst)
            ));
        }
    }
}
