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
//!   `(cursor + i) % K`, and all K per-worker sub-batches are written
//!   before any reply is read, so the workers apply **concurrently** — the
//!   round-trip cost of a batch is one RTT plus the slowest worker's
//!   apply, not N RTTs. `INSERT` is a one-element
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
//!   the coordinator. The `MERGE` requests are pipelined the same way as
//!   inserts: written to every worker, then read in worker order. The
//!   merge instance is rebuilt on every uncached `QUERY`, but a per-stream
//!   [`MergeMemo`] carries its per-guess post-processing results over, so
//!   only guesses whose candidates changed rerun. The merged solution is
//!   itself cached: a `QUERY` with no intervening `INSERT` is answered
//!   without touching the fleet.
//!
//! ## Coordinator state and restart
//!
//! The routing state is `processed` (elements acknowledged, in arrival
//! order), the cursor (`cursor ≡ processed mod K`), and per-worker
//! positions `p_w` (how many elements worker `w` holds, refreshed from
//! the worker's own count on every attach), and the element dimension
//! (from the first acknowledged insert, or on `OPEN` from the `STATS` of a
//! worker that holds elements): an element of another dimension is refused
//! with a typed `ERR` before anything is routed, since the workers each
//! fix their dimension from their own first element and could otherwise
//! disagree. The only other state is the cached merged solution, which
//! every insert attempt drops, and the merge's per-guess memo; the
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
use fdm_core::error::FdmError;
use fdm_core::point::Element;
use fdm_core::streaming::memo::GuessTally;
use fdm_core::streaming::summary::{self, MergeMemo};

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

/// Most entries of one `INSERTB` fanned out per flush round. A larger
/// client batch goes out in successive rounds, so each re-separated
/// sub-batch line stays far below the worker's 1 MiB frame guard however
/// large the client's line was, and one giant batch cannot pin every
/// worker connection for its whole duration.
const FLUSH_ROUND: usize = 256;

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
    /// The element dimension: from the first acknowledged insert, or from
    /// a worker that already held elements when the stream was opened.
    /// Every later element must match it.
    dim: Option<usize>,
    /// The last merged solution; invalidated by any insert attempt.
    cached_query: Option<QueryReply>,
    /// The merge pass's per-guess memo, carried from one uncached `QUERY`
    /// to the next.
    merge_memo: MergeMemo,
    /// Coordinator-side request latencies (`fdm_coord_*` families) and
    /// the merge's finalize guesses.
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
        let dim = match positions.iter().position(|&p| p > 0) {
            Some(widx) => {
                let client = conns[widx].as_mut().expect("attached above");
                Some(self.worker_dim(widx, client)?)
            }
            None => None,
        };
        streams.insert(
            name.to_string(),
            Arc::new(Mutex::new(CoordStream {
                spec: spec.clone(),
                processed,
                cursor,
                positions,
                conns,
                dim,
                cached_query: None,
                merge_memo: MergeMemo::default(),
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

    /// The element dimension of the stream worker `widx` holds elements
    /// of, from its `STATS` line.
    fn worker_dim(&self, widx: usize, client: &mut Client) -> Result<usize, ErrorReply> {
        let worker = &self.workers[widx];
        let line = match client.stats() {
            Ok(line) => line,
            Err(ClientError::Server(err)) => return Err(err),
            Err(e) => return Err(self.unavailable(worker, &e)),
        };
        line.split_whitespace()
            .find_map(|field| field.strip_prefix("dim=")?.parse().ok())
            .filter(|&dim| dim > 0)
            .ok_or_else(|| {
                ErrorReply::generic(format!(
                    "worker {}: STATS reports no element dimension: {line}",
                    worker.addr
                ))
            })
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
    /// <xd>` each, as the client spelled them; `elements` are their parsed
    /// form). Returns the stream position after the batch. Every element
    /// must have the stream's dimension (see the module docs); a
    /// request with one that does not is refused whole, before anything is
    /// routed. The batch is flushed in rounds of at most 256
    /// entries; each round is partitioned into per-worker sub-sequences by
    /// pure cursor arithmetic, every sub-batch is written as one `INSERTB`
    /// line into its worker's cached connection, and only then are the
    /// replies read, in worker order — the workers apply concurrently
    /// while the coordinator waits on the first. The cursor advances only
    /// on acknowledged applies, so the round-robin assignment stays
    /// exactly [`ShardedStream`](fdm_core::streaming::sharded::ShardedStream)'s.
    /// An entry is acknowledged only once its worker acknowledged the
    /// sub-batch containing it (or it was skipped as already held); on any
    /// failure the round acks the longest contiguous prefix and the typed
    /// error names the first blocking worker.
    pub fn insert_batch(
        &self,
        name: &str,
        elements: &[Element],
        entries: &[&str],
    ) -> Result<usize, ErrorReply> {
        let stream = self.stream(name)?;
        let mut stream = lock(&stream);
        let start = Instant::now();
        let dim = stream
            .dim
            .or_else(|| elements.first().map(Element::dim))
            .unwrap_or(0);
        if let Some(bad) = elements.iter().find(|e| e.dim() != dim) {
            return Err(ErrorReply::generic(
                FdmError::DimensionMismatch {
                    expected: dim,
                    found: bad.dim(),
                }
                .to_string(),
            ));
        }
        // A send can apply on a worker even if its ack is lost, so the
        // merged solution goes stale on the *attempt*.
        stream.cached_query = None;
        let k = self.workers.len();
        for chunk in entries.chunks(FLUSH_ROUND) {
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
            // Dial (and re-attach) before anything is written.
            for (widx, sub) in subs.iter().enumerate() {
                if !sub.is_empty() {
                    self.conn(&mut stream, name, widx)?;
                }
            }
            // Write every sub-batch, then read the replies in worker order.
            let mut worker_err: Vec<Option<ErrorReply>> = (0..k).map(|_| None).collect();
            let mut written = vec![false; k];
            for (widx, sub) in subs.iter().enumerate() {
                if sub.is_empty() {
                    continue;
                }
                let client = stream.conns[widx].as_mut().expect("dialed above");
                match client.write_insert_entries(sub) {
                    Ok(()) => written[widx] = true,
                    Err(e) => {
                        stream.conns[widx] = None;
                        worker_err[widx] = Some(self.unavailable(&self.workers[widx], &e));
                    }
                }
            }
            for widx in (0..k).filter(|&w| written[w]) {
                let client = stream.conns[widx].as_mut().expect("written above");
                match client.read_inserted_batch() {
                    Ok((worker_seq, _count)) => {
                        self.workers[widx].up.store(true, Ordering::SeqCst);
                        stream.positions[widx] = stream.positions[widx].max(worker_seq);
                    }
                    // The worker answered: the sub-batch was rejected
                    // atomically (nothing applied), the connection stays
                    // usable.
                    Err(ClientError::Server(err)) => worker_err[widx] = Some(err),
                    Err(e) => {
                        stream.conns[widx] = None;
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
            if acked > 0 {
                stream.dim = Some(dim);
            }
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

    /// `QUERY`: answered from the cached merged solution when no insert
    /// intervened; otherwise a consistent cut under the stream mutex —
    /// pull every worker's union block (pipelined, see the module docs) and
    /// merge the unions in worker order (= shard order) through the
    /// stream's merge memo.
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
        let pulled = self.pull_unions(&mut stream, name)?;
        let total: usize = pulled.iter().map(|(processed, _)| processed).sum();
        if total == 0 {
            return Err(ErrorReply::empty_stream(format!(
                "stream `{name}` has processed no elements; INSERT before QUERY"
            )));
        }
        let unions = pulled.into_iter().map(|(_, union)| union).collect();
        let spec = stream
            .spec
            .to_summary_spec()
            .map_err(|e| ErrorReply::generic(e.to_string()))?;
        let merge = Instant::now();
        let mut tally = GuessTally::default();
        let solution = summary::merge_unions(
            &spec,
            unions,
            MERGE_FAN_IN,
            &mut stream.merge_memo,
            &mut tally,
        );
        stream.metrics.count_guesses(tally);
        let solution = solution.map_err(|e| ErrorReply::generic(e.to_string()))?;
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

    /// The pipelined `MERGE` fan-out of [`Coordinator::query`]: a `MERGE`
    /// goes to every worker before any reply is read, so the workers
    /// encode concurrently; the replies are read and decoded in worker
    /// order. Every written request's reply is read even after a failure,
    /// so no connection is left holding an unread reply; the error
    /// returned is the first failing worker's. A transport failure drops
    /// that worker's connection; the next contact re-dials. Each
    /// `fdm_coord_pull_seconds` observation is one worker's share of the
    /// pull: from its start (dialing included) or the previous worker's
    /// decode to this worker's, so one `QUERY`'s observations sum to the
    /// pull phase.
    fn pull_unions(
        &self,
        stream: &mut CoordStream,
        name: &str,
    ) -> Result<Vec<(usize, Vec<Element>)>, ErrorReply> {
        let k = self.workers.len();
        let mut mark = Instant::now();
        for widx in 0..k {
            self.conn(stream, name, widx)?;
        }
        let written: Vec<Option<ErrorReply>> = (0..k)
            .map(|widx| {
                let client = stream.conns[widx].as_mut().expect("dialed above");
                let e = client.write_merge().err()?;
                stream.conns[widx] = None;
                Some(self.unavailable(&self.workers[widx], &e))
            })
            .collect();
        let mut pulls = Vec::with_capacity(k);
        for (widx, write_err) in written.into_iter().enumerate() {
            let pull = match write_err {
                Some(err) => Err(err),
                None => self.read_union(stream, widx),
            };
            if pull.is_ok() {
                stream.metrics.pull_latency.observe(mark.elapsed());
            }
            mark = Instant::now();
            pulls.push(pull);
        }
        pulls.into_iter().collect()
    }

    /// Reads and decodes worker `widx`'s `MERGE` reply: its processed
    /// count and union. A block that does not decode (say a version-3
    /// worker's snapshot frame) is an error naming the worker.
    fn read_union(
        &self,
        stream: &mut CoordStream,
        widx: usize,
    ) -> Result<(usize, Vec<Element>), ErrorReply> {
        let worker = &self.workers[widx];
        let client = stream.conns[widx].as_mut().expect("MERGE written");
        let (_algorithm, processed, bytes) = match client.read_merge() {
            Ok(reply) => reply,
            Err(ClientError::Server(err)) => return Err(err),
            Err(e) => {
                stream.conns[widx] = None;
                return Err(self.unavailable(worker, &e));
            }
        };
        worker.up.store(true, Ordering::SeqCst);
        self.merge_bytes_full
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let union = protocol::decode_union(&bytes)
            .map_err(|e| ErrorReply::generic(format!("worker {}: MERGE: {e}", worker.addr)))?;
        Ok((processed, union))
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
