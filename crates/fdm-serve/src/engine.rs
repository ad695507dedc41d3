//! The serving engine: named streams, snapshots, WAL, crash recovery.
//!
//! The engine is the process-wide registry behind every session. Streams
//! are built and restored exclusively through `fdm-core`'s
//! [`fdm_core::streaming::summary`] registry — the engine holds
//! [`Box<dyn DynSummary>`] and never knows which algorithm (or shard
//! wrapping) it is hosting, so adding an algorithm to the family adds
//! nothing here.
//!
//! ## Concurrency
//!
//! Three lock tiers, always taken in this order:
//!
//! 1. the **registry** (`RwLock<HashMap>`) — held for map lookups (read)
//!    and for stream *creation* (write). Lookups never hold it across
//!    algorithm work or disk I/O; creation (`OPEN`/`RESTORE` of a new
//!    name) deliberately does hold the write lock through the first
//!    durable anchor, so two sessions racing the same name can never
//!    register two entries sharing one WAL — a rare, bounded stall on a
//!    rare operation, traded for chain integrity;
//! 2. each stream's **durable state** (`Mutex`: WAL handle, checkpoint
//!    chain, persistence counters) — the per-stream *write* serialization
//!    point: every `INSERT` holds it across append→apply→checkpoint, so
//!    sequence numbers and the log stay in lockstep;
//! 3. each stream's **summary** (`RwLock<Box<dyn DynSummary>>`) — writers
//!    hold it only for the in-memory apply; `QUERY`/`STATS` and snapshot
//!    *capture* take read locks.
//!
//! Consequences the stress suite pins: sessions on different streams never
//! contend; concurrent `QUERY`s on one stream run in parallel; and
//! snapshot **encode + disk write happen off the summary lock** (capture
//! clones the state under a read lock, the expensive part runs after it is
//! released), so an explicit `SNAPSHOT` of a large stream never stalls
//! that stream's readers — or its writers.
//!
//! ## Durability
//!
//! All optional, enabled by [`ServeConfig::data_dir`]:
//!
//! * every accepted `INSERT` is appended to `<data_dir>/<name>.wal`
//!   *before* it is applied (write-ahead), one sequence-numbered protocol
//!   line per element, each carrying a CRC32 of its own body (so a torn
//!   append can never replay as silently-wrong state);
//! * every [`ServeConfig::snapshot_every`] inserts the summary is
//!   checkpointed (atomically — temp file + rename) and the WAL
//!   truncated. The checkpoint is an **incremental delta**
//!   (`<name>.delta.<i>`, a [`SnapshotDelta`]) built from the summary's
//!   own dirty set: the stream reports an O(changed) [`fdm_core::persist::StatePatch`] since
//!   the last capture, lowered against a retained [`CaptureMark`] digest
//!   tree — the full state is neither cloned nor re-walked, and the bytes
//!   are identical to what a full-tree diff would have produced;
//! * once the chain holds [`ServeConfig::full_every`] deltas a
//!   **background compactor** collapses `full + delta*` into a fresh
//!   `<name>.snap` off the insert path (the decode/encode runs off every
//!   lock; only the final rename and cleanup briefly take the stream's
//!   durable mutex, guarded by a chain epoch). Full snapshots are written
//!   inline only where a delta cannot exist: stream creation, recovery,
//!   drain, `RESTORE`, a summary rewrite the dirty set cannot express
//!   (e.g. a sliding-window rotation), `full_every = 0`, and the backstop
//!   when the chain outgrows `COMPACTION_BACKSTOP`× the cap;
//! * [`Engine::new`] recovers by restoring each `.snap`, chaining every
//!   `<name>.delta.*` found on disk in index order (each link's base
//!   checksum is verified; a stale link left by a crash inside an anchor
//!   or compaction cleanup window is skipped, later links may chain off
//!   the collapsed state), and replaying the WAL through the same parser
//!   the live protocol uses. Sequence numbers make replay exactly-once: a
//!   crash between a checkpoint write and the WAL truncation leaves
//!   records the checkpoint already contains, and recovery skips them
//!   instead of double-applying. A recovered stream is therefore
//!   bit-identical to one that never went down.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use fdm_core::error::{FdmError, Result};
use fdm_core::persist::{CaptureMark, Snapshot, SnapshotDelta, SnapshotFormat, SnapshotParams};
use fdm_core::point::Element;
use fdm_core::streaming::summary::{self, DynSummary};
use serde::Value;

use crate::coordinator::Coordinator;
use crate::metrics::{self, Metrics, StreamMetrics};
use crate::protocol::{parse_insert, ErrorReply, Payload, QueryReply, Request, StreamSpec};

/// Acquires a shared read lock, recovering from poison: a panic in one
/// tenant's session (contained at the session boundary) must degrade to
/// one failed request, not brick every other tenant on a poisoned lock.
/// Readers cannot poison an `RwLock`, so the inner value a recovered
/// guard exposes is whatever the panicking *writer* left — the write
/// paths below keep that window to a single `DynSummary::insert` call.
pub(crate) fn read_lock<T: ?Sized>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Poison-recovering exclusive acquisition; see [`read_lock`].
pub(crate) fn write_lock<T: ?Sized>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Poison-recovering mutex acquisition; see [`read_lock`].
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Renders a caught panic payload (the `&str`/`String` forms `panic!`
/// produces) for a typed `ERR` reply.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Engine-level durability configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory for per-stream snapshots + WALs; `None` disables
    /// durability (streams live only in memory).
    pub data_dir: Option<PathBuf>,
    /// Auto-checkpoint (and truncate the WAL) every N accepted inserts;
    /// `None` keeps the WAL growing until an explicit `SNAPSHOT`.
    pub snapshot_every: Option<u64>,
    /// Chain length cap for incremental checkpoints: after this many
    /// deltas the next auto-checkpoint collapses the chain into a fresh
    /// full snapshot. `0` disables deltas (every checkpoint is full).
    pub full_every: u64,
    /// Backpressure bound: at most this many `INSERT`s may be in flight
    /// or queued per stream; further ones get `ERR busy` instead of
    /// piling another blocked thread onto the stream's write lock.
    pub max_pending_inserts: usize,
    /// Per-stream insert rate limit (token bucket, one-second burst);
    /// `None` disables. Over-limit `INSERT`s get `ERR busy`.
    pub rate_limit: Option<f64>,
    /// Coordinator mode: `ADDR:PORT` of each worker `fdm-serve` node.
    /// Non-empty turns this engine into a stateless router — `INSERT`s
    /// round-robin across the workers, `QUERY` merges their summaries
    /// pulled via `MERGE` (see [`crate::coordinator`]). Empty (the
    /// default) is the ordinary single-node engine.
    pub workers: Vec<String>,
    /// Coordinator flush bound: at most this many elements of one
    /// `INSERTB` are fanned out per concurrent flush round. Larger client
    /// batches are split into successive rounds, so a single giant batch
    /// cannot pin every per-worker connection for its whole duration.
    pub coord_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            data_dir: None,
            snapshot_every: None,
            full_every: 8,
            max_pending_inserts: 256,
            rate_limit: None,
            workers: Vec::new(),
            coord_batch: 256,
        }
    }
}

/// Per-stream token-bucket insert limiter: refills at `per_sec`, holds at
/// most one second of burst. Guarded by its own tiny mutex — held only for
/// the arithmetic, never across I/O.
struct TokenBucket {
    tokens: f64,
    capacity: f64,
    per_sec: f64,
    last_refill: Instant,
}

impl TokenBucket {
    fn new(per_sec: f64) -> TokenBucket {
        let capacity = per_sec.max(1.0);
        TokenBucket {
            tokens: capacity,
            capacity,
            per_sec,
            last_refill: Instant::now(),
        }
    }

    fn try_take(&mut self) -> bool {
        self.try_take_n(1)
    }

    /// Batch admission: charges one token per element. A batch larger
    /// than the one-second burst capacity is clamped to it — it drains
    /// the bucket completely instead of being unpassable forever.
    fn try_take_n(&mut self, n: usize) -> bool {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed * self.per_sec).min(self.capacity);
        let cost = (n as f64).min(self.capacity);
        if self.tokens >= cost {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }
}

/// Per-stream persistence health, reported over the wire by `STATS` so an
/// operator can see checkpointing working (or not) without shelling into
/// the data directory.
#[derive(Debug, Clone, Copy, Default)]
struct PersistCounters {
    /// WAL records appended since this process opened the stream.
    wal_records: u64,
    /// Full snapshot files written (auto-checkpoints, anchors, and
    /// explicit `SNAPSHOT` exports).
    full_snapshots: u64,
    /// Incremental delta files written.
    delta_snapshots: u64,
    /// Total encoded bytes of the dirty-set deltas written — the actual
    /// checkpoint I/O volume, which should track the change rate, not the
    /// stream size.
    dirty_bytes: u64,
    /// Background chain collapses committed by the compactor.
    compactions: u64,
    /// Encoded size of the most recent checkpoint/export, in bytes.
    last_snapshot_bytes: u64,
    /// Kind of the most recent checkpoint/export: `bin` (full) or
    /// `delta`.
    last_snapshot_format: Option<&'static str>,
}

/// WAL + checkpoint-chain state of one stream, guarded by its own
/// [`Mutex`] — the summary `RwLock` is **not** held while this is used for
/// disk I/O.
struct DurableState {
    /// Open append handle to the WAL (present iff `data_dir` is set).
    wal: Option<File>,
    /// Digest tree of the last captured state (present iff `data_dir` is
    /// set): the [`CaptureMark`] dirty-set deltas are lowered against. It
    /// retains per-node lengths and CRCs — O(structure), not O(data) —
    /// replacing the full `Snapshot` clone the old full-tree diff needed.
    mark: Option<CaptureMark>,
    /// The summary's own capture cursor paired with `mark`: the opaque
    /// watermark value [`DynSummary::state_patch_since`] diffs from.
    cursor: Option<Value>,
    /// Index the next `<name>.delta.<i>` file will use. Monotonic within
    /// a chain epoch (the compactor removes collapsed prefixes without
    /// renumbering the survivors); reset to 1 by every inline anchor.
    next_delta_index: u64,
    /// Bumped by every inline full anchor. A compaction job commits only
    /// if the epoch still matches the one it was enqueued under — an
    /// anchor in between means the job's collapsed snapshot describes a
    /// superseded chain and must be discarded.
    chain_epoch: u64,
    /// Live (uncollapsed) deltas on disk (drives `full_every` and the
    /// inline backstop).
    deltas_since_full: u64,
    /// Set while a compaction job for this stream is queued or running;
    /// prevents the checkpoint path from flooding the compactor queue.
    compaction_pending: bool,
    /// Inserts applied since the last auto-checkpoint (drives
    /// `snapshot_every`).
    inserts_since_snapshot: u64,
    counters: PersistCounters,
}

impl DurableState {
    fn new() -> DurableState {
        DurableState {
            wal: None,
            mark: None,
            cursor: None,
            next_delta_index: 1,
            chain_epoch: 0,
            deltas_since_full: 0,
            compaction_pending: false,
            inserts_since_snapshot: 0,
            counters: PersistCounters::default(),
        }
    }
}

/// Wire-export anchor for the incremental `MERGE since=` path: the
/// [`CaptureMark`] + capture cursor of the state this stream last shipped
/// to a merge consumer, plus the `(epoch, crc)` pair that consumer must
/// echo back to receive a delta instead of a full frame.
///
/// This is **soft state, fully independent of the checkpoint chain**: the
/// summary's capture cursors are stateless positional markers, so the
/// export path diffing from `cursor` never perturbs the durable path
/// diffing from its own. Guarded by its own mutex — taken *before* the
/// summary read lock, never together with the durable mutex. One export
/// anchor serves one consumer: two coordinators polling the same worker
/// ping-pong each other back to full frames (correct, just uncached).
struct ExportState {
    /// Digest tree of the last exported state; `None` until the first
    /// full frame is served (or after an unlowerable rewrite invalidated
    /// it).
    mark: Option<CaptureMark>,
    /// The summary capture cursor paired with `mark`.
    cursor: Value,
    /// Bumped on every full frame served. An `(epoch, crc)` echo matches
    /// only if both halves do, so a consumer anchored on a superseded
    /// full frame can never be fed a delta built for a newer one.
    epoch: u64,
    /// CRC of the last exported state — the other half of the anchor.
    crc: u32,
}

impl ExportState {
    fn new() -> ExportState {
        ExportState {
            mark: None,
            cursor: Value::Null,
            epoch: 0,
            crc: 0,
        }
    }
}

/// One hosted stream: the summary behind a readers–writer lock, with the
/// durability state split off behind its own mutex (see the module docs
/// for the locking protocol).
struct StreamEntry {
    summary: RwLock<Box<dyn DynSummary>>,
    durable: Mutex<DurableState>,
    /// Soft anchor for incremental `MERGE since=` exports.
    export: Mutex<ExportState>,
    /// Latency histograms, reachable from the hot path without a map
    /// lookup; rendered by [`Engine::render_metrics`].
    metrics: Arc<StreamMetrics>,
    /// `INSERT`s currently in flight or waiting on `durable` — the
    /// bounded pending queue behind `ERR busy`.
    pending_inserts: AtomicUsize,
    /// Optional per-stream insert rate limiter.
    limiter: Option<Mutex<TokenBucket>>,
}

impl StreamEntry {
    fn new(summary: Box<dyn DynSummary>, rate_limit: Option<f64>) -> StreamEntry {
        StreamEntry {
            summary: RwLock::new(summary),
            durable: Mutex::new(DurableState::new()),
            export: Mutex::new(ExportState::new()),
            metrics: StreamMetrics::new(),
            pending_inserts: AtomicUsize::new(0),
            limiter: rate_limit.map(|per_sec| Mutex::new(TokenBucket::new(per_sec))),
        }
    }

    /// The envelope parameters of the hosted summary (short read lock).
    fn params(&self) -> SnapshotParams {
        read_lock(&self.summary).params()
    }
}

/// Decrements a pending-insert counter on every exit path, panics
/// included.
struct PendingGuard<'a>(&'a AtomicUsize);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Deterministic crash injection for the crash-recovery test matrix: when
/// `FDM_SERVE_CRASH_POINT` names this point (`<point>` or `<point>:<n>`
/// to arm the n-th hit, e.g. the second full snapshot), the process
/// aborts here — the same no-cleanup death as SIGKILL, but placeable
/// between any two persistence steps. Inert (one env read) in production.
fn crash_requested(point: &str) -> bool {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    static HITS: AtomicU64 = AtomicU64::new(0);
    // The environment cannot change after startup; cache the parsed
    // directive so the production path (every INSERT passes a crash
    // point) is one static read, not an env lookup.
    static ARMED: OnceLock<Option<(String, u64)>> = OnceLock::new();
    let armed = ARMED.get_or_init(|| {
        let value = std::env::var("FDM_SERVE_CRASH_POINT").ok()?;
        let (name, nth) = match value.split_once(':') {
            Some((name, n)) => (name.to_string(), n.parse::<u64>().unwrap_or(1)),
            None => (value, 1),
        };
        Some((name, nth))
    });
    let Some((name, nth)) = armed else {
        return false;
    };
    if name != point {
        return false;
    }
    // Only one point is ever armed per process, so one global counter
    // tracks its hits.
    HITS.fetch_add(1, Ordering::SeqCst) + 1 == *nth
}

fn crash_point(point: &str) {
    if crash_requested(point) {
        eprintln!("fdm-serve: crash point `{point}` hit; aborting");
        std::process::abort();
    }
}

/// Deterministic **panic** injection for the containment suite: when
/// `FDM_SERVE_PANIC_POINT` names this point, the calling thread panics —
/// exactly the failure the catch-unwind boundaries and poison-recovering
/// locks must degrade to one `ERR` reply. Directive grammar:
///
/// * `<point>` — every hit panics;
/// * `<point>:<n>` (numeric) — only the n-th hit panics;
/// * `<point>:<detail>` — only hits whose `detail` (e.g. the stream
///   name) matches panic.
///
/// Inert (one cached env read) in production.
pub(crate) fn panic_point(point: &str, detail: &str) {
    use std::sync::atomic::AtomicU64;
    use std::sync::OnceLock;
    static HITS: AtomicU64 = AtomicU64::new(0);
    static ARMED: OnceLock<Option<(String, Option<String>)>> = OnceLock::new();
    let armed = ARMED.get_or_init(|| {
        let value = std::env::var("FDM_SERVE_PANIC_POINT").ok()?;
        match value.split_once(':') {
            Some((name, filter)) => Some((name.to_string(), Some(filter.to_string()))),
            None => Some((value, None)),
        }
    });
    let Some((name, filter)) = armed else {
        return;
    };
    if name != point {
        return;
    }
    let fire = match filter.as_deref() {
        None => true,
        Some(f) => match f.parse::<u64>() {
            Ok(nth) => HITS.fetch_add(1, Ordering::SeqCst) + 1 == nth,
            Err(_) => f == detail,
        },
    };
    if fire {
        panic!("deliberate test panic at `{point}` ({detail})");
    }
}

/// Simulates dying halfway through writing `bytes` to the temp file
/// behind `path` — the torn-write case the atomic rename protocol exists
/// to survive. The real file is never renamed into place.
fn crash_mid_write(path: &Path, bytes: &[u8]) {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}.crash", std::process::id()));
    let _ = std::fs::write(tmp, &bytes[..bytes.len() / 2]);
    eprintln!(
        "fdm-serve: crash point mid-write of {}; aborting",
        path.display()
    );
    std::process::abort();
}

/// Test-only slowdown of the snapshot *disk-write* phase
/// (`FDM_SERVE_SNAPSHOT_PAUSE_MS`): the concurrency suite uses it to prove
/// the write happens off the summary lock — inserts and queries must
/// complete while a paused snapshot write is in flight. Inert (one cached
/// env read) in production.
fn snapshot_write_pause() {
    use std::sync::OnceLock;
    static PAUSE: OnceLock<Option<u64>> = OnceLock::new();
    let pause = PAUSE.get_or_init(|| {
        std::env::var("FDM_SERVE_SNAPSHOT_PAUSE_MS")
            .ok()
            .and_then(|v| v.parse().ok())
    });
    if let Some(ms) = pause {
        std::thread::sleep(std::time::Duration::from_millis(*ms));
    }
}

/// First line of every WAL written by this build. Its presence switches
/// replay into strict mode (every applied record must carry a valid
/// per-record checksum); WALs from builds predating the marker replay in
/// legacy mode. The `0` sequence number means even a foreign replayer
/// that ignores the marker would dedupe it as "already applied".
const WAL_HEADER: &str = "0 WALV2";

/// Appends the per-record integrity suffix: ` #<crc32 of the record body
/// in hex>`. A torn append that leaves a prefix which still *parses* as a
/// valid INSERT (e.g. a truncated final coordinate `12.75` → `12.7`)
/// would otherwise replay silently wrong state — the checksum makes every
/// truncation detectable, like the section CRCs do for snapshots.
fn wal_record(body: &str) -> String {
    format!(
        "{body} #{:08x}\n",
        fdm_core::persist::codec::crc32(body.as_bytes())
    )
}

/// Splits a WAL record into its body and stored checksum, when the
/// trailing `#`-field is present.
fn split_wal_crc(record: &str) -> Option<(&str, u32)> {
    let (body, crc_field) = record.rsplit_once(" #")?;
    let stored = u32::from_str_radix(crc_field, 16).ok()?;
    Some((body, stored))
}

/// One stream's WAL replay pass: strict/legacy mode detection, per-record
/// checksum validation, exactly-once sequencing, and torn-tail tolerance.
struct WalReplay<'a> {
    wal_path: &'a Path,
    stream: &'a mut dyn DynSummary,
    /// Set when the first record is the [`WAL_HEADER`]: every applied
    /// record must then carry a valid checksum. Legacy logs (pre-header
    /// builds) replay with parse-level validation only.
    strict: bool,
    seen_first: bool,
    replayed: u64,
}

impl<'a> WalReplay<'a> {
    fn new(wal_path: &'a Path, stream: &'a mut dyn DynSummary) -> Self {
        WalReplay {
            wal_path,
            stream,
            strict: false,
            seen_first: false,
            replayed: 0,
        }
    }

    /// Replays one non-empty WAL line. A record that fails validation is
    /// fatal mid-log (a hole we cannot replay across) but tolerated as
    /// the **final** record: the WAL append is a single (non-atomic)
    /// write, so a crash mid-append legitimately leaves one torn,
    /// never-acknowledged line at the tail. The post-recovery re-anchor
    /// rewrites the WAL, erasing the torn bytes.
    fn record(&mut self, lineno: usize, line: &str, is_last: bool) -> Result<()> {
        let trimmed = line.trim();
        let first = !self.seen_first;
        self.seen_first = true;
        if trimmed == WAL_HEADER {
            // Anywhere but the front it is a leftover from hand-spliced
            // logs; harmless either way (sequence 0 is always deduped).
            self.strict = self.strict || first;
            return Ok(());
        }
        let corrupt = |detail: String| FdmError::CorruptSnapshot {
            detail: format!(
                "WAL {} line {}: {detail}",
                self.wal_path.display(),
                lineno + 1
            ),
        };
        let torn = |detail: String| -> Result<()> {
            if is_last {
                eprintln!(
                    "fdm-serve: WAL {} ends in a torn record ({detail}); \
                     dropping it (crash mid-append)",
                    self.wal_path.display()
                );
                Ok(())
            } else {
                Err(corrupt(detail))
            }
        };
        // Per-record checksum, when present (always written by this
        // build; legacy logs lack it).
        let (body, crc) = match split_wal_crc(trimmed) {
            Some((body, stored)) => {
                let actual = fdm_core::persist::codec::crc32(body.as_bytes());
                if stored != actual {
                    return torn(format!(
                        "record checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
                    ));
                }
                (body, true)
            }
            None => (trimmed, false),
        };
        let fields: Vec<&str> = body.split_whitespace().collect();
        // Record format: `<seq> INSERT <id> <group> <coords...> [#crc]`.
        let Ok(seq) = fields[0].parse::<u64>() else {
            return torn(format!("invalid sequence number `{}`", fields[0]));
        };
        if fields.get(1).map(|f| f.to_ascii_uppercase()) != Some("INSERT".into()) {
            return torn(format!("expected INSERT, found `{body}`"));
        }
        let processed = self.stream.processed() as u64;
        if seq <= processed {
            // The snapshot was written after this record but before the
            // WAL truncation; already applied.
            return Ok(());
        }
        if seq != processed + 1 {
            // A gap is missing history, not a torn append — always
            // fatal, even at the tail.
            return Err(corrupt(format!(
                "sequence gap: record {seq} after {processed} applied arrivals"
            )));
        }
        if self.strict && !crc {
            // In a checksummed log, an applied record without its
            // checksum can only be a truncation that happened to stop at
            // a field boundary.
            return torn("record is missing its checksum".to_string());
        }
        let element = match parse_insert(&fields[2..]) {
            Ok(element) => element,
            Err(e) => return torn(e),
        };
        if let Err(e) = check_element(&self.stream.params(), &element) {
            return torn(e);
        }
        self.stream.insert(&element);
        self.replayed += 1;
        Ok(())
    }
}

/// The process-wide stream registry (see the module docs).
///
/// Command methods return the typed success [`Payload`] or the typed
/// [`ErrorReply`]: protocol-level problems (unknown stream, `QUERY` size
/// mismatch) are not [`FdmError`]s, while algorithm/persistence errors
/// pass their typed [`FdmError`] display through as generic errors. The
/// session layer renders both through
/// [`Response::render`](crate::protocol::Response::render) — the only
/// place an `OK `/`ERR ` line is formatted.
pub struct Engine {
    streams: RwLock<HashMap<String, Arc<StreamEntry>>>,
    config: ServeConfig,
    metrics: Arc<Metrics>,
    /// Set by [`Engine::begin_drain`]: listeners refuse new connections
    /// while in-flight sessions finish.
    draining: AtomicBool,
    /// Present iff [`ServeConfig::workers`] is non-empty: every
    /// stream-touching command is delegated to the worker fleet instead of
    /// the local registry.
    coordinator: Option<Coordinator>,
    /// Work queue of the background chain compactor (present iff
    /// `data_dir` is set). Dropping it is the shutdown signal.
    compactor_tx: Option<mpsc::Sender<CompactJob>>,
    /// Joined (after the queue drains) when the engine drops, so a
    /// successor engine over the same data dir can never race a ghost
    /// compaction commit.
    compactor_thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Engine {
    fn drop(&mut self) {
        drop(self.compactor_tx.take());
        if let Some(handle) = self.compactor_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Chain-length backstop: if the compactor cannot keep up (queue starved,
/// thread dead), the checkpoint path collapses inline once the chain
/// reaches `full_every × COMPACTION_BACKSTOP` deltas — a bounded, rare
/// stall instead of an unbounded chain.
const COMPACTION_BACKSTOP: u64 = 4;

/// One queued chain collapse. The job carries its stream entry (so the
/// compactor never touches the registry lock) and the chain epoch it was
/// enqueued under.
struct CompactJob {
    name: String,
    entry: Arc<StreamEntry>,
    epoch: u64,
}

/// Files of one stream's on-disk delta chain, sorted by index. Listing
/// the directory (instead of probing contiguous indices from 1) is what
/// makes gapped chains — a failed removal, a compacted prefix — visible
/// at all.
fn list_deltas(dir: &Path, name: &str) -> Vec<(u64, PathBuf)> {
    let prefix = format!("{name}.delta.");
    let mut deltas = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return deltas;
    };
    for entry in entries.flatten() {
        let file_name = entry.file_name();
        let Some(file_name) = file_name.to_str() else {
            continue;
        };
        let Some(index) = file_name.strip_prefix(&prefix) else {
            continue;
        };
        // Non-numeric suffixes are temp-file droppings, not chain links.
        let Ok(index) = index.parse::<u64>() else {
            continue;
        };
        deltas.push((index, entry.path()));
    }
    deltas.sort_unstable_by_key(|&(index, _)| index);
    deltas
}

/// Whether a stream name is safe to splice into `<data-dir>/<name>.*`
/// file paths. The protocol parser is stricter ([A-Za-z0-9_-]+); this is
/// the engine-level gate that holds even for callers that bypass the
/// parser — without it `OPEN ../../x` walks out of the data directory.
fn ensure_safe_stream_name(name: &str) -> std::result::Result<(), ErrorReply> {
    let unsafe_name = name.is_empty()
        || name.starts_with('.')
        || name.contains('/')
        || name.contains('\\')
        || name.contains("..");
    if unsafe_name {
        return Err(ErrorReply::generic(format!(
            "invalid stream name `{name}`: must be non-empty and free of \
             `/`, `\\`, `..`, and a leading `.`"
        )));
    }
    Ok(())
}

/// Shorthand for the pervasive "typed core error → generic protocol
/// error" conversion.
fn generic(e: impl std::fmt::Display) -> ErrorReply {
    ErrorReply::generic(e.to_string())
}

impl Engine {
    /// Creates an engine, running crash recovery over
    /// [`ServeConfig::data_dir`] if one is configured: every `<name>.snap`
    /// is restored and the matching `<name>.wal` tail replayed
    /// exactly-once. With [`ServeConfig::workers`] set the engine instead
    /// becomes a stateless coordinator over those nodes.
    pub fn new(config: ServeConfig) -> Result<Engine> {
        let coordinator = if config.workers.is_empty() {
            None
        } else {
            Some(Coordinator::new(config.workers.clone()))
        };
        let (compactor_tx, compactor_thread) = match config.data_dir.clone() {
            Some(dir) => {
                let (tx, rx) = mpsc::channel::<CompactJob>();
                let full_every = config.full_every;
                let handle = std::thread::Builder::new()
                    .name("fdm-compactor".into())
                    .spawn(move || run_compactor(rx, dir, full_every))
                    .map_err(|e| FdmError::SnapshotIo {
                        detail: format!("spawn compactor thread: {e}"),
                    })?;
                (Some(tx), Some(handle))
            }
            None => (None, None),
        };
        let engine = Engine {
            streams: RwLock::new(HashMap::new()),
            config,
            metrics: Metrics::new(),
            draining: AtomicBool::new(false),
            coordinator,
            compactor_tx,
            compactor_thread,
        };
        if let Some(dir) = engine.config.data_dir.clone() {
            std::fs::create_dir_all(&dir).map_err(|e| FdmError::SnapshotIo {
                detail: format!("create data dir {}: {e}", dir.display()),
            })?;
            engine.recover(&dir)?;
        }
        Ok(engine)
    }

    /// Names of the hosted streams, sorted.
    pub fn stream_names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_lock(&self.streams).keys().cloned().collect();
        names.sort();
        names
    }

    /// The process-wide metrics registry (connection gauges, contained
    /// panics, busy rejections); per-stream series render with
    /// [`Engine::render_metrics`].
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Flags the engine as draining: listener loops refuse new
    /// connections, already-accepted sessions run to completion.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether [`Engine::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Graceful-drain finalization: checkpoint every stream with a full
    /// snapshot (anchoring its chain and truncating its WAL, so recovery
    /// after a drain replays **zero** records) and fsync the WAL handle.
    /// Returns the number of streams checkpointed. Serializes with any
    /// still-running `INSERT` on each stream's durable mutex, so an
    /// in-flight insert is either fully checkpointed or fully in the WAL.
    pub fn drain(&self) -> Result<usize> {
        let entries: Vec<(String, Arc<StreamEntry>)> = read_lock(&self.streams)
            .iter()
            .map(|(name, entry)| (name.clone(), entry.clone()))
            .collect();
        for (name, entry) in &entries {
            let mut durable = lock(&entry.durable);
            self.anchor(name, entry, &mut durable)?;
            if let Some(wal) = durable.wal.as_ref() {
                wal.sync_all().map_err(|e| FdmError::SnapshotIo {
                    detail: format!("fsync WAL for {name} during drain: {e}"),
                })?;
            }
        }
        Ok(entries.len())
    }

    fn snap_path(&self, name: &str) -> Option<PathBuf> {
        self.config
            .data_dir
            .as_ref()
            .map(|d| d.join(format!("{name}.snap")))
    }

    fn wal_path(&self, name: &str) -> Option<PathBuf> {
        self.config
            .data_dir
            .as_ref()
            .map(|d| d.join(format!("{name}.wal")))
    }

    fn delta_path(&self, name: &str, index: u64) -> Option<PathBuf> {
        self.config
            .data_dir
            .as_ref()
            .map(|d| d.join(format!("{name}.delta.{index}")))
    }

    /// Removes every `<name>.delta.*` of a superseded chain, found by
    /// directory listing — a gapped chain (compacted prefix, an earlier
    /// failed removal) must not strand the survivors, so one failure is
    /// logged and the sweep continues.
    fn remove_deltas(&self, name: &str) {
        let Some(dir) = self.config.data_dir.as_ref() else {
            return;
        };
        for (_, path) in list_deltas(dir, name) {
            if let Err(e) = std::fs::remove_file(&path) {
                eprintln!(
                    "fdm-serve: could not remove stale delta {}: {e} (left for the next sweep)",
                    path.display()
                );
            }
        }
    }

    fn open_wal(path: &Path) -> Result<File> {
        OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| FdmError::SnapshotIo {
                detail: format!("open WAL {}: {e}", path.display()),
            })
    }

    /// Truncates the WAL to just its header and reopens the append
    /// handle — the step every committed checkpoint ends with.
    fn truncate_wal(wal_path: &Path, durable: &mut DurableState) -> Result<()> {
        std::fs::write(wal_path, format!("{WAL_HEADER}\n")).map_err(|e| FdmError::SnapshotIo {
            detail: format!("truncate WAL {}: {e}", wal_path.display()),
        })?;
        durable.wal = Some(Self::open_wal(wal_path)?);
        Ok(())
    }

    /// Anchors the recovery chain with a **full** snapshot: captures the
    /// state, writes `<name>.snap` (atomic), removes any superseded delta
    /// files, truncates the WAL, and rebuilds the dirty-set capture mark.
    /// Called at `OPEN` (so a crash before the first auto-checkpoint
    /// still recovers), after recovery, after `RESTORE`, at drain, when a
    /// summary reports a patch the mark cannot lower, with
    /// `full_every = 0`, and as the chain-length backstop. No-op without
    /// a data dir.
    ///
    /// Capture is **chunked**: each frame section's source (params, then
    /// the state tree) is cloned under its own short summary read lock
    /// with no lock held in between, and the encode + disk write run off
    /// the summary lock entirely. The durable mutex — held by every
    /// caller — fences writers, so the per-section reads still observe
    /// one consistent state.
    ///
    /// Ordering is load-bearing: the full snapshot lands *before* the old
    /// deltas are removed and the WAL truncated, so a crash at any point
    /// in between leaves either the old complete chain + full WAL, or the
    /// new snapshot + stale-but-detectable deltas + dedupable WAL records
    /// — never a gap.
    fn anchor(&self, name: &str, entry: &StreamEntry, durable: &mut DurableState) -> Result<()> {
        if let (Some(snap_path), Some(wal_path)) = (self.snap_path(name), self.wal_path(name)) {
            let params = read_lock(&entry.summary).params();
            crash_point("mid-chunked-capture");
            snapshot_write_pause();
            let (state, cursor) = {
                let summary = read_lock(&entry.summary);
                (summary.snapshot_state_value(), summary.capture_cursor())
            };
            let snapshot = Snapshot {
                params: params.clone(),
                state,
            };
            let bytes = snapshot.to_bytes(SnapshotFormat::Binary);
            if crash_requested("mid-full-snapshot") {
                crash_mid_write(&snap_path, &bytes);
            }
            snapshot_write_pause();
            fdm_core::persist::write_bytes_atomic(&snap_path, &bytes)?;
            durable.counters.full_snapshots += 1;
            durable.counters.last_snapshot_bytes = bytes.len() as u64;
            durable.counters.last_snapshot_format = Some("bin");
            crash_point("between-full-and-delta-cleanup");
            self.remove_deltas(name);
            crash_point("between-full-and-wal-truncate");
            Self::truncate_wal(&wal_path, durable)?;
            durable.mark = Some(CaptureMark::of(params, &snapshot.state));
            durable.cursor = Some(cursor);
            durable.chain_epoch += 1;
            durable.next_delta_index = 1;
        }
        durable.deltas_since_full = 0;
        durable.compaction_pending = false;
        durable.inserts_since_snapshot = 0;
        Ok(())
    }

    /// The auto-checkpoint: an **O(changed)** dirty-set delta. One short
    /// summary read lock collects the summary's own [`fdm_core::persist::StatePatch`] since
    /// the last capture cursor; lowering it against the retained
    /// [`CaptureMark`] yields `<name>.delta.<i>` bytes identical to a
    /// full-tree diff without walking (or cloning) the full state. Falls
    /// back to a full [`Engine::anchor`] when the summary rewrote
    /// structure the mark cannot track (sliding-window rotation, lane
    /// reshuffle, bit-pack width growth) or deltas are disabled.
    ///
    /// Chain-length management happens here too: at
    /// [`ServeConfig::full_every`] live deltas a collapse is handed to
    /// the background compactor (no stall); only past the
    /// [`COMPACTION_BACKSTOP`] bound does the checkpoint collapse inline.
    fn checkpoint(
        &self,
        name: &str,
        entry: &Arc<StreamEntry>,
        durable: &mut DurableState,
    ) -> Result<()> {
        if self.config.data_dir.is_none() {
            durable.inserts_since_snapshot = 0;
            return Ok(());
        }
        let full_every = self.config.full_every;
        if full_every == 0 || durable.mark.is_none() {
            return self.anchor(name, entry, durable);
        }
        let (params, patch, next_cursor) = {
            let summary = read_lock(&entry.summary);
            let cursor = durable.cursor.take().unwrap_or(Value::Null);
            (
                summary.params(),
                summary.state_patch_since(&cursor),
                summary.capture_cursor(),
            )
        };
        let delta = patch.and_then(|patch| {
            let mark = durable.mark.as_mut().expect("checked above");
            SnapshotDelta::from_patch(mark, &params, patch)
        });
        let Some(delta) = delta else {
            // Unlowerable patch: the mark may be partially advanced and
            // is invalid — the anchor below rebuilds it from scratch.
            return self.anchor(name, entry, durable);
        };
        let index = durable.next_delta_index;
        let (delta_path, wal_path) = match (self.delta_path(name, index), self.wal_path(name)) {
            (Some(d), Some(w)) => (d, w),
            _ => unreachable!("data_dir checked above"),
        };
        let bytes = delta.to_bytes();
        if crash_requested("mid-delta-write") {
            crash_mid_write(&delta_path, &bytes);
        }
        snapshot_write_pause();
        fdm_core::persist::write_bytes_atomic(&delta_path, &bytes)?;
        durable.counters.delta_snapshots += 1;
        durable.counters.dirty_bytes += bytes.len() as u64;
        durable.counters.last_snapshot_bytes = bytes.len() as u64;
        durable.counters.last_snapshot_format = Some("delta");
        crash_point("between-delta-and-wal-truncate");
        Self::truncate_wal(&wal_path, durable)?;
        durable.cursor = Some(next_cursor);
        durable.next_delta_index += 1;
        durable.deltas_since_full += 1;
        durable.inserts_since_snapshot = 0;
        if durable.deltas_since_full >= full_every.saturating_mul(COMPACTION_BACKSTOP) {
            // The compactor is starved or dead; collapse inline rather
            // than let the chain (and recovery time) grow without bound.
            return self.anchor(name, entry, durable);
        }
        if durable.deltas_since_full >= full_every && !durable.compaction_pending {
            if let Some(tx) = &self.compactor_tx {
                let job = CompactJob {
                    name: name.to_string(),
                    entry: entry.clone(),
                    epoch: durable.chain_epoch,
                };
                if tx.send(job).is_ok() {
                    durable.compaction_pending = true;
                }
            }
        }
        Ok(())
    }

    /// Restore-then-replay over every snapshot in the data directory:
    /// `<name>.snap`, then the delta chain `<name>.delta.1..`, then the
    /// WAL tail.
    fn recover(&self, dir: &Path) -> Result<()> {
        let entries = std::fs::read_dir(dir).map_err(|e| FdmError::SnapshotIo {
            detail: format!("scan data dir {}: {e}", dir.display()),
        })?;
        for entry in entries {
            let path = entry
                .map_err(|e| FdmError::SnapshotIo {
                    detail: format!("scan data dir {}: {e}", dir.display()),
                })?
                .path();
            let file_name = path
                .file_name()
                .and_then(|f| f.to_str())
                .unwrap_or_default();
            if file_name.contains(".tmp.") {
                // A temp file a crashed writer never renamed into place;
                // its contents were never acknowledged. Sweep it.
                let _ = std::fs::remove_file(&path);
                continue;
            }
            if path.extension().and_then(|e| e.to_str()) != Some("snap") {
                continue;
            }
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string();
            if name.is_empty() {
                continue;
            }
            let mut snapshot = Snapshot::read_from_file(&path)?;
            // Chain the deltas — discovered by *listing* the directory,
            // not by probing consecutive indices, because a crashed
            // compactor may have removed only a prefix of the files it
            // consumed and the survivors need not start at 1. Each link's
            // base checksum is verified: a mismatch marks a *stale* delta
            // (left behind by a crash between a full-snapshot write and
            // the delta cleanup, or a partially cleaned-up compaction)
            // and is skipped — later links may still chain off the
            // collapsed snapshot. A delta file that fails its own section
            // checksums is real corruption and refuses recovery.
            for (index, delta_path) in list_deltas(dir, &name) {
                let delta = SnapshotDelta::read_from_file(&delta_path)?;
                match delta.apply_to(&snapshot) {
                    Ok(next) => snapshot = next,
                    Err(FdmError::IncompatibleSnapshot { .. }) => {
                        eprintln!(
                            "fdm-serve: skipping stale delta {} (index {index}): \
                             base checksum does not match the chain",
                            delta_path.display()
                        );
                    }
                    Err(other) => return Err(other),
                }
            }
            let mut stream = summary::restore(&snapshot)?;
            let wal_path = dir.join(format!("{name}.wal"));
            let mut replayed = 0u64;
            if wal_path.exists() {
                let file = File::open(&wal_path).map_err(|e| FdmError::SnapshotIo {
                    detail: format!("open WAL {}: {e}", wal_path.display()),
                })?;
                // Stream the log with one record of lookahead (so the
                // final record is known without buffering the whole file —
                // a WAL without `snapshot_every` can grow without bound).
                let mut replay = WalReplay::new(&wal_path, stream.as_mut());
                let mut pending: Option<(usize, String)> = None;
                for (lineno, line) in BufReader::new(file).lines().enumerate() {
                    let line = line.map_err(|e| FdmError::SnapshotIo {
                        detail: format!("read WAL {}: {e}", wal_path.display()),
                    })?;
                    if line.trim().is_empty() {
                        continue;
                    }
                    if let Some((prev_no, prev)) = pending.replace((lineno, line)) {
                        replay.record(prev_no, &prev, false)?;
                    }
                }
                if let Some((lineno, line)) = pending {
                    replay.record(lineno, &line, true)?;
                }
                replayed = replay.replayed;
            }
            // Re-anchor the chain on a fresh full snapshot: the replayed
            // WAL tail is now part of the state, and the next delta must
            // diff against *this* state, not the pre-crash chain.
            let entry = StreamEntry::new(stream, self.config.rate_limit);
            {
                let mut durable = lock(&entry.durable);
                durable.wal = Some(Self::open_wal(&wal_path)?);
                durable.counters.wal_records = replayed;
                self.anchor(&name, &entry, &mut durable)?;
            }
            write_lock(&self.streams).insert(name, Arc::new(entry));
        }
        Ok(())
    }

    /// Looks up a stream's shared entry (registry lock held only for the
    /// map access).
    fn entry(&self, name: &str) -> std::result::Result<Arc<StreamEntry>, ErrorReply> {
        read_lock(&self.streams).get(name).cloned().ok_or_else(|| {
            generic(format!(
                "no stream named `{name}` (OPEN or RESTORE one first)"
            ))
        })
    }

    /// `OPEN`: creates the stream, or re-attaches if a stream of that name
    /// already exists *and* the requested parameters match its own.
    ///
    /// Creation holds the registry write lock through the durable anchor:
    /// if two sessions race the same `OPEN`, the loser attaches instead of
    /// clobbering the winner's snapshot/WAL chain with empty state.
    pub fn open(&self, name: &str, spec: &StreamSpec) -> std::result::Result<Payload, ErrorReply> {
        ensure_safe_stream_name(name)?;
        if let Some(coordinator) = &self.coordinator {
            return coordinator.open(name, spec);
        }
        let summary_spec = spec.to_summary_spec().map_err(generic)?;
        let requested = summary::spec_params(&summary_spec).map_err(generic)?;
        let mut streams = write_lock(&self.streams);
        if let Some(existing) = streams.get(name) {
            let existing = existing.clone();
            drop(streams);
            requested
                .ensure_compatible(&existing.params())
                .map_err(generic)?;
            return Ok(Payload::Attached {
                name: name.to_string(),
                processed: read_lock(&existing.summary).processed(),
            });
        }
        let stream = summary::build(&summary_spec).map_err(generic)?;
        let entry = StreamEntry::new(stream, self.config.rate_limit);
        {
            let mut durable = lock(&entry.durable);
            self.anchor(name, &entry, &mut durable).map_err(generic)?;
        }
        streams.insert(name.to_string(), Arc::new(entry));
        Ok(Payload::Opened {
            name: name.to_string(),
        })
    }

    /// `INSERT`: write-ahead (sequence-numbered), apply, maybe
    /// auto-checkpoint (a delta while the chain is short, a fresh full
    /// snapshot every [`ServeConfig::full_every`] deltas). Holds only this
    /// stream's durable mutex across the operation — other tenants keep
    /// running during the disk I/O — and the summary write lock only for
    /// the in-memory apply, so concurrent `QUERY`s overlap with everything
    /// but that instant.
    ///
    /// Protection happens *before* the durable mutex is touched:
    ///
    /// * the token-bucket rate limiter (when configured) rejects
    ///   over-limit inserts with `ERR busy` instead of queueing them;
    /// * the bounded pending counter rejects inserts that would pile more
    ///   than [`ServeConfig::max_pending_inserts`] blocked threads onto
    ///   this stream's write path.
    ///
    /// A panic inside the summary apply (the only window where in-memory
    /// state can diverge from the log) is **contained**: the WAL is rolled
    /// back to its pre-append length so log and state stay in lockstep,
    /// and the caller gets a typed `ERR` instead of a dead connection.
    pub fn insert(
        &self,
        name: &str,
        element: &Element,
        raw_line: &str,
    ) -> std::result::Result<Payload, ErrorReply> {
        if let Some(coordinator) = &self.coordinator {
            return coordinator.insert(name, element);
        }
        let start = Instant::now();
        let entry = self.entry(name)?;
        if let Some(limiter) = entry.limiter.as_ref() {
            if !lock(limiter).try_take() {
                self.metrics.busy_rate_limited();
                return Err(ErrorReply::busy(format!(
                    "stream `{name}` is over its insert rate limit; retry later"
                )));
            }
        }
        let queued = entry.pending_inserts.fetch_add(1, Ordering::SeqCst);
        let _pending = PendingGuard(&entry.pending_inserts);
        if queued >= self.config.max_pending_inserts {
            self.metrics.busy_queue_full();
            return Err(ErrorReply::busy(format!(
                "stream `{name}` has {queued} pending inserts (max {}); retry later",
                self.config.max_pending_inserts
            )));
        }
        let mut durable = lock(&entry.durable);
        // `durable` serializes writers, so the sequence number read here
        // cannot race another insert's apply.
        let seq = {
            let summary = read_lock(&entry.summary);
            check_element(&summary.params(), element).map_err(ErrorReply::generic)?;
            summary.processed() as u64 + 1
        };
        let mut wal_len_before = 0u64;
        if let Some(wal) = durable.wal.as_mut() {
            wal_len_before = wal.metadata().map(|m| m.len()).unwrap_or(0);
            // One pre-formatted buffer, one write syscall: a crash can
            // still tear the record (recovery tolerates a torn tail), but
            // the window is a single partial write, not the several
            // writes `writeln!` would issue.
            let record = wal_record(&format!("{seq} {}", raw_line.trim()));
            wal.write_all(record.as_bytes())
                .and_then(|()| wal.flush())
                .map_err(|e| generic(format!("append WAL for {name}: {e}")))?;
            durable.counters.wal_records += 1;
        }
        crash_point("between-wal-append-and-apply");
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut summary = write_lock(&entry.summary);
            panic_point("insert-apply", name);
            summary.insert(element);
        }));
        if let Err(payload) = applied {
            // The apply never happened: un-append the WAL record so the
            // log matches the in-memory state — otherwise the next insert
            // would reuse this sequence number and replay after a crash
            // would apply the wrong record.
            if let Some(wal) = durable.wal.as_mut() {
                let _ = wal.set_len(wal_len_before);
                durable.counters.wal_records = durable.counters.wal_records.saturating_sub(1);
            }
            self.metrics.panic_contained();
            return Err(generic(format!(
                "internal error (panic contained) applying INSERT to `{name}`: {}",
                panic_message(&*payload)
            )));
        }
        durable.inserts_since_snapshot += 1;
        if let Some(every) = self.config.snapshot_every {
            if every > 0 && durable.inserts_since_snapshot >= every {
                self.checkpoint(name, &entry, &mut durable)
                    .map_err(generic)?;
            }
        }
        entry.metrics.insert_latency.observe(start.elapsed());
        Ok(Payload::Inserted { seq: seq as usize })
    }

    /// `INSERTB`: the batched insert — one WAL append covering every
    /// element (each record sequence-numbered and CRC-suffixed exactly as
    /// the per-element path writes it, so replay cannot tell the two
    /// apart), then **one atomic apply** via [`DynSummary::insert_batch`]
    /// under a single write-lock acquisition. Atomicity is the contract
    /// the coordinator's mid-batch failure semantics lean on: a worker
    /// either applied its whole sub-batch or none of it, so the set of
    /// elements it holds is always a prefix of its sub-stream.
    ///
    /// Admission control charges the batch size: the token bucket takes
    /// `n` tokens (clamped to its burst capacity), and the reply/latency
    /// accounting treats the batch as one request. A contained apply
    /// panic rolls the WAL back across all `n` records.
    pub fn insert_batch(
        &self,
        name: &str,
        elements: &[Element],
    ) -> std::result::Result<Payload, ErrorReply> {
        if let Some(coordinator) = &self.coordinator {
            return coordinator.insert_batch(name, elements, self.config.coord_batch);
        }
        if elements.is_empty() {
            return Err(generic("INSERTB requires at least one element"));
        }
        let start = Instant::now();
        let entry = self.entry(name)?;
        if let Some(limiter) = entry.limiter.as_ref() {
            if !lock(limiter).try_take_n(elements.len()) {
                self.metrics.busy_rate_limited();
                return Err(ErrorReply::busy(format!(
                    "stream `{name}` is over its insert rate limit; retry later"
                )));
            }
        }
        let queued = entry.pending_inserts.fetch_add(1, Ordering::SeqCst);
        let _pending = PendingGuard(&entry.pending_inserts);
        if queued >= self.config.max_pending_inserts {
            self.metrics.busy_queue_full();
            return Err(ErrorReply::busy(format!(
                "stream `{name}` has {queued} pending inserts (max {}); retry later",
                self.config.max_pending_inserts
            )));
        }
        let mut durable = lock(&entry.durable);
        let base_seq = {
            let summary = read_lock(&entry.summary);
            let params = summary.params();
            for element in elements {
                check_element(&params, element).map_err(ErrorReply::generic)?;
            }
            summary.processed() as u64 + 1
        };
        crash_point("before-batch-wal-append");
        let mut wal_len_before = 0u64;
        if let Some(wal) = durable.wal.as_mut() {
            wal_len_before = wal.metadata().map(|m| m.len()).unwrap_or(0);
            // All n records in one pre-formatted buffer, one write
            // syscall: the torn-write window is a single partial write,
            // and recovery's per-record CRCs make any truncation point
            // detectable. Each body is re-rendered through the protocol
            // (not sliced from the raw line) so it is byte-identical to
            // what a per-element INSERT would have logged.
            let mut records = String::new();
            for (i, element) in elements.iter().enumerate() {
                let line = Request::Insert(element.clone()).render();
                records.push_str(&wal_record(&format!("{} {line}", base_seq + i as u64)));
            }
            wal.write_all(records.as_bytes())
                .and_then(|()| wal.flush())
                .map_err(|e| generic(format!("append WAL for {name}: {e}")))?;
            durable.counters.wal_records += elements.len() as u64;
        }
        crash_point("between-wal-append-and-apply");
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut summary = write_lock(&entry.summary);
            panic_point("insert-apply", name);
            summary.insert_batch(elements);
        }));
        if let Err(payload) = applied {
            // None of the batch was applied (`insert_batch` is one call
            // under one lock): un-append all n records.
            if let Some(wal) = durable.wal.as_mut() {
                let _ = wal.set_len(wal_len_before);
                durable.counters.wal_records = durable
                    .counters
                    .wal_records
                    .saturating_sub(elements.len() as u64);
            }
            self.metrics.panic_contained();
            return Err(generic(format!(
                "internal error (panic contained) applying INSERTB to `{name}`: {}",
                panic_message(&*payload)
            )));
        }
        durable.inserts_since_snapshot += elements.len() as u64;
        if let Some(every) = self.config.snapshot_every {
            if every > 0 && durable.inserts_since_snapshot >= every {
                self.checkpoint(name, &entry, &mut durable)
                    .map_err(generic)?;
            }
        }
        entry.metrics.insert_latency.observe(start.elapsed());
        Ok(Payload::InsertedBatch {
            seq: (base_seq - 1) as usize + elements.len(),
            count: elements.len(),
        })
    }

    /// `QUERY`: post-processing of the named stream. `k`, when given, must
    /// match the configured solution size; a stream with zero processed
    /// arrivals answers a typed `empty stream` error instead of the
    /// (opaque) infeasibility the finalize pass would report. Runs under
    /// the summary *read* lock: concurrent queries (and snapshot captures)
    /// overlap freely.
    pub fn query(&self, name: &str, k: Option<usize>) -> std::result::Result<Payload, ErrorReply> {
        if let Some(coordinator) = &self.coordinator {
            return coordinator.query(name, k);
        }
        let start = Instant::now();
        let entry = self.entry(name)?;
        let summary = read_lock(&entry.summary);
        let configured = summary.params().k;
        if let Some(k) = k {
            if k != configured {
                return Err(generic(format!(
                    "QUERY k={k} but stream `{name}` is configured for k={configured}"
                )));
            }
        }
        if summary.processed() == 0 {
            return Err(ErrorReply::empty_stream(format!(
                "stream `{name}` has processed no elements; INSERT before QUERY"
            )));
        }
        // Read-path panics (contained at the session boundary) cannot
        // poison the RwLock — readers don't poison — so no engine-level
        // catch is needed here; the hook pins that claim.
        panic_point("query-finalize", name);
        let solution = summary.finalize().map_err(generic)?;
        drop(summary);
        entry.metrics.query_latency.observe(start.elapsed());
        Ok(Payload::Query(QueryReply {
            k: solution.len(),
            diversity: solution.diversity,
            ids: solution.ids(),
        }))
    }

    /// `MERGE`: export the named stream's summary as an inline v2 binary
    /// snapshot frame — the wire contract the coordinator's `QUERY`
    /// fan-out is built on. Capture (snapshot + counters) happens under a
    /// short summary read lock; the binary encode runs off-lock.
    pub fn merge(&self, name: &str) -> std::result::Result<Payload, ErrorReply> {
        if self.coordinator.is_some() {
            return Err(generic(
                "MERGE is not supported in coordinator mode (the workers own the summaries)",
            ));
        }
        let entry = self.entry(name)?;
        let (snapshot, processed, algorithm) = {
            let summary = read_lock(&entry.summary);
            (
                summary.snapshot(),
                summary.processed(),
                summary.params().algorithm,
            )
        };
        let bytes = snapshot.to_bytes(SnapshotFormat::Binary);
        Ok(Payload::Merge {
            algorithm,
            processed,
            bytes,
        })
    }

    /// `MERGE since=<epoch>:<crc>`: the incremental export. When the
    /// caller's anchor matches this stream's `ExportState`, the reply is
    /// an `FDMDELT2` delta frame built from the summary's own dirty set —
    /// O(changed) bytes instead of O(state) — and the export anchor
    /// advances (same epoch, new crc). On any mismatch, a missing mark, or
    /// an unlowerable structural rewrite, the reply is a **full** v2
    /// snapshot frame under a fresh epoch, which re-anchors the caller.
    ///
    /// Lock order: the export mutex, then short summary read locks; the
    /// durable mutex is never touched, so exports overlap inserts' disk
    /// I/O and never perturb the checkpoint chain (capture cursors are
    /// stateless, each path diffs from its own).
    pub fn merge_since(
        &self,
        name: &str,
        since: (u64, u32),
    ) -> std::result::Result<Payload, ErrorReply> {
        if self.coordinator.is_some() {
            return Err(generic(
                "MERGE is not supported in coordinator mode (the workers own the summaries)",
            ));
        }
        let entry = self.entry(name)?;
        let mut export = lock(&entry.export);
        if since == (export.epoch, export.crc) && export.mark.is_some() {
            let (params, patch, next_cursor, processed) = {
                let summary = read_lock(&entry.summary);
                (
                    summary.params(),
                    summary.state_patch_since(&export.cursor),
                    summary.capture_cursor(),
                    summary.processed(),
                )
            };
            let algorithm = params.algorithm.clone();
            let delta = patch.and_then(|patch| {
                let mark = export.mark.as_mut().expect("checked above");
                SnapshotDelta::from_patch(mark, &params, patch)
            });
            match delta {
                Some(delta) => {
                    let bytes = delta.to_bytes();
                    export.cursor = next_cursor;
                    export.crc = export.mark.as_ref().expect("advanced above").state_crc();
                    return Ok(Payload::MergeSince {
                        algorithm,
                        processed,
                        delta: true,
                        epoch: export.epoch,
                        crc: export.crc,
                        bytes,
                    });
                }
                None => {
                    // The mark may be partially advanced and is invalid;
                    // the full path below rebuilds it from scratch.
                    export.mark = None;
                }
            }
        }
        let (snapshot, cursor, processed) = {
            let summary = read_lock(&entry.summary);
            (
                summary.snapshot(),
                summary.capture_cursor(),
                summary.processed(),
            )
        };
        let algorithm = snapshot.params.algorithm.clone();
        let mark = CaptureMark::of(snapshot.params.clone(), &snapshot.state);
        export.crc = mark.state_crc();
        export.mark = Some(mark);
        export.cursor = cursor;
        export.epoch += 1;
        let bytes = snapshot.to_bytes(SnapshotFormat::Binary);
        Ok(Payload::MergeSince {
            algorithm,
            processed,
            delta: false,
            epoch: export.epoch,
            crc: export.crc,
            bytes,
        })
    }

    /// `SNAPSHOT`: checkpoint the named stream to an explicit path, as a
    /// binary (v2) snapshot.
    ///
    /// Capture holds the summary read lock just long enough to clone the
    /// state tree; encoding and the disk write run with **no** lock on the
    /// summary and without the durable mutex, so neither readers nor
    /// writers of this stream stall behind the I/O (pinned by the
    /// concurrency suite via `FDM_SERVE_SNAPSHOT_PAUSE_MS`).
    pub fn snapshot(&self, name: &str, path: &str) -> std::result::Result<Payload, ErrorReply> {
        if self.coordinator.is_some() {
            return Err(generic(
                "SNAPSHOT is not supported in coordinator mode (snapshot the workers)",
            ));
        }
        let entry = self.entry(name)?;
        let (snapshot, processed) = {
            let summary = read_lock(&entry.summary);
            (summary.snapshot(), summary.processed())
        };
        // Off-lock from here on.
        let bytes = snapshot.to_bytes(SnapshotFormat::Binary);
        snapshot_write_pause();
        fdm_core::persist::write_bytes_atomic(Path::new(path), &bytes).map_err(generic)?;
        let mut durable = lock(&entry.durable);
        durable.counters.full_snapshots += 1;
        durable.counters.last_snapshot_bytes = bytes.len() as u64;
        durable.counters.last_snapshot_format = Some("bin");
        Ok(Payload::SnapshotWritten {
            path: path.to_string(),
            processed,
        })
    }

    /// `RESTORE`: load a snapshot into stream `name`, replacing (after a
    /// compatibility check) any live state of that name.
    ///
    /// Like [`Engine::open`], *creation* of a not-yet-registered name
    /// holds the registry write lock through the durable anchor: a RESTORE
    /// racing an OPEN (or another RESTORE) of the same name must not
    /// register a second entry for it — two entries would append to one
    /// WAL through independent handles with independent sequence
    /// counters, corrupting the recovery chain.
    pub fn restore(&self, name: &str, path: &str) -> std::result::Result<Payload, ErrorReply> {
        ensure_safe_stream_name(name)?;
        if self.coordinator.is_some() {
            return Err(generic(
                "RESTORE is not supported in coordinator mode (restore on a worker)",
            ));
        }
        let snapshot = Snapshot::read_from_file(path).map_err(generic)?;
        let stream = summary::restore(&snapshot).map_err(generic)?;
        let processed = stream.processed();
        // Decode happened above, off every lock; now decide create vs
        // replace under the registry write lock so the check cannot go
        // stale against a concurrent creation.
        let mut streams = write_lock(&self.streams);
        if let Some(existing) = streams.get(name).cloned() {
            drop(streams);
            // Replace in place so every session bound to this stream sees
            // the restored state. Writers are fenced by the durable mutex,
            // readers by the summary write lock below.
            let mut durable = lock(&existing.durable);
            snapshot
                .params
                .ensure_compatible(&existing.params())
                .map_err(generic)?;
            *write_lock(&existing.summary) = stream;
            // The restored state supersedes the WAL chain: re-anchor it.
            self.anchor(name, &existing, &mut durable)
                .map_err(generic)?;
        } else {
            let entry = StreamEntry::new(stream, self.config.rate_limit);
            {
                let mut durable = lock(&entry.durable);
                self.anchor(name, &entry, &mut durable).map_err(generic)?;
            }
            streams.insert(name.to_string(), Arc::new(entry));
        }
        Ok(Payload::Restored {
            name: name.to_string(),
            processed,
        })
    }

    /// `STATS` for one stream: stream geometry plus the per-stream
    /// persistence counters (WAL records appended, checkpoints written,
    /// size + kind of the last checkpoint) so operators can see
    /// checkpoint health over the wire.
    pub fn stats(&self, name: &str) -> std::result::Result<Payload, ErrorReply> {
        if let Some(coordinator) = &self.coordinator {
            return coordinator.stats(name);
        }
        let entry = self.entry(name)?;
        let (params, processed, stored) = {
            let summary = read_lock(&entry.summary);
            (
                summary.params(),
                summary.processed(),
                summary.stored_elements(),
            )
        };
        let counters = lock(&entry.durable).counters;
        let window = if params.window != 0 {
            format!(" window={}", params.window)
        } else {
            String::new()
        };
        Ok(Payload::Stats(format!(
            "stream={name} algorithm={} processed={processed} stored={stored} dim={} k={} \
             shards={}{window} wal_records={} snapshots={} deltas={} dirty_bytes={} \
             compactions={} last_snapshot_bytes={} last_snapshot_format={} kernel={}",
            params.algorithm,
            params.dim,
            params.k,
            params.shards,
            counters.wal_records,
            counters.full_snapshots,
            counters.delta_snapshots,
            counters.dirty_bytes,
            counters.compactions,
            counters.last_snapshot_bytes,
            counters.last_snapshot_format.unwrap_or("none"),
            fdm_core::kernel::active_kernel(),
        )))
    }

    /// Renders the full Prometheus text exposition for `/metrics`: the
    /// per-stream series (geometry, persistence gauges, latency
    /// histograms) followed by the process-wide ones.
    ///
    /// Same lock discipline as `STATS`: per stream, a short summary read
    /// lock to copy the cheap numbers, dropped *before* the durable mutex
    /// is taken (never both at once, so a scrape cannot deadlock against
    /// an insert holding durable and waiting on the summary) — and the
    /// rest is atomic loads. A scrape never blocks inserts for longer
    /// than those copies.
    pub fn render_metrics(&self) -> String {
        struct StreamSample {
            name: String,
            processed: usize,
            stored: usize,
            counters: PersistCounters,
            metrics: Arc<StreamMetrics>,
        }
        let entries: Vec<(String, Arc<StreamEntry>)> = {
            let streams = read_lock(&self.streams);
            let mut entries: Vec<_> = streams
                .iter()
                .map(|(name, entry)| (name.clone(), entry.clone()))
                .collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            entries
        };
        let samples: Vec<StreamSample> = entries
            .into_iter()
            .map(|(name, entry)| {
                let (processed, stored) = {
                    let summary = read_lock(&entry.summary);
                    (summary.processed(), summary.stored_elements())
                };
                let counters = lock(&entry.durable).counters;
                StreamSample {
                    name,
                    processed,
                    stored,
                    counters,
                    metrics: entry.metrics.clone(),
                }
            })
            .collect();
        let mut out = String::new();
        metrics::help_type(&mut out, "fdm_streams", "gauge", "Hosted streams.");
        out.push_str(&format!("fdm_streams {}\n", samples.len()));
        metrics::help_type(
            &mut out,
            "fdm_stream_processed_total",
            "counter",
            "Elements accepted into each stream since it was opened.",
        );
        for s in &samples {
            out.push_str(&format!(
                "fdm_stream_processed_total{{stream=\"{}\"}} {}\n",
                s.name, s.processed
            ));
        }
        metrics::help_type(
            &mut out,
            "fdm_stream_stored",
            "gauge",
            "Elements currently held in each stream's summary.",
        );
        for s in &samples {
            out.push_str(&format!(
                "fdm_stream_stored{{stream=\"{}\"}} {}\n",
                s.name, s.stored
            ));
        }
        metrics::help_type(
            &mut out,
            "fdm_wal_records_total",
            "counter",
            "WAL records appended per stream since this process opened it.",
        );
        for s in &samples {
            out.push_str(&format!(
                "fdm_wal_records_total{{stream=\"{}\"}} {}\n",
                s.name, s.counters.wal_records
            ));
        }
        metrics::help_type(
            &mut out,
            "fdm_snapshots_total",
            "counter",
            "Checkpoints written per stream, by kind.",
        );
        for s in &samples {
            out.push_str(&format!(
                "fdm_snapshots_total{{stream=\"{}\",kind=\"full\"}} {}\n",
                s.name, s.counters.full_snapshots
            ));
            out.push_str(&format!(
                "fdm_snapshots_total{{stream=\"{}\",kind=\"delta\"}} {}\n",
                s.name, s.counters.delta_snapshots
            ));
        }
        metrics::help_type(
            &mut out,
            "fdm_delta_dirty_bytes_total",
            "counter",
            "Encoded bytes of dirty-set delta checkpoints written per stream.",
        );
        for s in &samples {
            out.push_str(&format!(
                "fdm_delta_dirty_bytes_total{{stream=\"{}\"}} {}\n",
                s.name, s.counters.dirty_bytes
            ));
        }
        metrics::help_type(
            &mut out,
            "fdm_compactions_total",
            "counter",
            "Background chain collapses committed per stream.",
        );
        for s in &samples {
            out.push_str(&format!(
                "fdm_compactions_total{{stream=\"{}\"}} {}\n",
                s.name, s.counters.compactions
            ));
        }
        metrics::help_type(
            &mut out,
            "fdm_last_snapshot_bytes",
            "gauge",
            "Encoded size of each stream's most recent checkpoint/export.",
        );
        for s in &samples {
            out.push_str(&format!(
                "fdm_last_snapshot_bytes{{stream=\"{}\"}} {}\n",
                s.name, s.counters.last_snapshot_bytes
            ));
        }
        metrics::help_type(
            &mut out,
            "fdm_kernel_info",
            "gauge",
            "Active distance-kernel backend (constant 1; the label carries the name).",
        );
        out.push_str(&format!(
            "fdm_kernel_info{{kernel=\"{}\"}} 1\n",
            fdm_core::kernel::active_kernel()
        ));
        // Histogram families: all streams' insert series under one
        // preamble, then all query series (Prometheus requires a family's
        // series to be contiguous).
        metrics::help_type(
            &mut out,
            "fdm_insert_latency_seconds",
            "histogram",
            "Accepted-INSERT latency (WAL append through checkpoint decision).",
        );
        for s in &samples {
            let labels = format!("stream=\"{}\",", s.name);
            s.metrics
                .insert_latency
                .render(&mut out, "fdm_insert_latency_seconds", &labels);
        }
        metrics::help_type(
            &mut out,
            "fdm_query_latency_seconds",
            "histogram",
            "QUERY latency (post-processing under the summary read lock).",
        );
        for s in &samples {
            let labels = format!("stream=\"{}\",", s.name);
            s.metrics
                .query_latency
                .render(&mut out, "fdm_query_latency_seconds", &labels);
        }
        if let Some(coordinator) = &self.coordinator {
            coordinator.render_metrics(&mut out);
        }
        self.metrics.render_globals(&mut out);
        out
    }
}

/// The background compactor loop: drains [`CompactJob`]s until the
/// engine drops its sender, collapsing each stream's `full + delta*`
/// chain off every hot-path lock. Checkpoints that land while a collapse
/// runs see the pending flag and enqueue nothing, so after each collapse
/// the loop re-checks the chain under the durable mutex and collapses
/// again while it still holds `full_every` deltas; the flag is cleared
/// under that same lock. A quiet stream therefore settles below
/// `full_every` deltas, and so does the join in `Engine::drop`. Failures
/// are logged and the flag cleared — the next over-length checkpoint
/// simply re-enqueues.
fn run_compactor(rx: mpsc::Receiver<CompactJob>, dir: PathBuf, full_every: u64) {
    while let Ok(job) = rx.recv() {
        loop {
            let consumed = compact_chain(&dir, &job).unwrap_or_else(|e| {
                eprintln!(
                    "fdm-serve: compaction of `{}` failed (chain left as-is): {e}",
                    job.name
                );
                0
            });
            let mut durable = lock(&job.entry.durable);
            if consumed == 0
                || durable.chain_epoch != job.epoch
                || durable.deltas_since_full < full_every
            {
                durable.compaction_pending = false;
                break;
            }
        }
    }
}

/// One chain collapse. Everything expensive — reading the base snapshot,
/// applying the delta files, encoding, writing + fsyncing the temp file —
/// runs with **no** engine lock held; delta files are write-once and the
/// base `.snap` is only replaced by epoch-bumping inline anchors, so the
/// off-lock read sees a stable prefix. The durable mutex is taken only
/// for the commit: if the chain epoch still matches the job's, the
/// collapsed snapshot renames into place and the consumed delta files are
/// removed; if an inline anchor ran in between, the work is discarded.
/// Returns the number of delta files the committed collapse consumed (0
/// when nothing was committed).
fn compact_chain(dir: &Path, job: &CompactJob) -> Result<usize> {
    let name = &job.name;
    let snap_path = dir.join(format!("{name}.snap"));
    let chain = list_deltas(dir, name);
    if chain.is_empty() {
        return Ok(0);
    }
    let mut snapshot = Snapshot::read_from_file(&snap_path)?;
    let mut consumed: Vec<PathBuf> = Vec::with_capacity(chain.len());
    for (index, delta_path) in chain {
        let delta = SnapshotDelta::read_from_file(&delta_path)?;
        match delta.apply_to(&snapshot) {
            Ok(next) => snapshot = next,
            Err(FdmError::IncompatibleSnapshot { .. }) => {
                // A stale link (crash debris): recovery would skip it too,
                // so consuming (removing) it below is safe.
                eprintln!(
                    "fdm-serve: compactor skipping stale delta {} (index {index})",
                    delta_path.display()
                );
            }
            Err(other) => return Err(other),
        }
        consumed.push(delta_path);
    }
    let bytes = snapshot.to_bytes(SnapshotFormat::Binary);
    if crash_requested("compactor-mid-collapse") {
        crash_mid_write(&snap_path, &bytes);
    }
    // Write the collapsed snapshot to a `.tmp.` sibling by hand (instead
    // of `write_bytes_atomic`) so the rename can be deferred into the
    // epoch-checked commit below. The `.tmp.` infix keeps a crashed
    // leftover inside recovery's sweep.
    let tmp_path = dir.join(format!("{name}.snap.tmp.{}.compact", std::process::id()));
    let io_err = |op: &str, e: std::io::Error| FdmError::SnapshotIo {
        detail: format!("{op} {}: {e}", tmp_path.display()),
    };
    {
        let mut tmp = File::create(&tmp_path).map_err(|e| io_err("create", e))?;
        tmp.write_all(&bytes).map_err(|e| io_err("write", e))?;
        tmp.sync_all().map_err(|e| io_err("sync", e))?;
    }
    let mut durable = lock(&job.entry.durable);
    if durable.chain_epoch != job.epoch {
        // An inline anchor replaced the chain while we worked; this
        // collapsed snapshot describes a base that no longer exists.
        drop(durable);
        let _ = std::fs::remove_file(&tmp_path);
        return Ok(0);
    }
    std::fs::rename(&tmp_path, &snap_path).map_err(|e| FdmError::SnapshotIo {
        detail: format!(
            "rename {} -> {}: {e}",
            tmp_path.display(),
            snap_path.display()
        ),
    })?;
    crash_point("between-compaction-and-delta-cleanup");
    for path in &consumed {
        if let Err(e) = std::fs::remove_file(path) {
            // A leftover is stale (its base CRC no longer matches) and
            // recovery skips it; the next sweep removes it.
            eprintln!(
                "fdm-serve: failed to remove compacted delta {}: {e}",
                path.display()
            );
        }
    }
    durable.deltas_since_full = durable
        .deltas_since_full
        .saturating_sub(consumed.len() as u64);
    durable.counters.compactions += 1;
    Ok(consumed.len())
}

/// Validates an arriving element against a stream's live parameters:
/// dimension (once known) and group label (for the fair algorithms).
fn check_element(params: &SnapshotParams, element: &Element) -> std::result::Result<(), String> {
    if params.dim != 0 && element.dim() != params.dim {
        return Err(FdmError::DimensionMismatch {
            expected: params.dim,
            found: element.dim(),
        }
        .to_string());
    }
    if element.dim() == 0 {
        return Err(FdmError::DimensionMismatch {
            expected: params.dim.max(1),
            found: 0,
        }
        .to_string());
    }
    if !params.quotas.is_empty() && element.group >= params.quotas.len() {
        return Err(FdmError::InvalidGroup {
            group: element.group,
            num_groups: params.quotas.len(),
        }
        .to_string());
    }
    Ok(())
}
