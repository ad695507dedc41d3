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
//!   append can never replay as silently-wrong state). A failed append is
//!   cut back to the WAL's committed length (tracked in memory, so the
//!   insert path never `fstat`s the log) and answers `ERR`; the next
//!   record never shares a line with a torn one;
//! * every [`ServeConfig::snapshot_every`] inserts the summary is
//!   checkpointed (atomically — temp file + rename) and the WAL
//!   truncated. The checkpoint is an **incremental delta**
//!   (`<name>.delta.<i>`, a [`SnapshotDelta`]) built from the summary's
//!   own dirty set: the stream reports an O(changed) [`fdm_core::persist::StatePatch`] since
//!   the last capture, lowered against a retained [`CaptureMark`] digest
//!   tree — the full state is neither cloned nor re-walked, and the bytes
//!   are identical to what a full-tree diff would have produced;
//! * once the chain holds [`ServeConfig::full_every`] deltas, the next
//!   auto-checkpoint **collapses** it: it writes a full `<name>.snap`
//!   inline (the summary is small by construction, so a full capture
//!   costs about what a delta does) and sweeps the deltas. The on-disk
//!   chain is therefore a pure function of the insert sequence: after
//!   every acknowledged insert it holds exactly the deltas written since
//!   the last full anchor, at most `full_every` of them. Full snapshots
//!   are also written at stream creation, recovery, drain, `RESTORE`, on
//!   a summary rewrite the dirty set cannot express (e.g. a
//!   sliding-window rotation), and always with `full_every = 0`;
//! * a failed auto-checkpoint never fails the insert that triggered it:
//!   that insert is already logged and applied, so it is acknowledged,
//!   the error goes to stderr and the `checkpoint_failures` counter, and
//!   the next insert retries the checkpoint as a full anchor;
//! * [`Engine::new`] recovers by restoring each `.snap`, chaining every
//!   `<name>.delta.*` found on disk in index order (each link's base
//!   checksum is verified; a stale link left by a crash between a full
//!   anchor and its delta sweep is skipped, later links may chain off
//!   the new state), and replaying the WAL through the same parser
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
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use fdm_core::error::{FdmError, Result};
use fdm_core::persist::{CaptureMark, Snapshot, SnapshotDelta, SnapshotFormat, SnapshotParams};
use fdm_core::point::Element;
use fdm_core::streaming::memo::GuessTally;
use fdm_core::streaming::summary::{self, DynSummary};
use serde::Value;

use crate::coordinator::Coordinator;
use crate::metrics::{self, Metrics, NodeSample, PersistCounters, StreamMetrics, StreamSample};
use crate::protocol::{
    encode_union, insert_entries, parse_entry, render_entry, ErrorReply, Fields, Payload,
    QueryReply, StreamSpec,
};

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
    /// round-robin across the workers, `QUERY` merges their retained
    /// elements pulled via `MERGE` (see [`crate::coordinator`]). Empty (the
    /// default) is the ordinary single-node engine.
    pub workers: Vec<String>,
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

/// WAL + checkpoint-chain state of one stream, guarded by its own
/// [`Mutex`] — the summary `RwLock` is **not** held while this is used for
/// disk I/O.
struct DurableState {
    /// Open append handle to the WAL (present iff `data_dir` is set).
    wal: Option<File>,
    /// Committed byte length of the WAL: every record up to here was
    /// appended whole. A failed append or a rolled-back apply cuts the
    /// file back to it.
    wal_len: u64,
    /// A failed append left bytes past `wal_len` and cutting them off
    /// failed too: every insert retries the cut first, and is refused
    /// until it succeeds.
    wal_torn: bool,
    /// Digest tree of the last committed checkpoint (present iff
    /// `data_dir` is set and that checkpoint succeeded): the
    /// [`CaptureMark`] dirty-set deltas are lowered against. It retains
    /// per-node lengths and CRCs — O(structure), not O(data). `None`
    /// makes the next checkpoint a full anchor.
    mark: Option<CaptureMark>,
    /// The summary's own capture cursor paired with `mark`: the opaque
    /// watermark value [`DynSummary::state_patch_since`] diffs from.
    cursor: Option<Value>,
    /// Index the next `<name>.delta.<i>` file will use; reset to 1 by
    /// every full anchor.
    next_delta_index: u64,
    /// Deltas written since the last full anchor (drives `full_every`).
    deltas_since_full: u64,
    /// Inserts applied since the last auto-checkpoint (drives
    /// `snapshot_every`).
    inserts_since_snapshot: u64,
    counters: PersistCounters,
}

impl DurableState {
    fn new() -> DurableState {
        DurableState {
            wal: None,
            wal_len: 0,
            wal_torn: false,
            mark: None,
            cursor: None,
            next_delta_index: 1,
            deltas_since_full: 0,
            inserts_since_snapshot: 0,
            counters: PersistCounters::default(),
        }
    }

    /// Appends `records` to the WAL in one write and advances `wal_len`.
    /// On failure the partial bytes are cut off again (see
    /// [`DurableState::rollback_wal`]), so the next record never lands
    /// on the same line as a torn one.
    fn append_wal(&mut self, records: &[u8]) -> std::io::Result<()> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        if let Err(e) = wal.write_all(records).and_then(|()| wal.flush()) {
            return Err(match self.rollback_wal() {
                Ok(()) => e,
                Err(cut) => std::io::Error::new(e.kind(), format!("{e}; rollback failed: {cut}")),
            });
        }
        self.wal_len += records.len() as u64;
        check_wal_len(wal, self.wal_len);
        Ok(())
    }

    /// Cuts the WAL back to `wal_len`. A failed cut sets `wal_torn`, and
    /// the next insert retries it before appending.
    fn rollback_wal(&mut self) -> std::io::Result<()> {
        let Some(wal) = self.wal.as_ref() else {
            return Ok(());
        };
        let cut = wal.set_len(self.wal_len);
        self.wal_torn = cut.is_err();
        if cut.is_ok() {
            check_wal_len(wal, self.wal_len);
        }
        cut
    }
}

/// Debug builds verify the WAL length bookkeeping against the file after
/// every append and rollback; release builds never `fstat` the WAL on the
/// insert path (`debug_assert_eq!` does not evaluate its arguments there).
fn check_wal_len(wal: &File, wal_len: u64) {
    debug_assert_eq!(
        wal.metadata().map(|m| m.len()).ok(),
        Some(wal_len),
        "WAL length bookkeeping drifted"
    );
}

/// One hosted stream: the summary behind a readers–writer lock, with the
/// durability state split off behind its own mutex (see the module docs
/// for the locking protocol).
struct StreamEntry {
    summary: RwLock<Box<dyn DynSummary>>,
    durable: Mutex<DurableState>,
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

/// One entry text per element (`<id> <group> <x1> ... <xd>`): slices of
/// the client's `raw_line` when there is one, otherwise each element
/// rendered once into `rendered`.
fn entry_texts<'a>(
    elements: &[Element],
    raw_line: Option<&'a str>,
    rendered: &'a mut Vec<String>,
) -> Vec<&'a str> {
    let entries: Vec<&str> = match raw_line {
        Some(line) => insert_entries(line).collect(),
        None => {
            *rendered = elements
                .iter()
                .map(|e| {
                    let mut entry = String::new();
                    render_entry(e, &mut entry);
                    entry
                })
                .collect();
            rendered.iter().map(String::as_str).collect()
        }
    };
    debug_assert_eq!(entries.len(), elements.len(), "one entry per element");
    entries
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
        // Record format: `<seq> INSERT <id> <group> <coords...> [#crc]`,
        // read through the request tokenizer the session accepted it with.
        let mut fields = Fields::new(body);
        let seq_text = fields.next().unwrap_or_default();
        let Ok(seq) = seq_text.parse::<u64>() else {
            return torn(format!("invalid sequence number `{seq_text}`"));
        };
        if !fields
            .next()
            .is_some_and(|verb| verb.eq_ignore_ascii_case("INSERT"))
        {
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
        let element = match parse_entry(fields.rest()) {
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
}

/// Files of one stream's on-disk delta chain, sorted by index. Listing
/// the directory (instead of probing contiguous indices from 1) is what
/// makes gapped chains — a failed removal, a crash mid-sweep — visible
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
    let invalid = name.is_empty()
        || name.starts_with('.')
        || name.contains('/')
        || name.contains('\\')
        || name.contains("..");
    if invalid {
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
        let engine = Engine {
            streams: RwLock::new(HashMap::new()),
            config,
            metrics: Metrics::new(),
            draining: AtomicBool::new(false),
            coordinator,
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
    /// directory listing — a gapped chain (an earlier failed removal)
    /// must not strand the survivors, so one failure is
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
        let header = format!("{WAL_HEADER}\n");
        if let Err(e) = std::fs::write(wal_path, &header) {
            // The write may have truncated the file before it failed.
            durable.wal_len = std::fs::metadata(wal_path).map_or(0, |m| m.len());
            return Err(FdmError::SnapshotIo {
                detail: format!("truncate WAL {}: {e}", wal_path.display()),
            });
        }
        durable.wal_len = header.len() as u64;
        durable.wal_torn = false;
        durable.wal = Some(Self::open_wal(wal_path)?);
        Ok(())
    }

    /// Anchors the recovery chain with a **full** snapshot: captures the
    /// state, writes `<name>.snap` (atomic), removes any superseded delta
    /// files, truncates the WAL, and rebuilds the dirty-set capture mark.
    /// Called at `OPEN` (so a crash before the first auto-checkpoint
    /// still recovers), after recovery, after `RESTORE`, at drain, when a
    /// summary reports a patch the mark cannot lower, with
    /// `full_every = 0`, when the chain reaches `full_every` deltas, and
    /// to retry a failed checkpoint. No-op without a data dir.
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
    /// — never a gap. The mark is dropped first and the new one, built with
    /// the capture, is installed last, so an anchor that fails midway
    /// leaves the next checkpoint anchoring too.
    ///
    /// Each anchor that writes its snapshot observes its capture (params,
    /// state, encode, mark) and its write (atomic write, delta sweep, WAL
    /// truncation) in `fdm_checkpoint_seconds`.
    fn anchor(&self, name: &str, entry: &StreamEntry, durable: &mut DurableState) -> Result<()> {
        if let (Some(snap_path), Some(wal_path)) = (self.snap_path(name), self.wal_path(name)) {
            durable.mark = None;
            let capture_start = Instant::now();
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
            let mark = CaptureMark::of(params, &snapshot.state);
            let capture = capture_start.elapsed();
            if crash_requested("mid-full-snapshot") {
                crash_mid_write(&snap_path, &bytes);
            }
            snapshot_write_pause();
            let write_start = Instant::now();
            fdm_core::persist::write_bytes_atomic(&snap_path, &bytes)?;
            durable.counters.full_snapshots += 1;
            durable.counters.last_snapshot_bytes = bytes.len() as u64;
            durable.counters.last_snapshot_format = Some("bin");
            entry.metrics.checkpoint_capture.observe(capture);
            crash_point("between-full-and-delta-cleanup");
            self.remove_deltas(name);
            crash_point("between-full-and-wal-truncate");
            let truncated = Self::truncate_wal(&wal_path, durable);
            entry
                .metrics
                .checkpoint_write
                .observe(write_start.elapsed());
            truncated?;
            durable.mark = Some(mark);
            durable.cursor = Some(cursor);
            durable.next_delta_index = 1;
        }
        durable.deltas_since_full = 0;
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
    /// reshuffle, bit-pack width growth), when deltas are disabled, or
    /// when the previous checkpoint failed (no mark).
    ///
    /// Chain-length management happens here too: once
    /// [`ServeConfig::full_every`] deltas were written since the last full
    /// anchor, this checkpoint collapses the chain with an inline anchor
    /// instead of writing another delta, and counts it in `compactions`.
    ///
    /// The mark and cursor leave `durable` until the delta and the WAL
    /// truncation are committed, so a failure anywhere leaves no mark and
    /// the retry anchors.
    fn checkpoint(
        &self,
        name: &str,
        entry: &StreamEntry,
        durable: &mut DurableState,
    ) -> Result<()> {
        if self.config.data_dir.is_none() {
            durable.inserts_since_snapshot = 0;
            return Ok(());
        }
        let full_every = self.config.full_every;
        if full_every == 0 {
            return self.anchor(name, entry, durable);
        }
        if durable.deltas_since_full >= full_every {
            self.anchor(name, entry, durable)?;
            durable.counters.compactions += 1;
            return Ok(());
        }
        let (Some(mut mark), Some(cursor)) = (durable.mark.take(), durable.cursor.take()) else {
            return self.anchor(name, entry, durable);
        };
        let capture_start = Instant::now();
        let (params, patch, next_cursor) = {
            let summary = read_lock(&entry.summary);
            (
                summary.params(),
                summary.state_patch_since(&cursor),
                summary.capture_cursor(),
            )
        };
        let delta = patch.and_then(|patch| SnapshotDelta::from_patch(&mut mark, &params, patch));
        let Some(delta) = delta else {
            // Unlowerable patch: the mark may be partially advanced — the
            // anchor rebuilds it from scratch.
            return self.anchor(name, entry, durable);
        };
        let index = durable.next_delta_index;
        let (delta_path, wal_path) = match (self.delta_path(name, index), self.wal_path(name)) {
            (Some(d), Some(w)) => (d, w),
            _ => unreachable!("data_dir checked above"),
        };
        let bytes = delta.to_bytes();
        let capture = capture_start.elapsed();
        if crash_requested("mid-delta-write") {
            crash_mid_write(&delta_path, &bytes);
        }
        snapshot_write_pause();
        let write_start = Instant::now();
        fdm_core::persist::write_bytes_atomic(&delta_path, &bytes)?;
        durable.counters.delta_snapshots += 1;
        durable.counters.dirty_bytes += bytes.len() as u64;
        durable.counters.last_snapshot_bytes = bytes.len() as u64;
        durable.counters.last_snapshot_format = Some("delta");
        entry.metrics.checkpoint_capture.observe(capture);
        crash_point("between-delta-and-wal-truncate");
        let truncated = Self::truncate_wal(&wal_path, durable);
        entry
            .metrics
            .checkpoint_write
            .observe(write_start.elapsed());
        truncated?;
        durable.mark = Some(mark);
        durable.cursor = Some(next_cursor);
        durable.next_delta_index += 1;
        durable.deltas_since_full += 1;
        durable.inserts_since_snapshot = 0;
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
            // not by probing consecutive indices, because a crashed or
            // failed sweep may have removed only some of a superseded
            // chain and the survivors need not start at 1. Each link's
            // base checksum is verified: a mismatch marks a *stale* delta
            // (left behind by a crash between a full-snapshot write and
            // the delta cleanup) and is skipped — later links may still
            // chain off the new snapshot. A delta file that fails its own
            // section checksums is real corruption and refuses recovery.
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
                let wal = Self::open_wal(&wal_path)?;
                durable.wal_len = wal.metadata().map_or(0, |m| m.len());
                durable.wal = Some(wal);
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

    /// `INSERT`: a one-element [`Engine::insert_batch_line`] — the same
    /// admission, WAL record and atomic apply. `raw_line` is the line the
    /// element was parsed from (see [`Engine::insert_batch_line`]).
    pub fn insert(
        &self,
        name: &str,
        element: &Element,
        raw_line: &str,
    ) -> std::result::Result<Payload, ErrorReply> {
        let seq = self.ingest(name, std::slice::from_ref(element), Some(raw_line))?;
        Ok(Payload::Inserted { seq })
    }

    /// `INSERTB` from elements alone (in-process callers): each element's
    /// entry text is rendered once, for the WAL or the coordinator's
    /// forward. Otherwise exactly [`Engine::insert_batch_line`].
    pub fn insert_batch(
        &self,
        name: &str,
        elements: &[Element],
    ) -> std::result::Result<Payload, ErrorReply> {
        let seq = self.ingest(name, elements, None)?;
        Ok(Payload::InsertedBatch {
            seq,
            count: elements.len(),
        })
    }

    /// `INSERTB` as a session receives it: `elements` parsed from the
    /// client's `raw_line`. The one insert path — one WAL append covering
    /// every element (each record sequence-numbered and CRC-suffixed, so
    /// replay cannot tell a batch from per-element `INSERT`s), then **one
    /// atomic apply** via [`DynSummary::insert_batch`] under a single
    /// write-lock acquisition. Atomicity is the contract the coordinator's
    /// mid-batch failure semantics lean on: a worker either applied its
    /// whole sub-batch or none of it, so the set of elements it holds is
    /// always a prefix of its sub-stream. On a coordinator the batch is
    /// routed instead (see [`crate::coordinator`]).
    ///
    /// Both the WAL records and the coordinator's per-worker lines carry
    /// the entry texts sliced from `raw_line` ([`insert_entries`]) — the
    /// client's own spelling, never a re-render of the parsed elements.
    /// f64 parsing is deterministic, so replaying or re-parsing that text
    /// yields exactly `elements`.
    ///
    /// Holds only this stream's durable mutex across the operation —
    /// other tenants keep running during the disk I/O — and the summary
    /// write lock only for the in-memory apply, so concurrent `QUERY`s
    /// overlap with everything but that instant. Afterwards it maybe
    /// auto-checkpoints (a delta while the chain is short, a fresh full
    /// snapshot every [`ServeConfig::full_every`] deltas).
    ///
    /// Protection happens *before* the durable mutex is touched:
    ///
    /// * the token-bucket rate limiter (when configured) takes one token
    ///   per element (clamped to its burst capacity) and rejects an
    ///   over-limit request with `ERR busy` instead of queueing it;
    /// * the bounded pending counter rejects requests that would pile more
    ///   than [`ServeConfig::max_pending_inserts`] blocked threads onto
    ///   this stream's write path.
    ///
    /// A panic inside the summary apply (the only window where in-memory
    /// state can diverge from the log) is **contained**: the WAL is rolled
    /// back across all the request's records so log and state stay in
    /// lockstep, and the caller gets a typed `ERR` instead of a dead
    /// connection.
    pub fn insert_batch_line(
        &self,
        name: &str,
        elements: &[Element],
        raw_line: &str,
    ) -> std::result::Result<Payload, ErrorReply> {
        let seq = self.ingest(name, elements, Some(raw_line))?;
        Ok(Payload::InsertedBatch {
            seq,
            count: elements.len(),
        })
    }

    /// The body of every insert: returns the stream position after the
    /// last element. `raw_line`, when given, is the line `elements` were
    /// parsed from.
    fn ingest(
        &self,
        name: &str,
        elements: &[Element],
        raw_line: Option<&str>,
    ) -> std::result::Result<usize, ErrorReply> {
        if elements.is_empty() {
            return Err(generic("INSERTB requires at least one element"));
        }
        let mut rendered = Vec::new();
        if let Some(coordinator) = &self.coordinator {
            let entries = entry_texts(elements, raw_line, &mut rendered);
            return coordinator.insert_batch(name, elements, &entries);
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
        // `durable` serializes writers, so the sequence number read here
        // cannot race another insert's apply.
        let base_seq = {
            let summary = read_lock(&entry.summary);
            let mut params = summary.params();
            // A fresh stream takes its dimension from the request's first
            // element; the rest of the request must match it too.
            if params.dim == 0 {
                params.dim = elements[0].dim();
            }
            for element in elements {
                check_element(&params, element).map_err(ErrorReply::generic)?;
            }
            summary.processed() as u64 + 1
        };
        let count = elements.len() as u64;
        crash_point("before-batch-wal-append");
        let committed = durable.wal_len;
        if durable.wal.is_some() {
            if durable.wal_torn {
                durable.rollback_wal().map_err(|e| {
                    generic(format!(
                        "WAL for {name} still holds a failed append that could not be \
                         rolled back (retried on the next insert): {e}"
                    ))
                })?;
            }
            // All records in one pre-formatted buffer, one write syscall:
            // the torn-write window is a single partial write, and
            // recovery's per-record CRCs make any truncation point
            // detectable. Each record is `<seq> INSERT <entry>`, so a
            // batch logs exactly what per-element INSERTs of the same
            // entries would.
            let records: String = entry_texts(elements, raw_line, &mut rendered)
                .iter()
                .enumerate()
                .map(|(i, entry)| wal_record(&format!("{} INSERT {entry}", base_seq + i as u64)))
                .collect();
            durable
                .append_wal(records.as_bytes())
                .map_err(|e| generic(format!("append WAL for {name}: {e}")))?;
            durable.counters.wal_records += count;
        }
        crash_point("between-wal-append-and-apply");
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut summary = write_lock(&entry.summary);
            panic_point("insert-apply", name);
            summary.insert_batch(elements);
        }));
        if let Err(payload) = applied {
            // None of the request was applied (`insert_batch` is one call
            // under one lock): un-append its records so the log matches
            // the in-memory state — otherwise the next insert would reuse
            // these sequence numbers and replay after a crash would apply
            // the wrong records.
            if durable.wal.is_some() {
                durable.wal_len = committed;
                let _ = durable.rollback_wal();
                durable.counters.wal_records = durable.counters.wal_records.saturating_sub(count);
            }
            self.metrics.panic_contained();
            return Err(generic(format!(
                "internal error (panic contained) applying insert to `{name}`: {}",
                panic_message(&*payload)
            )));
        }
        durable.inserts_since_snapshot += count;
        if let Some(every) = self.config.snapshot_every {
            if every > 0 && durable.inserts_since_snapshot >= every {
                // The request is already logged and applied, so it is
                // acknowledged either way: an `ERR` would invite a retry
                // that applies it twice. `inserts_since_snapshot` stays
                // over the bound, so the next insert retries.
                if let Err(e) = self.checkpoint(name, &entry, &mut durable) {
                    durable.counters.checkpoint_failures += 1;
                    eprintln!(
                        "fdm-serve: auto-checkpoint of `{name}` failed (retried on the next insert): {e}"
                    );
                }
            }
        }
        entry.metrics.insert_latency.observe(start.elapsed());
        Ok((base_seq - 1 + count) as usize)
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
        let mut tally = GuessTally::default();
        let solution = summary.finalize_tallied(&mut tally);
        drop(summary);
        entry.metrics.count_guesses(tally);
        let solution = solution.map_err(generic)?;
        entry.metrics.query_latency.observe(start.elapsed());
        Ok(Payload::Query(QueryReply {
            k: solution.len(),
            diversity: solution.diversity,
            ids: solution.ids(),
        }))
    }

    /// `MERGE`: export the named stream's retained elements as an inline
    /// union block (`protocol::encode_union`) — the wire contract the
    /// coordinator's `QUERY` fan-out is built on. The elements are read
    /// under a short summary read lock; the encode runs off-lock.
    pub fn merge(&self, name: &str) -> std::result::Result<Payload, ErrorReply> {
        if self.coordinator.is_some() {
            return Err(generic(
                "MERGE is not supported in coordinator mode (the workers own the summaries)",
            ));
        }
        let entry = self.entry(name)?;
        let (union, processed, algorithm) = {
            let summary = read_lock(&entry.summary);
            (
                summary.retained_elements(),
                summary.processed(),
                summary.params().algorithm,
            )
        };
        Ok(Payload::Merge {
            algorithm,
            processed,
            bytes: encode_union(&union),
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
        let capture_start = Instant::now();
        let (snapshot, processed) = {
            let summary = read_lock(&entry.summary);
            (summary.snapshot(), summary.processed())
        };
        // Off-lock from here on.
        let bytes = snapshot.to_bytes(SnapshotFormat::Binary);
        let capture = capture_start.elapsed();
        snapshot_write_pause();
        let write_start = Instant::now();
        fdm_core::persist::write_bytes_atomic(Path::new(path), &bytes).map_err(generic)?;
        let write = write_start.elapsed();
        let mut durable = lock(&entry.durable);
        durable.counters.full_snapshots += 1;
        durable.counters.last_snapshot_bytes = bytes.len() as u64;
        durable.counters.last_snapshot_format = Some("bin");
        entry.metrics.checkpoint_capture.observe(capture);
        entry.metrics.checkpoint_write.observe(write);
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
        Ok(Payload::Stats(metrics::stream_stats(&sample(name, &entry))))
    }

    /// Renders the full Prometheus text exposition for `/metrics`: the
    /// per-stream series (geometry, persistence gauges, latency
    /// histograms) followed by the process-wide ones. On a coordinator
    /// the streams are its logical streams, plus its fleet families.
    ///
    /// Per stream the scrape takes the same locks as `STATS` (see
    /// `sample`); the rest is atomic loads. A scrape never blocks inserts
    /// for longer than those copies.
    pub fn render_metrics(&self) -> String {
        if let Some(coordinator) = &self.coordinator {
            let samples = coordinator.stream_samples();
            return metrics::exposition(samples, Some(coordinator), &self.metrics);
        }
        let entries: Vec<(String, Arc<StreamEntry>)> = read_lock(&self.streams)
            .iter()
            .map(|(name, entry)| (name.clone(), entry.clone()))
            .collect();
        let samples = entries.iter().map(|(name, entry)| sample(name, entry));
        metrics::exposition(samples.collect(), None, &self.metrics)
    }
}

/// Copies what `STATS` and `/metrics` report of one hosted stream: a short
/// summary read lock, dropped *before* the durable mutex is taken (never
/// both at once, so a scrape cannot deadlock against an insert holding
/// durable and waiting on the summary).
fn sample(name: &str, entry: &StreamEntry) -> StreamSample {
    let (params, processed, stored) = {
        let summary = read_lock(&entry.summary);
        (
            summary.params(),
            summary.processed() as u64,
            summary.stored_elements() as u64,
        )
    };
    let persist = lock(&entry.durable).counters;
    StreamSample {
        name: name.to_string(),
        processed,
        latency: entry.metrics.clone(),
        node: Some(NodeSample {
            params,
            stored,
            persist,
        }),
        cursor: None,
    }
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
