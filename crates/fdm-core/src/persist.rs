//! Versioned snapshot/restore persistence for the streaming summaries.
//!
//! The paper's central property — the summary *is* the whole recoverable
//! state and is provably small (`O(m·k·log ∆/ε)` elements, independent of
//! the stream length) — makes checkpointing cheap: persisting a streaming
//! algorithm means persisting its candidate ladders and the shared
//! [`PointStore`] arena, nothing else.
//!
//! A [`Snapshot`] is a versioned envelope with one on-disk encoding, the
//! **v2 binary** frame ([`codec`]): CRC32-checked little-endian sections
//! with dense `f64` row blobs and varint-packed ids.
//!
//! The older **v1 (JSON)** encoding is read-only and never written. Its
//! reader ([`Snapshot::from_json`], sniffed by [`Snapshot::from_bytes`])
//! stays forever, so old checkpoints and exported files keep restoring:
//!
//! ```json
//! {
//!   "magic": "FDMSNAP",
//!   "version": 1,
//!   "params": { "algorithm": "sfdm2", "dim": 2, "epsilon": 0.1, ... },
//!   "state": { ... }
//! }
//! ```
//!
//! On top of full snapshots, [`delta`] implements **incremental
//! checkpoints**: a [`SnapshotDelta`] records only what changed since the
//! previous capture (appended arena rows, new candidate members, counter
//! updates) and chains as `full + delta*`, each link verified by a
//! checksum of the state it applies to.
//!
//! `params` ([`SnapshotParams`]) duplicates the load-bearing configuration
//! (algorithm tag, dimension, `ε`, metric, distance bounds, quotas, shard
//! count) so a consumer can check compatibility *before* decoding the full
//! state, and so a restored instance can be cross-validated against the
//! envelope. All failure modes are typed [`FdmError`] variants — bad magic,
//! a truncated document, or internally inconsistent state report
//! [`FdmError::CorruptSnapshot`]; a newer format version reports
//! [`FdmError::UnsupportedSnapshotVersion`]; a well-formed snapshot of the
//! wrong algorithm/dimension/parameters reports
//! [`FdmError::IncompatibleSnapshot`] — never a panic, and never garbage
//! distances from silently mixing dimensions.
//!
//! Restoring is **bit-exact**: coordinates travel as raw `f64` bits in v2
//! (and as Rust's shortest-round-trip `f64` text in v1), the norm
//! cache and guess ladder are rebuilt through the same code paths the
//! original run used, and continuing an interrupted stream after
//! restore yields solutions bit-identical to an uninterrupted run (pinned
//! by `tests/persist.rs` and the `fdm-serve` CI job).
//!
//! [`Snapshottable`] is implemented by all four streaming summaries:
//! [`StreamingDiversityMaximization`](crate::streaming::unconstrained::StreamingDiversityMaximization)
//! (tag `unconstrained`), [`Sfdm1`](crate::streaming::sfdm1::Sfdm1) (tag
//! `sfdm1`), [`Sfdm2`](crate::streaming::sfdm2::Sfdm2) (tag `sfdm2`), and
//! [`ShardedStream<S>`](crate::streaming::sharded::ShardedStream) (tag
//! `sharded:<inner>`).

use std::path::Path;

use serde::{Deserialize, Serialize, Value};

use crate::dataset::DistanceBounds;
use crate::error::{FdmError, Result};
use crate::metric::Metric;
use crate::point::{PointId, PointStore};
use crate::streaming::candidate::Candidate;

pub mod codec;
pub mod delta;

pub use delta::{CaptureMark, SnapshotDelta, StatePatch};

/// Magic string identifying an FDM snapshot document.
pub const SNAPSHOT_MAGIC: &str = "FDMSNAP";

/// JSON (v1) snapshot format version: the only version
/// [`Snapshot::from_json`] reads. Nothing writes v1 any more; binary (v2)
/// snapshots carry their own container version
/// ([`codec::BINARY_VERSION`]).
pub const SNAPSHOT_VERSION: u64 = 1;

/// Argument of [`Snapshot::to_bytes`]. Inert: binary (v2) is the only
/// encoding written, so this one-variant enum selects nothing. It is kept
/// only because `perfbench/src/layers.rs` names
/// `SnapshotFormat::Binary`; delete it once that caller drops the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotFormat {
    /// Format v2: framed little-endian binary with per-section CRC32
    /// (see [`codec`]).
    #[default]
    Binary,
}

/// The load-bearing configuration of a snapshot, stored in the envelope so
/// compatibility can be checked without decoding the state.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotParams {
    /// Algorithm tag: `unconstrained`, `sfdm1`, `sfdm2`, `sliding`, or
    /// `sharded:<inner>`.
    pub algorithm: String,
    /// Point dimensionality observed so far; `0` when no element has
    /// arrived yet (any dimension is still acceptable).
    pub dim: usize,
    /// Guess-ladder accuracy `ε`.
    pub epsilon: f64,
    /// Distance metric.
    pub metric: Metric,
    /// Distance bounds the guess ladder was built from.
    pub bounds: DistanceBounds,
    /// Per-group quotas; empty for the unconstrained algorithm.
    pub quotas: Vec<usize>,
    /// Solution size `k` (`Σ quotas` for the fair algorithms).
    pub k: usize,
    /// Shard count; `1` for unsharded summaries.
    pub shards: usize,
    /// Sliding-window size `W` in elements; `0` for unwindowed summaries.
    pub window: usize,
}

// Hand-written (rather than derived) so the `window` field is **omitted
// when zero**: every pre-sliding snapshot ever written stays byte-identical
// under re-encode (the golden fixtures pin this), and those documents
// deserialize with the implied `window = 0`.
impl Serialize for SnapshotParams {
    fn to_value(&self) -> Value {
        let mut map = serde::Map::new();
        map.insert("algorithm".to_string(), self.algorithm.to_value());
        map.insert("dim".to_string(), self.dim.to_value());
        map.insert("epsilon".to_string(), self.epsilon.to_value());
        map.insert("metric".to_string(), self.metric.to_value());
        map.insert("bounds".to_string(), self.bounds.to_value());
        map.insert("quotas".to_string(), self.quotas.to_value());
        map.insert("k".to_string(), self.k.to_value());
        map.insert("shards".to_string(), self.shards.to_value());
        if self.window != 0 {
            map.insert("window".to_string(), self.window.to_value());
        }
        Value::Object(map)
    }
}

impl Deserialize for SnapshotParams {
    fn from_value(value: &Value) -> std::result::Result<Self, serde::DeError> {
        fn req<T: Deserialize>(value: &Value, key: &str) -> std::result::Result<T, serde::DeError> {
            let field = value
                .get(key)
                .ok_or_else(|| serde::DeError::custom(format!("missing field `{key}`")))?;
            T::from_value(field)
        }
        Ok(SnapshotParams {
            algorithm: req(value, "algorithm")?,
            dim: req(value, "dim")?,
            epsilon: req(value, "epsilon")?,
            metric: req(value, "metric")?,
            bounds: req(value, "bounds")?,
            quotas: req(value, "quotas")?,
            k: req(value, "k")?,
            shards: req(value, "shards")?,
            window: match value.get("window") {
                Some(v) => usize::from_value(v)?,
                None => 0,
            },
        })
    }
}

impl SnapshotParams {
    /// Checks that a snapshot with these parameters can be restored into a
    /// deployment expecting `live`, reporting the first mismatch as
    /// [`FdmError::IncompatibleSnapshot`].
    ///
    /// `dim = 0` on either side is a wildcard: a stream that has not seen
    /// an element yet is compatible with any dimension.
    pub fn ensure_compatible(&self, live: &SnapshotParams) -> Result<()> {
        let fail = |what: &str, snap: String, want: String| {
            Err(FdmError::IncompatibleSnapshot {
                detail: format!("{what}: snapshot has {snap}, deployment expects {want}"),
            })
        };
        if self.algorithm != live.algorithm {
            return fail(
                "algorithm",
                format!("`{}`", self.algorithm),
                format!("`{}`", live.algorithm),
            );
        }
        if self.dim != 0 && live.dim != 0 && self.dim != live.dim {
            return fail("dimension", self.dim.to_string(), live.dim.to_string());
        }
        if self.epsilon != live.epsilon {
            return fail(
                "epsilon",
                self.epsilon.to_string(),
                live.epsilon.to_string(),
            );
        }
        if self.metric != live.metric {
            return fail(
                "metric",
                format!("{:?}", self.metric),
                format!("{:?}", live.metric),
            );
        }
        if self.bounds != live.bounds {
            return fail(
                "distance bounds",
                format!("[{}, {}]", self.bounds.lower, self.bounds.upper),
                format!("[{}, {}]", live.bounds.lower, live.bounds.upper),
            );
        }
        if self.quotas != live.quotas {
            return fail(
                "group quotas",
                format!("{:?}", self.quotas),
                format!("{:?}", live.quotas),
            );
        }
        if self.k != live.k {
            return fail("solution size k", self.k.to_string(), live.k.to_string());
        }
        if self.shards != live.shards {
            return fail(
                "shard count",
                self.shards.to_string(),
                live.shards.to_string(),
            );
        }
        if self.window != live.window {
            return fail(
                "sliding window",
                self.window.to_string(),
                live.window.to_string(),
            );
        }
        Ok(())
    }
}

/// A versioned, self-describing checkpoint of one streaming summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Envelope parameters (see [`SnapshotParams`]).
    pub params: SnapshotParams,
    /// Algorithm-specific state tree.
    pub state: Value,
}

impl Snapshot {
    /// Parses a v1 (JSON) snapshot document, validating magic and format
    /// version. Read-only: v1 is never written.
    pub fn from_json(text: &str) -> Result<Snapshot> {
        let value = serde_json::parse_value(text).map_err(|e| FdmError::CorruptSnapshot {
            detail: format!("invalid JSON: {e}"),
        })?;
        let magic = value.get("magic").and_then(Value::as_str).ok_or_else(|| {
            FdmError::CorruptSnapshot {
                detail: "missing `magic` marker".to_string(),
            }
        })?;
        if magic != SNAPSHOT_MAGIC {
            return Err(FdmError::CorruptSnapshot {
                detail: format!("bad magic `{magic}` (expected `{SNAPSHOT_MAGIC}`)"),
            });
        }
        let version = value
            .get("version")
            .and_then(Value::as_u64)
            .ok_or_else(|| FdmError::CorruptSnapshot {
                detail: "missing `version` field".to_string(),
            })?;
        if version != SNAPSHOT_VERSION {
            return Err(FdmError::UnsupportedSnapshotVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let params_value = value
            .get("params")
            .ok_or_else(|| FdmError::CorruptSnapshot {
                detail: "missing `params` object".to_string(),
            })?;
        let params =
            SnapshotParams::from_value(params_value).map_err(|e| FdmError::CorruptSnapshot {
                detail: format!("invalid `params`: {e}"),
            })?;
        let state = value
            .get("state")
            .cloned()
            .ok_or_else(|| FdmError::CorruptSnapshot {
                detail: "missing `state` object".to_string(),
            })?;
        Ok(Snapshot { params, state })
    }

    /// Serializes the snapshot as the v2 binary frame (the argument is
    /// inert; see [`SnapshotFormat`]).
    pub fn to_bytes(&self, _format: SnapshotFormat) -> Vec<u8> {
        codec::encode_snapshot(self)
    }

    /// Parses a snapshot from bytes, sniffing the format: the v2 binary
    /// magic selects the binary decoder, anything else is treated as v1
    /// JSON. Both paths validate magic and version and report every
    /// failure as a typed error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot> {
        if bytes.starts_with(&codec::BINARY_MAGIC) {
            return codec::decode_snapshot(bytes);
        }
        if bytes.starts_with(&delta::DELTA_MAGIC) {
            return Err(FdmError::CorruptSnapshot {
                detail: "file is a delta snapshot, not a full snapshot \
                         (apply it to its base instead)"
                    .to_string(),
            });
        }
        let text = std::str::from_utf8(bytes).map_err(|e| FdmError::CorruptSnapshot {
            detail: format!("snapshot is neither binary (no FDMSNAP2 magic) nor UTF-8 JSON: {e}"),
        })?;
        Snapshot::from_json(text)
    }

    /// Writes the snapshot to a file as the v2 binary frame.
    ///
    /// The write is atomic and durable: the document goes to a sibling
    /// `.tmp` file, is fsynced, and is renamed into place (with a
    /// best-effort directory fsync), so neither a crash mid-write nor a
    /// power loss across the rename can destroy the previous checkpoint —
    /// a half-written snapshot would otherwise brick crash recovery, the
    /// exact failure snapshots exist to survive.
    pub fn write_to_file(&self, path: impl AsRef<Path>) -> Result<()> {
        write_bytes_atomic(path.as_ref(), &codec::encode_snapshot(self))
    }

    /// Reads and parses a snapshot file (v2 or v1, sniffed).
    pub fn read_from_file(path: impl AsRef<Path>) -> Result<Snapshot> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| FdmError::SnapshotIo {
            detail: format!("read {}: {e}", path.display()),
        })?;
        Snapshot::from_bytes(&bytes)
    }
}

/// Atomic durable file write shared by full snapshots and deltas (and by
/// `fdm-serve`'s checkpoint writer, which pre-encodes so it can report
/// checkpoint sizes): write to a sibling temp file, fsync, rename into
/// place, best-effort fsync of the directory entry.
///
/// The temp name carries the pid and a process-wide counter so concurrent
/// writers of the **same** destination (e.g. two sessions exporting one
/// stream to one path) each stage through their own file: every rename
/// promotes one complete document — last writer wins — instead of the two
/// interleaving inside a shared `.tmp`.
pub fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
    let io_err = |what: &str, p: &Path, e: std::io::Error| FdmError::SnapshotIo {
        detail: format!("{what} {}: {e}", p.display()),
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp);
    {
        use std::io::Write as _;
        let mut file = std::fs::File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        file.write_all(bytes)
            .map_err(|e| io_err("write", &tmp, e))?;
        // Data must be on disk before the rename becomes visible;
        // otherwise the journal can persist the rename but not the
        // contents, leaving a valid-looking empty snapshot.
        file.sync_all().map_err(|e| io_err("sync", &tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| FdmError::SnapshotIo {
        detail: format!("rename {} to {}: {e}", tmp.display(), path.display()),
    })?;
    // Persist the rename itself (directory entry). Best-effort: not
    // every platform/filesystem supports fsync on directories.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(dir_file) = std::fs::File::open(dir) {
            let _ = dir_file.sync_all();
        }
    }
    Ok(())
}

/// A streaming summary that can checkpoint itself into a [`Snapshot`] and
/// be rebuilt from one.
///
/// The contract: `restore(&alg.snapshot())` yields an instance whose
/// observable behavior — every future insert decision, `finalize`, space
/// accounting — is bit-identical to `alg`'s.
pub trait Snapshottable: Sized {
    /// The algorithm tag written into the envelope (e.g. `sfdm2`).
    fn algorithm_tag() -> String;

    /// The envelope parameters describing this instance's configuration.
    fn snapshot_params(&self) -> SnapshotParams;

    /// Serializes the full streaming state to a value tree.
    fn snapshot_state(&self) -> Value;

    /// Rebuilds an instance from a state tree, validating it.
    fn restore_state(state: &Value) -> Result<Self>;

    /// Captures a complete [`Snapshot`] of this instance.
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            params: self.snapshot_params(),
            state: self.snapshot_state(),
        }
    }

    /// An opaque cursor marking this instance's current capture position
    /// (arena lengths, per-lane member counts, arrival counters) — the
    /// dirty-set high-water mark a later [`Snapshottable::state_patch_since`]
    /// measures from. The default (no dirty tracking) is [`Value::Null`].
    fn capture_cursor(&self) -> Value {
        Value::Null
    }

    /// The structural changes to [`Snapshottable::snapshot_state`] since
    /// `cursor` was taken, as a [`StatePatch`] — `O(changed)`, never a
    /// walk of the full state. `None` means the changes cannot be
    /// described incrementally (unrecognized cursor, a structural rewrite
    /// like the sliding window's rotation, or no dirty tracking at all);
    /// the caller falls back to a full capture. Implementations may only
    /// return `Some` when the patch provably reproduces the full-tree
    /// diff (pinned by proptest in `tests/persist_codec.rs`).
    fn state_patch_since(&self, cursor: &Value) -> Option<StatePatch> {
        let _ = cursor;
        None
    }

    /// Restores an instance from a snapshot, rejecting wrong-algorithm
    /// envelopes and envelopes whose parameters disagree with the decoded
    /// state.
    fn restore(snapshot: &Snapshot) -> Result<Self> {
        let expected = Self::algorithm_tag();
        if snapshot.params.algorithm != expected {
            return Err(FdmError::IncompatibleSnapshot {
                detail: format!(
                    "snapshot holds algorithm `{}`, expected `{expected}`",
                    snapshot.params.algorithm
                ),
            });
        }
        let restored = Self::restore_state(&snapshot.state)?;
        let live = restored.snapshot_params();
        if live != snapshot.params {
            return Err(FdmError::IncompatibleSnapshot {
                detail: format!(
                    "envelope parameters disagree with the decoded state \
                     (envelope {:?}, state {:?})",
                    snapshot.params, live
                ),
            });
        }
        Ok(restored)
    }
}

/// Decodes one field of a state tree, mapping absence and decode failures
/// to [`FdmError::CorruptSnapshot`].
pub(crate) fn field<T: Deserialize>(state: &Value, key: &str) -> Result<T> {
    let value = state.get(key).ok_or_else(|| FdmError::CorruptSnapshot {
        detail: format!("missing state field `{key}`"),
    })?;
    T::from_value(value).map_err(|e| FdmError::CorruptSnapshot {
        detail: format!("state field `{key}`: {e}"),
    })
}

/// One candidate ladder's persisted form: a digest of the guesses and, per
/// guess, the member ids into the shared arena.
///
/// Compatibility contract: the v1 reader stays forever (every document
/// ever written keeps restoring — pinned by the legacy golden fixture);
/// nothing writes v1. The state schema may still grow additively, as
/// this digest did. Consequence: rolling back to a build older than a
/// schema extension may require capturing a fresh snapshot with the old
/// build rather than reading the new file.
///
/// The guess thresholds are redundant with the configuration (the ladder
/// is rebuilt from `bounds`/`epsilon` on restore) and serve purely as an
/// integrity check, so they persist as a CRC32 over the `µ` bit patterns
/// (`mu_crc`) rather than a full-precision float list — a state tree
/// whose digest disagrees with the ladder its own configuration implies
/// is rejected, at 4 bytes per ladder instead of 8 per lane. Documents
/// written before the digest existed carry a `mus` array instead; those
/// restore through the original bit-exact per-lane comparison.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LadderLanes {
    /// CRC32 over the lane thresholds' `f64` bit patterns.
    mu_crc: Option<u32>,
    /// Legacy form: guess value `µ` per lane (still readable).
    mus: Option<Vec<f64>>,
    /// Member ids per lane (indices into the snapshot's arena).
    members: Vec<Vec<u32>>,
}

/// CRC32 digest of a guess ladder's thresholds (bit patterns, in lane
/// order).
fn mu_digest(mus: impl Iterator<Item = f64>) -> u32 {
    let mut bytes = Vec::new();
    for mu in mus {
        bytes.extend_from_slice(&mu.to_bits().to_le_bytes());
    }
    codec::crc32(&bytes)
}

impl Serialize for LadderLanes {
    fn to_value(&self) -> Value {
        let mut map = serde::Map::new();
        match (&self.mu_crc, &self.mus) {
            (Some(crc), _) => {
                map.insert("mu_crc".to_string(), Serialize::to_value(crc));
            }
            (None, mus) => {
                map.insert(
                    "mus".to_string(),
                    Serialize::to_value(&mus.clone().unwrap_or_default()),
                );
            }
        }
        map.insert("members".to_string(), Serialize::to_value(&self.members));
        Value::Object(map)
    }
}

impl Deserialize for LadderLanes {
    fn from_value(value: &Value) -> std::result::Result<Self, serde::DeError> {
        let members = value
            .get("members")
            .ok_or_else(|| serde::DeError::custom("missing field `members`"))
            .and_then(<Vec<Vec<u32>> as Deserialize>::from_value)?;
        let mu_crc = match value.get("mu_crc") {
            Some(v) => Some(<u32 as Deserialize>::from_value(v)?),
            None => None,
        };
        let mus = match value.get("mus") {
            Some(v) => Some(<Vec<f64> as Deserialize>::from_value(v)?),
            None => None,
        };
        if mu_crc.is_none() && mus.is_none() {
            return Err(serde::DeError::custom(
                "ladder lanes need either `mu_crc` or the legacy `mus`",
            ));
        }
        Ok(LadderLanes {
            mu_crc,
            mus,
            members,
        })
    }
}

/// Captures the persisted form of a candidate ladder.
pub(crate) fn lanes_of(candidates: &[Candidate]) -> LadderLanes {
    LadderLanes {
        mu_crc: Some(mu_digest(candidates.iter().map(Candidate::mu))),
        mus: None,
        members: candidates
            .iter()
            .map(|c| c.members().iter().map(|id| id.0).collect())
            .collect(),
    }
}

/// Fills freshly-built ladder candidates from their persisted form,
/// validating lane count, thresholds (bit-exact), capacities, and member
/// ids against the restored arena.
pub(crate) fn restore_lanes(
    candidates: &mut [Candidate],
    lanes: &LadderLanes,
    store_len: usize,
    what: &str,
) -> Result<()> {
    let mu_lanes = lanes.mus.as_ref().map_or(lanes.members.len(), Vec::len);
    if mu_lanes != candidates.len() || lanes.members.len() != candidates.len() {
        return Err(FdmError::IncompatibleSnapshot {
            detail: format!(
                "{what}: snapshot has {} lanes, configuration implies {}",
                mu_lanes.max(lanes.members.len()),
                candidates.len()
            ),
        });
    }
    if let Some(stored) = lanes.mu_crc {
        let implied = mu_digest(candidates.iter().map(Candidate::mu));
        if stored != implied {
            return Err(FdmError::IncompatibleSnapshot {
                detail: format!(
                    "{what}: snapshot ladder digest {stored:#010x} disagrees with the \
                     digest {implied:#010x} implied by the configuration"
                ),
            });
        }
    }
    for (lane, (candidate, members)) in candidates.iter_mut().zip(&lanes.members).enumerate() {
        if let Some(mus) = &lanes.mus {
            let mu = mus[lane];
            if mu.to_bits() != candidate.mu().to_bits() {
                return Err(FdmError::IncompatibleSnapshot {
                    detail: format!(
                        "{what} lane {lane}: snapshot guess µ = {mu} disagrees with \
                         the ladder value {} implied by the configuration",
                        candidate.mu()
                    ),
                });
            }
        }
        if members.len() > candidate.capacity() {
            return Err(FdmError::CorruptSnapshot {
                detail: format!(
                    "{what} lane {lane}: {} members exceed capacity {}",
                    members.len(),
                    candidate.capacity()
                ),
            });
        }
        if let Some(&bad) = members.iter().find(|&&id| (id as usize) >= store_len) {
            return Err(FdmError::CorruptSnapshot {
                detail: format!(
                    "{what} lane {lane}: member id {bad} is outside the stored \
                     arena of {store_len} points"
                ),
            });
        }
        candidate.restore_members(members.iter().map(|&id| PointId(id)).collect());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Dirty-set capture helpers (shared by the summaries' `state_patch_since`)
// ---------------------------------------------------------------------------

/// Capture cursor for a candidate ladder: the member count per lane
/// (members are append-only, so a count is a complete high-water mark).
pub(crate) fn lanes_cursor(candidates: &[Candidate]) -> Value {
    Value::Array(
        candidates
            .iter()
            .map(|c| Value::Number(c.members().len() as f64))
            .collect(),
    )
}

/// Dirty-set patch for a ladder serialized via [`lanes_of`]: the member-id
/// suffix appended to each lane since `cursor`. The `mu_crc` digest is a
/// pure function of the configuration, so it is never mentioned (= keep).
pub(crate) fn lanes_patch_since(candidates: &[Candidate], cursor: &Value) -> Option<StatePatch> {
    let counts = cursor.as_array()?;
    if counts.len() != candidates.len() {
        return None;
    }
    let mut lanes = Vec::with_capacity(candidates.len());
    for (candidate, old) in candidates.iter().zip(counts) {
        let old = old.as_u64()? as usize;
        let members = candidate.members();
        if old > members.len() {
            return None;
        }
        if old == members.len() {
            lanes.push(StatePatch::Keep);
        } else {
            lanes.push(StatePatch::Append(
                members[old..]
                    .iter()
                    .map(|id| Value::Number(f64::from(id.0)))
                    .collect(),
            ));
        }
    }
    Some(StatePatch::Object(vec![(
        "members".to_string(),
        StatePatch::Elements(lanes),
    )]))
}

/// Capture cursor for the shared arena: row count plus raw coordinate
/// count (both append-only; the arena is only ever *replaced* while
/// empty, which the dimension replace below covers).
pub(crate) fn store_cursor(store: &PointStore) -> Value {
    let mut map = serde::Map::new();
    map.insert("len".to_string(), Value::Number(store.len() as f64));
    map.insert(
        "coords".to_string(),
        Value::Number(store.coords_raw().len() as f64),
    );
    Value::Object(map)
}

/// Dirty-set patch for the arena since `cursor`: the appended
/// id/group/coordinate suffixes, plus the dimension (whose replace lowers
/// to a keep whenever it is unchanged).
pub(crate) fn store_patch_since(store: &PointStore, cursor: &Value) -> Option<StatePatch> {
    let old_len = cursor.get("len")?.as_u64()? as usize;
    let old_coords = cursor.get("coords")?.as_u64()? as usize;
    let ids = store.external_ids_raw();
    let groups = store.groups_raw();
    let coords = store.coords_raw();
    if old_len > ids.len() || old_coords > coords.len() {
        return None;
    }
    Some(StatePatch::Object(vec![
        (
            "dim".to_string(),
            StatePatch::Replace(Value::Number(store.dim() as f64)),
        ),
        (
            "external_ids".to_string(),
            StatePatch::Append(
                ids[old_len..]
                    .iter()
                    .map(|&v| Value::Number(v as f64))
                    .collect(),
            ),
        ),
        (
            "groups".to_string(),
            StatePatch::Append(
                groups[old_len..]
                    .iter()
                    .map(|&v| Value::Number(f64::from(v)))
                    .collect(),
            ),
        ),
        (
            "coords".to_string(),
            StatePatch::Append(
                coords[old_coords..]
                    .iter()
                    .map(|&v| Value::Number(v))
                    .collect(),
            ),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(tag: &str) -> SnapshotParams {
        SnapshotParams {
            algorithm: tag.to_string(),
            dim: 2,
            epsilon: 0.1,
            metric: Metric::Euclidean,
            bounds: DistanceBounds::new(1.0, 10.0).unwrap(),
            quotas: vec![2, 2],
            k: 4,
            shards: 1,
            window: 0,
        }
    }

    /// A v1 document as the retired JSON writer emitted it for
    /// `params("sfdm2")` with the state `"payload"`.
    const V1_DOC: &str = r#"{"magic":"FDMSNAP","version":1,"params":{"algorithm":"sfdm2","dim":2,"epsilon":0.1,"metric":"Euclidean","bounds":{"lower":1,"upper":10},"quotas":[2,2],"k":4,"shards":1},"state":"payload"}"#;

    #[test]
    fn envelope_round_trips() {
        let snap = Snapshot {
            params: params("sfdm2"),
            state: Value::String("payload".into()),
        };
        let back = Snapshot::from_bytes(&snap.to_bytes(SnapshotFormat::Binary)).unwrap();
        assert_eq!(snap, back);
        assert_eq!(Snapshot::from_json(V1_DOC).unwrap(), snap);
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let good = V1_DOC;
        let bad_magic = good.replace("FDMSNAP", "NOTSNAP");
        assert!(matches!(
            Snapshot::from_json(&bad_magic),
            Err(FdmError::CorruptSnapshot { .. })
        ));
        let bad_version = good.replace("\"version\":1", "\"version\":99");
        assert_eq!(
            Snapshot::from_json(&bad_version),
            Err(FdmError::UnsupportedSnapshotVersion {
                found: 99,
                supported: SNAPSHOT_VERSION
            })
        );
        assert!(matches!(
            Snapshot::from_json("{\"truncated\":"),
            Err(FdmError::CorruptSnapshot { .. })
        ));
    }

    #[test]
    fn compatibility_check_reports_first_mismatch() {
        let a = params("sfdm2");
        assert!(a.ensure_compatible(&a).is_ok());

        let mut b = a.clone();
        b.algorithm = "sfdm1".into();
        let err = a.ensure_compatible(&b).unwrap_err();
        assert!(err.to_string().contains("algorithm"), "{err}");

        let mut b = a.clone();
        b.dim = 7;
        assert!(a.ensure_compatible(&b).is_err());
        b.dim = 0; // wildcard: no element seen yet
        assert!(a.ensure_compatible(&b).is_ok());

        let mut b = a.clone();
        b.quotas = vec![3, 1];
        let err = a.ensure_compatible(&b).unwrap_err();
        assert!(err.to_string().contains("quotas"), "{err}");
    }

    #[test]
    fn both_formats_round_trip_through_bytes() {
        let snap = Snapshot {
            params: params("sfdm2"),
            state: Value::Array(vec![
                Value::Number(0.1),
                Value::Number(-0.0),
                Value::String("x".into()),
            ]),
        };
        // The binary frame is sniffed by magic...
        let bytes = snap.to_bytes(SnapshotFormat::Binary);
        assert!(bytes.starts_with(b"FDMSNAP2"));
        assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), snap);
        // ...and v1 JSON by elimination.
        let v1 = Snapshot {
            params: params("sfdm2"),
            state: Value::String("payload".into()),
        };
        assert_eq!(Snapshot::from_bytes(V1_DOC.as_bytes()).unwrap(), v1);
    }

    #[test]
    fn delta_files_are_not_full_snapshots() {
        let snap = Snapshot {
            params: params("sfdm2"),
            state: Value::Number(1.0),
        };
        let newer = Snapshot {
            params: params("sfdm2"),
            state: Value::Number(2.0),
        };
        let delta = SnapshotDelta::between(&snap, &newer).unwrap();
        let err = Snapshot::from_bytes(&delta.to_bytes()).unwrap_err();
        assert!(matches!(err, FdmError::CorruptSnapshot { .. }), "{err}");
    }

    #[test]
    fn f64_text_round_trip_is_bit_exact() {
        for x in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -0.0, 2.5e-17] {
            let text = serde_json::to_string(&x).unwrap();
            let back: f64 = serde_json::from_str(&text).unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{text}");
        }
    }
}
