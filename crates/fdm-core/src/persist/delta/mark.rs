//! Capture marks: per-node dirty tracking for `O(changed)` delta capture.
//!
//! [`SnapshotDelta::between`] re-walks the **entire** state tree of both
//! snapshots, so the cost of every incremental checkpoint — and the
//! retained base copy it diffs against — grows with stream size. But the
//! summaries already *know* what changed: arenas and candidate member
//! lists only append, counters only move, everything else is static. A
//! [`StatePatch`] is the summary's own declaration of that shape, and a
//! [`CaptureMark`] is the persistent digest tree that turns the
//! declaration into a [`SnapshotDelta`] **byte-identical** to what the
//! full-tree diff would have produced (pinned by proptest in
//! `tests/persist_codec.rs`), without holding the state and without
//! walking it.
//!
//! The mark mirrors the state's *encoded* structure, one node per value
//! tree node, each carrying the length and CRC32 of its binary encoding:
//!
//! * scalars keep their (tiny) encoded bytes, so a `Replace` with an
//!   unchanged value collapses to a keep exactly like `bits_eq` would;
//! * all-number arrays keep running aggregates for the three dense
//!   encodings (`f64` bits, varints, bit-packed ints) so an `Append`
//!   extends the checksums by streaming only the new elements
//!   ([`codec::crc32_extend`]);
//! * generic arrays and objects re-combine their checksum from the
//!   children's with one [`codec::crc32_combine`] per child — a 32-step
//!   GF(2) multiplication per set bit of the child's encoded length —
//!   never touching the children's bytes.
//!
//! The root checksum therefore always equals [`state_crc`] of the state
//! the mark describes — the delta chain's `base_crc` comes straight off
//! the mark.
//!
//! Lowering a patch is **total or refused**: any shape the mark cannot
//! prove byte-identical to the diff (a container replacement, an
//! unexpected cursor) returns `None`, and the caller falls back to a
//! full snapshot and rebuilds the mark fresh. Correctness never depends
//! on the summary's patch being small — only the fast path does.
//! Appends that grow a bit-pack's width repack from the retained values
//! rather than refusing: capped id-style arrays cross power-of-two
//! boundaries routinely, and refusing there turned realistic incremental
//! workloads into permanent full-frame fallbacks.

use serde::{Map, Value};

use crate::persist::codec::{
    crc32, crc32_combine, crc32_extend, encode_value_to_vec, put_varint, varint_exact, varint_len,
    TAG_ARRAY, TAG_DENSE_F64, TAG_DENSE_VARINT, TAG_OBJECT, TAG_PACKED_INTS,
};

use super::{
    op, SnapshotDelta, SnapshotParams, OP_APPEND, OP_ELEMENTS, OP_KEEP, OP_OBJECT, OP_REPLACE,
};

/// A summary's declaration of what changed in its state tree since the
/// capture cursor was taken. The patch describes *structure*, not bytes:
/// the summary asserts "this array only gained these trailing elements"
/// from its own invariants (append-only arenas, monotone counters), and
/// the capture mark turns the assertion into the exact delta the
/// full-tree diff would have computed.
#[derive(Debug, Clone, PartialEq)]
pub enum StatePatch {
    /// Nothing under this node changed.
    Keep,
    /// The node was replaced by a scalar (null, bool, number, string).
    /// Container replacements are not lowerable — they force a full
    /// re-anchor, which is the right cost model for a structural rewrite.
    Replace(Value),
    /// The array gained exactly these trailing elements; the existing
    /// prefix is untouched.
    Append(Vec<Value>),
    /// Same-length array: one patch per element, in order.
    Elements(Vec<StatePatch>),
    /// Object: patches for the named keys; unmentioned keys are
    /// [`StatePatch::Keep`].
    Object(Vec<(String, StatePatch)>),
}

/// Bit width the codec's int-packer would use for a maximum value.
fn bit_width(max: u64) -> u32 {
    (64 - max.leading_zeros()).max(1)
}

/// Folds the encoding of a sequence of parts into `(len, crc)` without
/// materializing the bytes: literal parts stream through `crc32_extend`,
/// already-digested children combine via `crc32_combine`.
struct CrcAcc {
    crc: u32,
    len: u64,
}

impl CrcAcc {
    fn new() -> CrcAcc {
        CrcAcc { crc: 0, len: 0 }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.crc = crc32_extend(self.crc, bytes);
        self.len += bytes.len() as u64;
    }

    fn chain(&mut self, crc: u32, len: u64) {
        self.crc = crc32_combine(self.crc, crc, len);
        self.len += len;
    }
}

/// Running digest of the codec's bit-packed int encoding: the LSB-first
/// bitstream is checksummed byte-by-byte as values arrive, with the
/// trailing partial byte held back until [`DenseMark::refresh`] needs it.
#[derive(Debug, Clone)]
struct PackedMark {
    /// Pack width the digest was built at. An append that grows the
    /// array's maximum past this width invalidates the whole digest
    /// (every prior value would repack differently).
    width: u32,
    /// CRC32 over the complete bytes emitted so far.
    crc: u32,
    /// Bits not yet forming a complete byte (low `partial_bits` bits).
    partial: u8,
    partial_bits: u32,
}

impl PackedMark {
    fn new(width: u32) -> PackedMark {
        PackedMark {
            width,
            crc: 0,
            partial: 0,
            partial_bits: 0,
        }
    }

    /// Appends one value to the bitstream, exactly replicating the
    /// codec's `i * width` LSB-first placement.
    fn push(&mut self, v: u64) {
        let mut acc = self.partial as u128 | (v as u128) << self.partial_bits;
        let mut bits = self.partial_bits + self.width;
        while bits >= 8 {
            self.crc = crc32_extend(self.crc, &[acc as u8]);
            acc >>= 8;
            bits -= 8;
        }
        self.partial = acc as u8;
        self.partial_bits = bits;
    }
}

/// Digest of an all-number array under every dense encoding the codec
/// can choose, maintained incrementally so an append costs only the new
/// elements. The encoding *choice* (f64 / varint / packed) is re-derived
/// at refresh time from the same aggregates the codec uses, so the mark
/// always lands on the same bytes `encode_array` would.
#[derive(Debug, Clone)]
struct DenseMark {
    /// Element count (always ≥ 1: empty arrays take the generic tag and
    /// are tracked as [`MarkNode::Struct`] with no children).
    count: u64,
    /// Every element is varint-exact so far (`u64 < 2^53`, bit-exact).
    all_exact: bool,
    /// Maximum value seen (meaningful only while `all_exact`).
    max: u64,
    /// Total varint-encoded size of all elements (while `all_exact`).
    varint_sum: u64,
    /// CRC32 of the raw `f64`-bits body (always maintained).
    f64_crc: u32,
    /// CRC32 of the varint body (while `all_exact`).
    varint_crc: u32,
    /// Bit-packed body digest; `None` once `all_exact` breaks (packing is
    /// then off the table for good).
    packed: Option<PackedMark>,
    /// The exact values themselves, retained while `all_exact` so a
    /// width-growing append can rebuild the packed digest at the new
    /// width (the bitstream repacks every prior value). Cleared the
    /// moment a non-exact element arrives — float-heavy arrays (the big
    /// ones, e.g. coordinate arenas) pay nothing.
    exact: Vec<u64>,
    enc_len: u64,
    enc_crc: u32,
}

impl DenseMark {
    /// Builds the digest for a non-empty all-number array. Two passes:
    /// the pack width depends on the final maximum, so the bitstream is
    /// only fed once that is known.
    fn of(ns: &[f64]) -> DenseMark {
        debug_assert!(!ns.is_empty());
        let mut mark = DenseMark {
            count: 0,
            all_exact: true,
            max: 0,
            varint_sum: 0,
            f64_crc: 0,
            varint_crc: 0,
            packed: None,
            exact: Vec::new(),
            enc_len: 0,
            enc_crc: 0,
        };
        let mut exact = Vec::with_capacity(ns.len());
        for &n in ns {
            mark.f64_crc = crc32_extend(mark.f64_crc, &n.to_bits().to_le_bytes());
            mark.count += 1;
            if mark.all_exact {
                match varint_exact(n) {
                    Some(v) => {
                        mark.max = mark.max.max(v);
                        mark.varint_sum += varint_len(v) as u64;
                        let mut buf = Vec::with_capacity(10);
                        put_varint(&mut buf, v);
                        mark.varint_crc = crc32_extend(mark.varint_crc, &buf);
                        exact.push(v);
                    }
                    None => mark.all_exact = false,
                }
            }
        }
        if mark.all_exact {
            let mut packed = PackedMark::new(bit_width(mark.max));
            for &v in &exact {
                packed.push(v);
            }
            mark.packed = Some(packed);
            mark.exact = exact;
        }
        mark.refresh()
            .expect("fresh dense mark always has its packed digest");
        mark
    }

    /// Extends the digest with appended elements, then re-derives the
    /// encoding. An append that grows the bit-pack width rebuilds the
    /// packed digest from the retained values (every prior value repacks
    /// at the new width) — O(count), amortized over at most 64 width
    /// steps for the array's lifetime.
    fn extend(&mut self, ns: &[f64]) -> Option<()> {
        for &n in ns {
            self.f64_crc = crc32_extend(self.f64_crc, &n.to_bits().to_le_bytes());
            self.count += 1;
            if self.all_exact {
                match varint_exact(n) {
                    Some(v) => {
                        self.exact.push(v);
                        self.max = self.max.max(v);
                        self.varint_sum += varint_len(v) as u64;
                        let mut buf = Vec::with_capacity(10);
                        put_varint(&mut buf, v);
                        self.varint_crc = crc32_extend(self.varint_crc, &buf);
                        match &mut self.packed {
                            Some(p) if p.width == bit_width(self.max) => p.push(v),
                            _ => {
                                let mut p = PackedMark::new(bit_width(self.max));
                                for &e in &self.exact {
                                    p.push(e);
                                }
                                self.packed = Some(p);
                            }
                        }
                    }
                    None => {
                        self.all_exact = false;
                        self.packed = None;
                        self.exact = Vec::new();
                    }
                }
            }
        }
        self.refresh()
    }

    /// Recomputes `enc_len`/`enc_crc` by making the codec's encoding
    /// choice from the maintained aggregates.
    fn refresh(&mut self) -> Option<()> {
        let mut header = Vec::with_capacity(12);
        let (body_crc, body_len);
        if self.all_exact {
            let width = bit_width(self.max) as u64;
            let packed_bytes = (self.count * width).div_ceil(8);
            if packed_bytes + 1 < self.varint_sum {
                let p = self.packed.as_ref()?;
                debug_assert_eq!(p.width as u64, width);
                header.push(TAG_PACKED_INTS);
                put_varint(&mut header, self.count);
                header.push(p.width as u8);
                body_crc = if p.partial_bits > 0 {
                    crc32_extend(p.crc, &[p.partial])
                } else {
                    p.crc
                };
                body_len = packed_bytes;
            } else {
                header.push(TAG_DENSE_VARINT);
                put_varint(&mut header, self.count);
                body_crc = self.varint_crc;
                body_len = self.varint_sum;
            }
        } else {
            header.push(TAG_DENSE_F64);
            put_varint(&mut header, self.count);
            body_crc = self.f64_crc;
            body_len = 8 * self.count;
        }
        self.enc_crc = crc32_combine(crc32(&header), body_crc, body_len);
        self.enc_len = header.len() as u64 + body_len;
        Some(())
    }
}

/// One node of the capture mark, mirroring the state tree's encoded
/// structure.
#[derive(Debug, Clone)]
enum MarkNode {
    /// Null / bool / number / string: the encoded bytes themselves
    /// (scalars are tiny, and keeping them makes `Replace`-with-equal
    /// collapse to a keep exactly like `bits_eq`).
    Scalar { bytes: Vec<u8>, crc: u32 },
    /// Non-empty all-number array on one of the dense encodings.
    Dense(DenseMark),
    /// Generic array (empty, or with at least one non-number element).
    Struct {
        children: Vec<MarkNode>,
        enc_len: u64,
        enc_crc: u32,
    },
    /// Object, entries in the state's (insertion) key order.
    Object {
        entries: Vec<(String, MarkNode)>,
        enc_len: u64,
        enc_crc: u32,
    },
}

fn struct_digest(children: &[MarkNode]) -> (u64, u32) {
    let mut header = vec![TAG_ARRAY];
    put_varint(&mut header, children.len() as u64);
    let mut acc = CrcAcc::new();
    acc.bytes(&header);
    for child in children {
        acc.chain(child.enc_crc(), child.enc_len());
    }
    (acc.len, acc.crc)
}

fn object_digest(entries: &[(String, MarkNode)]) -> (u64, u32) {
    let mut header = vec![TAG_OBJECT];
    put_varint(&mut header, entries.len() as u64);
    let mut acc = CrcAcc::new();
    acc.bytes(&header);
    for (key, child) in entries {
        let mut klen = Vec::with_capacity(10);
        put_varint(&mut klen, key.len() as u64);
        acc.bytes(&klen);
        acc.bytes(key.as_bytes());
        acc.chain(child.enc_crc(), child.enc_len());
    }
    (acc.len, acc.crc)
}

/// Builds the mark for a value tree, mirroring `encode_array`'s
/// dense-vs-generic decision node by node.
fn mark_of(value: &Value) -> MarkNode {
    match value {
        Value::Array(items) => {
            let numbers: Option<Vec<f64>> = items.iter().map(Value::as_f64).collect();
            match numbers {
                Some(ns) if !ns.is_empty() => MarkNode::Dense(DenseMark::of(&ns)),
                _ => {
                    let children: Vec<MarkNode> = items.iter().map(mark_of).collect();
                    let (enc_len, enc_crc) = struct_digest(&children);
                    MarkNode::Struct {
                        children,
                        enc_len,
                        enc_crc,
                    }
                }
            }
        }
        Value::Object(map) => {
            let entries: Vec<(String, MarkNode)> = map
                .iter()
                .map(|(key, item)| (key.clone(), mark_of(item)))
                .collect();
            let (enc_len, enc_crc) = object_digest(&entries);
            MarkNode::Object {
                entries,
                enc_len,
                enc_crc,
            }
        }
        scalar => {
            let bytes = encode_value_to_vec(scalar);
            MarkNode::Scalar {
                crc: crc32(&bytes),
                bytes,
            }
        }
    }
}

impl MarkNode {
    fn enc_len(&self) -> u64 {
        match self {
            MarkNode::Scalar { bytes, .. } => bytes.len() as u64,
            MarkNode::Dense(d) => d.enc_len,
            MarkNode::Struct { enc_len, .. } | MarkNode::Object { enc_len, .. } => *enc_len,
        }
    }

    fn enc_crc(&self) -> u32 {
        match self {
            MarkNode::Scalar { crc, .. } => *crc,
            MarkNode::Dense(d) => d.enc_crc,
            MarkNode::Struct { enc_crc, .. } | MarkNode::Object { enc_crc, .. } => *enc_crc,
        }
    }
}

/// Result of lowering one patch node: either the subtree is untouched
/// (and the diff would have emitted a keep / omitted the key), or the
/// exact wire op the diff would have produced.
enum Lowered {
    Keep,
    Op(Value),
}

/// Lowers a [`StatePatch`] into the diff's wire op grammar, updating the
/// mark in place. `None` means the patch is not provably byte-identical
/// to the full-tree diff; the mark may be partially updated and **must
/// be discarded** (the caller re-anchors and rebuilds it fresh).
fn lower(node: &mut MarkNode, patch: StatePatch) -> Option<Lowered> {
    match patch {
        StatePatch::Keep => Some(Lowered::Keep),
        StatePatch::Replace(value) => {
            if matches!(value, Value::Array(_) | Value::Object(_)) {
                return None;
            }
            let bytes = encode_value_to_vec(&value);
            if let MarkNode::Scalar { bytes: old, .. } = node {
                // Scalar byte equality is exactly `bits_eq` (numbers
                // encode their raw bits), so an unchanged counter
                // collapses to a keep like the diff's.
                if *old == bytes {
                    return Some(Lowered::Keep);
                }
            }
            let crc = crc32(&bytes);
            *node = MarkNode::Scalar { bytes, crc };
            Some(Lowered::Op(op(OP_REPLACE, value)))
        }
        StatePatch::Append(suffix) => {
            if suffix.is_empty() {
                return Some(Lowered::Keep);
            }
            match node {
                MarkNode::Dense(dense) => {
                    let ns: Vec<f64> = suffix
                        .iter()
                        .map(Value::as_f64)
                        .collect::<Option<Vec<f64>>>()?;
                    dense.extend(&ns)?;
                    Some(Lowered::Op(op(OP_APPEND, Value::Array(suffix))))
                }
                MarkNode::Struct { children, .. } if children.is_empty() => {
                    // An empty array takes the generic tag; appending may
                    // flip it onto a dense encoding, so rebuild outright
                    // (cost is O(suffix) — there was no prefix).
                    *node = mark_of(&Value::Array(suffix.clone()));
                    Some(Lowered::Op(op(OP_APPEND, Value::Array(suffix))))
                }
                MarkNode::Struct {
                    children,
                    enc_len,
                    enc_crc,
                } => {
                    // A non-empty generic array has a non-number element,
                    // so it stays generic no matter what is appended.
                    children.extend(suffix.iter().map(mark_of));
                    (*enc_len, *enc_crc) = struct_digest(children);
                    Some(Lowered::Op(op(OP_APPEND, Value::Array(suffix))))
                }
                _ => None,
            }
        }
        StatePatch::Elements(patches) => match node {
            MarkNode::Struct {
                children,
                enc_len,
                enc_crc,
            } if children.len() == patches.len() => {
                let mut ops = Vec::with_capacity(patches.len());
                let mut changed = false;
                for (child, patch) in children.iter_mut().zip(patches) {
                    match lower(child, patch)? {
                        Lowered::Keep => ops.push(op(OP_KEEP, Value::Null)),
                        Lowered::Op(o) => {
                            changed = true;
                            ops.push(o);
                        }
                    }
                }
                if !changed {
                    return Some(Lowered::Keep);
                }
                (*enc_len, *enc_crc) = struct_digest(children);
                Some(Lowered::Op(op(OP_ELEMENTS, Value::Array(ops))))
            }
            MarkNode::Dense(dense) if dense.count == patches.len() as u64 => {
                // In-place edits to dense arrays are not tracked; only an
                // all-keep (which the diff collapses) is lowerable.
                if patches.iter().all(|p| matches!(p, StatePatch::Keep)) {
                    Some(Lowered::Keep)
                } else {
                    None
                }
            }
            _ => None,
        },
        StatePatch::Object(patches) => {
            let MarkNode::Object {
                entries,
                enc_len,
                enc_crc,
            } = node
            else {
                return None;
            };
            let mut patches = patches;
            let mut changed = Map::new();
            for (key, child) in entries.iter_mut() {
                let patch = match patches.iter().position(|(k, _)| k == key) {
                    Some(pos) => patches.swap_remove(pos).1,
                    None => StatePatch::Keep,
                };
                match lower(child, patch)? {
                    Lowered::Keep => {}
                    Lowered::Op(o) => {
                        // Iterating in entry order reproduces the diff's
                        // base-key-order changed map.
                        changed.insert(key.clone(), o);
                    }
                }
            }
            if !patches.is_empty() {
                // A patch for a key the state doesn't have — the summary
                // and the mark disagree about the tree shape.
                return None;
            }
            if changed.is_empty() {
                return Some(Lowered::Keep);
            }
            (*enc_len, *enc_crc) = object_digest(entries);
            Some(Lowered::Op(op(OP_OBJECT, Value::Object(changed))))
        }
    }
}

/// The persistent capture state for one stream: the params of the last
/// captured snapshot plus the digest tree of its state. Replaces the
/// retained full `Snapshot` clone that `between`-based chaining needed —
/// the mark is O(structure), not O(data).
#[derive(Debug, Clone)]
pub struct CaptureMark {
    params: SnapshotParams,
    root: MarkNode,
}

impl CaptureMark {
    /// Builds the mark for a freshly captured snapshot (one full walk —
    /// the same cost as encoding the snapshot that was just written).
    pub fn of(params: SnapshotParams, state: &Value) -> CaptureMark {
        CaptureMark {
            params,
            root: mark_of(state),
        }
    }

    /// [`state_crc`](super::state_crc) of the state this mark describes —
    /// the `base_crc` the next chained delta will carry.
    pub fn state_crc(&self) -> u32 {
        self.root.enc_crc()
    }

    /// Params of the last captured state.
    pub fn params(&self) -> &SnapshotParams {
        &self.params
    }
}

impl SnapshotDelta {
    /// Builds the delta from the last captured state to the current one
    /// out of the summary's own [`StatePatch`], in time proportional to
    /// the patch — the full state is never walked. On success the mark is
    /// advanced to describe the new state and the returned delta is
    /// byte-identical to `SnapshotDelta::between(last, current)`.
    ///
    /// `None` means the patch could not be lowered (structural rewrite,
    /// shape mismatch): the caller must write a
    /// full snapshot instead and rebuild the mark with [`CaptureMark::of`]
    /// — the mark may be partially advanced and is no longer valid.
    pub fn from_patch(
        mark: &mut CaptureMark,
        new_params: &SnapshotParams,
        patch: StatePatch,
    ) -> Option<SnapshotDelta> {
        mark.params.ensure_compatible(new_params).ok()?;
        let base_crc = mark.root.enc_crc();
        let lowered = lower(&mut mark.root, patch)?;
        mark.params = new_params.clone();
        Some(SnapshotDelta {
            params: new_params.clone(),
            base_crc,
            patch: match lowered {
                Lowered::Keep => op(OP_KEEP, Value::Null),
                Lowered::Op(o) => o,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::{state_crc, Snapshot};
    use super::*;
    use crate::dataset::DistanceBounds;
    use crate::metric::Metric;

    fn params() -> SnapshotParams {
        SnapshotParams {
            algorithm: "sfdm2".into(),
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

    fn obj(entries: &[(&str, Value)]) -> Value {
        let mut map = Map::new();
        for (k, v) in entries {
            map.insert((*k).to_string(), v.clone());
        }
        Value::Object(map)
    }

    fn nums(ns: &[f64]) -> Value {
        Value::Array(ns.iter().map(|&n| Value::Number(n)).collect())
    }

    fn vals(ns: &[f64]) -> Vec<Value> {
        ns.iter().map(|&n| Value::Number(n)).collect()
    }

    /// The oracle check: lowering `patch` against a mark of `base` must
    /// produce the same bytes as the full-tree diff, and leave the mark
    /// describing `new`.
    fn assert_matches_diff(base: &Value, new: &Value, patch: StatePatch) {
        let base_snap = Snapshot {
            params: params(),
            state: base.clone(),
        };
        let new_snap = Snapshot {
            params: params(),
            state: new.clone(),
        };
        let oracle = SnapshotDelta::between(&base_snap, &new_snap).unwrap();
        let mut mark = CaptureMark::of(params(), base);
        assert_eq!(mark.state_crc(), state_crc(base), "base mark crc");
        let delta = SnapshotDelta::from_patch(&mut mark, &params(), patch)
            .expect("patch should be lowerable");
        assert_eq!(delta.to_bytes(), oracle.to_bytes(), "delta bytes");
        assert_eq!(mark.state_crc(), state_crc(new), "advanced mark crc");
        // And the delta actually reconstructs `new`.
        let applied = delta.apply_to(&base_snap).unwrap();
        assert_eq!(applied.state, *new);
    }

    #[test]
    fn mark_crc_matches_state_crc_across_all_encodings() {
        let states = [
            Value::Null,
            Value::Bool(true),
            Value::Number(-0.0),
            Value::String("snapshot ≠ text".into()),
            Value::Array(vec![]),        // generic (empty)
            nums(&[1.0, 2.0, 40_000.0]), // dense varint
            nums(&[0.25, -7.5]),         // dense f64
            nums(&(0..256).map(|i| f64::from(i % 2)).collect::<Vec<_>>()), // packed
            Value::Array(vec![Value::Number(1.0), Value::Null]), // generic (mixed)
            obj(&[
                ("a", Value::Number(1.5)),
                ("b", Value::Array(vec![Value::Bool(false)])),
                ("c", obj(&[("nested", nums(&[3.0, 4.0]))])),
            ]),
        ];
        for state in &states {
            let mark = CaptureMark::of(params(), state);
            assert_eq!(mark.state_crc(), state_crc(state), "{state:?}");
        }
    }

    #[test]
    fn lowered_patches_are_byte_identical_to_full_diffs() {
        let bits: Vec<f64> = (0..80).map(|i| f64::from(i % 2)).collect();
        let mut bits_new = bits.clone();
        bits_new.extend([1.0, 0.0]);
        let base = obj(&[
            ("bits", nums(&bits)),
            ("coords", nums(&[0.5, -1.25])),
            ("dim", Value::Number(2.0)),
            ("flag", Value::Bool(false)),
            ("ids", nums(&[1.0, 2.0, 300.0])),
            (
                "lanes",
                Value::Array(vec![nums(&[1.0, 2.0]), Value::Array(vec![])]),
            ),
            ("tag", Value::String("x".into())),
        ]);
        let new = obj(&[
            ("bits", nums(&bits_new)),
            ("coords", nums(&[0.5, -1.25, 3.5])),
            ("dim", Value::Number(2.0)),
            ("flag", Value::Bool(true)),
            ("ids", nums(&[1.0, 2.0, 300.0, 4.0])),
            (
                "lanes",
                Value::Array(vec![nums(&[1.0, 2.0, 7.0]), nums(&[9.0])]),
            ),
            ("tag", Value::String("x".into())),
        ]);
        let patch = StatePatch::Object(vec![
            ("bits".into(), StatePatch::Append(vals(&[1.0, 0.0]))),
            ("coords".into(), StatePatch::Append(vals(&[3.5]))),
            // Unchanged replace must collapse to a keep (key omitted).
            ("dim".into(), StatePatch::Replace(Value::Number(2.0))),
            ("flag".into(), StatePatch::Replace(Value::Bool(true))),
            ("ids".into(), StatePatch::Append(vals(&[4.0]))),
            (
                "lanes".into(),
                StatePatch::Elements(vec![
                    StatePatch::Append(vals(&[7.0])),
                    // Appending to the empty lane flips it dense.
                    StatePatch::Append(vals(&[9.0])),
                ]),
            ),
        ]);
        assert_matches_diff(&base, &new, patch);
    }

    #[test]
    fn all_keep_patch_collapses_to_the_top_level_keep() {
        let state = obj(&[
            ("coords", nums(&[1.0, 2.0])),
            (
                "lanes",
                Value::Array(vec![nums(&[1.0]), Value::Array(vec![])]),
            ),
            ("processed", Value::Number(2.0)),
        ]);
        let patch = StatePatch::Object(vec![
            ("coords".into(), StatePatch::Append(vec![])),
            (
                "lanes".into(),
                StatePatch::Elements(vec![StatePatch::Keep, StatePatch::Keep]),
            ),
            ("processed".into(), StatePatch::Replace(Value::Number(2.0))),
        ]);
        assert_matches_diff(&state, &state, patch);
    }

    #[test]
    fn chained_patches_keep_matching_the_diff() {
        // Three checkpoints on one mark: each delta must match the diff
        // from the previous state, with base_crc chaining through.
        let s0 = obj(&[("ids", nums(&[0.5])), ("n", Value::Number(1.0))]);
        let s1 = obj(&[("ids", nums(&[0.5, 1.5])), ("n", Value::Number(2.0))]);
        let s2 = obj(&[("ids", nums(&[0.5, 1.5, 2.5])), ("n", Value::Number(3.0))]);
        let mut mark = CaptureMark::of(params(), &s0);
        for (base, new, suffix, n) in [(&s0, &s1, 1.5, 2.0), (&s1, &s2, 2.5, 3.0)] {
            let oracle = SnapshotDelta::between(
                &Snapshot {
                    params: params(),
                    state: base.clone(),
                },
                &Snapshot {
                    params: params(),
                    state: new.clone(),
                },
            )
            .unwrap();
            let patch = StatePatch::Object(vec![
                ("ids".into(), StatePatch::Append(vals(&[suffix]))),
                ("n".into(), StatePatch::Replace(Value::Number(n))),
            ]);
            let delta = SnapshotDelta::from_patch(&mut mark, &params(), patch).unwrap();
            assert_eq!(delta.to_bytes(), oracle.to_bytes());
        }
        assert_eq!(mark.state_crc(), state_crc(&s2));
    }

    #[test]
    fn width_growing_append_repacks_when_packing_wins() {
        // 1000 zeros pack at one bit each; appending a 3 grows the width
        // to 2 while packing still beats varints — the mark repacks every
        // prior value from its retained exact values and the delta stays
        // byte-identical to the diff.
        let mut grown: Vec<f64> = vec![0.0; 1000];
        grown.push(3.0);
        let base = obj(&[("xs", nums(&vec![0.0; 1000]))]);
        let new = obj(&[("xs", nums(&grown))]);
        let patch = StatePatch::Object(vec![("xs".into(), StatePatch::Append(vals(&[3.0])))]);
        assert_matches_diff(&base, &new, patch);
    }

    #[test]
    fn width_growing_append_succeeds_when_varints_win() {
        // Same width growth, but with few elements varints stay smaller,
        // so the broken packed digest is irrelevant.
        let base = obj(&[("xs", nums(&[1.0, 1.0]))]);
        let new = obj(&[("xs", nums(&[1.0, 1.0, 900.0]))]);
        let patch = StatePatch::Object(vec![("xs".into(), StatePatch::Append(vals(&[900.0])))]);
        assert_matches_diff(&base, &new, patch);
    }

    #[test]
    fn non_exact_append_falls_back_to_dense_f64() {
        let base = obj(&[("xs", nums(&[1.0, 2.0]))]);
        let new = obj(&[("xs", nums(&[1.0, 2.0, 0.5]))]);
        let patch = StatePatch::Object(vec![("xs".into(), StatePatch::Append(vals(&[0.5])))]);
        assert_matches_diff(&base, &new, patch);
    }

    #[test]
    fn unlowerable_patches_are_refused() {
        let state = obj(&[("xs", nums(&[1.0, 2.0])), ("n", Value::Number(1.0))]);
        let cases = [
            // Container replacement.
            StatePatch::Object(vec![(
                "xs".into(),
                StatePatch::Replace(Value::Array(vec![])),
            )]),
            // Non-numeric append to a dense array.
            StatePatch::Object(vec![("xs".into(), StatePatch::Append(vec![Value::Null]))]),
            // Arity mismatch.
            StatePatch::Object(vec![(
                "xs".into(),
                StatePatch::Elements(vec![StatePatch::Keep]),
            )]),
            // Unknown key.
            StatePatch::Object(vec![("ghost".into(), StatePatch::Keep)]),
            // Append to a scalar.
            StatePatch::Object(vec![("n".into(), StatePatch::Append(vals(&[1.0])))]),
        ];
        for patch in cases {
            let mut mark = CaptureMark::of(params(), &state);
            assert!(
                SnapshotDelta::from_patch(&mut mark, &params(), patch.clone()).is_none(),
                "{patch:?}"
            );
        }
    }

    #[test]
    fn incompatible_params_are_refused() {
        let state = nums(&[1.0]);
        let mut mark = CaptureMark::of(params(), &state);
        let mut other = params();
        other.algorithm = "sfdm1".into();
        assert!(SnapshotDelta::from_patch(&mut mark, &other, StatePatch::Keep).is_none());
    }

    #[test]
    fn append_to_generic_array_stays_generic() {
        let base = Value::Array(vec![Value::String("a".into()), Value::Number(1.0)]);
        let new = Value::Array(vec![
            Value::String("a".into()),
            Value::Number(1.0),
            Value::Number(2.0),
        ]);
        assert_matches_diff(&base, &new, StatePatch::Append(vals(&[2.0])));
    }
}
