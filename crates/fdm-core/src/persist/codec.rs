//! Binary snapshot codec — format version 2.
//!
//! The v1 snapshot is a JSON document; readable, but the text encoding
//! dominated capture time (every `f64` formats through shortest-round-trip
//! printing and parses back digit by digit) and blew the arena up to ~3–4×
//! its binary size, so v1 is now only read, never written. Format v2 keeps
//! the *same* logical envelope
//! ([`Snapshot`]: params + state value tree) but frames it as little-endian
//! binary sections:
//!
//! ```text
//! magic    "FDMSNAP2"                              (8 bytes)
//! version  u32 LE = 2                              (4 bytes)
//! section* [tag u8][len varint][payload][crc32 u32 LE]
//!          tag 1 = params   (one encoded value)
//!          tag 2 = state    (one encoded value)
//!          tag 255 = end    (empty payload; nothing may follow)
//! ```
//!
//! Every section payload carries its own CRC32 (IEEE), so a flipped,
//! truncated, or duplicated byte anywhere in a payload is detected *before*
//! the value decoder runs — the decoder only ever sees checksummed bytes,
//! and the fuzz harness (`tests/persist_fuzz.rs`) pins that no mutation
//! panics or restores silently-wrong state.
//!
//! This module holds the workspace's one CRC32: WAL records, snapshot and
//! delta sections, the delta chain's `base_crc`, capture-mark digests and
//! `MERGE` union blocks all go through it. [`crc32`] runs slicing-by-8
//! over tables derived at compile time; `crc32_combine` is zlib's
//! table-driven form (a 32-entry `x^(2^n) mod P` table, one GF(2)
//! multiplication per set bit of the second part's length).
//!
//! Values are encoded with a small tag set; the two array fast paths are
//! what make the format dense:
//!
//! * an all-number array whose elements are exactly representable as
//!   `u64 < 2^53` (candidate member ids, group labels, external ids)
//!   packs as **varints** — one to three bytes per id instead of a JSON
//!   integer plus comma;
//! * any other all-number array (the arena's row-major coordinate blob,
//!   the guess ladder's `µ` values) packs as **raw `f64` bits**, 8 bytes
//!   per value, bit-exact by construction.
//!
//! Decoding maps both back to plain [`Value::Array`] trees, so the
//! algorithm-level `restore_state` code is format-agnostic: everything
//! above this module sees the same value tree v1 produced.

use serde::{Deserialize, Serialize, Value};

use crate::error::{FdmError, Result};

use super::{Snapshot, SnapshotParams};

/// Leading magic of a binary (v2) snapshot file.
pub const BINARY_MAGIC: [u8; 8] = *b"FDMSNAP2";

/// The binary container format version this build reads and writes.
pub const BINARY_VERSION: u32 = 2;

const SECTION_PARAMS: u8 = 1;
const SECTION_STATE: u8 = 2;
const SECTION_END: u8 = 0xFF;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_F64: u8 = 3;
const TAG_STRING: u8 = 4;
pub(crate) const TAG_ARRAY: u8 = 5;
pub(crate) const TAG_OBJECT: u8 = 6;
pub(crate) const TAG_DENSE_F64: u8 = 7;
pub(crate) const TAG_DENSE_VARINT: u8 = 8;
pub(crate) const TAG_PACKED_INTS: u8 = 9;

/// Recursion guard for the value decoder. Section CRCs mean corrupt bytes
/// never reach it, but a depth cap keeps even a CRC collision from turning
/// into a stack overflow (which would abort, not return a typed error).
const MAX_DEPTH: usize = 64;

/// Largest integer exactly representable in `f64` (and the varint cap).
const MAX_EXACT_INT: u64 = 1 << 53;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF)
// ---------------------------------------------------------------------------

/// The reflected CRC-32 generator polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// `CRC32_TABLE[b]`: the register after shifting byte `b` through it.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slicing-by-8 tables (Kounavis & Berry, ISCC 2005): `CRC32_SLICES[k][b]`
/// is byte `b` followed by `k` zero bytes, so eight table lookups advance
/// the register by eight bytes. `CRC32_SLICES[0]` is [`CRC32_TABLE`].
const CRC32_SLICES: [[u32; 256]; 8] = {
    let mut slices = [[0u32; 256]; 8];
    slices[0] = CRC32_TABLE;
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = (prev >> 8) ^ CRC32_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    slices
};

/// Advances a raw (un-inverted) CRC register over `bytes`: eight bytes
/// per step through [`CRC32_SLICES`], the tail one byte at a time.
fn crc32_update(mut reg: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_SLICES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = reg ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        reg = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        reg = (reg >> 8) ^ CRC32_TABLE[((reg ^ b as u32) & 0xFF) as usize];
    }
    reg
}

/// CRC32 (IEEE) of a byte slice — the per-section integrity check.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, bytes)
}

/// Extends a finalized CRC32 with more trailing bytes:
/// `crc32_extend(crc32(a), b) == crc32(a ++ b)`. This is what makes the
/// dirty-set capture marks O(appended): an append-only blob's checksum is
/// carried forward instead of re-walked.
pub(crate) fn crc32_extend(crc: u32, bytes: &[u8]) -> u32 {
    !crc32_update(!crc, bytes)
}

/// `a · b mod P` over GF(2), both operands reflected (bit 31 is `x^0`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    loop {
        if a & m != 0 {
            product ^= b;
            if a & (m - 1) == 0 {
                return product;
            }
        }
        m >>= 1;
        if m == 0 {
            return product;
        }
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC32_POLY
        } else {
            b >> 1
        };
    }
}

/// `X2N_TABLE[n] = x^(2^n) mod P`. The sequence repeats with period 32
/// (`x^(2^32) ≡ x mod P`), so 32 entries cover every exponent.
const X2N_TABLE: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    table[0] = p;
    let mut n = 1;
    while n < 32 {
        p = multmodp(p, p);
        table[n] = p;
        n += 1;
    }
    table
};

/// `x^(n · 2^k) mod P`, by the bits of `n`.
fn x2nmodp(mut n: u64, mut k: u32) -> u32 {
    let mut p = 1u32 << 31; // x^0
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N_TABLE[(k & 31) as usize], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// CRC32 of a concatenation from the parts' checksums alone:
/// `crc32_combine(crc32(a), crc32(b), b.len()) == crc32(a ++ b)`. Appending
/// `len2` zero bytes to `a` multiplies its register by `x^(8·len2) mod P`,
/// which [`x2nmodp`] assembles from the 32-entry power table in one
/// multiplication per set bit of `len2` (zlib's `crc32_combine`). Capture
/// marks use it to recombine a parent node's checksum from its children's
/// without touching the children's bytes.
pub(crate) fn crc32_combine(crc1: u32, crc2: u32, len2: u64) -> u32 {
    if len2 == 0 {
        return crc1;
    }
    multmodp(x2nmodp(len2, 3), crc1) ^ crc2
}

// ---------------------------------------------------------------------------
// Varints (LEB128)
// ---------------------------------------------------------------------------

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The `u64` a [`Value::Number`] packs into a varint losslessly, if any:
/// non-negative, integral, `< 2^53`, and bit-identical after the round
/// trip (which excludes `-0.0`, `NaN`, and infinities by construction).
pub(crate) fn varint_exact(n: f64) -> Option<u64> {
    let v = n as u64; // saturating for negatives/NaN/∞ — caught below
    if v < MAX_EXACT_INT && (v as f64).to_bits() == n.to_bits() {
        Some(v)
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Bounded reader
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over untrusted bytes: every read is validated
/// against the remaining length (no allocation is sized from unvalidated
/// input), and every failure is a typed [`FdmError::CorruptSnapshot`].
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Context for error messages (`"snapshot"` / `"delta"`).
    what: &'static str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Reader {
            bytes,
            pos: 0,
            what,
        }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn corrupt(&self, detail: impl std::fmt::Display) -> FdmError {
        FdmError::CorruptSnapshot {
            detail: format!("binary {} at byte {}: {detail}", self.what, self.pos),
        }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.corrupt(format!(
                "need {n} bytes, only {} remain (truncated?)",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32_le(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = (byte & 0x7F) as u64;
            if shift == 63 && bits > 1 {
                return Err(self.corrupt("varint overflows 64 bits"));
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.corrupt("varint longer than 10 bytes"))
    }

    /// A varint that must fit `usize` and plausibly fit the remaining
    /// input (`count * min_size ≤ remaining`), so corrupted counts are
    /// rejected before any allocation is sized from them.
    fn count(&mut self, min_size: usize, what: &str) -> Result<usize> {
        let v = self.varint()?;
        let max = (self.remaining() / min_size.max(1)) as u64;
        if v > max {
            return Err(self.corrupt(format!(
                "{what} count {v} exceeds what {} remaining bytes can hold",
                self.remaining()
            )));
        }
        Ok(v as usize)
    }
}

// ---------------------------------------------------------------------------
// Value encoding
// ---------------------------------------------------------------------------

/// Appends the binary encoding of one value tree.
pub(crate) fn encode_value(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Number(n) => {
            out.push(TAG_F64);
            out.extend_from_slice(&n.to_bits().to_le_bytes());
        }
        Value::String(s) => {
            out.push(TAG_STRING);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => encode_array(out, items),
        Value::Object(map) => {
            out.push(TAG_OBJECT);
            put_varint(out, map.len() as u64);
            for (key, item) in map.iter() {
                put_varint(out, key.len() as u64);
                out.extend_from_slice(key.as_bytes());
                encode_value(out, item);
            }
        }
    }
}

fn encode_array(out: &mut Vec<u8>, items: &[Value]) {
    let numbers: Option<Vec<f64>> = items.iter().map(Value::as_f64).collect();
    match numbers {
        Some(ns) if !ns.is_empty() => {
            if let Some(ids) = ns
                .iter()
                .map(|&n| varint_exact(n))
                .collect::<Option<Vec<u64>>>()
            {
                encode_int_array(out, &ids);
            } else {
                out.push(TAG_DENSE_F64);
                put_varint(out, ns.len() as u64);
                for n in ns {
                    out.extend_from_slice(&n.to_bits().to_le_bytes());
                }
            }
        }
        _ => {
            out.push(TAG_ARRAY);
            put_varint(out, items.len() as u64);
            for item in items {
                encode_value(out, item);
            }
        }
    }
}

/// Encodes an all-integer array, choosing between varints (good when
/// values are mostly tiny or very skewed) and fixed-bit-width packing
/// (good when values share a small range — candidate member ids, group
/// labels, and the 0/1 coordinates of binary-attribute datasets, where it
/// reaches one *bit* per value).
fn encode_int_array(out: &mut Vec<u8>, ids: &[u64]) {
    let max = ids.iter().copied().max().unwrap_or(0);
    // Width 1..=53: an all-zero array still uses width 1, so the decoder's
    // `count ≤ 8 × remaining` bound holds for every packed payload.
    let width = (64 - max.leading_zeros()).max(1) as usize;
    let packed_bytes = (ids.len() * width).div_ceil(8);
    let varint_bytes: usize = ids.iter().map(|&v| varint_len(v)).sum();
    if packed_bytes + 1 < varint_bytes {
        out.push(TAG_PACKED_INTS);
        put_varint(out, ids.len() as u64);
        out.push(width as u8);
        let mut bits: Vec<u8> = vec![0; packed_bytes];
        for (i, &v) in ids.iter().enumerate() {
            let pos = i * width;
            let (byte, shift) = (pos / 8, pos % 8);
            let window = (v as u128) << shift;
            for (j, b) in window
                .to_le_bytes()
                .iter()
                .enumerate()
                .take((width + shift).div_ceil(8))
            {
                bits[byte + j] |= b;
            }
        }
        out.extend_from_slice(&bits);
    } else {
        out.push(TAG_DENSE_VARINT);
        put_varint(out, ids.len() as u64);
        for &id in ids {
            put_varint(out, id);
        }
    }
}

pub(crate) fn varint_len(v: u64) -> usize {
    ((64 - v.leading_zeros()).max(1) as usize).div_ceil(7)
}

/// The binary encoding of one value tree as an owned buffer (the delta
/// module's chain checksum is the CRC32 of this encoding).
pub(crate) fn encode_value_to_vec(value: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    encode_value(&mut out, value);
    out
}

/// Decodes one value tree from a bounds-checked reader.
pub(crate) fn decode_value(r: &mut Reader<'_>, depth: usize) -> Result<Value> {
    if depth > MAX_DEPTH {
        return Err(r.corrupt(format!("value tree deeper than {MAX_DEPTH} levels")));
    }
    let tag = r.u8()?;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_F64 => {
            let b = r.take(8)?;
            let bits = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
            Ok(Value::Number(f64::from_bits(bits)))
        }
        TAG_STRING => {
            let len = r.count(1, "string byte")?;
            let bytes = r.take(len)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|e| r.corrupt(format!("string is not UTF-8: {e}")))?;
            Ok(Value::String(s.to_string()))
        }
        TAG_ARRAY => {
            let count = r.count(1, "array element")?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(decode_value(r, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        TAG_OBJECT => {
            let count = r.count(2, "object entry")?;
            let mut map = serde::Map::new();
            for _ in 0..count {
                let key_len = r.count(1, "object key byte")?;
                let key = std::str::from_utf8(r.take(key_len)?)
                    .map_err(|e| r.corrupt(format!("object key is not UTF-8: {e}")))?
                    .to_string();
                let value = decode_value(r, depth + 1)?;
                map.insert(key, value);
            }
            Ok(Value::Object(map))
        }
        TAG_DENSE_F64 => {
            let count = r.count(8, "dense f64")?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                let b = r.take(8)?;
                let bits = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
                items.push(Value::Number(f64::from_bits(bits)));
            }
            Ok(Value::Array(items))
        }
        TAG_DENSE_VARINT => {
            let count = r.count(1, "packed id")?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                let v = r.varint()?;
                if v >= MAX_EXACT_INT {
                    return Err(r.corrupt(format!("packed integer {v} exceeds 2^53")));
                }
                items.push(Value::Number(v as f64));
            }
            Ok(Value::Array(items))
        }
        TAG_PACKED_INTS => {
            let count = {
                // Width ≥ 1 bit per element, so a count the remaining
                // bytes cannot hold (at 8 per byte) is corrupt before any
                // allocation happens.
                let v = r.varint()?;
                let max = r.remaining().saturating_mul(8) as u64;
                if v > max {
                    return Err(r.corrupt(format!(
                        "bit-packed count {v} exceeds what {} remaining bytes can hold",
                        r.remaining()
                    )));
                }
                v as usize
            };
            let width = r.u8()? as usize;
            if width == 0 || width > 53 {
                return Err(r.corrupt(format!("bit-pack width {width} outside 1..=53")));
            }
            let bytes = r.take((count * width).div_ceil(8))?;
            let mask = (1u128 << width) - 1;
            let mut items = Vec::with_capacity(count);
            for i in 0..count {
                let pos = i * width;
                let (byte, shift) = (pos / 8, pos % 8);
                let mut window = [0u8; 16];
                let span = ((width + shift).div_ceil(8)).min(bytes.len() - byte);
                window[..span].copy_from_slice(&bytes[byte..byte + span]);
                let v = ((u128::from_le_bytes(window) >> shift) & mask) as u64;
                items.push(Value::Number(v as f64));
            }
            Ok(Value::Array(items))
        }
        other => Err(r.corrupt(format!("unknown value tag {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Section framing (shared with the delta codec)
// ---------------------------------------------------------------------------

pub(crate) fn write_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Reads one `[tag][len][payload][crc]` section, verifying the checksum.
pub(crate) fn read_section<'a>(r: &mut Reader<'a>) -> Result<(u8, &'a [u8])> {
    let tag = r.u8()?;
    let len = r.count(1, "section payload byte")?;
    let payload = r.take(len)?;
    let stored = r.u32_le()?;
    let actual = crc32(payload);
    if stored != actual {
        return Err(r.corrupt(format!(
            "section {tag} checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )));
    }
    Ok((tag, payload))
}

/// Decodes one value occupying an entire section payload.
pub(crate) fn decode_section_value(payload: &[u8], what: &'static str) -> Result<Value> {
    let mut r = Reader::new(payload, what);
    let value = decode_value(&mut r, 0)?;
    if r.remaining() != 0 {
        return Err(r.corrupt(format!("{} trailing bytes after value", r.remaining())));
    }
    Ok(value)
}

/// Reads and validates a `magic + version` header, returning the version.
/// A version newer than `supported` is [`FdmError::UnsupportedSnapshotVersion`].
pub(crate) fn read_header(r: &mut Reader<'_>, magic: &[u8; 8], supported: u32) -> Result<()> {
    let found = r.take(8)?;
    if found != magic {
        return Err(r.corrupt(format!(
            "bad magic {:?} (expected {:?})",
            String::from_utf8_lossy(found),
            String::from_utf8_lossy(magic)
        )));
    }
    let version = r.u32_le()?;
    if version > supported {
        return Err(FdmError::UnsupportedSnapshotVersion {
            found: version as u64,
            supported: supported as u64,
        });
    }
    if version != supported {
        return Err(r.corrupt(format!(
            "binary container version {version} (this frame requires {supported})"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Snapshot frame
// ---------------------------------------------------------------------------

/// Encodes a snapshot into the v2 binary frame.
pub fn encode_snapshot(snapshot: &Snapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(&BINARY_MAGIC);
    out.extend_from_slice(&BINARY_VERSION.to_le_bytes());
    write_section(
        &mut out,
        SECTION_PARAMS,
        &encode_value_to_vec(&snapshot.params.to_value()),
    );
    write_section(
        &mut out,
        SECTION_STATE,
        &encode_value_to_vec(&snapshot.state),
    );
    write_section(&mut out, SECTION_END, &[]);
    out
}

/// Decodes a v2 binary snapshot frame, validating magic, version, section
/// checksums, and the absence of trailing bytes.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot> {
    let mut r = Reader::new(bytes, "snapshot");
    read_header(&mut r, &BINARY_MAGIC, BINARY_VERSION)?;
    let mut params: Option<SnapshotParams> = None;
    let mut state: Option<Value> = None;
    loop {
        let (tag, payload) = read_section(&mut r)?;
        match tag {
            SECTION_PARAMS if params.is_none() => {
                let value = decode_section_value(payload, "snapshot")?;
                params = Some(SnapshotParams::from_value(&value).map_err(|e| {
                    FdmError::CorruptSnapshot {
                        detail: format!("invalid `params` section: {e}"),
                    }
                })?);
            }
            SECTION_STATE if state.is_none() => {
                state = Some(decode_section_value(payload, "snapshot")?);
            }
            SECTION_END => {
                if !payload.is_empty() {
                    return Err(r.corrupt("end section must be empty"));
                }
                break;
            }
            SECTION_PARAMS | SECTION_STATE => {
                return Err(r.corrupt(format!("duplicate section {tag}")));
            }
            other => return Err(r.corrupt(format!("unknown section tag {other}"))),
        }
    }
    if r.remaining() != 0 {
        return Err(r.corrupt(format!(
            "{} trailing bytes after end section",
            r.remaining()
        )));
    }
    match (params, state) {
        (Some(params), Some(state)) => Ok(Snapshot { params, state }),
        (None, _) => Err(r.corrupt("missing params section")),
        (_, None) => Err(r.corrupt("missing state section")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_extend_and_combine_agree_with_concatenation() {
        let data: Vec<u8> = (0..512u32)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        let whole = crc32_bytewise(0, &data);
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_extend(crc32(a), b), whole, "extend cut {cut}");
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                whole,
                "combine cut {cut}"
            );
        }
        // Empty-prefix and empty-suffix identities.
        assert_eq!(crc32_extend(0, b"xyz"), crc32(b"xyz"));
        assert_eq!(crc32_combine(crc32(b"xyz"), 0, 0), crc32(b"xyz"));
        assert_eq!(crc32_combine(0, crc32(b"xyz"), 3), crc32(b"xyz"));
    }

    /// The bytewise CRC32 register loop: the oracle for the slicing-by-8
    /// [`crc32_update`]. Takes and returns a finalized checksum, like
    /// [`crc32_extend`].
    fn crc32_bytewise(crc: u32, bytes: &[u8]) -> u32 {
        let mut reg = !crc;
        for &b in bytes {
            reg = (reg >> 8) ^ CRC32_TABLE[((reg ^ b as u32) & 0xFF) as usize];
        }
        !reg
    }

    /// zlib's GF(2) matrix `crc32_combine` (the operator for one zero bit,
    /// squared once per bit of `8·len2`): the oracle for the table-driven
    /// [`crc32_combine`].
    fn crc32_combine_matrix(crc1: u32, crc2: u32, len2: u64) -> u32 {
        fn times(mat: &[u32; 32], mut vec: u32) -> u32 {
            let mut sum = 0u32;
            let mut i = 0;
            while vec != 0 {
                if vec & 1 != 0 {
                    sum ^= mat[i];
                }
                vec >>= 1;
                i += 1;
            }
            sum
        }
        fn square(dst: &mut [u32; 32], src: &[u32; 32]) {
            for n in 0..32 {
                dst[n] = times(src, src[n]);
            }
        }
        if len2 == 0 {
            return crc1;
        }
        let mut odd = [0u32; 32];
        odd[0] = CRC32_POLY;
        let mut row = 1u32;
        for cell in odd.iter_mut().skip(1) {
            *cell = row;
            row <<= 1;
        }
        let mut even = [0u32; 32];
        square(&mut even, &odd); // two zero bits
        square(&mut odd, &even); // four zero bits
        let mut crc1 = crc1;
        let mut len2 = len2;
        loop {
            square(&mut even, &odd);
            if len2 & 1 != 0 {
                crc1 = times(&even, crc1);
            }
            len2 >>= 1;
            if len2 == 0 {
                break;
            }
            square(&mut odd, &even);
            if len2 & 1 != 0 {
                crc1 = times(&odd, crc1);
            }
            len2 >>= 1;
            if len2 == 0 {
                break;
            }
        }
        crc1 ^ crc2
    }

    fn random_bytes(rng: &mut impl rand::Rng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.random::<u32>() as u8).collect()
    }

    /// A length with a uniformly drawn bit width (0..=64), so short and
    /// huge lengths are drawn equally often.
    fn random_len(rng: &mut impl rand::Rng) -> u64 {
        match rng.random_range(0..=64u32) {
            0 => 0,
            bits => rng.random::<u64>() >> (64 - bits),
        }
    }

    #[test]
    fn crc32_matches_bytewise_at_every_length_and_offset() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xC3C3);
        let buf = random_bytes(&mut rng, 257 + 8);
        for offset in 0..8 {
            for len in 0..=257 {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(0, slice),
                    "offset {offset} len {len}"
                );
            }
        }
        let big = random_bytes(&mut rng, 8192);
        for _ in 0..2000 {
            let start = rng.random_range(0..big.len());
            let end = rng.random_range(start..=big.len());
            let seed = rng.random::<u32>();
            let slice = &big[start..end];
            assert_eq!(crc32(slice), crc32_bytewise(0, slice), "{start}..{end}");
            assert_eq!(
                crc32_extend(seed, slice),
                crc32_bytewise(seed, slice),
                "{start}..{end} from {seed:#010x}"
            );
        }
    }

    #[test]
    fn crc32_combine_matches_the_matrix_oracle_and_concatenation() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xC0B1);
        let mut lens = vec![0u64, 1];
        for k in 1..=63 {
            lens.extend([(1u64 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        // Bit 29 and up of `len2` index the power table past its 32
        // entries (`8·len2` has bit 32 and up set): the index wraps.
        lens.extend((0..64).map(|_| rng.random_range((1u64 << 29)..=u64::MAX)));
        lens.push(u64::MAX);
        for len in lens {
            let (crc1, crc2) = (rng.random::<u32>(), rng.random::<u32>());
            assert_eq!(
                crc32_combine(crc1, crc2, len),
                crc32_combine_matrix(crc1, crc2, len),
                "len {len}"
            );
        }
        let data = random_bytes(&mut rng, 1 << 16);
        let mut cuts = vec![0usize, 1, data.len()];
        for k in 1..16 {
            cuts.extend([(1usize << k) - 1, 1 << k, (1 << k) + 1]);
        }
        let whole = crc32_bytewise(0, &data);
        for cut in cuts {
            let (a, b) = data.split_at(data.len() - cut);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                whole,
                "suffix {cut}"
            );
        }
    }

    /// Release-build sweep (`cargo test --release -p fdm-core --lib codec
    /// -- --ignored`): random combine triples against the matrix oracle
    /// (lengths of every bit width) and against extending by the second
    /// part's bytes (any `u32` is the CRC of some first part), and random
    /// slices against the bytewise loop.
    #[test]
    #[ignore = "release-build sweep; run with --ignored"]
    fn crc32_random_sweep_matches_the_oracles() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x5EE9);
        for _ in 0..100_000 {
            let (crc1, crc2, len) = (
                rng.random::<u32>(),
                rng.random::<u32>(),
                random_len(&mut rng),
            );
            assert_eq!(
                crc32_combine(crc1, crc2, len),
                crc32_combine_matrix(crc1, crc2, len),
                "{crc1:#010x} {crc2:#010x} {len}"
            );
        }
        let big = random_bytes(&mut rng, 1 << 16);
        for _ in 0..4_000_000 {
            let start = rng.random_range(0..big.len());
            let end = rng.random_range(start..=(start + 96).min(big.len()));
            let (crc1, tail) = (rng.random::<u32>(), &big[start..end]);
            assert_eq!(
                crc32_combine(crc1, crc32(tail), tail.len() as u64),
                crc32_bytewise(crc1, tail),
                "{crc1:#010x} ++ {start}..{end}"
            );
        }
        for _ in 0..2_000_000 {
            let start = rng.random_range(0..big.len());
            let end = rng.random_range(start..=(start + 600).min(big.len()));
            let seed = rng.random::<u32>();
            let slice = &big[start..end];
            assert_eq!(
                crc32_extend(seed, slice),
                crc32_bytewise(seed, slice),
                "{start}..{end} from {seed:#010x}"
            );
        }
    }

    #[test]
    fn varint_exact_rejects_lossy_values() {
        assert_eq!(varint_exact(7.0), Some(7));
        assert_eq!(varint_exact(0.0), Some(0));
        assert_eq!(varint_exact((1u64 << 53) as f64), None); // cap
        assert_eq!(varint_exact(-0.0), None); // sign bit would be lost
        assert_eq!(varint_exact(0.5), None);
        assert_eq!(varint_exact(-3.0), None);
        assert_eq!(varint_exact(f64::NAN), None);
        assert_eq!(varint_exact(f64::INFINITY), None);
    }

    fn roundtrip(value: &Value) {
        let bytes = encode_value_to_vec(value);
        let back = decode_section_value(&bytes, "snapshot").unwrap();
        assert_eq!(&back, value, "{bytes:?}");
    }

    #[test]
    fn value_round_trips_cover_every_tag() {
        roundtrip(&Value::Null);
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::Bool(false));
        roundtrip(&Value::Number(std::f64::consts::PI));
        roundtrip(&Value::Number(-0.0));
        roundtrip(&Value::String("snapshot ≠ text".into()));
        roundtrip(&Value::Array(vec![])); // empty array takes the generic tag
        roundtrip(&Value::Array(vec![
            Value::Number(1.0),
            Value::Number(2.0),
            Value::Number(40_000.0),
        ])); // dense integer array
        roundtrip(&Value::Array(vec![
            Value::Number(0.25),
            Value::Number(-7.5),
        ])); // dense f64
        roundtrip(&Value::Array(vec![
            Value::Number(1.0),
            Value::String("mixed".into()),
            Value::Null,
        ])); // generic
        let mut map = serde::Map::new();
        map.insert("a".into(), Value::Number(1.5));
        map.insert("b".into(), Value::Array(vec![Value::Bool(false)]));
        roundtrip(&Value::Object(map));
    }

    #[test]
    fn packed_int_arrays_round_trip_at_every_width() {
        // Each width class: all-equal, boundary values, and a mix long
        // enough to cross byte boundaries at every shift.
        for max in [0u64, 1, 2, 7, 100, 1023, 1 << 20, (1 << 53) - 1] {
            for len in [1usize, 3, 8, 17, 64] {
                let ids: Vec<u64> = (0..len as u64)
                    .map(|i| (i * 2_654_435_761) % (max + 1))
                    .collect();
                let array = Value::Array(ids.iter().map(|&v| Value::Number(v as f64)).collect());
                roundtrip(&array);
            }
        }
    }

    #[test]
    fn binary_attribute_rows_pack_near_one_bit_per_value() {
        // 0/1 feature vectors (the CelebA-style workload) must land on the
        // bit-packed tag: 256 values in ~33 payload bytes, not 256 varints.
        let bits: Vec<Value> = (0..256).map(|i| Value::Number(f64::from(i % 2))).collect();
        let encoded = encode_value_to_vec(&Value::Array(bits.clone()));
        assert!(encoded.len() < 40, "{} bytes for 256 bits", encoded.len());
        let back = decode_section_value(&encoded, "snapshot").unwrap();
        assert_eq!(back, Value::Array(bits));
    }

    #[test]
    fn dense_f64_is_bit_exact() {
        let values = [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -0.0, 2.5e-17];
        let array = Value::Array(values.iter().map(|&v| Value::Number(v)).collect());
        let bytes = encode_value_to_vec(&array);
        let back = decode_section_value(&bytes, "snapshot").unwrap();
        let back = back.as_array().unwrap();
        for (orig, decoded) in values.iter().zip(back) {
            assert_eq!(orig.to_bits(), decoded.as_f64().unwrap().to_bits());
        }
    }

    #[test]
    fn truncated_and_oversized_counts_are_typed_errors() {
        // A varint length far past the buffer must fail the count guard,
        // not size an allocation.
        let mut bytes = vec![TAG_STRING];
        put_varint(&mut bytes, u64::MAX / 2);
        let err = decode_section_value(&bytes, "snapshot").unwrap_err();
        assert!(matches!(err, FdmError::CorruptSnapshot { .. }), "{err}");

        let good = encode_value_to_vec(&Value::String("hello".into()));
        for cut in 0..good.len() {
            let err = decode_section_value(&good[..cut], "snapshot").unwrap_err();
            assert!(matches!(err, FdmError::CorruptSnapshot { .. }), "cut {cut}");
        }
    }
}
