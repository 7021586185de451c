//! Shared codec substrate for versioned sketch snapshots (DESIGN.md §10).
//!
//! Space accounting is the whole point of the paper, so every sketch's
//! "size in bits" must be the length of a concrete, decodable byte string —
//! not hand-computed bookkeeping. This module is the substrate those byte
//! strings are built from: primitive readers/writers (fixed-width
//! little-endian, LEB128 varints, zigzag for signed counters), a
//! self-describing frame (magic + kind + format version + body length +
//! checksum), and a [`DecodeError`] taxonomy that turns every adversarial
//! input — truncation, wrong magic, version skew, bit flips, trailing
//! garbage — into a typed refusal instead of a panic.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! magic    u32     0x4946_5358 ("IFSX") or the legacy 0x4946_5353 ("IFSS")
//! kind     u16     sketch-type tag (see `ifs_core::snapshot` for the registry)
//! version  u16     format version of this kind's body layout
//! len      varint  body length in bytes
//! body     len bytes (kind-specific)
//! check    u64     over every preceding byte of the frame: XXH64 (seed 0)
//!                  under "IFSX", FNV-1a 64 under "IFSS"
//! ```
//!
//! **The magic names the checksum.** [`append_frame`] writes "IFSX"
//! frames only; "IFSS" frames, written by older builds, decode forever.
//! The envelope rather than `(kind, version)` names the hash, because
//! [`peek_frame`] must verify frames of versions it cannot interpret, and
//! a build that predates "IFSX" refuses such a frame with a typed
//! [`DecodeError::BadMagic`]. The two envelopes differ in magic and check
//! only: no kind's version, body layout or frame length depends on them.
//!
//! **Version-skew policy.** A decoder accepts exactly the versions it
//! knows; a frame carrying any other version — in particular a *future*
//! one, whose body layout the decoder cannot know — is refused with
//! [`DecodeError::UnsupportedVersion`] before the checksum is even
//! examined. Evolving a sketch's body layout means bumping its version and
//! teaching its decoder the old layouts, never reinterpreting bytes.

use crate::{BitMatrix, Database, Itemset};
use ifs_util::bits;

/// Magic of the envelope every frame is written in ("IFSX"): its check
/// is XXH64 with seed 0.
pub const SNAPSHOT_MAGIC: u32 = 0x4946_5358;

/// Magic of the legacy envelope ("IFSS"): its check is [`fnv1a64`]. No
/// build writes it any more; frames that carry it decode forever.
pub const LEGACY_SNAPSHOT_MAGIC: u32 = 0x4946_5353;

/// The checksum a frame carries, named by its envelope's magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameCheck {
    /// [`fnv1a64`], under [`LEGACY_SNAPSHOT_MAGIC`].
    Fnv1a64,
    /// XXH64 with seed 0, under [`SNAPSHOT_MAGIC`].
    Xxh64,
}

impl FrameCheck {
    /// The envelope `magic` names, or `None` for a magic no frame carries.
    fn of_magic(magic: u32) -> Option<Self> {
        match magic {
            SNAPSHOT_MAGIC => Some(FrameCheck::Xxh64),
            LEGACY_SNAPSHOT_MAGIC => Some(FrameCheck::Fnv1a64),
            _ => None,
        }
    }

    /// This checksum over `bytes`.
    fn digest(self, bytes: &[u8]) -> u64 {
        match self {
            FrameCheck::Fnv1a64 => fnv1a64(bytes),
            FrameCheck::Xxh64 => xxh64(bytes),
        }
    }
}

/// Why a snapshot (or a field inside one) refused to decode.
///
/// Decoders never panic on untrusted bytes: every malformed input maps to
/// one of these variants, and `tests/snapshot_roundtrip.rs` drives each
/// sketch codec through all of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before a field (or the declared body) was complete.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Frame magic matched neither [`SNAPSHOT_MAGIC`] nor
    /// [`LEGACY_SNAPSHOT_MAGIC`].
    BadMagic(u32),
    /// The frame is a valid snapshot of a *different* sketch type.
    WrongKind {
        /// Kind tag the decoder expected.
        expected: u16,
        /// Kind tag found in the frame.
        got: u16,
    },
    /// The frame's body layout version is not one this decoder knows —
    /// typically a snapshot written by a newer build (see the module docs
    /// for the skew policy).
    UnsupportedVersion {
        /// Kind tag of the frame.
        kind: u16,
        /// Version found in the frame.
        got: u16,
        /// Newest version this decoder supports.
        supported: u16,
    },
    /// Bytes remain after the complete frame (or after a fully decoded
    /// body): the input is longer than the snapshot it claims to be.
    TrailingBytes {
        /// Number of surplus bytes.
        extra: usize,
    },
    /// The checksum over the frame (the one its magic names, see
    /// [`FrameCheck`]) did not match: bytes were corrupted in storage or
    /// transit.
    ChecksumMismatch {
        /// Checksum recorded in the frame.
        expected: u64,
        /// Checksum recomputed from the received bytes.
        actual: u64,
    },
    /// A field decoded but its value is impossible (overflowing sizes,
    /// out-of-range items, nonzero padding bits, …); the string names the
    /// field and the violation.
    Corrupt(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, available } => {
                write!(f, "input truncated: next field needs {needed} bytes, {available} left")
            }
            DecodeError::BadMagic(m) => write!(f, "bad snapshot magic 0x{m:08x}"),
            DecodeError::WrongKind { expected, got } => {
                write!(f, "snapshot of kind {got}, decoder expects kind {expected}")
            }
            DecodeError::UnsupportedVersion { kind, got, supported } => write!(
                f,
                "kind-{kind} snapshot has format version {got}, this build supports <= {supported}"
            ),
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the snapshot frame")
            }
            DecodeError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: frame says 0x{expected:016x}, bytes hash to 0x{actual:016x}"
            ),
            DecodeError::Corrupt(what) => write!(f, "corrupt snapshot field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// FNV-1a 64 over `bytes` — the legacy "IFSS" frame checksum and the
/// sketch log's record checksum. Hand-rolled (DESIGN.md §6) and
/// byte-order independent by construction; byte-serial (one multiply per
/// byte).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One XXH64 lane step: fold the little-endian word `lane` into `acc`.
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2)).rotate_left(31).wrapping_mul(XXH_P1)
}

fn xxh_merge(acc: u64, lane_acc: u64) -> u64 {
    (acc ^ xxh_round(0, lane_acc)).wrapping_mul(XXH_P1).wrapping_add(XXH_P4)
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// XXH64 with seed 0 over `bytes` — the "IFSX" frame checksum, hand-rolled
/// (DESIGN.md §6) from the public xxHash specification. Four independent
/// 64-bit lanes consume 32-byte stripes of little-endian words, so the
/// loop runs word-parallel rather than byte-serial; the tail's words,
/// half-word and bytes are folded in one at a time, and a final avalanche
/// mixes every input bit into every output bit. Byte-order independent by
/// construction.
fn xxh64(bytes: &[u8]) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let mut tail = stripes.remainder();
    let mut acc = if bytes.len() >= 32 {
        let mut v = [XXH_P1.wrapping_add(XXH_P2), XXH_P2, 0, 0u64.wrapping_sub(XXH_P1)];
        for stripe in stripes {
            for (lane, word) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, le_u64(word));
            }
        }
        let acc = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(acc, |acc, &lane| xxh_merge(acc, lane))
    } else {
        XXH_P5
    };
    acc = acc.wrapping_add(bytes.len() as u64);
    while tail.len() >= 8 {
        acc ^= xxh_round(0, le_u64(&tail[..8]));
        acc = acc.rotate_left(27).wrapping_mul(XXH_P1).wrapping_add(XXH_P4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let half = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        acc ^= u64::from(half).wrapping_mul(XXH_P1);
        acc = acc.rotate_left(23).wrapping_mul(XXH_P2).wrapping_add(XXH_P3);
        tail = &tail[4..];
    }
    for &b in tail {
        acc ^= u64::from(b).wrapping_mul(XXH_P5);
        acc = acc.rotate_left(11).wrapping_mul(XXH_P1);
    }
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(XXH_P2);
    acc ^= acc >> 29;
    acc = acc.wrapping_mul(XXH_P3);
    acc ^ (acc >> 32)
}

/// Append-only encoder for snapshot bodies and frames.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Clears the writer for reuse, retaining its capacity. Per-connection
    /// encode scratch in the serving tier relies on this to stop
    /// allocating once it has seen its largest message.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The bytes written so far, borrowed.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Fixed-width `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Fixed-width `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An `f64` by its IEEE-754 bit pattern (bit-exact roundtrip; NaN
    /// payloads included).
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// LEB128 varint: 7 value bits per byte, high bit = continuation.
    #[inline]
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Zigzag-mapped varint for signed counters (small magnitudes of either
    /// sign stay short).
    pub fn varint_i64(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Raw bytes, verbatim (length must be recoverable from context).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// A packed `u64` word slice as little-endian bytes.
    pub fn words(&mut self, v: &[u64]) {
        for w in v {
            self.u64(*w);
        }
    }
}

/// Cursor over untrusted snapshot bytes; every read is bounds-checked and
/// returns [`DecodeError::Truncated`] instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// Checks that at least `needed` bytes remain, without consuming them —
    /// the pre-allocation guard. Decoders validate an untrusted element
    /// count against the bytes that could possibly back it (every element
    /// costs at least one byte) *before* reserving a `Vec`, so a tiny
    /// frame declaring a huge count is a typed [`DecodeError::Truncated`]
    /// instead of an enormous allocation request.
    pub fn require(&self, needed: usize) -> Result<(), DecodeError> {
        if self.remaining() < needed {
            return Err(DecodeError::Truncated { needed, available: self.remaining() });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated { needed: n, available: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Fixed-width `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("took 4 bytes")))
    }

    /// Fixed-width `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("took 8 bytes")))
    }

    /// An `f64` from its IEEE-754 bit pattern.
    pub fn f64_bits(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// LEB128 varint; refuses encodings longer than 10 bytes (the `u64`
    /// maximum) or overflowing 64 bits.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        // One-byte values (every item delta below 128) skip the loop, which
        // stays out of line so that this test inlines into every caller.
        if let Some(&byte) = self.buf.get(self.pos) {
            if byte & 0x80 == 0 {
                self.pos += 1;
                return Ok(u64::from(byte));
            }
        }
        self.long_varint()
    }

    /// [`Reader::varint`] past its one-byte case.
    #[inline(never)]
    fn long_varint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        for i in 0..10 {
            let byte = self.u8()?;
            let payload = u64::from(byte & 0x7F);
            if i == 9 && payload > 1 {
                return Err(DecodeError::Corrupt("varint overflows u64".into()));
            }
            v |= payload << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DecodeError::Corrupt("varint continuation beyond 10 bytes".into()))
    }

    /// A varint that must fit in `usize` (always true on 64-bit hosts).
    pub fn varint_usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.varint()?)
            .map_err(|_| DecodeError::Corrupt("varint exceeds usize".into()))
    }

    /// Zigzag-mapped signed varint.
    pub fn varint_i64(&mut self) -> Result<i64, DecodeError> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// `n` packed `u64` words from little-endian bytes.
    pub fn words(&mut self, n: usize) -> Result<Vec<u64>, DecodeError> {
        let needed = n.checked_mul(8).ok_or_else(|| {
            DecodeError::Corrupt(format!("word count {n} overflows a byte length"))
        })?;
        self.require(needed)?;
        let mut words = vec![0; n];
        self.words_into(&mut words)?;
        Ok(words)
    }

    /// Fills `out` with `out.len()` packed words from little-endian bytes —
    /// [`Reader::words`] straight into a caller-owned slice.
    fn words_into(&mut self, out: &mut [u64]) -> Result<(), DecodeError> {
        let raw = self.take(out.len() * 8)?;
        for (word, bytes) in out.iter_mut().zip(raw.chunks_exact(8)) {
            *word = le_u64(bytes);
        }
        Ok(())
    }
}

/// Appends the complete "IFSX" frame around `body` to `out`, leaving the
/// bytes already in `out` untouched; the checksum covers only the new
/// frame.
/// The one frame writer: a caller that wants a fresh frame starts from an
/// empty (or cleared, capacity-retaining) vector.
pub fn append_frame(kind: u16, version: u16, body: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    let mut w = Writer { buf: std::mem::take(out) };
    w.buf.reserve(8 + 10 + body.len() + 8);
    w.u32(SNAPSHOT_MAGIC);
    w.buf.extend_from_slice(&kind.to_le_bytes());
    w.buf.extend_from_slice(&version.to_le_bytes());
    w.varint(body.len() as u64);
    w.bytes(body);
    let check = xxh64(&w.buf[start..]);
    w.u64(check);
    *out = w.into_bytes();
}

/// A frame's header: the registry tags and the byte geometry a decoder,
/// a storage layer or a transport needs to judge, file away or skip over
/// the frame. [`parse_frame_header`] reads it without touching the body
/// or the checksum; [`peek_frame`] and [`decode_frame`] return it only
/// for frames whose checksum holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Sketch-type tag (see `ifs_core::snapshot` for the registry).
    pub kind: u16,
    /// Body-layout version recorded in the frame.
    pub version: u16,
    /// The checksum the frame's magic names.
    pub check: FrameCheck,
    /// Offset of the body: the 8 fixed header bytes plus the length varint.
    pub body_start: usize,
    /// Declared body length in bytes.
    pub body_len: usize,
}

impl FrameInfo {
    /// Total frame length: header + length varint + body + checksum
    /// (saturating for a declared body no buffer could hold).
    pub fn frame_len(&self) -> usize {
        self.body_start.saturating_add(self.body_len).saturating_add(8)
    }
}

/// Parses the header at the start of `prefix`: magic, kind, version and
/// the body-length varint — the one place a frame header is read.
///
/// - `Ok(Some(info))` — the header is complete; `prefix` may hold fewer
///   or more bytes than [`FrameInfo::frame_len`].
/// - `Ok(None)` — the header is a valid but incomplete prefix; a stream
///   reader should wait for more bytes.
/// - `Err(_)` — `prefix` can never begin a frame (bad magic, malformed
///   length varint).
///
/// Kind and version are reported, not judged: that is the caller's
/// contract ([`decode_frame`] matches them, [`peek_frame`] files every
/// kind).
pub fn parse_frame_header(prefix: &[u8]) -> Result<Option<FrameInfo>, DecodeError> {
    let mut r = Reader::new(prefix);
    let header = (|| {
        let magic = r.u32()?;
        let check = FrameCheck::of_magic(magic).ok_or(DecodeError::BadMagic(magic))?;
        let kind = u16::from_le_bytes(r.bytes(2)?.try_into().expect("2"));
        let version = u16::from_le_bytes(r.bytes(2)?.try_into().expect("2"));
        let body_len = r.varint_usize()?;
        Ok(FrameInfo { kind, version, check, body_start: r.consumed(), body_len })
    })();
    match header {
        Err(DecodeError::Truncated { .. }) => Ok(None),
        header => header.map(Some),
    }
}

/// [`parse_frame_header`] for input that must hold a whole frame: an
/// incomplete header is [`DecodeError::Truncated`] (it needs at least one
/// more byte). The kind-dispatching decoders read the kind tag here.
pub fn frame_header(bytes: &[u8]) -> Result<FrameInfo, DecodeError> {
    parse_frame_header(bytes)?
        .ok_or(DecodeError::Truncated { needed: bytes.len() + 1, available: bytes.len() })
}

/// The body of the frame `info` describes, once the checksum its magic
/// names, over header and body, matches the one recorded after them.
fn checked_body<'a>(bytes: &'a [u8], info: &FrameInfo) -> Result<&'a [u8], DecodeError> {
    let mut r = Reader::new(&bytes[info.body_start..]);
    let body = r.bytes(info.body_len)?;
    let expected = r.u64()?;
    let actual = info.check.digest(&bytes[..info.body_start + info.body_len]);
    if expected != actual {
        return Err(DecodeError::ChecksumMismatch { expected, actual });
    }
    Ok(body)
}

/// Validates one frame at the start of `bytes` and returns its body slice
/// and header (the version the body was written at, and the total length
/// consumed, [`FrameInfo::frame_len`]). Bytes past the frame are left for
/// the caller (streams of frames are legal at this layer; strict
/// single-snapshot decoding rejects them with
/// [`DecodeError::TrailingBytes`] one level up).
///
/// Check order is part of the contract: magic, kind, and version are
/// judged *before* the checksum, so a version-skewed frame reports
/// [`DecodeError::UnsupportedVersion`] rather than a useless mismatch on a
/// checksum whose coverage the decoder cannot interpret.
pub fn decode_frame(
    bytes: &[u8],
    kind: u16,
    supported_version: u16,
) -> Result<(&[u8], FrameInfo), DecodeError> {
    let info = frame_header(bytes)?;
    if info.kind != kind {
        return Err(DecodeError::WrongKind { expected: kind, got: info.kind });
    }
    if info.version == 0 || info.version > supported_version {
        return Err(DecodeError::UnsupportedVersion {
            kind,
            got: info.version,
            supported: supported_version,
        });
    }
    Ok((checked_body(bytes, &info)?, info))
}

/// Validates one frame at the start of `bytes` *without* interpreting its
/// body: magic, length arithmetic, and the checksum are judged, but the
/// kind and version are reported rather than matched — the entry point for
/// kind-agnostic storage layers (the sketch log) that must file frames of
/// every registry kind, including versions only future decoders know.
/// Bytes past [`FrameInfo::frame_len`] are the caller's business, as in
/// [`decode_frame`]. Version 0 is still refused (it is reserved in every
/// kind's numbering).
pub fn peek_frame(bytes: &[u8]) -> Result<FrameInfo, DecodeError> {
    let info = frame_header(bytes)?;
    if info.version == 0 {
        return Err(DecodeError::UnsupportedVersion {
            kind: info.kind,
            got: 0,
            supported: u16::MAX,
        });
    }
    checked_body(bytes, &info)?;
    Ok(info)
}

/// Encodes a database (rows, dims, packed row words) as a snapshot body
/// fragment — the shared payload of the row-based sketches.
pub fn write_database(w: &mut Writer, db: &Database) {
    w.varint(db.rows() as u64);
    w.varint(db.dims() as u64);
    w.words(db.matrix().raw_words());
}

/// Decodes a database fragment written by [`write_database`], validating
/// shape arithmetic and row-padding bits before any matrix is built (so
/// adversarial headers cannot cause overflowing allocations or construct a
/// matrix that violates the zero-padding invariant word-wise subset tests
/// rely on).
pub fn read_database(r: &mut Reader) -> Result<Database, DecodeError> {
    let rows = r.varint_usize()?;
    let dims = r.varint_usize()?;
    let words_per_row = bits::words_for(dims).max(1);
    let total_words = rows.checked_mul(words_per_row).ok_or_else(|| {
        DecodeError::Corrupt(format!("database shape {rows}x{dims} overflows a word count"))
    })?;
    let words = r.words(total_words)?;
    for (row, row_words) in words.chunks_exact(words_per_row).enumerate() {
        check_row_padding(row_words, dims, row)?;
    }
    check_tid_words(rows, dims)?;
    Ok(Database::from_matrix(BitMatrix::from_raw(rows, dims, words)))
}

/// Refuses a decoded row whose bits beyond column `dims` are set: a matrix
/// must keep its padding zero for word-wise subset tests to hold.
fn check_row_padding(row_words: &[u64], dims: usize, row: usize) -> Result<(), DecodeError> {
    if !padding_is_clear(row_words, dims) {
        return Err(DecodeError::Corrupt(format!(
            "row {row} has nonzero padding bits beyond column {dims}"
        )));
    }
    Ok(())
}

/// True iff the bits of `row_words` beyond column `dims` are all zero.
fn padding_is_clear(row_words: &[u64], dims: usize) -> bool {
    dims.is_multiple_of(64) || row_words[row_words.len() - 1] >> (dims % 64) == 0
}

/// Row-group payload is a delta-coded itemset (the sparse mode).
const ROW_GROUP_ITEMS: u8 = 0;
/// Row-group payload is the raw packed row words (the dense fallback).
const ROW_GROUP_RAW: u8 = 1;

/// Cap on the *decoded* size of a compressed database fragment (1 GiB of
/// packed words — mirroring the serving transport's `MAX_WIRE_FRAME`).
/// Run-length groups legitimately amplify, so unlike [`read_database`] the
/// decoded size is not bounded by the bytes backing it; without a cap a
/// 20-byte frame could demand a terabyte allocation. Both database
/// decoders also hold the tid-set view a decoded database builds to this
/// cap ([`check_tid_words`]).
const MAX_COMPRESSED_DECODE_BYTES: usize = 1 << 30;

/// The widest rows whose item deltas, and the item count of any row the
/// encoder writes as ITEMS, always fit one varint byte. Wider bodies mix
/// one-byte and longer deltas unpredictably, so [`read_database_compressed`]
/// sends all their groups to the checked path rather than try each.
const ONE_BYTE_DIMS: usize = 128;

/// Encodes a database as the *compressed* snapshot body fragment (v2
/// `ReleaseDb` bodies): `rows`, `dims`, then row groups until every row is
/// covered. A group is `repeat` (varint, ≥ 1 — consecutive identical rows
/// collapse run-length style), a mode byte, and one row payload: either
/// the row's delta-coded itemset ([`write_itemset`]'s layout, ~1 byte per
/// set bit — the sparse win) or its raw packed words (the dense fallback),
/// whichever is shorter. Sparse databases shrink well below `n·d` bits;
/// dense rows never pay more than one mode byte plus a varint over the raw
/// encoding. The encoding is deterministic (a function of the database
/// alone), so equal databases produce equal bytes — the compactor's
/// identity arguments rely on this.
///
/// Rows are encoded straight from their packed words (DESIGN.md §10):
/// a run ends at the first row whose words differ, and each group is
/// written by `write_one_word_group` for one-word rows, else by
/// `write_items_group` or, if that declines, as RAW words.
pub fn write_database_compressed(w: &mut Writer, db: &Database) {
    let m = db.matrix();
    w.varint(m.rows() as u64);
    w.varint(m.cols() as u64);
    let raw_len = m.words_per_row() * 8;
    let mut rows = m.raw_words().chunks_exact(m.words_per_row()).peekable();
    while let Some(row) = rows.next() {
        let mut repeat = 1u64;
        while rows.next_if(|next| next.iter().zip(row).all(|(a, b)| a == b)).is_some() {
            repeat += 1;
        }
        w.varint(repeat);
        if let &[word] = row {
            write_one_word_group(w, word);
        } else if !write_items_group(w, row, raw_len) {
            w.u8(ROW_GROUP_RAW);
            w.words(row);
        }
    }
}

/// Most items a one-word row can hold and still be written as ITEMS: the
/// count byte and one byte per item must stay under the 8 raw bytes.
const ONE_WORD_MAX_ITEMS: usize = 6;

/// [`write_items_group`]'s bytes for a one-word row (`dims ≤ 64`), without
/// a data-dependent branch: every delta is below 64, so the payload is
/// the count byte and one byte per item, and ITEMS wins iff the count is
/// at most [`ONE_WORD_MAX_ITEMS`]. The lowest six set bits' deltas are
/// packed into one word in six fixed steps, and the group's payload —
/// those bytes or the raw word — is chosen by a select, written as 8
/// bytes and cut to its length. (Branching on the mode and on each set
/// bit mispredicts about twice per row on market-basket rows, which is
/// most of what the per-bit walk costs.)
fn write_one_word_group(w: &mut Writer, word: u64) {
    let count = word.count_ones() as usize;
    let mut payload = count as u64;
    let (mut rest, mut prev) = (word, 0);
    for byte in 1..=ONE_WORD_MAX_ITEMS {
        let item = u64::from(rest.trailing_zeros() & 63);
        if rest != 0 {
            payload |= (item - prev) << (8 * byte);
            prev = item;
        }
        rest &= rest.wrapping_sub(1);
    }
    let as_items = count <= ONE_WORD_MAX_ITEMS;
    w.u8(if as_items { ROW_GROUP_ITEMS } else { ROW_GROUP_RAW });
    let at = w.len();
    w.u64(if as_items { payload } else { word });
    w.buf.truncate(at + if as_items { 1 + count } else { 8 });
}

/// Writes `row` as an ITEMS group — the mode byte, the set-bit count, then
/// each set bit's position as a varint delta from the one before (the
/// first from zero), found by a trailing-zeros walk over each word — and
/// returns true, unless the payload would not be shorter than the row's
/// `raw_len` raw bytes: then it leaves `w` as it found it and returns
/// false. A row whose count alone shows that one byte per item cannot win
/// is declined before any item is walked; only a multi-byte delta can
/// push a walked row to the raw length.
fn write_items_group(w: &mut Writer, row: &[u64], raw_len: usize) -> bool {
    let count: usize = row.iter().map(|word| word.count_ones() as usize).sum();
    if varint_len(count as u64) + count >= raw_len {
        return false;
    }
    let mode_at = w.len();
    w.u8(ROW_GROUP_ITEMS);
    let items_at = w.len();
    w.varint(count as u64);
    let mut prev = 0;
    for (at, &word) in row.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            let item = at * 64 + rest.trailing_zeros() as usize;
            match item - prev {
                delta @ 0..0x80 => w.buf.push(delta as u8),
                delta => w.varint(delta as u64),
            }
            prev = item;
            rest &= rest - 1;
        }
    }
    if w.len() - items_at >= raw_len {
        w.buf.truncate(mode_at);
        return false;
    }
    true
}

/// Decodes a fragment written by [`write_database_compressed`], validating
/// group arithmetic (no zero-length or overrunning groups), item ranges and
/// ordering, raw-row padding bits, and the decoded-size cap before any
/// large allocation — adversarial headers refuse typed, never panic and
/// never demand an unbacked terabyte. Each group decodes straight into its
/// first row's words, then is copied over the rest of its run.
///
/// In a body of at most `ONE_BYTE_DIMS` columns, a group whose varints
/// are all one byte (every group the encoder writes there, but for runs
/// of 128 rows or more) is parsed straight from the body bytes by
/// `read_one_byte_group`; any other group, valid or not, is left
/// unconsumed to the checked path `read_row_group`, so every accepted
/// body and every refusal is that path's.
pub fn read_database_compressed(r: &mut Reader) -> Result<Database, DecodeError> {
    let rows = r.varint_usize()?;
    let dims = r.varint_usize()?;
    let words_per_row = bits::words_for(dims).max(1);
    let total_words = rows.checked_mul(words_per_row).ok_or_else(|| {
        DecodeError::Corrupt(format!("database shape {rows}x{dims} overflows a word count"))
    })?;
    if total_words.saturating_mul(8) > MAX_COMPRESSED_DECODE_BYTES {
        return Err(DecodeError::Corrupt(format!(
            "compressed database decodes to {total_words} words, over the \
             {MAX_COMPRESSED_DECODE_BYTES}-byte cap"
        )));
    }
    let mut words = vec![0u64; total_words];
    let mut covered = 0usize;
    while covered < rows {
        let base = covered * words_per_row;
        // The one row sink: either path decodes the group's row here.
        let row = &mut words[base..base + words_per_row];
        let mut quick = None;
        if dims <= ONE_BYTE_DIMS {
            quick = read_one_byte_group(&r.buf[r.pos..], dims, rows - covered, row);
            if quick.is_none() {
                row.fill(0);
            }
        }
        let repeat = match quick {
            Some((repeat, used)) => {
                r.pos += used;
                repeat
            }
            None => read_row_group(r, dims, rows, covered, row)?,
        };
        for k in 1..repeat {
            words.copy_within(base..base + words_per_row, base + k * words_per_row);
        }
        covered += repeat;
    }
    check_tid_words(rows, dims)?;
    Ok(Database::from_matrix(BitMatrix::from_raw(rows, dims, words)))
}

/// The checked path of [`read_database_compressed`]: reads the group that
/// starts row `covered` of a `rows`-row database into the zeroed `row`
/// through [`Reader`] calls, refusing every malformed group, and returns
/// its repeat.
fn read_row_group(
    r: &mut Reader,
    dims: usize,
    rows: usize,
    covered: usize,
    row: &mut [u64],
) -> Result<usize, DecodeError> {
    let repeat = r.varint_usize()?;
    if repeat == 0 {
        return Err(DecodeError::Corrupt("row group repeats zero rows".into()));
    }
    if repeat > rows - covered {
        return Err(DecodeError::Corrupt(format!(
            "row groups cover {} rows, database declares {rows}",
            covered + repeat
        )));
    }
    match r.u8()? {
        ROW_GROUP_ITEMS => {
            let len = read_item_count(r, dims)?;
            read_items(r, len, dims, |item| row[item as usize / 64] |= 1u64 << (item % 64))?;
        }
        ROW_GROUP_RAW => {
            r.words_into(row)?;
            check_row_padding(row, dims, covered)?;
        }
        other => {
            return Err(DecodeError::Corrupt(format!("unknown row-group mode {other}")));
        }
    }
    Ok(repeat)
}

/// The fast path of [`read_database_compressed`]: decodes the group at the
/// front of `bytes` into the zeroed `row` and returns `(repeat, bytes
/// used)` when its repeat, mode and item count are single bytes, every
/// item delta is one byte, and it passes every check [`read_row_group`]
/// makes. `None` means "take the checked path"; `row` may then hold
/// partial words. A one-word row's items are gathered in a register and
/// stored once.
fn read_one_byte_group(
    bytes: &[u8],
    dims: usize,
    rows_left: usize,
    row: &mut [u64],
) -> Option<(usize, usize)> {
    let (&[repeat, mode], rest) = bytes.split_first_chunk::<2>()?;
    let repeat = usize::from(repeat);
    if repeat == 0 || repeat >= 0x80 || repeat > rows_left {
        return None;
    }
    match mode {
        ROW_GROUP_ITEMS => {
            let (&count, rest) = rest.split_first()?;
            if count >= 0x80 {
                return None;
            }
            let deltas = rest.get(..usize::from(count))?;
            if let [word] = row {
                let mut bits = 0;
                walk_one_byte_items(deltas, dims, |item| bits |= 1u64 << item)?;
                *word = bits;
            } else {
                walk_one_byte_items(deltas, dims, |item| row[item / 64] |= 1u64 << (item % 64))?;
            }
            Some((repeat, 3 + deltas.len()))
        }
        ROW_GROUP_RAW => {
            let raw = rest.get(..row.len() * 8)?;
            for (word, bytes) in row.iter_mut().zip(raw.chunks_exact(8)) {
                *word = le_u64(bytes);
            }
            padding_is_clear(row, dims).then_some((repeat, 2 + raw.len()))
        }
        _ => None,
    }
}

/// Hands each item of a one-byte delta run to `put` and returns `Some`
/// iff the run is one [`read_items`] accepts: every delta below `0x80`
/// (else it is the first byte of a longer varint), none zero after the
/// first, and every item below `dims`. A run it refuses may already have
/// put some items. At most as many items as `dims` can pass, so a count
/// over `dims` never does.
#[inline(always)]
fn walk_one_byte_items(deltas: &[u8], dims: usize, mut put: impl FnMut(usize)) -> Option<()> {
    let Some((&first, later)) = deltas.split_first() else {
        return Some(());
    };
    let (mut item, mut any, mut least) = (usize::from(first), first, u8::MAX);
    if item >= dims {
        return None;
    }
    put(item);
    for &delta in later {
        any |= delta;
        least = least.min(delta);
        item += usize::from(delta);
        if item >= dims {
            return None;
        }
        put(item);
    }
    (any < 0x80 && least > 0).then_some(())
}

/// Refuses a database whose tid-set view — which its first query builds —
/// would exceed the decode cap, though its row words fit: one row over
/// `2^27` items is a 16 MiB matrix but 1 GiB of tid words. Judged after
/// every other check, so those keep their refusals.
fn check_tid_words(rows: usize, dims: usize) -> Result<(), DecodeError> {
    let tid_words = crate::sharded::tid_words(rows, dims);
    if tid_words.saturating_mul(8) > MAX_COMPRESSED_DECODE_BYTES {
        return Err(DecodeError::Corrupt(format!(
            "database shape {rows}x{dims} needs {tid_words} tid words, over the \
             {MAX_COMPRESSED_DECODE_BYTES}-byte cap"
        )));
    }
    Ok(())
}

/// Encodes the first `bit_count` bits of a packed word vector as the
/// minimal whole number of bytes (`⌈bit_count/8⌉`) — the payload form of
/// the RELEASE-ANSWERS stores, where byte-rounding is the only overhead on
/// top of the paper's exact bit counts. Bits beyond `bit_count` must be
/// zero.
pub fn write_bitset(w: &mut Writer, words: &[u64], bit_count: usize) {
    debug_assert!(words.len() * 64 >= bit_count);
    debug_assert!(
        bit_count.is_multiple_of(64) || words[bit_count / 64] >> (bit_count % 64) == 0,
        "padding bits must be zero"
    );
    let nbytes = bit_count.div_ceil(8);
    let (whole, tail) = (nbytes / 8, nbytes % 8);
    w.words(&words[..whole]);
    if tail > 0 {
        w.bytes(&words[whole].to_le_bytes()[..tail]);
    }
}

/// Decodes a bitset written by [`write_bitset`] back into packed words
/// (at least one word, matching `ifs_util::bits::words_for(..).max(1)`
/// layouts), refusing nonzero padding bits.
pub fn read_bitset(r: &mut Reader, bit_count: usize) -> Result<Vec<u64>, DecodeError> {
    let nbytes = bit_count.div_ceil(8);
    let raw = r.bytes(nbytes)?;
    if !bit_count.is_multiple_of(8) && raw[nbytes - 1] >> (bit_count % 8) != 0 {
        return Err(DecodeError::Corrupt(format!(
            "bitset has nonzero padding bits beyond bit {bit_count}"
        )));
    }
    let mut words = vec![0u64; bits::words_for(bit_count).max(1)];
    let mut whole = raw.chunks_exact(8);
    for (word, bytes) in words.iter_mut().zip(whole.by_ref()) {
        *word = le_u64(bytes);
    }
    let tail = whole.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        words[raw.len() / 8] = u64::from_le_bytes(last);
    }
    Ok(words)
}

/// Encodes an itemset as a count followed by its sorted items (delta-coded
/// varints, the first from zero, so dense rows stay near one byte per
/// item) — the layout of an ITEMS row group's payload too.
pub fn write_itemset(w: &mut Writer, itemset: &Itemset) {
    w.varint(itemset.len() as u64);
    let mut prev = 0;
    for &item in itemset.items() {
        w.varint(u64::from(item - prev));
        prev = item;
    }
}

/// Decodes an itemset written by [`write_itemset`], refusing counts or
/// items that cannot belong to a `dims`-attribute row.
pub fn read_itemset(r: &mut Reader, dims: usize) -> Result<Itemset, DecodeError> {
    let len = read_item_count(r, dims)?;
    let mut items = Vec::with_capacity(len);
    read_items(r, len, dims, |item| items.push(item))?;
    Ok(Itemset::from_strictly_increasing(items))
}

/// Bytes [`Writer::varint`] spends on `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// The count half of the one validated item-run decoder behind
/// [`read_itemset`] and the checked path of the ITEMS row groups: refuses a count that a
/// `dims`-attribute row or the remaining bytes cannot hold.
fn read_item_count(r: &mut Reader, dims: usize) -> Result<usize, DecodeError> {
    let len = r.varint_usize()?;
    if len > dims {
        return Err(DecodeError::Corrupt(format!(
            "itemset claims {len} items over {dims} attributes"
        )));
    }
    r.require(len)?; // each item costs >= 1 varint byte
    Ok(len)
}

/// The items half: reads `len` delta varints and hands each item to `put`
/// after refusing an overflowing delta, an item out of range, or a repeat,
/// so `put` sees only items in `0..dims`, each larger than the one before.
fn read_items(
    r: &mut Reader,
    len: usize,
    dims: usize,
    mut put: impl FnMut(u32),
) -> Result<(), DecodeError> {
    let mut prev = 0u64;
    for i in 0..len {
        let delta = r.varint()?;
        let item = if i == 0 {
            delta
        } else {
            prev.checked_add(delta)
                .ok_or_else(|| DecodeError::Corrupt("itemset item delta overflows u64".into()))?
        };
        if item >= dims as u64 {
            return Err(DecodeError::Corrupt(format!(
                "item {item} out of range for {dims} attributes"
            )));
        }
        if i > 0 && delta == 0 {
            return Err(DecodeError::Corrupt("itemset items not strictly increasing".into()));
        }
        put(item as u32);
        prev = item;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(kind: u16, version: u16, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        append_frame(kind, version, body, &mut out);
        out
    }

    #[test]
    fn itemset_roundtrips_and_validates() {
        for items in [vec![], vec![0], vec![0, 1, 63, 64, 1000]] {
            let t = Itemset::new(items);
            let mut w = Writer::new();
            write_itemset(&mut w, &t);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(read_itemset(&mut r, 1001).expect("roundtrip"), t);
            assert_eq!(r.remaining(), 0);
        }
        // Out-of-range item refuses.
        let mut w = Writer::new();
        write_itemset(&mut w, &Itemset::new(vec![5]));
        let bytes = w.into_bytes();
        assert!(matches!(read_itemset(&mut Reader::new(&bytes), 5), Err(DecodeError::Corrupt(_))));
        // Oversized count refuses before allocating.
        let mut w = Writer::new();
        w.varint(u64::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(read_itemset(&mut Reader::new(&bytes), 8), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.f64_bits(-0.125);
        w.varint(0);
        w.varint(127);
        w.varint(128);
        w.varint(u64::MAX);
        w.varint_i64(-1);
        w.varint_i64(i64::MIN);
        w.words(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64_bits().unwrap(), -0.125);
        assert_eq!(r.varint().unwrap(), 0);
        assert_eq!(r.varint().unwrap(), 127);
        assert_eq!(r.varint().unwrap(), 128);
        assert_eq!(r.varint().unwrap(), u64::MAX);
        assert_eq!(r.varint_i64().unwrap(), -1);
        assert_eq!(r.varint_i64().unwrap(), i64::MIN);
        assert_eq!(r.words(3).unwrap(), vec![1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reads_refuse_truncation() {
        let mut r = Reader::new(&[0xFF; 3]);
        assert!(matches!(r.u64(), Err(DecodeError::Truncated { needed: 8, available: 3 })));
        // A varint of nothing but continuation bytes is truncated, then
        // (when long enough) corrupt.
        let mut r = Reader::new(&[0x80, 0x80]);
        assert!(matches!(r.varint(), Err(DecodeError::Truncated { .. })));
        let all_cont = [0x80u8; 11];
        let mut r = Reader::new(&all_cont);
        assert!(matches!(r.varint(), Err(DecodeError::Corrupt(_))));
        // 10th byte carrying more than the u64's top bit overflows.
        let mut overflow = [0xFFu8; 9].to_vec();
        overflow.push(0x02);
        let mut r = Reader::new(&overflow);
        assert!(matches!(r.varint(), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn frame_roundtrips_and_refuses_each_attack() {
        let body = b"sketch body bytes";
        let frame = encode(3, 1, body);
        let (got, info) = decode_frame(&frame, 3, 1).expect("well-formed frame");
        assert_eq!(got, body);
        assert_eq!((info.version, info.frame_len()), (1, frame.len()));

        // Truncation at every prefix length errors, never panics.
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut], 3, 1).is_err(), "prefix {cut} decoded");
        }
        // Bad magic.
        let mut bad = frame.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode_frame(&bad, 3, 1), Err(DecodeError::BadMagic(_))));
        // Wrong kind.
        assert!(matches!(
            decode_frame(&frame, 4, 1),
            Err(DecodeError::WrongKind { expected: 4, got: 3 })
        ));
        // Future version (and the reserved version 0) refuse before the
        // checksum is consulted.
        let mut future = frame.clone();
        future[6] = 9;
        assert!(matches!(
            decode_frame(&future, 3, 1),
            Err(DecodeError::UnsupportedVersion { kind: 3, got: 9, supported: 1 })
        ));
        let mut zero = frame.clone();
        zero[6] = 0;
        assert!(matches!(decode_frame(&zero, 3, 1), Err(DecodeError::UnsupportedVersion { .. })));
        // A flipped body bit fails the checksum.
        let mut flipped = frame.clone();
        flipped[10] ^= 0x01;
        assert!(matches!(decode_frame(&flipped, 3, 1), Err(DecodeError::ChecksumMismatch { .. })));
        // Trailing bytes are visible to the caller via `consumed`.
        let mut long = frame.clone();
        long.extend_from_slice(b"junk");
        let (_, info) = decode_frame(&long, 3, 1).expect("frame itself is intact");
        assert_eq!(long.len() - info.frame_len(), 4);
    }

    /// `frame` with its magic replaced by `magic` and its check recomputed
    /// with `check` over the new header and the unchanged body.
    fn reseal(mut frame: Vec<u8>, magic: u32, check: FrameCheck) -> Vec<u8> {
        frame[..4].copy_from_slice(&magic.to_le_bytes());
        let end = frame.len() - 8;
        let sum = check.digest(&frame[..end]);
        frame[end..].copy_from_slice(&sum.to_le_bytes());
        frame
    }

    #[test]
    fn every_bit_flip_of_a_frame_refuses() {
        let frame = encode(3, 1, b"a small body");
        for bit in 0..frame.len() * 8 {
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(decode_frame(&flipped, 3, 1).is_err(), "bit {bit} decoded");
            assert!(peek_frame(&flipped).is_err(), "bit {bit} peeked");
        }
    }

    #[test]
    fn each_envelope_verifies_only_its_own_hash() {
        let frame = encode(3, 1, b"sketch body bytes");
        assert_eq!(frame_header(&frame).expect("header").check, FrameCheck::Xxh64);
        // The legacy envelope decodes to the same body.
        let legacy = reseal(frame.clone(), LEGACY_SNAPSHOT_MAGIC, FrameCheck::Fnv1a64);
        let (body, info) = decode_frame(&legacy, 3, 1).expect("an IFSS frame decodes");
        assert_eq!((body, info.check), (&b"sketch body bytes"[..], FrameCheck::Fnv1a64));
        assert_eq!(info.frame_len(), frame.len(), "the envelope does not change the length");
        assert_eq!(peek_frame(&legacy).expect("peeks"), info);
        // Neither magic accepts the other's hash.
        for (magic, check) in
            [(SNAPSHOT_MAGIC, FrameCheck::Fnv1a64), (LEGACY_SNAPSHOT_MAGIC, FrameCheck::Xxh64)]
        {
            let crossed = reseal(frame.clone(), magic, check);
            assert!(
                matches!(decode_frame(&crossed, 3, 1), Err(DecodeError::ChecksumMismatch { .. })),
                "{magic:#010x} carrying {check:?}"
            );
            assert!(matches!(peek_frame(&crossed), Err(DecodeError::ChecksumMismatch { .. })));
        }
    }

    #[test]
    fn database_fragment_roundtrips_and_validates() {
        let mut rng = ifs_util::Rng64::seeded(77);
        for (n, d) in [(0usize, 5usize), (3, 0), (7, 64), (13, 65), (20, 130)] {
            let db = crate::generators::uniform(n, d, 0.4, &mut rng);
            let mut w = Writer::new();
            write_database(&mut w, &db);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(read_database(&mut r).expect("roundtrip"), db, "n={n} d={d}");
            assert_eq!(r.remaining(), 0);
        }
        // Nonzero padding bits are corrupt, not silently accepted.
        let db = Database::zeros(2, 10);
        let mut w = Writer::new();
        write_database(&mut w, &db);
        let mut bytes = w.into_bytes();
        let last = bytes.len() - 1;
        bytes[last] = 0x80; // bit 63 of row 1's only word: past column 10
        let mut r = Reader::new(&bytes);
        assert!(matches!(read_database(&mut r), Err(DecodeError::Corrupt(_))));
    }

    /// One empty row over `dims` items: a `⌈dims/64⌉`-word row matrix, but
    /// a `dims`-word tid-set view. Both decoders accept it up to exactly
    /// the cap's 2^27 tid words and refuse one item more.
    #[test]
    fn both_database_decoders_cap_the_tid_set_view() {
        for dims in [1usize << 27, (1 << 27) + 1] {
            let mut v1 = Writer::new();
            v1.varint(1);
            v1.varint(dims as u64);
            v1.words(&vec![0u64; bits::words_for(dims)]);
            let mut v2 = Writer::new();
            v2.varint(1);
            v2.varint(dims as u64);
            v2.varint(1); // one group of one row
            v2.u8(ROW_GROUP_ITEMS);
            v2.varint(0); // no items
            for (which, decoded) in [
                ("v1", read_database(&mut Reader::new(v1.as_slice()))),
                ("v2", read_database_compressed(&mut Reader::new(v2.as_slice()))),
            ] {
                match decoded {
                    Ok(db) => assert_eq!((dims, db.rows(), db.dims()), (1 << 27, 1, dims)),
                    Err(DecodeError::Corrupt(what)) => {
                        assert!(dims > 1 << 27 && what.contains("tid words"), "{which}: {what}")
                    }
                    Err(e) => panic!("{which} dims={dims}: wrong refusal {e}"),
                }
            }
        }
    }

    #[test]
    fn peek_frame_reports_tags_without_judging_kind() {
        let frame = encode(42, 9, b"opaque body");
        let info = peek_frame(&frame).expect("well-formed frame peeks");
        assert_eq!(
            info,
            FrameInfo {
                kind: 42,
                version: 9,
                check: FrameCheck::Xxh64,
                body_start: 9,
                body_len: 11
            }
        );
        assert_eq!(info.frame_len(), frame.len());
        // Trailing bytes are the caller's business, as in decode_frame.
        let mut long = frame.clone();
        long.extend_from_slice(b"tail");
        assert_eq!(peek_frame(&long).expect("prefix intact").frame_len(), frame.len());
        // Truncation at every prefix refuses typed; the header parser
        // waits on every prefix shorter than the header and reports the
        // header on every longer one.
        for cut in 0..frame.len() {
            assert!(peek_frame(&frame[..cut]).is_err(), "prefix {cut} peeked");
            let header = parse_frame_header(&frame[..cut]).expect("a valid prefix");
            assert_eq!(header, (cut >= 9).then_some(info), "prefix {cut}");
        }
        // Magic, checksum, and the reserved version 0 still refuse.
        let mut bad = frame.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(peek_frame(&bad), Err(DecodeError::BadMagic(_))));
        let mut flipped = frame.clone();
        flipped[10] ^= 0x01;
        assert!(matches!(peek_frame(&flipped), Err(DecodeError::ChecksumMismatch { .. })));
        let mut zero = frame;
        zero[6] = 0;
        zero[7] = 0;
        assert!(matches!(peek_frame(&zero), Err(DecodeError::UnsupportedVersion { got: 0, .. })));
    }

    #[test]
    fn compressed_database_fragment_roundtrips() {
        let mut rng = ifs_util::Rng64::seeded(0xC0DE);
        for (n, d, density) in [
            (0usize, 5usize, 0.5),
            (3, 0, 0.0),
            (7, 64, 0.05),
            (13, 65, 0.9),
            (50, 130, 0.02),
            (40, 33, 0.5),
        ] {
            let db = crate::generators::uniform(n, d, density, &mut rng);
            let mut w = Writer::new();
            write_database_compressed(&mut w, &db);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(
                read_database_compressed(&mut r).expect("roundtrip"),
                db,
                "n={n} d={d} density={density}"
            );
            assert_eq!(r.remaining(), 0);
        }
        // Run-length: identical rows collapse to one group, so an all-equal
        // database costs O(1) groups instead of O(n).
        let db = Database::from_rows(100, &vec![vec![2u32, 7]; 500]);
        let mut w = Writer::new();
        write_database_compressed(&mut w, &db);
        let bytes = w.into_bytes();
        assert!(bytes.len() < 16, "500 identical rows must collapse, got {} bytes", bytes.len());
        let mut r = Reader::new(&bytes);
        assert_eq!(read_database_compressed(&mut r).expect("roundtrip"), db);
    }

    /// The row-group encoder as first written, kept as the byte-level
    /// reference: each group's row becomes an [`Itemset`], is encoded by
    /// [`write_itemset`] into its own writer, and the shorter of that and
    /// the raw words is kept.
    fn reference_compressed(db: &Database) -> Vec<u8> {
        let m = db.matrix();
        let mut w = Writer::new();
        w.varint(m.rows() as u64);
        w.varint(m.cols() as u64);
        let raw_len = m.words_per_row() * 8;
        let mut r = 0;
        while r < m.rows() {
            let mut end = r + 1;
            while end < m.rows() && m.row_words(end) == m.row_words(r) {
                end += 1;
            }
            let mut items = Writer::new();
            write_itemset(&mut items, &db.row_itemset(r));
            w.varint((end - r) as u64);
            if items.len() < raw_len {
                w.u8(ROW_GROUP_ITEMS);
                w.bytes(items.as_slice());
            } else {
                w.u8(ROW_GROUP_RAW);
                w.words(m.row_words(r));
            }
            r = end;
        }
        w.into_bytes()
    }

    #[test]
    fn compressed_encoder_matches_the_reference_bytes() {
        let mut rng = ifs_util::Rng64::seeded(0x5EED);
        for dims in [0usize, 1, 7, 63, 64, 65, 127, 128, 129, 300] {
            // Row shapes: empty, sparse, 6/7/8 set bits (the ITEMS/RAW
            // boundary for one-word rows), and every bit set.
            let mut shapes: Vec<Vec<u32>> = vec![vec![], (0..dims as u32).collect()];
            for _ in 0..12 {
                let row = (0..dims as u32).filter(|_| rng.below(16) == 0).collect();
                shapes.push(row);
            }
            for bits_set in [6usize, 7, 8] {
                for _ in 0..4 {
                    let mut row: Vec<u32> = Vec::new();
                    while row.len() < bits_set.min(dims) {
                        let item = rng.below(dims) as u32;
                        if !row.contains(&item) {
                            row.push(item);
                        }
                    }
                    shapes.push(row);
                }
            }
            // One byte short of the raw length by item count, but one
            // two-byte delta pushes the item run to it: written as ITEMS,
            // then rewritten as RAW.
            let count = bits::words_for(dims).max(1) * 8 - 2;
            let last = count as u32 - 2 + 128;
            if (last as usize) < dims {
                shapes.push((0..count as u32 - 1).chain([last]).collect());
            }
            // Rows drawn from the shapes, with runs of identical rows.
            let mut rows: Vec<Vec<u32>> = Vec::new();
            for _ in 0..60 {
                let shape = &shapes[rng.below(shapes.len())];
                for _ in 0..1 + rng.below(3) * rng.below(4) {
                    rows.push(shape.clone());
                }
            }
            rows.extend(shapes.iter().cloned());
            // Runs at the one-byte edge of the repeat varint.
            for run in [127, 128, 129] {
                let shape = &shapes[rng.below(shapes.len())];
                rows.extend(std::iter::repeat_n(shape.clone(), run));
                rows.push((0..dims.min(1) as u32).collect());
            }
            let db = Database::from_rows(dims, &rows);
            let mut w = Writer::new();
            write_database_compressed(&mut w, &db);
            let bytes = w.into_bytes();
            assert_eq!(bytes, reference_compressed(&db), "dims={dims}");
            let mut r = Reader::new(&bytes);
            assert_eq!(read_database_compressed(&mut r).expect("roundtrip"), db, "dims={dims}");
            assert_eq!(r.remaining(), 0);
        }
    }

    /// The row-group decoder as first written, kept as the reference for
    /// [`read_database_compressed`]: every group goes through [`Reader`]
    /// calls, one item at a time.
    fn reference_read_compressed(r: &mut Reader) -> Result<Database, DecodeError> {
        let rows = r.varint_usize()?;
        let dims = r.varint_usize()?;
        let words_per_row = bits::words_for(dims).max(1);
        let total_words = rows.checked_mul(words_per_row).ok_or_else(|| {
            DecodeError::Corrupt(format!("database shape {rows}x{dims} overflows a word count"))
        })?;
        if total_words.saturating_mul(8) > MAX_COMPRESSED_DECODE_BYTES {
            return Err(DecodeError::Corrupt(format!(
                "compressed database decodes to {total_words} words, over the \
                 {MAX_COMPRESSED_DECODE_BYTES}-byte cap"
            )));
        }
        let mut words = vec![0u64; total_words];
        let mut covered = 0usize;
        while covered < rows {
            let repeat = r.varint_usize()?;
            if repeat == 0 {
                return Err(DecodeError::Corrupt("row group repeats zero rows".into()));
            }
            if repeat > rows - covered {
                return Err(DecodeError::Corrupt(format!(
                    "row groups cover {} rows, database declares {rows}",
                    covered + repeat
                )));
            }
            let base = covered * words_per_row;
            let row = &mut words[base..base + words_per_row];
            match r.u8()? {
                ROW_GROUP_ITEMS => {
                    let len = read_item_count(r, dims)?;
                    read_items(r, len, dims, |item| {
                        row[item as usize / 64] |= 1u64 << (item % 64)
                    })?;
                }
                ROW_GROUP_RAW => {
                    r.words_into(row)?;
                    check_row_padding(row, dims, covered)?;
                }
                other => {
                    return Err(DecodeError::Corrupt(format!("unknown row-group mode {other}")));
                }
            }
            for k in 1..repeat {
                words.copy_within(base..base + words_per_row, base + k * words_per_row);
            }
            covered += repeat;
        }
        check_tid_words(rows, dims)?;
        Ok(Database::from_matrix(BitMatrix::from_raw(rows, dims, words)))
    }

    /// Asserts that the decoder and its reference return the same
    /// `Result` on `bytes` and, on success, consume the same bytes.
    fn assert_decoders_agree(bytes: &[u8], what: &str) -> Result<Database, DecodeError> {
        let (mut fast, mut slow) = (Reader::new(bytes), Reader::new(bytes));
        let got = read_database_compressed(&mut fast);
        assert_eq!(got, reference_read_compressed(&mut slow), "{what}");
        assert_eq!(fast.consumed(), slow.consumed(), "{what}: bytes consumed");
        got
    }

    #[test]
    fn compressed_decoder_matches_the_reference_on_every_prefix_and_mutation() {
        let mut rng = ifs_util::Rng64::seeded(0xDEC0);
        for dims in [1usize, 48, 63, 64, 65, 127, 128, 129, 300] {
            // Sparse, dense, empty and full rows, with short and long runs.
            let mut rows: Vec<Vec<u32>> = Vec::new();
            while rows.len() < 48 {
                let odds = [2, 8, 32, dims.max(1)][rng.below(4)];
                let row: Vec<u32> = (0..dims as u32).filter(|_| rng.below(odds) == 0).collect();
                let run = if rng.below(6) == 0 { 1 + rng.below(5) } else { 1 };
                rows.extend(std::iter::repeat_n(row, run));
            }
            rows.push(vec![]);
            rows.push((0..dims as u32).collect());
            let db = Database::from_rows(dims, &rows);
            let mut w = Writer::new();
            write_database_compressed(&mut w, &db);
            let bytes = w.into_bytes();
            assert_eq!(assert_decoders_agree(&bytes, &format!("dims={dims}")), Ok(db));
            for cut in 0..bytes.len() {
                let what = format!("dims={dims} prefix {cut}");
                assert!(assert_decoders_agree(&bytes[..cut], &what).is_err(), "{what}");
            }
            for m in 0..400 {
                let mut mutated = bytes.clone();
                let at = rng.below(mutated.len());
                match m % 4 {
                    0 => mutated[at] ^= 1 << rng.below(8),
                    1 => mutated[at] = rng.next_u64() as u8,
                    2 => mutated[at] = [0x00, 0x01, 0x7F, 0x80, 0xFF][rng.below(5)],
                    _ => {
                        mutated.remove(at);
                    }
                }
                let _ =
                    assert_decoders_agree(&mutated, &format!("dims={dims} mutation {m} at {at}"));
            }
        }
    }

    #[test]
    fn compressed_decoder_matches_the_reference_at_one_byte_edges() {
        // `rows`, `dims`, then each group as (repeat, mode, payload varints).
        fn body(rows: u64, dims: u64, groups: &[(u64, u8, &[u64])]) -> Vec<u8> {
            let mut w = Writer::new();
            w.varint(rows);
            w.varint(dims);
            for &(repeat, mode, payload) in groups {
                w.varint(repeat);
                w.u8(mode);
                for &v in payload {
                    if mode == ROW_GROUP_RAW {
                        w.u64(v);
                    } else {
                        w.varint(v);
                    }
                }
            }
            w.into_bytes()
        }
        let run = |count: u64| -> Vec<u64> {
            std::iter::once(count).chain((0..count).map(|i| u64::from(i > 0))).collect()
        };
        let ok = |bytes: Vec<u8>, what: &str| {
            assert_decoders_agree(&bytes, what).unwrap_or_else(|e| panic!("{what}: {e}"))
        };
        let refused = |bytes: Vec<u8>, what: &str, message: &str| {
            let got = assert_decoders_agree(&bytes, what);
            assert_eq!(got, Err(DecodeError::Corrupt(message.into())), "{what}");
        };
        // Item counts of 127 (one byte) and 128 (two bytes).
        for dims in [127, 128, 129] {
            let db = ok(body(1, dims, &[(1, ROW_GROUP_ITEMS, &run(127))]), "count 127");
            assert_eq!(db.row_itemset(0).len(), 127);
        }
        let db = ok(body(1, 128, &[(1, ROW_GROUP_ITEMS, &run(128))]), "count 128");
        assert_eq!(db.row_itemset(0).len(), 128);
        refused(
            body(1, 127, &[(1, ROW_GROUP_ITEMS, &run(128))]),
            "count 128 over 127 columns",
            "itemset claims 128 items over 127 attributes",
        );
        // Deltas of 127 (one byte) and 128 (two bytes).
        let db = ok(body(1, 128, &[(1, ROW_GROUP_ITEMS, &[2, 0, 127])]), "delta 127");
        assert_eq!(db.row_itemset(0).items(), [0, 127]);
        refused(
            body(1, 128, &[(1, ROW_GROUP_ITEMS, &[2, 0, 128])]),
            "delta 128 at 128 columns",
            "item 128 out of range for 128 attributes",
        );
        let db = ok(body(1, 129, &[(1, ROW_GROUP_ITEMS, &[2, 0, 128])]), "delta 128");
        assert_eq!(db.row_itemset(0).items(), [0, 128]);
        refused(
            body(1, 48, &[(1, ROW_GROUP_ITEMS, &[2, 128, 1])]),
            "first delta 128",
            "item 128 out of range for 48 attributes",
        );
        // Repeats of 127 (one byte) and 128 (two bytes), around fast groups.
        for (first, second) in [(127, 2), (128, 1), (1, 128)] {
            let db = ok(
                body(
                    129,
                    48,
                    &[(first, ROW_GROUP_ITEMS, &[1, 5]), (second, ROW_GROUP_RAW, &[0b1011])],
                ),
                &format!("repeats {first} then {second}"),
            );
            assert_eq!(db.row_itemset(first as usize - 1).items(), [5]);
            assert_eq!(db.row_itemset(first as usize).items(), [0, 1, 3]);
        }
        refused(
            body(128, 48, &[(127, ROW_GROUP_ITEMS, &[0]), (2, ROW_GROUP_ITEMS, &[0])]),
            "repeat past the rows",
            "row groups cover 129 rows, database declares 128",
        );
        // An item equal to `dims`, as the first item and as a later one.
        for dims in [2, 48, 64, 65, 128] {
            let what = format!("item {dims} of {dims}");
            let message = format!("item {dims} out of range for {dims} attributes");
            refused(body(1, dims, &[(1, ROW_GROUP_ITEMS, &[1, dims])]), &what, &message);
            let last = [2, 0, dims];
            refused(body(1, dims, &[(1, ROW_GROUP_ITEMS, &last)]), &what, &message);
        }
        // A zero delta is the first item 0, but after it a repeat.
        let db = ok(body(1, 48, &[(1, ROW_GROUP_ITEMS, &[2, 0, 5])]), "zero first delta");
        assert_eq!(db.row_itemset(0).items(), [0, 5]);
        refused(
            body(1, 48, &[(1, ROW_GROUP_ITEMS, &[3, 4, 5, 0])]),
            "zero later delta",
            "itemset items not strictly increasing",
        );
        // RAW padding bits, on one-word and two-word rows.
        for (dims, words) in [(48, &[1u64 << 48][..]), (63, &[1 << 63]), (65, &[0, 2])] {
            refused(
                body(2, dims, &[(1, ROW_GROUP_ITEMS, &[0]), (1, ROW_GROUP_RAW, words)]),
                &format!("padding at {dims}"),
                &format!("row 1 has nonzero padding bits beyond column {dims}"),
            );
        }
        let db = ok(body(1, 64, &[(1, ROW_GROUP_RAW, &[1 << 63])]), "full-width raw word");
        assert_eq!(db.row_itemset(0).items(), [63]);
    }

    #[test]
    fn compressed_database_refuses_adversarial_groups() {
        fn decode(bytes: &[u8]) -> Result<Database, DecodeError> {
            read_database_compressed(&mut Reader::new(bytes))
        }
        // A zero-repeat group.
        let mut w = Writer::new();
        w.varint(2); // rows
        w.varint(8); // dims
        w.varint(0); // repeat = 0
        assert!(matches!(decode(&w.into_bytes()), Err(DecodeError::Corrupt(_))));
        // Groups overrunning the declared row count.
        let mut w = Writer::new();
        w.varint(1);
        w.varint(8);
        w.varint(5); // repeat = 5 > rows = 1
        assert!(matches!(decode(&w.into_bytes()), Err(DecodeError::Corrupt(_))));
        // An unknown mode byte.
        let mut w = Writer::new();
        w.varint(1);
        w.varint(8);
        w.varint(1);
        w.u8(7);
        assert!(matches!(decode(&w.into_bytes()), Err(DecodeError::Corrupt(_))));
        // Nonzero padding bits in a raw row.
        let mut w = Writer::new();
        w.varint(1);
        w.varint(10);
        w.varint(1);
        w.u8(1);
        w.words(&[1u64 << 63]);
        assert!(matches!(decode(&w.into_bytes()), Err(DecodeError::Corrupt(_))));
        // A decompression bomb: tiny frame, terabyte-scale declared shape.
        let mut w = Writer::new();
        w.varint(1 << 40); // rows
        w.varint(1 << 12); // dims
        w.varint(1 << 40);
        w.u8(0);
        w.varint(0);
        assert!(matches!(decode(&w.into_bytes()), Err(DecodeError::Corrupt(_))));
        // The item reader's own refusals, inside an ITEMS row group.
        let items_group = |dims: u64, run: &[u64]| {
            let mut w = Writer::new();
            w.varint(1); // rows
            w.varint(dims);
            w.varint(1); // repeat
            w.u8(ROW_GROUP_ITEMS);
            for &v in run {
                w.varint(v);
            }
            decode(&w.into_bytes())
        };
        let refusals: [(&[u64], &str); 4] = [
            (&[9, 0, 1, 2, 3, 4, 5, 6, 7, 8], "itemset claims 9 items over 8 attributes"),
            (&[2, 3, 5], "item 8 out of range for 8 attributes"),
            (&[2, 3, 0], "itemset items not strictly increasing"),
            (&[2, 1, u64::MAX], "itemset item delta overflows u64"),
        ];
        for (run, message) in refusals {
            assert_eq!(items_group(8, run), Err(DecodeError::Corrupt(message.into())), "{run:?}");
        }
        assert_eq!(items_group(8, &[2, 3, 4]).expect("valid run").row_itemset(0).items(), [3, 7]);
        // Truncation mid-group is typed, never a panic.
        let db = crate::generators::uniform(9, 40, 0.3, &mut ifs_util::Rng64::seeded(4));
        let mut w = Writer::new();
        write_database_compressed(&mut w, &db);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn bitset_roundtrips_word_at_a_time() {
        let mut rng = ifs_util::Rng64::seeded(0xB175);
        for bit_count in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let mut words: Vec<u64> =
                (0..bits::words_for(bit_count).max(1)).map(|_| rng.next_u64()).collect();
            bits::mask_tail(&mut words, bit_count);
            if bit_count == 0 {
                words[0] = 0;
            }
            let mut w = Writer::new();
            write_bitset(&mut w, &words, bit_count);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), bit_count.div_ceil(8), "bit_count={bit_count}");
            // The per-byte decoder this replaced, as the reference.
            let mut want = vec![0u64; words.len()];
            for (i, &b) in bytes.iter().enumerate() {
                want[i / 8] |= u64::from(b) << (8 * (i % 8));
            }
            assert_eq!(want, words, "bit_count={bit_count}");
            let mut r = Reader::new(&bytes);
            assert_eq!(read_bitset(&mut r, bit_count), Ok(words), "bit_count={bit_count}");
            assert_eq!(r.remaining(), 0);
            if !bit_count.is_multiple_of(8) {
                let mut padded = bytes.clone();
                *padded.last_mut().expect("a byte") |= 0x80;
                assert_eq!(
                    read_bitset(&mut Reader::new(&padded), bit_count),
                    Err(DecodeError::Corrupt(format!(
                        "bitset has nonzero padding bits beyond bit {bit_count}"
                    ))),
                );
            }
            if let Some(cut) = bytes.len().checked_sub(1) {
                assert_eq!(
                    read_bitset(&mut Reader::new(&bytes[..cut]), bit_count),
                    Err(DecodeError::Truncated { needed: bytes.len(), available: cut }),
                );
            }
        }
    }

    #[test]
    fn fnv_golden() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn xxh64_golden() {
        // Published XXH64 (seed 0) vectors: the short path, and one stripe
        // with a half-word and bytes in its tail.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition"), 0xFBCE_A83C_8A37_8BF1);
        assert_eq!(xxh64(b"The quick brown fox jumps over the lazy dog"), 0x0B24_2D36_1FDA_71BC);
    }
}
