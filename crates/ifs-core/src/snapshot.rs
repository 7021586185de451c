//! Versioned sketch snapshots: every sketch is a decodable byte string
//! (DESIGN.md §10).
//!
//! The paper's central quantity is `|S(n, d, k, ε, δ)|` — the size *in
//! bits* of the summary. Before this layer, only the database had a wire
//! format and every sketch's `size_bits()` was hand-maintained arithmetic
//! that nothing could verify. A [`Snapshot`] makes the measurement real:
//! each sketch encodes itself into a self-describing frame (built on
//! [`ifs_database::codec`]), `size_bits()` **is** the encoded length, and
//! the offline-build / online-serve split the system aims at — build
//! sharded, snapshot, ship bytes to a serving tier, reload, answer — falls
//! out (see `examples/snapshot_serving.rs`).
//!
//! Contracts, enforced by `tests/snapshot_roundtrip.rs`:
//!
//! * **Round-trip identity** — `from_snapshot(snapshot_bytes())` is `==`
//!   to the original and answers every query bit-identically, at every
//!   thread count. (Execution state like the [`Parallel`](crate::Parallel)
//!   thread knob is *not* part of a sketch's identity and is not
//!   serialized; decoded sketches start serial.)
//! * **Measured size** — `size_bits() == 8 · snapshot_bytes().len()` for
//!   every snapshot-backed sketch, so the E-series size columns are
//!   measurements of real byte strings, not bookkeeping.
//! * **Typed refusal** — truncation, wrong magic, version skew, checksum
//!   failures, and trailing garbage decode to the right
//!   [`DecodeError`] variant; no panic on any byte string.
//!
//! The kind registry (frame `kind` tags) lives here so collisions are
//! impossible across crates: `1 Subsample`, `2 ReleaseDb`,
//! `3 ReleaseAnswersIndicator`, `4 ReleaseAnswersEstimator`,
//! `5 CountMinSketch`, `6 CountSketch`, `7 SubsampleBuilder`.

use ifs_database::codec::{append_frame, decode_frame};
pub use ifs_database::codec::{DecodeError, Reader, Writer};

/// Frame kind tag of [`Subsample`](crate::Subsample).
pub const KIND_SUBSAMPLE: u16 = 1;
/// Frame kind tag of [`ReleaseDb`](crate::ReleaseDb).
pub const KIND_RELEASE_DB: u16 = 2;
/// Frame kind tag of [`ReleaseAnswersIndicator`](crate::ReleaseAnswersIndicator).
pub const KIND_RELEASE_ANSWERS_INDICATOR: u16 = 3;
/// Frame kind tag of [`ReleaseAnswersEstimator`](crate::ReleaseAnswersEstimator).
pub const KIND_RELEASE_ANSWERS_ESTIMATOR: u16 = 4;
/// Frame kind tag of `ifs_streaming::CountMinSketch`.
pub const KIND_COUNT_MIN: u16 = 5;
/// Frame kind tag of `ifs_streaming::CountSketch`.
pub const KIND_COUNT_SKETCH: u16 = 6;
/// Frame kind tag of [`SubsampleBuilder`](crate::SubsampleBuilder) — the
/// partial build, snapshotted mid-stream so ingestion can migrate across
/// processes and keep merging bit-identically (DESIGN.md §9).
pub const KIND_SUBSAMPLE_BUILDER: u16 = 7;

/// A sketch (or partial build) with a versioned, self-describing wire
/// format.
///
/// Implementors provide the body codec ([`encode_body`](Snapshot::encode_body)
/// / [`decode_body`](Snapshot::decode_body)) plus a kind tag and version;
/// the framing — magic, kind, version, length, checksum — is shared, so
/// every sketch inherits the same adversarial-input behavior from one
/// implementation.
pub trait Snapshot: Sized {
    /// This type's tag in the kind registry (module docs).
    const KIND: u16;

    /// Newest body-layout version this build reads and the one it writes.
    /// Bump when the body layout changes; decoders refuse versions they do
    /// not know with [`DecodeError::UnsupportedVersion`].
    const VERSION: u16 = 1;

    /// Encodes the kind-specific body (no framing) into `w`.
    fn encode_body(&self, w: &mut Writer);

    /// Decodes a body written by [`encode_body`](Snapshot::encode_body) at
    /// version `version` (≤ [`VERSION`](Snapshot::VERSION); the frame layer
    /// has already refused anything newer). Must consume exactly the body.
    fn decode_body(r: &mut Reader, version: u16) -> Result<Self, DecodeError>;

    /// Appends the complete framed snapshot to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut body = Writer::new();
        self.encode_body(&mut body);
        append_frame(Self::KIND, Self::VERSION, body.as_slice(), out);
    }

    /// The complete framed snapshot as a fresh byte vector. Its length in
    /// bits is the sketch's `size_bits()`.
    fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes one snapshot from the front of `bytes`, returning the sketch
    /// and the number of bytes consumed. Trailing bytes are *left* for the
    /// caller — this is the entry point for streams of concatenated frames.
    fn decode_from(bytes: &[u8]) -> Result<(Self, usize), DecodeError> {
        // decode_frame guarantees the version is in 1..=VERSION.
        let (body, info) = decode_frame(bytes, Self::KIND, Self::VERSION)?;
        let mut body_reader = Reader::new(body);
        let decoded = Self::decode_body(&mut body_reader, info.version)?;
        if body_reader.remaining() != 0 {
            return Err(DecodeError::Corrupt(format!(
                "{} unconsumed bytes inside the snapshot body",
                body_reader.remaining()
            )));
        }
        Ok((decoded, info.frame_len()))
    }

    /// Decodes exactly one snapshot spanning all of `bytes`; surplus bytes
    /// are refused with [`DecodeError::TrailingBytes`].
    fn from_snapshot(bytes: &[u8]) -> Result<Self, DecodeError> {
        let (decoded, consumed) = Self::decode_from(bytes)?;
        if consumed != bytes.len() {
            return Err(DecodeError::TrailingBytes { extra: bytes.len() - consumed });
        }
        Ok(decoded)
    }

    /// Encoded length in bits — what snapshot-backed sketches report as
    /// `size_bits()`, making the paper's `|S|` a measured quantity.
    fn snapshot_bits(&self) -> u64 {
        self.snapshot_bytes().len() as u64 * 8
    }
}
