//! The serving tier's length-prefixed request/response wire protocol.
//!
//! Both directions reuse the snapshot codec substrate
//! ([`ifs_database::codec`]): every message is one self-describing frame —
//! magic, a protocol kind tag, a format version, a varint body length, and
//! the checksum the magic names (XXH64 in the frames this build writes) —
//! so a serving connection inherits the exact
//! adversarial-input behavior the sketch snapshots already have. Truncated,
//! corrupted, skewed, or cross-kind request bytes decode to the same
//! [`DecodeError`] taxonomy, and never panic.
//!
//! Kind tags `1..=7` belong to the sketch snapshot registry
//! (`ifs_core::snapshot`); the protocol claims a disjoint range from
//! [`REQUEST_KIND`] (64) so a sketch frame mistakenly sent as a request is
//! refused as [`DecodeError::WrongKind`], not misparsed.
//!
//! Request bodies (after the shared frame header):
//!
//! ```text
//! LOAD   u8=1  id varint · threads varint · frame_len varint · frame bytes
//! QUERY  u8=2  id varint · mode u8 (1=estimate, 2=indicator) ·
//!              count varint · count delta-coded itemsets
//! STATS  u8=3  (empty)
//! ```
//!
//! Response bodies:
//!
//! ```text
//! LOADED      u8=1  id varint · kind varint · size_bits varint ·
//!                   evicted count varint · evicted ids varints
//! ESTIMATES   u8=2  count varint · count f64 bit patterns
//! INDICATORS  u8=3  count varint · packed bitset (⌈count/8⌉ bytes)
//! STATS       u8=4  nine varint counters (see [`ServerStats`])
//! ERROR       u8=5  a [`ServeError`], losslessly (see `error.rs`)
//! RELOADED    u8=6  id varint · kind varint · size_bits varint ·
//!                   generation varint · previous_kind varint ·
//!                   evicted count varint · evicted ids varints
//! ```
//!
//! `RELOADED` is the hot-reload half of the `Load` surface: admitting a
//! frame under an id that is *already* admitted answers `Reloaded` instead
//! of `Loaded`, carrying the bumped generation and the kind the id served
//! before — the typed signal a client needs to detect version skew across
//! a fleet of replicas (DESIGN.md §13).

use crate::error::ServeError;
use ifs_database::codec::{self, append_frame, decode_frame, DecodeError, Reader, Writer};
use ifs_database::Itemset;
use ifs_util::bits;

/// Frame kind tag of every request (client → server) message.
pub const REQUEST_KIND: u16 = 64;
/// Frame kind tag of every response (server → client) message.
pub const RESPONSE_KIND: u16 = 65;
/// Wire-format version both directions currently speak.
pub const PROTOCOL_VERSION: u16 = 1;

/// Items in query itemsets are `u32`s; the protocol-level bound handed to
/// the itemset codec. The *sketch*-level bound (its real `dims`) is
/// enforced by the server before dispatch, with a typed refusal.
const ITEM_BOUND: usize = 1 << 32;

const REQ_LOAD: u8 = 1;
const REQ_QUERY: u8 = 2;
const REQ_STATS: u8 = 3;

const RESP_LOADED: u8 = 1;
const RESP_ESTIMATES: u8 = 2;
const RESP_INDICATORS: u8 = 3;
const RESP_STATS: u8 = 4;
const RESP_ERROR: u8 = 5;
const RESP_RELOADED: u8 = 6;

/// Which query procedure a batch runs (ordered as its wire tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryMode {
    /// `Q(S, T) ∈ [0, 1]` per itemset — answered as a vector of `f64`s.
    Estimate,
    /// The threshold bit per itemset — answered as a packed bit vector.
    Indicator,
}

impl QueryMode {
    pub(crate) fn wire_tag(self) -> u8 {
        match self {
            QueryMode::Estimate => 1,
            QueryMode::Indicator => 2,
        }
    }

    pub(crate) fn from_wire_tag(tag: u8) -> Result<Self, DecodeError> {
        match tag {
            1 => Ok(QueryMode::Estimate),
            2 => Ok(QueryMode::Indicator),
            t => Err(DecodeError::Corrupt(format!("unknown query mode tag {t}"))),
        }
    }
}

impl std::fmt::Display for QueryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryMode::Estimate => write!(f, "estimate"),
            QueryMode::Indicator => write!(f, "indicator"),
        }
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit a snapshot frame under `id` (replacing any previous sketch at
    /// that id). `threads` is the per-sketch knob for the sharded query
    /// engine; `0` means "server default".
    Load {
        /// Id the sketch will answer queries under.
        id: u64,
        /// Worker threads for this sketch's batched query paths.
        threads: usize,
        /// The complete snapshot frame, exactly as `snapshot_bytes()`
        /// produced it.
        frame: Vec<u8>,
    },
    /// Answer a batch of itemset queries from the sketch at `id`.
    Query {
        /// Id of an admitted sketch.
        id: u64,
        /// Which query procedure to run.
        mode: QueryMode,
        /// The query log, answered in order.
        queries: Vec<Itemset>,
    },
    /// Report occupancy and traffic counters.
    Stats,
}

/// Occupancy and traffic counters of a running server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Sketches admitted (frames retained, hot or not).
    pub admitted: u64,
    /// Sketches currently decoded in the hot set.
    pub hot: u64,
    /// Sum of measured `size_bits` over the hot set.
    pub hot_bits: u64,
    /// The configured hot-set budget, in bits.
    pub budget_bits: u64,
    /// Query batches currently executing.
    pub in_flight: u64,
    /// The configured in-flight bound.
    pub max_in_flight: u64,
    /// Query batch dispatches answered since startup (refusals excluded;
    /// a micro-batched dispatch aggregating several connections' requests
    /// counts once — see `pool.rs`).
    pub served_batches: u64,
    /// Hot-set evictions since startup.
    pub evictions: u64,
    /// Hot reloads since startup: frames admitted under an id that was
    /// already admitted, bumping its generation.
    pub reloads: u64,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The frame was admitted.
    Loaded {
        /// Id the sketch is now admitted under.
        id: u64,
        /// Kind tag the frame carried.
        kind: u16,
        /// Measured size of the frame, in bits — what the sketch charges
        /// against the hot-set budget.
        size_bits: u64,
        /// Ids evicted from the hot set to make room, oldest first.
        evicted: Vec<u64>,
    },
    /// The frame was admitted under an id that was already serving — the
    /// hot-reload path. Batches in flight when this response was produced
    /// drain against the previous sketch (they hold its `Arc`); every
    /// later query answers from the new frame.
    Reloaded {
        /// Id the new sketch is now admitted under.
        id: u64,
        /// Kind tag the new frame carried.
        kind: u16,
        /// Measured size of the new frame, in bits.
        size_bits: u64,
        /// Admission generation of this id, starting at 1 for the first
        /// `Load` and incremented by every reload.
        generation: u64,
        /// Kind tag the id served before this reload — a client comparing
        /// this against `kind` detects a sketch-type skew typed, without
        /// re-querying.
        previous_kind: u16,
        /// Ids evicted from the hot set to make room, oldest first.
        evicted: Vec<u64>,
    },
    /// Answers to an estimate batch, in query order.
    Estimates(Vec<f64>),
    /// Answers to an indicator batch, in query order.
    Indicators(Vec<bool>),
    /// Counters in response to [`Request::Stats`].
    Stats(ServerStats),
    /// A typed refusal; the request changed nothing.
    Error(ServeError),
}

fn encode_request_body(req: &Request, w: &mut Writer) {
    match req {
        Request::Load { id, threads, frame } => {
            w.u8(REQ_LOAD);
            w.varint(*id);
            w.varint(*threads as u64);
            w.varint(frame.len() as u64);
            w.bytes(frame);
        }
        Request::Query { id, mode, queries } => {
            w.u8(REQ_QUERY);
            w.varint(*id);
            w.u8(mode.wire_tag());
            w.varint(queries.len() as u64);
            for q in queries {
                codec::write_itemset(w, q);
            }
        }
        Request::Stats => w.u8(REQ_STATS),
    }
}

fn decode_request_body(r: &mut Reader) -> Result<Request, DecodeError> {
    match r.u8()? {
        REQ_LOAD => {
            let id = r.varint()?;
            let threads = r.varint_usize()?;
            let len = r.varint_usize()?;
            let frame = r.bytes(len)?.to_vec();
            Ok(Request::Load { id, threads, frame })
        }
        REQ_QUERY => {
            let id = r.varint()?;
            let mode = QueryMode::from_wire_tag(r.u8()?)?;
            let count = r.varint_usize()?;
            r.require(count)?; // each itemset costs >= 1 byte
            let mut queries = Vec::with_capacity(count);
            for _ in 0..count {
                queries.push(codec::read_itemset(r, ITEM_BOUND)?);
            }
            Ok(Request::Query { id, mode, queries })
        }
        REQ_STATS => Ok(Request::Stats),
        t => Err(DecodeError::Corrupt(format!("unknown request tag {t}"))),
    }
}

fn encode_response_body(resp: &Response, w: &mut Writer) {
    match resp {
        Response::Loaded { id, kind, size_bits, evicted } => {
            w.u8(RESP_LOADED);
            w.varint(*id);
            w.varint(u64::from(*kind));
            w.varint(*size_bits);
            w.varint(evicted.len() as u64);
            for e in evicted {
                w.varint(*e);
            }
        }
        Response::Estimates(v) => {
            w.u8(RESP_ESTIMATES);
            w.varint(v.len() as u64);
            for f in v {
                w.f64_bits(*f);
            }
        }
        Response::Indicators(v) => {
            w.u8(RESP_INDICATORS);
            w.varint(v.len() as u64);
            let mut words = vec![0u64; bits::words_for(v.len()).max(1)];
            for (i, &b) in v.iter().enumerate() {
                if b {
                    bits::set(&mut words, i, true);
                }
            }
            codec::write_bitset(w, &words, v.len());
        }
        Response::Reloaded { id, kind, size_bits, generation, previous_kind, evicted } => {
            w.u8(RESP_RELOADED);
            w.varint(*id);
            w.varint(u64::from(*kind));
            w.varint(*size_bits);
            w.varint(*generation);
            w.varint(u64::from(*previous_kind));
            w.varint(evicted.len() as u64);
            for e in evicted {
                w.varint(*e);
            }
        }
        Response::Stats(s) => {
            w.u8(RESP_STATS);
            for c in [
                s.admitted,
                s.hot,
                s.hot_bits,
                s.budget_bits,
                s.in_flight,
                s.max_in_flight,
                s.served_batches,
                s.evictions,
                s.reloads,
            ] {
                w.varint(c);
            }
        }
        Response::Error(e) => {
            w.u8(RESP_ERROR);
            e.encode(w);
        }
    }
}

fn decode_response_body(r: &mut Reader) -> Result<Response, DecodeError> {
    match r.u8()? {
        RESP_LOADED => {
            let id = r.varint()?;
            let kind = u16::try_from(r.varint()?)
                .map_err(|_| DecodeError::Corrupt("kind tag exceeds u16".into()))?;
            let size_bits = r.varint()?;
            let count = r.varint_usize()?;
            r.require(count)?;
            let evicted = (0..count).map(|_| r.varint()).collect::<Result<Vec<_>, _>>()?;
            Ok(Response::Loaded { id, kind, size_bits, evicted })
        }
        RESP_ESTIMATES => {
            let count = r.varint_usize()?;
            let needed = count.checked_mul(8).ok_or_else(|| {
                DecodeError::Corrupt(format!("{count} estimates overflow a byte length"))
            })?;
            r.require(needed)?;
            let v = (0..count).map(|_| r.f64_bits()).collect::<Result<Vec<_>, _>>()?;
            Ok(Response::Estimates(v))
        }
        RESP_INDICATORS => {
            let count = r.varint_usize()?;
            let words = codec::read_bitset(r, count)?;
            Ok(Response::Indicators((0..count).map(|i| bits::get(&words, i)).collect()))
        }
        RESP_RELOADED => {
            let id = r.varint()?;
            let kind = u16::try_from(r.varint()?)
                .map_err(|_| DecodeError::Corrupt("kind tag exceeds u16".into()))?;
            let size_bits = r.varint()?;
            let generation = r.varint()?;
            let previous_kind = u16::try_from(r.varint()?)
                .map_err(|_| DecodeError::Corrupt("previous kind tag exceeds u16".into()))?;
            let count = r.varint_usize()?;
            r.require(count)?;
            let evicted = (0..count).map(|_| r.varint()).collect::<Result<Vec<_>, _>>()?;
            Ok(Response::Reloaded { id, kind, size_bits, generation, previous_kind, evicted })
        }
        RESP_STATS => {
            let mut c = [0u64; 9];
            for slot in &mut c {
                *slot = r.varint()?;
            }
            Ok(Response::Stats(ServerStats {
                admitted: c[0],
                hot: c[1],
                hot_bits: c[2],
                budget_bits: c[3],
                in_flight: c[4],
                max_in_flight: c[5],
                served_batches: c[6],
                evictions: c[7],
                reloads: c[8],
            }))
        }
        RESP_ERROR => Ok(Response::Error(ServeError::decode(r)?)),
        t => Err(DecodeError::Corrupt(format!("unknown response tag {t}"))),
    }
}

fn decode_exact<T>(
    bytes: &[u8],
    kind: u16,
    body: impl FnOnce(&mut Reader) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let (frame_body, info) = decode_frame(bytes, kind, PROTOCOL_VERSION)?;
    if info.frame_len() != bytes.len() {
        return Err(DecodeError::TrailingBytes { extra: bytes.len() - info.frame_len() });
    }
    let mut r = Reader::new(frame_body);
    let decoded = body(&mut r)?;
    if r.remaining() != 0 {
        return Err(DecodeError::Corrupt(format!(
            "{} unconsumed bytes inside the message body",
            r.remaining()
        )));
    }
    Ok(decoded)
}

/// Per-connection reusable encode scratch: one writer for message bodies
/// and one buffer for the finished frame. Both retain capacity across
/// messages, so once a connection has encoded its largest message, every
/// later encode through the same buffer is allocation-free (DESIGN.md
/// §12). One `EncodeBuf` per connection — the frames it returns are only
/// valid until its next encode.
#[derive(Debug, Default)]
pub struct EncodeBuf {
    body: Writer,
    frame: Vec<u8>,
}

impl EncodeBuf {
    /// An empty buffer pair; capacity grows to the largest message seen.
    pub fn new() -> Self {
        Self::default()
    }
}

fn frame_into(kind: u16, buf: &mut EncodeBuf, body: impl FnOnce(&mut Writer)) -> &[u8] {
    buf.body.clear();
    body(&mut buf.body);
    buf.frame.clear();
    append_frame(kind, PROTOCOL_VERSION, buf.body.as_slice(), &mut buf.frame);
    &buf.frame
}

impl Request {
    /// The complete framed request — length-prefixed and checksummed, ready
    /// for a socket.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = EncodeBuf::new();
        self.encode_into(&mut buf);
        buf.frame
    }

    /// [`to_bytes`](Self::to_bytes) through a reusable [`EncodeBuf`]:
    /// identical bytes, no allocation once the buffer is warm. The
    /// returned slice is valid until the buffer's next encode.
    pub fn encode_into<'a>(&self, buf: &'a mut EncodeBuf) -> &'a [u8] {
        frame_into(REQUEST_KIND, buf, |w| encode_request_body(self, w))
    }

    /// Decodes exactly one request spanning all of `bytes`; every
    /// malformation is a typed [`DecodeError`], never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        decode_exact(bytes, REQUEST_KIND, decode_request_body)
    }
}

impl Response {
    /// The complete framed response.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = EncodeBuf::new();
        self.encode_into(&mut buf);
        buf.frame
    }

    /// [`to_bytes`](Self::to_bytes) through a reusable [`EncodeBuf`]:
    /// identical bytes, no allocation once the buffer is warm. The
    /// returned slice is valid until the buffer's next encode.
    pub fn encode_into<'a>(&self, buf: &'a mut EncodeBuf) -> &'a [u8] {
        frame_into(RESPONSE_KIND, buf, |w| encode_response_body(self, w))
    }

    /// Decodes exactly one response spanning all of `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        decode_exact(bytes, RESPONSE_KIND, decode_response_body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) {
        let bytes = req.to_bytes();
        assert_eq!(&Request::from_bytes(&bytes).expect("roundtrip"), req);
        for cut in 0..bytes.len() {
            assert!(Request::from_bytes(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    #[test]
    fn requests_roundtrip_and_refuse_truncation() {
        roundtrip_request(&Request::Stats);
        roundtrip_request(&Request::Load { id: 9, threads: 4, frame: vec![1, 2, 3, 4, 5] });
        roundtrip_request(&Request::Query {
            id: 3,
            mode: QueryMode::Estimate,
            queries: vec![Itemset::empty(), Itemset::new(vec![0, 5, 63]), Itemset::singleton(7)],
        });
        roundtrip_request(&Request::Query { id: 0, mode: QueryMode::Indicator, queries: vec![] });
    }

    #[test]
    fn responses_roundtrip_and_refuse_truncation() {
        for resp in [
            Response::Loaded { id: 1, kind: 2, size_bits: 1024, evicted: vec![7, 8] },
            Response::Reloaded {
                id: 1,
                kind: 2,
                size_bits: 2048,
                generation: 3,
                previous_kind: 1,
                evicted: vec![9],
            },
            Response::Reloaded {
                id: 0,
                kind: 4,
                size_bits: 8,
                generation: u64::MAX,
                previous_kind: 4,
                evicted: vec![],
            },
            Response::Estimates(vec![0.0, 0.5, f64::from_bits(0x7FF8_0000_0000_0001)]),
            Response::Indicators(vec![true, false, true, true, false, false, true, false, true]),
            Response::Indicators(vec![]),
            Response::Stats(ServerStats {
                admitted: 3,
                hot: 2,
                hot_bits: 4096,
                budget_bits: 1 << 20,
                in_flight: 1,
                max_in_flight: 64,
                served_batches: 17,
                evictions: 2,
                reloads: 5,
            }),
            Response::Error(ServeError::UnknownSketch { id: 5 }),
        ] {
            let bytes = resp.to_bytes();
            match (Response::from_bytes(&bytes).expect("roundtrip"), &resp) {
                // NaN payloads compare by bits through the codec, not by ==.
                (Response::Estimates(got), Response::Estimates(want)) => {
                    let got: Vec<u64> = got.iter().map(|f| f.to_bits()).collect();
                    let want: Vec<u64> = want.iter().map(|f| f.to_bits()).collect();
                    assert_eq!(got, want);
                }
                (got, want) => assert_eq!(&got, want),
            }
            for cut in 0..bytes.len() {
                assert!(Response::from_bytes(&bytes[..cut]).is_err(), "prefix {cut} decoded");
            }
        }
    }

    #[test]
    fn cross_direction_frames_refuse_as_wrong_kind() {
        let req = Request::Stats.to_bytes();
        assert!(matches!(
            Response::from_bytes(&req),
            Err(DecodeError::WrongKind { expected: RESPONSE_KIND, got: REQUEST_KIND })
        ));
        // A sketch snapshot sent as a request is also just a wrong kind.
        let resp = Response::Stats(ServerStats::default()).to_bytes();
        assert!(matches!(
            Request::from_bytes(&resp),
            Err(DecodeError::WrongKind { expected: REQUEST_KIND, got: RESPONSE_KIND })
        ));
    }

    #[test]
    fn corrupted_and_trailing_request_bytes_refuse() {
        let mut bytes = Request::Stats.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(Request::from_bytes(&bytes), Err(DecodeError::ChecksumMismatch { .. })));
        let mut long = Request::Stats.to_bytes();
        long.push(0);
        assert!(matches!(Request::from_bytes(&long), Err(DecodeError::TrailingBytes { extra: 1 })));
        // An unknown body tag inside a valid frame is Corrupt.
        let mut framed = Vec::new();
        append_frame(REQUEST_KIND, PROTOCOL_VERSION, &[0xAB], &mut framed);
        assert!(matches!(Request::from_bytes(&framed), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn reused_encode_buf_produces_identical_frames() {
        // One buffer, many messages of different shapes and sizes: every
        // encode must equal the allocating `to_bytes` byte for byte, even
        // after the buffer has held a longer frame.
        let mut buf = EncodeBuf::new();
        let requests = [
            Request::Stats,
            Request::Load { id: 2, threads: 3, frame: vec![0xAB; 300] },
            Request::Query {
                id: 1,
                mode: QueryMode::Indicator,
                queries: vec![Itemset::new(vec![1, 4, 9]), Itemset::empty()],
            },
            Request::Stats, // shorter than what the buffer last held
        ];
        for req in &requests {
            assert_eq!(req.encode_into(&mut buf), req.to_bytes(), "{req:?}");
        }
        let responses = [
            Response::Estimates(vec![0.25; 100]),
            Response::Error(ServeError::UnknownSketch { id: 9 }),
            Response::Indicators(vec![true; 17]),
        ];
        for resp in &responses {
            assert_eq!(resp.encode_into(&mut buf), resp.to_bytes(), "{resp:?}");
        }
    }

    #[test]
    fn indicator_bits_pack_tightly() {
        // 9 bools must cost 2 bytes of payload, not 9.
        let nine = Response::Indicators(vec![true; 9]).to_bytes();
        let one = Response::Indicators(vec![true; 1]).to_bytes();
        assert_eq!(nine.len(), one.len() + 1);
    }
}
