//! Wire framing for the serving protocol, and a blocking [`Client`].
//!
//! The wire carries exactly the byte strings [`crate::protocol`] produces:
//! self-delimiting frames (8-byte header, varint body length, body, 8-byte
//! checksum), so the transport's only jobs are to find frame boundaries in
//! the stream and to bound how much a peer can make the server buffer.
//! The server side of the wire is [`crate::pool::serve_pooled`], which
//! finds boundaries with [`frame_boundary`]; blocking readers (the
//! [`Client`], `ifs-serve`'s snapshot preload) use [`read_frame_into`].
//! Everything semantic — checksums, kinds, versions, body tags — is judged
//! by the codec layer after the frame is reassembled, which keeps the
//! adversarial-input story in one place.
//!
//! A framing-level problem (wrong magic, a declared length over
//! [`MAX_WIRE_FRAME`]) leaves the stream position meaningless, so the
//! server answers with one typed error response and closes the connection;
//! in-frame corruption (bad checksum, unknown tag) is recoverable and the
//! connection stays open.

use crate::protocol::{EncodeBuf, Request, Response};
use ifs_database::codec::{parse_frame_header, DecodeError};
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Upper bound on a single wire frame's declared body length, in bytes
/// (1 GiB). A peer can therefore never make the transport buffer more
/// than this (plus the fixed header/checksum overhead) per frame.
pub const MAX_WIRE_FRAME: usize = 1 << 30;

/// The fixed part of a frame header: magic u32, kind u16, version u16.
const HEADER_LEN: usize = 8;

/// Largest first body read in [`read_frame_into`]. The buffer grows as
/// bytes arrive — at most this much, or as much as has already arrived,
/// per read — so a peer that declares a huge body and then stops costs
/// about what it actually sent, not what it declared.
const BODY_READ_STEP: usize = 64 * 1024;

/// Reads one complete frame from `stream` into a caller-owned buffer:
/// `frame` is cleared and overwritten with the complete frame bytes,
/// retaining its capacity, so a connection that reads every frame through
/// one buffer stops allocating once it has seen its largest frame.
///
/// - `Ok(None)` — the peer closed the connection cleanly at a frame
///   boundary.
/// - `Ok(Some(Ok(())))` — one whole frame spans all of `frame`, ready for
///   the codec layer.
/// - `Ok(Some(Err(e)))` — the stream is not speaking the frame format
///   (bad magic, oversized or malformed length); the caller should answer
///   once and close, since the next frame boundary is unknowable.
/// - `Err(_)` — transport failure (including mid-frame EOF).
///
/// Every framing check is shared with [`frame_boundary`], the server's
/// parser, so both refuse the same streams identically.
pub fn read_frame_into<R: Read>(
    stream: &mut R,
    frame: &mut Vec<u8>,
) -> io::Result<Option<Result<(), DecodeError>>> {
    frame.clear();
    loop {
        // The header, then the varint body length byte by byte, never
        // reading past the frame; then the body and trailing checksum in
        // one read for frames up to `BODY_READ_STEP`, growing
        // geometrically past it.
        let start = frame.len();
        let want = match frame_len(frame) {
            Ok(Some(total)) if start == total => return Ok(Some(Ok(()))),
            Ok(Some(total)) => (total - start).min(BODY_READ_STEP.max(start)),
            Ok(None) => HEADER_LEN.saturating_sub(start).max(1),
            Err(e) => return Ok(Some(Err(e))),
        };
        frame.resize(start + want, 0);
        match stream.read(&mut frame[start..]) {
            // EOF before the first byte is a clean close; after it, a
            // truncated frame.
            Ok(0) if start == 0 => return Ok(None),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => frame.truncate(start + n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => frame.truncate(start),
            Err(e) => return Err(e),
        }
    }
}

/// Writes one already-framed message and flushes it.
pub fn write_frame<W: Write>(stream: &mut W, frame: &[u8]) -> io::Result<()> {
    stream.write_all(frame)?;
    stream.flush()
}

/// The total length of the frame that `prefix` begins, once its header
/// and varint body length are visible: the codec's header parser
/// ([`parse_frame_header`]) plus the transport's [`MAX_WIRE_FRAME`] cap —
/// the one place the transport judges framing.
///
/// - `Ok(Some(total))` — the frame spans `total` bytes (header, length,
///   body and checksum); `prefix` may hold fewer or more.
/// - `Ok(None)` — the header or length is not complete yet; read more.
/// - `Err(_)` — `prefix` can never extend to a frame (bad magic,
///   malformed or oversized length); the stream position is meaningless
///   and the connection should be closed after one typed error response.
fn frame_len(prefix: &[u8]) -> Result<Option<usize>, DecodeError> {
    let Some(header) = parse_frame_header(prefix)? else {
        return Ok(None);
    };
    if header.body_len > MAX_WIRE_FRAME {
        return Err(DecodeError::Corrupt(format!(
            "frame declares a {}-byte body, transport cap is {MAX_WIRE_FRAME}",
            header.body_len
        )));
    }
    Ok(Some(header.frame_len()))
}

/// Finds the first frame boundary in a buffered prefix of a byte stream —
/// the incremental form of [`read_frame_into`] the nonblocking server
/// transport ([`crate::pool`]) uses, where bytes arrive in arbitrary
/// chunks and a partial frame must simply wait for more.
///
/// - `Ok(Some(len))` — `buf[..len]` is one complete frame.
/// - `Ok(None)` — `buf` is a valid but incomplete prefix; read more.
/// - `Err(_)` — `buf` can never extend to a frame (bad magic, malformed
///   or oversized length); the stream position is meaningless and the
///   connection should be closed after one typed error response.
pub fn frame_boundary(buf: &[u8]) -> Result<Option<usize>, DecodeError> {
    Ok(frame_len(buf)?.filter(|&total| buf.len() >= total))
}

/// A blocking client for the serving protocol: one call, one response.
/// Holds per-connection reusable encode/decode buffers, so a client
/// issuing many calls stops allocating at the framing layer once warm.
pub struct Client {
    stream: TcpStream,
    frame: Vec<u8>,
    buf: EncodeBuf,
}

impl Client {
    /// Wraps an established connection.
    pub fn new(stream: TcpStream) -> Self {
        Self { stream, frame: Vec::new(), buf: EncodeBuf::new() }
    }

    /// Connects to `addr`, retrying for roughly `retry_ms` milliseconds —
    /// enough slack for a just-spawned server process to reach `bind`.
    pub fn connect(addr: &str, retry_ms: u64) -> io::Result<Self> {
        let mut waited = 0u64;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => return Ok(Self::new(stream)),
                Err(e) if waited >= retry_ms => return Err(e),
                Err(_) => {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    waited += 50;
                }
            }
        }
    }

    /// Sends one request and blocks for its response. The outer `Err` is
    /// transport failure (including the server closing mid-call); the
    /// inner `Err` means the response bytes refused to decode.
    pub fn call(&mut self, request: &Request) -> io::Result<Result<Response, DecodeError>> {
        self.send(request)?;
        self.recv()
    }

    /// Writes one request frame without waiting for its response — the
    /// pipelined half of [`call`](Self::call). The server answers strictly
    /// in send order on this connection, so `k` sends followed by `k`
    /// [`recv`](Self::recv)s pair up positionally.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        write_frame(&mut self.stream, request.encode_into(&mut self.buf))
    }

    /// Blocks for the next in-order response to a previous
    /// [`send`](Self::send). Error layering as in [`call`](Self::call).
    pub fn recv(&mut self) -> io::Result<Result<Response, DecodeError>> {
        match read_frame_into(&mut self.stream, &mut self.frame)? {
            None => {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed before responding"))
            }
            Some(Ok(())) => Ok(Response::from_bytes(&self.frame)),
            Some(Err(e)) => Ok(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ServerStats;
    use crate::server::{ServeConfig, SketchServer};

    #[test]
    fn frames_roundtrip_over_a_byte_stream() {
        let frame = Request::Stats.to_bytes();
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        write_frame(&mut wire, &frame).unwrap();
        let mut cursor = &wire[..];
        let mut got = Vec::new();
        for _ in 0..2 {
            read_frame_into(&mut cursor, &mut got).unwrap().expect("frame").expect("well-formed");
            assert_eq!(got, frame);
        }
        let end = read_frame_into(&mut cursor, &mut got).unwrap();
        assert!(end.is_none(), "clean EOF after the last frame");
    }

    /// A frame header followed by the varint body length `varint`.
    fn header_with_len(varint: &[u8]) -> Vec<u8> {
        let mut frame = ifs_database::codec::SNAPSHOT_MAGIC.to_le_bytes().to_vec();
        frame.extend_from_slice(&64u16.to_le_bytes());
        frame.extend_from_slice(&1u16.to_le_bytes());
        frame.extend_from_slice(varint);
        frame
    }

    #[test]
    fn unframeable_streams_refuse_without_panicking() {
        let mut frame = Vec::new();
        // Wrong magic.
        let mut junk = &b"NOTAFRAMEATALL!!"[..];
        let got = read_frame_into(&mut junk, &mut frame).unwrap();
        assert!(matches!(got, Some(Err(DecodeError::BadMagic(_)))));
        // A declared body length over the transport cap.
        let huge = header_with_len(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]);
        let got = read_frame_into(&mut &huge[..], &mut frame).unwrap();
        assert!(matches!(got, Some(Err(DecodeError::Corrupt(_)))));
        // Mid-frame EOF is a transport error, not a panic.
        let whole = Request::Stats.to_bytes();
        let mut cut = &whole[..whole.len() - 3];
        assert!(read_frame_into(&mut cut, &mut frame).is_err());
    }

    /// A peer that declares a 2^30-byte body and then closes costs the
    /// reader about what it sent, not the gigabyte it declared.
    #[test]
    fn declared_body_length_is_not_allocated_up_front() {
        let prefix = header_with_len(&[0x80, 0x80, 0x80, 0x80, 0x04]);
        assert_eq!(prefix.len(), 13);
        assert_eq!(frame_len(&prefix), Ok(Some(13 + MAX_WIRE_FRAME + 8)), "2^30 is within the cap");
        let mut frame = Vec::new();
        let err = read_frame_into(&mut &prefix[..], &mut frame).expect_err("EOF mid-body");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(frame.capacity() <= 2 * BODY_READ_STEP, "capacity {}", frame.capacity());
    }

    /// What one entry point made of a byte string.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Frame(usize),
        Incomplete,
        Refused(DecodeError),
    }

    fn sliced(buf: &[u8]) -> Outcome {
        match frame_boundary(buf) {
            Ok(Some(len)) => Outcome::Frame(len),
            Ok(None) => Outcome::Incomplete,
            Err(e) => Outcome::Refused(e),
        }
    }

    fn blocking(mut buf: &[u8]) -> Outcome {
        let mut frame = Vec::new();
        match read_frame_into(&mut buf, &mut frame) {
            Ok(Some(Ok(()))) => Outcome::Frame(frame.len()),
            Ok(Some(Err(e))) => Outcome::Refused(e),
            // A clean close before the first byte, or EOF mid-frame.
            Ok(None) => Outcome::Incomplete,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Outcome::Incomplete,
            Err(e) => panic!("an in-memory read failed: {e}"),
        }
    }

    /// The slice parser and the blocking reader agree on every prefix of
    /// every input: incomplete prefixes wait, the exact frame length is
    /// found, trailing bytes are left alone, and each malformed header
    /// refuses with the same error at the same byte.
    #[test]
    fn frame_boundary_agrees_with_the_blocking_reader() {
        let frame = Request::Stats.to_bytes();
        let mut two = frame.clone();
        two.extend_from_slice(&frame);
        let corrupt = |msg: &str| Outcome::Refused(DecodeError::Corrupt(msg.into()));
        let cases = [
            // A second frame's bytes behind the first are not consumed.
            (two, Outcome::Frame(frame.len())),
            (
                b"NOTAFRAMEATALL!!".to_vec(),
                Outcome::Refused(DecodeError::BadMagic(u32::from_le_bytes(*b"NOTA"))),
            ),
            (
                header_with_len(&[0x80, 0x80, 0x80, 0x80, 0x08]),
                corrupt(&format!(
                    "frame declares a {}-byte body, transport cap is {MAX_WIRE_FRAME}",
                    1u64 << 31
                )),
            ),
            (
                header_with_len(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02]),
                corrupt("varint overflows u64"),
            ),
            (
                header_with_len(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x81]),
                corrupt("varint continuation beyond 10 bytes"),
            ),
        ];
        for (input, whole) in &cases {
            for cut in 0..=input.len() {
                let prefix = &input[..cut];
                assert_eq!(sliced(prefix), blocking(prefix), "{input:?}, prefix of {cut} bytes");
            }
            assert_eq!(&sliced(input), whole, "{input:?}");
        }
        for cut in 0..frame.len() {
            assert_eq!(sliced(&frame[..cut]), Outcome::Incomplete, "prefix of {cut} bytes");
        }
    }

    #[test]
    fn tcp_end_to_end_stats_roundtrip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap().to_string();
        let server = SketchServer::new(ServeConfig::default());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                crate::pool::serve_pooled(&server, &listener, 1, Some(1)).expect("serve one")
            });
            let mut client = Client::connect(&addr, 2_000).expect("connect");
            let resp = client.call(&Request::Stats).expect("transport").expect("decode");
            assert_eq!(
                resp,
                Response::Stats(ServerStats {
                    budget_bits: ServeConfig::default().budget_bits,
                    max_in_flight: ServeConfig::default().max_in_flight as u64,
                    ..ServerStats::default()
                })
            );
        });
    }
}
