//! Wire framing for the serving protocol, and a blocking [`Client`].
//!
//! The wire carries exactly the byte strings [`crate::protocol`] produces:
//! self-delimiting frames (8-byte header, varint body length, body, 8-byte
//! checksum), so the transport's only jobs are to find frame boundaries in
//! the stream and to bound how much a peer can make the server buffer.
//! Every reader of the wire — the server's pooled connections
//! ([`crate::pool::serve_pooled`]), the [`Client`], and `ifs-serve`'s
//! snapshot preload — reads through one [`FrameReader`], which cuts
//! frames with [`frame_boundary`], the one framing check.
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

/// Smallest growth of a [`FrameReader`]'s buffer, and so its size after
/// the first read. Past it the buffer grows by at most what it already
/// holds per read, so a peer that declares a huge body and then stops
/// costs about what it actually sent, not what it declared.
pub const READ_STEP: usize = 16 * 1024;

/// Finds the first frame boundary in a buffered prefix of a byte stream,
/// where bytes arrive in arbitrary chunks and a partial frame must simply
/// wait for more: the codec's header parser ([`parse_frame_header`]) plus
/// the transport's [`MAX_WIRE_FRAME`] cap — the one place the transport
/// judges framing, and the check every [`FrameReader`] cuts frames with.
///
/// - `Ok(Some(len))` — `buf[..len]` is one complete frame.
/// - `Ok(None)` — `buf` is a valid but incomplete prefix; read more.
/// - `Err(_)` — `buf` can never extend to a frame (bad magic, malformed
///   or oversized length); the stream position is meaningless and the
///   connection should be closed after one typed error response.
pub fn frame_boundary(buf: &[u8]) -> Result<Option<usize>, DecodeError> {
    let Some(header) = parse_frame_header(buf)? else {
        return Ok(None);
    };
    if header.body_len > MAX_WIRE_FRAME {
        return Err(DecodeError::Corrupt(format!(
            "frame declares a {}-byte body, transport cap is {MAX_WIRE_FRAME}",
            header.body_len
        )));
    }
    Ok(Some(header.frame_len()).filter(|&total| buf.len() >= total))
}

/// The inbound bytes of one stream: reads whatever the stream gives into
/// one reusable buffer, cuts complete frames off its front with
/// [`frame_boundary`], and keeps the bytes after the last whole frame for
/// the next call — so one read can bring in several pipelined frames, and
/// a frame already buffered costs no syscall.
///
/// The buffer is zero-extended only when a read finds it full, by at most
/// `max(READ_STEP, bytes buffered)` and never past the end of a frame
/// whose header is visible; it is compacted only when its consumed prefix
/// is at least as long as the bytes it still holds. Work per read stays
/// proportional to the bytes read.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// `buf[start..end]` is read but not yet cut into a frame.
    start: usize,
    end: usize,
}

impl FrameReader {
    /// One `read` from `stream` into the buffer's free tail, making room
    /// first if there is none. Returns the byte count (`0` at EOF) and
    /// whether the read filled the free tail — a nonblocking caller reads
    /// again only then.
    pub fn fill<R: Read>(&mut self, stream: &mut R) -> io::Result<(usize, bool)> {
        let buffered = self.end - self.start;
        if buffered == 0 {
            (self.start, self.end) = (0, 0);
        } else if self.end == self.buf.len() && self.start >= buffered {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, buffered);
        }
        if self.end == self.buf.len() {
            // A sizing hint only: the declared end of the frame begun here.
            let rest = match parse_frame_header(&self.buf[self.start..self.end]) {
                Ok(Some(header)) if header.frame_len() > buffered => header.frame_len() - buffered,
                _ => usize::MAX,
            };
            self.buf.resize(self.end + READ_STEP.max(buffered).min(rest), 0);
        }
        let n = stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok((n, self.end == self.buf.len()))
    }

    /// Cuts the next complete frame off the buffered bytes, without
    /// reading: `Ok(None)` until a whole frame is buffered, `Err` once
    /// the buffered bytes can never frame.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, DecodeError> {
        let Some(len) = frame_boundary(&self.buf[self.start..self.end])? else {
            return Ok(None);
        };
        self.start += len;
        Ok(Some(&self.buf[self.start - len..self.start]))
    }

    /// Blocks on `stream` for the next complete frame.
    ///
    /// - `Ok(None)` — the peer closed the connection cleanly at a frame
    ///   boundary.
    /// - `Ok(Some(Ok(frame)))` — one whole frame, ready for the codec
    ///   layer; valid until the reader's next call.
    /// - `Ok(Some(Err(e)))` — the stream is not speaking the frame format
    ///   (bad magic, oversized or malformed length); the caller should
    ///   answer once and close, since the next frame boundary is
    ///   unknowable.
    /// - `Err(_)` — transport failure, including EOF mid-frame.
    pub fn read_frame<R: Read>(
        &mut self,
        stream: &mut R,
    ) -> io::Result<Option<Result<&[u8], DecodeError>>> {
        while let Ok(None) = frame_boundary(&self.buf[self.start..self.end]) {
            match self.fill(stream) {
                Ok((0, _)) if self.start == self.end => return Ok(None),
                Ok((0, _)) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Err(e) if e.kind() != io::ErrorKind::Interrupted => return Err(e),
                _ => {}
            }
        }
        Ok(self.next_frame().transpose())
    }
}

/// A blocking client for the serving protocol: one call, one response.
/// Holds per-connection reusable encode/decode buffers, so a client
/// issuing many calls stops allocating at the framing layer once warm.
pub struct Client {
    stream: TcpStream,
    inbound: FrameReader,
    buf: EncodeBuf,
}

impl Client {
    /// Connects to `addr`, retrying for roughly `retry_ms` milliseconds —
    /// enough slack for a just-spawned server process to reach `bind`.
    pub fn connect(addr: &str, retry_ms: u64) -> io::Result<Self> {
        let mut waited = 0u64;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    return Ok(Self {
                        stream,
                        inbound: FrameReader::default(),
                        buf: EncodeBuf::new(),
                    })
                }
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
        self.stream.write_all(request.encode_into(&mut self.buf))
    }

    /// Blocks for the next in-order response to a previous
    /// [`send`](Self::send). Error layering as in [`call`](Self::call).
    pub fn recv(&mut self) -> io::Result<Result<Response, DecodeError>> {
        match self.inbound.read_frame(&mut self.stream)? {
            None => {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed before responding"))
            }
            Some(frame) => Ok(frame.and_then(Response::from_bytes)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{QueryMode, ServerStats};
    use crate::server::{ServeConfig, SketchServer};

    /// A stream that hands out at most `chunk` bytes per `read` — the
    /// arbitrary chunking a socket may deliver.
    struct Chunked<'a> {
        bytes: &'a [u8],
        chunk: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Runs of small frames around ones larger than the buffer, in any
    /// chunking: every frame comes back whole, through growth and
    /// compaction.
    #[test]
    fn frames_roundtrip_over_a_byte_stream() {
        let query = |id| Request::Query { id, mode: QueryMode::Estimate, queries: vec![] };
        let run: Vec<_> = (0..1000).map(|id| query(id * 997).to_bytes()).collect();
        let big = Request::Load { id: 1, threads: 1, frame: vec![7; 3 * READ_STEP] }.to_bytes();
        let frames = [run.clone(), vec![big.clone()], run.clone(), vec![big], run].concat();
        let wire = frames.concat();
        for chunk in [1, 5, 1000, 4093, READ_STEP - 3, usize::MAX] {
            let mut stream = Chunked { bytes: &wire, chunk };
            let mut reader = FrameReader::default();
            for frame in &frames {
                let got = reader.read_frame(&mut stream).unwrap().expect("frame");
                assert_eq!(got.expect("well-formed"), frame);
            }
            let end = reader.read_frame(&mut stream).unwrap();
            assert!(end.is_none(), "clean EOF after the last frame");
        }
    }

    /// One stream that alternates "IFSX" frames with "IFSS" frames, small
    /// and larger than the buffer, in any chunking: the one reader cuts
    /// every frame whole, and each decodes to the request it carries.
    #[test]
    fn frames_of_both_envelopes_pipeline_through_one_reader() {
        use ifs_database::codec::{fnv1a64, LEGACY_SNAPSHOT_MAGIC};
        let legacy = |mut frame: Vec<u8>| {
            frame[..4].copy_from_slice(&LEGACY_SNAPSHOT_MAGIC.to_le_bytes());
            let end = frame.len() - 8;
            let check = fnv1a64(&frame[..end]);
            frame[end..].copy_from_slice(&check.to_le_bytes());
            frame
        };
        let requests: Vec<Request> = (0..40u64)
            .map(|id| match id % 5 {
                4 => Request::Load { id, threads: 1, frame: vec![id as u8; 2 * READ_STEP] },
                _ => Request::Query { id, mode: QueryMode::Estimate, queries: vec![] },
            })
            .collect();
        let frames: Vec<Vec<u8>> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| if i % 2 == 0 { r.to_bytes() } else { legacy(r.to_bytes()) })
            .collect();
        let wire = frames.concat();
        for chunk in [1, 7, 4093, READ_STEP + 5, usize::MAX] {
            let mut stream = Chunked { bytes: &wire, chunk };
            let mut reader = FrameReader::default();
            for (frame, request) in frames.iter().zip(&requests) {
                let got = reader.read_frame(&mut stream).unwrap().expect("frame");
                let got = got.expect("well-formed");
                assert_eq!(got, frame);
                assert_eq!(&Request::from_bytes(got).expect("decodes"), request);
            }
            assert!(reader.read_frame(&mut stream).unwrap().is_none(), "clean EOF");
        }
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
        let read = |mut bytes: &[u8]| match FrameReader::default().read_frame(&mut bytes) {
            Ok(Some(Err(e))) => e,
            other => panic!("expected a framing refusal, got {other:?}"),
        };
        // Wrong magic.
        assert!(matches!(read(b"NOTAFRAMEATALL!!"), DecodeError::BadMagic(_)));
        // A declared body length over the transport cap.
        let huge = header_with_len(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]);
        assert!(matches!(read(&huge), DecodeError::Corrupt(_)));
        // Mid-frame EOF is a transport error, not a panic.
        let whole = Request::Stats.to_bytes();
        let mut cut = &whole[..whole.len() - 3];
        assert!(FrameReader::default().read_frame(&mut cut).is_err());
    }

    /// A peer that declares a 2^30-byte body and then closes costs the
    /// reader about what it sent, not the gigabyte it declared; a frame
    /// that arrives costs its own length.
    #[test]
    fn declared_body_length_is_not_allocated_up_front() {
        let prefix = header_with_len(&[0x80, 0x80, 0x80, 0x80, 0x04]);
        assert_eq!(prefix.len(), 13);
        let declared = parse_frame_header(&prefix).unwrap().expect("header").frame_len();
        assert_eq!(declared, 13 + MAX_WIRE_FRAME + 8);
        assert_eq!(frame_boundary(&prefix), Ok(None), "2^30 is within the cap");
        let mut reader = FrameReader::default();
        let err = reader.read_frame(&mut &prefix[..]).expect_err("EOF mid-body");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(reader.buf.capacity() <= 2 * READ_STEP, "capacity {}", reader.buf.capacity());
        // A frame that does arrive grows the buffer to its length, no more.
        let big = Request::Load { id: 1, threads: 1, frame: vec![7; 3 * READ_STEP] }.to_bytes();
        let mut reader = FrameReader::default();
        reader.read_frame(&mut &big[..]).unwrap().expect("frame").expect("well-formed");
        assert_eq!(reader.buf.len(), big.len());
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

    fn blocking(bytes: &[u8], chunk: usize) -> Outcome {
        match FrameReader::default().read_frame(&mut Chunked { bytes, chunk }) {
            Ok(Some(Ok(frame))) => Outcome::Frame(frame.len()),
            Ok(Some(Err(e))) => Outcome::Refused(e),
            // A clean close before the first byte, or EOF mid-frame.
            Ok(None) => Outcome::Incomplete,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Outcome::Incomplete,
            Err(e) => panic!("an in-memory read failed: {e}"),
        }
    }

    /// The reader, fed one byte per read or everything at once, agrees
    /// with the slice check on every prefix of every input: incomplete
    /// prefixes wait, the exact frame length is found, trailing bytes are
    /// left alone, and each malformed header refuses with the same error
    /// at the same byte.
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
                for chunk in [1, usize::MAX] {
                    assert_eq!(
                        sliced(prefix),
                        blocking(prefix, chunk),
                        "{input:?}, prefix of {cut} bytes, {chunk}-byte reads"
                    );
                }
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
