//! Pooled, pipelined transport: a fixed worker pool multiplexing many
//! connections, with cross-connection micro-batching (DESIGN.md §13).
//!
//! A thread-per-connection server spends one OS thread (and stack) per
//! connection and answers one frame at a time, so at high fan-in the
//! syscall and dispatch overhead — not the kernels — bound throughput.
//! [`serve_pooled`], the crate's one server transport, is instead a fixed
//! set of [`PoolWorker`]s, each owning a disjoint set of nonblocking
//! connections and their reusable buffers, polled in a read → dispatch →
//! write loop. Its answers are byte-identical to
//! [`SketchServer::handle_into`] applied to the same frames in order,
//! below saturation and at it: both answer queries through the one
//! executor, [`SketchServer::query_group`].
//!
//! Three properties define the hot path, and each is load-bearing for the
//! tier's bit-identity contract:
//!
//! - **Pipelining.** A connection may write many request frames before
//!   reading. The worker cuts read-ahead bytes into a per-connection
//!   queue (each connection's [`FrameReader`] keeps a partial frame until
//!   the rest arrives, so it never blocks another connection) and
//!   answers strictly in arrival order per connection.
//! - **Micro-batching.** Within one dispatch sub-round, the maximal
//!   *prefix run* of Query requests at each connection's queue head is
//!   taken, and runs across connections are grouped by `(id, mode)`; each
//!   group is one [`SketchServer::query_group`] call — one
//!   [`BatchSlot`](crate::server::BatchSlot), one engine dispatch.
//!   Aggregation only regroups work — per-query supports are independent
//!   of batch composition, so scattering the concatenated answers back is
//!   bit-identical to answering each request alone. Requests are
//!   validated *individually* before joining an aggregate, so one
//!   malformed query refuses only its own request.
//! - **Ordering across kinds.** Non-query requests (Load, Stats) act as
//!   sub-round barriers: a queue's head is handled before any later query
//!   in that queue joins an aggregate, so a pipelined
//!   `[Query, Load, Query]` observes exactly the sequential semantics —
//!   the second query answers the just-(re)loaded snapshot.
//!
//! Snapshot hot-reload composes with this for free: a dispatch resolves
//! `id → Arc<ServedSketch>` exactly once (per group, per sub-round), so a
//! concurrent re-admit under the same id lets in-flight batches drain on
//! the old decoded form while the next sub-round answers the new one —
//! no request ever observes a torn state.

use crate::net::FrameReader;
use crate::protocol::{EncodeBuf, QueryMode, Request, Response};
use crate::server::SketchServer;
use ifs_database::Itemset;
use ifs_util::threads::{clamp_threads, host_cores};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, TryRecvError};
use std::time::Duration;

/// Read-ahead bound: parsed-but-unanswered requests buffered per
/// connection. A pipelining client deeper than this is simply not read
/// from until responses drain — flow control, not an error.
const READAHEAD: usize = 64;

/// How long an idle worker sleeps between polls of its connections.
const IDLE_SLEEP: Duration = Duration::from_micros(50);

/// The handler count a `workers` knob resolves to: `workers` if nonzero,
/// otherwise the machine's available parallelism, clamped like every
/// other worker-count knob either way.
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        host_cores()
    } else {
        clamp_threads(workers)
    }
}

/// One multiplexed connection: the stream plus every per-connection
/// reusable buffer (inbound bytes, parsed queue, outbound bytes, encode
/// scratch). A warm connection allocates nothing at the framing layer.
struct Conn<S> {
    stream: S,
    /// Inbound bytes not yet cut into frames (a partial frame declares at
    /// most `MAX_WIRE_FRAME` body bytes).
    inbound: FrameReader,
    /// Parsed, not yet answered, in arrival order. A frame that fails
    /// request decoding (bad checksum, unknown tag) still occupies its
    /// arrival slot, as the typed error response it will be answered with
    /// — in-order responses are the pipelining contract.
    queue: VecDeque<Result<Request, Response>>,
    /// Encoded responses not yet fully written.
    outbuf: Vec<u8>,
    /// Prefix of `outbuf` already written to the stream.
    written: usize,
    buf: EncodeBuf,
    /// Peer closed its write side (or transport failed): answer what is
    /// queued, flush, then drop.
    eof: bool,
    /// The stream is unframeable: stop reading, answer queued items
    /// (ending with the typed framing error), flush, then drop.
    closing: bool,
}

impl<S> Conn<S> {
    /// Done: nothing queued, nothing to flush, and no more bytes coming.
    fn finished(&self) -> bool {
        (self.eof || self.closing) && self.queue.is_empty() && self.written == self.outbuf.len()
    }
}

/// One handler worker: a disjoint set of connections polled in a
/// read → dispatch → write loop. Generic over the stream type so the
/// loop's ordering, fairness, and blast-radius properties are testable
/// deterministically on scripted in-memory streams; the TCP shape is
/// [`serve_pooled`].
pub struct PoolWorker<'s, S> {
    server: &'s SketchServer,
    conns: Vec<Conn<S>>,
}

impl<'s, S: Read + Write> PoolWorker<'s, S> {
    /// A worker with no connections yet.
    pub fn new(server: &'s SketchServer) -> Self {
        Self { server, conns: Vec::new() }
    }

    /// Adopts a connection. For TCP the stream must already be
    /// nonblocking; any stream whose `read`/`write` return
    /// [`io::ErrorKind::WouldBlock`] instead of blocking works.
    pub fn push(&mut self, stream: S) {
        self.conns.push(Conn {
            stream,
            inbound: FrameReader::default(),
            queue: VecDeque::new(),
            outbuf: Vec::new(),
            written: 0,
            buf: EncodeBuf::new(),
            eof: false,
            closing: false,
        });
    }

    /// Live connections.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True iff no connections remain.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// One poll over every connection: read available bytes and parse
    /// frames, run dispatch sub-rounds until every queue is empty, write
    /// what can be written, drop finished connections. Returns whether
    /// any byte moved or any request was answered — `false` means the
    /// caller may sleep before polling again.
    pub fn pass(&mut self) -> bool {
        let mut did = false;
        for conn in &mut self.conns {
            did |= Self::read_and_parse(conn);
        }
        did |= self.dispatch();
        for conn in &mut self.conns {
            did |= Self::write_some(conn);
        }
        self.conns.retain(|c| !c.finished());
        did
    }

    /// Nonblocking read into the connection's inbound buffer, then parse
    /// complete frames into its queue. A partial frame stays buffered —
    /// and costs the *other* connections nothing, because this never
    /// blocks. An unframeable prefix queues one typed error response and
    /// marks the connection closing (the stream position is meaningless,
    /// as [`FrameReader::read_frame`] refuses it).
    fn read_and_parse(conn: &mut Conn<S>) -> bool {
        let mut did = false;
        if !conn.eof && !conn.closing && conn.queue.len() < READAHEAD {
            loop {
                match conn.inbound.fill(&mut conn.stream) {
                    // A read that fills the free tail may have left more.
                    Ok((n, filled)) => {
                        did |= n > 0;
                        conn.eof = n == 0;
                        if !filled {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        conn.eof = e.kind() != io::ErrorKind::WouldBlock;
                        break;
                    }
                }
            }
        }
        while !conn.closing && conn.queue.len() < READAHEAD {
            let pending = match conn.inbound.next_frame() {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    Request::from_bytes(frame).map_err(|e| Response::Error(e.into()))
                }
                Err(e) => {
                    conn.closing = true;
                    Err(Response::Error(e.into()))
                }
            };
            conn.queue.push_back(pending);
            did = true;
        }
        did
    }

    /// Dispatch sub-rounds until every queue is empty. Each sub-round:
    /// (a) answer every non-query queue head (Load/Stats and queued
    /// decode errors) in order — these are the barriers; (b) take each
    /// queue's maximal prefix run of Query requests and
    /// [`execute`](Self::execute) them.
    fn dispatch(&mut self) -> bool {
        let mut did = false;
        loop {
            let mut round = false;
            let is_query =
                |p: &mut Result<Request, Response>| matches!(p, Ok(Request::Query { .. }));
            for conn in &mut self.conns {
                while let Some(head) = conn.queue.pop_front_if(|p| !is_query(p)) {
                    let resp = head.map_or_else(|resp| resp, |req| self.server.respond(req));
                    conn.outbuf.extend_from_slice(resp.encode_into(&mut conn.buf));
                    round = true;
                }
            }
            // Maximal prefix runs of queries, taken per connection in
            // arrival order; `taken`'s order within one connection is
            // therefore that connection's response order.
            let mut taken = Vec::new();
            for (ci, conn) in self.conns.iter_mut().enumerate() {
                while let Some(Ok(Request::Query { id, mode, queries })) =
                    conn.queue.pop_front_if(is_query)
                {
                    taken.push((ci, id, mode, queries));
                }
            }
            round |= !taken.is_empty();
            self.execute(taken);
            did |= round;
            if !round {
                return did;
            }
        }
    }

    /// Answers one sub-round's taken queries: groups them across
    /// connections by `(id, mode)`, moving each request's itemsets into
    /// its group, answers each group with one
    /// [`SketchServer::query_group`] (one slot, one resolve, one engine
    /// dispatch), and scatters the responses back in taken order.
    fn execute(&mut self, taken: Vec<(usize, u64, QueryMode, Vec<Itemset>)>) {
        let mut groups: BTreeMap<(u64, QueryMode), Vec<Vec<Itemset>>> = BTreeMap::new();
        let mut order = Vec::with_capacity(taken.len());
        for (ci, id, mode, queries) in taken {
            groups.entry((id, mode)).or_default().push(queries);
            order.push((ci, (id, mode)));
        }
        let mut answered: BTreeMap<_, _> = groups
            .into_iter()
            .map(|((id, mode), batches)| {
                ((id, mode), self.server.query_group(id, mode, batches).into_iter())
            })
            .collect();
        for (ci, key) in order {
            let resp = answered.get_mut(&key).and_then(Iterator::next).expect("one per batch");
            let conn = &mut self.conns[ci];
            conn.outbuf.extend_from_slice(resp.encode_into(&mut conn.buf));
        }
    }

    /// Writes as much buffered output as the stream accepts without
    /// blocking, tracking the partial-write position.
    fn write_some(conn: &mut Conn<S>) -> bool {
        let mut did = false;
        while conn.written < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.written..]) {
                Ok(n) if n > 0 => {
                    conn.written += n;
                    did = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // A zero-byte write or a failure: the peer is gone.
                _ => {
                    conn.eof = true;
                    conn.queue.clear();
                    conn.written = conn.outbuf.len();
                    break;
                }
            }
        }
        if conn.written == conn.outbuf.len() && !conn.outbuf.is_empty() {
            conn.outbuf.clear();
            conn.written = 0;
            let _ = conn.stream.flush();
        }
        did
    }
}

/// Pooled accept loop: `workers` handler threads (`0` = auto, see
/// [`resolve_workers`]) each multiplex a share of the accepted
/// connections; the calling thread accepts and deals connections
/// round-robin. With `accept_limit = Some(n)`, returns after
/// `n` connections have been accepted *and served to completion* — the
/// shape CI's end-to-end smoke and in-process tests use; `None` loops
/// forever.
pub fn serve_pooled(
    server: &SketchServer,
    listener: &TcpListener,
    workers: usize,
    accept_limit: Option<usize>,
) -> io::Result<()> {
    let workers = resolve_workers(workers);
    let mut accept_result = Ok(());
    std::thread::scope(|scope| {
        // One hand-off channel per worker. A worker leaves once its
        // connections are done and its channel reports `Disconnected`,
        // which happens when the acceptor drops the senders below.
        let inboxes: Vec<mpsc::Sender<TcpStream>> = (0..workers)
            .map(|_| {
                let (inbox, arrivals) = mpsc::channel();
                scope.spawn(move || {
                    let mut worker = PoolWorker::new(server);
                    let mut accepting = true;
                    loop {
                        while accepting {
                            match arrivals.try_recv() {
                                Ok(stream) => worker.push(stream),
                                Err(TryRecvError::Empty) => break,
                                Err(TryRecvError::Disconnected) => accepting = false,
                            }
                        }
                        let did = worker.pass();
                        if worker.is_empty() && !accepting {
                            break;
                        }
                        if !did {
                            std::thread::sleep(IDLE_SLEEP);
                        }
                    }
                });
                inbox
            })
            .collect();
        let mut accepted = 0usize;
        loop {
            if let Some(limit) = accept_limit {
                if accepted >= limit {
                    break;
                }
            }
            let (stream, _peer) = match listener.accept() {
                Ok(pair) => pair,
                Err(e) => {
                    accept_result = Err(e);
                    break;
                }
            };
            // Nagle would hold small response frames hostage to the next
            // read; every frame here is latency-sensitive.
            let _ = stream.set_nodelay(true);
            if let Err(e) = stream.set_nonblocking(true) {
                accept_result = Err(e);
                break;
            }
            // A send fails only if that worker panicked; the scope
            // re-raises the panic, and dropping the stream closes it.
            let _ = inboxes[accepted % workers].send(stream);
            accepted += 1;
        }
        drop(inboxes);
    });
    accept_result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServeError;
    use crate::server::ServeConfig;
    use ifs_core::{FrequencyEstimator, ReleaseDb, Snapshot};
    use ifs_database::Database;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A deterministic in-memory stream: `read` delivers the scripted
    /// chunks in order, one per call, with `None` entries yielding
    /// `WouldBlock` and the exhausted script yielding EOF (peer close) —
    /// so a test controls exactly how many bytes arrive per worker pass.
    /// Writes append to a shared buffer the test inspects.
    struct ScriptStream {
        script: VecDeque<Option<Vec<u8>>>,
        written: Rc<RefCell<Vec<u8>>>,
    }

    impl ScriptStream {
        fn new(script: Vec<Option<Vec<u8>>>) -> (Self, Rc<RefCell<Vec<u8>>>) {
            let written = Rc::new(RefCell::new(Vec::new()));
            (Self { script: script.into(), written: Rc::clone(&written) }, written)
        }

        /// A script delivering `bytes` whole, then dribbling nothing.
        fn whole(bytes: Vec<u8>) -> Vec<Option<Vec<u8>>> {
            vec![Some(bytes)]
        }

        /// A slowloris script: one byte per worker pass.
        fn dribble(bytes: &[u8]) -> Vec<Option<Vec<u8>>> {
            let mut script = Vec::new();
            for &b in bytes {
                script.push(Some(vec![b]));
                script.push(None);
            }
            script
        }
    }

    impl Read for ScriptStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.script.pop_front() {
                Some(Some(chunk)) => {
                    assert!(chunk.len() <= buf.len(), "script chunk fits the read buffer");
                    buf[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
                Some(None) => Err(io::Error::from(io::ErrorKind::WouldBlock)),
                None => Ok(0),
            }
        }
    }

    impl Write for ScriptStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn decode_responses(mut wire: &[u8]) -> Vec<Response> {
        let mut reader = FrameReader::default();
        let mut out = Vec::new();
        while let Some(frame) = reader.read_frame(&mut wire).expect("complete frames") {
            out.push(Response::from_bytes(frame.expect("well-formed")).expect("decodes"));
        }
        out
    }

    fn demo_db() -> Database {
        Database::from_rows(5, &[vec![0, 1], vec![0], vec![1, 2], vec![0, 1, 4], vec![3]])
    }

    fn demo() -> (ReleaseDb, Vec<u8>) {
        let sketch = ReleaseDb::build(&demo_db(), 0.3);
        let bytes = sketch.snapshot_bytes();
        (sketch, bytes)
    }

    /// A RELEASE-ANSWERS indicator store over the demo database: it
    /// answers only indicator queries on 2-itemsets.
    fn demo_answers() -> Vec<u8> {
        ifs_core::ReleaseAnswersIndicator::build(&demo_db(), 2, 0.3).snapshot_bytes()
    }

    fn query(id: u64, queries: Vec<Itemset>) -> Vec<u8> {
        Request::Query { id, mode: QueryMode::Estimate, queries }.to_bytes()
    }

    fn run_until_drained<S: Read + Write>(worker: &mut PoolWorker<'_, S>) {
        // Every pass makes progress on a scripted stream; cap the loop so
        // a livelock fails the test instead of hanging it.
        for _ in 0..10_000 {
            worker.pass();
            if worker.is_empty() {
                return;
            }
        }
        panic!("worker did not drain its scripted connections");
    }

    /// A byte-dribbling connection must not stall a whole connection on
    /// the same worker: the fast peer's response is written while the
    /// slow peer's frame is still arriving, and the slow peer still gets
    /// the right answer in the end.
    #[test]
    fn slowloris_does_not_stall_the_worker() {
        let (offline, frame) = demo();
        let server = SketchServer::new(ServeConfig::default());
        server.load_frame(1, 1, &frame).expect("admit");
        let queries = vec![Itemset::empty(), Itemset::new(vec![0, 1])];
        let expected = Response::Estimates(offline.estimate_batch(&queries));

        let mut worker = PoolWorker::new(&server);
        let (slow, slow_out) = ScriptStream::new(ScriptStream::dribble(&query(1, queries.clone())));
        let (fast, fast_out) = ScriptStream::new(ScriptStream::whole(query(1, queries.clone())));
        worker.push(slow);
        worker.push(fast);

        // One pass: the fast connection is fully answered; the slow one
        // has delivered exactly one byte.
        worker.pass();
        assert_eq!(decode_responses(&fast_out.borrow()), vec![expected.clone()]);
        assert!(slow_out.borrow().is_empty());

        run_until_drained(&mut worker);
        assert_eq!(decode_responses(&slow_out.borrow()), vec![expected]);
    }

    /// Queries arriving across connections in the same pass aggregate
    /// into ONE engine dispatch (`served_batches` counts dispatches),
    /// and every connection still receives exactly its own answers.
    #[test]
    fn cross_connection_queries_aggregate_into_one_dispatch() {
        let (offline, frame) = demo();
        let server = SketchServer::new(ServeConfig::default());
        server.load_frame(1, 1, &frame).expect("admit");
        let qa = vec![Itemset::empty(), Itemset::singleton(0)];
        let qb = vec![Itemset::new(vec![0, 1])];

        let mut worker = PoolWorker::new(&server);
        let (a, a_out) = ScriptStream::new(ScriptStream::whole(query(1, qa.clone())));
        let (b, b_out) = ScriptStream::new(ScriptStream::whole(query(1, qb.clone())));
        worker.push(a);
        worker.push(b);
        worker.pass();

        assert_eq!(server.stats().served_batches, 1, "two requests, one aggregated dispatch");
        assert_eq!(
            decode_responses(&a_out.borrow()),
            vec![Response::Estimates(offline.estimate_batch(&qa))]
        );
        assert_eq!(
            decode_responses(&b_out.borrow()),
            vec![Response::Estimates(offline.estimate_batch(&qb))]
        );
    }

    /// A pipelined `[Query, Load(reload), Query]` answers in order, with
    /// the Load acting as a barrier: the first query answers the old
    /// snapshot, the second answers the reloaded one.
    #[test]
    fn loads_are_ordering_barriers_within_a_pipeline() {
        let (old_offline, old_frame) = demo();
        let new_db = Database::from_rows(5, &[vec![2], vec![2, 3], vec![3], vec![4], vec![2, 4]]);
        let new_offline = ReleaseDb::build(&new_db, 0.3);
        let new_frame = new_offline.snapshot_bytes();
        let queries = vec![Itemset::empty(), Itemset::singleton(2), Itemset::new(vec![2, 3])];

        let server = SketchServer::new(ServeConfig::default());
        server.load_frame(1, 1, &old_frame).expect("admit");

        let mut wire = query(1, queries.clone());
        wire.extend_from_slice(
            &Request::Load { id: 1, threads: 1, frame: new_frame.clone() }.to_bytes(),
        );
        wire.extend_from_slice(&query(1, queries.clone()));

        let mut worker = PoolWorker::new(&server);
        let (conn, out) = ScriptStream::new(ScriptStream::whole(wire));
        worker.push(conn);
        run_until_drained(&mut worker);

        let responses = decode_responses(&out.borrow());
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0], Response::Estimates(old_offline.estimate_batch(&queries)));
        assert!(
            matches!(&responses[1], Response::Reloaded { id: 1, generation: 2, .. }),
            "{:?}",
            responses[1]
        );
        assert_eq!(responses[2], Response::Estimates(new_offline.estimate_batch(&queries)));
    }

    /// Mid-pipeline garbage: requests before the garbage are answered,
    /// one typed framing error follows, and only that connection closes —
    /// a healthy connection on the same worker is unaffected.
    #[test]
    fn garbage_closes_only_the_offending_connection() {
        let (offline, frame) = demo();
        let server = SketchServer::new(ServeConfig::default());
        server.load_frame(1, 1, &frame).expect("admit");
        let queries = vec![Itemset::empty()];
        let expected = Response::Estimates(offline.estimate_batch(&queries));

        let mut bad_wire = query(1, queries.clone());
        bad_wire.extend_from_slice(b"!!!! this is not a frame");
        let mut worker = PoolWorker::new(&server);
        let (bad, bad_out) = ScriptStream::new(ScriptStream::whole(bad_wire));
        let (good, good_out) = ScriptStream::new(ScriptStream::whole(query(1, queries.clone())));
        worker.push(bad);
        worker.push(good);
        worker.pass();

        let bad_responses = decode_responses(&bad_out.borrow());
        assert_eq!(bad_responses.len(), 2);
        assert_eq!(bad_responses[0], expected);
        assert!(
            matches!(&bad_responses[1], Response::Error(ServeError::Decode(_))),
            "{:?}",
            bad_responses[1]
        );
        assert_eq!(decode_responses(&good_out.borrow()), vec![expected.clone()]);
        // The offending connection is gone after one pass; the healthy
        // one lingers (its script has not reached EOF yet).
        assert_eq!(worker.len(), 1);
    }

    /// In-frame corruption (checksum flip) refuses that one request with
    /// a typed error and keeps the connection open for the next frame.
    #[test]
    fn checksum_corruption_is_recoverable_in_a_pipeline() {
        let (offline, frame) = demo();
        let server = SketchServer::new(ServeConfig::default());
        server.load_frame(1, 1, &frame).expect("admit");
        let queries = vec![Itemset::empty()];

        let mut corrupt = query(1, queries.clone());
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        let mut wire = corrupt;
        wire.extend_from_slice(&query(1, queries.clone()));

        let mut worker = PoolWorker::new(&server);
        let (conn, out) = ScriptStream::new(ScriptStream::whole(wire));
        worker.push(conn);
        worker.pass();

        let responses = decode_responses(&out.borrow());
        assert_eq!(responses.len(), 2);
        assert!(matches!(&responses[0], Response::Error(ServeError::Decode(_))));
        assert_eq!(responses[1], Response::Estimates(offline.estimate_batch(&queries)));
        assert_eq!(worker.len(), 1, "the connection stays open");
    }

    /// Saturation under the pool: with every in-flight slot held, queries
    /// refuse with `Overloaded`; when slots free, the same connection's
    /// next queries succeed — backpressure saturates and recovers.
    #[test]
    fn overload_refuses_then_recovers_under_the_pool() {
        let (offline, frame) = demo();
        let server = SketchServer::new(ServeConfig { max_in_flight: 1, ..ServeConfig::default() });
        server.load_frame(1, 1, &frame).expect("admit");
        let queries = vec![Itemset::empty()];

        let mut worker = PoolWorker::new(&server);
        let (conn, out) = ScriptStream::new(vec![
            Some(query(1, queries.clone())),
            None,
            Some(query(1, queries.clone())),
        ]);
        worker.push(conn);

        let held = server.try_begin_batch().expect("take the only slot");
        worker.pass();
        assert!(
            matches!(
                decode_responses(&out.borrow()).as_slice(),
                [Response::Error(ServeError::Overloaded { .. })]
            ),
            "saturated pool refuses"
        );
        drop(held);
        run_until_drained(&mut worker);
        let responses = decode_responses(&out.borrow());
        assert_eq!(responses[1], Response::Estimates(offline.estimate_batch(&queries)));
    }

    /// Answers `frames`, one connection each, in one worker pass; each
    /// response must equal `handle_into` of the same frame on `reference`,
    /// an identically loaded server. Returns the responses.
    fn replay(
        server: &SketchServer,
        reference: &SketchServer,
        frames: &[Vec<u8>],
    ) -> Vec<Response> {
        let mut worker = PoolWorker::new(server);
        let outs: Vec<_> = frames
            .iter()
            .map(|frame| {
                let (conn, out) = ScriptStream::new(ScriptStream::whole(frame.clone()));
                worker.push(conn);
                out
            })
            .collect();
        worker.pass();
        let responses = frames.iter().zip(&outs).map(|(frame, out)| {
            let want = reference.handle_into(frame, &mut EncodeBuf::new()).to_vec();
            assert_eq!(*out.borrow(), want, "{:?}", decode_responses(&want));
            decode_responses(&want).remove(0)
        });
        responses.collect()
    }

    /// Refusals in the same `(id, mode)` group as valid requests, all
    /// taken in one worker pass, answer as `handle_into` does, and
    /// `served_batches` counts exactly the answered dispatches. At
    /// saturation a query in a mode the sketch cannot answer, on an
    /// unknown id, or with an out-of-range item is refused `Overloaded`,
    /// as `handle_into` refuses it: the slot is taken before anything
    /// else is judged.
    #[test]
    fn refused_requests_share_a_group_with_valid_ones() {
        // One slot: each group's dispatch, and each reference request,
        // takes it alone.
        let config = ServeConfig { max_in_flight: 1, ..ServeConfig::default() };
        let (server, reference) = (SketchServer::new(config.clone()), SketchServer::new(config));
        for s in [&server, &reference] {
            s.load_frame(1, 1, &demo_answers()).expect("admit answers store");
            s.load_frame(2, 1, &demo().1).expect("admit release");
        }
        let request = |id, mode, queries: Vec<Vec<u32>>| {
            let queries = queries.into_iter().map(Itemset::new).collect();
            Request::Query { id, mode, queries }.to_bytes()
        };
        let frames = [
            request(1, QueryMode::Indicator, vec![vec![0, 1], vec![1, 2]]),
            request(1, QueryMode::Indicator, vec![vec![0, 1], vec![3, 7]]),
            request(1, QueryMode::Indicator, vec![vec![0, 1, 2]]),
            request(1, QueryMode::Indicator, vec![vec![2, 4]]),
            request(1, QueryMode::Estimate, vec![vec![0, 1]]),
            request(2, QueryMode::Estimate, vec![vec![0], vec![9]]),
            request(2, QueryMode::Estimate, vec![vec![], vec![0, 1]]),
        ];
        let got = replay(&server, &reference, &frames);
        assert!(matches!(got[1], Response::Error(ServeError::BadQuery { index: 1, .. })));
        assert!(matches!(got[2], Response::Error(ServeError::BadQuery { index: 0, .. })));
        assert!(matches!(got[4], Response::Error(ServeError::Unanswerable { .. })));
        assert!(matches!(got[5], Response::Error(ServeError::BadQuery { index: 1, .. })));
        // Two answered dispatches: id 1's two valid indicator batches, and
        // id 2's one valid estimate batch. The refused estimate group on
        // id 1 is not a dispatch.
        assert_eq!(server.stats().served_batches, 2);

        // Saturated, every query — valid, on an unknown id, or with an
        // out-of-range item — is refused `Overloaded` before it is judged.
        let _held = (server.try_begin_batch().unwrap(), reference.try_begin_batch().unwrap());
        let saturated =
            [frames[4].clone(), request(9, QueryMode::Estimate, vec![vec![0]]), frames[5].clone()];
        for got in replay(&server, &reference, &saturated) {
            assert_eq!(got, Response::Error(ServeError::Overloaded { in_flight: 1, limit: 1 }));
        }
    }
}
