//! The pooled transport serves *exactly* the offline engine's answers —
//! pipelined, micro-batched, and across hot reloads (DESIGN.md §13).
//!
//! Property-tested (fixed case count and seed, like every suite here)
//! over real loopback TCP against `serve_pooled`:
//!
//! * **Pooled served identity** — pipelined connections multiplexed onto
//!   a fixed worker pool receive answers bit-identical to the sharded
//!   engine queried directly, at per-sketch thread counts 1 and 4:
//!   pooling, pipelining, and cross-connection micro-batching are
//!   execution strategies, never approximations.
//! * **Sequential transcript** — a request list answered by the pool,
//!   call by call or fully pipelined, is byte-identical to
//!   `SketchServer::handle_into` applied frame by frame.
//! * **Adversarial connections** — a slowloris peer dribbling a frame
//!   byte by byte does not stall other connections on its worker;
//!   mid-pipeline garbage closes only the offending connection (after
//!   in-order answers and one typed framing error); `Overloaded`
//!   backpressure saturates and recovers through the pool.
//! * **Hot reload** — re-admitting a live id answers `Reloaded` with a
//!   bumped generation; queries racing the reload answer either the old
//!   or the new snapshot *exactly* (never a torn blend), and queries
//!   after it answer the new one.

use itemset_sketches::prelude::*;
use itemset_sketches::serve::{
    net::FrameReader, pool, Answers, Client, EncodeBuf, QueryMode, Request, Response, ServeConfig,
    ServeError, SketchServer,
};
use proptest::prelude::*;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};

/// The pool size for tests: fixed, so nothing depends on the host's
/// parallelism.
const TEST_WORKERS: usize = 2;

/// Reads one response off a raw stream through that stream's one
/// reader: `None` on a clean close.
fn read_response(stream: &mut TcpStream, reader: &mut FrameReader) -> Option<Response> {
    let frame = reader.read_frame(stream).expect("transport")?.expect("well-formed");
    Some(Response::from_bytes(frame).expect("decodes"))
}

/// Binds a loopback listener and returns it with its address.
fn loopback() -> (TcpListener, String) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    (listener, addr)
}

fn random_queries(d: usize, count: usize, rng: &mut Rng64) -> Vec<Itemset> {
    (0..count)
        .map(|_| {
            let k = rng.below(4).min(d);
            Itemset::new(rng.distinct_sorted(d, k).iter().map(|&i| i as u32).collect())
        })
        .collect()
}

fn expect_answers(resp: Response) -> Answers {
    match resp {
        Response::Estimates(v) => Answers::Estimates(v),
        Response::Indicators(v) => Answers::Indicators(v),
        other => panic!("expected answers, got {other:?}"),
    }
}

proptest! {
    // Fixed case count AND RNG seed: tier-1 CI must be bit-for-bit
    // reproducible, so a failure here can be replayed locally as-is.
    #![proptest_config(ProptestConfig::with_cases_and_seed(6, 0x900D))]

    /// Two pipelined connections over the pooled transport receive
    /// bit-identical answers to the sharded engine, at 1 and 4 threads.
    /// Pipeline depth 3 forces read-ahead; two connections querying the
    /// same id force cross-connection aggregation.
    #[test]
    fn pooled_pipelined_answers_match_the_sharded_engine(
        seed in any::<u64>(),
        rows in 1usize..50,
        dims in 1usize..40,
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(rows, dims, 0.3, &mut rng);
        let offline = ReleaseDb::build(&db, 0.2);
        let frame = offline.snapshot_bytes();
        let batches: Vec<Vec<Itemset>> =
            (0..6).map(|_| random_queries(dims, 12, &mut rng)).collect();
        for threads in [1usize, 4] {
            let sharded = offline.clone().with_threads(threads);
            let server = SketchServer::new(ServeConfig::default());
            let (listener, addr) = loopback();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    pool::serve_pooled(&server, &listener, TEST_WORKERS, Some(2))
                        .expect("pooled server serves");
                });
                let mut a = Client::connect(&addr, 2_000).expect("connect a");
                let mut b = Client::connect(&addr, 2_000).expect("connect b");
                a.call(&Request::Load { id: 1, threads, frame: frame.clone() })
                    .expect("transport").expect("decodes");
                // Depth-3 pipelines on both connections, same id: the
                // worker aggregates across them.
                for chunk in batches.chunks(3) {
                    for client in [&mut a, &mut b] {
                        for queries in chunk {
                            client.send(&Request::Query {
                                id: 1,
                                mode: QueryMode::Estimate,
                                queries: queries.clone(),
                            }).expect("send");
                        }
                    }
                    for client in [&mut a, &mut b] {
                        for queries in chunk {
                            let resp = client.recv().expect("transport").expect("decodes");
                            let want: Vec<u64> = sharded
                                .estimate_batch(queries).iter().map(|f| f.to_bits()).collect();
                            match resp {
                                Response::Estimates(got) => {
                                    let got: Vec<u64> =
                                        got.iter().map(|f| f.to_bits()).collect();
                                    assert_eq!(got, want, "diverged at {threads} threads");
                                }
                                other => panic!("expected estimates: {other:?}"),
                            }
                        }
                    }
                }
            });
        }
    }
}

/// A slowloris peer dribbling its frame one byte at a time must not
/// stall a healthy connection multiplexed onto the same pool — and must
/// still get the right answer once its frame completes.
#[test]
fn tcp_slowloris_does_not_stall_other_connections() {
    let mut rng = Rng64::seeded(0x510E);
    let db = generators::uniform(30, 16, 0.3, &mut rng);
    let offline = ReleaseDb::build(&db, 0.2);
    let frame = offline.snapshot_bytes();
    let queries = random_queries(16, 8, &mut rng);
    let request = Request::Query { id: 1, mode: QueryMode::Estimate, queries: queries.clone() };
    let expected = Answers::Estimates(offline.estimate_batch(&queries));

    let server = SketchServer::new(ServeConfig::default());
    server.load_frame(1, 1, &frame).expect("admit");
    let (listener, addr) = loopback();
    // One worker: the slow and fast connections share it by construction.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            pool::serve_pooled(&server, &listener, 1, Some(2)).expect("pooled server serves");
        });
        let mut slow = TcpStream::connect(&addr).expect("connect slow");
        let mut fast = Client::connect(&addr, 2_000).expect("connect fast");
        // The slow peer delivers half its frame, one byte at a time.
        let wire = request.to_bytes();
        let (first_half, second_half) = wire.split_at(wire.len() / 2);
        for &b in first_half {
            slow.write_all(&[b]).expect("dribble");
            slow.flush().expect("flush");
        }
        // The fast connection completes several calls meanwhile.
        for _ in 0..3 {
            let resp = fast.call(&request).expect("transport").expect("decodes");
            assert_eq!(expect_answers(resp), expected, "fast connection stalled or diverged");
        }
        // The slow peer finishes; its answer is exact.
        for &b in second_half {
            slow.write_all(&[b]).expect("dribble");
            slow.flush().expect("flush");
        }
        let resp =
            read_response(&mut slow, &mut FrameReader::default()).expect("a response arrives");
        assert_eq!(expect_answers(resp), expected, "slow connection diverged");
    });
}

/// Mid-pipeline garbage: the requests before the garbage are answered in
/// order, one typed framing error follows, and the connection closes —
/// while a healthy connection on the same pool is unaffected.
#[test]
fn tcp_garbage_closes_only_the_offending_connection() {
    let mut rng = Rng64::seeded(0xBAD5);
    let db = generators::uniform(30, 16, 0.3, &mut rng);
    let offline = ReleaseDb::build(&db, 0.2);
    let frame = offline.snapshot_bytes();
    let queries = random_queries(16, 8, &mut rng);
    let request = Request::Query { id: 1, mode: QueryMode::Estimate, queries: queries.clone() };
    let expected = Answers::Estimates(offline.estimate_batch(&queries));

    let server = SketchServer::new(ServeConfig::default());
    server.load_frame(1, 1, &frame).expect("admit");
    let (listener, addr) = loopback();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            pool::serve_pooled(&server, &listener, 1, Some(2)).expect("pooled server serves");
        });
        let mut bad = TcpStream::connect(&addr).expect("connect bad");
        let mut good = Client::connect(&addr, 2_000).expect("connect good");
        // A valid pipelined request, then bytes that can never frame.
        let mut wire = request.to_bytes();
        wire.extend_from_slice(b"!!!! this is not a frame at all");
        bad.write_all(&wire).expect("write");
        bad.flush().expect("flush");
        // In order: the real answer, then the typed framing error.
        let mut reader = FrameReader::default();
        let first = read_response(&mut bad, &mut reader).expect("frame");
        assert_eq!(
            expect_answers(first),
            expected,
            "the pipelined request before the garbage must be answered"
        );
        let second = read_response(&mut bad, &mut reader).expect("frame");
        assert!(
            matches!(second, Response::Error(ServeError::Decode(_))),
            "garbage must be refused typed"
        );
        // Then the connection is closed: clean EOF.
        assert!(
            read_response(&mut bad, &mut reader).is_none(),
            "the offending connection must be closed"
        );
        // The healthy connection never noticed.
        let resp = good.call(&request).expect("transport").expect("decodes");
        assert_eq!(expect_answers(resp), expected, "the healthy connection was affected");
    });
}

/// Backpressure through the pool: with every in-flight slot held,
/// pipelined queries refuse with `Overloaded`; when the slot frees, the
/// same connection's next query succeeds — saturate, then recover.
#[test]
fn tcp_overload_saturates_and_recovers_through_the_pool() {
    let mut rng = Rng64::seeded(0x0CEA);
    let db = generators::uniform(30, 16, 0.3, &mut rng);
    let offline = ReleaseDb::build(&db, 0.2);
    let frame = offline.snapshot_bytes();
    let queries = random_queries(16, 8, &mut rng);
    let request = Request::Query { id: 1, mode: QueryMode::Estimate, queries: queries.clone() };
    let expected = Answers::Estimates(offline.estimate_batch(&queries));

    let server = SketchServer::new(ServeConfig { max_in_flight: 1, ..ServeConfig::default() });
    server.load_frame(1, 1, &frame).expect("admit");
    let (listener, addr) = loopback();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            pool::serve_pooled(&server, &listener, TEST_WORKERS, Some(1))
                .expect("pooled server serves");
        });
        let mut client = Client::connect(&addr, 2_000).expect("connect");
        // Saturate: the test holds the server's only slot directly, so
        // the refusal is deterministic, not a race.
        let held = server.try_begin_batch().expect("take the only slot");
        match client.call(&request).expect("transport").expect("decodes") {
            Response::Error(ServeError::Overloaded { in_flight, limit }) => {
                assert_eq!((in_flight, limit), (1, 1));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // Recover: the slot frees, the very same connection is served.
        drop(held);
        let resp = client.call(&request).expect("transport").expect("decodes");
        assert_eq!(expect_answers(resp), expected, "service must recover after saturation");
    });
}

/// Hot-reload over the pooled transport: the reload answers `Reloaded`
/// with a bumped generation and the replaced kind, and a query pipelined
/// *behind* the reload on the same connection answers the new snapshot.
#[test]
fn tcp_hot_reload_answers_reloaded_and_switches_snapshots() {
    let mut rng = Rng64::seeded(0x4E10);
    let old_db = generators::uniform(40, 16, 0.3, &mut rng);
    let new_db = generators::uniform(40, 16, 0.5, &mut rng);
    let old_offline = ReleaseDb::build(&old_db, 0.2);
    let new_offline = ReleaseDb::build(&new_db, 0.2);
    let queries = random_queries(16, 10, &mut rng);

    let server = SketchServer::new(ServeConfig::default());
    let (listener, addr) = loopback();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            pool::serve_pooled(&server, &listener, TEST_WORKERS, Some(1))
                .expect("pooled server serves");
        });
        let mut client = Client::connect(&addr, 2_000).expect("connect");
        let query = Request::Query { id: 7, mode: QueryMode::Estimate, queries: queries.clone() };
        // Pipeline the whole conversation: load, query, reload, query.
        client
            .send(&Request::Load { id: 7, threads: 1, frame: old_offline.snapshot_bytes() })
            .expect("send");
        client.send(&query).expect("send");
        client
            .send(&Request::Load { id: 7, threads: 1, frame: new_offline.snapshot_bytes() })
            .expect("send");
        client.send(&query).expect("send");

        let loaded = client.recv().expect("transport").expect("decodes");
        assert!(matches!(loaded, Response::Loaded { id: 7, .. }), "{loaded:?}");
        let first = client.recv().expect("transport").expect("decodes");
        assert_eq!(
            expect_answers(first),
            Answers::Estimates(old_offline.estimate_batch(&queries)),
            "the query before the reload answers the old snapshot"
        );
        let reloaded = client.recv().expect("transport").expect("decodes");
        match reloaded {
            Response::Reloaded { id, generation, previous_kind, .. } => {
                assert_eq!(id, 7);
                assert_eq!(generation, 2, "second admission of the id");
                assert_eq!(previous_kind, itemset_sketches::core::snapshot::KIND_RELEASE_DB);
            }
            other => panic!("expected Reloaded, got {other:?}"),
        }
        let second = client.recv().expect("transport").expect("decodes");
        assert_eq!(
            expect_answers(second),
            Answers::Estimates(new_offline.estimate_batch(&queries)),
            "the query after the reload answers the new snapshot"
        );
    });
}

/// The no-torn-state hammer: queries race concurrent reloads flipping id
/// 7 between two different sketches. Every single response must equal
/// one oracle's answers *exactly* — a response mixing old and new
/// answers (a torn read) fails the bit-for-bit comparison against both.
#[test]
fn tcp_hot_reload_hammer_never_observes_torn_state() {
    let mut rng = Rng64::seeded(0x7084);
    let db_a = generators::uniform(40, 16, 0.25, &mut rng);
    let db_b = generators::uniform(40, 16, 0.55, &mut rng);
    let sketch_a = ReleaseDb::build(&db_a, 0.2);
    let sketch_b = ReleaseDb::build(&db_b, 0.2);
    let queries = random_queries(16, 16, &mut rng);
    let expected_a = Answers::Estimates(sketch_a.estimate_batch(&queries));
    let expected_b = Answers::Estimates(sketch_b.estimate_batch(&queries));
    assert_ne!(expected_a, expected_b, "the two snapshots must answer differently");

    let server = SketchServer::new(ServeConfig::default());
    server.load_frame(7, 1, &sketch_a.snapshot_bytes()).expect("admit generation 1");
    let (listener, addr) = loopback();
    const QUERIERS: usize = 3;
    const CALLS: usize = 40;
    const RELOADS: u64 = 30;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            pool::serve_pooled(&server, &listener, TEST_WORKERS, Some(QUERIERS + 1))
                .expect("pooled server serves");
        });
        // The reloader: flips the snapshot under id 7, over the wire.
        let frames = [sketch_a.snapshot_bytes(), sketch_b.snapshot_bytes()];
        let reloader = scope.spawn(move || {
            let mut client = Client::connect(&addr, 2_000).expect("connect reloader");
            for g in 0..RELOADS {
                let frame = frames[(g % 2 == 0) as usize].clone();
                let resp = client
                    .call(&Request::Load { id: 7, threads: 1, frame })
                    .expect("transport")
                    .expect("decodes");
                match resp {
                    Response::Reloaded { generation, .. } => {
                        assert_eq!(generation, g + 2, "generations count every admission");
                    }
                    other => panic!("expected Reloaded, got {other:?}"),
                }
            }
        });
        let addr = listener.local_addr().expect("local addr").to_string();
        for q in 0..QUERIERS {
            let addr = addr.clone();
            let (queries, expected_a, expected_b) = (&queries, &expected_a, &expected_b);
            scope.spawn(move || {
                let mut client =
                    Client::connect(&addr, 2_000).unwrap_or_else(|e| panic!("querier {q}: {e}"));
                for call in 0..CALLS {
                    let resp = client
                        .call(&Request::Query {
                            id: 7,
                            mode: QueryMode::Estimate,
                            queries: queries.clone(),
                        })
                        .expect("transport")
                        .expect("decodes");
                    let got = expect_answers(resp);
                    assert!(
                        got == *expected_a || got == *expected_b,
                        "querier {q} call {call}: torn or foreign answers: {got:?}"
                    );
                }
            });
        }
        reloader.join().expect("reloader finishes");
    });
}

/// The pooled transport's transcript is byte-identical to the sequential
/// request → response map — `SketchServer::handle_into` applied frame by
/// frame on a fresh server — refusals and `Stats` included. The client
/// either waits for each answer or pipelines every request before the
/// first `recv`, which runs the Load/Stats barriers over a real socket.
/// Each query is its own `(id, mode)` group, so the dispatch count that
/// `Stats` reports is the sequential one too.
#[test]
fn pooled_transport_matches_the_sequential_map() {
    let mut rng = Rng64::seeded(0x1DE7);
    let db = generators::uniform(30, 16, 0.3, &mut rng);
    let frame = ReleaseDb::build(&db, 0.2).snapshot_bytes();
    let queries = random_queries(16, 8, &mut rng);
    let requests = vec![
        Request::Load { id: 1, threads: 1, frame },
        Request::Query { id: 1, mode: QueryMode::Estimate, queries: queries.clone() },
        Request::Query { id: 1, mode: QueryMode::Indicator, queries },
        Request::Query { id: 99, mode: QueryMode::Estimate, queries: vec![] },
        Request::Stats,
    ];
    let sequential = SketchServer::new(ServeConfig::default());
    let mut buf = EncodeBuf::new();
    let expected: Vec<Vec<u8>> = requests
        .iter()
        .map(|req| sequential.handle_into(&req.to_bytes(), &mut buf).to_vec())
        .collect();
    for pipelined in [false, true] {
        let server = SketchServer::new(ServeConfig::default());
        let (listener, addr) = loopback();
        let transcript: Vec<Vec<u8>> = std::thread::scope(|scope| {
            scope.spawn(|| {
                pool::serve_pooled(&server, &listener, TEST_WORKERS, Some(1)).expect("serves");
            });
            let mut client = Client::connect(&addr, 2_000).expect("connect");
            let replies: Vec<_> = if pipelined {
                for req in &requests {
                    client.send(req).expect("send");
                }
                requests.iter().map(|_| client.recv()).collect()
            } else {
                requests.iter().map(|req| client.call(req)).collect()
            };
            replies
                .into_iter()
                .map(|r| r.expect("transport").expect("decodes").to_bytes())
                .collect()
        });
        assert_eq!(transcript, expected, "pipelined = {pipelined}");
    }
}
