//! The serving tier serves *exactly* the offline engine's answers, and
//! refuses everything else typed (DESIGN.md §11).
//!
//! Property-tested (fixed case count and seed, like every suite here)
//! against `ifs_serve::SketchServer` through its byte-level `handle`
//! entry point — the same frames a socket carries:
//!
//! * **Served identity** — for random databases and query logs, answers
//!   served over the protocol are bit-identical to the offline sketches
//!   (`ReleaseDb`, `Subsample`, and a `ReleaseAnswersIndicator` store)
//!   queried directly, at per-sketch thread counts 1 and 4 (serving is an
//!   execution strategy, never an approximation).
//! * **Adversarial request bytes never panic** — truncation at *every*
//!   prefix length, flipped magic, version skew, a flipped body byte, and
//!   trailing garbage each map to the right `DecodeError` variant, and the
//!   server answers each with a typed error response.
//! * **Eviction transparency** — under a hot-set budget that forces an
//!   evict/reload cycle on every batch, across sketch kinds, served
//!   answers stay bit-identical (the snapshot round-trip contract,
//!   load-bearing in production).
//! * **Explicit backpressure** — with every in-flight slot held, a query
//!   refuses with `Overloaded` instead of queueing; releasing a slot
//!   restores service.
//! * **Contract edges** — empty batches, unknown ids, over-budget frames,
//!   out-of-contract queries, mode/kind mismatches, and unservable kinds
//!   each produce their specific typed refusal, over a real TCP connection
//!   included.

use itemset_sketches::database::codec::DecodeError;
use itemset_sketches::prelude::*;
use itemset_sketches::serve::{
    net, pool, Answers, EncodeBuf, QueryMode, Request, Response, ServeConfig, ServeError,
    ServedSketch, SketchServer, PROTOCOL_VERSION, REQUEST_KIND,
};
use itemset_sketches::streaming::StreamCounter;
use proptest::prelude::*;

/// A random query log over `d` attributes with cardinalities 0..=3
/// (distinct sorted items, as the itemset codec requires).
fn random_queries(d: usize, count: usize, rng: &mut Rng64) -> Vec<Itemset> {
    (0..count)
        .map(|_| {
            let k = rng.below(4).min(d);
            Itemset::new(rng.distinct_sorted(d, k).iter().map(|&i| i as u32).collect())
        })
        .collect()
}

/// Passes one request frame through the server's byte-level entry point
/// and returns the decoded response.
fn handle(server: &SketchServer, request: &[u8]) -> Response {
    Response::from_bytes(server.handle_into(request, &mut EncodeBuf::new()))
        .expect("every server output must decode as a response")
}

/// Round-trips one query batch through [`handle`].
fn serve_batch(server: &SketchServer, id: u64, mode: QueryMode, queries: &[Itemset]) -> Response {
    handle(server, &Request::Query { id, mode, queries: queries.to_vec() }.to_bytes())
}

/// Serves `queries` from sketch `id` in estimate mode, as `f64` bits.
fn served_estimates(server: &SketchServer, id: u64, queries: &[Itemset]) -> Vec<u64> {
    match serve_batch(server, id, QueryMode::Estimate, queries) {
        Response::Estimates(got) => got.iter().map(|f| f.to_bits()).collect(),
        other => panic!("expected estimates, got {other:?}"),
    }
}

/// Serves `queries` from sketch `id` in indicator mode.
fn served_indicators(server: &SketchServer, id: u64, queries: &[Itemset]) -> Vec<bool> {
    match serve_batch(server, id, QueryMode::Indicator, queries) {
        Response::Indicators(got) => got,
        other => panic!("expected indicators, got {other:?}"),
    }
}

/// Both query modes of sketch `id` answer exactly what `offline` answers.
fn assert_served_matches<S: FrequencyEstimator + FrequencyIndicator>(
    server: &SketchServer,
    id: u64,
    offline: &S,
    queries: &[Itemset],
) {
    let want: Vec<u64> = offline.estimate_batch(queries).iter().map(|f| f.to_bits()).collect();
    assert_eq!(served_estimates(server, id, queries), want, "sketch {id}: estimates diverged");
    assert_eq!(
        served_indicators(server, id, queries),
        offline.is_frequent_batch(queries),
        "sketch {id}: indicators diverged"
    );
}

fn expect_error(resp: Response) -> ServeError {
    match resp {
        Response::Error(e) => e,
        other => panic!("expected a typed refusal, got {other:?}"),
    }
}

proptest! {
    // Fixed case count AND RNG seed: tier-1 CI must be bit-for-bit
    // reproducible, so a failure here can be replayed locally as-is.
    #![proptest_config(ProptestConfig::with_cases_and_seed(12, 0x5E17E))]

    /// Served answers equal the offline sketches queried directly, bit for
    /// bit, at 1 and 4 per-sketch threads: `ReleaseDb` and `Subsample` in
    /// both query modes, and a `ReleaseAnswersIndicator` store on
    /// exactly-`k` queries in indicator mode.
    #[test]
    fn served_answers_match_the_sharded_engine(
        seed in any::<u64>(),
        rows in 1usize..50,
        dims in 1usize..40,
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(rows, dims, 0.3, &mut rng);
        let release = ReleaseDb::build(&db, 0.2);
        let sample = Subsample::with_sample_count_seeded(&db, 16, 0.2, seed);
        let k = dims.min(2);
        let indicator = ReleaseAnswersIndicator::build(&db, k, 0.2);
        let queries = random_queries(dims, 40, &mut rng);
        let exact_k: Vec<Itemset> = (0..40)
            .map(|_| Itemset::new(rng.distinct_sorted(dims, k).iter().map(|&i| i as u32).collect()))
            .collect();
        let fleet = [
            (ReleaseDb::KIND, release.snapshot_bytes()),
            (Subsample::KIND, sample.snapshot_bytes()),
            (ReleaseAnswersIndicator::KIND, indicator.snapshot_bytes()),
        ];
        for threads in [1usize, 4] {
            let server = SketchServer::new(ServeConfig::default());
            for (id, (kind, frame)) in fleet.iter().enumerate() {
                let id = id as u64;
                let load = Request::Load { id, threads, frame: frame.clone() };
                prop_assert_eq!(
                    handle(&server, &load.to_bytes()),
                    Response::Loaded {
                        id,
                        kind: *kind,
                        size_bits: frame.len() as u64 * 8,
                        evicted: vec![],
                    }
                );
            }
            assert_served_matches(&server, 0, &release.clone().with_threads(threads), &queries);
            assert_served_matches(&server, 1, &sample.clone().with_threads(threads), &queries);
            prop_assert_eq!(
                served_indicators(&server, 2, &exact_k),
                indicator.is_frequent_batch(&exact_k),
                "indicator store diverged at {} threads",
                threads
            );
        }
    }

    /// Every class of adversarial request bytes maps to its `DecodeError`
    /// variant, and the server answers each with a typed error response —
    /// no input panics the serving loop.
    #[test]
    fn adversarial_request_frames_refuse_typed(seed in any::<u64>()) {
        let mut rng = Rng64::seeded(seed);
        let queries = random_queries(16, 8, &mut rng);
        let request = Request::Query { id: 3, mode: QueryMode::Estimate, queries };
        let bytes = request.to_bytes();
        prop_assert_eq!(&Request::from_bytes(&bytes).expect("roundtrip"), &request);

        // Truncation at every prefix length.
        for cut in 0..bytes.len() {
            prop_assert!(Request::from_bytes(&bytes[..cut]).is_err(), "prefix {} decoded", cut);
        }
        // Flipped magic.
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        prop_assert!(matches!(
            Request::from_bytes(&bad_magic),
            Err(DecodeError::BadMagic(_))
        ));
        // Version skew refuses before the checksum is consulted.
        let mut future = bytes.clone();
        future[6..8].copy_from_slice(&(PROTOCOL_VERSION + 1).to_le_bytes());
        prop_assert!(matches!(
            Request::from_bytes(&future),
            Err(DecodeError::UnsupportedVersion { kind: REQUEST_KIND, .. })
        ));
        // A flipped body byte fails the checksum.
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x01;
        prop_assert!(matches!(
            Request::from_bytes(&flipped),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
        // Trailing garbage is surplus, not silently ignored.
        let mut long = bytes.clone();
        long.push(0xEE);
        prop_assert!(matches!(
            Request::from_bytes(&long),
            Err(DecodeError::TrailingBytes { extra: 1 })
        ));

        // And the server turns each into a decodable error response.
        let server = SketchServer::new(ServeConfig::default());
        for attack in [&bad_magic, &future, &flipped, &long, &bytes[..bytes.len() / 2].to_vec()] {
            match handle(&server, attack) {
                Response::Error(ServeError::Decode(_)) => {}
                other => {
                    prop_assert!(false, "expected refusal: {other:?}");
                }
            }
        }
    }
}

/// A hot-set budget holding exactly one decoded sketch forces an
/// evict/reload on every round-robin batch, across sketch kinds; answers
/// must not change.
#[test]
fn eviction_then_reload_is_bit_identical() {
    let mut rng = Rng64::seeded(0xE71C7);
    let db = generators::uniform(80, 32, 0.3, &mut rng);
    let release = [ReleaseDb::build(&db, 0.2), ReleaseDb::build(&db, 0.4)];
    let sample = Subsample::with_sample_count_seeded(&db, 40, 0.2, 0xE71C7);
    let frames =
        [release[0].snapshot_bytes(), release[1].snapshot_bytes(), sample.snapshot_bytes()];
    let offline = |id: usize, queries: &[Itemset]| match id {
        2 => sample.estimate_batch(queries),
        _ => release[id].estimate_batch(queries),
    };
    let budget = frames.iter().map(|f| f.len() as u64 * 8).max().unwrap();
    let server = SketchServer::new(ServeConfig { budget_bits: budget, ..Default::default() });
    for (id, frame) in frames.iter().enumerate() {
        server.load_frame(id as u64, 1, frame).expect("admit");
    }
    // Every frame fits the budget alone but no two fit together: each
    // load already evicted the one before.
    assert_eq!(server.stats().hot, 1);
    for b in 0..10 {
        let id = b % frames.len();
        let queries = random_queries(32, 20, &mut rng);
        let want: Vec<u64> = offline(id, &queries).iter().map(|f| f.to_bits()).collect();
        assert_eq!(
            served_estimates(&server, id as u64, &queries),
            want,
            "batch {b}: reloaded sketch {id} diverged"
        );
    }
    let stats = server.stats();
    assert!(stats.evictions >= 10, "round-robin under a one-sketch budget must thrash");
    assert!(stats.hot_bits <= stats.budget_bits, "hot set exceeded its budget");
}

/// With every in-flight slot held, queries refuse with `Overloaded`;
/// releasing a slot restores service. Deterministic: the slots are held
/// directly, no timing involved.
#[test]
fn backpressure_refuses_when_saturated() {
    let mut rng = Rng64::seeded(0xBACC);
    let db = generators::uniform(20, 16, 0.3, &mut rng);
    let frame = ReleaseDb::build(&db, 0.2).snapshot_bytes();
    let server = SketchServer::new(ServeConfig { max_in_flight: 2, ..Default::default() });
    server.load_frame(0, 1, &frame).expect("admit");
    let held: Vec<_> = (0..2).map(|_| server.try_begin_batch().expect("free slot")).collect();
    let err = expect_error(serve_batch(&server, 0, QueryMode::Estimate, &[Itemset::empty()]));
    assert_eq!(err, ServeError::Overloaded { in_flight: 2, limit: 2 });
    // Loads and stats are not query batches: they stay serviceable under
    // saturation (an operator can still inspect a saturated server).
    assert_eq!(server.stats().in_flight, 2);
    drop(held);
    match serve_batch(&server, 0, QueryMode::Estimate, &[Itemset::empty()]) {
        Response::Estimates(v) => assert_eq!(v.len(), 1),
        other => panic!("released slot must restore service, got {other:?}"),
    }
    assert_eq!(server.stats().in_flight, 0);
}

/// The protocol's contract edges, each with its specific typed refusal.
#[test]
fn contract_edges_refuse_typed() {
    let mut rng = Rng64::seeded(0xED6E5);
    let db = generators::uniform(30, 12, 0.3, &mut rng);
    let rdb_frame = ReleaseDb::build(&db, 0.2).snapshot_bytes();
    let rai_frame = ReleaseAnswersIndicator::build(&db, 2, 0.2).snapshot_bytes();
    let server = SketchServer::new(ServeConfig::default());

    // Zero-sketch hot set: queries refuse with the unknown id, empty or not.
    assert_eq!(
        expect_error(serve_batch(&server, 7, QueryMode::Estimate, &[])),
        ServeError::UnknownSketch { id: 7 }
    );

    server.load_frame(0, 2, &rdb_frame).expect("admit release-db");
    server.load_frame(1, 1, &rai_frame).expect("admit answers store");

    // Empty batches answer empty, in both modes — not an error.
    assert_eq!(serve_batch(&server, 0, QueryMode::Estimate, &[]), Response::Estimates(vec![]));
    assert_eq!(serve_batch(&server, 0, QueryMode::Indicator, &[]), Response::Indicators(vec![]));

    // Out-of-contract queries: item beyond dims, wrong cardinality.
    let err = expect_error(serve_batch(
        &server,
        0,
        QueryMode::Estimate,
        &[Itemset::empty(), Itemset::singleton(12)],
    ));
    assert!(matches!(err, ServeError::BadQuery { index: 1, .. }), "{err}");
    let err = expect_error(serve_batch(
        &server,
        1,
        QueryMode::Indicator,
        &[Itemset::new(vec![0, 1]), Itemset::singleton(3)],
    ));
    assert!(matches!(err, ServeError::BadQuery { index: 1, .. }), "{err}");

    // A mode the sketch's contract cannot answer.
    assert_eq!(
        expect_error(serve_batch(&server, 1, QueryMode::Estimate, &[Itemset::new(vec![0, 1])])),
        ServeError::Unanswerable {
            kind: itemset_sketches::core::snapshot::KIND_RELEASE_ANSWERS_INDICATOR,
            mode: QueryMode::Estimate,
        }
    );

    // A frame larger than the whole hot-set budget refuses at admission
    // and leaves no partial state behind.
    let tiny = SketchServer::new(ServeConfig { budget_bits: 8, ..Default::default() });
    assert_eq!(
        tiny.load_frame(0, 1, &rdb_frame),
        Err(ServeError::FrameOverBudget { size_bits: rdb_frame.len() as u64 * 8, budget_bits: 8 })
    );
    assert_eq!(tiny.stats().admitted, 0);

    // An unservable kind (a counter sketch) refuses over the wire too.
    let mut cm = itemset_sketches::streaming::CountMinSketch::<u32>::new(64, 2, false, 7);
    cm.update(3);
    let resp = handle(
        &server,
        &Request::Load { id: 9, threads: 1, frame: cm.snapshot_bytes() }.to_bytes(),
    );
    assert_eq!(
        expect_error(resp),
        ServeError::UnservableKind { kind: itemset_sketches::core::snapshot::KIND_COUNT_MIN }
    );
}

/// The whole tier over a real loopback connection: load, query both
/// modes, and verify bit identity against the offline engine — the
/// in-process identity property, with a socket in the middle.
#[test]
fn tcp_roundtrip_serves_identical_answers() {
    let mut rng = Rng64::seeded(0x7C9);
    let db = generators::uniform(60, 24, 0.3, &mut rng);
    let offline = ReleaseDb::build(&db, 0.2);
    let frame = offline.snapshot_bytes();
    let queries = random_queries(24, 30, &mut rng);

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    let server = SketchServer::new(ServeConfig::default());
    std::thread::scope(|scope| {
        scope.spawn(|| pool::serve_pooled(&server, &listener, 1, Some(1)).expect("serve one"));
        let mut client = net::Client::connect(&addr, 5_000).expect("connect");
        let resp = client
            .call(&Request::Load { id: 4, threads: 2, frame: frame.clone() })
            .expect("transport")
            .expect("decode");
        assert!(matches!(resp, Response::Loaded { id: 4, .. }), "{resp:?}");
        let resp = client
            .call(&Request::Query { id: 4, mode: QueryMode::Indicator, queries: queries.clone() })
            .expect("transport")
            .expect("decode");
        assert_eq!(resp, Response::Indicators(offline.is_frequent_batch(&queries)));
        // A garbage request on the same connection gets a typed refusal
        // (and, being unframeable, a close).
        let err = expect_error(handle(&server, b"junk"));
        assert!(matches!(err, ServeError::Decode(DecodeError::BadMagic(_))), "{err}");
    });
}

/// The served-sketch dispatch admits every servable kind and the admitted
/// sketch's measured size matches what the server charges the budget.
#[test]
fn admission_size_accounting_is_measured() {
    let mut rng = Rng64::seeded(0xACC7);
    let db = generators::uniform(40, 20, 0.3, &mut rng);
    let frames = [
        ReleaseDb::build(&db, 0.2).snapshot_bytes(),
        Subsample::with_sample_count_seeded(&db, 16, 0.2, 0x51).snapshot_bytes(),
        ReleaseAnswersIndicator::build(&db, 2, 0.2).snapshot_bytes(),
        ReleaseAnswersEstimator::build(&db, 2, 0.2).snapshot_bytes(),
    ];
    let server = SketchServer::new(ServeConfig::default());
    for (id, frame) in frames.iter().enumerate() {
        let out = server.load_frame(id as u64, 1, frame).expect("servable");
        let (kind, size_bits) = (out.kind, out.size_bits);
        assert_eq!(size_bits, frame.len() as u64 * 8, "kind {kind}: size must be measured");
        assert_eq!((out.generation, out.previous_kind), (1, None), "first admit of each id");
        let sketch = ServedSketch::admit(frame, 1).expect("admit");
        assert_eq!(sketch.kind(), kind);
        // Empty batches are answerable on every kind that supports the mode.
        if !matches!(sketch, ServedSketch::AnswersIndicator(_)) {
            assert_eq!(sketch.answer(QueryMode::Estimate, &[]), Ok(Answers::Estimates(vec![])));
        }
    }
    let stats = server.stats();
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.hot, 4);
    assert_eq!(stats.hot_bits, frames.iter().map(|f| f.len() as u64 * 8).sum::<u64>());
}
