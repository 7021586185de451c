//! Offline build, online serve: sketches cross a process boundary as
//! versioned snapshots, and queries cross back over the serving protocol
//! (DESIGN.md §10–§11).
//!
//! The ROADMAP's target deployment splits in two: an offline tier with the
//! full database builds sketches (sharded across cores, §8/§9), and a
//! serving tier that never sees a row of raw data answers user queries
//! from sketch bytes alone. This example runs that split end to end over a
//! real socket: build → `snapshot_bytes()` → `ifs_serve::SketchServer` on
//! a loopback listener → `Load`/`Query` frames from a client — and asserts
//! the served answers are bit-identical to querying the never-serialized
//! originals. Along the way it prints each sketch's `size_bits()`, which
//! since the snapshot layer is exactly the byte length the serving tier
//! just received: the paper's `|S|`, measured.
//!
//! It also exercises the tier's refusal edges: a Count-Min frame is
//! *admissible bytes but not a servable sketch* (counter partials ship to
//! ingestion mergers, not query servers), a version-skewed frame refuses
//! before its body is touched, and both come back as typed errors over the
//! wire, never panics.
//!
//! Run with: `cargo run --release --example snapshot_serving`

use itemset_sketches::prelude::*;
use itemset_sketches::serve::{
    net, pool, EncodeBuf, QueryMode, Request, Response, ServeConfig, ServeError, SketchServer,
};
use itemset_sketches::streaming::{CountMinSketch, StreamCounter};
use std::net::TcpListener;
use std::time::Instant;

const TOTAL_ROWS: usize = 40_000;
const DIMS: usize = 64;
const SAMPLE_ROWS: usize = 3_000;
const QUERY_LOG: usize = 2_000;
const SEED: u64 = 0x0FF1CE;

const SAMPLE_ID: u64 = 0;
const ANSWERS_ID: u64 = 1;

fn main() {
    // ---- Offline tier: full data, sharded builds (§8/§9). -------------
    let mut rng = Rng64::seeded(SEED);
    let hot = Itemset::new(vec![5, 21]);
    let db = {
        let mut d = Database::zeros(0, DIMS);
        let rows: Vec<Itemset> = (0..TOTAL_ROWS)
            .map(|_| {
                let mut row: Vec<u32> = (0..DIMS as u32).filter(|_| rng.bernoulli(0.1)).collect();
                if rng.bernoulli(0.3) {
                    row.extend_from_slice(hot.items());
                }
                row.into_iter().collect::<Itemset>()
            })
            .collect();
        d.append_rows(&rows);
        d
    };

    let t = Instant::now();
    let sample = Subsample::with_sample_count_sharded(&db, SAMPLE_ROWS, 0.05, SEED, 4);
    let answers = ReleaseAnswersIndicator::build(&db, 2, 0.1);
    // Item-level heavy hitters ride the same wire format: a Count-Min over
    // every item arrival in the row stream.
    let mut cm = CountMinSketch::<u32>::new(1024, 4, false, SEED);
    for r in 0..db.rows() {
        for &item in db.row_itemset(r).items() {
            cm.update(item);
        }
    }
    println!(
        "offline tier: built 3 sketches from {} rows x {} dims in {:?}",
        db.rows(),
        db.dims(),
        t.elapsed()
    );

    // ---- The wire: snapshots are all that crosses. ---------------------
    let sample_bytes = sample.snapshot_bytes();
    let answers_bytes = answers.snapshot_bytes();
    let cm_bytes = cm.snapshot_bytes();
    let full_bits = ReleaseDb::build(&db, 0.05).size_bits();
    for (name, sketch_bits, bytes) in [
        ("SUBSAMPLE", sample.size_bits(), &sample_bytes),
        ("RELEASE-ANSWERS", answers.size_bits(), &answers_bytes),
        ("COUNT-MIN", StreamCounter::size_bits(&cm), &cm_bytes),
    ] {
        assert_eq!(sketch_bits, bytes.len() as u64 * 8, "{name}: size_bits must be measured");
        println!(
            "  {name:<16} {:>8} bytes on the wire ({sketch_bits} bits = {:.2}% of the full \
             database's RELEASE-DB frame)",
            bytes.len(),
            100.0 * sketch_bits as f64 / full_bits as f64
        );
    }

    // Reference answers from the never-serialized originals.
    let queries: Vec<Itemset> = (0..QUERY_LOG)
        .map(|q| match q % 7 {
            0 => hot.clone(),
            _ => (0..1 + q % 3).map(|_| rng.below(DIMS) as u32).collect(),
        })
        .collect();
    let reference_est = sample.with_threads(2).estimate_batch(&queries);
    let pair_queries: Vec<Itemset> = queries.iter().filter(|t| t.len() == 2).cloned().collect();
    let reference_ind: Vec<bool> = pair_queries.iter().map(|t| answers.is_frequent(t)).collect();
    let hot_item = hot.items()[0];
    let reference_cm = cm.estimate(&hot_item);

    // ---- Serving tier: a server process that only ever sees bytes. ------
    let t = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = SketchServer::new(ServeConfig::default());
    let (served_est, served_ind) = std::thread::scope(|scope| {
        scope.spawn(|| pool::serve_pooled(&server, &listener, 1, Some(1)).expect("serve"));
        let mut client = net::Client::connect(&addr, 5_000).expect("connect");
        let mut call =
            |req: Request| client.call(&req).expect("transport").expect("response decodes");

        // Load the two *frequency* sketches; the serving tier admits them
        // by kind through the snapshot registry.
        for (id, frame) in [(SAMPLE_ID, &sample_bytes), (ANSWERS_ID, &answers_bytes)] {
            match call(Request::Load { id, threads: 2, frame: frame.clone() }) {
                Response::Loaded { size_bits, .. } => {
                    assert_eq!(size_bits, frame.len() as u64 * 8)
                }
                other => panic!("load {id}: unexpected response {other:?}"),
            }
        }
        // The Count-Min frame is valid bytes of an *unservable* kind:
        // counter partials ship to ingestion mergers, not query servers.
        match call(Request::Load { id: 9, threads: 1, frame: cm_bytes.clone() }) {
            Response::Error(ServeError::UnservableKind { kind }) => {
                println!("serving tier refused the Count-Min frame (kind {kind}) as unservable")
            }
            other => panic!("expected an unservable-kind refusal, got {other:?}"),
        }

        let est = match call(Request::Query {
            id: SAMPLE_ID,
            mode: QueryMode::Estimate,
            queries: queries.clone(),
        }) {
            Response::Estimates(v) => v,
            other => panic!("expected estimates, got {other:?}"),
        };
        let ind = match call(Request::Query {
            id: ANSWERS_ID,
            mode: QueryMode::Indicator,
            queries: pair_queries.clone(),
        }) {
            Response::Indicators(v) => v,
            other => panic!("expected indicators, got {other:?}"),
        };
        (est, ind)
    });
    // Count-Min answers stay on the direct snapshot path (its tier is the
    // ingestion merger, which decodes frames in-process).
    let served_cm = CountMinSketch::<u32>::from_snapshot(&cm_bytes)
        .expect("decode count-min")
        .estimate(&hot_item);
    println!(
        "serving tier: loaded 2 snapshots and answered {} queries over TCP in {:?}",
        queries.len() + pair_queries.len(),
        t.elapsed()
    );

    // The split is an execution strategy, never an approximation.
    assert_eq!(served_est, reference_est, "served estimates diverged from the build tier");
    assert_eq!(served_ind, reference_ind, "served indicators diverged from the build tier");
    assert_eq!(served_cm, reference_cm, "served Count-Min estimate diverged");
    println!(
        "identity: {} served answers bit-identical to the build tier; f(hot pair) ~ {:.4}",
        served_est.len() + served_ind.len() + 1,
        served_est[0]
    );

    // Version skew and corruption refuse with typed errors, not panics —
    // what a serving tier's rollout safety depends on.
    let mut skewed = sample_bytes.clone();
    skewed[6] = 0xFF;
    let refusal = Subsample::from_snapshot(&skewed).expect_err("future version must refuse");
    println!("version skew refused as expected: {refusal}");
    let offline = SketchServer::new(ServeConfig::default());
    let wire_refusal = Response::from_bytes(offline.handle_into(&skewed, &mut EncodeBuf::new()))
        .expect("refusals are valid responses");
    match wire_refusal {
        Response::Error(e) => println!("and over the wire it is still typed: {e}"),
        other => panic!("expected a typed wire refusal, got {other:?}"),
    }
}
