//! Crash-recovery round-trips for the sketch log, end to end through the
//! serving tier (DESIGN.md §14).
//!
//! A server booted from a log that lost its tail must serve *exactly* the
//! answers of the surviving record prefix — bit for bit, at 1 and 4
//! per-sketch threads — and the two log rewrites (compaction, migration)
//! must be invisible to every query. Identity is always checked at the
//! byte level: the serialized query `Response`s are compared, not just
//! the decoded numbers.

use itemset_sketches::prelude::*;
use itemset_sketches::serve::{EncodeBuf, QueryMode, Request, Response, ServeConfig, SketchServer};
use itemset_sketches::store::materialize;
use itemset_sketches::streaming::{CountMinSketch, StreamCounter};
use std::collections::BTreeMap;
use std::path::PathBuf;

const DIMS: usize = 24;
const EPSILON: f64 = 0.1;
const RAI_K: usize = 2;

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        Scratch(std::env::temp_dir().join(format!("ifs-store-{}-{tag}.log", std::process::id())))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn db(seed: u64, rows: usize) -> Database {
    let mut rng = Rng64::seeded(seed);
    generators::uniform(rows, DIMS, 0.3, &mut rng)
}

/// Writes the test fleet: a ReleaseDb merge run split at the half, a decoy
/// `Put` later shadowed, a Subsample, both answers stores, and one
/// unservable Count-Min record (a shared log legitimately carries those).
fn write_fleet_log(path: &std::path::Path, seed: u64) -> SketchLog {
    let full = db(seed, 40);
    let mut log = SketchLog::create(path).expect("create");
    let half = full.rows() / 2;
    let front: Vec<Vec<u32>> = (0..half).map(|r| full.row_itemset(r).items().to_vec()).collect();
    let back: Vec<Vec<u32>> =
        (half..full.rows()).map(|r| full.row_itemset(r).items().to_vec()).collect();
    let front_db = Database::from_rows(DIMS, &front);
    let back_db = Database::from_rows(DIMS, &back);
    log.append(LogOp::Merge, 0, &ReleaseDb::build(&front_db, EPSILON).snapshot_bytes())
        .expect("append");
    log.append(LogOp::Merge, 0, &ReleaseDb::build(&back_db, EPSILON).snapshot_bytes())
        .expect("append");
    // A decoy that the later Put must shadow.
    log.append(LogOp::Put, 1, &ReleaseDb::build(&db(seed ^ 1, 5), EPSILON).snapshot_bytes())
        .expect("append");
    log.append(
        LogOp::Put,
        1,
        &Subsample::with_sample_count_seeded(&full, 12, EPSILON, seed ^ 2).snapshot_bytes(),
    )
    .expect("append");
    log.append(
        LogOp::Put,
        2,
        &ReleaseAnswersIndicator::build(&full, RAI_K, EPSILON).snapshot_bytes(),
    )
    .expect("append");
    log.append(
        LogOp::Put,
        3,
        &ReleaseAnswersEstimator::build(&full, RAI_K, EPSILON).snapshot_bytes(),
    )
    .expect("append");
    let mut cm: CountMinSketch<u64> = CountMinSketch::new(32, 3, false, seed);
    (0..64u64).for_each(|i| cm.update(i % 9));
    log.append(LogOp::Put, 99, &cm.snapshot_bytes()).expect("append");
    log
}

/// Deterministic query log; the answers-store id gets exactly-`k` queries.
fn queries(seed: u64, k: Option<usize>) -> Vec<Itemset> {
    let mut rng = Rng64::seeded(seed);
    (0..32)
        .map(|_| {
            let len = k.unwrap_or_else(|| rng.below(4));
            Itemset::new(rng.distinct_sorted(DIMS, len).iter().map(|&i| i as u32).collect())
        })
        .collect()
}

/// Boots a server from materialized frames (skipping unservable kinds,
/// exactly as `ifs-serve --log` does) and returns the *serialized* answer
/// bytes of one fixed query batch per live servable id.
fn serve_all(live: &BTreeMap<u64, Vec<u8>>, threads: usize) -> Vec<(u64, Vec<u8>)> {
    let server = SketchServer::new(ServeConfig::default());
    let mut buf = EncodeBuf::new();
    let mut out = Vec::new();
    for (&id, frame) in live {
        let info = itemset_sketches::database::codec::peek_frame(frame).expect("valid frame");
        if !(1..=4).contains(&info.kind) {
            continue; // unservable: ingestion partial or counter sketch
        }
        server.load_frame(id, threads, frame).expect("admit");
        let (mode, qs) = match info.kind {
            3 => (QueryMode::Indicator, queries(0xBEEF, Some(RAI_K))),
            4 => (QueryMode::Estimate, queries(0xBEEF, Some(RAI_K))),
            _ => (QueryMode::Estimate, queries(0xBEEF, None)),
        };
        let resp =
            server.handle_into(&Request::Query { id, mode, queries: qs }.to_bytes(), &mut buf);
        match Response::from_bytes(resp).expect("decodable response") {
            Response::Error(e) => panic!("id {id}: {e}"),
            _ => out.push((id, resp.to_vec())),
        }
    }
    out
}

/// Truncation at every byte of the tail record and at every record
/// boundary: the reopened log serves exactly the surviving prefix's
/// answers, bit-identically at 1 and 4 threads.
#[test]
fn crash_truncated_logs_serve_the_surviving_prefix_identically() {
    let prey = Scratch::new("crash");
    let log = write_fleet_log(&prey.0, 7);
    let records = log.records().expect("scan");
    let bytes = std::fs::read(&prey.0).expect("read");
    // Every record boundary, plus every byte inside the final record.
    let mut cuts: Vec<usize> = records.iter().map(|r| r.offset as usize).collect();
    cuts.extend(records.last().expect("nonempty").offset as usize + 1..=bytes.len());
    let scratch = Scratch::new("crash-cut");
    for cut in cuts {
        std::fs::write(&scratch.0, &bytes[..cut]).expect("write cut");
        let (recovered, report) = SketchLog::open(&scratch.0).expect("recover");
        // The survivors are exactly the records that end inside the cut.
        let next_start = |i: usize| records.get(i + 1).map_or(bytes.len(), |r| r.offset as usize);
        let complete = records.iter().enumerate().filter(|&(i, _)| next_start(i) <= cut).count();
        assert_eq!(report.records as usize, complete, "cut at {cut}");
        let expected = materialize(&records[..complete]).expect("prefix");
        let live = recovered.materialize().expect("materialize");
        assert_eq!(live, expected, "cut at {cut}: materialization must be the record prefix");
        let single = serve_all(&live, 1);
        assert_eq!(single, serve_all(&live, 4), "cut at {cut}: thread-count identity");
        assert_eq!(single, serve_all(&expected, 1), "cut at {cut}: prefix identity");
    }
}

/// Compaction is invisible to queries: the compacted log's answers equal
/// the uncompacted log's, bit for bit, at both thread counts — and a
/// compacted fleet log is strictly smaller.
#[test]
fn compaction_is_query_invisible() {
    let src = Scratch::new("compact-src");
    let dst = Scratch::new("compact-dst");
    let log = write_fleet_log(&src.0, 21);
    let (compacted, stats) = log.compact_into(&dst.0).expect("compact");
    assert_eq!(stats.records_in, 7);
    assert_eq!(stats.records_out, 5, "ids 0, 1, 2, 3, 99");
    assert!(stats.bytes_out < stats.bytes_in, "{stats:?}");
    let before = log.materialize().expect("m");
    let after = compacted.materialize().expect("m");
    assert_eq!(before, after, "frame-level identity");
    for threads in [1, 4] {
        assert_eq!(
            serve_all(&before, threads),
            serve_all(&after, threads),
            "served identity at {threads} threads"
        );
    }
}

/// Migration rewrites exactly the stale frames, shrinks a sparse v1 log,
/// and serves bit-identical answers before and after — the cross-version
/// compatibility story, end to end.
#[test]
fn migration_is_query_invisible_and_shrinks_sparse_v1_logs() {
    let src = Scratch::new("migrate-src");
    let dst = Scratch::new("migrate-dst");
    // A sparse database is where the v2 run-length layout pays off.
    let mut rng = Rng64::seeded(5);
    let sparse = generators::uniform(300, DIMS, 0.03, &mut rng);
    let mut log = SketchLog::create(&src.0).expect("create");
    log.append(LogOp::Put, 0, &ReleaseDb::build(&sparse, EPSILON).snapshot_bytes_v1())
        .expect("append");
    log.append(
        LogOp::Put,
        1,
        &Subsample::with_sample_count_seeded(&sparse, 8, EPSILON, 3).snapshot_bytes(),
    )
    .expect("append");
    let (migrated, stats) = log.migrate_into(&dst.0).expect("migrate");
    assert_eq!(stats.records, 2);
    assert_eq!(stats.rewritten, 1, "only the v1 ReleaseDb frame is stale");
    assert!(stats.bytes_out < stats.bytes_in, "v2 must shrink a sparse log: {stats:?}");
    for threads in [1, 4] {
        assert_eq!(
            serve_all(&log.materialize().expect("m"), threads),
            serve_all(&migrated.materialize().expect("m"), threads),
            "served identity at {threads} threads"
        );
    }
    // The decoded sketches are `==` across the version boundary too.
    let a = ReleaseDb::from_snapshot(&log.materialize().expect("m")[&0]).expect("v1");
    let b = ReleaseDb::from_snapshot(&migrated.materialize().expect("m")[&0]).expect("v2");
    assert_eq!(a, b);
}
