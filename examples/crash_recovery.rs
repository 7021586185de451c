//! Crash, recover, serve: the durable sketch log survives a torn write
//! and a server booted from the recovered file answers exactly what the
//! surviving records say (DESIGN.md §14).
//!
//! The scenario is the one the store was built for. An ingestion tier
//! appends sketch frames to an append-only log — a `ReleaseDb` merge run
//! arriving shard by shard, a finished `Subsample`, an answers store —
//! and the process dies mid-append, leaving a half-written record on
//! disk. This example:
//!
//! 1. writes the log and "crashes" it by truncating the file inside the
//!    final record's bytes;
//! 2. reopens it — recovery truncates the torn tail and reports exactly
//!    what it cut, and a strict scan of the recovered file is clean;
//! 3. boots a `SketchServer` from the materialized log (merge runs fold,
//!    later `Put`s shadow earlier ones) and asserts the served answers
//!    are bit-identical to sketches rebuilt from the survivors directly;
//! 4. compacts the log to one `Put` per live id and migrates any v1
//!    `ReleaseDb` frames to the v2 run-length layout, asserting both
//!    rewrites are invisible to every query;
//! 5. shows the safety edge: a file that is *not* a log is refused with
//!    a typed error, never truncated.
//!
//! Run with: `cargo run --release --example crash_recovery`

use itemset_sketches::prelude::*;
use itemset_sketches::serve::{EncodeBuf, QueryMode, Request, Response, ServeConfig, SketchServer};
use itemset_sketches::store::materialize;

const ROWS: usize = 2_000;
const DIMS: usize = 48;
const SHARDS: usize = 4;
const EPSILON: f64 = 0.05;
const SEED: u64 = 0xC4A5;

const RELEASE_ID: u64 = 0;
const SAMPLE_ID: u64 = 1;

fn main() {
    let dir = std::env::temp_dir();
    let log_path = dir.join(format!("ifs-crash-recovery-{}.log", std::process::id()));
    let mut rng = Rng64::seeded(SEED);
    let db = generators::uniform(ROWS, DIMS, 0.1, &mut rng);

    // ---- 1. Ingest: a merge run of ReleaseDb shards plus two puts. ----
    let mut log = SketchLog::create(&log_path).expect("create log");
    let chunk = ROWS.div_ceil(SHARDS);
    for start in (0..ROWS).step_by(chunk) {
        let rows: Vec<Vec<u32>> = (start..(start + chunk).min(ROWS))
            .map(|r| db.row_itemset(r).items().to_vec())
            .collect();
        let shard = ReleaseDb::build(&Database::from_rows(DIMS, &rows), EPSILON);
        // The first v1 frame makes the later migration pass do real work.
        let frame = if start == 0 { shard.snapshot_bytes_v1() } else { shard.snapshot_bytes() };
        log.append(LogOp::Merge, RELEASE_ID, &frame).expect("append shard");
    }
    let sample = Subsample::with_sample_count_seeded(&db, 64, EPSILON, SEED ^ 1);
    log.append(LogOp::Put, SAMPLE_ID, &sample.snapshot_bytes()).expect("append sample");
    println!(
        "ingested {} records ({} bytes): a {SHARDS}-shard merge run and a Put",
        log.record_count(),
        log.len_bytes()
    );

    // ---- 2. Crash: tear the final record, then recover. ----
    let survivors = log.records().expect("scan");
    drop(log);
    let bytes = std::fs::read(&log_path).expect("read log");
    let torn_at = survivors.last().expect("records").offset as usize + 7;
    std::fs::write(&log_path, &bytes[..torn_at]).expect("tear the tail");
    println!("crashed mid-append: file cut to {torn_at} of {} bytes", bytes.len());

    let (recovered, report) = SketchLog::open(&log_path).expect("recovery must open");
    println!(
        "recovered: kept {} records / {} bytes, truncated {} bytes ({})",
        report.records,
        report.valid_bytes,
        report.truncated_bytes,
        report.reason.as_deref().unwrap_or("clean"),
    );
    assert_eq!(report.records + 1, survivors.len() as u64, "exactly the torn record was lost");
    recovered.records().expect("recovered file scans strictly clean");

    // ---- 3. Boot a server from the log; verify against a rebuild. ----
    let live = recovered.materialize().expect("materialize");
    let prefix = materialize(&survivors[..report.records as usize]).expect("prefix");
    assert_eq!(live, prefix, "materialization is exactly the surviving prefix");
    let server = SketchServer::new(ServeConfig::default());
    for (id, frame) in &live {
        server.load_frame(*id, 0, frame).expect("admit");
    }
    // The merge run folded the *surviving* shards; rebuild that sketch
    // directly from the same frames and compare served answers.
    let mut oracle: Option<ReleaseDb> = None;
    for rec in &survivors[..report.records as usize] {
        if rec.id == RELEASE_ID {
            let shard = ReleaseDb::from_snapshot(&rec.frame).expect("decode shard");
            match &mut oracle {
                None => oracle = Some(shard),
                Some(acc) => acc.merge(shard).expect("fold"),
            }
        }
    }
    let oracle = oracle.expect("the merge run survived");
    let queries: Vec<Itemset> = (0..256)
        .map(|_| {
            let k = rng.below(3) + 1;
            Itemset::new(rng.distinct_sorted(DIMS, k).iter().map(|&i| i as u32).collect())
        })
        .collect();
    let served = query(&server, RELEASE_ID, &queries);
    for (q, &got) in queries.iter().zip(&served) {
        assert_eq!(got.to_bits(), oracle.estimate(q).to_bits(), "{q:?}");
    }
    println!("served {} queries from the recovered log, bit-identical to the fold", served.len());

    // ---- 4. Compact, then migrate; both invisible to queries. ----
    let compact_path = dir.join(format!("ifs-crash-recovery-{}.compact", std::process::id()));
    let (compacted, cstats) = recovered.compact_into(&compact_path).expect("compact");
    println!(
        "compacted: {} -> {} records, {} -> {} bytes",
        cstats.records_in, cstats.records_out, cstats.bytes_in, cstats.bytes_out
    );
    assert_eq!(compacted.materialize().expect("m"), live, "compaction is invisible");
    let migrate_path = dir.join(format!("ifs-crash-recovery-{}.migrated", std::process::id()));
    let (migrated, mstats) = recovered.migrate_into(&migrate_path).expect("migrate");
    println!(
        "migrated: {} of {} frames rewritten to current versions, {} -> {} bytes",
        mstats.rewritten, mstats.records, mstats.bytes_in, mstats.bytes_out
    );
    assert_eq!(mstats.rewritten, 1, "exactly the v1 shard frame was stale");
    let a = ReleaseDb::from_snapshot(&live[&RELEASE_ID]).expect("decode");
    let b =
        ReleaseDb::from_snapshot(&migrated.materialize().expect("m")[&RELEASE_ID]).expect("decode");
    assert_eq!(a, b, "migration is invisible");

    // ---- 5. A foreign file is refused, never truncated. ----
    let foreign = dir.join(format!("ifs-crash-recovery-{}.notalog", std::process::id()));
    std::fs::write(&foreign, b"these are not the bytes you are looking for").expect("write");
    match SketchLog::open(&foreign) {
        Err(StoreError::NotALog { .. }) => {
            let untouched = std::fs::read(&foreign).expect("reread");
            assert_eq!(untouched.len(), 43, "refusal leaves the file byte-identical");
            println!("foreign file refused with a typed error, file untouched");
        }
        other => panic!("expected NotALog, got {other:?}"),
    }

    for p in [&log_path, &compact_path, &migrate_path, &foreign] {
        let _ = std::fs::remove_file(p);
    }
    println!("crash_recovery: all identities held");
}

/// One estimate batch through the server's byte-level entry point.
fn query(server: &SketchServer, id: u64, queries: &[Itemset]) -> Vec<f64> {
    let request = Request::Query { id, mode: QueryMode::Estimate, queries: queries.to_vec() };
    let mut buf = EncodeBuf::new();
    match Response::from_bytes(server.handle_into(&request.to_bytes(), &mut buf))
        .expect("decodable response")
    {
        Response::Estimates(v) => v,
        Response::Error(e) => panic!("{e}"),
        other => panic!("unexpected response {other:?}"),
    }
}
