//! Bench gate: the sketch store's space and throughput claims (DESIGN.md §14).
//!
//! Three claims get numbers here, all on the sparse workload the v2
//! `ReleaseDb` layout was designed for (10k × 128 at ~3% density):
//!
//! * **Space** — the v2 run-length body is at least **2×** smaller than
//!   the v1 raw-words body on sparse data. Every run *asserts* the ratio,
//!   so the claim cannot silently rot.
//! * **Throughput** — log append, recovery replay (open + strict scan),
//!   and compaction, in MB/s over the on-disk log size.
//! * **Identity** — every pass decodes the v1 and v2 frames back and
//!   asserts `==` with the source sketch, and materializes the compacted
//!   log to the same frames as the original: the speed being measured is
//!   the speed of the *correct* code path.
//!
//! A release run emits `bench_results/BENCH_store.json` (sizes, ratio,
//! MB/s) with the usual `mode` field. Run with `cargo bench -p ifs-bench
//! --bench sketch_store` (release) or `cargo test --benches` (debug smoke).

use ifs_bench::write_bench_json;
use ifs_core::snapshot::Snapshot;
use ifs_core::ReleaseDb;
use ifs_database::generators;
use ifs_store::{LogOp, SketchLog};
use ifs_util::Rng64;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Full scale in release; the debug smoke shrinks the database (ratios and
/// identities are scale-free).
const ROWS: usize = if cfg!(debug_assertions) { 1_000 } else { 10_000 };
const DIMS: usize = 128;
const DENSITY: f64 = 0.03;
const SEED: u64 = 0x5702E;
/// The space claim under test: v2 must be at least this factor smaller.
const MIN_V2_RATIO: f64 = 2.0;
/// Shards the sparse database into this many logged merge partials.
const LOG_SHARDS: usize = 16;

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        Scratch(std::env::temp_dir().join(format!("ifs-bench-{}-{tag}.log", std::process::id())))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn sparse_release_db() -> ReleaseDb {
    let mut rng = Rng64::seeded(SEED);
    ReleaseDb::build(&generators::uniform(ROWS, DIMS, DENSITY, &mut rng), 0.05)
}

/// Shards the database row-wise into `LOG_SHARDS` ReleaseDb partials, the
/// shape a streaming ingester logs as one merge run.
fn shard_frames(db: &ifs_database::Database) -> Vec<Vec<u8>> {
    let chunk = db.rows().div_ceil(LOG_SHARDS);
    (0..db.rows())
        .step_by(chunk)
        .map(|start| {
            let rows: Vec<Vec<u32>> = (start..(start + chunk).min(db.rows()))
                .map(|r| db.row_itemset(r).items().to_vec())
                .collect();
            ReleaseDb::build(&ifs_database::Database::from_rows(DIMS, &rows), 0.05).snapshot_bytes()
        })
        .collect()
}

struct Numbers {
    v1_bytes: usize,
    v2_bytes: usize,
    ratio: f64,
    append_mbps: f64,
    replay_mbps: f64,
    compact_mbps: f64,
    log_bytes: u64,
    log_records: u64,
}

/// One full measured pass: sizes, append, replay, compact — with the
/// identity assertions inline.
fn measured_pass(iters: usize) -> Numbers {
    let rdb = sparse_release_db();
    let v1 = rdb.snapshot_bytes_v1();
    let v2 = rdb.snapshot_bytes();
    // Identity across the version boundary, every pass.
    assert_eq!(ReleaseDb::from_snapshot(&v1).expect("v1 decodes"), rdb);
    assert_eq!(ReleaseDb::from_snapshot(&v2).expect("v2 decodes"), rdb);
    let ratio = v1.len() as f64 / v2.len() as f64;
    assert!(
        ratio >= MIN_V2_RATIO,
        "v2 ReleaseDb must be ≥{MIN_V2_RATIO}x smaller than v1 on sparse {ROWS}x{DIMS} \
         (got {} vs {} bytes, {ratio:.2}x)",
        v2.len(),
        v1.len(),
    );

    let mut rng = Rng64::seeded(SEED);
    let db = generators::uniform(ROWS, DIMS, DENSITY, &mut rng);
    let frames = shard_frames(&db);

    // Append: one merge run plus a few puts, timed over the log bytes.
    let scratch = Scratch::new("append");
    let mut append_secs = 0.0;
    let mut log_bytes = 0;
    let mut log_records = 0;
    for _ in 0..iters {
        let t = Instant::now();
        let mut log = SketchLog::create(&scratch.0).expect("create");
        for frame in &frames {
            log.append(LogOp::Merge, 0, frame).expect("append");
        }
        log.append(LogOp::Put, 1, &v2).expect("append");
        log.append(LogOp::Put, 2, &v1).expect("append");
        append_secs += t.elapsed().as_secs_f64();
        log_bytes = log.len_bytes();
        log_records = log.record_count();
    }

    // Replay: recovery open + strict scan of the whole file.
    let mut replay_secs = 0.0;
    for _ in 0..iters {
        let t = Instant::now();
        let (log, report) = SketchLog::open(&scratch.0).expect("open");
        assert!(report.clean());
        black_box(log.records().expect("scan").len());
        replay_secs += t.elapsed().as_secs_f64();
    }

    // Compact: fold the merge run, write the superseding log — then
    // assert the compacted log materializes identically.
    let (src, _) = SketchLog::open(&scratch.0).expect("open");
    let dst = Scratch::new("compact");
    let mut compact_secs = 0.0;
    let mut stats = None;
    for _ in 0..iters {
        let t = Instant::now();
        let (_, s) = src.compact_into(&dst.0).expect("compact");
        compact_secs += t.elapsed().as_secs_f64();
        stats = Some(s);
    }
    let stats = stats.expect("at least one iter");
    let (compacted, _) = SketchLog::open(&dst.0).expect("reopen");
    assert_eq!(
        compacted.materialize().expect("m"),
        src.materialize().expect("m"),
        "compacted == uncompacted"
    );
    assert_eq!(stats.records_out, 3, "one Put per live id");
    assert!(stats.bytes_out < stats.bytes_in);
    // The folded merge run equals the one-shot build over all rows.
    let folded =
        ReleaseDb::from_snapshot(&compacted.materialize().expect("m")[&0]).expect("decode");
    assert_eq!(folded, ReleaseDb::build(&db, 0.05), "fold == one-shot build");

    let mb = log_bytes as f64 / (1024.0 * 1024.0) * iters as f64;
    Numbers {
        v1_bytes: v1.len(),
        v2_bytes: v2.len(),
        ratio,
        append_mbps: mb / append_secs.max(1e-12),
        replay_mbps: mb / replay_secs.max(1e-12),
        compact_mbps: mb / compact_secs.max(1e-12),
        log_bytes,
        log_records,
    }
}

fn main() {
    let iters = if cfg!(debug_assertions) { 1 } else { 10 };
    let n = measured_pass(iters);
    println!(
        "sketch_store: ReleaseDb v1 {} bytes, v2 {} bytes ({:.2}x smaller) on sparse \
         {ROWS}x{DIMS} @ {DENSITY}",
        n.v1_bytes, n.v2_bytes, n.ratio
    );
    println!(
        "sketch_store: log {} bytes / {} records; append {:.1} MB/s replay {:.1} MB/s \
         compact {:.1} MB/s",
        n.log_bytes, n.log_records, n.append_mbps, n.replay_mbps, n.compact_mbps
    );
    let fields = format!(
        "  \"rows\": {ROWS},\n  \
         \"dims\": {DIMS},\n  \"density\": {DENSITY},\n  \"release_db\": {{\n    \
         \"v1_bytes\": {},\n    \"v2_bytes\": {},\n    \"v1_over_v2\": {:.2},\n    \
         \"min_required_ratio\": {MIN_V2_RATIO}\n  }},\n  \"log\": {{\n    \
         \"bytes\": {},\n    \"records\": {},\n    \"shards\": {LOG_SHARDS},\n    \
         \"append_mb_per_sec\": {:.1},\n    \"replay_mb_per_sec\": {:.1},\n    \
         \"compact_mb_per_sec\": {:.1}\n  }}",
        n.v1_bytes,
        n.v2_bytes,
        n.ratio,
        n.log_bytes,
        n.log_records,
        n.append_mbps,
        n.replay_mbps,
        n.compact_mbps
    );
    write_bench_json("sketch_store", "BENCH_store.json", &fields);
}
