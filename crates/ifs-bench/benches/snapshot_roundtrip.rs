//! Bench gate: snapshot codec throughput — encode/decode MB/s per sketch,
//! plus the `size_bits == encoded length` invariant (DESIGN.md §10).
//!
//! Every sketch's `size_bits()` is now the length of its snapshot
//! encoding, so this bench is both a performance measurement (can the
//! offline-build / online-serve split afford to ship snapshots?) and the
//! standing proof that the measurement is real: every run asserts, for
//! every sketch type, that decode(encode(s)) == s and that
//! `size_bits()` equals the byte length × 8.
//!
//! A release run emits `bench_results/BENCH_snapshot.json` (bytes per
//! sketch, `size_bits`, encode/decode MB/s) so snapshot sizes and codec
//! throughput stay machine-readable across PRs, next to `BENCH_ingest.json`.
//! It has two `ReleaseDb` rows: the dense 128-item `release_db`, nearly all
//! RAW row groups, and the sparse 64-item `release_db_basket64`, mostly
//! ITEMS groups.
//!
//! Run with `cargo bench -p ifs-bench --bench snapshot_roundtrip` (release)
//! or `cargo test --benches` (debug smoke).

use ifs_bench::write_bench_json;
use ifs_core::snapshot::Snapshot;
use ifs_core::{ReleaseAnswersEstimator, ReleaseAnswersIndicator, ReleaseDb, Subsample};
use ifs_database::generators::{self, MarketBasketSpec};
use ifs_streaming::{CountMinSketch, CountSketch, StreamCounter};
use ifs_util::Rng64;
use std::hint::black_box;
use std::time::Instant;

/// Full scale in release; the debug smoke pass shrinks the database (the
/// identities are scale-free, and codec MB/s in debug mode is not a number
/// anyone should read).
const TOTAL_ROWS: usize = if cfg!(debug_assertions) { 10_000 } else { 100_000 };
const DIMS: usize = 128;
const SAMPLE_ROWS: usize = 4_000;
const SEED: u64 = 0x5A47;

/// One sketch's measurements for the JSON artifact.
struct Entry {
    name: &'static str,
    bytes: usize,
    size_bits: u64,
    encode_mbps: f64,
    decode_mbps: f64,
}

/// Times `iters` encode and decode passes of `sketch`, asserting the
/// round-trip identity and the measured-size invariant on the way.
fn measure<S>(name: &'static str, sketch: &S, size_bits: u64, iters: usize) -> Entry
where
    S: Snapshot + PartialEq + std::fmt::Debug,
{
    let bytes = sketch.snapshot_bytes();
    assert_eq!(
        size_bits,
        bytes.len() as u64 * 8,
        "{name}: size_bits must equal the encoded length in bits"
    );
    let decoded = S::from_snapshot(&bytes).unwrap_or_else(|e| panic!("{name}: decode failed: {e}"));
    assert!(&decoded == sketch, "{name}: decode(encode(sketch)) != sketch");

    let t = Instant::now();
    for _ in 0..iters {
        black_box(sketch.snapshot_bytes().len());
    }
    let encode = t.elapsed().as_secs_f64().max(1e-12);
    // Decode alone: the identity check above stays out of the timed loop.
    let t = Instant::now();
    for _ in 0..iters {
        black_box(S::from_snapshot(black_box(&bytes)).expect("roundtrip"));
    }
    let decode = t.elapsed().as_secs_f64().max(1e-12);
    let mb = (bytes.len() * iters) as f64 / (1024.0 * 1024.0);
    Entry {
        name,
        bytes: bytes.len(),
        size_bits,
        encode_mbps: mb / encode,
        decode_mbps: mb / decode,
    }
}

/// Items of the sparse `ReleaseDb` row: one packed word per row.
const BASKET_ITEMS: usize = 64;

/// The sketch zoo every pass measures: all six snapshot-backed sketches
/// over one planted workload, plus a sparse one-word `ReleaseDb` whose
/// rows the codec writes mostly as ITEMS groups, the shape every served
/// release has (the dense `release_db` row is nearly all RAW groups).
#[allow(clippy::type_complexity)]
fn build_zoo() -> (
    Subsample,
    ReleaseDb,
    ReleaseDb,
    ReleaseAnswersIndicator,
    ReleaseAnswersEstimator,
    CountMinSketch<u32>,
    CountSketch<u32>,
) {
    let mut rng = Rng64::seeded(SEED);
    let db = generators::uniform(TOTAL_ROWS, DIMS, 0.15, &mut rng);
    let sub = Subsample::with_sample_count_seeded(&db, SAMPLE_ROWS, 0.05, SEED);
    let rdb = ReleaseDb::build(&db, 0.1);
    let small = generators::uniform(TOTAL_ROWS / 10, 24, 0.3, &mut rng);
    let ind = ReleaseAnswersIndicator::build(&small, 2, 0.1);
    let est = ReleaseAnswersEstimator::build(&small, 2, 0.05);
    let mut cm = CountMinSketch::new(2048, 4, false, SEED);
    let mut cs = CountSketch::new(2048, 3, SEED);
    for _ in 0..50_000 {
        let x = rng.below(5_000) as u32;
        cm.update(x);
        cs.update(x);
    }
    // Its own generator, so the rows above keep their bytes.
    let spec = MarketBasketSpec {
        transactions: TOTAL_ROWS,
        items: BASKET_ITEMS,
        mean_basket: 6.0,
        ..MarketBasketSpec::default()
    };
    let basket = ReleaseDb::build(&generators::market_basket(&spec, &mut Rng64::seeded(SEED)), 0.1);
    (sub, rdb, basket, ind, est, cm, cs)
}

fn main() {
    let (sub, rdb, basket, ind, est, cm, cs) = build_zoo();
    let iters = if cfg!(debug_assertions) { 3 } else { 20 };
    let entries = [
        measure("subsample", &sub, ifs_core::Sketch::size_bits(&sub), iters),
        measure("release_db", &rdb, ifs_core::Sketch::size_bits(&rdb), iters),
        measure("release_db_basket64", &basket, ifs_core::Sketch::size_bits(&basket), iters),
        measure("release_answers_indicator", &ind, ifs_core::Sketch::size_bits(&ind), iters),
        measure("release_answers_estimator", &est, ifs_core::Sketch::size_bits(&est), iters),
        measure("count_min", &cm, StreamCounter::size_bits(&cm), iters),
        measure("count_sketch", &cs, StreamCounter::size_bits(&cs), iters),
    ];
    for e in &entries {
        println!(
            "snapshot_roundtrip: {:<26} {:>9} bytes ({} bits) encode {:>8.1} MB/s decode \
             {:>8.1} MB/s",
            e.name, e.bytes, e.size_bits, e.encode_mbps, e.decode_mbps
        );
    }
    let sketches: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "    {{ \"name\": \"{}\", \"bytes\": {}, \"size_bits\": {}, \
                 \"encode_mb_per_sec\": {:.1}, \"decode_mb_per_sec\": {:.1} }}",
                e.name, e.bytes, e.size_bits, e.encode_mbps, e.decode_mbps
            )
        })
        .collect();
    let fields = format!(
        "  \"rows_total\": {TOTAL_ROWS},\n  \"dims\": {DIMS},\n  \
         \"sample_rows\": {SAMPLE_ROWS},\n  \"basket_items\": {BASKET_ITEMS},\n  \
         \"sketches\": [\n{}\n  ]",
        sketches.join(",\n")
    );
    write_bench_json("snapshot_roundtrip", "BENCH_snapshot.json", &fields);
}
