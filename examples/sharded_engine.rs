//! Serving a high-QPS itemset-query log, from one core to all of them.
//!
//! The ROADMAP's production scenario, in three steps. The per-query
//! row-major scan (rebuild the packed mask, test every row) is the
//! reference. The batched columnar engine answers the whole log on shared
//! tid-sets (DESIGN.md §7). The sharded engine partitions the rows into
//! word-aligned shards ([`ShardedColumnStore`], DESIGN.md §8), builds the
//! shards on all cores, and fans each arriving batch out to worker threads.
//! Every answer is required to be bit-identical to the row-major scan;
//! batching and threads change wall-clock, never bits. The same knob drives
//! a shipped `Subsample` sketch via the [`Parallel`] trait.
//!
//! Run with: `cargo run --release --example sharded_engine`

use itemset_sketches::prelude::*;
use std::time::Instant;

const ROWS: usize = 100_000;
const DIMS: usize = 128;
const SAMPLE_ROWS: usize = 20_000;
const LOG_LEN: usize = 10_000;
const EPSILON: f64 = 0.02;

fn main() {
    let cores = itemset_sketches::util::threads::host_cores();
    let mut rng = Rng64::seeded(0x5AA0);

    // Data owner's side: a planted database, and a SUBSAMPLE sketch small
    // enough to ship to the query tier.
    let hot = Itemset::new(vec![5, 33, 71]);
    let db = generators::planted(
        ROWS,
        DIMS,
        0.05,
        &[generators::Plant { itemset: hot.clone(), frequency: 0.2 }],
        &mut rng,
    );

    // Query tier's side: an arriving log of mixed-cardinality itemsets.
    let queries: Vec<Itemset> = (0..LOG_LEN)
        .map(|q| match q % 100 {
            0 => hot.clone(),
            _ => (0..1 + q % 4).map(|_| rng.below(DIMS) as u32).collect(),
        })
        .collect();

    // Shard build: all cores transpose row slices concurrently.
    let t = Instant::now();
    let sharded = ShardedColumnStore::build(db.matrix(), cores);
    let build_time = t.elapsed();
    println!(
        "sharded build: {ROWS}x{DIMS} -> {} shards of {} rows in {build_time:?} ({cores} cores)",
        sharded.shard_count(),
        sharded.shard_rows(),
    );

    // Reference answers (and the determinism yardstick): per query,
    // rebuild the packed mask and scan every row.
    let t = Instant::now();
    let row_major: Vec<f64> = queries.iter().map(|q| db.frequency(q)).collect();
    let row_major_time = t.elapsed();

    println!("\n{:<22} {:>12} {:>14} {:>10}", "engine", "time", "queries/s", "identical");
    let row = |name: &str, elapsed: std::time::Duration, identical: &str| {
        println!(
            "{name:<22} {elapsed:>12?} {:>14.0} {identical:>10}",
            LOG_LEN as f64 / elapsed.as_secs_f64()
        );
    };
    row("row-major scan", row_major_time, "-");

    // Batched columnar: one shared transpose, the whole log in one call.
    let t = Instant::now();
    let batched = db.frequencies(&queries);
    let batched_time = t.elapsed();
    assert_eq!(batched, row_major, "batched answers must be bit-identical to row-major answers");
    row("batched columnar", batched_time, "yes");

    for threads in [1usize, 2, cores.max(2), 2 * cores] {
        let t = Instant::now();
        let answers = sharded.frequency_batch(&queries, threads);
        let elapsed = t.elapsed();
        assert_eq!(
            answers, row_major,
            "sharded answers must be bit-identical to row-major answers"
        );
        row(&format!("sharded @{threads} threads"), elapsed, "yes");
    }
    println!(
        "batched speedup over row-major: {:.1}x",
        row_major_time.as_secs_f64() / batched_time.as_secs_f64()
    );

    // The shipped-sketch tier: the same knob through the Parallel trait.
    let sketch = Subsample::with_sample_count(&db, SAMPLE_ROWS, EPSILON, &mut rng);
    let serial_est = sketch.estimate_batch(&queries);
    let threaded = sketch.clone().with_threads(cores);
    let t = Instant::now();
    let est = threaded.estimate_batch(&queries);
    let sketch_time = t.elapsed();
    assert_eq!(est, serial_est, "threaded sketch answers must be bit-identical");
    println!(
        "\nSubsample ({SAMPLE_ROWS} rows) @{cores} threads: {LOG_LEN} queries in {sketch_time:?} \
         ({:.0} queries/s), answers bit-identical to serial",
        LOG_LEN as f64 / sketch_time.as_secs_f64()
    );

    // Accuracy survives all of it: the planted bundle is still within ε.
    let truth = db.frequency(&hot);
    let estimate = est[0];
    println!("planted bundle {hot}: truth {truth:.4}, sketch estimate {estimate:.4}");
    assert!((estimate - truth).abs() <= EPSILON + 0.01, "estimate drifted past ε");
}
