//! Serving a high-QPS itemset-query log across cores.
//!
//! The ROADMAP's production scenario, one step past
//! `high_throughput_queries`: the query tier no longer just batches its log
//! onto shared tid-sets — it partitions the database rows into word-aligned
//! shards ([`ShardedColumnStore`], DESIGN.md §8), builds the shards on all
//! cores, and fans each arriving batch out to worker threads. Every answer
//! is required to be bit-identical to the serial engine; threads change
//! wall-clock, never bits. The same knob drives a shipped `Subsample`
//! sketch via the [`Parallel`] trait.
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

    // Serial reference answers (and the determinism yardstick).
    let t = Instant::now();
    let serial = db.frequencies(&queries);
    let serial_time = t.elapsed();

    println!("\n{:<22} {:>12} {:>14} {:>10}", "engine", "time", "queries/s", "identical");
    let serial_qps = LOG_LEN as f64 / serial_time.as_secs_f64();
    println!("{:<22} {:>12?} {:>14.0} {:>10}", "serial columnar", serial_time, serial_qps, "-");
    for threads in [1usize, 2, cores.max(2), 2 * cores] {
        let t = Instant::now();
        let answers = sharded.frequency_batch(&queries, threads);
        let elapsed = t.elapsed();
        assert_eq!(answers, serial, "sharded answers must be bit-identical to serial answers");
        println!(
            "{:<22} {:>12?} {:>14.0} {:>10}",
            format!("sharded @{threads} threads"),
            elapsed,
            LOG_LEN as f64 / elapsed.as_secs_f64(),
            "yes"
        );
    }

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
