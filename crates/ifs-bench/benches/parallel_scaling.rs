//! Bench gate: serial vs sharded multi-threaded batch query execution.
//!
//! The acceptance targets for the parallel execution layer (DESIGN.md §8)
//! on a 100k-row × 128-dim database with a 1k-itemset query log:
//!
//! 1. **Identity** — sharded `support_batch`/`frequency_batch` answers are
//!    bit-identical to the serial columnar path at 1, 2, 4 and 8 threads
//!    (asserted on every run, debug smoke included).
//! 2. **Speedup** — ≥ 1.5× over the serial path at 4 threads. The gate
//!    runs whenever the host exposes ≥ 4 cores; on smaller runners it is
//!    skipped with a printed notice (4 workers on 1 core cannot speed
//!    anything up — the identity assertions still run everywhere).
//!
//! Run with `cargo bench -p ifs-bench --bench parallel_scaling` (release)
//! or `cargo test --benches` (debug smoke).

use ifs_database::{Database, Itemset, ShardedColumnStore};
use ifs_util::Rng64;
use std::hint::black_box;

const ROWS: usize = 100_000;
const DIMS: usize = 128;
const QUERIES: usize = 1_000;

/// Deterministic mixed-cardinality query log (k ∈ {1,…,4}, plus the empty
/// itemset), the shape of an indicator-query workload.
fn query_log(rng: &mut Rng64) -> Vec<Itemset> {
    let mut log: Vec<Itemset> = (0..QUERIES - 1)
        .map(|q| (0..1 + q % 4).map(|_| rng.below(DIMS) as u32).collect())
        .collect();
    log.push(Itemset::empty());
    log
}

fn workload() -> (Database, Vec<Itemset>) {
    let mut rng = Rng64::seeded(0x5CA1);
    let db = Database::from_fn(ROWS, DIMS, |_, _| rng.bernoulli(0.3));
    let queries = query_log(&mut rng);
    (db, queries)
}

fn main() {
    let (db, queries) = workload();
    let cores = ifs_util::threads::host_cores();
    // Identity first: speed means nothing if the answers moved.
    let serial_sup = db.support_batch(&queries);
    let serial_freq = db.frequencies(&queries);
    let sharded = ShardedColumnStore::build(db.matrix(), cores);
    for threads in [1usize, 2, 4, 8] {
        assert_eq!(
            sharded.support_batch(&queries, threads),
            serial_sup,
            "sharded supports diverged from serial at {threads} threads"
        );
        assert_eq!(
            sharded.frequency_batch(&queries, threads),
            serial_freq,
            "sharded frequencies diverged from serial at {threads} threads"
        );
    }

    // Best-of-3 per path smooths scheduler noise without hiding a real miss.
    let time_best = |f: &dyn Fn() -> Vec<f64>| {
        (0..3)
            .map(|_| {
                let t = std::time::Instant::now();
                black_box(f());
                t.elapsed()
            })
            .min()
            .expect("three timings")
    };
    let serial_time = time_best(&|| db.frequencies(&queries));
    let sharded_time = time_best(&|| sharded.frequency_batch(&queries, 4));
    let speedup = serial_time.as_secs_f64() / sharded_time.as_secs_f64().max(1e-12);
    println!(
        "parallel_scaling gate: serial {serial_time:?}, sharded@4 {sharded_time:?} \
         ({speedup:.2}x) on {ROWS}x{DIMS}, {QUERIES} queries, {cores} cores"
    );
    if cores >= 4 {
        assert!(
            speedup >= 1.5,
            "sharded 4-thread path must be >= 1.5x the serial path on a >=4-core host, \
             got {speedup:.2}x"
        );
    } else {
        println!(
            "parallel_scaling gate: SKIPPED speedup assertion ({cores} cores < 4; \
             identity assertions ran)"
        );
    }
}
