//! Bench gate: scalar row-major vs batched columnar query execution.
//!
//! The acceptance target for the columnar query engine (DESIGN.md §7): on a
//! 100k-row × 128-dim database with a 1k-itemset query log, the batched
//! columnar path must beat the scalar row-major path by ≥ 3×, with
//! bit-identical answers. Run with `cargo bench -p ifs-bench --bench
//! query_throughput` (release) or `cargo test --benches` (debug smoke); both
//! enforce the gate.

use ifs_database::{Database, Itemset};
use ifs_util::Rng64;

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
    let mut rng = Rng64::seeded(0xC01);
    let db = Database::from_fn(ROWS, DIMS, |_, _| rng.bernoulli(0.3));
    let queries = query_log(&mut rng);
    (db, queries)
}

fn main() {
    let (db, queries) = workload();
    let _ = db.columns(); // pay the transpose before timing either path
    let t0 = std::time::Instant::now();
    let scalar: Vec<f64> = queries.iter().map(|t| db.frequency(t)).collect();
    let scalar_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    let batched = db.frequencies(&queries);
    let batched_time = t1.elapsed();
    // Answers must be bit-identical before speed means anything.
    assert_eq!(batched, scalar, "columnar answers diverge from row-major");
    let speedup = scalar_time.as_secs_f64() / batched_time.as_secs_f64().max(1e-12);
    println!(
        "query_throughput gate: scalar {:?}, batched {:?} ({speedup:.1}x) on {ROWS}x{DIMS}, {QUERIES} queries",
        scalar_time, batched_time
    );
    assert!(
        speedup >= 3.0,
        "batched columnar path must be >= 3x the scalar row-major path, got {speedup:.2}x"
    );
}
