//! High-throughput query serving: a large itemset-query log answered from a
//! SUBSAMPLE sketch on the batched columnar engine.
//!
//! The ROADMAP's "millions of users" scenario: the database stays at the
//! data owner, a small SUBSAMPLE sketch is shipped to the query tier, and
//! the query tier answers an arriving log of itemset queries. This example
//! compares the legacy per-query row-major scan against the shared-tid-set
//! batched path ([`FrequencyEstimator::estimate_batch`], DESIGN.md §7) and
//! checks the two produce bit-identical answers.
//!
//! Run with: `cargo run --release --example high_throughput_queries`

use itemset_sketches::prelude::*;
use std::time::Instant;

const ROWS: usize = 100_000;
const DIMS: usize = 128;
const SAMPLE_ROWS: usize = 20_000;
const LOG_LEN: usize = 10_000;
const EPSILON: f64 = 0.02;

fn main() {
    let mut rng = Rng64::seeded(0x9E7);

    // Data owner's side: a planted database and a sketch worth shipping.
    let hot = Itemset::new(vec![3, 40, 77]);
    let warm = Itemset::new(vec![12, 90]);
    let db = generators::planted(
        ROWS,
        DIMS,
        0.05,
        &[
            generators::Plant { itemset: hot.clone(), frequency: 0.22 },
            generators::Plant { itemset: warm.clone(), frequency: 0.09 },
        ],
        &mut rng,
    );
    let sketch = Subsample::with_sample_count(&db, SAMPLE_ROWS, EPSILON, &mut rng);
    let full_bits = ReleaseDb::build(&db, EPSILON).size_bits();
    println!(
        "database {ROWS}x{DIMS} ({full_bits} bits as a RELEASE-DB frame); sketch {} rows \
         ({} bits, {:.1}% of full)",
        sketch.rows(),
        sketch.size_bits(),
        100.0 * sketch.size_bits() as f64 / full_bits as f64
    );

    // Query tier's side: an arriving log of mixed-cardinality itemsets, the
    // planted bundles sprinkled in.
    let queries: Vec<Itemset> = (0..LOG_LEN)
        .map(|q| match q % 100 {
            0 => hot.clone(),
            50 => warm.clone(),
            _ => (0..1 + q % 4).map(|_| rng.below(DIMS) as u32).collect(),
        })
        .collect();

    // Legacy path: per query, rebuild the packed mask and scan every sampled
    // row (what `estimate` cost before the columnar engine).
    let t0 = Instant::now();
    let scalar: Vec<f64> = queries
        .iter()
        .map(|t| {
            let mask = sketch.sample().mask_of(t);
            sketch.sample().support_mask(&mask) as f64 / sketch.rows() as f64
        })
        .collect();
    let scalar_time = t0.elapsed();

    // Columnar path: one shared transpose, one scratch buffer, whole log in
    // a single batched call.
    let t1 = Instant::now();
    let batched = sketch.estimate_batch(&queries);
    let batched_time = t1.elapsed();

    assert_eq!(batched, scalar, "batched answers must be bit-identical to scalar answers");

    let scalar_qps = LOG_LEN as f64 / scalar_time.as_secs_f64();
    let batched_qps = LOG_LEN as f64 / batched_time.as_secs_f64();
    println!("\n{:<26} {:>12} {:>14}", "path", "time", "queries/s");
    println!("{:<26} {:>12?} {:>14.0}", "scalar row-major", scalar_time, scalar_qps);
    println!("{:<26} {:>12?} {:>14.0}", "batched columnar", batched_time, batched_qps);
    println!("speedup: {:.1}x (answers bit-identical)", batched_qps / scalar_qps);

    // The answers are still ε-accurate: check the planted bundles.
    println!("\n{:<12} {:>9} {:>10} {:>8}", "itemset", "truth", "estimate", "error");
    for t in [&hot, &warm] {
        let truth = db.frequency(t);
        let est = batched[queries.iter().position(|q| q == t).unwrap()];
        println!("{:<12} {:>9.4} {:>10.4} {:>8.4}", t.to_string(), truth, est, (est - truth).abs());
        assert!((est - truth).abs() <= EPSILON + 0.01, "estimate drifted past ε");
    }
}
