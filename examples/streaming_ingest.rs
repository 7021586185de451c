//! Streaming ingestion end-to-end: an appendable database serving queries
//! while rows arrive, and sketches built as mergeable folds.
//!
//! The ROADMAP's continuously-arriving-traffic scenario (DESIGN.md §9),
//! one step past `sharded_engine`: the ingest tier appends row batches
//! through `Database::append_rows` — which extends the cached columnar
//! views *in place* instead of invalidating them — while the query tier
//! answers a batched log between appends. Sketches ride the same stream:
//! a `Subsample` is folded shard-by-shard and merged, bit-identical to the
//! one-shot build; a Count-Min row fold merges counter-wise across shards.
//!
//! Run with: `cargo run --release --example streaming_ingest`

use itemset_sketches::core::streaming::fold_database;
use itemset_sketches::prelude::*;
use itemset_sketches::streaming::{CountMinFold, CountMinFoldParams};
use std::time::Instant;

const TOTAL_ROWS: usize = 30_000;
const DIMS: usize = 64;
const BATCH_ROWS: usize = 1_000;
const QUERIES_PER_BATCH: usize = 50;
const SAMPLE_ROWS: usize = 2_000;
const SEED: u64 = 0x1265;

fn main() {
    let mut rng = Rng64::seeded(SEED);
    let hot = Itemset::new(vec![3, 17]);

    // The arriving stream: row batches with a planted hot pair.
    let batches: Vec<Vec<Itemset>> = (0..TOTAL_ROWS / BATCH_ROWS)
        .map(|_| {
            (0..BATCH_ROWS)
                .map(|_| {
                    let mut row: Vec<u32> =
                        (0..DIMS as u32).filter(|_| rng.bernoulli(0.08)).collect();
                    if rng.bernoulli(0.25) {
                        row.extend_from_slice(hot.items());
                    }
                    row.into_iter().collect::<Itemset>()
                })
                .collect()
        })
        .collect();
    let queries: Vec<Itemset> = (0..QUERIES_PER_BATCH)
        .map(|q| match q % 10 {
            0 => hot.clone(),
            _ => (0..1 + q % 3).map(|_| rng.below(DIMS) as u32).collect(),
        })
        .collect();

    // Ingest tier: append batches, serve the query log between appends.
    // The warm columnar view is maintained in place — no re-transpose.
    let mut live = Database::zeros(0, DIMS);
    let _ = live.sharded_columns(1);
    let t = Instant::now();
    let mut answered = 0usize;
    for batch in &batches {
        live.append_rows(batch);
        answered += live.frequencies(&queries).len();
    }
    let ingest_time = t.elapsed();
    assert!(live.has_sharded_cache(), "appends must keep the columnar view warm");
    println!(
        "ingest+query: {TOTAL_ROWS} rows in {}-row batches, {answered} queries answered \
         in {ingest_time:?} ({:.0} rows/s, {:.0} queries/s)",
        BATCH_ROWS,
        TOTAL_ROWS as f64 / ingest_time.as_secs_f64(),
        answered as f64 / ingest_time.as_secs_f64(),
    );

    // The maintained view answers exactly like a cold rebuild.
    let rebuilt = Database::from_matrix(live.matrix().clone());
    assert_eq!(live.frequencies(&queries), rebuilt.frequencies(&queries));
    println!("maintained columnar view == cold rebuild: verified on {QUERIES_PER_BATCH} queries");

    // Sketch tier: a Subsample folded per shard and merged, bit-identical
    // to the one-shot build from the same seed.
    let params = SubsampleParams { sample_rows: SAMPLE_ROWS, epsilon: 0.05 };
    let one_shot = Subsample::with_sample_count_seeded(&live, SAMPLE_ROWS, 0.05, SEED);
    let mut merged = SubsampleBuilder::begin(DIMS, SEED, &params);
    let mut offset = 0u64;
    for batch in &batches {
        let mut shard = SubsampleBuilder::begin_at(DIMS, SEED, &params, offset);
        shard.observe_rows(batch.iter());
        offset += shard.rows_seen();
        merged.merge(shard).expect("adjacent shard partials merge");
    }
    let merged = merged.finish();
    assert_eq!(merged.sample(), one_shot.sample(), "merged sample must equal one-shot sample");
    let threaded = Subsample::with_sample_count_sharded(&live, SAMPLE_ROWS, 0.05, SEED, 4);
    assert_eq!(threaded.sample(), one_shot.sample());
    println!(
        "Subsample ({SAMPLE_ROWS} rows): one-shot == per-batch merged == sharded@4 threads, \
         bit for bit"
    );
    let truth = live.frequency(&hot);
    let estimate = merged.estimate(&hot);
    println!("planted pair {hot}: truth {truth:.4}, sketch estimate {estimate:.4}");
    assert!((estimate - truth).abs() <= 0.05, "estimate drifted past ε");

    // Heavy-hitter tier: Count-Min folded per batch, merged counter-wise.
    let cm_params = CountMinFoldParams { k: 2, width: 512, depth: 4, conservative: false };
    let mut cm_parts: Vec<CountMinFold> = batches
        .iter()
        .map(|batch| {
            let mut fold = CountMinFold::begin(DIMS, SEED, &cm_params);
            fold.observe_rows(batch.iter());
            fold
        })
        .collect();
    let mut cm = cm_parts.remove(0);
    for part in cm_parts {
        cm.merge(part).expect("same-shape folds merge");
    }
    let cm = cm.finish();
    let mut cm_one = CountMinFold::begin(DIMS, SEED, &cm_params);
    for batch in &batches {
        cm_one.observe_rows(batch.iter());
    }
    assert_eq!(cm, cm_one.finish(), "merged Count-Min must equal the one-pass fold");
    println!(
        "Count-Min row fold: {} shards merged counter-wise == one pass; f(hot pair) ~ {:.4}",
        batches.len(),
        cm.estimate(&hot)
    );

    // ReleaseDb rides the same contracts: folding the stream is the
    // identity sketch itself.
    let release = fold_database::<ReleaseDbBuilder>(&live, 0, &0.1);
    assert_eq!(release.database(), &live);
    println!(
        "ReleaseDb fold == stored database ({} rows, {} bits)",
        release.database().rows(),
        release.size_bits()
    );
}
