//! Streaming ingestion is an execution strategy, never an approximation.
//!
//! DESIGN.md §9's fold-and-merge contract, property-tested (fixed case
//! count and seed, like every suite here): for all four streaming-enabled
//! sketches — `Subsample`, `ReleaseDb`, `CountMinSketch`, `CountSketch` —
//! a one-shot build, the same rows streamed through a builder in arbitrary
//! batches, and partial builds merged back together are **bit-identical**;
//! merging is associative everywhere and commutative exactly where the
//! docs promise it (counter-wise merges); and `Database::append_rows`
//! followed by a batched query equals rebuild-from-scratch followed by the
//! same query at every thread count 1–4 (the §7/§8 answer contracts
//! survive in-place cache maintenance).

use itemset_sketches::core::streaming::{fold_database, MergeError};
use itemset_sketches::prelude::*;
use itemset_sketches::streaming::{
    CountMinFold, CountMinFoldParams, CountSketchFold, CountSketchFoldParams,
};
use proptest::prelude::*;

/// The rows of a database as itemsets, the builders' input representation.
fn rows_of(db: &Database) -> Vec<Itemset> {
    (0..db.rows()).map(|r| db.row_itemset(r)).collect()
}

/// Streams `rows` through a fresh partial build starting at `offset`.
fn partial<B: StreamingBuild>(
    dims: usize,
    seed: u64,
    params: &B::Params,
    offset: usize,
    rows: &[Itemset],
) -> B {
    let mut b = B::begin_at(dims, seed, params, offset as u64);
    b.observe_rows(rows);
    b
}

/// A random query log over `d` attributes with cardinalities 0..=4.
fn random_queries(d: usize, count: usize, rng: &mut Rng64) -> Vec<Itemset> {
    (0..count)
        .map(|_| {
            let k = rng.below(5).min(d);
            (0..k).map(|_| rng.below(d.max(1)) as u32).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(24, 0x57_3A))]

    /// Subsample: one-shot == streamed == merged-from-partials ==
    /// sharded-at-every-thread-count, and merge is associative across an
    /// arbitrary 3-way split of the rows.
    #[test]
    fn subsample_streamed_merged_and_sharded_builds_are_bit_identical(
        n in 1usize..500,
        d in 1usize..32,
        s in 1usize..60,
        seed in any::<u64>(),
        cut_a in 0usize..500,
        cut_b in 0usize..500,
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(n, d, 0.35, &mut rng);
        let rows = rows_of(&db);
        let (i, j) = (cut_a % (n + 1), cut_b % (n + 1));
        let (i, j) = (i.min(j), i.max(j));
        let params = SubsampleParams { sample_rows: s, epsilon: 0.1 };
        let one_shot = Subsample::with_sample_count_seeded(&db, s, 0.1, seed);

        // Streamed in three batches through one builder.
        let mut streamed = SubsampleBuilder::begin(d, seed, &params);
        streamed.observe_rows(&rows[..i]);
        streamed.observe_rows(&rows[i..j]);
        streamed.observe_rows(&rows[j..]);
        prop_assert_eq!(streamed.finish().sample(), one_shot.sample());

        // Merged partials, both associations: ((a·b)·c) and (a·(b·c)).
        let build = |range: std::ops::Range<usize>| {
            partial::<SubsampleBuilder>(d, seed, &params, range.start, &rows[range])
        };
        let (mut left, mid, right) = (build(0..i), build(i..j), build(j..n));
        left.merge(mid).expect("adjacent partials merge");
        left.merge(right).expect("adjacent partials merge");
        prop_assert_eq!(left.finish().sample(), one_shot.sample());

        let (mut a, mut b, c) = (build(0..i), build(i..j), build(j..n));
        b.merge(c).expect("adjacent partials merge");
        a.merge(b).expect("merge is associative");
        prop_assert_eq!(a.finish().sample(), one_shot.sample());

        // Sharded build at thread counts 1-4.
        for threads in 1usize..=4 {
            let sharded = Subsample::with_sample_count_sharded(&db, s, 0.1, seed, threads);
            prop_assert_eq!(sharded.sample(), one_shot.sample(), "threads={}", threads);
        }
    }

    /// ReleaseDb: builder folds, builder merges, and sketch-level merges
    /// all reproduce the one-shot build; answers agree on a query log.
    #[test]
    fn release_db_streamed_and_merged_builds_are_bit_identical(
        n in 0usize..300,
        d in 1usize..24,
        cut in 0usize..300,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(n, d, 0.4, &mut rng);
        let rows = rows_of(&db);
        let i = cut % (n + 1);
        let one_shot = ReleaseDb::build(&db, 0.2);

        let streamed = fold_database::<ReleaseDbBuilder>(&db, 0, &0.2);
        prop_assert_eq!(streamed.database(), one_shot.database());

        let mut a = partial::<ReleaseDbBuilder>(d, 0, &0.2, 0, &rows[..i]);
        let b = partial::<ReleaseDbBuilder>(d, 0, &0.2, i, &rows[i..]);
        a.merge(b).expect("adjacent partials merge");
        let merged = a.finish();
        prop_assert_eq!(merged.database(), one_shot.database());

        // Sketch-level merge over a warm head sketch (append fast path).
        let head = Database::from_fn(i, d, |r, c| db.get(r, c));
        let tail = Database::from_fn(n - i, d, |r, c| db.get(i + r, c));
        let mut sketch = ReleaseDb::build(&head, 0.2);
        let _ = sketch.database().sharded_columns(1);
        sketch.merge(ReleaseDb::build(&tail, 0.2)).expect("compatible sketches merge");
        prop_assert_eq!(sketch.database(), one_shot.database());
        let queries = random_queries(d, 10, &mut rng);
        prop_assert_eq!(sketch.estimate_batch(&queries), one_shot.estimate_batch(&queries));
    }

    /// Count-Min and Count-Sketch row folds: streamed == one-shot, and
    /// merging commutes (the promise counter-wise merges make).
    #[test]
    fn counter_folds_merge_commutatively_to_the_one_pass_sketch(
        n in 0usize..250,
        d in 1usize..16,
        cut in 0usize..250,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(n, d, 0.45, &mut rng);
        let rows = rows_of(&db);
        let i = cut % (n + 1);
        let k = 1 + (seed % 3) as usize;

        let cm_params = CountMinFoldParams { k, width: 32, depth: 3, conservative: false };
        let mut cm_one = CountMinFold::begin(d, seed, &cm_params);
        cm_one.observe_rows(&rows);
        let cm_one = cm_one.finish();
        let a = partial::<CountMinFold>(d, seed, &cm_params, 0, &rows[..i]);
        let b = partial::<CountMinFold>(d, seed, &cm_params, i, &rows[i..]);
        let (mut ab, mut ba) = (a.clone(), b.clone());
        ab.merge(b).expect("same-shape folds merge");
        ba.merge(a).expect("counter merge commutes");
        prop_assert_eq!(&ab.finish(), &cm_one);
        prop_assert_eq!(&ba.finish(), &cm_one, "Count-Min merge must be commutative");

        let cs_params = CountSketchFoldParams { k, width: 32, depth: 3 };
        let mut cs_one = CountSketchFold::begin(d, seed, &cs_params);
        cs_one.observe_rows(&rows);
        let cs_one = cs_one.finish();
        let ca = partial::<CountSketchFold>(d, seed, &cs_params, 0, &rows[..i]);
        let cb = partial::<CountSketchFold>(d, seed, &cs_params, i, &rows[i..]);
        let (mut cab, mut cba) = (ca.clone(), cb.clone());
        cab.merge(cb).expect("same-shape folds merge");
        cba.merge(ca).expect("counter merge commutes");
        prop_assert_eq!(&cab.finish(), &cs_one);
        prop_assert_eq!(&cba.finish(), &cs_one, "Count-Sketch merge must be commutative");
    }

    /// RELEASE-ANSWERS builders (the mergeable face of the offline
    /// sketches): merged partials finish to the one-shot answers, in both
    /// merge orders.
    #[test]
    fn release_answers_builders_merge_to_the_one_shot_answers(
        n in 0usize..200,
        d in 2usize..10,
        cut in 0usize..200,
        seed in any::<u64>(),
    ) {
        use itemset_sketches::core::{
            ReleaseAnswersEstimatorBuilder, ReleaseAnswersIndicatorBuilder, ReleaseAnswersParams,
        };
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(n, d, 0.5, &mut rng);
        let rows = rows_of(&db);
        let i = cut % (n + 1);
        let k = 1 + (seed % 2) as usize;
        let params = ReleaseAnswersParams { k, epsilon: 0.15 };

        let ind_one = ReleaseAnswersIndicator::build(&db, k, 0.15);
        let a = partial::<ReleaseAnswersIndicatorBuilder>(d, 0, &params, 0, &rows[..i]);
        let b = partial::<ReleaseAnswersIndicatorBuilder>(d, 0, &params, i, &rows[i..]);
        let (mut ab, mut ba) = (a.clone(), b.clone());
        ab.merge(b).expect("same-shape partials merge");
        ba.merge(a).expect("support merge commutes");
        prop_assert_eq!(&ab.finish(), &ind_one);
        prop_assert_eq!(&ba.finish(), &ind_one, "support merge must be commutative");

        let est_one = ReleaseAnswersEstimator::build(&db, k, 0.15);
        let mut ea = partial::<ReleaseAnswersEstimatorBuilder>(d, 0, &params, 0, &rows[..i]);
        let eb = partial::<ReleaseAnswersEstimatorBuilder>(d, 0, &params, i, &rows[i..]);
        ea.merge(eb).expect("same-shape partials merge");
        prop_assert_eq!(&ea.finish(), &est_one);
    }

    /// Append-then-query equals rebuild-then-query at every thread count
    /// 1-4: in-place cache maintenance serves the same answers as a cold
    /// transpose, through both the serial and sharded engines.
    #[test]
    fn append_then_query_equals_rebuild_then_query(
        n in 0usize..300,
        d in 1usize..24,
        batches in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(n, d, 0.35, &mut rng);
        let rows = rows_of(&db);
        let queries = random_queries(d, 12, &mut rng);

        let mut incremental = Database::zeros(0, d);
        // Warm the view so the appends below exercise in-place
        // maintenance rather than lazy rebuilds.
        let _ = incremental.sharded_columns(2);
        let chunk = n.div_ceil(batches).max(1);
        for batch in rows.chunks(chunk) {
            incremental.append_rows(batch);
            // Query between batches too: the interleaving is the workload
            // the fast path exists for.
            let rebuilt = Database::from_matrix(incremental.matrix().clone());
            for threads in 1usize..=4 {
                prop_assert_eq!(
                    incremental.support_batch_with_threads(&queries, threads),
                    rebuilt.support_batch_with_threads(&queries, threads),
                    "supports diverged at {} threads after {} rows",
                    threads,
                    incremental.rows()
                );
                prop_assert_eq!(
                    incremental.frequencies_with_threads(&queries, threads),
                    rebuilt.frequencies_with_threads(&queries, threads),
                    "frequencies diverged at {} threads after {} rows",
                    threads,
                    incremental.rows()
                );
            }
        }
        prop_assert_eq!(&incremental, &db);
    }
}

/// Refusals are part of the contract: non-contiguous Subsample partials,
/// mismatched shapes, and conservative Count-Min all error instead of
/// silently building a different sketch.
#[test]
fn incompatible_merges_are_refused() {
    let params = SubsampleParams { sample_rows: 4, epsilon: 0.1 };
    let mut a = SubsampleBuilder::begin(4, 9, &params);
    a.observe_row(&Itemset::singleton(1));
    let gap = SubsampleBuilder::begin_at(4, 9, &params, 3);
    assert_eq!(a.merge(gap).unwrap_err(), MergeError::NonContiguous { expected: 1, got: 3 });

    let mut x = ReleaseDb::build(&Database::zeros(2, 3), 0.2);
    let wider = ReleaseDb::build(&Database::zeros(2, 4), 0.2);
    assert!(matches!(x.merge(wider), Err(MergeError::Incompatible(_))));

    use itemset_sketches::streaming::CountMinSketch;
    let mut cons = CountMinSketch::<u64>::new(8, 2, true, 1);
    let cons2 = CountMinSketch::<u64>::new(8, 2, true, 1);
    assert!(matches!(cons.merge(cons2), Err(MergeError::Unmergeable(_))));
    let mut plain = CountMinSketch::<u64>::new(8, 2, false, 1);
    let reseeded = CountMinSketch::<u64>::new(8, 2, false, 2);
    assert!(matches!(plain.merge(reseeded), Err(MergeError::Incompatible(_))));
}
