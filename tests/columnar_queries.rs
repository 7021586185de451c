//! Batched columnar queries are bit-identical to scalar queries.
//!
//! The columnar engine (DESIGN.md §7) is an execution strategy, not an
//! approximation: for every sketch and for the database itself, the batched
//! APIs must return *exactly* the scalar answers — same `f64` bits, same
//! booleans — on arbitrary databases and query logs. These property tests
//! (fixed case count and seed, like every suite here) are the proof the
//! acceptance criterion asks for.

use itemset_sketches::database::{Itemset, ShardedColumnStore};
use itemset_sketches::prelude::*;
use proptest::prelude::*;

/// A random query log over `d` attributes: cardinalities 0..=4, duplicates
/// allowed (repeated queries exercise scratch reuse).
fn random_queries(d: usize, count: usize, rng: &mut Rng64) -> Vec<Itemset> {
    (0..count)
        .map(|_| {
            let k = rng.below(5).min(d);
            (0..k).map(|_| rng.below(d) as u32).collect()
        })
        .collect()
}

/// Exactly-`k` queries for the RELEASE-ANSWERS sketches, which only answer
/// `k`-itemsets.
fn random_k_queries(d: usize, k: usize, count: usize, rng: &mut Rng64) -> Vec<Itemset> {
    (0..count).map(|_| rng.distinct_sorted(d, k).iter().map(|&i| i as u32).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(48, 0xC0_1D))]

    /// Column-store supports/frequencies equal the row-major Database ones:
    /// a store of one shard spanning every row, and the database's cached
    /// default-shard view.
    #[test]
    fn column_store_matches_row_major(
        n in 0usize..120,
        d in 0usize..80,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(n, d, 0.4, &mut rng);
        let queries = random_queries(d, 25, &mut rng);
        let one_shard = ShardedColumnStore::build_with_shard_rows(db.matrix(), 128, 1);
        let supports = one_shard.support_batch(&queries, 1);
        let freqs = db.frequencies(&queries);
        for (i, t) in queries.iter().enumerate() {
            prop_assert_eq!(supports[i], db.support(t), "support diverged on {}", t);
            prop_assert_eq!(one_shard.support(t), db.support(t), "scalar diverged on {}", t);
            prop_assert_eq!(freqs[i], db.frequency(t), "frequency diverged on {}", t);
        }
    }

    /// SUBSAMPLE: estimate_batch / is_frequent_batch ≡ the scalar methods.
    #[test]
    fn subsample_batch_equals_scalar(
        n in 1usize..150,
        d in 1usize..64,
        s in 1usize..80,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(n, d, 0.5, &mut rng);
        let sketch = Subsample::with_sample_count(&db, s, 0.1, &mut rng);
        let queries = random_queries(d, 20, &mut rng);
        let est = sketch.estimate_batch(&queries);
        let ind = sketch.is_frequent_batch(&queries);
        for (i, t) in queries.iter().enumerate() {
            prop_assert_eq!(est[i], sketch.estimate(t), "estimate diverged on {}", t);
            prop_assert_eq!(ind[i], sketch.is_frequent(t), "indicator diverged on {}", t);
        }
    }

    /// RELEASE-DB: batched exact answers ≡ scalar exact answers (including
    /// the n = 0 database, where every frequency is 0).
    #[test]
    fn release_db_batch_equals_scalar(
        n in 0usize..120,
        d in 1usize..64,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(n, d, 0.35, &mut rng);
        let sketch = ReleaseDb::build(&db, 0.2);
        let queries = random_queries(d, 20, &mut rng);
        let est = sketch.estimate_batch(&queries);
        let ind = sketch.is_frequent_batch(&queries);
        for (i, t) in queries.iter().enumerate() {
            prop_assert_eq!(est[i], sketch.estimate(t), "estimate diverged on {}", t);
            prop_assert_eq!(ind[i], sketch.is_frequent(t), "indicator diverged on {}", t);
        }
    }

    /// The EstimatorAsIndicator adapter batches through the inner estimator;
    /// thresholding must agree with the scalar path query-by-query.
    #[test]
    fn adapter_batch_equals_scalar(
        n in 1usize..120,
        d in 1usize..48,
        s in 1usize..60,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(n, d, 0.5, &mut rng);
        let inner = Subsample::with_sample_count(&db, s, 0.1, &mut rng);
        let adapter = EstimatorAsIndicator::new(inner, 0.1);
        let queries = random_queries(d, 20, &mut rng);
        let ind = adapter.is_frequent_batch(&queries);
        for (i, t) in queries.iter().enumerate() {
            prop_assert_eq!(ind[i], adapter.is_frequent(t), "adapter diverged on {}", t);
        }
    }

    /// RELEASE-ANSWERS (both variants) answer batches through the default
    /// trait implementations; they too must match their scalar methods.
    #[test]
    fn release_answers_batch_equals_scalar(
        n in 1usize..100,
        seed in any::<u64>(),
    ) {
        let (d, k) = (12usize, 2usize);
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(n, d, 0.4, &mut rng);
        let est_sketch = ReleaseAnswersEstimator::build(&db, k, 0.1);
        let ind_sketch = ReleaseAnswersIndicator::build(&db, k, 0.1);
        let queries = random_k_queries(d, k, 20, &mut rng);
        let est = est_sketch.estimate_batch(&queries);
        let ind = ind_sketch.is_frequent_batch(&queries);
        for (i, t) in queries.iter().enumerate() {
            prop_assert_eq!(est[i], est_sketch.estimate(t), "estimate diverged on {}", t);
            prop_assert_eq!(ind[i], ind_sketch.is_frequent(t), "indicator diverged on {}", t);
        }
    }

    /// Mining through batched oracles returns exactly what direct mining
    /// returns: apriori (batched columnar) ≡ fp-growth (row counting), and
    /// the estimator-oracle miner on RELEASE-DB ≡ apriori on the database.
    #[test]
    fn batched_miners_agree(
        n in 1usize..80,
        d in 1usize..14,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(n, d, 0.45, &mut rng);
        let thresh = 0.25;
        let mut a = itemset_sketches::mining::apriori::mine(&db, thresh, usize::MAX);
        let mut f = itemset_sketches::mining::fpgrowth::mine(&db, thresh, usize::MAX);
        let sketch = ReleaseDb::build(&db, thresh);
        let mut o = itemset_sketches::mining::oracle::mine_with_estimator(
            &sketch, d, thresh, usize::MAX,
        );
        itemset_sketches::mining::sort_results(&mut a);
        itemset_sketches::mining::sort_results(&mut f);
        itemset_sketches::mining::sort_results(&mut o);
        prop_assert_eq!(&a, &o, "oracle mining diverged from apriori");
        prop_assert_eq!(&a, &f, "fp-growth diverged from apriori");
    }
}
