//! The parallel execution layer is bit-identical to the serial one.
//!
//! DESIGN.md §8's determinism contract: the sharded columnar engine, the
//! thread-knobbed sketches, and the threaded miners are *execution
//! strategies*, never approximations — at every thread count they must
//! return exactly the serial answers (same integers, same `f64` bits, same
//! output order). The engine's reference is the row-major
//! `Database::support` / `Database::frequency`, which counts rows with a
//! different algorithm. These property tests (fixed case count and seed,
//! like every suite here) drive thread counts 1–8 and adversarial row
//! counts (0, 1, 63, 64, 65, and non-multiples of the shard size, so
//! shard-tail words are exercised).
//!
//! Batches too cheap to repay a thread spawn run inline at any thread
//! count, so `costly_batches_fan_out_and_match_serial` keeps one batch
//! above that threshold to drive spawned chunks.
//!
//! The sketch and miner property tests build their threaded side at
//! `ci_threads()` (the `IFS_THREADS` override, default 1) plus one fixed
//! 2-thread leg, so CI's two runs — `IFS_THREADS=1` and `IFS_THREADS=4` —
//! genuinely exercise the serial and 4-worker configurations of every
//! sketch and miner, and the contract is enforced on every push.

use itemset_sketches::database::{Itemset, ShardedColumnStore};
use itemset_sketches::prelude::*;
use itemset_sketches::util::threads::env_threads;
use proptest::prelude::*;

/// The CI-driven `IFS_THREADS` knob, default 1. A malformed value fails
/// the suite with a message naming the variable, the value and the range.
fn ci_threads() -> usize {
    env_threads("IFS_THREADS").unwrap_or_else(|e| panic!("{e}")).unwrap_or(1)
}

/// A random query log over `d` attributes: cardinalities 0..=4, duplicates
/// allowed (repeated queries exercise scratch reuse).
fn random_queries(d: usize, count: usize, rng: &mut Rng64) -> Vec<Itemset> {
    (0..count)
        .map(|_| {
            let k = rng.below(5).min(d);
            (0..k).map(|_| rng.below(d.max(1)) as u32).collect()
        })
        .collect()
}

/// Word-boundary-adversarial row counts: empty, single row, one under/at/
/// over a tid word, and values that leave ragged tail shards for every
/// shard size used below.
const ADVERSARIAL_ROWS: [usize; 9] = [0, 1, 63, 64, 65, 127, 129, 200, 321];

#[test]
fn sharded_store_matches_serial_on_adversarial_shapes() {
    let mut rng = Rng64::seeded(0x5AD0);
    for n in ADVERSARIAL_ROWS {
        for d in [1usize, 7, 64, 65] {
            let db = generators::uniform(n, d, 0.4, &mut rng);
            let queries = random_queries(d, 20, &mut rng);
            for shard_rows in [64usize, 128, 256] {
                for threads in 1..=8usize {
                    let sharded =
                        ShardedColumnStore::build_with_shard_rows(db.matrix(), shard_rows, threads);
                    let sup = sharded.support_batch(&queries, threads);
                    let freq = sharded.frequency_batch(&queries, threads);
                    for (i, t) in queries.iter().enumerate() {
                        assert_eq!(
                            sup[i],
                            db.support(t),
                            "support n={n} d={d} sr={shard_rows} threads={threads} {t}"
                        );
                        assert_eq!(
                            freq[i],
                            db.frequency(t),
                            "frequency n={n} d={d} sr={shard_rows} threads={threads} {t}"
                        );
                    }
                }
            }
        }
    }
}

/// A batch costly enough that the engine really fans it out: the engine
/// runs a batch inline unless every worker gets at least 2^17 tid words
/// (DESIGN.md §8), so the small batches above all answer on the calling
/// thread. This one costs more than 8 workers' worth, so threads 2, 4 and
/// 8 (and CI's `IFS_THREADS`) drive spawned chunks, over a ragged
/// three-shard store whose tail shard ends mid-word. A `ReleaseDb` over the
/// same database answers single queries on that store too, so they must
/// equal both its batches and the row-major scan.
#[test]
fn costly_batches_fan_out_and_match_serial() {
    let mut rng = Rng64::seeded(0xFA_0E);
    let n = 2 * 16_384 + 232;
    let d = 64;
    let db = generators::uniform(n, d, 0.3, &mut rng);
    let queries: Vec<Itemset> =
        (0..1024).map(|q| (0..2 + q % 3).map(|_| rng.below(d) as u32).collect()).collect();
    let cost: usize = queries.iter().map(|t| t.len().max(1) * n.div_ceil(64)).sum();
    assert!(cost >= 8 << 17, "batch must cost at least 8 workers' shares, got {cost} words");
    let want: Vec<usize> = queries.iter().map(|t| db.support(t)).collect();
    let want_freq: Vec<f64> = queries.iter().map(|t| db.frequency(t)).collect();
    let sharded = ShardedColumnStore::build(db.matrix(), 2);
    for threads in [1usize, 2, 4, 8, ci_threads()] {
        assert_eq!(sharded.support_batch(&queries, threads), want, "sharded, {threads} threads");
        assert_eq!(
            sharded.frequency_batch(&queries, threads),
            want_freq,
            "sharded frequencies, {threads} threads"
        );
        assert_eq!(db.support_batch_with_threads(&queries, threads), want, "{threads} threads");
    }
    // Single queries on the multi-shard view, including the empty itemset
    // and k >= 4 (the scratch-borrowing kernel).
    let singles: Vec<Itemset> =
        [vec![], vec![3], vec![1, 5, 9, 40], vec![0, 2, 7, 11, 20, 33]].map(Itemset::new).into();
    for threads in [1usize, 2, 4, ci_threads()] {
        let release = ReleaseDb::build(&db, 0.2).with_threads(threads);
        assert_eq!(release.database().sharded_columns(threads).shard_count(), 3);
        assert_eq!(release.estimate_batch(&queries), want_freq, "sketch batch, {threads} threads");
        let batch = release.estimate_batch(&singles);
        for (t, f) in singles.iter().zip(batch) {
            assert_eq!(release.estimate(t), f, "estimate vs batch {t}, {threads} threads");
            assert_eq!(release.estimate(t), db.frequency(t), "estimate {t}, {threads} threads");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_and_seed(32, 0x5A_8D))]

    /// Arbitrary shapes: sharded supports/frequencies equal the row-major
    /// database's at every thread count.
    #[test]
    fn sharded_matches_serial_on_random_shapes(
        n in 0usize..400,
        d in 0usize..96,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(n, d, 0.35, &mut rng);
        let queries = random_queries(d, 15, &mut rng);
        let serial_sup: Vec<usize> = queries.iter().map(|t| db.support(t)).collect();
        let serial_freq: Vec<f64> = queries.iter().map(|t| db.frequency(t)).collect();
        for threads in [1usize, 2, 3, 5, 8] {
            let sup = db.support_batch_with_threads(&queries, threads);
            let freq = db.frequencies_with_threads(&queries, threads);
            prop_assert_eq!(&sup, &serial_sup, "supports diverged at {} threads", threads);
            prop_assert_eq!(&freq, &serial_freq, "frequencies diverged at {} threads", threads);
        }
    }

    /// Sketches with the thread knob: batched answers are bit-identical to
    /// the serial sketch query by query. The knob value under test includes
    /// the CI-driven `IFS_THREADS`.
    #[test]
    fn sketches_are_thread_count_invariant(
        n in 1usize..200,
        d in 1usize..48,
        s in 1usize..100,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(n, d, 0.45, &mut rng);
        let queries = random_queries(d, 15, &mut rng);
        let sub_serial = Subsample::with_sample_count(&db, s, 0.1, &mut Rng64::seeded(seed ^ 1));
        let rel_serial = ReleaseDb::build(&db, 0.2);
        // ci_threads() is the CI-driven knob (IFS_THREADS=1 and =4 legs);
        // the fixed 2-thread leg keeps a parallel path exercised even in a
        // plain serial `cargo test` run.
        for threads in [2usize, ci_threads()] {
            let sub = Subsample::with_sample_count(&db, s, 0.1, &mut Rng64::seeded(seed ^ 1))
                .with_threads(threads);
            prop_assert_eq!(
                sub.estimate_batch(&queries),
                sub_serial.estimate_batch(&queries),
                "Subsample estimates diverged at {} threads", threads
            );
            prop_assert_eq!(
                sub.is_frequent_batch(&queries),
                sub_serial.is_frequent_batch(&queries),
                "Subsample indicators diverged at {} threads", threads
            );
            let rel = ReleaseDb::build(&db, 0.2).with_threads(threads);
            prop_assert_eq!(
                rel.estimate_batch(&queries),
                rel_serial.estimate_batch(&queries),
                "ReleaseDb estimates diverged at {} threads", threads
            );
            let adapter = EstimatorAsIndicator::new(
                ReleaseDb::build(&db, 0.2), 0.2,
            ).with_threads(threads);
            let adapter_serial = EstimatorAsIndicator::new(rel_serial.clone(), 0.2);
            prop_assert_eq!(
                adapter.is_frequent_batch(&queries),
                adapter_serial.is_frequent_batch(&queries),
                "adapter diverged at {} threads", threads
            );
        }
    }

    /// Threaded miners return exactly the serial output — same itemsets,
    /// same frequency bits, same order (no sorting before comparison).
    #[test]
    fn miners_are_thread_count_invariant(
        n in 1usize..120,
        d in 1usize..14,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(n, d, 0.4, &mut rng);
        let thresh = 0.2;
        let eclat_serial = itemset_sketches::mining::eclat::mine(&db, thresh, usize::MAX);
        let apriori_serial = itemset_sketches::mining::apriori::mine(&db, thresh, usize::MAX);
        for threads in [2usize, ci_threads()] {
            let e = itemset_sketches::mining::eclat::mine_with_threads(
                &db, thresh, usize::MAX, threads,
            );
            prop_assert_eq!(&e, &eclat_serial, "eclat diverged at {} threads", threads);
            let a = itemset_sketches::mining::apriori::mine_with_threads(
                &db, thresh, usize::MAX, threads,
            );
            prop_assert_eq!(&a, &apriori_serial, "apriori diverged at {} threads", threads);
        }
    }
}
