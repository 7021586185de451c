//! Property tests pinning the wide kernels to their scalar references and
//! the shard-blocked batch path to the row-major answers (DESIGN.md §12).
//!
//! The CSA kernels and the tile transpose in `ifs_util::bits` and the
//! shard-outer, query-inner batch loop in `ifs_database` are execution
//! strategies, never semantics: every result must be bit-identical to the
//! straightforward scalar fold over the same words, and every support to
//! the row-major `Database::support`. This suite drives that contract
//! with random operands at adversarial lengths — empty slices, sub-block
//! slices, exact 64-word CSA blocks, and ragged tails just past a block
//! boundary — and with shard sizes (the shard is the batch path's cache
//! block) that force queries to straddle shard edges on row counts that
//! are not multiples of anything convenient.
//!
//! The scalar twins come from the `scalar-reference` feature of
//! `ifs-util` (the seed implementations, kept verbatim).

use itemset_sketches::database::{generators, Itemset, ShardedColumnStore};
use itemset_sketches::util::{bits, Rng64};
use proptest::prelude::*;

/// Random word vector of length `len` with occasional all-ones/all-zeros
/// words, so carry chains in the CSA tree see saturated inputs too.
fn words(len: usize, rng: &mut Rng64) -> Vec<u64> {
    (0..len)
        .map(|_| match rng.below(8) {
            0 => 0,
            1 => u64::MAX,
            _ => rng.next_u64(),
        })
        .collect()
}

proptest! {
    // Fixed case count AND RNG seed: tier-1 CI must be bit-for-bit
    // reproducible, so a failure here can be replayed locally as-is.
    #![proptest_config(ProptestConfig::with_cases_and_seed(48, 0xC5A_5EED))]

    /// Every wide kernel equals its scalar reference at arbitrary
    /// lengths, including empty, sub-block, and ragged-tail slices.
    #[test]
    fn wide_kernels_match_scalar_reference(
        len in 0usize..200,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let a = words(len, &mut rng);
        let b = words(len, &mut rng);
        let c = words(len, &mut rng);
        prop_assert_eq!(bits::count_ones(&a), bits::scalar::count_ones(&a));
        prop_assert_eq!(bits::and_count(&a, &b), bits::scalar::and_count(&a, &b));
        prop_assert_eq!(bits::and3_count(&a, &b, &c), bits::scalar::and3_count(&a, &b, &c));
        prop_assert_eq!(bits::hamming(&a, &b), bits::scalar::hamming(&a, &b));
        prop_assert_eq!(bits::is_subset(&a, &b), bits::scalar::is_subset(&a, &b));
        let (mut wide, mut narrow) = (a.clone(), a.clone());
        bits::and_assign(&mut wide, &b);
        bits::scalar::and_assign(&mut narrow, &b);
        prop_assert_eq!(&wide, &narrow);
        let (mut wide_w, mut narrow_w) = (vec![0u64; len], vec![0u64; len]);
        bits::and_write(&mut wide_w, &a, &b);
        bits::scalar::and_write(&mut narrow_w, &a, &b);
        prop_assert_eq!(&wide_w, &narrow_w);
        let (mut wide_i, mut narrow_i) = (a.clone(), a.clone());
        let got = bits::and_count_into(&mut wide_i, &b);
        let want = bits::scalar::and_count_into(&mut narrow_i, &b);
        prop_assert_eq!((wide_i, got), (narrow_i, want));
    }

    /// The fused kernels equal their unfused compositions — the exact
    /// substitution the query and mining paths made.
    #[test]
    fn fused_kernels_equal_their_compositions(
        len in 0usize..200,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let a = words(len, &mut rng);
        let b = words(len, &mut rng);
        let c = words(len, &mut rng);
        let mut inter = a.clone();
        bits::and_assign(&mut inter, &b);
        prop_assert_eq!(bits::and3_count(&a, &b, &c), bits::and_count(&inter, &c));
        let mut fused = a.clone();
        let count = bits::and_count_into(&mut fused, &b);
        prop_assert_eq!((fused, count), (inter.clone(), bits::count_ones(&inter)));
    }

    /// The 64×64 tile transpose equals its per-bit reference on random
    /// tiles with saturated rows and a random count of zero rows at the
    /// bottom (the ragged last block of a tid-set build).
    #[test]
    fn transpose64_matches_scalar_reference(
        live_rows in 0usize..65,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let mut tile = [0u64; 64];
        tile[..live_rows].copy_from_slice(&words(live_rows, &mut rng));
        let (mut wide, mut narrow) = (tile, tile);
        bits::transpose64(&mut wide);
        bits::scalar::transpose64(&mut narrow);
        prop_assert_eq!(wide, narrow);
    }

    /// Blocked batch supports are identical to the unblocked answers —
    /// per-itemset supports on one shard that spans every row, and the
    /// row-major `Database::support` — at every shard size (the shard is
    /// the batch path's cache block), especially ones that make queries
    /// straddle shard boundaries on row counts with ragged last shards.
    #[test]
    fn support_batch_blocked_matches_unblocked(
        rows in 1usize..400,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(rows, 12, 0.4, &mut rng);
        let queries: Vec<Itemset> = (0..12)
            .map(|_| {
                let len = rng.below(5);
                Itemset::new(rng.distinct_sorted(12, len).iter().map(|&i| i as u32).collect())
            })
            .collect();
        let unblocked =
            ShardedColumnStore::build_with_shard_rows(db.matrix(), rows.next_multiple_of(64), 1);
        let reference: Vec<usize> = queries.iter().map(|q| unblocked.support(q)).collect();
        let row_major: Vec<usize> = queries.iter().map(|q| db.support(q)).collect();
        prop_assert_eq!(&reference, &row_major);
        // Shards of 1, 2, 3, 5 and 7 tid words divide, straddle, and
        // exceed the column length (rows.div_ceil(64) words).
        for shard_rows in [64usize, 128, 192, 320, 448] {
            prop_assert_eq!(
                ShardedColumnStore::build_with_shard_rows(db.matrix(), shard_rows, 1)
                    .support_batch(&queries, 1),
                reference.clone(),
                "shard_rows={}", shard_rows
            );
        }
        prop_assert_eq!(unblocked.support_batch(&queries, 1), reference.clone());
        // Thread counts only re-partition the query list; answers are
        // positionally identical on the default-shard engine view.
        for threads in [1usize, 2, 4] {
            prop_assert_eq!(
                ShardedColumnStore::build(db.matrix(), threads).support_batch(&queries, threads),
                reference.clone(),
                "threads={}", threads
            );
        }
    }

    /// Sharded batch supports agree with the unsharded row-major supports
    /// at shard sizes that leave ragged final shards, at several thread
    /// counts.
    #[test]
    fn sharded_blocked_batch_matches_unsharded(
        rows in 1usize..300,
        shard_rows_sel in 0usize..4,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::seeded(seed);
        let db = generators::uniform(rows, 10, 0.35, &mut rng);
        // 64/128/192/320 rows per shard: none divides most row counts,
        // so the last shard is ragged and shard edges fall mid-query.
        let shard_rows = 64 * (shard_rows_sel + 1) + 64 * shard_rows_sel;
        let sharded = ShardedColumnStore::build_with_shard_rows(db.matrix(), shard_rows, 1);
        let queries: Vec<Itemset> = (0..10)
            .map(|_| {
                let len = rng.below(5);
                Itemset::new(rng.distinct_sorted(10, len).iter().map(|&i| i as u32).collect())
            })
            .collect();
        let reference: Vec<usize> = queries.iter().map(|q| db.support(q)).collect();
        for threads in [1usize, 2, 4] {
            prop_assert_eq!(
                sharded.support_batch(&queries, threads),
                reference.clone(),
                "threads={}", threads
            );
        }
    }
}

/// Deterministic boundary sweep (not property-based): rows around every
/// multiple of the 64-row word boundary near small shard edges, so the
/// final partial word and the final partial shard are both exercised.
#[test]
fn block_boundary_row_counts_are_exact() {
    let mut rng = Rng64::seeded(0xB10C_ED6E);
    for rows in [1usize, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257] {
        let db = generators::uniform(rows, 8, 0.5, &mut rng);
        let queries = vec![
            Itemset::empty(),
            Itemset::singleton(0),
            Itemset::new(vec![0, 3]),
            Itemset::new(vec![1, 4, 6]),
            Itemset::new(vec![0, 2, 3, 5, 7]),
        ];
        let reference: Vec<usize> = queries.iter().map(|q| db.support(q)).collect();
        for shard_rows in [64usize, 128, 192, 256, rows.next_multiple_of(64)] {
            let store = ShardedColumnStore::build_with_shard_rows(db.matrix(), shard_rows, 1);
            assert_eq!(store.support_batch(&queries, 1), reference, "rows={rows} sr={shard_rows}");
            for (q, &want) in queries.iter().zip(&reference) {
                assert_eq!(store.support(q), want, "rows={rows} sr={shard_rows} {q}");
            }
        }
    }
}
