//! Eclat: depth-first vertical mining over packed tid-sets.
//!
//! Each item maps to the bitset of rows containing it ("tid-set"); the
//! frequency of an itemset is the popcount of the intersection of its
//! items' tid-sets. Depth-first extension with intersection reuse makes
//! this the fastest of the three miners on dense laptop-scale data. The
//! tid-sets are whole columns, so each call builds its own
//! [`ColumnStore`] (DESIGN.md §7): one transpose per mining run.

use crate::MinedItemset;
use ifs_database::{ColumnStore, Database, Itemset};
use ifs_util::bits;
use ifs_util::threads::{clamp_threads, parallel_map_indexed};

/// Mines all itemsets with frequency ≥ `min_frequency`, depth-first.
pub fn mine(db: &Database, min_frequency: f64, max_len: usize) -> Vec<MinedItemset> {
    mine_with_threads(db, min_frequency, max_len, 1)
}

/// [`mine`] with a thread-count knob (DESIGN.md §8).
///
/// Each frequent single item roots an independent DFS subtree (its
/// extensions only look rightward in the item order), so the top-level
/// prefixes form a natural work queue: up to `threads` workers pull prefix
/// indices and mine their subtrees with the serial `extend` into per-slot
/// buffers, which are then concatenated **in prefix order**. Because every
/// subtree's internal order is the serial DFS order and the concatenation
/// order is the serial prefix order, the result vector is identical — same
/// itemsets, same `f64` frequency bits, same positions — to [`mine`] at
/// every thread count (enforced by `tests/sharded_queries.rs`).
pub fn mine_with_threads(
    db: &Database,
    min_frequency: f64,
    max_len: usize,
    threads: usize,
) -> Vec<MinedItemset> {
    assert!((0.0..=1.0).contains(&min_frequency), "min_frequency must be in [0,1]");
    let threads = clamp_threads(threads);
    let n = db.rows();
    if n == 0 || max_len == 0 {
        return Vec::new();
    }
    let min_support = (min_frequency * n as f64).ceil().max(1.0) as usize;
    // Vertical representation: per-item tid-sets over all rows.
    let store = ColumnStore::build(db.matrix());
    let frequent_items: Vec<(u32, &[u64], usize)> = (0..db.dims())
        .filter_map(|c| {
            let tids = store.tids(c);
            let support = bits::count_ones(tids);
            (support >= min_support).then_some((c as u32, tids, support))
        })
        .collect();
    if threads == 1 || frequent_items.len() <= 1 {
        let mut results = Vec::new();
        // DFS stack holds (prefix itemset, prefix tidset, start index).
        for (idx, &(item, tids, support)) in frequent_items.iter().enumerate() {
            let prefix = Itemset::singleton(item);
            results.push(MinedItemset {
                itemset: prefix.clone(),
                frequency: support as f64 / n as f64,
            });
            extend(&prefix, tids, &frequent_items, idx + 1, min_support, n, max_len, &mut results);
        }
        return results;
    }
    // Per-prefix work queue ([`parallel_map_indexed`]): workers race for
    // indices, but each subtree's results land in the slot of its prefix,
    // so the flattening below is independent of scheduling.
    let items = &frequent_items;
    parallel_map_indexed(items.len(), threads, |idx| {
        let (item, tids, support) = items[idx];
        let prefix = Itemset::singleton(item);
        let mut local =
            vec![MinedItemset { itemset: prefix.clone(), frequency: support as f64 / n as f64 }];
        extend(&prefix, tids, items, idx + 1, min_support, n, max_len, &mut local);
        local
    })
    .into_iter()
    .flatten()
    .collect()
}

#[allow(clippy::too_many_arguments)]
fn extend(
    prefix: &Itemset,
    prefix_tids: &[u64],
    items: &[(u32, &[u64], usize)],
    start: usize,
    min_support: usize,
    n: usize,
    max_len: usize,
    results: &mut Vec<MinedItemset>,
) {
    if prefix.len() >= max_len {
        return;
    }
    for (idx, &(item, tids, _)) in items.iter().enumerate().skip(start) {
        let mut inter = prefix_tids.to_vec();
        // Fused AND+popcount: one pass over the tid words instead of an
        // `and_assign` pass followed by a `count_ones` pass.
        let support = bits::and_count_into(&mut inter, tids);
        if support >= min_support {
            let extended = prefix.union(&Itemset::singleton(item));
            results.push(MinedItemset {
                itemset: extended.clone(),
                frequency: support as f64 / n as f64,
            });
            extend(&extended, &inter, items, idx + 1, min_support, n, max_len, results);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apriori, sort_results};
    use ifs_database::generators;
    use ifs_util::Rng64;

    #[test]
    fn agrees_with_apriori_on_random_data() {
        let mut rng = Rng64::seeded(71);
        for trial in 0..5 {
            let db = generators::uniform(120, 12, 0.3, &mut rng);
            let thresh = 0.1 + 0.05 * trial as f64;
            let mut a = apriori::mine(&db, thresh, usize::MAX);
            let mut e = mine(&db, thresh, usize::MAX);
            sort_results(&mut a);
            sort_results(&mut e);
            assert_eq!(a.len(), e.len(), "trial {trial}");
            for (x, y) in a.iter().zip(&e) {
                assert_eq!(x.itemset, y.itemset);
                assert!((x.frequency - y.frequency).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn respects_max_len() {
        let mut rng = Rng64::seeded(72);
        let db = generators::uniform(60, 8, 0.6, &mut rng);
        let got = mine(&db, 0.2, 2);
        assert!(got.iter().all(|m| m.itemset.len() <= 2));
        assert!(got.iter().any(|m| m.itemset.len() == 2));
    }

    #[test]
    fn min_frequency_one_requires_full_support() {
        let db = Database::from_rows(3, &[vec![0, 1], vec![0, 1], vec![0, 2]]);
        let got = mine(&db, 1.0, usize::MAX);
        let names: Vec<String> = got.iter().map(|m| m.itemset.to_string()).collect();
        assert_eq!(names, vec!["{0}"]);
    }

    #[test]
    fn empty_results_below_any_support() {
        let db = Database::zeros(10, 5);
        assert!(mine(&db, 0.1, usize::MAX).is_empty());
    }

    #[test]
    fn threaded_mining_is_bit_identical_in_order() {
        let mut rng = Rng64::seeded(73);
        for trial in 0..3 {
            let db = generators::uniform(150, 14, 0.35, &mut rng);
            let thresh = 0.08 + 0.04 * trial as f64;
            let serial = mine(&db, thresh, usize::MAX);
            for threads in [2, 4, 8] {
                let par = mine_with_threads(&db, thresh, usize::MAX, threads);
                // Same itemsets, same frequency bits, same ORDER — the
                // unsorted vectors must be equal element for element.
                assert_eq!(par, serial, "threads={threads} trial={trial}");
            }
        }
    }
}
