//! Apriori: level-wise frequent itemset mining (Agrawal et al. [AIS93]).
//!
//! Level `k` candidates are generated by joining frequent `(k−1)`-itemsets
//! sharing a `(k−2)`-prefix, then pruned by the downward-closure property
//! (every `(k−1)`-subset must be frequent) before support counting. Support
//! counting is batched per level through the database's shared columnar
//! view ([`Database::frequencies`], DESIGN.md §7) — answers are identical
//! to per-candidate row scans, just counted column-wise.
//!
//! [AIS93]: https://doi.org/10.1145/170035.170072

use crate::MinedItemset;
use ifs_database::{Database, Itemset};
use std::collections::HashSet;

/// Mines all itemsets with frequency ≥ `min_frequency`.
///
/// `max_len` bounds the cardinality of reported itemsets (`usize::MAX` for
/// unbounded). The empty itemset is not reported.
pub fn mine(db: &Database, min_frequency: f64, max_len: usize) -> Vec<MinedItemset> {
    mine_with_threads(db, min_frequency, max_len, 1)
}

/// [`mine`] with a thread-count knob (DESIGN.md §8).
///
/// Apriori's work is the per-level support counting; candidate generation
/// and pruning stay serial (they are cheap and order-sensitive). Each
/// level's candidate batch is partitioned across `threads` workers via
/// [`Database::frequencies_with_threads`], whose answers are bit-identical
/// to the serial columnar path, so the survivor set — and therefore every
/// later level — is exactly the serial one at every thread count.
pub fn mine_with_threads(
    db: &Database,
    min_frequency: f64,
    max_len: usize,
    threads: usize,
) -> Vec<MinedItemset> {
    assert!((0.0..=1.0).contains(&min_frequency), "min_frequency must be in [0,1]");
    if db.rows() == 0 {
        return Vec::new();
    }
    level_wise(db.dims(), min_frequency, max_len, |level| {
        db.frequencies_with_threads(level, threads)
    })
}

/// The level-wise loop of every Apriori-style miner: start from the
/// singletons over `dims` items, get one batch of frequencies per level
/// from `frequencies`, keep the itemsets at or above `min_frequency`, and
/// join the survivors into the next level with [`generate_candidates`],
/// for at most `max_len` levels.
pub(crate) fn level_wise(
    dims: usize,
    min_frequency: f64,
    max_len: usize,
    mut frequencies: impl FnMut(&[Itemset]) -> Vec<f64>,
) -> Vec<MinedItemset> {
    let mut results = Vec::new();
    let mut current: Vec<Itemset> = (0..dims as u32).map(Itemset::singleton).collect();
    let mut k = 0usize;
    while !current.is_empty() && k < max_len {
        let level = frequencies(&current);
        let mut next = Vec::new();
        for (cand, f) in current.into_iter().zip(level) {
            if f >= min_frequency {
                results.push(MinedItemset { itemset: cand.clone(), frequency: f });
                next.push(cand);
            }
        }
        k += 1;
        current = if k < max_len { generate_candidates(&next) } else { Vec::new() };
    }
    results
}

/// Joins frequent `k`-itemsets sharing a `(k−1)`-prefix and prunes by
/// downward closure.
pub fn generate_candidates(frequent: &[Itemset]) -> Vec<Itemset> {
    let frequent_set: HashSet<&Itemset> = frequent.iter().collect();
    let mut out = Vec::new();
    for (i, a) in frequent.iter().enumerate() {
        for b in &frequent[i + 1..] {
            let (ia, ib) = (a.items(), b.items());
            let k = ia.len();
            // Same prefix, differing only in the last item (inputs sorted).
            if k >= 1 && ia[..k - 1] == ib[..k - 1] && ia[k - 1] != ib[k - 1] {
                let cand = a.union(b);
                // Downward closure: all (k)-subsets must be frequent.
                let all_subsets_frequent = cand
                    .items()
                    .iter()
                    .map(|&drop| {
                        cand.items().iter().copied().filter(|&x| x != drop).collect::<Itemset>()
                    })
                    .all(|sub| frequent_set.contains(&sub));
                if all_subsets_frequent {
                    out.push(cand);
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort_results;

    fn toy() -> Database {
        // Classic example: {0,1} frequent, {2} moderately, {3} rare.
        Database::from_rows(4, &[vec![0, 1, 2], vec![0, 1], vec![0, 1, 2], vec![0, 3], vec![0, 1]])
    }

    #[test]
    fn mines_expected_itemsets() {
        let mut got = mine(&toy(), 0.6, usize::MAX);
        sort_results(&mut got);
        let names: Vec<String> = got.iter().map(|m| m.itemset.to_string()).collect();
        assert_eq!(names, vec!["{0}", "{0,1}", "{1}"]);
        assert_eq!(got[1].frequency, 0.8);
        // Frequency one demands support in every row: only item 0 has it.
        let full = mine(&toy(), 1.0, usize::MAX);
        assert_eq!(full.iter().map(|m| m.itemset.to_string()).collect::<Vec<_>>(), ["{0}"]);
    }

    #[test]
    fn threshold_zero_reports_everything_supported() {
        let got = mine(&toy(), 1e-9, usize::MAX);
        // All itemsets contained in at least one row: subsets of {0,1,2} and
        // {0,3}: {0},{1},{2},{3},{0,1},{0,2},{1,2},{0,3},{0,1,2} = 9.
        assert_eq!(got.len(), 9);
    }

    #[test]
    fn max_len_truncates_levels() {
        let got = mine(&toy(), 1e-9, 1);
        assert!(got.iter().all(|m| m.itemset.len() == 1));
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn downward_closure_holds() {
        let got = mine(&toy(), 0.4, usize::MAX);
        let set: std::collections::HashSet<_> = got.iter().map(|m| m.itemset.clone()).collect();
        for m in &got {
            for &drop in m.itemset.items() {
                if m.itemset.len() > 1 {
                    let sub: Itemset =
                        m.itemset.items().iter().copied().filter(|&x| x != drop).collect();
                    assert!(set.contains(&sub), "subset {sub} of {} missing", m.itemset);
                }
            }
        }
    }

    #[test]
    fn candidate_generation_joins_prefixes() {
        let freq =
            vec![Itemset::new(vec![0, 1]), Itemset::new(vec![0, 2]), Itemset::new(vec![1, 2])];
        let cands = generate_candidates(&freq);
        assert_eq!(cands, vec![Itemset::new(vec![0, 1, 2])]);
    }

    #[test]
    fn candidate_pruning_blocks_missing_subset() {
        // {1,2} missing -> {0,1,2} must not be generated.
        let freq = vec![Itemset::new(vec![0, 1]), Itemset::new(vec![0, 2])];
        assert!(generate_candidates(&freq).is_empty());
    }

    #[test]
    fn empty_database() {
        let db = Database::zeros(0, 4);
        assert!(mine(&db, 0.5, usize::MAX).is_empty());
        // Rows without a single item support nothing at any threshold.
        assert!(mine(&Database::zeros(10, 5), 0.1, usize::MAX).is_empty());
    }

    #[test]
    fn threaded_mining_is_bit_identical_in_order() {
        let db = toy();
        for thresh in [1e-9, 0.4, 0.6] {
            let serial = mine(&db, thresh, usize::MAX);
            for threads in [2, 4, 8] {
                let par = mine_with_threads(&db, thresh, usize::MAX, threads);
                assert_eq!(par, serial, "threads={threads} thresh={thresh}");
            }
        }
    }
}
