//! FP-Growth: frequent-pattern mining without candidate generation.
//!
//! Builds an FP-tree — a prefix tree over transactions with items ordered by
//! descending support — then mines it recursively: for each item (bottom-up),
//! extract its conditional pattern base, build the conditional FP-tree, and
//! recurse. Avoids Apriori's candidate explosion; kept here both as the
//! standard baseline and to cross-validate the other miners.

use crate::MinedItemset;
use ifs_database::{Database, Itemset};
use std::collections::HashMap;

/// One FP-tree node: item, count, parent link, children by item.
struct Node {
    item: u32,
    count: usize,
    parent: usize,
    children: HashMap<u32, usize>,
}

/// An FP-tree plus its header table (item → node indices).
struct FpTree {
    nodes: Vec<Node>,
    header: HashMap<u32, Vec<usize>>,
}

impl FpTree {
    fn new() -> Self {
        // Node 0 is the root sentinel.
        Self {
            nodes: vec![Node { item: u32::MAX, count: 0, parent: 0, children: HashMap::new() }],
            header: HashMap::new(),
        }
    }

    /// Inserts a transaction (items pre-sorted in the global order) with a
    /// multiplicity.
    fn insert(&mut self, items: &[u32], count: usize) {
        let mut cur = 0usize;
        for &item in items {
            let next = match self.nodes[cur].children.get(&item) {
                Some(&idx) => {
                    self.nodes[idx].count += count;
                    idx
                }
                None => {
                    let idx = self.nodes.len();
                    self.nodes.push(Node { item, count, parent: cur, children: HashMap::new() });
                    self.nodes[cur].children.insert(item, idx);
                    self.header.entry(item).or_default().push(idx);
                    idx
                }
            };
            cur = next;
        }
    }

    /// Walks from a node to the root collecting the prefix path (excluding
    /// the node's own item).
    fn prefix_path(&self, mut idx: usize) -> Vec<u32> {
        let mut path = Vec::new();
        idx = self.nodes[idx].parent;
        while idx != 0 {
            path.push(self.nodes[idx].item);
            idx = self.nodes[idx].parent;
        }
        path.reverse();
        path
    }
}

/// Mines all itemsets with frequency ≥ `min_frequency`.
pub fn mine(db: &Database, min_frequency: f64, max_len: usize) -> Vec<MinedItemset> {
    assert!((0.0..=1.0).contains(&min_frequency), "min_frequency must be in [0,1]");
    let n = db.rows();
    let mut results = Vec::new();
    if n == 0 || max_len == 0 {
        return results;
    }
    let min_support = (min_frequency * n as f64).ceil().max(1.0) as usize;
    // Item supports for the global ordering.
    let supports: Vec<usize> =
        (0..db.dims()).map(|c| db.support(&Itemset::singleton(c as u32))).collect();
    // Order: descending support, ties by item id (must be consistent!).
    let mut order: Vec<u32> =
        (0..db.dims() as u32).filter(|&i| supports[i as usize] >= min_support).collect();
    order.sort_by(|&a, &b| supports[b as usize].cmp(&supports[a as usize]).then(a.cmp(&b)));
    let rank: HashMap<u32, usize> = order.iter().enumerate().map(|(r, &i)| (i, r)).collect();
    // Build the tree.
    let mut tree = FpTree::new();
    for r in 0..n {
        let mut items: Vec<u32> =
            db.row_itemset(r).items().iter().copied().filter(|i| rank.contains_key(i)).collect();
        items.sort_by_key(|i| rank[i]);
        tree.insert(&items, 1);
    }
    // Mine recursively.
    let mut suffix = Vec::new();
    mine_tree(&tree, min_support, n, max_len, &mut suffix, &mut results);
    results
}

fn mine_tree(
    tree: &FpTree,
    min_support: usize,
    n: usize,
    max_len: usize,
    suffix: &mut Vec<u32>,
    results: &mut Vec<MinedItemset>,
) {
    // Items in the tree with their total counts.
    let mut item_counts: Vec<(u32, usize)> = tree
        .header
        .iter()
        .map(|(&item, idxs)| (item, idxs.iter().map(|&i| tree.nodes[i].count).sum()))
        .collect();
    item_counts.sort_by_key(|&(item, _)| item);
    for (item, count) in item_counts {
        if count < min_support {
            continue;
        }
        suffix.push(item);
        let itemset: Itemset = suffix.iter().copied().collect();
        results.push(MinedItemset { itemset, frequency: count as f64 / n as f64 });
        if suffix.len() < max_len {
            // Conditional pattern base for `item`.
            let mut cond = FpTree::new();
            for &node_idx in &tree.header[&item] {
                let path = tree.prefix_path(node_idx);
                if !path.is_empty() {
                    cond.insert(&path, tree.nodes[node_idx].count);
                }
            }
            mine_tree(&cond, min_support, n, max_len, suffix, results);
        }
        suffix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apriori, sort_results};
    use ifs_database::generators;
    use ifs_util::Rng64;

    /// Apriori counts through the tid-set kernels and FP-growth from rows,
    /// so the sorted results must be equal, frequency bits included.
    #[test]
    fn agrees_with_apriori() {
        let mut rng = Rng64::seeded(81);
        for trial in 0..5 {
            let db = generators::uniform(100, 10, 0.35, &mut rng);
            let thresh = 0.15 + 0.05 * trial as f64;
            let mut a = apriori::mine(&db, thresh, usize::MAX);
            let mut f = mine(&db, thresh, usize::MAX);
            sort_results(&mut a);
            sort_results(&mut f);
            assert_eq!(a, f, "trial {trial}");
        }
    }

    #[test]
    fn single_path_tree() {
        // All rows identical: one path; all subsets of the row are frequent.
        let db = Database::from_rows(5, &vec![vec![1, 2, 4]; 6]);
        let mut got = mine(&db, 0.9, usize::MAX);
        sort_results(&mut got);
        assert_eq!(got.len(), 7); // 2^3 - 1 nonempty subsets
        assert!(got.iter().all(|m| (m.frequency - 1.0).abs() < 1e-12));
    }

    #[test]
    fn max_len_bounds_depth() {
        let db = Database::from_rows(4, &vec![vec![0, 1, 2, 3]; 4]);
        let got = mine(&db, 0.5, 2);
        assert!(got.iter().all(|m| m.itemset.len() <= 2));
        assert_eq!(got.len(), 4 + 6);
    }

    #[test]
    fn planted_bundle_found() {
        let mut rng = Rng64::seeded(82);
        let bundle = Itemset::new(vec![2, 5, 7]);
        let db = generators::planted(
            500,
            10,
            0.05,
            &[generators::Plant { itemset: bundle.clone(), frequency: 0.5 }],
            &mut rng,
        );
        let got = mine(&db, 0.4, usize::MAX);
        assert!(
            got.iter().any(|m| m.itemset == bundle),
            "bundle not mined; got {} itemsets",
            got.len()
        );
    }
}
