//! The §1.1.1 hardness reduction: itemsets ↔ balanced complete bipartite
//! subgraphs.
//!
//! View a database as a bipartite graph with rows on one side and attributes
//! on the other, an edge when the row has a 1 in that attribute. An itemset
//! of cardinality `c` and support `s` is exactly a complete bipartite
//! subgraph `K_{s,c}` (every supporting row connects to every item). The
//! paper uses this to observe that finding an approximately maximum
//! *balanced* frequent itemset is NP-hard (via hardness of Balanced Complete
//! Bipartite Subgraph [FK04]).
//!
//! This module makes the reduction executable: the itemset-to-biclique
//! conversion, an exact (exponential) maximum-balanced-biclique search for
//! small instances, and a greedy heuristic — experiment E13 contrasts their
//! runtime growth, which is the point of the hardness discussion.
//!
//! [FK04]: https://www.wisdom.weizmann.ac.il/~feige/TechnicalReports/bipartiteclique.pdf

use ifs_database::{ColumnStore, Database, Itemset};
use ifs_util::bits;

/// A complete bipartite subgraph: a set of rows, all containing a set of
/// columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Biclique {
    /// Row indices (sorted).
    pub rows: Vec<usize>,
    /// Column indices (sorted).
    pub cols: Vec<u32>,
}

impl Biclique {
    /// Balanced size: `min(|rows|, |cols|)`.
    pub fn balanced_size(&self) -> usize {
        self.rows.len().min(self.cols.len())
    }

    /// Checks the biclique property against a database — the tests'
    /// independent check of every search result.
    #[cfg(test)]
    fn is_valid(&self, db: &Database) -> bool {
        let itemset: Itemset = self.cols.iter().copied().collect();
        self.rows.iter().all(|&r| db.row_contains(r, &itemset))
    }
}

/// The forward reduction: an itemset with support set induces a biclique.
pub fn itemset_to_biclique(db: &Database, itemset: &Itemset) -> Biclique {
    let mask = db.mask_of(itemset);
    let rows: Vec<usize> =
        (0..db.rows()).filter(|&r| db.matrix().row_contains_mask(r, &mask)).collect();
    Biclique { rows, cols: itemset.items().to_vec() }
}

/// The reverse reduction: a biclique's column side is an itemset whose
/// frequency is at least `|rows|/n`. The tests use it to check that the
/// reduction round-trips.
#[cfg(test)]
fn biclique_to_itemset(b: &Biclique) -> Itemset {
    b.cols.iter().copied().collect()
}

/// Exact maximum balanced biclique by exhaustive search over column subsets.
///
/// Exponential in `d` by necessity (the problem is NP-hard); intended for
/// `d ≤ 20`. For each column subset we take all supporting rows, so the
/// result is the best balanced biclique with that column set.
pub fn max_balanced_exact(db: &Database) -> Biclique {
    let d = db.dims();
    assert!(d <= 20, "exact search is exponential; d={d} is too large");
    let mut best = Biclique { rows: vec![], cols: vec![] };
    for mask in 1u32..(1 << d) {
        let cols: Vec<u32> = (0..d as u32).filter(|&j| (mask >> j) & 1 == 1).collect();
        // Prune: the balanced size is capped by |cols|.
        if cols.len() <= best.balanced_size() {
            continue;
        }
        let itemset: Itemset = cols.iter().copied().collect();
        let b = itemset_to_biclique(db, &itemset);
        if b.balanced_size() > best.balanced_size() {
            best = b;
        }
    }
    best
}

/// Greedy heuristic: grow the column set in descending-support order,
/// intersecting supporting rows incrementally, and return the prefix with
/// the largest balanced size.
///
/// Linear passes instead of the exact search's `2^d`; finds planted
/// bicliques when the plant's columns dominate the support ranking, but has
/// no approximation guarantee — that gap is the point of §1.1.1.
pub fn max_balanced_greedy(db: &Database) -> Biclique {
    let d = db.dims();
    let n = db.rows();
    let store = ColumnStore::build(db.matrix());
    let mut order: Vec<u32> = (0..d as u32).collect();
    let supports: Vec<usize> = (0..d).map(|c| store.item_support(c)).collect();
    order.sort_by(|&a, &b| supports[b as usize].cmp(&supports[a as usize]).then(a.cmp(&b)));
    let mut rows_mask = vec![u64::MAX; ifs_util::bits::words_for(n).max(1)];
    bits::mask_tail(&mut rows_mask, n);
    let mut cols: Vec<u32> = Vec::new();
    let mut best: Option<(usize, Vec<u32>, Vec<u64>)> = None;
    for &c in &order {
        let col = store.tids(c as usize);
        let mut tentative = rows_mask.clone();
        bits::and_assign(&mut tentative, col);
        let support = bits::count_ones(&tentative);
        if support == 0 {
            continue; // adding this column kills the biclique entirely
        }
        rows_mask = tentative;
        cols.push(c);
        let balanced = support.min(cols.len());
        if best.as_ref().is_none_or(|(b, _, _)| balanced > *b) {
            best = Some((balanced, cols.clone(), rows_mask.clone()));
        }
    }
    match best {
        None => Biclique { rows: vec![], cols: vec![] },
        Some((_, mut cols, mask)) => {
            cols.sort_unstable();
            Biclique { rows: bits::ones(&mask).collect(), cols }
        }
    }
}

/// Plants a `K_{rows_size, cols_size}` biclique into an otherwise sparse
/// random database; returns the planted column set.
pub fn plant_biclique(
    db: &mut Database,
    rows_size: usize,
    cols_size: usize,
    rng: &mut ifs_util::Rng64,
) -> Vec<u32> {
    assert!(rows_size <= db.rows() && cols_size <= db.dims());
    let rows = rng.distinct_sorted(db.rows(), rows_size);
    let cols: Vec<u32> =
        rng.distinct_sorted(db.dims(), cols_size).into_iter().map(|c| c as u32).collect();
    for &r in &rows {
        for &c in &cols {
            db.matrix_mut().set(r, c as usize, true);
        }
    }
    cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifs_database::generators;
    use ifs_util::Rng64;

    #[test]
    fn reduction_roundtrip() {
        let db = Database::from_rows(4, &[vec![0, 1], vec![0, 1, 2], vec![0, 1], vec![3]]);
        let t = Itemset::new(vec![0, 1]);
        let b = itemset_to_biclique(&db, &t);
        assert_eq!(b.rows, vec![0, 1, 2]);
        assert!(b.is_valid(&db));
        assert_eq!(biclique_to_itemset(&b), t);
        // Frequency = |rows|/n.
        assert_eq!(db.frequency(&t), b.rows.len() as f64 / db.rows() as f64);
    }

    #[test]
    fn exact_finds_planted_biclique() {
        let mut rng = Rng64::seeded(91);
        let mut db = generators::uniform(24, 10, 0.08, &mut rng);
        plant_biclique(&mut db, 6, 6, &mut rng);
        let best = max_balanced_exact(&db);
        assert!(best.balanced_size() >= 6, "found only {}", best.balanced_size());
        assert!(best.is_valid(&db));
        // Without background noise the plant is the maximum, no larger.
        let mut clean = Database::zeros(20, 10);
        plant_biclique(&mut clean, 5, 5, &mut rng);
        assert_eq!(max_balanced_exact(&clean).balanced_size(), 5);
    }

    #[test]
    fn greedy_finds_planted_biclique_when_clean() {
        let mut rng = Rng64::seeded(92);
        // No background noise: greedy column-dropping recovers the plant.
        let mut db = Database::zeros(30, 16);
        plant_biclique(&mut db, 8, 8, &mut rng);
        let best = max_balanced_greedy(&db);
        assert!(best.balanced_size() >= 8, "greedy found {}", best.balanced_size());
        assert!(best.is_valid(&db));
    }

    #[test]
    fn greedy_never_beats_exact() {
        let mut rng = Rng64::seeded(93);
        for _ in 0..5 {
            let db = generators::uniform(16, 8, 0.4, &mut rng);
            let exact = max_balanced_exact(&db).balanced_size();
            let greedy = max_balanced_greedy(&db).balanced_size();
            assert!(greedy <= exact, "greedy {greedy} > exact {exact}?!");
        }
    }

    #[test]
    fn empty_database_trivial() {
        let db = Database::zeros(5, 4);
        let b = max_balanced_exact(&db);
        assert_eq!(b.balanced_size(), 0);
    }

    #[test]
    fn bits_layout_assumption() {
        // itemset_to_biclique relies on mask layout matching row layout.
        let db = Database::from_rows(70, &[vec![0, 65, 69], vec![65, 69]]);
        let t = Itemset::new(vec![65, 69]);
        let b = itemset_to_biclique(&db, &t);
        assert_eq!(b.rows, vec![0, 1]);
        let _ = bits::words_for(70);
    }
}
