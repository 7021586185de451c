//! Database statistics: the per-column and per-row summaries the examples
//! and experiment harness report alongside sketch measurements.

use crate::{ColumnStore, Database, Itemset};

/// Per-column supports (number of rows with a 1 in each column), read off
/// a whole-column transpose built for this call.
pub fn column_supports(db: &Database) -> Vec<usize> {
    let store = ColumnStore::build(db.matrix());
    (0..db.dims()).map(|c| store.item_support(c)).collect()
}

/// Per-column frequencies.
pub fn column_frequencies(db: &Database) -> Vec<f64> {
    let n = db.rows().max(1) as f64;
    column_supports(db).into_iter().map(|s| s as f64 / n).collect()
}

/// Histogram of row weights (number of 1s per row); index = weight.
pub fn row_weight_histogram(db: &Database) -> Vec<usize> {
    let mut hist = vec![0usize; db.dims() + 1];
    for r in 0..db.rows() {
        hist[db.matrix().row_weight(r)] += 1;
    }
    hist
}

/// Mean row weight (mean transaction size in mining terms).
pub fn mean_row_weight(db: &Database) -> f64 {
    if db.rows() == 0 {
        return 0.0;
    }
    db.matrix().total_weight() as f64 / db.rows() as f64
}

/// Number of *distinct* rows — the quantity that bounds how much any
/// row-based sketch can ever need to store.
pub fn distinct_rows(db: &Database) -> usize {
    let mut seen = std::collections::HashSet::new();
    for r in 0..db.rows() {
        seen.insert(db.matrix().row_words(r).to_vec());
    }
    seen.len()
}

/// The lift (observed/expected co-occurrence under independence) of a pair
/// of columns; 1.0 means independent, > 1 positively correlated.
pub fn pair_lift(db: &Database, a: u32, b: u32) -> f64 {
    let fa = db.frequency(&Itemset::singleton(a));
    let fb = db.frequency(&Itemset::singleton(b));
    if fa == 0.0 || fb == 0.0 {
        return 0.0;
    }
    db.frequency(&Itemset::new(vec![a, b])) / (fa * fb)
}

/// Number of ε-frequent k-itemsets, counted exactly by exhaustive scan —
/// the quantity the paper's §1.1.1 warns can be exponential. Callers keep
/// `C(d, k)` small.
pub fn frequent_itemset_count(db: &Database, k: usize, epsilon: f64) -> u64 {
    ifs_util::combin::Combinations::new(db.dims() as u32, k as u32)
        .filter(|comb| db.frequency(&Itemset::new(comb.clone())) >= epsilon)
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use ifs_util::Rng64;

    fn toy() -> Database {
        Database::from_rows(4, &[vec![0, 1], vec![0, 1], vec![0], vec![3]])
    }

    #[test]
    fn supports_and_frequencies() {
        let db = toy();
        assert_eq!(column_supports(&db), vec![3, 2, 0, 1]);
        assert_eq!(column_frequencies(&db), vec![0.75, 0.5, 0.0, 0.25]);
    }

    #[test]
    fn weight_histogram_sums_to_rows() {
        let db = toy();
        let hist = row_weight_histogram(&db);
        assert_eq!(hist.iter().sum::<usize>(), db.rows());
        assert_eq!(hist[2], 2); // two rows of weight 2
        assert_eq!(hist[1], 2);
        assert!((mean_row_weight(&db) - 6.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_rows_deduplicates() {
        let db = toy();
        assert_eq!(distinct_rows(&db), 3);
        let rep = db.repeat_rows(5);
        assert_eq!(distinct_rows(&rep), 3);
    }

    #[test]
    fn lift_detects_correlation() {
        let db = toy();
        // Columns 0 and 1 co-occur more than independence predicts:
        // f01 = 0.5, f0*f1 = 0.375 -> lift 4/3.
        assert!((pair_lift(&db, 0, 1) - 4.0 / 3.0).abs() < 1e-12);
        // Column 2 never fires: lift 0 by convention.
        assert_eq!(pair_lift(&db, 0, 2), 0.0);
    }

    #[test]
    fn lift_near_one_for_independent_data() {
        let mut rng = Rng64::seeded(55);
        let db = generators::uniform(20_000, 4, 0.5, &mut rng);
        let lift = pair_lift(&db, 0, 1);
        assert!((lift - 1.0).abs() < 0.05, "lift {lift}");
    }

    #[test]
    fn frequent_count_matches_manual() {
        let db = toy();
        // ε=0.5 frequent 1-itemsets: {0}, {1}.
        assert_eq!(frequent_itemset_count(&db, 1, 0.5), 2);
        // ε=0.5 frequent 2-itemsets: {0,1}.
        assert_eq!(frequent_itemset_count(&db, 2, 0.5), 1);
    }

    #[test]
    fn empty_database_stats() {
        let db = Database::zeros(0, 3);
        assert_eq!(mean_row_weight(&db), 0.0);
        assert_eq!(distinct_rows(&db), 0);
        assert_eq!(column_frequencies(&db), vec![0.0, 0.0, 0.0]);
    }
}
