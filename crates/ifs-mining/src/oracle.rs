//! Mining from a sketch — the ε-adequate representation workflow of [MT96].
//!
//! Mannila–Toivonen define an ε-adequate representation as any structure
//! answering itemset frequency queries to within ε; the paper's
//! For-All-Estimator sketches are exactly that. This module runs Apriori
//! level-wise search against **any** [`FrequencyEstimator`], so the sketch
//! replaces the database entirely — the "interactive knowledge discovery"
//! scenario of §1.1.2.
//!
//! Guarantee inherited from [MT96]: with a threshold `θ` and a sketch of
//! additive error ε, mining at `θ − ε` returns every itemset with true
//! frequency ≥ θ and nothing with true frequency < θ − 2ε.
//!
//! [MT96]: https://www.aaai.org/Papers/KDD/1996/KDD96-031.pdf

use crate::MinedItemset;
use ifs_core::FrequencyEstimator;

/// Level-wise mining against a frequency estimator.
///
/// `dims` is the attribute count `d` of the sketched database; candidates
/// whose estimate falls below `min_frequency` are pruned exactly as in
/// Apriori (downward closure holds for the *estimates* only approximately,
/// which is the error-propagation phenomenon E12 measures).
///
/// Each level issues **one** [`FrequencyEstimator::estimate_batch`] call
/// over all surviving candidates, so sketches with a columnar query engine
/// (e.g. `Subsample`, `ReleaseDb`) answer the whole level on shared
/// tid-sets; the batching contract guarantees the mined output is identical
/// to the scalar per-candidate loop.
pub fn mine_with_estimator<E: FrequencyEstimator>(
    sketch: &E,
    dims: usize,
    min_frequency: f64,
    max_len: usize,
) -> Vec<MinedItemset> {
    crate::apriori::level_wise(dims, min_frequency, max_len, |level| sketch.estimate_batch(level))
}

/// Recall/precision of sketch-mined itemsets against exact mining at a
/// reference threshold, ignoring frequency values (set comparison).
pub fn recall_precision(sketched: &[MinedItemset], exact: &[MinedItemset]) -> (f64, f64) {
    use std::collections::HashSet;
    let s: HashSet<_> = sketched.iter().map(|m| m.itemset.clone()).collect();
    let e: HashSet<_> = exact.iter().map(|m| m.itemset.clone()).collect();
    let inter = s.intersection(&e).count() as f64;
    let recall = if e.is_empty() { 1.0 } else { inter / e.len() as f64 };
    let precision = if s.is_empty() { 1.0 } else { inter / s.len() as f64 };
    (recall, precision)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apriori, sort_results};
    use ifs_core::{Guarantee, ReleaseDb, SketchParams, Subsample};
    use ifs_database::generators::{self, Plant};
    use ifs_util::Rng64;

    #[test]
    fn release_db_oracle_matches_direct_mining() {
        let mut rng = Rng64::seeded(101);
        let db = generators::uniform(150, 10, 0.3, &mut rng);
        let sketch = ReleaseDb::build(&db, 0.2);
        let mut via_oracle = mine_with_estimator(&sketch, 10, 0.2, usize::MAX);
        let mut direct = apriori::mine(&db, 0.2, usize::MAX);
        sort_results(&mut via_oracle);
        sort_results(&mut direct);
        assert_eq!(via_oracle, direct, "exact oracle must reproduce Apriori");
    }

    #[test]
    fn subsample_oracle_finds_planted_bundles() {
        let mut rng = Rng64::seeded(102);
        let bundle = ifs_database::Itemset::new(vec![1, 4, 7]);
        let db = generators::planted(
            20_000,
            12,
            0.02,
            &[Plant { itemset: bundle.clone(), frequency: 0.35 }],
            &mut rng,
        );
        let params = SketchParams::new(3, 0.05, 0.05);
        let sketch = Subsample::build(&db, &params, Guarantee::ForAllEstimator, &mut rng);
        // Mine at θ − ε per [MT96].
        let mined = mine_with_estimator(&sketch, 12, 0.3 - 0.05, usize::MAX);
        assert!(mined.iter().any(|m| m.itemset == bundle), "bundle lost in sketch mining");
        let exact = apriori::mine(&db, 0.3, usize::MAX);
        let (recall, _prec) = recall_precision(&mined, &exact);
        assert!(recall >= 0.99, "recall {recall}");
    }

    #[test]
    fn recall_precision_edge_cases() {
        assert_eq!(recall_precision(&[], &[]), (1.0, 1.0));
        let m = MinedItemset { itemset: ifs_database::Itemset::singleton(0), frequency: 0.5 };
        assert_eq!(recall_precision(std::slice::from_ref(&m), &[]), (1.0, 0.0));
        assert_eq!(recall_precision(&[], &[m]), (0.0, 1.0));
    }

    #[test]
    fn max_len_zero_returns_empty() {
        let db = ifs_database::Database::zeros(5, 3);
        let sketch = ReleaseDb::build(&db, 0.5);
        assert!(mine_with_estimator(&sketch, 3, 0.1, 0).is_empty());
    }
}
