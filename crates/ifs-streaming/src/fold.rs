//! Row-level fold-and-merge builders over the heavy-hitter counters
//! (DESIGN.md §9).
//!
//! [`crate::CountMinSketch`] and [`crate::CountSketch`] are already
//! incremental over *item* streams — `update` is their fold step. These
//! wrappers lift them to *row* streams through the standard
//! frequent-itemset reduction ([`crate::adapter::feed_row`]: every
//! `k`-subset of each arriving row is one item arrival), implementing the
//! same [`StreamingBuild`] / [`MergeableSketch`] contract as the paper's
//! sketches in `ifs-core`:
//!
//! * one-shot, batch-streamed, and shard-merged builds are bit-identical
//!   (counters are sums; the per-row enumeration order is fixed);
//! * merging is counter-wise, commutative, and refused when shapes or hash
//!   seeds differ — or when Count-Min runs conservative update, which is
//!   state-dependent and therefore inherently one-pass.
//!
//! The finished "sketch" is the wrapper itself: it answers itemset
//! frequency queries ([`FrequencyEstimator`]) by dividing the counter's
//! estimate by the number of rows folded, which is how experiment E11
//! compares heavy hitters against row sampling.

use crate::adapter;
use crate::{CountMinSketch, CountSketch, StreamCounter};
use ifs_core::streaming::{MergeError, MergeableSketch, StreamingBuild};
use ifs_core::{FrequencyEstimator, Sketch};
use ifs_database::Itemset;

/// Build-time parameters of a [`CountMinFold`].
#[derive(Clone, Debug)]
pub struct CountMinFoldParams {
    /// Itemset cardinality `k` tracked by the fold.
    pub k: usize,
    /// Counter columns per row of the Count-Min array.
    pub width: usize,
    /// Hash rows of the Count-Min array.
    pub depth: usize,
    /// Conservative update (tighter estimates, but unmergeable).
    pub conservative: bool,
}

/// A Count-Min sketch folded over database rows: every `k`-subset of each
/// arriving row is one counter update.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CountMinFold {
    counter: CountMinSketch<u64>,
    k: usize,
    dims: usize,
    rows: u64,
}

impl CountMinFold {
    /// Itemset cardinality `k` tracked by this fold.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl StreamingBuild for CountMinFold {
    type Params = CountMinFoldParams;
    type Output = Self;

    /// The row offset is ignored: counter merges commute, so partials may
    /// arrive in any order.
    fn begin_at(dims: usize, seed: u64, params: &CountMinFoldParams, _row_offset: u64) -> Self {
        assert!(params.k >= 1, "itemset cardinality k must be positive");
        Self {
            counter: CountMinSketch::new(params.width, params.depth, params.conservative, seed),
            k: params.k,
            dims,
            rows: 0,
        }
    }

    fn observe_row(&mut self, row: &Itemset) {
        assert!(
            row.max_item().is_none_or(|m| (m as usize) < self.dims),
            "row has item out of range for {} attributes",
            self.dims
        );
        self.rows += 1;
        adapter::feed_row(row, self.k, &mut self.counter, usize::MAX);
    }

    fn rows_seen(&self) -> u64 {
        self.rows
    }

    fn finish(self) -> Self {
        self
    }
}

impl MergeableSketch for CountMinFold {
    /// Commutative counter-wise merge; refusals (shape, seeds, conservative
    /// update) come from the wrapped counter's merge.
    fn merge(&mut self, other: Self) -> Result<(), MergeError> {
        if other.k != self.k || other.dims != self.dims {
            return Err(MergeError::Incompatible(format!(
                "row folds differ: k {} vs {}, dims {} vs {}",
                self.k, other.k, self.dims, other.dims
            )));
        }
        self.counter.merge(other.counter)?;
        self.rows += other.rows;
        Ok(())
    }
}

impl Sketch for CountMinFold {
    fn size_bits(&self) -> u64 {
        StreamCounter::size_bits(&self.counter)
    }
}

impl FrequencyEstimator for CountMinFold {
    /// Estimated `f_T` of a `k`-itemset: the counter's (over-)estimate over
    /// the number of rows folded. Panics on a query of the wrong
    /// cardinality, like `ReleaseAnswers*`.
    fn estimate(&self, itemset: &Itemset) -> f64 {
        assert_eq!(itemset.len(), self.k, "fold answers only {}-itemsets", self.k);
        adapter::itemset_frequency(&self.counter, itemset, self.rows as usize)
    }
}

/// Build-time parameters of a [`CountSketchFold`].
#[derive(Clone, Debug)]
pub struct CountSketchFoldParams {
    /// Itemset cardinality `k` tracked by the fold.
    pub k: usize,
    /// Counter columns per row of the Count-Sketch array.
    pub width: usize,
    /// Hash rows of the Count-Sketch array (odd recommended).
    pub depth: usize,
}

/// A Count-Sketch folded over database rows; see [`CountMinFold`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CountSketchFold {
    counter: CountSketch<u64>,
    k: usize,
    dims: usize,
    rows: u64,
}

impl CountSketchFold {
    /// Itemset cardinality `k` tracked by this fold.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl StreamingBuild for CountSketchFold {
    type Params = CountSketchFoldParams;
    type Output = Self;

    /// The row offset is ignored: counter merges commute.
    fn begin_at(dims: usize, seed: u64, params: &CountSketchFoldParams, _row_offset: u64) -> Self {
        assert!(params.k >= 1, "itemset cardinality k must be positive");
        Self {
            counter: CountSketch::new(params.width, params.depth, seed),
            k: params.k,
            dims,
            rows: 0,
        }
    }

    fn observe_row(&mut self, row: &Itemset) {
        assert!(
            row.max_item().is_none_or(|m| (m as usize) < self.dims),
            "row has item out of range for {} attributes",
            self.dims
        );
        self.rows += 1;
        adapter::feed_row(row, self.k, &mut self.counter, usize::MAX);
    }

    fn rows_seen(&self) -> u64 {
        self.rows
    }

    fn finish(self) -> Self {
        self
    }
}

impl MergeableSketch for CountSketchFold {
    /// Commutative counter-wise merge; shape/seed refusals come from the
    /// wrapped counter's merge.
    fn merge(&mut self, other: Self) -> Result<(), MergeError> {
        if other.k != self.k || other.dims != self.dims {
            return Err(MergeError::Incompatible(format!(
                "row folds differ: k {} vs {}, dims {} vs {}",
                self.k, other.k, self.dims, other.dims
            )));
        }
        self.counter.merge(other.counter)?;
        self.rows += other.rows;
        Ok(())
    }
}

impl Sketch for CountSketchFold {
    fn size_bits(&self) -> u64 {
        StreamCounter::size_bits(&self.counter)
    }
}

impl FrequencyEstimator for CountSketchFold {
    /// Estimated `f_T` of a `k`-itemset (negative median estimates clamp to
    /// 0 through [`StreamCounter::estimate`]).
    fn estimate(&self, itemset: &Itemset) -> f64 {
        assert_eq!(itemset.len(), self.k, "fold answers only {}-itemsets", self.k);
        adapter::itemset_frequency(&self.counter, itemset, self.rows as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifs_database::{generators, Database};
    use ifs_util::Rng64;

    fn rows_of(db: &Database) -> Vec<Itemset> {
        (0..db.rows()).map(|r| db.row_itemset(r)).collect()
    }

    #[test]
    fn fold_matches_feed_rows_adapter() {
        let mut rng = Rng64::seeded(0xF01D);
        let db = generators::uniform(300, 10, 0.4, &mut rng);
        let params = CountMinFoldParams { k: 2, width: 64, depth: 3, conservative: false };
        let mut fold = CountMinFold::begin(db.dims(), 9, &params);
        fold.observe_rows(&rows_of(&db));
        let fold = fold.finish();
        let mut direct = CountMinSketch::new(64, 3, false, 9);
        adapter::feed_rows(&db, 2, &mut direct, usize::MAX);
        assert_eq!(fold.rows_seen(), 300);
        assert_eq!(fold.size_bits(), StreamCounter::size_bits(&direct));
        for a in 0..10 {
            for b in a + 1..10 {
                let t = Itemset::new(vec![a, b]);
                assert_eq!(fold.estimate(&t), adapter::itemset_frequency(&direct, &t, 300));
            }
        }
    }

    #[test]
    fn merged_folds_are_bit_identical_to_one_pass_and_commute() {
        let mut rng = Rng64::seeded(0xF02D);
        let db = generators::uniform(200, 8, 0.5, &mut rng);
        let rows = rows_of(&db);
        let cm = CountMinFoldParams { k: 2, width: 32, depth: 4, conservative: false };
        let cs = CountSketchFoldParams { k: 2, width: 32, depth: 3 };

        let mut one_pass = CountMinFold::begin(8, 5, &cm);
        one_pass.observe_rows(&rows);
        let mut a = CountMinFold::begin(8, 5, &cm);
        a.observe_rows(&rows[..70]);
        let mut b = CountMinFold::begin(8, 5, &cm);
        b.observe_rows(&rows[70..]);
        let (mut ab, mut ba) = (a.clone(), b.clone());
        ab.merge(b).expect("same-shape folds merge");
        ba.merge(a).expect("counter merge commutes");
        assert_eq!(ab, one_pass.clone().finish());
        assert_eq!(ba, one_pass.finish(), "merge must be commutative");

        let mut cs_one = CountSketchFold::begin(8, 5, &cs);
        cs_one.observe_rows(&rows);
        let mut ca = CountSketchFold::begin(8, 5, &cs);
        ca.observe_rows(&rows[..33]);
        let mut cb = CountSketchFold::begin(8, 5, &cs);
        cb.observe_rows(&rows[33..]);
        ca.merge(cb).expect("same-shape folds merge");
        assert_eq!(ca, cs_one);
    }

    #[test]
    fn conservative_count_min_refuses_to_merge() {
        let params = CountMinFoldParams { k: 1, width: 16, depth: 2, conservative: true };
        let mut a = CountMinFold::begin(4, 1, &params);
        let b = CountMinFold::begin(4, 1, &params);
        assert!(matches!(a.merge(b), Err(MergeError::Unmergeable(_))));
    }

    #[test]
    fn shape_and_seed_mismatches_refuse() {
        let p = CountMinFoldParams { k: 2, width: 16, depth: 2, conservative: false };
        let mut a = CountMinFold::begin(4, 1, &p);
        // Different seed: hash rows disagree, so cell-wise addition is
        // meaningless.
        assert!(matches!(a.merge(CountMinFold::begin(4, 2, &p)), Err(MergeError::Incompatible(_))));
        let wider = CountMinFoldParams { width: 32, ..p.clone() };
        assert!(matches!(
            a.merge(CountMinFold::begin(4, 1, &wider)),
            Err(MergeError::Incompatible(_))
        ));
        let deeper_k = CountMinFoldParams { k: 3, ..p };
        assert!(matches!(
            a.merge(CountMinFold::begin(4, 1, &deeper_k)),
            Err(MergeError::Incompatible(_))
        ));
    }
}
