//! Itemsets: sorted attribute sets with packed-mask row tests.

use ifs_util::{bits, combin};

/// An itemset `T ⊆ [d]`: a set of attribute (column) indices.
///
/// Stored as a strictly increasing vector of `u32` indices. Equality, hashing
/// and ordering follow the sorted vector, so itemsets behave as canonical set
/// values. The paper also views `T` as its indicator vector in `{0,1}^d`
/// (§1.3); [`Itemset::mask`] produces exactly that, in the packed layout of a
/// given database, so containment tests cost `words_per_row` AND/CMP ops.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Itemset {
    items: Vec<u32>,
}

impl Itemset {
    /// Creates an itemset from any list of indices (sorted and deduplicated).
    pub fn new(mut items: Vec<u32>) -> Self {
        items.sort_unstable();
        items.dedup();
        Self { items }
    }

    /// Wraps a list the caller has already checked to be strictly
    /// increasing — the snapshot codec's validated reader, which would
    /// otherwise pay [`Itemset::new`]'s sort and dedup on every decode.
    pub(crate) fn from_strictly_increasing(items: Vec<u32>) -> Self {
        debug_assert!(items.windows(2).all(|p| p[0] < p[1]), "items not strictly increasing");
        Self { items }
    }

    /// The empty itemset (contained in every row).
    pub fn empty() -> Self {
        Self { items: Vec::new() }
    }

    /// Singleton `{i}`.
    pub fn singleton(i: u32) -> Self {
        Self { items: vec![i] }
    }

    /// Cardinality `|T|` (the paper's `k` when this is a `k`-itemset).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True iff this is the empty itemset.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Sorted attribute indices.
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Largest attribute index, or `None` when empty.
    pub fn max_item(&self) -> Option<u32> {
        self.items.last().copied()
    }

    /// Membership test.
    pub fn contains(&self, item: u32) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Set union.
    pub fn union(&self, other: &Itemset) -> Itemset {
        let mut v = self.items.clone();
        v.extend_from_slice(&other.items);
        Itemset::new(v)
    }

    /// Packed indicator mask over `cols` columns using `words_per_row` words,
    /// matching a [`crate::BitMatrix`] row layout.
    pub fn mask(&self, cols: usize, words_per_row: usize) -> Vec<u64> {
        let mut m = vec![0u64; words_per_row];
        for &i in &self.items {
            assert!((i as usize) < cols, "item {i} out of range for {cols} columns");
            bits::set(&mut m, i as usize, true);
        }
        m
    }

    /// Colexicographic rank among all `|T|`-itemsets (see
    /// [`ifs_util::combin::rank_colex`]); used as the flat index in the
    /// RELEASE-ANSWERS store.
    pub fn colex_rank(&self) -> u64 {
        combin::rank_colex(&self.items)
    }
}

impl std::fmt::Debug for Itemset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

impl std::fmt::Display for Itemset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<u32> for Itemset {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Itemset::new(iter.into_iter().collect())
    }
}

impl From<&[u32]> for Itemset {
    fn from(items: &[u32]) -> Self {
        Itemset::new(items.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let t = Itemset::new(vec![5, 1, 3, 1, 5]);
        assert_eq!(t.items(), &[1, 3, 5]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn canonical_equality() {
        assert_eq!(Itemset::new(vec![2, 1]), Itemset::new(vec![1, 2, 2]));
    }

    #[test]
    fn mask_positions() {
        let t = Itemset::new(vec![0, 64, 100]);
        let m = t.mask(128, 2);
        assert_eq!(ifs_util::bits::ones(&m).collect::<Vec<_>>(), vec![0, 64, 100]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mask_out_of_range_panics() {
        Itemset::singleton(10).mask(10, 1);
    }

    #[test]
    fn union_and_contains() {
        let a = Itemset::new(vec![1, 3]);
        let b = Itemset::new(vec![3, 7]);
        let u = a.union(&b);
        assert_eq!(u.items(), &[1, 3, 7]);
        assert!(u.contains(7));
        assert!(!u.contains(2));
    }

    #[test]
    fn colex_rank_roundtrip() {
        for rank in 0..35u64 {
            let t = Itemset::new(combin::unrank_colex(rank, 3));
            assert_eq!(t.colex_rank(), rank);
            assert_eq!(t.len(), 3);
        }
    }

    #[test]
    fn empty_itemset() {
        let e = Itemset::empty();
        assert!(e.is_empty());
        assert_eq!(e.max_item(), None);
        assert_eq!(e.mask(64, 1), vec![0]);
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", Itemset::new(vec![3, 1])), "{1,3}");
        assert_eq!(format!("{}", Itemset::empty()), "{}");
    }
}
