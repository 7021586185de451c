//! Packed row-major bit matrix.

use ifs_util::bits;

/// A dense `rows × cols` bit matrix, each row packed into `u64` words.
///
/// This is the storage layer for [`crate::Database`]. Rows are padded to a
/// whole number of words; padding bits are kept at zero so word-wise subset
/// tests need no masking.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = bits::words_for(cols).max(1);
        Self { rows, cols, words_per_row, data: vec![0; rows * words_per_row] }
    }

    /// Builds from a closure giving each cell.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if f(r, c) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Words used per row (layout detail needed by [`crate::Itemset`] masks).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Reads cell `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.rows && c < self.cols);
        bits::get(self.row_words(r), c)
    }

    /// Writes cell `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: bool) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        let start = r * self.words_per_row;
        bits::set(&mut self.data[start..start + self.words_per_row], c, v);
    }

    /// The packed words of row `r`.
    #[inline]
    pub fn row_words(&self, r: usize) -> &[u64] {
        &self.data[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Overwrites row `r` from packed words (must match layout; tail bits of
    /// the final word beyond `cols` must be zero).
    pub fn set_row_words(&mut self, r: usize, words: &[u64]) {
        assert_eq!(words.len(), self.words_per_row);
        if !self.cols.is_multiple_of(64) {
            debug_assert_eq!(words[self.words_per_row - 1] >> (self.cols % 64), 0);
        }
        self.data[r * self.words_per_row..(r + 1) * self.words_per_row].copy_from_slice(words);
    }

    /// True iff row `r` contains every set bit of `mask` (same layout).
    #[inline]
    pub fn row_contains_mask(&self, r: usize, mask: &[u64]) -> bool {
        bits::is_subset(mask, self.row_words(r))
    }

    /// Number of rows containing `mask`.
    pub fn count_rows_containing(&self, mask: &[u64]) -> usize {
        (0..self.rows).filter(|&r| self.row_contains_mask(r, mask)).count()
    }

    /// Total number of ones.
    pub fn total_weight(&self) -> usize {
        bits::count_ones(&self.data)
    }

    /// Appends `added` all-zero rows in place (`words_per_row` is
    /// unchanged because the column count is).
    pub fn push_zero_rows(&mut self, added: usize) {
        self.rows += added;
        self.data.resize(self.rows * self.words_per_row, 0);
    }

    /// Appends one row holding exactly `items` (each `< cols`) — the
    /// ingestion paths' row write: one OR per item into the new row's
    /// words, where a per-cell [`Self::set`] re-derives the row slice and
    /// re-checks both bounds for every item.
    pub fn push_row(&mut self, items: &[u32]) {
        let start = self.data.len();
        self.data.resize(start + self.words_per_row, 0);
        self.rows += 1;
        let row = &mut self.data[start..];
        for &c in items {
            let c = c as usize;
            assert!(c < self.cols, "item {c} out of range for {} columns", self.cols);
            row[c / 64] |= 1u64 << (c % 64);
        }
    }

    /// Appends all rows of `other` in place, the append ingestion path.
    pub fn extend_rows(&mut self, other: &BitMatrix) {
        assert_eq!(self.cols, other.cols, "extend_rows requires equal column counts");
        self.rows += other.rows;
        self.data.extend_from_slice(&other.data);
    }

    /// Raw packed storage (row-major), exposed for serialization.
    pub fn raw_words(&self) -> &[u64] {
        &self.data
    }

    /// Rebuilds from raw storage produced by [`Self::raw_words`].
    pub fn from_raw(rows: usize, cols: usize, data: Vec<u64>) -> Self {
        let words_per_row = bits::words_for(cols).max(1);
        assert_eq!(data.len(), rows * words_per_row, "raw storage has wrong length");
        Self { rows, cols, words_per_row, data }
    }
}

impl std::fmt::Debug for BitMatrix {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(fm, "BitMatrix {}x{}", self.rows, self.cols)?;
        let show_rows = self.rows.min(16);
        for r in 0..show_rows {
            let line: String =
                (0..self.cols.min(80)).map(|c| if self.get(r, c) { '1' } else { '0' }).collect();
            writeln!(fm, "  {line}{}", if self.cols > 80 { "…" } else { "" })?;
        }
        if self.rows > show_rows {
            writeln!(fm, "  … ({} more rows)", self.rows - show_rows)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_then_set_get() {
        let mut m = BitMatrix::zeros(3, 100);
        assert!(!m.get(2, 99));
        m.set(2, 99, true);
        assert!(m.get(2, 99));
        assert!(!m.get(1, 99));
        assert_eq!(m.total_weight(), 1);
    }

    #[test]
    fn from_fn_diagonal() {
        let m = BitMatrix::from_fn(5, 5, |r, c| r == c);
        for r in 0..5 {
            for c in 0..5 {
                assert_eq!(m.get(r, c), r == c);
            }
        }
        assert_eq!(m.total_weight(), 5);
    }

    #[test]
    fn row_contains_mask_semantics() {
        let m = BitMatrix::from_fn(2, 70, |r, c| r == 0 || c % 2 == 0);
        let mut mask = vec![0u64; m.words_per_row()];
        ifs_util::bits::set(&mut mask, 3, true);
        ifs_util::bits::set(&mut mask, 69, true);
        assert!(m.row_contains_mask(0, &mask)); // row 0 is all ones
        assert!(!m.row_contains_mask(1, &mask)); // 3 and 69 are odd columns
        assert_eq!(m.count_rows_containing(&mask), 1);
    }

    #[test]
    fn push_zero_rows_then_set_matches_from_fn() {
        let f = |r: usize, c: usize| (r * 7 + c).is_multiple_of(3);
        let mut m = BitMatrix::from_fn(5, 70, f);
        m.push_zero_rows(3);
        assert_eq!(m.rows(), 8);
        for r in 5..8 {
            assert_eq!(bits::count_ones(m.row_words(r)), 0);
            for c in 0..70 {
                if f(r, c) {
                    m.set(r, c, true);
                }
            }
        }
        assert_eq!(m, BitMatrix::from_fn(8, 70, f));
    }

    #[test]
    fn push_row_matches_from_fn() {
        let f = |r: usize, c: usize| (r * 7 + c).is_multiple_of(3);
        for cols in [1usize, 63, 64, 70, 129] {
            let mut m = BitMatrix::from_fn(2, cols, f);
            for r in 2..6 {
                let items: Vec<u32> = (0..cols).filter(|&c| f(r, c)).map(|c| c as u32).collect();
                m.push_row(&items);
            }
            assert_eq!(m, BitMatrix::from_fn(6, cols, f), "cols {cols}");
        }
    }

    #[test]
    #[should_panic(expected = "item 70 out of range for 70 columns")]
    fn push_row_rejects_out_of_range_items() {
        BitMatrix::zeros(0, 70).push_row(&[3, 70]);
    }

    #[test]
    fn extend_rows_matches_from_fn() {
        let f =
            |r: usize, c: usize| if r < 4 { (r + c).is_multiple_of(2) } else { (r * c) % 5 == 1 };
        let mut m = BitMatrix::from_fn(4, 67, f);
        m.extend_rows(&BitMatrix::from_fn(3, 67, |r, c| f(r + 4, c)));
        assert_eq!(m, BitMatrix::from_fn(7, 67, f));
    }

    #[test]
    #[should_panic(expected = "equal column counts")]
    fn extend_rows_rejects_mismatched_cols() {
        let mut a = BitMatrix::zeros(2, 4);
        a.extend_rows(&BitMatrix::zeros(2, 5));
    }

    #[test]
    fn raw_roundtrip() {
        let m = BitMatrix::from_fn(7, 67, |r, c| (r * 31 + c) % 5 == 0);
        let raw = m.raw_words().to_vec();
        let back = BitMatrix::from_raw(7, 67, raw);
        assert_eq!(m, back);
    }

    #[test]
    fn zero_column_matrix() {
        let m = BitMatrix::zeros(4, 0);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 0);
        // Every row trivially contains the empty mask.
        let mask = vec![0u64; m.words_per_row()];
        assert_eq!(m.count_rows_containing(&mask), 4);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn set_out_of_range_panics() {
        let mut m = BitMatrix::zeros(2, 2);
        m.set(2, 0, true);
    }
}
