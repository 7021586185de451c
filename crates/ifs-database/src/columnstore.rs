//! Columnar (vertical) layout: per-item tid-sets.
//!
//! The row-major [`crate::BitMatrix`] is the right layout for *building*
//! summaries — one pass over rows — but a query workload touches only the
//! `k` columns of its itemset, so scanning `n` rows per query wastes
//! `(d − k)/d` of every cache line. `ColumnStore` transposes the matrix
//! once into per-item packed row-index sets ("tid-sets", as the vertical
//! mining literature calls them); the support of an itemset is then the
//! popcount of the AND of `k` column words — `O(k·n/64)` word operations
//! instead of `O(n·d/64)`. The transpose is word-parallel: each tile of 64
//! rows × one row word is one [`bits::transpose64`], so the build costs a
//! few word operations per tile rather than a store per set bit. One tile
//! loop moves rows into columns: a cold build runs it over the whole
//! range, and a row append runs it again from the tail's partial tile.
//!
//! A `ColumnStore` is one shard of [`crate::ShardedColumnStore`] (the view
//! every [`crate::Database`] query answers on, and the one query surface
//! over tid-sets) and the whole-column transpose the biclique search
//! builds per call.
//! See DESIGN.md §7 for when each layout is used.

use crate::{BitMatrix, Itemset};
use ifs_util::bits;

/// Per-item packed tid-set bitmaps over the rows of a [`BitMatrix`].
///
/// Column `c` is stored as a little-endian bit-vector over row indices:
/// bit `r` of column `c` is set iff cell `(r, c)` of the source matrix is 1.
/// All columns share one flat allocation; tail bits beyond `rows` are kept
/// zero so popcounts need no masking.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ColumnStore {
    rows: usize,
    dims: usize,
    words_per_col: usize,
    words: Vec<u64>,
}

impl ColumnStore {
    /// Transposes a row-major matrix into per-item tid-sets (one pass over
    /// the row words of the matrix, a 64×64 bit tile at a time).
    pub fn build(matrix: &BitMatrix) -> Self {
        Self::build_range(matrix, 0..matrix.rows())
    }

    /// Transposes only the rows in `range` (tid-set bit `r` refers to row
    /// `range.start + r` of the source matrix). This is the per-shard
    /// build of [`crate::ShardedColumnStore`]: each shard transposes its
    /// contiguous row slice independently, so shards can be built in
    /// parallel and their popcounts summed (DESIGN.md §8). It allocates
    /// the final stride and runs the one tile loop, `extend`.
    pub fn build_range(matrix: &BitMatrix, range: std::ops::Range<usize>) -> Self {
        let dims = matrix.cols();
        let words_per_col = bits::words_for(range.len()).max(1);
        let mut store = Self { rows: 0, dims, words_per_col, words: vec![0; dims * words_per_col] };
        store.extend(matrix, range);
        store
    }

    /// Extends the tid-sets of rows `range.start ..` to the whole of
    /// `range`, the row → column move behind every build and every append
    /// (DESIGN.md §9, §12). `matrix` must hold the store's current rows
    /// unchanged at `range.start ..`, followed by the new ones.
    ///
    /// Word-parallel: 64 rows × one row word form a 64×64 bit tile, and
    /// one [`bits::transpose64`] turns it into tid word `block` of 64
    /// columns. An all-zero tile is skipped and only nonzero output words
    /// are stored, so sparse data pays for its set tiles, not its area.
    /// A partial first tile is transposed again from the matrix, old rows
    /// and new, so its words only gain bits. When the row count needs more
    /// words per tid-set, every column is first copied once into the wider
    /// stride, a memcpy. The result is `==` to `build_range` of `range`.
    pub(crate) fn extend(&mut self, matrix: &BitMatrix, range: std::ops::Range<usize>) {
        assert!(range.start <= range.end && range.end <= matrix.rows(), "row range out of bounds");
        assert!(
            matrix.cols() == self.dims && self.rows <= range.len(),
            "extend keeps the columns and only adds rows"
        );
        let rows = range.len();
        let dims = self.dims;
        let words_per_col = bits::words_for(rows).max(1);
        if words_per_col != self.words_per_col {
            let mut wider = vec![0u64; dims * words_per_col];
            for (to, from) in wider
                .chunks_exact_mut(words_per_col)
                .zip(self.words.chunks_exact(self.words_per_col))
            {
                to[..self.words_per_col].copy_from_slice(from);
            }
            self.words = wider;
            self.words_per_col = words_per_col;
        }
        let words_per_row = matrix.words_per_row();
        let words = &mut self.words;
        let mut tile = [0u64; 64];
        for block in self.rows / 64..bits::words_for(rows) {
            let lo = range.start + block * 64;
            let hi = (lo + 64).min(range.end);
            let block_rows = &matrix.raw_words()[lo * words_per_row..hi * words_per_row];
            for j in 0..bits::words_for(dims) {
                let mut any = 0;
                for (t, row) in tile.iter_mut().zip(block_rows.chunks_exact(words_per_row)) {
                    *t = row[j];
                    any |= *t;
                }
                if any == 0 {
                    continue;
                }
                // Rows past `range.end` (a ragged last block) are zero, so
                // the tid words' tail bits stay clear.
                tile[hi - lo..].fill(0);
                bits::transpose64(&mut tile);
                for (c, &w) in (64 * j..dims.min(64 * j + 64)).zip(&tile) {
                    if w != 0 {
                        words[c * words_per_col + block] = w;
                    }
                }
            }
        }
        self.rows = rows;
    }

    /// Number of rows `n` of the source matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of items (columns) `d` of the source matrix.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The packed tid-set of item `c`: bit `r` set iff row `r` contains `c`.
    #[inline]
    pub fn tids(&self, c: usize) -> &[u64] {
        assert!(c < self.dims, "item {c} out of range for {} columns", self.dims);
        &self.words[c * self.words_per_col..(c + 1) * self.words_per_col]
    }

    /// Support of the single item `c` (popcount of its tid-set).
    #[inline]
    pub fn item_support(&self, c: usize) -> usize {
        bits::count_ones(self.tids(c))
    }

    /// Intersection kernel: rows of this store containing every item of
    /// `itemset` (DESIGN.md §12).
    ///
    /// `k = 0` needs no intersection (every row qualifies); `k ≤ 3` runs
    /// allocation- and copy-free via [`bits::and_count`] /
    /// [`bits::and3_count`] and never touches `scratch`; `k ≥ 4` opens with
    /// the fused [`bits::and_write`], ANDs the middle items into `scratch`,
    /// and closes with the fused [`bits::and3_count`] — `k − 2` passes over
    /// the tid-sets instead of `k` (copy, `k − 2` ANDs, AND+count).
    pub(crate) fn support(&self, itemset: &Itemset, scratch: &mut Vec<u64>) -> usize {
        let tids = |c: &u32| self.tids(*c as usize);
        match itemset.items() {
            [] => self.rows,
            [a] => bits::count_ones(tids(a)),
            [a, b] => bits::and_count(tids(a), tids(b)),
            [a, b, c] => bits::and3_count(tids(a), tids(b), tids(c)),
            [a, b, mid @ .., y, z] => {
                scratch.resize(self.words_per_col, 0);
                bits::and_write(scratch, tids(a), tids(b));
                for c in mid {
                    bits::and_assign(scratch, tids(c));
                }
                bits::and3_count(scratch, tids(y), tids(z))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;

    fn toy() -> Database {
        Database::from_rows(5, &[vec![0, 1, 2], vec![0, 1], vec![1, 2, 3], vec![4], vec![0, 4]])
    }

    #[test]
    fn supports_match_row_major() {
        let db = toy();
        let store = ColumnStore::build(db.matrix());
        for t in [
            Itemset::empty(),
            Itemset::singleton(0),
            Itemset::new(vec![0, 1]),
            Itemset::new(vec![1, 2]),
            Itemset::new(vec![0, 1, 2]),
            Itemset::new(vec![0, 3]),
            Itemset::new(vec![0, 1, 2, 3, 4]),
        ] {
            assert_eq!(store.support(&t, &mut Vec::new()), db.support(&t), "itemset {t}");
        }
    }

    #[test]
    fn tids_reflect_rows() {
        let db = toy();
        let store = ColumnStore::build(db.matrix());
        assert_eq!(ifs_util::bits::ones(store.tids(0)).collect::<Vec<_>>(), vec![0, 1, 4]);
        assert_eq!(ifs_util::bits::ones(store.tids(4)).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(store.item_support(1), 3);
    }

    #[test]
    fn empty_database() {
        let store = ColumnStore::build(Database::zeros(0, 8).matrix());
        assert_eq!(store.rows(), 0);
        assert_eq!(store.support(&Itemset::empty(), &mut Vec::new()), 0);
        assert_eq!(store.support(&Itemset::new(vec![0, 7]), &mut Vec::new()), 0);
        assert_eq!(store.support(&Itemset::new(vec![0, 1, 3, 7]), &mut Vec::new()), 0);
    }

    #[test]
    fn zero_column_matrix() {
        let store = ColumnStore::build(Database::zeros(6, 0).matrix());
        assert_eq!(store.dims(), 0);
        // Only the empty itemset is askable; it is in every row.
        assert_eq!(store.support(&Itemset::empty(), &mut Vec::new()), 6);
    }

    #[test]
    fn last_bit_of_final_word() {
        // 130 rows: rows occupy three words per column with a 2-bit tail;
        // 65 columns: the itemset {64} indexes the last allocated column.
        let n = 130;
        let db = Database::from_fn(n, 65, |r, c| r == n - 1 || c == 64);
        let store = ColumnStore::build(db.matrix());
        assert_eq!(store.words_per_col, 3);
        // Item 64 is in every row; the final row contains everything.
        let support = |items: Vec<u32>| store.support(&Itemset::new(items), &mut Vec::new());
        assert_eq!(support(vec![64]), n);
        assert_eq!(support(vec![0, 64]), 1);
        assert_eq!(support(vec![0, 30, 64]), 1);
        assert_eq!(support(vec![0, 1, 30, 64]), 1);
        assert!(ifs_util::bits::get(store.tids(0), n - 1), "last row, final word tail bit");
    }

    /// The tile transpose against the matrix, cell by cell: row and item
    /// counts around the 64-bit tile edges, densities from empty to full,
    /// and ranges that start mid-word (no shard does, but `build_range`
    /// accepts any range), with every tail bit past the range clear.
    #[test]
    fn build_range_matches_every_cell() {
        let mut rng = ifs_util::Rng64::seeded(0x7125);
        for rows in [0usize, 1, 63, 64, 65, 130] {
            for dims in [0usize, 1, 48, 63, 64, 65, 128, 129, 200] {
                for density in [0.0, 0.03, 0.5, 1.0] {
                    let m = BitMatrix::from_fn(rows, dims, |_, _| rng.bernoulli(density));
                    for start in [0, 1, 7, 63].into_iter().filter(|&s| s <= rows) {
                        let store = ColumnStore::build_range(&m, start..rows);
                        assert_eq!(store.rows(), rows - start);
                        assert_eq!(store.words_per_col, bits::words_for(rows - start).max(1));
                        for c in 0..dims {
                            let tids = store.tids(c);
                            for r in 0..tids.len() * 64 {
                                let want = r < rows - start && m.get(start + r, c);
                                assert_eq!(
                                    bits::get(tids, r),
                                    want,
                                    "{rows}x{dims} at {density}, range {start}.., cell ({r}, {c})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_item_panics() {
        ColumnStore::build(toy().matrix()).support(&Itemset::singleton(5), &mut Vec::new());
    }

    /// Append maintenance must reproduce a fresh transpose bit for bit —
    /// same stride, same words — across word-boundary row counts, for
    /// zero columns, one row word and rows wider than one word (tile
    /// columns `j ≥ 1`).
    #[test]
    fn append_rows_is_bit_identical_to_rebuild() {
        let mut rng = ifs_util::Rng64::seeded(0xA11D);
        for d in [0usize, 1, 10, 64, 65, 129] {
            for base in [0usize, 1, 63, 64, 65, 130] {
                for added in [0usize, 1, 5, 64, 129] {
                    let m = BitMatrix::from_fn(base + added, d, |_, _| rng.bernoulli(0.4));
                    let mut store = ColumnStore::build_range(&m, 0..base);
                    store.extend(&m, 0..base + added);
                    assert_eq!(
                        store,
                        ColumnStore::build(&m),
                        "append diverged from rebuild at d={d} base={base} added={added}"
                    );
                }
            }
        }
    }

    /// One scratch serves every `k ≥ 4` query of a batch and every shard
    /// of the sharded engine, whose last shard may hold fewer tid words:
    /// what an earlier query or a wider store left in it never leaks.
    #[test]
    fn scratch_reuse_is_stateless() {
        let mut rng = ifs_util::Rng64::seeded(0x5C7A);
        let db = Database::from_fn(200, 8, |_, _| rng.bernoulli(0.7));
        let wide = ColumnStore::build(db.matrix());
        let narrow = ColumnStore::build_range(db.matrix(), 0..70);
        let a = Itemset::new(vec![0, 1, 2, 3, 5]);
        let b = Itemset::new(vec![1, 2, 4, 6]);
        let mut scratch = Vec::new();
        let first = wide.support(&a, &mut scratch);
        assert_eq!(first, db.support(&a));
        assert_eq!(wide.support(&b, &mut scratch), db.support(&b));
        assert_eq!(wide.support(&a, &mut scratch), first);
        let head = Database::from_fn(70, 8, |r, c| db.get(r, c));
        assert_eq!(narrow.support(&a, &mut scratch), head.support(&a));
        assert_eq!(wide.support(&b, &mut scratch), db.support(&b));
    }
}
