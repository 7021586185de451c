//! Columnar (vertical) query execution: per-item tid-sets.
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
//! This is the same representation Eclat uses internally. A `ColumnStore`
//! is the per-shard kernel of [`crate::ShardedColumnStore`] (the view every
//! [`crate::Database`] query answers on), the whole-column transpose the
//! miners build per call, and the serial reference the tests compare
//! against. See DESIGN.md §7 for when each layout is used.

use crate::{BitMatrix, Itemset};
use ifs_util::bits;

/// Tid-word block for the batched query path: the same geometry as a row
/// shard ([`crate::sharded::SHARD_ROWS`] rows = 256 words per column), so
/// one block of the `k` queried columns plus scratch stays L2-resident
/// while every query of the batch runs over it (DESIGN.md §12). Blocked
/// partial supports are exact integer popcounts over disjoint word
/// ranges, so any block size yields bit-identical answers.
pub(crate) const QUERY_BLOCK_WORDS: usize = crate::sharded::SHARD_ROWS / 64;

std::thread_local! {
    /// Scratch for single `support` queries with `k ≥ 4`: grown once per
    /// thread, reused by every subsequent query (the former code allocated
    /// a fresh `Vec` per call). Batch APIs still pass their own scratch.
    static SUPPORT_SCRATCH: std::cell::RefCell<Vec<u64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

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

    /// Words per tid-set (layout detail for callers managing scratch).
    pub fn words_per_col(&self) -> usize {
        self.words_per_col
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

    /// The word range `[w0, w1)` of item `c`'s tid-set — the unit the
    /// blocked batch kernel iterates over.
    #[inline]
    fn tids_words(&self, c: usize, w0: usize, w1: usize) -> &[u64] {
        assert!(c < self.dims, "item {c} out of range for {} columns", self.dims);
        &self.words[c * self.words_per_col + w0..c * self.words_per_col + w1]
    }

    /// Intersection kernel over the tid-word range `[w0, w1)`: rows of that
    /// range containing every item of `itemset` (DESIGN.md §12).
    ///
    /// `k = 0` needs no intersection (every row of the range qualifies);
    /// `k ≤ 3` runs allocation- and copy-free via [`bits::and_count`] /
    /// [`bits::and3_count`]; `k ≥ 4` opens with the fused
    /// [`bits::and_write`], ANDs the middle items into `scratch`, and closes
    /// with the fused [`bits::and3_count`] — `k − 2` passes over the range
    /// instead of the historical `k` (copy, `k − 2` ANDs, AND+count).
    ///
    /// Because supports over disjoint word ranges are exact integer partial
    /// popcounts, summing this kernel over any partition of `[0,
    /// words_per_col)` is bit-identical to one full-width pass — the same
    /// argument that makes row sharding exact (DESIGN.md §8).
    fn support_in_words(
        &self,
        itemset: &Itemset,
        w0: usize,
        w1: usize,
        scratch: &mut Vec<u64>,
    ) -> usize {
        match itemset.items() {
            [] => self.rows.min(w1 * 64) - self.rows.min(w0 * 64),
            [a] => bits::count_ones(self.tids_words(*a as usize, w0, w1)),
            [a, b] => bits::and_count(
                self.tids_words(*a as usize, w0, w1),
                self.tids_words(*b as usize, w0, w1),
            ),
            [a, b, c] => bits::and3_count(
                self.tids_words(*a as usize, w0, w1),
                self.tids_words(*b as usize, w0, w1),
                self.tids_words(*c as usize, w0, w1),
            ),
            [a, b, mid @ .., y, z] => {
                scratch.resize(w1 - w0, 0);
                bits::and_write(
                    scratch,
                    self.tids_words(*a as usize, w0, w1),
                    self.tids_words(*b as usize, w0, w1),
                );
                for &c in mid {
                    bits::and_assign(scratch, self.tids_words(c as usize, w0, w1));
                }
                bits::and3_count(
                    scratch,
                    self.tids_words(*y as usize, w0, w1),
                    self.tids_words(*z as usize, w0, w1),
                )
            }
        }
    }

    /// Intersection kernel: support of `itemset` using caller-owned scratch
    /// (the full-width case of `support_in_words`; `k ≤ 3` never
    /// touches `scratch`).
    pub fn support_with_scratch(&self, itemset: &Itemset, scratch: &mut Vec<u64>) -> usize {
        self.support_in_words(itemset, 0, self.words_per_col, scratch)
    }

    /// Support of `itemset`: rows containing every item. Allocation-free:
    /// `|itemset| ≤ 3` needs no scratch at all, and larger itemsets borrow a
    /// thread-local buffer that is grown once and reused by every subsequent
    /// single query on the thread.
    pub fn support(&self, itemset: &Itemset) -> usize {
        if itemset.items().len() <= 3 {
            // Kernel provably ignores scratch; skip the thread-local borrow.
            return self.support_in_words(itemset, 0, self.words_per_col, &mut Vec::new());
        }
        SUPPORT_SCRATCH
            .with(|scratch| self.support_with_scratch(itemset, &mut scratch.borrow_mut()))
    }

    /// Frequency `f_T` ∈ [0, 1]; 0 for an empty store (matching
    /// [`crate::Database::frequency`]).
    pub fn frequency(&self, itemset: &Itemset) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        self.support(itemset) as f64 / self.rows as f64
    }

    /// Accumulates `out[i] += support(itemsets[i])` in cache blocks: the
    /// outer loop walks tid-word blocks of `block_words`, the inner loop
    /// runs every query over the current block, so the queried column words
    /// are loaded into L2 once per *batch* instead of once per *query*.
    /// Commutative integer accumulation — identical to query-at-a-time.
    pub(crate) fn add_supports_blocked(
        &self,
        itemsets: &[Itemset],
        out: &mut [usize],
        block_words: usize,
        scratch: &mut Vec<u64>,
    ) {
        debug_assert_eq!(itemsets.len(), out.len());
        assert!(block_words > 0, "block_words must be positive");
        let mut w0 = 0;
        while w0 < self.words_per_col {
            let w1 = (w0 + block_words).min(self.words_per_col);
            for (o, t) in out.iter_mut().zip(itemsets) {
                *o += self.support_in_words(t, w0, w1, scratch);
            }
            w0 = w1;
        }
    }

    /// Supports of a whole query log over explicit tid-word blocks — the
    /// knob exists so tests can straddle block boundaries; production paths
    /// (each shard of [`crate::ShardedColumnStore`]) and
    /// [`Self::support_batch`] use `QUERY_BLOCK_WORDS`. Element `i` equals
    /// `self.support(&itemsets[i])` at **any** block size.
    pub fn support_batch_blocked(&self, itemsets: &[Itemset], block_words: usize) -> Vec<usize> {
        let mut out = vec![0usize; itemsets.len()];
        self.add_supports_blocked(itemsets, &mut out, block_words, &mut Vec::new());
        out
    }

    /// Supports of a whole query log, cache-blocked (DESIGN.md §12) and
    /// sharing one scratch buffer.
    pub fn support_batch(&self, itemsets: &[Itemset]) -> Vec<usize> {
        self.support_batch_blocked(itemsets, QUERY_BLOCK_WORDS)
    }

    /// Frequencies of a whole query log, cache-blocked.
    ///
    /// Bit-identical to calling [`Self::frequency`] per itemset: both divide
    /// the same integer support by the same integer row count.
    pub fn frequency_batch(&self, itemsets: &[Itemset]) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; itemsets.len()];
        }
        let n = self.rows as f64;
        self.support_batch(itemsets).into_iter().map(|s| s as f64 / n).collect()
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
            assert_eq!(store.support(&t), db.support(&t), "itemset {t}");
            assert_eq!(store.frequency(&t), db.frequency(&t), "itemset {t}");
        }
    }

    #[test]
    fn batch_matches_scalar() {
        let db = toy();
        let store = ColumnStore::build(db.matrix());
        let queries = vec![
            Itemset::new(vec![0, 1]),
            Itemset::empty(),
            Itemset::new(vec![2, 3]),
            Itemset::new(vec![0, 1, 4]),
        ];
        let supports = store.support_batch(&queries);
        let freqs = store.frequency_batch(&queries);
        for (i, t) in queries.iter().enumerate() {
            assert_eq!(supports[i], store.support(t));
            assert_eq!(freqs[i], store.frequency(t));
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
        assert_eq!(store.support(&Itemset::empty()), 0);
        assert_eq!(store.support(&Itemset::new(vec![0, 7])), 0);
        assert_eq!(store.frequency(&Itemset::empty()), 0.0);
        assert_eq!(store.frequency_batch(&[Itemset::singleton(3)]), vec![0.0]);
    }

    #[test]
    fn zero_column_matrix() {
        let store = ColumnStore::build(Database::zeros(6, 0).matrix());
        assert_eq!(store.dims(), 0);
        // Only the empty itemset is askable; it is in every row.
        assert_eq!(store.support(&Itemset::empty()), 6);
        assert_eq!(store.frequency(&Itemset::empty()), 1.0);
    }

    #[test]
    fn empty_itemset_has_frequency_one() {
        let store = ColumnStore::build(toy().matrix());
        assert_eq!(store.frequency(&Itemset::empty()), 1.0);
        assert_eq!(store.frequency_batch(&[Itemset::empty()]), vec![1.0]);
    }

    #[test]
    fn last_bit_of_final_word() {
        // 130 rows: rows occupy three words per column with a 2-bit tail;
        // 65 columns: the itemset {64} indexes the last allocated column.
        let n = 130;
        let db = Database::from_fn(n, 65, |r, c| r == n - 1 || c == 64);
        let store = ColumnStore::build(db.matrix());
        assert_eq!(store.words_per_col(), 3);
        // Item 64 is in every row; the final row contains everything.
        assert_eq!(store.support(&Itemset::singleton(64)), n);
        assert_eq!(store.support(&Itemset::new(vec![0, 64])), 1);
        assert_eq!(store.support(&Itemset::new(vec![0, 30, 64])), 1);
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
                        assert_eq!(store.words_per_col(), bits::words_for(rows - start).max(1));
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
        ColumnStore::build(toy().matrix()).support(&Itemset::singleton(5));
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

    #[test]
    fn scratch_reuse_is_stateless() {
        let store = ColumnStore::build(toy().matrix());
        let mut scratch = Vec::new();
        let a = Itemset::new(vec![0, 1, 2]);
        let b = Itemset::new(vec![1, 2, 3]);
        let first = store.support_with_scratch(&a, &mut scratch);
        let _ = store.support_with_scratch(&b, &mut scratch);
        assert_eq!(store.support_with_scratch(&a, &mut scratch), first);
    }
}
