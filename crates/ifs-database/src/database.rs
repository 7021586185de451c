//! The `Database` type: rows, dimensions, and frequency queries.

use crate::{BitMatrix, Itemset, ShardedColumnStore};
use std::sync::OnceLock;

/// A binary database `D ∈ ({0,1}^d)^n` (§1.3 of the paper).
///
/// Thin semantic wrapper over [`BitMatrix`]: `n = rows()`, `d = dims()`. The
/// central query is [`Database::frequency`], the fraction of rows containing
/// an itemset — `f_T(D) = (1/n)·Σ_i 1{T ⊆ D(i)}`.
///
/// Two query layouts coexist (DESIGN.md §7): the row-major matrix answers
/// one-shot queries without preprocessing, and one lazily built, cached
/// tid-set view, the row-sharded [`ShardedColumnStore`]
/// ([`Database::sharded_columns`]), serves repeated or batched queries
/// ([`Database::frequencies`]) at columnar speed, at any thread count
/// (DESIGN.md §8), with answers bit-identical to the row-major path.
/// Identity (`Eq`, `Debug`, the [`codec`](crate::codec) database fragments)
/// is defined by the matrix alone; the cache is a derived view. Two
/// mutation paths exist: the append fast path ([`Database::append_rows`],
/// DESIGN.md §9) extends a warm view **in place**, and arbitrary cell
/// mutation ([`Database::matrix_mut`]) drops it for a full rebuild.
#[derive(Clone)]
pub struct Database {
    matrix: BitMatrix,
    /// Cloned along with the matrix when already built: cloning is how
    /// sketches capture a database, and their query side is exactly the
    /// workload the cache exists for.
    sharded: OnceLock<ShardedColumnStore>,
}

impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        self.matrix == other.matrix
    }
}

impl Eq for Database {}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database").field("matrix", &self.matrix).finish()
    }
}

impl Database {
    /// Wraps an existing matrix (rows are database records).
    pub fn from_matrix(matrix: BitMatrix) -> Self {
        Self { matrix, sharded: OnceLock::new() }
    }

    /// An all-zero database with `n` rows and `d` attributes.
    pub fn zeros(n: usize, d: usize) -> Self {
        Self::from_matrix(BitMatrix::zeros(n, d))
    }

    /// Builds from explicit rows given as attribute-index lists.
    ///
    /// `d` is the attribute count; indices must be `< d`.
    pub fn from_rows(d: usize, rows: &[Vec<u32>]) -> Self {
        let mut m = BitMatrix::zeros(rows.len(), d);
        for (r, row) in rows.iter().enumerate() {
            for &c in row {
                m.set(r, c as usize, true);
            }
        }
        Self::from_matrix(m)
    }

    /// Builds from a cell predicate.
    pub fn from_fn(n: usize, d: usize, f: impl FnMut(usize, usize) -> bool) -> Self {
        Self::from_matrix(BitMatrix::from_fn(n, d, f))
    }

    /// Number of rows `n`.
    pub fn rows(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of attributes `d`.
    pub fn dims(&self) -> usize {
        self.matrix.cols()
    }

    /// The underlying packed matrix.
    pub fn matrix(&self) -> &BitMatrix {
        &self.matrix
    }

    /// Mutable access to the underlying matrix.
    ///
    /// Drops the cached columnar view: the caller may change cells, and the
    /// next [`Database::sharded_columns`] call rebuilds the transpose from
    /// scratch. This is the only **arbitrary** mutation path — row appends
    /// go through [`Database::append_rows`], which maintains a warm view in
    /// place instead of dropping it, and constructors and derivations
    /// (`repeat_rows`, codec decodes, the generators)
    /// all produce fresh `Database` values with cold caches, so a stale
    /// view cannot be served (regression-tested in
    /// `caches_never_serve_stale_views`).
    pub fn matrix_mut(&mut self) -> &mut BitMatrix {
        self.sharded.take();
        &mut self.matrix
    }

    /// Appends rows (given as attribute-index sets) in place — the
    /// streaming-ingestion fast path (DESIGN.md §9).
    ///
    /// Every row is validated **before** anything is mutated: an item `≥ d`
    /// panics with the offending row index, item, and the database's
    /// attribute count (construction-time shape validation alone would let
    /// a malformed ingest batch corrupt the matrix half-applied).
    ///
    /// The rows land in the matrix first. A warm columnar view is then
    /// *extended* from the matrix, not invalidated: the
    /// [`ShardedColumnStore`] runs its tile transpose from its tail's
    /// partial tile on, so an ingest-then-query loop stops paying a full
    /// re-transpose per batch. The maintained view is bit-identical to a
    /// cold rebuild (enforced by `tests/streaming_builds.rs`); a cold view
    /// simply stays cold.
    pub fn append_rows(&mut self, rows: &[Itemset]) {
        let d = self.dims();
        for (i, row) in rows.iter().enumerate() {
            if let Some(m) = row.max_item() {
                assert!(
                    (m as usize) < d,
                    "appended row {i} has item {m}, out of range for a database with {d} columns"
                );
            }
        }
        for row in rows {
            self.matrix.push_row(row.items());
        }
        if let Some(store) = self.sharded.get_mut() {
            store.extend(&self.matrix);
        }
    }

    /// Appends all rows of `other` in place, maintaining a warm view like
    /// [`Database::append_rows`]: the matrix halves share a layout, so the
    /// rows extend as one word memcpy, and the view is extended from the
    /// grown matrix.
    ///
    /// The batch must have the same attribute count: a column-count
    /// mismatch panics with both widths (shape bugs surface at the append
    /// site, not as silently misaligned columns).
    pub fn append_database(&mut self, other: &Database) {
        assert_eq!(
            other.dims(),
            self.dims(),
            "cannot append rows with {} columns to a database with {} columns",
            other.dims(),
            self.dims()
        );
        self.matrix.extend_rows(other.matrix());
        if let Some(store) = self.sharded.get_mut() {
            store.extend(&self.matrix);
        }
    }

    /// The columnar (tid-set) view of this database, built on first use
    /// (with up to `threads` build workers) and cached. It is the one view
    /// behind every batched query and every sketch query, so the
    /// `O(nd/64)` transpose is paid at most once per database. Shard layout
    /// depends only on the data, so the cached store is identical whatever
    /// `threads` the first caller passed; later callers may query it with
    /// any thread count.
    pub fn sharded_columns(&self, threads: usize) -> &ShardedColumnStore {
        self.sharded.get_or_init(|| ShardedColumnStore::build(&self.matrix, threads))
    }

    /// True iff the columnar view has already been materialized.
    pub fn has_sharded_cache(&self) -> bool {
        self.sharded.get().is_some()
    }

    /// Cell accessor `D(i, j)`.
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.matrix.get(row, col)
    }

    /// True iff row `i` contains itemset `T` (all columns of `T` are 1).
    pub fn row_contains(&self, row: usize, itemset: &Itemset) -> bool {
        let mask = itemset.mask(self.dims(), self.matrix.words_per_row());
        self.matrix.row_contains_mask(row, &mask)
    }

    /// Support of `T`: the number of rows containing it.
    pub fn support(&self, itemset: &Itemset) -> usize {
        let mask = itemset.mask(self.dims(), self.matrix.words_per_row());
        self.matrix.count_rows_containing(&mask)
    }

    /// Frequency `f_T(D)` ∈ [0, 1]. Returns 0 for an empty database.
    pub fn frequency(&self, itemset: &Itemset) -> f64 {
        if self.rows() == 0 {
            return 0.0;
        }
        self.support(itemset) as f64 / self.rows() as f64
    }

    /// Supports of a whole query log on the cached columnar view.
    ///
    /// Answers are bit-identical to calling [`Database::support`] per
    /// itemset (both count the same rows; see `tests/columnar_queries.rs`).
    pub fn support_batch(&self, itemsets: &[Itemset]) -> Vec<usize> {
        self.support_batch_with_threads(itemsets, 1)
    }

    /// Frequencies of a whole query log on the cached columnar view.
    ///
    /// The batched, columnar counterpart of [`Database::frequency`]: one
    /// shared transpose, `O(k·n/64)` words per query — and no per-call
    /// mask rebuild, so repeated queries of the same itemset cost only the
    /// intersection.
    pub fn frequencies(&self, itemsets: &[Itemset]) -> Vec<f64> {
        self.frequencies_with_threads(itemsets, 1)
    }

    /// Supports of a whole query log computed by up to `threads` workers
    /// (DESIGN.md §8) on the cached columnar view. A batch too cheap to
    /// repay a thread spawn runs on the caller's thread. Element `i`
    /// equals [`Database::support`] of `itemsets[i]` at every thread count.
    pub fn support_batch_with_threads(&self, itemsets: &[Itemset], threads: usize) -> Vec<usize> {
        self.sharded_columns(threads).support_batch(itemsets, threads)
    }

    /// Frequencies of a whole query log computed by up to `threads` workers
    /// (DESIGN.md §8); bit-identical to [`Database::frequencies`] at every
    /// thread count.
    pub fn frequencies_with_threads(&self, itemsets: &[Itemset], threads: usize) -> Vec<f64> {
        self.sharded_columns(threads).frequency_batch(itemsets, threads)
    }

    /// Pre-resolves an itemset into a packed mask for repeated row tests.
    pub fn mask_of(&self, itemset: &Itemset) -> Vec<u64> {
        itemset.mask(self.dims(), self.matrix.words_per_row())
    }

    /// Support computed against a pre-resolved mask (hot path for the
    /// RELEASE-ANSWERS builder, which touches every `k`-itemset).
    pub fn support_mask(&self, mask: &[u64]) -> usize {
        self.matrix.count_rows_containing(mask)
    }

    /// The itemset view of row `i` (its set of 1-columns).
    pub fn row_itemset(&self, row: usize) -> Itemset {
        ifs_util::bits::ones(self.matrix.row_words(row)).map(|i| i as u32).collect()
    }

    /// Repeats every row `times` times (used by the Theorem 13 construction,
    /// which duplicates each of the `1/ε` distinct rows `⌊nε⌋` times).
    pub fn repeat_rows(&self, times: usize) -> Database {
        let mut m = BitMatrix::zeros(self.rows() * times, self.dims());
        for r in 0..self.rows() {
            for t in 0..times {
                m.set_row_words(r * times + t, self.matrix.row_words(r));
            }
        }
        Database::from_matrix(m)
    }

    /// Density: fraction of 1-cells.
    pub fn density(&self) -> f64 {
        let cells = self.rows() * self.dims();
        if cells == 0 {
            return 0.0;
        }
        self.matrix.total_weight() as f64 / cells as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Database {
        // 4 rows over 5 attributes.
        Database::from_rows(5, &[vec![0, 1, 2], vec![0, 1], vec![1, 2, 3], vec![4]])
    }

    #[test]
    fn dimensions() {
        let db = toy();
        assert_eq!(db.rows(), 4);
        assert_eq!(db.dims(), 5);
    }

    #[test]
    fn frequency_matches_manual_count() {
        let db = toy();
        assert_eq!(db.frequency(&Itemset::new(vec![0, 1])), 0.5); // rows 0,1
        assert_eq!(db.frequency(&Itemset::new(vec![1])), 0.75); // rows 0,1,2
        assert_eq!(db.frequency(&Itemset::new(vec![0, 3])), 0.0);
        assert_eq!(db.frequency(&Itemset::empty()), 1.0); // empty set in all rows
    }

    #[test]
    fn support_and_row_contains() {
        let db = toy();
        let t = Itemset::new(vec![1, 2]);
        assert_eq!(db.support(&t), 2);
        assert!(db.row_contains(0, &t));
        assert!(!db.row_contains(1, &t));
    }

    #[test]
    fn empty_database_frequency_zero() {
        let db = Database::zeros(0, 8);
        assert_eq!(db.frequency(&Itemset::singleton(0)), 0.0);
    }

    #[test]
    fn row_itemset_roundtrip() {
        let db = toy();
        assert_eq!(db.row_itemset(2), Itemset::new(vec![1, 2, 3]));
        assert_eq!(db.row_itemset(3), Itemset::singleton(4));
    }

    #[test]
    fn repeat_rows_scales_support_not_frequency() {
        let db = toy();
        let t = Itemset::new(vec![0, 1]);
        let rep = db.repeat_rows(3);
        assert_eq!(rep.rows(), 12);
        assert_eq!(rep.support(&t), 6);
        assert!((rep.frequency(&t) - db.frequency(&t)).abs() < 1e-12);
    }

    #[test]
    fn density_counts_ones() {
        let db = toy();
        assert!((db.density() - 9.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn frequencies_match_scalar_frequency() {
        let db = toy();
        let queries = vec![
            Itemset::empty(),
            Itemset::new(vec![0, 1]),
            Itemset::singleton(1),
            Itemset::new(vec![0, 3]),
            Itemset::new(vec![1, 2, 3]),
        ];
        let batch = db.frequencies(&queries);
        for (t, &f) in queries.iter().zip(&batch) {
            assert_eq!(f, db.frequency(t), "itemset {t}");
        }
        assert_eq!(db.support_batch(&queries)[1], db.support(&queries[1]));
    }

    #[test]
    fn column_cache_lazy_and_invalidated_on_mutation() {
        let mut db = toy();
        assert!(!db.has_sharded_cache());
        assert_eq!(db.sharded_columns(1).support(&Itemset::singleton(4)), 1);
        assert!(db.has_sharded_cache());
        db.matrix_mut().set(0, 4, true);
        assert!(!db.has_sharded_cache(), "mutation must drop the cached view");
        assert_eq!(db.sharded_columns(1).support(&Itemset::singleton(4)), 2);
        assert_eq!(db.frequency(&Itemset::singleton(4)), 0.5);
    }

    #[test]
    fn clone_and_eq_ignore_cache_state() {
        let db = toy();
        let warm = db.clone();
        let _ = warm.sharded_columns(1);
        assert_eq!(db, warm, "cache state must not affect equality");
        let cloned_warm = warm.clone();
        assert!(cloned_warm.has_sharded_cache(), "clone keeps an already-built view");
        assert_eq!(cloned_warm, db);
    }

    #[test]
    fn database_stays_send_and_sync() {
        // The columnar cache is an OnceLock precisely so sketches can be
        // queried from multiple threads; a regression here breaks that.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
    }

    #[test]
    fn frequencies_on_empty_database_are_zero() {
        let db = Database::zeros(0, 8);
        assert_eq!(db.frequencies(&[Itemset::empty(), Itemset::singleton(2)]), vec![0.0, 0.0]);
    }

    #[test]
    fn threaded_batches_match_serial() {
        let db = toy();
        let queries = vec![
            Itemset::empty(),
            Itemset::new(vec![0, 1]),
            Itemset::singleton(1),
            Itemset::new(vec![1, 2, 3]),
        ];
        for threads in [0usize, 1, 2, 4, 8] {
            assert_eq!(
                db.support_batch_with_threads(&queries, threads),
                db.support_batch(&queries)
            );
            assert_eq!(db.frequencies_with_threads(&queries, threads), db.frequencies(&queries));
        }
    }

    /// The cache-invalidation audit (every path that could serve a stale
    /// columnar view): mutation drops the cache; codec round-trips, row
    /// repetition, and generator outputs produce fresh databases whose views
    /// are rebuilt from their own matrices.
    #[test]
    fn caches_never_serve_stale_views() {
        let mut db = toy();
        let t = Itemset::singleton(4);
        // Warm the view, then mutate: it must be invalidated.
        assert_eq!(db.sharded_columns(2).support(&t), 1);
        db.matrix_mut().set(0, 4, true);
        assert!(!db.has_sharded_cache(), "mutation must drop the view");
        assert_eq!(db.sharded_columns(2).support(&t), 2);
        assert_eq!(db.support_batch_with_threads(std::slice::from_ref(&t), 4), vec![2]);

        // Codec round-trip of a warm database: the decoded copy answers
        // from its own (fresh) view, and re-warming gives current answers.
        let mut w = crate::codec::Writer::new();
        crate::codec::write_database(&mut w, &db);
        let bytes = w.into_bytes();
        let back =
            crate::codec::read_database(&mut crate::codec::Reader::new(&bytes)).expect("roundtrip");
        assert!(!back.has_sharded_cache());
        assert_eq!(back.sharded_columns(1).support(&t), 2);

        // repeat_rows from a warm database: the copy is a fresh database
        // over different rows; its view must reflect those rows.
        let rep = db.repeat_rows(2);
        assert!(!rep.has_sharded_cache());
        assert_eq!(rep.sharded_columns(1).support(&t), 4); // rows 0 and 3, twice each
        assert_eq!(rep.frequencies_with_threads(std::slice::from_ref(&t), 2), vec![0.5]);

        // A clone taken warm, then mutated, must diverge from its source
        // without corrupting it.
        let mut fork = db.clone();
        assert!(fork.has_sharded_cache());
        fork.matrix_mut().set(1, 4, true);
        assert_eq!(fork.sharded_columns(1).support(&t), 3);
        assert_eq!(db.sharded_columns(1).support(&t), 2, "source database must be untouched");

        // Generator outputs mutate through matrix_mut internally; their
        // view must match a cold rebuild of the same matrix.
        let mut rng = ifs_util::Rng64::seeded(0xCAFE);
        let gen = crate::generators::planted(
            64,
            8,
            0.2,
            &[crate::generators::Plant { itemset: Itemset::new(vec![1, 2]), frequency: 0.5 }],
            &mut rng,
        );
        let fresh = Database::from_matrix(gen.matrix().clone());
        let probe = Itemset::new(vec![1, 2]);
        assert_eq!(gen.sharded_columns(2).support(&probe), fresh.support(&probe));
    }

    /// The append fast path: a warm view is extended in place (never
    /// dropped) and stays bit-identical to a cold rebuild of the extended
    /// matrix.
    #[test]
    fn append_rows_maintains_warm_caches_in_place() {
        let mut db = toy();
        let t = Itemset::new(vec![1, 2]);
        assert_eq!(db.sharded_columns(2).support(&t), 2);
        db.append_rows(&[Itemset::new(vec![1, 2, 4]), Itemset::empty()]);
        assert!(db.has_sharded_cache(), "append must not drop the view");
        assert_eq!(db.rows(), 6);
        let fresh = Database::from_matrix(db.matrix().clone());
        assert_eq!(db.sharded_columns(1), fresh.sharded_columns(1));
        assert_eq!(db.support(&t), 3);
        assert_eq!(db.frequencies(std::slice::from_ref(&t)), vec![0.5]);
        assert_eq!(db.row_itemset(5), Itemset::empty());
    }

    #[test]
    fn append_rows_on_cold_caches_stays_cold() {
        let mut db = toy();
        db.append_rows(&[Itemset::singleton(0)]);
        assert!(!db.has_sharded_cache());
        assert_eq!(db.rows(), 5);
        assert_eq!(db.support(&Itemset::singleton(0)), 3);
    }

    #[test]
    #[should_panic(
        expected = "appended row 1 has item 9, out of range for a database with 5 columns"
    )]
    fn append_rows_rejects_out_of_range_items_before_mutating() {
        let mut db = toy();
        db.append_rows(&[Itemset::singleton(0), Itemset::new(vec![2, 9])]);
    }

    #[test]
    fn append_rows_validates_before_mutating() {
        let mut db = toy();
        let before = db.clone();
        let bad = [Itemset::singleton(0), Itemset::singleton(5)];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.append_rows(&bad);
        }));
        assert!(result.is_err());
        assert_eq!(db, before, "a rejected batch must leave the database untouched");
    }

    #[test]
    fn append_database_matches_stack() {
        let a = toy();
        let b = Database::from_rows(5, &[vec![0, 4], vec![]]);
        let stacked = Database::from_rows(
            5,
            &[vec![0, 1, 2], vec![0, 1], vec![1, 2, 3], vec![4], vec![0, 4], vec![]],
        );
        let mut warm = a.clone();
        let _ = warm.sharded_columns(2);
        warm.append_database(&b);
        assert_eq!(warm, stacked);
        assert_eq!(warm.sharded_columns(1), stacked.sharded_columns(1));
        let mut cold = a.clone();
        cold.append_database(&b);
        assert_eq!(cold, stacked);
        assert!(!cold.has_sharded_cache());
    }

    #[test]
    #[should_panic(expected = "cannot append rows with 4 columns to a database with 5 columns")]
    fn append_database_rejects_column_mismatch() {
        let mut db = toy();
        db.append_database(&Database::zeros(2, 4));
    }

    #[test]
    fn mask_cache_equivalent_to_direct() {
        let db = toy();
        let t = Itemset::new(vec![1, 2]);
        let mask = db.mask_of(&t);
        assert_eq!(db.support_mask(&mask), db.support(&t));
    }
}
