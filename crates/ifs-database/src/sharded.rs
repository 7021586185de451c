//! Sharded, multi-threaded columnar query execution (DESIGN.md §8).
//!
//! A `k`-itemset's support over per-item tid-sets costs `O(k·n/64)` word
//! operations. This module partitions the rows into contiguous,
//! word-aligned shards and keeps one [`crate::ColumnStore`] per shard: the
//! support of an itemset is then the **sum of per-shard popcounts**, which
//! is the integer a row-major scan counts (popcount is associative over
//! disjoint row ranges), so answers are bit-identical to
//! [`crate::Database::support`] by construction — at every thread count.
//!
//! The shard is also the cache block: a batch runs shard-outer,
//! query-inner, so one shard's columns are loaded once per batch rather
//! than once per query (DESIGN.md §12). That and the chunk threading below
//! are the engine's two execution levels.
//!
//! Two axes parallelize:
//!
//! * **Build**: each shard transposes its row slice independently
//!   ([`crate::ColumnStore::build_range`]); worker threads drain a shard
//!   work queue. A row append extends the tail shard through the same
//!   tile loop and opens further shards the same way, serially.
//! * **Query batches**: a query log is split into contiguous chunks, one
//!   worker per chunk, each with its own scratch buffer and output vector;
//!   the outputs are concatenated in chunk order. Per-query answers never
//!   depend on which worker computed them. A batch too cheap to repay a
//!   thread spawn runs inline on the caller ([`fanout`]).
//!
//! Both run on [`parallel_map_indexed`], the workspace's one executor (no
//! thread pool, no external dependencies).
//!
//! The shard **layout is a function of the data only** (row count), never of
//! the thread count: `threads` decides how many workers drain the queues,
//! not where shard boundaries fall. That makes the determinism contract
//! trivial to audit — the words in memory are identical whether the store
//! was built or queried with 1 thread or 8.

use crate::{BitMatrix, ColumnStore, Itemset};
use ifs_util::threads::{clamp_threads, parallel_map_indexed};

std::thread_local! {
    /// Scratch for single `support` queries with `k ≥ 4`: grown once per
    /// thread and reused by every later query on it, so a single
    /// `estimate` allocates nothing. Batches pass their own scratch.
    static SUPPORT_SCRATCH: std::cell::RefCell<Vec<u64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Rows per shard: word-aligned (multiple of 64) so no shard splits a tid
/// word, and large enough that per-shard bookkeeping is noise next to the
/// AND+popcount work. 16384 rows × 128 items ≈ 256 KiB of tid words per
/// shard — it fits in L2, which makes the shard the batch path's cache
/// block, while giving a 100k-row database 7 shards to spread over cores.
pub const SHARD_ROWS: usize = 16_384;

/// Tid words a `rows × dims` store holds: `dims` tid-sets of
/// `⌈rows/64⌉` words, at least one each as a [`ColumnStore`] keeps
/// (saturating). With few rows this is up to 64× the row matrix's words —
/// one row pads every tid-set to a whole word — so decoders bound it
/// separately from the row words (`codec::read_database`).
pub(crate) fn tid_words(rows: usize, dims: usize) -> usize {
    dims.saturating_mul(ifs_util::bits::words_for(rows).max(1))
}

/// Per-item tid-sets partitioned into contiguous word-aligned row shards.
///
/// The one query surface over tid-sets: its supports and frequencies equal
/// [`crate::Database::support`] and [`crate::Database::frequency`] bit for
/// bit, and it is buildable and queryable by multiple threads. See the
/// module docs for the determinism argument.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardedColumnStore {
    rows: usize,
    dims: usize,
    shard_rows: usize,
    shards: Vec<ColumnStore>,
}

impl ShardedColumnStore {
    /// Builds the sharded view with the default shard size, using up to
    /// `threads` workers (1 = serial; the shard layout is identical either
    /// way).
    pub fn build(matrix: &BitMatrix, threads: usize) -> Self {
        Self::build_with_shard_rows(matrix, SHARD_ROWS, threads)
    }

    /// Builds with an explicit shard size (tests use adversarial sizes to
    /// hit tail words). `shard_rows` must be a positive multiple of 64 so
    /// shard boundaries never split a tid word.
    pub fn build_with_shard_rows(matrix: &BitMatrix, shard_rows: usize, threads: usize) -> Self {
        assert!(
            shard_rows > 0 && shard_rows.is_multiple_of(64),
            "shard_rows must be a positive multiple of 64, got {shard_rows}"
        );
        let rows = matrix.rows();
        let dims = matrix.cols();
        let n_shards = rows.div_ceil(shard_rows);
        // Shard work queue: workers race for shard indices but every result
        // lands in the slot of its index, so the assembled vector is
        // independent of scheduling (and of `threads`).
        let shards = parallel_map_indexed(n_shards, threads, |i| {
            ColumnStore::build_range(matrix, (i * shard_rows)..((i + 1) * shard_rows).min(rows))
        });
        Self { rows, dims, shard_rows, shards }
    }

    /// Extends the store to every row of `matrix`, whose first
    /// [`Self::rows`] rows must be the ones it holds — the ingestion fast
    /// path (DESIGN.md §9): the ragged tail shard is extended up to its
    /// `shard_rows` boundary by [`ColumnStore`]'s tile loop, and each
    /// further shard is opened with [`ColumnStore::build_range`]. Because
    /// the shard layout is a function of the row count alone, the result
    /// is **bit-identical** (`==`) to rebuilding the store over `matrix`;
    /// earlier shards are never touched, so an append costs the new rows'
    /// tiles plus at most one re-lay of the tail shard, instead of the
    /// full re-transpose.
    pub(crate) fn extend(&mut self, matrix: &BitMatrix) {
        assert!(
            matrix.cols() == self.dims && matrix.rows() >= self.rows,
            "extend keeps the columns and only adds rows"
        );
        let rows = matrix.rows();
        let shard_range = |i: usize| i * self.shard_rows..((i + 1) * self.shard_rows).min(rows);
        if let Some(i) = self.shards.len().checked_sub(1) {
            self.shards[i].extend(matrix, shard_range(i));
        }
        for i in self.shards.len()..rows.div_ceil(self.shard_rows) {
            self.shards.push(ColumnStore::build_range(matrix, shard_range(i)));
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

    /// Number of row shards (0 for an empty matrix).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Rows per shard (the last shard may be shorter).
    pub fn shard_rows(&self) -> usize {
        self.shard_rows
    }

    /// Support of `itemset`: the sum of per-shard popcounts.
    /// Allocation-free: `|itemset| ≤ 3` needs no scratch, and larger
    /// itemsets borrow a thread-local buffer that every shard reuses.
    pub fn support(&self, itemset: &Itemset) -> usize {
        self.check_items(itemset);
        SUPPORT_SCRATCH.with(|scratch| {
            let scratch = &mut scratch.borrow_mut();
            self.shards.iter().map(|s| s.support(itemset, scratch)).sum()
        })
    }

    /// Panics unless every item of `itemset` is a column of this store.
    /// Checked here, at the entry points, because a store with zero shards
    /// has no [`ColumnStore`] left to reject an out-of-range item.
    fn check_items(&self, itemset: &Itemset) {
        if let Some(m) = itemset.max_item() {
            assert!((m as usize) < self.dims, "item {m} out of range for {} columns", self.dims);
        }
    }

    /// Frequency `f_T` ∈ [0, 1]; 0 for an empty store, matching
    /// [`crate::Database::frequency`] bit for bit (same integer support,
    /// same division).
    pub fn frequency(&self, itemset: &Itemset) -> f64 {
        // An empty store's supports are all 0, so `max(1)` only turns
        // 0/0 into 0.
        self.support(itemset) as f64 / self.rows.max(1) as f64
    }

    /// Accumulates `out[i] += support(itemsets[i])` shard by shard, the
    /// engine's one cache-blocked loop: the outer loop walks shards (each
    /// ≲ 256 KiB of tid words — L2-resident by construction, see
    /// [`SHARD_ROWS`]), the inner loop runs every query of the chunk over
    /// the current shard. One shard's columns are loaded once per *batch*
    /// instead of once per *query*. Integer accumulation commutes, so the
    /// totals equal query-at-a-time shard sums exactly.
    fn add_supports(&self, itemsets: &[Itemset], out: &mut [usize], scratch: &mut Vec<u64>) {
        for shard in &self.shards {
            for (o, t) in out.iter_mut().zip(itemsets) {
                *o += shard.support(t, scratch);
            }
        }
    }

    /// Supports of a whole query log, computed by up to `threads` workers
    /// over contiguous chunks of the log; each worker iterates shard-outer,
    /// query-inner (cache-blocked, DESIGN.md §12). `fanout` picks the
    /// worker count from the batch's cost and [`parallel_map_indexed`]
    /// runs the chunks; one chunk is a plain call on the caller's thread.
    /// Element `i` equals `self.support(&itemsets[i])` regardless of
    /// `threads`.
    pub fn support_batch(&self, itemsets: &[Itemset], threads: usize) -> Vec<usize> {
        itemsets.iter().for_each(|t| self.check_items(t));
        let workers = fanout(threads, itemsets, self.rows);
        let chunk = itemsets.len().div_ceil(workers).max(1);
        parallel_map_indexed(itemsets.len().div_ceil(chunk), workers, |i| {
            let qs = &itemsets[i * chunk..((i + 1) * chunk).min(itemsets.len())];
            let mut out = vec![0usize; qs.len()];
            self.add_supports(qs, &mut out, &mut Vec::new());
            out
        })
        .concat()
    }

    /// Frequencies of a whole query log; element `i` equals
    /// `self.frequency(&itemsets[i])` regardless of `threads` (same integer
    /// support, same division).
    pub fn frequency_batch(&self, itemsets: &[Itemset], threads: usize) -> Vec<f64> {
        let n = self.rows.max(1) as f64;
        self.support_batch(itemsets, threads).into_iter().map(|s| s as f64 / n).collect()
    }
}

/// Tid words one worker must have to scan before a fan-out pays off.
///
/// Derived from two measured numbers on a 2-core x86-64 host: spawning and
/// joining two scoped workers costs about 51 µs (perfbench's
/// `engine.fanout_us`), and the wide `and_count` kernel streams about
/// 2.3 Gwords/s on one core (`BENCH_kernels.json`). One
/// spawn therefore costs as much as about 51 µs × 2.3 Gwords/s ≈ 117k tid
/// words of kernel work; a worker with less than that to do finishes
/// sooner inline than it takes to start. 2^17 ≈ 131k rounds that up.
const MIN_WORDS_PER_WORKER: usize = 1 << 17;

/// How many workers a batch of `itemsets` over a `rows`-row store fans out
/// to at a `threads` knob: `min(threads, queries, cost /
/// MIN_WORDS_PER_WORKER)`, and at least 1.
///
/// The cost is `Σ max(|T|, 1) · rows.div_ceil(64)`: the tid words the
/// kernels read, with the empty itemset charged as one column. A batch
/// that cannot give every worker [`MIN_WORDS_PER_WORKER`] words gets
/// fewer workers, down to 1: the caller's thread, with no scope and no
/// spawn. `threads` keeps its meaning of "up to".
fn fanout(threads: usize, itemsets: &[Itemset], rows: usize) -> usize {
    let words_per_col = rows.div_ceil(64);
    let cost = itemsets
        .iter()
        .map(|t| t.len().max(1))
        .fold(0usize, |sum, k| sum.saturating_add(k.saturating_mul(words_per_col)));
    clamp_threads(threads).min(itemsets.len()).min(cost / MIN_WORDS_PER_WORKER).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;
    use ifs_util::threads::MAX_THREADS;
    use ifs_util::Rng64;

    fn random_db(n: usize, d: usize, p: f64, seed: u64) -> Database {
        let mut rng = Rng64::seeded(seed);
        Database::from_fn(n, d, |_, _| rng.bernoulli(p))
    }

    fn random_queries(d: usize, count: usize, seed: u64) -> Vec<Itemset> {
        let mut rng = Rng64::seeded(seed);
        (0..count)
            .map(|_| {
                let k = rng.below(5).min(d);
                (0..k).map(|_| rng.below(d.max(1)) as u32).collect()
            })
            .collect()
    }

    /// Every shard size and thread count answers what a row-major scan
    /// of the database counts, batch and scalar alike.
    #[test]
    fn matches_serial_store_across_shard_sizes_and_threads() {
        let db = random_db(300, 40, 0.35, 0x51AD);
        let queries = random_queries(40, 30, 0x51AE);
        for shard_rows in [64, 128, 256, 512] {
            for threads in [1, 2, 4, 8] {
                let sharded =
                    ShardedColumnStore::build_with_shard_rows(db.matrix(), shard_rows, threads);
                assert_eq!(sharded.rows(), 300);
                assert_eq!(sharded.shard_count(), 300usize.div_ceil(shard_rows));
                let sup = sharded.support_batch(&queries, threads);
                let freq = sharded.frequency_batch(&queries, threads);
                for (i, t) in queries.iter().enumerate() {
                    assert_eq!(sup[i], db.support(t), "support {t} sr={shard_rows}");
                    assert_eq!(freq[i], db.frequency(t), "frequency {t} sr={shard_rows}");
                    assert_eq!(sharded.support(t), sup[i], "scalar/batch {t}");
                    assert_eq!(sharded.frequency(t), freq[i], "scalar/batch {t}");
                }
            }
        }
    }

    #[test]
    fn empty_matrix_has_no_shards() {
        let store = ShardedColumnStore::build(Database::zeros(0, 8).matrix(), 4);
        assert_eq!(store.shard_count(), 0);
        assert_eq!(store.support(&Itemset::empty()), 0);
        assert_eq!(store.frequency(&Itemset::singleton(3)), 0.0);
        assert_eq!(store.frequency_batch(&[Itemset::empty()], 4), vec![0.0]);
        assert_eq!(store.support_batch(&[], 4), Vec::<usize>::new());
        // No shard is left to check items, so the entry points must: an
        // item beyond the columns panics, as it does on a non-empty store.
        let bad = Itemset::singleton(8);
        let panic_of = |f: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("panic");
            err.downcast::<String>().map(|m| *m).unwrap_or_default()
        };
        let want = "item 8 out of range for 8 columns";
        assert_eq!(panic_of(&|| _ = store.support(&bad)), want);
        assert_eq!(panic_of(&|| _ = store.frequency(&bad)), want);
        assert_eq!(panic_of(&|| _ = store.support_batch(std::slice::from_ref(&bad), 4)), want);
        assert_eq!(
            panic_of(&|| _ = store.frequency_batch(&[Itemset::empty(), bad.clone()], 1)),
            want
        );
    }

    #[test]
    fn single_row_and_tail_word_boundaries() {
        // Row counts straddling word and shard boundaries; shard size 64
        // forces every boundary to be exercised.
        for n in [1usize, 63, 64, 65, 127, 128, 129, 200] {
            let db = random_db(n, 10, 0.5, 0xB0 + n as u64);
            let sharded = ShardedColumnStore::build_with_shard_rows(db.matrix(), 64, 3);
            for t in random_queries(10, 15, 0xC0 + n as u64) {
                assert_eq!(sharded.support(&t), db.support(&t), "n={n} itemset {t}");
                assert_eq!(sharded.frequency(&t), db.frequency(&t), "n={n} itemset {t}");
            }
        }
    }

    #[test]
    fn build_threads_do_not_change_layout() {
        let db = random_db(500, 24, 0.3, 0x1DEA);
        let a = ShardedColumnStore::build_with_shard_rows(db.matrix(), 128, 1);
        let b = ShardedColumnStore::build_with_shard_rows(db.matrix(), 128, 8);
        assert_eq!(a, b, "shard contents must be independent of build thread count");
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn rejects_unaligned_shard_size() {
        ShardedColumnStore::build_with_shard_rows(Database::zeros(10, 4).matrix(), 100, 1);
    }

    /// Append maintenance must reproduce a fresh sharded build bit for bit
    /// (`Eq` covers shard boundaries, strides, and every tid word) across
    /// batch sizes that leave ragged tails, exactly fill a shard, and spill
    /// over several shards.
    #[test]
    fn append_rows_is_bit_identical_to_rebuild() {
        let shard_rows = 64;
        let db = random_db(700, 12, 0.35, 0xAB5E);
        let prefix = |n: usize| BitMatrix::from_fn(n, 12, |r, c| db.get(r, c));
        for split in [0usize, 1, 63, 64, 65, 300] {
            let mut store =
                ShardedColumnStore::build_with_shard_rows(&prefix(split), shard_rows, 2);
            // Feed the remainder in uneven batches so tail shards are
            // extended, exactly filled, and overflowed.
            let mut next = split;
            for batch in [1usize, 62, 64, 65, 200, usize::MAX] {
                next = next.saturating_add(batch).min(db.rows());
                store.extend(&prefix(next));
            }
            assert_eq!(
                store,
                ShardedColumnStore::build_with_shard_rows(db.matrix(), shard_rows, 2),
                "append diverged from rebuild at split={split}"
            );
        }
    }

    #[test]
    fn append_to_empty_store_opens_shards() {
        let db = random_db(130, 6, 0.5, 0xE21);
        let mut store =
            ShardedColumnStore::build_with_shard_rows(Database::zeros(0, 6).matrix(), 64, 1);
        assert_eq!(store.shard_count(), 0);
        store.extend(db.matrix());
        assert_eq!(store, ShardedColumnStore::build_with_shard_rows(db.matrix(), 64, 1));
        assert_eq!(store.shard_count(), 3);
    }

    /// `count` singleton queries over `rows` rows cost `count ·
    /// rows.div_ceil(64)` words.
    fn singletons(count: usize) -> Vec<Itemset> {
        vec![Itemset::singleton(0); count]
    }

    #[test]
    fn fanout_runs_cheap_batches_inline() {
        // 16 queries over 8192 rows: 2048 words, far below one share.
        assert_eq!(fanout(2, &singletons(16), 8192), 1);
        // Two columns of one word short of a share each: two words short
        // of two shares, so still inline.
        assert_eq!(fanout(8, &singletons(2), 64 * (MIN_WORDS_PER_WORKER - 1)), 1);
        // Exactly two shares fan out to two.
        assert_eq!(fanout(8, &singletons(2), 64 * MIN_WORDS_PER_WORKER), 2);
    }

    #[test]
    fn fanout_of_costly_batches_is_min_of_threads_and_queries() {
        let rows = 1 << 30;
        assert_eq!(fanout(4, &singletons(1000), rows), 4);
        assert_eq!(fanout(64, &singletons(3), rows), 3);
        assert_eq!(fanout(usize::MAX, &singletons(1000), rows), MAX_THREADS);
        // The empty itemset is charged one column, like a singleton.
        assert_eq!(fanout(4, &vec![Itemset::empty(); 1000], rows), 4);
    }

    #[test]
    fn fanout_is_never_zero_nor_above_the_query_count() {
        for threads in [0usize, 1, 2, 3, 8, 300] {
            for queries in [0usize, 1, 2, 5, 40] {
                for rows in [0usize, 1, 64, 100_000, 1 << 24, usize::MAX] {
                    let w = fanout(threads, &singletons(queries), rows);
                    assert!(w >= 1, "threads={threads} queries={queries} rows={rows}");
                    assert!(w <= queries.max(1), "threads={threads} queries={queries} rows={rows}");
                    assert!(w <= clamp_threads(threads));
                }
            }
        }
    }

    #[test]
    fn more_threads_than_queries_is_fine() {
        let db = random_db(80, 8, 0.4, 0xFEED);
        let sharded = ShardedColumnStore::build(db.matrix(), 8);
        let q = vec![Itemset::singleton(2)];
        assert_eq!(sharded.support_batch(&q, 64), vec![db.support(&q[0])]);
    }
}
