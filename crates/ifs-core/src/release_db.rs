//! RELEASE-DB (Definition 6): the identity sketch.

use crate::snapshot::{Snapshot, KIND_RELEASE_DB};
use crate::streaming::{MergeError, MergeableSketch, StreamingBuild};
use crate::traits::{FrequencyEstimator, FrequencyIndicator, Parallel, Sketch};
use ifs_database::codec::{self, DecodeError, Reader, Writer};
use ifs_database::{BitMatrix, Database, Itemset};
use ifs_util::threads::clamp_threads;

/// Releases the database verbatim; queries are exact.
///
/// Space is `O(nd)` bits. Exactness means RELEASE-DB satisfies all four
/// contracts of Definitions 1–4 for every `(k, ε, δ)` simultaneously; the
/// indicator is answered with threshold `ε` against the *exact* frequency.
#[derive(Clone, Debug)]
pub struct ReleaseDb {
    db: Database,
    epsilon: f64,
    threads: usize,
}

impl ReleaseDb {
    /// Builds the sketch (a copy of the database) for threshold ε.
    ///
    /// Cloning the matrix and folding the rows one by one store the same
    /// bits, so this is bit-identical to a [`ReleaseDbBuilder`] fold over
    /// the same rows (asserted in `tests/streaming_builds.rs`); the clone
    /// is simply the cheaper path when the whole database is already in
    /// hand.
    pub fn build(db: &Database, epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        Self { db: db.clone(), epsilon, threads: 1 }
    }

    /// The stored database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The complete framed snapshot in the **legacy v1 body layout**
    /// (ε + uncompressed database fragment). The v1 decoder is kept
    /// forever, so this is still a valid wire encoding — it exists so
    /// tests, the golden corpus, and the store's migration pass can
    /// manufacture v1 bytes from a current build.
    pub fn snapshot_bytes_v1(&self) -> Vec<u8> {
        let mut body = Writer::new();
        body.f64_bits(self.epsilon);
        codec::write_database(&mut body, &self.db);
        let mut out = Vec::new();
        codec::append_frame(KIND_RELEASE_DB, 1, body.as_slice(), &mut out);
        out
    }
}

/// Sketch-level merge: RELEASE-DB over shard A followed by shard B *is*
/// RELEASE-DB over A‖B, so merging appends `other`'s rows — through the
/// [`Database::append_database`] fast path, which extends warm columnar
/// views in place. Associative; **not commutative** (row order is part of
/// the database's identity, though every frequency answer is order-
/// independent). The thread knob of `self` is kept.
impl MergeableSketch for ReleaseDb {
    fn merge(&mut self, other: Self) -> Result<(), MergeError> {
        check_compatible((self.db.dims(), self.epsilon), (other.db.dims(), other.epsilon))?;
        self.db.append_database(&other.db);
        Ok(())
    }
}

/// The one compatibility rule for RELEASE-DB merges, sketch or partial:
/// equal dimensions, then bit-equal thresholds ε.
fn check_compatible(
    (dims, epsilon): (usize, f64),
    (other_dims, other_epsilon): (usize, f64),
) -> Result<(), MergeError> {
    if other_dims != dims {
        return Err(MergeError::Incompatible(format!(
            "ReleaseDb dimensions differ: {dims} vs {other_dims}"
        )));
    }
    if other_epsilon.to_bits() != epsilon.to_bits() {
        return Err(MergeError::Incompatible(format!(
            "ReleaseDb thresholds differ: {epsilon} vs {other_epsilon}"
        )));
    }
    Ok(())
}

/// Streaming builder for [`ReleaseDb`]: the fold just accumulates rows —
/// the identity sketch's "summary" is the stream itself (DESIGN.md §9).
#[derive(Clone, Debug)]
pub struct ReleaseDbBuilder {
    matrix: BitMatrix,
    epsilon: f64,
    offset: u64,
}

impl StreamingBuild for ReleaseDbBuilder {
    /// The threshold ε of the finished sketch.
    type Params = f64;
    type Output = ReleaseDb;

    fn begin_at(dims: usize, _seed: u64, epsilon: &f64, row_offset: u64) -> Self {
        assert!(*epsilon > 0.0 && *epsilon < 1.0);
        Self { matrix: BitMatrix::zeros(0, dims), epsilon: *epsilon, offset: row_offset }
    }

    fn observe_row(&mut self, row: &Itemset) {
        self.matrix.push_row(row.items());
    }

    fn rows_seen(&self) -> u64 {
        self.matrix.rows() as u64
    }

    fn finish(self) -> ReleaseDb {
        assert_eq!(
            self.offset, 0,
            "a partial ReleaseDb build must be merged back to the stream head before finishing"
        );
        ReleaseDb { db: Database::from_matrix(self.matrix), epsilon: self.epsilon, threads: 1 }
    }
}

/// Builder merge: row-order-preserving concatenation of adjacent partials.
/// Associative, not commutative; out-of-order partials are refused.
impl MergeableSketch for ReleaseDbBuilder {
    fn merge(&mut self, other: Self) -> Result<(), MergeError> {
        check_compatible((self.matrix.cols(), self.epsilon), (other.matrix.cols(), other.epsilon))?;
        let expected = self.offset + self.rows_seen();
        if other.offset != expected {
            return Err(MergeError::NonContiguous { expected, got: other.offset });
        }
        self.matrix.extend_rows(&other.matrix);
        Ok(())
    }
}

/// Sketch identity is the stored database plus the threshold ε (compared
/// by bit pattern); the [`Parallel`] thread knob is execution state and
/// does not participate.
impl PartialEq for ReleaseDb {
    fn eq(&self, other: &Self) -> bool {
        self.db == other.db && self.epsilon.to_bits() == other.epsilon.to_bits()
    }
}

impl Eq for ReleaseDb {}

impl Sketch for ReleaseDb {
    /// The length of the actual snapshot encoding (DESIGN.md §10) — the
    /// paper's `O(nd)` with its real constants: header, ε, and word
    /// padding included, because serving pays for those bytes too.
    fn size_bits(&self) -> u64 {
        self.snapshot_bits()
    }
}

/// Body: `epsilon` (f64 bits), then the database fragment — uncompressed
/// (v1) or run-length row groups (v2, the written layout). The v1 decoder
/// is kept forever: bytes already on disk stay decodable. Decoded sketches
/// start serial (`threads = 1`).
impl Snapshot for ReleaseDb {
    const KIND: u16 = KIND_RELEASE_DB;
    const VERSION: u16 = 2;

    fn encode_body(&self, w: &mut Writer) {
        w.f64_bits(self.epsilon);
        codec::write_database_compressed(w, &self.db);
    }

    fn decode_body(r: &mut Reader, version: u16) -> Result<Self, DecodeError> {
        let epsilon = r.f64_bits()?;
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(DecodeError::Corrupt(format!(
                "threshold must satisfy 0 < ε < 1, got {epsilon}"
            )));
        }
        let db = match version {
            1 => codec::read_database(r)?,
            _ => codec::read_database_compressed(r)?,
        };
        Ok(Self { db, epsilon, threads: 1 })
    }
}

impl FrequencyEstimator for ReleaseDb {
    /// Queries run on the stored database's one cached columnar view
    /// ([`Database::sharded_columns`]), the same view batches use; the
    /// exact support is the same integer either way, so answers are
    /// bit-identical to `database().frequency(itemset)`.
    fn estimate(&self, itemset: &Itemset) -> f64 {
        self.db.sharded_columns(self.threads).frequency(itemset)
    }

    /// Batches run on the same view with the sketch's thread knob
    /// ([`Parallel`]): the summed per-shard popcounts are the same integers
    /// at every thread count, so answers stay exact and bit-identical to
    /// [`Self::estimate`].
    fn estimate_batch(&self, itemsets: &[Itemset]) -> Vec<f64> {
        self.db.frequencies_with_threads(itemsets, self.threads)
    }
}

impl Parallel for ReleaseDb {
    fn set_threads(&mut self, threads: usize) {
        self.threads = clamp_threads(threads);
    }

    fn threads(&self) -> usize {
        self.threads
    }
}

impl FrequencyIndicator for ReleaseDb {
    fn is_frequent(&self, itemset: &Itemset) -> bool {
        // Exact frequency: any threshold inside (ε/2, ε] meets Definition 1;
        // we use ≥ ε so "frequent" matches the common f_T ≥ ε convention.
        self.estimate(itemset) >= self.epsilon
    }

    fn is_frequent_batch(&self, itemsets: &[Itemset]) -> Vec<bool> {
        self.estimate_batch(itemsets).into_iter().map(|f| f >= self.epsilon).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_are_exact() {
        let db = Database::from_rows(4, &[vec![0, 1], vec![0], vec![1], vec![0, 1]]);
        let s = ReleaseDb::build(&db, 0.3);
        let t = Itemset::new(vec![0, 1]);
        assert_eq!(s.estimate(&t), db.frequency(&t));
        assert_eq!(s.estimate(&t), 0.5);
    }

    #[test]
    fn indicator_uses_exact_threshold() {
        let db = Database::from_rows(4, &[vec![0], vec![0], vec![1], vec![2]]);
        let s = ReleaseDb::build(&db, 0.5);
        assert!(s.is_frequent(&Itemset::singleton(0))); // f = 0.5 = ε
        assert!(!s.is_frequent(&Itemset::singleton(1))); // f = 0.25
    }

    #[test]
    fn batch_queries_match_scalar_queries() {
        let db = Database::from_rows(6, &[vec![0, 1, 2], vec![0, 1], vec![2, 3], vec![], vec![1]]);
        let s = ReleaseDb::build(&db, 0.3);
        let queries = vec![
            Itemset::empty(),
            Itemset::singleton(1),
            Itemset::new(vec![0, 1]),
            Itemset::new(vec![2, 3, 5]),
        ];
        assert_eq!(
            s.estimate_batch(&queries),
            queries.iter().map(|t| s.estimate(t)).collect::<Vec<_>>()
        );
        assert_eq!(
            s.is_frequent_batch(&queries),
            queries.iter().map(|t| s.is_frequent(t)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn thread_knob_does_not_change_answers() {
        let db = Database::from_rows(6, &[vec![0, 1, 2], vec![0, 1], vec![2, 3], vec![], vec![1]]);
        let serial = ReleaseDb::build(&db, 0.3);
        let threaded = ReleaseDb::build(&db, 0.3).with_threads(8);
        assert_eq!(threaded.threads(), 8);
        let queries = vec![
            Itemset::empty(),
            Itemset::singleton(1),
            Itemset::new(vec![0, 1]),
            Itemset::new(vec![2, 3, 5]),
        ];
        assert_eq!(threaded.estimate_batch(&queries), serial.estimate_batch(&queries));
        assert_eq!(threaded.is_frequent_batch(&queries), serial.is_frequent_batch(&queries));
    }

    #[test]
    fn empty_database_estimates_zero() {
        let s = ReleaseDb::build(&Database::zeros(0, 4), 0.2);
        assert_eq!(s.estimate(&Itemset::singleton(0)), 0.0);
        assert_eq!(s.estimate_batch(&[Itemset::empty()]), vec![0.0]);
    }

    #[test]
    fn builder_fold_matches_one_shot_build() {
        let db = Database::from_rows(5, &[vec![0, 1], vec![2], vec![], vec![1, 4]]);
        let one_shot = ReleaseDb::build(&db, 0.25);
        let streamed = crate::streaming::fold_database::<ReleaseDbBuilder>(&db, 0, &0.25);
        assert_eq!(streamed.database(), one_shot.database());
        assert_eq!(
            streamed.estimate(&Itemset::singleton(1)),
            one_shot.estimate(&Itemset::singleton(1))
        );
    }

    #[test]
    fn sketch_merge_is_row_concatenation() {
        let a = Database::from_rows(4, &[vec![0, 1], vec![2]]);
        let b = Database::from_rows(4, &[vec![3], vec![0, 3]]);
        let mut merged = ReleaseDb::build(&a, 0.25);
        let _ = merged.database().sharded_columns(1); // warm view: merge must maintain it
        merged.merge(ReleaseDb::build(&b, 0.25)).expect("compatible sketches merge");
        let rows = [vec![0, 1], vec![2], vec![3], vec![0, 3]];
        assert_eq!(merged.database(), &Database::from_rows(4, &rows));
        assert!(merged.database().has_sharded_cache(), "merge rides the append fast path");
        // Width and threshold mismatches refuse.
        let mut x = ReleaseDb::build(&a, 0.25);
        assert!(matches!(
            x.merge(ReleaseDb::build(&Database::zeros(2, 5), 0.25)),
            Err(MergeError::Incompatible(_))
        ));
        assert!(matches!(x.merge(ReleaseDb::build(&b, 0.5)), Err(MergeError::Incompatible(_))));
    }

    #[test]
    fn builder_merge_refuses_out_of_order_partials() {
        let mut a = ReleaseDbBuilder::begin(3, 0, &0.2);
        a.observe_row(&Itemset::singleton(0));
        let mut late = ReleaseDbBuilder::begin_at(3, 0, &0.2, 5);
        late.observe_row(&Itemset::singleton(1));
        assert_eq!(a.merge(late), Err(MergeError::NonContiguous { expected: 1, got: 5 }));
        let mut adjacent = ReleaseDbBuilder::begin_at(3, 0, &0.2, 1);
        adjacent.observe_row(&Itemset::singleton(2));
        a.merge(adjacent).expect("adjacent partials merge");
        let sketch = a.finish();
        assert_eq!(sketch.database(), &Database::from_rows(3, &[vec![0], vec![2]]));
    }

    #[test]
    fn size_is_measured_from_the_snapshot_encoding() {
        let db = Database::zeros(10, 100);
        let s = ReleaseDb::build(&db, 0.1);
        let bytes = s.snapshot_bytes();
        assert_eq!(s.size_bits(), bytes.len() as u64 * 8, "size_bits must equal encoded length");
        // Frame (magic 4 + kind 2 + version 2 + len varint 1 + checksum 8)
        // + v2 body (ε 8 + rows/dims varints 1 + 1 + one run-length group
        // for the 10 identical all-zero rows: repeat 1 + mode 1 + items 1).
        assert_eq!(bytes.len(), 17 + 13);
        assert_eq!(ReleaseDb::from_snapshot(&bytes).expect("roundtrip"), s);
    }

    #[test]
    fn legacy_v1_bytes_stay_decodable() {
        let db = Database::from_rows(70, &[vec![0, 69], vec![3], vec![], vec![3], vec![3]]);
        let s = ReleaseDb::build(&db, 0.1);
        let v1 = s.snapshot_bytes_v1();
        // The v1 layout is the uncompressed fragment at frame version 1:
        // frame 17 + ε 8 + rows/dims varints 1 + 1 + 5 rows x 2 words x 8.
        assert_eq!(v1.len(), 17 + 10 + 80);
        assert_eq!(u16::from_le_bytes([v1[6], v1[7]]), 1, "legacy writer stamps version 1");
        let decoded = ReleaseDb::from_snapshot(&v1).expect("v1 decoder is kept forever");
        assert_eq!(decoded, s);
        // Same sketch, both layouts, identical answers — and the current
        // writer stamps version 2.
        let v2 = s.snapshot_bytes();
        assert_eq!(u16::from_le_bytes([v2[6], v2[7]]), 2);
        let q = Itemset::singleton(3);
        assert_eq!(ReleaseDb::from_snapshot(&v2).expect("v2").estimate(&q), decoded.estimate(&q));
    }
}
