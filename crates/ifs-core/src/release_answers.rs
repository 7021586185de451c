//! RELEASE-ANSWERS (Definition 7): precompute and store every answer.
//!
//! There are `C(d, k)` possible `k`-itemset queries. The indicator variant
//! stores one bit per query; the estimator variant stores each frequency
//! quantized to a grid of spacing `2ε` (so the representation error is at
//! most ε), which costs `⌈log₂(1/(2ε) + 1)⌉` bits per query — the paper's
//! `O(C(d,k)·log(1/ε))`.
//!
//! Answers are indexed by the colexicographic rank of the itemset, so no
//! itemset identifiers are stored at all. Both variants are *deterministic*
//! and satisfy the For-All contracts with δ = 0.
//!
//! **Ingestion (DESIGN.md §9).** Both builds are expressed as single-pass
//! folds over the rows: the builders accumulate one raw *support counter*
//! per `k`-itemset, and thresholding (indicator) or quantization
//! (estimator) happens once at `finish`. Supports are plain sums, so the
//! **builders** merge counter-wise (commutatively); the **finished
//! sketches** do not implement `MergeableSketch` at all — a stored
//! threshold bit or quantized level cannot be re-aggregated across shards
//! without the raw counts, so the paper's construction is inherently
//! offline once finished, and the type system says so.

use crate::snapshot::{Snapshot, KIND_RELEASE_ANSWERS_ESTIMATOR, KIND_RELEASE_ANSWERS_INDICATOR};
use crate::streaming::{MergeError, MergeableSketch, StreamingBuild};
use crate::traits::{FrequencyEstimator, FrequencyIndicator, Sketch};
use ifs_database::codec::{self, DecodeError, Reader, Writer};
use ifs_database::{Database, Itemset};
use ifs_util::{bits, combin};

/// Shared header validation of the RELEASE-ANSWERS snapshot bodies: the
/// `(k, d, count)` triple must be a real query space with `count` equal to
/// `C(d, k)` — anything else cannot index answers by colex rank.
fn validate_answer_shape(k: usize, d: usize, count: u64) -> Result<(), DecodeError> {
    if k == 0 || k > d {
        return Err(DecodeError::Corrupt(format!("k={k} out of range for d={d}")));
    }
    // The checked binomial: a crafted (d, k) whose C(d,k) overflows u64
    // must be a typed refusal, not the panic `binomial_u64` reserves for
    // trusted build-side parameters.
    let expected = combin::binomial_checked(d as u64, k as u64)
        .filter(|&b| u64::try_from(b).is_ok())
        .ok_or_else(|| {
            DecodeError::Corrupt(format!("C({d},{k}) does not fit in u64; header is implausible"))
        })?;
    if u128::from(count) != expected {
        return Err(DecodeError::Corrupt(format!(
            "answer count {count} does not equal C({d},{k}) = {expected}"
        )));
    }
    Ok(())
}

/// Shared fold state of both RELEASE-ANSWERS builders: one raw support
/// counter per `k`-itemset (indexed by colex rank) plus the row count.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SupportCounts {
    k: usize,
    d: usize,
    supports: Vec<u64>,
    rows: u64,
}

impl SupportCounts {
    fn begin(d: usize, k: usize) -> Self {
        assert!(k >= 1 && k <= d, "k={k} out of range for d={d}");
        let count = combin::binomial_u64(d as u64, k as u64);
        Self { k, d, supports: vec![0; count as usize], rows: 0 }
    }

    /// Folds one row: every `k`-subset of the row's items gains one
    /// support. `C(|row|, k)` increments — the same enumeration the
    /// streaming adapter uses, and usually far cheaper than the
    /// `O(C(d,k)·n)` subset tests of the historical per-itemset build.
    fn observe_row(&mut self, row: &Itemset) {
        let items = row.items();
        assert!(
            items.last().is_none_or(|&m| (m as usize) < self.d),
            "row has item out of range for {} attributes",
            self.d
        );
        self.rows += 1;
        if items.len() < self.k {
            return;
        }
        let mut subset = vec![0u32; self.k];
        for combo in combin::Combinations::new(items.len() as u32, self.k as u32) {
            for (slot, &i) in subset.iter_mut().zip(&combo) {
                *slot = items[i as usize];
            }
            self.supports[combin::rank_colex(&subset) as usize] += 1;
        }
    }

    /// Frequency of the itemset with colex rank `rank` (0 for an empty
    /// stream) — the same integer-over-integer division the row-major
    /// `Database::frequency` performs, so finished answers are
    /// bit-identical to the historical build.
    fn frequency(&self, rank: usize) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        self.supports[rank] as f64 / self.rows as f64
    }

    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if other.d != self.d || other.k != self.k {
            return Err(MergeError::Incompatible(format!(
                "ReleaseAnswers partials differ: (d, k) = ({}, {}) vs ({}, {})",
                self.d, self.k, other.d, other.k
            )));
        }
        for (mine, theirs) in self.supports.iter_mut().zip(&other.supports) {
            *mine += theirs;
        }
        self.rows += other.rows;
        Ok(())
    }
}

/// Indicator answers for all `k`-itemsets: one bit per itemset.
///
/// Deliberately **not** [`MergeableSketch`]: the stored bit `f_T ≥ ε`
/// cannot be re-aggregated across shards (two shard-local bits say nothing
/// about the global frequency). Merge the
/// [builders](ReleaseAnswersIndicatorBuilder), which still hold raw
/// supports, instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReleaseAnswersIndicator {
    k: usize,
    d: usize,
    words: Vec<u64>,
    count: u64,
}

impl ReleaseAnswersIndicator {
    /// Precomputes the threshold bit (`f_T ≥ ε`) for every `k`-itemset, as
    /// a single fold over the rows ([`ReleaseAnswersIndicatorBuilder`]) —
    /// so one-shot and streamed builds are bit-identical by construction.
    /// Callers are expected to keep `C(d,k)` laptop-sized; the experiments
    /// do.
    pub fn build(db: &Database, k: usize, epsilon: f64) -> Self {
        crate::streaming::fold_database::<ReleaseAnswersIndicatorBuilder>(
            db,
            0,
            &ReleaseAnswersParams { k, epsilon },
        )
    }

    /// Itemset cardinality `k` this sketch answers — queries of any other
    /// length are outside its contract (the serving tier refuses them
    /// before they reach [`is_frequent`](FrequencyIndicator::is_frequent),
    /// which asserts).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Attribute count `d` of the database the answers were built over.
    pub fn dims(&self) -> usize {
        self.d
    }
}

/// Build-time parameters of the RELEASE-ANSWERS builders.
#[derive(Clone, Debug)]
pub struct ReleaseAnswersParams {
    /// Itemset cardinality `k` answered by the sketch.
    pub k: usize,
    /// Threshold / precision ε.
    pub epsilon: f64,
}

/// Streaming builder for [`ReleaseAnswersIndicator`]: accumulates raw
/// supports, thresholds at `finish`. Merging is counter-wise and therefore
/// **commutative** as well as associative.
#[derive(Clone, Debug)]
pub struct ReleaseAnswersIndicatorBuilder {
    counts: SupportCounts,
    epsilon: f64,
}

impl StreamingBuild for ReleaseAnswersIndicatorBuilder {
    type Params = ReleaseAnswersParams;
    type Output = ReleaseAnswersIndicator;

    fn begin_at(dims: usize, _seed: u64, params: &ReleaseAnswersParams, _row_offset: u64) -> Self {
        assert!(params.epsilon > 0.0 && params.epsilon < 1.0);
        Self { counts: SupportCounts::begin(dims, params.k), epsilon: params.epsilon }
    }

    fn observe_row(&mut self, row: &Itemset) {
        self.counts.observe_row(row);
    }

    fn rows_seen(&self) -> u64 {
        self.counts.rows
    }

    fn finish(self) -> ReleaseAnswersIndicator {
        let count = self.counts.supports.len() as u64;
        let mut words = vec![0u64; bits::words_for(count as usize).max(1)];
        for rank in 0..count as usize {
            if self.counts.frequency(rank) >= self.epsilon {
                bits::set(&mut words, rank, true);
            }
        }
        ReleaseAnswersIndicator { k: self.counts.k, d: self.counts.d, words, count }
    }
}

impl MergeableSketch for ReleaseAnswersIndicatorBuilder {
    fn merge(&mut self, other: Self) -> Result<(), MergeError> {
        if other.epsilon.to_bits() != self.epsilon.to_bits() {
            return Err(MergeError::Incompatible(format!(
                "ReleaseAnswers partials with different thresholds: {} vs {}",
                self.epsilon, other.epsilon
            )));
        }
        self.counts.merge(&other.counts)
    }
}

impl Sketch for ReleaseAnswersIndicator {
    /// The length of the actual snapshot encoding (DESIGN.md §10): the
    /// paper's one bit per answer, byte-rounded, plus the measured frame
    /// and `(k, d, count)` header — replacing the historical hand-computed
    /// `count + 128`.
    fn size_bits(&self) -> u64 {
        self.snapshot_bits()
    }
}

/// Body: `k`, `d`, `count` varints, then the answer bits packed into
/// `⌈count/8⌉` bytes (colex-rank order, matching the query path).
impl Snapshot for ReleaseAnswersIndicator {
    const KIND: u16 = KIND_RELEASE_ANSWERS_INDICATOR;

    fn encode_body(&self, w: &mut Writer) {
        w.varint(self.k as u64);
        w.varint(self.d as u64);
        w.varint(self.count);
        codec::write_bitset(w, &self.words, self.count as usize);
    }

    fn decode_body(r: &mut Reader, _version: u16) -> Result<Self, DecodeError> {
        let k = r.varint_usize()?;
        let d = r.varint_usize()?;
        let count = r.varint()?;
        validate_answer_shape(k, d, count)?;
        let words = codec::read_bitset(r, count as usize)?;
        Ok(Self { k, d, words, count })
    }
}

impl FrequencyIndicator for ReleaseAnswersIndicator {
    fn is_frequent(&self, itemset: &Itemset) -> bool {
        assert_eq!(itemset.len(), self.k, "sketch answers only {}-itemsets", self.k);
        assert!(itemset.max_item().is_none_or(|m| (m as usize) < self.d));
        bits::get(&self.words, itemset.colex_rank() as usize)
    }
}

/// Estimator answers for all `k`-itemsets, quantized to precision ε.
///
/// Like the indicator variant, **not** [`MergeableSketch`]: quantization
/// is lossy, so re-aggregating shard-local levels could not reproduce the
/// one-pass quantization bit for bit. Merge the
/// [builders](ReleaseAnswersEstimatorBuilder) instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReleaseAnswersEstimator {
    k: usize,
    d: usize,
    bits_per: u32,
    levels: u64,
    packed: Vec<u64>,
    count: u64,
}

impl ReleaseAnswersEstimator {
    /// Precomputes every `k`-itemset frequency rounded to the nearest point
    /// of a uniform grid on `[0, 1]` with spacing `≤ 2ε`, as a single fold
    /// over the rows ([`ReleaseAnswersEstimatorBuilder`]).
    pub fn build(db: &Database, k: usize, epsilon: f64) -> Self {
        crate::streaming::fold_database::<ReleaseAnswersEstimatorBuilder>(
            db,
            0,
            &ReleaseAnswersParams { k, epsilon },
        )
    }

    /// Itemset cardinality `k` this sketch answers (see
    /// [`ReleaseAnswersIndicator::k`]).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Attribute count `d` of the database the answers were built over.
    pub fn dims(&self) -> usize {
        self.d
    }
}

/// Streaming builder for [`ReleaseAnswersEstimator`]: accumulates raw
/// supports, quantizes at `finish`. Merging is counter-wise and therefore
/// **commutative** as well as associative.
#[derive(Clone, Debug)]
pub struct ReleaseAnswersEstimatorBuilder {
    counts: SupportCounts,
    epsilon: f64,
}

impl StreamingBuild for ReleaseAnswersEstimatorBuilder {
    type Params = ReleaseAnswersParams;
    type Output = ReleaseAnswersEstimator;

    fn begin_at(dims: usize, _seed: u64, params: &ReleaseAnswersParams, _row_offset: u64) -> Self {
        assert!(params.epsilon > 0.0 && params.epsilon < 1.0);
        Self { counts: SupportCounts::begin(dims, params.k), epsilon: params.epsilon }
    }

    fn observe_row(&mut self, row: &Itemset) {
        self.counts.observe_row(row);
    }

    fn rows_seen(&self) -> u64 {
        self.counts.rows
    }

    fn finish(self) -> ReleaseAnswersEstimator {
        // levels - 1 intervals of width <= 2ε covering [0,1].
        let levels = (1.0 / (2.0 * self.epsilon)).ceil() as u64 + 1;
        let bits_per = 64 - (levels - 1).leading_zeros();
        let count = self.counts.supports.len() as u64;
        let total_bits = (count as usize) * (bits_per as usize);
        let mut packed = vec![0u64; bits::words_for(total_bits).max(1)];
        for rank in 0..count as usize {
            let level = (self.counts.frequency(rank) * (levels - 1) as f64).round() as u64;
            let base = rank * bits_per as usize;
            for b in 0..bits_per as usize {
                if (level >> b) & 1 == 1 {
                    bits::set(&mut packed, base + b, true);
                }
            }
        }
        ReleaseAnswersEstimator {
            k: self.counts.k,
            d: self.counts.d,
            bits_per,
            levels,
            packed,
            count,
        }
    }
}

impl MergeableSketch for ReleaseAnswersEstimatorBuilder {
    fn merge(&mut self, other: Self) -> Result<(), MergeError> {
        if other.epsilon.to_bits() != self.epsilon.to_bits() {
            return Err(MergeError::Incompatible(format!(
                "ReleaseAnswers partials with different precisions: {} vs {}",
                self.epsilon, other.epsilon
            )));
        }
        self.counts.merge(&other.counts)
    }
}

impl Sketch for ReleaseAnswersEstimator {
    /// The length of the actual snapshot encoding (DESIGN.md §10): the
    /// paper's `⌈log₂ levels⌉` bits per answer, byte-rounded, plus the
    /// measured frame and header — replacing the historical hand-computed
    /// `count · bits_per + 128`.
    fn size_bits(&self) -> u64 {
        self.snapshot_bits()
    }
}

/// Body: `k`, `d`, `levels`, `count` varints, then the quantized levels
/// packed at `bits_per = ⌈log₂ levels⌉` bits each into `⌈count·bits_per/8⌉`
/// bytes (colex-rank order). `bits_per` is re-derived from `levels` on
/// decode — storing both would be a redundancy an attacker could make
/// inconsistent.
impl Snapshot for ReleaseAnswersEstimator {
    const KIND: u16 = KIND_RELEASE_ANSWERS_ESTIMATOR;

    fn encode_body(&self, w: &mut Writer) {
        w.varint(self.k as u64);
        w.varint(self.d as u64);
        w.varint(self.levels);
        w.varint(self.count);
        let total_bits = self.count as usize * self.bits_per as usize;
        codec::write_bitset(w, &self.packed, total_bits);
    }

    fn decode_body(r: &mut Reader, _version: u16) -> Result<Self, DecodeError> {
        let k = r.varint_usize()?;
        let d = r.varint_usize()?;
        let levels = r.varint()?;
        if levels < 2 {
            return Err(DecodeError::Corrupt(format!(
                "quantization needs at least 2 levels, got {levels}"
            )));
        }
        let count = r.varint()?;
        validate_answer_shape(k, d, count)?;
        let bits_per = 64 - (levels - 1).leading_zeros();
        let total_bits = (count as usize).checked_mul(bits_per as usize).ok_or_else(|| {
            DecodeError::Corrupt(format!("{count} answers x {bits_per} bits overflows"))
        })?;
        let packed = codec::read_bitset(r, total_bits)?;
        Ok(Self { k, d, bits_per, levels, packed, count })
    }
}

impl FrequencyEstimator for ReleaseAnswersEstimator {
    fn estimate(&self, itemset: &Itemset) -> f64 {
        assert_eq!(itemset.len(), self.k, "sketch answers only {}-itemsets", self.k);
        assert!(itemset.max_item().is_none_or(|m| (m as usize) < self.d));
        let base = itemset.colex_rank() as usize * self.bits_per as usize;
        let mut level = 0u64;
        for b in 0..self.bits_per as usize {
            if bits::get(&self.packed, base + b) {
                level |= 1 << b;
            }
        }
        level as f64 / (self.levels - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifs_database::generators;
    use ifs_util::Rng64;

    #[test]
    fn indicator_matches_exact_thresholding() {
        let mut rng = Rng64::seeded(21);
        let db = generators::uniform(200, 10, 0.3, &mut rng);
        let eps = 0.15;
        let s = ReleaseAnswersIndicator::build(&db, 2, eps);
        for comb in combin::Combinations::new(10, 2) {
            let t = Itemset::new(comb);
            assert_eq!(s.is_frequent(&t), db.frequency(&t) >= eps, "itemset {t}");
        }
    }

    #[test]
    fn estimator_error_within_epsilon() {
        let mut rng = Rng64::seeded(22);
        let db = generators::uniform(173, 9, 0.5, &mut rng);
        let eps = 0.07;
        let s = ReleaseAnswersEstimator::build(&db, 3, eps);
        let mut worst: f64 = 0.0;
        for comb in combin::Combinations::new(9, 3) {
            let t = Itemset::new(comb);
            worst = worst.max((s.estimate(&t) - db.frequency(&t)).abs());
        }
        assert!(worst <= eps + 1e-12, "worst quantization error {worst} > ε={eps}");
    }

    #[test]
    fn estimator_size_scales_with_log_eps() {
        let db = Database::zeros(10, 8);
        let coarse = ReleaseAnswersEstimator::build(&db, 2, 0.25);
        let fine = ReleaseAnswersEstimator::build(&db, 2, 1.0 / 1024.0);
        // All C(8,2) = 28 answers grow from ⌈log₂ 3⌉ = 2 to ⌈log₂ 513⌉ = 10
        // bits, so the frame grows by at least 28 · 8 bits.
        assert!(fine.size_bits() >= coarse.size_bits() + 28 * 8);
    }

    #[test]
    fn indicator_size_is_one_bit_per_itemset_plus_measured_framing() {
        let db = Database::zeros(10, 12);
        let s = ReleaseAnswersIndicator::build(&db, 3, 0.1);
        let bytes = s.snapshot_bytes();
        assert_eq!(s.size_bits(), bytes.len() as u64 * 8, "size_bits must equal encoded length");
        // Body: k (1) + d (1) + count=220 (2) + ⌈220/8⌉ = 28 answer bytes;
        // frame: magic 4 + kind 2 + version 2 + len varint 1 + checksum 8.
        assert_eq!(bytes.len(), 17 + 4 + 28);
        assert_eq!(ReleaseAnswersIndicator::from_snapshot(&bytes).expect("roundtrip"), s);
    }

    #[test]
    #[should_panic(expected = "answers only")]
    fn wrong_cardinality_panics() {
        let db = Database::zeros(5, 6);
        let s = ReleaseAnswersIndicator::build(&db, 2, 0.1);
        s.is_frequent(&Itemset::singleton(1));
    }

    /// Builders merged from arbitrary row partitions finish to the same
    /// bits as the one-shot build — and counter-wise merging commutes.
    #[test]
    fn builders_merge_commutatively_to_the_one_shot_answers() {
        use crate::streaming::{MergeableSketch, StreamingBuild};
        let mut rng = Rng64::seeded(23);
        let db = generators::uniform(150, 8, 0.4, &mut rng);
        let (k, eps) = (2usize, 0.1);
        let params = ReleaseAnswersParams { k, epsilon: eps };
        let one_shot = ReleaseAnswersIndicator::build(&db, k, eps);
        let split = 57;
        let mut a = ReleaseAnswersIndicatorBuilder::begin(8, 0, &params);
        let mut b = ReleaseAnswersIndicatorBuilder::begin(8, 0, &params);
        for r in 0..db.rows() {
            if r < split { &mut a } else { &mut b }.observe_row(&db.row_itemset(r));
        }
        let (mut ab, mut ba) = (a.clone(), b.clone());
        ab.merge(b).expect("same-shape partials merge");
        ba.merge(a).expect("counter merge commutes");
        assert_eq!(ab.finish(), one_shot);
        assert_eq!(ba.finish(), one_shot, "counter-wise merge must be commutative");

        // The estimator variant shares the same counts core.
        let est_one_shot = ReleaseAnswersEstimator::build(&db, k, eps);
        let mut ea = ReleaseAnswersEstimatorBuilder::begin(8, 0, &params);
        let mut eb = ReleaseAnswersEstimatorBuilder::begin(8, 0, &params);
        for r in 0..db.rows() {
            if r % 3 == 0 { &mut ea } else { &mut eb }.observe_row(&db.row_itemset(r));
        }
        ea.merge(eb).expect("same-shape partials merge");
        assert_eq!(ea.finish(), est_one_shot);
    }

    #[test]
    fn builder_merge_refuses_shape_mismatches() {
        use crate::streaming::{MergeError, MergeableSketch, StreamingBuild};
        let p2 = ReleaseAnswersParams { k: 2, epsilon: 0.1 };
        let p3 = ReleaseAnswersParams { k: 3, epsilon: 0.1 };
        let mut a = ReleaseAnswersIndicatorBuilder::begin(8, 0, &p2);
        assert!(matches!(
            a.merge(ReleaseAnswersIndicatorBuilder::begin(8, 0, &p3)),
            Err(MergeError::Incompatible(_))
        ));
        assert!(matches!(
            a.merge(ReleaseAnswersIndicatorBuilder::begin(9, 0, &p2)),
            Err(MergeError::Incompatible(_))
        ));
        let peps = ReleaseAnswersParams { k: 2, epsilon: 0.2 };
        assert!(matches!(
            a.merge(ReleaseAnswersIndicatorBuilder::begin(8, 0, &peps)),
            Err(MergeError::Incompatible(_))
        ));
    }

    #[test]
    fn extreme_frequencies_quantize_exactly() {
        // All-ones and all-zeros columns hit grid endpoints exactly.
        let db = Database::from_fn(50, 4, |_, c| c == 0);
        let s = ReleaseAnswersEstimator::build(&db, 1, 0.1);
        assert_eq!(s.estimate(&Itemset::singleton(0)), 1.0);
        assert_eq!(s.estimate(&Itemset::singleton(1)), 0.0);
    }
}
