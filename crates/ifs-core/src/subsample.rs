//! SUBSAMPLE (Definition 8): uniform row sampling with replacement.
//!
//! The paper's headline upper bound — and, by its lower bounds, an
//! essentially optimal one. The sketch is simply `s` rows drawn uniformly
//! with replacement; queries evaluate frequencies on the sample. Lemma 9
//! gives the sample counts for each of the four guarantees:
//!
//! | Guarantee | rows `s` |
//! |---|---|
//! | For-Each-Indicator | `O(ε⁻¹ log(1/δ))` |
//! | For-Each-Estimator | `O(ε⁻² log(1/δ))` |
//! | For-All-Indicator | `O(ε⁻¹ log(C(d,k)/δ))` |
//! | For-All-Estimator | `O(ε⁻² log(C(d,k)/δ))` |
//!
//! Since the streaming-ingestion refactor (DESIGN.md §9), the build *is* a
//! single-pass fold: [`SubsampleBuilder`] maintains the `s` slots as
//! independent with-replacement reservoirs over the arriving rows, so the
//! one-shot constructors, a build streamed in arbitrary batches, and a
//! sharded build merged from per-shard partials all produce bit-identical
//! samples from the same seed.

use crate::params::{Guarantee, SketchParams};
use crate::snapshot::{Snapshot, KIND_SUBSAMPLE, KIND_SUBSAMPLE_BUILDER};
use crate::streaming::{
    build_sharded, fold_database, MergeError, MergeableSketch, StreamingBuild, INGEST_CHUNK_ROWS,
};
use crate::traits::{FrequencyEstimator, FrequencyIndicator, Parallel, Sketch};
use ifs_database::codec::{self, DecodeError, Reader, Writer};
use ifs_database::{Database, Itemset};
use ifs_util::hash::stable_hash;
use ifs_util::threads::clamp_threads;
use ifs_util::{tail, Rng64};

/// A uniform with-replacement row sample of the database.
#[derive(Clone, Debug)]
pub struct Subsample {
    sample: Database,
    epsilon: f64,
    threads: usize,
}

impl Subsample {
    /// Builds a sketch for the given guarantee, choosing the sample count
    /// from Lemma 9.
    pub fn build(
        db: &Database,
        params: &SketchParams,
        guarantee: Guarantee,
        rng: &mut Rng64,
    ) -> Self {
        let s = Self::sample_count(db.dims(), params, guarantee);
        Self::with_sample_count(db, s, params.epsilon, rng)
    }

    /// Builds a sketch with an explicit number of sampled rows — the knob the
    /// lower-bound experiments turn to trade space against accuracy.
    ///
    /// `s` must be positive: a 0-row sample answers no query (its frequency
    /// estimates would be `0/0`), and every Lemma 9 sample count is ≥ 1, so
    /// an `s = 0` request is always a caller bug.
    ///
    /// One draw of `rng` keys the whole build; the sampling itself is the
    /// [`SubsampleBuilder`] fold, so this is bit-identical to streaming the
    /// rows through a builder with the same seed.
    pub fn with_sample_count(db: &Database, s: usize, epsilon: f64, rng: &mut Rng64) -> Self {
        Self::with_sample_count_seeded(db, s, epsilon, rng.next_u64())
    }

    /// [`Subsample::with_sample_count`] with an explicit 64-bit seed — the
    /// entry point the streaming tests and distributed builders use to line
    /// up one-shot, streamed, and merged builds exactly.
    pub fn with_sample_count_seeded(db: &Database, s: usize, epsilon: f64, seed: u64) -> Self {
        assert!(db.rows() > 0, "cannot sample an empty database");
        assert!(s > 0, "sample count must be positive: a 0-row sample answers no query");
        fold_database::<SubsampleBuilder>(db, seed, &SubsampleParams { sample_rows: s, epsilon })
    }

    /// [`Subsample::with_sample_count_seeded`] as a sharded build: per-chunk
    /// partial reservoirs folded on the §8 work queue and merged in row
    /// order — bit-identical to the serial fold at every thread count.
    pub fn with_sample_count_sharded(
        db: &Database,
        s: usize,
        epsilon: f64,
        seed: u64,
        threads: usize,
    ) -> Self {
        assert!(db.rows() > 0, "cannot sample an empty database");
        assert!(s > 0, "sample count must be positive: a 0-row sample answers no query");
        build_sharded::<SubsampleBuilder>(
            db,
            seed,
            &SubsampleParams { sample_rows: s, epsilon },
            threads,
        )
    }

    /// Lemma 9's sample count for the guarantee. For the indicator variants
    /// the estimate must resolve the threshold gap `[ε/2, ε]`, which is what
    /// the `16/ε` constant in [`ifs_util::tail::samples_foreach_indicator`]
    /// accounts for.
    pub fn sample_count(d: usize, params: &SketchParams, guarantee: Guarantee) -> usize {
        let (eps, delta) = (params.epsilon, params.delta);
        let s = match guarantee {
            Guarantee::ForEachIndicator => tail::samples_foreach_indicator(eps, delta),
            Guarantee::ForEachEstimator => tail::samples_foreach_estimator(eps, delta),
            Guarantee::ForAllIndicator => {
                tail::samples_forall_indicator(d as u64, params.k as u64, eps, delta)
            }
            Guarantee::ForAllEstimator => {
                tail::samples_forall_estimator(d as u64, params.k as u64, eps, delta)
            }
        };
        s as usize
    }

    /// Number of sampled rows.
    pub fn rows(&self) -> usize {
        self.sample.rows()
    }

    /// The sampled rows as a database.
    pub fn sample(&self) -> &Database {
        &self.sample
    }
}

/// Sketch identity is the sampled rows plus the threshold ε (compared by
/// bit pattern). The [`Parallel`] thread knob is execution state, not
/// identity, so it does not participate — and is not serialized.
impl PartialEq for Subsample {
    fn eq(&self, other: &Self) -> bool {
        self.sample == other.sample && self.epsilon.to_bits() == other.epsilon.to_bits()
    }
}

impl Eq for Subsample {}

impl Sketch for Subsample {
    /// The length of the actual snapshot encoding (DESIGN.md §10) — a
    /// measurement, not bookkeeping.
    fn size_bits(&self) -> u64 {
        self.snapshot_bits()
    }
}

/// Body: `epsilon` (f64 bits), then the sampled rows as a database
/// fragment. Decoded sketches start serial (`threads = 1`).
impl Snapshot for Subsample {
    const KIND: u16 = KIND_SUBSAMPLE;

    fn encode_body(&self, w: &mut Writer) {
        w.f64_bits(self.epsilon);
        codec::write_database(w, &self.sample);
    }

    fn decode_body(r: &mut Reader, _version: u16) -> Result<Self, DecodeError> {
        let epsilon = r.f64_bits()?;
        let sample = codec::read_database(r)?;
        if sample.rows() == 0 {
            return Err(DecodeError::Corrupt(
                "a 0-row sample answers no query; valid Subsample snapshots have rows >= 1".into(),
            ));
        }
        Ok(Self { sample, epsilon, threads: 1 })
    }
}

impl FrequencyEstimator for Subsample {
    /// Queries run on the sample's one cached columnar view
    /// ([`Database::sharded_columns`]): a sketch exists to be queried many
    /// times, so the one-off transpose of the (small) sample amortizes
    /// immediately. The answer is the same integer support over the same
    /// rows as the row-major path, divided by the same row count —
    /// bit-identical to `sample().frequency(itemset)`.
    fn estimate(&self, itemset: &Itemset) -> f64 {
        self.sample.sharded_columns(self.threads).frequency(itemset)
    }

    /// Batches run on the same view with the sketch's thread knob
    /// ([`Parallel`]), bit-identical to [`Self::estimate`] at every thread
    /// count (DESIGN.md §8).
    fn estimate_batch(&self, itemsets: &[Itemset]) -> Vec<f64> {
        self.sample.frequencies_with_threads(itemsets, self.threads)
    }
}

impl Parallel for Subsample {
    fn set_threads(&mut self, threads: usize) {
        self.threads = clamp_threads(threads);
    }

    fn threads(&self) -> usize {
        self.threads
    }
}

impl FrequencyIndicator for Subsample {
    fn is_frequent(&self, itemset: &Itemset) -> bool {
        self.estimate(itemset) >= 0.75 * self.epsilon
    }

    fn is_frequent_batch(&self, itemsets: &[Itemset]) -> Vec<bool> {
        let thresh = 0.75 * self.epsilon;
        self.estimate_batch(itemsets).into_iter().map(|f| f >= thresh).collect()
    }
}

/// Build-time parameters of a [`SubsampleBuilder`].
#[derive(Clone, Debug)]
pub struct SubsampleParams {
    /// Number of sampled rows `s` (must be positive).
    pub sample_rows: usize,
    /// Threshold ε carried into the finished sketch's indicator.
    pub epsilon: f64,
}

/// Streaming builder for [`Subsample`]: `s` independent with-replacement
/// reservoirs folded over the arriving rows (DESIGN.md §9).
///
/// **Construction.** Rows are grouped into [`INGEST_CHUNK_ROWS`]-row chunks
/// aligned to global row indices. For slot `j` and chunk `c` holding rows
/// `[o_c, o_c + m_c)`, two draws keyed by `(seed, j, c)` through the
/// golden-pinned [`stable_hash`] decide (a) whether the slot *replaces* its
/// content with a row of this chunk — with probability exactly
/// `m_c / (o_c + m_c)`, the classical distributed-reservoir rule — and (b)
/// *which* chunk row, uniformly. Telescoping gives every global row
/// probability `1/n` per slot, i.e. exactly uniform sampling with
/// replacement (Definition 8), and every decision is a pure function of
/// `(seed, slot, chunk)`, never of processing history.
///
/// **Why this merges bit-identically.** A partial build over a later row
/// range resolves exactly the chunk decisions a one-pass fold would have
/// resolved over those rows; merging in row order takes the later partial's
/// winners and stitches boundary-straddling chunk buffers back together, so
/// fold, streamed, and sharded-merged builds produce the same sample bit
/// for bit. Merging is associative; it is **not** commutative — partials
/// must arrive in row order, and out-of-order merges are refused with
/// [`MergeError::NonContiguous`].
#[derive(Clone, Debug)]
pub struct SubsampleBuilder {
    dims: usize,
    seed: u64,
    params: SubsampleParams,
    offset: u64,
    rows_seen: u64,
    /// Rows from `offset` up to the first chunk boundary — resolvable only
    /// after this partial is merged onto one covering the chunk's head
    /// (empty when `offset` is chunk-aligned).
    front: Vec<Itemset>,
    /// Rows of the chunk currently being filled; `back[0]` has global index
    /// `back_start` (always chunk-aligned).
    back: Vec<Itemset>,
    back_start: u64,
    /// Per-slot winners among the rows resolved so far.
    slots: Vec<Option<Itemset>>,
}

/// Purpose tags separating the two draw streams of a `(seed, slot, chunk)`
/// key.
const DRAW_REPLACE: u64 = 0;
const DRAW_PICK: u64 = 1;

impl SubsampleBuilder {
    /// Unbiased uniform draw in `[0, bound)`, keyed by
    /// `(seed, slot, chunk, purpose)` and rejection-chained through an
    /// attempt counter — integer-exact, so identical on every platform.
    fn draw_below(&self, slot: u64, chunk: u64, purpose: u64, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let threshold = bound.wrapping_neg() % bound; // 2^64 mod bound
        let mut attempt = 0u64;
        loop {
            let h = stable_hash(self.seed, &(slot, chunk, purpose, attempt));
            let wide = u128::from(h) * u128::from(bound);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
            attempt += 1;
        }
    }

    /// Resolves one fully buffered chunk starting at global row
    /// `chunk_start`: every slot decides independently whether a row of
    /// this chunk replaces its content.
    fn resolve_chunk(&mut self, chunk_start: u64, rows: &[Itemset]) {
        let chunk = chunk_start / INGEST_CHUNK_ROWS as u64;
        let m = rows.len() as u64;
        let seen_through = chunk_start + m;
        for j in 0..self.params.sample_rows as u64 {
            if self.draw_below(j, chunk, DRAW_REPLACE, seen_through) < m {
                let idx = self.draw_below(j, chunk, DRAW_PICK, m);
                self.slots[j as usize] = Some(rows[idx as usize].clone());
            }
        }
    }

    /// Capacity of the front buffer: rows between `offset` and the first
    /// chunk boundary.
    fn front_capacity(&self) -> usize {
        let k = INGEST_CHUNK_ROWS as u64;
        (self.offset.div_ceil(k) * k - self.offset) as usize
    }
}

impl StreamingBuild for SubsampleBuilder {
    type Params = SubsampleParams;
    type Output = Subsample;

    fn begin_at(dims: usize, seed: u64, params: &SubsampleParams, row_offset: u64) -> Self {
        assert!(
            params.sample_rows > 0,
            "sample count must be positive: a 0-row sample answers no query"
        );
        let k = INGEST_CHUNK_ROWS as u64;
        Self {
            dims,
            seed,
            params: params.clone(),
            offset: row_offset,
            rows_seen: 0,
            front: Vec::new(),
            back: Vec::new(),
            back_start: row_offset.div_ceil(k) * k,
            slots: vec![None; params.sample_rows],
        }
    }

    fn observe_row(&mut self, row: &Itemset) {
        assert!(
            row.max_item().is_none_or(|m| (m as usize) < self.dims),
            "row has item out of range for {} attributes",
            self.dims
        );
        self.rows_seen += 1;
        if self.front.len() < self.front_capacity() {
            self.front.push(row.clone());
            return;
        }
        self.back.push(row.clone());
        if self.back.len() == INGEST_CHUNK_ROWS {
            let full = std::mem::take(&mut self.back);
            self.resolve_chunk(self.back_start, &full);
            self.back_start += INGEST_CHUNK_ROWS as u64;
        }
    }

    fn rows_seen(&self) -> u64 {
        self.rows_seen
    }

    fn finish(mut self) -> Subsample {
        assert_eq!(
            self.offset, 0,
            "a partial Subsample build must be merged back to the stream head before finishing"
        );
        assert!(self.rows_seen > 0, "cannot sample an empty database");
        if !self.back.is_empty() {
            let tail = std::mem::take(&mut self.back);
            self.resolve_chunk(self.back_start, &tail);
        }
        let mut matrix = ifs_database::BitMatrix::zeros(self.params.sample_rows, self.dims);
        for (r, slot) in self.slots.iter().enumerate() {
            let row = slot.as_ref().expect("chunk 0 always fills every slot");
            for &c in row.items() {
                matrix.set(r, c as usize, true);
            }
        }
        Subsample {
            sample: Database::from_matrix(matrix),
            epsilon: self.params.epsilon,
            threads: 1,
        }
    }
}

impl MergeableSketch for SubsampleBuilder {
    /// Absorbs the partial build covering the rows immediately after
    /// `self`'s. Associative by construction; **not commutative** — row
    /// order is part of the sample's identity, so non-adjacent or
    /// out-of-order partials are refused.
    fn merge(&mut self, other: Self) -> Result<(), MergeError> {
        if other.dims != self.dims
            || other.seed != self.seed
            || other.params.sample_rows != self.params.sample_rows
            || other.params.epsilon.to_bits() != self.params.epsilon.to_bits()
        {
            return Err(MergeError::Incompatible(format!(
                "Subsample partials differ: dims {} vs {}, seed {:#x} vs {:#x}, s {} vs {}, \
                 epsilon {} vs {}",
                self.dims,
                other.dims,
                self.seed,
                other.seed,
                self.params.sample_rows,
                other.params.sample_rows,
                self.params.epsilon,
                other.params.epsilon,
            )));
        }
        let expected = self.offset + self.rows_seen;
        if other.offset != expected {
            return Err(MergeError::NonContiguous { expected, got: other.offset });
        }
        // `other`'s front rows are contiguous with our tail: replay them
        // (possibly completing — and resolving — our pending chunk). Their
        // global indices line up because fronts end exactly at the chunk
        // boundary `other`'s back starts on.
        let other_reached_back = other.front.len() == other.front_capacity();
        for row in &other.front {
            self.observe_row(row);
        }
        // `other`'s resolved winners come from strictly later chunks than
        // anything we resolved: later wins.
        for (mine, theirs) in self.slots.iter_mut().zip(other.slots) {
            if theirs.is_some() {
                *mine = theirs;
            }
        }
        // Adopt `other`'s pending chunk and progress — but only if `other`
        // actually reached its back region (filled its front): otherwise
        // its `back_start` is still the speculative first boundary and all
        // its rows were replayed above.
        if other_reached_back {
            if !other.back.is_empty() {
                debug_assert!(
                    self.back.is_empty(),
                    "boundary stitching must have drained our back"
                );
                self.back = other.back;
            }
            if other.back_start > self.back_start {
                self.back_start = other.back_start;
            }
        }
        self.rows_seen += other.rows_seen - other.front.len() as u64;
        Ok(())
    }
}

/// Partial-build identity: every field of the fold state, ε compared by
/// bit pattern — two equal builders keep folding, merging, and finishing
/// bit-identically.
impl PartialEq for SubsampleBuilder {
    fn eq(&self, other: &Self) -> bool {
        self.dims == other.dims
            && self.seed == other.seed
            && self.params.sample_rows == other.params.sample_rows
            && self.params.epsilon.to_bits() == other.params.epsilon.to_bits()
            && self.offset == other.offset
            && self.rows_seen == other.rows_seen
            && self.front == other.front
            && self.back == other.back
            && self.back_start == other.back_start
            && self.slots == other.slots
    }
}

impl Eq for SubsampleBuilder {}

/// Body: the complete fold state — `(dims, seed, s, ε)` build key, stream
/// position (`offset`, `rows_seen`, `back_start`), the front/back boundary
/// buffers, and the per-slot winners. Snapshotting a *partial* build is
/// what lets ingestion migrate across processes: a decoded builder keeps
/// observing, merging, and finishing bit-identically to one that never
/// left memory (DESIGN.md §9 + §10).
impl Snapshot for SubsampleBuilder {
    const KIND: u16 = KIND_SUBSAMPLE_BUILDER;

    fn encode_body(&self, w: &mut Writer) {
        w.varint(self.dims as u64);
        w.u64(self.seed);
        w.varint(self.params.sample_rows as u64);
        w.f64_bits(self.params.epsilon);
        w.varint(self.offset);
        w.varint(self.rows_seen);
        w.varint(self.back_start);
        w.varint(self.front.len() as u64);
        for row in &self.front {
            codec::write_itemset(w, row);
        }
        w.varint(self.back.len() as u64);
        for row in &self.back {
            codec::write_itemset(w, row);
        }
        for slot in &self.slots {
            match slot {
                Some(row) => {
                    w.u8(1);
                    codec::write_itemset(w, row);
                }
                None => w.u8(0),
            }
        }
    }

    fn decode_body(r: &mut Reader, _version: u16) -> Result<Self, DecodeError> {
        let dims = r.varint_usize()?;
        let seed = r.u64()?;
        let sample_rows = r.varint_usize()?;
        if sample_rows == 0 {
            return Err(DecodeError::Corrupt("sample count must be positive".into()));
        }
        let epsilon = r.f64_bits()?;
        let offset = r.varint()?;
        let rows_seen = r.varint()?;
        let back_start = r.varint()?;
        let k = INGEST_CHUNK_ROWS as u64;
        // Checked: an offset in the last chunk of the u64 range has no
        // next chunk boundary, so a crafted offset is a typed refusal —
        // never wrapping arithmetic that would inflate front_capacity.
        let next_boundary = offset.checked_next_multiple_of(k).ok_or_else(|| {
            DecodeError::Corrupt(format!("row offset {offset} has no chunk boundary above it"))
        })?;
        let front_capacity = (next_boundary - offset) as usize;
        let front_len = r.varint_usize()?;
        if front_len > front_capacity {
            return Err(DecodeError::Corrupt(format!(
                "front buffer claims {front_len} rows, capacity at offset {offset} is \
                 {front_capacity}"
            )));
        }
        let mut front = Vec::with_capacity(front_len);
        for _ in 0..front_len {
            front.push(codec::read_itemset(r, dims)?);
        }
        let back_len = r.varint_usize()?;
        if back_len >= INGEST_CHUNK_ROWS {
            return Err(DecodeError::Corrupt(format!(
                "back buffer claims {back_len} rows, full chunks of {INGEST_CHUNK_ROWS} are \
                 always resolved"
            )));
        }
        let mut back = Vec::with_capacity(back_len);
        for _ in 0..back_len {
            back.push(codec::read_itemset(r, dims)?);
        }
        r.require(sample_rows)?; // each slot costs >= 1 presence byte
        let mut slots = Vec::with_capacity(sample_rows);
        for _ in 0..sample_rows {
            slots.push(match r.u8()? {
                0 => None,
                1 => Some(codec::read_itemset(r, dims)?),
                other => {
                    return Err(DecodeError::Corrupt(format!(
                        "slot presence flag must be 0 or 1, got {other}"
                    )))
                }
            });
        }
        Ok(Self {
            dims,
            seed,
            params: SubsampleParams { sample_rows, epsilon },
            offset,
            rows_seen,
            front,
            back,
            back_start,
            slots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifs_database::generators::{self, Plant};

    #[test]
    fn estimator_accuracy_on_planted_itemset() {
        let mut rng = Rng64::seeded(31);
        let t = Itemset::new(vec![1, 5]);
        let db = generators::planted(
            50_000,
            16,
            0.02,
            &[Plant { itemset: t.clone(), frequency: 0.3 }],
            &mut rng,
        );
        let truth = db.frequency(&t);
        let params = SketchParams::new(2, 0.05, 0.05);
        let s = Subsample::build(&db, &params, Guarantee::ForEachEstimator, &mut rng);
        let est = s.estimate(&t);
        assert!((est - truth).abs() <= params.epsilon, "est {est} truth {truth}");
    }

    #[test]
    fn indicator_separates_frequent_from_rare() {
        let mut rng = Rng64::seeded(32);
        let hot = Itemset::new(vec![0, 1]);
        let cold = Itemset::new(vec![10, 11]);
        let db = generators::planted(
            20_000,
            12,
            0.0,
            &[
                Plant { itemset: hot.clone(), frequency: 0.25 },
                Plant { itemset: cold.clone(), frequency: 0.01 },
            ],
            &mut rng,
        );
        let params = SketchParams::new(2, 0.1, 0.05);
        let s = Subsample::build(&db, &params, Guarantee::ForEachIndicator, &mut rng);
        assert!(s.is_frequent(&hot));
        assert!(!s.is_frequent(&cold));
    }

    #[test]
    fn sample_counts_ordered_by_strength() {
        // ε must be below 1/16 for the 1/ε² estimator cost to dominate the
        // indicator's 16/ε constant.
        let params = SketchParams::new(3, 0.01, 0.05);
        let fe_i = Subsample::sample_count(64, &params, Guarantee::ForEachIndicator);
        let fe_e = Subsample::sample_count(64, &params, Guarantee::ForEachEstimator);
        let fa_i = Subsample::sample_count(64, &params, Guarantee::ForAllIndicator);
        let fa_e = Subsample::sample_count(64, &params, Guarantee::ForAllEstimator);
        assert!(fa_i > fe_i, "union bound costs samples");
        assert!(fa_e > fe_e);
        assert!(fe_e > fe_i, "estimator (1/ε²) beats indicator (1/ε) in cost");
    }

    #[test]
    fn size_independent_of_n() {
        let mut rng = Rng64::seeded(33);
        let small = generators::uniform(1_000, 32, 0.2, &mut rng);
        let large = generators::uniform(50_000, 32, 0.2, &mut rng);
        let params = SketchParams::new(2, 0.1, 0.1);
        let s1 = Subsample::build(&small, &params, Guarantee::ForEachEstimator, &mut rng);
        let s2 = Subsample::build(&large, &params, Guarantee::ForEachEstimator, &mut rng);
        assert_eq!(s1.size_bits(), s2.size_bits(), "sketch size must not grow with n");
    }

    #[test]
    fn explicit_sample_count_is_respected() {
        let mut rng = Rng64::seeded(34);
        let db = generators::uniform(100, 8, 0.5, &mut rng);
        let s = Subsample::with_sample_count(&db, 17, 0.1, &mut rng);
        assert_eq!(s.rows(), 17);
    }

    #[test]
    fn batch_queries_match_scalar_queries() {
        let mut rng = Rng64::seeded(36);
        let db = generators::uniform(600, 20, 0.4, &mut rng);
        let params = SketchParams::new(3, 0.08, 0.05);
        let s = Subsample::build(&db, &params, Guarantee::ForEachEstimator, &mut rng);
        let queries: Vec<Itemset> = (0..50)
            .map(|_| (0..1 + rng.below(4)).map(|_| rng.below(20) as u32).collect())
            .chain([Itemset::empty()])
            .collect();
        let est = s.estimate_batch(&queries);
        let ind = s.is_frequent_batch(&queries);
        for (i, t) in queries.iter().enumerate() {
            assert_eq!(est[i], s.estimate(t), "estimate diverged on {t}");
            assert_eq!(ind[i], s.is_frequent(t), "indicator diverged on {t}");
        }
    }

    #[test]
    #[should_panic(expected = "empty database")]
    fn sampling_empty_db_panics() {
        let mut rng = Rng64::seeded(35);
        let db = Database::zeros(0, 4);
        Subsample::with_sample_count(&db, 5, 0.1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "sample count must be positive")]
    fn zero_sample_count_is_rejected() {
        // Historically this built a 0-row sample whose frequency queries
        // were 0/0; now it is rejected at construction, before either the
        // scalar or the batched query path can observe an empty sample.
        let mut rng = Rng64::seeded(37);
        let db = Database::zeros(10, 4);
        Subsample::with_sample_count(&db, 0, 0.1, &mut rng);
    }

    #[test]
    fn lemma9_sample_counts_are_always_positive() {
        // No (ε, δ, d, k) combination may round the Lemma 9 count to 0 —
        // otherwise `build` would hit the 0-row rejection above.
        for eps in [0.01, 0.5, 0.999] {
            for delta in [1e-6, 0.5, 0.999] {
                for (d, k) in [(1usize, 1usize), (4, 2), (64, 4), (256, 8)] {
                    let params = SketchParams::new(k, eps, delta);
                    for g in [
                        Guarantee::ForEachIndicator,
                        Guarantee::ForEachEstimator,
                        Guarantee::ForAllIndicator,
                        Guarantee::ForAllEstimator,
                    ] {
                        let s = Subsample::sample_count(d, &params, g);
                        assert!(s >= 1, "s = 0 for eps={eps} delta={delta} d={d} k={k} {g:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn streamed_build_is_bit_identical_to_one_shot() {
        let mut rng = Rng64::seeded(40);
        let db = generators::uniform(500, 16, 0.3, &mut rng);
        let params = SubsampleParams { sample_rows: 37, epsilon: 0.1 };
        let one_shot = Subsample::with_sample_count_seeded(&db, 37, 0.1, 0xFEED);
        // The same rows streamed one by one through a builder.
        let mut b = SubsampleBuilder::begin(db.dims(), 0xFEED, &params);
        for r in 0..db.rows() {
            b.observe_row(&db.row_itemset(r));
        }
        assert_eq!(b.rows_seen(), 500);
        let streamed = b.finish();
        assert_eq!(streamed.sample(), one_shot.sample(), "streamed sample diverged");
    }

    #[test]
    fn merged_partial_builds_match_one_pass() {
        let mut rng = Rng64::seeded(41);
        let db = generators::uniform(400, 12, 0.4, &mut rng);
        let params = SubsampleParams { sample_rows: 23, epsilon: 0.1 };
        let one_shot = Subsample::with_sample_count_seeded(&db, 23, 0.1, 7);
        for split in [1usize, 100, 399] {
            let mut a = SubsampleBuilder::begin(db.dims(), 7, &params);
            let mut b = SubsampleBuilder::begin_at(db.dims(), 7, &params, split as u64);
            for r in 0..split {
                a.observe_row(&db.row_itemset(r));
            }
            for r in split..db.rows() {
                b.observe_row(&db.row_itemset(r));
            }
            a.merge(b).expect("contiguous partials merge");
            assert_eq!(a.finish().sample(), one_shot.sample(), "split={split}");
        }
    }

    #[test]
    fn sharded_build_matches_serial_at_every_thread_count() {
        let mut rng = Rng64::seeded(42);
        let db = generators::uniform(900, 10, 0.5, &mut rng);
        let serial = Subsample::with_sample_count_seeded(&db, 31, 0.2, 0xABCD);
        for threads in [1usize, 2, 4] {
            let sharded = Subsample::with_sample_count_sharded(&db, 31, 0.2, 0xABCD, threads);
            assert_eq!(sharded.sample(), serial.sample(), "threads={threads}");
        }
    }

    /// Streams larger than one ingest chunk exercise the mid-stream chunk
    /// resolutions and the front/back stitching at real chunk boundaries —
    /// both aligned and unaligned merge splits must reproduce the one-pass
    /// fold, and so must the multi-chunk sharded build.
    #[test]
    fn chunk_boundary_crossings_stay_bit_identical() {
        let n = 2 * INGEST_CHUNK_ROWS + 137;
        let db = Database::from_fn(n, 6, |r, c| (r * 31 + c * 7) % 11 < 4);
        let params = SubsampleParams { sample_rows: 9, epsilon: 0.1 };
        let one_shot = Subsample::with_sample_count_seeded(&db, 9, 0.1, 0xC0DE);
        for split in [
            1usize,
            INGEST_CHUNK_ROWS - 1,
            INGEST_CHUNK_ROWS, // chunk-aligned: empty front on the tail partial
            INGEST_CHUNK_ROWS + 1,
            2 * INGEST_CHUNK_ROWS + 100,
        ] {
            let mut a = SubsampleBuilder::begin(db.dims(), 0xC0DE, &params);
            let mut b = SubsampleBuilder::begin_at(db.dims(), 0xC0DE, &params, split as u64);
            for r in 0..split {
                a.observe_row(&db.row_itemset(r));
            }
            for r in split..n {
                b.observe_row(&db.row_itemset(r));
            }
            a.merge(b).expect("contiguous partials merge");
            assert_eq!(a.finish().sample(), one_shot.sample(), "split={split}");
        }
        for threads in [1usize, 3] {
            let sharded = Subsample::with_sample_count_sharded(&db, 9, 0.1, 0xC0DE, threads);
            assert_eq!(sharded.sample(), one_shot.sample(), "threads={threads}");
        }
    }

    #[test]
    fn non_contiguous_merge_is_refused() {
        let params = SubsampleParams { sample_rows: 5, epsilon: 0.1 };
        let mut a = SubsampleBuilder::begin(4, 1, &params);
        a.observe_row(&Itemset::singleton(0));
        let b = SubsampleBuilder::begin_at(4, 1, &params, 10);
        match a.merge(b) {
            Err(crate::streaming::MergeError::NonContiguous { expected: 1, got: 10 }) => {}
            other => panic!("expected NonContiguous refusal, got {other:?}"),
        }
        // Mismatched seeds are structural incompatibilities.
        let c = SubsampleBuilder::begin_at(4, 2, &params, 1);
        assert!(matches!(a.merge(c), Err(crate::streaming::MergeError::Incompatible(_))));
    }

    #[test]
    fn sample_distribution_is_uniform_over_rows() {
        // Rows are distinguishable singletons; with s samples of n rows the
        // per-row hit count concentrates around s/n. This guards the
        // chunked-reservoir math (replace probability m/(o+m), telescoping
        // to 1/n per row) against off-by-one regressions.
        let n = 64;
        let db = Database::from_fn(n, n, |r, c| r == c);
        let s = 6400;
        let sketch = Subsample::with_sample_count_seeded(&db, s, 0.1, 0x77);
        let mut hits = vec![0usize; n];
        for r in 0..s {
            let row = sketch.sample().row_itemset(r);
            hits[row.items()[0] as usize] += 1;
        }
        let expected = s / n; // 100
        for (row, &h) in hits.iter().enumerate() {
            assert!((40..=180).contains(&h), "row {row} sampled {h} times, expected ~{expected}");
        }
    }

    #[test]
    fn thread_knob_does_not_change_answers() {
        let mut rng = Rng64::seeded(38);
        let db = generators::uniform(700, 24, 0.4, &mut rng);
        let serial = Subsample::with_sample_count(&db, 300, 0.1, &mut Rng64::seeded(9));
        let threaded =
            Subsample::with_sample_count(&db, 300, 0.1, &mut Rng64::seeded(9)).with_threads(4);
        assert_eq!(threaded.threads(), 4);
        let queries: Vec<Itemset> = (0..60)
            .map(|_| (0..1 + rng.below(4)).map(|_| rng.below(24) as u32).collect())
            .collect();
        assert_eq!(threaded.estimate_batch(&queries), serial.estimate_batch(&queries));
        assert_eq!(threaded.is_frequent_batch(&queries), serial.is_frequent_batch(&queries));
    }
}
