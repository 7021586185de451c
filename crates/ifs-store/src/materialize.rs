//! The materialize fold: from a record sequence to one frame per live id.
//!
//! Serving, compaction, and the identity tests all answer "what does this
//! log amount to?" by the **same fold**, which is what makes compaction
//! verifiable instead of merely plausible:
//!
//! * `Put` replaces the id's state with the record's frame, kept
//!   *verbatim* — a materialized `Put` emits byte-for-byte the frame that
//!   was appended, whatever its version. Materialization never silently
//!   re-encodes bytes it did not have to decode (that is
//!   [`migrate`](crate::SketchLog::migrate_into)'s job, explicitly).
//! * `Merge` folds the record's frame into the id via §9
//!   [`MergeableSketch`] — associative by contract, so any split of a
//!   merge run materializes to the same sketch as the one-pass build. An
//!   id whose state is a single `Merge` record also keeps its exact
//!   bytes: decoding starts only when a second record actually forces a
//!   fold. Folded ids re-encode at the current snapshot version.
//!
//! Kinds that do not implement [`MergeableSketch`] (`Subsample` and the
//! two quantized `ReleaseAnswers` stores — finished, offline
//! constructions) refuse `Merge` records typed; `Put`s of every registry
//! kind are fine.

use crate::{LogOp, LogRecord, StoreError};
use ifs_core::snapshot::{
    KIND_COUNT_MIN, KIND_COUNT_SKETCH, KIND_RELEASE_ANSWERS_ESTIMATOR,
    KIND_RELEASE_ANSWERS_INDICATOR, KIND_RELEASE_DB, KIND_SUBSAMPLE, KIND_SUBSAMPLE_BUILDER,
};
use ifs_core::{
    MergeError, MergeableSketch, ReleaseAnswersEstimator, ReleaseAnswersIndicator, ReleaseDb,
    Snapshot, Subsample, SubsampleBuilder,
};
use ifs_database::codec::DecodeError;
use ifs_streaming::{CountMinSketch, CountSketch};
use std::collections::BTreeMap;

/// A decoded frame of any registry kind — the store's kind dispatch, as
/// [`ServedSketch`] is the serving tier's, but over *all seven* kinds:
/// the store holds ingestion partials and counter sketches too.
///
/// The counter sketches hash items through their `u64` identity here;
/// their wire format carries no item type (DESIGN.md §10), so this choice
/// only fixes how *this crate* would query them, which it never does.
///
/// [`ServedSketch`]: ../../ifs_serve/enum.ServedSketch.html
#[derive(Debug, Clone)]
pub enum StoredSketch {
    /// SUBSAMPLE (kind 1) — finished sample, not mergeable.
    Subsample(Subsample),
    /// RELEASE-DB (kind 2) — merges by row concatenation.
    ReleaseDb(ReleaseDb),
    /// RELEASE-ANSWERS indicator store (kind 3) — quantized, not mergeable.
    AnswersIndicator(ReleaseAnswersIndicator),
    /// RELEASE-ANSWERS estimator store (kind 4) — quantized, not mergeable.
    AnswersEstimator(ReleaseAnswersEstimator),
    /// Count-Min (kind 5) — merges counter-wise (conservative refuses).
    CountMin(CountMinSketch<u64>),
    /// Count-Sketch (kind 6) — merges counter-wise.
    CountSketch(CountSketch<u64>),
    /// SUBSAMPLE partial build (kind 7) — merges in row order.
    SubsampleBuilder(SubsampleBuilder),
}

impl StoredSketch {
    /// Decodes a frame of any registry kind, spanning exactly `frame`.
    /// Dispatch reads only the header; the kind's decoder judges the
    /// checksum, once.
    pub fn decode(frame: &[u8]) -> Result<Self, DecodeError> {
        match ifs_database::codec::frame_header(frame)?.kind {
            KIND_SUBSAMPLE => Ok(Self::Subsample(Subsample::from_snapshot(frame)?)),
            KIND_RELEASE_DB => Ok(Self::ReleaseDb(ReleaseDb::from_snapshot(frame)?)),
            KIND_RELEASE_ANSWERS_INDICATOR => {
                Ok(Self::AnswersIndicator(ReleaseAnswersIndicator::from_snapshot(frame)?))
            }
            KIND_RELEASE_ANSWERS_ESTIMATOR => {
                Ok(Self::AnswersEstimator(ReleaseAnswersEstimator::from_snapshot(frame)?))
            }
            KIND_COUNT_MIN => Ok(Self::CountMin(CountMinSketch::from_snapshot(frame)?)),
            KIND_COUNT_SKETCH => Ok(Self::CountSketch(CountSketch::from_snapshot(frame)?)),
            KIND_SUBSAMPLE_BUILDER => {
                Ok(Self::SubsampleBuilder(SubsampleBuilder::from_snapshot(frame)?))
            }
            kind => {
                Err(DecodeError::Corrupt(format!("kind {kind} is not in the snapshot registry")))
            }
        }
    }

    /// This sketch's tag in the snapshot kind registry.
    pub fn kind(&self) -> u16 {
        match self {
            Self::Subsample(_) => KIND_SUBSAMPLE,
            Self::ReleaseDb(_) => KIND_RELEASE_DB,
            Self::AnswersIndicator(_) => KIND_RELEASE_ANSWERS_INDICATOR,
            Self::AnswersEstimator(_) => KIND_RELEASE_ANSWERS_ESTIMATOR,
            Self::CountMin(_) => KIND_COUNT_MIN,
            Self::CountSketch(_) => KIND_COUNT_SKETCH,
            Self::SubsampleBuilder(_) => KIND_SUBSAMPLE_BUILDER,
        }
    }

    /// Folds `other` in via the kind's §9 merge. Cross-kind merges and
    /// kinds without a merge refuse typed, like any other §9 refusal.
    pub fn merge(&mut self, other: Self) -> Result<(), MergeError> {
        match (self, other) {
            (Self::ReleaseDb(a), Self::ReleaseDb(b)) => a.merge(b),
            (Self::CountMin(a), Self::CountMin(b)) => a.merge(b),
            (Self::CountSketch(a), Self::CountSketch(b)) => a.merge(b),
            (Self::SubsampleBuilder(a), Self::SubsampleBuilder(b)) => a.merge(b),
            (Self::Subsample(_), Self::Subsample(_)) => Err(MergeError::Unmergeable(
                "a finished SUBSAMPLE does not merge; merge its builder partials instead".into(),
            )),
            (Self::AnswersIndicator(_), Self::AnswersIndicator(_))
            | (Self::AnswersEstimator(_), Self::AnswersEstimator(_)) => {
                Err(MergeError::Unmergeable(
                    "quantized RELEASE-ANSWERS stores do not merge; merge their builders".into(),
                ))
            }
            (a, b) => Err(MergeError::Incompatible(format!(
                "cannot merge kind {} into kind {}",
                b.kind(),
                a.kind()
            ))),
        }
    }

    /// Re-encodes at the kind's current snapshot version.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Self::Subsample(s) => s.snapshot_bytes(),
            Self::ReleaseDb(s) => s.snapshot_bytes(),
            Self::AnswersIndicator(s) => s.snapshot_bytes(),
            Self::AnswersEstimator(s) => s.snapshot_bytes(),
            Self::CountMin(s) => s.snapshot_bytes(),
            Self::CountSketch(s) => s.snapshot_bytes(),
            Self::SubsampleBuilder(s) => s.snapshot_bytes(),
        }
    }
}

/// Per-id fold state: exact appended bytes until a merge forces decoding.
enum Entry {
    Frame(Vec<u8>),
    Folded(StoredSketch),
}

/// Folds `records` (in log order) to one frame per live id, in id order.
///
/// `Put` frames — and single-record merge runs — come back byte-for-byte
/// as appended; folded merge runs re-encode at the current version. The
/// fold is deterministic, so two logs that differ only by compaction
/// materialize to identical maps (the invariant
/// [`compact_into`](crate::SketchLog::compact_into) is tested against).
pub fn materialize(records: &[LogRecord]) -> Result<BTreeMap<u64, Vec<u8>>, StoreError> {
    let mut state: BTreeMap<u64, Entry> = BTreeMap::new();
    for rec in records {
        let decode_err = |source| StoreError::Frame { offset: rec.offset, id: rec.id, source };
        match rec.op {
            LogOp::Put => {
                state.insert(rec.id, Entry::Frame(rec.frame.clone()));
            }
            LogOp::Merge => match state.remove(&rec.id) {
                // First record of the id: it *is* the state, bytes intact.
                None => {
                    state.insert(rec.id, Entry::Frame(rec.frame.clone()));
                }
                Some(entry) => {
                    let mut acc = match entry {
                        Entry::Frame(bytes) => StoredSketch::decode(&bytes).map_err(decode_err)?,
                        Entry::Folded(sketch) => sketch,
                    };
                    let incoming = StoredSketch::decode(&rec.frame).map_err(decode_err)?;
                    acc.merge(incoming).map_err(|source| StoreError::Merge {
                        offset: rec.offset,
                        id: rec.id,
                        source,
                    })?;
                    state.insert(rec.id, Entry::Folded(acc));
                }
            },
        }
    }
    Ok(state
        .into_iter()
        .map(|(id, entry)| match entry {
            Entry::Frame(bytes) => (id, bytes),
            Entry::Folded(sketch) => (id, sketch.encode()),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::tests::Scratch;
    use crate::SketchLog;
    use ifs_core::{FrequencyEstimator, ReleaseAnswersIndicator};
    use ifs_database::{Database, Itemset};
    use ifs_streaming::StreamCounter;

    fn rdb_frame(rows: &[Vec<u32>]) -> Vec<u8> {
        ReleaseDb::build(&Database::from_rows(6, rows), 0.25).snapshot_bytes()
    }

    #[test]
    fn put_records_shadow_and_come_back_verbatim() {
        let scratch = Scratch::new("mat-put");
        let old = rdb_frame(&[vec![0]]);
        let new = rdb_frame(&[vec![1, 2], vec![3]]);
        // A v1 frame under another id must keep its exact (v1!) bytes —
        // materialization never re-encodes what it did not fold.
        let v1 = ReleaseDb::build(&Database::from_rows(6, &[vec![4]]), 0.5).snapshot_bytes_v1();
        let mut log = SketchLog::create(&scratch.0).expect("create");
        log.append(LogOp::Put, 1, &old).expect("append");
        log.append(LogOp::Put, 2, &v1).expect("append");
        log.append(LogOp::Put, 1, &new).expect("append");
        let live = log.materialize().expect("materialize");
        assert_eq!(live.len(), 2);
        assert_eq!(live[&1], new, "later Put shadows the earlier one");
        assert_eq!(live[&2], v1, "byte-for-byte, version tag included");
    }

    #[test]
    fn merge_run_materializes_to_the_one_pass_build() {
        let scratch = Scratch::new("mat-merge");
        let shard_a: Vec<Vec<u32>> = vec![vec![0, 1], vec![2]];
        let shard_b: Vec<Vec<u32>> = vec![vec![1], vec![0, 1, 5]];
        let shard_c: Vec<Vec<u32>> = vec![vec![3]];
        let mut log = SketchLog::create(&scratch.0).expect("create");
        log.append(LogOp::Merge, 9, &rdb_frame(&shard_a)).expect("append");
        log.append(LogOp::Merge, 9, &rdb_frame(&shard_b)).expect("append");
        log.append(LogOp::Merge, 9, &rdb_frame(&shard_c)).expect("append");
        let live = log.materialize().expect("materialize");
        let mut all = shard_a;
        all.extend(shard_b);
        all.extend(shard_c);
        let one_pass = ReleaseDb::build(&Database::from_rows(6, &all), 0.25);
        assert_eq!(live[&9], one_pass.snapshot_bytes(), "fold == one-pass, bit for bit");
        // A single-record merge run keeps its exact bytes (no re-encode).
        let scratch2 = Scratch::new("mat-merge-one");
        let v1 = ReleaseDb::build(&Database::from_rows(6, &[vec![2]]), 0.25).snapshot_bytes_v1();
        let mut log = SketchLog::create(&scratch2.0).expect("create");
        log.append(LogOp::Merge, 0, &v1).expect("append");
        assert_eq!(log.materialize().expect("materialize")[&0], v1);
    }

    #[test]
    fn count_min_merge_runs_fold_counter_wise() {
        let scratch = Scratch::new("mat-cm");
        let mut a: CountMinSketch<u64> = CountMinSketch::new(32, 3, false, 7);
        let mut b: CountMinSketch<u64> = CountMinSketch::new(32, 3, false, 7);
        for x in 0..40u64 {
            a.update(x % 5);
            b.update(x % 3);
        }
        let mut log = SketchLog::create(&scratch.0).expect("create");
        log.append(LogOp::Merge, 4, &a.snapshot_bytes()).expect("append");
        log.append(LogOp::Merge, 4, &b.snapshot_bytes()).expect("append");
        let live = log.materialize().expect("materialize");
        let mut one_pass = a.clone();
        one_pass.merge(b).expect("plain CM merges");
        assert_eq!(live[&4], one_pass.snapshot_bytes());
        // Conservative-update CM refuses the fold, surfaced typed with the
        // offending record's offset.
        let scratch2 = Scratch::new("mat-cons");
        let c: CountMinSketch<u64> = CountMinSketch::new(32, 3, true, 7);
        let mut log = SketchLog::create(&scratch2.0).expect("create");
        log.append(LogOp::Merge, 0, &c.snapshot_bytes()).expect("append");
        let second = log.len_bytes();
        log.append(LogOp::Merge, 0, &c.snapshot_bytes()).expect("append");
        match log.materialize().expect_err("conservative CM is unmergeable") {
            StoreError::Merge { offset, id: 0, source: MergeError::Unmergeable(_) } => {
                assert_eq!(offset, second)
            }
            other => panic!("expected Merge/Unmergeable, got {other}"),
        }
    }

    #[test]
    fn unmergeable_and_cross_kind_merges_refuse_typed() {
        let db = Database::from_rows(6, &[vec![0, 1], vec![2], vec![0]]);
        let rai = ReleaseAnswersIndicator::build(&db, 2, 0.3).snapshot_bytes();
        let scratch = Scratch::new("mat-rai");
        let mut log = SketchLog::create(&scratch.0).expect("create");
        log.append(LogOp::Merge, 0, &rai).expect("append");
        log.append(LogOp::Merge, 0, &rai).expect("append");
        assert!(matches!(
            log.materialize().expect_err("quantized store refuses merge"),
            StoreError::Merge { source: MergeError::Unmergeable(_), .. }
        ));
        // Cross-kind: a Count-Min partial folded into a ReleaseDb id.
        let scratch2 = Scratch::new("mat-cross");
        let cm: CountMinSketch<u64> = CountMinSketch::new(8, 2, false, 1);
        let mut log = SketchLog::create(&scratch2.0).expect("create");
        log.append(LogOp::Merge, 0, &rdb_frame(&[vec![0]])).expect("append");
        log.append(LogOp::Merge, 0, &cm.snapshot_bytes()).expect("append");
        assert!(matches!(
            log.materialize().expect_err("cross-kind merge"),
            StoreError::Merge { source: MergeError::Incompatible(_), .. }
        ));
        // A Put of the same shapes is fine: replacement needs no merge.
        let scratch3 = Scratch::new("mat-cross-put");
        let mut log = SketchLog::create(&scratch3.0).expect("create");
        log.append(LogOp::Put, 0, &rdb_frame(&[vec![0]])).expect("append");
        log.append(LogOp::Put, 0, &cm.snapshot_bytes()).expect("append");
        assert_eq!(log.materialize().expect("puts always fold")[&0], cm.snapshot_bytes());
    }

    #[test]
    fn stored_sketch_decodes_every_registry_kind() {
        let db = Database::from_rows(6, &[vec![0, 1], vec![2], vec![0]]);
        let mut rng = ifs_util::Rng64::seeded(11);
        let params = ifs_core::SubsampleParams { sample_rows: 2, epsilon: 0.2 };
        let sub = Subsample::with_sample_count(&db, 2, 0.2, &mut rng);
        let frames: Vec<(u16, Vec<u8>)> = vec![
            (KIND_SUBSAMPLE, sub.snapshot_bytes()),
            (KIND_RELEASE_DB, ReleaseDb::build(&db, 0.2).snapshot_bytes()),
            (
                KIND_RELEASE_ANSWERS_INDICATOR,
                ReleaseAnswersIndicator::build(&db, 2, 0.3).snapshot_bytes(),
            ),
            (
                KIND_RELEASE_ANSWERS_ESTIMATOR,
                ifs_core::ReleaseAnswersEstimator::build(&db, 1, 0.3).snapshot_bytes(),
            ),
            (KIND_COUNT_MIN, CountMinSketch::<u64>::new(8, 2, false, 3).snapshot_bytes()),
            (KIND_COUNT_SKETCH, CountSketch::<u64>::new(8, 3, 5).snapshot_bytes()),
            (KIND_SUBSAMPLE_BUILDER, {
                use ifs_core::StreamingBuild;
                let mut b = SubsampleBuilder::begin(6, 9, &params);
                b.observe_row(&Itemset::new(vec![0, 2]));
                b.snapshot_bytes()
            }),
        ];
        for (kind, frame) in &frames {
            let decoded = StoredSketch::decode(frame).expect("registry kind decodes");
            assert_eq!(decoded.kind(), *kind);
            assert_eq!(&decoded.encode(), frame, "decode→encode is the identity at head version");
        }
        // ReleaseDb answers survive the dispatch round-trip.
        let rdb = ReleaseDb::build(&db, 0.2);
        match StoredSketch::decode(&rdb.snapshot_bytes()).expect("decode") {
            StoredSketch::ReleaseDb(s) => {
                let q = Itemset::singleton(0);
                assert_eq!(s.estimate(&q), rdb.estimate(&q));
            }
            other => panic!("wrong variant {other:?}"),
        }
    }
}
