//! Compaction and migration: the two log rewrites.
//!
//! Both produce a *fresh* log at a destination path and leave the source
//! untouched — the caller swaps files (rename over the old path) when it
//! is satisfied, which keeps the crash story trivial: at every instant
//! there is one complete valid log on disk.
//!
//! **Compaction** materializes the source (the same fold serving uses)
//! and writes one `Put` per live id. Identity is by construction: the
//! compacted log materializes to the map it was written from, so any
//! query against either log's materialization sees identical frames. The
//! tests still assert it end to end (`tests/sketch_store.rs`), because
//! "by construction" claims are exactly the ones worth pinning.
//!
//! **Migration** preserves record structure (ops, ids, order — merge runs
//! stay merge runs) and rewrites only frames whose version is superseded
//! by the current encoder for their kind, e.g. `ReleaseDb` v1 bodies to
//! the v2 run-length layout. Decoding uses the permanently kept old-
//! version decoders; identity is asserted by materializing both logs and
//! comparing answers. Migration is a space reclaim, never a compatibility
//! requirement — an unmigrated log stays readable forever.

use crate::materialize::StoredSketch;
use crate::{LogOp, SketchLog, StoreError};
use ifs_core::snapshot::{
    KIND_COUNT_MIN, KIND_COUNT_SKETCH, KIND_RELEASE_ANSWERS_ESTIMATOR,
    KIND_RELEASE_ANSWERS_INDICATOR, KIND_RELEASE_DB, KIND_SUBSAMPLE, KIND_SUBSAMPLE_BUILDER,
};
use ifs_core::{
    ReleaseAnswersEstimator, ReleaseAnswersIndicator, ReleaseDb, Snapshot, Subsample,
    SubsampleBuilder,
};
use ifs_streaming::{CountMinSketch, CountSketch};
use std::path::Path;

/// What a [`compact_into`](SketchLog::compact_into) pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Records in the source log.
    pub records_in: u64,
    /// Records in the compacted log — the number of live ids.
    pub records_out: u64,
    /// Source log size (header included).
    pub bytes_in: u64,
    /// Compacted log size (header included).
    pub bytes_out: u64,
}

/// What a [`migrate_into`](SketchLog::migrate_into) pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrateStats {
    /// Records copied or rewritten (structure is preserved, so also the
    /// destination's record count).
    pub records: u64,
    /// Records whose frame was re-encoded at the current version.
    pub rewritten: u64,
    /// Source log size (header included).
    pub bytes_in: u64,
    /// Migrated log size (header included).
    pub bytes_out: u64,
}

/// The version the current build *writes* for `kind` — the migration
/// target. `None` for kinds outside the registry (unreachable for frames
/// that passed the scan, which decodes kinds strictly).
fn current_version(kind: u16) -> Option<u16> {
    match kind {
        KIND_SUBSAMPLE => Some(<Subsample as Snapshot>::VERSION),
        KIND_RELEASE_DB => Some(<ReleaseDb as Snapshot>::VERSION),
        KIND_RELEASE_ANSWERS_INDICATOR => Some(<ReleaseAnswersIndicator as Snapshot>::VERSION),
        KIND_RELEASE_ANSWERS_ESTIMATOR => Some(<ReleaseAnswersEstimator as Snapshot>::VERSION),
        KIND_COUNT_MIN => Some(<CountMinSketch<u64> as Snapshot>::VERSION),
        KIND_COUNT_SKETCH => Some(<CountSketch<u64> as Snapshot>::VERSION),
        KIND_SUBSAMPLE_BUILDER => Some(<SubsampleBuilder as Snapshot>::VERSION),
        _ => None,
    }
}

pub(crate) fn compact(
    src: &SketchLog,
    dst: &Path,
) -> Result<(SketchLog, CompactStats), StoreError> {
    let records_in = src.record_count();
    let live = src.materialize()?;
    let mut out = SketchLog::create(dst)?;
    for (id, frame) in &live {
        out.append(LogOp::Put, *id, frame)?;
    }
    let stats = CompactStats {
        records_in,
        records_out: out.record_count(),
        bytes_in: src.len_bytes(),
        bytes_out: out.len_bytes(),
    };
    Ok((out, stats))
}

pub(crate) fn migrate(
    src: &SketchLog,
    dst: &Path,
) -> Result<(SketchLog, MigrateStats), StoreError> {
    let records = src.records()?;
    let mut out = SketchLog::create(dst)?;
    let mut rewritten = 0u64;
    for rec in &records {
        // The strict scan behind `records` has checked every frame's
        // checksum, and a stale frame's decoder checks it again, so the
        // header alone decides staleness.
        let info = ifs_database::codec::frame_header(&rec.frame)
            .map_err(|source| StoreError::Frame { offset: rec.offset, id: rec.id, source })?;
        let stale = current_version(info.kind).is_some_and(|v| info.version < v);
        if stale {
            let sketch = StoredSketch::decode(&rec.frame).map_err(|source| StoreError::Frame {
                offset: rec.offset,
                id: rec.id,
                source,
            })?;
            out.append(rec.op, rec.id, &sketch.encode())?;
            rewritten += 1;
        } else {
            out.append(rec.op, rec.id, &rec.frame)?;
        }
    }
    let stats = MigrateStats {
        records: records.len() as u64,
        rewritten,
        bytes_in: src.len_bytes(),
        bytes_out: out.len_bytes(),
    };
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::tests::Scratch;
    use crate::LogOp;
    use ifs_database::Database;

    fn rdb(rows: &[Vec<u32>]) -> ReleaseDb {
        ReleaseDb::build(&Database::from_rows(16, rows), 0.25)
    }

    #[test]
    fn compaction_materializes_identically_and_shrinks() {
        let src_scratch = Scratch::new("cmp-src");
        let dst_scratch = Scratch::new("cmp-dst");
        let mut log = SketchLog::create(&src_scratch.0).expect("create");
        // Shadowed puts, a merge run, and a verbatim v1 record.
        for i in 0..4 {
            log.append(LogOp::Put, 1, &rdb(&[vec![i]]).snapshot_bytes()).expect("append");
        }
        log.append(LogOp::Merge, 2, &rdb(&[vec![0, 1]]).snapshot_bytes()).expect("append");
        log.append(LogOp::Merge, 2, &rdb(&[vec![2]]).snapshot_bytes()).expect("append");
        log.append(LogOp::Put, 3, &rdb(&[vec![5]]).snapshot_bytes_v1()).expect("append");
        let (compacted, stats) = log.compact_into(&dst_scratch.0).expect("compact");
        assert_eq!(stats.records_in, 7);
        assert_eq!(stats.records_out, 3, "one Put per live id");
        assert!(stats.bytes_out < stats.bytes_in, "{stats:?}");
        assert_eq!(
            compacted.materialize().expect("materialize"),
            log.materialize().expect("materialize"),
            "compacted == uncompacted, frame for frame"
        );
        // Compacting the compacted log is a fixpoint.
        let dst2 = Scratch::new("cmp-dst2");
        let (again, stats2) = compacted.compact_into(&dst2.0).expect("recompact");
        assert_eq!(stats2.records_in, 3);
        assert_eq!(stats2.records_out, 3);
        assert_eq!(again.materialize().expect("m"), log.materialize().expect("m"));
    }

    #[test]
    fn migration_rewrites_stale_frames_and_preserves_structure() {
        let src_scratch = Scratch::new("mig-src");
        let dst_scratch = Scratch::new("mig-dst");
        // A sparse-ish database so v2 actually shrinks the record.
        let sparse = rdb(&(0..50).map(|i| vec![(i % 3) as u32]).collect::<Vec<_>>());
        let mut log = SketchLog::create(&src_scratch.0).expect("create");
        log.append(LogOp::Put, 0, &sparse.snapshot_bytes_v1()).expect("append");
        log.append(LogOp::Merge, 1, &rdb(&[vec![1]]).snapshot_bytes_v1()).expect("append");
        log.append(LogOp::Merge, 1, &rdb(&[vec![2]]).snapshot_bytes()).expect("append");
        log.append(LogOp::Put, 2, &rdb(&[vec![9]]).snapshot_bytes()).expect("append");
        let (migrated, stats) = log.migrate_into(&dst_scratch.0).expect("migrate");
        assert_eq!(stats.records, 4);
        assert_eq!(stats.rewritten, 2, "exactly the v1 frames were rewritten");
        assert!(stats.bytes_out < stats.bytes_in, "{stats:?}");
        // Structure preserved: same ops and ids in the same order.
        let before = log.records().expect("scan");
        let after = migrated.records().expect("scan");
        assert_eq!(
            before.iter().map(|r| (r.op, r.id)).collect::<Vec<_>>(),
            after.iter().map(|r| (r.op, r.id)).collect::<Vec<_>>()
        );
        // Every migrated frame is at the current version...
        for rec in &after {
            let info = ifs_database::codec::peek_frame(&rec.frame).expect("valid frame");
            assert_eq!(info.version, current_version(info.kind).expect("registry kind"));
        }
        // ...and the logs materialize to sketches with identical answers.
        let q = ifs_database::Itemset::singleton(1);
        for (id, frame) in log.materialize().expect("m") {
            let a = ReleaseDb::from_snapshot(&frame).expect("decode");
            let b =
                ReleaseDb::from_snapshot(&migrated.materialize().expect("m")[&id]).expect("decode");
            assert_eq!(a, b, "id {id}");
            use ifs_core::FrequencyEstimator;
            assert_eq!(a.estimate(&q).to_bits(), b.estimate(&q).to_bits(), "id {id}");
        }
        // Migration is idempotent: a second pass rewrites nothing.
        let dst2 = Scratch::new("mig-dst2");
        let (_, stats2) = migrated.migrate_into(&dst2.0).expect("re-migrate");
        assert_eq!(stats2.rewritten, 0);
        assert_eq!(stats2.bytes_in, stats2.bytes_out);
    }
}
