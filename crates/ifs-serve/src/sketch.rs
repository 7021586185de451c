//! Admission and query dispatch over the servable sketch kinds.
//!
//! The serving tier answers queries from exactly the finished
//! frequency-sketch kinds of the snapshot registry: `Subsample`,
//! `ReleaseDb`, and the two `ReleaseAnswers` stores. The remaining
//! registry kinds are *mergeable partials or counter sketches* — bytes
//! that ship to an ingestion merger, not to a query server — and a frame
//! carrying one is refused at admission with a typed
//! [`ServeError::UnservableKind`], never half-served.
//!
//! Dispatch also owns the safety boundary the offline query paths do not
//! need: those paths `assert!` on out-of-contract queries (an item beyond
//! `dims`, the wrong cardinality for a RELEASE-ANSWERS store), which is
//! correct for in-process callers and fatal for a server fed by a socket.
//! [`ServedSketch::answer`] validates every query against the admitted
//! sketch's contract first and refuses with [`ServeError::BadQuery`], so
//! no byte string a client sends can reach a panic.

use crate::error::ServeError;
use crate::protocol::{QueryMode, Response};
use ifs_core::snapshot::{
    KIND_RELEASE_ANSWERS_ESTIMATOR, KIND_RELEASE_ANSWERS_INDICATOR, KIND_RELEASE_DB, KIND_SUBSAMPLE,
};
use ifs_core::{
    FrequencyEstimator, FrequencyIndicator, Parallel, ReleaseAnswersEstimator,
    ReleaseAnswersIndicator, ReleaseDb, Snapshot, Subsample,
};
use ifs_database::codec::frame_header;
use ifs_database::Itemset;

/// Answers to one query batch.
#[derive(Debug, Clone, PartialEq)]
pub enum Answers {
    /// Estimate-mode answers, in query order.
    Estimates(Vec<f64>),
    /// Indicator-mode answers, in query order.
    Indicators(Vec<bool>),
}

impl From<Answers> for Response {
    fn from(answers: Answers) -> Self {
        match answers {
            Answers::Estimates(v) => Response::Estimates(v),
            Answers::Indicators(v) => Response::Indicators(v),
        }
    }
}

/// A decoded sketch the server can answer queries from.
#[derive(Debug, Clone)]
pub enum ServedSketch {
    /// SUBSAMPLE (kind 1): estimator and indicator, sharded batches.
    Subsample(Subsample),
    /// RELEASE-DB (kind 2): exact estimator and indicator, sharded batches.
    ReleaseDb(ReleaseDb),
    /// RELEASE-ANSWERS indicator store (kind 3): `k`-itemsets only.
    AnswersIndicator(ReleaseAnswersIndicator),
    /// RELEASE-ANSWERS estimator store (kind 4): `k`-itemsets only.
    AnswersEstimator(ReleaseAnswersEstimator),
}

impl ServedSketch {
    /// Admits a frame spanning exactly all of `bytes` and applies the
    /// per-sketch thread knob (a no-op for the scalar-lookup stores).
    /// Dispatch reads only the frame header; unservable kinds and every
    /// decode failure refuse typed.
    pub fn admit(bytes: &[u8], threads: usize) -> Result<Self, ServeError> {
        Ok(match frame_header(bytes)?.kind {
            KIND_SUBSAMPLE => {
                ServedSketch::Subsample(Subsample::from_snapshot(bytes)?.with_threads(threads))
            }
            KIND_RELEASE_DB => {
                ServedSketch::ReleaseDb(ReleaseDb::from_snapshot(bytes)?.with_threads(threads))
            }
            KIND_RELEASE_ANSWERS_INDICATOR => {
                ServedSketch::AnswersIndicator(ReleaseAnswersIndicator::from_snapshot(bytes)?)
            }
            KIND_RELEASE_ANSWERS_ESTIMATOR => {
                ServedSketch::AnswersEstimator(ReleaseAnswersEstimator::from_snapshot(bytes)?)
            }
            kind => return Err(ServeError::UnservableKind { kind }),
        })
    }

    /// This sketch's tag in the snapshot kind registry.
    pub fn kind(&self) -> u16 {
        match self {
            ServedSketch::Subsample(_) => KIND_SUBSAMPLE,
            ServedSketch::ReleaseDb(_) => KIND_RELEASE_DB,
            ServedSketch::AnswersIndicator(_) => KIND_RELEASE_ANSWERS_INDICATOR,
            ServedSketch::AnswersEstimator(_) => KIND_RELEASE_ANSWERS_ESTIMATOR,
        }
    }

    /// Attribute count `d` queries must respect.
    pub fn dims(&self) -> usize {
        match self {
            ServedSketch::Subsample(s) => s.sample().dims(),
            ServedSketch::ReleaseDb(s) => s.database().dims(),
            ServedSketch::AnswersIndicator(s) => s.dims(),
            ServedSketch::AnswersEstimator(s) => s.dims(),
        }
    }

    /// The exact query cardinality this sketch demands, if it demands one
    /// (the RELEASE-ANSWERS stores answer only `k`-itemsets).
    pub fn required_len(&self) -> Option<usize> {
        match self {
            ServedSketch::Subsample(_) | ServedSketch::ReleaseDb(_) => None,
            ServedSketch::AnswersIndicator(s) => Some(s.k()),
            ServedSketch::AnswersEstimator(s) => Some(s.k()),
        }
    }

    /// The sharded-engine thread knob in force (1 for the scalar-lookup
    /// stores, which have no batched engine).
    pub fn threads(&self) -> usize {
        match self {
            ServedSketch::Subsample(s) => s.threads(),
            ServedSketch::ReleaseDb(s) => s.threads(),
            ServedSketch::AnswersIndicator(_) | ServedSketch::AnswersEstimator(_) => 1,
        }
    }

    /// True iff this sketch's contract can answer `mode` queries at all
    /// (the mode half of [`answer`](Self::answer)'s refusal surface,
    /// checkable without a batch — the load generators pick their query
    /// modes with it).
    pub fn supports(&self, mode: QueryMode) -> bool {
        match mode {
            QueryMode::Estimate => !matches!(self, ServedSketch::AnswersIndicator(_)),
            QueryMode::Indicator => !matches!(self, ServedSketch::AnswersEstimator(_)),
        }
    }

    /// Refuses any query outside this sketch's contract — the checks the
    /// offline paths perform with `assert!`, as typed errors. The server's
    /// group executor validates each batch *before* aggregation, so a bad
    /// query refuses only its own request, never a batch another
    /// connection contributed to.
    pub fn validate(&self, queries: &[Itemset]) -> Result<(), ServeError> {
        let dims = self.dims();
        let required = self.required_len();
        for (i, q) in queries.iter().enumerate() {
            if let Some(k) = required {
                if q.len() != k {
                    return Err(ServeError::BadQuery {
                        index: i as u64,
                        reason: format!("sketch answers only {k}-itemsets, got {} items", q.len()),
                    });
                }
            }
            if let Some(m) = q.max_item() {
                if m as usize >= dims {
                    return Err(ServeError::BadQuery {
                        index: i as u64,
                        reason: format!("item {m} out of range for {dims} attributes"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Answers one batch in `mode`: [`validate`](Self::validate), then
    /// the kind's batch procedure; modes the sketch's contract cannot
    /// provide refuse with [`ServeError::Unanswerable`].
    pub fn answer(&self, mode: QueryMode, queries: &[Itemset]) -> Result<Answers, ServeError> {
        self.validate(queries)?;
        self.dispatch(mode, queries)
    }

    /// [`answer`](Self::answer) for a batch the caller has already
    /// validated — the server validates each batch of a group once, then
    /// dispatches the valid ones together.
    pub(crate) fn dispatch(
        &self,
        mode: QueryMode,
        queries: &[Itemset],
    ) -> Result<Answers, ServeError> {
        match (mode, self) {
            (QueryMode::Estimate, ServedSketch::Subsample(s)) => {
                Ok(Answers::Estimates(s.estimate_batch(queries)))
            }
            (QueryMode::Estimate, ServedSketch::ReleaseDb(s)) => {
                Ok(Answers::Estimates(s.estimate_batch(queries)))
            }
            (QueryMode::Estimate, ServedSketch::AnswersEstimator(s)) => {
                Ok(Answers::Estimates(s.estimate_batch(queries)))
            }
            (QueryMode::Indicator, ServedSketch::Subsample(s)) => {
                Ok(Answers::Indicators(s.is_frequent_batch(queries)))
            }
            (QueryMode::Indicator, ServedSketch::ReleaseDb(s)) => {
                Ok(Answers::Indicators(s.is_frequent_batch(queries)))
            }
            (QueryMode::Indicator, ServedSketch::AnswersIndicator(s)) => {
                Ok(Answers::Indicators(s.is_frequent_batch(queries)))
            }
            // The quantized estimator store cannot provide threshold bits
            // (no ε dead-zone survives quantization), and the indicator
            // store cannot provide estimates (it only ever stored bits).
            (mode, other) => Err(ServeError::Unanswerable { kind: other.kind(), mode }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifs_core::snapshot::KIND_SUBSAMPLE_BUILDER;
    use ifs_database::codec::DecodeError;
    use ifs_database::Database;

    fn demo_db() -> Database {
        Database::from_rows(
            6,
            &[vec![0, 1, 2], vec![0, 1], vec![2, 3], vec![], vec![1], vec![0, 1, 5]],
        )
    }

    #[test]
    fn admission_dispatches_on_kind() {
        let db = demo_db();
        let rdb = ReleaseDb::build(&db, 0.3);
        let admitted = ServedSketch::admit(&rdb.snapshot_bytes(), 2).expect("servable frame");
        assert_eq!(admitted.kind(), KIND_RELEASE_DB);
        assert_eq!(admitted.dims(), 6);
        assert_eq!(admitted.required_len(), None);
        let rai = ReleaseAnswersIndicator::build(&db, 2, 0.3);
        let admitted = ServedSketch::admit(&rai.snapshot_bytes(), 0).expect("servable frame");
        assert_eq!(admitted.kind(), KIND_RELEASE_ANSWERS_INDICATOR);
        assert_eq!(admitted.required_len(), Some(2));
    }

    #[test]
    fn unservable_kinds_refuse_typed() {
        use ifs_core::streaming::StreamingBuild;
        let builder = ifs_core::SubsampleBuilder::begin(
            4,
            7,
            &ifs_core::SubsampleParams { sample_rows: 2, epsilon: 0.1 },
        );
        let err = ServedSketch::admit(&builder.snapshot_bytes(), 1).expect_err("partial build");
        assert_eq!(err, ServeError::UnservableKind { kind: KIND_SUBSAMPLE_BUILDER });
    }

    #[test]
    fn admission_refuses_malformed_frames() {
        assert!(matches!(
            ServedSketch::admit(&[], 1),
            Err(ServeError::Decode(DecodeError::Truncated { .. }))
        ));
        assert!(matches!(
            ServedSketch::admit(b"not a frame", 1),
            Err(ServeError::Decode(DecodeError::BadMagic(_)))
        ));
        let db = demo_db();
        let mut bytes = ReleaseDb::build(&db, 0.3).snapshot_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            ServedSketch::admit(&bytes, 1),
            Err(ServeError::Decode(DecodeError::ChecksumMismatch { .. } | DecodeError::Corrupt(_)))
        ));
        let mut long = ReleaseDb::build(&db, 0.3).snapshot_bytes();
        long.extend_from_slice(b"xy");
        assert!(matches!(
            ServedSketch::admit(&long, 1),
            Err(ServeError::Decode(DecodeError::TrailingBytes { extra: 2 }))
        ));
    }

    #[test]
    fn out_of_contract_queries_refuse_instead_of_panicking() {
        let db = demo_db();
        let rdb = ServedSketch::admit(&ReleaseDb::build(&db, 0.3).snapshot_bytes(), 1).unwrap();
        let err = rdb
            .answer(QueryMode::Estimate, &[Itemset::empty(), Itemset::singleton(6)])
            .expect_err("item 6 is out of range for 6 attributes");
        assert!(matches!(err, ServeError::BadQuery { index: 1, .. }), "{err}");

        let rai =
            ServedSketch::admit(&ReleaseAnswersIndicator::build(&db, 2, 0.3).snapshot_bytes(), 1)
                .unwrap();
        let err = rai
            .answer(QueryMode::Indicator, &[Itemset::new(vec![0, 1]), Itemset::singleton(2)])
            .expect_err("wrong cardinality");
        assert!(matches!(err, ServeError::BadQuery { index: 1, .. }), "{err}");
        let err = rai.answer(QueryMode::Estimate, &[]).expect_err("indicator-only sketch");
        assert_eq!(
            err,
            ServeError::Unanswerable {
                kind: KIND_RELEASE_ANSWERS_INDICATOR,
                mode: QueryMode::Estimate
            }
        );
    }

    #[test]
    fn empty_batches_answer_empty() {
        let db = demo_db();
        let rdb = ServedSketch::admit(&ReleaseDb::build(&db, 0.3).snapshot_bytes(), 1).unwrap();
        assert_eq!(rdb.answer(QueryMode::Estimate, &[]), Ok(Answers::Estimates(vec![])));
        assert_eq!(rdb.answer(QueryMode::Indicator, &[]), Ok(Answers::Indicators(vec![])));
    }

    #[test]
    fn answers_match_the_offline_sketch_at_every_thread_count() {
        let db = demo_db();
        let offline = ReleaseDb::build(&db, 0.3);
        let queries = vec![Itemset::empty(), Itemset::singleton(1), Itemset::new(vec![0, 1, 2])];
        for threads in [0, 1, 4] {
            let served = ServedSketch::admit(&offline.snapshot_bytes(), threads).expect("admit");
            assert_eq!(
                served.answer(QueryMode::Estimate, &queries),
                Ok(Answers::Estimates(offline.estimate_batch(&queries))),
                "threads={threads}"
            );
        }
    }
}
