//! # itemset-sketches
//!
//! A from-scratch reproduction of *Space Lower Bounds for Itemset Frequency
//! Sketches* (Liberty, Mitzenmacher, Thaler, Ullman — PODS 2016,
//! arXiv:1407.3740).
//!
//! The paper studies sketches `(S, Q)` that summarize a binary database
//! `D ∈ ({0,1}^d)^n` so that the frequency of any `k`-itemset can be
//! answered approximately from the summary alone, and proves that uniform
//! row sampling is an essentially space-optimal sketch. This workspace makes
//! all of it executable:
//!
//! * the four sketch contracts and the three naive algorithms
//!   ([`core`]: `ReleaseDb`, `ReleaseAnswers*`, `Subsample`, median
//!   boosting, Theorem 12–17 bound formulas);
//! * the binary-database substrate ([`database`]);
//! * every lower-bound construction as an encoder/decoder pair
//!   ([`lowerbounds`]), with the substrates they need built in-repo:
//!   dense linear algebra ([`linalg`]), Reed–Solomon/concatenated codes
//!   ([`codes`]), and a simplex LP solver ([`solver`]);
//! * the mining and streaming consumers the paper positions itself against
//!   ([`mining`], [`streaming`]);
//! * the streaming-ingestion layer (DESIGN.md §9): every sketch build is a
//!   single-pass fold (`core::streaming`), partial builds merge
//!   bit-identically to one-shot builds, and `Database::append_rows`
//!   extends the cached columnar views in place so an ingest-then-query
//!   loop never re-transposes;
//! * the snapshot layer (DESIGN.md §10): every sketch encodes to a
//!   versioned, checksummed wire format (`core::snapshot`), decodes back
//!   `==`-identically, and reports the encoded length as its
//!   `size_bits()` — the paper's `|S|`, measured rather than claimed.
//!
//! ## Quickstart
//!
//! ```
//! use itemset_sketches::prelude::*;
//!
//! let mut rng = Rng64::seeded(7);
//! let db = generators::uniform(10_000, 32, 0.2, &mut rng);
//! let params = SketchParams::new(2, 0.05, 0.05);
//! let sketch = Subsample::build(&db, &params, Guarantee::ForEachEstimator, &mut rng);
//! let t = Itemset::new(vec![3, 17]);
//! let err = (sketch.estimate(&t) - db.frequency(&t)).abs();
//! assert!(err <= params.epsilon);
//! // The full database, measured as the paper's RELEASE-DB frame.
//! let full = ReleaseDb::build(&db, params.epsilon).size_bits();
//! assert!(sketch.size_bits() < full);
//! ```
//!
//! See `examples/` for end-to-end scenarios and EXPERIMENTS.md for the
//! reproduction of every claim in the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ifs_codes as codes;
pub use ifs_core as core;
pub use ifs_database as database;
pub use ifs_linalg as linalg;
pub use ifs_lowerbounds as lowerbounds;
pub use ifs_mining as mining;
pub use ifs_serve as serve;
pub use ifs_solver as solver;
pub use ifs_store as store;
pub use ifs_streaming as streaming;
pub use ifs_util as util;

/// The items most programs need, importable with one `use`.
pub mod prelude {
    pub use ifs_core::{
        boosting::MedianBoost, DecodeError, EstimatorAsIndicator, FrequencyEstimator,
        FrequencyIndicator, Guarantee, MergeError, MergeableSketch, Parallel,
        ReleaseAnswersEstimator, ReleaseAnswersIndicator, ReleaseDb, ReleaseDbBuilder, Sketch,
        SketchParams, Snapshot, StreamingBuild, Subsample, SubsampleBuilder, SubsampleParams,
    };
    pub use ifs_database::{generators, ColumnStore, Database, Itemset, ShardedColumnStore};
    pub use ifs_store::{LogOp, SketchLog, StoreError};
    pub use ifs_util::Rng64;
}
