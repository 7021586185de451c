//! Shared utilities for the `itemset-sketches` workspace.
//!
//! This crate deliberately has no dependency on the rest of the workspace so
//! that every other crate can lean on it. It provides:
//!
//! * [`rng`] — deterministic, seedable random number generation. Every
//!   randomized component in the reproduction threads a seed through so that
//!   experiments are exactly replayable.
//! * [`combin`] — binomial coefficients, combination ranking/unranking in
//!   colexicographic order, and combination iteration. These power the
//!   `RELEASE-ANSWERS` sketch (which stores one slot per `k`-itemset) and the
//!   shattered-set constructions.
//! * [`bits`] — bit-level helpers used by the packed database representation.
//! * [`hash`] — a seeded, toolchain-independent hasher ([`hash::StableHasher`])
//!   for the streaming sketches, golden-value pinned like the generator
//!   (DESIGN.md §3); `std::hash::DefaultHasher` explicitly reserves the right
//!   to change between Rust releases, which would silently relocate every
//!   Count-Min/Count-Sketch bucket.
//! * [`threads`] — the thread-count knob shared by the parallel execution
//!   layer (DESIGN.md §8): clamping, and one parser and one environment
//!   reader for the `IFS_THREADS` override used by CI's determinism
//!   matrix, both refusing malformed values with a typed
//!   `ThreadsParseError`.
//! * [`tail`] — the Hoeffding bound of Lemma 11 of the paper and the
//!   sample-size calculators behind the `SUBSAMPLE` sketch (Lemma 9).
//! * [`stats`] — summary statistics, medians, and the log–log slope fits used
//!   by EXPERIMENTS.md to validate asymptotic shapes.
//! * [`table`] — a tiny plain-text/CSV table writer used by the `tables`
//!   experiment binary (we avoid serde on purpose; see DESIGN.md §6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod combin;
pub mod hash;
pub mod rng;
pub mod stats;
pub mod table;
pub mod tail;
pub mod threads;

pub use hash::StableHasher;
pub use rng::Rng64;
