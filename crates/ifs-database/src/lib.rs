//! Binary databases and itemset frequency queries.
//!
//! The paper's object of study is a binary database `D ∈ ({0,1}^d)^n` of `n`
//! rows over `d` attributes (§1.3). An itemset `T ⊆ [d]` is *contained* in a
//! row if the row has a 1 in every column of `T`, and its frequency `f_T(D)`
//! is the fraction of rows containing it.
//!
//! This crate provides:
//!
//! * [`BitMatrix`] — a packed row-major bit matrix (one `u64` word per 64
//!   columns) with subset tests done word-wise.
//! * [`Itemset`] — a sorted attribute set with a packed-mask representation
//!   aligned to the matrix layout, so `row ⊇ T` is a handful of AND/CMP ops.
//! * [`Database`] — rows + dimension bookkeeping, row-scan frequency/support
//!   queries, and batched queries on its one cached columnar view.
//! * [`ColumnStore`] — per-item packed tid-sets, built by a word-parallel
//!   tile transpose. It is one shard of the view below, and the
//!   whole-column transpose the miners build per call.
//! * [`ShardedColumnStore`] — the one query surface over tid-sets: the
//!   rows partitioned into contiguous word-aligned shards, each shard one
//!   cache block of the AND+popcount batch loop, built and queried by
//!   multiple threads with answers bit-identical to the row-major scan at
//!   every thread count (DESIGN.md §8). It is the one view a [`Database`]
//!   caches ([`Database::sharded_columns`]), behind every batched and
//!   sketch query.
//! * [`generators`] — workload generators: i.i.d. Bernoulli databases,
//!   planted itemsets, Zipf-popularity market-basket data with correlated
//!   bundles, and the binary decomposition of categorical attributes
//!   described in footnote 1 of the paper.
//! * [`codec`] — the shared snapshot codec substrate (DESIGN.md §10):
//!   framed, versioned, checksummed encodings with a typed [`DecodeError`]
//!   taxonomy. Every sketch's wire format — and therefore every sketch's
//!   `size_bits()` measurement — is built on it, and its database
//!   fragments (`write_database`, `write_database_compressed`) are the one
//!   database encoding. The "full database" baseline is RELEASE-DB's frame,
//!   which ships exactly such a fragment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmatrix;
pub mod codec;
mod columnstore;
mod database;
pub mod generators;
mod itemset;
mod sharded;

pub use bitmatrix::BitMatrix;
pub use codec::DecodeError;
pub use columnstore::ColumnStore;
pub use database::Database;
pub use itemset::Itemset;
pub use sharded::{ShardedColumnStore, SHARD_ROWS};
