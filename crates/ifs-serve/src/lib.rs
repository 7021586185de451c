//! The sketch-serving tier: a long-running process that loads versioned
//! snapshot frames, keeps a bounded hot set decoded, and answers batched
//! itemset queries over the wire (DESIGN.md §11).
//!
//! The paper's object of study is an *offline* artifact — a sketch small
//! enough to retain per user at scale. This crate is the online half of
//! that story: the process those retained sketches are served *from*.
//! Three invariants carry over from the offline stack unchanged:
//!
//! 1. **Bit identity.** A served answer equals the offline sketch's answer
//!    for the same query, at every thread count and across hot-set
//!    eviction/reload cycles — serving is an execution strategy, never an
//!    approximation (`tests/serving_protocol.rs` proves it against the
//!    sharded engine directly).
//! 2. **Measured bits.** The hot set's memory bound is the sum of measured
//!    `size_bits()` over decoded sketches — the exact quantity the paper's
//!    space accounting reports, not an estimate.
//! 3. **Typed refusals.** Every malformed, skewed, out-of-contract, or
//!    over-limit input — truncated frames, version skew, unknown ids,
//!    queries off the sketch's contract, saturation — maps to a typed
//!    error ([`DecodeError`](ifs_database::codec::DecodeError) or
//!    [`ServeError`]); no client bytes can panic the server.
//!
//! Layering, bottom up:
//!
//! - [`error`] — [`ServeError`], the serving-layer refusal taxonomy, with
//!   its own lossless wire codec (refusals travel to clients intact).
//! - [`protocol`] — [`Request`]/[`Response`] frames on the snapshot codec
//!   substrate, under kind tags disjoint from the sketch registry.
//! - [`sketch`] — [`ServedSketch`], the kind-dispatched union of servable
//!   snapshot types, with query validation at the trust boundary.
//! - [`server`] — [`SketchServer`]: one entry per admitted id (its frame,
//!   and its decoded form while it is in the hot set, an LRU bounded by
//!   measured bits), behind one request → response map
//!   ([`SketchServer::respond`]) and its byte-level form
//!   ([`SketchServer::handle_into`]), one query executor
//!   ([`SketchServer::query_group`]), and explicit backpressure
//!   ([`BatchSlot`]).
//! - [`net`] — wire framing: the one inbound reader
//!   ([`FrameReader`](net::FrameReader)) and a blocking [`Client`].
//! - [`pool`] — the server transport (DESIGN.md §13): a fixed worker
//!   pool multiplexing nonblocking connections with pipelining,
//!   cross-connection micro-batching, and hot-reload-safe dispatch. The
//!   `ifs-serve` and `ifs-loadgen` binaries sit on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod net;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod sketch;

pub use error::ServeError;
pub use net::{Client, MAX_WIRE_FRAME};
pub use pool::{serve_pooled, PoolWorker};
pub use protocol::{
    EncodeBuf, QueryMode, Request, Response, ServerStats, PROTOCOL_VERSION, REQUEST_KIND,
    RESPONSE_KIND,
};
pub use server::{BatchSlot, LoadOutcome, ServeConfig, SketchServer};
pub use sketch::{Answers, ServedSketch};
