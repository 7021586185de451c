//! The sketch server: one entry per admitted id, a hot set, and bounded
//! in-flight query batches.
//!
//! [`SketchServer`] is transport-agnostic —
//! [`respond`](SketchServer::respond) maps one decoded request to one
//! response, [`handle_into`](SketchServer::handle_into) is the same map
//! over frame bytes, and the TCP transport ([`crate::pool`]) is a loop
//! around them. Every query, alone or micro-batched, is answered by one
//! executor, [`query_group`](SketchServer::query_group): slot, resolve,
//! validate, one dispatch, count, scatter. All state sits behind one
//! mutex, but query batches execute *outside* it on an [`Arc`]'d sketch,
//! so concurrent connections overlap their (dominant) batch work and the
//! lock guards only admissions and LRU bookkeeping.
//!
//! **The hot set.** Each admitted id's entry always keeps its frame, but
//! only a working set stays **decoded**, bounded by the sum of measured
//! frame `size_bits()` (the paper's `|S|`) over decoded entries. That
//! bounds frame bits, not resident memory: a queried `ReleaseDb` holds
//! row and tid-set words, about 4.7× its frame on a 10k × 128, 3 %-dense
//! database. Eviction (least recently used first) drops the decoded form
//! only; the next query re-decodes the frame bit-identically (DESIGN.md
//! §10 and §11).
//!
//! Backpressure is explicit: at most
//! [`max_in_flight`](ServeConfig::max_in_flight) query batches may be
//! executing (or waiting on the state lock) at once. The slot is taken
//! *before* any work and released when the batch's answers are encoded;
//! a request arriving with every slot taken is answered immediately with
//! a typed [`ServeError::Overloaded`] instead of joining an unbounded
//! queue — under saturation the server's latency stays bounded and the
//! refusal tells the client to back off.

use crate::error::ServeError;
use crate::protocol::{EncodeBuf, QueryMode, Request, Response, ServerStats};
use crate::sketch::{Answers, ServedSketch};
use ifs_database::Itemset;
use ifs_util::threads::{clamp_threads, host_cores};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Operator knobs of a [`SketchServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Hot-set budget: the sum of measured `size_bits` over decoded
    /// sketches never exceeds this.
    pub budget_bits: u64,
    /// Bound on concurrently executing query batches; the explicit
    /// backpressure limit.
    pub max_in_flight: usize,
    /// Thread knob applied to sketches loaded with `threads = 0`.
    pub default_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        // 512 MiB of decoded sketches, 64 concurrent batches, serial
        // queries unless a load says otherwise.
        Self { budget_bits: 1 << 32, max_in_flight: 64, default_threads: 1 }
    }
}

/// One admitted id: the encoded frame (always retained), the knobs to
/// re-decode it, and its decoded form while it is hot.
struct Entry {
    bytes: Vec<u8>,
    threads: usize,
    size_bits: u64,
    kind: u16,
    /// How many times this id has been (re-)admitted; 1 on first load.
    generation: u64,
    /// The decoded sketch while the id is hot. Handed out as [`Arc`]s, so
    /// a batch keeps executing on a sketch a concurrent load evicts; the
    /// memory is reclaimed when the last in-flight batch drops its handle.
    decoded: Option<Arc<ServedSketch>>,
}

#[derive(Default)]
struct ServeState {
    entries: BTreeMap<u64, Entry>,
    /// Decoded ids, least recently used first.
    recency: Vec<u64>,
    /// Sum of `size_bits` over decoded entries.
    hot_bits: u64,
    evictions: u64,
    served_batches: u64,
    reloads: u64,
}

impl ServeState {
    /// Takes `id` out of the recency order; returns whether it was there
    /// (decoded).
    fn unlist(&mut self, id: u64) -> bool {
        let pos = self.recency.iter().position(|&x| x == id);
        pos.map(|pos| self.recency.remove(pos)).is_some()
    }

    /// Makes the admitted, not decoded `id` hot with `sketch` as most
    /// recently used, evicting least-recently-used decoded entries until
    /// it fits within `budget_bits`; returns the evicted ids, oldest
    /// first. Admission refuses frames over the whole budget up front
    /// ([`ServeError::FrameOverBudget`]), so the new entry always fits.
    fn make_hot(&mut self, id: u64, sketch: Arc<ServedSketch>, budget_bits: u64) -> Vec<u64> {
        let size_bits = self.entries[&id].size_bits;
        debug_assert!(size_bits <= budget_bits, "admission must refuse over-budget frames");
        let mut evicted = Vec::new();
        while self.hot_bits + size_bits > budget_bits && !self.recency.is_empty() {
            let victim = self.recency.remove(0);
            let entry = self.entries.get_mut(&victim).expect("decoded ids are admitted");
            entry.decoded = None;
            self.hot_bits -= entry.size_bits;
            self.evictions += 1;
            evicted.push(victim);
        }
        self.entries.get_mut(&id).expect("admitted").decoded = Some(sketch);
        self.hot_bits += size_bits;
        self.recency.push(id);
        evicted
    }
}

/// What a successful [`SketchServer::load_frame`] did: the admitted
/// sketch's identity plus the hot-reload bookkeeping the response surface
/// reports. `generation` counts admissions of the id (1 on first load);
/// `previous_kind` is `Some` exactly when this load *replaced* a live id —
/// the hot-reload case, answered on the wire as [`Response::Reloaded`]
/// instead of [`Response::Loaded`] so a client that believed it knew the
/// sketch under that id learns its knowledge is stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Snapshot kind tag of the newly admitted sketch.
    pub kind: u16,
    /// Measured size of the admitted frame, in bits.
    pub size_bits: u64,
    /// Admission count for this id: 1 for a first load, ≥ 2 for a reload.
    pub generation: u64,
    /// Kind tag of the sketch this load replaced, if the id was live.
    pub previous_kind: Option<u16>,
    /// Ids whose decoded forms were evicted to fit the new entry.
    pub evicted: Vec<u64>,
}

/// A long-running sketch-serving process: loads versioned snapshot frames,
/// keeps a hot set decoded under an LRU bit budget, and answers batched
/// itemset queries on the sharded engine.
pub struct SketchServer {
    config: ServeConfig,
    state: Mutex<ServeState>,
    in_flight: AtomicUsize,
}

/// An occupied in-flight slot; dropping it releases the slot. Holding one
/// is what admits a query batch past the backpressure bound.
pub struct BatchSlot<'a> {
    counter: &'a AtomicUsize,
}

impl Drop for BatchSlot<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::AcqRel);
    }
}

impl SketchServer {
    /// A server with the given knobs and an empty hot set.
    pub fn new(config: ServeConfig) -> Self {
        Self { config, state: Mutex::default(), in_flight: AtomicUsize::new(0) }
    }

    /// Tries to occupy an in-flight batch slot, refusing with a typed
    /// [`ServeError::Overloaded`] when the bound is reached.
    /// [`query_group`](Self::query_group) calls this once per group of
    /// query batches; tests hold slots directly to drive the server to
    /// saturation deterministically.
    pub fn try_begin_batch(&self) -> Result<BatchSlot<'_>, ServeError> {
        let limit = self.config.max_in_flight;
        self.in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| (n < limit).then_some(n + 1))
            .map(|_| BatchSlot { counter: &self.in_flight })
            .map_err(|n| ServeError::Overloaded { in_flight: n as u64, limit: limit as u64 })
    }

    /// Admits a snapshot frame under `id`, validating it end to end
    /// (framing, checksum, body, servable kind) and warming the hot set
    /// with the decoded sketch.
    ///
    /// Re-admitting a live id is **hot-reload**: the new entry replaces
    /// the old atomically under the state lock, while any in-flight batch
    /// keeps its [`Arc`] to the old decoded form and completes against it
    /// — no request ever observes a torn state, because every dispatch
    /// resolves its sketch exactly once. The returned [`LoadOutcome`]
    /// reports the bump in `generation` and the `previous_kind`.
    ///
    /// `threads` (0 = [`ServeConfig::default_threads`]) resolves to at most
    /// the host's cores ([`host_cores`]).
    pub fn load_frame(
        &self,
        id: u64,
        threads: usize,
        frame: &[u8],
    ) -> Result<LoadOutcome, ServeError> {
        let size_bits = frame.len() as u64 * 8;
        if size_bits > self.config.budget_bits {
            return Err(ServeError::FrameOverBudget {
                size_bits,
                budget_bits: self.config.budget_bits,
            });
        }
        // More engine threads than cores only adds spawn cost, and a wire
        // `Load` must not make every large dispatch on its id spawn
        // `MAX_THREADS` OS threads.
        let threads =
            clamp_threads(if threads == 0 { self.config.default_threads } else { threads })
                .min(host_cores());
        // Decode outside the lock: admission of a large frame must not
        // stall queries against other sketches.
        let sketch = ServedSketch::admit(frame, threads)?;
        let kind = sketch.kind();
        // Copy the frame before locking too: a large copy under the lock
        // would block every other worker's resolve for its duration.
        let bytes = frame.to_vec();
        let mut state = self.state.lock().expect("server state poisoned");
        let previous = state.entries.remove(&id);
        if let Some(previous) = &previous {
            state.reloads += 1;
            if state.unlist(id) {
                state.hot_bits -= previous.size_bits;
            }
        }
        let generation = previous.as_ref().map_or(1, |p| p.generation + 1);
        state
            .entries
            .insert(id, Entry { bytes, threads, size_bits, kind, generation, decoded: None });
        let evicted = state.make_hot(id, Arc::new(sketch), self.config.budget_bits);
        let previous_kind = previous.map(|p| p.kind);
        Ok(LoadOutcome { kind, size_bits, generation, previous_kind, evicted })
    }

    /// The decoded sketch at `id`, reloading it from the admitted frame
    /// bytes (and evicting as needed) if it is not hot. This is the one
    /// place a dispatch resolves id → sketch; [`query_group`](Self::query_group)
    /// calls it once per group so every batch in the group answers
    /// against the same snapshot generation.
    pub fn sketch(&self, id: u64) -> Result<Arc<ServedSketch>, ServeError> {
        let mut state = self.state.lock().expect("server state poisoned");
        let entry = state.entries.get(&id).ok_or(ServeError::UnknownSketch { id })?;
        if let Some(sketch) = &entry.decoded {
            let sketch = Arc::clone(sketch);
            state.unlist(id);
            state.recency.push(id);
            return Ok(sketch);
        }
        // Admission already validated these bytes; a failure here would
        // mean in-memory corruption, which still must not panic a server.
        let sketch = Arc::new(ServedSketch::admit(&entry.bytes, entry.threads)?);
        state.make_hot(id, Arc::clone(&sketch), self.config.budget_bits);
        Ok(sketch)
    }

    /// Answers one query batch from the sketch at `id` — the one-batch
    /// form of [`query_group`](Self::query_group)'s steps, under a slot
    /// the caller holds. Batch execution runs outside the state lock.
    pub fn query(
        &self,
        _slot: &BatchSlot<'_>,
        id: u64,
        mode: QueryMode,
        queries: &[Itemset],
    ) -> Result<Answers, ServeError> {
        let sketch = self.sketch(id)?;
        sketch.validate(queries)?;
        self.dispatch(&sketch, mode, queries)
    }

    /// Answers a group of query batches on one `(id, mode)` with one
    /// engine dispatch, one response per batch in order: take an
    /// in-flight slot, resolve the id once (so every batch answers the
    /// same snapshot generation), validate each batch alone, answer the
    /// valid batches' queries — moved, not copied, into one aggregate —
    /// with one dispatch, count it, and give each batch its slice of the
    /// answers or its own refusal. Aggregation only regroups work:
    /// per-query answers are independent of batch composition, so each
    /// response is bit-identical to the batch answered alone.
    pub fn query_group(
        &self,
        id: u64,
        mode: QueryMode,
        batches: Vec<Vec<Itemset>>,
    ) -> Vec<Response> {
        let (_slot, sketch) = match self.try_begin_batch().and_then(|s| Ok((s, self.sketch(id)?))) {
            Ok(resolved) => resolved,
            Err(e) => return vec![Response::Error(e); batches.len()],
        };
        let mut all = Vec::new();
        let checks: Vec<Result<usize, ServeError>> = batches
            .into_iter()
            .map(|mut batch| {
                sketch.validate(&batch)?;
                all.append(&mut batch);
                Ok(all.len())
            })
            .collect();
        let answers = checks.iter().any(Result::is_ok).then(|| self.dispatch(&sketch, mode, &all));
        let mut start = 0;
        checks
            .into_iter()
            .map(|check| {
                let end = match check {
                    Ok(end) => end,
                    Err(e) => return Response::Error(e),
                };
                let range = std::mem::replace(&mut start, end)..end;
                match answers.as_ref().expect("a valid batch was dispatched") {
                    Ok(Answers::Estimates(v)) => Response::Estimates(v[range].to_vec()),
                    Ok(Answers::Indicators(v)) => Response::Indicators(v[range].to_vec()),
                    Err(e) => Response::Error(e.clone()),
                }
            })
            .collect()
    }

    /// Runs one validated batch on `sketch` and counts the dispatch:
    /// `served_batches` counts *dispatches on the engine*, not
    /// client-visible query responses.
    fn dispatch(
        &self,
        sketch: &ServedSketch,
        mode: QueryMode,
        queries: &[Itemset],
    ) -> Result<Answers, ServeError> {
        let answers = sketch.dispatch(mode, queries)?;
        self.state.lock().expect("server state poisoned").served_batches += 1;
        Ok(answers)
    }

    /// Occupancy and traffic counters.
    pub fn stats(&self) -> ServerStats {
        let state = self.state.lock().expect("server state poisoned");
        ServerStats {
            admitted: state.entries.len() as u64,
            hot: state.recency.len() as u64,
            hot_bits: state.hot_bits,
            budget_bits: self.config.budget_bits,
            in_flight: self.in_flight.load(Ordering::Acquire) as u64,
            max_in_flight: self.config.max_in_flight as u64,
            served_batches: state.served_batches,
            evictions: state.evictions,
            reloads: state.reloads,
        }
    }

    /// Ids currently decoded, least-recently-used first (observability for
    /// tests and operators; not part of the wire protocol).
    pub fn hot_ids(&self) -> Vec<u64> {
        self.state.lock().expect("server state poisoned").recency.clone()
    }

    /// Maps one decoded request to its response: Load (or reload),
    /// Stats, and a query batch answered as a group of one through
    /// [`query_group`](Self::query_group). Every refusal comes back as
    /// [`Response::Error`]. [`Self::handle_into`] answers every request
    /// through here; the pooled transport answers Load and Stats through
    /// here and groups queries across connections for `query_group`
    /// itself ([`crate::pool`]).
    pub fn respond(&self, request: Request) -> Response {
        match request {
            Request::Load { id, threads, frame } => match self.load_frame(id, threads, &frame) {
                Ok(LoadOutcome {
                    kind,
                    size_bits,
                    generation,
                    previous_kind: Some(previous_kind),
                    evicted,
                }) => {
                    Response::Reloaded { id, kind, size_bits, generation, previous_kind, evicted }
                }
                Ok(LoadOutcome { kind, size_bits, evicted, .. }) => {
                    Response::Loaded { id, kind, size_bits, evicted }
                }
                Err(e) => Response::Error(e),
            },
            Request::Query { id, mode, queries } => {
                self.query_group(id, mode, vec![queries]).pop().expect("one response per batch")
            }
            Request::Stats => Response::Stats(self.stats()),
        }
    }

    /// Maps one request frame to one response frame — the whole serving
    /// tier as a pure function over byte strings. Malformed requests,
    /// refusals, and answers all come back as encoded [`Response`]s; no
    /// input can panic this path. The response is built in a
    /// per-connection reusable [`EncodeBuf`], so a warm connection's
    /// encode path stops touching the allocator; the returned slice is
    /// valid until the buffer's next encode.
    pub fn handle_into<'a>(&self, request: &[u8], buf: &'a mut EncodeBuf) -> &'a [u8] {
        let response = match Request::from_bytes(request) {
            Ok(request) => self.respond(request),
            Err(e) => Response::Error(ServeError::Decode(e)),
        };
        response.encode_into(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifs_core::{FrequencyEstimator, ReleaseDb, Snapshot};
    use ifs_database::Database;

    fn demo() -> (ReleaseDb, Vec<u8>) {
        let db = Database::from_rows(5, &[vec![0, 1], vec![0], vec![1, 2], vec![0, 1, 4], vec![3]]);
        let sketch = ReleaseDb::build(&db, 0.3);
        let bytes = sketch.snapshot_bytes();
        (sketch, bytes)
    }

    #[test]
    fn load_then_query_matches_offline_answers() {
        let (offline, frame) = demo();
        let server = SketchServer::new(ServeConfig::default());
        let out = server.load_frame(7, 2, &frame).expect("admit");
        assert_eq!(out.kind, ifs_core::snapshot::KIND_RELEASE_DB);
        assert_eq!(out.size_bits, frame.len() as u64 * 8);
        assert_eq!(out.generation, 1);
        assert_eq!(out.previous_kind, None);
        assert!(out.evicted.is_empty());
        let queries = vec![Itemset::empty(), Itemset::singleton(0), Itemset::new(vec![0, 1])];
        let slot = server.try_begin_batch().expect("idle server has slots");
        let answers = server.query(&slot, 7, QueryMode::Estimate, &queries).expect("served");
        assert_eq!(answers, Answers::Estimates(offline.estimate_batch(&queries)));
        assert_eq!(server.stats().served_batches, 1);
    }

    /// Hot-reload at the server level: re-admitting a live id bumps the
    /// generation and names the replaced kind, a dispatch that resolved
    /// its `Arc` before the reload drains against the *old* decoded form,
    /// and dispatches after the reload answer the new one — never a blend.
    #[test]
    fn reload_bumps_generation_and_drains_in_flight_on_old_arc() {
        let (old_offline, old_frame) = demo();
        let new_db =
            Database::from_rows(5, &[vec![2, 3], vec![2], vec![3], vec![2, 3, 4], vec![4]]);
        let new_offline = ReleaseDb::build(&new_db, 0.3);
        let new_frame = new_offline.snapshot_bytes();

        let server = SketchServer::new(ServeConfig::default());
        assert_eq!(server.load_frame(7, 1, &old_frame).expect("first load").generation, 1);
        // An in-flight batch resolves its sketch once, before the reload.
        let in_flight = server.sketch(7).expect("admitted id resolves");

        let out = server.load_frame(7, 1, &new_frame).expect("reload");
        assert_eq!(out.generation, 2);
        assert_eq!(out.previous_kind, Some(ifs_core::snapshot::KIND_RELEASE_DB));
        assert_eq!(server.stats().reloads, 1);

        let queries = vec![Itemset::empty(), Itemset::singleton(2), Itemset::new(vec![2, 3])];
        // The drained batch answers the old snapshot, bit-identically.
        assert_eq!(
            in_flight.answer(QueryMode::Estimate, &queries).expect("old arc answers"),
            Answers::Estimates(old_offline.estimate_batch(&queries))
        );
        // A fresh dispatch answers the new one.
        let slot = server.try_begin_batch().unwrap();
        assert_eq!(
            server.query(&slot, 7, QueryMode::Estimate, &queries).expect("served"),
            Answers::Estimates(new_offline.estimate_batch(&queries))
        );
    }

    /// A wire `Load` asking for `MAX_THREADS` engine threads gets at most
    /// the host's cores, and its answers stay the offline sketch's bits.
    #[test]
    fn wire_thread_knob_is_bounded_by_host_cores() {
        let (offline, frame) = demo();
        let server = SketchServer::new(ServeConfig::default());
        let load = Request::Load { id: 0, threads: 256, frame };
        assert!(matches!(server.respond(load), Response::Loaded { .. }));
        let threads = server.sketch(0).expect("admitted").threads();
        assert!((1..=host_cores()).contains(&threads), "resolved {threads} threads");
        let queries = vec![Itemset::empty(), Itemset::new(vec![0, 1]), Itemset::singleton(4)];
        let query = Request::Query { id: 0, mode: QueryMode::Estimate, queries: queries.clone() };
        assert_eq!(
            server.respond(query),
            Response::from(Answers::Estimates(offline.estimate_batch(&queries)))
        );
    }

    #[test]
    fn unknown_ids_and_empty_hot_sets_refuse_typed() {
        let server = SketchServer::new(ServeConfig::default());
        let slot = server.try_begin_batch().unwrap();
        assert_eq!(
            server.query(&slot, 3, QueryMode::Estimate, &[]),
            Err(ServeError::UnknownSketch { id: 3 })
        );
    }

    #[test]
    fn over_budget_frames_refuse_at_admission() {
        let (_, frame) = demo();
        let budget = frame.len() as u64 * 8 - 1;
        let server =
            SketchServer::new(ServeConfig { budget_bits: budget, ..ServeConfig::default() });
        assert_eq!(
            server.load_frame(0, 1, &frame),
            Err(ServeError::FrameOverBudget {
                size_bits: frame.len() as u64 * 8,
                budget_bits: budget
            })
        );
        // Nothing was admitted: the id is still unknown.
        assert_eq!(server.stats().admitted, 0);
    }

    #[test]
    fn saturation_refuses_instead_of_queueing() {
        let (_, frame) = demo();
        let server = SketchServer::new(ServeConfig { max_in_flight: 2, ..ServeConfig::default() });
        server.load_frame(0, 1, &frame).expect("admit");
        let a = server.try_begin_batch().expect("slot 1");
        let _b = server.try_begin_batch().expect("slot 2");
        assert_eq!(
            server.try_begin_batch().map(|_| ()),
            Err(ServeError::Overloaded { in_flight: 2, limit: 2 })
        );
        drop(a);
        let c = server.try_begin_batch().expect("released slot is reusable");
        assert!(server.query(&c, 0, QueryMode::Estimate, &[Itemset::empty()]).is_ok());
    }

    /// A valid frame of `rows` rows over 4 attributes (row `i` holds the
    /// set bits of `i`); its size grows by a few bytes per row.
    fn frame_of_rows(rows: usize) -> Vec<u8> {
        let rows: Vec<Vec<u32>> =
            (0..rows).map(|i| (0..4).filter(|b| (i >> b) & 1 == 1).collect()).collect();
        ReleaseDb::build(&Database::from_rows(4, &rows), 0.1).snapshot_bytes()
    }

    fn bits(frame: &[u8]) -> u64 {
        frame.len() as u64 * 8
    }

    fn with_budget(budget_bits: u64) -> SketchServer {
        SketchServer::new(ServeConfig { budget_bits, ..ServeConfig::default() })
    }

    #[test]
    fn lru_evicts_oldest_first_and_touch_reorders() {
        let small = frame_of_rows(1);
        let s = bits(&small);
        let server = with_budget(3 * s);
        for id in 1..=3 {
            assert_eq!(server.load_frame(id, 1, &small).unwrap().evicted, Vec::<u64>::new());
        }
        assert_eq!(server.stats().hot_bits, 3 * s);
        // Touch 1: now 2 is the LRU victim.
        server.sketch(1).expect("hot");
        assert_eq!(server.load_frame(4, 1, &small).unwrap().evicted, vec![2]);
        assert_eq!(server.hot_ids(), vec![3, 1, 4]);
        assert_eq!(server.stats().evictions, 1);
        // A frame over two small ones evicts several, oldest first.
        let big = (2..100).map(frame_of_rows).find(|f| bits(f) > 2 * s).unwrap();
        assert!(bits(&big) <= 3 * s, "{} bits fit the budget", bits(&big));
        assert_eq!(server.load_frame(5, 1, &big).unwrap().evicted, vec![3, 1, 4]);
        let stats = server.stats();
        assert_eq!((stats.hot, stats.hot_bits, stats.evictions), (1, bits(&big), 4));
        // Evicted ids stay admitted: resolving one re-decodes it, which
        // evicts in turn.
        assert_eq!(stats.admitted, 5);
        server.sketch(2).expect("re-decoded");
        assert_eq!(server.hot_ids(), vec![2]);
        assert_eq!((server.stats().hot_bits, server.stats().evictions), (s, 5));
    }

    #[test]
    fn replacing_an_id_keeps_accounting_exact() {
        let (big, small) = (frame_of_rows(40), frame_of_rows(1));
        assert!(bits(&big) > bits(&small));
        let server = with_budget(1 << 20);
        server.load_frame(1, 1, &big).expect("admit");
        let out = server.load_frame(1, 1, &small).expect("reload");
        assert_eq!((out.generation, out.evicted), (2, vec![]));
        let stats = server.stats();
        assert_eq!((stats.admitted, stats.hot, stats.hot_bits), (1, 1, bits(&small)));
        assert_eq!((stats.reloads, stats.evictions), (1, 0));
        assert_eq!(server.hot_ids(), vec![1]);
    }

    #[test]
    fn exact_fit_does_not_evict() {
        let small = frame_of_rows(1);
        let server = with_budget(2 * bits(&small));
        server.load_frame(1, 1, &small).expect("admit");
        assert_eq!(server.load_frame(2, 1, &small).unwrap().evicted, Vec::<u64>::new());
        assert_eq!((server.stats().hot_bits, server.stats().evictions), (2 * bits(&small), 0));
    }

    #[test]
    fn handle_is_total_over_byte_strings() {
        let server = SketchServer::new(ServeConfig::default());
        let mut buf = EncodeBuf::new();
        // Garbage, truncation, and a valid frame all produce decodable
        // responses.
        for input in [&b""[..], b"garbage", &Request::Stats.to_bytes()] {
            Response::from_bytes(server.handle_into(input, &mut buf))
                .expect("every response must decode");
        }
    }

    #[test]
    fn handle_into_reusing_one_buffer_matches_a_fresh_buffer() {
        let (_, frame) = demo();
        // Two identical servers, fed the same request sequence: one
        // through one reused buffer, one through a fresh buffer per
        // request. (One server would see the second Load of each pair as
        // a reload and answer a different generation.)
        let reusing = SketchServer::new(ServeConfig::default());
        let fresh = SketchServer::new(ServeConfig::default());
        let mut buf = EncodeBuf::new();
        // One buffer across loads, queries of both modes, stats, and
        // refusals — every response must equal the fresh buffer's bytes
        // even after the buffer has held a longer frame.
        let requests = [
            Request::Load { id: 0, threads: 1, frame: frame.clone() },
            Request::Query {
                id: 0,
                mode: QueryMode::Estimate,
                queries: vec![Itemset::empty(), Itemset::new(vec![0, 1])],
            },
            Request::Stats,
            Request::Query { id: 9, mode: QueryMode::Indicator, queries: vec![] },
        ];
        let mut inputs: Vec<Vec<u8>> = requests.iter().map(Request::to_bytes).collect();
        inputs.push(b"garbage".to_vec());
        for input in &inputs {
            let want = fresh.handle_into(input, &mut EncodeBuf::new()).to_vec();
            assert_eq!(reusing.handle_into(input, &mut buf), want, "{input:?}");
        }
    }
}
