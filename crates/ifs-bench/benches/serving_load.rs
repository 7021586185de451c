//! Criterion: the sketch-serving tier under batched query load.
//!
//! Drives a [`SketchServer`] through its byte-level `handle_into` entry point —
//! the same request/response frames a socket carries, minus the socket —
//! so the measured cost is the full serving path: request decode, hot-set
//! lookup, sharded batch execution, response encode. Three things are
//! asserted on every run (smoke pass included) before anything is timed:
//!
//! 1. **Identity** — every served answer is bit-identical to the offline
//!    sketch's answer for the same batch, at 1 and 4 per-sketch threads.
//! 2. **Eviction transparency** — under a budget that holds only one
//!    decoded sketch, round-robin queries force evict/reload on every
//!    batch and the answers still match bit for bit.
//! 3. **Refusals stay cheap and typed** — a garbage frame and an unknown
//!    id produce error responses, not panics, mid-load.
//!
//! The timed pass prints p50/p99/p99.9 batch latency and queries/sec for
//! the in-process path. It writes no artifact: `BENCH_serving.json` has
//! one producer, `ifs-loadgen --bench-matrix`, which measures the serving
//! tier across real TCP connections.
//!
//! Run with `cargo bench -p ifs-bench --bench serving_load`; under
//! `cargo test --benches` each body runs once as a smoke test.

use criterion::{criterion_group, criterion_main, Criterion};
use ifs_core::{ReleaseAnswersIndicator, ReleaseDb, Snapshot, Subsample};
use ifs_database::{generators, Itemset};
use ifs_serve::{
    Answers, EncodeBuf, QueryMode, Request, Response, ServeConfig, ServedSketch, SketchServer,
};
use ifs_util::Rng64;
use std::hint::black_box;
use std::time::Instant;

/// Full scale in release; the debug smoke pass shrinks the workload (the
/// identity and eviction assertions are scale-free) so CI stays fast.
const ROWS: usize = if cfg!(debug_assertions) { 300 } else { 4_000 };
const DIMS: usize = 64;
const BATCHES: usize = if cfg!(debug_assertions) { 24 } else { 256 };
const BATCH_SIZE: usize = if cfg!(debug_assertions) { 64 } else { 512 };
const EPSILON: f64 = 0.1;

/// The served fleet: one frame per kind with a batched query engine, plus
/// an indicator store to cover the scalar-lookup path.
fn fleet(rng: &mut Rng64) -> Vec<Vec<u8>> {
    let db = generators::uniform(ROWS, DIMS, 0.25, rng);
    vec![
        ReleaseDb::build(&db, EPSILON).snapshot_bytes(),
        Subsample::with_sample_count_seeded(&db, 128, EPSILON, 0xB5).snapshot_bytes(),
        ReleaseAnswersIndicator::build(&db, 2, EPSILON).snapshot_bytes(),
    ]
}

fn batch_for(sketch: &ServedSketch, rng: &mut Rng64) -> (QueryMode, Vec<Itemset>) {
    let (mode, fixed_len) = match sketch {
        ServedSketch::AnswersIndicator(s) => (QueryMode::Indicator, Some(s.k())),
        ServedSketch::AnswersEstimator(_) => (QueryMode::Estimate, None),
        _ => (QueryMode::Estimate, None),
    };
    let queries = (0..BATCH_SIZE)
        .map(|_| {
            let len = fixed_len.unwrap_or_else(|| rng.below(4));
            Itemset::new(rng.distinct_sorted(DIMS, len).iter().map(|&i| i as u32).collect())
        })
        .collect();
    (mode, queries)
}

fn assert_identical(served: &Response, oracle: &Answers) {
    match (served, oracle) {
        (Response::Estimates(got), Answers::Estimates(want)) => {
            let got: Vec<u64> = got.iter().map(|f| f.to_bits()).collect();
            let want: Vec<u64> = want.iter().map(|f| f.to_bits()).collect();
            assert_eq!(got, want, "served estimates diverge from the offline sketch");
        }
        (Response::Indicators(got), Answers::Indicators(want)) => {
            assert_eq!(got, want, "served indicators diverge from the offline sketch");
        }
        (got, _) => panic!("expected answers, got {got:?}"),
    }
}

/// One request frame through `handle_into`, decoded.
fn serve(server: &SketchServer, request: &[u8], buf: &mut EncodeBuf) -> Response {
    Response::from_bytes(server.handle_into(request, buf)).expect("response decodes")
}

/// Identity at 1 and 4 threads, eviction transparency, refusal totality —
/// the correctness half, asserted before any timing.
fn assert_serving_invariants(frames: &[Vec<u8>]) {
    let mut buf = EncodeBuf::new();
    for threads in [1usize, 4] {
        let server =
            SketchServer::new(ServeConfig { default_threads: threads, ..Default::default() });
        let oracle: Vec<ServedSketch> =
            frames.iter().map(|f| ServedSketch::admit(f, threads).expect("fleet frame")).collect();
        for (id, frame) in frames.iter().enumerate() {
            server.load_frame(id as u64, threads, frame).expect("admit fleet");
        }
        let mut rng = Rng64::seeded(0x1D_0001 + threads as u64);
        for b in 0..8 {
            let id = b % oracle.len();
            let (mode, queries) = batch_for(&oracle[id], &mut rng);
            let expected = oracle[id].answer(mode, &queries).expect("oracle answers");
            let request = Request::Query { id: id as u64, mode, queries }.to_bytes();
            assert_identical(&serve(&server, &request, &mut buf), &expected);
        }
    }

    // A budget of exactly the largest frame: every round-robin batch
    // evicts the previous sketch and reloads from admitted bytes.
    let max_bits = frames.iter().map(|f| f.len() as u64 * 8).max().expect("nonempty fleet");
    let tight = SketchServer::new(ServeConfig { budget_bits: max_bits, ..Default::default() });
    let oracle: Vec<ServedSketch> =
        frames.iter().map(|f| ServedSketch::admit(f, 1).expect("fleet frame")).collect();
    for (id, frame) in frames.iter().enumerate() {
        tight.load_frame(id as u64, 1, frame).expect("admit fleet");
    }
    let mut rng = Rng64::seeded(0x1D_0002);
    for b in 0..12 {
        let id = b % oracle.len();
        let (mode, queries) = batch_for(&oracle[id], &mut rng);
        let expected = oracle[id].answer(mode, &queries).expect("oracle answers");
        let request = Request::Query { id: id as u64, mode, queries }.to_bytes();
        assert_identical(&serve(&tight, &request, &mut buf), &expected);
    }
    assert!(tight.stats().evictions > 0, "a one-sketch budget under round-robin load must evict");

    // Refusals: garbage and unknown ids answer typed errors mid-load.
    let garbage = serve(&tight, b"definitely not a frame", &mut buf);
    assert!(matches!(garbage, Response::Error(_)));
    let unknown = Request::Query { id: 999, mode: QueryMode::Estimate, queries: vec![] };
    assert!(matches!(serve(&tight, &unknown.to_bytes(), &mut buf), Response::Error(_)));
}

fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx]
}

/// The timed half: a warm server under round-robin batched load, measured
/// through the byte-level `handle_into` path.
fn run_load(frames: &[Vec<u8>]) -> (f64, f64, f64, f64) {
    let server = SketchServer::new(ServeConfig::default());
    let oracle: Vec<ServedSketch> =
        frames.iter().map(|f| ServedSketch::admit(f, 2).expect("fleet frame")).collect();
    for (id, frame) in frames.iter().enumerate() {
        server.load_frame(id as u64, 2, frame).expect("admit fleet");
    }
    let mut rng = Rng64::seeded(0x1D_0003);
    let requests: Vec<Vec<u8>> = (0..BATCHES)
        .map(|b| {
            let id = b % oracle.len();
            let (mode, queries) = batch_for(&oracle[id], &mut rng);
            Request::Query { id: id as u64, mode, queries }.to_bytes()
        })
        .collect();
    // One connection's reusable buffers: the timed path is `handle_into`
    // (decode, answer, encode), the sequential request → response map
    // whose bytes the pooled transport must reproduce.
    let mut buf = EncodeBuf::new();
    let mut latencies_ms = Vec::with_capacity(BATCHES);
    let started = Instant::now();
    for req in &requests {
        let sent = Instant::now();
        let resp_len = server.handle_into(black_box(req), &mut buf).len();
        latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        black_box(resp_len);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let qps = (BATCHES * BATCH_SIZE) as f64 / elapsed.max(1e-9);
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    (
        percentile_ms(&latencies_ms, 50.0),
        percentile_ms(&latencies_ms, 99.0),
        percentile_ms(&latencies_ms, 99.9),
        qps,
    )
}

fn bench_serving_load(c: &mut Criterion) {
    let mut rng = Rng64::seeded(0x5E17E);
    let frames = fleet(&mut rng);
    assert_serving_invariants(&frames);
    let (p50, p99, p999, qps) = run_load(&frames);
    println!(
        "serving_load: {BATCHES} batches x {BATCH_SIZE} queries over 3 sketches \
         ({ROWS} rows x {DIMS} dims): p50 {p50:.3} ms, p99 {p99:.3} ms, \
         p99.9 {p999:.3} ms, {qps:.0} queries/s"
    );
    // Keep criterion's group bookkeeping consistent even though the gate
    // does its own timing.
    let mut g = c.benchmark_group("serving_load_gate");
    g.bench_function("noop", |b| b.iter(|| black_box(0)));
    g.finish();
}

criterion_group!(benches, bench_serving_load);
criterion_main!(benches);
