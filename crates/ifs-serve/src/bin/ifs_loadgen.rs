//! `ifs-loadgen` — deterministic load generator and identity checker for
//! `ifs-serve`.
//!
//! ```text
//! ifs-loadgen --write-snapshots FILE [--seed N]
//! ifs-loadgen --write-log FILE [--seed N]
//! ifs-loadgen --connect ADDR [--assume-loaded] [--connections N]
//!             [--pipeline M] [--batches N] [--batch-size N] [--threads N]
//!             [--seed N] [--json PATH]
//! ifs-loadgen --bench-matrix [--connections N] [--pipeline M]
//!             [--batches N] [--batch-size N] [--seed N] [--json PATH]
//! ```
//!
//! The first form writes the demo sketch fleet (one frame per servable
//! kind, built from a seeded database) as concatenated snapshot frames —
//! the file `ifs-serve --snapshots` preloads. `--write-log` writes the
//! *same fleet* as a durable sketch log (`ifs-serve --log`), but through
//! the store's lifecycle ops: the RELEASE-DB arrives as a two-shard merge
//! run, one id is shadowed by a later `Put`, and an unservable ingestion
//! partial rides along for the server to skip — so an end-to-end run over
//! the log proves the materialize fold reproduces the one-shot fleet
//! bit-identically, not just that bytes round-trip. The second form drives a
//! running server over `--connections` concurrent connections, each
//! keeping up to `--pipeline` requests in flight, and **verifies every
//! answer bit-identically** against the same sketches rebuilt locally:
//! the loadgen is an end-to-end oracle, not just a traffic source. With
//! `--assume-loaded` the fleet is expected to be preloaded (ids `0..4` in
//! fleet order); otherwise the loadgen sends `Load` requests itself. An
//! `Overloaded` refusal is retried (and counted), so backpressure under
//! saturation shows up as `overload_retries`, not as a failed run.
//!
//! The third form is the perf-trajectory harness: it spins up in-process
//! pooled servers over loopback TCP and drives each with two client
//! shapes — the `--connections`/`--pipeline` flag shape and a lone
//! unpipelined client (1 × 1) — at engine thread counts 1 and 4, and
//! writes one JSON with all four runs. That file is the committed
//! `bench_results/BENCH_serving.json`.
//!
//! Every connection's requests and expected answers are built before the
//! clock starts, so the timed window holds only sends, receives and
//! bit comparisons: queries/sec measures the server, not the oracle.
//! Latency is measured per batch round-trip; p50/p99/p99.9 and aggregate
//! queries/sec land in `--json PATH` with a `mode` field recording
//! whether a debug or release build produced the numbers, the host's
//! core count (`host_cores`: engine threads resolve to at most that
//! many), and the `connections`/`pipeline_depth` shape of the run.

use ifs_core::{ReleaseAnswersEstimator, ReleaseAnswersIndicator, ReleaseDb, Snapshot, Subsample};
use ifs_database::{generators, Itemset};
use ifs_serve::{
    pool, Answers, Client, QueryMode, Request, Response, ServeConfig, ServedSketch, SketchServer,
};
use ifs_util::stats::quantile;
use ifs_util::threads::host_cores;
use ifs_util::Rng64;
use std::collections::VecDeque;
use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: ifs-loadgen --write-snapshots FILE [--seed N]\n       \
                     ifs-loadgen --write-log FILE [--seed N]\n       \
                     ifs-loadgen --connect ADDR [--assume-loaded] [--connections N] \
                     [--pipeline M] [--batches N] [--batch-size N] [--threads N] [--seed N] \
                     [--json PATH]\n       \
                     ifs-loadgen --bench-matrix [--connections N] [--pipeline M] [--batches N] \
                     [--batch-size N] [--seed N] [--json PATH]";

/// Fleet shape: one database, one sketch per servable kind.
const FLEET_ROWS: usize = 400;
const FLEET_DIMS: usize = 48;
const FLEET_DENSITY: f64 = 0.25;
const FLEET_EPSILON: f64 = 0.1;
const FLEET_SAMPLE_ROWS: usize = 64;
const FLEET_ANSWERS_K: usize = 2;

struct Args {
    write_snapshots: Option<String>,
    write_log: Option<String>,
    connect: Option<String>,
    bench_matrix: bool,
    assume_loaded: bool,
    connections: usize,
    pipeline: usize,
    batches: usize,
    batch_size: usize,
    threads: usize,
    seed: u64,
    json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        write_snapshots: None,
        write_log: None,
        connect: None,
        bench_matrix: false,
        assume_loaded: false,
        connections: 1,
        pipeline: 1,
        batches: 64,
        batch_size: 256,
        threads: 2,
        seed: 0x5EED,
        json: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--write-snapshots" => args.write_snapshots = Some(value("--write-snapshots")?),
            "--write-log" => args.write_log = Some(value("--write-log")?),
            "--connect" => args.connect = Some(value("--connect")?),
            "--bench-matrix" => args.bench_matrix = true,
            "--assume-loaded" => args.assume_loaded = true,
            "--connections" => {
                args.connections =
                    value("--connections")?.parse().map_err(|e| format!("--connections: {e}"))?;
            }
            "--pipeline" => {
                args.pipeline =
                    value("--pipeline")?.parse().map_err(|e| format!("--pipeline: {e}"))?;
            }
            "--batches" => {
                args.batches =
                    value("--batches")?.parse().map_err(|e| format!("--batches: {e}"))?;
            }
            "--batch-size" => {
                args.batch_size =
                    value("--batch-size")?.parse().map_err(|e| format!("--batch-size: {e}"))?;
            }
            "--threads" => {
                args.threads =
                    value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--json" => args.json = Some(value("--json")?),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    let modes = args.write_snapshots.is_some() as u8
        + args.write_log.is_some() as u8
        + args.connect.is_some() as u8
        + args.bench_matrix as u8;
    if modes != 1 {
        return Err(format!(
            "exactly one of --write-snapshots, --write-log, --connect, or --bench-matrix\n{USAGE}"
        ));
    }
    if args.connections == 0 || args.pipeline == 0 {
        return Err("--connections and --pipeline must be at least 1".into());
    }
    Ok(args)
}

/// The deterministic demo fleet: the frames a given seed always produces,
/// in id order. Both the snapshot writer and the oracle rebuild from here,
/// which is what makes cross-process identity checkable at all.
fn fleet_frames(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng64::seeded(seed);
    let db = generators::uniform(FLEET_ROWS, FLEET_DIMS, FLEET_DENSITY, &mut rng);
    vec![
        ReleaseDb::build(&db, FLEET_EPSILON).snapshot_bytes(),
        Subsample::with_sample_count_seeded(&db, FLEET_SAMPLE_ROWS, FLEET_EPSILON, seed ^ 0x51)
            .snapshot_bytes(),
        ReleaseAnswersIndicator::build(&db, FLEET_ANSWERS_K, FLEET_EPSILON).snapshot_bytes(),
        ReleaseAnswersEstimator::build(&db, FLEET_ANSWERS_K, FLEET_EPSILON).snapshot_bytes(),
    ]
}

fn write_snapshots(path: &str, seed: u64) -> Result<(), String> {
    let frames = fleet_frames(seed);
    let mut bytes = Vec::new();
    for frame in &frames {
        bytes.extend_from_slice(frame);
    }
    std::fs::write(path, &bytes).map_err(|e| format!("{path}: {e}"))?;
    println!("ifs-loadgen wrote {} frames ({} bytes) to {path}", frames.len(), bytes.len());
    Ok(())
}

/// Writes the fleet as a sketch log whose *materialization* is the fleet:
/// the RELEASE-DB arrives as a two-shard merge run, id 1 is first written
/// as a decoy and then shadowed by the real frame, and an unservable
/// SUBSAMPLE partial rides along under a high id for the server to skip.
/// An `ifs-serve --log` boot over this file must serve answers
/// bit-identical to `--snapshots` over [`write_snapshots`]'s output.
fn write_log(path: &str, seed: u64) -> Result<(), String> {
    use ifs_core::{StreamingBuild, SubsampleBuilder, SubsampleParams};
    use ifs_store::{LogOp, SketchLog};
    let frames = fleet_frames(seed);
    let mut log = SketchLog::create(path).map_err(|e| e.to_string())?;
    let fail = |e: ifs_store::StoreError| e.to_string();
    // The fleet database again, split into two row shards: §9 merge
    // identity makes the folded sketch bit-identical to fleet frame 0.
    let mut rng = Rng64::seeded(seed);
    let db = generators::uniform(FLEET_ROWS, FLEET_DIMS, FLEET_DENSITY, &mut rng);
    let rows: Vec<Vec<u32>> = (0..db.rows()).map(|r| db.row_itemset(r).items().to_vec()).collect();
    let (front, back) = rows.split_at(FLEET_ROWS / 2);
    for shard in [front, back] {
        let part =
            ReleaseDb::build(&ifs_database::Database::from_rows(FLEET_DIMS, shard), FLEET_EPSILON);
        log.append(LogOp::Merge, 0, &part.snapshot_bytes()).map_err(fail)?;
    }
    // Id 1 exercises Put shadowing: a decoy first, the real frame second.
    let decoy = ReleaseDb::build(&ifs_database::Database::from_rows(FLEET_DIMS, &[vec![0]]), 0.5);
    log.append(LogOp::Put, 1, &decoy.snapshot_bytes()).map_err(fail)?;
    for (id, frame) in frames.iter().enumerate().skip(1) {
        log.append(LogOp::Put, id as u64, frame).map_err(fail)?;
    }
    // An ingestion partial the server must skip, not refuse.
    let mut partial = SubsampleBuilder::begin(
        FLEET_DIMS,
        seed,
        &SubsampleParams { sample_rows: 4, epsilon: 0.1 },
    );
    partial.observe_row(&Itemset::new(vec![0, 2]));
    log.append(LogOp::Put, 999, &partial.snapshot_bytes()).map_err(fail)?;
    println!(
        "ifs-loadgen wrote {} log records ({} bytes) to {path}",
        log.record_count(),
        log.len_bytes()
    );
    Ok(())
}

/// One deterministic query batch for `sketch` (respecting its cardinality
/// contract, so every query is answerable).
fn batch_for(sketch: &ServedSketch, size: usize, rng: &mut Rng64) -> Vec<Itemset> {
    let dims = sketch.dims();
    (0..size)
        .map(|_| {
            let len = sketch.required_len().unwrap_or_else(|| rng.below(4));
            Itemset::new(rng.distinct_sorted(dims, len).iter().map(|&i| i as u32).collect())
        })
        .collect()
}

/// True iff the served answers equal the oracle's, bit for bit (estimates
/// compare by IEEE-754 bit pattern, so NaN payloads and signed zeros
/// count too).
fn identical(served: &Response, oracle: &Answers) -> bool {
    match (served, oracle) {
        (Response::Estimates(got), Answers::Estimates(want)) => {
            got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits())
        }
        (Response::Indicators(got), Answers::Indicators(want)) => got == want,
        _ => false,
    }
}

/// The shape of one measured run.
struct RunShape {
    connections: usize,
    pipeline: usize,
    batches: usize,
    batch_size: usize,
    threads: usize,
    seed: u64,
}

/// What one run measured.
struct Measured {
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    qps: f64,
    overload_retries: u64,
}

/// One connection's workload: `shape.batches` query requests, each with
/// the oracle's answers, built before any timing starts.
fn plan_connection(
    oracle: &[ServedSketch],
    shape: &RunShape,
    conn_index: usize,
) -> Result<Vec<(Request, Answers)>, String> {
    let mut rng = Rng64::seeded(
        shape.seed ^ 0x10AD ^ (conn_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    (0..shape.batches)
        .map(|b| {
            let id = b % oracle.len();
            let sketch = &oracle[id];
            let modes: Vec<QueryMode> = [QueryMode::Estimate, QueryMode::Indicator]
                .into_iter()
                .filter(|&m| sketch.supports(m))
                .collect();
            let mode = modes[(b / oracle.len()) % modes.len()];
            let queries = batch_for(sketch, shape.batch_size, &mut rng);
            let expected = sketch.answer(mode, &queries).map_err(|e| format!("oracle: {e}"))?;
            Ok((Request::Query { id: id as u64, mode, queries }, expected))
        })
        .collect()
}

/// Drives one connection through its `plan`, keeping up to `pipeline`
/// requests outstanding, comparing every answer bit for bit with the
/// planned one and retrying (and counting) `Overloaded` refusals.
/// Returns the per-batch round-trip latencies and the retry count.
fn drive_connection(
    addr: &str,
    plan: &[(Request, Answers)],
    pipeline: usize,
    conn_index: usize,
) -> Result<(Vec<f64>, u64), String> {
    let mut client = Client::connect(addr, 10_000)
        .map_err(|e| format!("connection {conn_index}: {addr}: {e}"))?;
    let mut latencies_ms = Vec::with_capacity(plan.len());
    let mut retries = 0u64;
    // Plan indices awaiting an answer (responses arrive strictly in send
    // order) and indices refused with `Overloaded`, to re-send.
    let mut outstanding: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut resend: VecDeque<usize> = VecDeque::new();
    let mut sent = 0usize;
    while latencies_ms.len() < plan.len() {
        while outstanding.len() < pipeline && (sent < plan.len() || !resend.is_empty()) {
            let i = resend.pop_front().unwrap_or_else(|| {
                sent += 1;
                sent - 1
            });
            client.send(&plan[i].0).map_err(|e| format!("connection {conn_index}: send: {e}"))?;
            outstanding.push_back((i, Instant::now()));
        }
        let (i, at) = outstanding.pop_front().expect("window is non-empty while batches remain");
        let resp = client
            .recv()
            .map_err(|e| format!("connection {conn_index}: {e}"))?
            .map_err(|e| format!("connection {conn_index}: response refused to decode: {e}"))?;
        match resp {
            Response::Error(e) if e.is_retryable() => {
                retries += 1;
                resend.push_back(i);
            }
            resp => {
                latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
                let (request, expected) = &plan[i];
                if !identical(&resp, expected) {
                    return Err(format!(
                        "connection {conn_index}: served answers diverge from the offline \
                         oracle ({resp:?} for {request:?})"
                    ));
                }
            }
        }
    }
    Ok((latencies_ms, retries))
}

/// Drives a server at `addr` with the full workload shape: optionally
/// loads the fleet, then runs `shape.connections` concurrent connections
/// and aggregates their measurements.
fn drive(
    addr: &str,
    oracle: &[ServedSketch],
    frames: &[Vec<u8>],
    shape: &RunShape,
    load: bool,
) -> Result<Measured, String> {
    if load {
        let mut loader = Client::connect(addr, 10_000).map_err(|e| format!("{addr}: {e}"))?;
        for (id, frame) in frames.iter().enumerate() {
            let resp = loader
                .call(&Request::Load {
                    id: id as u64,
                    threads: shape.threads,
                    frame: frame.clone(),
                })
                .map_err(|e| format!("load {id}: {e}"))?
                .map_err(|e| format!("load {id}: response refused to decode: {e}"))?;
            match resp {
                Response::Loaded { size_bits, .. } | Response::Reloaded { size_bits, .. } => {
                    if size_bits != frame.len() as u64 * 8 {
                        return Err(format!(
                            "load {id}: server measured {size_bits} bits, frame is {} bits",
                            frame.len() * 8
                        ));
                    }
                }
                other => return Err(format!("load {id}: unexpected response {other:?}")),
            }
        }
    }
    let plans: Vec<Vec<(Request, Answers)>> = (0..shape.connections)
        .map(|c| plan_connection(oracle, shape, c))
        .collect::<Result<_, _>>()?;
    let started = Instant::now();
    let per_conn: Vec<Result<(Vec<f64>, u64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, plan)| scope.spawn(move || drive_connection(addr, plan, shape.pipeline, c)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection thread panicked")).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut latencies_ms = Vec::with_capacity(shape.connections * shape.batches);
    let mut overload_retries = 0u64;
    for result in per_conn {
        let (lat, retries) = result?;
        latencies_ms.extend(lat);
        overload_retries += retries;
    }
    // Linearly interpolated quantiles; `--batches 0` leaves no sample,
    // reported as 0.
    let quantile_ms =
        |q: f64| if latencies_ms.is_empty() { 0.0 } else { quantile(&latencies_ms, q) };
    let queries_total = (shape.connections * shape.batches * shape.batch_size) as f64;
    Ok(Measured {
        p50_ms: quantile_ms(0.5),
        p99_ms: quantile_ms(0.99),
        p999_ms: quantile_ms(0.999),
        qps: queries_total / elapsed.max(1e-9),
        overload_retries,
    })
}

fn build_mode() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn write_json(path: &str, body: String) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))?;
    println!("ifs-loadgen wrote {path}");
    Ok(())
}

fn run_load(args: &Args) -> Result<(), String> {
    let addr = args.connect.as_deref().expect("run mode requires --connect");
    let frames = fleet_frames(args.seed);
    // The local oracle: the same frames admitted through the same dispatch
    // the server uses, so "bit-identical to the offline sharded engine" is
    // checked end to end, process boundary included.
    let oracle: Vec<ServedSketch> = frames
        .iter()
        .map(|f| ServedSketch::admit(f, args.threads).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let shape = RunShape {
        connections: args.connections,
        pipeline: args.pipeline,
        batches: args.batches,
        batch_size: args.batch_size,
        threads: args.threads,
        seed: args.seed,
    };
    let m = drive(addr, &oracle, &frames, &shape, !args.assume_loaded)?;
    println!(
        "ifs-loadgen: {} connections x {} batches x {} queries (pipeline {}) over {} \
         sketches, all answers bit-identical to the offline oracle; p50 {:.3} ms, \
         p99 {:.3} ms, p99.9 {:.3} ms, {:.0} queries/s, {} overload retries",
        args.connections,
        args.batches,
        args.batch_size,
        args.pipeline,
        oracle.len(),
        m.p50_ms,
        m.p99_ms,
        m.p999_ms,
        m.qps,
        m.overload_retries
    );
    let mut stats_client = Client::connect(addr, 2_000).map_err(|e| format!("{addr}: {e}"))?;
    if let Ok(Response::Stats(stats)) =
        stats_client.call(&Request::Stats).map_err(|e| e.to_string())?.map_err(|e| e.to_string())
    {
        println!(
            "ifs-loadgen: server stats: {} admitted, {} hot ({} / {} bits), \
             {} dispatches served, {} evictions, {} reloads",
            stats.admitted,
            stats.hot,
            stats.hot_bits,
            stats.budget_bits,
            stats.served_batches,
            stats.evictions,
            stats.reloads
        );
    }
    if let Some(path) = &args.json {
        let queries_total = args.connections * args.batches * args.batch_size;
        let json = format!(
            "{{\n  \"bench\": \"serving_load\",\n  \"mode\": \"{}\",\n  \
             \"host_cores\": {},\n  \
             \"source\": \"loadgen\",\n  \"sketches\": {},\n  \
             \"connections\": {},\n  \"pipeline_depth\": {},\n  \
             \"batches\": {},\n  \"batch_size\": {},\n  \
             \"queries_total\": {queries_total},\n  \"p50_ms\": {:.3},\n  \
             \"p99_ms\": {:.3},\n  \"p999_ms\": {:.3},\n  \
             \"queries_per_sec\": {:.1},\n  \"overload_retries\": {},\n  \
             \"identity_checked\": true\n}}\n",
            build_mode(),
            host_cores(),
            oracle.len(),
            args.connections,
            args.pipeline,
            args.batches,
            args.batch_size,
            m.p50_ms,
            m.p99_ms,
            m.p999_ms,
            m.qps,
            m.overload_retries
        );
        write_json(path, json)?;
    }
    Ok(())
}

/// Runs the 2x2 perf matrix — {flag shape, lone client (1 x 1)} x
/// {1, 4 engine threads} — each cell on a fresh in-process pooled server
/// over loopback TCP with the same batches, and writes one JSON recording
/// every run. The lone unpipelined client is the shape the pool's idle
/// sleep bounds; the flag shape is the many-connection throughput shape.
fn bench_matrix(args: &Args) -> Result<(), String> {
    let frames = fleet_frames(args.seed);
    let mut run_objects = Vec::new();
    for threads in [1usize, 4] {
        let oracle: Vec<ServedSketch> = frames
            .iter()
            .map(|f| ServedSketch::admit(f, threads).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        for (connections, pipeline) in [(args.connections, args.pipeline), (1, 1)] {
            let server = SketchServer::new(ServeConfig {
                default_threads: threads,
                ..ServeConfig::default()
            });
            let listener =
                TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
            let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
            let shape = RunShape {
                connections,
                pipeline,
                batches: args.batches,
                batch_size: args.batch_size,
                threads,
                seed: args.seed,
            };
            // The loader client plus the driving connections.
            let accept = Some(connections + 1);
            let m = std::thread::scope(|scope| {
                let (server, listener) = (&server, &listener);
                scope.spawn(move || {
                    pool::serve_pooled(server, listener, 0, accept)
                        .expect("in-process server serves its connections");
                });
                drive(&addr, &oracle, &frames, &shape, true)
            })?;
            println!(
                "ifs-loadgen matrix: threads={threads} connections={connections} \
                 pipeline={pipeline}: {:.0} queries/s (p50 {:.3} ms, p99 {:.3} ms, \
                 p99.9 {:.3} ms, {} retries)",
                m.qps, m.p50_ms, m.p99_ms, m.p999_ms, m.overload_retries
            );
            run_objects.push(format!(
                "    {{\n      \"threads\": {threads},\n      \
                 \"connections\": {connections},\n      \
                 \"pipeline_depth\": {pipeline},\n      \"p50_ms\": {:.3},\n      \
                 \"p99_ms\": {:.3},\n      \"p999_ms\": {:.3},\n      \
                 \"queries_per_sec\": {:.1},\n      \"overload_retries\": {}\n    }}",
                m.p50_ms, m.p99_ms, m.p999_ms, m.qps, m.overload_retries
            ));
        }
    }
    if let Some(path) = &args.json {
        let json = format!(
            "{{\n  \"bench\": \"serving_load\",\n  \"mode\": \"{}\",\n  \
             \"host_cores\": {},\n  \
             \"source\": \"loadgen-matrix\",\n  \"sketches\": {},\n  \
             \"connections\": {},\n  \"pipeline_depth\": {},\n  \
             \"batches\": {},\n  \"batch_size\": {},\n  \
             \"identity_checked\": true,\n  \"runs\": [\n{}\n  ]\n}}\n",
            build_mode(),
            host_cores(),
            frames.len(),
            args.connections,
            args.pipeline,
            args.batches,
            args.batch_size,
            run_objects.join(",\n")
        );
        write_json(path, json)?;
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    match (&args.write_snapshots, &args.write_log) {
        (Some(path), _) => write_snapshots(path, args.seed),
        (_, Some(path)) => write_log(path, args.seed),
        _ if args.bench_matrix => bench_matrix(&args),
        _ => run_load(&args),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ifs-loadgen: {msg}");
            ExitCode::from(1)
        }
    }
}
