//! `perfbench` — the serving stack's benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --server PATH
//!           [--out DIR] [--work DIR] [--commit SHA]
//! perfbench --smoke --server PATH
//! perfbench --selfcheck --server PATH
//! ```
//!
//! Starts the `ifs-serve` binary at `--server` as a child process on
//! loopback, drives it through its CLI and wire protocol, checks every
//! answer bit for bit against expectations computed before the timed
//! window, and prints the workload's metrics. The last line of standard
//! output is one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `README.md` beside this package
//! for the workloads and metric definitions; `run.py` builds and runs it.

mod gen;
mod layers;
mod serve;
mod util;

use gen::{Inputs, Shape, Workload};
use serve::{ServerProc, Tally, Window, Writer};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use util::{json_num, json_str, median, percentile, Tracer};

/// End-to-end metrics, reported by every untraced run: (name, unit).
/// `batch_p99_ms` is printed and recorded but not in the result line: on
/// a shared host its run-to-run spread exceeds any bound worth gating on.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("queries_per_s", "1/s"), ("batch_p50_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, reported by every traced run: (name, unit).
const PER_LAYER: [(&str, &str); 31] = [
    ("transport.residual_p50_us", "us"),
    ("transport.residual_frac", "ratio"),
    ("pool.requests_per_dispatch", "ratio"),
    ("protocol.request_decode_us", "us"),
    ("protocol.response_encode_us", "us"),
    ("protocol.wire_bytes_per_query", "bytes"),
    ("server.resolve_us", "us"),
    ("hot.hit_frac", "ratio"),
    ("hot.evictions", "count"),
    ("hot.redecode_us", "us"),
    ("server.load_us", "us"),
    ("sketch.validate_us", "us"),
    ("sketch.answer_us", "us"),
    ("engine.dispatch_us.t1", "us"),
    ("engine.dispatch_us.t2", "us"),
    ("engine.fanout_us", "us"),
    ("engine.column_build_ms", "ms"),
    ("kernel.words_per_query", "words"),
    ("kernel.bytes_per_query", "bytes"),
    ("kernel.gwords_per_s", "Gwords/s"),
    ("snapshot.encode_mb_s", "MB/s"),
    ("snapshot.decode_mb_s", "MB/s"),
    ("snapshot.frame_bytes", "bytes"),
    ("ingest.fold_rows_per_s", "rows/s"),
    ("ingest.merge_us", "us"),
    ("store.append_us", "us"),
    ("store.log_bytes_per_row", "bytes/row"),
    ("store.open_ms", "ms"),
    ("store.materialize_ms", "ms"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

#[derive(Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    out: PathBuf,
    work: PathBuf,
    commit: String,
    smoke: bool,
    selfcheck: bool,
    /// Set by the self-check only: one expected answer is wrong, so the run
    /// must fail.
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        server: PathBuf::new(),
        out: PathBuf::from("perfbench/results"),
        work: PathBuf::from("perfbench/.work"),
        commit: "unknown".into(),
        smoke: false,
        selfcheck: false,
        corrupt: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--server" => args.server = value("--server")?.into(),
            "--out" => args.out = value("--out")?.into(),
            "--work" => args.work = value("--work")?.into(),
            "--commit" => args.commit = value("--commit")?,
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.server.as_os_str().is_empty() {
        return Err("--server PATH (the ifs-serve binary) is required".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A work directory removed when the run ends, however it ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(root: &Path, workload: Workload) -> Result<Self, String> {
        let dir = root.join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One named figure with its unit and sample count (0 = not sampled).
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

struct Outcome {
    metrics: Vec<Metric>,
    /// Figures printed and recorded but not part of the result line.
    extra: Vec<Metric>,
    attempted: u64,
    failed: u64,
    report: Vec<String>,
}

struct Config<'a> {
    server: &'a Path,
    work: &'a Path,
    seconds: f64,
    smoke: bool,
}

impl Config<'_> {
    fn warmup(&self) -> Duration {
        Duration::from_secs_f64(if self.smoke { 0.2 } else { 1.0 })
    }

    fn setup_reps(&self) -> usize {
        if self.smoke {
            2
        } else {
            15
        }
    }
}

/// Runs one window on a booted server: the read connections from one
/// thread, the ingest writer (on the last client) from another.
/// `tracers` holds the readers' recorder and the writer's.
fn run_window(
    inputs: &Inputs,
    clients: &mut [ifs_serve::Client],
    writer: Option<&mut Writer>,
    window: Window,
    tracers: Option<&mut [Tracer; 2]>,
) -> Result<Tally, String> {
    let name = inputs.workload.name();
    let (readers, rest) = clients.split_at_mut(inputs.streams.len());
    let (read_tracer, write_tracer) = match tracers {
        Some([r, w]) => (Some(r), Some(w)),
        None => (None, None),
    };
    std::thread::scope(|scope| {
        let reads = scope
            .spawn(move || serve::drive_reads(readers, &inputs.streams, name, window, read_tracer));
        let mut tally = Tally::default();
        if let (Some(writer), Some(ingest)) = (writer, &inputs.ingest) {
            tally.absorb(writer.drive(&mut rest[0], name, ingest, window, write_tracer)?);
        }
        tally.absorb(reads.join().map_err(|_| format!("{name}: reader thread panicked"))??);
        Ok(tally)
    })
}

fn window_from_now(cfg: &Config, seconds: f64) -> Window {
    let start = Instant::now() + cfg.warmup();
    let slices = (seconds.round() as usize).max(1);
    Window { start, end: start + Duration::from_secs_f64(seconds), slices }
}

/// Boots the server (`reps` times, keeping the last), opens the driving
/// connections and, for ingest, the writer.
#[allow(clippy::type_complexity)]
fn boot_all(
    inputs: &Inputs,
    cfg: &Config,
    reps: usize,
) -> Result<(ServerProc, Vec<ifs_serve::Client>, Option<Writer>, Vec<f64>), String> {
    let boot_path = cfg.work.join("boot");
    serve::write_boot(inputs, &boot_path)?;
    let mut setups = Vec::with_capacity(reps);
    let mut kept = None;
    for r in 0..reps {
        let err_path = cfg.work.join(format!("server-{r}.stderr"));
        let (proc, client, setup_s) = serve::boot(cfg.server, inputs, &boot_path, &err_path)?;
        setups.push(setup_s);
        kept = Some((proc, client));
    }
    let (proc, first) = kept.expect("at least one boot");
    let mut clients = vec![first];
    let wanted = inputs.streams.len() + usize::from(inputs.ingest.is_some());
    while clients.len() < wanted {
        clients.push(serve::connect(&proc)?);
    }
    let writer = match &inputs.ingest {
        Some(ingest) => Some(Writer::open(ingest, &boot_path)?),
        None => None,
    };
    Ok((proc, clients, writer, setups))
}

/// The `q`-th percentile of `samples`, or an error naming `what` when fewer
/// than ten samples lie beyond it.
fn tail(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    percentile(samples, q).ok_or_else(|| {
        format!("{what} p{q}: {} samples leave fewer than 10 beyond it", samples.len())
    })
}

fn untraced(inputs: &Inputs, cfg: &Config) -> Result<Outcome, String> {
    let (proc, mut clients, mut writer, setups) = boot_all(inputs, cfg, cfg.setup_reps())?;
    let window = window_from_now(cfg, cfg.seconds);
    let tally = run_window(inputs, &mut clients, writer.as_mut(), window, None)?;
    let peak_rss = proc.peak_rss_mib()?;
    drop(clients);
    drop(proc);
    let name = inputs.workload.name();
    let reads = &tally.latencies_ms;
    let read = |q: f64| tail(reads, q, &format!("{name}: read batch"));
    let fresh = |q: f64| tail(&tally.fresh_ms, q, &format!("{name}: writer step"));
    // A batch is a caller's closed-loop unit: a read batch, or on
    // ingest-reload the writer's step (chunk handed over to probe verified),
    // so that a slower write path shows in a gated figure.
    let (batches, what) = match inputs.ingest {
        Some(_) => (&tally.fresh_ms, "writer step"),
        None => (reads, "read batch"),
    };
    let batch = |q: f64| tail(batches, q, &format!("{name}: {what}"));
    let n = batches.len();
    // The median slice's rate: on a shared host, stalls a few hundred
    // milliseconds long, that come from the host and not the code, move the
    // whole window's rate by up to a half from run to run.
    let mut per_slice = tally.queries.clone();
    per_slice.resize(window.slices, 0);
    let rates: Vec<f64> = per_slice.iter().map(|&c| c as f64 / window.slice_secs()).collect();
    let failed = tally.refused + tally.overload_retries;
    let metrics = vec![
        Metric { name: "setup_s", unit: "s", value: median(&setups), samples: setups.len() },
        Metric {
            name: "queries_per_s",
            unit: "1/s",
            value: median(&rates),
            samples: per_slice.iter().sum::<u64>() as usize,
        },
        Metric { name: "batch_p50_ms", unit: "ms", value: batch(50.0)?, samples: n },
        Metric { name: "peak_rss_mb", unit: "MiB", value: peak_rss, samples: 1 },
    ];
    let mut extra = vec![
        Metric { name: "batch_p99_ms", unit: "ms", value: batch(99.0)?, samples: n },
        Metric {
            name: "failed_frac",
            unit: "ratio",
            value: failed as f64 / tally.attempted.max(1) as f64,
            samples: tally.attempted as usize,
        },
    ];
    if inputs.ingest.is_some() {
        let f = tally.fresh_ms.len();
        extra.extend([
            Metric {
                name: "ingest_rows_per_s",
                unit: "1/s",
                value: tally.rows as f64 / window.secs(),
                samples: tally.rows as usize,
            },
            Metric { name: "fresh_p50_ms", unit: "ms", value: fresh(50.0)?, samples: f },
            Metric { name: "fresh_p90_ms", unit: "ms", value: fresh(90.0)?, samples: f },
            Metric {
                name: "reader_batch_p50_ms",
                unit: "ms",
                value: read(50.0)?,
                samples: reads.len(),
            },
            Metric {
                name: "reader_batch_p99_ms",
                unit: "ms",
                value: read(99.0)?,
                samples: reads.len(),
            },
        ]);
    }
    let tails: Vec<String> = [50.0, 90.0, 95.0, 99.0, 99.9]
        .iter()
        .filter_map(|&q| percentile(batches, q).map(|v| format!("p{q} {v:.3}")))
        .collect();
    let setup_ms: Vec<f64> = setups.iter().map(|s| (s * 1e4).round() / 10.0).collect();
    let rates: Vec<u64> = rates.iter().map(|&r| r as u64).collect();
    let report = vec![
        format!("  queries/s per slice {rates:?}"),
        format!("  batch ms: {}", tails.join(", ")),
        format!("  setup runs (ms) {setup_ms:?}"),
        format!(
            "  {n} batches answered in the window, {} refused, {} overload retries",
            tally.refused, tally.overload_retries
        ),
    ];
    Ok(Outcome { metrics, extra, attempted: tally.attempted, failed, report })
}

fn traced(inputs: &Inputs, cfg: &Config) -> Result<Outcome, String> {
    let (proc, mut clients, mut writer, _) = boot_all(inputs, cfg, 1)?;
    let half = cfg.seconds / 2.0;
    let plain =
        run_window(inputs, &mut clients, writer.as_mut(), window_from_now(cfg, half), None)?;
    let log_before = writer.as_ref().map_or(0, |w| w.log.len_bytes());
    let before = serve::stats(&mut clients[0])?;
    let epoch = Instant::now();
    // The readers' recorder and the writer's.
    let mut tracers = [Tracer::new(epoch), Tracer::new(epoch)];
    let window = window_from_now(cfg, half);
    let traced = run_window(inputs, &mut clients, writer.as_mut(), window, Some(&mut tracers))?;
    let after = serve::stats(&mut clients[0])?;
    drop(clients);
    drop(proc);
    let mut spans = Tracer::new(epoch);
    for t in tracers {
        spans.absorb(t);
    }
    let name = inputs.workload.name();
    let p50 =
        |t: &Tally| tail(&t.latencies_ms, 50.0, &format!("{name}: read batch")).map(|ms| ms * 1e3);
    let dispatches = after.served_batches.saturating_sub(before.served_batches).max(1);
    let log_bytes_per_row = match &writer {
        Some(w) => (w.log.len_bytes() - log_before) as f64 / traced.rows.max(1) as f64,
        None => 0.0,
    };
    let client = layers::ClientSide {
        untraced_rtt_p50_us: p50(&plain)?,
        rtt_p50_us: p50(&traced)?,
        requests_per_dispatch: traced.dispatched_requests as f64 / dispatches as f64,
        spans: spans.spans(),
        writer: writer.as_ref(),
        log_bytes_per_row,
    };
    let layers = layers::measure(inputs, &client, cfg.work)?;
    let metrics = layers
        .metrics
        .iter()
        .map(|&(name, value)| Metric { name, unit: unit_of(name), value, samples: 0 })
        .collect();
    let failed = plain.refused + plain.overload_retries + traced.refused + traced.overload_retries;
    Ok(Outcome {
        metrics,
        extra: Vec::new(),
        attempted: plain.attempted + traced.attempted,
        failed,
        report: layers.report,
    })
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .chain(END_TO_END.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("every reported metric is declared")
}

fn run_workload(
    workload: Workload,
    args: &Args,
    seconds: f64,
    trace: bool,
) -> Result<(Outcome, u64, Shape), String> {
    let mut inputs = Inputs::generate(workload, args.seed, args.smoke);
    if args.corrupt {
        corrupt(&mut inputs);
    }
    let digest = inputs.digest();
    let work = WorkDir::new(&args.work, workload)?;
    let cfg = Config { server: &args.server, work: &work.0, seconds, smoke: args.smoke };
    let outcome = if trace { traced(&inputs, &cfg)? } else { untraced(&inputs, &cfg)? };
    Ok((outcome, digest, inputs.shape))
}

/// Flips one bit of the first expectation, so a correct server must fail
/// the run.
fn corrupt(inputs: &mut Inputs) {
    match &mut inputs.streams[0].batches[0].expected {
        ifs_serve::Answers::Estimates(v) => v[0] = f64::from_bits(v[0].to_bits() ^ 1),
        ifs_serve::Answers::Indicators(v) => v[0] = !v[0],
    }
}

fn print_outcome(workload: Workload, outcome: &Outcome) {
    println!("perfbench {}:", workload.name());
    for m in outcome.metrics.iter().chain(&outcome.extra) {
        let samples = if m.samples > 0 { format!("  (n={})", m.samples) } else { String::new() };
        println!("  {:<30} {:>16} {}{samples}", m.name, format!("{:.6}", m.value), m.unit);
    }
    for line in &outcome.report {
        println!("{line}");
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn record(
    args: &Args,
    workload: Workload,
    outcome: &Outcome,
    digest: u64,
    shape: &[(&'static str, String)],
) -> Result<(), String> {
    let kv = |pairs: &[(&str, String)]| {
        let body: Vec<String> =
            pairs.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
        format!("{{{}}}", body.join(", "))
    };
    let samples: Vec<(&str, String)> = outcome
        .metrics
        .iter()
        .chain(&outcome.extra)
        .map(|m| (m.name, m.samples.to_string()))
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"perfbench\",\n  \"workload\": {},\n  \"seed\": {},\n  \
         \"seconds\": {},\n  \"trace\": {},\n  \"commit\": {},\n  \"input_digest\": \"{:016x}\",\n  \
         \"host\": {},\n  \"shape\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"metrics\": {},\n  \"reported\": {},\n  \"samples\": {}\n}}\n",
        json_str(workload.name()),
        args.seed,
        json_num(args.seconds),
        args.trace,
        json_str(&args.commit),
        digest,
        kv(&util::host_record()),
        kv(shape),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics),
        metrics_json(&outcome.extra),
        kv(&samples),
    );
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs all three workloads at their smoke sizes, untraced and traced.
fn smoke(args: &Args) -> Result<(), String> {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let (outcome, _, _) = run_workload(workload, args, 1.0, trace)?;
            print_outcome(workload, &outcome);
        }
    }
    Ok(())
}

/// The benchmark's checks on its own code.
fn selfcheck(args: &Args) -> Result<(), String> {
    let ranks: Vec<f64> = (1..=1000).map(f64::from).collect();
    let checks = [
        (percentile(&ranks, 99.0) == Some(990.0), "p99 of 1000 samples is the 990th"),
        (percentile(&ranks[..999], 99.0).is_none(), "p99 needs 10 samples beyond it"),
        (percentile(&ranks[..20], 50.0) == Some(10.0), "p50 of 20 samples"),
        (percentile(&ranks[..19], 50.0).is_none(), "p50 needs 10 samples beyond it"),
    ];
    for (ok, what) in checks {
        if !ok {
            return Err(format!("selfcheck: percentile: {what}"));
        }
    }
    println!("selfcheck: percentile helper reports only tails with >= 10 samples beyond");
    for workload in Workload::ALL {
        let a = Inputs::generate(workload, args.seed, true).digest();
        let b = Inputs::generate(workload, args.seed, true).digest();
        let other = Inputs::generate(workload, args.seed + 1, true).digest();
        if a != b || a == other {
            return Err(format!(
                "selfcheck: {}: inputs are not a function of the seed",
                workload.name()
            ));
        }
    }
    println!("selfcheck: one seed gives byte-identical frames, requests and expectations");
    let corrupted = Args { corrupt: true, smoke: true, ..args.clone() };
    for workload in Workload::ALL {
        match run_workload(workload, &corrupted, 1.0, false) {
            Err(e) if e.contains(workload.name()) && e.contains("batch") => {}
            Err(e) => {
                return Err(format!("selfcheck: corrupted run failed for another reason: {e}"))
            }
            Ok(_) => {
                return Err(format!(
                    "selfcheck: {}: a corrupted expectation passed",
                    workload.name()
                ))
            }
        }
    }
    println!("selfcheck: a corrupted expectation fails the run, naming workload and batch");
    let started = Instant::now();
    smoke(&Args { smoke: true, ..args.clone() })?;
    println!("selfcheck: smoke run of all workloads took {:.1} s", started.elapsed().as_secs_f64());
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if cfg!(debug_assertions) {
        return Err("refusing to record results from a debug build; build with --release".into());
    }
    if args.selfcheck {
        return selfcheck(&args);
    }
    if args.smoke {
        return smoke(&args);
    }
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let (outcome, digest, shape) = run_workload(workload, &args, args.seconds, args.trace)?;
    print_outcome(workload, &outcome);
    record(&args, workload, &outcome, digest, &shape)?;
    let declared: Vec<&str> =
        if args.trace { PER_LAYER.map(|m| m.0).to_vec() } else { END_TO_END.map(|m| m.0).to_vec() };
    let reported: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    assert_eq!(reported, declared, "the result line carries exactly the declared metrics");
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{}: {} measured no finite value", workload.name(), m.name));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(1)
        }
    }
}
