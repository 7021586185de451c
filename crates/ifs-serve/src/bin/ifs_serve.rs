//! `ifs-serve` — the long-running sketch server.
//!
//! ```text
//! ifs-serve --listen 127.0.0.1:7464 [--snapshots FILE | --log FILE]
//!           [--budget-bits N] [--max-in-flight N] [--threads N]
//!           [--accept N] [--workers N]
//! ```
//!
//! `--snapshots FILE` preloads a file of concatenated snapshot frames
//! (as `ifs-loadgen --write-snapshots` produces), admitting them under
//! ids `0, 1, 2, …` in file order before the listener opens. A malformed
//! frame refuses startup with a diagnostic naming the frame index *and
//! its byte offset* in the file, so the bad bytes can be inspected
//! directly. `--accept N` serves exactly `N` connections and exits — the
//! shape CI's end-to-end smoke uses; omit it to serve forever.
//!
//! `--log FILE` boots from a durable sketch log (DESIGN.md §14) instead:
//! the log is opened with crash recovery (a torn tail is truncated and
//! noted on stderr), materialized — `Put`s shadow, merge runs fold — and
//! every live id is admitted under its *log* id. Records holding
//! unservable kinds (ingestion partials, counter sketches) are skipped
//! with a note, since a shared log legitimately carries both; any other
//! admission failure refuses startup. The two preload flags are mutually
//! exclusive.
//!
//! The transport is the pooled one (DESIGN.md §13): `--workers N` sizes
//! the handler pool (`0`, the default, = auto from the machine's
//! parallelism). `--threads N` is each query's default engine thread
//! count (default 1). The flags are the only way to set either.
//!
//! Operational inputs refuse with a message and a nonzero exit, never a
//! panic: a malformed flag value, an unreadable or corrupt snapshot file,
//! or an unbindable address all exit 2 with the typed error printed.

use ifs_serve::{net::FrameReader, pool, ServeConfig, ServeError, SketchServer};
use ifs_store::SketchLog;
use std::net::TcpListener;
use std::process::ExitCode;

const USAGE: &str = "usage: ifs-serve --listen ADDR [--snapshots FILE | --log FILE] \
                     [--budget-bits N] [--max-in-flight N] [--threads N] [--accept N] \
                     [--workers N]";

struct Args {
    listen: String,
    snapshots: Option<String>,
    log: Option<String>,
    budget_bits: u64,
    max_in_flight: usize,
    threads: usize,
    accept: Option<usize>,
    workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let defaults = ServeConfig::default();
    let mut args = Args {
        listen: String::new(),
        snapshots: None,
        log: None,
        budget_bits: defaults.budget_bits,
        max_in_flight: defaults.max_in_flight,
        threads: defaults.default_threads,
        accept: None,
        workers: 0,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--snapshots" => args.snapshots = Some(value("--snapshots")?),
            "--log" => args.log = Some(value("--log")?),
            "--budget-bits" => {
                args.budget_bits =
                    value("--budget-bits")?.parse().map_err(|e| format!("--budget-bits: {e}"))?;
            }
            "--max-in-flight" => {
                args.max_in_flight = value("--max-in-flight")?
                    .parse()
                    .map_err(|e| format!("--max-in-flight: {e}"))?;
            }
            "--threads" => {
                args.threads =
                    value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?;
            }
            "--accept" => {
                args.accept =
                    Some(value("--accept")?.parse().map_err(|e| format!("--accept: {e}"))?);
            }
            "--workers" => {
                args.workers =
                    value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.listen.is_empty() {
        return Err(format!("--listen is required\n{USAGE}"));
    }
    if args.snapshots.is_some() && args.log.is_some() {
        return Err(format!("--snapshots and --log are mutually exclusive\n{USAGE}"));
    }
    if args.max_in_flight == 0 {
        return Err("--max-in-flight must be at least 1".into());
    }
    Ok(args)
}

/// Admits every frame in `path` (concatenated snapshot frames) under ids
/// `0, 1, 2, …`, reporting how many were loaded. Each diagnostic names
/// the frame index *and the byte offset* the frame starts at, so a bad
/// frame in a multi-megabyte file can be located without re-parsing.
fn preload(server: &SketchServer, path: &str) -> Result<u64, String> {
    let mut file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut reader = FrameReader::default();
    let mut id = 0u64;
    let mut offset = 0u64;
    loop {
        let at =
            |e: &dyn std::fmt::Display| format!("{path}: frame {id} at byte offset {offset}: {e}");
        match reader.read_frame(&mut file).map_err(|e| at(&e))? {
            None => return Ok(id),
            Some(Err(e)) => return Err(at(&e)),
            Some(Ok(frame)) => {
                server.load_frame(id, 0, frame).map_err(|e| at(&e))?;
                offset += frame.len() as u64;
                id += 1;
            }
        }
    }
}

/// Boots the fleet from a durable sketch log (DESIGN.md §14): recover,
/// materialize, admit each live id. Unservable kinds — a shared log
/// carries ingestion partials and counter sketches too — are skipped
/// with a note rather than refusing the whole boot.
fn preload_log(server: &SketchServer, path: &str) -> Result<(u64, u64), String> {
    let (log, report) = SketchLog::open(path).map_err(|e| e.to_string())?;
    if !report.clean() {
        eprintln!(
            "ifs-serve: {path}: recovered {} records, truncated {} bytes ({})",
            report.records,
            report.truncated_bytes,
            report.reason.as_deref().unwrap_or("torn tail")
        );
    }
    let live = log.materialize().map_err(|e| format!("{path}: {e}"))?;
    let mut loaded = 0u64;
    let mut skipped = 0u64;
    for (id, frame) in &live {
        match server.load_frame(*id, 0, frame) {
            Ok(_) => loaded += 1,
            Err(ServeError::UnservableKind { kind }) => {
                eprintln!(
                    "ifs-serve: {path}: id {id}: skipping unservable kind {kind} \
                     (ingestion partial or counter sketch)"
                );
                skipped += 1;
            }
            Err(e) => return Err(format!("{path}: id {id}: {e}")),
        }
    }
    Ok((loaded, skipped))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let server = SketchServer::new(ServeConfig {
        budget_bits: args.budget_bits,
        max_in_flight: args.max_in_flight,
        default_threads: args.threads,
    });
    if let Some(path) = &args.snapshots {
        let loaded = preload(&server, path)?;
        eprintln!("ifs-serve preloaded {loaded} sketches from {path}");
    }
    if let Some(path) = &args.log {
        let (loaded, skipped) = preload_log(&server, path)?;
        eprintln!("ifs-serve preloaded {loaded} sketches from log {path} ({skipped} skipped)");
    }
    let listener = TcpListener::bind(&args.listen).map_err(|e| format!("{}: {e}", args.listen))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    let workers = pool::resolve_workers(args.workers);
    // Announce readiness on stdout so scripts can wait for this line.
    println!("ifs-serve listening on {local} (pooled, {workers} workers)");
    pool::serve_pooled(&server, &listener, workers, args.accept).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ifs-serve: {msg}");
            ExitCode::from(2)
        }
    }
}
