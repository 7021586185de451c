//! The shipped `ifs-serve` binary as a child process, and the closed-loop
//! client loops that talk to it over loopback through `Client::send`/`recv`.

use crate::gen::{Batch, Boot, Ingest, Inputs, ReadStream, EPSILON};
use crate::util::Tracer;
use ifs_core::{MergeableSketch, ReleaseDb, ReleaseDbBuilder, Snapshot, StreamingBuild};
use ifs_serve::{Answers, Client, Request, Response, ServerStats};
use ifs_store::{LogOp, SketchLog};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// A running server child. Dropping it kills the process and waits for it.
pub struct ServerProc {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProc {
    /// Spawns the server booted from `boot_path` and waits for its
    /// readiness line (printed once the listener is bound).
    pub fn spawn(
        exe: &Path,
        inputs: &Inputs,
        boot_path: &Path,
        err_path: &Path,
    ) -> Result<Self, String> {
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("pick a loopback port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let stderr =
            std::fs::File::create(err_path).map_err(|e| format!("{}: {e}", err_path.display()))?;
        let mut cmd = Command::new(exe);
        cmd.arg("--listen").arg(&addr);
        cmd.arg("--threads").arg(inputs.server_threads.to_string());
        cmd.arg("--workers").arg(inputs.server_workers.to_string());
        match inputs.boot {
            Boot::Snapshots(_) => cmd.arg("--snapshots").arg(boot_path),
            Boot::Log(_) => cmd.arg("--log").arg(boot_path),
        };
        if let Some(bits) = inputs.budget_bits {
            cmd.arg("--budget-bits").arg(bits.to_string());
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let ready = stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        let proc = Self { child, _stdout: stdout, addr };
        if ready == 0 {
            let log = std::fs::read_to_string(err_path).unwrap_or_default();
            return Err(format!("server exited before listening: {}", log.trim()));
        }
        Ok(proc)
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Writes the boot file the server reads: concatenated frames or a log.
pub fn write_boot(inputs: &Inputs, path: &Path) -> Result<(), String> {
    match &inputs.boot {
        Boot::Snapshots(frames) => std::fs::write(path, frames.concat()),
        Boot::Log(records) => {
            let mut log = SketchLog::create(path).map_err(|e| e.to_string())?;
            for (op, id, frame) in records {
                log.append(*op, *id, frame).map_err(|e| e.to_string())?;
            }
            Ok(())
        }
    }
    .map_err(|e| format!("{}: {e}", path.display()))
}

/// True iff `served` carries exactly `expected`, bit for bit.
pub fn identical(served: &Response, expected: &Answers) -> bool {
    match (served, expected) {
        (Response::Estimates(got), Answers::Estimates(want)) => {
            got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits())
        }
        (Response::Indicators(got), Answers::Indicators(want)) => got == want,
        _ => false,
    }
}

fn roundtrip(client: &mut Client, request: &Request) -> Result<Response, String> {
    client.send(request).map_err(|e| format!("send: {e}"))?;
    recv(client)
}

fn recv(client: &mut Client) -> Result<Response, String> {
    client
        .recv()
        .map_err(|e| format!("recv: {e}"))?
        .map_err(|e| format!("response refused to decode: {e}"))
}

/// Boots one server and times spawn → first answered warm-up query.
pub fn boot(
    exe: &Path,
    inputs: &Inputs,
    boot_path: &Path,
    err_path: &Path,
) -> Result<(ServerProc, Client, f64), String> {
    let started = Instant::now();
    let proc = ServerProc::spawn(exe, inputs, boot_path, err_path)?;
    let mut client = Client::connect(&proc.addr, 0).map_err(|e| format!("{}: {e}", proc.addr))?;
    let resp = roundtrip(&mut client, &inputs.warm.request)?;
    let setup_s = started.elapsed().as_secs_f64();
    if !identical(&resp, &inputs.warm.expected) {
        return Err(format!(
            "{}: warm-up batch: served {resp:?}, expected {:?}",
            inputs.workload.name(),
            inputs.warm.expected
        ));
    }
    Ok((proc, client, setup_s))
}

pub fn connect(proc: &ServerProc) -> Result<Client, String> {
    Client::connect(&proc.addr, 0).map_err(|e| format!("{}: {e}", proc.addr))
}

pub fn stats(client: &mut Client) -> Result<ServerStats, String> {
    match roundtrip(client, &Request::Stats)? {
        Response::Stats(s) => Ok(s),
        other => Err(format!("stats: unexpected response {other:?}")),
    }
}

/// The measured window: requests sent at or after `start` and answered by
/// `end` count; earlier ones are warm-up, later ones drain. Answered
/// queries are also counted per slice of about a second.
#[derive(Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub end: Instant,
    pub slices: usize,
}

impl Window {
    fn holds(&self, sent: Instant, done: Instant) -> bool {
        sent >= self.start && done <= self.end
    }

    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    pub fn slice_secs(&self) -> f64 {
        self.secs() / self.slices as f64
    }

    /// Adds `n` to the slice of `counts` that `done` falls in.
    fn count(&self, counts: &mut Vec<u64>, done: Instant, n: u64) {
        counts.resize(self.slices, 0);
        let slice = ((done - self.start).as_secs_f64() / self.slice_secs()) as usize;
        counts[slice.min(self.slices - 1)] += n;
    }
}

/// What one client loop observed inside the window.
#[derive(Default)]
pub struct Tally {
    /// Round trips of answered read batches, send to verified receive.
    pub latencies_ms: Vec<f64>,
    /// Verified answered queries, per window slice.
    pub queries: Vec<u64>,
    pub attempted: u64,
    pub refused: u64,
    pub overload_retries: u64,
    /// Query requests answered during the whole drive, warm-up included
    /// (the client side of requests per server dispatch).
    pub dispatched_requests: u64,
    /// Ingest only: writer steps, chunk handed over to probe verified, and
    /// the rows they made servable.
    pub fresh_ms: Vec<f64>,
    pub rows: u64,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.fresh_ms.extend(other.fresh_ms);
        if self.queries.len() < other.queries.len() {
            self.queries.resize(other.queries.len(), 0);
        }
        for (a, b) in self.queries.iter_mut().zip(&other.queries) {
            *a += b;
        }
        self.rows += other.rows;
        self.attempted += other.attempted;
        self.refused += other.refused;
        self.overload_retries += other.overload_retries;
        self.dispatched_requests += other.dispatched_requests;
    }
}

fn mismatch(workload: &str, what: String, resp: &Response, batch: &Batch) -> String {
    format!(
        "{workload}: {what} (id {}, {} mode, {} queries): served {resp:?}, expected {:?}",
        batch.id(),
        batch.mode(),
        batch.queries().len(),
        batch.expected
    )
}

/// One read connection's closed-loop state.
struct Conn<'a> {
    client: &'a mut Client,
    stream: &'a ReadStream,
    /// In flight, in send order: (cycle index, sequence number, sent, span).
    outstanding: VecDeque<(usize, u64, Instant, Option<usize>)>,
    /// Refused with `Overloaded`, to send again.
    resend: VecDeque<usize>,
    sent: u64,
}

/// Closed loop over every read connection from one thread: each keeps its
/// stream's pipeline depth of batches in flight, cycling through the
/// stream's batches, and every answer is compared with its precomputed
/// expectation. `Overloaded` refusals are re-sent and counted; any
/// mismatch aborts. One driving thread leaves the cores to the server.
pub fn drive_reads(
    clients: &mut [Client],
    streams: &[ReadStream],
    workload: &str,
    window: Window,
    mut tracer: Option<&mut Tracer>,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut conns: Vec<Conn> = clients
        .iter_mut()
        .zip(streams)
        .map(|(client, stream)| Conn {
            client,
            stream,
            outstanding: VecDeque::new(),
            resend: VecDeque::new(),
            sent: 0,
        })
        .collect();
    loop {
        for c in &mut conns {
            while c.outstanding.len() < c.stream.pipeline && Instant::now() < window.end {
                let cycle = (c.sent % c.stream.batches.len() as u64) as usize;
                let idx = c.resend.pop_front().unwrap_or(cycle);
                let seq = c.sent;
                c.sent += 1;
                let root = tracer.as_mut().map(|t| t.begin("client.batch"));
                let sent = Instant::now();
                let request = &c.stream.batches[idx].request;
                match tracer.as_mut() {
                    Some(t) => t.span("client.send", || c.client.send(request)),
                    None => c.client.send(request),
                }
                .map_err(|e| format!("{workload}: send: {e}"))?;
                tally.attempted += u64::from(sent >= window.start);
                c.outstanding.push_back((idx, seq, sent, root));
            }
        }
        let mut waiting = false;
        for c in &mut conns {
            let Some((idx, seq, sent, root)) = c.outstanding.pop_front() else { continue };
            waiting = true;
            let resp = match tracer.as_mut() {
                Some(t) => t.span("client.recv", || recv(c.client)),
                None => recv(c.client),
            }
            .map_err(|e| format!("{workload}: {e}"))?;
            let batch = &c.stream.batches[idx];
            let counted = sent >= window.start;
            match resp {
                Response::Error(e) if e.is_retryable() => {
                    tally.overload_retries += u64::from(counted);
                    c.resend.push_back(idx);
                }
                Response::Error(_) => tally.refused += u64::from(counted),
                resp => {
                    tally.dispatched_requests += 1;
                    let ok = match tracer.as_mut() {
                        Some(t) => t.span("client.verify", || identical(&resp, &batch.expected)),
                        None => identical(&resp, &batch.expected),
                    };
                    if !ok {
                        let what = format!("batch {seq} (cycle index {idx})");
                        return Err(mismatch(workload, what, &resp, batch));
                    }
                    let done = Instant::now();
                    if window.holds(sent, done) {
                        tally.latencies_ms.push((done - sent).as_secs_f64() * 1e3);
                        window.count(&mut tally.queries, done, batch.queries().len() as u64);
                    }
                }
            }
            if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
                t.end(root);
            }
        }
        if !waiting {
            return Ok(tally);
        }
    }
}

/// The ingest writer's state, carried across windows on one server.
pub struct Writer {
    running: Vec<ReleaseDb>,
    generation: Vec<u64>,
    step: usize,
    pub log: SketchLog,
    pub log_path: PathBuf,
}

impl Writer {
    /// Opens the boot log for appending (after every boot has read it).
    pub fn open(ingest: &Ingest, log_path: &Path) -> Result<Self, String> {
        let (log, _) = SketchLog::open(log_path).map_err(|e| e.to_string())?;
        Ok(Self {
            running: ingest.tenants.iter().map(|t| t.base.clone()).collect(),
            generation: vec![1; ingest.tenants.len()],
            step: 0,
            log,
            log_path: log_path.to_path_buf(),
        })
    }

    /// Final frames of the running sketches, by tenant.
    pub fn frames(&self) -> Vec<Vec<u8>> {
        self.running.iter().map(|r| r.snapshot_bytes()).collect()
    }

    /// Streams chunks round-robin over the tenants until the window ends.
    /// Per chunk: fold it into a partial, append the partial to the log,
    /// merge it into the tenant's running sketch, `Load` the result, then
    /// probe it; the probe must answer from the new generation.
    pub fn drive(
        &mut self,
        client: &mut Client,
        workload: &str,
        ingest: &Ingest,
        window: Window,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Tally, String> {
        let mut tally = Tally::default();
        let tenants = ingest.tenants.len();
        let period = ingest.tenants[0].chunks.len();
        let fail = |e: String| format!("{workload}: writer: {e}");
        while Instant::now() < window.end {
            let i = self.step;
            self.step += 1;
            let (t, j) = (i % tenants, (i / tenants) % period);
            let tenant = &ingest.tenants[t];
            let started = Instant::now();
            let mut tr = tracer.as_deref_mut();
            let root = tr.as_mut().map(|x| x.begin("ingest.step"));
            macro_rules! span {
                ($name:literal, $body:expr) => {
                    match tr.as_mut() {
                        Some(x) => x.span($name, || $body),
                        None => $body,
                    }
                };
            }
            if j == 0 && i >= tenants {
                // Roll over: the tenant starts again from its base.
                self.running[t] = tenant.base.clone();
                span!("store.append", self.log.append(LogOp::Put, tenant.id, &tenant.base_frame))
                    .map_err(|e| fail(e.to_string()))?;
            }
            let partial = span!("ingest.fold", {
                let mut b = ReleaseDbBuilder::begin(ingest.dims, 0, &EPSILON);
                b.observe_rows(&tenant.chunks[j]);
                b.finish()
            });
            let partial_frame = span!("snapshot.encode_partial", partial.snapshot_bytes());
            span!("store.append", self.log.append(LogOp::Merge, tenant.id, &partial_frame))
                .map_err(|e| fail(e.to_string()))?;
            span!("ingest.merge", self.running[t].merge(partial))
                .map_err(|e| fail(e.to_string()))?;
            let frame = span!("snapshot.encode", self.running[t].snapshot_bytes());
            let load = Request::Load { id: tenant.id, threads: 0, frame };
            let resp = span!("client.load", roundtrip(client, &load)).map_err(fail)?;
            self.generation[t] += 1;
            match resp {
                Response::Reloaded { generation, .. } if generation == self.generation[t] => {}
                other => {
                    return Err(fail(format!(
                        "step {i}: Load of tenant {} answered {other:?}, expected Reloaded \
                         generation {}",
                        tenant.id, self.generation[t]
                    )))
                }
            }
            let probe = &tenant.probes[j];
            let mut retries = 0u64;
            let resp = loop {
                let resp =
                    span!("client.probe", roundtrip(client, &probe.request)).map_err(fail)?;
                match resp {
                    Response::Error(e) if e.is_retryable() => retries += 1,
                    resp => break resp,
                }
            };
            if !identical(&resp, &probe.expected) {
                return Err(mismatch(
                    workload,
                    format!("probe after chunk {j} of tenant {} (step {i})", tenant.id),
                    &resp,
                    probe,
                ));
            }
            let done = Instant::now();
            if let (Some(x), Some(root)) = (tr.as_mut(), root) {
                x.end(root);
            }
            tally.dispatched_requests += 1;
            if started >= window.start {
                tally.attempted += 2;
                tally.overload_retries += retries;
            }
            if window.holds(started, done) {
                tally.fresh_ms.push((done - started).as_secs_f64() * 1e3);
                tally.rows += tenant.chunks[j].len() as u64;
                window.count(&mut tally.queries, done, probe.queries().len() as u64);
            }
        }
        Ok(tally)
    }
}
