//! Per-layer timings: each layer's public calls, timed from outside the
//! server on the workload's own generated inputs, with spans recorded in
//! this file.

use crate::gen::{Inputs, Workload, EPSILON};
use crate::serve::{identical, Writer};
use crate::util::{durations_us, median, Span, Tracer};
use ifs_core::{MergeableSketch, ReleaseDb, ReleaseDbBuilder, Snapshot, StreamingBuild};
use ifs_database::{Database, Itemset, ShardedColumnStore};
use ifs_serve::{Answers, EncodeBuf, Request, Response, ServeConfig, ServedSketch, SketchServer};
use ifs_store::{LogOp, SketchLog};
use std::path::Path;
use std::time::Instant;

/// Rows folded per ingest chunk (at most) when a read workload's own data
/// is folded.
const FOLD_CHUNK_ROWS: usize = 512;
/// Cap on rows folded from a read workload's data.
const FOLD_ROWS_CAP: usize = 1 << 17;

/// What the traced client windows measured, handed to the layer pass.
pub struct ClientSide<'a> {
    /// Batch round-trip p50 of the traced window, in microseconds: the
    /// end-to-end time the layers are reconciled against, measured right
    /// before the in-process replay so that host drift between the two
    /// stays small.
    pub rtt_p50_us: f64,
    /// The same from the untraced window that precedes it.
    pub untraced_rtt_p50_us: f64,
    /// Query requests sent in the traced window per wire dispatch.
    pub requests_per_dispatch: f64,
    /// Spans the traced window recorded (writer steps for ingest).
    pub spans: &'a [Span],
    /// Ingest only: the writer after the run, and how much the log grew
    /// per ingested row during the traced window.
    pub writer: Option<&'a Writer>,
    pub log_bytes_per_row: f64,
}

/// Named per-layer figures, in the order they are reported.
pub struct Layers {
    pub metrics: Vec<(&'static str, f64)>,
    pub report: Vec<String>,
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn engine_db(sketch: &ServedSketch) -> Option<&Database> {
    match sketch {
        ServedSketch::ReleaseDb(s) => Some(s.database()),
        ServedSketch::Subsample(s) => Some(s.sample()),
        _ => None,
    }
}

fn encode(sketch: &ServedSketch) -> Vec<u8> {
    match sketch {
        ServedSketch::Subsample(s) => s.snapshot_bytes(),
        ServedSketch::ReleaseDb(s) => s.snapshot_bytes(),
        ServedSketch::AnswersIndicator(s) => s.snapshot_bytes(),
        ServedSketch::AnswersEstimator(s) => s.snapshot_bytes(),
    }
}

fn response(answers: Answers) -> Response {
    match answers {
        Answers::Estimates(v) => Response::Estimates(v),
        Answers::Indicators(v) => Response::Indicators(v),
    }
}

pub fn measure(inputs: &Inputs, client: &ClientSide, work: &Path) -> Result<Layers, String> {
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut report = Vec::new();
    let mut tr = Tracer::new(Instant::now());
    let name = inputs.workload.name();
    let threads = inputs.server_threads;

    // Hot set, protocol and validation: replay the workload's request
    // sequence (streams interleaved) through an in-process server with the
    // same budget, after the same boot.
    let server = SketchServer::new(ServeConfig {
        budget_bits: inputs.budget_bits.unwrap_or(ServeConfig::default().budget_bits),
        default_threads: threads,
        ..ServeConfig::default()
    });
    for (id, frame) in inputs.frames.iter().enumerate() {
        tr.span("server.load", || server.load_frame(id as u64, 0, frame))
            .map_err(|e| format!("{name}: in-process load {id}: {e}"))?;
    }
    let boot_evictions = server.stats().evictions;
    let longest = inputs.streams.iter().map(|s| s.batches.len()).max().unwrap_or(0);
    let (mut hits, mut resolves, mut wire_bytes, mut queries) = (0u64, 0u64, 0u64, 0u64);
    let mut redecode_us = Vec::new();
    let mut buf = EncodeBuf::new();
    let mut handled = EncodeBuf::new();
    let mut dispatches: Vec<(&Database, &[Itemset])> = Vec::new();
    for b in 0..longest {
        for stream in &inputs.streams {
            let batch = &stream.batches[b % stream.batches.len()];
            let bytes = batch.request.to_bytes();
            let Request::Query { id, mode, queries: qs } = tr
                .span("protocol.request_decode", || Request::from_bytes(&bytes))
                .map_err(|e| format!("{name}: replay decode: {e}"))?
            else {
                unreachable!("replayed requests are queries")
            };
            let hit = server.hot_ids().contains(&id);
            let started = Instant::now();
            let sketch = tr
                .span("server.resolve", || server.sketch(id))
                .map_err(|e| format!("{name}: replay resolve {id}: {e}"))?;
            if !hit {
                redecode_us.push(started.elapsed().as_secs_f64() * 1e6);
            }
            hits += u64::from(hit);
            resolves += 1;
            tr.span("sketch.validate", || sketch.validate(&qs))
                .map_err(|e| format!("{name}: replay validate: {e}"))?;
            let answers = tr
                .span("sketch.answer", || sketch.answer(mode, &qs))
                .map_err(|e| format!("{name}: replay answer: {e}"))?;
            let resp = response(answers);
            let resp_len = tr.span("protocol.response_encode", || resp.encode_into(&mut buf).len());
            let handled_bytes =
                tr.span("server.handle_into", || server.handle_into(&bytes, &mut handled));
            let handled_resp = Response::from_bytes(handled_bytes)
                .map_err(|e| format!("{name}: handle_into response: {e}"))?;
            if !identical(&resp, &batch.expected) || !identical(&handled_resp, &batch.expected) {
                return Err(format!("{name}: in-process replay of batch {b} diverges"));
            }
            wire_bytes += (bytes.len() + resp_len) as u64;
            queries += qs.len() as u64;
            if let Some(db) = engine_db(&inputs.oracle[id as usize]) {
                dispatches.push((db, batch.queries()));
            }
        }
    }
    let evictions = server.stats().evictions - boot_evictions;
    let spans = tr.spans();
    let med = |n: &str| median(&durations_us(spans, n));
    let handle_us = med("server.handle_into");
    let decode_us = med("protocol.request_decode");
    let resolve_us = med("server.resolve");
    let validate_us = med("sketch.validate");
    let answer_us = med("sketch.answer");
    let encode_us = med("protocol.response_encode");
    // Everything outside `handle_into`: socket reads and writes, the pool's
    // polling, and queueing behind the other batches in flight.
    let residual_us = client.rtt_p50_us - handle_us;
    m.push(("transport.residual_p50_us", residual_us));
    m.push(("transport.residual_frac", residual_us / client.rtt_p50_us));
    m.push(("pool.requests_per_dispatch", client.requests_per_dispatch));
    m.push(("protocol.request_decode_us", decode_us));
    m.push(("protocol.response_encode_us", encode_us));
    m.push(("protocol.wire_bytes_per_query", wire_bytes as f64 / queries.max(1) as f64));
    m.push(("server.resolve_us", resolve_us));
    m.push(("hot.hit_frac", hits as f64 / resolves.max(1) as f64));
    m.push(("hot.evictions", evictions as f64));
    // No miss, no re-decode: the hot set costs nothing here.
    m.push(("hot.redecode_us", if redecode_us.is_empty() { 0.0 } else { median(&redecode_us) }));
    report.push(format!(
        "  replay: {resolves} batches, {hits} hot hits, {} misses, {evictions} evictions",
        redecode_us.len()
    ));

    // Loads: the boot frames, or for ingest the frames the writer sends
    // (one full rollover cycle of every tenant, replayed in-process).
    let mut load_us = durations_us(tr.spans(), "server.load");
    if let Some(ingest) = &inputs.ingest {
        load_us.clear();
        for tenant in &ingest.tenants {
            let mut running = tenant.base.clone();
            for (j, chunk) in tenant.chunks.iter().enumerate() {
                let mut b = ReleaseDbBuilder::begin(ingest.dims, 0, &EPSILON);
                b.observe_rows(chunk);
                running.merge(b.finish()).map_err(|e| e.to_string())?;
                let frame = running.snapshot_bytes();
                let t = Instant::now();
                server.load_frame(tenant.id, 0, &frame).map_err(|e| e.to_string())?;
                load_us.push(t.elapsed().as_secs_f64() * 1e6);
                let slot = server.try_begin_batch().map_err(|e| e.to_string())?;
                let probe = &tenant.probes[j];
                let got = server
                    .query(&slot, tenant.id, probe.mode(), probe.queries())
                    .map_err(|e| e.to_string())?;
                if got != probe.expected {
                    return Err(format!(
                        "{name}: in-process probe {j} of tenant {} diverges",
                        tenant.id
                    ));
                }
            }
        }
    }
    m.push(("server.load_us", median(&load_us)));
    m.push(("sketch.validate_us", validate_us));
    m.push(("sketch.answer_us", answer_us));

    // Engine and kernels: the workload's own dispatch shapes on the
    // sketches' databases, serial and at two threads.
    let cap = dispatches.len().min(4096);
    let (mut t1, mut t2, mut words) = (Vec::with_capacity(cap), Vec::with_capacity(cap), 0u64);
    let mut t1_total = 0.0;
    let mut engine_queries = 0u64;
    for &(db, qs) in &dispatches[..cap] {
        let a = Instant::now();
        let one = std::hint::black_box(db.support_batch_with_threads(std::hint::black_box(qs), 1));
        let d1 = a.elapsed().as_secs_f64();
        let b = Instant::now();
        let two = std::hint::black_box(db.support_batch_with_threads(std::hint::black_box(qs), 2));
        let d2 = b.elapsed().as_secs_f64();
        if one != two {
            return Err(format!("{name}: engine answers differ between 1 and 2 threads"));
        }
        t1.push(d1 * 1e6);
        t2.push(d2 * 1e6);
        t1_total += d1;
        let wpc = db.rows().div_ceil(64) as u64;
        words += qs.iter().map(|q| q.len() as u64 * wpc).sum::<u64>();
        engine_queries += qs.len() as u64;
    }
    let (d1, d2) = (median(&t1), median(&t2));
    m.push(("engine.dispatch_us.t1", d1));
    m.push(("engine.dispatch_us.t2", d2));
    m.push(("engine.fanout_us", d2 - d1));
    let engine_dbs: Vec<&Database> = inputs.oracle.iter().filter_map(engine_db).collect();
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            secs(|| {
                for db in &engine_dbs {
                    std::hint::black_box(ShardedColumnStore::build(db.matrix(), threads));
                }
            }) * 1e3
        })
        .collect();
    m.push(("engine.column_build_ms", median(&builds)));
    let wpq = words as f64 / engine_queries.max(1) as f64;
    m.push(("kernel.words_per_query", wpq));
    m.push(("kernel.bytes_per_query", wpq * 8.0));
    m.push(("kernel.gwords_per_s", words as f64 / t1_total.max(1e-12) / 1e9));

    // Snapshot codec over the workload's servable frames.
    let frame_bytes: usize = inputs.frames.iter().map(Vec::len).sum();
    let enc: Vec<f64> = (0..3)
        .map(|_| {
            secs(|| {
                for s in &inputs.oracle {
                    std::hint::black_box(encode(s));
                }
            })
        })
        .collect();
    let dec: Vec<f64> = (0..3)
        .map(|_| {
            secs(|| {
                for f in &inputs.frames {
                    std::hint::black_box(ServedSketch::admit(f, threads).expect("frame admits"));
                }
            })
        })
        .collect();
    m.push(("snapshot.encode_mb_s", frame_bytes as f64 / median(&enc) / 1e6));
    m.push(("snapshot.decode_mb_s", frame_bytes as f64 / median(&dec) / 1e6));
    m.push(("snapshot.frame_bytes", frame_bytes as f64 / inputs.frames.len() as f64));

    // Ingestion and store: the writer's own spans on ingest-reload; on the
    // read workloads, the workload's data folded, merged and logged.
    let (fold_rows_per_s, merge_us, append_us, log_bytes_per_row, log_path) = match client.writer {
        Some(writer) => {
            let chunk_rows = inputs.ingest.as_ref().map_or(0, |i| i.chunk_rows) as f64;
            let spans = client.spans;
            (
                chunk_rows / (median(&durations_us(spans, "ingest.fold")) / 1e6),
                median(&durations_us(spans, "ingest.merge")),
                median(&durations_us(spans, "store.append")),
                client.log_bytes_per_row,
                writer.log_path.clone(),
            )
        }
        None => {
            let db = engine_dbs.iter().max_by_key(|db| db.rows()).ok_or("no engine database")?;
            let rows = db.rows().min(FOLD_ROWS_CAP);
            let itemsets: Vec<Itemset> = (0..rows).map(|r| db.row_itemset(r)).collect();
            let mut partials = Vec::new();
            let fold_s = secs(|| {
                for chunk in itemsets.chunks((rows / 4).clamp(1, FOLD_CHUNK_ROWS)) {
                    let mut b = ReleaseDbBuilder::begin(db.dims(), 0, &EPSILON);
                    b.observe_rows(chunk);
                    partials.push(b.finish());
                }
            });
            let mut head: Option<ReleaseDb> = None;
            let mut merges = Vec::new();
            for p in partials {
                match head.as_mut() {
                    None => head = Some(p),
                    Some(h) => {
                        let t = Instant::now();
                        h.merge(p).map_err(|e| e.to_string())?;
                        merges.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                }
            }
            let log_path = work.join("layers.log");
            let mut log = SketchLog::create(&log_path).map_err(|e| e.to_string())?;
            let mut appends = Vec::new();
            for (id, frame) in inputs.frames.iter().enumerate() {
                let t = Instant::now();
                log.append(LogOp::Put, id as u64, frame).map_err(|e| e.to_string())?;
                appends.push(t.elapsed().as_secs_f64() * 1e6);
            }
            let bytes_per_row = log.len_bytes() as f64 / inputs.source_rows as f64;
            (rows as f64 / fold_s, median(&merges), median(&appends), bytes_per_row, log_path)
        }
    };
    m.push(("ingest.fold_rows_per_s", fold_rows_per_s));
    m.push(("ingest.merge_us", merge_us));
    m.push(("store.append_us", append_us));
    m.push(("store.log_bytes_per_row", log_bytes_per_row));
    let mut open_ms = Vec::new();
    let mut materialize_ms = Vec::new();
    let mut live = None;
    for _ in 0..3 {
        let t = Instant::now();
        let (log, _) = SketchLog::open(&log_path).map_err(|e| e.to_string())?;
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        live = Some(log.materialize().map_err(|e| e.to_string())?);
        materialize_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    if let (Some(writer), Some(live)) = (client.writer, live) {
        for (id, frame) in writer.frames().iter().enumerate() {
            if live.get(&(id as u64)) != Some(frame) {
                return Err(format!(
                    "{name}: the log does not materialize tenant {id}'s running sketch"
                ));
            }
        }
    }
    m.push(("store.open_ms", median(&open_ms)));
    m.push(("store.materialize_ms", median(&materialize_ms)));

    // Reconciliation against the end-to-end time the layers should add up to.
    let unaccounted = if inputs.workload == Workload::IngestReload {
        let s = client.spans;
        let step = median(&durations_us(s, "ingest.step"));
        let parts: Vec<(&str, f64)> = [
            "ingest.fold",
            "snapshot.encode_partial",
            "store.append",
            "ingest.merge",
            "snapshot.encode",
            "client.load",
            "client.probe",
        ]
        .iter()
        .map(|n| (*n, median(&durations_us(s, n))))
        .collect();
        let sum: f64 = parts.iter().map(|p| p.1).sum();
        report.push(format!("  fresh p50 (traced) {step:.1} us = sum of layer p50s {sum:.1} us + remainder {:.1} us", step - sum));
        for (n, v) in &parts {
            report.push(format!("    {n:<26} {v:>10.1} us  ({:.1}%)", 100.0 * v / step));
        }
        (step - sum) / step
    } else {
        // The residual is the round trip less `handle_into`, so it closes
        // the sum by definition: the remainder is what `handle_into` spends
        // outside its timed parts, and the residual's own share is reported
        // as `transport.residual_frac`.
        let rtt = client.rtt_p50_us;
        let parts = [
            ("transport residual", residual_us),
            ("protocol.request_decode", decode_us),
            ("server.resolve", resolve_us),
            ("sketch.answer (+validate)", answer_us),
            ("protocol.response_encode", encode_us),
        ];
        let sum: f64 = parts.iter().map(|p| p.1).sum();
        report.push(format!(
            "  batch p50 (traced) {rtt:.1} us = sum of layer p50s {sum:.1} us + remainder {:.1} us",
            rtt - sum
        ));
        for (n, v) in &parts {
            report.push(format!("    {n:<26} {v:>10.1} us  ({:.1}%)", 100.0 * v / rtt));
        }
        report.push(format!(
            "    (the residual is rtt - handle_into {handle_us:.1} us, so the sum closes by \
             definition; the remainder is handle_into less its timed parts)"
        ));
        let side = |n: &str| median(&durations_us(client.spans, n));
        report.push(format!(
            "    client spans, p50 per batch: send {:.1} us, recv (waits for the answer) {:.1} us, \
             verify {:.1} us",
            side("client.send"),
            side("client.recv"),
            side("client.verify")
        ));
        (rtt - sum) / rtt
    };
    m.push(("trace.unaccounted_frac", unaccounted));
    m.push(("trace.overhead_frac", client.rtt_p50_us / client.untraced_rtt_p50_us - 1.0));
    report.push(format!(
        "  tracing overhead: traced batch p50 {:.1} us vs untraced {:.1} us",
        client.rtt_p50_us, client.untraced_rtt_p50_us
    ));
    Ok(Layers { metrics: m, report })
}
