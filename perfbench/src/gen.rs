//! Workload inputs: every frame, request and expected answer, generated
//! from the seed before any timing starts.
//!
//! Expected answers come from the offline sketches in this process (the
//! same dispatch the server runs), computed here once, so the timed loop
//! only compares bits. Ingest probes are the exception: their expectations
//! are per-chunk supports summed along the chunk sequence, one pass over
//! the chunks, without building any running sketch.

use ifs_core::{
    ReleaseAnswersEstimator, ReleaseAnswersIndicator, ReleaseDb, ReleaseDbBuilder, Snapshot,
    StreamingBuild, Subsample,
};
use ifs_database::generators::{self, MarketBasketSpec};
use ifs_database::{Database, Itemset};
use ifs_serve::{Answers, QueryMode, Request, ServedSketch};
use ifs_store::LogOp;
use ifs_util::{Rng64, StableHasher};
use std::hash::Hasher;

/// Threshold ε of every generated sketch.
pub const EPSILON: f64 = 0.05;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TenantsPoint,
    ScanLarge,
    IngestReload,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::TenantsPoint, Workload::ScanLarge, Workload::IngestReload];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TenantsPoint => "tenants-point",
            Workload::ScanLarge => "scan-large",
            Workload::IngestReload => "ingest-reload",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One query batch and the answer the server must return for it.
pub struct Batch {
    pub request: Request,
    pub expected: Answers,
}

impl Batch {
    fn new(id: u64, mode: QueryMode, queries: Vec<Itemset>, sketch: &ServedSketch) -> Self {
        let expected = sketch.answer(mode, &queries).expect("generated queries are in contract");
        Self { request: Request::Query { id, mode, queries }, expected }
    }

    pub fn id(&self) -> u64 {
        match &self.request {
            Request::Query { id, .. } => *id,
            _ => unreachable!("batches are queries"),
        }
    }

    pub fn mode(&self) -> QueryMode {
        match &self.request {
            Request::Query { mode, .. } => *mode,
            _ => unreachable!("batches are queries"),
        }
    }

    pub fn queries(&self) -> &[Itemset] {
        match &self.request {
            Request::Query { queries, .. } => queries,
            _ => unreachable!("batches are queries"),
        }
    }
}

/// One reading connection: its pipeline depth and the batches it cycles
/// through.
pub struct ReadStream {
    pub pipeline: usize,
    pub batches: Vec<Batch>,
}

/// How the server is booted.
pub enum Boot {
    /// `--snapshots`: frames admitted under ids `0, 1, 2, …`.
    Snapshots(Vec<Vec<u8>>),
    /// `--log`: records of a sketch log, appended in order.
    Log(Vec<(LogOp, u64, Vec<u8>)>),
}

/// One ingest tenant: its booted base sketch and the chunks that stream in.
/// Chunk `j` is followed by probe `j`, whose expectation covers the base
/// plus chunks `0..=j`; after the last chunk the tenant rolls over to its
/// base (a `Put` in the log), so the cycle — and the per-chunk cost —
/// repeats for as long as the run lasts.
pub struct Tenant {
    pub id: u64,
    pub base: ReleaseDb,
    pub base_frame: Vec<u8>,
    pub chunks: Vec<Vec<Itemset>>,
    pub probes: Vec<Batch>,
}

pub struct Ingest {
    pub tenants: Vec<Tenant>,
    pub chunk_rows: usize,
    pub dims: usize,
}

/// A workload's shape as (name, value) pairs, recorded with every result.
pub type Shape = Vec<(&'static str, String)>;

/// Everything a workload needs, fixed before timing.
pub struct Inputs {
    pub workload: Workload,
    pub shape: Shape,
    pub boot: Boot,
    pub budget_bits: Option<u64>,
    /// `--threads` (engine fan-out per dispatch) and `--workers` (pool
    /// handler threads) of the server.
    pub server_threads: usize,
    pub server_workers: usize,
    pub streams: Vec<ReadStream>,
    pub ingest: Option<Ingest>,
    /// The set-up probe: the first query of every boot.
    pub warm: Batch,
    /// Servable frames by id, and their decoded offline forms.
    pub frames: Vec<Vec<u8>>,
    pub oracle: Vec<ServedSketch>,
    /// Source rows the frames represent (for bytes-per-row figures).
    pub source_rows: usize,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, smoke: bool) -> Self {
        match workload {
            Workload::TenantsPoint => tenants_point(seed, smoke),
            Workload::ScanLarge => scan_large(seed, smoke),
            Workload::IngestReload => ingest_reload(seed, smoke),
        }
    }

    /// Digest of every generated byte the server or the checker sees:
    /// boot frames, request frames, expected answers, ingest chunks.
    pub fn digest(&self) -> u64 {
        let mut d = StableHasher::seeded(0);
        match &self.boot {
            Boot::Snapshots(frames) => frames.iter().for_each(|f| d.write(f)),
            Boot::Log(records) => {
                for (op, id, frame) in records {
                    d.write_u64(matches!(op, LogOp::Merge) as u64);
                    d.write_u64(*id);
                    d.write(frame);
                }
            }
        }
        let batch = |d: &mut StableHasher, b: &Batch| {
            d.write(&b.request.to_bytes());
            match &b.expected {
                Answers::Estimates(v) => v.iter().for_each(|f| d.write_u64(f.to_bits())),
                Answers::Indicators(v) => v.iter().for_each(|&x| d.write_u64(x as u64)),
            }
        };
        batch(&mut d, &self.warm);
        for s in &self.streams {
            s.batches.iter().for_each(|b| batch(&mut d, b));
        }
        if let Some(ingest) = &self.ingest {
            for t in &ingest.tenants {
                d.write(&t.base_frame);
                for chunk in &t.chunks {
                    chunk.iter().flat_map(|r| r.items()).for_each(|&i| d.write_u32(i));
                }
                t.probes.iter().for_each(|b| batch(&mut d, b));
            }
        }
        d.finish()
    }
}

fn basket(rows: usize, items: usize, rng: &mut Rng64) -> Database {
    // Two correlated bundles on top of Zipf item popularity, so supports
    // of multi-item queries are not all near zero.
    let a = rng.distinct_sorted(items, 3).into_iter().map(|i| i as u32).collect();
    let b = rng.distinct_sorted(items, 2).into_iter().map(|i| i as u32).collect();
    let spec = MarketBasketSpec {
        transactions: rows,
        items,
        zipf_exponent: 1.0,
        mean_basket: 6.0,
        bundles: vec![(a, 0.15), (b, 0.3)],
    };
    generators::market_basket(&spec, rng)
}

fn itemset(dims: usize, len: usize, rng: &mut Rng64) -> Itemset {
    Itemset::new(rng.distinct_sorted(dims, len).into_iter().map(|i| i as u32).collect())
}

/// A batch of `size` queries on `sketch`, each of `lens`-drawn cardinality
/// (or the sketch's required one).
fn batch(id: u64, sketch: &ServedSketch, size: usize, lens: &[usize], rng: &mut Rng64) -> Batch {
    let modes: Vec<QueryMode> = [QueryMode::Estimate, QueryMode::Indicator]
        .into_iter()
        .filter(|&m| sketch.supports(m))
        .collect();
    let mode = modes[rng.below(modes.len())];
    let queries = (0..size)
        .map(|_| {
            let len = sketch.required_len().unwrap_or_else(|| lens[rng.below(lens.len())]);
            itemset(sketch.dims(), len, rng)
        })
        .collect();
    Batch::new(id, mode, queries, sketch)
}

fn admit_all(frames: &[Vec<u8>], threads: usize) -> Vec<ServedSketch> {
    frames
        .iter()
        .map(|f| ServedSketch::admit(f, threads).expect("generated frame admits"))
        .collect()
}

fn tenants_point(seed: u64, smoke: bool) -> Inputs {
    let (tenants, rows, per_stream) = if smoke { (16, 256, 256) } else { (256, 2000, 16384) };
    let dims = 48;
    let mut rng = Rng64::seeded(seed ^ 0x7E4A_4175);
    let mut frames = Vec::with_capacity(tenants);
    for t in 0..tenants {
        let db = basket(rows, dims, &mut rng.fork());
        let k = 2 + (t / 4) % 2;
        frames.push(match t % 4 {
            0 => ReleaseDb::build(&db, EPSILON).snapshot_bytes(),
            1 => Subsample::with_sample_count_seeded(&db, rows / 8, EPSILON, rng.next_u64())
                .snapshot_bytes(),
            2 => ReleaseAnswersIndicator::build(&db, k, EPSILON).snapshot_bytes(),
            _ => ReleaseAnswersEstimator::build(&db, k, EPSILON).snapshot_bytes(),
        });
    }
    let oracle = admit_all(&frames, 2);
    let total_bits: u64 = frames.iter().map(|f| f.len() as u64 * 8).sum();
    // A quarter of the fleet, but never too small to hold the largest
    // frame twice over (the smoke fleet is tiny).
    let largest = frames.iter().map(|f| f.len() as u64 * 8).max().unwrap_or(0);
    let budget_bits = (total_bits / 4).max(2 * largest);
    // Zipf(1) popularity over a seeded permutation of tenant ids that keeps
    // popularity rank r on kind r % 4: which tenants are hot depends on the
    // seed, the kind mix of the hot set does not.
    let mut within: Vec<u64> = (0..(tenants / 4) as u64).collect();
    rng.shuffle(&mut within);
    let order: Vec<u64> = (0..tenants).map(|r| 4 * within[r / 4] + (r % 4) as u64).collect();
    let mut cdf: Vec<f64> = Vec::with_capacity(tenants);
    let mut acc = 0.0;
    for r in 0..tenants {
        acc += 1.0 / (r + 1) as f64;
        cdf.push(acc);
    }
    let draw = |rng: &mut Rng64| {
        let u = rng.unit() * acc;
        order[cdf.partition_point(|&c| c < u).min(tenants - 1)]
    };
    let streams = (0..2)
        .map(|_| {
            let mut srng = rng.fork();
            let batches = (0..per_stream)
                .map(|_| {
                    let id = draw(&mut srng);
                    batch(id, &oracle[id as usize], 8, &[1, 2, 3], &mut srng)
                })
                .collect();
            ReadStream { pipeline: 8, batches }
        })
        .collect();
    let warm = batch(order[0], &oracle[order[0] as usize], 8, &[1, 2, 3], &mut rng);
    Inputs {
        workload: Workload::TenantsPoint,
        shape: vec![
            ("tenants", tenants.to_string()),
            ("tenant_rows", rows.to_string()),
            ("items", dims.to_string()),
            ("kinds", "ReleaseDb,Subsample,AnswersIndicator,AnswersEstimator".into()),
            ("popularity", "zipf(1.0)".into()),
            ("fleet_bits", total_bits.to_string()),
            ("budget_bits", budget_bits.to_string()),
            ("connections", "2".into()),
            ("pipeline", "8".into()),
            ("batch_queries", "8".into()),
            ("query_k", "1..=3".into()),
            ("server_threads", "1".into()),
            ("server_workers", "1".into()),
            ("batches_per_connection_cycle", per_stream.to_string()),
        ],
        boot: Boot::Snapshots(frames.clone()),
        budget_bits: Some(budget_bits),
        // One engine thread and one pool worker. At `--threads 2` every
        // 8-query dispatch spawns a thread, and on a 2-core host shared with
        // other tenants the spawn's cost swings with the neighbours: ten
        // runs spread (IQR/median) 0.27-0.46 in a busy period. The spawn
        // stays measured, as `engine.fanout_us`, in the traced run.
        server_threads: 1,
        server_workers: 1,
        streams,
        ingest: None,
        warm,
        frames,
        oracle,
        source_rows: tenants * rows,
    }
}

fn scan_large(seed: u64, smoke: bool) -> Inputs {
    let (rows, cycle) = if smoke { (1 << 16, 16) } else { (1 << 20, 256) };
    let dims = 64;
    let sample_rows = rows / 8;
    let mut rng = Rng64::seeded(seed ^ 0x5CA1_1A26);
    let db = basket(rows, dims, &mut rng.fork());
    let frames = vec![
        ReleaseDb::build(&db, EPSILON).snapshot_bytes(),
        Subsample::with_sample_count_seeded(&db, sample_rows, EPSILON, rng.next_u64())
            .snapshot_bytes(),
    ];
    drop(db);
    let oracle = admit_all(&frames, 2);
    // Three of four batches scan the full release, one the sample, so the
    // median batch is always a full scan.
    let batches = (0..cycle)
        .map(|b| {
            let id = u64::from(b % 4 == 3);
            batch(id, &oracle[id as usize], 64, &[2, 3, 4], &mut rng)
        })
        .collect();
    let warm = batch(0, &oracle[0], 64, &[2, 3, 4], &mut rng);
    Inputs {
        workload: Workload::ScanLarge,
        shape: vec![
            ("rows", rows.to_string()),
            ("items", dims.to_string()),
            ("shards", rows.div_ceil(ifs_database::SHARD_ROWS).to_string()),
            ("sketches", "ReleaseDb,Subsample".into()),
            ("subsample_rows", sample_rows.to_string()),
            ("connections", "1".into()),
            ("pipeline", "1".into()),
            ("batch_queries", "64".into()),
            ("query_k", "2..=4".into()),
            ("server_threads", "2".into()),
            ("server_workers", "1".into()),
            ("batches_cycle", cycle.to_string()),
        ],
        boot: Boot::Snapshots(frames.clone()),
        budget_bits: None,
        server_threads: 2,
        server_workers: 1,
        streams: vec![ReadStream { pipeline: 1, batches }],
        ingest: None,
        warm,
        frames,
        oracle,
        source_rows: rows,
    }
}

fn ingest_reload(seed: u64, smoke: bool) -> Inputs {
    let (writers, base_rows, chunk_rows, period, reader_rows, cycle) =
        if smoke { (2, 512, 128, 4, 1024, 256) } else { (8, 4096, 512, 32, 8192, 8192) };
    let dims = 48;
    let pieces = 4;
    let mut rng = Rng64::seeded(seed ^ 0x16E5_7EAD);
    let mut records = Vec::new();
    let mut tenants = Vec::with_capacity(writers);
    for t in 0..writers {
        let id = t as u64;
        let db = basket(base_rows, dims, &mut rng.fork());
        let rows: Vec<Itemset> = (0..base_rows).map(|r| db.row_itemset(r)).collect();
        // The base boots as a merge run, so recovery folds it.
        for piece in rows.chunks(base_rows / pieces) {
            let mut b = ReleaseDbBuilder::begin(dims, 0, &EPSILON);
            b.observe_rows(piece);
            records.push((LogOp::Merge, id, b.finish().snapshot_bytes()));
        }
        let base = ReleaseDb::build(&db, EPSILON);
        let base_frame = base.snapshot_bytes();
        let probe_q: Vec<Itemset> = (0..8).map(|i| itemset(dims, 1 + i % 3, &mut rng)).collect();
        let mut support = db.support_batch(&probe_q);
        let mut n = base_rows;
        let mut chunks = Vec::with_capacity(period);
        let mut probes = Vec::with_capacity(period);
        for _ in 0..period {
            let chunk = basket(chunk_rows, dims, &mut rng.fork());
            for (s, add) in support.iter_mut().zip(chunk.support_batch(&probe_q)) {
                *s += add;
            }
            n += chunk_rows;
            chunks.push((0..chunk_rows).map(|r| chunk.row_itemset(r)).collect());
            probes.push(Batch {
                request: Request::Query { id, mode: QueryMode::Estimate, queries: probe_q.clone() },
                expected: Answers::Estimates(
                    support.iter().map(|&s| s as f64 / n as f64).collect(),
                ),
            });
        }
        tenants.push(Tenant { id, base, base_frame, chunks, probes });
    }
    let mut frames: Vec<Vec<u8>> = tenants.iter().map(|t| t.base_frame.clone()).collect();
    for _ in 0..writers {
        let db = basket(reader_rows, dims, &mut rng.fork());
        frames.push(ReleaseDb::build(&db, EPSILON).snapshot_bytes());
    }
    for (id, frame) in frames.iter().enumerate().skip(writers) {
        records.push((LogOp::Put, id as u64, frame.clone()));
    }
    let oracle = admit_all(&frames, 2);
    let draw = |rng: &mut Rng64| (writers + rng.below(writers)) as u64;
    let batches = (0..cycle)
        .map(|_| {
            let id = draw(&mut rng);
            batch(id, &oracle[id as usize], 16, &[1, 2, 3], &mut rng)
        })
        .collect();
    let warm_id = draw(&mut rng);
    let warm = batch(warm_id, &oracle[warm_id as usize], 16, &[1, 2, 3], &mut rng);
    Inputs {
        workload: Workload::IngestReload,
        shape: vec![
            ("writer_tenants", writers.to_string()),
            ("reader_tenants", writers.to_string()),
            ("items", dims.to_string()),
            ("base_rows", base_rows.to_string()),
            ("chunk_rows", chunk_rows.to_string()),
            ("chunks_per_rollover", period.to_string()),
            ("reader_rows", reader_rows.to_string()),
            ("connections", "2 (writer, reader)".into()),
            ("reader_pipeline", "1".into()),
            ("reader_batch_queries", "16".into()),
            ("probe_queries", "8".into()),
            ("query_k", "1..=3".into()),
            ("server_threads", "2".into()),
            ("server_workers", "2".into()),
        ],
        boot: Boot::Log(records),
        budget_bits: None,
        server_threads: 2,
        // Writer and reader on their own workers: they meet on the server's
        // state and the cores, not in one worker's poll loop.
        server_workers: 2,
        streams: vec![ReadStream { pipeline: 1, batches }],
        ingest: Some(Ingest { tenants, chunk_rows, dims }),
        warm,
        frames,
        oracle,
        source_rows: writers * (base_rows + reader_rows),
    }
}
