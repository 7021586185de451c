//! The pinned golden corpus: old snapshot bytes stay decodable forever.
//!
//! `tests/golden/` commits one encoded frame per snapshot kind at body
//! version 1 (plus a `ReleaseDb` v2 file, the first kind with two
//! versions), each in both frame envelopes (DESIGN.md §10): `NAME.bin` in
//! the legacy "IFSS" envelope (FNV-1a 64 check) that older builds wrote,
//! and its twin `NAME_ifsx.bin` in the "IFSX" envelope (XXH64 check) that
//! this build writes. Twins differ in magic and check only. Every file
//! was produced by a fixed, seeded recipe that this suite re-runs; each
//! test decodes the *committed bytes* and asserts the result is `==` to
//! the recipe's sketch and answers queries identically to recomputed
//! ground truth. Two contracts are pinned here:
//!
//! * **Decode compatibility, forever**: a frame once written must decode,
//!   byte-for-byte as committed, on every future build. Decoders never
//!   drop a version or an envelope, and old-envelope frames also serve
//!   and replay from a sketch log exactly like their twins.
//! * **Encode identity, until the next version bump**: while an "IFSX"
//!   file's version is still its kind's `Snapshot::VERSION`, today's
//!   encoder must reproduce the committed bytes exactly, so equal
//!   sketches keep producing equal bytes (the compactor relies on this).
//!   A kind's encoder moves forward only with a version bump (`ReleaseDb`
//!   v1 → v2 in this tree) or an envelope change ("IFSS" → "IFSX"); the
//!   superseded file then keeps only the decode contract.
//!
//! Regenerating (only when *adding* a kind, version or envelope —
//! existing files must never be rewritten): `GOLDEN_REGEN=1 cargo test
//! --test golden_corpus` rewrites the "IFSX" files only; the "IFSS" files
//! are read-only here, since no build writes that envelope any more. A
//! rewrite that changes committed bytes is a decoder break by definition
//! and will fail CI's migration leg.

use itemset_sketches::database::codec::{self, FrameCheck};
use itemset_sketches::prelude::*;
use itemset_sketches::serve::{EncodeBuf, QueryMode, Request, Response, ServeConfig, SketchServer};
use itemset_sketches::streaming::{CountMinSketch, CountSketch, StreamCounter};
use std::path::{Path, PathBuf};

/// One seed for the whole corpus; recipes derive from it deterministically.
const GOLDEN_SEED: u64 = 0x601D;
const GOLDEN_DIMS: usize = 40;
const GOLDEN_ROWS: usize = 60;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden_db() -> Database {
    let mut rng = Rng64::seeded(GOLDEN_SEED);
    generators::uniform(GOLDEN_ROWS, GOLDEN_DIMS, 0.15, &mut rng)
}

/// Deterministic mixed-cardinality query log over the corpus database.
fn golden_queries() -> Vec<Itemset> {
    let mut rng = Rng64::seeded(GOLDEN_SEED ^ 0xF00D);
    (0..64)
        .map(|_| {
            let k = rng.below(4);
            let mut items: Vec<u32> = (0..k).map(|_| rng.below(GOLDEN_DIMS) as u32).collect();
            items.sort_unstable();
            items.dedup();
            Itemset::new(items)
        })
        .collect()
}

/// A committed file, read as is: every read of the corpus goes through here.
fn committed(name: &str) -> Vec<u8> {
    let path = golden_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nthe golden corpus is a committed tier-1 artifact; \
             regenerate a missing IFSX file with GOLDEN_REGEN=1 cargo test --test golden_corpus",
            path.display()
        )
    })
}

/// The "IFSX" twin of the legacy corpus file `name`.
fn twin(name: &str) -> String {
    name.replace(".bin", "_ifsx.bin")
}

/// The legacy file `name` and its "IFSX" twin, writing the twin from
/// `recipe_bytes` first under `GOLDEN_REGEN=1` when it is missing or
/// differs (an unchanged file is left alone, so the tests that read it
/// concurrently never see it half written). The pair must differ in
/// magic and check only: same kind, version, length and body.
fn golden_pair(name: &str, recipe_bytes: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let twin = twin(name);
    let path = golden_dir().join(&twin);
    if std::env::var_os("GOLDEN_REGEN").is_some()
        && std::fs::read(&path).ok().as_deref() != Some(recipe_bytes)
    {
        std::fs::write(&path, recipe_bytes).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
    let (old, new) = (committed(name), committed(&twin));
    let envelope = |bytes: &[u8]| codec::frame_header(bytes).expect("a frame header").check;
    assert_eq!(envelope(&old), FrameCheck::Fnv1a64, "{name} is an IFSS frame");
    assert_eq!(envelope(&new), FrameCheck::Xxh64, "{twin} is an IFSX frame");
    assert_eq!(old.len(), new.len(), "{name}: the envelope changed the frame length");
    assert!(
        old[4..old.len() - 8] == new[4..new.len() - 8],
        "{name}: the twins' headers or bodies differ"
    );
    (old, new)
}

fn frame_version(bytes: &[u8]) -> u16 {
    u16::from_le_bytes([bytes[6], bytes[7]])
}

/// Encode identity: `name` is at its kind's current version, and the
/// current encoder reproduces the committed bytes exactly.
fn assert_encodes_to<S: Snapshot>(name: &str, recipe: &S, committed: &[u8]) {
    assert_eq!(frame_version(committed), S::VERSION, "{name} is not its kind's current version");
    assert!(recipe.snapshot_bytes() == committed, "{name}: the encoder changed its bytes");
}

#[test]
fn golden_subsample_v1_decodes_and_answers() {
    let recipe = Subsample::with_sample_count_seeded(&golden_db(), 16, 0.1, GOLDEN_SEED ^ 0x5A);
    let (old, new) = golden_pair("subsample_v1.bin", &recipe.snapshot_bytes());
    assert_encodes_to("subsample_v1_ifsx.bin", &recipe, &new);
    for bytes in [old, new] {
        assert_eq!(frame_version(&bytes), 1);
        let decoded = Subsample::from_snapshot(&bytes).expect("v1 Subsample decodes forever");
        assert_eq!(decoded, recipe);
        // Answers equal truth recomputed over the recipe's own sample rows.
        let sample = recipe.sample();
        for q in &golden_queries() {
            assert_eq!(decoded.estimate(q).to_bits(), sample.frequency(q).to_bits());
        }
    }
}

#[test]
fn golden_release_db_v1_decodes_and_answers_exactly() {
    let db = golden_db();
    let recipe = ReleaseDb::build(&db, 0.1);
    let (old, new) = golden_pair("release_db_v1.bin", &recipe.snapshot_bytes_v1());
    for bytes in [old, new] {
        assert_eq!(frame_version(&bytes), 1, "the v1 file must stay a v1 file");
        let decoded = ReleaseDb::from_snapshot(&bytes).expect("v1 ReleaseDb decodes forever");
        assert_eq!(decoded, recipe);
        for q in &golden_queries() {
            assert_eq!(decoded.estimate(q).to_bits(), db.frequency(q).to_bits(), "{q:?}");
        }
    }
}

#[test]
fn golden_release_db_v2_decodes_and_answers_exactly() {
    let db = golden_db();
    let recipe = ReleaseDb::build(&db, 0.1);
    let (old, new) = golden_pair("release_db_v2.bin", &recipe.snapshot_bytes());
    assert_encodes_to("release_db_v2_ifsx.bin", &recipe, &new);
    for bytes in [old, new] {
        assert_eq!(frame_version(&bytes), 2);
        let decoded = ReleaseDb::from_snapshot(&bytes).expect("v2 ReleaseDb decodes");
        assert_eq!(decoded, recipe);
        for q in &golden_queries() {
            assert_eq!(decoded.estimate(q).to_bits(), db.frequency(q).to_bits(), "{q:?}");
        }
    }
}

#[test]
fn golden_answers_stores_decode_and_answer() {
    let db = golden_db();
    let k = 2;
    let indicator = ReleaseAnswersIndicator::build(&db, k, 0.1);
    let (old, new) = golden_pair("answers_indicator_v1.bin", &indicator.snapshot_bytes());
    assert_encodes_to("answers_indicator_v1_ifsx.bin", &indicator, &new);
    let indicators = [old, new].map(|bytes| {
        assert_eq!(frame_version(&bytes), 1);
        let decoded = ReleaseAnswersIndicator::from_snapshot(&bytes).expect("v1 RAI decodes");
        assert_eq!(decoded, indicator);
        decoded
    });
    let estimator = ReleaseAnswersEstimator::build(&db, k, 0.1);
    let (old, new) = golden_pair("answers_estimator_v1.bin", &estimator.snapshot_bytes());
    assert_encodes_to("answers_estimator_v1_ifsx.bin", &estimator, &new);
    let estimators = [old, new].map(|bytes| {
        assert_eq!(frame_version(&bytes), 1);
        let decoded = ReleaseAnswersEstimator::from_snapshot(&bytes).expect("v1 RAE decodes");
        assert_eq!(decoded, estimator);
        decoded
    });
    // k-itemset answers against recomputed exact frequencies: the
    // indicator uses the exact threshold rule; the estimator is within
    // its quantization error and identical to the freshly built store.
    for (decoded, est_decoded) in indicators.iter().zip(&estimators) {
        for q in golden_queries().iter().filter(|q| q.len() == k) {
            let truth = db.frequency(q);
            assert_eq!(decoded.is_frequent(q), truth >= 0.1, "{q:?}");
            let est = est_decoded.estimate(q);
            assert!((est - truth).abs() <= 0.1, "{q:?}: {est} vs {truth}");
            assert_eq!(est.to_bits(), estimator.estimate(q).to_bits());
        }
    }
}

/// The deterministic update stream both counter recipes consume.
fn golden_stream() -> impl Iterator<Item = u64> {
    (0..300u64).map(|i| (i * i) % 23)
}

#[test]
fn golden_counter_sketches_decode_and_answer() {
    let mut cm: CountMinSketch<u64> = CountMinSketch::new(64, 4, false, GOLDEN_SEED);
    let mut cs: CountSketch<u64> = CountSketch::new(64, 5, GOLDEN_SEED ^ 0xC5);
    for item in golden_stream() {
        cm.update(item);
        cs.update(item);
    }
    let (cm_old, cm_new) = golden_pair("count_min_v1.bin", &cm.snapshot_bytes());
    assert_encodes_to("count_min_v1_ifsx.bin", &cm, &cm_new);
    let (cs_old, cs_new) = golden_pair("count_sketch_v1.bin", &cs.snapshot_bytes());
    assert_encodes_to("count_sketch_v1_ifsx.bin", &cs, &cs_new);
    let mut truth = std::collections::HashMap::new();
    for item in golden_stream() {
        *truth.entry(item).or_insert(0u64) += 1;
    }
    for (cm_bytes, cs_bytes) in [(cm_old, cs_old), (cm_new, cs_new)] {
        assert_eq!(frame_version(&cm_bytes), 1);
        let cm_decoded: CountMinSketch<u64> =
            CountMinSketch::from_snapshot(&cm_bytes).expect("v1 Count-Min decodes");
        assert_eq!(cm_decoded, cm);
        assert_eq!(frame_version(&cs_bytes), 1);
        let cs_decoded: CountSketch<u64> =
            CountSketch::from_snapshot(&cs_bytes).expect("v1 Count-Sketch decodes");
        assert_eq!(cs_decoded, cs);
        // Estimates over the whole key space equal the recipe's — and the
        // Count-Min ones dominate the recomputed exact counts (never under).
        for key in 0..23u64 {
            assert_eq!(cm_decoded.estimate(&key), cm.estimate(&key));
            assert_eq!(cs_decoded.estimate(&key), cs.estimate(&key));
            assert!(cm_decoded.estimate(&key) >= truth.get(&key).copied().unwrap_or(0));
        }
    }
}

#[test]
fn golden_subsample_builder_v1_resumes_identically() {
    let db = golden_db();
    let params = SubsampleParams { sample_rows: 16, epsilon: 0.1 };
    let observed = 25usize;
    let mut recipe = SubsampleBuilder::begin(GOLDEN_DIMS, GOLDEN_SEED ^ 0xB1, &params);
    for r in 0..observed {
        recipe.observe_row(&db.row_itemset(r));
    }
    let (old, new) = golden_pair("subsample_builder_v1.bin", &recipe.snapshot_bytes());
    assert_encodes_to("subsample_builder_v1_ifsx.bin", &recipe, &new);
    for bytes in [old, new] {
        assert_eq!(frame_version(&bytes), 1);
        let mut decoded = SubsampleBuilder::from_snapshot(&bytes).expect("v1 builder decodes");
        assert_eq!(decoded, recipe);
        // The decoded partial resumes the stream bit-identically to the
        // builder that never left memory — the §9-meets-§10 contract, held
        // against bytes frozen in the repo rather than freshly encoded ones.
        let mut resumed = recipe.clone();
        for r in observed..db.rows() {
            decoded.observe_row(&db.row_itemset(r));
            resumed.observe_row(&db.row_itemset(r));
        }
        assert_eq!(decoded.finish(), resumed.finish());
    }
}

/// The legacy files of the servable kinds (`ServedSketch`).
const SERVABLE: [&str; 5] = [
    "subsample_v1.bin",
    "release_db_v1.bin",
    "release_db_v2.bin",
    "answers_indicator_v1.bin",
    "answers_estimator_v1.bin",
];

/// The serialized responses to one fixed query batch against `frame`,
/// admitted into a fresh server at 1 and at 4 engine threads.
fn served_answers(frame: &[u8]) -> Vec<Vec<u8>> {
    let mut buf = EncodeBuf::new();
    [1, 4]
        .map(|threads| {
            let server = SketchServer::new(ServeConfig::default());
            let kind = server.load_frame(0, threads, frame).expect("a servable frame admits").kind;
            let pairs = || golden_queries().into_iter().filter(|q| q.len() == 2).collect();
            let (mode, queries) = match kind {
                3 => (QueryMode::Indicator, pairs()),
                4 => (QueryMode::Estimate, pairs()),
                _ => (QueryMode::Estimate, golden_queries()),
            };
            let request = Request::Query { id: 0, mode, queries }.to_bytes();
            let response = server.handle_into(&request, &mut buf).to_vec();
            match Response::from_bytes(&response).expect("a decodable response") {
                Response::Error(e) => panic!("kind {kind}: {e}"),
                _ => response,
            }
        })
        .to_vec()
}

#[test]
fn old_golden_frames_serve_like_their_new_twins() {
    for name in SERVABLE {
        let old = served_answers(&committed(name));
        assert_eq!(old, served_answers(&committed(&twin(name))), "{name}");
        assert_eq!(old[0], old[1], "{name}: 1 and 4 threads answer alike");
    }
}

#[test]
fn a_log_of_old_golden_frames_opens_materializes_and_serves() {
    let path = std::env::temp_dir().join(format!("ifs-golden-{}.log", std::process::id()));
    // Both logs hold every file under its index as a `Put`, and one
    // `Merge` run of the two `ReleaseDb` layouts under id 100.
    let write = |name_of: &dyn Fn(&str) -> String| {
        let mut log = SketchLog::create(&path).expect("create");
        for (id, name) in SERVABLE.iter().enumerate() {
            log.append(LogOp::Put, id as u64, &committed(&name_of(name))).expect("append");
        }
        for name in ["release_db_v1.bin", "release_db_v2.bin"] {
            log.append(LogOp::Merge, 100, &committed(&name_of(name))).expect("append");
        }
        drop(log);
        let (log, report) = SketchLog::open(&path).expect("reopen");
        assert!(report.clean(), "{report:?}");
        log.materialize().expect("materialize")
    };
    let old = write(&|name| name.to_string());
    let new = write(&twin);
    let _ = std::fs::remove_file(&path);
    for (id, name) in SERVABLE.iter().enumerate() {
        let frame = &old[&(id as u64)];
        assert!(*frame == committed(name), "{name}: a `Put` replays verbatim, envelope included");
        assert_eq!(served_answers(frame), served_answers(&new[&(id as u64)]), "{name}");
    }
    // The fold decodes both envelopes and re-encodes at the head envelope.
    assert!(old[&100] == new[&100], "the merge runs fold to the same frame");
    assert_eq!(served_answers(&old[&100]), served_answers(&new[&100]));
}

/// The corpus itself is gated: all sixteen files must be committed, each
/// a single well-formed frame of the kind, version and envelope its name
/// claims.
#[test]
fn golden_corpus_is_complete() {
    let expected: [(&str, u16, u16); 8] = [
        ("subsample_v1.bin", 1, 1),
        ("release_db_v1.bin", 2, 1),
        ("release_db_v2.bin", 2, 2),
        ("answers_indicator_v1.bin", 3, 1),
        ("answers_estimator_v1.bin", 4, 1),
        ("count_min_v1.bin", 5, 1),
        ("count_sketch_v1.bin", 6, 1),
        ("subsample_builder_v1.bin", 7, 1),
    ];
    for (legacy, kind, version) in expected {
        for (name, check) in
            [(legacy.to_string(), FrameCheck::Fnv1a64), (twin(legacy), FrameCheck::Xxh64)]
        {
            let bytes = committed(&name);
            let info = codec::peek_frame(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!((info.kind, info.version, info.check), (kind, version, check), "{name}");
            assert_eq!(info.frame_len(), bytes.len(), "{name}: exactly one frame per file");
        }
    }
}
