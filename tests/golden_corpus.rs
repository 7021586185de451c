//! The pinned golden corpus: old snapshot bytes stay decodable forever.
//!
//! `tests/golden/` commits one encoded frame per snapshot kind at body
//! version 1 (plus a `ReleaseDb` v2 file, the first kind with two
//! versions). Every file was produced by a fixed, seeded recipe that this
//! suite re-runs; each test decodes the *committed bytes* and asserts the
//! result is `==` to the recipe's sketch and answers queries identically
//! to recomputed ground truth. Two contracts are pinned here:
//!
//! * **Decode compatibility, forever**: a frame once written must decode,
//!   byte-for-byte as committed, on every future build. Decoders never
//!   drop a version.
//! * **Encode identity, until the next version bump**: while a file's
//!   version is still its kind's `Snapshot::VERSION`, today's encoder must
//!   reproduce the committed bytes exactly, so equal sketches keep
//!   producing equal bytes (the compactor relies on this). A kind's
//!   encoder moves forward only with a version bump (`ReleaseDb` v1 → v2
//!   in this tree); its old file then keeps only the decode contract.
//!
//! Regenerating (only when *adding* a kind or version — existing files
//! must never be rewritten): `GOLDEN_REGEN=1 cargo test --test
//! golden_corpus`. A rewrite that changes committed bytes is a decoder
//! break by definition and will fail CI's migration leg.

use itemset_sketches::prelude::*;
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

/// Loads a corpus file, or (re)writes it first under `GOLDEN_REGEN=1`.
fn golden_bytes(name: &str, recipe_bytes: &[u8]) -> Vec<u8> {
    let path = golden_dir().join(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, recipe_bytes).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nthe golden corpus is a committed tier-1 artifact; \
             regenerate a missing file with GOLDEN_REGEN=1 cargo test --test golden_corpus",
            path.display()
        )
    })
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
    let bytes = golden_bytes("subsample_v1.bin", &recipe.snapshot_bytes());
    assert_eq!(frame_version(&bytes), 1);
    assert_encodes_to("subsample_v1.bin", &recipe, &bytes);
    let decoded = Subsample::from_snapshot(&bytes).expect("v1 Subsample decodes forever");
    assert_eq!(decoded, recipe);
    // Answers equal truth recomputed over the recipe's own sample rows.
    let sample = recipe.sample();
    for q in &golden_queries() {
        assert_eq!(decoded.estimate(q).to_bits(), sample.frequency(q).to_bits());
    }
}

#[test]
fn golden_release_db_v1_decodes_and_answers_exactly() {
    let db = golden_db();
    let recipe = ReleaseDb::build(&db, 0.1);
    let bytes = golden_bytes("release_db_v1.bin", &recipe.snapshot_bytes_v1());
    assert_eq!(frame_version(&bytes), 1, "the v1 file must stay a v1 file");
    let decoded = ReleaseDb::from_snapshot(&bytes).expect("v1 ReleaseDb decodes forever");
    assert_eq!(decoded, recipe);
    for q in &golden_queries() {
        assert_eq!(decoded.estimate(q).to_bits(), db.frequency(q).to_bits(), "{q:?}");
    }
}

#[test]
fn golden_release_db_v2_decodes_and_answers_exactly() {
    let db = golden_db();
    let recipe = ReleaseDb::build(&db, 0.1);
    let bytes = golden_bytes("release_db_v2.bin", &recipe.snapshot_bytes());
    assert_eq!(frame_version(&bytes), 2);
    assert_encodes_to("release_db_v2.bin", &recipe, &bytes);
    let decoded = ReleaseDb::from_snapshot(&bytes).expect("v2 ReleaseDb decodes");
    assert_eq!(decoded, recipe);
    for q in &golden_queries() {
        assert_eq!(decoded.estimate(q).to_bits(), db.frequency(q).to_bits(), "{q:?}");
    }
    // The two committed layouts are one sketch: same database, same ε.
    let v1 =
        ReleaseDb::from_snapshot(&golden_bytes("release_db_v1.bin", &recipe.snapshot_bytes_v1()))
            .expect("v1");
    assert_eq!(v1, decoded);
}

#[test]
fn golden_answers_stores_decode_and_answer() {
    let db = golden_db();
    let k = 2;
    let indicator = ReleaseAnswersIndicator::build(&db, k, 0.1);
    let bytes = golden_bytes("answers_indicator_v1.bin", &indicator.snapshot_bytes());
    assert_eq!(frame_version(&bytes), 1);
    assert_encodes_to("answers_indicator_v1.bin", &indicator, &bytes);
    let decoded = ReleaseAnswersIndicator::from_snapshot(&bytes).expect("v1 RAI decodes");
    assert_eq!(decoded, indicator);
    let estimator = ReleaseAnswersEstimator::build(&db, k, 0.1);
    let bytes = golden_bytes("answers_estimator_v1.bin", &estimator.snapshot_bytes());
    assert_eq!(frame_version(&bytes), 1);
    assert_encodes_to("answers_estimator_v1.bin", &estimator, &bytes);
    let est_decoded = ReleaseAnswersEstimator::from_snapshot(&bytes).expect("v1 RAE decodes");
    assert_eq!(est_decoded, estimator);
    // k-itemset answers against recomputed exact frequencies: the
    // indicator uses the exact threshold rule; the estimator is within
    // its quantization error and identical to the freshly built store.
    for q in golden_queries().iter().filter(|q| q.len() == k) {
        let truth = db.frequency(q);
        assert_eq!(decoded.is_frequent(q), truth >= 0.1, "{q:?}");
        let est = est_decoded.estimate(q);
        assert!((est - truth).abs() <= 0.1, "{q:?}: {est} vs {truth}");
        assert_eq!(est.to_bits(), estimator.estimate(q).to_bits());
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
    let bytes = golden_bytes("count_min_v1.bin", &cm.snapshot_bytes());
    assert_eq!(frame_version(&bytes), 1);
    assert_encodes_to("count_min_v1.bin", &cm, &bytes);
    let cm_decoded: CountMinSketch<u64> =
        CountMinSketch::from_snapshot(&bytes).expect("v1 Count-Min decodes");
    assert_eq!(cm_decoded, cm);
    let bytes = golden_bytes("count_sketch_v1.bin", &cs.snapshot_bytes());
    assert_eq!(frame_version(&bytes), 1);
    assert_encodes_to("count_sketch_v1.bin", &cs, &bytes);
    let cs_decoded: CountSketch<u64> =
        CountSketch::from_snapshot(&bytes).expect("v1 Count-Sketch decodes");
    assert_eq!(cs_decoded, cs);
    // Estimates over the whole key space equal the recipe's — and the
    // Count-Min ones dominate the recomputed exact counts (never under).
    let mut truth = std::collections::HashMap::new();
    for item in golden_stream() {
        *truth.entry(item).or_insert(0u64) += 1;
    }
    for key in 0..23u64 {
        assert_eq!(cm_decoded.estimate(&key), cm.estimate(&key));
        assert_eq!(cs_decoded.estimate(&key), cs.estimate(&key));
        assert!(cm_decoded.estimate(&key) >= truth.get(&key).copied().unwrap_or(0));
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
    let bytes = golden_bytes("subsample_builder_v1.bin", &recipe.snapshot_bytes());
    assert_eq!(frame_version(&bytes), 1);
    assert_encodes_to("subsample_builder_v1.bin", &recipe, &bytes);
    let mut decoded = SubsampleBuilder::from_snapshot(&bytes).expect("v1 builder decodes");
    assert_eq!(decoded, recipe);
    // The decoded partial resumes the stream bit-identically to the
    // builder that never left memory — the §9-meets-§10 contract, held
    // against bytes frozen in the repo rather than freshly encoded ones.
    for r in observed..db.rows() {
        decoded.observe_row(&db.row_itemset(r));
        recipe.observe_row(&db.row_itemset(r));
    }
    assert_eq!(decoded.finish(), recipe.finish());
}

/// The corpus itself is gated: all eight files must be committed, each a
/// single well-formed frame of the kind and version its name claims.
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
    for (name, kind, version) in expected {
        let path = golden_dir().join(name);
        let bytes = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (corpus file must be committed)", path.display()));
        let info = itemset_sketches::database::codec::peek_frame(&bytes)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!((info.kind, info.version), (kind, version), "{name}");
        assert_eq!(info.frame_len(), bytes.len(), "{name}: exactly one frame per file");
    }
}
