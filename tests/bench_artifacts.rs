//! The committed bench artifacts obey the release-only trajectory rule.
//!
//! PR 6 established that perf numbers in the tree must come from release
//! builds — debug numbers misstate every trajectory claim the README and
//! DESIGN.md make. CI regenerates the JSONs in release mode, but that
//! gate only covered freshly emitted files; this tier-1 suite covers the
//! **repo contents**: every committed `bench_results/BENCH_*.json` must
//! say `"mode": "release"` and record the host's core count
//! (`host_cores`), and the serving artifact must record the connection
//! shape (`connections`/`pipeline_depth`) so the perf trajectory
//! distinguishes single-connection from many-connection runs.
//!
//! The checks run against the files as committed (the suite runs before
//! any bench in a plain `cargo test`), so a debug artifact cannot land
//! even if CI's bench legs are skipped.

use std::path::{Path, PathBuf};

/// Every committed `BENCH_*.json`, via the crate-relative bench dir.
fn bench_jsons() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench_results");
    let mut jsons: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    jsons.sort();
    jsons
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Asserts that the committed `bench_results/{file}` contains every field.
fn require_fields(file: &str, fields: &[&str]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench_results").join(file);
    let body = read(&path);
    for field in fields {
        assert!(body.contains(field), "{}: missing {field}", path.display());
    }
}

/// What `write_bench_json` records about the CPU: the features compiled
/// in and those the host reports.
const TARGET_FEATURE_FIELDS: [&str; 2] =
    ["\"target_features_compiled\":", "\"cpu_features_detected\":"];

/// The tree must actually contain bench artifacts — an empty directory
/// would make the release gate below pass vacuously.
#[test]
fn the_five_bench_artifacts_are_committed() {
    let names: Vec<String> = bench_jsons()
        .iter()
        .map(|p| p.file_name().expect("file name").to_string_lossy().into_owned())
        .collect();
    for required in [
        "BENCH_ingest.json",
        "BENCH_kernels.json",
        "BENCH_serving.json",
        "BENCH_snapshot.json",
        "BENCH_store.json",
    ] {
        assert!(names.iter().any(|n| n == required), "missing {required} (found {names:?})");
    }
}

/// Every committed bench artifact must be a release-mode measurement
/// that names the host it ran on. A `"mode": "debug"` artifact misstates
/// the perf trajectory and fails tier-1, not just a CI leg; a number
/// without `host_cores` cannot be reproduced on purpose.
#[test]
fn committed_bench_artifacts_are_release_mode() {
    for path in bench_jsons() {
        let body = read(&path);
        assert!(
            body.contains("\"mode\": \"release\""),
            "{}: committed bench artifacts must be measured in release mode \
             (found a non-release `mode`; regenerate with `cargo bench`/loadgen in release)",
            path.display()
        );
        assert!(
            !body.contains("\"mode\": \"debug\""),
            "{}: a debug-mode artifact may not be committed",
            path.display()
        );
        assert!(body.contains("\"host_cores\":"), "{}: missing \"host_cores\":", path.display());
    }
}

/// The store artifact must record the v1/v2 space claim its bench gate
/// asserts, so the committed number and the enforced floor travel
/// together, and how many passes its median MB/s figures come from.
#[test]
fn store_artifact_records_the_space_claim() {
    require_fields(
        "BENCH_store.json",
        &["\"v1_bytes\":", "\"v2_bytes\":", "\"v1_over_v2\":", "\"min_required_ratio\": 2"],
    );
    require_fields("BENCH_store.json", &["\"timed_passes\":"]);
}

/// The snapshot, ingest and store artifacts must record the CPU features
/// their numbers were measured with: those compiled in and those the host
/// reports.
#[test]
fn snapshot_artifact_records_target_features() {
    for name in ["BENCH_snapshot.json", "BENCH_ingest.json", "BENCH_store.json"] {
        require_fields(name, &TARGET_FEATURE_FIELDS);
    }
}

/// The snapshot artifact must time the codec's ITEMS path, which every
/// served release takes, next to the mostly-RAW dense `release_db` row.
#[test]
fn snapshot_artifact_records_the_sparse_release_row() {
    require_fields("BENCH_snapshot.json", &["\"name\": \"release_db_basket64\""]);
}

/// The ingest artifact's cold-transpose time is a median over several
/// builds, and it records how many.
#[test]
fn ingest_artifact_records_its_transpose_samples() {
    require_fields("BENCH_ingest.json", &["\"transpose_build_ms\":", "\"transpose_samples\":"]);
}

/// The kernel artifact's speedups mean little without the CPU features
/// either side was built for, and it must carry the tile transpose row
/// that the gate bounds next to the AND family.
#[test]
fn kernel_artifact_records_target_features_and_the_transpose_row() {
    require_fields("BENCH_kernels.json", &TARGET_FEATURE_FIELDS);
    require_fields("BENCH_kernels.json", &["\"kernel\": \"transpose64\""]);
}

/// The serving artifact must record the run's connection shape, so the
/// perf trajectory distinguishes the lone-client cells from the
/// many-connection ones, and its tail latency and answer identity.
#[test]
fn serving_artifact_records_connection_shape() {
    require_fields(
        "BENCH_serving.json",
        &["\"connections\":", "\"pipeline_depth\":", "\"p999_ms\":", "\"identity_checked\": true"],
    );
}
