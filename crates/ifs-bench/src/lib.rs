//! Experiment harness: regenerates every table/series in EXPERIMENTS.md.
//!
//! The paper has no measurement tables of its own (it is a theory paper);
//! the reproducible artifacts are the theorem-shaped quantities listed in
//! DESIGN.md §4 (experiments E1–E13). Each `eN` function returns one or
//! more [`ifs_util::table::Table`]s; the `tables` binary renders them to
//! stdout and CSV files under `bench_results/`.
//!
//! The bench gates (in `benches/`, plain `harness = false` programs) time
//! the engine, ingest, codec, store and serving layers against their
//! bounds; the tables here cover the *space and accuracy* dimensions,
//! which is what the paper is about.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod e_encoding;
pub mod e_estimator;
pub mod e_naive;
pub mod e_workloads;

use ifs_util::table::Table;

/// All experiment ids in order.
pub const ALL_EXPERIMENTS: [&str; 13] =
    ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13"];

/// Runs one experiment by id.
pub fn run(id: &str) -> Vec<Table> {
    match id {
        "e1" => e_naive::e1_naive_sizes(),
        "e2" => e_naive::e2_subsample_accuracy(),
        "e3" => e_encoding::e3_thm13_attack(),
        "e4" => e_encoding::e4_index_game(),
        "e5" => e_encoding::e5_shattering(),
        "e6" => e_encoding::e6_thm15_core(),
        "e7" => e_encoding::e7_amplification(),
        "e8" => e_estimator::e8_lp_decoding(),
        "e9" => e_naive::e9_median_boost(),
        "e10" => e_naive::e10_tightness(),
        "e11" => e_workloads::e11_streaming_vs_sampling(),
        "e12" => e_workloads::e12_mining_on_sketch(),
        "e13" => e_workloads::e13_biclique(),
        other => panic!("unknown experiment id '{other}'; known: {ALL_EXPERIMENTS:?}"),
    }
}

/// Writes a bench gate's artifact `bench_results/{file}` at the workspace
/// root, as hand-rolled JSON (DESIGN.md §6: no serde). The object opens
/// with `"bench"`, `"mode"`, `"host_cores"`, `"target_features_compiled"`
/// and `"cpu_features_detected"`, then `fields`: the bench's own members,
/// one per line, indented two spaces, comma-separated, with no trailing
/// comma. Only a release build writes the file; a debug smoke
/// prints the JSON instead, so it never overwrites a committed artifact
/// with unoptimized numbers. A write failure is printed, not raised, so it
/// never fails the gate that measured the numbers.
pub fn write_bench_json(bench: &str, file: &str, fields: &str) {
    let mode = if cfg!(debug_assertions) { "debug" } else { "release" };
    let (compiled, detected) = target_features();
    let json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"mode\": \"{mode}\",\n  \"host_cores\": {},\n  \
         \"target_features_compiled\": \"{compiled}\",\n  \
         \"cpu_features_detected\": \"{detected}\",\n{fields}\n}}\n",
        ifs_util::threads::host_cores()
    );
    if cfg!(debug_assertions) {
        print!("{bench}: debug build, {file} not written:\n{json}");
        return;
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    let path = dir.join(file);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("{bench}: wrote {}", path.display()),
        Err(e) => eprintln!("{bench}: cannot write {}: {e}", path.display()),
    }
}

/// The kernel-relevant CPU features as two comma-separated lists: those
/// this binary was compiled to assume (`cfg!(target_feature)`), and those
/// the running CPU reports (`is_x86_feature_detected!`, x86-64 only; empty
/// elsewhere). A throughput number means little without both: the same
/// source runs scalar or wide depending on the first, and the second says
/// what the host could have used.
fn target_features() -> (String, String) {
    let mut compiled: Vec<&str> = Vec::new();
    macro_rules! compiled {
        ($($f:tt),*) => {$(
            if cfg!(target_feature = $f) {
                compiled.push($f);
            }
        )*};
    }
    compiled!("popcnt", "sse4.2", "avx", "avx2", "bmi2", "avx512f", "avx512vpopcntdq", "neon");
    #[allow(unused_mut)]
    let mut detected: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! detect {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    detected.push($f);
                }
            )*};
        }
        detect!("popcnt", "sse4.2", "avx", "avx2", "bmi2", "avx512f", "avx512vpopcntdq");
    }
    (compiled.join(","), detected.join(","))
}
