//! Bench gate: the wide AND+popcount kernels and the 64×64 tile transpose
//! against their scalar reference twins (DESIGN.md §12).
//!
//! Every hot loop in the workspace — the sharded engine's supports and
//! tid-set builds — bottoms out in `ifs_util::bits`, so this bench
//! measures exactly those kernels in isolation: L2-resident operands,
//! deterministic contents, best-of-N wall-clock per kernel with the scalar
//! and wide samples interleaved, so a noisy neighbor or a drift in host
//! load cannot fail the gate spuriously. Two things are asserted on every
//! run (debug smoke included) before anything is timed:
//!
//! 1. **Bit-identity** — each wide kernel returns exactly what its scalar
//!    reference returns on the same operands (the repo-wide determinism
//!    contract: execution strategy, never semantics).
//! 2. **Fusion identity** — the fused `and3_count` equals its unfused
//!    composition.
//!
//! The release gate then requires the `and_count` family (the rows whose
//! name starts with `and`: the two- and three-operand intersection counts)
//! to run at **≥ 2×** the scalar baseline measured in the same process —
//! the ROADMAP item-4 target —
//! and the tile transpose behind every tid-set build (`transpose64`) to
//! run at **≥ 2×** its per-bit reference. The debug smoke pass skips the
//! ratios (unoptimized builds do not vectorize either side) but still
//! checks identity.
//!
//! Emits `bench_results/BENCH_kernels.json` from a release build; CI
//! regenerates it and gates on `"mode": "release"` like the other four
//! artifacts (`BENCH_ingest`, `BENCH_snapshot`, `BENCH_store` and
//! `BENCH_serving`).
//!
//! Run with `cargo bench -p ifs-bench --bench kernel_throughput` (release)
//! or `cargo test --benches` (debug smoke).

use ifs_bench::write_bench_json;
use ifs_util::{bits, Rng64};
use std::hint::black_box;
use std::time::Instant;

/// Operand size: 4096 words = 32 KiB per slice, so two or three operands
/// stay L2-resident and the measurement is kernel-bound, not RAM-bound
/// (cache blocking is what keeps the *real* workload at this operating
/// point; no bench times block sizes, and `tests/kernel_identity.rs`
/// checks that every block size answers identically).
const WORDS: usize = 4096;
/// An odd tail so every timed run also exercises the ragged remainder.
const TAIL: usize = 3;
/// Inner repetitions per timed sample.
const REPS: usize = if cfg!(debug_assertions) { 4 } else { 400 };
/// Timed samples per kernel; best-of wins (minimum is the right statistic
/// for a throughput kernel — everything above it is interference).
const SAMPLES: usize = if cfg!(debug_assertions) { 2 } else { 7 };

fn operands() -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let mut rng = Rng64::seeded(0xB17_5EED);
    let n = WORDS + TAIL;
    let a: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let b: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let c: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    (a, b, c)
}

/// One timed sample: wall clock for `REPS` invocations of `f`, in seconds.
fn time_once(f: &mut impl FnMut() -> usize) -> f64 {
    let t = Instant::now();
    let mut sink = 0usize;
    for _ in 0..REPS {
        sink = sink.wrapping_add(black_box(f()));
    }
    let dt = t.elapsed().as_secs_f64();
    black_box(sink);
    dt
}

struct Measured {
    name: &'static str,
    scalar_mword_s: f64,
    wide_mword_s: f64,
    speedup: f64,
}

/// Times `scalar` against `wide`, each of which processes `words` words
/// per invocation.
fn measure(
    name: &'static str,
    words: usize,
    mut scalar: impl FnMut() -> usize,
    mut wide: impl FnMut() -> usize,
) -> Measured {
    // Best of `SAMPLES` per side, the two sides interleaved sample by
    // sample so a drift in host load lands on both of them.
    let (mut scalar_s, mut wide_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SAMPLES {
        scalar_s = scalar_s.min(time_once(&mut scalar));
        wide_s = wide_s.min(time_once(&mut wide));
    }
    let words_per_run = (words * REPS) as f64;
    Measured {
        name,
        scalar_mword_s: words_per_run / scalar_s / 1e6,
        wide_mword_s: words_per_run / wide_s / 1e6,
        speedup: scalar_s / wide_s.max(1e-12),
    }
}

/// Bit-identity between every wide kernel and its scalar reference, on the
/// bench operands *and* on adversarial lengths (empty, sub-chunk, ragged).
fn assert_kernel_identity(a: &[u64], b: &[u64], c: &[u64]) {
    for len in [0usize, 1, 3, 4, 5, 8, 11, 64, 65, a.len()] {
        let (a, b, c) = (&a[..len], &b[..len], &c[..len]);
        assert_eq!(bits::count_ones(a), bits::scalar::count_ones(a), "count_ones len {len}");
        assert_eq!(bits::and_count(a, b), bits::scalar::and_count(a, b), "and_count len {len}");
        assert_eq!(bits::is_subset(a, b), bits::scalar::is_subset(a, b), "is_subset len {len}");
        assert_eq!(
            bits::and3_count(a, b, c),
            bits::scalar::and3_count(a, b, c),
            "and3_count len {len}"
        );
        let mut wide = a.to_vec();
        let mut narrow = a.to_vec();
        bits::and_assign(&mut wide, b);
        bits::scalar::and_assign(&mut narrow, b);
        assert_eq!(wide, narrow, "and_assign len {len}");
        let mut wide_w = vec![0u64; len];
        let mut narrow_w = vec![0u64; len];
        bits::and_write(&mut wide_w, a, b);
        bits::scalar::and_write(&mut narrow_w, a, b);
        assert_eq!(wide_w, narrow_w, "and_write len {len}");
    }
    for (i, tile) in tiles(a).iter().enumerate() {
        let (mut wide, mut narrow) = (*tile, *tile);
        bits::transpose64(&mut wide);
        bits::scalar::transpose64(&mut narrow);
        assert_eq!(wide, narrow, "transpose64 tile {i}");
    }
}

/// The whole 64-word tiles of `words` — the transpose rows' operands.
fn tiles(words: &[u64]) -> Vec<[u64; 64]> {
    words.chunks_exact(64).map(|c| c.try_into().expect("a 64-word chunk")).collect()
}

fn main() {
    let (a, b, z) = operands();
    assert_kernel_identity(&a, &b, &z);

    let mut scratch = vec![0u64; a.len()];
    let measured = vec![
        measure(
            "count_ones",
            WORDS + TAIL,
            || bits::scalar::count_ones(black_box(&a)),
            || bits::count_ones(black_box(&a)),
        ),
        measure(
            "and_count",
            WORDS + TAIL,
            || bits::scalar::and_count(black_box(&a), black_box(&b)),
            || bits::and_count(black_box(&a), black_box(&b)),
        ),
        // The fused 3-way kernel against the *unfused composition with a
        // reused scratch buffer* — i.e. the strongest scalar opponent, the
        // exact sequence the support kernel ran for k = 3 before fusion.
        measure(
            "and3_count",
            WORDS + TAIL,
            {
                let scratch = &mut scratch;
                let (a, b, z) = (&a, &b, &z);
                move || {
                    scratch.copy_from_slice(black_box(a));
                    bits::scalar::and_assign(scratch, black_box(b));
                    bits::scalar::and_count(scratch, black_box(z))
                }
            },
            || bits::and3_count(black_box(&a), black_box(&b), black_box(&z)),
        ),
        // The tid-set build's tile kernel against the per-bit transpose,
        // over the `WORDS / 64` whole tiles of `a`, in place (transposing
        // a tile twice restores it, so every rep does the same work).
        measure(
            "transpose64",
            WORDS,
            {
                let mut tiles = tiles(&a);
                move || {
                    for t in &mut tiles {
                        bits::scalar::transpose64(black_box(t));
                    }
                    tiles[0][0] as usize
                }
            },
            {
                let mut tiles = tiles(&a);
                move || {
                    for t in &mut tiles {
                        bits::transpose64(black_box(t));
                    }
                    tiles[0][0] as usize
                }
            },
        ),
    ];

    for m in &measured {
        println!(
            "kernel_throughput: {:>14}  scalar {:>8.1} Mwords/s  wide {:>8.1} Mwords/s  \
             ({:.2}x)",
            m.name, m.scalar_mword_s, m.wide_mword_s, m.speedup
        );
    }
    let min_and_family = measured
        .iter()
        .filter(|m| m.name.starts_with("and"))
        .map(|m| m.speedup)
        .fold(f64::INFINITY, f64::min);
    let transpose = measured.iter().find(|m| m.name == "transpose64").expect("transpose64 row");
    let kernels: Vec<String> = measured
        .iter()
        .map(|m| {
            format!(
                "    {{ \"kernel\": \"{}\", \"scalar_mwords_per_sec\": {:.1}, \
                 \"wide_mwords_per_sec\": {:.1}, \"speedup\": {:.2} }}",
                m.name, m.scalar_mword_s, m.wide_mword_s, m.speedup
            )
        })
        .collect();
    let fields = format!(
        "  \"words\": {},\n  \"identity_checked\": true,\n  \
         \"min_and_family_speedup\": {min_and_family:.2},\n  \"kernels\": [\n{}\n  ]",
        WORDS + TAIL,
        kernels.join(",\n")
    );
    write_bench_json("kernel_throughput", "BENCH_kernels.json", &fields);
    // Unoptimized builds vectorize neither side, so the ratio is only
    // meaningful — and only gated — in release; identity is gated always.
    if !cfg!(debug_assertions) {
        assert!(
            min_and_family >= 2.0,
            "and_count-family kernels must be >= 2x the scalar baseline in release, \
             got {min_and_family:.2}x"
        );
        assert!(
            transpose.speedup >= 2.0,
            "transpose64 must be >= 2x its per-bit reference in release, got {:.2}x",
            transpose.speedup
        );
    }
}
