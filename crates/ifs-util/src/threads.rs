//! Thread-count plumbing for the parallel execution layer (DESIGN.md §8).
//!
//! Every parallel code path in the workspace takes an explicit thread-count
//! knob defaulting to 1, and its results are required to be bit-identical
//! to the serial path at every thread count. This module holds the helpers
//! that keep that knob consistent across crates: clamping, the
//! `IFS_THREADS` environment override the integration suites (and CI's
//! determinism matrix) use to re-run every test under a different worker
//! count, the host's core count ([`host_cores`]), and the index work queue
//! ([`parallel_map_indexed`]), the one executor behind every "race for
//! work, assemble results in order" site (shard builds, the sharded
//! engine's query-batch chunks, and the chunked ingestion folds of
//! `ifs_core::streaming`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Hard cap on worker threads: far above any sensible setting, low enough
/// that a typo (`IFS_THREADS=1000000`) cannot exhaust the process.
pub const MAX_THREADS: usize = 256;

/// Normalizes a requested thread count: `0` means "one thread" (the serial
/// path), and requests above [`MAX_THREADS`] are clamped down.
#[inline]
pub fn clamp_threads(threads: usize) -> usize {
    threads.clamp(1, MAX_THREADS)
}

/// The host's available parallelism, clamped like [`clamp_threads`]; 1
/// when the platform cannot say.
///
/// Read once per process: on Linux each
/// [`available_parallelism`](std::thread::available_parallelism) call
/// reads cgroup files, and a server resolves this on every admission.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES
        .get_or_init(|| clamp_threads(std::thread::available_parallelism().map_or(1, |n| n.get())))
}

/// A worker-count environment value that did not parse as an integer.
///
/// Carries the variable name and the offending value, and its
/// [`Display`](std::fmt::Display) text names both plus the accepted
/// range, so a process that refuses to start — or a test suite that
/// panics on it — says exactly what was malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadsParseError {
    /// The environment variable that carried the value.
    pub var: String,
    /// The malformed value, verbatim.
    pub value: String,
}

impl std::fmt::Display for ThreadsParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} must be an integer in 0..={MAX_THREADS} (0 means serial), \
             got {:?} — unset it to default to 1 thread",
            self.var, self.value
        )
    }
}

impl std::error::Error for ThreadsParseError {}

/// Parses the value of the worker-count variable `var` (`IFS_THREADS`),
/// clamping it like [`clamp_threads`]. A value
/// that is not an integer refuses with a [`ThreadsParseError`] naming
/// `var`: silently falling back to serial would skip exactly the
/// configuration the knob exists to select.
pub fn parse_threads(var: &str, value: &str) -> Result<usize, ThreadsParseError> {
    match value.trim().parse::<usize>() {
        Ok(n) => Ok(clamp_threads(n)),
        Err(_) => Err(ThreadsParseError { var: var.to_owned(), value: value.to_owned() }),
    }
}

/// Reads the worker-count environment variable `var`: `Ok(None)` when
/// unset (the caller picks its own default), `Ok(Some(clamped))` when
/// well-formed, and the [`parse_threads`] refusal when set but malformed.
///
/// The integration suites build their sketches and miners with
/// `IFS_THREADS` (default 1), so CI can run the same tests under
/// `IFS_THREADS=1` and `IFS_THREADS=4` and enforce the determinism
/// contract on every push.
pub fn env_threads(var: &str) -> Result<Option<usize>, ThreadsParseError> {
    match std::env::var(var) {
        Ok(v) => parse_threads(var, &v).map(Some),
        Err(_) => Ok(None),
    }
}

/// Maps `f` over `0..n` with up to `threads` workers, returning results in
/// index order.
///
/// Workers drain an atomic index queue (good load balance when per-index
/// cost varies, as with mining subtrees) and each result lands in the slot
/// of its index, so the assembled vector is independent of scheduling —
/// identical to the serial `(0..n).map(f)` at every thread count.
/// `threads <= 1` (or `n <= 1`) runs exactly that serial map, with no
/// queue, locks, or spawned threads.
pub fn parallel_map_indexed<R: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let threads = clamp_threads(threads).min(n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().expect("result slot poisoned") = Some(f(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned").expect("worker filled slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_means_serial() {
        assert_eq!(clamp_threads(0), 1);
    }

    #[test]
    fn sane_values_pass_through() {
        assert_eq!(clamp_threads(1), 1);
        assert_eq!(clamp_threads(4), 4);
        assert_eq!(clamp_threads(8), 8);
    }

    #[test]
    fn absurd_values_are_capped() {
        assert_eq!(clamp_threads(usize::MAX), MAX_THREADS);
    }

    #[test]
    fn env_default_is_one() {
        // The test harness does not set IFS_THREADS for unit tests; if a
        // developer exports it the value must still be clamped and sane.
        let t = env_threads("IFS_THREADS").expect("unset or well-formed").unwrap_or(1);
        assert!((1..=MAX_THREADS).contains(&t));
    }

    #[test]
    fn parse_accepts_integers_and_clamps() {
        assert_eq!(parse_threads("IFS_THREADS", "0"), Ok(1));
        assert_eq!(parse_threads("IFS_THREADS", " 4 "), Ok(4));
        assert_eq!(parse_threads("IFS_THREADS", "999999"), Ok(MAX_THREADS));
    }

    #[test]
    fn parse_rejects_negative_values() {
        let err = parse_threads("IFS_THREADS", "-3").expect_err("negative");
        assert!(err.to_string().contains("got \"-3\""), "{err}");
    }

    /// The refusal names the variable, the offending value and the
    /// accepted range, so a malformed worker-count variable is
    /// diagnosable from the message alone, whatever it is called.
    #[test]
    fn named_var_parse_names_the_variable() {
        assert_eq!(parse_threads("MY_WORKERS", "8"), Ok(8));
        let err = parse_threads("MY_WORKERS", "many").expect_err("malformed");
        assert_eq!(err.var, "MY_WORKERS");
        assert_eq!(err.value, "many");
        let msg = err.to_string();
        assert!(msg.starts_with("MY_WORKERS"), "{msg}");
        assert!(msg.contains("in 0..=256 (0 means serial), got \"many\""), "{msg}");
    }

    #[test]
    fn named_env_var_is_none_when_unset() {
        assert_eq!(
            env_threads("IFS_THREADS_SURELY_UNSET_IN_ANY_HARNESS"),
            Ok(None),
            "an unset variable must let the caller pick its own default"
        );
    }

    #[test]
    fn parallel_map_matches_serial_map() {
        let f = |i: usize| i * i + 1;
        let serial: Vec<usize> = (0..37).map(f).collect();
        for threads in [0usize, 1, 2, 3, 8, 64] {
            assert_eq!(parallel_map_indexed(37, threads, f), serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_edge_sizes() {
        for n in [0usize, 1, 2] {
            let serial: Vec<usize> = (0..n).collect();
            assert_eq!(parallel_map_indexed(n, 4, |i| i), serial, "n={n}");
        }
    }

    #[test]
    fn parallel_map_balances_uneven_work() {
        // Index 0 is much slower than the rest; the queue must still fill
        // every slot with the right value.
        let out = parallel_map_indexed(16, 4, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i * 3
        });
        assert_eq!(out, (0..16).map(|i| i * 3).collect::<Vec<_>>());
    }
}
