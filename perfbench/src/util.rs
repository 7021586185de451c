//! Small shared pieces: percentiles, the span recorder, JSON text and the
//! host record.

use std::fmt::Write as _;
use std::time::Instant;

/// The `p`-th percentile of `values` by nearest rank, or `None` when fewer
/// than ten samples lie beyond it: a tail read from fewer samples than that
/// is noise, so it is not reported at all.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (n >= rank + 10).then(|| sorted[rank - 1])
}

/// Median with no tail requirement, for small repeat counts (set-up
/// repetitions, per-layer reps). `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// One recorded span: a named interval, in nanoseconds since the
/// recorder's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder, one per thread; the per-layer figures are
/// read from it when the traced window ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Vec::with_capacity(1 << 16) }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its handle.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.now();
        self.spans.push(Span { name, start_ns: now, end_ns: now });
        self.spans.len() - 1
    }

    /// Closes the span `begin` returned `handle` for.
    pub fn end(&mut self, handle: usize) {
        let now = self.now();
        self.spans[handle].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let handle = self.begin(name);
        let out = f();
        self.end(handle);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }
}

/// Durations in microseconds of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64 / 1e3).collect()
}

/// A JSON number: shortest round-trip text, `null` for non-finite values.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where the numbers came from: cores, target features and build profile.
pub fn host_record() -> Vec<(&'static str, String)> {
    let online = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut compiled = Vec::new();
    macro_rules! feature {
        ($($f:tt),*) => {$(
            if cfg!(target_feature = $f) {
                compiled.push($f);
            }
        )*};
    }
    feature!("popcnt", "sse4.2", "avx", "avx2", "bmi2", "avx512f", "avx512vpopcntdq", "neon");
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
    vec![
        ("nproc", online.to_string()),
        ("available_parallelism", parallelism.to_string()),
        ("target_arch", std::env::consts::ARCH.to_string()),
        ("target_features_compiled", compiled.join(",")),
        ("cpu_features_detected", detected.join(",")),
        ("build_profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
    ]
}
