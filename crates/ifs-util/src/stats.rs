//! Summary statistics and asymptotic-slope estimation.
//!
//! EXPERIMENTS.md validates asymptotic claims (e.g. "recovered bits grow as
//! Θ(1/ε)") by fitting the slope of `log y` against `log x` over a geometric
//! parameter ladder; [`loglog_slope`] is that fit. The rest are the summary
//! helpers the tables binary uses.

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance; `NaN` if fewer than two points.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median (average of middle two for even length); `NaN` if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Empirical quantile by linear interpolation, `q ∈ [0,1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        v[lo] + (pos - lo as f64) * (v[hi] - v[lo])
    }
}

/// Ordinary least squares fit `y = a + b·x`; returns `(a, b)`.
pub fn ols(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "need at least two points for a line");
    let mx = mean(xs);
    let my = mean(ys);
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let b = sxy / sxx;
    (my - b * mx, b)
}

/// Slope of `log2 y` against `log2 x` — the measured exponent of a power law.
///
/// Points with non-positive coordinates are skipped (they carry no power-law
/// information).
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    let pts: (Vec<f64>, Vec<f64>) = xs
        .iter()
        .zip(ys)
        .filter(|(&x, &y)| x > 0.0 && y > 0.0)
        .map(|(&x, &y)| (x.log2(), y.log2()))
        .unzip();
    ols(&pts.0, &pts.1).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_median_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(variance(&[4.0; 10]), 0.0);
    }

    #[test]
    fn quantile_endpoints() {
        let xs = [10.0, 20.0, 30.0];
        assert_eq!(quantile(&xs, 0.0), 10.0);
        assert_eq!(quantile(&xs, 1.0), 30.0);
        assert_eq!(quantile(&xs, 0.5), 20.0);
    }

    #[test]
    fn ols_recovers_exact_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let (a, b) = ols(&xs, &ys);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
    }

    #[test]
    fn loglog_slope_of_power_law() {
        let xs: Vec<f64> = (1..=6).map(|i| (1 << i) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 5.0 * x.powf(1.5)).collect();
        let slope = loglog_slope(&xs, &ys);
        assert!((slope - 1.5).abs() < 1e-9, "slope {slope}");
    }
}
