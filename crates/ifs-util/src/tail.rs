//! Tail bounds and sample-size calculators (Lemmas 9–11 of the paper).
//!
//! `SUBSAMPLE` (Definition 8) draws `s` rows uniformly with replacement. The
//! paper's Lemma 10 (multiplicative Chernoff) and Lemma 11 (additive
//! Hoeffding) bound the failure probability of the resulting estimates; the
//! four clauses of Lemma 9 then pick `s` for each sketch contract. This
//! module exposes both directions — Lemma 11's failure probability for a
//! given `s`, and the minimal `s` for a target failure probability. Its
//! tests compute exact binomial tails to check that Lemma 11's bound is
//! actually a *bound*.
//!
//! Every sample-size calculator is clamped to at least 1: a sketch of zero
//! rows answers no query (and historically let `Subsample` build an empty
//! sample), so no `(ε, δ, d, k)` combination may round down to `s = 0`.

/// Lemma 11 (additive Hoeffding): `P[X ∉ [p−ε, p+ε]] ≤ 2·exp(−2sε²)`.
pub fn hoeffding_additive_bound(s: u64, eps: f64) -> f64 {
    (2.0 * (-2.0 * s as f64 * eps * eps).exp()).min(1.0)
}

/// Sample count for the **For-Each-Indicator** guarantee (Lemma 9, first
/// clause): `s ≥ 16·ln(2/δ)/ε` suffices to separate `f_T > ε` from
/// `f_T < ε/2` with failure probability ≤ δ.
pub fn samples_foreach_indicator(eps: f64, delta: f64) -> u64 {
    assert!(eps > 0.0 && delta > 0.0 && delta < 1.0);
    ((16.0 * (2.0 / delta).ln() / eps).ceil() as u64).max(1)
}

/// Sample count for the **For-Each-Estimator** guarantee (Lemma 9, second
/// clause): `s ≥ ε⁻²·ln(2/δ)` gives additive error ≤ ε w.p. ≥ 1−δ.
pub fn samples_foreach_estimator(eps: f64, delta: f64) -> u64 {
    assert!(eps > 0.0 && delta > 0.0 && delta < 1.0);
    (((2.0 / delta).ln() / (eps * eps)).ceil() as u64).max(1)
}

/// Sample count for the **For-All-Indicator** guarantee (Lemma 9, third
/// clause): union bound over all `C(d,k)` itemsets.
pub fn samples_forall_indicator(d: u64, k: u64, eps: f64, delta: f64) -> u64 {
    let log_count = crate::combin::log2_binomial(d, k) * std::f64::consts::LN_2;
    assert!(eps > 0.0 && delta > 0.0 && delta < 1.0);
    (((16.0 / eps) * ((2.0f64).ln() + log_count + (1.0 / delta).ln())).ceil() as u64).max(1)
}

/// Sample count for the **For-All-Estimator** guarantee (Lemma 9, fourth
/// clause): union bound over all `C(d,k)` itemsets with additive error.
pub fn samples_forall_estimator(d: u64, k: u64, eps: f64, delta: f64) -> u64 {
    let log_count = crate::combin::log2_binomial(d, k) * std::f64::consts::LN_2;
    assert!(eps > 0.0 && delta > 0.0 && delta < 1.0);
    (((1.0 / (eps * eps)) * ((2.0f64).ln() + log_count + (1.0 / delta).ln())).ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combin::ln_gamma;

    /// Exact `P[Bin(s, p) = j]` computed in log-space.
    fn binomial_pmf(s: u64, p: f64, j: u64) -> f64 {
        if j > s {
            return 0.0;
        }
        if p <= 0.0 {
            return if j == 0 { 1.0 } else { 0.0 };
        }
        if p >= 1.0 {
            return if j == s { 1.0 } else { 0.0 };
        }
        let ln_c =
            ln_gamma((s + 1) as f64) - ln_gamma((j + 1) as f64) - ln_gamma((s - j + 1) as f64);
        (ln_c + j as f64 * p.ln() + (s - j) as f64 * (1.0 - p).ln()).exp()
    }

    /// Exact lower tail `P[Bin(s, p) ≤ j]`.
    fn binomial_cdf(s: u64, p: f64, j: u64) -> f64 {
        (0..=j.min(s)).map(|i| binomial_pmf(s, p, i)).sum::<f64>().min(1.0)
    }

    /// Exact upper tail `P[Bin(s, p) ≥ j]`.
    fn binomial_sf(s: u64, p: f64, j: u64) -> f64 {
        if j == 0 {
            return 1.0;
        }
        (1.0 - binomial_cdf(s, p, j - 1)).max(0.0)
    }

    /// Exact probability that the empirical mean of `s` Bernoulli(p) draws lands
    /// outside `[p − ε, p + ε]` — the quantity Lemma 11 upper-bounds.
    fn exact_additive_failure(s: u64, p: f64, eps: f64) -> f64 {
        let lo = ((p - eps) * s as f64).ceil() as i64 - 1; // largest j with j/s < p-eps
        let hi = ((p + eps) * s as f64).floor() as u64 + 1; // smallest j with j/s > p+eps
        let mut fail = 0.0;
        if lo >= 0 {
            // j/s < p - eps  <=>  j < s(p-eps); include j = lo only if strictly below.
            let mut j = lo as u64;
            if (j as f64) / (s as f64) >= p - eps {
                if j == 0 {
                    j = u64::MAX; // nothing below
                } else {
                    j -= 1;
                }
            }
            if j != u64::MAX {
                fail += binomial_cdf(s, p, j);
            }
        }
        if (hi as f64) / (s as f64) > p + eps {
            fail += binomial_sf(s, p, hi);
        } else {
            fail += binomial_sf(s, p, hi + 1);
        }
        fail.min(1.0)
    }

    #[test]
    fn pmf_sums_to_one() {
        for (s, p) in [(10u64, 0.3), (25, 0.5), (40, 0.05)] {
            let total: f64 = (0..=s).map(|j| binomial_pmf(s, p, j)).sum();
            assert!((total - 1.0).abs() < 1e-9, "s={s} p={p} total={total}");
        }
    }

    #[test]
    fn pmf_degenerate() {
        assert_eq!(binomial_pmf(10, 0.0, 0), 1.0);
        assert_eq!(binomial_pmf(10, 1.0, 10), 1.0);
        assert_eq!(binomial_pmf(10, 0.5, 11), 0.0);
    }

    #[test]
    fn cdf_monotone() {
        let s = 30;
        let p = 0.4;
        let mut prev = 0.0;
        for j in 0..=s {
            let c = binomial_cdf(s, p, j);
            assert!(c >= prev - 1e-12);
            prev = c;
        }
        assert!((prev - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hoeffding_dominates_exact_tail() {
        // Lemma 11 must upper-bound the true failure probability.
        for s in [20u64, 50, 100, 400] {
            for p in [0.1, 0.3, 0.5] {
                for eps in [0.05, 0.1, 0.2] {
                    let exact = exact_additive_failure(s, p, eps);
                    let bound = hoeffding_additive_bound(s, eps);
                    assert!(
                        exact <= bound + 1e-9,
                        "s={s} p={p} eps={eps}: exact {exact} > bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn sample_sizes_scale_as_expected() {
        // For-Each-Estimator is Θ(1/ε²): quadrupling precision multiplies s by ~16.
        let a = samples_foreach_estimator(0.1, 0.05);
        let b = samples_foreach_estimator(0.025, 0.05);
        let ratio = b as f64 / a as f64;
        assert!((ratio - 16.0).abs() < 0.5, "ratio {ratio}");
        // For-Each-Indicator is Θ(1/ε).
        let a = samples_foreach_indicator(0.1, 0.05);
        let b = samples_foreach_indicator(0.025, 0.05);
        let ratio = b as f64 / a as f64;
        assert!((ratio - 4.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn sample_sizes_never_round_to_zero() {
        // Extreme-but-legal parameters must still prescribe >= 1 row: a
        // 0-row sample cannot answer any query. Large ε drives the raw
        // formulas toward 0; δ near 1 shrinks the log terms.
        for eps in [0.5, 1.0, 8.0, 1e6, 1e300] {
            for delta in [0.999_999, 0.5, 1e-12] {
                assert!(samples_foreach_indicator(eps, delta) >= 1, "fei eps={eps} delta={delta}");
                assert!(samples_foreach_estimator(eps, delta) >= 1, "fee eps={eps} delta={delta}");
                for (d, k) in [(1u64, 0u64), (1, 1), (64, 3)] {
                    assert!(samples_forall_indicator(d, k, eps, delta) >= 1, "fai d={d} k={k}");
                    assert!(samples_forall_estimator(d, k, eps, delta) >= 1, "fae d={d} k={k}");
                }
            }
        }
    }

    #[test]
    fn forall_exceeds_foreach() {
        let fe = samples_foreach_estimator(0.1, 0.05);
        let fa = samples_forall_estimator(64, 3, 0.1, 0.05);
        assert!(fa > fe, "union bound must cost extra samples: {fa} vs {fe}");
    }

    #[test]
    fn sampling_guarantee_holds_empirically() {
        // Draw many empirical means at the prescribed s and check the failure
        // rate is below delta.
        use crate::rng::Rng64;
        let (eps, delta) = (0.1, 0.1);
        let s = samples_foreach_estimator(eps, delta);
        let p = 0.37;
        let mut rng = Rng64::seeded(99);
        let trials = 400;
        let mut failures = 0;
        for _ in 0..trials {
            let hits = (0..s).filter(|_| rng.bernoulli(p)).count();
            let mean = hits as f64 / s as f64;
            if (mean - p).abs() > eps {
                failures += 1;
            }
        }
        assert!(
            (failures as f64) < delta * trials as f64,
            "failures {failures}/{trials} exceeds δ={delta}"
        );
    }
}
