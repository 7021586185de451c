//! Empirical Euclidean-section measurement — Definition 23 of the paper.
//!
//! A subspace `V ⊆ R^z` is a `(δ, d′, z)` Euclidean section when every
//! `x ∈ V` satisfies `√z‖x‖₂ ≥ ‖x‖₁ ≥ δ√z‖x‖₂`. Lemma 26 asserts the range
//! of a random Hadamard row-product is such a section with constant δ; the
//! LP-decoding argument needs exactly this to control L1 reconstruction.
//!
//! The section constant of a subspace is a minimum over infinitely many
//! directions, so we *estimate* it by sampling: random Gaussian coefficient
//! vectors (a uniform direction in the range). The reported value is an
//! upper bound on δ; the experiment checks it stays bounded away from 0 as
//! dimensions grow.

use crate::matrix::{norm1, norm2};
use crate::Matrix;
use ifs_util::Rng64;

/// The L1/L2 ratio `‖y‖₁ / (√z · ‖y‖₂)` of a vector, the quantity bounded by
/// the Euclidean-section property (1 for the all-equal vector, `1/√z` for a
/// coordinate vector).
pub fn section_ratio(y: &[f64]) -> f64 {
    let n2 = norm2(y);
    if n2 == 0.0 {
        return 1.0;
    }
    norm1(y) / ((y.len() as f64).sqrt() * n2)
}

/// Estimates the section constant δ of `range(A)` by random sampling.
///
/// Draws `samples` Gaussian coefficient vectors `x`, maps through `A`, and
/// returns the smallest ratio seen.
pub fn estimate_delta_sampling(a: &Matrix, samples: usize, rng: &mut Rng64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let x: Vec<f64> = (0..a.cols()).map(|_| rng.gaussian()).collect();
        let y = a.matvec(&x);
        let r = section_ratio(&y);
        if r < best {
            best = r;
        }
    }
    if best.is_finite() {
        best
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_extremes() {
        // All-equal vector achieves ratio 1.
        assert!((section_ratio(&[1.0; 16]) - 1.0).abs() < 1e-12);
        // A coordinate vector achieves 1/sqrt(z).
        let mut e = vec![0.0; 16];
        e[3] = 2.5;
        assert!((section_ratio(&e) - 0.25).abs() < 1e-12);
        // Zero vector: defined as 1 (no direction).
        assert_eq!(section_ratio(&[0.0; 4]), 1.0);
    }

    #[test]
    fn repeated_rows_give_large_delta() {
        // A maps x to (x,x,...,x)/1: every range vector has identical blocks,
        // so the L1/L2 ratio never degenerates; δ stays ≥ ratio of the base.
        let mut stacked_rows = Vec::new();
        for _ in 0..8 {
            stacked_rows.push(vec![1.0, 0.0]);
            stacked_rows.push(vec![0.0, 1.0]);
        }
        let a = Matrix::from_rows(&stacked_rows);
        let mut rng = Rng64::seeded(4);
        let delta = estimate_delta_sampling(&a, 100, &mut rng);
        // Worst case in this range is a coordinate pattern repeated 8 times:
        // ratio = 8 / (sqrt(16)*sqrt(8)) = 0.707…
        assert!(delta > 0.6, "delta {delta}");
    }

    #[test]
    fn estimates_are_upper_bounds_of_truth_for_identity() {
        // For identity the true δ is exactly 1/√z; the estimator may only
        // overestimate.
        let a = Matrix::identity(9);
        let mut rng = Rng64::seeded(5);
        let est = estimate_delta_sampling(&a, 200, &mut rng);
        assert!(est >= 1.0 / 3.0 - 1e-9, "estimate {est} below true min");
    }
}
