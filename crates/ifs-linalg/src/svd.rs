//! One-sided Jacobi singular value decomposition.
//!
//! Lemma 26 of the paper (Rudelson) asserts that the Hadamard row-product of
//! independent random 0/1 matrices has smallest singular value
//! `σ_min = Ω(√(d^{k−1}))` with high probability. Experiment E8 samples that
//! ensemble and *measures* σ_min, which requires an SVD that is accurate for
//! small singular values. One-sided Jacobi iteration is the standard choice
//! for high relative accuracy: it orthogonalizes the columns of `A` by plane
//! rotations; on convergence the column norms are the singular values.

use crate::matrix::norm2;
use crate::Matrix;

/// Result of [`decompose`]: `A = U · diag(σ) · Vᵀ` with `σ` non-increasing.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, `m × r` where `r = min(m, n)` (columns).
    pub u: Matrix,
    /// Singular values in non-increasing order, length `min(m, n)`.
    pub sigma: Vec<f64>,
    /// Right singular vectors, `n × r` (columns).
    pub v: Matrix,
}

impl Svd {
    /// Smallest singular value (0 when the matrix has a nontrivial kernel in
    /// the square case; for `m ≥ n` this is `σ_n`, the Lemma 26 quantity).
    pub fn sigma_min(&self) -> f64 {
        self.sigma.last().copied().unwrap_or(0.0)
    }

    /// Largest singular value (spectral norm).
    pub fn sigma_max(&self) -> f64 {
        self.sigma.first().copied().unwrap_or(0.0)
    }

    /// Applies the pseudo-inverse to a vector without forming the matrix.
    pub fn pinv_apply(&self, b: &[f64], tol: f64) -> Vec<f64> {
        let cutoff = tol * self.sigma_max();
        let utb = self.u.t_matvec(b);
        let mut scaled: Vec<f64> = utb
            .iter()
            .zip(&self.sigma)
            .map(|(c, &s)| if s > cutoff { c / s } else { 0.0 })
            .collect();
        // Pad in case r < sigma.len() mismatch (never by construction).
        scaled.resize(self.sigma.len(), 0.0);
        self.v.matvec(&scaled)
    }
}

/// Computes the SVD of `a` by one-sided Jacobi iteration.
///
/// Handles arbitrary shapes by transposing internally so the iteration runs
/// on an `m ≥ n` matrix. Converges when every column pair is orthogonal to
/// relative tolerance `1e-12`, with a generous sweep cap.
pub fn decompose(a: &Matrix) -> Svd {
    if a.rows() < a.cols() {
        // SVD(Aᵀ) = (V, σ, U).
        let t = decompose(&a.transpose());
        return Svd { u: t.v, sigma: t.sigma, v: t.u };
    }
    let m = a.rows();
    let n = a.cols();
    // Work on columns: w is m×n, v accumulates right rotations (n×n).
    let mut w = a.clone();
    let mut v = Matrix::identity(n);
    let tol = 1e-12;
    let max_sweeps = 64;
    for _ in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for i in 0..m {
                    let wp = w[(i, p)];
                    let wq = w[(i, q)];
                    app += wp * wp;
                    aqq += wq * wq;
                    apq += wp * wq;
                }
                if apq.abs() <= tol * (app * aqq).sqrt() || apq == 0.0 {
                    continue;
                }
                off = off.max(apq.abs() / (app * aqq).sqrt().max(f64::MIN_POSITIVE));
                // Jacobi rotation zeroing the (p,q) Gram entry.
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let wp = w[(i, p)];
                    let wq = w[(i, q)];
                    w[(i, p)] = c * wp - s * wq;
                    w[(i, q)] = s * wp + c * wq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if off <= tol {
            break;
        }
    }
    // Singular values are the column norms; U columns are normalized w.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = (0..n).map(|j| norm2(&w.col(j))).collect();
    order.sort_by(|&i, &j| norms[j].partial_cmp(&norms[i]).expect("no NaN singular values"));
    let mut u = Matrix::zeros(m, n);
    let mut vv = Matrix::zeros(n, n);
    let mut sigma = Vec::with_capacity(n);
    for (out_j, &j) in order.iter().enumerate() {
        let s = norms[j];
        sigma.push(s);
        for i in 0..m {
            u[(i, out_j)] = if s > 0.0 { w[(i, j)] / s } else { 0.0 };
        }
        for i in 0..n {
            vv[(i, out_j)] = v[(i, j)];
        }
    }
    Svd { u, sigma, v: vv }
}

/// Largest singular value via power iteration on `AᵀA` (`σ_max = ‖Ay‖` at
/// the converged unit vector `y`) — the independent reference that checks
/// Jacobi's `σ_max`.
#[cfg(test)]
fn sigma_max_power(a: &Matrix, iters: usize, rng: &mut ifs_util::Rng64) -> f64 {
    let n = a.cols();
    if n == 0 || a.rows() == 0 {
        return 0.0;
    }
    let mut x: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
    let nx = norm2(&x).max(f64::MIN_POSITIVE);
    x.iter_mut().for_each(|v| *v /= nx);
    let mut sigma = 0.0;
    for _ in 0..iters {
        let ax = a.matvec(&x);
        let mut y = a.t_matvec(&ax);
        let ny = norm2(&y);
        if ny == 0.0 {
            return 0.0;
        }
        y.iter_mut().for_each(|v| *v /= ny);
        sigma = norm2(&a.matvec(&y));
        x = y;
    }
    sigma
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifs_util::Rng64;

    fn reconstruct(svd: &Svd) -> Matrix {
        let r = svd.sigma.len();
        let mut us = svd.u.clone();
        for j in 0..r {
            for i in 0..us.rows() {
                us[(i, j)] *= svd.sigma[j];
            }
        }
        us.matmul(&svd.v.transpose())
    }

    #[test]
    fn diagonal_matrix_svd() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]);
        let svd = decompose(&a);
        assert!((svd.sigma[0] - 4.0).abs() < 1e-10);
        assert!((svd.sigma[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_error_small() {
        let mut rng = Rng64::seeded(11);
        for (m, n) in [(6usize, 4usize), (4, 6), (5, 5), (10, 3)] {
            let a = Matrix::from_fn(m, n, |_, _| rng.gaussian());
            let svd = decompose(&a);
            let err = reconstruct(&svd).sub(&a).max_abs();
            assert!(err < 1e-9, "{m}x{n}: reconstruction error {err}");
        }
    }

    #[test]
    fn singular_values_nonincreasing_and_nonnegative() {
        let mut rng = Rng64::seeded(12);
        let a = Matrix::from_fn(8, 6, |_, _| rng.gaussian());
        let svd = decompose(&a);
        assert!(svd.sigma.windows(2).all(|w| w[0] >= w[1] - 1e-12));
        assert!(svd.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn rank_deficient_detected() {
        // Rank-1 matrix.
        let a = Matrix::from_fn(5, 4, |r, c| ((r + 1) * (c + 1)) as f64);
        let svd = decompose(&a);
        // One singular value carries the matrix; the rest vanish.
        assert!(svd.sigma_max() > 1.0);
        assert!(svd.sigma[1..].iter().all(|&s| s < 1e-9 * svd.sigma_max()));
    }

    #[test]
    fn orthogonality_of_factors() {
        let mut rng = Rng64::seeded(13);
        let a = Matrix::from_fn(7, 5, |_, _| rng.gaussian());
        let svd = decompose(&a);
        let utu = svd.u.transpose().matmul(&svd.u);
        let vtv = svd.v.transpose().matmul(&svd.v);
        let id = Matrix::identity(5);
        assert!(utu.sub(&id).max_abs() < 1e-9, "UᵀU ≠ I");
        assert!(vtv.sub(&id).max_abs() < 1e-9, "VᵀV ≠ I");
    }

    #[test]
    fn pseudo_inverse_solves_full_rank_system() {
        let mut rng = Rng64::seeded(14);
        let a = Matrix::from_fn(6, 4, |_, _| rng.gaussian());
        let x_true = vec![1.0, -0.5, 2.0, 0.25];
        let b = a.matvec(&x_true);
        let svd = decompose(&a);
        let x = svd.pinv_apply(&b, 1e-10);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8);
        }
    }

    #[test]
    fn power_iteration_matches_jacobi_sigma_max() {
        let mut rng = Rng64::seeded(15);
        let a = Matrix::from_fn(12, 9, |_, _| rng.gaussian());
        let svd = decompose(&a);
        let pm = sigma_max_power(&a, 200, &mut rng);
        assert!(
            (pm - svd.sigma_max()).abs() < 1e-6 * svd.sigma_max(),
            "power {pm} vs jacobi {}",
            svd.sigma_max()
        );
    }

    #[test]
    fn wide_matrix_transposed_correctly() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 2.0, 0.0]]);
        let svd = decompose(&a);
        assert_eq!(svd.sigma.len(), 2);
        assert!((svd.sigma[0] - 2.0).abs() < 1e-10);
        assert!((svd.sigma[1] - 1.0).abs() < 1e-10);
        assert_eq!(svd.u.rows(), 2);
        assert_eq!(svd.v.rows(), 3);
    }
}
