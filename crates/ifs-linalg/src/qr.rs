//! Householder QR factorization and least-squares solves.
//!
//! The KRSU-style decoder (§4.1.1 of the paper) reconstructs a database
//! column via `ẑ = A⁺y`, i.e. an L2-distance minimization. For full-column-
//! rank `A` that is exactly the least-squares solve provided here; the
//! rank-deficient case goes through [`crate::svd`]'s pseudo-inverse.

use crate::Matrix;

/// Compact QR factorization of an `m × n` matrix with `m ≥ n`.
///
/// Householder reflectors are stored in the lower trapezoid of `qr`; `R` sits
/// in the upper triangle. `apply_qt` replays the reflectors on a right-hand
/// side without materializing `Q`.
#[derive(Clone, Debug)]
pub struct Qr {
    qr: Matrix,
    betas: Vec<f64>,
}

impl Qr {
    /// Factorizes `a`. Panics if `a.rows() < a.cols()`.
    pub fn factor(a: &Matrix) -> Self {
        let (m, n) = (a.rows(), a.cols());
        assert!(m >= n, "QR requires rows >= cols (got {m}x{n})");
        let mut qr = a.clone();
        let mut betas = vec![0.0; n];
        for k in 0..n {
            // Build the Householder vector for column k below the diagonal.
            let mut norm = 0.0;
            for i in k..m {
                norm += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm.sqrt();
            if norm == 0.0 {
                betas[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            // Normalize so v[k] = 1; beta = -v0/alpha is the standard scaling.
            for i in (k + 1)..m {
                let val = qr[(i, k)] / v0;
                qr[(i, k)] = val;
            }
            betas[k] = -v0 / alpha;
            qr[(k, k)] = alpha;
            // Apply reflector to the remaining columns.
            for j in (k + 1)..n {
                let mut s = qr[(k, j)];
                for i in (k + 1)..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= betas[k];
                qr[(k, j)] -= s;
                for i in (k + 1)..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= s * vik;
                }
            }
        }
        Self { qr, betas }
    }

    /// Applies `Qᵀ` to `b` in place (length must be `m`).
    pub fn apply_qt(&self, b: &mut [f64]) {
        let (m, n) = (self.qr.rows(), self.qr.cols());
        assert_eq!(b.len(), m);
        for k in 0..n {
            if self.betas[k] == 0.0 {
                continue;
            }
            let mut s = b[k];
            for (i, bv) in b.iter().enumerate().take(m).skip(k + 1) {
                s += self.qr[(i, k)] * bv;
            }
            s *= self.betas[k];
            b[k] -= s;
            for (i, bv) in b.iter_mut().enumerate().take(m).skip(k + 1) {
                *bv -= s * self.qr[(i, k)];
            }
        }
    }

    /// Solves the least-squares problem `min ‖Ax − b‖₂`.
    ///
    /// Returns `None` if `R` is numerically singular (|R\[j,j\]| below
    /// `1e-12 · max|R|`), in which case callers should fall back to the SVD
    /// pseudo-inverse.
    pub fn solve_least_squares(&self, b: &[f64]) -> Option<Vec<f64>> {
        let n = self.qr.cols();
        let mut rhs = b.to_vec();
        self.apply_qt(&mut rhs);
        // Back-substitution on R x = rhs[..n].
        let scale = self.qr.max_abs();
        let tol = 1e-12 * scale.max(1.0);
        let mut x = vec![0.0; n];
        for j in (0..n).rev() {
            let mut s = rhs[j];
            for (l, xl) in x.iter().enumerate().take(n).skip(j + 1) {
                s -= self.qr[(j, l)] * xl;
            }
            let diag = self.qr[(j, j)];
            if diag.abs() < tol {
                return None;
            }
            x[j] = s / diag;
        }
        Some(x)
    }
}

/// Convenience wrapper: least-squares solve of `min ‖Ax − b‖₂`.
pub fn least_squares(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    Qr::factor(a).solve_least_squares(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::norm2;
    use ifs_util::Rng64;

    /// The residual norm `‖Ax − b‖₂` for a candidate solution — the
    /// independent check that a solve minimises it.
    fn residual_norm(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec(x);
        let diff: Vec<f64> = ax.iter().zip(b).map(|(p, q)| p - q).collect();
        norm2(&diff)
    }

    #[test]
    fn solves_square_system_exactly() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0, 0.0], vec![1.0, 3.0, 1.0], vec![0.0, 1.0, 4.0]]);
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let x = least_squares(&a, &b).expect("nonsingular");
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10, "{x:?}");
        }
    }

    #[test]
    fn overdetermined_consistent_system() {
        // 6 equations, 3 unknowns, consistent by construction.
        let mut rng = Rng64::seeded(7);
        let a = Matrix::from_fn(6, 3, |_, _| rng.gaussian());
        let x_true = vec![0.3, -1.1, 2.0];
        let b = a.matvec(&x_true);
        let x = least_squares(&a, &b).expect("full rank whp");
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn least_squares_minimizes_residual() {
        // Inconsistent system: solution must beat nearby perturbations.
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]]);
        let b = vec![1.0, 3.0, 5.0];
        let x = least_squares(&a, &b).unwrap();
        // Analytic answer: x = (2, 5).
        assert!((x[0] - 2.0).abs() < 1e-10 && (x[1] - 5.0).abs() < 1e-10);
        let base = residual_norm(&a, &x, &b);
        for d in [[1e-3, 0.0], [0.0, 1e-3], [-1e-3, 1e-3]] {
            let xp = vec![x[0] + d[0], x[1] + d[1]];
            assert!(residual_norm(&a, &xp, &b) >= base - 1e-12);
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(least_squares(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn qt_preserves_norm() {
        let mut rng = Rng64::seeded(9);
        let a = Matrix::from_fn(8, 5, |_, _| rng.gaussian());
        let qr = Qr::factor(&a);
        let b: Vec<f64> = (0..8).map(|_| rng.gaussian()).collect();
        let mut tb = b.clone();
        qr.apply_qt(&mut tb);
        assert!((norm2(&b) - norm2(&tb)).abs() < 1e-10, "Q must be orthogonal");
    }

    #[test]
    #[should_panic(expected = "rows >= cols")]
    fn underdetermined_panics() {
        Qr::factor(&Matrix::zeros(2, 3));
    }
}
