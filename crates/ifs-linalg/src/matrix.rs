//! Row-major dense matrix.

use ifs_util::Rng64;

/// A dense `rows × cols` matrix of `f64`, stored row-major.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a per-cell closure.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds from nested rows (all rows must have equal length).
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Self { rows: r, cols: c, data: rows.concat() }
    }

    /// Random 0/1 matrix with i.i.d. unbiased entries — the ensemble of
    /// Lemma 26.
    pub fn random_binary(rows: usize, cols: usize, rng: &mut Rng64) -> Self {
        Self::from_fn(rows, cols, |_, _| if rng.bernoulli(0.5) { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Column `c` copied into a vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Matrix–vector product `A·x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows).map(|r| self.row(r).iter().zip(x).map(|(a, b)| a * b).sum()).collect()
    }

    /// Transposed product `Aᵀ·x`.
    pub fn t_matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "t_matvec dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            for (o, a) in out.iter_mut().zip(self.row(r)) {
                *o += a * xr;
            }
        }
        out
    }

    /// Matrix product `A·B` — the tests' reconstruction of a decomposition.
    #[cfg(test)]
    pub(crate) fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(r);
                for (o, b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Entry-wise difference `self − other`.
    #[cfg(test)]
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Raw data (row-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(10) {
                write!(f, " {:9.4}", self[(r, c)])?;
            }
            writeln!(f, "{}]", if self.cols > 10 { " …" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  … ({} more rows)", self.rows - 8)?;
        }
        Ok(())
    }
}

/// Euclidean norm of a vector.
pub fn norm2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// L1 norm of a vector.
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_id() {
        let m = Matrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(m.matvec(&x), x);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn t_matvec_matches_transpose_matvec() {
        let m = Matrix::from_fn(3, 4, |r, c| (r + 2 * c) as f64);
        let x = vec![1.0, -1.0, 0.5];
        assert_eq!(m.t_matvec(&x), m.transpose().matvec(&x));
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]);
        assert_eq!(m.max_abs(), 4.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(norm1(&[1.0, -2.0, 3.0]), 6.0);
    }

    #[test]
    fn random_binary_is_binary_and_balanced() {
        let mut rng = Rng64::seeded(5);
        let m = Matrix::random_binary(40, 40, &mut rng);
        assert!(m.data().iter().all(|&x| x == 0.0 || x == 1.0));
        let ones: f64 = m.data().iter().sum();
        let frac = ones / 1600.0;
        assert!((frac - 0.5).abs() < 0.06, "ones fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn sub_is_entrywise() {
        let a = Matrix::from_rows(&[vec![2.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 1.0]]);
        assert_eq!(a.sub(&b).row(0), &[1.0, 3.0]);
    }
}
