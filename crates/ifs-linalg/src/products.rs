//! Hadamard (row-tensor) products of matrices — Definition 22 of the paper.
//!
//! Given `A₁,…,A_s` with `Aⱼ ∈ R^{ℓⱼ×n}`, the Hadamard product
//! `A = A₁ ∘ ⋯ ∘ A_s ∈ R^{L×n}` (`L = ℓ₁⋯ℓ_s`) has one row per tuple
//! `(i₁,…,i_s)` with entries `A[(i₁,…,i_s), h] = Π_j Aⱼ[iⱼ, h]`.
//!
//! For 0/1 matrices this is exactly the answer operator of `k`-itemset
//! frequency queries on the KRSU-style databases of Lemma 24: choosing one
//! attribute from each of `k−1` blocks and multiplying picks out the rows
//! (columns `h`) containing all of them.

use crate::Matrix;

/// Computes the Hadamard row-product of the given matrices.
///
/// All inputs must share the same column count `n`. Row index order is
/// lexicographic in the tuple `(i₁,…,i_s)` with `i₁` the most significant —
/// i.e. row `i = ((i₁·ℓ₂ + i₂)·ℓ₃ + i₃)…`.
///
/// # Panics
/// If no matrices are given or column counts disagree.
pub fn hadamard_product(mats: &[&Matrix]) -> Matrix {
    assert!(!mats.is_empty(), "need at least one factor");
    let n = mats[0].cols();
    assert!(mats.iter().all(|m| m.cols() == n), "column counts must agree");
    let total_rows: usize = mats.iter().map(|m| m.rows()).product();
    let mut out = Matrix::zeros(total_rows, n);
    let mut idx = vec![0usize; mats.len()];
    for r in 0..total_rows {
        {
            let row = out.row_mut(r);
            row.fill(1.0);
            for (j, m) in mats.iter().enumerate() {
                let src = m.row(idx[j]);
                for (o, s) in row.iter_mut().zip(src) {
                    *o *= s;
                }
            }
        }
        // Increment the mixed-radix tuple (last factor is least significant).
        for j in (0..mats.len()).rev() {
            idx[j] += 1;
            if idx[j] < mats[j].rows() {
                break;
            }
            idx[j] = 0;
        }
    }
    out
}

/// Row index of tuple `(i₁,…,i_s)` in [`hadamard_product`] output — the
/// inverse of [`row_to_tuple`], kept as the tests' reference layout.
#[cfg(test)]
fn tuple_to_row(tuple: &[usize], dims: &[usize]) -> usize {
    assert_eq!(tuple.len(), dims.len());
    let mut r = 0usize;
    for (t, d) in tuple.iter().zip(dims) {
        assert!(t < d, "tuple index {t} out of factor dimension {d}");
        r = r * d + t;
    }
    r
}

/// The tuple `(i₁,…,i_s)` behind row `row` of [`hadamard_product`] output.
pub fn row_to_tuple(mut row: usize, dims: &[usize]) -> Vec<usize> {
    let mut tuple = vec![0usize; dims.len()];
    for j in (0..dims.len()).rev() {
        tuple[j] = row % dims[j];
        row /= dims[j];
    }
    assert_eq!(row, 0, "row index out of range");
    tuple
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifs_util::Rng64;

    #[test]
    fn product_of_single_matrix_is_itself() {
        let mut rng = Rng64::seeded(1);
        let a = Matrix::random_binary(3, 5, &mut rng);
        let p = hadamard_product(&[&a]);
        assert_eq!(p, a);
    }

    #[test]
    fn two_factor_entries_are_products() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 0.0], vec![0.0, 1.0]]);
        let p = hadamard_product(&[&a, &b]);
        assert_eq!(p.rows(), 6);
        for i1 in 0..2 {
            for i2 in 0..3 {
                let r = tuple_to_row(&[i1, i2], &[2, 3]);
                for h in 0..2 {
                    assert_eq!(p[(r, h)], a[(i1, h)] * b[(i2, h)], "({i1},{i2},{h})");
                }
            }
        }
    }

    #[test]
    fn tuple_row_roundtrip() {
        let dims = [3usize, 4, 2];
        for r in 0..24 {
            let t = row_to_tuple(r, &dims);
            assert_eq!(tuple_to_row(&t, &dims), r);
        }
    }

    #[test]
    fn binary_products_stay_binary() {
        let mut rng = Rng64::seeded(2);
        let a = Matrix::random_binary(4, 6, &mut rng);
        let b = Matrix::random_binary(4, 6, &mut rng);
        let p = hadamard_product(&[&a, &b]);
        assert!(p.data().iter().all(|&x| x == 0.0 || x == 1.0));
    }

    #[test]
    fn product_row_is_conjunction() {
        // For 0/1 factors, the product row is the AND of the factor rows —
        // exactly the itemset-containment semantics the construction needs.
        let mut rng = Rng64::seeded(3);
        let a = Matrix::random_binary(3, 8, &mut rng);
        let b = Matrix::random_binary(3, 8, &mut rng);
        let p = hadamard_product(&[&a, &b]);
        for i1 in 0..3 {
            for i2 in 0..3 {
                let r = tuple_to_row(&[i1, i2], &[3, 3]);
                for h in 0..8 {
                    let expect = (a[(i1, h)] == 1.0 && b[(i2, h)] == 1.0) as u8 as f64;
                    assert_eq!(p[(r, h)], expect);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "column counts")]
    fn mismatched_columns_panic() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        hadamard_product(&[&a, &b]);
    }
}
