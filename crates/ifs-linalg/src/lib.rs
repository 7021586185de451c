//! Dense linear algebra for the Theorem 16 machinery.
//!
//! The paper's For-All-Estimator lower bound (Theorem 16, via De [De12] and
//! KRSU [KRSU10]) rests on spectral properties of *Hadamard row-products* of
//! random 0/1 matrices (Definition 22), their smallest singular values
//! (Rudelson's Lemma 26), and the *Euclidean section* property of their
//! ranges (Definition 23). Reproducing those measurements needs a small,
//! dependable dense linear-algebra kernel, which this crate provides from
//! scratch:
//!
//! * [`Matrix`] — row-major dense `f64` matrix with the usual operations.
//! * [`qr`] — Householder QR and least-squares solves (the L2/KRSU decoder).
//! * [`svd`] — one-sided Jacobi SVD: singular values, rank, pseudo-inverse
//!   solves.
//!   Chosen over Golub–Kahan for robustness at the small/medium sizes we
//!   need; accuracy is what matters for σ_min measurements.
//! * [`products`] — Hadamard (row-tensor) products of matrices.
//! * [`sections`] — empirical Euclidean-section ratios of a matrix range.
//!
//! [De12]: https://doi.org/10.1007/978-3-642-28914-9_18
//! [KRSU10]: https://doi.org/10.1145/1806689.1806795

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matrix;
pub mod products;
pub mod qr;
pub mod sections;
pub mod svd;

pub use matrix::Matrix;
