//! Minimal dense linear algebra used by the Gaussian-process learner.
//!
//! The GP weak learners only need symmetric positive-definite solves on
//! matrices of a few hundred rows (each bagged GP trains on a bootstrap
//! subsample), so a straightforward Cholesky factorisation is both simpler
//! and fast enough; no external BLAS is required. The factor is stored as
//! one flat row-major buffer so the factorisation and the forward/backward
//! substitution loops stream contiguous memory — and run on the `f64x4`
//! reduction kernels of [`paws_data::simd`]. The backward substitution is
//! written in the outer-product (row-oriented) form so it too streams
//! contiguous rows of `L` instead of strided columns; lane regrouping keeps
//! results within a few ulps of the sequential scalar loops (pinned
//! ≤ 1e-12 end-to-end by `tests/matrix_parity.rs`).
//!
//! GP prediction does not call these solves: its blocked kernel reads the
//! factor through [`Cholesky::factor_row`] and substitutes four query rows
//! per step, in [`Cholesky::solve_lower_into`]'s arithmetic order.

use paws_data::matrix::Matrix;
use paws_data::simd;

/// Errors from linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is not (numerically) positive definite.
    NotPositiveDefinite {
        /// Index of the pivot that failed.
        pivot: usize,
    },
    /// Dimension mismatch between operands.
    DimensionMismatch,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::DimensionMismatch => write!(f, "dimension mismatch"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix,
/// stored flat row-major (entries above the diagonal are zero).
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Vec<f64>,
    n: usize,
}

impl Cholesky {
    /// Factorise `a` (which must be square and symmetric positive definite).
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        let n = a.n_rows();
        if a.n_cols() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                // sum -= l[i][..j] · l[j][..j]: two contiguous row prefixes.
                let (ri, rj) = (&l[i * n..i * n + j], &l[j * n..j * n + j]);
                let sum = a.get(i, j) - simd::dot(ri, rj);
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { pivot: i });
                    }
                    l[i * n + j] = sum.sqrt();
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Ok(Self { l, n })
    }

    /// Entry (i, j) of the lower-triangular factor.
    pub fn factor_at(&self, i: usize, j: usize) -> f64 {
        self.l[i * self.n + j]
    }

    /// Row `i` of the lower-triangular factor (zeros above the diagonal).
    pub fn factor_row(&self, i: usize) -> &[f64] {
        &self.l[i * self.n..(i + 1) * self.n]
    }

    /// Solve `L x = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.n;
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        let mut x = vec![0.0; n];
        self.solve_lower_into(b, &mut x)?;
        Ok(x)
    }

    /// Solve `L x = b` into a caller-provided buffer (no allocation).
    pub fn solve_lower_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), LinalgError> {
        let n = self.n;
        if b.len() != n || x.len() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        for i in 0..n {
            let row = &self.l[i * n..i * n + i];
            let sum = b[i] - simd::dot(row, &x[..i]);
            x[i] = sum / self.l[i * n + i];
        }
        Ok(())
    }

    /// Solve `Lᵀ x = b` (backward substitution).
    pub fn solve_upper(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.n;
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        // Outer-product form: once x[i] is known, subtract x[i]·L[i][..i]
        // from the running residual — every access is a contiguous row
        // prefix of L instead of a strided column walk.
        let mut x = b.to_vec();
        for i in (0..n).rev() {
            let xi = x[i] / self.l[i * n + i];
            x[i] = xi;
            simd::axpy(-xi, &self.l[i * n..i * n + i], &mut x[..i]);
        }
        Ok(x)
    }

    /// Solve `A x = b` where `A = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let y = self.solve_lower(b)?;
        self.solve_upper(&y)
    }
}

/// Dot product of two equal-length slices (`f64x4` lanes, scalar tail).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    simd::dot(a, b)
}

/// Squared Euclidean distance between two equal-length slices (`f64x4`
/// lanes, scalar tail).
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    simd::squared_distance(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_matrix() -> Matrix {
        // A = B Bᵀ + I for a small B, guaranteed SPD.
        Matrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.0],
            vec![0.6, 1.0, 3.0],
        ])
    }

    #[test]
    fn cholesky_reconstructs_the_matrix() {
        let a = spd_matrix();
        let ch = Cholesky::new(&a).unwrap();
        let n = a.n_rows();
        for i in 0..n {
            for j in 0..n {
                let mut v = 0.0;
                for k in 0..n {
                    v += ch.factor_at(i, k) * ch.factor_at(j, k);
                }
                assert!((v - a.get(i, j)).abs() < 1e-10, "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd_matrix();
        let x_true = vec![1.0, -2.0, 0.5];
        let b: Vec<f64> = (0..3)
            .map(|i| (0..3).map(|j| a.get(i, j) * x_true[j]).sum())
            .collect();
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn non_spd_matrix_is_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let ch = Cholesky::new(&a).unwrap();
        assert_eq!(ch.solve(&[1.0]), Err(LinalgError::DimensionMismatch));
        let wide = Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]);
        assert!(matches!(
            Cholesky::new(&wide),
            Err(LinalgError::DimensionMismatch)
        ));
    }

    #[test]
    fn solve_lower_into_matches_allocating_solve() {
        let a = spd_matrix();
        let ch = Cholesky::new(&a).unwrap();
        let b = [0.3, -1.0, 2.0];
        let alloc = ch.solve_lower(&b).unwrap();
        let mut buf = [0.0; 3];
        ch.solve_lower_into(&b, &mut buf).unwrap();
        assert_eq!(alloc.as_slice(), buf.as_slice());
    }

    #[test]
    fn dot_and_distance_helpers() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }
}
