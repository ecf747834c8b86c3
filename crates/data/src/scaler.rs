//! Feature standardisation.
//!
//! The weak learners (especially SVMs and Gaussian processes) need features
//! on comparable scales; the scaler is fitted on the training rows only and
//! applied to both train and test rows, exactly as a scikit-learn
//! `StandardScaler` inside a pipeline would be.
//!
//! All entry points work on flat [`Matrix`] / [`MatrixView`] batches; the
//! in-place transforms never allocate per row, and both fitting and the
//! z-score transform run on the element-wise `f64x4` kernels of
//! [`crate::simd`] (bit-identical to the scalar loops they replace).

use crate::matrix::{Matrix, MatrixView};
use crate::simd;

/// Z-score standardiser fitted per feature column.
///
/// Beyond `means`/`stds`, the scaler carries the sufficient statistics of
/// everything it has seen (`count` rows, per-column sum of squared
/// deviations `m2`), so [`StandardScaler::partial_fit`] can fold further
/// batches in by parallel-moment merging without revisiting old rows.
#[derive(Debug, Clone)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
    count: f64,
    m2: Vec<f64>,
}

impl StandardScaler {
    /// Fit the scaler on a batch of feature rows.
    ///
    /// # Panics
    /// Panics on empty input.
    pub fn fit(x: MatrixView<'_>) -> Self {
        assert!(!x.is_empty(), "cannot fit a scaler on zero rows");
        let n = x.n_rows() as f64;
        let (means, m2) = batch_moments(x);
        let stds = stds_from_m2(&m2, n);
        Self {
            means,
            stds,
            count: n,
            m2,
        }
    }

    /// Fold a further batch of rows into the fitted statistics by merging
    /// streamed moments (Chan et al.'s parallel update): the batch's own
    /// mean and sum of squared deviations are computed with the exact
    /// two-pass kernels [`StandardScaler::fit`] uses, then merged with the
    /// running statistics in O(columns). The merged mean/std agree with a
    /// fresh fit on the concatenated rows to well below 1e-12 (pinned by
    /// the `scaler_partial_fit` proptest — the existing two-pass fit shows
    /// no drift for it to compensate); they are not guaranteed
    /// bit-identical, which is why the streaming driver's `tolerance = 0`
    /// parity path refits the scaler from scratch instead of merging.
    ///
    /// # Panics
    /// Panics on an empty batch or a width mismatch.
    pub fn partial_fit(&mut self, x: MatrixView<'_>) {
        assert!(!x.is_empty(), "cannot partial-fit a scaler on zero rows");
        assert_eq!(x.n_cols(), self.means.len(), "matrix width mismatch");
        let nb = x.n_rows() as f64;
        let (bmeans, bm2) = batch_moments(x);
        if self.count == 0.0 {
            self.means = bmeans;
            self.m2 = bm2;
            self.count = nb;
        } else {
            let na = self.count;
            let n = na + nb;
            for j in 0..self.means.len() {
                let delta = bmeans[j] - self.means[j];
                self.means[j] = (na * self.means[j] + nb * bmeans[j]) / n;
                // Merged M2 is a sum of non-negative parts; clamp any
                // catastrophic-cancellation residue at zero.
                self.m2[j] = (self.m2[j] + bm2[j] + delta * delta * na * nb / n).max(0.0);
            }
            self.count = n;
        }
        self.stds = stds_from_m2(&self.m2, self.count);
    }

    /// Number of feature columns the scaler was fitted on.
    pub fn n_features(&self) -> usize {
        self.means.len()
    }

    /// Number of rows folded into the fitted statistics so far.
    pub fn n_samples(&self) -> f64 {
        self.count
    }

    /// The fitted per-column means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// The fitted per-column standard deviations (1.0 for constant columns).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Transform a single row in place.
    pub fn transform_row(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.means.len(), "row width mismatch");
        simd::standardize(row, &self.means, &self.stds);
    }

    /// Transform a whole matrix in place — the zero-clone path used by
    /// training and batch prediction.
    pub fn transform_in_place(&self, x: &mut Matrix) {
        assert_eq!(x.n_cols(), self.means.len(), "matrix width mismatch");
        let k = self.means.len();
        for row in x.as_mut_slice().chunks_exact_mut(k) {
            simd::standardize(row, &self.means, &self.stds);
        }
    }

    /// Transform a borrowed batch, returning a new matrix.
    pub fn transform(&self, x: MatrixView<'_>) -> Matrix {
        let mut out = x.to_matrix();
        self.transform_in_place(&mut out);
        out
    }

    /// Fit on `x` and standardise it in place, returning the scaler and the
    /// transformed matrix (the input buffer is reused, not cloned).
    pub fn fit_transform(mut x: Matrix) -> (Self, Matrix) {
        let scaler = Self::fit(x.view());
        scaler.transform_in_place(&mut x);
        (scaler, x)
    }
}

/// Two-pass per-column moments of one batch: (means, sum of squared
/// deviations around those means). Shared verbatim by `fit` and
/// `partial_fit` so a single-batch partial fit reproduces a full fit.
fn batch_moments(x: MatrixView<'_>) -> (Vec<f64>, Vec<f64>) {
    let k = x.n_cols();
    let n = x.n_rows() as f64;
    let mut means = vec![0.0; k];
    for r in x.rows() {
        simd::add_assign(&mut means, r);
    }
    simd::div_assign(&mut means, n);
    let mut m2 = vec![0.0; k];
    for r in x.rows() {
        simd::accumulate_sq_diff(&mut m2, r, &means);
    }
    (means, m2)
}

/// Population standard deviations from summed squared deviations, with the
/// constant-column clamp to 1.0.
fn stds_from_m2(m2: &[f64], n: f64) -> Vec<f64> {
    m2.iter()
        .map(|&v| {
            let s = (v / n).sqrt();
            if s < 1e-12 {
                1.0
            } else {
                s
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardised_columns_have_zero_mean_unit_variance() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, 100.0 + 3.0 * i as f64])
            .collect();
        let (_, out) = StandardScaler::fit_transform(Matrix::from_rows(&rows));
        for col in 0..2 {
            let mean: f64 = out.rows().map(|r| r[col]).sum::<f64>() / out.n_rows() as f64;
            let var: f64 =
                out.rows().map(|r| (r[col] - mean).powi(2)).sum::<f64>() / out.n_rows() as f64;
            assert!(mean.abs() < 1e-9);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_column_is_left_finite() {
        let rows = Matrix::from_rows(&[vec![5.0], vec![5.0], vec![5.0]]);
        let (scaler, out) = StandardScaler::fit_transform(rows);
        assert_eq!(scaler.n_features(), 1);
        assert!(out.rows().all(|r| r[0].is_finite()));
        assert!(out.rows().all(|r| r[0] == 0.0));
    }

    #[test]
    fn transform_uses_training_statistics() {
        let train = Matrix::from_rows(&[vec![0.0], vec![10.0]]);
        let scaler = StandardScaler::fit(train.view());
        let test = scaler.transform(Matrix::from_rows(&[vec![5.0], vec![15.0]]).view());
        assert!((test.get(0, 0) - 0.0).abs() < 1e-12);
        assert!(test.get(1, 0) > 1.0);
    }

    #[test]
    fn in_place_matches_row_transform() {
        let rows = vec![vec![1.0, -4.0], vec![3.5, 2.0], vec![-2.0, 7.0]];
        let m = Matrix::from_rows(&rows);
        let scaler = StandardScaler::fit(m.view());
        let mut in_place = m.clone();
        scaler.transform_in_place(&mut in_place);
        for (i, r) in rows.iter().enumerate() {
            let mut row = r.clone();
            scaler.transform_row(&mut row);
            assert_eq!(in_place.row(i), row.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn empty_fit_panics() {
        StandardScaler::fit(MatrixView::from_flat(&[], 1));
    }

    fn drifting_rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                vec![
                    0.37 * i as f64 - 5.0,
                    (i * i) as f64 * 0.011,
                    (-1.0f64).powi(i as i32) * (3.0 + i as f64 * 0.01),
                ]
            })
            .collect()
    }

    #[test]
    fn partial_fit_merge_matches_full_fit() {
        let rows = drifting_rows(101);
        let full = StandardScaler::fit(Matrix::from_rows(&rows).view());
        let mut merged = StandardScaler::fit(Matrix::from_rows(&rows[..40]).view());
        merged.partial_fit(Matrix::from_rows(&rows[40..41]).view());
        merged.partial_fit(Matrix::from_rows(&rows[41..]).view());
        assert_eq!(merged.n_samples(), 101.0);
        for j in 0..3 {
            assert!((merged.means()[j] - full.means()[j]).abs() < 1e-12);
            assert!((merged.stds()[j] - full.stds()[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn partial_fit_keeps_constant_column_clamp() {
        let a = Matrix::from_rows(&[vec![5.0], vec![5.0]]);
        let b = Matrix::from_rows(&[vec![5.0], vec![5.0], vec![5.0]]);
        let mut scaler = StandardScaler::fit(a.view());
        scaler.partial_fit(b.view());
        assert_eq!(scaler.stds(), &[1.0]);
        assert_eq!(scaler.means(), &[5.0]);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn empty_partial_fit_panics() {
        let mut scaler = StandardScaler::fit(Matrix::from_rows(&[vec![1.0], vec![2.0]]).view());
        scaler.partial_fit(MatrixView::from_flat(&[], 1));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_partial_fit_panics() {
        let mut scaler = StandardScaler::fit(Matrix::from_rows(&[vec![1.0], vec![2.0]]).view());
        scaler.partial_fit(MatrixView::from_flat(&[1.0, 2.0], 2));
    }
}
