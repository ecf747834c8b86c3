//! Linear support-vector machine with probability calibration.
//!
//! SVMs are one of the weak-learner choices evaluated in Table II (the SVB
//! variants). The implementation trains a linear SVM with the Pegasos
//! stochastic sub-gradient method on the hinge loss and calibrates decision
//! values into probabilities with Platt scaling (a logistic fit on the
//! training decision values), matching the common `SVC(probability=True)`
//! setup used by the original Python pipeline. Feature batches are flat
//! row-major [`MatrixView`]s, so the Pegasos inner loop and the batch
//! decision-value kernel stream contiguous rows, vectorised with the
//! `f64x4` kernels of [`paws_data::simd`] (the shrink/update steps are
//! element-wise and bit-identical to the scalar loops; the decision dots
//! regroup lanes within the documented ≤ 1e-12 parity envelope).

use crate::traits::{validate_training_data, Classifier};
use paws_data::matrix::MatrixView;
use paws_data::simd;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Linear-SVM hyperparameters.
#[derive(Debug, Clone)]
pub struct SvmConfig {
    /// L2 regularisation strength λ of the Pegasos objective.
    pub lambda: f64,
    /// Number of Pegasos epochs over the training set.
    pub epochs: usize,
    /// Number of iterations of the Platt-scaling logistic fit.
    pub platt_iterations: usize,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self {
            lambda: 1e-3,
            epochs: 30,
            platt_iterations: 300,
        }
    }
}

/// A fitted linear SVM with Platt-scaled probabilities.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
    platt_a: f64,
    platt_b: f64,
}

impl LinearSvm {
    /// Fit the SVM on the feature batch `x` / binary `labels` (0.0 / 1.0).
    pub fn fit(config: &SvmConfig, x: MatrixView<'_>, labels: &[f64], seed: u64) -> Self {
        validate_training_data(x, labels);
        let n = x.n_rows();
        let k = x.n_cols();
        let y: Vec<f64> = labels
            .iter()
            .map(|&l| if l > 0.5 { 1.0 } else { -1.0 })
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);

        let mut w = vec![0.0; k];
        let mut b = 0.0;
        let mut t: f64 = 1.0;
        for _ in 0..config.epochs {
            for _ in 0..n {
                let i = rng.gen_range(0..n);
                let row = x.row(i);
                let eta = 1.0 / (config.lambda * t);
                let margin = y[i] * (dot(&w, row) + b);
                // Regularisation shrinkage.
                simd::scale(&mut w, 1.0 - eta * config.lambda);
                if margin < 1.0 {
                    simd::axpy(eta * y[i], row, &mut w);
                    b += eta * y[i];
                }
                t += 1.0;
            }
        }

        // Platt scaling: fit sigma(a*f + b) to the labels by gradient descent
        // on the logistic loss of the decision values.
        let decisions: Vec<f64> = x.rows().map(|r| dot(&w, r) + b).collect();
        let (platt_a, platt_b) = fit_platt(&decisions, labels, config.platt_iterations);

        Self {
            weights: w,
            bias: b,
            platt_a,
            platt_b,
        }
    }

    /// Raw (uncalibrated) decision value of one row.
    pub fn decision_function(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.weights.len(), "feature width mismatch");
        dot(&self.weights, row) + self.bias
    }

    /// The learned weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl Classifier for LinearSvm {
    fn predict_proba(&self, x: MatrixView<'_>) -> Vec<f64> {
        assert_eq!(x.n_cols(), self.weights.len(), "feature width mismatch");
        x.rows()
            .map(|r| sigmoid(self.platt_a * (dot(&self.weights, r) + self.bias) + self.platt_b))
            .collect()
    }
}

fn fit_platt(decisions: &[f64], labels: &[f64], iterations: usize) -> (f64, f64) {
    let n = decisions.len() as f64;
    let mut a = 1.0;
    let mut b = 0.0;
    let lr = 0.1;
    for _ in 0..iterations {
        let mut grad_a = 0.0;
        let mut grad_b = 0.0;
        for (&f, &y) in decisions.iter().zip(labels) {
            let p = sigmoid(a * f + b);
            let err = p - y;
            grad_a += err * f;
            grad_b += err;
        }
        a -= lr * grad_a / n;
        b -= lr * grad_b / n;
    }
    (a, b)
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    simd::dot(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::roc_auc;
    use paws_data::matrix::Matrix;

    fn linearly_separable(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
            .collect();
        let labels: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] + 0.5 * r[1] > 0.1 { 1.0 } else { 0.0 })
            .collect();
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn separates_linear_data() {
        let (rows, labels) = linearly_separable(400, 1);
        let svm = LinearSvm::fit(&SvmConfig::default(), rows.view(), &labels, 3);
        let (trows, tlabels) = linearly_separable(200, 2);
        let probs = svm.predict_proba(trows.view());
        assert!(roc_auc(&tlabels, &probs) > 0.95);
    }

    #[test]
    #[should_panic(expected = "features must be finite")]
    fn non_finite_features_are_rejected_up_front() {
        let (rows, labels) = linearly_separable(50, 4);
        let mut raw = rows.as_slice().to_vec();
        raw[9] = f64::NEG_INFINITY;
        let x = Matrix::from_flat(raw, rows.n_cols());
        let _ = LinearSvm::fit(&SvmConfig::default(), x.view(), &labels, 3);
    }

    #[test]
    fn probabilities_are_calibrated_direction() {
        let (rows, labels) = linearly_separable(300, 3);
        let svm = LinearSvm::fit(&SvmConfig::default(), rows.view(), &labels, 3);
        // Clearly positive point gets higher probability than clearly negative.
        let p_pos = svm.predict_proba_one(&[0.9, 0.9]);
        let p_neg = svm.predict_proba_one(&[-0.9, -0.9]);
        assert!(p_pos > p_neg);
        assert!((0.0..=1.0).contains(&p_pos));
        assert!((0.0..=1.0).contains(&p_neg));
        let _ = labels;
    }

    #[test]
    fn deterministic_given_seed() {
        let (rows, labels) = linearly_separable(200, 4);
        let a = LinearSvm::fit(&SvmConfig::default(), rows.view(), &labels, 9);
        let b = LinearSvm::fit(&SvmConfig::default(), rows.view(), &labels, 9);
        assert_eq!(a.predict_proba(rows.view()), b.predict_proba(rows.view()));
    }

    #[test]
    fn weights_reflect_informative_feature() {
        let (rows, labels) = linearly_separable(500, 5);
        let svm = LinearSvm::fit(&SvmConfig::default(), rows.view(), &labels, 3);
        // Feature 0 has twice the influence of feature 1 in the ground truth.
        assert!(svm.weights()[0].abs() > svm.weights()[1].abs());
        assert!(svm.weights()[0] > 0.0);
    }

    #[test]
    fn batch_predict_matches_per_row_predict() {
        let (rows, labels) = linearly_separable(100, 6);
        let svm = LinearSvm::fit(&SvmConfig::default(), rows.view(), &labels, 3);
        let batch = svm.predict_proba(rows.view());
        for (i, &p) in batch.iter().enumerate() {
            assert_eq!(p, svm.predict_proba_one(rows.row(i)));
        }
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn decision_function_rejects_wrong_width() {
        let (rows, labels) = linearly_separable(50, 6);
        let svm = LinearSvm::fit(&SvmConfig::default(), rows.view(), &labels, 3);
        let _ = svm.decision_function(&[1.0, 2.0, 3.0]);
    }
}
