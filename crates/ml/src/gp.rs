//! Gaussian-process classifier with predictive variance.
//!
//! The paper's main predictive enhancement (Sec. IV) is to use Gaussian
//! process classifiers as the weak learners of iWare-E so each prediction
//! carries an uncertainty value: `f(x) ~ GP(µ(X), Σ(X))` with an RBF
//! covariance. The implementation performs GP label regression on the
//! binary targets with a Gaussian likelihood (a standard, well-calibrated
//! approximation to full GP classification at these data sizes): the
//! predictive mean (clipped to [0, 1]) is the positive-class probability and
//! the predictive variance is the uncertainty score later consumed by the
//! robust patrol planner.
//!
//! Crucially, the GP predictive variance depends only on where the training
//! inputs lie (through the kernel), not on the labels — which is exactly why
//! Fig. 7 finds it nearly uncorrelated with the predicted risk, unlike the
//! spread of a bagged tree ensemble.
//!
//! Training inputs are kept in a flat row-major [`Matrix`]; the kernel
//! matrix and Cholesky factor are flat as well, so the per-query `k*`
//! construction and triangular solves stream contiguous memory, and batch
//! prediction reuses one scratch buffer instead of allocating per row.
//! The RBF row products, the `k*·α` mean dot and the `vᵀv` variance
//! reduction all run on the `f64x4` kernels of [`paws_data::simd`].

use crate::linalg::{squared_distance, Cholesky};
use crate::traits::{validate_training_data, Classifier, UncertainClassifier};
use paws_data::matrix::{Matrix, MatrixView};
use paws_data::simd;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Gaussian-process hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpConfig {
    /// RBF kernel length scale (in standardised feature units).
    pub length_scale: f64,
    /// Kernel signal variance.
    pub signal_variance: f64,
    /// Observation noise variance added to the kernel diagonal.
    pub noise_variance: f64,
    /// Maximum number of training points retained (a random subset is used
    /// beyond this, keeping the O(n³) solve tractable inside ensembles).
    pub max_points: usize,
}

impl Default for GpConfig {
    fn default() -> Self {
        Self {
            length_scale: 2.0,
            signal_variance: 1.0,
            noise_variance: 0.1,
            max_points: 400,
        }
    }
}

/// A fitted Gaussian-process classifier.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    config: GpConfig,
    train_rows: Matrix,
    /// α = (K + σ²I)⁻¹ (y − ȳ)
    alpha: Vec<f64>,
    /// Cholesky factor of (K + σ²I), kept for predictive variances.
    chol: Cholesky,
    mean_label: f64,
}

impl GaussianProcess {
    /// Fit the GP on the feature batch `x` / binary `labels`.
    pub fn fit(config: &GpConfig, x: MatrixView<'_>, labels: &[f64], seed: u64) -> Self {
        validate_training_data(x, labels);
        assert!(config.length_scale > 0.0, "length scale must be positive");
        assert!(
            config.noise_variance > 0.0,
            "noise variance must be positive"
        );

        // Subsample by index gather when the training set exceeds the budget.
        let (train_rows, labels): (Matrix, Vec<f64>) = if x.n_rows() > config.max_points {
            let mut idx: Vec<usize> = (0..x.n_rows()).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            idx.shuffle(&mut rng);
            idx.truncate(config.max_points);
            (x.gather(&idx), idx.iter().map(|&i| labels[i]).collect())
        } else {
            (x.to_matrix(), labels.to_vec())
        };

        let n = train_rows.n_rows();
        let mean_label = labels.iter().sum::<f64>() / n as f64;
        let centred: Vec<f64> = labels.iter().map(|&y| y - mean_label).collect();

        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rbf(
                    train_rows.row(i),
                    train_rows.row(j),
                    config.length_scale,
                    config.signal_variance,
                );
                k.row_mut(i)[j] = v;
                k.row_mut(j)[i] = v;
            }
            k.row_mut(i)[i] += config.noise_variance;
        }

        // Jitter escalation if the kernel matrix is numerically borderline.
        let chol = match Cholesky::new(&k) {
            Ok(c) => c,
            Err(_) => {
                for i in 0..n {
                    k.row_mut(i)[i] += 1e-6;
                }
                Cholesky::new(&k).expect("kernel matrix not PD even with jitter")
            }
        };
        let alpha = chol
            .solve(&centred)
            .expect("dimensions match by construction");

        Self {
            config: config.clone(),
            train_rows,
            alpha,
            chol,
            mean_label,
        }
    }

    /// Number of retained training points.
    pub fn n_train(&self) -> usize {
        self.train_rows.n_rows()
    }

    /// Latent predictive mean and variance (before clipping to [0, 1]).
    pub fn predict_latent(&self, x: MatrixView<'_>) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(
            x.n_cols(),
            self.train_rows.n_cols(),
            "feature width mismatch"
        );
        let n = self.n_train();
        let mut means = Vec::with_capacity(x.n_rows());
        let mut vars = Vec::with_capacity(x.n_rows());
        let mut kstar = vec![0.0; n];
        let mut v = vec![0.0; n];
        let kxx = self.config.signal_variance;
        for q in x.rows() {
            let mean = self.latent_mean(q, &mut kstar);
            // v = L⁻¹ k*, predictive variance = k(x,x) − vᵀv.
            self.chol
                .solve_lower_into(&kstar, &mut v)
                .expect("dimensions match by construction");
            let var = (kxx - simd::sum_squares(&v)).max(1e-12);
            means.push(mean);
            vars.push(var);
        }
        (means, vars)
    }

    /// Latent predictive mean of the query row `q`, leaving its kernel row
    /// `k*` in the scratch `kstar`.
    #[inline]
    fn latent_mean(&self, q: &[f64], kstar: &mut [f64]) -> f64 {
        for (slot, xi) in kstar.iter_mut().zip(self.train_rows.rows()) {
            *slot = rbf(q, xi, self.config.length_scale, self.config.signal_variance);
        }
        self.mean_label + simd::dot(kstar, &self.alpha)
    }
}

impl Classifier for GaussianProcess {
    /// The clipped predictive mean alone: no O(n²) variance solve per row.
    /// Bit-identical to the probabilities of
    /// [`UncertainClassifier::predict_with_variance`].
    fn predict_proba(&self, x: MatrixView<'_>) -> Vec<f64> {
        assert_eq!(
            x.n_cols(),
            self.train_rows.n_cols(),
            "feature width mismatch"
        );
        let mut kstar = vec![0.0; self.n_train()];
        x.rows()
            .map(|q| self.latent_mean(q, &mut kstar).clamp(0.0, 1.0))
            .collect()
    }
}

impl UncertainClassifier for GaussianProcess {
    fn predict_with_variance(&self, x: MatrixView<'_>) -> (Vec<f64>, Vec<f64>) {
        let (means, vars) = self.predict_latent(x);
        (means.into_iter().map(|m| m.clamp(0.0, 1.0)).collect(), vars)
    }
}

/// The RBF (squared-exponential) kernel.
fn rbf(a: &[f64], b: &[f64], length_scale: f64, signal_variance: f64) -> f64 {
    signal_variance * (-squared_distance(a, b) / (2.0 * length_scale * length_scale)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{pearson, roc_auc};
    use rand::{Rng, SeedableRng};

    fn blob_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        // Two Gaussian blobs.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Matrix::new(2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let positive = i % 2 == 0;
            let centre = if positive { 1.2 } else { -1.2 };
            rows.push_row(&[
                centre + rng.gen_range(-1.0..1.0),
                centre + rng.gen_range(-1.0..1.0),
            ]);
            labels.push(if positive { 1.0 } else { 0.0 });
        }
        (rows, labels)
    }

    #[test]
    fn separates_blobs() {
        let (rows, labels) = blob_data(200, 1);
        let gp = GaussianProcess::fit(&GpConfig::default(), rows.view(), &labels, 3);
        let (trows, tlabels) = blob_data(100, 2);
        let probs = gp.predict_proba(trows.view());
        assert!(roc_auc(&tlabels, &probs) > 0.9);
    }

    #[test]
    #[should_panic(expected = "features must be finite")]
    fn non_finite_features_are_rejected_up_front() {
        let (rows, labels) = blob_data(60, 4);
        let mut raw = rows.as_slice().to_vec();
        raw[21] = f64::NAN;
        let x = Matrix::from_flat(raw, rows.n_cols());
        let _ = GaussianProcess::fit(&GpConfig::default(), x.view(), &labels, 3);
    }

    #[test]
    fn probabilities_and_variances_are_valid() {
        let (rows, labels) = blob_data(120, 3);
        let gp = GaussianProcess::fit(&GpConfig::default(), rows.view(), &labels, 3);
        let (p, v) = gp.predict_with_variance(rows.view());
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        assert!(v.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn variance_is_higher_far_from_training_data() {
        let (rows, labels) = blob_data(150, 4);
        let gp = GaussianProcess::fit(&GpConfig::default(), rows.view(), &labels, 3);
        let (_, v_near) = gp.predict_with_variance(rows.view().head(1));
        let far = [50.0, -50.0];
        let (_, v_far) = gp.predict_with_variance(MatrixView::single_row(&far));
        assert!(v_far[0] > v_near[0]);
        // Far from all data the variance approaches the signal variance.
        assert!((v_far[0] - GpConfig::default().signal_variance).abs() < 1e-6);
    }

    #[test]
    fn variance_nearly_uncorrelated_with_prediction() {
        // The Fig. 7 phenomenon: GP uncertainty tracks data density, not the
        // predicted probability.
        let (rows, labels) = blob_data(200, 5);
        let gp = GaussianProcess::fit(&GpConfig::default(), rows.view(), &labels, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut test = Matrix::new(2);
        for _ in 0..150 {
            test.push_row(&[rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)]);
        }
        let (p, v) = gp.predict_with_variance(test.view());
        assert!(pearson(&p, &v).abs() < 0.6);
    }

    #[test]
    fn respects_max_points_budget() {
        let (rows, labels) = blob_data(500, 6);
        let config = GpConfig {
            max_points: 100,
            ..GpConfig::default()
        };
        let gp = GaussianProcess::fit(&config, rows.view(), &labels, 3);
        assert_eq!(gp.n_train(), 100);
    }

    #[test]
    fn training_point_prediction_close_to_label_with_low_noise() {
        let (rows, labels) = blob_data(80, 7);
        let config = GpConfig {
            noise_variance: 1e-4,
            length_scale: 0.5,
            ..GpConfig::default()
        };
        let gp = GaussianProcess::fit(&config, rows.view(), &labels, 3);
        let probs = gp.predict_proba(rows.view());
        let close = probs
            .iter()
            .zip(&labels)
            .filter(|(p, y)| (**p - **y).abs() < 0.2)
            .count();
        assert!(close as f64 / rows.n_rows() as f64 > 0.9);
    }

    #[test]
    fn mean_only_probabilities_equal_the_variance_paths_bit_for_bit() {
        let (rows, labels) = blob_data(160, 10);
        let config = GpConfig {
            max_points: 90,
            ..GpConfig::default()
        };
        let gp = GaussianProcess::fit(&config, rows.view(), &labels, 4);
        let mut queries = rows.gather(&(0..40).collect::<Vec<_>>());
        queries.push_row(&[50.0, -50.0]);
        let (p, _) = gp.predict_with_variance(queries.view());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&gp.predict_proba(queries.view())), bits(&p));
    }

    #[test]
    fn deterministic_given_seed() {
        let (rows, labels) = blob_data(300, 8);
        let config = GpConfig {
            max_points: 120,
            ..GpConfig::default()
        };
        let a = GaussianProcess::fit(&config, rows.view(), &labels, 21);
        let b = GaussianProcess::fit(&config, rows.view(), &labels, 21);
        assert_eq!(
            a.predict_proba(rows.view().head(10)),
            b.predict_proba(rows.view().head(10))
        );
    }
}
