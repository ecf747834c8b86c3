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
//! matrix and Cholesky factor are flat as well.
//!
//! # Blocked prediction over a row pool
//!
//! Both entry points — [`Classifier::predict_proba`] (mean only) and
//! [`GaussianProcess::predict_latent`] / `predict_with_variance` — run
//! one blocked kernel, and so do the learner tables of a whole GP ensemble
//! stack (`crate::bagging::pooled_gp_tables`). The kernel scores members
//! that share one kernel over a [`RowPool`]: their training rows, each
//! distinct row (by bit pattern) stored once, with every member's
//! positions in it. A lone GP is the one-member case, its own training
//! rows in order.
//!
//! The kernel takes query rows four at a time and runs the [`F64x4`]
//! lanes across the block's rows rather than along one row's features. It
//! computes the kernel value of each distinct pool row once per block;
//! every member then gathers its `k*` from that block and reads its `α`
//! entries and the rows of its Cholesky factor `L` once per block, and
//! the forward substitution `L v = k*` advances four independent rows per
//! step instead of one serial chain. A partial last block pads its lanes
//! with its last row and drops them.
//!
//! The results are bit-identical to scoring each row alone with the
//! `f64x4` kernels of [`paws_data::simd`], because every lane repeats one
//! row's arithmetic in that row's order, with no FMA and no
//! reassociation, and a row's kernel value depends only on its bits.
//! Each reduction (the squared distances, `k*·α`, each substitution
//! step's dot and `vᵀv`) keeps four partial sums per row, summing terms
//! `l, l+4, …` in partial `l`. It combines them as `(l0+l1)+(l2+l3)` and
//! then folds the tail terms in sequentially, which is exactly the order
//! of `simd::dot` / `simd::squared_distance` / `simd::sum_squares`.
//! Kernel values take one scalar `exp` each. Two proptests in this module
//! hold the kernel to a per-row reference bit for bit: a lone GP, and up
//! to twelve members drawn with repeats from one pool.

use crate::linalg::{squared_distance, Cholesky};
use crate::traits::{validate_training_data, Classifier, UncertainClassifier};
use paws_data::matrix::{Matrix, MatrixView};
use paws_data::simd::{F64x4, LaneVector};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Query rows per prediction block: one per lane of [`F64x4`], which is
/// also the lane count of the f64 reduction kernels the block replays.
const LANES: usize = <F64x4 as LaneVector>::N;

/// Gaussian-process hyperparameters.
#[derive(Debug, Clone)]
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
        assert!(
            config.length_scale > 0.0 && config.length_scale.is_finite(),
            "length scale must be finite and positive"
        );
        assert!(
            config.signal_variance > 0.0 && config.signal_variance.is_finite(),
            "signal variance must be finite and positive"
        );
        assert!(
            config.noise_variance > 0.0 && config.noise_variance.is_finite(),
            "noise variance must be finite and positive"
        );
        assert!(config.max_points >= 1, "max_points must be at least 1");

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
        self.predict_blocked(x, true)
    }

    /// Latent means of every row of `x`, and their variances when
    /// `with_variance` is set (an empty vector otherwise): the pooled loop
    /// with this GP as its one member.
    fn predict_blocked(&self, x: MatrixView<'_>, with_variance: bool) -> (Vec<f64>, Vec<f64>) {
        let positions: Vec<usize> = (0..self.n_train()).collect();
        let mut means = Vec::with_capacity(x.n_rows());
        let mut vars = Vec::with_capacity(if with_variance { x.n_rows() } else { 0 });
        let member = [(self, &positions[..])];
        predict_pooled(
            self.train_rows.view(),
            &member,
            x,
            with_variance,
            |_, live, m, v| {
                means.extend_from_slice(&m[0].0[..live]);
                if let Some(v) = v.first() {
                    vars.extend_from_slice(&v.0[..live]);
                }
            },
        );
        (means, vars)
    }

    /// Whether `other` has this GP's kernel: feature width, length scale
    /// and signal variance, compared by bits.
    fn shares_kernel_with(&self, other: &Self) -> bool {
        self.train_rows.n_cols() == other.train_rows.n_cols()
            && self.config.length_scale.to_bits() == other.config.length_scale.to_bits()
            && self.config.signal_variance.to_bits() == other.config.signal_variance.to_bits()
    }
}

/// The training rows of GP members that share one kernel, each distinct
/// row (by bit pattern) stored once, with every member's positions in it.
///
/// Members bagged from one batch repeat rows within and across members,
/// so the pooled loop (see the module docs) computes each distinct row's
/// kernel value once per query block for all of them. The pool holds no
/// member's `α` or Cholesky factor: a prediction reads them in place from
/// the members it is given, which must be the pooled ones, in order.
#[derive(Debug, Clone)]
pub struct RowPool {
    rows: Matrix,
    /// Member `m`'s training rows are pool rows
    /// `positions[starts[m]..starts[m + 1]]`.
    positions: Vec<usize>,
    starts: Vec<usize>,
}

impl RowPool {
    /// Pool the training rows of `members`, in member order.
    ///
    /// # Panics
    /// Panics when `members` is empty, or when its members differ in
    /// feature width, length scale or signal variance.
    pub(crate) fn new(members: &[&GaussianProcess]) -> Self {
        assert!(!members.is_empty(), "a row pool needs a member");
        let first = members[0];
        let mut index = HashMap::new();
        let mut distinct = Vec::new();
        let mut positions = Vec::with_capacity(members.iter().map(|m| m.n_train()).sum());
        let mut starts = vec![0];
        for gp in members {
            assert!(
                gp.shares_kernel_with(first),
                "pooled GP members must share one kernel"
            );
            for row in gp.train_rows.rows() {
                let next = distinct.len();
                positions.push(*index.entry(RowBits(row)).or_insert_with(|| {
                    distinct.push(row);
                    next
                }));
            }
            starts.push(positions.len());
        }
        let mut rows = Matrix::with_capacity(distinct.len(), first.train_rows.n_cols());
        for row in distinct {
            rows.push_row(row);
        }
        Self {
            rows,
            positions,
            starts,
        }
    }

    /// The pooled loop over `members`, the GPs this pool was built from in
    /// the same order: for every four-row block of `x` starting at row
    /// `start`, with `live` real rows, `emit(start, live, means, vars)`
    /// receives each member's latent means and, with `with_variance`, its
    /// variances (empty otherwise), in member order.
    ///
    /// # Panics
    /// Panics when `members` do not match the pooled members' count and
    /// training sizes, or on a feature-width mismatch.
    pub(crate) fn predict(
        &self,
        members: &[&GaussianProcess],
        x: MatrixView<'_>,
        with_variance: bool,
        emit: impl FnMut(usize, usize, &[F64x4], &[F64x4]),
    ) {
        assert_eq!(
            members.len() + 1,
            self.starts.len(),
            "predict with the pooled members"
        );
        let pooled: Vec<(&GaussianProcess, &[usize])> = members
            .iter()
            .zip(self.starts.windows(2))
            .map(|(&gp, w)| {
                assert_eq!(gp.n_train(), w[1] - w[0], "predict with the pooled members");
                (gp, &self.positions[w[0]..w[1]])
            })
            .collect();
        predict_pooled(self.rows.view(), &pooled, x, with_variance, emit);
    }
}

/// A training row compared and hashed by its values' bit patterns.
struct RowBits<'a>(&'a [f64]);

impl PartialEq for RowBits<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(other.0)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for RowBits<'_> {}

impl Hash for RowBits<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in self.0 {
            v.to_bits().hash(state);
        }
    }
}

/// The GP prediction loop (see the module docs). `pool` holds distinct
/// training rows, and each member is a GP with its training rows'
/// positions in `pool`; every member has the kernel of the first. For
/// every four-row block of `x`, `emit(start, live, means, vars)` receives
/// each member's latent means and, with `with_variance`, its variances
/// (empty otherwise), in member order; lanes from `live` on are padding.
fn predict_pooled(
    pool: MatrixView<'_>,
    members: &[(&GaussianProcess, &[usize])],
    x: MatrixView<'_>,
    with_variance: bool,
    mut emit: impl FnMut(usize, usize, &[F64x4], &[F64x4]),
) {
    assert_eq!(x.n_cols(), pool.n_cols(), "feature width mismatch");
    let Some(&(first, _)) = members.first() else {
        return;
    };
    let kxx = first.config.signal_variance;
    let denom = 2.0 * first.config.length_scale * first.config.length_scale;
    let n_max = members.iter().map(|(_, p)| p.len()).max().unwrap_or(0);
    // Block scratch; lane r belongs to the block's row r. `q` is the
    // block transposed (one vector per feature), `kpool` the kernel values
    // of the pool rows, `kstar` one member's k* gathered from them and `v`
    // its L⁻¹k*; `means` and `vars` hold every member's outputs.
    let zero = F64x4::splat(0.0);
    let mut q = vec![zero; x.n_cols()];
    let mut kpool = vec![zero; pool.n_rows()];
    let mut kstar = vec![zero; n_max];
    let mut v = vec![zero; if with_variance { n_max } else { 0 }];
    let mut means = vec![zero; members.len()];
    let mut vars = vec![zero; if with_variance { members.len() } else { 0 }];
    for start in (0..x.n_rows()).step_by(LANES) {
        let live = (x.n_rows() - start).min(LANES);
        for r in 0..LANES {
            let row = x.row(start + r.min(live - 1));
            for (qf, &value) in q.iter_mut().zip(row) {
                qf.0[r] = value;
            }
        }
        for (k, xi) in kpool.iter_mut().zip(pool.rows()) {
            let dist = lane_sum(&q, xi, |qf, xf| {
                let d = qf - F64x4::splat(xf);
                d * d
            });
            let arg = F64x4(dist.0.map(|s| -s)) / F64x4::splat(denom);
            *k = F64x4::splat(kxx) * F64x4(arg.0.map(f64::exp));
        }
        for (m, &(gp, positions)) in members.iter().enumerate() {
            let n = positions.len();
            let kstar = &mut kstar[..n];
            for (k, &p) in kstar.iter_mut().zip(positions) {
                *k = kpool[p];
            }
            means[m] = F64x4::splat(gp.mean_label)
                + lane_sum(kstar, &gp.alpha, |k, a| k * F64x4::splat(a));
            if with_variance {
                // v = L⁻¹ k* by forward substitution, then the predictive
                // variance k(x,x) − vᵀv.
                let v = &mut v[..n];
                for i in 0..n {
                    let l_row = gp.chol.factor_row(i);
                    let dot = lane_sum(&v[..i], &l_row[..i], |vj, l| F64x4::splat(l) * vj);
                    v[i] = (kstar[i] - dot) / F64x4::splat(l_row[i]);
                }
                let ss = lane_sum(v, v, |a, b| a * b);
                vars[m] = F64x4(ss.0.map(|s| (kxx - s).max(1e-12)));
            }
        }
        emit(start, live, &means, &vars);
    }
}

impl Classifier for GaussianProcess {
    /// The clipped predictive mean alone: no O(n²) variance solve per row.
    /// Bit-identical to the probabilities of
    /// [`UncertainClassifier::predict_with_variance`].
    fn predict_proba(&self, x: MatrixView<'_>) -> Vec<f64> {
        let (mut means, _) = self.predict_blocked(x, false);
        for m in &mut means {
            *m = m.clamp(0.0, 1.0);
        }
        means
    }
}

impl UncertainClassifier for GaussianProcess {
    fn predict_with_variance(&self, x: MatrixView<'_>) -> (Vec<f64>, Vec<f64>) {
        let (means, vars) = self.predict_latent(x);
        (means.into_iter().map(|m| m.clamp(0.0, 1.0)).collect(), vars)
    }
}

/// `Σ term(aⱼ, bⱼ)` per lane, in the order of the [`paws_data::simd`]
/// reductions: partial sum `l` takes terms `l, l+4, …` below the last
/// multiple of four, the partials combine as `(l0+l1)+(l2+l3)`, and the
/// tail terms fold in one by one.
#[inline(always)]
fn lane_sum<A: Copy, B: Copy>(a: &[A], b: &[B], term: impl Fn(A, B) -> F64x4) -> F64x4 {
    debug_assert_eq!(a.len(), b.len());
    let split = a.len() - a.len() % LANES;
    let (a4, a_tail) = a.split_at(split);
    let (b4, b_tail) = b.split_at(split);
    let mut acc = [F64x4::splat(0.0); LANES];
    for (ca, cb) in a4.chunks_exact(LANES).zip(b4.chunks_exact(LANES)) {
        for (l, partial) in acc.iter_mut().enumerate() {
            *partial = *partial + term(ca[l], cb[l]);
        }
    }
    let mut out = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        out = out + term(x, y);
    }
    out
}

/// The RBF (squared-exponential) kernel.
fn rbf(a: &[f64], b: &[f64], length_scale: f64, signal_variance: f64) -> f64 {
    signal_variance * (-squared_distance(a, b) / (2.0 * length_scale * length_scale)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{pearson, roc_auc};
    use paws_data::simd;
    use rand::{Rng, SeedableRng};

    /// Latent predictive mean of the query row `q`, leaving its kernel row
    /// `k*` in the scratch `kstar`: the per-row loop the blocked kernel
    /// replaced, kept as the parity reference.
    fn latent_mean(gp: &GaussianProcess, q: &[f64], kstar: &mut [f64]) -> f64 {
        for (slot, xi) in kstar.iter_mut().zip(gp.train_rows.rows()) {
            *slot = rbf(q, xi, gp.config.length_scale, gp.config.signal_variance);
        }
        gp.mean_label + simd::dot(kstar, &gp.alpha)
    }

    /// Per-row reference of [`GaussianProcess::predict_latent`]: one `k*`,
    /// one `L⁻¹k*` forward substitution and one `vᵀv` per query row.
    fn reference_latent(gp: &GaussianProcess, x: MatrixView<'_>) -> (Vec<f64>, Vec<f64>) {
        let n = gp.n_train();
        let mut kstar = vec![0.0; n];
        let mut v = vec![0.0; n];
        x.rows()
            .map(|q| {
                let mean = latent_mean(gp, q, &mut kstar);
                gp.chol
                    .solve_lower_into(&kstar, &mut v)
                    .expect("dimensions match by construction");
                let var = (gp.config.signal_variance - simd::sum_squares(&v)).max(1e-12);
                (mean, var)
            })
            .unzip()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

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
        assert_eq!(bits(&gp.predict_proba(queries.view())), bits(&p));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 12 } else { 300 }
        ))]

        #[test]
        fn blocked_kernel_matches_the_per_row_reference(seed in 0.0..1e9) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed as u64);
            let n_train = rng.gen_range(1..401);
            let width = rng.gen_range(1..25);
            // Rows drawn with replacement from a pool of distinct rows: a
            // pool smaller than the batch repeats rows, as a balanced
            // bootstrap does.
            let pool = rng.gen_range(1..n_train + 1);
            let pool = Matrix::from_flat(
                (0..pool * width).map(|_| rng.gen_range(-2.0..2.0)).collect(),
                width,
            );
            let mut train = Matrix::new(width);
            let mut labels = Vec::with_capacity(n_train);
            for _ in 0..n_train {
                train.push_row(pool.row(rng.gen_range(0..pool.n_rows())));
                labels.push(f64::from(rng.gen_bool(0.3)));
            }
            let config = GpConfig {
                length_scale: 10f64.powf(rng.gen_range(-1.0..1.0)),
                signal_variance: rng.gen_range(0.1..4.0),
                noise_variance: 10f64.powf(rng.gen_range(-4.0..0.0)),
                max_points: n_train,
            };
            let gp = GaussianProcess::fit(&config, train.view(), &labels, rng.gen());

            // Thirteen queries mixing fresh rows, training rows and rows so
            // far from every training row that k* underflows to zeros.
            let mut queries = Matrix::new(width);
            let mut far = Vec::new();
            for i in 0..13 {
                match rng.gen_range(0..3) {
                    0 => {
                        let row: Vec<f64> = (0..width).map(|_| rng.gen_range(-3.0..3.0)).collect();
                        queries.push_row(&row);
                    }
                    1 => queries.push_row(train.row(rng.gen_range(0..n_train))),
                    _ => {
                        let row: Vec<f64> = (0..width).map(|_| 1e4 + rng.gen_range(-1.0..1.0)).collect();
                        queries.push_row(&row);
                        far.push(i);
                    }
                }
            }
            let context = format!(
                "case seed {seed}: {n_train} training rows x {width} features, {config:?}"
            );
            // Every batch size 0..=13 covers every block remainder.
            for n_rows in 0..=queries.n_rows() {
                let q = queries.view().head(n_rows);
                let (mean, var) = gp.predict_latent(q);
                let (ref_mean, ref_var) = reference_latent(&gp, q);
                proptest::prop_assert!(bits(&mean) == bits(&ref_mean), "means, {n_rows} rows, {context}");
                proptest::prop_assert!(bits(&var) == bits(&ref_var), "variances, {n_rows} rows, {context}");
                let clamped: Vec<f64> = ref_mean.iter().map(|m| m.clamp(0.0, 1.0)).collect();
                proptest::prop_assert!(
                    bits(&gp.predict_proba(q)) == bits(&clamped),
                    "probabilities, {n_rows} rows, {context}"
                );
            }
            let (_, var) = gp.predict_latent(queries.view());
            for &i in &far {
                proptest::prop_assert!(
                    var[i].to_bits() == config.signal_variance.to_bits(),
                    "far row {i} has variance {}, {context}",
                    var[i]
                );
            }
        }
    }

    /// Every member's latent means and variances (empty without
    /// `with_variance`) from one pass of the pooled loop.
    fn pooled_latent(
        pool: &RowPool,
        members: &[&GaussianProcess],
        x: MatrixView<'_>,
        with_variance: bool,
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut means = vec![Vec::new(); members.len()];
        let mut vars = vec![Vec::new(); members.len()];
        pool.predict(members, x, with_variance, |_, live, m, v| {
            for (out, lanes) in means.iter_mut().zip(m) {
                out.extend_from_slice(&lanes.0[..live]);
            }
            for (out, lanes) in vars.iter_mut().zip(v) {
                out.extend_from_slice(&lanes.0[..live]);
            }
        });
        (means, vars)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 12 } else { 300 }
        ))]

        #[test]
        fn pooled_kernel_matches_the_per_row_reference(seed in 0.0..1e9) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed as u64);
            let width = rng.gen_range(1..25);
            // Every member draws its rows with replacement from one set of
            // distinct rows, so rows repeat within and across members.
            let n_distinct = rng.gen_range(1..160);
            let distinct = Matrix::from_flat(
                (0..n_distinct * width).map(|_| rng.gen_range(-2.0..2.0)).collect(),
                width,
            );
            let config = GpConfig {
                length_scale: 10f64.powf(rng.gen_range(-1.0..1.0)),
                signal_variance: rng.gen_range(0.1..4.0),
                noise_variance: 10f64.powf(rng.gen_range(-4.0..0.0)),
                max_points: 120,
            };
            let members: Vec<GaussianProcess> = (0..rng.gen_range(1..13))
                .map(|_| {
                    let n = rng.gen_range(1..121);
                    let mut train = Matrix::new(width);
                    let mut labels = Vec::with_capacity(n);
                    for _ in 0..n {
                        train.push_row(distinct.row(rng.gen_range(0..n_distinct)));
                        labels.push(f64::from(rng.gen_bool(0.3)));
                    }
                    GaussianProcess::fit(&config, train.view(), &labels, rng.gen())
                })
                .collect();
            let members: Vec<&GaussianProcess> = members.iter().collect();
            let pool = RowPool::new(&members);
            let used: std::collections::HashSet<Vec<u64>> = members
                .iter()
                .flat_map(|gp| gp.train_rows.rows())
                .map(|row| row.iter().map(|v| v.to_bits()).collect())
                .collect();
            proptest::prop_assert!(pool.rows.n_rows() == used.len(), "distinct rows, seed {seed}");

            // Thirteen queries mixing fresh rows, pooled rows and rows so
            // far from every pooled row that k* underflows to zeros.
            let mut queries = Matrix::new(width);
            let mut far = Vec::new();
            for i in 0..13 {
                match rng.gen_range(0..3) {
                    0 => {
                        let row: Vec<f64> = (0..width).map(|_| rng.gen_range(-3.0..3.0)).collect();
                        queries.push_row(&row);
                    }
                    1 => queries.push_row(distinct.row(rng.gen_range(0..n_distinct))),
                    _ => {
                        let row: Vec<f64> = (0..width).map(|_| 1e4 + rng.gen_range(-1.0..1.0)).collect();
                        queries.push_row(&row);
                        far.push(i);
                    }
                }
            }
            let context = format!(
                "case seed {seed}: {} members over {} distinct rows x {width} features, {config:?}",
                members.len(),
                pool.rows.n_rows()
            );
            // Every batch size 0..=13 covers every block remainder.
            for n_rows in 0..=queries.n_rows() {
                let q = queries.view().head(n_rows);
                let (means, vars) = pooled_latent(&pool, &members, q, true);
                let (mean_only, no_vars) = pooled_latent(&pool, &members, q, false);
                for (m, gp) in members.iter().enumerate() {
                    let (ref_mean, ref_var) = reference_latent(gp, q);
                    let case = format!("member {m}, {n_rows} rows, {context}");
                    proptest::prop_assert!(bits(&means[m]) == bits(&ref_mean), "means, {case}");
                    proptest::prop_assert!(bits(&vars[m]) == bits(&ref_var), "variances, {case}");
                    proptest::prop_assert!(bits(&mean_only[m]) == bits(&ref_mean), "mean only, {case}");
                    proptest::prop_assert!(no_vars[m].is_empty(), "mean only, {case}");
                    let clamped = |v: &[f64]| bits(&v.iter().map(|p| p.clamp(0.0, 1.0)).collect::<Vec<_>>());
                    proptest::prop_assert!(
                        clamped(&mean_only[m]) == bits(&gp.predict_proba(q)),
                        "probabilities, {case}"
                    );
                }
            }
            let (_, vars) = pooled_latent(&pool, &members, queries.view(), true);
            for (m, var) in vars.iter().enumerate() {
                for &i in &far {
                    proptest::prop_assert!(
                        var[i].to_bits() == config.signal_variance.to_bits(),
                        "member {m}: far row {i} has variance {}, {context}",
                        var[i]
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pooled GP members must share one kernel")]
    fn members_of_different_kernels_are_not_pooled() {
        let (rows, labels) = blob_data(40, 15);
        let a = GaussianProcess::fit(&GpConfig::default(), rows.view(), &labels, 3);
        let config = GpConfig {
            length_scale: 1.0,
            ..GpConfig::default()
        };
        let b = GaussianProcess::fit(&config, rows.view(), &labels, 3);
        let _ = RowPool::new(&[&a, &b]);
    }

    #[test]
    #[should_panic(expected = "noise variance must be finite and positive")]
    fn infinite_noise_variance_is_rejected_at_fit() {
        let (rows, labels) = blob_data(40, 16);
        let config = GpConfig {
            noise_variance: f64::INFINITY,
            ..GpConfig::default()
        };
        let _ = GaussianProcess::fit(&config, rows.view(), &labels, 3);
    }

    #[test]
    #[should_panic(expected = "signal variance must be finite and positive")]
    fn nan_signal_variance_is_rejected_at_fit() {
        let (rows, labels) = blob_data(40, 11);
        let config = GpConfig {
            signal_variance: f64::NAN,
            ..GpConfig::default()
        };
        let _ = GaussianProcess::fit(&config, rows.view(), &labels, 3);
    }

    #[test]
    #[should_panic(expected = "signal variance must be finite and positive")]
    fn non_positive_signal_variance_is_rejected_at_fit() {
        let (rows, labels) = blob_data(40, 12);
        let config = GpConfig {
            signal_variance: 0.0,
            ..GpConfig::default()
        };
        let _ = GaussianProcess::fit(&config, rows.view(), &labels, 3);
    }

    #[test]
    #[should_panic(expected = "length scale must be finite and positive")]
    fn infinite_length_scale_is_rejected_at_fit() {
        let (rows, labels) = blob_data(40, 13);
        let config = GpConfig {
            length_scale: f64::INFINITY,
            ..GpConfig::default()
        };
        let _ = GaussianProcess::fit(&config, rows.view(), &labels, 3);
    }

    #[test]
    #[should_panic(expected = "max_points must be at least 1")]
    fn zero_max_points_is_rejected_at_fit() {
        let (rows, labels) = blob_data(40, 14);
        let config = GpConfig {
            max_points: 0,
            ..GpConfig::default()
        };
        let _ = GaussianProcess::fit(&config, rows.view(), &labels, 3);
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
