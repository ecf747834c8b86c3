//! Bagging ensembles (plain and balanced) over the three weak-learner types.
//!
//! Table II evaluates bagging ensembles of SVMs (SVB), decision trees (DTB)
//! and Gaussian processes (GPB), each with and without the iWare-E wrapper.
//! For the extremely imbalanced SWS data the paper uses a *balanced* bagging
//! classifier that undersamples the negative class in every bootstrap
//! (Sec. V-A, following imbalanced-learn), which is reproduced here with the
//! `balanced` flag.
//!
//! Every fit runs through [`BaggingClassifier::fit_ranked`], which trains
//! on a row subset of a batch without gathering it. Tree members grow from
//! one ranking of the subset ([`crate::tree`]), derived from a ranking of
//! the whole batch that the caller may share across many fits, and fit
//! from their bootstrap's in-bag counts, so no member copies rows. SVM and
//! GP members train on their bootstrap materialised from the batch with
//! [`MatrixView::gather`], one flat copy per member.
//!
//! Tree ensembles are **arena-backed**: after the members fit (in
//! parallel), their nodes are spliced into one contiguous [`Forest`] slab
//! and every prediction path (`predict_proba`, `predict_with_variance`,
//! [`BaggingClassifier::member_predictions`]) runs the level-synchronous
//! batch traversal instead of walking each tree row by row. SVM and GP
//! members keep their per-member batch kernels.
//!
//! The ensemble records the per-member in-bag counts of every training
//! sample so the infinitesimal-jackknife variance of Fig. 7 can be computed
//! (see [`crate::jackknife`]).

use crate::forest::{ArenaElement, Forest};
use crate::forest32::{Forest32, NarrowError};
use crate::gp::{GaussianProcess, GpConfig};
use crate::precision::Precision;
use crate::svm::{LinearSvm, SvmConfig};
use crate::traits::{validate_training_data, Classifier, UncertainClassifier};
use crate::tree::{DecisionTree, Ranking, TreeConfig};
use paws_data::matrix::{Matrix, Matrix32, MatrixView, MatrixView32};
use paws_data::simd::{self, Element};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Configuration of the base (weak) learner used inside the ensemble.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum BaseLearnerConfig {
    /// CART decision tree (DTB / random-forest style when `max_features` is set).
    Tree(TreeConfig),
    /// Linear SVM with Platt scaling (SVB).
    Svm(SvmConfig),
    /// Gaussian process classifier (GPB).
    Gp(GpConfig),
}

impl BaseLearnerConfig {
    /// Short display name used in experiment tables ("DTB", "SVB", "GPB").
    pub fn short_name(&self) -> &'static str {
        match self {
            BaseLearnerConfig::Tree(_) => "DTB",
            BaseLearnerConfig::Svm(_) => "SVB",
            BaseLearnerConfig::Gp(_) => "GPB",
        }
    }
}

/// A fitted SVM or GP ensemble member (tree members live in the
/// ensemble's [`Forest`]).
#[derive(Debug, Clone)]
pub enum BaseModel {
    /// Fitted linear SVM.
    Svm(LinearSvm),
    /// Fitted Gaussian process.
    Gp(GaussianProcess),
}

impl BaseModel {
    /// Predictions plus the intrinsic posterior variance when the learner
    /// has one (GPs); a single pass over the batch.
    fn predict_with_optional_variance(&self, x: MatrixView<'_>) -> (Vec<f64>, Option<Vec<f64>>) {
        match self {
            BaseModel::Svm(m) => (m.predict_proba(x), None),
            BaseModel::Gp(m) => {
                let (p, v) = m.predict_with_variance(x);
                (p, Some(v))
            }
        }
    }
}

impl Classifier for BaseModel {
    fn predict_proba(&self, x: MatrixView<'_>) -> Vec<f64> {
        match self {
            BaseModel::Svm(m) => m.predict_proba(x),
            BaseModel::Gp(m) => m.predict_proba(x),
        }
    }
}

/// Bagging-ensemble hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaggingConfig {
    /// Weak learner trained on each bootstrap sample.
    pub base: BaseLearnerConfig,
    /// Number of ensemble members.
    pub n_estimators: usize,
    /// Bootstrap size as a fraction of the training set (ignored when
    /// `balanced` is set — balanced bootstraps are sized by the positives).
    pub sample_fraction: f64,
    /// Undersample the negative class so every bootstrap is class-balanced.
    pub balanced: bool,
    /// Base random seed; member `m` uses `seed + m`.
    pub seed: u64,
}

impl BaggingConfig {
    /// Default DTB configuration (bagged trees with feature subsampling —
    /// equivalent to a random forest, as Sec. V-C notes).
    pub fn trees(n_estimators: usize, seed: u64) -> Self {
        Self {
            base: BaseLearnerConfig::Tree(TreeConfig {
                max_features: None,
                ..TreeConfig::default()
            }),
            n_estimators,
            sample_fraction: 1.0,
            balanced: false,
            seed,
        }
    }

    /// Default SVB configuration.
    pub fn svms(n_estimators: usize, seed: u64) -> Self {
        Self {
            base: BaseLearnerConfig::Svm(SvmConfig::default()),
            n_estimators,
            sample_fraction: 1.0,
            balanced: false,
            seed,
        }
    }

    /// Default GPB configuration.
    pub fn gps(n_estimators: usize, seed: u64) -> Self {
        Self {
            base: BaseLearnerConfig::Gp(GpConfig::default()),
            n_estimators,
            sample_fraction: 1.0,
            balanced: false,
            seed,
        }
    }
}

/// The fitted members: tree ensembles collapse into one arena-backed
/// [`Forest`]; SVM/GP ensembles keep their individual models.
#[derive(Debug, Clone)]
enum Members {
    /// All trees in one contiguous node slab, traversed batch-wise.
    Forest(Forest),
    /// Per-member models with their own batch kernels.
    Models(Vec<BaseModel>),
}

/// A fitted bagging ensemble.
#[derive(Debug, Clone)]
pub struct BaggingClassifier {
    members: Members,
    /// `in_bag_counts[member][sample]`: how many times each training sample
    /// appeared in each member's bootstrap.
    in_bag_counts: Vec<Vec<u32>>,
    n_train: usize,
    config: BaggingConfig,
    /// The narrowed 8-byte-node arena: present exactly while the members
    /// are trees switched to [`Precision::F32`], which is what makes
    /// that the serving plane (a derived cache of `members`, never
    /// serialized; training is always f64).
    forest32: Option<Forest32>,
}

impl BaggingClassifier {
    /// Fit the ensemble on the flat feature batch `x`.
    pub fn fit(config: &BaggingConfig, x: MatrixView<'_>, labels: &[f64]) -> Self {
        validate_training_data(x, labels);
        Self::fit_ranked(config, x, labels, None, None)
    }

    /// Fit the ensemble on rows `rows` of `x`, in that order (every row
    /// when `rows` is `None`), without gathering them: bit for bit the
    /// ensemble [`BaggingClassifier::fit`] grows on `x.gather(rows)` and
    /// those rows' labels.
    ///
    /// A tree base grows every member from the subset's ranks, derived by
    /// [`Ranking::subset`] from `ranking`, the [`Ranking`] of all of `x`, so
    /// a caller that fits many subsets of one batch sorts it once; with
    /// `ranking` `None` the fit ranks `x` itself. SVM and GP members ignore
    /// `ranking` and gather their bootstrap rows straight from `x`.
    ///
    /// `x` and `labels` must pass [`validate_training_data`], which this
    /// call does not repeat, and `rows` must not be empty.
    pub fn fit_ranked(
        config: &BaggingConfig,
        x: MatrixView<'_>,
        labels: &[f64],
        ranking: Option<&Ranking>,
        rows: Option<&[usize]>,
    ) -> Self {
        assert!(config.n_estimators > 0, "need at least one ensemble member");
        assert!(
            config.sample_fraction > 0.0 && config.sample_fraction <= 1.0,
            "sample fraction must be in (0, 1]"
        );

        let gathered: Vec<f64>;
        let labels = match rows {
            Some(rows) => {
                gathered = rows.iter().map(|&i| labels[i]).collect();
                &gathered[..]
            }
            None => labels,
        };
        let n = labels.len();
        assert!(n > 0, "cannot fit on an empty training set");
        let (positives, negatives): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| labels[i] > 0.5);
        // Member `m`'s seed; its bootstrap draws (batch rows, with
        // repeats) go to `draw` in order.
        let bootstrap = |m: usize, draw: &mut dyn FnMut(usize)| {
            let seed = config.seed.wrapping_add(m as u64);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            if config.balanced && !positives.is_empty() && !negatives.is_empty() {
                // Undersample the majority (negative) class to the
                // positive count; positives are bootstrapped to preserve
                // their full variety.
                for _ in 0..positives.len() {
                    draw(positives[rng.gen_range(0..positives.len())]);
                }
                for _ in 0..positives.len() {
                    draw(negatives[rng.gen_range(0..negatives.len())]);
                }
            } else {
                let size = ((n as f64 * config.sample_fraction).round() as usize).max(1);
                for _ in 0..size {
                    draw(rng.gen_range(0..n));
                }
            }
            seed
        };

        let (members, in_bag_counts) = match &config.base {
            BaseLearnerConfig::Tree(cfg) => {
                let full;
                let ranking = match ranking {
                    Some(ranking) => ranking,
                    None => {
                        full = Ranking::new(x);
                        &full
                    }
                };
                let subset;
                let ranking = match rows {
                    Some(rows) => {
                        subset = ranking.subset(x, rows);
                        &subset
                    }
                    None => ranking,
                };
                // Every member fits from its in-bag counts over the shared
                // ranks, with no row copy.
                let fits: Vec<(DecisionTree, Vec<u32>)> = (0..config.n_estimators)
                    .into_par_iter()
                    .map(|m| {
                        let mut counts = vec![0u32; n];
                        let seed = bootstrap(m, &mut |i| counts[i] += 1);
                        let tree = DecisionTree::fit_weighted(cfg, labels, ranking, &counts, seed);
                        (tree, counts)
                    })
                    .collect();
                let (trees, in_bag_counts): (Vec<_>, Vec<_>) = fits.into_iter().unzip();
                // Tree members collapse into one arena: the per-member
                // `Vec<Node>`s are spliced into a single slab and dropped.
                let mut forest = Forest::new(x.n_cols());
                for tree in &trees {
                    forest.push_tree(tree);
                }
                (Members::Forest(forest), in_bag_counts)
            }
            base => {
                let fits: Vec<(BaseModel, Vec<u32>)> = (0..config.n_estimators)
                    .into_par_iter()
                    .map(|m| {
                        let mut draws = Vec::new();
                        let seed = bootstrap(m, &mut |i| draws.push(i));
                        let mut counts = vec![0u32; n];
                        for &i in &draws {
                            counts[i] += 1;
                        }
                        let blabels: Vec<f64> = draws.iter().map(|&i| labels[i]).collect();
                        if let Some(rows) = rows {
                            for i in &mut draws {
                                *i = rows[*i];
                            }
                        }
                        let bx = x.gather(&draws);
                        (fit_model(base, bx.view(), &blabels, seed), counts)
                    })
                    .collect();
                let (models, in_bag_counts): (Vec<_>, Vec<_>) = fits.into_iter().unzip();
                (Members::Models(models), in_bag_counts)
            }
        };
        Self {
            members,
            in_bag_counts,
            n_train: n,
            config: config.clone(),
            forest32: None,
        }
    }

    /// Select the plane that serves predictions. Switching to
    /// [`Precision::F32`] narrows the tree arena once (a cached 8-byte-node
    /// [`Forest32`]); switching back drops the cache. A no-op for SVM/GP
    /// members, whose kernels have no f32 plane — they keep predicting in
    /// f64, and [`BaggingClassifier::precision`] keeps saying so.
    ///
    /// # Errors
    /// Returns the [`NarrowError`] when the trained arena exceeds the f32
    /// plane's packing caps (2²⁴ nodes / 256 features); the model keeps
    /// serving from its previous plane then.
    pub fn set_precision(&mut self, precision: Precision) -> Result<(), NarrowError> {
        match precision {
            Precision::F32 => {
                if self.forest32.is_none() {
                    if let Members::Forest(f) = &self.members {
                        self.forest32 = Some(Forest32::try_from_forest(f)?);
                    }
                }
            }
            Precision::F64 => self.forest32 = None,
        }
        Ok(())
    }

    /// The plane currently serving predictions: [`Precision::F32`] exactly
    /// while a narrowed arena is resident.
    pub fn precision(&self) -> Precision {
        if self.forest32.is_some() {
            Precision::F32
        } else {
            Precision::F64
        }
    }

    /// The narrowed f32 arena, when the ensemble is tree-based and switched
    /// to [`Precision::F32`].
    pub fn forest32(&self) -> Option<&Forest32> {
        self.forest32.as_ref()
    }

    /// Number of ensemble members.
    pub fn n_members(&self) -> usize {
        match &self.members {
            Members::Forest(f) => f.n_trees(),
            Members::Models(m) => m.len(),
        }
    }

    /// The shared tree arena, when the base learner is a decision tree
    /// (`None` for SVM/GP ensembles).
    pub fn forest(&self) -> Option<&Forest> {
        match &self.members {
            Members::Forest(f) => Some(f),
            Members::Models(_) => None,
        }
    }

    /// Number of training samples the ensemble was fitted on.
    pub fn n_train(&self) -> usize {
        self.n_train
    }

    /// The configuration used to fit the ensemble.
    pub fn config(&self) -> &BaggingConfig {
        &self.config
    }

    /// In-bag counts, `counts[member][sample]`.
    pub fn in_bag_counts(&self) -> &[Vec<u32>] {
        &self.in_bag_counts
    }

    /// [`Classifier::predict_proba`] served natively from the f32 plane:
    /// the caller supplies an **already-narrowed** batch (e.g. a cached
    /// serving-artifact plane), so no per-call `Matrix32::from_f64` pass
    /// runs. Bit-identical to the f64 entry point on a batch narrowed from
    /// the same rows. `None` unless the ensemble is tree-based and switched
    /// to [`Precision::F32`] — callers fall back to the f64 path then.
    pub fn predict_proba32(&self, x32: MatrixView32<'_>) -> Option<Vec<f64>> {
        let forest32 = self.forest32.as_ref()?;
        Some(arena_mean(forest32, x32))
    }

    /// [`UncertainClassifier::predict_with_variance`] served natively from
    /// the f32 plane (see [`BaggingClassifier::predict_proba32`] for the
    /// contract): one batch traversal of the narrowed arena, member mean
    /// and spread reduced with the `f32x8` kernels, widened at the
    /// boundary. `None` unless a narrowed arena is resident.
    pub fn predict_with_variance32(&self, x32: MatrixView32<'_>) -> Option<(Vec<f64>, Vec<f64>)> {
        let forest32 = self.forest32.as_ref()?;
        Some(arena_mean_and_spread(forest32, x32))
    }

    /// Per-member predictions as a flat `n_members × n_rows` matrix (row
    /// `m` holds member `m`'s probabilities). Tree ensembles answer this
    /// with one level-synchronous pass over the shared arena.
    ///
    /// # Panics
    /// Panics on an empty batch (an `n_members × 0` matrix is not
    /// representable); the `Classifier` entry points handle that case.
    pub fn member_predictions(&self, x: MatrixView<'_>) -> Matrix {
        match &self.members {
            Members::Forest(f) => f.predict_proba_batch(x),
            Members::Models(models) => {
                let per_member: Vec<Vec<f64>> =
                    models.par_iter().map(|m| m.predict_proba(x)).collect();
                Matrix::from_rows(&per_member)
            }
        }
    }

    /// Per-member predictions plus intrinsic variances where available, in
    /// one pass over the members (no recomputation between the probability
    /// and variance paths). SVM/GP only — the tree path consumes
    /// [`Self::member_predictions`] directly.
    fn member_predictions_with_variance(
        members: &[BaseModel],
        x: MatrixView<'_>,
    ) -> Vec<(Vec<f64>, Option<Vec<f64>>)> {
        members
            .par_iter()
            .map(|m| m.predict_with_optional_variance(x))
            .collect()
    }

    /// For GP ensembles: the averaged GP posterior variance of each row
    /// (the intrinsic uncertainty metric of Sec. IV). Returns `None` when
    /// the base learner does not expose an intrinsic variance.
    pub fn intrinsic_variance(&self, x: MatrixView<'_>) -> Option<Vec<f64>> {
        match &self.members {
            Members::Forest(_) => None,
            Members::Models(models) => {
                let per_member = Self::member_predictions_with_variance(models, x);
                Self::average_intrinsic(&per_member, x.n_rows())
            }
        }
    }

    /// Average the intrinsic member variances out of a member pass, `None`
    /// when no member exposes one.
    fn average_intrinsic(
        per_member: &[(Vec<f64>, Option<Vec<f64>>)],
        n_rows: usize,
    ) -> Option<Vec<f64>> {
        let mut acc = vec![0.0; n_rows];
        let mut any = false;
        for (_, var) in per_member {
            if let Some(v) = var {
                simd::add_assign(&mut acc, v);
                any = true;
            }
        }
        if any {
            let b = per_member.len() as f64;
            Some(acc.into_iter().map(|v| v / b).collect())
        } else {
            None
        }
    }
}

impl Classifier for BaggingClassifier {
    fn predict_proba(&self, x: MatrixView<'_>) -> Vec<f64> {
        if x.n_rows() == 0 {
            return Vec::new();
        }
        match &self.forest32 {
            // The f32 plane: narrow the batch once, then serve from the
            // 8-byte-node arena.
            Some(forest32) => arena_mean(forest32, Matrix32::from_f64(x).view()),
            None => member_mean(&self.member_predictions(x)),
        }
    }
}

impl UncertainClassifier for BaggingClassifier {
    /// Mean prediction plus an uncertainty score: for GP ensembles the
    /// averaged GP posterior variance (the paper's choice); otherwise the
    /// empirical variance of the member predictions (the heuristic the
    /// paper compares against in Fig. 7). Every member is evaluated exactly
    /// once — the probability and variance outputs share one member pass
    /// (for trees, one batch traversal of the arena).
    fn predict_with_variance(&self, x: MatrixView<'_>) -> (Vec<f64>, Vec<f64>) {
        if x.n_rows() == 0 {
            return (Vec::new(), Vec::new());
        }
        match &self.members {
            Members::Forest(forest) => match &self.forest32 {
                Some(forest32) => arena_mean_and_spread(forest32, Matrix32::from_f64(x).view()),
                None => arena_mean_and_spread(forest, x),
            },
            Members::Models(models) => {
                let per_member = Self::member_predictions_with_variance(models, x);
                let b = per_member.len() as f64;
                let n_rows = x.n_rows();
                let mut mean = vec![0.0; n_rows];
                for (preds, _) in &per_member {
                    simd::add_assign(&mut mean, preds);
                }
                simd::div_assign(&mut mean, b);
                if let Some(v) = Self::average_intrinsic(&per_member, n_rows) {
                    return (mean, v);
                }
                let mut var = vec![0.0; n_rows];
                for (preds, _) in &per_member {
                    simd::accumulate_sq_diff(&mut var, preds, &mean);
                }
                simd::div_assign(&mut var, b);
                (mean, var)
            }
        }
    }
}

/// Member mean of an `n_members × n_rows` prediction table, accumulated in
/// member order with the element-wise lane kernels.
fn member_mean<T: Element>(per_member: &Matrix<T>) -> Vec<T> {
    let mut mean = vec![T::ZERO; per_member.n_cols()];
    for preds in per_member.rows() {
        simd::add_assign(&mut mean, preds);
    }
    simd::div_assign(&mut mean, T::from_usize(per_member.n_rows()));
    mean
}

/// Member mean and member-spread variance of an `n_members × n_rows`
/// prediction table, accumulated in member order with the element-wise
/// lane kernels (the exact operation order of the per-member path, so
/// results are bit-identical) and widened to f64 at the boundary (a no-op
/// on the f64 plane).
fn mean_and_spread<T: Element>(per_member: &Matrix<T>) -> (Vec<f64>, Vec<f64>) {
    let mean = member_mean(per_member);
    let mut var = vec![T::ZERO; mean.len()];
    for preds in per_member.rows() {
        simd::accumulate_sq_diff(&mut var, preds, &mean);
    }
    simd::div_assign(&mut var, T::from_usize(per_member.n_rows()));
    (T::into_f64_vec(mean), T::into_f64_vec(var))
}

/// [`member_mean`] of a tree arena's members on a batch (empty for an
/// empty batch).
fn arena_mean<T: ArenaElement>(forest: &Forest<T>, x: MatrixView<'_, T>) -> Vec<f64> {
    if x.is_empty() {
        return Vec::new();
    }
    T::into_f64_vec(member_mean(&forest.predict_proba_batch(x)))
}

/// [`mean_and_spread`] of a tree arena's members on a batch (empty for an
/// empty batch).
fn arena_mean_and_spread<T: ArenaElement>(
    forest: &Forest<T>,
    x: MatrixView<'_, T>,
) -> (Vec<f64>, Vec<f64>) {
    if x.is_empty() {
        return (Vec::new(), Vec::new());
    }
    mean_and_spread(&forest.predict_proba_batch(x))
}

/// Fit an SVM or GP member on its bootstrap, gathered into one flat copy.
fn fit_model(
    base: &BaseLearnerConfig,
    bx: MatrixView<'_>,
    blabels: &[f64],
    seed: u64,
) -> BaseModel {
    match base {
        BaseLearnerConfig::Svm(cfg) => BaseModel::Svm(LinearSvm::fit(cfg, bx, blabels, seed)),
        BaseLearnerConfig::Gp(cfg) => BaseModel::Gp(GaussianProcess::fit(cfg, bx, blabels, seed)),
        BaseLearnerConfig::Tree(_) => unreachable!("tree ensembles fit from the shared ranking"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::roc_auc;
    use paws_data::matrix::Matrix;

    fn imbalanced_data(n: usize, positive_rate: f64, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Matrix::new(2);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let positive = rng.gen::<f64>() < positive_rate;
            let centre = if positive { 1.0 } else { -0.3 };
            rows.push_row(&[
                centre + rng.gen_range(-1.0..1.0),
                centre + rng.gen_range(-1.0..1.0),
            ]);
            labels.push(if positive { 1.0 } else { 0.0 });
        }
        (rows, labels)
    }

    #[test]
    fn tree_bagging_beats_chance() {
        let (rows, labels) = imbalanced_data(500, 0.3, 1);
        let model = BaggingClassifier::fit(&BaggingConfig::trees(10, 3), rows.view(), &labels);
        let (trows, tlabels) = imbalanced_data(300, 0.3, 2);
        let auc = roc_auc(&tlabels, &model.predict_proba(trows.view()));
        assert!(auc > 0.8, "auc={auc}");
    }

    #[test]
    fn balanced_bagging_helps_under_extreme_imbalance() {
        let (rows, labels) = imbalanced_data(1200, 0.02, 3);
        let plain = BaggingClassifier::fit(&BaggingConfig::trees(10, 3), rows.view(), &labels);
        let balanced = BaggingClassifier::fit(
            &BaggingConfig {
                balanced: true,
                ..BaggingConfig::trees(10, 3)
            },
            rows.view(),
            &labels,
        );
        let (trows, tlabels) = imbalanced_data(800, 0.02, 4);
        let auc_plain = roc_auc(&tlabels, &plain.predict_proba(trows.view()));
        let auc_balanced = roc_auc(&tlabels, &balanced.predict_proba(trows.view()));
        // Balanced bagging should not be (much) worse and typically better.
        assert!(
            auc_balanced > auc_plain - 0.05,
            "plain={auc_plain} balanced={auc_balanced}"
        );
        assert!(auc_balanced > 0.7);
    }

    #[test]
    fn member_count_and_in_bag_shapes() {
        let (rows, labels) = imbalanced_data(100, 0.3, 5);
        let model = BaggingClassifier::fit(&BaggingConfig::trees(7, 3), rows.view(), &labels);
        assert_eq!(model.n_members(), 7);
        assert_eq!(model.in_bag_counts().len(), 7);
        assert!(model.in_bag_counts().iter().all(|c| c.len() == 100));
        // Bootstraps of fraction 1.0 contain exactly n draws.
        for counts in model.in_bag_counts() {
            let total: u32 = counts.iter().sum();
            assert_eq!(total as usize, 100);
        }
    }

    #[test]
    fn variance_from_member_spread_for_trees() {
        let (rows, labels) = imbalanced_data(300, 0.3, 6);
        let model = BaggingClassifier::fit(&BaggingConfig::trees(15, 3), rows.view(), &labels);
        let (p, v) = model.predict_with_variance(rows.view().head(50));
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        assert!(v.iter().all(|&x| x >= 0.0));
        assert!(
            v.iter().any(|&x| x > 0.0),
            "member spread should be non-degenerate"
        );
    }

    #[test]
    fn gp_bagging_reports_intrinsic_variance() {
        let (rows, labels) = imbalanced_data(150, 0.3, 7);
        let config = BaggingConfig {
            base: BaseLearnerConfig::Gp(GpConfig {
                max_points: 80,
                ..GpConfig::default()
            }),
            ..BaggingConfig::gps(4, 3)
        };
        let model = BaggingClassifier::fit(&config, rows.view(), &labels);
        assert!(model.intrinsic_variance(rows.view().head(10)).is_some());
        let (_, v) = model.predict_with_variance(rows.view().head(10));
        assert!(v.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn tree_bagging_has_no_intrinsic_variance() {
        let (rows, labels) = imbalanced_data(100, 0.3, 8);
        let model = BaggingClassifier::fit(&BaggingConfig::trees(5, 3), rows.view(), &labels);
        assert!(model.intrinsic_variance(rows.view().head(5)).is_none());
    }

    #[test]
    fn tree_ensembles_are_arena_backed() {
        let (rows, labels) = imbalanced_data(200, 0.3, 11);
        let trees = BaggingClassifier::fit(&BaggingConfig::trees(6, 3), rows.view(), &labels);
        let forest = trees.forest().expect("tree ensembles build a forest");
        assert_eq!(forest.n_trees(), 6);
        assert!(forest.n_nodes() >= 6);
        // Member predictions come from the batch kernel and agree with the
        // per-row arena walk exactly.
        let q = rows.view().head(40);
        let batch = trees.member_predictions(q);
        for t in 0..forest.n_trees() {
            for (r, row) in q.rows().enumerate() {
                assert_eq!(batch.get(t, r), forest.predict_row(t, row));
            }
        }

        let svms = BaggingClassifier::fit(&BaggingConfig::svms(2, 3), rows.view(), &labels);
        assert!(svms.forest().is_none());
    }

    #[test]
    fn variance_path_matches_separate_prediction_passes() {
        // predict_with_variance shares one member pass; its mean must equal
        // the standalone predict_proba and its variance the standalone
        // intrinsic average.
        let (rows, labels) = imbalanced_data(150, 0.3, 12);
        let gp_model = BaggingClassifier::fit(
            &BaggingConfig {
                base: BaseLearnerConfig::Gp(GpConfig {
                    max_points: 60,
                    ..GpConfig::default()
                }),
                ..BaggingConfig::gps(3, 5)
            },
            rows.view(),
            &labels,
        );
        let q = rows.view().head(20);
        let (p, v) = gp_model.predict_with_variance(q);
        assert_eq!(p, gp_model.predict_proba(q));
        assert_eq!(v, gp_model.intrinsic_variance(q).unwrap());

        let tree_model = BaggingClassifier::fit(&BaggingConfig::trees(9, 5), rows.view(), &labels);
        let (p, _) = tree_model.predict_with_variance(q);
        assert_eq!(p, tree_model.predict_proba(q));
    }

    #[test]
    fn gp_ensemble_probabilities_equal_the_variance_paths_bit_for_bit() {
        // GP members answer `predict_proba` from their mean alone; the
        // ensemble mean must still match the variance path's bits.
        let (rows, labels) = imbalanced_data(180, 0.3, 13);
        let model = BaggingClassifier::fit(
            &BaggingConfig {
                base: BaseLearnerConfig::Gp(GpConfig {
                    max_points: 70,
                    ..GpConfig::default()
                }),
                ..BaggingConfig::gps(4, 8)
            },
            rows.view(),
            &labels,
        );
        let q = rows.view().head(45);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&model.predict_proba(q)),
            bits(&model.predict_with_variance(q).0)
        );
    }

    #[test]
    fn f32_plane_tracks_the_f64_predictions() {
        let (rows, labels) = imbalanced_data(300, 0.3, 21);
        let mut model = BaggingClassifier::fit(&BaggingConfig::trees(8, 3), rows.view(), &labels);
        assert_eq!(model.precision(), Precision::F64);
        let q = rows.view().head(64);
        let p64 = model.predict_proba(q);
        let (pv64, v64) = model.predict_with_variance(q);

        model.set_precision(Precision::F32).unwrap();
        assert_eq!(model.precision(), Precision::F32);
        let f = model.forest32().expect("tree ensemble narrows an arena");
        assert_eq!(f.n_trees(), 8);
        let p32 = model.predict_proba(q);
        let (pv32, v32) = model.predict_with_variance(q);
        for ((a, b), (c, d)) in p64.iter().zip(&p32).zip(pv64.iter().zip(&pv32)) {
            assert!((a - b).abs() <= 1e-5, "proba diverged: {a} vs {b}");
            assert!((c - d).abs() <= 1e-5, "pv proba diverged: {c} vs {d}");
        }
        for (a, b) in v64.iter().zip(&v32) {
            assert!((a - b).abs() <= 1e-5, "variance diverged: {a} vs {b}");
        }

        // Switching back drops the cache and restores exact f64 output.
        model.set_precision(Precision::F64).unwrap();
        assert!(model.forest32().is_none());
        assert_eq!(model.predict_proba(q), p64);
    }

    #[test]
    fn pre_narrowed_entry_points_match_the_narrowing_path_bit_for_bit() {
        // The serving-artifact path narrows the batch once at prepare time
        // and calls predict_*32 directly; it must reproduce the per-call
        // narrowing path exactly (same narrowed values, same kernels).
        let (rows, labels) = imbalanced_data(250, 0.3, 24);
        let mut model = BaggingClassifier::fit(&BaggingConfig::trees(7, 3), rows.view(), &labels);
        let q = rows.view().head(50);
        assert!(model
            .predict_proba32(Matrix32::from_f64(q).view())
            .is_none());
        model.set_precision(Precision::F32).unwrap();
        let q32 = Matrix32::from_f64(q);
        let p_ref = model.predict_proba(q);
        let (pv_ref, v_ref) = model.predict_with_variance(q);
        let p = model
            .predict_proba32(q32.view())
            .expect("f32 plane resident");
        let (pv, v) = model
            .predict_with_variance32(q32.view())
            .expect("f32 plane resident");
        assert_eq!(p, p_ref);
        assert_eq!(pv, pv_ref);
        assert_eq!(v, v_ref);
        // Empty batches answer empty, not panic.
        let empty = Matrix32::zeros(0, rows.n_cols());
        assert_eq!(model.predict_proba32(empty.view()), Some(Vec::new()));
    }

    #[test]
    fn f32_plane_accepts_finite_features_beyond_f32_range() {
        // A finite raw-scale feature like 1e40 must not panic the f32
        // plane's finiteness guard (it saturates to ±f32::MAX and compares
        // correctly against every in-range threshold — same branch as f64).
        let (rows, labels) = imbalanced_data(200, 0.3, 23);
        let mut model = BaggingClassifier::fit(&BaggingConfig::trees(5, 3), rows.view(), &labels);
        let mut q = rows.gather(&[0, 1, 2, 3]);
        q.row_mut(0)[1] = 1e40;
        q.row_mut(2)[0] = -1e40;
        let p64 = model.predict_proba(q.view());
        model.set_precision(Precision::F32).unwrap();
        let p32 = model.predict_proba(q.view());
        for (a, b) in p64.iter().zip(&p32) {
            assert!((a - b).abs() <= 1e-5, "saturated row diverged: {a} vs {b}");
        }
    }

    #[test]
    fn f32_switch_is_a_no_op_for_non_tree_members() {
        let (rows, labels) = imbalanced_data(120, 0.3, 22);
        let mut model = BaggingClassifier::fit(&BaggingConfig::svms(2, 3), rows.view(), &labels);
        let q = rows.view().head(10);
        let p64 = model.predict_proba(q);
        model.set_precision(Precision::F32).unwrap();
        assert!(model.forest32().is_none(), "SVMs have no f32 plane");
        assert_eq!(model.precision(), Precision::F64, "the serving plane");
        assert_eq!(model.predict_proba(q), p64, "predictions stay f64-exact");
    }

    #[test]
    fn oversized_feature_width_is_a_typed_narrow_error() {
        // 8-bit feature field caps the f32 plane at 256 features; the
        // switch must surface the violation as a typed error and leave the
        // model serving from the f64 plane.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..300).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let labels: Vec<f64> = (0..40).map(|i| f64::from(i % 2 == 0)).collect();
        let x = Matrix::from_rows(&rows);
        let mut model = BaggingClassifier::fit(&BaggingConfig::trees(2, 3), x.view(), &labels);
        let err = model.set_precision(Precision::F32).unwrap_err();
        assert_eq!(
            err,
            crate::forest32::NarrowError::TooManyFeatures {
                n_features: 300,
                max: 256
            }
        );
        assert_eq!(model.precision(), Precision::F64, "plane unchanged");
        assert!(model.forest32().is_none());
        // The error carries the human-readable cap description.
        assert!(err.to_string().contains("8-bit feature field"));
    }

    #[test]
    fn deterministic_given_seed() {
        let (rows, labels) = imbalanced_data(200, 0.3, 9);
        let a = BaggingClassifier::fit(&BaggingConfig::trees(6, 42), rows.view(), &labels);
        let b = BaggingClassifier::fit(&BaggingConfig::trees(6, 42), rows.view(), &labels);
        assert_eq!(
            a.predict_proba(rows.view().head(20)),
            b.predict_proba(rows.view().head(20))
        );
    }

    #[test]
    fn short_names_match_paper_acronyms() {
        assert_eq!(BaggingConfig::trees(1, 0).base.short_name(), "DTB");
        assert_eq!(BaggingConfig::svms(1, 0).base.short_name(), "SVB");
        assert_eq!(BaggingConfig::gps(1, 0).base.short_name(), "GPB");
    }

    #[test]
    #[should_panic(expected = "at least one ensemble member")]
    fn zero_members_rejected() {
        let (rows, labels) = imbalanced_data(50, 0.3, 10);
        let config = BaggingConfig {
            n_estimators: 0,
            ..BaggingConfig::trees(1, 0)
        };
        let _ = BaggingClassifier::fit(&config, rows.view(), &labels);
    }
}
