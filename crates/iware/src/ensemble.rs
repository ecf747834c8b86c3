//! The enhanced iWare-E ensemble.
//!
//! iWare-E (imperfect-observation-aware Ensemble, Gholami et al. 2018)
//! handles the one-sided label noise of patrol data by training I weak
//! learners on datasets filtered at increasing patrol-effort thresholds:
//! learner C_{θᵢ⁻} sees every positive but only the negatives recorded with
//! effort above θᵢ (low-effort negatives are unreliable). At prediction time
//! only the learners whose threshold does not exceed the point's patrol
//! effort are *qualified* to vote.
//!
//! This implementation includes the paper's three enhancements (Sec. IV):
//! 1. classifier weights optimised by stratified cross-validation on log
//!    loss rather than uniform voting,
//! 2. thresholds placed at patrol-effort percentiles, and
//! 3. Gaussian-process weak learners whose predictive variance gives each
//!    prediction an uncertainty score, later consumed by the robust patrol
//!    planner.
//!
//! Feature batches are flat row-major [`MatrixView`]s. No learner copies
//! its training rows: each trains on a list of batch rows (its
//! effort-filtered subset, a CV fold's training rows, or the whole batch
//! as the fallback) through [`BaggingClassifier::fit_ranked`]. Tree
//! learners rank the batch once per fit and derive every learner's, fold's
//! and fold learner's ranking from that one with [`Ranking::subset`]; a
//! warm refit ranks only when it refits a learner or reruns the full CV.
//! The I learners fit in parallel, and [`IWareModel::effort_response`]
//! evaluates the park-wide g_v(c) / ν_v(c) surfaces cell-parallel into flat
//! response matrices.
//!
//! When the weak learners are tree ensembles, the whole I×B learner stack
//! is additionally fused into one arena-backed [`Forest`]: every
//! park-wide prediction (`effort_response`, the `*_at_effort` entry
//! points) runs a single level-synchronous batch traversal over the
//! combined slab instead of I separate per-learner member passes, then
//! reduces the member rows per learner in the exact member order of the
//! per-learner path (bit-identical results). The fused stack and its
//! traverse → reduce → combine pipeline are written once, generic over the
//! plane's element: the fitted f64 stack and its f32 narrowing (selected
//! with [`IWareModel::set_precision`]) run the same bodies, each
//! monomorphised with the operation order of its plane.
//!
//! Every other learner base (Gaussian processes, SVMs) goes through
//! **learner tables** instead: each learner scores the whole batch once
//! into an `n_learners × n_rows` (probability, variance) pair
//! ([`LearnerTables`]), and one combine path turns the tables into a
//! constant-effort risk map ([`IWareModel::combine_tables_at_effort`]) or
//! a response surface ([`IWareModel::combine_tables_response`]). A
//! learner's prediction for a row depends on neither the effort level nor
//! the grid, so a caller that keeps the tables — a prepared park in
//! `paws-core` — serves every later query on the same rows with the
//! combine alone. Tables carry the id of the model that computed them and
//! the combiners refuse another model's tables; the unprepared entry
//! points (`predict_with_variance_at_effort` at a constant effort,
//! `effort_response`) build fresh tables and run the same combiners, so
//! both routes produce the same bits.

use crate::thresholds::{qualified_count, qualified_learners, select_thresholds, ThresholdMode};
use crate::weights::{optimize_weights, WeightMode};
use paws_data::matrix::{Matrix, Matrix32, MatrixView, MatrixView32};
use paws_data::simd::{self, Element};
use paws_ml::bagging::{BaggingClassifier, BaggingConfig, BaseLearnerConfig};
use paws_ml::cv::stratified_kfold;
use paws_ml::forest::{ArenaElement, Forest};
use paws_ml::forest32::{Forest32, NarrowError};
use paws_ml::precision::Precision;
use paws_ml::snapshot::{
    section as snapshot_section, PayloadKind, SnapshotError, SnapshotReader, SnapshotWriter,
};
use paws_ml::traits::{
    validate_effort_grid, validate_query, validate_training_data, Classifier, QueryError,
    UncertainClassifier,
};
use paws_ml::tree::Ranking;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Configuration of the iWare-E ensemble.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IWareConfig {
    /// Number of weak learners I (the paper uses 20 for MFNP/QENP, 10 for SWS).
    pub n_learners: usize,
    /// Configuration of each weak learner (a bagging ensemble).
    pub base: BaggingConfig,
    /// Threshold placement scheme.
    pub threshold_mode: ThresholdMode,
    /// Weight combination scheme.
    pub weight_mode: WeightMode,
    /// Minimum number of training points a filtered subset must retain;
    /// below this the learner falls back to the unfiltered data.
    pub min_subset_size: usize,
    /// Base random seed.
    pub seed: u64,
}

impl IWareConfig {
    /// A reasonable default around a given weak-learner configuration.
    pub fn new(n_learners: usize, base: BaggingConfig, seed: u64) -> Self {
        Self {
            n_learners,
            base,
            threshold_mode: ThresholdMode::Percentile,
            weight_mode: WeightMode::default(),
            min_subset_size: 20,
            seed,
        }
    }
}

/// Rows are evaluated in blocks of this many across the park-wide
/// prediction paths (matches the forest traversal's internal block size,
/// so fused traverse→reduce→combine stays cache-resident).
const ROW_CHUNK: usize = 256;

/// A qualified learner set whose weight mass is at most this falls back to
/// the unweighted mean of its learners. On the f32 plane the cutoff is the
/// nearest f32; real weight prefixes are either exactly 0.0 (every weight
/// optimised to zero) or far above the cutoff, so both planes agree on
/// which prefixes fall back.
const DEGENERATE_WEIGHT_SUM: f64 = 1e-12;

/// The whole learner stack's trees fused into one arena: `ranges[i]` is the
/// tree index range of learner `i` within the combined forest. The f64
/// stack is the fitted one; its `f32` narrowing serves the f32 plane.
struct LearnerStack<T: ArenaElement = f64> {
    forest: Forest<T>,
    ranges: Vec<std::ops::Range<usize>>,
}

impl<T: ArenaElement> LearnerStack<T> {
    /// Fused traverse-and-reduce for one row block: batch-traverse the
    /// arena for rows `start..start + len`, then fold each learner's
    /// member rows into `(means, spreads)` (`n_learners × len`, learner-
    /// major) while the per-tree block is still cache-resident. Without
    /// `with_variance` the spread pass is skipped and `spreads` is empty.
    fn block_tables(
        &self,
        x: MatrixView<'_, T>,
        start: usize,
        len: usize,
        with_variance: bool,
    ) -> (Vec<T>, Vec<T>) {
        let mut per_tree = vec![T::ZERO; self.forest.n_trees() * len];
        self.forest
            .predict_proba_block(x, start, len, &mut per_tree);
        let nl = self.ranges.len();
        let mut probs = vec![T::ZERO; nl * len];
        let mut vars = vec![T::ZERO; if with_variance { nl * len } else { 0 }];
        for (li, range) in self.ranges.iter().enumerate() {
            reduce_members(
                &per_tree,
                len,
                range.clone(),
                &mut probs[li * len..(li + 1) * len],
                None,
            );
        }
        if with_variance {
            for (li, range) in self.ranges.iter().enumerate() {
                reduce_members(
                    &per_tree,
                    len,
                    range.clone(),
                    &mut vars[li * len..(li + 1) * len],
                    Some(&probs[li * len..(li + 1) * len]),
                );
            }
        }
        (probs, vars)
    }
}

/// One learner's record inside a [`FitCache`]: its effort-filter
/// threshold, the exact row subset it trained on, the degenerate-fallback
/// flag, and the fitted members themselves (which carry their bootstrap
/// in-bag row counts).
#[derive(Debug, Clone)]
struct LearnerRecord {
    /// Effort threshold θᵢ the subset was filtered at — the learner's
    /// identity for seed keying and cross-count warm-refit matching.
    threshold: f64,
    /// Ascending row indices of the effort-filtered training subset.
    filtered: Vec<usize>,
    /// Whether the filter was degenerate and the learner fell back to the
    /// full batch.
    degenerate: bool,
    /// The fitted weak learner (bagged members + bootstrap indices).
    learner: BaggingClassifier,
}

/// Cached out-of-fold artefacts of the CV-weight solve: one member
/// prediction row (a row of the flat `points × learners` matrix), patrol
/// effort and label per validation point. Efforts are stored raw — not
/// pre-resolved qualified prefixes — so a warm resolve can recompute
/// qualification against thresholds that moved since.
#[derive(Debug, Clone)]
struct CvCache {
    predictions: Matrix,
    efforts: Vec<f64>,
    labels: Vec<f64>,
    iterations: usize,
}

/// Persistent record of a staged [`IWareModel::fit_cached`]: per learner
/// its filter range, training subset and fitted members, plus the cached
/// out-of-fold member predictions of the CV-weight solve. Feed it back to
/// [`IWareModel::warm_refit`] to keep unchanged learners, refit only moved
/// ones, and re-solve weights without retraining fold models.
#[derive(Debug, Clone)]
pub struct FitCache {
    records: Vec<LearnerRecord>,
    cv: Option<CvCache>,
    n_rows: usize,
}

impl FitCache {
    /// Number of training rows the cache describes.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of learners recorded.
    pub fn n_learners(&self) -> usize {
        self.records.len()
    }

    /// Whether cached out-of-fold CV predictions are available (absent for
    /// uniform weights or when the batch was too small to stratify).
    pub fn has_cv_cache(&self) -> bool {
        self.cv.is_some()
    }
}

/// What a [`IWareModel::warm_refit`] actually did, per pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefitStats {
    /// Learners kept verbatim (exact or within-tolerance subsets).
    pub learners_kept: usize,
    /// Learners refit from their new filtered subsets.
    pub learners_refitted: usize,
    /// Whether the CV-weight solve ran on cached out-of-fold predictions
    /// (the resolve-only path: no fold model retrained).
    pub cv_resolved_from_cache: bool,
    /// Whether a full fold-retraining CV solve ran instead.
    pub full_cv: bool,
}

/// Source of [`IWareModel`] ids, unique within the process.
static NEXT_MODEL_ID: AtomicU64 = AtomicU64::new(0);

fn next_model_id() -> u64 {
    // The counter publishes no other data; `fetch_add` alone keeps ids
    // unique, so `Relaxed` suffices.
    NEXT_MODEL_ID.fetch_add(1, Ordering::Relaxed)
}

/// The per-learner (probability, variance) tables of one feature batch,
/// stamped with the model that computed them.
///
/// Each table is learner-major `n_learners × n_rows`. Neither depends on
/// an effort level, so one batch's tables serve every risk map and
/// response surface on it. Build them with [`IWareModel::learner_tables`]
/// and combine them with [`IWareModel::combine_tables_at_effort`] or
/// [`IWareModel::combine_tables_response`], which refuse tables stamped by
/// any other model.
pub struct LearnerTables {
    model_id: u64,
    n_rows: usize,
    probs: Vec<f64>,
    vars: Vec<f64>,
}

/// A fitted iWare-E ensemble.
pub struct IWareModel {
    /// Process-unique id stamped on the [`LearnerTables`] this model
    /// computes. Each constructor draws a fresh one, and it is never
    /// refreshed: the only `&mut self` method, `set_precision`, touches
    /// only the tree stacks, and tree stacks never build tables, so tables
    /// stay valid for the model's lifetime.
    id: u64,
    thresholds: Vec<f64>,
    /// Per-threshold weak learners. Empty for a model reconstructed from a
    /// stack snapshot — every park-wide serving path then answers from the
    /// fused `stack`, and the sizing of learner-major tables goes through
    /// `ranges`/`weights`, never `learners.len()`.
    learners: Vec<BaggingClassifier>,
    weights: Vec<f64>,
    /// Feature width the learners were fitted on (recorded at fit or
    /// snapshot-load time; the query-validation width).
    n_features: usize,
    /// Present when every learner is a tree ensemble (the DTB variants).
    stack: Option<LearnerStack>,
    /// The f32 plane: the fused stack narrowed to 8-byte nodes, with the
    /// weights narrowed once. Present exactly while a tree stack is
    /// switched to [`Precision::F32`], which makes f32 the serving plane of
    /// the park-wide paths (a derived cache of `stack` and `weights`,
    /// rebuilt on demand, never serialized; fitting is untouched).
    stack32: Option<(LearnerStack<f32>, Vec<f32>)>,
    config: IWareConfig,
}

impl IWareModel {
    /// Fit the ensemble on a training feature batch, binary labels and the
    /// patrol effort associated with each point (the filtering variable).
    ///
    /// With heavy ties in the training effort, tied percentile thresholds
    /// are deduplicated (see [`select_thresholds`]), so the fitted model
    /// can hold fewer learners than `config.n_learners` — never duplicate
    /// ones.
    pub fn fit(config: &IWareConfig, x: MatrixView<'_>, labels: &[f64], efforts: &[f64]) -> Self {
        Self::fit_cached(config, x, labels, efforts).0
    }

    /// The staged fit pipeline, returning both the model and the
    /// [`FitCache`] that enables warm incremental refits: percentile
    /// threshold selection → effort-filtered subset plans → per-learner
    /// member fits → fused arena build → CV-weight solve on cached
    /// out-of-fold member predictions. A tree base ranks the batch once, at
    /// the first member fit, for every learner and CV fold.
    /// [`IWareModel::fit`] is exactly this pipeline with the cache dropped
    /// — the two produce bit-identical models (every stage draws from its
    /// own index-derived RNG stream, so staging changes no floats).
    pub fn fit_cached(
        config: &IWareConfig,
        x: MatrixView<'_>,
        labels: &[f64],
        efforts: &[f64],
    ) -> (Self, FitCache) {
        assert_eq!(x.n_rows(), labels.len(), "rows/labels length mismatch");
        assert_eq!(x.n_rows(), efforts.len(), "rows/efforts length mismatch");
        assert!(config.n_learners >= 1, "need at least one learner");
        // Stage 1: threshold selection.
        let thresholds = select_thresholds(config.threshold_mode, efforts, config.n_learners);
        assert!(
            thresholds.windows(2).all(|w| w[1] > w[0]),
            "thresholds must be strictly ascending — duplicates would train \
             identical learners that are double-counted in the weighted vote"
        );
        let n_learners = thresholds.len();

        // Stage 2: effort-filtered subset plans. The plans record the
        // exact row subset each learner sees — the warm-refit keep/refit
        // signal.
        let plans = plan_filtered_learners(config, &thresholds, labels, efforts);

        // Stage 3: per-learner member fits on the planned subsets, every
        // ranking derived from the batch's one.
        let batch = FitBatch::new(config, x, labels);
        let learners = fit_planned_learners(config, &thresholds, &plans, &batch);

        // Stage 4: fused learner-stack arena build.
        let stack = build_stack(&learners, x.n_cols());

        // Stage 5: CV-weight solve, caching the out-of-fold member
        // predictions (and each point's effort/label) it optimised over.
        let uniform = vec![1.0 / n_learners as f64; n_learners];
        let (weights, cv) = match config.weight_mode {
            WeightMode::Uniform => (uniform, None),
            WeightMode::CvOptimized { folds, iterations } => {
                match cv_weight_fit_cached(config, &thresholds, &batch, efforts, folds, iterations)
                {
                    Some((w, cv)) => (w, Some(cv)),
                    None => (uniform, None),
                }
            }
        };

        let records = learner_records(plans, &thresholds, &learners);
        let cache = FitCache {
            records,
            cv,
            n_rows: x.n_rows(),
        };
        let model = Self {
            id: next_model_id(),
            thresholds,
            learners,
            weights,
            n_features: x.n_cols(),
            stack,
            stack32: None,
            config: config.clone(),
        };
        (model, cache)
    }

    /// Warm incremental refit against the cache of a previous
    /// [`IWareModel::fit_cached`] (or earlier `warm_refit`), on an
    /// **append-only** extension of the cached training batch: rows
    /// `0..cache.n_rows()` must be the exact rows the cache was built on.
    ///
    /// Thresholds are recomputed from scratch — percentile ranks move on
    /// every append, so threshold *values* are not the keep signal; the
    /// effort-filtered subsets are. Per learner:
    ///
    /// * recomputed subset identical to the recorded one, at an unmoved
    ///   threshold (and both non-degenerate) → the refit would be
    ///   bit-identical, keep the fitted members verbatim;
    /// * relative subset drift (symmetric difference over the recorded
    ///   size) within a non-zero `tolerance` → keep too. This is the warm
    ///   path's only source of divergence from a cold fit: the kept
    ///   learner saw a slightly stale subset (or a θ-keyed seed that
    ///   moved with its threshold). It is bounded by `tolerance` per
    ///   learner and disappears at `tolerance = 0`;
    /// * anything else — including degenerate full-batch learners, whose
    ///   inputs change on any append — refits with the same
    ///   threshold-keyed seed a cold fit would use.
    ///
    /// The CV-weight solve then reruns on the cached out-of-fold member
    /// predictions, extended with the current learners' predictions on the
    /// appended rows, and qualified sets recomputed against the moved
    /// thresholds — no fold models are retrained. When threshold
    /// deduplication changes the learner *count*, records are matched to
    /// the new threshold list by θ identity instead of by position (seeds
    /// are θ-keyed, so surviving thresholds keep their learners warm) and
    /// only the weight solve falls back to a full fold-retraining CV —
    /// see `IWareModel::warm_refit_count_changed`.
    ///
    /// The cache is updated in place to describe the returned model.
    ///
    /// # Panics
    /// Panics when the batch shrinks below the cached row count or the
    /// shape assertions of [`IWareModel::fit`] fail.
    pub fn warm_refit(
        config: &IWareConfig,
        cache: &mut FitCache,
        x: MatrixView<'_>,
        labels: &[f64],
        efforts: &[f64],
        tolerance: f64,
    ) -> (Self, RefitStats) {
        assert_eq!(x.n_rows(), labels.len(), "rows/labels length mismatch");
        assert_eq!(x.n_rows(), efforts.len(), "rows/efforts length mismatch");
        assert!(
            x.n_rows() >= cache.n_rows,
            "warm refit needs an append-only extension of the cached batch"
        );
        let thresholds = select_thresholds(config.threshold_mode, efforts, config.n_learners);
        assert!(
            thresholds.windows(2).all(|w| w[1] > w[0]),
            "thresholds must be strictly ascending — duplicates would train \
             identical learners that are double-counted in the weighted vote"
        );
        let appended = x.n_rows() - cache.n_rows;
        if thresholds.len() != cache.records.len() {
            return Self::warm_refit_count_changed(
                config, cache, x, labels, efforts, tolerance, thresholds, appended,
            );
        }
        let n_learners = thresholds.len();

        let plans = plan_filtered_learners(config, &thresholds, labels, efforts);
        let keep: Vec<bool> = plans
            .iter()
            .zip(&cache.records)
            .zip(&thresholds)
            .map(|((plan, rec), &theta)| keep_record(rec, plan, theta, appended, tolerance))
            .collect();
        let records = &cache.records;
        let batch = FitBatch::new(config, x, labels);
        let learners: Vec<BaggingClassifier> = (0..n_learners)
            .into_par_iter()
            .map(|i| {
                if keep[i] {
                    records[i].learner.clone()
                } else {
                    fit_one_learner(config, thresholds[i], &batch, plans[i].rows())
                }
            })
            .collect();

        let stack = build_stack(&learners, x.n_cols());

        let uniform = vec![1.0 / n_learners as f64; n_learners];
        let mut cv_resolved_from_cache = false;
        let mut full_cv = false;
        let weights = match config.weight_mode {
            WeightMode::Uniform => uniform,
            WeightMode::CvOptimized { folds, iterations } => match cache.cv.as_mut() {
                Some(cv) => {
                    cv_resolved_from_cache = true;
                    resolve_weights_cached(
                        cv,
                        &learners,
                        &thresholds,
                        x,
                        labels,
                        efforts,
                        cache.n_rows,
                    )
                }
                None => {
                    // The original fit could not support CV (too few
                    // points); retry in full now that the batch has grown.
                    match cv_weight_fit_cached(
                        config,
                        &thresholds,
                        &batch,
                        efforts,
                        folds,
                        iterations,
                    ) {
                        Some((w, cv)) => {
                            full_cv = true;
                            cache.cv = Some(cv);
                            w
                        }
                        None => uniform,
                    }
                }
            },
        };

        let learners_kept = keep.iter().filter(|&&k| k).count();
        let stats = RefitStats {
            learners_kept,
            learners_refitted: n_learners - learners_kept,
            cv_resolved_from_cache,
            full_cv,
        };
        cache.records = learner_records(plans, &thresholds, &learners);
        cache.n_rows = x.n_rows();
        let model = Self {
            id: next_model_id(),
            thresholds,
            learners,
            weights,
            n_features: x.n_cols(),
            stack,
            stack32: None,
            config: config.clone(),
        };
        (model, stats)
    }

    /// Warm-refit leg for a changed learner *count* (threshold
    /// deduplication added or removed a level). Per-learner seeds are
    /// keyed by threshold identity, so cached records are matched to the
    /// new threshold list by θ bit pattern instead of by position —
    /// learners whose threshold survives the count change are kept warm,
    /// the rest refit exactly as their cold twins would. The cached CV
    /// prediction columns *are* positional in the old learner set, so the
    /// weight solve re-runs the full fold-retraining CV (identical to
    /// stage 5 of a cold fit); the refreshed cache carries the new
    /// columns. At tolerance 0 the result is bit-identical to
    /// [`IWareModel::fit_cached`] on the same batch, minus the member
    /// fits of every surviving learner.
    #[allow(clippy::too_many_arguments)] // internal leg of warm_refit, not API
    fn warm_refit_count_changed(
        config: &IWareConfig,
        cache: &mut FitCache,
        x: MatrixView<'_>,
        labels: &[f64],
        efforts: &[f64],
        tolerance: f64,
        thresholds: Vec<f64>,
        appended: usize,
    ) -> (Self, RefitStats) {
        let n_learners = thresholds.len();
        let plans = plan_filtered_learners(config, &thresholds, labels, efforts);
        let by_theta: std::collections::HashMap<u64, &LearnerRecord> = cache
            .records
            .iter()
            .map(|rec| (rec.threshold.to_bits(), rec))
            .collect();
        let kept: Vec<Option<&LearnerRecord>> = thresholds
            .iter()
            .zip(&plans)
            .map(|(&theta, plan)| {
                by_theta
                    .get(&theta.to_bits())
                    .copied()
                    .filter(|rec| keep_record(rec, plan, theta, appended, tolerance))
            })
            .collect();
        let batch = FitBatch::new(config, x, labels);
        let learners: Vec<BaggingClassifier> = (0..n_learners)
            .into_par_iter()
            .map(|i| match kept[i] {
                Some(rec) => rec.learner.clone(),
                None => fit_one_learner(config, thresholds[i], &batch, plans[i].rows()),
            })
            .collect();
        let learners_kept = kept.iter().filter(|k| k.is_some()).count();

        let stack = build_stack(&learners, x.n_cols());

        let uniform = vec![1.0 / n_learners as f64; n_learners];
        let mut full_cv = false;
        let weights = match config.weight_mode {
            WeightMode::Uniform => {
                cache.cv = None;
                uniform
            }
            WeightMode::CvOptimized { folds, iterations } => {
                match cv_weight_fit_cached(config, &thresholds, &batch, efforts, folds, iterations)
                {
                    Some((w, cv)) => {
                        full_cv = true;
                        cache.cv = Some(cv);
                        w
                    }
                    None => {
                        cache.cv = None;
                        uniform
                    }
                }
            }
        };

        let stats = RefitStats {
            learners_kept,
            learners_refitted: n_learners - learners_kept,
            cv_resolved_from_cache: false,
            full_cv,
        };
        cache.records = learner_records(plans, &thresholds, &learners);
        cache.n_rows = x.n_rows();
        let model = Self {
            id: next_model_id(),
            thresholds,
            learners,
            weights,
            n_features: x.n_cols(),
            stack,
            stack32: None,
            config: config.clone(),
        };
        (model, stats)
    }

    /// Select the plane that serves the park-wide prediction paths
    /// ([`IWareModel::effort_response`] and the constant-effort
    /// `predict_*_at_effort` entry points, i.e. response surfaces and risk
    /// maps). Switching to [`Precision::F32`] narrows the fused learner
    /// stack once — an 8-byte-node [`Forest32`] plus f32 weights — and the
    /// fused traverse→reduce→combine pipeline then runs end-to-end in f32,
    /// widening only the emitted surface. Per-row *varying*-effort
    /// prediction and non-tree learner stacks keep the f64 path regardless
    /// (they are not park-wide hot paths). Training is never affected.
    ///
    /// # Errors
    /// Returns the [`NarrowError`] when the fused learner-stack arena
    /// exceeds the f32 plane's packing caps (2²⁴ nodes / 256 features);
    /// the model keeps serving from its previous plane then.
    pub fn set_precision(&mut self, precision: Precision) -> Result<(), NarrowError> {
        match precision {
            Precision::F32 => {
                if self.stack32.is_none() {
                    if let Some(stack) = &self.stack {
                        let narrowed = LearnerStack {
                            forest: Forest32::try_from_forest(&stack.forest)?,
                            ranges: stack.ranges.clone(),
                        };
                        let weights = self.weights.iter().map(|&w| w as f32).collect();
                        self.stack32 = Some((narrowed, weights));
                    }
                }
            }
            Precision::F64 => self.stack32 = None,
        }
        Ok(())
    }

    /// The plane currently serving park-wide predictions: [`Precision::F32`]
    /// exactly while a narrowed learner stack is resident, so a GP or SVM
    /// stack, which has no f32 plane, reports [`Precision::F64`] whatever
    /// was asked of [`IWareModel::set_precision`].
    pub fn precision(&self) -> Precision {
        if self.stack32.is_some() {
            Precision::F32
        } else {
            Precision::F64
        }
    }

    /// Size of the narrowed f32 arena as `(n_trees, n_nodes)`; `None`
    /// unless the model is switched to [`Precision::F32`] with a tree
    /// learner stack.
    pub fn arena32_stats(&self) -> Option<(usize, usize)> {
        self.stack32
            .as_ref()
            .map(|(s, _)| (s.forest.n_trees(), s.forest.n_nodes()))
    }

    /// The fitted thresholds θᵢ, ascending.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// The fitted classifier weights (a probability simplex).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of weak learners. Counted via the weight vector (one weight
    /// per learner), which is present both on fitted models and on models
    /// reconstructed from a stack snapshot.
    pub fn n_learners(&self) -> usize {
        self.weights.len()
    }

    /// Feature width the model was fitted on (the width
    /// [`IWareModel::try_effort_response`] validates queries against).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The configuration the model was fitted with.
    pub fn config(&self) -> &IWareConfig {
        &self.config
    }

    /// Size of the fused learner-stack arena as `(n_trees, n_nodes)`;
    /// `None` when the weak learners are not tree ensembles.
    pub fn arena_stats(&self) -> Option<(usize, usize)> {
        self.stack
            .as_ref()
            .map(|s| (s.forest.n_trees(), s.forest.n_nodes()))
    }

    /// Per-learner probabilities as a flat `n_learners × n_rows` matrix.
    /// Callers guard against empty batches. Tree stacks answer with one
    /// batch traversal of the fused arena.
    fn learner_probabilities(&self, x: MatrixView<'_>) -> Matrix {
        if let Some(stack) = &self.stack {
            let per_tree = stack.forest.predict_proba_batch(x);
            let stride = x.n_rows();
            let mut probs = Matrix::zeros(stack.ranges.len(), stride);
            for (li, range) in stack.ranges.iter().enumerate() {
                reduce_members(
                    per_tree.as_slice(),
                    stride,
                    range.clone(),
                    probs.row_mut(li),
                    None,
                );
            }
            return probs;
        }
        let per_learner: Vec<Vec<f64>> = self
            .learners
            .par_iter()
            .map(|l| l.predict_proba(x))
            .collect();
        Matrix::from_rows(&per_learner)
    }

    /// Per-learner (probability, variance) tables of a batch, stamped with
    /// this model's id. Tree stacks answer with one batch traversal of the
    /// fused arena, then reduce each learner's member rows to mean and
    /// spread (the member order — and therefore every float — matches the
    /// per-learner path exactly); tree callers guard against empty
    /// batches. Other learner bases score the batch learner by learner.
    fn learner_prob_var(&self, x: MatrixView<'_>) -> LearnerTables {
        let n_rows = x.n_rows();
        let (probs, vars) = match &self.stack {
            Some(stack) => {
                let per_tree = stack.forest.predict_proba_batch(x);
                let mut probs = vec![0.0; stack.ranges.len() * n_rows];
                let mut vars = vec![0.0; stack.ranges.len() * n_rows];
                for (li, range) in stack.ranges.iter().enumerate() {
                    let row = li * n_rows..(li + 1) * n_rows;
                    let p = &mut probs[row.clone()];
                    reduce_members(per_tree.as_slice(), n_rows, range.clone(), p, None);
                    let v = &mut vars[row];
                    reduce_members(per_tree.as_slice(), n_rows, range.clone(), v, Some(p));
                }
                (probs, vars)
            }
            None => {
                let pv: Vec<(Vec<f64>, Vec<f64>)> = self
                    .learners
                    .par_iter()
                    .map(|l| l.predict_with_variance(x))
                    .collect();
                let mut probs = Vec::with_capacity(pv.len() * n_rows);
                let mut vars = Vec::with_capacity(pv.len() * n_rows);
                for (p, v) in pv {
                    probs.extend_from_slice(&p);
                    vars.extend_from_slice(&v);
                }
                (probs, vars)
            }
        };
        LearnerTables {
            model_id: self.id,
            n_rows,
            probs,
            vars,
        }
    }

    /// The per-learner tables of a feature batch (standardised like every
    /// other query), for a model without a fused tree stack: each learner
    /// scores the batch once. `None` for tree stacks, whose fused
    /// per-block pipeline never materialises the tables. Combining them
    /// with [`IWareModel::combine_tables_at_effort`] or
    /// [`IWareModel::combine_tables_response`] gives the exact bits of
    /// the direct entry points on the same batch.
    pub fn learner_tables(&self, x: MatrixView<'_>) -> Option<LearnerTables> {
        self.stack.is_none().then(|| self.learner_prob_var(x))
    }

    /// Risk and uncertainty at one effort level from this model's learner
    /// tables: bit-identical to [`IWareModel::predict_with_variance_at_effort`]
    /// at that constant effort on the batch the tables were built from.
    /// `None` when the tables carry another model's id.
    pub fn combine_tables_at_effort(
        &self,
        tables: &LearnerTables,
        effort: f64,
    ) -> Option<(Vec<f64>, Vec<f64>)> {
        (tables.model_id == self.id).then(|| self.combine_at_effort(tables, effort))
    }

    /// Response surfaces over an effort grid from this model's learner
    /// tables: bit-identical to [`IWareModel::effort_response`] on the
    /// batch the tables were built from. `None` when the tables carry
    /// another model's id.
    ///
    /// # Panics
    /// Panics on an empty effort grid, like [`IWareModel::effort_response`].
    pub fn combine_tables_response(
        &self,
        tables: &LearnerTables,
        effort_grid: &[f64],
    ) -> Option<(Matrix, Matrix)> {
        assert!(!effort_grid.is_empty(), "empty effort grid");
        (tables.model_id == self.id).then(|| self.combine_response(tables, effort_grid))
    }

    /// The one constant-effort combine of learner tables: one qualified
    /// set for every row, combined learner-major with contiguous axpy rows.
    fn combine_at_effort(&self, tables: &LearnerTables, effort: f64) -> (Vec<f64>, Vec<f64>) {
        let q = qualified_learners(&self.thresholds, effort);
        let n = tables.n_rows;
        (
            combine_rows(LearnerTable::new(&tables.probs, n, 0), &self.weights, &q, n),
            combine_rows(LearnerTable::new(&tables.vars, n, 0), &self.weights, &q, n),
        )
    }

    /// The one effort-grid combine of learner tables, cell-parallel over
    /// block windows of the full tables.
    fn combine_response(&self, tables: &LearnerTables, effort_grid: &[f64]) -> (Matrix, Matrix) {
        let (qualified_per_level, prefix_lens) = self.level_plan(effort_grid);
        let n_rows = tables.n_rows;
        blocked_response(n_rows, effort_grid.len(), |start, len, p_flat, v_flat| {
            combine_levels_block(
                &self.weights,
                prefix_lens.as_deref(),
                &qualified_per_level,
                LearnerTable::new(&tables.probs, n_rows, start),
                LearnerTable::new(&tables.vars, n_rows, start),
                len,
                p_flat,
                v_flat,
            );
        })
    }

    /// Constant-effort risk (and, `with_variance`, uncertainty; empty
    /// otherwise) from a fused learner stack on either plane: per
    /// [`ROW_CHUNK`]-row block, traverse → reduce → combine while the block
    /// is cache-resident, widening each combined block at emission.
    fn stack_at_effort<T: ArenaElement>(
        &self,
        (stack, weights): (&LearnerStack<T>, &[T]),
        x: MatrixView<'_, T>,
        effort: f64,
        with_variance: bool,
    ) -> (Vec<f64>, Vec<f64>) {
        let q = qualified_learners(&self.thresholds, effort);
        let n_rows = x.n_rows();
        let starts: Vec<usize> = (0..n_rows).step_by(ROW_CHUNK).collect();
        let parts: Vec<(Vec<f64>, Vec<f64>)> = starts
            .into_par_iter()
            .map(|start| {
                let len = ROW_CHUNK.min(n_rows - start);
                let (probs, vars) = stack.block_tables(x, start, len, with_variance);
                let combine = |table: &[T]| {
                    T::into_f64_vec(combine_rows(
                        LearnerTable::new(table, len, 0),
                        weights,
                        &q,
                        len,
                    ))
                };
                let p = combine(&probs);
                let v = if with_variance {
                    combine(&vars)
                } else {
                    Vec::new()
                };
                (p, v)
            })
            .collect();
        let mut p_all = Vec::with_capacity(n_rows);
        let mut v_all = Vec::with_capacity(if with_variance { n_rows } else { 0 });
        for (p, v) in parts {
            p_all.extend_from_slice(&p);
            v_all.extend_from_slice(&v);
        }
        (p_all, v_all)
    }

    /// Response surfaces from a fused learner stack on either plane,
    /// cell-parallel and fused per block: traverse → reduce → combine every
    /// level, widening at emission.
    fn stack_response<T: ArenaElement>(
        &self,
        (stack, weights): (&LearnerStack<T>, &[T]),
        x: MatrixView<'_, T>,
        effort_grid: &[f64],
    ) -> (Matrix, Matrix) {
        let (qualified_per_level, prefix_lens) = self.level_plan(effort_grid);
        blocked_response(
            x.n_rows(),
            effort_grid.len(),
            |start, len, p_flat, v_flat| {
                let (probs, vars) = stack.block_tables(x, start, len, true);
                combine_levels_block(
                    weights,
                    prefix_lens.as_deref(),
                    &qualified_per_level,
                    LearnerTable::new(&probs, len, 0),
                    LearnerTable::new(&vars, len, 0),
                    len,
                    p_flat,
                    v_flat,
                );
            },
        )
    }

    /// The fitted stack with the f64 weights, when the learners are trees.
    fn f64_stack(&self) -> Option<(&LearnerStack, &[f64])> {
        self.stack.as_ref().map(|stack| (stack, &self.weights[..]))
    }

    /// The narrowed stack with its f32 weights, while one is resident.
    fn f32_stack(&self) -> Option<(&LearnerStack<f32>, &[f32])> {
        self.stack32
            .as_ref()
            .map(|(stack, weights)| (stack, &weights[..]))
    }

    /// Constant-effort probability prediction served natively from the f32
    /// plane: the caller supplies an **already-narrowed** feature batch
    /// (e.g. the cached f32 plane of a prepared serving artifact), so no
    /// per-call `Matrix32::from_f64` pass runs — the narrowing cost that
    /// made the f32 plane a net slowdown on LLC-scale risk maps is paid
    /// once at preparation time instead. Bit-identical to
    /// [`IWareModel::predict_proba_at_effort`] on a constant-effort batch
    /// narrowed from the same rows. `None` unless the model is switched to
    /// [`Precision::F32`] with a tree learner stack.
    pub fn predict_proba_at_effort32(
        &self,
        x32: MatrixView32<'_>,
        effort: f64,
    ) -> Option<Vec<f64>> {
        Some(
            self.stack_at_effort(self.f32_stack()?, x32, effort, false)
                .0,
        )
    }

    /// Constant-effort probability + uncertainty served natively from the
    /// f32 plane (see [`IWareModel::predict_proba_at_effort32`] for the
    /// contract): the fused traverse→reduce→combine pipeline runs per
    /// 256-row block on the pre-narrowed batch, widening only the emitted
    /// surfaces. `None` unless a narrowed learner stack is resident.
    pub fn predict_with_variance_at_effort32(
        &self,
        x32: MatrixView32<'_>,
        effort: f64,
    ) -> Option<(Vec<f64>, Vec<f64>)> {
        Some(self.stack_at_effort(self.f32_stack()?, x32, effort, true))
    }

    /// Predict the probability of detected poaching for each row, given the
    /// patrol effort that will be (or was) spent in the corresponding cell.
    pub fn predict_proba_at_effort(&self, x: MatrixView<'_>, efforts: &[f64]) -> Vec<f64> {
        assert_eq!(x.n_rows(), efforts.len(), "rows/efforts length mismatch");
        if x.n_rows() == 0 {
            return Vec::new();
        }
        let constant = efforts.windows(2).all(|w| w[0] == w[1]);
        // Constant-effort batches on the f32 plane (the risk-map shape):
        // narrow the batch once, then run the fused per-block pipeline in
        // f32 end-to-end.
        if let (true, Some(stack32)) = (constant, self.f32_stack()) {
            let x32 = Matrix32::from_f64(x);
            return self
                .stack_at_effort(stack32, x32.view(), efforts[0], false)
                .0;
        }
        let per_learner = self.learner_probabilities(x);
        // A constant effort (the risk-map path) means one qualified set for
        // every row: combine learner-major with contiguous axpy rows.
        if constant {
            let q = qualified_learners(&self.thresholds, efforts[0]);
            return combine_rows(
                LearnerTable::new(per_learner.as_slice(), x.n_rows(), 0),
                &self.weights,
                &q,
                x.n_rows(),
            );
        }
        let table = LearnerTable::new(per_learner.as_slice(), x.n_rows(), 0);
        (0..x.n_rows())
            .map(|r| {
                let q = qualified_learners(&self.thresholds, efforts[r]);
                combine_table_indexed(&table, &self.weights, &q, r)
            })
            .collect()
    }

    /// Predict probability and uncertainty (variance) for each row at the
    /// given patrol efforts.
    pub fn predict_with_variance_at_effort(
        &self,
        x: MatrixView<'_>,
        efforts: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(x.n_rows(), efforts.len(), "rows/efforts length mismatch");
        if x.n_rows() == 0 {
            return (Vec::new(), Vec::new());
        }
        let n_rows = x.n_rows();
        // A constant effort (the risk-map path) means one qualified set for
        // every row; tree stacks run the fused per-block pipeline, other
        // learners combine their full tables learner-major.
        if efforts.windows(2).all(|w| w[0] == w[1]) {
            if let Some(stack32) = self.f32_stack() {
                // The f32 plane's fused pipeline; narrow once, then run it
                // end-to-end.
                let x32 = Matrix32::from_f64(x);
                return self.stack_at_effort(stack32, x32.view(), efforts[0], true);
            }
            return match self.f64_stack() {
                Some(stack) => self.stack_at_effort(stack, x, efforts[0], true),
                None => self.combine_at_effort(&self.learner_prob_var(x), efforts[0]),
            };
        }
        let tables = self.learner_prob_var(x);
        let p_table = LearnerTable::new(&tables.probs, n_rows, 0);
        let v_table = LearnerTable::new(&tables.vars, n_rows, 0);
        let mut probs = Vec::with_capacity(n_rows);
        let mut vars = Vec::with_capacity(n_rows);
        for (r, &effort) in efforts.iter().enumerate() {
            let q = qualified_learners(&self.thresholds, effort);
            probs.push(combine_table_indexed(&p_table, &self.weights, &q, r));
            vars.push(combine_table_indexed(&v_table, &self.weights, &q, r));
        }
        (probs, vars)
    }

    /// Evaluate probability and uncertainty for every row across a grid of
    /// hypothetical patrol efforts. Returns `(probs, vars)` as flat
    /// `n_rows × n_levels` matrices — the g_v(c) and ν_v(c) response
    /// functions the patrol planner consumes (Sec. VI).
    ///
    /// Rows are evaluated cell-parallel in 256-row blocks. Tree-backed
    /// stacks run the whole pipeline **fused per block** — batch-traverse
    /// the arena for the block, reduce the member rows per learner, combine
    /// the levels — while every intermediate is still cache-resident,
    /// instead of materialising the full `n_trees × n_rows` table first.
    /// Other learner bases build the batch's [`LearnerTables`] and run
    /// [`IWareModel::combine_tables_response`]'s combine. Reductions and
    /// combines use the lane kernels with the exact per-element operation
    /// order of the reference path, so the f64 surface is bit-identical to
    /// per-row evaluation.
    pub fn effort_response(&self, x: MatrixView<'_>, effort_grid: &[f64]) -> (Matrix, Matrix) {
        assert!(!effort_grid.is_empty(), "empty effort grid");
        if x.n_rows() == 0 {
            let empty = || Matrix::from_flat(Vec::new(), effort_grid.len());
            return (empty(), empty());
        }
        // The f32 plane narrows the feature batch once and serves the
        // whole surface from the narrowed stack.
        if let Some(stack32) = self.f32_stack() {
            let x32 = Matrix32::from_f64(x);
            return self.stack_response(stack32, x32.view(), effort_grid);
        }
        match self.f64_stack() {
            Some(stack) => self.stack_response(stack, x, effort_grid),
            None => self.combine_response(&self.learner_prob_var(x), effort_grid),
        }
    }

    /// [`IWareModel::effort_response`] served natively from the f32 plane:
    /// the caller supplies an already-narrowed feature batch (e.g.
    /// `StandardScaler::transform_f32`, which fuses the z-score and the
    /// narrowing into one pass), and the fused traverse→reduce→combine
    /// pipeline runs per block on `f32x8` kernels, widening only the
    /// emitted surface. Returns `None` unless the model is switched to
    /// [`Precision::F32`] with a tree learner stack — callers fall back to
    /// the f64 [`IWareModel::effort_response`] then.
    pub fn effort_response32(
        &self,
        x32: MatrixView32<'_>,
        effort_grid: &[f64],
    ) -> Option<(Matrix, Matrix)> {
        let stack32 = self.f32_stack()?;
        assert!(!effort_grid.is_empty(), "empty effort grid");
        Some(self.stack_response(stack32, x32, effort_grid))
    }

    /// [`IWareModel::effort_response`] with the adversarial-input guard:
    /// the query batch and effort grid are validated (width, finiteness,
    /// non-empty) and rejected with a typed [`QueryError`] instead of
    /// tripping an assert deep inside a traversal kernel — or, on non-tree
    /// learner stacks, silently flowing NaN through kernel evaluations.
    /// This is the serving-surface entry point; the panicking
    /// `effort_response` stays for trusted in-process callers.
    pub fn try_effort_response(
        &self,
        x: MatrixView<'_>,
        effort_grid: &[f64],
    ) -> Result<(Matrix, Matrix), QueryError> {
        validate_query(x, self.n_features)?;
        validate_effort_grid(effort_grid)?;
        Ok(self.effort_response(x, effort_grid))
    }

    /// Serialize the fused learner stack — forest arena, per-learner tree
    /// ranges, classifier weights and effort thresholds — as one snapshot
    /// slab (see [`paws_ml::snapshot`] for the wire format). `None` when
    /// the weak learners are not tree ensembles (there is no fused stack
    /// to snapshot). The f32 plane is a derived cache and is never
    /// serialized; reload and call [`IWareModel::set_precision`] to
    /// rebuild it.
    pub fn to_stack_snapshot(&self) -> Option<Vec<u8>> {
        let stack = self.stack.as_ref()?;
        let mut w = SnapshotWriter::new(PayloadKind::LearnerStack);
        w.push_forest(&stack.forest);
        let mut ranges = Vec::with_capacity(stack.ranges.len() * 2);
        for r in &stack.ranges {
            ranges.push(r.start as u64);
            ranges.push(r.end as u64);
        }
        w.push_u64_section(snapshot_section::RANGES, &ranges);
        w.push_f64_section(snapshot_section::WEIGHTS, &self.weights);
        w.push_f64_section(snapshot_section::THRESHOLDS, &self.thresholds);
        Some(w.finish())
    }

    /// Reconstruct a serving model from a stack snapshot. The forest
    /// arena is revalidated structurally by the snapshot decoder; on top
    /// of that, the stack-level invariants are checked here: learner
    /// ranges partition the fused forest's trees contiguously, weights are
    /// finite and non-negative, thresholds are finite and strictly
    /// ascending, and all three sections agree on the learner count.
    ///
    /// The reconstructed model serves every park-wide prediction path
    /// (`effort_response`, the constant- and varying-effort entry points)
    /// bit-identically to the fitted original; it carries no per-learner
    /// `BaggingClassifier`s, so learner-introspection surfaces specific to
    /// fitting are unavailable. `config` is carried for introspection only
    /// and does not influence predictions.
    pub fn from_stack_snapshot(bytes: &[u8], config: IWareConfig) -> Result<Self, SnapshotError> {
        let reader = SnapshotReader::parse(bytes, PayloadKind::LearnerStack)?;
        let forest = reader.read_forest()?;
        let raw_ranges = reader.read_u64_section(snapshot_section::RANGES)?;
        let weights = reader.read_f64_section(snapshot_section::WEIGHTS)?;
        let thresholds = reader.read_f64_section(snapshot_section::THRESHOLDS)?;
        if raw_ranges.len() % 2 != 0 {
            return Err(SnapshotError::SectionShape {
                section: snapshot_section::RANGES,
                detail: "ranges must be (start, end) u64 pairs",
            });
        }
        let n_learners = raw_ranges.len() / 2;
        if n_learners == 0 || weights.len() != n_learners || thresholds.len() != n_learners {
            return Err(SnapshotError::Invariant(
                "stack sections disagree on the learner count",
            ));
        }
        let mut ranges = Vec::with_capacity(n_learners);
        let mut cursor = 0u64;
        for pair in raw_ranges.chunks_exact(2) {
            let (start, end) = (pair[0], pair[1]);
            if start != cursor || end <= start {
                return Err(SnapshotError::Invariant(
                    "learner ranges must partition the fused forest's trees contiguously",
                ));
            }
            cursor = end;
            ranges.push(start as usize..end as usize);
        }
        if cursor != forest.n_trees() as u64 {
            return Err(SnapshotError::Invariant(
                "learner ranges must cover every tree of the fused forest",
            ));
        }
        if !weights.iter().all(|w| w.is_finite() && *w >= 0.0) {
            return Err(SnapshotError::Invariant(
                "learner weights must be finite and non-negative",
            ));
        }
        if !thresholds.iter().all(|t| t.is_finite()) || !thresholds.windows(2).all(|w| w[1] > w[0])
        {
            return Err(SnapshotError::Invariant(
                "effort thresholds must be finite and strictly ascending",
            ));
        }
        let n_features = forest.n_features();
        Ok(Self {
            id: next_model_id(),
            thresholds,
            learners: Vec::new(),
            weights,
            n_features,
            stack: Some(LearnerStack { forest, ranges }),
            stack32: None,
            config,
        })
    }

    /// Qualified learner sets per effort level, plus the ascending-prefix
    /// fast-path lengths when they apply (shared by both planes).
    ///
    /// Thresholds are ascending, so each level's qualified set is a prefix
    /// of the learner list; when the requested grid is ascending too, one
    /// incremental pass over the learners serves every level (same
    /// accumulation order as `combine`, hence bit-identical).
    fn level_plan(&self, effort_grid: &[f64]) -> (Vec<Vec<usize>>, Option<Vec<usize>>) {
        let qualified_per_level: Vec<Vec<usize>> = effort_grid
            .iter()
            .map(|&e| qualified_learners(&self.thresholds, e))
            .collect();
        let prefix_lens: Option<Vec<usize>> = {
            let lens: Vec<usize> = qualified_per_level.iter().map(|q| q.len()).collect();
            let is_prefix = qualified_per_level
                .iter()
                .all(|q| q.iter().copied().eq(0..q.len()));
            let ascending = lens.windows(2).all(|w| w[0] <= w[1]);
            if is_prefix && ascending {
                Some(lens)
            } else {
                None
            }
        };
        (qualified_per_level, prefix_lens)
    }
}

/// A borrowed `n_learners × width` prediction table: learner `l`'s block
/// row is `data[l·stride + offset ..][..len]`. Lets the combine kernels
/// run unchanged over a fused per-block table (`stride = len`) or a block
/// window of full-batch learner matrices (`stride = n_rows`). Generic over
/// the scalar so the f64 and f32 planes share the layout logic.
#[derive(Clone, Copy)]
struct LearnerTable<'a, T> {
    data: &'a [T],
    stride: usize,
    offset: usize,
}

impl<'a, T: Copy> LearnerTable<'a, T> {
    fn new(data: &'a [T], stride: usize, offset: usize) -> Self {
        Self {
            data,
            stride,
            offset,
        }
    }

    #[inline]
    fn row(&self, learner: usize, len: usize) -> &'a [T] {
        &self.data[learner * self.stride + self.offset..][..len]
    }

    #[inline]
    fn get(&self, learner: usize, r: usize) -> T {
        self.data[learner * self.stride + self.offset + r]
    }
}

/// Weighted combination of one row's per-learner outputs, indexing straight
/// into a learner table (no per-row scratch vector). Operation order
/// matches [`crate::weights::combine`] exactly, so results are
/// bit-identical.
fn combine_table_indexed<T: Element>(
    table: &LearnerTable<'_, T>,
    weights: &[T],
    qualified: &[usize],
    r: usize,
) -> T {
    let mut wsum = T::ZERO;
    let mut acc = T::ZERO;
    for &i in qualified {
        wsum += weights[i];
        acc += weights[i] * table.get(i, r);
    }
    if wsum <= T::from_f64(DEGENERATE_WEIGHT_SUM) {
        // Degenerate weights: fall back to the unweighted mean of the
        // qualified learners.
        let n = T::from_usize(qualified.len().max(1));
        qualified.iter().map(|&i| table.get(i, r)).sum::<T>() / n
    } else {
        acc / wsum
    }
}

/// Weighted combination of one qualified set across a whole block of rows
/// at once: each qualified learner streams its contiguous prediction row
/// into the accumulator with one lane-kernel axpy. Per element this
/// performs the exact operation sequence of [`combine_table_indexed`] (same
/// learner order, same trailing division), so results are bit-identical to
/// the per-row path.
fn combine_rows<T: Element>(
    per_learner: LearnerTable<'_, T>,
    weights: &[T],
    qualified: &[usize],
    len: usize,
) -> Vec<T> {
    let mut acc = vec![T::ZERO; len];
    let mut wsum = T::ZERO;
    for &i in qualified {
        wsum += weights[i];
        simd::axpy(weights[i], per_learner.row(i, len), &mut acc);
    }
    if wsum <= T::from_f64(DEGENERATE_WEIGHT_SUM) {
        // Degenerate weights: unweighted mean of the qualified learners.
        let n = T::from_usize(qualified.len().max(1));
        let mut sum = vec![T::ZERO; len];
        for &i in qualified {
            simd::add_assign(&mut sum, per_learner.row(i, len));
        }
        simd::div_assign(&mut sum, n);
        sum
    } else {
        simd::div_assign(&mut acc, wsum);
        acc
    }
}

/// Combine one block of per-learner tables over every effort level,
/// writing row-major `len × n_levels` output widened to f64. `prefix_lens`
/// selects the incremental learner-major path (contiguous lane-kernel axpy
/// per new learner, packed emission divides); otherwise each row combines
/// its qualified set indexed. Per element both paths replay the exact
/// operation sequence of [`combine_table_indexed`].
#[allow(clippy::too_many_arguments)]
fn combine_levels_block<T: Element>(
    weights: &[T],
    prefix_lens: Option<&[usize]>,
    qualified_per_level: &[Vec<usize>],
    p_table: LearnerTable<'_, T>,
    v_table: LearnerTable<'_, T>,
    len: usize,
    p_flat: &mut [f64],
    v_flat: &mut [f64],
) {
    let n_levels = qualified_per_level.len();
    let degenerate = T::from_f64(DEGENERATE_WEIGHT_SUM);
    if let Some(lens) = prefix_lens {
        // Degenerate prefixes fall back to the unweighted mean; whether any
        // exist depends only on the weights (same accumulation order as the
        // loop below).
        let needs_unweighted = {
            let mut wsum = T::ZERO;
            let mut taken = 0usize;
            lens.iter().any(|&l| {
                while taken < l {
                    wsum += weights[taken];
                    taken += 1;
                }
                wsum <= degenerate
            })
        };
        let mut acc_p = vec![T::ZERO; len];
        let mut acc_v = vec![T::ZERO; len];
        let mut sum_p = vec![T::ZERO; if needs_unweighted { len } else { 0 }];
        let mut sum_v = vec![T::ZERO; if needs_unweighted { len } else { 0 }];
        // Scratch for the emission divide: one packed division pass per
        // level (the same IEEE divide per element as the scalar
        // `acc / wsum`).
        let mut emit = vec![T::ZERO; len];
        let mut wsum = T::ZERO;
        let mut taken = 0usize;
        for (e, &l) in lens.iter().enumerate() {
            while taken < l {
                let w = weights[taken];
                wsum += w;
                simd::axpy(w, p_table.row(taken, len), &mut acc_p);
                simd::axpy(w, v_table.row(taken, len), &mut acc_v);
                if needs_unweighted {
                    simd::add_assign(&mut sum_p, p_table.row(taken, len));
                    simd::add_assign(&mut sum_v, v_table.row(taken, len));
                }
                taken += 1;
            }
            let (divisor, from_p, from_v) = if wsum <= degenerate {
                (T::from_usize(taken.max(1)), &sum_p, &sum_v)
            } else {
                (wsum, &acc_p, &acc_v)
            };
            emit.copy_from_slice(from_p);
            simd::div_assign(&mut emit, divisor);
            for (r, &val) in emit.iter().enumerate() {
                p_flat[r * n_levels + e] = val.to_f64();
            }
            emit.copy_from_slice(from_v);
            simd::div_assign(&mut emit, divisor);
            for (r, &val) in emit.iter().enumerate() {
                v_flat[r * n_levels + e] = val.to_f64();
            }
        }
    } else {
        for r in 0..len {
            for (e, q) in qualified_per_level.iter().enumerate() {
                p_flat[r * n_levels + e] = combine_table_indexed(&p_table, weights, q, r).to_f64();
                v_flat[r * n_levels + e] = combine_table_indexed(&v_table, weights, q, r).to_f64();
            }
        }
    }
}

/// Evaluate a flat `n_rows × n_levels` response surface cell-parallel in
/// [`ROW_CHUNK`]-row blocks: `fill(start, len, p_flat, v_flat)` writes one
/// block's row-major strips, and the strips are stitched back in row order.
fn blocked_response(
    n_rows: usize,
    n_levels: usize,
    fill: impl Fn(usize, usize, &mut [f64], &mut [f64]) + Sync,
) -> (Matrix, Matrix) {
    let starts: Vec<usize> = (0..n_rows).step_by(ROW_CHUNK).collect();
    let parts: Vec<(Vec<f64>, Vec<f64>)> = starts
        .into_par_iter()
        .map(|start| {
            let len = ROW_CHUNK.min(n_rows - start);
            let mut p_flat = vec![0.0; len * n_levels];
            let mut v_flat = vec![0.0; len * n_levels];
            fill(start, len, &mut p_flat, &mut v_flat);
            (p_flat, v_flat)
        })
        .collect();
    let mut p_all = Vec::with_capacity(n_rows * n_levels);
    let mut v_all = Vec::with_capacity(n_rows * n_levels);
    for (p, v) in parts {
        p_all.extend_from_slice(&p);
        v_all.extend_from_slice(&v);
    }
    (
        Matrix::from_flat(p_all, n_levels),
        Matrix::from_flat(v_all, n_levels),
    )
}

/// Accumulate member (tree) rows `range` of a tree-major prediction table
/// (`row t` at `per_tree[t·stride..]`, `out.len()` wide) into `out`: the
/// member mean when `mean` is `None`, otherwise the member spread around
/// the given mean. The element-wise lane kernels keep the accumulation
/// order and trailing division exactly as in [`BaggingClassifier`]'s
/// per-learner reduction, so the fused-arena path is bit-identical to it.
fn reduce_members<T: Element>(
    per_tree: &[T],
    stride: usize,
    range: std::ops::Range<usize>,
    out: &mut [T],
    mean: Option<&[T]>,
) {
    let b = T::from_usize(range.len());
    match mean {
        None => {
            for t in range {
                simd::add_assign(out, &per_tree[t * stride..][..out.len()]);
            }
        }
        Some(mean) => {
            for t in range {
                simd::accumulate_sq_diff(out, &per_tree[t * stride..][..out.len()], mean);
            }
        }
    }
    simd::div_assign(out, b);
}

/// Fuse every learner's tree arena into one stack-wide forest; `None` when
/// the learners are not tree ensembles.
///
/// The fused slab copies the learners' node tables (the per-learner arenas
/// stay alive for the non-stack API surface), trading roughly 2× the tree
/// node memory — tens of bytes per node — for single-traversal park-wide
/// prediction.
fn build_stack(learners: &[BaggingClassifier], n_features: usize) -> Option<LearnerStack> {
    let mut forest = Forest::new(n_features);
    let mut ranges = Vec::with_capacity(learners.len());
    for learner in learners {
        let member_forest = learner.forest()?;
        let start = forest.n_trees();
        forest.push_forest(member_forest);
        ranges.push(start..forest.n_trees());
    }
    Some(LearnerStack { forest, ranges })
}

/// Filter the training data for learner `i`: keep every positive, and keep
/// negatives only when their patrol effort exceeds the threshold.
fn filtered_indices(labels: &[f64], efforts: &[f64], threshold: f64) -> Vec<usize> {
    (0..labels.len())
        .filter(|&i| labels[i] > 0.5 || efforts[i] > threshold)
        .collect()
}

/// Stage-2 plan for one learner: the exact effort-filtered row subset it
/// will train on, and whether that subset is degenerate (too small or
/// single-class, in which case the learner falls back to the full batch).
#[derive(Debug, Clone)]
struct LearnerPlan {
    idx: Vec<usize>,
    degenerate: bool,
}

impl LearnerPlan {
    /// The rows the learner trains on: its subset, or `None` (the whole
    /// batch) when the subset is degenerate.
    fn rows(&self) -> Option<&[usize]> {
        (!self.degenerate).then_some(&self.idx[..])
    }
}

/// Stage 2 of the fit pipeline: list every learner's effort-filtered row
/// subset. Pure index work — no training happens here.
fn plan_filtered_learners(
    config: &IWareConfig,
    thresholds: &[f64],
    labels: &[f64],
    efforts: &[f64],
) -> Vec<LearnerPlan> {
    thresholds
        .iter()
        .map(|&theta| {
            let idx = filtered_indices(labels, efforts, theta);
            let n_pos = idx.iter().filter(|&&j| labels[j] > 0.5).count();
            let degenerate = idx.len() < config.min_subset_size || n_pos == 0 || n_pos == idx.len();
            LearnerPlan { idx, degenerate }
        })
        .collect()
}

/// Per-learner bagging seed, keyed by the learner's threshold *identity*
/// (its `f64` bit pattern mixed through SplitMix64), not its position in
/// the threshold list. Index-tied seeds (the pre-PR-10 formula) meant
/// that whenever threshold deduplication changed the learner *count*,
/// every surviving learner's seed shifted with its index and a warm refit
/// had nothing it could keep — the whole ensemble went cold. Keyed by
/// threshold bits, a learner whose θ survives a count change keeps the
/// exact seed its cold twin would use, so it stays warm.
fn learner_seed(config: &IWareConfig, threshold: f64) -> u64 {
    let mut z = threshold.to_bits().wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    config.base.seed.wrapping_add(config.seed).wrapping_add(z)
}

/// The training batch of one fit or warm refit, validated and (for tree
/// learners) ranked on first use, then shared: every learner, CV fold and
/// fold learner derives its ranking from this one by [`Ranking::subset`],
/// so a fit sorts the batch once and a warm refit that refits nothing
/// neither validates nor sorts it.
struct FitBatch<'a> {
    x: MatrixView<'a>,
    labels: &'a [f64],
    /// Whether the learners are tree ensembles, the only ones that read a
    /// ranking.
    trees: bool,
    ranking: OnceLock<Option<Ranking>>,
}

impl<'a> FitBatch<'a> {
    fn new(config: &IWareConfig, x: MatrixView<'a>, labels: &'a [f64]) -> Self {
        Self {
            x,
            labels,
            trees: matches!(config.base.base, BaseLearnerConfig::Tree(_)),
            ranking: OnceLock::new(),
        }
    }

    /// The batch's ranking (`None` unless the learners are trees), after
    /// validating the batch once for every fit drawn from it.
    fn ranking(&self) -> Option<&Ranking> {
        self.ranking
            .get_or_init(|| {
                validate_training_data(self.x, self.labels);
                self.trees.then(|| Ranking::new(self.x))
            })
            .as_ref()
    }
}

/// Fit one learner on rows `rows` of the batch (all of them when `None`)
/// with the threshold-keyed seed — the single place the per-learner seed
/// formula lives, shared by cold fits, CV folds and warm refits so a refit
/// learner is bit-identical to its cold twin.
fn fit_one_learner(
    config: &IWareConfig,
    threshold: f64,
    batch: &FitBatch<'_>,
    rows: Option<&[usize]>,
) -> BaggingClassifier {
    let base = BaggingConfig {
        seed: learner_seed(config, threshold),
        ..config.base.clone()
    };
    BaggingClassifier::fit_ranked(&base, batch.x, batch.labels, batch.ranking(), rows)
}

/// Stage 3 of the fit pipeline: per-learner member fits, in parallel.
/// Each learner's bootstrap members fit in parallel too
/// ([`BaggingClassifier::fit_ranked`] fans members over the pool), so
/// learner × member nesting composes on the persistent pool.
fn fit_planned_learners(
    config: &IWareConfig,
    thresholds: &[f64],
    plans: &[LearnerPlan],
    batch: &FitBatch<'_>,
) -> Vec<BaggingClassifier> {
    plans
        .par_iter()
        .enumerate()
        .map(|(i, plan)| fit_one_learner(config, thresholds[i], batch, plan.rows()))
        .collect()
}

/// Zip stage-2 plans with the fitted learners into cache records.
fn learner_records(
    plans: Vec<LearnerPlan>,
    thresholds: &[f64],
    learners: &[BaggingClassifier],
) -> Vec<LearnerRecord> {
    plans
        .into_iter()
        .zip(thresholds.iter().zip(learners))
        .map(|(plan, (&threshold, learner))| LearnerRecord {
            threshold,
            filtered: plan.idx,
            degenerate: plan.degenerate,
            learner: learner.clone(),
        })
        .collect()
}

/// Warm-refit keep rule: can the cached record's learner stand in for a
/// cold fit of `plan` at threshold `theta`?
///
/// An *exact* keep needs the identical training subset **and** identical
/// threshold bits — the bagging seed is keyed by θ, so a moved threshold
/// means the cold twin would draw a different bootstrap even on the same
/// rows. A *tolerance* keep (`tolerance > 0`) accepts bounded subset
/// drift, which subsumes a moved-θ seed drift: both are the documented
/// warm-path divergence envelope. Degenerate learners train on the full
/// batch, so their inputs only match when nothing was appended.
fn keep_record(
    rec: &LearnerRecord,
    plan: &LearnerPlan,
    theta: f64,
    appended: usize,
    tolerance: f64,
) -> bool {
    let same_theta = theta.to_bits() == rec.threshold.to_bits();
    if plan.degenerate || rec.degenerate {
        plan.degenerate && rec.degenerate && appended == 0 && (same_theta || tolerance > 0.0)
    } else if plan.idx == rec.filtered && same_theta {
        true
    } else {
        tolerance > 0.0 && subset_drift(&rec.filtered, &plan.idx) <= tolerance
    }
}

/// Relative drift between two ascending index subsets: the size of their
/// symmetric difference over the recorded subset's size. 0.0 for identical
/// subsets; an append that only *adds* qualifying rows contributes one
/// count per added row.
fn subset_drift(old: &[usize], new: &[usize]) -> f64 {
    let mut i = 0;
    let mut j = 0;
    let mut sym = 0usize;
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                sym += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                sym += 1;
                j += 1;
            }
        }
    }
    sym += (old.len() - i) + (new.len() - j);
    sym as f64 / old.len().max(1) as f64
}

/// Run the cross-validated weight fit, returning the optimised weights and
/// the cached out-of-fold member predictions (plus each validation point's
/// effort and label, so qualified prefixes can be recomputed against moved
/// thresholds at warm-resolve time). Returns `None` when the data cannot
/// support it: fewer than two folds, or too few points or positives to
/// stratify into the folds.
fn cv_weight_fit_cached(
    config: &IWareConfig,
    thresholds: &[f64],
    batch: &FitBatch<'_>,
    efforts: &[f64],
    folds: usize,
    iterations: usize,
) -> Option<(Vec<f64>, CvCache)> {
    let (x, labels) = (batch.x, batch.labels);
    let n_pos = labels.iter().filter(|&&y| y > 0.5).count();
    if folds < 2 || n_pos < folds || labels.len() < folds * 4 {
        return None;
    }
    let fold_defs = stratified_kfold(labels, folds, config.seed.wrapping_add(77));

    let mut predictions = Matrix::with_capacity(labels.len(), thresholds.len());
    let mut point_efforts: Vec<f64> = Vec::with_capacity(labels.len());
    let mut fold_labels: Vec<f64> = Vec::with_capacity(labels.len());

    for fold in &fold_defs {
        let train_labels: Vec<f64> = fold.train.iter().map(|&i| labels[i]).collect();
        let train_efforts: Vec<f64> = fold.train.iter().map(|&i| efforts[i]).collect();
        let valid_x = x.gather(&fold.valid);

        // A fold learner's subset lists positions in `fold.train`; it
        // trains on the batch rows at those positions.
        let plans = plan_filtered_learners(config, thresholds, &train_labels, &train_efforts);
        let learners: Vec<BaggingClassifier> = plans
            .par_iter()
            .enumerate()
            .map(|(i, plan)| {
                let rows: Vec<usize> = match plan.rows() {
                    Some(idx) => idx.iter().map(|&k| fold.train[k]).collect(),
                    None => fold.train.clone(),
                };
                fit_one_learner(config, thresholds[i], batch, Some(&rows))
            })
            .collect();
        let per_learner: Vec<Vec<f64>> = learners
            .par_iter()
            .map(|l| l.predict_proba(valid_x.view()))
            .collect();

        push_point_rows(&mut predictions, &per_learner);
        point_efforts.extend(fold.valid.iter().map(|&i| efforts[i]));
        fold_labels.extend(fold.valid.iter().map(|&i| labels[i]));
    }

    let qualified = qualified_counts(thresholds, &point_efforts);
    let weights = optimize_weights(predictions.view(), &qualified, &fold_labels, iterations);
    let cv = CvCache {
        predictions,
        efforts: point_efforts,
        labels: fold_labels,
        iterations,
    };
    Some((weights, cv))
}

/// Append learner-major member predictions (`per_learner[j][point]`) as
/// point-major rows of the CV cache.
fn push_point_rows(predictions: &mut Matrix, per_learner: &[Vec<f64>]) {
    let mut row = vec![0.0; per_learner.len()];
    for point in 0..per_learner.first().map_or(0, Vec::len) {
        for (r, learner) in row.iter_mut().zip(per_learner) {
            *r = learner[point];
        }
        predictions.push_row(&row);
    }
}

/// Each cached point's qualified-prefix length under `thresholds`.
fn qualified_counts(thresholds: &[f64], efforts: &[f64]) -> Vec<usize> {
    efforts
        .iter()
        .map(|&e| qualified_count(thresholds, e))
        .collect()
}

/// Rerun **only** the CV-weight solve, with no fold model retrained:
/// extend the cached out-of-fold member predictions with the current
/// learners' probabilities on the appended rows, recompute every cached
/// point's qualified prefix against the current thresholds, and
/// re-optimise the simplex weights over the whole cache.
fn resolve_weights_cached(
    cv: &mut CvCache,
    learners: &[BaggingClassifier],
    thresholds: &[f64],
    x: MatrixView<'_>,
    labels: &[f64],
    efforts: &[f64],
    from_row: usize,
) -> Vec<f64> {
    if from_row < x.n_rows() {
        let idx: Vec<usize> = (from_row..x.n_rows()).collect();
        let new_x = x.gather(&idx);
        let per_learner: Vec<Vec<f64>> = learners
            .par_iter()
            .map(|l| l.predict_proba(new_x.view()))
            .collect();
        push_point_rows(&mut cv.predictions, &per_learner);
        cv.efforts.extend_from_slice(&efforts[from_row..]);
        cv.labels.extend_from_slice(&labels[from_row..]);
    }
    let qualified = qualified_counts(thresholds, &cv.efforts);
    optimize_weights(cv.predictions.view(), &qualified, &cv.labels, cv.iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paws_data::matrix::Matrix;
    use paws_ml::metrics::roc_auc;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Synthetic data with iWare-E's noise structure: the true attack
    /// depends on the features, but an attack is *observed* only with
    /// probability increasing in patrol effort.
    fn noisy_poaching_data(n: usize, seed: u64) -> (Matrix, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Matrix::new(2);
        let mut observed = Vec::with_capacity(n);
        let mut efforts = Vec::with_capacity(n);
        let mut true_attack = Vec::with_capacity(n);
        for _ in 0..n {
            let x0: f64 = rng.gen_range(-1.0..1.0);
            let x1: f64 = rng.gen_range(-1.0..1.0);
            let attack_p = 1.0 / (1.0 + (-(2.0 * x0 + x1)).exp());
            let attack = rng.gen::<f64>() < attack_p;
            let effort: f64 = rng.gen_range(0.0..4.0);
            let detect = attack && rng.gen::<f64>() < 1.0 - (-1.2 * effort).exp();
            rows.push_row(&[x0, x1]);
            observed.push(if detect { 1.0 } else { 0.0 });
            efforts.push(effort);
            true_attack.push(if attack { 1.0 } else { 0.0 });
        }
        (rows, observed, efforts, true_attack)
    }

    fn quick_config(n_learners: usize) -> IWareConfig {
        IWareConfig {
            n_learners,
            base: BaggingConfig::trees(5, 3),
            threshold_mode: ThresholdMode::Percentile,
            weight_mode: WeightMode::CvOptimized {
                folds: 3,
                iterations: 40,
            },
            min_subset_size: 20,
            seed: 9,
        }
    }

    #[test]
    fn fit_produces_expected_shapes() {
        let (rows, labels, efforts, _) = noisy_poaching_data(400, 1);
        let model = IWareModel::fit(&quick_config(5), rows.view(), &labels, &efforts);
        assert_eq!(model.n_learners(), 5);
        assert_eq!(model.thresholds().len(), 5);
        assert_eq!(model.weights().len(), 5);
        assert!((model.weights().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn predictions_are_valid_probabilities() {
        let (rows, labels, efforts, _) = noisy_poaching_data(300, 2);
        let model = IWareModel::fit(&quick_config(4), rows.view(), &labels, &efforts);
        let p = model.predict_proba_at_effort(rows.view().head(50), &efforts[..50]);
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn beats_chance_on_the_observation_task() {
        let (rows, labels, efforts, _) = noisy_poaching_data(600, 3);
        let model = IWareModel::fit(&quick_config(5), rows.view(), &labels, &efforts);
        let (trows, tlabels, tefforts, _) = noisy_poaching_data(300, 4);
        let p = model.predict_proba_at_effort(trows.view(), &tefforts);
        let auc = roc_auc(&tlabels, &p);
        assert!(auc > 0.65, "auc={auc}");
    }

    #[test]
    fn effort_response_is_broadly_monotone() {
        // Higher prospective patrol effort should not decrease the predicted
        // detection probability much: more qualified learners trained on
        // cleaner negatives see the same positives.
        let (rows, labels, efforts, _) = noisy_poaching_data(500, 5);
        let model = IWareModel::fit(&quick_config(5), rows.view(), &labels, &efforts);
        let grid = vec![0.5, 1.0, 2.0, 3.5];
        let (probs, vars) = model.effort_response(rows.view().head(40), &grid);
        assert_eq!(probs.n_rows(), 40);
        assert_eq!(probs.n_cols(), grid.len());
        assert!(vars.as_slice().iter().all(|&v| v >= 0.0));
        let mut rising = 0usize;
        let mut total = 0usize;
        for r in probs.rows() {
            if r[grid.len() - 1] >= r[0] - 1e-9 {
                rising += 1;
            }
            total += 1;
        }
        assert!(
            rising as f64 / total as f64 > 0.6,
            "response mostly increasing"
        );
    }

    #[test]
    fn effort_response_matches_pointwise_prediction() {
        // The flat response matrix must agree with predict_proba_at_effort
        // evaluated level by level.
        let (rows, labels, efforts, _) = noisy_poaching_data(250, 11);
        let model = IWareModel::fit(&quick_config(4), rows.view(), &labels, &efforts);
        let grid = [0.5, 2.0];
        let q = rows.view().head(15);
        let (probs, vars) = model.effort_response(q, &grid);
        for (e, &level) in grid.iter().enumerate() {
            let level_efforts = vec![level; 15];
            let (p_ref, v_ref) = model.predict_with_variance_at_effort(q, &level_efforts);
            for r in 0..15 {
                assert_eq!(probs.get(r, e), p_ref[r]);
                assert_eq!(vars.get(r, e), v_ref[r]);
            }
        }
    }

    #[test]
    fn learner_tables_serve_the_direct_bits_to_their_own_model_only() {
        // Kept GP tables combine to the direct entry points' bits at any
        // level and over sorted or unsorted grids. A second fit of the same
        // config predicts the same bits but is another model: its
        // combiners refuse the tables. Tree stacks build none.
        let (rows, labels, efforts, _) = noisy_poaching_data(250, 12);
        let cfg = IWareConfig {
            base: BaggingConfig::gps(3, 5),
            ..quick_config(4)
        };
        let model = IWareModel::fit(&cfg, rows.view(), &labels, &efforts);
        let twin = IWareModel::fit(&cfg, rows.view(), &labels, &efforts);
        let q = rows.view().head(40);
        let tables = model.learner_tables(q).expect("GP stacks build tables");
        for level in [0.0, 0.7, 2.5, 10.0] {
            let direct = model.predict_with_variance_at_effort(q, &[level; 40]);
            assert_eq!(
                twin.predict_with_variance_at_effort(q, &[level; 40]),
                direct
            );
            assert_eq!(model.combine_tables_at_effort(&tables, level), Some(direct));
            assert_eq!(twin.combine_tables_at_effort(&tables, level), None);
        }
        for grid in [[0.0, 0.5, 1.0, 2.0], [2.0, 0.0, 1.0, 0.5]] {
            let (p, v) = model.effort_response(q, &grid);
            let (pt, vt) = model
                .combine_tables_response(&tables, &grid)
                .expect("the model's own tables");
            assert_eq!(pt.as_slice(), p.as_slice());
            assert_eq!(vt.as_slice(), v.as_slice());
            assert!(twin.combine_tables_response(&tables, &grid).is_none());
        }
        let trees = IWareModel::fit(&quick_config(4), rows.view(), &labels, &efforts);
        assert!(trees.learner_tables(q).is_none());
    }

    #[test]
    fn variance_output_present_for_tree_base() {
        let (rows, labels, efforts, _) = noisy_poaching_data(250, 6);
        let model = IWareModel::fit(&quick_config(3), rows.view(), &labels, &efforts);
        let (p, v) = model.predict_with_variance_at_effort(rows.view().head(20), &efforts[..20]);
        assert_eq!(p.len(), 20);
        assert_eq!(v.len(), 20);
        assert!(v.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn tie_heavy_efforts_deduplicate_learners() {
        // Many never-patrolled cells recorded at effort 0.0: several
        // percentile thresholds tie, and the model must deduplicate them
        // (fewer, distinct learners) instead of training identical filtered
        // learners that are double-counted in the weighted vote.
        let (rows, labels, _, _) = noisy_poaching_data(300, 13);
        // 280 never-patrolled cells and only two distinct positive efforts:
        // six percentile candidates collapse onto three distinct values.
        let mut efforts = vec![0.0; 300];
        for e in efforts.iter_mut().skip(280).take(10) {
            *e = 1.0;
        }
        for e in efforts.iter_mut().skip(290) {
            *e = 2.0;
        }
        let model = IWareModel::fit(&quick_config(6), rows.view(), &labels, &efforts);
        let t = model.thresholds();
        for w in t.windows(2) {
            assert!(w[1] > w[0], "thresholds strictly ascending: {t:?}");
        }
        assert!(t.len() < 6, "heavy ties must collapse thresholds: {t:?}");
        assert_eq!(model.n_learners(), t.len());
        assert_eq!(model.weights().len(), t.len());
        assert!((model.weights().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The deduplicated model still predicts sanely.
        let p = model.predict_proba_at_effort(rows.view().head(20), &efforts[..20]);
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn tree_learner_stack_is_arena_fused() {
        let (rows, labels, efforts, _) = noisy_poaching_data(300, 14);
        let model = IWareModel::fit(&quick_config(4), rows.view(), &labels, &efforts);
        // quick_config uses 5-tree bagging per learner.
        let (n_trees, n_nodes) = model.arena_stats().expect("tree base fuses an arena");
        assert_eq!(n_trees, model.n_learners() * 5);
        assert!(n_nodes > n_trees);

        let mut svm_cfg = quick_config(3);
        svm_cfg.base = BaggingConfig::svms(2, 3);
        let svm_model = IWareModel::fit(&svm_cfg, rows.view(), &labels, &efforts);
        assert!(svm_model.arena_stats().is_none());
    }

    #[test]
    fn f32_plane_tracks_the_f64_surfaces() {
        let (rows, labels, efforts, _) = noisy_poaching_data(400, 17);
        let mut model = IWareModel::fit(&quick_config(5), rows.view(), &labels, &efforts);
        assert_eq!(model.precision(), Precision::F64);
        assert!(model.arena32_stats().is_none());
        let q = rows.view().head(300);
        let grid = vec![0.5, 1.0, 2.0, 3.5];
        let (p64, v64) = model.effort_response(q, &grid);
        let level = vec![1.0; 300];
        let (rp64, rv64) = model.predict_with_variance_at_effort(q, &level);
        let pp64 = model.predict_proba_at_effort(q, &level);

        model.set_precision(Precision::F32).unwrap();
        let (n_trees, n_nodes) = model.arena32_stats().expect("tree stack narrows");
        assert_eq!((n_trees, n_nodes), model.arena_stats().unwrap());
        let (p32, v32) = model.effort_response(q, &grid);
        let (rp32, rv32) = model.predict_with_variance_at_effort(q, &level);
        let pp32 = model.predict_proba_at_effort(q, &level);

        let max_abs = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max)
        };
        assert!(max_abs(p64.as_slice(), p32.as_slice()) <= 1e-5);
        assert!(max_abs(v64.as_slice(), v32.as_slice()) <= 1e-5);
        assert!(max_abs(&rp64, &rp32) <= 1e-5);
        assert!(max_abs(&rv64, &rv32) <= 1e-5);
        assert!(max_abs(&pp64, &pp32) <= 1e-5);

        // The f32-native entry point serves the same surface from a
        // pre-narrowed batch (the fused scaler path hands it one), and is
        // simply absent while the model is on the f64 plane.
        let q32 = Matrix32::from_f64(q);
        let (p32n, v32n) = model
            .effort_response32(q32.view(), &grid)
            .expect("f32 plane active");
        assert_eq!(p32n.as_slice(), p32.as_slice());
        assert_eq!(v32n.as_slice(), v32.as_slice());

        // Switching back restores the bit-exact f64 plane.
        model.set_precision(Precision::F64).unwrap();
        assert!(model.arena32_stats().is_none());
        assert!(model.effort_response32(q32.view(), &grid).is_none());
        let (p_back, _) = model.effort_response(q, &grid);
        assert_eq!(p_back.as_slice(), p64.as_slice());
        // Narrowing again rebuilds the same f32 plane.
        model.set_precision(Precision::F32).unwrap();
        let (p32_again, _) = model.effort_response(q, &grid);
        assert_eq!(p32_again.as_slice(), p32.as_slice());
    }

    #[test]
    fn pre_narrowed_constant_effort_entry_points_match_the_narrowing_path() {
        let (rows, labels, efforts, _) = noisy_poaching_data(400, 19);
        let mut model = IWareModel::fit(&quick_config(5), rows.view(), &labels, &efforts);
        let q = rows.view().head(300);
        let q32 = Matrix32::from_f64(q);
        // Absent on the f64 plane — callers fall back to the wide path.
        assert!(model.predict_proba_at_effort32(q32.view(), 1.0).is_none());
        assert!(model
            .predict_with_variance_at_effort32(q32.view(), 1.0)
            .is_none());

        model.set_precision(Precision::F32).unwrap();
        for effort in [0.0, 0.5, 1.0, 3.5] {
            let level = vec![effort; 300];
            let pp = model.predict_proba_at_effort(q, &level);
            let (vp, vv) = model.predict_with_variance_at_effort(q, &level);
            let pp32 = model
                .predict_proba_at_effort32(q32.view(), effort)
                .expect("f32 plane active");
            let (vp32, vv32) = model
                .predict_with_variance_at_effort32(q32.view(), effort)
                .expect("f32 plane active");
            assert_eq!(pp32, pp, "probs at effort {effort}");
            assert_eq!(vp32, vp, "variance-path probs at effort {effort}");
            assert_eq!(vv32, vv, "vars at effort {effort}");
        }

        // Empty batches are served, not rejected.
        let empty = Matrix32::zeros(0, q32.n_cols());
        assert_eq!(
            model.predict_proba_at_effort32(empty.view(), 1.0),
            Some(Vec::new())
        );
        let (ep, ev) = model
            .predict_with_variance_at_effort32(empty.view(), 1.0)
            .unwrap();
        assert!(ep.is_empty() && ev.is_empty());
    }

    #[test]
    fn f32_plane_varying_efforts_fall_back_to_f64() {
        // Per-row varying efforts are not a park-wide hot path; they keep
        // the f64 path bit-exactly even when the f32 plane is selected.
        let (rows, labels, efforts, _) = noisy_poaching_data(250, 18);
        let mut model = IWareModel::fit(&quick_config(4), rows.view(), &labels, &efforts);
        let q = rows.view().head(30);
        let p64 = model.predict_proba_at_effort(q, &efforts[..30]);
        let (vp64, vv64) = model.predict_with_variance_at_effort(q, &efforts[..30]);
        model.set_precision(Precision::F32).unwrap();
        assert_eq!(model.predict_proba_at_effort(q, &efforts[..30]), p64);
        let (vp32, vv32) = model.predict_with_variance_at_effort(q, &efforts[..30]);
        assert_eq!(vp32, vp64);
        assert_eq!(vv32, vv64);
    }

    #[test]
    fn f32_switch_is_a_no_op_for_gp_learner_stacks() {
        // A GPB-iW stack has no f32 plane: the switch keeps it serving f64
        // bits, and `precision` reports the plane that actually serves.
        let (rows, labels, efforts, _) = noisy_poaching_data(200, 19);
        let cfg = IWareConfig {
            base: BaggingConfig::gps(2, 5),
            ..quick_config(3)
        };
        let mut model = IWareModel::fit(&cfg, rows.view(), &labels, &efforts);
        let q = rows.view().head(25);
        let grid = [0.5, 2.0];
        let (p64, v64) = model.effort_response(q, &grid);
        model.set_precision(Precision::F32).unwrap();
        assert_eq!(model.precision(), Precision::F64);
        assert!(model.arena32_stats().is_none());
        assert!(model
            .predict_with_variance_at_effort32(Matrix32::from_f64(q).view(), 1.0)
            .is_none());
        let (p, v) = model.effort_response(q, &grid);
        assert_eq!(p.as_slice(), p64.as_slice());
        assert_eq!(v.as_slice(), v64.as_slice());
    }

    #[test]
    fn uniform_weight_mode_gives_uniform_weights() {
        let (rows, labels, efforts, _) = noisy_poaching_data(200, 7);
        let mut cfg = quick_config(4);
        cfg.weight_mode = WeightMode::Uniform;
        let model = IWareModel::fit(&cfg, rows.view(), &labels, &efforts);
        for &w in model.weights() {
            assert!((w - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_data_falls_back_to_uniform_weights() {
        // Too few positives to stratify into folds: CV weight fit must bail
        // out gracefully.
        let (rows, _, efforts, _) = noisy_poaching_data(100, 8);
        let mut labels = vec![0.0; 100];
        labels[0] = 1.0;
        labels[50] = 1.0;
        let model = IWareModel::fit(&quick_config(3), rows.view(), &labels, &efforts);
        for &w in model.weights() {
            assert!((w - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fewer_than_two_folds_fall_back_to_uniform_weights() {
        // Zero or one fold holds nothing out: the fit must give uniform
        // weights and no CV cache, not panic in the fold split.
        let (rows, labels, efforts, _) = noisy_poaching_data(300, 8);
        for folds in [0, 1] {
            let mut cfg = quick_config(4);
            cfg.weight_mode = WeightMode::CvOptimized {
                folds,
                iterations: 40,
            };
            let model = IWareModel::fit(&cfg, rows.view(), &labels, &efforts);
            assert_eq!(model.weights(), [0.25; 4], "{folds} folds");

            let (_, mut cache) = IWareModel::fit_cached(&cfg, rows.view(), &labels, &efforts);
            assert!(!cache.has_cv_cache());
            let (more_rows, more_labels, more_efforts, _) = noisy_poaching_data(40, 9);
            let x = concat(&rows, &more_rows);
            let y = [labels.as_slice(), &more_labels].concat();
            let e = [efforts.as_slice(), &more_efforts].concat();
            let (warm, stats) = IWareModel::warm_refit(&cfg, &mut cache, x.view(), &y, &e, 0.1);
            assert!(!stats.cv_resolved_from_cache && !stats.full_cv);
            let uniform = vec![1.0 / warm.n_learners() as f64; warm.n_learners()];
            assert_eq!(warm.weights(), uniform.as_slice(), "{folds} folds, warm");
        }
    }

    type Tamper = Box<dyn FnOnce(&mut Vec<u64>, &mut Vec<f64>, &mut Vec<f64>)>;

    /// Re-encode a fitted model's stack snapshot with tampered stack-level
    /// sections (the forest section is kept intact, so every checksum is
    /// valid and only the stack invariants can catch the corruption).
    fn tampered_stack_snapshot(
        model: &IWareModel,
        tamper: impl FnOnce(&mut Vec<u64>, &mut Vec<f64>, &mut Vec<f64>),
    ) -> Vec<u8> {
        let stack = model.stack.as_ref().expect("tree stack");
        let mut ranges: Vec<u64> = stack
            .ranges
            .iter()
            .flat_map(|r| [r.start as u64, r.end as u64])
            .collect();
        let mut weights = model.weights.clone();
        let mut thresholds = model.thresholds.clone();
        tamper(&mut ranges, &mut weights, &mut thresholds);
        let mut w = SnapshotWriter::new(PayloadKind::LearnerStack);
        w.push_forest(&stack.forest);
        w.push_u64_section(snapshot_section::RANGES, &ranges);
        w.push_f64_section(snapshot_section::WEIGHTS, &weights);
        w.push_f64_section(snapshot_section::THRESHOLDS, &thresholds);
        w.finish()
    }

    #[test]
    fn stack_snapshot_round_trips_bit_identically() {
        let (rows, labels, efforts, _) = noisy_poaching_data(300, 11);
        let cfg = quick_config(4);
        let model = IWareModel::fit(&cfg, rows.view(), &labels, &efforts);
        let bytes = model.to_stack_snapshot().expect("tree stack snapshots");
        let loaded = IWareModel::from_stack_snapshot(&bytes, cfg).expect("snapshot decodes");

        assert_eq!(loaded.n_learners(), model.n_learners());
        assert_eq!(loaded.n_features(), model.n_features());
        assert_eq!(loaded.weights(), model.weights());
        assert_eq!(loaded.thresholds(), model.thresholds());

        let q = rows.view().head(64);
        let grid = [0.0, 0.5, 1.0, 2.0, 3.5];
        let (p_ref, v_ref) = model.effort_response(q, &grid);
        let (p, v) = loaded.effort_response(q, &grid);
        assert_eq!(p.as_slice(), p_ref.as_slice());
        assert_eq!(v.as_slice(), v_ref.as_slice());

        // A second snapshot of the reloaded model is byte-identical: the
        // wire form is canonical.
        assert_eq!(loaded.to_stack_snapshot().unwrap(), bytes);
    }

    #[test]
    fn stack_snapshot_rejects_tampered_sections() {
        let (rows, labels, efforts, _) = noisy_poaching_data(250, 12);
        let cfg = quick_config(3);
        let model = IWareModel::fit(&cfg, rows.view(), &labels, &efforts);

        // Sanity: an untampered re-encode decodes.
        let clean = tampered_stack_snapshot(&model, |_, _, _| {});
        assert!(IWareModel::from_stack_snapshot(&clean, cfg.clone()).is_ok());

        let cases: Vec<(&str, Tamper)> = vec![
            (
                "odd ranges",
                Box::new(|r: &mut Vec<u64>, _: &mut Vec<f64>, _: &mut Vec<f64>| {
                    r.pop();
                }),
            ),
            (
                "learner count mismatch",
                Box::new(|_, w, _| {
                    w.pop();
                }),
            ),
            (
                "non-contiguous ranges",
                Box::new(|r, _, _| {
                    r[0] = 1;
                }),
            ),
            (
                "ranges miss trailing trees",
                Box::new(|r, _, _| {
                    let last = r.len() - 1;
                    r[last] -= 1;
                }),
            ),
            (
                "empty range",
                Box::new(|r, _, _| {
                    r[1] = r[0];
                }),
            ),
            (
                "NaN weight",
                Box::new(|_, w, _| {
                    w[0] = f64::NAN;
                }),
            ),
            (
                "negative weight",
                Box::new(|_, w, _| {
                    w[0] = -0.25;
                }),
            ),
            (
                "non-ascending thresholds",
                Box::new(|_, _, t| {
                    t.swap(0, 1);
                }),
            ),
            (
                "infinite threshold",
                Box::new(|_, _, t| {
                    t[0] = f64::NEG_INFINITY;
                }),
            ),
        ];
        for (label, tamper) in cases {
            let bytes = tampered_stack_snapshot(&model, tamper);
            let err = match IWareModel::from_stack_snapshot(&bytes, cfg.clone()) {
                Ok(_) => panic!("{label}: tampered snapshot decoded"),
                Err(e) => e,
            };
            assert!(
                matches!(
                    err,
                    SnapshotError::Invariant(_) | SnapshotError::SectionShape { .. }
                ),
                "{label}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn try_effort_response_rejects_adversarial_queries() {
        let (rows, labels, efforts, _) = noisy_poaching_data(200, 13);
        let model = IWareModel::fit(&quick_config(3), rows.view(), &labels, &efforts);
        let grid = [0.5, 1.5];

        let wide = Matrix::from_rows(&[vec![0.1, 0.2, 0.3]]);
        assert_eq!(
            model.try_effort_response(wide.view(), &grid),
            Err(QueryError::WidthMismatch {
                expected: 2,
                got: 3
            })
        );

        let empty = Matrix::new(2);
        assert_eq!(
            model.try_effort_response(empty.view(), &grid),
            Err(QueryError::EmptyQuery)
        );

        let nan = Matrix::from_rows(&[vec![0.1, 0.2], vec![f64::NAN, 0.4]]);
        assert_eq!(
            model.try_effort_response(nan.view(), &grid),
            Err(QueryError::NonFinite { row: 1, col: 0 })
        );

        let q = rows.view().head(8);
        assert_eq!(
            model.try_effort_response(q, &[]),
            Err(QueryError::EmptyEffortGrid)
        );
        assert_eq!(
            model.try_effort_response(q, &[0.5, -1.0]),
            Err(QueryError::BadEffort { index: 1 })
        );
        assert_eq!(
            model.try_effort_response(q, &[0.5, f64::INFINITY]),
            Err(QueryError::BadEffort { index: 1 })
        );

        // Valid input passes through to the panicking path unchanged.
        let (p_ok, _) = model.try_effort_response(q, &grid).expect("valid query");
        let (p_ref, _) = model.effort_response(q, &grid);
        assert_eq!(p_ok.as_slice(), p_ref.as_slice());
    }

    fn concat(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = a.clone();
        out.extend_rows(b.view());
        out
    }

    #[test]
    fn subset_drift_counts_symmetric_difference() {
        assert_eq!(subset_drift(&[1, 2, 3], &[1, 2, 3]), 0.0);
        assert_eq!(subset_drift(&[1, 2, 3], &[1, 2, 3, 4]), 1.0 / 3.0);
        assert_eq!(subset_drift(&[1, 2, 3], &[2, 3, 5]), 2.0 / 3.0);
        assert_eq!(subset_drift(&[], &[7]), 1.0);
    }

    #[test]
    fn staged_fit_cached_matches_fit() {
        let (x, labels, efforts, _) = noisy_poaching_data(260, 31);
        let config = quick_config(5);
        let a = IWareModel::fit(&config, x.view(), &labels, &efforts);
        let (b, cache) = IWareModel::fit_cached(&config, x.view(), &labels, &efforts);
        assert_eq!(a.thresholds(), b.thresholds());
        assert_eq!(a.weights(), b.weights());
        assert_eq!(cache.n_rows(), 260);
        assert_eq!(cache.n_learners(), a.n_learners());
        assert!(cache.has_cv_cache());
        let (probe, _, probe_efforts, _) = noisy_poaching_data(50, 99);
        assert_eq!(
            a.predict_proba_at_effort(probe.view(), &probe_efforts),
            b.predict_proba_at_effort(probe.view(), &probe_efforts)
        );
    }

    #[test]
    fn warm_refit_without_new_rows_is_a_bit_identical_resolve() {
        let (x, labels, efforts, _) = noisy_poaching_data(260, 32);
        let config = quick_config(5);
        let (cold, mut cache) = IWareModel::fit_cached(&config, x.view(), &labels, &efforts);
        let (warm, stats) =
            IWareModel::warm_refit(&config, &mut cache, x.view(), &labels, &efforts, 0.0);
        assert_eq!(stats.learners_kept, cold.n_learners());
        assert_eq!(stats.learners_refitted, 0);
        assert!(stats.cv_resolved_from_cache);
        assert!(!stats.full_cv);
        // Identical subsets keep every learner; the weight re-solve sees
        // the same cached predictions and qualified sets, so even the
        // weights come back bit-identical.
        assert_eq!(warm.thresholds(), cold.thresholds());
        assert_eq!(warm.weights(), cold.weights());
        let (probe, _, probe_efforts, _) = noisy_poaching_data(50, 99);
        assert_eq!(
            warm.predict_proba_at_effort(probe.view(), &probe_efforts),
            cold.predict_proba_at_effort(probe.view(), &probe_efforts)
        );
    }

    #[test]
    fn zero_tolerance_warm_refit_matches_cold_fit_with_uniform_weights() {
        let mut config = quick_config(5);
        config.weight_mode = WeightMode::Uniform;
        let (x, labels, efforts, _) = noisy_poaching_data(240, 33);
        let (x2, labels2, efforts2, _) = noisy_poaching_data(40, 77);
        let (_, mut cache) = IWareModel::fit_cached(&config, x.view(), &labels, &efforts);
        let full_x = concat(&x, &x2);
        let full_labels: Vec<f64> = labels.iter().chain(&labels2).copied().collect();
        let full_efforts: Vec<f64> = efforts.iter().chain(&efforts2).copied().collect();
        let (warm, stats) = IWareModel::warm_refit(
            &config,
            &mut cache,
            full_x.view(),
            &full_labels,
            &full_efforts,
            0.0,
        );
        // At tolerance 0 every learner whose subset moved refits with its
        // cold seed, so with uniform weights the warm model reproduces the
        // cold fit on the concatenation bit-for-bit.
        let cold = IWareModel::fit(&config, full_x.view(), &full_labels, &full_efforts);
        assert_eq!(
            stats.learners_kept + stats.learners_refitted,
            cold.n_learners()
        );
        assert_eq!(warm.thresholds(), cold.thresholds());
        assert_eq!(warm.weights(), cold.weights());
        assert_eq!(cache.n_rows(), 280);
        let (probe, _, probe_efforts, _) = noisy_poaching_data(60, 98);
        assert_eq!(
            warm.predict_proba_at_effort(probe.view(), &probe_efforts),
            cold.predict_proba_at_effort(probe.view(), &probe_efforts)
        );
    }

    /// The fit before one ranking per fit, kept as the parity reference:
    /// every learner, CV fold and fold learner gathers its own batch, and
    /// [`BaggingClassifier::fit`] ranks it.
    fn gathering_reference_fit(
        config: &IWareConfig,
        x: MatrixView<'_>,
        labels: &[f64],
        efforts: &[f64],
    ) -> IWareModel {
        let thresholds = select_thresholds(config.threshold_mode, efforts, config.n_learners);
        let fit_learners = |x: MatrixView<'_>, labels: &[f64], efforts: &[f64]| {
            plan_filtered_learners(config, &thresholds, labels, efforts)
                .iter()
                .zip(&thresholds)
                .map(|(plan, &theta)| {
                    let base = BaggingConfig {
                        seed: learner_seed(config, theta),
                        ..config.base.clone()
                    };
                    if plan.degenerate {
                        BaggingClassifier::fit(&base, x, labels)
                    } else {
                        let sx = x.gather(&plan.idx);
                        let sl: Vec<f64> = plan.idx.iter().map(|&j| labels[j]).collect();
                        BaggingClassifier::fit(&base, sx.view(), &sl)
                    }
                })
                .collect::<Vec<_>>()
        };
        let learners = fit_learners(x, labels, efforts);
        let WeightMode::CvOptimized { folds, iterations } = config.weight_mode else {
            panic!("the reference fits CV weights");
        };
        let mut predictions = Matrix::with_capacity(labels.len(), thresholds.len());
        let (mut point_efforts, mut point_labels) = (Vec::new(), Vec::new());
        for fold in stratified_kfold(labels, folds, config.seed.wrapping_add(77)) {
            let train = |v: &[f64]| fold.train.iter().map(|&i| v[i]).collect::<Vec<_>>();
            let train_x = x.gather(&fold.train);
            let fold_learners = fit_learners(train_x.view(), &train(labels), &train(efforts));
            let valid_x = x.gather(&fold.valid);
            let per_learner: Vec<Vec<f64>> = fold_learners
                .iter()
                .map(|l| l.predict_proba(valid_x.view()))
                .collect();
            push_point_rows(&mut predictions, &per_learner);
            point_efforts.extend(fold.valid.iter().map(|&i| efforts[i]));
            point_labels.extend(fold.valid.iter().map(|&i| labels[i]));
        }
        let qualified = qualified_counts(&thresholds, &point_efforts);
        let weights = optimize_weights(predictions.view(), &qualified, &point_labels, iterations);
        IWareModel {
            id: next_model_id(),
            stack: build_stack(&learners, x.n_cols()),
            thresholds,
            learners,
            weights,
            n_features: x.n_cols(),
            stack32: None,
            config: config.clone(),
        }
    }

    fn weight_bits(model: &IWareModel) -> Vec<u64> {
        model.weights().iter().map(|w| w.to_bits()).collect()
    }

    #[test]
    fn one_ranking_per_fit_matches_ranking_every_gathered_batch() {
        let (x, labels, efforts, _) = noisy_poaching_data(300, 35);
        // A third column of signed zeros and ties: only low-effort
        // negatives hold -0.0, so the high-threshold learners' subsets keep
        // the column's +0.0 rows without its -0.0 rows.
        let rows: Vec<Vec<f64>> = (0..x.n_rows())
            .map(|i| {
                let z = if labels[i] == 0.0 && efforts[i] < 0.5 {
                    -0.0
                } else {
                    [0.0, 0.5, -0.5][i % 3]
                };
                vec![x.get(i, 0), x.get(i, 1), z]
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        // Subsets below 160 rows fall back to the full batch, so some
        // learners and fold learners train on subsets and others on the
        // whole batch or fold.
        let config = IWareConfig {
            min_subset_size: 160,
            ..quick_config(5)
        };
        let (model, cache) = IWareModel::fit_cached(&config, x.view(), &labels, &efforts);
        assert!(cache.records.iter().any(|r| r.degenerate));
        assert!(cache.records.iter().any(|r| !r.degenerate));
        assert!(cache.has_cv_cache());

        let reference = gathering_reference_fit(&config, x.view(), &labels, &efforts);
        assert_eq!(weight_bits(&model), weight_bits(&reference));
        assert!(model.to_stack_snapshot().unwrap() == reference.to_stack_snapshot().unwrap());
    }

    #[test]
    fn zero_tolerance_count_change_refit_matches_a_cold_fit_byte_for_byte() {
        // Two effort levels dedup to two thresholds; an append at a third
        // level adds one, so the warm refit takes the full-CV leg.
        let config = IWareConfig {
            min_subset_size: 10,
            ..quick_config(4)
        };
        let (x, labels, _, _) = noisy_poaching_data(200, 36);
        let efforts: Vec<f64> = (0..200)
            .map(|i| {
                if i >= 150 {
                    2.0
                } else {
                    f64::from(i as u32 % 2)
                }
            })
            .collect();
        let (old, mut cache) =
            IWareModel::fit_cached(&config, x.view().head(150), &labels[..150], &efforts[..150]);
        let (warm, stats) =
            IWareModel::warm_refit(&config, &mut cache, x.view(), &labels, &efforts, 0.0);
        assert_eq!((old.n_learners(), warm.n_learners()), (2, 3));
        assert!(stats.learners_refitted > 0 && stats.full_cv, "{stats:?}");

        let (cold, _) = IWareModel::fit_cached(&config, x.view(), &labels, &efforts);
        assert_eq!(weight_bits(&warm), weight_bits(&cold));
        assert!(warm.to_stack_snapshot().unwrap() == cold.to_stack_snapshot().unwrap());
    }

    #[test]
    fn tolerant_warm_refit_keeps_learners_on_a_small_append() {
        let config = quick_config(5);
        let (x, labels, efforts, _) = noisy_poaching_data(400, 34);
        let (x2, labels2, efforts2, _) = noisy_poaching_data(8, 78);
        let (_, mut cache) = IWareModel::fit_cached(&config, x.view(), &labels, &efforts);
        let full_x = concat(&x, &x2);
        let full_labels: Vec<f64> = labels.iter().chain(&labels2).copied().collect();
        let full_efforts: Vec<f64> = efforts.iter().chain(&efforts2).copied().collect();
        let (warm, stats) = IWareModel::warm_refit(
            &config,
            &mut cache,
            full_x.view(),
            &full_labels,
            &full_efforts,
            1.0,
        );
        // A 2% append cannot move any subset by more than the tolerance,
        // so the warm path keeps every non-degenerate learner and only
        // re-solves the weights from cache.
        assert!(
            stats.learners_kept >= warm.n_learners() - 1,
            "expected kept learners, got {stats:?}"
        );
        assert!(stats.cv_resolved_from_cache);
        // Bounded warm-path divergence: the kept learners saw subsets at
        // most one batch stale — and, with θ-keyed seeds, possibly a
        // bootstrap drawn at the pre-append threshold — so predictions
        // stay in the same neighbourhood as the cold fit without being
        // bit-identical.
        let cold = IWareModel::fit(&config, full_x.view(), &full_labels, &full_efforts);
        let (probe, _, probe_efforts, _) = noisy_poaching_data(80, 97);
        let pw = warm.predict_proba_at_effort(probe.view(), &probe_efforts);
        let pc = cold.predict_proba_at_effort(probe.view(), &probe_efforts);
        let max_diff = pw
            .iter()
            .zip(&pc)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_diff < 0.65,
            "warm-path divergence should stay bounded, got {max_diff}"
        );
    }
}
