//! The staged iWare-E fit: threshold selection, effort-filtered subset
//! plans, learner fits, the fused stack build and the CV-weight stage,
//! with the [`FitCache`] that lets a warm refit keep unchanged learners.
//!
//! One driver, [`IWareModel::warm_refit`], runs every fit. A cold fit is
//! that driver from an empty cache: no record to keep and no cached CV
//! predictions, so every learner fits and the full CV stage runs.

use super::tables::{learner_f64_tables, row_block};
use super::{next_model_id, Fused, IWareConfig, IWareModel, LearnerStack};
use crate::thresholds::{qualified_count, select_thresholds};
use crate::weights::{optimize_weights, WeightMode};
use paws_data::matrix::{Matrix, MatrixView};
use paws_ml::bagging::{pool_gp_learners, BaggingClassifier, BaggingConfig, BaseLearnerConfig};
use paws_ml::cv::stratified_kfold;
use paws_ml::forest::Forest;
use paws_ml::gp::RowPool;
use paws_ml::traits::validate_training_data;
use paws_ml::tree::Ranking;
use rayon::prelude::*;
use std::sync::OnceLock;

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

    /// The staged fit, returning both the model and the [`FitCache`] that
    /// enables warm incremental refits. It is [`IWareModel::warm_refit`]
    /// from an empty cache: with no learner recorded, every learner fits
    /// and the full CV-weight stage runs, so the cold and warm paths share
    /// every stage. [`IWareModel::fit`] is this fit with the cache dropped.
    pub fn fit_cached(
        config: &IWareConfig,
        x: MatrixView<'_>,
        labels: &[f64],
        efforts: &[f64],
    ) -> (Self, FitCache) {
        let mut cache = FitCache {
            records: Vec::new(),
            cv: None,
            n_rows: 0,
        };
        let (model, _) = Self::warm_refit(config, &mut cache, x, labels, efforts, 0.0);
        (model, cache)
    }

    /// The staged fit against the cache of an earlier fit, on an
    /// **append-only** extension of the cached training batch: rows
    /// `0..cache.n_rows()` must be the exact rows the cache was built on.
    ///
    /// 1. Thresholds are selected afresh: percentile ranks move on every
    ///    append, so threshold *values* are not the keep signal; the
    ///    effort-filtered subsets are.
    /// 2. Each learner's effort-filtered subset is planned.
    /// 3. Each learner is matched to a cached record: by position while the
    ///    threshold count is unchanged, by θ identity when deduplication
    ///    changed it (seeds are θ-keyed, so a surviving threshold keeps its
    ///    learner warm). A matched record is kept when
    ///    * its subset is identical to the new one at an unmoved threshold
    ///      (and both are non-degenerate): the refit would be
    ///      bit-identical;
    ///    * or its relative subset drift (symmetric difference over the
    ///      recorded size) is within a non-zero `tolerance`. This is the
    ///      warm path's only source of divergence from a cold fit: the kept
    ///      learner saw a slightly stale subset (or a θ-keyed seed that
    ///      moved with its threshold). It disappears at `tolerance = 0`.
    ///      The drift is measured against the subset recorded at the
    ///      previous refit, which for a kept learner is not the subset it
    ///      trained on, so over several refits it can exceed `tolerance`.
    ///
    ///    Every other learner, degenerate full-batch learners included
    ///    (their inputs change on any append), fits with the threshold-keyed
    ///    seed a cold fit would use. A tree base ranks the batch once, at
    ///    the first member fit, for every learner and CV fold.
    /// 4. Tree learners fuse into one arena; GP learners pool their
    ///    members' training rows.
    /// 5. CV weights: cached out-of-fold predictions are columns of the
    ///    old learner list, so a count change drops them. With predictions
    ///    cached, the weights are re-solved over them, extended with the
    ///    current learners' predictions on the appended rows and with
    ///    qualified sets recomputed against the moved thresholds: no fold
    ///    model is retrained. Without, the full fold-retraining CV runs and
    ///    its predictions are cached; a batch too small to stratify gets
    ///    uniform weights.
    ///
    /// Every stage draws from its own index- or θ-keyed RNG stream, so at
    /// tolerance 0 a refit is bit-identical to a cold fit on the same batch
    /// whenever the weights come from a full CV or are uniform. The cache is
    /// updated in place to describe the returned model.
    ///
    /// # Panics
    /// Panics when the batch shrinks below the cached row count, when
    /// `config.n_learners` is 0, or when rows, labels and efforts differ in
    /// length.
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
        assert!(config.n_learners >= 1, "need at least one learner");
        assert!(
            x.n_rows() >= cache.n_rows,
            "warm refit needs an append-only extension of the cached batch"
        );
        let thresholds = select_thresholds(efforts, config.n_learners);
        assert!(
            thresholds.windows(2).all(|w| w[1] > w[0]),
            "thresholds must be strictly ascending — duplicates would train \
             identical learners that are double-counted in the weighted vote"
        );
        let n_learners = thresholds.len();
        let appended = x.n_rows() - cache.n_rows;
        let same_count = n_learners == cache.records.len();
        if !same_count {
            cache.cv = None;
        }

        let plans = plan_filtered_learners(config, &thresholds, labels, efforts);
        let kept: Vec<Option<&LearnerRecord>> = thresholds
            .iter()
            .zip(&plans)
            .enumerate()
            .map(|(i, (&theta, plan))| {
                let record = if same_count {
                    cache.records.get(i)
                } else {
                    let bits = theta.to_bits();
                    cache.records.iter().find(|r| r.threshold.to_bits() == bits)
                };
                record.filter(|r| keep_record(r, plan, theta, appended, tolerance))
            })
            .collect();
        let batch = FitBatch::new(config, x, labels);
        let learners: Vec<BaggingClassifier> = (0..n_learners)
            .into_par_iter()
            .map(|i| match kept[i] {
                Some(record) => record.learner.clone(),
                None => fit_one_learner(config, thresholds[i], &batch, plans[i].rows()),
            })
            .collect();
        let learners_kept = kept.iter().filter(|k| k.is_some()).count();

        let fused = fuse_learners(&learners, x.n_cols());

        let mut stats = RefitStats {
            learners_kept,
            learners_refitted: n_learners - learners_kept,
            ..RefitStats::default()
        };
        let uniform = vec![1.0 / n_learners as f64; n_learners];
        let weights = match (config.weight_mode, cache.cv.as_mut()) {
            (WeightMode::Uniform, _) => uniform,
            (WeightMode::CvOptimized { .. }, Some(cv)) => {
                stats.cv_resolved_from_cache = true;
                let scored = ScoredLearners {
                    learners: &learners,
                    pool: fused.as_ref().and_then(Fused::pool),
                };
                resolve_weights_cached(cv, scored, &thresholds, x, labels, efforts, cache.n_rows)
            }
            (WeightMode::CvOptimized { folds, iterations }, None) => {
                match cv_weight_fit_cached(config, &thresholds, &batch, efforts, folds, iterations)
                {
                    Some((w, cv)) => {
                        stats.full_cv = true;
                        cache.cv = Some(cv);
                        w
                    }
                    None => uniform,
                }
            }
        };

        cache.records = learner_records(plans, &thresholds, &learners);
        cache.n_rows = x.n_rows();
        let model = Self {
            id: next_model_id(),
            thresholds,
            learners,
            weights,
            n_features: x.n_cols(),
            fused,
            stack32: None,
            config: config.clone(),
        };
        (model, stats)
    }
}

/// Fuse the learners for park-wide prediction: tree ensembles into one
/// stack-wide forest, GP ensembles into one row pool of their members'
/// training rows; `None` for SVM learners.
fn fuse_learners(learners: &[BaggingClassifier], n_features: usize) -> Option<Fused> {
    match build_stack(learners, n_features) {
        Some(stack) => Some(Fused::Trees(stack)),
        None => pool_gp_learners(learners).map(Fused::Gps),
    }
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
        let pool = pool_gp_learners(&learners);
        let scored = ScoredLearners {
            learners: &learners,
            pool: pool.as_ref(),
        };
        scored.push_point_rows(&mut predictions, valid_x.view());
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

/// Learners whose probabilities go into a CV cache, with their
/// [`pool_gp_learners`] when they are GP ensembles.
#[derive(Clone, Copy)]
struct ScoredLearners<'a> {
    learners: &'a [BaggingClassifier],
    pool: Option<&'a RowPool>,
}

impl ScoredLearners<'_> {
    /// Append every learner's probability on each row of `x` as one
    /// point-major row of the CV cache.
    fn push_point_rows(self, predictions: &mut Matrix, x: MatrixView<'_>) {
        let tables = learner_f64_tables(self.learners, self.pool, x, false);
        let mut row = vec![0.0; self.learners.len()];
        for point in 0..tables.n_rows {
            let column = tables.probs[point..].iter().step_by(tables.n_rows);
            for (r, &p) in row.iter_mut().zip(column) {
                *r = p;
            }
            predictions.push_row(&row);
        }
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
    learners: ScoredLearners<'_>,
    thresholds: &[f64],
    x: MatrixView<'_>,
    labels: &[f64],
    efforts: &[f64],
    from_row: usize,
) -> Vec<f64> {
    if from_row < x.n_rows() {
        let new_x = row_block(x, from_row, x.n_rows() - from_row);
        learners.push_point_rows(&mut cv.predictions, new_x);
        cv.efforts.extend_from_slice(&efforts[from_row..]);
        cv.labels.extend_from_slice(&labels[from_row..]);
    }
    let qualified = qualified_counts(thresholds, &cv.efforts);
    optimize_weights(cv.predictions.view(), &qualified, &cv.labels, cv.iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::tests::{noisy_poaching_data, quick_config};
    use paws_ml::gp::GpConfig;
    use paws_ml::traits::Classifier;

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
        let thresholds = select_thresholds(efforts, config.n_learners);
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
            for point in 0..valid_x.n_rows() {
                let row: Vec<f64> = per_learner.iter().map(|p| p[point]).collect();
                predictions.push_row(&row);
            }
            point_efforts.extend(fold.valid.iter().map(|&i| efforts[i]));
            point_labels.extend(fold.valid.iter().map(|&i| labels[i]));
        }
        let qualified = qualified_counts(&thresholds, &point_efforts);
        let weights = optimize_weights(predictions.view(), &qualified, &point_labels, iterations);
        // No row pool: GP learners serve learner by learner.
        IWareModel {
            id: next_model_id(),
            fused: build_stack(&learners, x.n_cols()).map(Fused::Trees),
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

    /// A GPB-iW config: 4 learners of 3 GPs with at most 60 points each.
    fn gp_config(balanced: bool) -> IWareConfig {
        IWareConfig {
            base: BaggingConfig {
                base: BaseLearnerConfig::Gp(GpConfig {
                    max_points: 60,
                    ..GpConfig::default()
                }),
                balanced,
                ..BaggingConfig::gps(3, 5)
            },
            ..quick_config(4)
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn pooled_out_of_fold_gp_means_match_the_per_learner_reference() {
        // The CV stage pools each fold's GP learners; the reference scores
        // every fold learner on its own, and its model serves learner by
        // learner.
        let (x, labels, efforts, _) = noisy_poaching_data(240, 38);
        for balanced in [false, true] {
            let config = gp_config(balanced);
            let model = IWareModel::fit(&config, x.view(), &labels, &efforts);
            assert!(model.pool().is_some(), "GP learners pool their rows");
            let reference = gathering_reference_fit(&config, x.view(), &labels, &efforts);
            assert_eq!(weight_bits(&model), weight_bits(&reference), "{balanced}");
            let q = x.view().head(30);
            let (p, v) = model.predict_with_variance_at_effort(q, &efforts[..30]);
            let (rp, rv) = reference.predict_with_variance_at_effort(q, &efforts[..30]);
            assert_eq!(bits(&p), bits(&rp), "{balanced}");
            assert_eq!(bits(&v), bits(&rv), "{balanced}");
        }
    }

    #[test]
    fn a_gp_resolve_caches_every_learners_probabilities_on_the_appended_rows() {
        let config = gp_config(true);
        let (x, labels, efforts, _) = noisy_poaching_data(200, 37);
        let (x2, labels2, efforts2, _) = noisy_poaching_data(9, 79);
        let (_, mut cache) = IWareModel::fit_cached(&config, x.view(), &labels, &efforts);
        let cached = cache.cv.as_ref().expect("CV weights").predictions.n_rows();
        let full_x = concat(&x, &x2);
        let full_labels = [labels.as_slice(), &labels2].concat();
        let full_efforts = [efforts.as_slice(), &efforts2].concat();
        let (warm, stats) = IWareModel::warm_refit(
            &config,
            &mut cache,
            full_x.view(),
            &full_labels,
            &full_efforts,
            1.0,
        );
        assert!(stats.cv_resolved_from_cache, "{stats:?}");
        let predictions = &cache.cv.as_ref().expect("CV weights").predictions;
        assert_eq!(predictions.n_rows(), cached + 9);
        for (l, learner) in warm.learners.iter().enumerate() {
            let column: Vec<f64> = (cached..cached + 9)
                .map(|r| predictions.get(r, l))
                .collect();
            assert_eq!(
                bits(&column),
                bits(&learner.predict_proba(x2.view())),
                "{l}"
            );
        }
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
