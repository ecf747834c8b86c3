//! The enhanced iWare-E ensemble.
//!
//! iWare-E (imperfect-observation-aware Ensemble, Gholami et al. 2018)
//! handles the one-sided label noise of patrol data by training I weak
//! learners on datasets filtered at increasing patrol-effort thresholds:
//! learner C_{θᵢ⁻} sees every positive but only the negatives recorded with
//! effort above θᵢ (low-effort negatives are unreliable). At prediction time
//! only the learners whose threshold does not exceed the point's patrol
//! effort are *qualified* to vote. Thresholds are strictly ascending, so
//! the qualified learners are always a prefix `0..k`, and its length
//! ([`qualified_count`](crate::thresholds::qualified_count)) is the only
//! form of a qualified set here: the fit asserts strictly ascending
//! thresholds and the snapshot decoder rejects any others (see
//! [`crate::thresholds`]).
//!
//! This implementation includes the paper's three enhancements (Sec. IV):
//! 1. classifier weights optimised by stratified cross-validation on log
//!    loss rather than uniform voting,
//! 2. thresholds placed at patrol-effort percentiles, and
//! 3. Gaussian-process weak learners whose predictive variance gives each
//!    prediction an uncertainty score, later consumed by the robust patrol
//!    planner.
//!
//! The code is split by stage. This module holds the configuration, the
//! model and its accessors; three child modules hold the rest and read the
//! model's private fields, so nothing they share is visible outside it:
//!
//! * `fit` — the one staged fit. [`IWareModel::warm_refit`] selects
//!   thresholds, plans each learner's effort-filtered subset, keeps or
//!   refits each learner, fuses the learners (a tree stack or a GP row
//!   pool) and solves the CV weights against a [`FitCache`];
//!   [`IWareModel::fit_cached`] runs it from an empty cache and
//!   [`IWareModel::fit`] drops the cache.
//! * `tables` — the learner tables: the fused stack's and the GP pool's
//!   block fills, the combine and the prediction entry points.
//! * `snapshot` — the stack snapshot and its validating decoder.
//!
//! Feature batches are flat row-major [`MatrixView`]s. No learner copies
//! its training rows: each trains on a list of batch rows (its
//! effort-filtered subset, a CV fold's training rows, or the whole batch
//! as the fallback) through [`BaggingClassifier::fit_ranked`]. Tree
//! learners rank the batch once per fit and derive every learner's, fold's
//! and fold learner's ranking from that one with
//! [`Ranking::subset`](paws_ml::tree::Ranking::subset); a warm refit ranks
//! only when it refits a learner or reruns the full CV. The I learners fit
//! in parallel, and [`IWareModel::effort_response`] evaluates the
//! park-wide g_v(c) / ν_v(c) surfaces cell-parallel into flat response
//! matrices.
//!
//! [`MatrixView`]: paws_data::matrix::MatrixView
//!
//! Every prediction goes through **learner tables**: each learner scores
//! the batch once into an `n_learners × n_rows` (probability, variance)
//! pair ([`LearnerTables`]), and one combine turns the tables into a
//! response surface ([`IWareModel::combine_tables_response`]). A
//! constant-effort risk map is its one-level case. The combine orders the
//! grid's levels by prefix length once per query, so one pass over the
//! learners serves every level in any grid order, each level written to
//! its own column.
//!
//! * When the weak learners are tree ensembles, the whole I×B learner
//!   stack is fused into one arena-backed [`Forest`], and the tables fill
//!   block by block: one level-synchronous batch traversal of the combined
//!   slab per 256-row block, then each learner's member rows reduced in
//!   the exact member order of the per-learner path (bit-identical
//!   results). No `n_trees × n_rows` table is ever materialised.
//! * The fill and the combine are written once, generic over the plane's
//!   element. On the f32 plane (selected with
//!   [`IWareModel::set_precision`]) the narrowed stack fills f32 tables
//!   from each block's rows narrowed from the f64 batch, and the combine
//!   runs in f32 with the narrowed weights, widening only the emitted
//!   surface. Per-row varying-effort prediction keeps the f64 plane and
//!   combines each row's prefix with [`crate::weights::combine`].
//! * When the weak learners are GP ensembles, the model pools every
//!   member's training rows once per fit into one [`RowPool`], the GP
//!   counterpart of the fused stack: each distinct row is stored once, so
//!   the pooled kernel computes its kernel value once per four-row query
//!   block for every member of every learner. The tables fill in 256-row
//!   blocks, each learner summing its members' outputs in member order
//!   (bit-identical to the per-learner path); the CV stage pools each
//!   fold's learners the same way for their out-of-fold means.
//! * SVM learners score the batch learner by learner on the f64 plane.
//!
//! A learner's prediction for a row depends on neither the effort level
//! nor the grid, so a caller that keeps the tables — a prepared park in
//! `paws-core` — serves every later query on the same rows with the
//! combine alone. Tables record the id of the model and the plane that
//! filled them, and the combine refuses any other model's or plane's
//! tables. The direct entry points (the constant-effort
//! `predict_*_at_effort` calls, `effort_response`) fill fresh tables and
//! run the same combine, so both routes produce the same bits.

mod fit;
mod snapshot;
mod tables;

pub use fit::{FitCache, RefitStats};
pub use tables::LearnerTables;

use crate::weights::WeightMode;
use paws_ml::bagging::{BaggingClassifier, BaggingConfig};
use paws_ml::forest::{ArenaElement, Forest};
use paws_ml::forest32::{Forest32, NarrowError};
use paws_ml::gp::RowPool;
use paws_ml::precision::Precision;
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration of the iWare-E ensemble.
#[derive(Debug, Clone)]
pub struct IWareConfig {
    /// Number of weak learners I (the paper uses 20 for MFNP/QENP, 10 for SWS).
    pub n_learners: usize,
    /// Configuration of each weak learner (a bagging ensemble).
    pub base: BaggingConfig,
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
            weight_mode: WeightMode::default(),
            min_subset_size: 20,
            seed,
        }
    }
}

/// The whole learner stack's trees fused into one arena: `ranges[i]` is the
/// tree index range of learner `i` within the combined forest. The f64
/// stack is the fitted one; its `f32` narrowing serves the f32 plane.
struct LearnerStack<T: ArenaElement = f64> {
    forest: Forest<T>,
    ranges: Vec<std::ops::Range<usize>>,
}

/// The learners fused for park-wide prediction. A GP stack's row pool is
/// the counterpart of a tree stack's fused arena.
enum Fused {
    /// Every learner's trees in one arena (the DTB variants).
    Trees(LearnerStack),
    /// Every learner's GP members' training rows, each distinct row once
    /// (the GPB variants).
    Gps(RowPool),
}

impl Fused {
    fn stack(&self) -> Option<&LearnerStack> {
        match self {
            Fused::Trees(stack) => Some(stack),
            Fused::Gps(_) => None,
        }
    }

    fn pool(&self) -> Option<&RowPool> {
        match self {
            Fused::Gps(pool) => Some(pool),
            Fused::Trees(_) => None,
        }
    }
}

/// Source of [`IWareModel`] ids, unique within the process.
static NEXT_MODEL_ID: AtomicU64 = AtomicU64::new(0);

fn next_model_id() -> u64 {
    // The counter publishes no other data; `fetch_add` alone keeps ids
    // unique, so `Relaxed` suffices.
    NEXT_MODEL_ID.fetch_add(1, Ordering::Relaxed)
}

/// A fitted iWare-E ensemble.
pub struct IWareModel {
    /// Process-unique id stamped on the [`LearnerTables`] this model
    /// computes. Each constructor draws a fresh one, and it is never
    /// refreshed: the only `&mut self` method, `set_precision`, switches
    /// the serving plane, which the tables record beside the id.
    id: u64,
    thresholds: Vec<f64>,
    /// Per-threshold weak learners. Empty for a model reconstructed from a
    /// stack snapshot — every prediction then fills its tables from the
    /// fused `stack`, and the sizing of learner-major tables goes through
    /// `ranges`/`weights`, never `learners.len()`.
    learners: Vec<BaggingClassifier>,
    weights: Vec<f64>,
    /// Feature width the learners were fitted on (recorded at fit or
    /// snapshot-load time; the query-validation width).
    n_features: usize,
    /// The learners fused once per fit (see the module docs): a tree stack
    /// or a GP row pool, `None` for SVM learners.
    fused: Option<Fused>,
    /// The f32 plane: the fused stack narrowed to 8-byte nodes. Present
    /// exactly while a tree stack is switched to [`Precision::F32`], which
    /// makes f32 the serving plane of the constant-effort and response
    /// paths (a derived cache of `stack`, rebuilt on demand, never
    /// serialized; fitting is untouched).
    stack32: Option<LearnerStack<f32>>,
    config: IWareConfig,
}

impl IWareModel {
    /// Select the plane that serves the park-wide prediction paths
    /// ([`IWareModel::effort_response`] and the constant-effort
    /// `predict_*_at_effort` entry points, i.e. response surfaces and risk
    /// maps). Switching to [`Precision::F32`] narrows the fused learner
    /// stack once to an 8-byte-node [`Forest32`]; the table fill and the
    /// combine then run end-to-end in f32 (with the weights narrowed),
    /// widening only the emitted surface. Tables filled on the previous
    /// plane no longer combine for this model. Per-row *varying*-effort
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
                    if let Some(stack) = self.stack() {
                        self.stack32 = Some(LearnerStack {
                            forest: Forest32::try_from_forest(&stack.forest)?,
                            ranges: stack.ranges.clone(),
                        });
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
            .map(|s| (s.forest.n_trees(), s.forest.n_nodes()))
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
        self.stack()
            .map(|s| (s.forest.n_trees(), s.forest.n_nodes()))
    }

    /// The fused tree stack, when the learners are tree ensembles.
    fn stack(&self) -> Option<&LearnerStack> {
        self.fused.as_ref().and_then(Fused::stack)
    }

    /// The GP row pool, when the learners are GP ensembles.
    fn pool(&self) -> Option<&RowPool> {
        self.fused.as_ref().and_then(Fused::pool)
    }
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
    pub(super) fn noisy_poaching_data(
        n: usize,
        seed: u64,
    ) -> (Matrix, Vec<f64>, Vec<f64>, Vec<f64>) {
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

    pub(super) fn quick_config(n_learners: usize) -> IWareConfig {
        IWareConfig {
            n_learners,
            base: BaggingConfig::trees(5, 3),
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
    fn variance_output_present_for_tree_base() {
        let (rows, labels, efforts, _) = noisy_poaching_data(250, 6);
        let model = IWareModel::fit(&quick_config(3), rows.view(), &labels, &efforts);
        let (p, v) = model.predict_with_variance_at_effort(rows.view().head(20), &efforts[..20]);
        assert_eq!(p.len(), 20);
        assert_eq!(v.len(), 20);
        assert!(v.iter().all(|&x| x >= 0.0));
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
}
