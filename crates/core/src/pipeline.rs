//! The end-to-end PAWS pipeline: dataset → predictive model → risk and
//! uncertainty maps → patrol-planning inputs.
//!
//! Feature batches flow through the whole stack as flat row-major matrices:
//! training gathers the split's rows into one [`paws_data::Matrix`], the scaler
//! standardises in place, and park-wide evaluation produces flat
//! `cells × effort-levels` response matrices consumed directly by the
//! planner. Park-wide queries run on a [`PreparedPark`]
//! ([`ServingModel::prepare_park`]); for tree-based models they are served
//! by one level-synchronous batch traversal of the ensemble's arena-backed
//! forest (the fused iWare-E learner stack for "-iW" variants) rather than
//! per-tree row walks.
//!
//! This module is the **fit** half of the fit/serve split: [`train`] runs
//! the mutable fitting pipeline and hands back a [`TrainedModel`] — a thin
//! owner of the immutable [`ServingModel`] artifact defined in
//! [`crate::serving`]. `TrainedModel` derefs to `ServingModel`, so every
//! query method (and public field) keeps its historical spelling; call
//! [`TrainedModel::into_serving`] to take the artifact out and share it
//! behind an `Arc` (e.g. in a `paws-serve` registry).

use crate::config::ModelConfig;
pub use crate::serving::{FittedModel, PreparedPark, ServingModel};
use paws_data::{Dataset, MatrixView, StandardScaler, TrainTestSplit};
use paws_iware::{FitCache, IWareModel};
use paws_ml::bagging::BaggingClassifier;
use std::ops::{Deref, DerefMut};

/// A trained predictive model together with its feature scaler.
///
/// Since the fit/serve split this is a compatibility facade: the model's
/// whole query surface lives on the immutable [`ServingModel`] artifact it
/// wraps, reachable here through `Deref`/`DerefMut` (so existing call sites
/// — including field access to `config`/`scaler`/`fitted` — compile and
/// behave bit-identically). Use [`TrainedModel::into_serving`] to extract
/// the artifact for `Arc` sharing.
pub struct TrainedModel {
    serving: ServingModel,
}

impl TrainedModel {
    /// Wrap an existing serving artifact (e.g. one rehydrated from a
    /// snapshot) in the fit-time facade.
    pub fn from_serving(serving: ServingModel) -> Self {
        Self { serving }
    }

    /// Take the immutable serving artifact out of the facade — the form a
    /// model registry holds resident behind an `Arc`.
    pub fn into_serving(self) -> ServingModel {
        self.serving
    }

    /// Borrow the serving artifact.
    pub fn serving(&self) -> &ServingModel {
        &self.serving
    }
}

impl Deref for TrainedModel {
    type Target = ServingModel;

    fn deref(&self) -> &ServingModel {
        &self.serving
    }
}

impl DerefMut for TrainedModel {
    fn deref_mut(&mut self) -> &mut ServingModel {
        &mut self.serving
    }
}

/// Train a model variant on the training part of a split.
///
/// # Panics
/// Panics when the configured f32 plane cannot hold the fitted arena: a
/// tree learner on [`Precision::F32`](paws_ml::precision::Precision::F32)
/// fitted on more than 256 feature columns, or on more nodes than the
/// plane's 2²⁴ cap. [`StreamingFit::ingest`](crate::stream::StreamingFit::ingest)
/// refuses the same input with a typed [`PawsError::Narrow`](crate::PawsError::Narrow).
pub fn train(dataset: &Dataset, split: &TrainTestSplit, config: &ModelConfig) -> TrainedModel {
    let rows = dataset.feature_rows(&split.train);
    let labels = dataset.labels(&split.train);
    let efforts = dataset.efforts(&split.train);
    // In-place fit-transform: the gathered training matrix is standardised
    // without a second copy.
    let (scaler, scaled) = StandardScaler::fit_transform(rows);
    let (fitted, _) = fit_variant(config, scaled.view(), &labels, &efforts);
    let serving = ServingModel::assemble(config.clone(), scaler, fitted)
        .expect("configured precision plane fits the trained arena");
    TrainedModel { serving }
}

/// The fit step shared by [`train`] and the streaming driver's cold path:
/// fit the configured variant on standardised rows. An iWare-E fit also
/// returns the [`FitCache`] that warm refits start from; plain bagging has
/// none. Fitting always runs in f64; the configured plane is applied when
/// the serving artifact is assembled.
pub(crate) fn fit_variant(
    config: &ModelConfig,
    x: MatrixView<'_>,
    labels: &[f64],
    efforts: &[f64],
) -> (FittedModel, Option<FitCache>) {
    if config.use_iware {
        let (model, cache) = IWareModel::fit_cached(&config.iware_config(), x, labels, efforts);
        (FittedModel::IWare(model), Some(cache))
    } else {
        let model = BaggingClassifier::fit(&config.bagging_config(), x, labels);
        (FittedModel::Plain(model), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WeakLearnerKind;
    use crate::scenario::Scenario;
    use paws_data::{build_dataset, split_by_test_year, Discretization};

    fn small_setup() -> (Scenario, Dataset, TrainTestSplit) {
        let scenario = Scenario::test_scenario(3);
        let history = scenario.simulate_years(2014, 3);
        let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
        let split = split_by_test_year(&dataset, 2016, 2).expect("split exists");
        (scenario, dataset, split)
    }

    fn quick_config(learner: WeakLearnerKind, use_iware: bool) -> ModelConfig {
        let mut cfg = ModelConfig::new(learner, use_iware, 7);
        cfg.n_learners = 4;
        cfg.n_estimators = 4;
        cfg.weight_mode = paws_iware::WeightMode::Uniform;
        cfg.gp_max_points = 120;
        cfg
    }

    #[test]
    fn training_and_auc_beat_chance_for_trees() {
        let (_, dataset, split) = small_setup();
        let model = train(
            &dataset,
            &split,
            &quick_config(WeakLearnerKind::DecisionTree, true),
        );
        let auc = model.auc_on(&dataset, &split.test);
        assert!(auc > 0.55, "test AUC too low: {auc}");
        let train_auc = model.auc_on(&dataset, &split.train);
        assert!(
            train_auc > auc - 0.1,
            "training AUC should not trail test AUC badly"
        );
    }

    #[test]
    fn plain_and_iware_variants_both_train() {
        let (_, dataset, split) = small_setup();
        for use_iware in [false, true] {
            let model = train(
                &dataset,
                &split,
                &quick_config(WeakLearnerKind::DecisionTree, use_iware),
            );
            let idx = &split.test[..10.min(split.test.len())];
            let probs = model.predict(dataset.feature_rows(idx).view(), &dataset.efforts(idx));
            assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn risk_map_covers_every_cell_with_valid_values() {
        let (scenario, dataset, split) = small_setup();
        let model = train(
            &dataset,
            &split,
            &quick_config(WeakLearnerKind::DecisionTree, true),
        );
        let prev = dataset.coverage.last().unwrap().clone();
        let prepared = model.prepare_park(&scenario.park, &dataset, &prev).unwrap();
        let (risk, var) = model.try_risk_map_prepared(&prepared, 1.0).unwrap();
        assert_eq!(risk.len(), scenario.park.n_cells());
        assert_eq!(var.len(), scenario.park.n_cells());
        assert!(risk.iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert!(var.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn park_response_has_requested_shape() {
        let (scenario, dataset, split) = small_setup();
        let model = train(
            &dataset,
            &split,
            &quick_config(WeakLearnerKind::DecisionTree, true),
        );
        let prev = vec![0.0; scenario.park.n_cells()];
        let grid = [0.0, 0.5, 1.0, 2.0];
        let prepared = model.prepare_park(&scenario.park, &dataset, &prev).unwrap();
        let (p, v) = model.try_park_response_prepared(&prepared, &grid).unwrap();
        assert_eq!(p.n_rows(), scenario.park.n_cells());
        assert_eq!(p.n_cols(), 4);
        assert_eq!(v.n_rows(), scenario.park.n_cells());
    }

    #[test]
    fn plain_model_response_is_effort_constant() {
        let (scenario, dataset, split) = small_setup();
        let model = train(
            &dataset,
            &split,
            &quick_config(WeakLearnerKind::DecisionTree, false),
        );
        let prev = vec![0.0; scenario.park.n_cells()];
        let grid = [0.0, 1.0, 4.0];
        let prepared = model.prepare_park(&scenario.park, &dataset, &prev).unwrap();
        let (p, _) = model.try_park_response_prepared(&prepared, &grid).unwrap();
        for row in p.rows() {
            assert!(row.iter().all(|&x| x == row[0]));
        }
    }

    #[test]
    fn f32_plane_serves_park_surfaces_within_the_documented_bound() {
        let (scenario, dataset, split) = small_setup();
        let mut model = train(
            &dataset,
            &split,
            &quick_config(WeakLearnerKind::DecisionTree, true),
        );
        assert_eq!(model.precision(), crate::Precision::F64);
        let prev = vec![0.0; scenario.park.n_cells()];
        let grid = [0.0, 0.5, 1.0, 2.0];
        // One prepared park serves both planes: after the switch the model
        // refuses the tables its f64 plane filled and answers from a fresh
        // f32 fill.
        let prepared = model.prepare_park(&scenario.park, &dataset, &prev).unwrap();
        let (p64, v64) = model.try_park_response_prepared(&prepared, &grid).unwrap();
        let (r64, u64_) = model.try_risk_map_prepared(&prepared, 1.0).unwrap();

        model.set_precision(crate::Precision::F32).unwrap();
        assert_eq!(model.precision(), crate::Precision::F32);
        let (p32, v32) = model.try_park_response_prepared(&prepared, &grid).unwrap();
        let (r32, u32_) = model.try_risk_map_prepared(&prepared, 1.0).unwrap();
        // Park-scale bound: the golden scenarios pin ≤ 1e-5 everywhere
        // (tests/matrix_parity.rs); on the full park feature stack a fitted
        // tree can additionally split a noise-level gap (adjacent training
        // values closer than an f32 ulp), and a cell landing inside that
        // half-ulp window takes the other branch when its query value is
        // narrowed — so here the 1e-5 bound must hold for (at least) 99.5 %
        // of cells, and the rare flipped cell stays bounded by the leaf gap
        // over the ensemble fan-in (≤ 0.5 is generous).
        let check = |a: &[f64], b: &[f64], what: &str| {
            let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| (x - y).abs()).collect();
            let over = diffs.iter().filter(|&&d| d > 1e-5).count();
            let max = diffs.iter().copied().fold(0.0f64, f64::max);
            assert!(
                (over as f64) <= 0.005 * diffs.len() as f64,
                "{what}: {over}/{} cells beyond 1e-5",
                diffs.len()
            );
            assert!(max <= 0.5, "{what}: max abs divergence {max}");
        };
        check(p64.as_slice(), p32.as_slice(), "park_response probs");
        check(v64.as_slice(), v32.as_slice(), "park_response vars");
        check(&r64, &r32, "risk map");
        check(&u64_, &u32_, "uncertainty map");
        assert!(r32.iter().all(|&p| (0.0..=1.0).contains(&p)));

        // And a config-selected plane applies straight out of train().
        let mut cfg = quick_config(WeakLearnerKind::DecisionTree, true);
        cfg.precision = crate::Precision::F32;
        let configured = train(&dataset, &split, &cfg);
        assert_eq!(configured.precision(), crate::Precision::F32);
    }

    #[test]
    fn planning_problem_builds_from_trained_model() {
        let (scenario, dataset, split) = small_setup();
        let model = train(
            &dataset,
            &split,
            &quick_config(WeakLearnerKind::DecisionTree, true),
        );
        let prev = vec![0.0; scenario.park.n_cells()];
        let grid = [0.0, 0.5, 1.0, 2.0, 4.0];
        let prepared = model.prepare_park(&scenario.park, &dataset, &prev).unwrap();
        let post = scenario.park.patrol_posts[0];
        let problem = model
            .try_planning_problem_prepared(&scenario.park, &prepared, post, &grid, 8.0, 2, 0.8)
            .unwrap();
        assert!(problem.n_cells() > 1);
        assert_eq!(problem.beta, 0.8);
        let plan = paws_plan::try_plan(&problem, &paws_plan::PlannerConfig::default()).unwrap();
        assert!(plan.coverage.iter().sum::<f64>() <= problem.budget_km() + 1e-6);
    }
}
