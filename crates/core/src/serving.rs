//! Immutable serving artifacts — the serve half of the fit/serve split.
//!
//! Training ([`crate::pipeline::train`]) is a one-shot, mutable affair; what
//! deployment actually holds resident is produced here:
//!
//! * [`ServingModel`] — the fitted ensemble (fused learner stack, and its
//!   f32 narrowing when configured), the feature scaler and the variant
//!   config, as one value. It is built from a live fit or rehydrated from a
//!   stack snapshot ([`ServingModel::from_stack_snapshot`]), optionally
//!   re-planed **before** sharing, and then published behind an `Arc` — at
//!   which point only `&self` query methods remain reachable, so the
//!   artifact is immutable for as long as it serves.
//! * [`PreparedPark`] — a park's assembled feature stack validated and
//!   standardised **once**, together with the scaler statistics it was
//!   standardised with. Every risk-map, response-surface and planning query
//!   on the park reads these rows, so none pays a per-call standardise
//!   pass, and a model with any other scaler is refused.
//!
//! The park-wide query surface is one checked method per kind, each over a
//! prepared park: [`ServingModel::try_risk_map_prepared`],
//! [`ServingModel::try_park_response_prepared`] and
//! [`ServingModel::try_planning_problem_prepared`]. A one-shot caller
//! prepares the park, queries it and drops it. Each answer is
//! bit-identical to the model evaluated directly on the standardised
//! stack.
//!
//! Every iWare query takes one route: score, then tables, then combine. A
//! prepared park keeps the **learner tables** of the first iWare model that
//! queries it: each learner's (probability, variance) over every cell,
//! [`paws_iware::LearnerTables`], in the element of the model's serving
//! plane. A learner's prediction for a cell depends on neither the effort
//! level nor the patrol post, so after that first risk map or response
//! surface, every later risk map, response surface and per-post planning
//! problem on the park only combines the tables — the same combine, in the
//! same learner order, that the model runs on tables it fills per call,
//! hence the same bits. Plain bagging models answer with one direct
//! `predict_with_variance` call on the prepared rows.
//!
//! * **Filled lazily, without blocking.** Preparation does not compute the
//!   tables, so a resident park that is never queried pays nothing. The
//!   first query computes them outside any lock and publishes them with
//!   [`OnceLock::set`]; a racing caller's identical result is dropped.
//!   (`get_or_init` would park a pool worker on the cell while the
//!   initialiser's nested parallel region runs — a deadlock risk on the
//!   work-stealing pool.)
//! * **Bound to one model and one plane.** Tables carry the id of the
//!   model that filled them and the plane it filled them on. The combine
//!   refuses them to any other model, and to the same model after it
//!   switched planes; such a query computes its answer without the cache,
//!   as if the park held none.
//! * **Sized by learners × cells × 2 elements**: 8.0 MB in f64 or 4.0 MB in
//!   f32 for ten learners at 50k cells, 0.6 MB for SWS's GP stack, freed
//!   with the park.

use crate::config::ModelConfig;
use crate::error::PawsError;
use paws_data::{Dataset, Matrix, MatrixView, StandardScaler};
use paws_geo::{CellId, Park};
use paws_iware::{IWareModel, LearnerTables};
use paws_ml::bagging::BaggingClassifier;
use paws_ml::forest32::NarrowError;
use paws_ml::metrics::roc_auc;
use paws_ml::precision::Precision;
use paws_ml::traits::{validate_effort_grid, validate_query, Classifier, UncertainClassifier};
use paws_plan::PlanningProblem;
use std::sync::OnceLock;

/// A fitted predictive model (plain bagging or iWare-E).
pub enum FittedModel {
    /// iWare-E wrapped ensemble ("-iW" variants).
    IWare(IWareModel),
    /// Plain bagging ensemble.
    Plain(BaggingClassifier),
}

/// The immutable serving artifact: fitted ensemble + scaler + config.
///
/// Constructible from a live fit (via [`crate::pipeline::train`], which
/// wraps one) or from a learner-stack snapshot
/// ([`ServingModel::from_stack_snapshot`]). The `&mut self` plane setter
/// is usable only while the artifact has a unique owner; once it is shared
/// behind an `Arc` (the registry's resident form), callers can reach only
/// the `&self` query surface.
pub struct ServingModel {
    /// The variant configuration used for training.
    pub config: ModelConfig,
    /// Feature standardiser fitted on the training rows.
    pub scaler: StandardScaler,
    /// The fitted model.
    pub fitted: FittedModel,
}

/// A park's feature stack, standardised once against a specific
/// [`ServingModel`]'s scaler.
///
/// Holds the standardised f64 rows and the scaler they were standardised
/// with; only a model whose scaler statistics match bit for bit may query
/// the park. Build one per (park, previous-coverage) pair via
/// [`ServingModel::prepare_park`] and reuse it across queries; rebuild it
/// when the coverage — and hence the feature stack — changes.
///
/// The park also caches the learner tables of the first iWare model that
/// queries it (see the module docs for when they are filled, which model
/// and plane may use them, and their size).
///
/// Preparation also tiles the rows into cache-sized **spatial shards** —
/// contiguous row ranges whose f64 rows fit in roughly
/// `SHARD_TARGET_BYTES` (1 MiB), a single range for small parks — and
/// reports them through [`PreparedPark::shards`]. Queries do not fan out
/// over them: the table fill runs in parallel 256-row blocks, and the
/// combine in 4,096-row strips.
pub struct PreparedPark {
    rows: Matrix,
    /// The scaler `rows` were standardised with.
    scaler: StandardScaler,
    shards: Vec<std::ops::Range<usize>>,
    /// Learner tables of `rows`, filled by the first iWare model to query
    /// the park and stamped with its id and plane.
    tables: OnceLock<LearnerTables>,
}

/// Shard boundaries are multiples of this row count — the block kernels'
/// row-chunk (`ROW_CHUNK` in `paws-iware`).
const SHARD_BLOCK_ROWS: usize = 256;

/// Target f64-row size per spatial shard.
const SHARD_TARGET_BYTES: usize = 1 << 20;

/// Tile `n_rows × n_cols` into contiguous cache-sized row ranges (one
/// range when the park is small; every boundary a [`SHARD_BLOCK_ROWS`]
/// multiple).
fn spatial_shards(n_rows: usize, n_cols: usize) -> Vec<std::ops::Range<usize>> {
    let target_rows = SHARD_TARGET_BYTES / (8 * n_cols.max(1));
    let rows_per_shard = (target_rows / SHARD_BLOCK_ROWS).max(1) * SHARD_BLOCK_ROWS;
    if n_rows <= rows_per_shard {
        return std::iter::once(0..n_rows).collect();
    }
    let mut shards = Vec::with_capacity(n_rows.div_ceil(rows_per_shard));
    let mut start = 0;
    while start < n_rows {
        let end = (start + rows_per_shard).min(n_rows);
        shards.push(start..end);
        start = end;
    }
    shards
}

impl PreparedPark {
    /// Number of park cells (feature rows) in the prepared stack.
    pub fn n_cells(&self) -> usize {
        self.rows.n_rows()
    }

    /// Feature width of the prepared stack.
    pub fn n_features(&self) -> usize {
        self.rows.n_cols()
    }

    /// The spatial shard tiling (contiguous, ascending, covering
    /// `0..n_cells()`; a single range for small parks).
    pub fn shards(&self) -> &[std::ops::Range<usize>] {
        &self.shards
    }

    /// The park's cached learner tables, filled from `model` when the cell
    /// is empty. The tables returned may belong to another model or plane;
    /// the combine checks.
    fn learner_tables(&self, model: &IWareModel) -> Option<&LearnerTables> {
        if self.tables.get().is_none() {
            // Compute outside the cell; a racing fill publishes first and
            // ours (bit-identical) is dropped.
            let _ = self.tables.set(model.learner_tables(self.rows.view()));
        }
        self.tables.get()
    }
}

impl ServingModel {
    /// Rehydrate a serving artifact from a learner-stack snapshot plus the
    /// fit-time scaler and variant config (the snapshot wire format carries
    /// the ensemble only). The configured precision plane is applied before
    /// the artifact is returned.
    ///
    /// # Errors
    /// [`PawsError::Snapshot`] for a rejected snapshot,
    /// [`PawsError::Narrow`] when the configured f32 plane does not fit the
    /// restored arena, [`PawsError::Input`] when the restored ensemble's
    /// feature width does not match the scaler.
    pub fn from_stack_snapshot(
        bytes: &[u8],
        config: ModelConfig,
        scaler: StandardScaler,
    ) -> Result<Self, PawsError> {
        let model = IWareModel::from_stack_snapshot(bytes, config.iware_config())?;
        if model.n_features() != scaler.n_features() {
            return Err(PawsError::Input(
                "snapshot feature width does not match the scaler",
            ));
        }
        Ok(Self::assemble(config, scaler, FittedModel::IWare(model))?)
    }

    /// The assembly step shared by every constructor: bundle a fitted
    /// model with its scaler and config, then switch it to the configured
    /// precision plane.
    ///
    /// # Errors
    /// The [`NarrowError`] when the configured f32 plane does not fit the
    /// fitted arena.
    pub(crate) fn assemble(
        config: ModelConfig,
        scaler: StandardScaler,
        fitted: FittedModel,
    ) -> Result<Self, NarrowError> {
        let precision = config.precision;
        let mut serving = ServingModel {
            config,
            scaler,
            fitted,
        };
        serving.set_precision(precision)?;
        Ok(serving)
    }

    /// Serialise the fused learner stack to the snapshot wire format.
    /// `None` when the fitted model has no snapshotable stack (plain
    /// bagging, or a non-tree learner base).
    pub fn to_stack_snapshot(&self) -> Option<Vec<u8>> {
        match &self.fitted {
            FittedModel::IWare(m) => m.to_stack_snapshot(),
            FittedModel::Plain(_) => None,
        }
    }

    /// Select the numeric plane serving this model's predictions (risk
    /// maps, response surfaces). Dispatches to the fitted ensemble; see
    /// [`paws_ml::precision::Precision`] for the contract.
    ///
    /// # Errors
    /// Returns the [`paws_ml::forest32::NarrowError`] when the trained
    /// arena exceeds the f32 plane's packing caps; the model keeps
    /// serving from its previous plane then.
    pub fn set_precision(&mut self, precision: Precision) -> Result<(), NarrowError> {
        match &mut self.fitted {
            FittedModel::IWare(m) => m.set_precision(precision),
            FittedModel::Plain(m) => m.set_precision(precision),
        }
    }

    /// The plane currently serving predictions.
    pub fn precision(&self) -> Precision {
        match &self.fitted {
            FittedModel::IWare(m) => m.precision(),
            FittedModel::Plain(m) => m.precision(),
        }
    }

    /// Predict detection probabilities for raw (unscaled) feature rows,
    /// given the patrol effort associated with each row.
    pub fn predict(&self, x: MatrixView<'_>, efforts: &[f64]) -> Vec<f64> {
        let scaled = self.scaler.transform(x);
        match &self.fitted {
            FittedModel::IWare(m) => m.predict_proba_at_effort(scaled.view(), efforts),
            FittedModel::Plain(m) => m.predict_proba(scaled.view()),
        }
    }

    /// ROC AUC of the model on a set of dataset points (typically the test
    /// split), using each point's recorded patrol effort for qualification.
    pub fn auc_on(&self, dataset: &Dataset, idx: &[usize]) -> f64 {
        let rows = dataset.feature_rows(idx);
        let labels = dataset.labels(idx);
        let efforts = dataset.efforts(idx);
        let probs = self.predict(rows.view(), &efforts);
        roc_auc(&labels, &probs)
    }

    /// Feature width this model's scaler (and hence every query path) was
    /// fitted on.
    pub fn n_features(&self) -> usize {
        self.scaler.n_features()
    }

    /// Assemble, validate and standardise a park's feature stack once, for
    /// repeated queries.
    ///
    /// # Errors
    /// [`PawsError::Input`] when the previous-coverage vector does not
    /// have one finite entry per park cell; [`PawsError::Query`] when the
    /// assembled stack is empty, width-mismatched or non-finite.
    pub fn prepare_park(
        &self,
        park: &Park,
        dataset: &Dataset,
        prev_coverage: &[f64],
    ) -> Result<PreparedPark, PawsError> {
        if prev_coverage.len() != park.n_cells() {
            return Err(PawsError::Input(
                "previous-coverage length does not match the park's cell count",
            ));
        }
        if !prev_coverage.iter().all(|c| c.is_finite()) {
            return Err(PawsError::Input(
                "previous coverage must be finite (found NaN or infinity)",
            ));
        }
        self.prepare_rows(dataset.full_feature_matrix(park, prev_coverage))
    }

    /// [`ServingModel::prepare_park`] for an already-assembled **raw**
    /// (unscaled) feature stack — the registry's model-swap path, which
    /// keeps a park's raw stack around and re-prepares it against the
    /// incoming model's scaler without re-touching the dataset.
    ///
    /// # Errors
    /// [`PawsError::Query`] when the stack is empty, width-mismatched or
    /// non-finite.
    pub fn prepare_rows(&self, mut rows: Matrix) -> Result<PreparedPark, PawsError> {
        validate_query(rows.view(), self.scaler.n_features())?;
        self.scaler.transform_in_place(&mut rows);
        let shards = spatial_shards(rows.n_rows(), rows.n_cols());
        Ok(PreparedPark {
            rows,
            scaler: self.scaler.clone(),
            shards,
            tables: OnceLock::new(),
        })
    }

    /// Refuse a prepared park this model's scaler did not standardise: its
    /// width must match, and its scaler's means and standard deviations
    /// must equal this model's bit for bit.
    fn check_prepared(&self, prepared: &PreparedPark) -> Result<(), PawsError> {
        if prepared.n_features() != self.scaler.n_features() {
            return Err(PawsError::Input(
                "prepared park feature width does not match the model",
            ));
        }
        let same_bits = |a: &[f64], b: &[f64]| {
            a.iter()
                .map(|v| v.to_bits())
                .eq(b.iter().map(|v| v.to_bits()))
        };
        if !same_bits(prepared.scaler.means(), self.scaler.means())
            || !same_bits(prepared.scaler.stds(), self.scaler.stds())
        {
            return Err(PawsError::Input(
                "prepared park was standardised by another scaler",
            ));
        }
        Ok(())
    }

    /// Predicted risk and uncertainty for every cell of a prepared park at a
    /// single prospective patrol-effort level (one panel of Fig. 6): the
    /// one-level [`ServingModel::try_park_response_prepared`].
    ///
    /// # Errors
    /// [`PawsError::Input`] for a negative or non-finite effort level, or a
    /// prepared park whose feature width or scaler does not match the
    /// model.
    pub fn try_risk_map_prepared(
        &self,
        prepared: &PreparedPark,
        effort_km: f64,
    ) -> Result<(Vec<f64>, Vec<f64>), PawsError> {
        if !effort_km.is_finite() || effort_km < 0.0 {
            return Err(PawsError::Input(
                "effort level must be finite and non-negative",
            ));
        }
        let (probs, vars) = self.try_park_response_prepared(prepared, &[effort_km])?;
        Ok((probs.into_flat(), vars.into_flat()))
    }

    /// Response curves g_v(c), ν_v(c) for every cell of a prepared park
    /// over a grid of prospective effort levels — the planner's input, as
    /// flat `cells × effort-levels` matrices.
    ///
    /// An iWare model combines the park's cached learner tables, filling
    /// them on its first query (see the module docs); a plain bagging model
    /// answers with one direct call on the prepared rows and broadcasts its
    /// effort-independent prediction across the levels.
    ///
    /// # Errors
    /// [`PawsError::Query`] for an empty grid or a negative or non-finite
    /// level; [`PawsError::Input`] for a prepared park whose feature width
    /// or scaler does not match the model.
    pub fn try_park_response_prepared(
        &self,
        prepared: &PreparedPark,
        effort_grid: &[f64],
    ) -> Result<(Matrix, Matrix), PawsError> {
        validate_effort_grid(effort_grid).map_err(PawsError::Query)?;
        self.check_prepared(prepared)?;
        let rows = prepared.rows.view();
        Ok(match &self.fitted {
            FittedModel::IWare(m) => {
                let served = prepared
                    .learner_tables(m)
                    .and_then(|tables| m.combine_tables_response(tables, effort_grid));
                match served {
                    Some(out) => out,
                    // Another model or plane filled the park: answer as if
                    // it held no tables.
                    None => m.effort_response(rows, effort_grid),
                }
            }
            FittedModel::Plain(m) => {
                let (p, v) = m.predict_with_variance(rows);
                broadcast_constant_response(&p, &v, effort_grid.len())
            }
        })
    }

    /// Build a patrol-planning problem for one post from a prepared park:
    /// the response surfaces come off the park's cached learner tables (or,
    /// for plain bagging, its prepared rows), then flow through
    /// [`try_planning_problem_from_response`]'s guards, squash and game
    /// construction.
    ///
    /// # Errors
    /// As [`ServingModel::try_park_response_prepared`] and
    /// [`try_planning_problem_from_response`].
    #[allow(clippy::too_many_arguments)]
    pub fn try_planning_problem_prepared(
        &self,
        park: &Park,
        prepared: &PreparedPark,
        post: CellId,
        effort_grid: &[f64],
        patrol_length_km: f64,
        n_patrols: usize,
        beta: f64,
    ) -> Result<PlanningProblem, PawsError> {
        let (probs, vars) = self.try_park_response_prepared(prepared, effort_grid)?;
        try_planning_problem_from_response(
            park,
            post,
            effort_grid,
            &probs,
            &vars,
            patrol_length_km,
            n_patrols,
            beta,
        )
    }
}

/// Build a patrol-planning problem from an **already computed** response
/// surface (e.g. one shared across a batch of same-park queries), with the
/// serving-side guards that [`PlanningProblem::from_raw_response`] enforces
/// by panicking: the post must lie inside the park, the effort grid must be
/// finite and strictly ascending with ≥ 2 levels, the surfaces must cover
/// every cell with one column per level, and the patrol budget and β must
/// be sane. Every raw variance must be finite (negative ones clamp to 0):
/// they are squashed with one park-wide scale, which a NaN or ±∞ anywhere
/// would corrupt, and only the rows of cells within half a patrol of the
/// post are read after that. (Response surfaces
/// themselves accept any valid grid, sorted or not; only planning needs
/// the levels in order, because they become the breakpoints of each
/// cell's piecewise-linear response.)
///
/// # Errors
/// [`PawsError::Input`] naming the violated precondition.
#[allow(clippy::too_many_arguments)]
pub fn try_planning_problem_from_response(
    park: &Park,
    post: CellId,
    effort_grid: &[f64],
    probs: &Matrix,
    vars: &Matrix,
    patrol_length_km: f64,
    n_patrols: usize,
    beta: f64,
) -> Result<PlanningProblem, PawsError> {
    if !vars.as_slice().iter().all(|v| v.is_finite()) {
        return Err(PawsError::Input("response variances must be finite"));
    }
    if !park.contains(post) {
        return Err(PawsError::Input("patrol post must be inside the park"));
    }
    if effort_grid.len() < 2 {
        return Err(PawsError::Input(
            "planning needs at least two effort levels",
        ));
    }
    // `w[1] > w[0]` also fails on NaN, which compares false.
    if !effort_grid.iter().all(|e| e.is_finite()) || !effort_grid.windows(2).all(|w| w[1] > w[0]) {
        return Err(PawsError::Input(
            "planning effort grid must be finite and strictly ascending",
        ));
    }
    if probs.n_rows() != park.n_cells() || vars.n_rows() != park.n_cells() {
        return Err(PawsError::Input(
            "response surfaces must cover every in-park cell",
        ));
    }
    if probs.n_cols() != effort_grid.len() || vars.n_cols() != effort_grid.len() {
        return Err(PawsError::Input(
            "response surfaces need one column per effort level",
        ));
    }
    if !(patrol_length_km.is_finite() && patrol_length_km > 0.0) || n_patrols == 0 {
        return Err(PawsError::Input(
            "patrol budget must be positive and finite",
        ));
    }
    if !beta.is_finite() || !(0.0..=1.0).contains(&beta) {
        return Err(PawsError::Input("beta must lie in [0, 1]"));
    }
    Ok(PlanningProblem::from_raw_response(
        park,
        post,
        effort_grid,
        probs,
        vars,
        patrol_length_km,
        n_patrols,
        beta,
    ))
}

/// Broadcast a plain ensemble's effort-constant prediction across the
/// requested effort levels.
fn broadcast_constant_response(p: &[f64], v: &[f64], n_levels: usize) -> (Matrix, Matrix) {
    let mut probs = Matrix::zeros(p.len(), n_levels);
    let mut vars = Matrix::zeros(v.len(), n_levels);
    for (i, (&pi, &vi)) in p.iter().zip(v).enumerate() {
        probs.row_mut(i).fill(pi);
        vars.row_mut(i).fill(vi);
    }
    (probs, vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WeakLearnerKind;
    use crate::pipeline::{train, TrainedModel};
    use crate::scenario::Scenario;
    use paws_data::{build_dataset, split_by_test_year, Discretization, TrainTestSplit};
    use paws_plan::{try_plan, PlanError, PlannerConfig, PwlError};
    use std::sync::Arc;

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
        // SWS's balanced GP members hold 30 points.
        cfg.gp_max_points = 30;
        cfg
    }

    /// Tree ensembles (fused arena) and GP ensembles.
    const LEARNERS: [WeakLearnerKind; 2] = [
        WeakLearnerKind::DecisionTree,
        WeakLearnerKind::GaussianProcess,
    ];

    /// The park's feature stack standardised by the model's scaler: the
    /// rows a model evaluated directly sees.
    fn standardised_stack(
        model: &ServingModel,
        park: &Park,
        dataset: &Dataset,
        prev: &[f64],
    ) -> Matrix {
        model
            .scaler
            .transform(dataset.full_feature_matrix(park, prev).view())
    }

    /// A risk map by direct model calls on a standardised stack — the
    /// reference every prepared risk map must match bit for bit.
    fn direct_risk_map(
        model: &ServingModel,
        rows: MatrixView<'_>,
        effort_km: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let efforts = vec![effort_km; rows.n_rows()];
        match &model.fitted {
            FittedModel::IWare(m) => m.predict_with_variance_at_effort(rows, &efforts),
            FittedModel::Plain(m) => m.predict_with_variance(rows),
        }
    }

    /// Response surfaces by direct model calls on a standardised stack.
    fn direct_response(
        model: &ServingModel,
        rows: MatrixView<'_>,
        grid: &[f64],
    ) -> (Matrix, Matrix) {
        match &model.fitted {
            FittedModel::IWare(m) => m.effort_response(rows, grid),
            FittedModel::Plain(m) => {
                let (p, v) = m.predict_with_variance(rows);
                broadcast_constant_response(&p, &v, grid.len())
            }
        }
    }

    /// Every (learner, variant, plane) combination must serve the exact
    /// same bits off a prepared park as the model evaluated directly on the
    /// standardised stack: on the first query, which fills the park's
    /// learner tables for every iWare model, on repeated ones the tables
    /// answer, and at risk levels off the response grid. After each plane
    /// switch, the park prepared and filled under the previous plane must
    /// answer the new plane's direct bits too.
    #[test]
    fn prepared_queries_are_bit_identical_to_direct_model_calls() {
        let (scenario, dataset, split) = small_setup();
        let park = &scenario.park;
        let prev = dataset.coverage.last().unwrap().clone();
        let grid = [0.0, 0.5, 1.0, 2.0];
        let levels = [1.0, 3.0, 0.25, 100.0];
        for learner in LEARNERS {
            for use_iware in [true, false] {
                let mut model = train(&dataset, &split, &quick_config(learner, use_iware));
                let rows = standardised_stack(&model, park, &dataset, &prev);
                let mut previous: Option<PreparedPark> = None;
                for precision in [Precision::F64, Precision::F32, Precision::F64] {
                    model.set_precision(precision).unwrap();
                    let case = format!("{learner:?} {use_iware} {precision:?}");
                    let prepared = model.prepare_park(park, &dataset, &prev).unwrap();
                    assert_eq!(prepared.n_cells(), park.n_cells());
                    assert_eq!(prepared.n_features(), model.n_features());
                    assert_eq!(prepared.rows.as_slice(), rows.as_slice());
                    assert!(prepared.tables.get().is_none(), "filled lazily: {case}");

                    let risk_refs: Vec<_> = levels
                        .iter()
                        .map(|&level| direct_risk_map(&model, rows.view(), level))
                        .collect();
                    let (p_ref, v_ref) = direct_response(&model, rows.view(), &grid);
                    let parks = [Some(&prepared), previous.as_ref()];
                    for (i, served) in parks.into_iter().flatten().enumerate() {
                        let case = format!("{case} {}", ["fresh", "previous plane"][i]);
                        for _ in 0..2 {
                            for (&level, (r_ref, u_ref)) in levels.iter().zip(&risk_refs) {
                                let (r, u) = model.try_risk_map_prepared(served, level).unwrap();
                                assert_eq!(&r, r_ref, "risk {case} @{level}");
                                assert_eq!(&u, u_ref, "uncertainty {case} @{level}");
                                assert_eq!(
                                    served.tables.get().is_some(),
                                    use_iware,
                                    "every iWare model fills the tables on its first query: {case}"
                                );
                            }
                            let (p, v) = model.try_park_response_prepared(served, &grid).unwrap();
                            assert_eq!(p.as_slice(), p_ref.as_slice(), "response {case}");
                            assert_eq!(v.as_slice(), v_ref.as_slice(), "variance {case}");
                        }
                    }
                    previous = Some(prepared);
                }
            }
        }
    }

    /// Tables are bound to the model that computed them: a second GP model
    /// querying a park the first one filled answers its own direct bits,
    /// and the first keeps answering from its tables.
    #[test]
    fn a_second_model_on_a_filled_park_answers_its_own_bits() {
        let (scenario, dataset, split) = small_setup();
        let park = &scenario.park;
        let prev = dataset.coverage.last().unwrap().clone();
        let grid = [0.0, 0.5, 1.0, 2.0, 4.0];
        let post = park.patrol_posts[0];
        let first = train(
            &dataset,
            &split,
            &quick_config(WeakLearnerKind::GaussianProcess, true),
        );
        let mut cfg = quick_config(WeakLearnerKind::GaussianProcess, true);
        cfg.seed = 8;
        let second = train(&dataset, &split, &cfg);
        let prepared = first.prepare_park(park, &dataset, &prev).unwrap();
        // Same data and split, so both scalers standardise the park alike
        // and the second model's direct answers are comparable.
        let rows = standardised_stack(&second, park, &dataset, &prev);
        assert_eq!(rows.as_slice(), prepared.rows.as_slice());

        let (r1, u1) = first.try_risk_map_prepared(&prepared, 1.0).unwrap();
        let tables = prepared.tables.get().expect("the first GP query fills");
        let (FittedModel::IWare(m1), FittedModel::IWare(m2)) = (&first.fitted, &second.fitted)
        else {
            panic!("both models are iWare ensembles");
        };
        assert!(m1.combine_tables_response(tables, &grid).is_some());
        assert!(m2.combine_tables_response(tables, &grid).is_none());

        for level in [1.0, 3.0] {
            let (r_ref, u_ref) = direct_risk_map(&second, rows.view(), level);
            let (r, u) = second.try_risk_map_prepared(&prepared, level).unwrap();
            assert_eq!(r, r_ref, "second model's risk @{level}");
            assert_eq!(u, u_ref, "second model's uncertainty @{level}");
        }
        let (r2, _) = second.try_risk_map_prepared(&prepared, 1.0).unwrap();
        assert_ne!(r2, r1, "a differently bagged model must not echo the cache");
        let (p_ref, v_ref) = direct_response(&second, rows.view(), &grid);
        let (p, v) = second.try_park_response_prepared(&prepared, &grid).unwrap();
        assert_eq!(p.as_slice(), p_ref.as_slice());
        assert_eq!(v.as_slice(), v_ref.as_slice());
        let reference =
            try_planning_problem_from_response(park, post, &grid, &p_ref, &v_ref, 8.0, 2, 0.8)
                .unwrap();
        let problem = second
            .try_planning_problem_prepared(park, &prepared, post, &grid, 8.0, 2, 0.8)
            .unwrap();
        let config = PlannerConfig::default();
        assert_eq!(
            try_plan(&problem, &config).unwrap().coverage,
            try_plan(&reference, &config).unwrap().coverage
        );

        let (r, u) = first.try_risk_map_prepared(&prepared, 1.0).unwrap();
        assert_eq!((r.as_slice(), u.as_slice()), (r1.as_slice(), u1.as_slice()));
        assert_eq!(r, direct_risk_map(&first, rows.view(), 1.0).0);
    }

    #[test]
    fn spatial_shard_tiling_covers_the_park_on_block_boundaries() {
        // Small parks stay in one shard.
        let small = spatial_shards(300, 6);
        assert_eq!(small.len(), 1);
        assert_eq!(small[0], 0..300);
        let empty = spatial_shards(0, 6);
        assert_eq!(empty.len(), 1);
        assert_eq!(empty[0], 0..0);
        // An LLC-scale park tiles into contiguous ascending ranges whose
        // interior boundaries are SHARD_BLOCK_ROWS multiples and whose f64
        // plane stays at or under the cache target.
        for (n_rows, n_cols) in [(50_000, 6), (200_000, 6), (131_072, 16), (70_001, 7)] {
            let shards = spatial_shards(n_rows, n_cols);
            assert!(shards.len() > 1, "{n_rows}x{n_cols} should tile");
            let mut expect_start = 0;
            for (i, span) in shards.iter().enumerate() {
                assert_eq!(span.start, expect_start, "shards must be contiguous");
                assert!(span.start < span.end);
                if i + 1 < shards.len() {
                    assert!(
                        span.end.is_multiple_of(SHARD_BLOCK_ROWS),
                        "interior boundary {} off the {SHARD_BLOCK_ROWS}-row grid",
                        span.end
                    );
                    assert!(span.len() * n_cols * 8 <= SHARD_TARGET_BYTES);
                }
                expect_start = span.end;
            }
            assert_eq!(expect_start, n_rows, "shards must cover every cell");
        }
    }

    /// The table fill and the combine run in parallel row blocks: for every
    /// (learner, variant, plane), a fresh park filled under 1, 2 or 4
    /// forced workers serves the bits of the reference park, and so does a
    /// fresh park that already holds another model's tables (the query
    /// then fills its own tables outside the cache).
    #[test]
    fn fresh_park_fills_are_bit_identical_across_forced_worker_counts() {
        let (scenario, dataset, split) = small_setup();
        let park = &scenario.park;
        let prev = dataset.coverage.last().unwrap().clone();
        let grid = [0.0, 0.5, 1.0, 2.0];
        let mut other_cfg = quick_config(WeakLearnerKind::GaussianProcess, true);
        other_cfg.seed = 8;
        let other = train(&dataset, &split, &other_cfg);
        let FittedModel::IWare(other) = &other.fitted else {
            panic!("an iWare ensemble");
        };
        for learner in LEARNERS {
            for use_iware in [true, false] {
                let mut model = train(&dataset, &split, &quick_config(learner, use_iware));
                for precision in [Precision::F64, Precision::F32] {
                    model.set_precision(precision).unwrap();
                    let fresh = || model.prepare_park(park, &dataset, &prev).unwrap();
                    let reference = fresh();
                    let (r_ref, u_ref) = model.try_risk_map_prepared(&reference, 1.0).unwrap();
                    let (p_ref, v_ref) =
                        model.try_park_response_prepared(&reference, &grid).unwrap();
                    for forced in [1usize, 2, 4] {
                        let case = format!("{learner:?} {use_iware} {precision:?} x{forced}");
                        let foreign = fresh();
                        let tables = other.learner_tables(foreign.rows.view());
                        assert!(foreign.tables.set(tables).is_ok());
                        for served in [fresh(), foreign] {
                            rayon::with_num_threads(forced, || {
                                let (r, u) = model.try_risk_map_prepared(&served, 1.0).unwrap();
                                assert_eq!(r, r_ref, "risk {case}");
                                assert_eq!(u, u_ref, "var {case}");
                                let (p, v) =
                                    model.try_park_response_prepared(&served, &grid).unwrap();
                                assert_eq!(p.as_slice(), p_ref.as_slice(), "response {case}");
                                assert_eq!(v.as_slice(), v_ref.as_slice(), "variance {case}");
                            });
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prepared_planning_problem_matches_the_direct_construction() {
        let (scenario, dataset, split) = small_setup();
        let park = &scenario.park;
        let model = train(
            &dataset,
            &split,
            &quick_config(WeakLearnerKind::DecisionTree, true),
        );
        let prev = vec![0.0; park.n_cells()];
        let grid = [0.0, 0.5, 1.0, 2.0, 4.0];
        let post = park.patrol_posts[0];
        let rows = standardised_stack(&model, park, &dataset, &prev);
        let (probs, vars) = direct_response(&model, rows.view(), &grid);
        let reference =
            try_planning_problem_from_response(park, post, &grid, &probs, &vars, 8.0, 2, 0.8)
                .unwrap();
        let prepared = model.prepare_park(park, &dataset, &prev).unwrap();
        let problem = model
            .try_planning_problem_prepared(park, &prepared, post, &grid, 8.0, 2, 0.8)
            .unwrap();
        assert_eq!(problem.n_cells(), reference.n_cells());
        assert_eq!(problem.beta, reference.beta);
        let reference_plan = try_plan(&reference, &PlannerConfig::default()).unwrap();
        let plan = try_plan(&problem, &PlannerConfig::default()).unwrap();
        assert_eq!(plan.coverage, reference_plan.coverage);
    }

    /// Planning inputs the PWL construction cannot take are typed
    /// rejections, not panics: an effort grid out of order, and surfaces
    /// whose column count is not the grid's length. Response surfaces keep
    /// accepting unsorted grids.
    #[test]
    fn planning_rejects_unordered_grids_and_mismatched_surfaces() {
        let (scenario, dataset, split) = small_setup();
        let park = &scenario.park;
        let model = train(
            &dataset,
            &split,
            &quick_config(WeakLearnerKind::DecisionTree, true),
        );
        let prev = vec![0.0; park.n_cells()];
        let post = park.patrol_posts[0];
        let prepared = model.prepare_park(park, &dataset, &prev).unwrap();
        for grid in [&[1.0, 0.0][..], &[0.0, 0.0, 1.0]] {
            assert!(
                matches!(
                    model.try_planning_problem_prepared(park, &prepared, post, grid, 8.0, 2, 0.8),
                    Err(PawsError::Input(_))
                ),
                "{grid:?}"
            );
            assert!(model.try_park_response_prepared(&prepared, grid).is_ok());
        }

        let (probs, vars) = model
            .try_park_response_prepared(&prepared, &[0.0, 1.0])
            .unwrap();
        let (_, vars3) = model
            .try_park_response_prepared(&prepared, &[0.0, 1.0, 2.0])
            .unwrap();
        let from = |grid: &[f64], vars: &Matrix| {
            try_planning_problem_from_response(park, post, grid, &probs, vars, 8.0, 2, 0.8)
        };
        assert!(from(&[0.0, 1.0], &vars).is_ok());
        assert!(matches!(
            from(&[0.0, 1.0, 2.0], &vars),
            Err(PawsError::Input(_))
        ));
        assert!(matches!(
            from(&[0.0, 1.0], &vars3),
            Err(PawsError::Input(_))
        ));
        assert!(matches!(
            from(&[0.0, f64::NAN], &vars),
            Err(PawsError::Input(_))
        ));
    }

    /// The planning guards scan the variances but not the probabilities, so
    /// a NaN probability row builds a problem; the PWL sampler then rejects
    /// the non-finite utility with a typed error, not a panic.
    #[test]
    fn a_non_finite_response_is_a_typed_planning_error() {
        let (scenario, dataset, split) = small_setup();
        let park = &scenario.park;
        let model = train(
            &dataset,
            &split,
            &quick_config(WeakLearnerKind::DecisionTree, true),
        );
        let prev = vec![0.0; park.n_cells()];
        let post = park.patrol_posts[0];
        let grid = [0.0, 0.5, 1.0, 2.0, 4.0];
        let prepared = model.prepare_park(park, &dataset, &prev).unwrap();
        let (mut probs, vars) = model.try_park_response_prepared(&prepared, &grid).unwrap();
        let row = park.cell_position(post).expect("the post is a park cell");
        probs.row_mut(row).fill(f64::NAN);
        let problem =
            try_planning_problem_from_response(park, post, &grid, &probs, &vars, 8.0, 2, 0.8)
                .unwrap();
        let err = try_plan(&problem, &PlannerConfig::default()).unwrap_err();
        assert_eq!(err, PlanError::Pwl(PwlError::NonFinite), "{err}");
    }

    /// A NaN or ±∞ variance anywhere in the raw surface is refused: the
    /// park-wide squash would read a NaN as 0 and scale every ν to 0 around
    /// a +∞, even one outside the post's reach. Negative variances still
    /// clamp to 0.
    #[test]
    fn non_finite_raw_variances_are_refused_anywhere_in_the_surface() {
        let park = &Scenario::test_scenario(3).park;
        let post = park.patrol_posts[0];
        let grid: [f64; 4] = [0.0, 1.0, 2.0, 4.0];
        let probs: Vec<Vec<f64>> = (0..park.n_cells())
            .map(|i| {
                let scale = 0.1 + 0.8 * ((i * 37) % 100) as f64 / 100.0;
                grid.iter()
                    .map(|&e| scale * (1.0 - (-0.7 * e).exp()))
                    .collect()
            })
            .collect();
        let vars: Vec<Vec<f64>> = (0..park.n_cells())
            .map(|i| {
                let base = 0.05 + 0.4 * ((i * 61) % 100) as f64 / 100.0;
                grid.iter().map(|&e| base + 0.03 * e).collect()
            })
            .collect();
        let probs = Matrix::from_rows(&probs);
        let build = |vars: &Matrix| {
            try_planning_problem_from_response(park, post, &grid, &probs, vars, 8.0, 2, 1.0)
        };
        let clean = build(&Matrix::from_rows(&vars)).expect("clean surfaces plan");
        let reached: Vec<usize> = clean.cells.iter().map(|c| c.park_index).collect();
        let outside = (0..park.n_cells())
            .find(|i| !reached.contains(i))
            .expect("a cell beyond the post's reach");
        let with = |row: usize, value: f64| {
            let mut v = vars.clone();
            v[row][1] = value;
            Matrix::from_rows(&v)
        };
        for (row, value) in [
            (outside, f64::INFINITY),
            (outside, f64::NEG_INFINITY),
            (reached[0], f64::NAN),
            (reached[0], f64::INFINITY),
        ] {
            assert!(
                matches!(build(&with(row, value)), Err(PawsError::Input(_))),
                "{value} at row {row}"
            );
        }
        assert!(build(&with(reached[0], -0.5)).is_ok());
    }

    #[test]
    fn prepared_guards_reject_bad_queries_and_mismatched_artifacts() {
        let (scenario, dataset, split) = small_setup();
        let park = &scenario.park;
        let model = train(
            &dataset,
            &split,
            &quick_config(WeakLearnerKind::DecisionTree, true),
        );
        let prev = vec![0.0; park.n_cells()];

        // The coverage vector must have one finite entry per cell.
        let short = vec![0.0; park.n_cells() - 1];
        assert!(matches!(
            model.prepare_park(park, &dataset, &short),
            Err(PawsError::Input(_))
        ));
        let mut poisoned = prev.clone();
        poisoned[0] = f64::NAN;
        assert!(matches!(
            model.prepare_park(park, &dataset, &poisoned),
            Err(PawsError::Input(_))
        ));

        let prepared = model.prepare_park(park, &dataset, &prev).unwrap();
        assert!(matches!(
            model.try_risk_map_prepared(&prepared, f64::NAN),
            Err(PawsError::Input(_))
        ));
        assert!(matches!(
            model.try_risk_map_prepared(&prepared, -1.0),
            Err(PawsError::Input(_))
        ));
        assert!(matches!(
            model.try_park_response_prepared(&prepared, &[]),
            Err(PawsError::Query(_))
        ));
        for grid in [&[0.5, f64::NAN][..], &[0.5, -1.0]] {
            assert!(matches!(
                model.try_park_response_prepared(&prepared, grid),
                Err(PawsError::Query(_))
            ));
        }

        // A prepared stack whose feature width does not match the model's
        // scaler is refused before it can reach the kernels.
        let foreign = PreparedPark {
            rows: Matrix::zeros(4, model.n_features() + 1),
            scaler: model.scaler.clone(),
            shards: std::iter::once(0..4).collect(),
            tables: OnceLock::new(),
        };
        assert!(matches!(
            model.try_risk_map_prepared(&foreign, 1.0),
            Err(PawsError::Input(_))
        ));
        assert!(matches!(
            model.try_park_response_prepared(&foreign, &[0.5]),
            Err(PawsError::Input(_))
        ));

        // So is a park of the right width standardised by another scaler: a
        // model fitted on an earlier split does not answer on rows the
        // first model's scaler standardised.
        let earlier = split_by_test_year(&dataset, 2015, 1).expect("split exists");
        let second = train(
            &dataset,
            &earlier,
            &quick_config(WeakLearnerKind::DecisionTree, true),
        );
        assert_eq!(second.n_features(), model.n_features());
        let post = park.patrol_posts[0];
        let grid = [0.0, 1.0];
        assert!(matches!(
            second.try_risk_map_prepared(&prepared, 1.0),
            Err(PawsError::Input(_))
        ));
        assert!(matches!(
            second.try_park_response_prepared(&prepared, &grid),
            Err(PawsError::Input(_))
        ));
        assert!(matches!(
            second.try_planning_problem_prepared(park, &prepared, post, &grid, 8.0, 2, 0.8),
            Err(PawsError::Input(_))
        ));
        assert!(
            prepared.tables.get().is_none(),
            "a refused query fills nothing"
        );
        let own = second.prepare_park(park, &dataset, &prev).unwrap();
        assert!(second.try_risk_map_prepared(&own, 1.0).is_ok());
    }

    #[test]
    fn snapshot_rehydrated_artifact_serves_bit_identical_surfaces() {
        let (scenario, dataset, split) = small_setup();
        let park = &scenario.park;
        let model = train(
            &dataset,
            &split,
            &quick_config(WeakLearnerKind::DecisionTree, true),
        );
        let prev = vec![0.0; park.n_cells()];
        let grid = [0.0, 0.5, 1.0, 2.0];
        let bytes = model.to_stack_snapshot().expect("tree stack snapshots");

        let rehydrated =
            ServingModel::from_stack_snapshot(&bytes, model.config.clone(), model.scaler.clone())
                .expect("snapshot rehydrates");
        assert_eq!(rehydrated.precision(), model.precision());
        let reference = model.prepare_park(park, &dataset, &prev).unwrap();
        let prepared = rehydrated.prepare_park(park, &dataset, &prev).unwrap();
        let (r_ref, u_ref) = model.try_risk_map_prepared(&reference, 1.0).unwrap();
        let (r, u) = rehydrated.try_risk_map_prepared(&prepared, 1.0).unwrap();
        assert_eq!(r, r_ref);
        assert_eq!(u, u_ref);
        let (p_ref, v_ref) = model.try_park_response_prepared(&reference, &grid).unwrap();
        let (p, v) = rehydrated
            .try_park_response_prepared(&prepared, &grid)
            .unwrap();
        assert_eq!(p.as_slice(), p_ref.as_slice());
        assert_eq!(v.as_slice(), v_ref.as_slice());

        // Corrupted bytes and width mismatches surface as typed errors.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            ServingModel::from_stack_snapshot(&bad, model.config.clone(), model.scaler.clone()),
            Err(PawsError::Snapshot(_))
        ));
        let foreign_scaler =
            StandardScaler::fit(Matrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 3.0]]).view());
        assert!(matches!(
            ServingModel::from_stack_snapshot(&bytes, model.config.clone(), foreign_scaler),
            Err(PawsError::Input(_))
        ));
    }

    #[test]
    fn facade_round_trips_and_the_artifact_shares_behind_an_arc() {
        let (scenario, dataset, split) = small_setup();
        let park = &scenario.park;
        let prev = vec![0.0; park.n_cells()];
        let grid = [0.0, 0.5, 1.0, 2.0];
        for learner in LEARNERS {
            let model = train(&dataset, &split, &quick_config(learner, true));
            let rows = standardised_stack(&model, park, &dataset, &prev);
            let (r_ref, u_ref) = direct_risk_map(&model, rows.view(), 1.0);
            let (p_ref, v_ref) = direct_response(&model, rows.view(), &grid);
            let reference = Arc::new((r_ref, u_ref, p_ref, v_ref));

            // Facade → artifact → Arc: the shared artifact serves the same
            // bits from plain `&self`, concurrently. Four threads race the
            // first query on one fresh prepared park (the table fill), half
            // for risk maps and half for response surfaces.
            let artifact: Arc<ServingModel> = Arc::new(model.into_serving());
            let prepared = Arc::new(artifact.prepare_park(park, &dataset, &prev).unwrap());
            let start = Arc::new(std::sync::Barrier::new(4));
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let artifact = Arc::clone(&artifact);
                    let prepared = Arc::clone(&prepared);
                    let start = Arc::clone(&start);
                    let reference = Arc::clone(&reference);
                    std::thread::spawn(move || {
                        start.wait();
                        let (r_ref, u_ref, p_ref, v_ref) = &*reference;
                        if t % 2 == 0 {
                            let (r, u) = artifact.try_risk_map_prepared(&prepared, 1.0).unwrap();
                            assert_eq!(&r, r_ref, "risk, thread {t}");
                            assert_eq!(&u, u_ref, "uncertainty, thread {t}");
                        } else {
                            let (p, v) = artifact
                                .try_park_response_prepared(&prepared, &grid)
                                .unwrap();
                            assert_eq!(p.as_slice(), p_ref.as_slice(), "response, thread {t}");
                            assert_eq!(v.as_slice(), v_ref.as_slice(), "variance, thread {t}");
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join()
                    .expect("every racing query answers the sequential bits");
            }
            assert!(prepared.tables.get().is_some(), "the racing fill publishes");

            // And back into the facade for fit-time callers.
            let artifact = Arc::try_unwrap(artifact).ok().expect("sole owner again");
            let model = TrainedModel::from_serving(artifact);
            let (r, _) = model.try_risk_map_prepared(&prepared, 1.0).unwrap();
            assert_eq!(r, reference.0);
        }
    }
}
