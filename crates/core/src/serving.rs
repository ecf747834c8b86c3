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
//! * [`PreparedPark`] — a park's assembled feature stack standardised
//!   **once** and narrowed to the f32 plane **once**
//!   ([`StandardScaler::transform_planes_in_place`]). Every subsequent
//!   risk-map / response-surface query on the prepared park skips the
//!   per-call standardise+narrow pass entirely; this is what turns the f32
//!   plane's bandwidth advantage back into a net win on 50k-cell parks
//!   (unprepared, the per-call narrowing ate it: 0.84× on `park_response`).
//!
//! Every prepared query path is bit-identical to its unprepared sibling on
//! [`crate::pipeline::TrainedModel`]: the cached f64 plane is exactly the
//! in-place standardised matrix the unprepared path builds per call, and the
//! cached f32 plane is exactly its one-pass narrowing.
//!
//! A prepared park also keeps the **learner tables** of the first iWare
//! model without a fused tree stack (the GP variants) that queries it: each
//! learner's (probability, variance) over every cell,
//! [`paws_iware::LearnerTables`]. A learner's prediction for a cell depends
//! on neither the effort level nor the patrol post, so after that first
//! risk map or response surface, every later risk map, response surface
//! and per-post planning problem on the park only combines the tables —
//! the same combine, in the same learner order, that the unprepared path
//! runs on tables it computes per call, hence the same bits.
//!
//! * **Filled lazily, without blocking.** Preparation does not compute the
//!   tables, so a resident park that is never queried by a GP model pays
//!   nothing. The first query computes them outside any lock and
//!   publishes them with [`OnceLock::set`]; a racing caller's identical
//!   result is dropped. (`get_or_init` would park a pool worker on the cell
//!   while the initialiser's nested parallel region runs — a deadlock risk
//!   on the work-stealing pool.)
//! * **Bound to one model.** Tables carry the id of the model that built
//!   them, and the combiners refuse another model's tables; any other
//!   model querying the park computes its answer without the cache, as if
//!   the park held none.
//! * **Not for tree stacks.** Their fused per-block pipeline never builds
//!   tables: a cache would cost 8 MB at 50k cells (4 MB as f32 tables) and
//!   change the memory of every tree workload.

use crate::config::ModelConfig;
use crate::error::PawsError;
use paws_data::{Dataset, Matrix, Matrix32, MatrixView, MatrixView32, StandardScaler};
use paws_geo::{CellId, Park};
use paws_iware::{IWareModel, LearnerTables};
use paws_ml::bagging::BaggingClassifier;
use paws_ml::forest32::NarrowError;
use paws_ml::metrics::roc_auc;
use paws_ml::precision::Precision;
use paws_ml::traits::{validate_effort_grid, validate_query, Classifier, UncertainClassifier};
use paws_plan::{squash_matrix, PlanningProblem};
use rayon::prelude::*;
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

/// A park's feature stack, standardised and narrowed once against a
/// specific [`ServingModel`]'s scaler.
///
/// Holds both precision planes: the standardised f64 matrix (bit-identical
/// to what the unprepared query paths compute per call) and its f32
/// narrowing (bit-identical to [`StandardScaler::transform_f32`] on the raw
/// rows). Build one per (park, previous-coverage) pair via
/// [`ServingModel::prepare_park`] and reuse it across queries; rebuild it
/// when the coverage — and hence the feature stack — changes.
///
/// The park also caches the learner tables of the first table-serving
/// (non-tree iWare) model that queries it: `n_learners × n_cells × 2`
/// f64 values, 0.6 MB for SWS, freed with the park (see the module docs
/// for when they are filled and which model may use them).
///
/// LLC-scale parks (50k–200k cells) are additionally tiled into
/// cache-sized **spatial shards** — contiguous row ranges whose f64 plane
/// fits in roughly `SHARD_TARGET_BYTES` (1 MiB) — at preparation time. Prepared
/// park-wide queries fan the shards across the worker pool and stitch the
/// per-shard surfaces back in row order; every per-row kernel result
/// depends only on its own row, and shard boundaries are multiples of the
/// block kernels' row-chunk, so the stitched surface is bit-identical to
/// the unsharded (and 1-thread) evaluation.
pub struct PreparedPark {
    rows: Matrix,
    rows32: Matrix32,
    shards: Vec<std::ops::Range<usize>>,
    /// Learner tables of `rows`, filled by the first table-serving model
    /// to query the park and stamped with its id.
    tables: OnceLock<LearnerTables>,
}

/// Shard boundaries are multiples of this row count — the block kernels'
/// row-chunk (`ROW_CHUNK` in `paws-iware`), so a shard's block partition
/// is a subset of the unsharded run's.
const SHARD_BLOCK_ROWS: usize = 256;

/// Target f64-plane size per spatial shard: big enough to amortise region
/// publish overhead, small enough that a shard's two planes plus its
/// output surfaces sit in the LLC while a worker chews on it.
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

    /// f64-plane subview of one shard's rows.
    fn rows_span(&self, span: &std::ops::Range<usize>) -> MatrixView<'_> {
        let w = self.rows.n_cols();
        MatrixView::from_flat(&self.rows.as_slice()[span.start * w..span.end * w], w)
    }

    /// f32-plane subview of one shard's rows.
    fn rows32_span(&self, span: &std::ops::Range<usize>) -> MatrixView32<'_> {
        let w = self.rows32.n_cols();
        MatrixView32::from_flat(&self.rows32.as_slice()[span.start * w..span.end * w], w)
    }

    /// The park's cached learner tables, filled from `model` when the cell
    /// is empty. `None` when it is empty and `model` has a fused tree stack
    /// (no tables to build). The tables returned may belong to another
    /// model; the combiners check.
    fn learner_tables(&self, model: &IWareModel) -> Option<&LearnerTables> {
        if let Some(tables) = self.tables.get() {
            return Some(tables);
        }
        // Compute outside the cell; a racing fill publishes first and ours
        // (bit-identical) is dropped.
        let _ = self.tables.set(model.learner_tables(self.rows.view())?);
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
        let mut serving = ServingModel {
            config,
            scaler,
            fitted: FittedModel::IWare(model),
        };
        let precision = serving.config.precision;
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

    /// Predict probabilities and uncertainty (variance) for raw rows.
    pub fn predict_with_variance(
        &self,
        x: MatrixView<'_>,
        efforts: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        let scaled = self.scaler.transform(x);
        match &self.fitted {
            FittedModel::IWare(m) => m.predict_with_variance_at_effort(scaled.view(), efforts),
            FittedModel::Plain(m) => m.predict_with_variance(scaled.view()),
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

    /// Validate a coverage vector + the assembled park feature stack
    /// before it reaches the unchecked traversal kernels.
    fn checked_feature_matrix(
        &self,
        park: &Park,
        dataset: &Dataset,
        prev_coverage: &[f64],
    ) -> Result<Matrix, PawsError> {
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
        let rows = dataset.full_feature_matrix(park, prev_coverage);
        validate_query(rows.view(), self.scaler.n_features())?;
        Ok(rows)
    }

    /// Assemble, validate, standardise and narrow a park's feature stack
    /// once, caching both precision planes for repeated queries.
    ///
    /// # Errors
    /// [`PawsError::Input`] / [`PawsError::Query`] exactly as
    /// [`ServingModel::try_risk_map`] would reject the same inputs.
    pub fn prepare_park(
        &self,
        park: &Park,
        dataset: &Dataset,
        prev_coverage: &[f64],
    ) -> Result<PreparedPark, PawsError> {
        let rows = self.checked_feature_matrix(park, dataset, prev_coverage)?;
        self.prepare_rows(rows)
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
        let rows32 = self.scaler.transform_planes_in_place(&mut rows);
        let shards = spatial_shards(rows.n_rows(), rows.n_cols());
        Ok(PreparedPark {
            rows,
            rows32,
            shards,
            tables: OnceLock::new(),
        })
    }

    fn check_prepared(&self, prepared: &PreparedPark) -> Result<(), PawsError> {
        if prepared.n_features() != self.scaler.n_features() {
            return Err(PawsError::Input(
                "prepared park feature width does not match the model",
            ));
        }
        Ok(())
    }

    /// [`ServingModel::risk_map`] on a prepared park: zero per-call
    /// standardise/narrow work. Bit-identical to the unprepared path on the
    /// same raw feature stack.
    ///
    /// An iWare model without a fused tree stack combines the park's
    /// cached learner tables, filling them on its first query (see the
    /// module docs). Otherwise, parks large enough to carry multiple
    /// spatial shards fan them across the worker pool and stitch the
    /// per-shard surfaces back in row order; every kernel is per-row, so
    /// the stitched map is bit-identical to the unsharded (and 1-thread)
    /// evaluation.
    pub fn risk_map_prepared(
        &self,
        prepared: &PreparedPark,
        effort_km: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        if let FittedModel::IWare(m) = &self.fitted {
            // Table-serving models combine the park's cached tables; the
            // combine is per row, so shards do not apply.
            let served = prepared
                .learner_tables(m)
                .and_then(|tables| m.combine_tables_at_effort(tables, effort_km));
            if let Some(out) = served {
                return out;
            }
        }
        let shards = prepared.shards();
        if shards.len() > 1 && rayon::current_num_threads() > 1 {
            let parts: Vec<(Vec<f64>, Vec<f64>)> = shards
                .par_iter()
                .map(|span| self.risk_map_prepared_span(prepared, span, effort_km))
                .collect();
            let mut p = Vec::with_capacity(prepared.n_cells());
            let mut v = Vec::with_capacity(prepared.n_cells());
            for (sp, sv) in parts {
                p.extend_from_slice(&sp);
                v.extend_from_slice(&sv);
            }
            return (p, v);
        }
        self.risk_map_prepared_span(prepared, &(0..prepared.n_cells()), effort_km)
    }

    /// One spatial shard of [`ServingModel::risk_map_prepared`]: the same
    /// precision dispatch, evaluated on subviews of the cached planes.
    fn risk_map_prepared_span(
        &self,
        prepared: &PreparedPark,
        span: &std::ops::Range<usize>,
        effort_km: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        // The `*32` entry points answer exactly when the model serves from
        // the f32 plane.
        match &self.fitted {
            FittedModel::IWare(m) => {
                match m.predict_with_variance_at_effort32(prepared.rows32_span(span), effort_km) {
                    Some(out) => out,
                    None => {
                        let efforts = vec![effort_km; span.len()];
                        m.predict_with_variance_at_effort(prepared.rows_span(span), &efforts)
                    }
                }
            }
            FittedModel::Plain(m) => match m.predict_with_variance32(prepared.rows32_span(span)) {
                Some(out) => out,
                None => m.predict_with_variance(prepared.rows_span(span)),
            },
        }
    }

    /// [`ServingModel::risk_map_prepared`] with the serving-side input
    /// guard (finite, non-negative effort; width-matched prepared stack).
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
        self.check_prepared(prepared)?;
        Ok(self.risk_map_prepared(prepared, effort_km))
    }

    /// [`ServingModel::park_response`] on a prepared park: the response
    /// surfaces are served straight off the cached plane matching the
    /// model's precision. Bit-identical to the unprepared path.
    ///
    /// Like [`ServingModel::risk_map_prepared`], table-serving models
    /// combine the park's cached learner tables, and otherwise multi-shard
    /// parks fan the shards across the worker pool; the per-shard response
    /// matrices are concatenated row-block by row-block, which is exactly
    /// the unsharded row order.
    pub fn park_response_prepared(
        &self,
        prepared: &PreparedPark,
        effort_grid: &[f64],
    ) -> (Matrix, Matrix) {
        if let FittedModel::IWare(m) = &self.fitted {
            let served = prepared
                .learner_tables(m)
                .and_then(|tables| m.combine_tables_response(tables, effort_grid));
            if let Some(out) = served {
                return out;
            }
        }
        let shards = prepared.shards();
        if shards.len() > 1 && rayon::current_num_threads() > 1 {
            let parts: Vec<(Matrix, Matrix)> = shards
                .par_iter()
                .map(|span| self.park_response_prepared_span(prepared, span, effort_grid))
                .collect();
            let n = prepared.n_cells() * effort_grid.len();
            let mut p_flat = Vec::with_capacity(n);
            let mut v_flat = Vec::with_capacity(n);
            for (sp, sv) in parts {
                p_flat.extend_from_slice(sp.as_slice());
                v_flat.extend_from_slice(sv.as_slice());
            }
            return (
                Matrix::from_flat(p_flat, effort_grid.len()),
                Matrix::from_flat(v_flat, effort_grid.len()),
            );
        }
        self.park_response_prepared_span(prepared, &(0..prepared.n_cells()), effort_grid)
    }

    /// One spatial shard of [`ServingModel::park_response_prepared`].
    fn park_response_prepared_span(
        &self,
        prepared: &PreparedPark,
        span: &std::ops::Range<usize>,
        effort_grid: &[f64],
    ) -> (Matrix, Matrix) {
        match &self.fitted {
            FittedModel::IWare(m) => {
                match m.effort_response32(prepared.rows32_span(span), effort_grid) {
                    Some(response) => response,
                    None => m.effort_response(prepared.rows_span(span), effort_grid),
                }
            }
            FittedModel::Plain(m) => {
                let (p, v) = match m.predict_with_variance32(prepared.rows32_span(span)) {
                    Some(out) => out,
                    None => m.predict_with_variance(prepared.rows_span(span)),
                };
                broadcast_constant_response(&p, &v, effort_grid.len())
            }
        }
    }

    /// [`ServingModel::park_response_prepared`] with the serving-side input
    /// guard (validated effort grid; width-matched prepared stack).
    pub fn try_park_response_prepared(
        &self,
        prepared: &PreparedPark,
        effort_grid: &[f64],
    ) -> Result<(Matrix, Matrix), PawsError> {
        validate_effort_grid(effort_grid).map_err(PawsError::Query)?;
        self.check_prepared(prepared)?;
        Ok(self.park_response_prepared(prepared, effort_grid))
    }

    /// Build a patrol-planning problem for one post from a prepared park:
    /// the response surfaces come off the cached planes (or, for GP iWare
    /// models, the park's cached learner tables), then flow through the
    /// same squash + game construction as
    /// [`crate::pipeline::build_planning_problem`].
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

    /// [`ServingModel::risk_map`] with the adversarial-input guard: the
    /// coverage vector, effort level and assembled feature stack are
    /// validated and rejected with a typed [`PawsError`] instead of
    /// flowing NaN through the arena comparisons. This is the serving
    /// entry point; the panicking sibling stays for trusted in-process
    /// callers.
    pub fn try_risk_map(
        &self,
        park: &Park,
        dataset: &Dataset,
        prev_coverage: &[f64],
        effort_km: f64,
    ) -> Result<(Vec<f64>, Vec<f64>), PawsError> {
        if !effort_km.is_finite() || effort_km < 0.0 {
            return Err(PawsError::Input(
                "effort level must be finite and non-negative",
            ));
        }
        let rows = self.checked_feature_matrix(park, dataset, prev_coverage)?;
        let efforts = vec![effort_km; rows.n_rows()];
        Ok(self.predict_with_variance(rows.view(), &efforts))
    }

    /// [`ServingModel::park_response`] with the adversarial-input guard
    /// (see [`ServingModel::try_risk_map`]); additionally validates the
    /// effort grid (non-empty, finite, non-negative levels).
    pub fn try_park_response(
        &self,
        park: &Park,
        dataset: &Dataset,
        prev_coverage: &[f64],
        effort_grid: &[f64],
    ) -> Result<(Matrix, Matrix), PawsError> {
        validate_effort_grid(effort_grid).map_err(PawsError::Query)?;
        let rows = self.checked_feature_matrix(park, dataset, prev_coverage)?;
        Ok(self.park_response_from(rows, effort_grid))
    }

    /// Predicted risk and uncertainty for every in-park cell at a single
    /// prospective patrol-effort level (one panel of Fig. 6).
    pub fn risk_map(
        &self,
        park: &Park,
        dataset: &Dataset,
        prev_coverage: &[f64],
        effort_km: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let rows = dataset.full_feature_matrix(park, prev_coverage);
        let efforts = vec![effort_km; rows.n_rows()];
        self.predict_with_variance(rows.view(), &efforts)
    }

    /// Response curves g_v(c), ν_v(c) for every in-park cell over a grid of
    /// prospective effort levels — the planner's input, as flat
    /// `cells × effort-levels` matrices.
    pub fn park_response(
        &self,
        park: &Park,
        dataset: &Dataset,
        prev_coverage: &[f64],
        effort_grid: &[f64],
    ) -> (Matrix, Matrix) {
        let rows = dataset.full_feature_matrix(park, prev_coverage);
        self.park_response_from(rows, effort_grid)
    }

    fn park_response_from(&self, mut rows: Matrix, effort_grid: &[f64]) -> (Matrix, Matrix) {
        // The f32-plane iWare path fuses standardisation and narrowing into
        // one pass (`StandardScaler::transform_f32` computes the z-score in
        // f64 and narrows once — bit-identical to transforming in place and
        // narrowing afterwards) and serves the fused arena natively.
        if let FittedModel::IWare(m) = &self.fitted {
            if m.precision() == Precision::F32 {
                let rows32 = self.scaler.transform_f32(rows.view());
                if let Some(response) = m.effort_response32(rows32.view(), effort_grid) {
                    return response;
                }
            }
        }
        self.scaler.transform_in_place(&mut rows);
        match &self.fitted {
            FittedModel::IWare(m) => m.effort_response(rows.view(), effort_grid),
            FittedModel::Plain(m) => {
                // A plain ensemble has no notion of prospective effort: its
                // prediction and variance are constant across effort levels.
                let (p, v) = m.predict_with_variance(rows.view());
                broadcast_constant_response(&p, &v, effort_grid.len())
            }
        }
    }
}

/// Build a patrol-planning problem from an **already computed** response
/// surface (e.g. one shared across a batch of same-park queries), with the
/// serving-side guards that [`PlanningProblem::from_response`] enforces by
/// panicking: the post must lie inside the park, the effort grid must be
/// finite and strictly ascending with ≥ 2 levels, the surfaces must cover
/// every cell with one column per level, and the patrol budget and β must
/// be sane. The raw variance surface is squashed here. (Response surfaces
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
    let (_, squashed) = squash_matrix(vars);
    Ok(PlanningProblem::from_response(
        park,
        post,
        effort_grid,
        probs,
        &squashed,
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
    use crate::pipeline::{build_planning_problem, train, TrainedModel};
    use crate::scenario::Scenario;
    use paws_data::{build_dataset, split_by_test_year, Discretization, TrainTestSplit};
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

    /// Tree ensembles (fused arena) and GP ensembles (learner tables).
    const LEARNERS: [WeakLearnerKind; 2] = [
        WeakLearnerKind::DecisionTree,
        WeakLearnerKind::GaussianProcess,
    ];

    /// Whether a fitted model serves prepared queries from learner tables.
    fn serves_from_tables(learner: WeakLearnerKind, use_iware: bool) -> bool {
        use_iware && learner == WeakLearnerKind::GaussianProcess
    }

    /// Every (learner, variant, plane) combination must serve the
    /// exact same bits off the cached planes — and, for GP iWare models,
    /// off the park's cached learner tables — as the unprepared per-call
    /// paths: on the first query, on repeated ones the cache answers, and
    /// at risk levels off the response grid.
    #[test]
    fn prepared_queries_are_bit_identical_to_unprepared_ones() {
        let (scenario, dataset, split) = small_setup();
        let park = &scenario.park;
        let prev = dataset.coverage.last().unwrap().clone();
        let grid = [0.0, 0.5, 1.0, 2.0];
        for learner in LEARNERS {
            for use_iware in [true, false] {
                let mut model = train(&dataset, &split, &quick_config(learner, use_iware));
                for precision in [Precision::F64, Precision::F32] {
                    model.set_precision(precision).unwrap();
                    let case = format!("{learner:?} {use_iware} {precision:?}");
                    let prepared = model.prepare_park(park, &dataset, &prev).unwrap();
                    assert_eq!(prepared.n_cells(), park.n_cells());
                    assert_eq!(prepared.n_features(), model.n_features());
                    assert!(prepared.tables.get().is_none(), "filled lazily: {case}");

                    let levels = [1.0, 3.0, 0.25, 100.0];
                    let risk_refs: Vec<_> = levels
                        .iter()
                        .map(|&level| model.risk_map(park, &dataset, &prev, level))
                        .collect();
                    let (p_ref, v_ref) = model.park_response(park, &dataset, &prev, &grid);
                    for _ in 0..2 {
                        for (&level, (r_ref, u_ref)) in levels.iter().zip(&risk_refs) {
                            let (r, u) = model.risk_map_prepared(&prepared, level);
                            assert_eq!(&r, r_ref, "risk {case} @{level}");
                            assert_eq!(&u, u_ref, "uncertainty {case} @{level}");
                            let (rt, ut) = model.try_risk_map_prepared(&prepared, level).unwrap();
                            assert_eq!(&rt, r_ref);
                            assert_eq!(&ut, u_ref);
                        }

                        let (p, v) = model.park_response_prepared(&prepared, &grid);
                        assert_eq!(p.as_slice(), p_ref.as_slice(), "response {case}");
                        assert_eq!(v.as_slice(), v_ref.as_slice(), "variance {case}");
                        let (pt, vt) = model.try_park_response_prepared(&prepared, &grid).unwrap();
                        assert_eq!(pt.as_slice(), p_ref.as_slice());
                        assert_eq!(vt.as_slice(), v_ref.as_slice());
                    }
                    assert_eq!(
                        prepared.tables.get().is_some(),
                        serves_from_tables(learner, use_iware),
                        "only GP iWare models fill the tables: {case}"
                    );
                }
            }
        }
    }

    /// Tables are bound to the model that computed them: a second GP model
    /// querying a park the first one filled answers its own unprepared
    /// bits, and the first keeps answering from its tables.
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
        // and the second model's unprepared answers are comparable.
        let own = second.prepare_park(park, &dataset, &prev).unwrap();
        assert_eq!(own.rows.as_slice(), prepared.rows.as_slice());

        let (r1, u1) = first.risk_map_prepared(&prepared, 1.0);
        let tables = prepared.tables.get().expect("the first GP query fills");
        let (FittedModel::IWare(m1), FittedModel::IWare(m2)) = (&first.fitted, &second.fitted)
        else {
            panic!("both models are iWare ensembles");
        };
        assert!(m1.combine_tables_at_effort(tables, 1.0).is_some());
        assert!(m2.combine_tables_at_effort(tables, 1.0).is_none());
        assert!(m2.combine_tables_response(tables, &grid).is_none());

        for level in [1.0, 3.0] {
            let (r_ref, u_ref) = second.risk_map(park, &dataset, &prev, level);
            let (r, u) = second.risk_map_prepared(&prepared, level);
            assert_eq!(r, r_ref, "second model's risk @{level}");
            assert_eq!(u, u_ref, "second model's uncertainty @{level}");
        }
        let (r2, _) = second.risk_map_prepared(&prepared, 1.0);
        assert_ne!(r2, r1, "a differently bagged model must not echo the cache");
        let (p_ref, v_ref) = second.park_response(park, &dataset, &prev, &grid);
        let (p, v) = second.park_response_prepared(&prepared, &grid);
        assert_eq!(p.as_slice(), p_ref.as_slice());
        assert_eq!(v.as_slice(), v_ref.as_slice());
        let reference =
            build_planning_problem(park, &second, &dataset, &prev, post, &grid, 8.0, 2, 0.8);
        let problem = second
            .try_planning_problem_prepared(park, &prepared, post, &grid, 8.0, 2, 0.8)
            .unwrap();
        let config = paws_plan::PlannerConfig::default();
        assert_eq!(
            paws_plan::plan(&problem, &config).coverage,
            paws_plan::plan(&reference, &config).coverage
        );

        let (r, u) = first.risk_map_prepared(&prepared, 1.0);
        assert_eq!((r.as_slice(), u.as_slice()), (r1.as_slice(), u1.as_slice()));
        assert_eq!(r, first.risk_map(park, &dataset, &prev, 1.0).0);
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

    /// The shard fan-out must stitch the exact bits the unsharded span
    /// produces, for every (learner, variant, precision) triple and
    /// regardless of where the shard boundaries fall — each kernel is
    /// per-row. GP iWare models serve from learner tables and skip the
    /// fan-out; they must give the same bits whether they fill the tables
    /// under a forced worker count or, finding another model's tables in
    /// the park, fan the shards out themselves.
    #[test]
    fn sharded_fan_out_is_bit_identical_to_the_single_span() {
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
                    let prepared = model.prepare_park(park, &dataset, &prev).unwrap();
                    assert_eq!(
                        prepared.shards().len(),
                        1,
                        "the test park is far below the tiling threshold"
                    );
                    assert_eq!(prepared.shards()[0], 0..park.n_cells());
                    // Force a deliberately uneven many-shard tiling of the
                    // same planes; parity must hold anyway because every
                    // kernel result depends only on its own row.
                    let mut shards = Vec::new();
                    let mut start = 0;
                    while start < park.n_cells() {
                        let end = (start + 7).min(park.n_cells());
                        shards.push(start..end);
                        start = end;
                    }
                    let sharded = |tables: Option<LearnerTables>| {
                        let park = PreparedPark {
                            rows: prepared.rows.clone(),
                            rows32: prepared.rows32.clone(),
                            shards: shards.clone(),
                            tables: OnceLock::new(),
                        };
                        if let Some(tables) = tables {
                            assert!(park.tables.set(tables).is_ok());
                        }
                        park
                    };

                    let (r_ref, u_ref) = model.risk_map_prepared(&prepared, 1.0);
                    let (p_ref, v_ref) = model.park_response_prepared(&prepared, &grid);
                    for forced in [1usize, 2, 4] {
                        let case = format!("{learner:?} {use_iware} {precision:?} x{forced}");
                        let foreign = other.learner_tables(prepared.rows.view());
                        for park in [sharded(None), sharded(foreign)] {
                            rayon::with_num_threads(forced, || {
                                let (r, u) = model.risk_map_prepared(&park, 1.0);
                                assert_eq!(r, r_ref, "risk {case}");
                                assert_eq!(u, u_ref, "var {case}");
                                let (p, v) = model.park_response_prepared(&park, &grid);
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
    fn prepared_planning_problem_matches_the_unprepared_construction() {
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
        let reference =
            build_planning_problem(park, &model, &dataset, &prev, post, &grid, 8.0, 2, 0.8);
        let prepared = model.prepare_park(park, &dataset, &prev).unwrap();
        let problem = model
            .try_planning_problem_prepared(park, &prepared, post, &grid, 8.0, 2, 0.8)
            .unwrap();
        assert_eq!(problem.n_cells(), reference.n_cells());
        assert_eq!(problem.beta, reference.beta);
        let reference_plan = paws_plan::plan(&reference, &paws_plan::PlannerConfig::default());
        let plan = paws_plan::plan(&problem, &paws_plan::PlannerConfig::default());
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

        let (probs, vars) = model.park_response_prepared(&prepared, &[0.0, 1.0]);
        let (_, vars3) = model.park_response_prepared(&prepared, &[0.0, 1.0, 2.0]);
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

        // prepare_park applies the same input guards as try_risk_map.
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
        assert!(matches!(
            model.try_park_response_prepared(&prepared, &[0.5, f64::NAN]),
            Err(PawsError::Query(_))
        ));

        // A prepared stack whose feature width does not match the model's
        // scaler is refused before it can reach the kernels.
        let foreign = PreparedPark {
            rows: Matrix::zeros(4, model.n_features() + 1),
            rows32: Matrix32::zeros(4, model.n_features() + 1),
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
        let (r_ref, u_ref) = model.risk_map(park, &dataset, &prev, 1.0);
        let (r, u) = rehydrated.risk_map(park, &dataset, &prev, 1.0);
        assert_eq!(r, r_ref);
        assert_eq!(u, u_ref);
        let prepared = rehydrated.prepare_park(park, &dataset, &prev).unwrap();
        let (p_ref, v_ref) = model.park_response(park, &dataset, &prev, &grid);
        let (p, v) = rehydrated.park_response_prepared(&prepared, &grid);
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
            let (r_ref, u_ref) = model.risk_map(park, &dataset, &prev, 1.0);
            let (p_ref, v_ref) = model.park_response(park, &dataset, &prev, &grid);
            let reference = Arc::new((r_ref, u_ref, p_ref, v_ref));

            // Facade → artifact → Arc: the shared artifact serves the same
            // bits from plain `&self`, concurrently. Four threads race the
            // first query on one fresh prepared park (for the GP model, the
            // table fill), half for risk maps and half for response
            // surfaces.
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
                            let (r, u) = artifact.risk_map_prepared(&prepared, 1.0);
                            assert_eq!(&r, r_ref, "risk, thread {t}");
                            assert_eq!(&u, u_ref, "uncertainty, thread {t}");
                        } else {
                            let (p, v) = artifact.park_response_prepared(&prepared, &grid);
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
            assert_eq!(
                prepared.tables.get().is_some(),
                serves_from_tables(learner, true)
            );

            // And back into the facade for fit-time callers.
            let artifact = Arc::try_unwrap(artifact).ok().expect("sole owner again");
            let model = TrainedModel::from_serving(artifact);
            let (r, _) = model.risk_map(park, &dataset, &prev, 1.0);
            assert_eq!(r, reference.0);
        }
    }
}
