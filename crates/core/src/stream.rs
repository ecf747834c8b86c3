//! Streaming patrol-log ingest: the warm incremental-refit driver over the
//! staged fit pipeline.
//!
//! The paper's deployment ingests SMART patrol logs continuously and
//! retrains PAWS between patrol cycles. [`StreamingFit`] is that loop's
//! fit half: it owns the append-only raw training rows seen so far and,
//! per ingested batch, decides between
//!
//! * a **cold** refit — refit the scaler on every raw row, re-standardise,
//!   and run the full staged [`IWareModel::fit_cached`] pipeline. This is
//!   byte-for-byte the one-shot fit on the concatenated batches, because
//!   the raw matrix is extended in place (never rebuilt) and the scaler /
//!   learner fits see identical inputs; and
//! * a **warm** refit — freeze the serving scaler, standardise only the
//!   appended rows, and hand the grown batch to
//!   [`IWareModel::warm_refit`], which keeps learners whose
//!   effort-filtered subsets moved at most [`StreamConfig::tolerance`],
//!   refits the rest with their cold seeds, and re-solves the CV weights
//!   from cached out-of-fold member predictions.
//!
//! **Parity contract**: with `tolerance = 0` every batch takes the cold
//! path, so streaming over k batches is bit-identical to one fit on the
//! concatenation (pinned by `tests/stream_parity.rs`). With a positive
//! tolerance the divergence is bounded and observable: kept learners saw
//! subsets at most `tolerance`-stale, the frozen scaler's drift is capped
//! by [`StreamConfig::scaler_drift`] (beyond it the driver escalates to a
//! cold refit), and every [`BatchReport`] says which path ran.

use crate::config::{ModelConfig, WeakLearnerKind};
use crate::error::PawsError;
use crate::pipeline::fit_variant;
use crate::serving::{FittedModel, ServingModel};
use paws_data::{Matrix, MatrixView, StandardScaler};
use paws_iware::{FitCache, IWareModel, Precision, RefitStats};
use paws_ml::forest32::check_width;

/// Knobs of the streaming driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Leading batches that always take the cold path, letting thresholds
    /// and subsets stabilise before warm refits are trusted.
    pub warmup_batches: usize,
    /// Per-learner relative subset-drift budget of the warm path (see
    /// [`IWareModel::warm_refit`]). `0.0` disables warm refits entirely
    /// and pins streamed fits to one-shot parity.
    pub tolerance: f64,
    /// Relative drift between the frozen serving scaler and the streamed
    /// moment estimate (means in frozen-std units, std ratios) beyond
    /// which the driver escalates to a cold refit.
    pub scaler_drift: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            warmup_batches: 1,
            tolerance: 0.05,
            scaler_drift: 0.25,
        }
    }
}

impl StreamConfig {
    /// Strict-parity configuration: every batch forces the full cold
    /// refit, making the streamed model bit-identical to the one-shot fit.
    pub fn strict() -> Self {
        Self {
            warmup_batches: 0,
            tolerance: 0.0,
            scaler_drift: 0.0,
        }
    }
}

/// Why an ingest took the cold full-refit path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdReason {
    /// `tolerance = 0` pins every batch to one-shot parity.
    ZeroTolerance,
    /// Still within [`StreamConfig::warmup_batches`].
    Warmup,
    /// The configured learner is a plain bagging ensemble, which has no
    /// staged pipeline to refit warmly.
    PlainLearner,
    /// No fit cache exists yet (first batch, or the previous cold fit was
    /// not an iWare ensemble).
    NoCache,
    /// Streamed scaler moments drifted beyond
    /// [`StreamConfig::scaler_drift`] of the frozen serving scaler.
    ScalerDrift,
}

/// Which refit path one ingested batch took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefitPath {
    /// Full staged refit: scaler + every learner + full CV solve.
    Cold(ColdReason),
    /// Warm refit driven by the fit cache.
    Warm(RefitStats),
}

/// Per-batch outcome of [`StreamingFit::ingest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchReport {
    /// 1-based index of the ingested batch.
    pub batch: usize,
    /// Rows this batch appended.
    pub appended: usize,
    /// Training rows resident after this batch.
    pub total_rows: usize,
    /// Which refit path ran.
    pub path: RefitPath,
}

/// One pre-extracted training batch for [`fit_stream`].
#[derive(Debug, Clone)]
pub struct StreamBatch {
    /// Raw (unstandardised) feature rows.
    pub rows: Matrix,
    /// Binary labels, one per row.
    pub labels: Vec<f64>,
    /// Patrol efforts, one per row.
    pub efforts: Vec<f64>,
}

/// The streaming fit driver: append-only training state plus the fit
/// cache, producing a fresh immutable [`ServingModel`] per ingested batch.
pub struct StreamingFit {
    config: ModelConfig,
    stream: StreamConfig,
    raw: Option<Matrix>,
    scaled: Option<Matrix>,
    labels: Vec<f64>,
    efforts: Vec<f64>,
    /// The serving scaler frozen at the last cold refit.
    scaler: Option<StandardScaler>,
    /// Streamed moment estimate (partial-fit over every batch since the
    /// last cold refit) — the drift detector, never the serving scaler.
    moments: Option<StandardScaler>,
    cache: Option<FitCache>,
    batches_seen: usize,
}

impl StreamingFit {
    /// A driver with no resident rows yet.
    pub fn new(config: ModelConfig, stream: StreamConfig) -> Self {
        Self {
            config,
            stream,
            raw: None,
            scaled: None,
            labels: Vec::new(),
            efforts: Vec::new(),
            scaler: None,
            moments: None,
            cache: None,
            batches_seen: 0,
        }
    }

    /// Training rows resident in the driver.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// Batches ingested so far.
    pub fn batches_seen(&self) -> usize {
        self.batches_seen
    }

    /// The model configuration every produced artifact carries.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The streaming knobs.
    pub fn stream_config(&self) -> &StreamConfig {
        &self.stream
    }

    /// Ingest one batch of raw training rows and produce the refreshed
    /// serving artifact plus a report of which refit path ran.
    ///
    /// # Errors
    /// Typed [`PawsError::Input`]s for a model configuration the fit
    /// cannot run (no iWare-E learners, no bagging members, a GP with no
    /// training points) and for empty/mismatched/non-finite batches;
    /// [`PawsError::Narrow`] when the configured f32 plane cannot hold the
    /// refreshed arena. An error leaves every resident row, cache and
    /// count as it was, with one exception: a tree learner on the f32
    /// plane is refused a batch wider than the plane's 256-feature cap up
    /// front, but an arena past its 2²⁴-node cap shows only after the batch
    /// is appended and refit.
    pub fn ingest(
        &mut self,
        rows: MatrixView<'_>,
        labels: &[f64],
        efforts: &[f64],
    ) -> Result<(ServingModel, BatchReport), PawsError> {
        if self.config.use_iware && self.config.n_learners == 0 {
            return Err(PawsError::Input("iWare-E needs at least one learner"));
        }
        if self.config.n_estimators == 0 {
            return Err(PawsError::Input(
                "bagging needs at least one ensemble member",
            ));
        }
        if self.config.learner == WeakLearnerKind::GaussianProcess && self.config.gp_max_points == 0
        {
            return Err(PawsError::Input(
                "GP learners need at least one training point",
            ));
        }
        if rows.n_rows() == 0 {
            return Err(PawsError::Input("empty patrol-log batch"));
        }
        if rows.n_rows() != labels.len() || rows.n_rows() != efforts.len() {
            return Err(PawsError::Input("rows/labels/efforts length mismatch"));
        }
        if let Some(raw) = &self.raw {
            if raw.n_cols() != rows.n_cols() {
                return Err(PawsError::Input("batch feature width mismatch"));
            }
        }
        // Only tree learners have an f32 plane; refuse a width it cannot
        // serve before the batch is appended.
        if self.config.precision == Precision::F32
            && self.config.learner == WeakLearnerKind::DecisionTree
        {
            check_width(rows.n_cols())?;
        }
        if rows.as_slice().iter().any(|v| !v.is_finite())
            || labels.iter().any(|y| !y.is_finite())
            || efforts.iter().any(|e| !e.is_finite())
        {
            return Err(PawsError::Input("non-finite value in patrol-log batch"));
        }

        let raw = self.raw.get_or_insert_with(|| Matrix::new(rows.n_cols()));
        raw.extend_rows(rows);
        self.labels.extend_from_slice(labels);
        self.efforts.extend_from_slice(efforts);
        self.batches_seen += 1;

        // Fold the batch into the streamed moment estimate and check it
        // against the frozen serving scaler.
        let drifted = match (&mut self.moments, &self.scaler) {
            (Some(moments), Some(frozen)) => {
                moments.partial_fit(rows);
                scaler_drifted(frozen, moments, self.stream.scaler_drift)
            }
            _ => false,
        };

        let cold_reason = if self.stream.tolerance <= 0.0 {
            Some(ColdReason::ZeroTolerance)
        } else if self.batches_seen <= self.stream.warmup_batches {
            Some(ColdReason::Warmup)
        } else if !self.config.use_iware {
            Some(ColdReason::PlainLearner)
        } else if self.cache.is_none() {
            Some(ColdReason::NoCache)
        } else if drifted {
            Some(ColdReason::ScalerDrift)
        } else {
            None
        };

        let (fitted, path) = match cold_reason {
            Some(reason) => {
                // Cold: refit the scaler on every raw row and run the full
                // staged pipeline — bit-identical to a one-shot fit on the
                // concatenated batches.
                let scaler = StandardScaler::fit(raw.view());
                let mut scaled = raw.clone();
                scaler.transform_in_place(&mut scaled);
                let (fitted, cache) =
                    fit_variant(&self.config, scaled.view(), &self.labels, &self.efforts);
                self.cache = cache;
                self.moments = Some(scaler.clone());
                self.scaler = Some(scaler);
                self.scaled = Some(scaled);
                (fitted, RefitPath::Cold(reason))
            }
            None => {
                // Warm: the serving scaler is frozen — only the appended
                // rows are standardised — and the fit cache drives the
                // keep / refit / resolve staging.
                let (Some(scaler), Some(scaled), Some(cache)) =
                    (&self.scaler, &mut self.scaled, &mut self.cache)
                else {
                    return Err(PawsError::Input("streaming driver lost its cold-fit state"));
                };
                let mut new_scaled = rows.to_matrix();
                scaler.transform_in_place(&mut new_scaled);
                scaled.extend_rows(new_scaled.view());
                let (model, stats) = IWareModel::warm_refit(
                    &self.config.iware_config(),
                    cache,
                    scaled.view(),
                    &self.labels,
                    &self.efforts,
                    self.stream.tolerance,
                );
                (FittedModel::IWare(model), RefitPath::Warm(stats))
            }
        };

        let Some(scaler) = self.scaler.clone() else {
            return Err(PawsError::Input("streaming driver lost its cold-fit state"));
        };
        let serving = ServingModel::assemble(self.config.clone(), scaler, fitted)?;
        let report = BatchReport {
            batch: self.batches_seen,
            appended: rows.n_rows(),
            total_rows: self.labels.len(),
            path,
        };
        Ok((serving, report))
    }
}

/// Drive a whole pre-chunked stream through a fresh [`StreamingFit`],
/// returning the final serving artifact and every per-batch report.
///
/// # Errors
/// Propagates the first [`StreamingFit::ingest`] error; an empty batch
/// list is a typed input error.
pub fn fit_stream(
    config: &ModelConfig,
    batches: &[StreamBatch],
    stream: &StreamConfig,
) -> Result<(ServingModel, Vec<BatchReport>), PawsError> {
    let mut driver = StreamingFit::new(config.clone(), *stream);
    let mut reports = Vec::with_capacity(batches.len());
    let mut model = None;
    for batch in batches {
        let (m, report) = driver.ingest(batch.rows.view(), &batch.labels, &batch.efforts)?;
        reports.push(report);
        model = Some(m);
    }
    match model {
        Some(m) => Ok((m, reports)),
        None => Err(PawsError::Input("no batches to stream")),
    }
}

/// Whether the streamed moment estimate drifted beyond `budget` of the
/// frozen scaler: per column, mean shift in frozen-std units or relative
/// std change.
fn scaler_drifted(frozen: &StandardScaler, streamed: &StandardScaler, budget: f64) -> bool {
    frozen
        .means()
        .iter()
        .zip(streamed.means())
        .zip(frozen.stds().iter().zip(streamed.stds()))
        .any(|((fm, sm), (fs, ss))| (sm - fm).abs() / fs > budget || (ss / fs - 1.0).abs() > budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WeakLearnerKind;
    use paws_ml::forest32::NarrowError;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn synth_batch(n: usize, seed: u64) -> StreamBatch {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows = Matrix::new(3);
        let mut labels = Vec::with_capacity(n);
        let mut efforts = Vec::with_capacity(n);
        for _ in 0..n {
            let x0: f64 = rng.gen_range(-1.0..1.0);
            let x1: f64 = rng.gen_range(-1.0..1.0);
            let effort: f64 = rng.gen_range(0.05..4.0);
            rows.push_row(&[x0, x1, effort * 0.5]);
            let p = 1.0 / (1.0 + (-(1.5 * x0 - x1)).exp());
            let attacked = rng.gen::<f64>() < p;
            let seen = attacked && rng.gen::<f64>() < 1.0 - (-effort).exp();
            labels.push(if seen { 1.0 } else { 0.0 });
            efforts.push(effort);
        }
        StreamBatch {
            rows,
            labels,
            efforts,
        }
    }

    fn quick_config() -> ModelConfig {
        let mut config = ModelConfig::new(WeakLearnerKind::DecisionTree, true, 5);
        config.n_learners = 4;
        config.n_estimators = 4;
        config
    }

    #[test]
    fn warmup_then_warm_path() {
        let config = quick_config();
        let stream = StreamConfig {
            warmup_batches: 1,
            tolerance: 0.5,
            scaler_drift: 10.0,
        };
        let mut driver = StreamingFit::new(config, stream);
        let b1 = synth_batch(220, 1);
        let b2 = synth_batch(20, 2);
        let (_, r1) = driver
            .ingest(b1.rows.view(), &b1.labels, &b1.efforts)
            .expect("first batch fits");
        assert_eq!(r1.path, RefitPath::Cold(ColdReason::Warmup));
        assert_eq!(r1.total_rows, 220);
        let (_, r2) = driver
            .ingest(b2.rows.view(), &b2.labels, &b2.efforts)
            .expect("second batch fits");
        assert!(
            matches!(r2.path, RefitPath::Warm(stats) if stats.learners_kept > 0),
            "expected a warm refit, got {:?}",
            r2.path
        );
        assert_eq!(r2.total_rows, 240);
        assert_eq!(driver.batches_seen(), 2);
    }

    #[test]
    fn zero_tolerance_always_runs_cold() {
        let config = quick_config();
        let mut driver = StreamingFit::new(config, StreamConfig::strict());
        for seed in 0..3 {
            let b = synth_batch(120, seed);
            let (_, report) = driver
                .ingest(b.rows.view(), &b.labels, &b.efforts)
                .expect("batch fits");
            assert_eq!(report.path, RefitPath::Cold(ColdReason::ZeroTolerance));
        }
    }

    #[test]
    fn plain_learner_always_runs_cold() {
        let mut config = quick_config();
        config.use_iware = false;
        let stream = StreamConfig {
            warmup_batches: 0,
            ..StreamConfig::default()
        };
        let mut driver = StreamingFit::new(config, stream);
        let b1 = synth_batch(150, 4);
        let (_, r1) = driver
            .ingest(b1.rows.view(), &b1.labels, &b1.efforts)
            .expect("plain batch fits");
        assert_eq!(r1.path, RefitPath::Cold(ColdReason::PlainLearner));
    }

    #[test]
    fn scaler_drift_escalates_to_cold() {
        let config = quick_config();
        let stream = StreamConfig {
            warmup_batches: 1,
            tolerance: 0.5,
            scaler_drift: 0.05,
        };
        let mut driver = StreamingFit::new(config, stream);
        let b1 = synth_batch(220, 5);
        driver
            .ingest(b1.rows.view(), &b1.labels, &b1.efforts)
            .expect("first batch fits");
        // A shifted batch of comparable size blows the 5% drift budget.
        let mut b2 = synth_batch(220, 6);
        for row in b2.rows.as_mut_slice().chunks_exact_mut(3) {
            row[0] += 25.0;
        }
        let (_, r2) = driver
            .ingest(b2.rows.view(), &b2.labels, &b2.efforts)
            .expect("shifted batch fits");
        assert_eq!(r2.path, RefitPath::Cold(ColdReason::ScalerDrift));
    }

    #[test]
    fn bad_batches_are_typed_errors_and_leave_state_unchanged() {
        let config = quick_config();
        let mut driver = StreamingFit::new(config, StreamConfig::default());
        let b = synth_batch(100, 7);
        driver
            .ingest(b.rows.view(), &b.labels, &b.efforts)
            .expect("good batch fits");
        let n = driver.n_rows();

        let empty = Matrix::new(3);
        assert!(matches!(
            driver.ingest(empty.view(), &[], &[]),
            Err(PawsError::Input(_))
        ));
        let wrong_width = Matrix::from_rows(&[vec![1.0, 2.0]]);
        assert!(matches!(
            driver.ingest(wrong_width.view(), &[1.0], &[1.0]),
            Err(PawsError::Input(_))
        ));
        let nan = Matrix::from_rows(&[vec![1.0, f64::NAN, 0.0]]);
        assert!(matches!(
            driver.ingest(nan.view(), &[1.0], &[1.0]),
            Err(PawsError::Input(_))
        ));
        let short = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        assert!(matches!(
            driver.ingest(short.view(), &[1.0, 0.0], &[1.0]),
            Err(PawsError::Input(_))
        ));
        assert_eq!(driver.n_rows(), n, "failed ingests must not mutate state");
        assert_eq!(driver.batches_seen(), 1);

        // A tree learner on the f32 plane refuses a batch wider than the
        // plane's 256-feature cap before appending or fitting it.
        let mut f32_stream = StreamingFit::new(
            ModelConfig {
                precision: Precision::F32,
                ..quick_config()
            },
            StreamConfig::default(),
        );
        let wide = Matrix::from_flat(vec![0.5; 120 * 300], 300);
        let labels: Vec<f64> = (0..120).map(|i| f64::from(i % 2)).collect();
        assert_eq!(
            f32_stream.ingest(wide.view(), &labels, &[1.0; 120]).err(),
            Some(PawsError::Narrow(NarrowError::TooManyFeatures {
                n_features: 300,
                max: 256
            }))
        );
        assert_eq!(f32_stream.n_rows(), 0);
        assert_eq!(f32_stream.batches_seen(), 0);
    }

    #[test]
    fn fit_stream_reports_every_batch() {
        let config = quick_config();
        let batches: Vec<StreamBatch> = (0..3).map(|s| synth_batch(140, 10 + s)).collect();
        let (model, reports) =
            fit_stream(&config, &batches, &StreamConfig::default()).expect("stream fits");
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[2].total_rows, 420);
        assert_eq!(model.n_features(), 3);
        assert!(fit_stream(&config, &[], &StreamConfig::default()).is_err());
    }
}
