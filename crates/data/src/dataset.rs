//! Assembly of the predictive-modelling dataset.
//!
//! Sec. III-B: the dataset D = (X, y) discretises the records into T time
//! steps and N locations. Each feature vector x_{t,n} contains the static
//! geospatial features of the cell plus one dynamic covariate — the patrol
//! coverage of the *previous* time step c_{t−1,n} (the deterrence signal) —
//! and the label y_{t,n} says whether any poaching was detected in the cell
//! during step t. Only patrolled (cell, step) pairs become data points
//! (unpatrolled cells carry no observation at all), which is what produces
//! the point counts of Table I.
//!
//! Feature rows live in one contiguous row-major [`Matrix`] (row i ↔
//! `points[i]`); training subsets are taken by index with
//! [`Matrix::gather`], never by cloning rows.

use crate::discretize::{Discretization, StepInfo};
use crate::matrix::Matrix;
use crate::trajectory::reconstruct_effort;
use paws_geo::Park;
use paws_sim::History;

/// Typed rejection of a streaming append — the dataset is left untouched
/// whenever one of these is returned.
#[derive(Debug, Clone, PartialEq)]
pub enum AppendError {
    /// Appended feature rows have the wrong width.
    WrongWidth {
        /// Feature width of the dataset.
        expected: usize,
        /// Width of the rejected batch.
        got: usize,
    },
    /// An appended feature row or point carries a non-finite value.
    NonFinite {
        /// Index of the offending row within the rejected batch.
        row: usize,
    },
    /// Rows and point metadata disagree in length.
    LengthMismatch {
        /// Number of appended feature rows.
        rows: usize,
        /// Number of appended points.
        points: usize,
    },
    /// A point references a cell outside the park grid.
    CellOutOfRange {
        /// The offending in-park cell index.
        cell_idx: usize,
        /// Number of in-park cells.
        n_cells: usize,
    },
    /// The appended history chunk does not match the dataset's park.
    ParkMismatch,
    /// An appended month lands in a time step whose points were already
    /// emitted — patrol-log batches must arrive in chronological order and
    /// aligned on step boundaries, or earlier feature rows would silently
    /// go stale.
    OutOfOrderStep {
        /// Calendar year of the rejected month.
        year: u32,
        /// Month of the rejected month (1–12).
        month: u32,
    },
}

impl std::fmt::Display for AppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppendError::WrongWidth { expected, got } => {
                write!(
                    f,
                    "appended rows are {got} wide, dataset has {expected} features"
                )
            }
            AppendError::NonFinite { row } => {
                write!(f, "appended row {row} carries a non-finite value")
            }
            AppendError::LengthMismatch { rows, points } => {
                write!(f, "{rows} appended rows but {points} appended points")
            }
            AppendError::CellOutOfRange { cell_idx, n_cells } => {
                write!(f, "appended point references cell {cell_idx} of {n_cells}")
            }
            AppendError::ParkMismatch => {
                write!(f, "appended history does not match the dataset's park")
            }
            AppendError::OutOfOrderStep { year, month } => {
                write!(
                    f,
                    "month {year}-{month:02} falls in an already-emitted time step; \
                     batches must be chronological and step-aligned"
                )
            }
        }
    }
}

impl std::error::Error for AppendError {}

/// One (cell, time-step) observation. The feature vector of point `i` is
/// row `i` of [`Dataset::features`].
#[derive(Debug, Clone, PartialEq)]
pub struct DataPoint {
    /// Chronological time-step index within the dataset.
    pub step: usize,
    /// In-park cell index (`Park::cells` order).
    pub cell_idx: usize,
    /// Patrol effort (km) reconstructed for this cell during this step —
    /// the quantity iWare-E thresholds filter on.
    pub current_effort: f64,
    /// Whether poaching activity was detected in the cell during the step.
    pub label: bool,
    /// Calendar year of the step (used for train/test splits).
    pub year: u32,
}

/// The assembled dataset for one park and one discretisation scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Park name the dataset was built from.
    pub park_name: String,
    /// Names of the feature columns, in order.
    pub feature_names: Vec<String>,
    /// All (cell, step) data points with non-zero patrol effort.
    pub points: Vec<DataPoint>,
    /// Feature matrix: row `i` holds the features of `points[i]` (static
    /// features followed by previous-step coverage).
    pub features: Matrix,
    /// Number of in-park cells.
    pub n_cells: usize,
    /// Step metadata in chronological order.
    pub steps: Vec<StepInfo>,
    /// Reconstructed patrol coverage per step and cell (`coverage[step][cell]`).
    pub coverage: Vec<Vec<f64>>,
    /// Detected-poaching indicator per step and cell.
    pub detections: Vec<Vec<bool>>,
    /// Discretisation used to build the dataset.
    pub discretization: Discretization,
}

impl Dataset {
    /// Number of feature columns (static features + previous coverage).
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Number of data points.
    pub fn n_points(&self) -> usize {
        self.points.len()
    }

    /// Number of positively-labelled points.
    pub fn n_positive(&self) -> usize {
        self.points.iter().filter(|p| p.label).count()
    }

    /// Feature vector of one point.
    pub fn features_of(&self, point_idx: usize) -> &[f64] {
        self.features.row(point_idx)
    }

    /// Feature rows of a set of points (by index into `points`), gathered
    /// into one contiguous matrix.
    pub fn feature_rows(&self, idx: &[usize]) -> Matrix {
        self.features.gather(idx)
    }

    /// Labels (1.0 / 0.0) of a set of points.
    pub fn labels(&self, idx: &[usize]) -> Vec<f64> {
        idx.iter()
            .map(|&i| if self.points[i].label { 1.0 } else { 0.0 })
            .collect()
    }

    /// Current patrol effort of a set of points.
    pub fn efforts(&self, idx: &[usize]) -> Vec<f64> {
        idx.iter().map(|&i| self.points[i].current_effort).collect()
    }

    /// The coverage map of the last step of a given year, used as the
    /// "previous coverage" covariate when predicting the following period.
    pub fn last_coverage_of_year(&self, year: u32) -> Option<&[f64]> {
        self.steps
            .iter()
            .enumerate()
            .filter(|(_, s)| s.year == year)
            .map(|(i, _)| i)
            .next_back()
            .map(|i| self.coverage[i].as_slice())
    }

    /// Append pre-built feature rows and their point metadata in place —
    /// the low-level streaming primitive under
    /// [`Dataset::append_observations`]. All validation happens before any
    /// mutation: on `Err` the dataset is bit-for-bit unchanged. On success
    /// the flat feature [`Matrix`] is extended (never rebuilt), so a
    /// dataset grown by appends is byte-identical to one built in a single
    /// pass over the same rows.
    ///
    /// # Errors
    /// Typed [`AppendError`]s for wrong-width batches, non-finite feature
    /// or effort values, row/point length mismatches and out-of-range cell
    /// indices.
    pub fn append_rows(
        &mut self,
        rows: crate::matrix::MatrixView<'_>,
        points: &[DataPoint],
    ) -> Result<usize, AppendError> {
        if rows.n_cols() != self.n_features() {
            return Err(AppendError::WrongWidth {
                expected: self.n_features(),
                got: rows.n_cols(),
            });
        }
        if rows.n_rows() != points.len() {
            return Err(AppendError::LengthMismatch {
                rows: rows.n_rows(),
                points: points.len(),
            });
        }
        for (r, row) in rows.rows().enumerate() {
            if row.iter().any(|v| !v.is_finite()) || !points[r].current_effort.is_finite() {
                return Err(AppendError::NonFinite { row: r });
            }
        }
        for p in points {
            if p.cell_idx >= self.n_cells {
                return Err(AppendError::CellOutOfRange {
                    cell_idx: p.cell_idx,
                    n_cells: self.n_cells,
                });
            }
        }
        self.features.extend_rows(rows);
        self.points.extend_from_slice(points);
        Ok(points.len())
    }

    /// Append a chunk of patrol-log months in place, through the routine
    /// [`build_dataset`] runs on an empty dataset: months are bucketed into
    /// `(year, step)` keys, coverage is accumulated and detections OR-ed per
    /// step, and one point is emitted per patrolled cell with the previous
    /// step's coverage as the dynamic covariate. A dataset grown
    /// month-chunk by month-chunk is therefore bit-identical to one built
    /// from the concatenated history — matrix bytes included — as long as
    /// every chunk is chronological and step-aligned (a time step's months
    /// never straddle two chunks).
    ///
    /// Returns the number of data points appended (zero when every month
    /// is filtered out by the discretisation's season filter).
    ///
    /// # Errors
    /// [`AppendError::ParkMismatch`] when the chunk or park disagrees with
    /// the dataset's grid, [`AppendError::OutOfOrderStep`] when a month
    /// lands in an already-emitted step (late or straddling batches), and
    /// the checks of [`Dataset::append_rows`]. The dataset is unchanged on
    /// `Err`.
    pub fn append_observations(
        &mut self,
        park: &Park,
        history: &History,
    ) -> Result<usize, AppendError> {
        if history.n_cells != self.n_cells
            || park.n_cells() != self.n_cells
            || park.name != self.park_name
            || park.n_static_features() + 1 != self.n_features()
        {
            return Err(AppendError::ParkMismatch);
        }
        let steps = self.next_steps(park, history);
        if let Some((year, month)) = steps.late {
            return Err(AppendError::OutOfOrderStep { year, month });
        }
        let appended = self.append_rows(steps.rows.view(), &steps.points)?;
        self.steps.extend(steps.steps);
        self.coverage.extend(steps.coverage);
        self.detections.extend(steps.detections);
        Ok(appended)
    }

    /// Bucket `history`'s months into the time steps that follow this
    /// dataset's last one, and emit their points. Months are grouped in the
    /// order they come: a key change starts a new step, and the first month
    /// whose key is not after the previous step's is reported as `late`.
    /// The first new step reads its previous coverage from the dataset's
    /// last step, or zero when the dataset is empty.
    fn next_steps(&self, park: &Park, history: &History) -> NextSteps {
        let disc = self.discretization;
        let n_cells = self.n_cells;

        // Group the new months into (year, step_in_year) buckets, noting the
        // first month that falls at or before the last emitted step.
        let mut new_steps: Vec<StepInfo> = Vec::new();
        let mut new_coverage: Vec<Vec<f64>> = Vec::new();
        let mut new_detections: Vec<Vec<bool>> = Vec::new();
        let mut late = None;
        let mut last_key = self.steps.last().map(|s| (s.year, s.step_in_year));
        let mut current_key: Option<(u32, u32)> = None;
        for month in &history.months {
            let Some(step_in_year) = disc.step_of_month(month.month) else {
                continue;
            };
            let key = (month.year, step_in_year);
            if current_key != Some(key) {
                if late.is_none() && last_key.is_some_and(|last| key <= last) {
                    late = Some((month.year, month.month));
                }
                last_key = Some(key);
                current_key = Some(key);
                new_steps.push(StepInfo {
                    year: month.year,
                    step_in_year,
                    label: format!("{}-{}", month.year, disc.step_label(step_in_year)),
                });
                new_coverage.push(vec![0.0; n_cells]);
                new_detections.push(vec![false; n_cells]);
            }
            let idx = new_steps.len() - 1;
            let rec = reconstruct_effort(park, &month.patrols);
            for i in 0..n_cells {
                new_coverage[idx][i] += rec[i];
                new_detections[idx][i] = new_detections[idx][i] || month.detections[i];
            }
        }

        // Static features per cell, extracted once into a flat matrix.
        let k = self.n_features();
        let n_static = k - 1;
        let mut static_rows = Matrix::zeros(n_cells, n_static);
        for (i, &cell) in park.cells.iter().enumerate() {
            park.write_feature_row(cell, static_rows.row_mut(i));
        }

        // Emit points for the new steps, patrolled cells only; the first
        // new step reads its previous coverage from the resident tail of
        // the dataset (zero when the dataset is empty).
        let old_steps = self.steps.len();
        let mut rows = Matrix::new(k);
        let mut points = Vec::new();
        let mut row_buf = vec![0.0; k];
        for (local, step) in new_steps.iter().enumerate() {
            let t = old_steps + local;
            for cell_idx in 0..n_cells {
                let effort = new_coverage[local][cell_idx];
                if effort <= 0.0 {
                    continue;
                }
                let prev = if local > 0 {
                    new_coverage[local - 1][cell_idx]
                } else if let Some(tail) = self.coverage.last() {
                    tail[cell_idx]
                } else {
                    0.0
                };
                row_buf[..n_static].copy_from_slice(static_rows.row(cell_idx));
                row_buf[n_static] = prev;
                rows.push_row(&row_buf);
                points.push(DataPoint {
                    step: t,
                    cell_idx,
                    current_effort: effort,
                    label: new_detections[local][cell_idx],
                    year: step.year,
                });
            }
        }
        NextSteps {
            steps: new_steps,
            coverage: new_coverage,
            detections: new_detections,
            rows,
            points,
            late,
        }
    }

    /// Build the full-park feature matrix for a hypothetical next time step
    /// whose previous-step coverage is `prev_coverage` (length = `n_cells`).
    /// Row order follows `Park::cells`.
    pub fn full_feature_matrix(&self, park: &Park, prev_coverage: &[f64]) -> Matrix {
        assert_eq!(
            prev_coverage.len(),
            self.n_cells,
            "coverage length mismatch"
        );
        assert_eq!(park.n_cells(), self.n_cells, "park does not match dataset");
        let k = self.n_features();
        let mut matrix = Matrix::zeros(self.n_cells, k);
        for (i, &cell) in park.cells.iter().enumerate() {
            let row = matrix.row_mut(i);
            park.write_feature_row(cell, &mut row[..k - 1]);
            row[k - 1] = prev_coverage[i];
        }
        matrix
    }
}

/// The time steps a history chunk adds after a dataset's last step, with
/// their feature rows and points (`Dataset::next_steps`).
struct NextSteps {
    steps: Vec<StepInfo>,
    coverage: Vec<Vec<f64>>,
    detections: Vec<Vec<bool>>,
    rows: Matrix,
    points: Vec<DataPoint>,
    /// `(year, month)` of the first month whose step is not after the
    /// previous one.
    late: Option<(u32, u32)>,
}

/// Build a [`Dataset`] from a simulated history: an empty dataset plus the
/// steps of [`Dataset::append_observations`], taken in the history's order
/// (a late month starts a step of its own instead of being rejected). The
/// feature rows are moved in, not copied.
pub fn build_dataset(park: &Park, history: &History, disc: Discretization) -> Dataset {
    assert_eq!(
        history.n_cells,
        park.n_cells(),
        "history does not match park"
    );
    let mut feature_names: Vec<String> = park
        .features
        .names()
        .into_iter()
        .map(|s| s.to_string())
        .collect();
    feature_names.push("prev_patrol_coverage".to_string());
    let empty = Dataset {
        park_name: park.name.clone(),
        points: Vec::new(),
        features: Matrix::new(feature_names.len()),
        feature_names,
        n_cells: park.n_cells(),
        steps: Vec::new(),
        coverage: Vec::new(),
        detections: Vec::new(),
        discretization: disc,
    };
    let NextSteps {
        steps,
        coverage,
        detections,
        rows,
        points,
        ..
    } = empty.next_steps(park, history);
    Dataset {
        points,
        features: rows,
        steps,
        coverage,
        detections,
        ..empty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paws_geo::parks::test_park_spec;
    use paws_sim::history::simulate_history;
    use paws_sim::presets::test_sim_config;
    use paws_sim::{AttackModelConfig, PoacherModel};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (Park, History) {
        let park = Park::generate(&test_park_spec(), 7);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = PoacherModel::new(&park, AttackModelConfig::default(), &mut rng);
        let history = simulate_history(&park, &model, &test_sim_config(), 2013, 2, 3);
        (park, history)
    }

    #[test]
    fn quarterly_dataset_has_expected_steps() {
        let (park, history) = setup();
        let ds = build_dataset(&park, &history, Discretization::quarterly());
        assert_eq!(ds.steps.len(), 8);
        assert_eq!(ds.n_cells, park.n_cells());
        assert_eq!(ds.n_features(), park.n_static_features() + 1);
        assert!(ds.n_points() > 0);
        assert_eq!(ds.features.n_rows(), ds.n_points());
        assert_eq!(ds.features.n_cols(), ds.n_features());
    }

    #[test]
    fn dry_season_dataset_has_three_steps_per_year() {
        let (park, history) = setup();
        let ds = build_dataset(&park, &history, Discretization::dry_season());
        assert_eq!(ds.steps.len(), 6);
    }

    #[test]
    fn points_only_cover_patrolled_cells() {
        let (park, history) = setup();
        let ds = build_dataset(&park, &history, Discretization::quarterly());
        for p in &ds.points {
            assert!(p.current_effort > 0.0);
            assert!((ds.coverage[p.step][p.cell_idx] - p.current_effort).abs() < 1e-12);
        }
        let _ = park;
    }

    #[test]
    fn previous_coverage_feature_matches_coverage_matrix() {
        let (_park, history) = setup();
        let park = Park::generate(&test_park_spec(), 7);
        let ds = build_dataset(&park, &history, Discretization::quarterly());
        let k = ds.n_features();
        for (i, p) in ds
            .points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.step > 0)
            .take(200)
        {
            let expected = ds.coverage[p.step - 1][p.cell_idx];
            assert!((ds.features.get(i, k - 1) - expected).abs() < 1e-12);
        }
        for (i, p) in ds
            .points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.step == 0)
            .take(50)
        {
            assert_eq!(ds.features.get(i, k - 1), 0.0);
            let _ = p;
        }
    }

    #[test]
    fn feature_rows_gather_matches_point_features() {
        let (park, history) = setup();
        let ds = build_dataset(&park, &history, Discretization::quarterly());
        let idx: Vec<usize> = (0..ds.n_points()).step_by(7).collect();
        let m = ds.feature_rows(&idx);
        assert_eq!(m.n_rows(), idx.len());
        for (r, &i) in idx.iter().enumerate() {
            assert_eq!(m.row(r), ds.features_of(i));
        }
    }

    #[test]
    fn static_features_match_park_rows() {
        let (park, history) = setup();
        let ds = build_dataset(&park, &history, Discretization::quarterly());
        let k = ds.n_features();
        for (i, p) in ds.points.iter().enumerate().take(100) {
            let expected = park.feature_row(park.cells[p.cell_idx]);
            assert_eq!(&ds.features_of(i)[..k - 1], expected.as_slice());
        }
    }

    #[test]
    fn labels_match_detection_matrix() {
        let (park, history) = setup();
        let ds = build_dataset(&park, &history, Discretization::quarterly());
        for p in &ds.points {
            assert_eq!(p.label, ds.detections[p.step][p.cell_idx]);
        }
        assert!(ds.n_positive() > 0, "test dataset should contain positives");
        let _ = park;
    }

    #[test]
    fn full_feature_matrix_covers_every_cell() {
        let (park, history) = setup();
        let ds = build_dataset(&park, &history, Discretization::quarterly());
        let prev = ds.coverage.last().unwrap().clone();
        let m = ds.full_feature_matrix(&park, &prev);
        assert_eq!(m.n_rows(), park.n_cells());
        assert_eq!(m.n_cols(), ds.n_features());
        for (i, &cell) in park.cells.iter().enumerate().take(50) {
            let expected = park.feature_row(cell);
            assert_eq!(&m.row(i)[..ds.n_features() - 1], expected.as_slice());
            assert_eq!(m.get(i, ds.n_features() - 1), prev[i]);
        }
    }

    #[test]
    fn last_coverage_of_year_returns_final_step() {
        let (park, history) = setup();
        let ds = build_dataset(&park, &history, Discretization::quarterly());
        let cov = ds.last_coverage_of_year(2014).unwrap();
        assert_eq!(cov, ds.coverage.last().unwrap().as_slice());
        assert!(ds.last_coverage_of_year(1999).is_none());
        let _ = park;
    }
}
