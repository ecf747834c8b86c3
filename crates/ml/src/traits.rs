//! Common interfaces of the weak learners.
//!
//! All batch interfaces take a flat row-major [`MatrixView`] — a borrowed
//! `&[f64]` plus a column count — so prediction and training never clone
//! feature rows and batch kernels stream contiguous memory.

use paws_data::matrix::MatrixView;

/// A fitted binary classifier producing positive-class probabilities.
pub trait Classifier: Send + Sync {
    /// Probability of the positive class for each feature row.
    fn predict_proba(&self, x: MatrixView<'_>) -> Vec<f64>;

    /// Probability of the positive class for one feature row.
    fn predict_proba_one(&self, row: &[f64]) -> f64 {
        self.predict_proba(MatrixView::single_row(row))[0]
    }
}

/// A classifier that also quantifies the uncertainty of each prediction.
///
/// For Gaussian processes this is the posterior predictive variance — "an
/// actual metric intrinsic to the model" (Sec. V-C); for bagged ensembles it
/// is a heuristic based on the spread of member predictions.
pub trait UncertainClassifier: Classifier {
    /// `(probability, variance)` per feature row.
    fn predict_with_variance(&self, x: MatrixView<'_>) -> (Vec<f64>, Vec<f64>);
}

/// Validate an (x, labels) training pair, panicking with a clear message
/// when the shapes are inconsistent or the values are not finite. Shared by
/// every learner's `fit`.
///
/// The non-finite check matters: a single NaN feature would otherwise
/// surface as a `partial_cmp().unwrap()` panic deep inside split search or
/// kernel evaluation, far from the data that caused it.
/// Why a *query* batch was rejected at the serving surface — the typed
/// twin of [`validate_training_data`]'s panics, for the paths where the
/// input is operational data (a park's feature stack, a caller-supplied
/// coverage vector) rather than a programming error. A wrong-width or
/// non-finite query would otherwise either trip an assert deep inside a
/// traversal kernel or, on the non-tree learners, flow silently through
/// kernel evaluations as NaN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The query matrix has a different feature width than the model.
    WidthMismatch {
        /// Feature width the model was fitted on.
        expected: usize,
        /// Feature width of the query batch.
        got: usize,
    },
    /// The query batch is empty (zero rows).
    EmptyQuery,
    /// A query feature is NaN or infinite.
    NonFinite {
        /// Row of the offending value.
        row: usize,
        /// Column of the offending value.
        col: usize,
    },
    /// The effort grid is empty.
    EmptyEffortGrid,
    /// An effort level is NaN, infinite or negative.
    BadEffort {
        /// Index of the offending effort level.
        index: usize,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::WidthMismatch { expected, got } => write!(
                f,
                "query feature width {got} does not match the model's {expected}"
            ),
            QueryError::EmptyQuery => write!(f, "query batch is empty"),
            QueryError::NonFinite { row, col } => {
                write!(f, "query feature at row {row}, column {col} is not finite")
            }
            QueryError::EmptyEffortGrid => write!(f, "effort grid is empty"),
            QueryError::BadEffort { index } => write!(
                f,
                "effort level at index {index} is not finite and non-negative"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// Validate a query batch against the feature width a model was fitted
/// on: non-empty, matching width, every value finite. Reports the first
/// offending coordinate so operational data problems are diagnosable.
pub fn validate_query(x: MatrixView<'_>, n_features: usize) -> Result<(), QueryError> {
    if x.n_cols() != n_features {
        return Err(QueryError::WidthMismatch {
            expected: n_features,
            got: x.n_cols(),
        });
    }
    if x.is_empty() {
        return Err(QueryError::EmptyQuery);
    }
    if let Some(at) = x.as_slice().iter().position(|v| !v.is_finite()) {
        return Err(QueryError::NonFinite {
            row: at / n_features,
            col: at % n_features,
        });
    }
    Ok(())
}

/// Validate an effort grid: non-empty, every level finite and
/// non-negative.
pub fn validate_effort_grid(grid: &[f64]) -> Result<(), QueryError> {
    if grid.is_empty() {
        return Err(QueryError::EmptyEffortGrid);
    }
    if let Some(index) = grid.iter().position(|&e| !e.is_finite() || e < 0.0) {
        return Err(QueryError::BadEffort { index });
    }
    Ok(())
}

pub fn validate_training_data(x: MatrixView<'_>, labels: &[f64]) {
    assert!(!x.is_empty(), "cannot fit on an empty training set");
    assert_eq!(x.n_rows(), labels.len(), "rows/labels length mismatch");
    assert!(x.n_cols() > 0, "training rows need at least one feature");
    assert!(
        x.as_slice().iter().all(|v| v.is_finite()),
        "features must be finite (found NaN or infinity in the training batch)"
    );
    assert!(
        labels.iter().all(|&y| y == 0.0 || y == 1.0),
        "labels must be 0.0 or 1.0"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use paws_data::matrix::Matrix;

    struct Constant(f64);
    impl Classifier for Constant {
        fn predict_proba(&self, x: MatrixView<'_>) -> Vec<f64> {
            vec![self.0; x.n_rows()]
        }
    }

    #[test]
    fn default_predict_one_delegates_to_batch() {
        let c = Constant(0.42);
        assert_eq!(c.predict_proba_one(&[1.0, 2.0]), 0.42);
    }

    #[test]
    fn validation_accepts_good_data() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        validate_training_data(m.view(), &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn validation_rejects_empty() {
        validate_training_data(MatrixView::from_flat(&[], 1), &[]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn validation_rejects_mismatched_labels() {
        let m = Matrix::from_rows(&[vec![1.0]]);
        validate_training_data(m.view(), &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "labels must be")]
    fn validation_rejects_non_binary_labels() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        validate_training_data(m.view(), &[0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "features must be finite")]
    fn validation_rejects_nan_features() {
        let m = Matrix::from_rows(&[vec![1.0, f64::NAN], vec![2.0, 3.0]]);
        validate_training_data(m.view(), &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "features must be finite")]
    fn validation_rejects_infinite_features() {
        let m = Matrix::from_rows(&[vec![f64::INFINITY], vec![2.0]]);
        validate_training_data(m.view(), &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "labels must be")]
    fn validation_rejects_nan_labels() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        validate_training_data(m.view(), &[f64::NAN, 1.0]);
    }
}
