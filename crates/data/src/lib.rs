//! # paws-data
//!
//! Dataset assembly for the PAWS reproduction: from simulated SMART-style
//! patrol logs (waypoints + observations) to the spatio-temporal dataset
//! D = (X, y) the predictive models are trained on.
//!
//! Stages (Sec. III-B/C of the paper):
//! 1. [`trajectory`] — reconstruct per-cell patrol effort from sparse GPS
//!    waypoints.
//! 2. [`discretize`] — group months into three-month steps (or two-month
//!    dry-season steps for SWS).
//! 3. [`dataset`] — build feature vectors (static features + previous-step
//!    coverage) and binary labels for every patrolled (cell, step) pair.
//! 4. [`split`] — train on three years, test on the following year.
//! 5. [`stats`] / [`threshold`] — Table I statistics and the Fig. 4
//!    positive-rate-vs-effort-threshold curves.
//! 6. [`scaler`] — feature standardisation fitted on the training rows.
//!
//! Feature batches are stored and passed as contiguous row-major
//! [`matrix::Matrix`] / [`matrix::MatrixView`] values; training subsets are
//! index-gathered ([`matrix::Matrix::gather`]) rather than row-cloned.
//! Contiguous hot loops across the workspace (scaler transforms, kernel
//! rows, triangular solves, ensemble reductions) run on the stable-Rust
//! lane micro-kernels in [`simd`]. Matrices and kernels are written once,
//! generic over the sealed [`Element`] trait (`f64` or `f32`): training
//! always runs in f64, and the opt-in f32 prediction plane narrows feature
//! batches into [`Matrix32`] (an alias of `Matrix<f32>`) and runs the same
//! kernels monomorphised on `f32x8` lanes.

pub mod dataset;
pub mod discretize;
pub mod matrix;
pub mod scaler;
pub mod simd;
pub mod split;
pub mod stats;
pub mod threshold;
pub mod trajectory;

pub use dataset::{build_dataset, AppendError, DataPoint, Dataset};
pub use discretize::{Discretization, SeasonFilter, StepInfo};
pub use matrix::{Matrix, Matrix32, MatrixView, MatrixView32};
pub use scaler::StandardScaler;
pub use simd::Element;
pub use split::{split_by_test_year, TrainTestSplit};
pub use stats::DatasetStats;
pub use threshold::{positive_rate_by_effort_percentile, ThresholdPoint};
pub use trajectory::{reconstruct_effort, reconstruct_patrol_effort};
