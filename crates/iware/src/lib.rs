//! # paws-iware
//!
//! The enhanced iWare-E (imperfect-observation-aware Ensemble) of Sec. IV:
//! patrol-effort-filtered weak learners, percentile threshold placement,
//! cross-validated classifier weights, and Gaussian-process uncertainty.
//!
//! Entry point: [`ensemble::IWareModel`]. One staged driver,
//! [`ensemble::IWareModel::warm_refit`], fits every model: a cold fit
//! ([`ensemble::IWareModel::fit`], [`ensemble::IWareModel::fit_cached`]) is
//! that driver run from an empty [`FitCache`]. The
//! [`ensemble::IWareModel::effort_response`] method produces the
//! g_v(c) / ν_v(c) curves the patrol planner optimises.

pub mod ensemble;
pub mod thresholds;
pub mod weights;

pub use ensemble::{FitCache, IWareConfig, IWareModel, LearnerTables, RefitStats};
pub use paws_ml::forest32::NarrowError;
pub use paws_ml::precision::Precision;
pub use paws_ml::snapshot::SnapshotError;
pub use paws_ml::traits::QueryError;
pub use thresholds::{qualified_count, select_thresholds};
pub use weights::{combine, optimize_weights, WeightMode};
