//! # paws-ml
//!
//! From-scratch machine-learning substrate for the PAWS reproduction.
//!
//! The original pipeline uses scikit-learn and imbalanced-learn; the Rust
//! ecosystem has no drop-in equivalent, so this crate implements the pieces
//! the paper needs:
//!
//! * [`tree`] — CART decision trees (DTB weak learners).
//! * [`forest`] — arena-backed tree ensembles with level-synchronous batch
//!   traversal (one contiguous node slab per ensemble), generic over the
//!   plane's element.
//! * [`forest32`] / [`precision`] — the opt-in f32 prediction plane: the
//!   same arena at `f32`, with 8-byte nodes narrowed from the trained f64
//!   forest, selected per model with [`precision::Precision::F32`]
//!   (training stays f64).
//! * [`svm`] — linear SVM with Platt scaling (SVB weak learners).
//! * [`gp`] — Gaussian-process classifier with predictive variance (GPB).
//! * [`bagging`] — plain and balanced (undersampled) bagging ensembles.
//! * [`jackknife`] — infinitesimal-jackknife variance for bagged trees (Fig. 7).
//! * [`metrics`] — ROC AUC, log loss, Pearson correlation.
//! * [`cv`] — the stratified k-fold splitter of the iWare-E weight fit.
//! * [`linalg`] — the small dense Cholesky kernel behind the GP.
pub mod bagging;
pub mod cv;
pub mod forest;
pub mod forest32;
pub mod gp;
pub mod jackknife;
pub mod linalg;
pub mod metrics;
pub mod precision;
pub mod snapshot;
pub mod svm;
pub mod traits;
pub mod tree;

pub use bagging::{BaggingClassifier, BaggingConfig, BaseLearnerConfig, BaseModel};
pub use forest::{ArenaElement, Forest, RawNode};
pub use forest32::{Forest32, NarrowError};
pub use gp::{GaussianProcess, GpConfig};
pub use precision::Precision;
pub use snapshot::{PayloadKind, SnapshotError, SnapshotReader, SnapshotWriter};
pub use svm::{LinearSvm, SvmConfig};
pub use traits::{Classifier, QueryError, Trainable, UncertainClassifier};
pub use tree::{DecisionTree, Ranking, TreeConfig};
