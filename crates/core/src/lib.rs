//! # paws-core
//!
//! The public end-to-end API of the PAWS reproduction: generate (or load) a
//! park scenario, build its historical dataset, train a predictive-model
//! variant, produce risk/uncertainty maps, plan robust patrols, and run
//! simulated field tests.
//!
//! ```no_run
//! use paws_core::{Scenario, ModelConfig, WeakLearnerKind};
//! use paws_data::{build_dataset, split_by_test_year, Discretization};
//!
//! let scenario = Scenario::test_scenario(7);
//! let history = scenario.simulate_years(2014, 4);
//! let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
//! let split = split_by_test_year(&dataset, 2017, 3).unwrap();
//! let config = ModelConfig::new(WeakLearnerKind::GaussianProcess, true, 7);
//! let model = paws_core::pipeline::train(&dataset, &split, &config);
//! println!("test AUC = {:.3}", model.auc_on(&dataset, &split.test));
//! ```

pub mod config;
pub mod error;
pub mod pipeline;
pub mod report;
pub mod scenario;
pub mod serving;
pub mod stream;

pub use config::{ModelConfig, WeakLearnerKind};
pub use error::PawsError;
pub use paws_iware::SnapshotError;
pub use paws_ml::precision::Precision;
pub use paws_ml::traits::QueryError;
pub use paws_plan::{try_plan, PlanError, PlannerConfig};
pub use pipeline::{train, TrainedModel};
pub use report::{ascii_heatmap, format_table};
pub use scenario::Scenario;
pub use serving::{try_planning_problem_from_response, FittedModel, PreparedPark, ServingModel};
pub use stream::{
    fit_stream, BatchReport, ColdReason, RefitPath, StreamBatch, StreamConfig, StreamingFit,
};
