//! # paws-serve
//!
//! The deployment-facing serving surface of the PAWS reproduction: many
//! parks resident at once, each served from immutable artifacts, with
//! batched query admission on top.
//!
//! The paper's system serves risk maps and patrol plans continuously for
//! many protected areas; this crate is that architecture over the repo's
//! fit/serve split ([`paws_core::serving`]):
//!
//! * [`ModelRegistry`] — resident parks as atomic-swappable
//!   `Arc<ResidentPark>` bundles (serving model, prepared park and park
//!   geometry). Hot-swapping a model from a live fit or a stack
//!   snapshot never tears an in-flight query. Parks installed via
//!   [`ModelRegistry::install_streaming`] also keep their dataset and a
//!   [`paws_core::StreamingFit`] warm-refit driver resident, so
//!   [`ModelRegistry::ingest_batch`] can fold a fresh patrol-log batch
//!   into the dataset, refit incrementally, and hot-swap mid-traffic.
//! * [`PawsServer`] — batched admission: group by park, snapshot each
//!   bundle once, fan park groups across the work-stealing pool, and
//!   answer every request by the direct prepared-park call, with a typed
//!   result. A request whose [`SolveBudget`] deadline lapsed
//!   before its query started is refused; one admitted in time gets the
//!   direct call's answer. A park's first query fills its learner tables;
//!   every later one only combines them.
//!
//! ```no_run
//! use paws_core::{Scenario, ModelConfig, WeakLearnerKind};
//! use paws_data::{build_dataset, split_by_test_year, Discretization};
//! use paws_serve::{PawsServer, QueryKind, QueryRequest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = Scenario::test_scenario(7);
//! let history = scenario.simulate_years(2014, 4);
//! let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
//! let split = split_by_test_year(&dataset, 2017, 3).ok_or("2017 present")?;
//! let config = ModelConfig::new(WeakLearnerKind::DecisionTree, true, 7);
//! let model = paws_core::train(&dataset, &split, &config).into_serving();
//!
//! let server = PawsServer::new();
//! let prev = vec![0.0; scenario.park.n_cells()];
//! server
//!     .registry()
//!     .install("mondulkiri", model, scenario.park.clone(), &dataset, &prev)?;
//! let answers = server.submit(&[QueryRequest::new(
//!     "mondulkiri",
//!     QueryKind::RiskMap { effort_km: 1.0 },
//! )]);
//! assert!(answers[0].is_ok());
//! # Ok(())
//! # }
//! ```

pub mod registry;
pub mod request;
pub mod server;

pub use registry::{ModelRegistry, ResidentPark};
pub use request::{QueryKind, QueryRequest, QueryResponse, ServeError, SolveBudget};
pub use server::PawsServer;
