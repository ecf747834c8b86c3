//! Typed serving requests, responses and errors.
//!
//! A [`QueryRequest`] names a resident park, the query to run against its
//! cached artifacts, and a per-request [`SolveBudget`] deadline. Admission
//! ([`crate::server::PawsServer::submit`]) answers each request with a
//! [`QueryResponse`] or a typed [`ServeError`]; nothing on the serving
//! surface panics on caller input.

use paws_core::PawsError;
use paws_data::{AppendError, Matrix};
use paws_geo::CellId;
use paws_plan::PatrolPlan;
use paws_solver::SolveBudget;
use std::fmt;

/// What to compute against a resident park's cached artifacts.
#[derive(Debug, Clone)]
pub enum QueryKind {
    /// Risk + uncertainty for every park cell at one prospective effort
    /// level.
    RiskMap {
        /// Prospective patrol effort (km) applied to every cell.
        effort_km: f64,
    },
    /// Full `cells × effort-levels` response surfaces g_v(c), ν_v(c).
    ParkResponse {
        /// Prospective effort levels, one response column each.
        effort_grid: Vec<f64>,
    },
    /// A robust patrol plan for one patrol post, built from the park's
    /// cached response surface. The default allocation plan is the exact
    /// greedy fill and needs no solver; only a flow plan's LP takes the
    /// request's remaining deadline (anytime, degrading — never hanging).
    PatrolPlan {
        /// Patrol post the routes must start from.
        post: CellId,
        /// Effort levels discretising the per-cell response curves.
        effort_grid: Vec<f64>,
        /// Maximum patrol length (km) per patroller.
        patrol_length_km: f64,
        /// Number of simultaneous patrols.
        n_patrols: usize,
        /// Risk-aversion weight β on the squashed uncertainty term.
        beta: f64,
    },
}

/// One admission-layer request against a resident park.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Registry name of the resident park to query.
    pub park: String,
    /// The query to run.
    pub kind: QueryKind,
    /// Per-request deadline: requests whose wall-clock budget is exhausted
    /// are answered [`ServeError::DeadlineExceeded`] instead of being
    /// served late, and a flow plan's LP receives only the budget that
    /// remains when it starts. [`SolveBudget::unlimited`] opts out.
    pub budget: SolveBudget,
}

impl QueryRequest {
    /// An unbudgeted request (no deadline).
    pub fn new(park: impl Into<String>, kind: QueryKind) -> Self {
        Self {
            park: park.into(),
            kind,
            budget: SolveBudget::unlimited(),
        }
    }

    /// Attach a solve budget to the request.
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// A served query result, mirroring [`QueryKind`].
#[derive(Debug, Clone)]
pub enum QueryResponse {
    /// Per-cell risk and uncertainty at the requested effort level.
    RiskMap {
        /// Detection probability per park cell.
        risk: Vec<f64>,
        /// Predictive variance per park cell.
        uncertainty: Vec<f64>,
    },
    /// Flat `cells × effort-levels` response surfaces.
    ParkResponse {
        /// Predicted detection probability per (cell, effort level).
        probs: Matrix,
        /// Predictive variance per (cell, effort level).
        vars: Matrix,
    },
    /// The computed patrol plan: always `Optimal` for an allocation plan,
    /// possibly `Degraded` for a flow plan under a tight budget.
    PatrolPlan(PatrolPlan),
}

/// Why the admission layer refused (or failed) a request.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The named park has no resident model.
    UnknownPark(String),
    /// The request's wall-clock budget ran out before its query started.
    DeadlineExceeded {
        /// The park the request addressed.
        park: String,
    },
    /// The model layer rejected the query (bad input, plan failure, …).
    Model(PawsError),
    /// Dataset validation rejected a patrol-log batch (park mismatch,
    /// out-of-order months, non-finite values, …) before any state changed.
    Ingest(AppendError),
    /// A patrol-log batch addressed a park that is unknown, evicted, or was
    /// not installed on the streaming ingest path.
    NotStreaming {
        /// The park the batch addressed.
        park: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownPark(park) => write!(f, "no resident model for park {park:?}"),
            ServeError::DeadlineExceeded { park } => {
                write!(f, "request deadline exhausted before serving park {park:?}")
            }
            ServeError::Model(e) => write!(f, "model layer rejected the query: {e}"),
            ServeError::Ingest(e) => write!(f, "patrol-log ingest rejected: {e}"),
            ServeError::NotStreaming { park } => {
                write!(
                    f,
                    "patrol-log ingest rejected: park {park:?} is not streaming"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Model(e) => Some(e),
            ServeError::Ingest(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PawsError> for ServeError {
    fn from(e: PawsError) -> Self {
        ServeError::Model(e)
    }
}

impl From<AppendError> for ServeError {
    fn from(e: AppendError) -> Self {
        ServeError::Ingest(e)
    }
}
