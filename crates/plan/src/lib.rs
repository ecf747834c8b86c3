//! # paws-plan
//!
//! Green Security Game patrol planning under uncertainty (Sec. VI of the
//! paper): piecewise-linear approximation of the learned effort-response
//! functions, optimisation of patrol effort, a robust objective that
//! penalises model uncertainty, route extraction, and plan evaluation.
//!
//! Typical flow:
//! 1. Sample g_v(c) and the raw variances from a fitted
//!    `paws_iware::IWareModel` with `effort_response`.
//! 2. Build a [`game::PlanningProblem`] per patrol post with
//!    [`PlanningProblem::from_raw_response`]: it searches only as far as a
//!    patrol can reach and back, and squashes the candidates' variances into
//!    ν_v(c) with a [`robust::VarianceSquash`] fitted to the whole park.
//! 3. Optimise with [`planner::try_plan`] (the exact greedy allocation by
//!    default, the time-unrolled flow LP for small instances).
//! 4. Extract ranger routes with [`routes::extract_routes`] and evaluate
//!    Uβ(Cβ)/Uβ(Cβ=0) with [`evaluate::try_compare_robust_vs_baseline`].

pub mod evaluate;
pub mod game;
pub mod planner;
pub mod pwl;
pub mod robust;
pub mod routes;

pub use evaluate::{
    expected_detections, try_compare_robust_vs_baseline, try_compare_with_ground_truth,
    RobustComparison,
};
pub use game::{park_travel_distances, steps_for, PlanningCell, PlanningProblem};
pub use planner::{try_plan, PatrolPlan, PlanError, PlannerConfig, PlannerMethod};
pub use pwl::{PwlError, PwlFunction};
pub use robust::VarianceSquash;
pub use routes::{extract_routes, route_coverage, Route};
