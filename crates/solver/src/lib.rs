//! # paws-solver
//!
//! A small, self-contained linear-programming toolkit: the from-scratch
//! substitute for the commercial solver the paper's patrol planner relies
//! on. The planner optimises each cell's concave-envelope utility, so the
//! one model it builds, the time-unrolled flow formulation, is a linear
//! program.
//!
//! * [`model::Model`] — build variables, bounds, objective and constraints;
//!   every solve reads the bounds the model was built with.
//! * [`revised::solve_lp`] / [`revised::SparseLp`] — sparse revised simplex
//!   (LU-factorised basis, bounded variables, eta updates); the engine
//!   every caller uses.
//! * [`simplex::solve_lp_dense`] — the original dense two-phase tableau,
//!   retained as the parity reference for the sparse engine.
//! * [`budget::SolveBudget`] — anytime wall-clock / iteration budgets; an
//!   exhausted budget returns the current primal-feasible point tagged
//!   [`model::SolveStatus::Degraded`] instead of hanging the caller.

pub mod budget;
pub mod csc;
pub mod lu;
pub mod model;
pub mod revised;
pub mod simplex;

pub use budget::SolveBudget;
pub use model::{ConstraintOp, Model, Sense, Solution, SolveStatus, SolverError, Variable};
pub use revised::{solve_lp, solve_lp_budgeted, SparseLp};
pub use simplex::{solve_lp_dense, solve_lp_dense_budgeted};
