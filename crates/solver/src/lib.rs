//! # paws-solver
//!
//! A small, self-contained linear-programming toolkit: the from-scratch
//! substitute for the commercial solver the paper's patrol planner relies
//! on. The planner needs none of it now: with each cell's utility replaced
//! by its concave envelope, a plan is the exact greedy fill of a separable
//! knapsack. The engines back the allocation-LP oracle test that checks
//! that fill against its own LP optimum.
//!
//! * [`model::Model`] — build variables, bounds, objective and constraints;
//!   every solve reads the bounds the model was built with.
//! * [`revised::solve_lp`] / [`revised::SparseLp`] — sparse revised simplex
//!   (LU-factorised basis, bounded variables, eta updates); the engine
//!   every caller uses.
//! * [`simplex::solve_lp_dense`] — the original dense two-phase tableau,
//!   retained as the parity reference for the sparse engine.

pub mod csc;
pub mod lu;
pub mod model;
pub mod revised;
pub mod simplex;

pub use model::{ConstraintOp, Model, Sense, Solution, SolveStatus, SolverError, Variable};
pub use revised::{solve_lp, SparseLp};
pub use simplex::solve_lp_dense;
