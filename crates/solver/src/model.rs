//! Linear-program builder shared by the sparse and dense simplex engines.
//!
//! The paper solves its patrol-planning problem (P) with a commercial MILP
//! solver, whose only binaries encode non-concave piecewise-linear
//! utilities. The planner here optimises each utility's concave envelope
//! instead, so problem (P) is a linear program. A [`Model`] collects
//! continuous variables (bounds and objective coefficients) and linear
//! constraints; [`crate::revised`] solves it, and [`crate::simplex`] is the
//! dense reference engine.

/// Optimisation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Maximise the objective.
    Maximize,
    /// Minimise the objective.
    Minimize,
}

/// Handle to a variable in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Variable(pub usize);

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub lower: f64,
    pub upper: f64,
    pub objective: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct ConstraintDef {
    pub terms: Vec<(usize, f64)>,
    pub op: ConstraintOp,
    pub rhs: f64,
}

/// A linear optimisation model.
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<ConstraintDef>,
}

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// An optimal solution was found.
    Optimal,
    /// The problem is infeasible.
    Infeasible,
    /// The problem is unbounded in the optimisation direction.
    Unbounded,
    /// The simplex engine's internal iteration cap was reached; the
    /// current basic point is returned.
    LimitReached,
    /// A caller-supplied [`crate::budget::SolveBudget`] ran out before the
    /// solve finished; the returned point is primal feasible but not
    /// proven optimal.
    Degraded,
    /// A caller-supplied [`crate::budget::SolveBudget`] ran out before any
    /// usable point was found; the returned values are meaningless and the
    /// objective is the worst value for the optimisation sense.
    BudgetExceeded,
}

/// Why a solve produced no usable point: the typed-error twin of the
/// point-free [`SolveStatus`] variants, for serving-path callers that must
/// propagate failure instead of inspecting statuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverError {
    /// The problem admits no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimisation direction.
    Unbounded,
    /// The [`crate::budget::SolveBudget`] ran out before any usable point
    /// was found.
    BudgetExceeded,
    /// The model input was rejected before solving: a non-finite
    /// coefficient, bound, objective or right-hand side, inconsistent
    /// bounds, or a constraint referencing an unknown variable. NaNs and
    /// infinities must never reach pivot arithmetic — they would silently
    /// poison every reduced cost downstream.
    Input(&'static str),
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::Infeasible => write!(f, "the problem is infeasible"),
            SolverError::Unbounded => {
                write!(
                    f,
                    "the objective is unbounded in the optimisation direction"
                )
            }
            SolverError::BudgetExceeded => write!(
                f,
                "the solve budget ran out before any usable point was found"
            ),
            SolverError::Input(msg) => write!(f, "invalid model input: {msg}"),
        }
    }
}

impl std::error::Error for SolverError {}

/// Result of solving a model.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Termination status.
    pub status: SolveStatus,
    /// Objective value of the returned point (meaningful for `Optimal`,
    /// `LimitReached` and `Degraded`).
    pub objective: f64,
    /// Value of every variable, indexed by [`Variable`] id.
    pub values: Vec<f64>,
}

impl Solution {
    /// Value of a variable in this solution.
    pub fn value(&self, var: Variable) -> f64 {
        self.values[var.0]
    }

    /// `Ok(())` when the solution carries a usable point (`Optimal`,
    /// `LimitReached`, `Degraded`); the matching [`SolverError`] otherwise.
    pub fn require_usable(&self) -> Result<(), SolverError> {
        match self.status {
            SolveStatus::Optimal | SolveStatus::LimitReached | SolveStatus::Degraded => Ok(()),
            SolveStatus::Infeasible => Err(SolverError::Infeasible),
            SolveStatus::Unbounded => Err(SolverError::Unbounded),
            SolveStatus::BudgetExceeded => Err(SolverError::BudgetExceeded),
        }
    }
}

impl Model {
    /// Create an empty model with the given optimisation sense.
    pub fn new(sense: Sense) -> Self {
        Self {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// The optimisation sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Add a continuous variable with bounds `[lower, upper]` and objective
    /// coefficient `objective`. The upper bound may be `f64::INFINITY` for
    /// an unbounded-above variable.
    ///
    /// # Errors
    /// [`SolverError::Input`] for a non-finite lower bound, a NaN upper
    /// bound, `lower > upper`, or a non-finite objective coefficient.
    pub fn try_add_continuous(
        &mut self,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> Result<Variable, SolverError> {
        if !lower.is_finite() {
            return Err(SolverError::Input("lower bound must be finite"));
        }
        if upper.is_nan() {
            return Err(SolverError::Input("upper bound must not be NaN"));
        }
        if lower > upper {
            return Err(SolverError::Input("lower bound exceeds upper bound"));
        }
        if !objective.is_finite() {
            return Err(SolverError::Input("objective coefficient must be finite"));
        }
        self.vars.push(VarDef {
            lower,
            upper,
            objective,
        });
        Ok(Variable(self.vars.len() - 1))
    }

    /// Add a linear constraint `Σ coeff·var  op  rhs`.
    ///
    /// # Errors
    /// [`SolverError::Input`] for an empty term list, an unknown variable,
    /// or a non-finite coefficient or right-hand side.
    pub fn try_add_constraint(
        &mut self,
        terms: &[(Variable, f64)],
        op: ConstraintOp,
        rhs: f64,
    ) -> Result<(), SolverError> {
        if terms.is_empty() {
            return Err(SolverError::Input("constraint needs at least one term"));
        }
        for &(v, c) in terms {
            if v.0 >= self.vars.len() {
                return Err(SolverError::Input("constraint references unknown variable"));
            }
            if !c.is_finite() {
                return Err(SolverError::Input("constraint coefficient must be finite"));
            }
        }
        if !rhs.is_finite() {
            return Err(SolverError::Input("constraint rhs must be finite"));
        }
        self.constraints.push(ConstraintDef {
            terms: terms.iter().map(|(v, c)| (v.0, *c)).collect(),
            op,
            rhs,
        });
        Ok(())
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn n_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Check whether a point satisfies every constraint and bound within
    /// `tol`. Used by tests and by debug assertions in the planner.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (v, &x) in self.vars.iter().zip(values) {
            if x < v.lower - tol || x > v.upper + tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(i, coeff)| coeff * values[i]).sum();
            let ok = match c.op {
                ConstraintOp::Le => lhs <= c.rhs + tol,
                ConstraintOp::Ge => lhs >= c.rhs - tol,
                ConstraintOp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_construction_and_introspection() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_continuous(0.0, 10.0, 1.0).unwrap();
        let y = m.try_add_continuous(0.0, 1.0, 5.0).unwrap();
        m.try_add_constraint(&[(x, 1.0), (y, 2.0)], ConstraintOp::Le, 8.0)
            .unwrap();
        assert_eq!((x, y), (Variable(0), Variable(1)));
        assert_eq!(m.n_vars(), 2);
        assert_eq!(m.n_constraints(), 1);
    }

    #[test]
    fn feasibility_checks_bounds_and_constraints() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.try_add_continuous(0.0, 5.0, 1.0).unwrap();
        m.try_add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 2.0)
            .unwrap();
        assert!(m.is_feasible(&[3.0], 1e-9));
        assert!(!m.is_feasible(&[1.0], 1e-9)); // violates >= 2
        assert!(!m.is_feasible(&[6.0], 1e-9)); // violates upper bound
        assert!(!m.is_feasible(&[3.0, 0.0], 1e-9)); // wrong length
    }

    #[test]
    fn non_finite_variable_inputs_return_typed_errors() {
        let mut m = Model::new(Sense::Maximize);
        assert_eq!(
            m.try_add_continuous(f64::NAN, 1.0, 0.0),
            Err(SolverError::Input("lower bound must be finite"))
        );
        assert_eq!(
            m.try_add_continuous(f64::NEG_INFINITY, 1.0, 0.0),
            Err(SolverError::Input("lower bound must be finite"))
        );
        assert_eq!(
            m.try_add_continuous(0.0, f64::NAN, 0.0),
            Err(SolverError::Input("upper bound must not be NaN"))
        );
        assert_eq!(
            m.try_add_continuous(2.0, 1.0, 0.0),
            Err(SolverError::Input("lower bound exceeds upper bound"))
        );
        assert_eq!(
            m.try_add_continuous(0.0, 1.0, f64::NAN),
            Err(SolverError::Input("objective coefficient must be finite"))
        );
        assert_eq!(
            m.try_add_continuous(0.0, 1.0, f64::INFINITY),
            Err(SolverError::Input("objective coefficient must be finite"))
        );
        // Nothing was added by any rejected call.
        assert_eq!(m.n_vars(), 0);
        // +inf upper bound stays legal (unbounded-above variable).
        assert!(m.try_add_continuous(0.0, f64::INFINITY, 1.0).is_ok());
    }

    #[test]
    fn non_finite_constraint_inputs_return_typed_errors() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_continuous(0.0, 1.0, 1.0).unwrap();
        assert_eq!(
            m.try_add_constraint(&[], ConstraintOp::Le, 1.0),
            Err(SolverError::Input("constraint needs at least one term"))
        );
        assert_eq!(
            m.try_add_constraint(&[(Variable(9), 1.0)], ConstraintOp::Le, 1.0),
            Err(SolverError::Input("constraint references unknown variable"))
        );
        assert_eq!(
            m.try_add_constraint(&[(x, f64::NAN)], ConstraintOp::Le, 1.0),
            Err(SolverError::Input("constraint coefficient must be finite"))
        );
        assert_eq!(
            m.try_add_constraint(&[(x, f64::INFINITY)], ConstraintOp::Ge, 1.0),
            Err(SolverError::Input("constraint coefficient must be finite"))
        );
        assert_eq!(
            m.try_add_constraint(&[(x, 1.0)], ConstraintOp::Eq, f64::NAN),
            Err(SolverError::Input("constraint rhs must be finite"))
        );
        assert_eq!(m.n_constraints(), 0);
        assert!(m
            .try_add_constraint(&[(x, 1.0)], ConstraintOp::Le, 1.0)
            .is_ok());
        assert_eq!(m.n_constraints(), 1);
    }
}
