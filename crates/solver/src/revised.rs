//! Sparse revised simplex with direct bounded-variable handling.
//!
//! This is the default LP engine behind [`solve_lp`] / [`solve_lp_budgeted`]
//! and the MILP relaxations. Unlike the dense tableau of
//! [`crate::simplex`], it never materialises `B⁻¹A`: the basis is held as a
//! Markowitz LU factorisation ([`crate::lu`]) refreshed by product-form eta
//! updates, pricing reads the original columns through a CSC matrix
//! ([`crate::csc`]), and simple variable bounds are handled in the ratio
//! test (including bound flips) instead of being expanded into explicit
//! constraint rows. Work per iteration is proportional to the basis fill
//! and the number of structural non-zeros, not to `m·n`.
//!
//! Engine policy in one paragraph: Dantzig pricing by default, switching to
//! Bland's rule after `DEFAULT_STALL_LIMIT` consecutive degenerate steps so
//! cycling cannot occur (and back once progress resumes); the basis is
//! refactorised every `REFACTOR_EVERY` eta updates, or early when an eta
//! pivot is small relative to its spike (the stability trigger); phase 1
//! introduces artificial columns only for rows whose slack-basis residual
//! violates the slack bounds. Deadline and iteration budgets behave exactly
//! like the dense path: `Degraded` is a primal-feasible interrupted point,
//! `BudgetExceeded` means feasibility was never established.

use std::time::Instant;

use crate::budget::{deadline_expired, SolveBudget};
use crate::csc::CscMatrix;
use crate::lu::{Eta, LuFactors};
use crate::model::{ConstraintOp, Model, Sense, Solution, SolveStatus};

/// Upper bounds at or above this value are treated as +∞ (dense-path parity).
const UNBOUNDED: f64 = 1e15;
const EPS: f64 = 1e-9;
/// Wall-clock deadline poll stride, matching the dense engine.
const DEADLINE_STRIDE: usize = 64;
/// Refactorise after this many product-form eta updates.
const REFACTOR_EVERY: usize = 100;
/// Stability trigger: an eta pivot below `STABILITY_REL · max|w|` (or below
/// the absolute floor) forces an early refactorisation before pivoting.
const STABILITY_REL: f64 = 1e-8;
const STABILITY_ABS: f64 = 1e-11;
/// Consecutive degenerate (zero-step) iterations before Bland's rule kicks
/// in. Reset as soon as a strictly improving step is taken.
const DEFAULT_STALL_LIMIT: usize = 60;
/// Ratio-test pivot tolerance.
const PIVOT_TOL: f64 = 1e-9;
/// Tolerance for accepting a warm-start basis as primal feasible.
const WARM_TOL: f64 = 1e-7;

/// Where a nonbasic variable currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VState {
    Basic,
    AtLower,
    AtUpper,
}

/// An opaque snapshot of a simplex basis, reusable to warm-start a later
/// solve of the *same* model under different bound overrides (the
/// branch-and-bound pattern). Snapshots never reference artificial columns.
#[derive(Debug, Clone)]
pub struct BasisSnapshot {
    basis: Vec<usize>,
    state: Vec<VState>,
}

impl BasisSnapshot {
    /// Build a snapshot from an explicit list of basic columns — structural
    /// indices `0..n_cols` followed by logical (slack) indices
    /// `n_cols..n_cols + n_rows` — one per row, with every other variable
    /// parked at its lower bound. Callers with structural knowledge (e.g. a
    /// column-generation master whose convexity rows each carry a
    /// known-feasible breakpoint column) use this to skip phase 1; the
    /// solver still validates the hint (non-singularity, primal
    /// feasibility, bound re-seating) and silently falls back to a cold
    /// start when it is wrong, so a bad hint costs time, never
    /// correctness. Returns `None` only when the shape is impossible:
    /// wrong count, an out-of-range index, or a repeated column.
    pub fn from_basic_columns(n_rows: usize, n_cols: usize, basic: &[usize]) -> Option<Self> {
        let n_base = n_cols + n_rows;
        if basic.len() != n_rows {
            return None;
        }
        let mut state = vec![VState::AtLower; n_base];
        for &c in basic {
            if c >= n_base || state[c] == VState::Basic {
                return None;
            }
            state[c] = VState::Basic;
        }
        Some(Self {
            basis: basic.to_vec(),
            state,
        })
    }

    /// The basic column indices, one per row (structural columns first,
    /// then logicals), in basis order.
    pub fn basic_columns(&self) -> &[usize] {
        &self.basis
    }
}

/// Result of a sparse LP solve: the familiar [`Solution`] plus the row
/// duals and the final basis.
#[derive(Debug, Clone)]
pub struct LpOutcome {
    /// Status, objective and primal values, exactly as [`solve_lp`] returns.
    pub solution: Solution,
    /// Row duals `π` (one per model constraint, in model row order),
    /// scaled to the model's own sense: the reduced cost of a column with
    /// objective `c` and entries `a` is `c − πᵀa`, positive meaning
    /// "improving" for `Maximize` and negative for `Minimize`. Meaningful
    /// when the status is `Optimal`; zeros otherwise.
    pub duals: Vec<f64>,
    /// Final basis, when it is warm-start reusable.
    pub basis: Option<BasisSnapshot>,
    /// Whether this solve reused a caller-supplied warm basis.
    pub warm_started: bool,
}

enum LoopExit {
    Optimal,
    Unbounded,
    Degraded,
    LimitReached,
    Singular,
}

enum RatioOutcome {
    Unbounded,
    BoundFlip(f64),
    /// `(basis position, step length, bound side the leaver hits)`
    Pivot(usize, f64, VState),
}

/// A reusable sparse-LP workspace over one [`Model`]: the CSC build and all
/// solver scratch are allocated once and reused across repeated solves with
/// different bound overrides (branch-and-bound nodes, column-generation
/// restricted masters re-built per round use one workspace per build).
#[derive(Debug)]
pub struct SparseLp {
    m: usize,
    n_struct: usize,
    a: CscMatrix,
    sense_sign: f64,
    obj_orig: Vec<f64>,
    rhs: Vec<f64>,
    row_ops: Vec<ConstraintOp>,
    model_bounds: Vec<(f64, f64)>,
    stall_limit: usize,

    // --- per-solve state -------------------------------------------------
    /// Bounds per total column (structural, logical, then artificials).
    bounds: Vec<(f64, f64)>,
    state: Vec<VState>,
    basis: Vec<usize>,
    x_basic: Vec<f64>,
    /// Row of each artificial column (total index `n_struct + m + t`).
    art_rows: Vec<usize>,
    cost: Vec<f64>,
    lu: LuFactors,
    etas: Vec<Eta>,

    // --- scratch ---------------------------------------------------------
    scratch: Vec<f64>,
    w_vals: Vec<f64>,
    w_nz: Vec<usize>,
    duals_y: Vec<f64>,
    banned: Vec<usize>,
}

impl SparseLp {
    /// Build a workspace for a model. The model's structure (columns,
    /// objective, row senses) is fixed at this point; only bounds may vary
    /// between solves, via overrides.
    pub fn new(model: &Model) -> Self {
        let m = model.n_constraints();
        let n_struct = model.n_vars();
        let a = CscMatrix::from_model(model);
        let sense_sign = match model.sense() {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        let obj_orig: Vec<f64> = (0..n_struct).map(|i| model.vars[i].objective).collect();
        let rhs: Vec<f64> = model.constraints.iter().map(|c| c.rhs).collect();
        let row_ops: Vec<ConstraintOp> = model.constraints.iter().map(|c| c.op).collect();
        let model_bounds: Vec<(f64, f64)> = (0..n_struct)
            .map(|i| (model.vars[i].lower, model.vars[i].upper))
            .collect();
        Self {
            m,
            n_struct,
            a,
            sense_sign,
            obj_orig,
            rhs,
            row_ops,
            model_bounds,
            stall_limit: DEFAULT_STALL_LIMIT,
            bounds: Vec::new(),
            state: Vec::new(),
            basis: Vec::new(),
            x_basic: Vec::new(),
            art_rows: Vec::new(),
            cost: Vec::new(),
            lu: LuFactors::default(),
            etas: Vec::new(),
            scratch: vec![0.0; m],
            w_vals: vec![0.0; m],
            w_nz: Vec::new(),
            duals_y: vec![0.0; m],
            banned: Vec::new(),
        }
    }

    /// Number of model rows.
    pub fn n_rows(&self) -> usize {
        self.m
    }

    /// Number of structural columns.
    pub fn n_cols(&self) -> usize {
        self.n_struct
    }

    /// Override the degenerate-iteration threshold after which pricing
    /// falls back to Bland's rule. `0` forces Bland's rule from the first
    /// iteration — used by the anti-cycling regression tests; the default
    /// is tuned for throughput and needs no adjustment in normal use.
    pub fn set_stall_limit(&mut self, limit: usize) {
        self.stall_limit = limit;
    }

    /// Solve the LP (optionally with per-variable bound overrides), like
    /// [`solve_lp`] but reusing this workspace.
    pub fn solve(&mut self, bound_overrides: Option<&[(f64, f64)]>) -> LpOutcome {
        self.solve_inner(bound_overrides, None, None, None)
    }

    /// [`SparseLp::solve`] under a [`SolveBudget`], with the dense engine's
    /// semantics: `Degraded` carries the best primal-feasible point found
    /// in time, `BudgetExceeded` means feasibility was never established.
    pub fn solve_budgeted(
        &mut self,
        bound_overrides: Option<&[(f64, f64)]>,
        budget: &SolveBudget,
    ) -> LpOutcome {
        self.solve_inner(
            bound_overrides,
            budget.max_lp_iterations,
            budget.deadline(),
            None,
        )
    }

    /// Budgeted solve that additionally tries to start from `warm` (a basis
    /// returned by an earlier solve of the same workspace, typically the
    /// parent branch-and-bound node). A warm basis is used only when it is
    /// still non-singular and primal feasible under the new bounds; the
    /// solver silently falls back to a cold start otherwise.
    pub fn solve_warm(
        &mut self,
        bound_overrides: Option<&[(f64, f64)]>,
        budget: &SolveBudget,
        warm: Option<&BasisSnapshot>,
    ) -> LpOutcome {
        self.solve_inner(
            bound_overrides,
            budget.max_lp_iterations,
            budget.deadline(),
            warm,
        )
    }

    pub(crate) fn solve_inner(
        &mut self,
        bound_overrides: Option<&[(f64, f64)]>,
        iteration_cap: Option<usize>,
        deadline: Option<Instant>,
        warm: Option<&BasisSnapshot>,
    ) -> LpOutcome {
        let n = self.n_struct;
        let m = self.m;
        let n_base = n + m;

        // Effective structural bounds.
        let mut eff: Vec<(f64, f64)> = Vec::with_capacity(n_base);
        for i in 0..n {
            let (mut lo, mut hi) = self.model_bounds[i];
            if let Some(over) = bound_overrides {
                lo = lo.max(over[i].0);
                hi = hi.min(over[i].1);
            }
            if hi >= UNBOUNDED {
                hi = f64::INFINITY;
            }
            eff.push((lo, hi));
        }
        if eff.iter().any(|&(lo, hi)| lo > hi + EPS) {
            return self.outcome_infeasible();
        }
        // Logical (slack) bounds by row sense.
        for op in &self.row_ops {
            eff.push(match op {
                ConstraintOp::Le => (0.0, f64::INFINITY),
                ConstraintOp::Ge => (f64::NEG_INFINITY, 0.0),
                ConstraintOp::Eq => (0.0, 0.0),
            });
        }
        self.bounds = eff;
        self.art_rows.clear();
        self.etas.clear();
        self.banned.clear();

        // A cold start may be needed twice: once up front, and once more if
        // a numerically singular refactorisation poisons a warm run.
        let mut tried_warm = false;
        for attempt in 0..2 {
            let use_warm = attempt == 0 && warm.is_some();
            let warm_ok = if use_warm {
                // Clamp nonbasic states onto the (possibly changed) bounds.
                self.try_warm_start(warm)
            } else {
                false
            };
            tried_warm = tried_warm || warm_ok;
            if !warm_ok && !self.cold_start() {
                // Even the slack/artificial crash basis failed to
                // factorise: numerically hopeless, mirror the dense
                // engine's "numerical failure reads as infeasible".
                return self.outcome_infeasible();
            }

            // ---- Phase 1 (only when artificials exist) ----------------
            if !self.art_rows.is_empty() {
                self.set_phase1_cost();
                match self.simplex_loop(iteration_cap, deadline) {
                    LoopExit::Degraded => return self.outcome_budget_exceeded(),
                    LoopExit::Unbounded => return self.outcome_infeasible(),
                    LoopExit::Singular => {
                        if attempt == 0 {
                            continue;
                        }
                        return self.outcome_infeasible();
                    }
                    LoopExit::Optimal | LoopExit::LimitReached => {}
                }
                let infeas: f64 = self
                    .basis
                    .iter()
                    .zip(&self.x_basic)
                    .filter(|(&b, _)| b >= n_base)
                    .map(|(_, &x)| x.abs())
                    .sum();
                if infeas > 1e-6 {
                    return self.outcome_infeasible();
                }
                // Pin every artificial to zero for phase 2.
                for t in 0..self.art_rows.len() {
                    self.bounds[n_base + t] = (0.0, 0.0);
                }
            }

            // ---- Phase 2 ----------------------------------------------
            self.set_phase2_cost();
            let status = match self.simplex_loop(iteration_cap, deadline) {
                LoopExit::Optimal => SolveStatus::Optimal,
                LoopExit::Unbounded => {
                    return LpOutcome {
                        solution: Solution {
                            status: SolveStatus::Unbounded,
                            objective: f64::INFINITY,
                            values: vec![0.0; n],
                        },
                        duals: vec![0.0; m],
                        basis: None,
                        warm_started: tried_warm,
                    };
                }
                LoopExit::Degraded => SolveStatus::Degraded,
                LoopExit::LimitReached => SolveStatus::LimitReached,
                LoopExit::Singular => {
                    if attempt == 0 {
                        continue;
                    }
                    return self.outcome_infeasible();
                }
            };

            // ---- Extraction -------------------------------------------
            let mut values = vec![0.0; n];
            for (j, value) in values.iter_mut().enumerate() {
                *value = match self.state[j] {
                    VState::AtLower => self.bounds[j].0,
                    VState::AtUpper => self.bounds[j].1,
                    VState::Basic => 0.0,
                };
            }
            for (pos, &b) in self.basis.iter().enumerate() {
                if b < n {
                    values[b] = self.x_basic[pos];
                }
            }
            let objective: f64 = self.obj_orig.iter().zip(&values).map(|(c, x)| c * x).sum();
            let duals = if status == SolveStatus::Optimal {
                self.compute_duals();
                self.duals_y.iter().map(|&y| self.sense_sign * y).collect()
            } else {
                vec![0.0; m]
            };
            let snapshot = if self.basis.iter().all(|&b| b < n_base) {
                Some(BasisSnapshot {
                    basis: self.basis.clone(),
                    state: self.state[..n_base].to_vec(),
                })
            } else {
                None
            };
            return LpOutcome {
                solution: Solution {
                    status,
                    objective,
                    values,
                },
                duals,
                basis: snapshot,
                warm_started: tried_warm,
            };
        }
        // Unreachable: the loop either returns or retries exactly once.
        self.outcome_infeasible()
    }

    // ---- start-up ------------------------------------------------------

    /// Try to install a warm basis: must reference no artificials, stay
    /// non-singular, and be primal feasible under the current bounds.
    fn try_warm_start(&mut self, warm: Option<&BasisSnapshot>) -> bool {
        let n_base = self.n_struct + self.m;
        let Some(snap) = warm else { return false };
        if snap.basis.len() != self.m
            || snap.state.len() != n_base
            || snap.basis.iter().any(|&b| b >= n_base)
        {
            return false;
        }
        self.basis = snap.basis.clone();
        self.state = snap.state.clone();
        self.art_rows.clear();
        // Re-seat nonbasic variables on finite bounds (a bound override may
        // have made the previously occupied side infinite).
        for j in 0..n_base {
            if self.state[j] == VState::Basic {
                continue;
            }
            let (lo, hi) = self.bounds[j];
            self.state[j] = match self.state[j] {
                VState::AtUpper if hi.is_finite() => VState::AtUpper,
                _ if lo.is_finite() => VState::AtLower,
                _ if hi.is_finite() => VState::AtUpper,
                _ => return false,
            };
        }
        if !self.refactorise() {
            return false;
        }
        // Primal feasible under the new bounds?
        self.basis.iter().zip(&self.x_basic).all(|(&b, &x)| {
            let (lo, hi) = self.bounds[b];
            x >= lo - WARM_TOL && x <= hi + WARM_TOL
        })
    }

    /// Slack crash basis, with artificial columns for rows whose residual
    /// violates the slack bounds. Returns false when even this basis fails
    /// to factorise (cannot happen structurally — it is an identity).
    fn cold_start(&mut self) -> bool {
        let n = self.n_struct;
        let m = self.m;
        let n_base = n + m;
        self.bounds.truncate(n_base);
        self.art_rows.clear();
        self.state.clear();
        // Structural lower bounds are always finite (model invariant), so
        // every structural variable can start at its lower bound.
        self.state.resize(n_base, VState::AtLower);
        // Residuals of the all-slack basis.
        let mut resid = self.rhs.clone();
        for j in 0..n {
            let xj = self.bounds[j].0;
            if xj != 0.0 {
                for (r, v) in self.a.col(j) {
                    resid[r] -= v * xj;
                }
            }
        }
        self.basis.clear();
        self.x_basic.clear();
        debug_assert_eq!(resid.len(), m);
        for (i, &r) in resid.iter().enumerate() {
            let logical = n + i;
            let (slo, shi) = self.bounds[logical];
            if r >= slo - EPS && r <= shi + EPS {
                self.state[logical] = VState::Basic;
                self.basis.push(logical);
                self.x_basic.push(r);
            } else {
                // Slack parks at the bound nearest the residual; an
                // artificial column absorbs the remainder.
                self.state[logical] = if r > shi {
                    VState::AtUpper
                } else {
                    VState::AtLower
                };
                if !self.state_bound_finite(logical) {
                    // Ge slack has no finite lower: park at upper instead.
                    self.state[logical] = VState::AtUpper;
                }
                let park = match self.state[logical] {
                    VState::AtLower => self.bounds[logical].0,
                    _ => self.bounds[logical].1,
                };
                let d = r - park;
                let art = n_base + self.art_rows.len();
                self.art_rows.push(i);
                self.bounds.push(if d >= 0.0 {
                    (0.0, f64::INFINITY)
                } else {
                    (f64::NEG_INFINITY, 0.0)
                });
                self.state.push(VState::Basic);
                self.basis.push(art);
                self.x_basic.push(d);
            }
        }
        self.refactorise()
    }

    fn state_bound_finite(&self, j: usize) -> bool {
        match self.state[j] {
            VState::AtLower => self.bounds[j].0.is_finite(),
            VState::AtUpper => self.bounds[j].1.is_finite(),
            VState::Basic => true,
        }
    }

    fn set_phase1_cost(&mut self) {
        let n_base = self.n_struct + self.m;
        self.cost.clear();
        self.cost.resize(n_base + self.art_rows.len(), 0.0);
        for (t, slot) in self.cost[n_base..].iter_mut().enumerate() {
            // Maximise −Σ|z|: a positive artificial costs −1, a negative +1.
            let positive = self.bounds[n_base + t].1 > 0.0;
            *slot = if positive { -1.0 } else { 1.0 };
        }
    }

    fn set_phase2_cost(&mut self) {
        let n_base = self.n_struct + self.m;
        self.cost.clear();
        self.cost.resize(n_base + self.art_rows.len(), 0.0);
        for j in 0..self.n_struct {
            self.cost[j] = self.sense_sign * self.obj_orig[j];
        }
    }

    // ---- linear algebra -------------------------------------------------

    /// Rebuild the LU factors from the current basis and recompute the
    /// basic values from scratch. Clears the eta file. Returns false on a
    /// singular basis.
    fn refactorise(&mut self) -> bool {
        let n = self.n_struct;
        let m = self.m;
        let n_base = n + m;
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        for &b in &self.basis {
            if b < n {
                cols.push(self.a.col(b).collect());
            } else if b < n_base {
                cols.push(vec![(b - n, 1.0)]);
            } else {
                cols.push(vec![(self.art_rows[b - n_base], 1.0)]);
            }
        }
        let Some(lu) = LuFactors::factorise(m, &cols) else {
            return false;
        };
        self.lu = lu;
        self.etas.clear();
        // x_B = B⁻¹ (b − N x_N); only structural nonbasics at non-zero
        // bounds contribute (logical/artificial nonbasics sit at zero).
        self.scratch.copy_from_slice(&self.rhs);
        for j in 0..n {
            if self.state[j] == VState::Basic {
                continue;
            }
            let xj = match self.state[j] {
                VState::AtLower => self.bounds[j].0,
                _ => self.bounds[j].1,
            };
            if xj != 0.0 {
                for (r, v) in self.a.col(j) {
                    self.scratch[r] -= v * xj;
                }
            }
        }
        self.x_basic.resize(m, 0.0);
        self.lu.ftran(&mut self.scratch, &mut self.x_basic);
        true
    }

    /// `w = B⁻¹ a_q` into `w_vals` (dense, by basis position) and `w_nz`.
    fn ftran_column(&mut self, q: usize) {
        let n = self.n_struct;
        let n_base = n + self.m;
        self.scratch.fill(0.0);
        if q < n {
            for (r, v) in self.a.col(q) {
                self.scratch[r] += v;
            }
        } else if q < n_base {
            self.scratch[q - n] = 1.0;
        } else {
            self.scratch[self.art_rows[q - n_base]] = 1.0;
        }
        self.lu.ftran(&mut self.scratch, &mut self.w_vals);
        for eta in &self.etas {
            let xp = self.w_vals[eta.p] / eta.pivot;
            if xp != 0.0 {
                for &(r, v) in &eta.entries {
                    self.w_vals[r] -= v * xp;
                }
            }
            self.w_vals[eta.p] = xp;
        }
        self.w_nz.clear();
        for (i, &v) in self.w_vals.iter().enumerate() {
            if v.abs() > STABILITY_ABS {
                self.w_nz.push(i);
            }
        }
    }

    /// `y = B⁻ᵀ c_B` into `duals_y` (by row), for the current `cost`.
    fn compute_duals(&mut self) {
        for (pos, &b) in self.basis.iter().enumerate() {
            self.scratch[pos] = self.cost[b];
        }
        for eta in self.etas.iter().rev() {
            let mut acc = self.scratch[eta.p];
            for &(r, v) in &eta.entries {
                acc -= v * self.scratch[r];
            }
            self.scratch[eta.p] = acc / eta.pivot;
        }
        self.lu.btran(&mut self.scratch, &mut self.duals_y);
    }

    // ---- the iteration loop ---------------------------------------------

    fn simplex_loop(
        &mut self,
        iteration_cap: Option<usize>,
        deadline: Option<Instant>,
    ) -> LoopExit {
        let n_total = self.bounds.len();
        let internal_cap = 20_000usize.max(50 * (self.m + n_total));
        let max_iterations = iteration_cap.map_or(internal_cap, |c| c.min(internal_cap));
        let mut bland = self.stall_limit == 0;
        let mut stall = 0usize;
        for iteration in 0..max_iterations {
            if iteration % DEADLINE_STRIDE == 0 && deadline_expired(deadline) {
                return LoopExit::Degraded;
            }
            if self.etas.len() >= REFACTOR_EVERY && !self.refactorise() {
                return LoopExit::Singular;
            }
            self.compute_duals();
            let Some((q, _dq)) = self.price(bland) else {
                return LoopExit::Optimal;
            };
            self.ftran_column(q);
            let dir = if self.state[q] == VState::AtLower {
                1.0
            } else {
                -1.0
            };
            let mut outcome = self.ratio_test(q, dir, bland);
            if let RatioOutcome::Pivot(p, _, _) = outcome {
                // Stability trigger: a tiny eta pivot relative to the spike
                // poisons every later eta solve — refactorise first and
                // re-derive the spike and ratio test from fresh factors.
                let wmax = self
                    .w_nz
                    .iter()
                    .fold(0.0f64, |acc, &i| acc.max(self.w_vals[i].abs()));
                let wp = self.w_vals[p].abs();
                if !self.etas.is_empty() && (wp < STABILITY_REL * wmax || wp < STABILITY_ABS) {
                    if !self.refactorise() {
                        return LoopExit::Singular;
                    }
                    self.ftran_column(q);
                    outcome = self.ratio_test(q, dir, bland);
                }
            }
            match outcome {
                RatioOutcome::Unbounded => return LoopExit::Unbounded,
                RatioOutcome::BoundFlip(t) => {
                    for &i in &self.w_nz {
                        self.x_basic[i] -= t * dir * self.w_vals[i];
                    }
                    self.state[q] = if dir > 0.0 {
                        VState::AtUpper
                    } else {
                        VState::AtLower
                    };
                    if t <= 1e-12 {
                        stall += 1;
                    } else {
                        stall = 0;
                        bland = self.stall_limit == 0;
                    }
                }
                RatioOutcome::Pivot(p, t, leaver_side) => {
                    let wp = self.w_vals[p];
                    if wp.abs() <= STABILITY_ABS {
                        // Still numerically unusable after a refactorise:
                        // ban this entering column until the basis changes.
                        self.banned.push(q);
                        continue;
                    }
                    for &i in &self.w_nz {
                        self.x_basic[i] -= t * dir * self.w_vals[i];
                    }
                    let enter_from = match self.state[q] {
                        VState::AtLower => self.bounds[q].0,
                        _ => self.bounds[q].1,
                    };
                    let leaver = self.basis[p];
                    self.state[leaver] = leaver_side;
                    self.state[q] = VState::Basic;
                    self.basis[p] = q;
                    self.x_basic[p] = enter_from + dir * t;
                    let entries: Vec<(usize, f64)> = self
                        .w_nz
                        .iter()
                        .filter(|&&i| i != p)
                        .map(|&i| (i, self.w_vals[i]))
                        .collect();
                    self.etas.push(Eta {
                        p,
                        entries,
                        pivot: wp,
                    });
                    self.banned.clear();
                    if t <= 1e-12 {
                        stall += 1;
                    } else {
                        stall = 0;
                        bland = self.stall_limit == 0;
                    }
                }
            }
            if stall >= self.stall_limit {
                bland = true;
            }
        }
        if iteration_cap.is_some_and(|c| c < internal_cap) {
            LoopExit::Degraded
        } else {
            LoopExit::LimitReached
        }
    }

    /// Pick the entering column: Dantzig (most-positive improvement) or
    /// Bland (lowest eligible index) pricing over all nonbasic columns.
    fn price(&self, bland: bool) -> Option<(usize, f64)> {
        let n = self.n_struct;
        let n_base = n + self.m;
        let n_total = self.bounds.len();
        let mut best: Option<(usize, f64)> = None;
        for j in 0..n_total {
            if self.state[j] == VState::Basic {
                continue;
            }
            let (lo, hi) = self.bounds[j];
            if lo >= hi {
                continue; // fixed: can never move
            }
            if self.banned.contains(&j) {
                continue;
            }
            let d = if j < n {
                self.cost[j] - self.a.col_dot(j, &self.duals_y)
            } else if j < n_base {
                self.cost[j] - self.duals_y[j - n]
            } else {
                self.cost[j] - self.duals_y[self.art_rows[j - n_base]]
            };
            let improving = match self.state[j] {
                VState::AtLower => d > EPS,
                VState::AtUpper => d < -EPS,
                VState::Basic => false,
            };
            if !improving {
                continue;
            }
            if bland {
                return Some((j, d));
            }
            if best.is_none_or(|(_, bd)| d.abs() > bd.abs()) {
                best = Some((j, d));
            }
        }
        best
    }

    /// Bounded-variable ratio test for entering column `q` moving in
    /// direction `dir` (+1 from its lower bound, −1 from its upper).
    fn ratio_test(&self, q: usize, dir: f64, bland: bool) -> RatioOutcome {
        let mut best_t = f64::INFINITY;
        let mut best: Option<(usize, VState)> = None;
        for &i in &self.w_nz {
            let eff = dir * self.w_vals[i];
            let b = self.basis[i];
            let (lo, hi) = self.bounds[b];
            let (limit, side) = if eff > PIVOT_TOL {
                if lo.is_finite() {
                    ((self.x_basic[i] - lo) / eff, VState::AtLower)
                } else {
                    continue;
                }
            } else if eff < -PIVOT_TOL {
                if hi.is_finite() {
                    ((self.x_basic[i] - hi) / eff, VState::AtUpper)
                } else {
                    continue;
                }
            } else {
                continue;
            };
            let limit = limit.max(0.0);
            let tie = (limit - best_t).abs() <= EPS;
            let better = limit < best_t - EPS
                || (tie
                    && match best {
                        None => true,
                        Some((bi, _)) => {
                            if bland {
                                self.basis[i] < self.basis[bi]
                            } else {
                                self.w_vals[i].abs() > self.w_vals[bi].abs()
                            }
                        }
                    });
            if better {
                best_t = best_t.min(limit);
                best = Some((i, side));
            }
        }
        let (lo_q, hi_q) = self.bounds[q];
        let flip = if lo_q.is_finite() && hi_q.is_finite() {
            hi_q - lo_q
        } else {
            f64::INFINITY
        };
        match best {
            None if flip.is_infinite() => RatioOutcome::Unbounded,
            None => RatioOutcome::BoundFlip(flip),
            Some((p, side)) => {
                if flip <= best_t {
                    RatioOutcome::BoundFlip(flip)
                } else {
                    RatioOutcome::Pivot(p, best_t, side)
                }
            }
        }
    }

    // ---- canned outcomes ------------------------------------------------

    fn outcome_infeasible(&self) -> LpOutcome {
        LpOutcome {
            solution: Solution {
                status: SolveStatus::Infeasible,
                objective: f64::NEG_INFINITY,
                values: vec![0.0; self.n_struct],
            },
            duals: vec![0.0; self.m],
            basis: None,
            warm_started: false,
        }
    }

    fn outcome_budget_exceeded(&self) -> LpOutcome {
        LpOutcome {
            solution: Solution {
                status: SolveStatus::BudgetExceeded,
                objective: if self.sense_sign > 0.0 {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                },
                values: vec![0.0; self.n_struct],
            },
            duals: vec![0.0; self.m],
            basis: None,
            warm_started: false,
        }
    }
}

/// Solve the continuous (LP) relaxation of a model with the sparse revised
/// simplex, optionally overriding per-variable bounds (used by
/// branch-and-bound). This is the default engine;
/// [`crate::simplex::solve_lp_dense`] is the tableau reference
/// implementation retained for parity testing.
pub fn solve_lp(model: &Model, bound_overrides: Option<&[(f64, f64)]>) -> Solution {
    SparseLp::new(model).solve(bound_overrides).solution
}

/// [`solve_lp`] under a [`SolveBudget`]: when the budget runs out mid-solve
/// the current basic point is returned tagged [`SolveStatus::Degraded`] if
/// it is primal feasible (phase 2 was reached), or
/// [`SolveStatus::BudgetExceeded`] if feasibility was never established.
/// An unlimited budget reproduces [`solve_lp`] exactly.
pub fn solve_lp_budgeted(
    model: &Model,
    bound_overrides: Option<&[(f64, f64)]>,
    budget: &SolveBudget,
) -> Solution {
    SparseLp::new(model)
        .solve_budgeted(bound_overrides, budget)
        .solution
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense};
    use crate::simplex::solve_lp_dense;

    #[test]
    fn solves_textbook_maximisation() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_continuous("y", 0.0, f64::INFINITY, 5.0);
        m.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint(&[(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_constraint(&[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let sol = solve_lp(&m, None);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 36.0).abs() < 1e-9);
        assert!((sol.value(x) - 2.0).abs() < 1e-9);
        assert!((sol.value(y) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn bounds_are_handled_without_rows() {
        // x in [1, 3] enforced directly: max x st. x + y <= 10, y in [0, 2].
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 1.0, 3.0, 1.0);
        let y = m.add_continuous("y", 0.0, 2.0, 1.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 10.0);
        let sol = solve_lp(&m, None);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.value(x) - 3.0).abs() < 1e-9);
        assert!((sol.value(y) - 2.0).abs() < 1e-9);
        // Only one row was ever built.
        assert_eq!(SparseLp::new(&m).n_rows(), 1);
    }

    #[test]
    fn minimisation_with_ge_rows_needs_phase1() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY, 2.0);
        let y = m.add_continuous("y", 0.0, f64::INFINITY, 3.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 4.0);
        m.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 1.0);
        let sol = solve_lp(&m, None);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 8.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_and_unbounded_match_dense_statuses() {
        let mut inf = Model::new(Sense::Maximize);
        let x = inf.add_continuous("x", 0.0, 1.0, 1.0);
        inf.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 2.0);
        assert_eq!(solve_lp(&inf, None).status, SolveStatus::Infeasible);
        assert_eq!(solve_lp_dense(&inf, None).status, SolveStatus::Infeasible);

        let mut unb = Model::new(Sense::Maximize);
        let x = unb.add_continuous("x", 0.0, f64::INFINITY, 1.0);
        let y = unb.add_continuous("y", 0.0, f64::INFINITY, 0.0);
        unb.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Le, 1.0);
        assert_eq!(solve_lp(&unb, None).status, SolveStatus::Unbounded);
        assert_eq!(solve_lp_dense(&unb, None).status, SolveStatus::Unbounded);
    }

    #[test]
    fn equality_rows_and_fixed_vars() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, 2.0, 1.0);
        let y = m.add_continuous("y", 0.0, 4.0, 1.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 5.0);
        let sol = solve_lp(&m, None);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 5.0).abs() < 1e-9);
        assert!(m.is_feasible(&sol.values, 1e-6));
        // Fixing x via overrides changes the optimum accordingly.
        let pinned = solve_lp(&m, Some(&[(2.0, 2.0), (0.0, 4.0)]));
        assert!((pinned.value(x) - 2.0).abs() < 1e-9);
        assert!((pinned.value(y) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn duals_price_columns_correctly() {
        // max 3x st. x <= 4 — the budget row's shadow price is 3.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY, 3.0);
        m.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0);
        let out = SparseLp::new(&m).solve(None);
        assert_eq!(out.solution.status, SolveStatus::Optimal);
        assert!((out.duals[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn warm_start_from_parent_bounds_is_used() {
        // A small LP solved twice: second solve warm-starts from the first
        // basis with a tightened bound on a nonbasic variable.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, 4.0, 3.0);
        let y = m.add_continuous("y", 0.0, 6.0, 5.0);
        m.add_constraint(&[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let mut ws = SparseLp::new(&m);
        let first = ws.solve(None);
        assert_eq!(first.solution.status, SolveStatus::Optimal);
        let warm = first.basis.as_ref();
        let again = ws.solve_warm(
            Some(&[(0.0, 4.0), (0.0, 6.0)]),
            &SolveBudget::unlimited(),
            warm,
        );
        assert!(again.warm_started);
        assert_eq!(again.solution.status, SolveStatus::Optimal);
        assert!((again.solution.objective - first.solution.objective).abs() < 1e-9);
    }

    #[test]
    fn hand_built_basis_hint_warm_starts_a_colgen_shaped_master() {
        // A tiny column-generation master: two convexity Eq rows (which a
        // cold start can only satisfy through phase-1 artificials) plus a
        // budget row. Hinting the breakpoint-0 column of each cell and the
        // budget slack as basic skips phase 1 entirely.
        let mut m = Model::new(Sense::Maximize);
        let a0 = m.add_continuous("a0", 0.0, f64::INFINITY, 0.0);
        let a1 = m.add_continuous("a1", 0.0, f64::INFINITY, 2.0);
        let b0 = m.add_continuous("b0", 0.0, f64::INFINITY, 0.0);
        let b1 = m.add_continuous("b1", 0.0, f64::INFINITY, 5.0);
        m.add_constraint(&[(a0, 1.0), (a1, 1.0)], ConstraintOp::Eq, 1.0);
        m.add_constraint(&[(b0, 1.0), (b1, 1.0)], ConstraintOp::Eq, 1.0);
        m.add_constraint(&[(a1, 2.0), (b1, 3.0)], ConstraintOp::Le, 4.0);
        // Structural columns 0..4 (a0, a1, b0, b1), logicals 4..7; basic =
        // {a0, b0, budget slack}.
        let hint = BasisSnapshot::from_basic_columns(3, 4, &[0, 2, 6]).unwrap();
        let out = SparseLp::new(&m).solve_warm(None, &SolveBudget::unlimited(), Some(&hint));
        assert!(out.warm_started);
        assert_eq!(out.solution.status, SolveStatus::Optimal);
        // Optimum: b1 = 1 (utility 5, cost 3), a1 = 1/2 (utility 1).
        assert!((out.solution.objective - 6.0).abs() < 1e-9);

        // Impossible shapes are rejected up front; a plausible-looking but
        // singular hint (two columns hitting the same row) falls back to a
        // cold start and still reaches the optimum.
        assert!(BasisSnapshot::from_basic_columns(3, 4, &[0, 2]).is_none());
        assert!(BasisSnapshot::from_basic_columns(3, 4, &[0, 2, 9]).is_none());
        assert!(BasisSnapshot::from_basic_columns(3, 4, &[0, 2, 2]).is_none());
        let singular = BasisSnapshot::from_basic_columns(3, 4, &[0, 1, 6]).unwrap();
        let fallback =
            SparseLp::new(&m).solve_warm(None, &SolveBudget::unlimited(), Some(&singular));
        assert!(!fallback.warm_started);
        assert_eq!(fallback.solution.status, SolveStatus::Optimal);
        assert!((fallback.solution.objective - 6.0).abs() < 1e-9);
    }

    #[test]
    fn bland_only_mode_still_terminates_at_the_optimum() {
        // Beale's classic cycling instance: Dantzig with unlucky
        // tie-breaking cycles forever; Bland's rule terminates. Forcing
        // stall_limit = 0 runs the whole solve under Bland's rule.
        let mut m = Model::new(Sense::Maximize);
        let x1 = m.add_continuous("x1", 0.0, f64::INFINITY, 0.75);
        let x2 = m.add_continuous("x2", 0.0, f64::INFINITY, -150.0);
        let x3 = m.add_continuous("x3", 0.0, f64::INFINITY, 0.02);
        let x4 = m.add_continuous("x4", 0.0, f64::INFINITY, -6.0);
        m.add_constraint(
            &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            ConstraintOp::Le,
            0.0,
        );
        m.add_constraint(
            &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            ConstraintOp::Le,
            0.0,
        );
        m.add_constraint(&[(x3, 1.0)], ConstraintOp::Le, 1.0);
        let mut ws = SparseLp::new(&m);
        ws.set_stall_limit(0);
        let out = ws.solve(None);
        assert_eq!(out.solution.status, SolveStatus::Optimal);
        assert!((out.solution.objective - 0.05).abs() < 1e-9);
        // And the default (Dantzig + stall fallback) agrees.
        let default = solve_lp(&m, None);
        assert_eq!(default.status, SolveStatus::Optimal);
        assert!((default.objective - 0.05).abs() < 1e-9);
    }

    #[test]
    fn budget_statuses_mirror_the_dense_engine() {
        // Expired deadline inside phase 1 → BudgetExceeded.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY, 1.0);
        m.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 2.0);
        m.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 10.0);
        let sol = solve_lp_budgeted(
            &m,
            None,
            &SolveBudget::with_time_limit(std::time::Duration::ZERO),
        );
        assert_eq!(sol.status, SolveStatus::BudgetExceeded);

        // Expired deadline with a feasible start → Degraded feasible point.
        let mut m2 = Model::new(Sense::Maximize);
        let x = m2.add_continuous("x", 0.0, 5.0, 1.0);
        m2.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0);
        let sol2 = solve_lp_budgeted(
            &m2,
            None,
            &SolveBudget::with_time_limit(std::time::Duration::ZERO),
        );
        assert_eq!(sol2.status, SolveStatus::Degraded);
        assert!(m2.is_feasible(&sol2.values, 1e-6));
    }

    #[test]
    fn generous_budget_is_a_behavioural_noop() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_continuous("y", 0.0, f64::INFINITY, 5.0);
        m.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint(&[(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_constraint(&[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let free = solve_lp(&m, None);
        let budgeted = solve_lp_budgeted(
            &m,
            None,
            &SolveBudget::with_time_limit(std::time::Duration::from_secs(3600)),
        );
        assert_eq!(budgeted.status, free.status);
        assert_eq!(budgeted.values, free.values);
        assert_eq!(budgeted.objective, free.objective);
    }

    #[test]
    fn degenerate_constraints_do_not_cycle() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 0.0, f64::INFINITY, 10.0);
        let y = m.add_continuous("y", 0.0, f64::INFINITY, -57.0);
        let z = m.add_continuous("z", 0.0, f64::INFINITY, -9.0);
        let w = m.add_continuous("w", 0.0, f64::INFINITY, -24.0);
        m.add_constraint(
            &[(x, 0.5), (y, -5.5), (z, -2.5), (w, 9.0)],
            ConstraintOp::Le,
            0.0,
        );
        m.add_constraint(
            &[(x, 0.5), (y, -1.5), (z, -0.5), (w, 1.0)],
            ConstraintOp::Le,
            0.0,
        );
        m.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 1.0);
        let sol = solve_lp(&m, None);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_constraint_models_degrade_to_bound_optimisation() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", -0.0, 7.0, 2.0);
        let y = m.add_continuous("y", 1.0, 3.0, -1.0);
        let sol = solve_lp(&m, None);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.value(x) - 7.0).abs() < 1e-12);
        assert!((sol.value(y) - 1.0).abs() < 1e-12);
        // Unbounded via bounds alone.
        let mut m2 = Model::new(Sense::Maximize);
        m2.add_continuous("x", 0.0, f64::INFINITY, 1.0);
        assert_eq!(solve_lp(&m2, None).status, SolveStatus::Unbounded);
    }

    #[test]
    fn agrees_with_dense_on_random_instances() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for trial in 0..40 {
            let n = rng.gen_range(1..10);
            let mut m = Model::new(if rng.gen::<f64>() < 0.5 {
                Sense::Maximize
            } else {
                Sense::Minimize
            });
            let vars: Vec<_> = (0..n)
                .map(|i| {
                    let lo = rng.gen_range(-2.0..1.0);
                    let hi = if rng.gen::<f64>() < 0.3 {
                        f64::INFINITY
                    } else {
                        lo + rng.gen_range(0.0..5.0)
                    };
                    m.add_continuous(&format!("x{i}"), lo, hi, rng.gen_range(-3.0..3.0))
                })
                .collect();
            for _ in 0..rng.gen_range(1..8) {
                let mut terms = Vec::new();
                for &v in &vars {
                    if rng.gen::<f64>() < 0.5 {
                        terms.push((v, rng.gen_range(-2.0..2.0)));
                    }
                }
                if terms.is_empty() {
                    continue;
                }
                let op = match rng.gen_range(0..3) {
                    0 => ConstraintOp::Le,
                    1 => ConstraintOp::Ge,
                    _ => ConstraintOp::Eq,
                };
                m.add_constraint(&terms, op, rng.gen_range(-4.0..6.0));
            }
            let dense = solve_lp_dense(&m, None);
            let sparse = solve_lp(&m, None);
            assert_eq!(
                sparse.status, dense.status,
                "trial {trial}: sparse {:?} vs dense {:?}",
                sparse.status, dense.status
            );
            if dense.status == SolveStatus::Optimal {
                assert!(
                    (sparse.objective - dense.objective).abs()
                        <= 1e-9 * dense.objective.abs().max(1.0),
                    "trial {trial}: sparse {} vs dense {}",
                    sparse.objective,
                    dense.objective
                );
                assert!(m.is_feasible(&sparse.values, 1e-6));
            }
        }
    }
}
