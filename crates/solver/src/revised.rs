//! Sparse revised simplex with direct bounded-variable handling.
//!
//! This is the LP engine behind [`solve_lp`] and [`SparseLp`], which the
//! allocation-LP oracle test of the patrol planner solves with. Unlike the
//! dense tableau of
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
//! violates the slack bounds. Hitting the anti-cycling iteration cap
//! returns the current basic point tagged `LimitReached`, like the dense
//! path.

use crate::csc::CscMatrix;
use crate::lu::{Eta, LuFactors};
use crate::model::{ConstraintOp, Model, Sense, Solution, SolveStatus};

/// Upper bounds at or above this value are treated as +∞ (dense-path parity).
const UNBOUNDED: f64 = 1e15;
const EPS: f64 = 1e-9;
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

/// Where a nonbasic variable currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VState {
    Basic,
    AtLower,
    AtUpper,
}

enum LoopExit {
    Optimal,
    Unbounded,
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
/// solver scratch are allocated once and reused across repeated solves.
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
    /// Build a workspace for a model. The model (columns, bounds,
    /// objective, row senses) is fixed at this point.
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

    /// Solve the LP, like [`solve_lp`] but reusing this workspace.
    pub fn solve(&mut self) -> Solution {
        let n = self.n_struct;
        let m = self.m;
        let n_base = n + m;

        // Structural bounds; `Model` guarantees lower <= upper.
        let mut eff: Vec<(f64, f64)> = Vec::with_capacity(n_base);
        for &(lo, hi) in &self.model_bounds {
            eff.push((lo, if hi >= UNBOUNDED { f64::INFINITY } else { hi }));
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

        // A numerically singular refactorisation mid-solve restarts the
        // solve once from the slack basis.
        for attempt in 0..2 {
            if !self.cold_start() {
                // Even the slack/artificial crash basis failed to
                // factorise: numerically hopeless, mirror the dense
                // engine's "numerical failure reads as infeasible".
                return self.outcome_infeasible();
            }

            // ---- Phase 1 (only when artificials exist) ----------------
            if !self.art_rows.is_empty() {
                self.set_phase1_cost();
                match self.simplex_loop() {
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
            let status = match self.simplex_loop() {
                LoopExit::Optimal => SolveStatus::Optimal,
                LoopExit::Unbounded => {
                    return Solution {
                        status: SolveStatus::Unbounded,
                        objective: f64::INFINITY,
                        values: vec![0.0; n],
                    };
                }
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
            return Solution {
                status,
                objective,
                values,
            };
        }
        // Unreachable: the loop either returns or retries exactly once.
        self.outcome_infeasible()
    }

    // ---- start-up ------------------------------------------------------

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

    fn simplex_loop(&mut self) -> LoopExit {
        let n_total = self.bounds.len();
        let max_iterations = 20_000usize.max(50 * (self.m + n_total));
        let mut bland = self.stall_limit == 0;
        let mut stall = 0usize;
        for _ in 0..max_iterations {
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
        LoopExit::LimitReached
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

    fn outcome_infeasible(&self) -> Solution {
        Solution {
            status: SolveStatus::Infeasible,
            objective: f64::NEG_INFINITY,
            values: vec![0.0; self.n_struct],
        }
    }
}

/// Solve a model with the sparse revised simplex. This is the default
/// engine; [`crate::simplex::solve_lp_dense`] is the tableau reference
/// implementation retained for parity testing.
pub fn solve_lp(model: &Model) -> Solution {
    SparseLp::new(model).solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense};
    use crate::simplex::solve_lp_dense;

    #[test]
    fn solves_textbook_maximisation() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_continuous(0.0, f64::INFINITY, 3.0).unwrap();
        let y = m.try_add_continuous(0.0, f64::INFINITY, 5.0).unwrap();
        m.try_add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0)
            .unwrap();
        m.try_add_constraint(&[(y, 2.0)], ConstraintOp::Le, 12.0)
            .unwrap();
        m.try_add_constraint(&[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0)
            .unwrap();
        let sol = solve_lp(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 36.0).abs() < 1e-9);
        assert!((sol.value(x) - 2.0).abs() < 1e-9);
        assert!((sol.value(y) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn bounds_are_handled_without_rows() {
        // x in [1, 3] enforced directly: max x st. x + y <= 10, y in [0, 2].
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_continuous(1.0, 3.0, 1.0).unwrap();
        let y = m.try_add_continuous(0.0, 2.0, 1.0).unwrap();
        m.try_add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 10.0)
            .unwrap();
        let sol = solve_lp(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.value(x) - 3.0).abs() < 1e-9);
        assert!((sol.value(y) - 2.0).abs() < 1e-9);
        // Only one row was ever built.
        assert_eq!(SparseLp::new(&m).n_rows(), 1);
    }

    #[test]
    fn minimisation_with_ge_rows_needs_phase1() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.try_add_continuous(0.0, f64::INFINITY, 2.0).unwrap();
        let y = m.try_add_continuous(0.0, f64::INFINITY, 3.0).unwrap();
        m.try_add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 4.0)
            .unwrap();
        m.try_add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 1.0)
            .unwrap();
        let sol = solve_lp(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 8.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_and_unbounded_match_dense_statuses() {
        let mut inf = Model::new(Sense::Maximize);
        let x = inf.try_add_continuous(0.0, 1.0, 1.0).unwrap();
        inf.try_add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 2.0)
            .unwrap();
        assert_eq!(solve_lp(&inf).status, SolveStatus::Infeasible);
        assert_eq!(solve_lp_dense(&inf).status, SolveStatus::Infeasible);

        let mut unb = Model::new(Sense::Maximize);
        let x = unb.try_add_continuous(0.0, f64::INFINITY, 1.0).unwrap();
        let y = unb.try_add_continuous(0.0, f64::INFINITY, 0.0).unwrap();
        unb.try_add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Le, 1.0)
            .unwrap();
        assert_eq!(solve_lp(&unb).status, SolveStatus::Unbounded);
        assert_eq!(solve_lp_dense(&unb).status, SolveStatus::Unbounded);
    }

    #[test]
    fn equality_rows_and_fixed_vars() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_continuous(0.0, 2.0, 1.0).unwrap();
        let y = m.try_add_continuous(0.0, 4.0, 1.0).unwrap();
        m.try_add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 5.0)
            .unwrap();
        let sol = solve_lp(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 5.0).abs() < 1e-9);
        assert!(m.is_feasible(&sol.values, 1e-6));
        // Fixing x through its bounds changes the optimum accordingly.
        let mut fixed = Model::new(Sense::Maximize);
        let x = fixed.try_add_continuous(2.0, 2.0, 1.0).unwrap();
        let y = fixed.try_add_continuous(0.0, 4.0, 1.0).unwrap();
        fixed
            .try_add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 5.0)
            .unwrap();
        let pinned = solve_lp(&fixed);
        assert!((pinned.value(x) - 2.0).abs() < 1e-9);
        assert!((pinned.value(y) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bland_only_mode_still_terminates_at_the_optimum() {
        // Beale's classic cycling instance: Dantzig with unlucky
        // tie-breaking cycles forever; Bland's rule terminates. Forcing
        // stall_limit = 0 runs the whole solve under Bland's rule.
        let mut m = Model::new(Sense::Maximize);
        let x1 = m.try_add_continuous(0.0, f64::INFINITY, 0.75).unwrap();
        let x2 = m.try_add_continuous(0.0, f64::INFINITY, -150.0).unwrap();
        let x3 = m.try_add_continuous(0.0, f64::INFINITY, 0.02).unwrap();
        let x4 = m.try_add_continuous(0.0, f64::INFINITY, -6.0).unwrap();
        m.try_add_constraint(
            &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            ConstraintOp::Le,
            0.0,
        )
        .unwrap();
        m.try_add_constraint(
            &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            ConstraintOp::Le,
            0.0,
        )
        .unwrap();
        m.try_add_constraint(&[(x3, 1.0)], ConstraintOp::Le, 1.0)
            .unwrap();
        let mut ws = SparseLp::new(&m);
        ws.set_stall_limit(0);
        let out = ws.solve();
        assert_eq!(out.status, SolveStatus::Optimal);
        assert!((out.objective - 0.05).abs() < 1e-9);
        // And the default (Dantzig + stall fallback) agrees.
        let default = solve_lp(&m);
        assert_eq!(default.status, SolveStatus::Optimal);
        assert!((default.objective - 0.05).abs() < 1e-9);
    }

    #[test]
    fn degenerate_constraints_do_not_cycle() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_continuous(0.0, f64::INFINITY, 10.0).unwrap();
        let y = m.try_add_continuous(0.0, f64::INFINITY, -57.0).unwrap();
        let z = m.try_add_continuous(0.0, f64::INFINITY, -9.0).unwrap();
        let w = m.try_add_continuous(0.0, f64::INFINITY, -24.0).unwrap();
        m.try_add_constraint(
            &[(x, 0.5), (y, -5.5), (z, -2.5), (w, 9.0)],
            ConstraintOp::Le,
            0.0,
        )
        .unwrap();
        m.try_add_constraint(
            &[(x, 0.5), (y, -1.5), (z, -0.5), (w, 1.0)],
            ConstraintOp::Le,
            0.0,
        )
        .unwrap();
        m.try_add_constraint(&[(x, 1.0)], ConstraintOp::Le, 1.0)
            .unwrap();
        let sol = solve_lp(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_constraint_models_degrade_to_bound_optimisation() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_continuous(-0.0, 7.0, 2.0).unwrap();
        let y = m.try_add_continuous(1.0, 3.0, -1.0).unwrap();
        let sol = solve_lp(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.value(x) - 7.0).abs() < 1e-12);
        assert!((sol.value(y) - 1.0).abs() < 1e-12);
        // Unbounded via bounds alone.
        let mut m2 = Model::new(Sense::Maximize);
        m2.try_add_continuous(0.0, f64::INFINITY, 1.0).unwrap();
        assert_eq!(solve_lp(&m2).status, SolveStatus::Unbounded);
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
                .map(|_| {
                    let lo = rng.gen_range(-2.0..1.0);
                    let hi = if rng.gen::<f64>() < 0.3 {
                        f64::INFINITY
                    } else {
                        lo + rng.gen_range(0.0..5.0)
                    };
                    m.try_add_continuous(lo, hi, rng.gen_range(-3.0..3.0))
                        .unwrap()
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
                m.try_add_constraint(&terms, op, rng.gen_range(-4.0..6.0))
                    .unwrap();
            }
            let dense = solve_lp_dense(&m);
            let sparse = solve_lp(&m);
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
