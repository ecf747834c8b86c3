//! Dense two-phase primal simplex over a [`Model`].
//!
//! The implementation converts the model to standard form (shift every
//! variable to a non-negative offset from its lower bound, add explicit
//! upper-bound rows for finitely-bounded variables, add slack/surplus and
//! artificial columns) and runs a textbook two-phase tableau simplex with
//! Dantzig pricing and a Bland's-rule fallback for anti-cycling. Its work
//! grows with rows × columns, so no planner path uses it: it is the
//! reference the sparse engine of [`crate::revised`] is parity-tested
//! against.

use std::time::Instant;

use crate::budget::{deadline_expired, SolveBudget};
use crate::model::{ConstraintOp, Model, Sense, Solution, SolveStatus};

/// Upper bounds at or above this value are treated as +∞.
const UNBOUNDED: f64 = 1e15;
const EPS: f64 = 1e-9;
/// The wall-clock deadline is polled once per this many simplex
/// iterations; a single iteration is far below any meaningful deadline, so
/// amortising the clock read keeps the budgeted path as fast as the
/// unbudgeted one.
const DEADLINE_STRIDE: usize = 64;

/// Solve a model with the dense tableau engine. Retained as the reference
/// implementation for parity-testing the default sparse engine
/// ([`crate::revised::solve_lp`]); prefer `solve_lp` for production use.
pub fn solve_lp_dense(model: &Model) -> Solution {
    solve_lp_inner(model, None, None)
}

/// [`solve_lp_dense`] under a [`SolveBudget`]: when the budget runs out mid-solve
/// the current basic point is returned tagged
/// [`SolveStatus::Degraded`] if it is primal feasible (phase 2 was
/// reached), or [`SolveStatus::BudgetExceeded`] if feasibility was never
/// established (the budget died inside phase 1). An unlimited budget
/// reproduces [`solve_lp_dense`] exactly.
pub fn solve_lp_dense_budgeted(model: &Model, budget: &SolveBudget) -> Solution {
    solve_lp_inner(model, budget.max_lp_iterations, budget.deadline())
}

fn solve_lp_inner(
    model: &Model,
    iteration_cap: Option<usize>,
    deadline: Option<Instant>,
) -> Solution {
    let n = model.n_vars();
    let bounds: Vec<(f64, f64)> = model.vars.iter().map(|v| (v.lower, v.upper)).collect();

    // Shift x = lower + s with s >= 0; collect rows.
    #[derive(Clone)]
    struct Row {
        coeffs: Vec<(usize, f64)>,
        op: ConstraintOp,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(model.n_constraints() + n);
    for c in &model.constraints {
        let shift: f64 = c.terms.iter().map(|&(i, coeff)| coeff * bounds[i].0).sum();
        rows.push(Row {
            coeffs: c.terms.clone(),
            op: c.op,
            rhs: c.rhs - shift,
        });
    }
    // Upper-bound rows for finitely-bounded variables.
    for (i, &(lo, hi)) in bounds.iter().enumerate() {
        if hi < UNBOUNDED {
            let width = hi - lo;
            rows.push(Row {
                coeffs: vec![(i, 1.0)],
                op: ConstraintOp::Le,
                rhs: width.max(0.0),
            });
        }
    }

    // Objective in shifted coordinates (always maximise internally).
    let sign = match model.sense() {
        Sense::Maximize => 1.0,
        Sense::Minimize => -1.0,
    };
    let obj: Vec<f64> = (0..n).map(|i| sign * model.vars[i].objective).collect();
    let obj_offset: f64 = (0..n)
        .map(|i| sign * model.vars[i].objective * bounds[i].0)
        .sum();

    let m = rows.len();
    // Count slack and artificial columns.
    let mut n_slack = 0usize;
    let mut n_artificial = 0usize;
    for r in &mut rows {
        if r.rhs < 0.0 {
            // Normalise to rhs >= 0 by flipping the row.
            for (_, c) in r.coeffs.iter_mut() {
                *c = -*c;
            }
            r.rhs = -r.rhs;
            r.op = match r.op {
                ConstraintOp::Le => ConstraintOp::Ge,
                ConstraintOp::Ge => ConstraintOp::Le,
                ConstraintOp::Eq => ConstraintOp::Eq,
            };
        }
        match r.op {
            ConstraintOp::Le => n_slack += 1,
            ConstraintOp::Ge => {
                n_slack += 1;
                n_artificial += 1;
            }
            ConstraintOp::Eq => n_artificial += 1,
        }
    }

    let total_cols = n + n_slack + n_artificial;
    let width = total_cols + 1; // + rhs column
    let mut tableau = vec![0.0f64; m * width];
    let mut basis = vec![0usize; m];
    let mut slack_idx = n;
    let mut art_idx = n + n_slack;
    let artificial_start = n + n_slack;

    for (r, row) in rows.iter().enumerate() {
        for &(i, c) in &row.coeffs {
            tableau[r * width + i] += c;
        }
        tableau[r * width + total_cols] = row.rhs;
        match row.op {
            ConstraintOp::Le => {
                tableau[r * width + slack_idx] = 1.0;
                basis[r] = slack_idx;
                slack_idx += 1;
            }
            ConstraintOp::Ge => {
                tableau[r * width + slack_idx] = -1.0;
                slack_idx += 1;
                tableau[r * width + art_idx] = 1.0;
                basis[r] = art_idx;
                art_idx += 1;
            }
            ConstraintOp::Eq => {
                tableau[r * width + art_idx] = 1.0;
                basis[r] = art_idx;
                art_idx += 1;
            }
        }
    }

    // Phase 1: minimise the sum of artificials (maximise the negative sum).
    if n_artificial > 0 {
        let mut phase1 = vec![0.0f64; total_cols];
        for slot in phase1.iter_mut().take(total_cols).skip(artificial_start) {
            *slot = -1.0;
        }
        let status = run_simplex(
            &mut tableau,
            &mut basis,
            &phase1,
            m,
            total_cols,
            width,
            iteration_cap,
            deadline,
        );
        if status == SolveStatus::Unbounded {
            // Phase 1 is bounded by construction; treat as numerical failure.
            return infeasible(n);
        }
        if status == SolveStatus::Degraded {
            // The budget died before feasibility was established: there is
            // no point worth returning.
            return budget_exceeded(model, n);
        }
        let art_sum: f64 = basis
            .iter()
            .enumerate()
            .filter(|(_, &b)| b >= artificial_start)
            .map(|(r, _)| tableau[r * width + total_cols])
            .sum();
        let phase1_obj: f64 =
            phase1_objective(&tableau, &basis, m, total_cols, width, artificial_start);
        if art_sum > 1e-6 || phase1_obj > 1e-6 {
            return infeasible(n);
        }
        // Drive any remaining artificial variables out of the basis when
        // possible; otherwise their rows are redundant with zero rhs.
        for r in 0..m {
            if basis[r] >= artificial_start {
                if let Some(col) =
                    (0..artificial_start).find(|&c| tableau[r * width + c].abs() > 1e-7)
                {
                    pivot(&mut tableau, &mut basis, r, col, m, width);
                }
            }
        }
    }

    // Phase 2: zero out the artificial columns and optimise the real objective.
    if n_artificial > 0 {
        for r in 0..m {
            for c in artificial_start..total_cols {
                tableau[r * width + c] = 0.0;
            }
        }
    }
    let mut phase2 = vec![0.0f64; total_cols];
    phase2[..n].copy_from_slice(&obj);
    let status = run_simplex(
        &mut tableau,
        &mut basis,
        &phase2,
        m,
        artificial_start,
        width,
        iteration_cap,
        deadline,
    );
    if status == SolveStatus::Unbounded {
        return Solution {
            status: SolveStatus::Unbounded,
            objective: f64::INFINITY,
            values: vec![0.0; n],
        };
    }

    // Extract the solution.
    let mut shifted = vec![0.0f64; total_cols];
    for r in 0..m {
        shifted[basis[r]] = tableau[r * width + total_cols];
    }
    let values: Vec<f64> = (0..n).map(|i| bounds[i].0 + shifted[i]).collect();
    let objective_internal: f64 = (0..n).map(|i| obj[i] * shifted[i]).sum::<f64>() + obj_offset;
    Solution {
        status,
        objective: sign * objective_internal,
        values,
    }
}

fn infeasible(n: usize) -> Solution {
    Solution {
        status: SolveStatus::Infeasible,
        objective: f64::NEG_INFINITY,
        values: vec![0.0; n],
    }
}

fn budget_exceeded(model: &Model, n: usize) -> Solution {
    Solution {
        status: SolveStatus::BudgetExceeded,
        objective: match model.sense() {
            Sense::Maximize => f64::NEG_INFINITY,
            Sense::Minimize => f64::INFINITY,
        },
        values: vec![0.0; n],
    }
}

fn phase1_objective(
    tableau: &[f64],
    basis: &[usize],
    m: usize,
    total_cols: usize,
    width: usize,
    artificial_start: usize,
) -> f64 {
    let mut total = 0.0;
    for r in 0..m {
        if basis[r] >= artificial_start && basis[r] < total_cols {
            total += tableau[r * width + total_cols];
        }
    }
    total
}

/// Run the primal simplex maximising `objective` over the current tableau.
/// `usable_cols` restricts the entering columns (e.g. excluding artificials
/// during phase 2). `iteration_cap` / `deadline` are the caller's budget:
/// hitting either returns [`SolveStatus::Degraded`] with the tableau at
/// its current (primal-feasible) basis, distinct from the internal
/// anti-cycling cap's [`SolveStatus::LimitReached`].
#[allow(clippy::too_many_arguments)]
fn run_simplex(
    tableau: &mut [f64],
    basis: &mut [usize],
    objective: &[f64],
    m: usize,
    usable_cols: usize,
    width: usize,
    iteration_cap: Option<usize>,
    deadline: Option<std::time::Instant>,
) -> SolveStatus {
    let internal_cap = 20_000usize.max(50 * (m + usable_cols));
    let max_iterations = iteration_cap.map_or(internal_cap, |c| c.min(internal_cap));
    for iteration in 0..max_iterations {
        if iteration % DEADLINE_STRIDE == 0 && deadline_expired(deadline) {
            return SolveStatus::Degraded;
        }
        // Reduced costs: c_j - c_B B^-1 A_j, computed from the tableau.
        let mut entering: Option<usize> = None;
        let mut best_reduced = EPS;
        let bland = iteration > max_iterations / 2;
        for j in 0..usable_cols {
            if basis.contains(&j) {
                continue;
            }
            let mut reduced = objective[j];
            for r in 0..m {
                reduced -= objective[basis[r]] * tableau[r * width + j];
            }
            if reduced > best_reduced {
                entering = Some(j);
                best_reduced = reduced;
                if bland {
                    break;
                }
            }
        }
        let Some(col) = entering else {
            return SolveStatus::Optimal;
        };

        // Ratio test.
        let mut leaving: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for r in 0..m {
            let a = tableau[r * width + col];
            if a > EPS {
                let ratio = tableau[r * width + width - 1] / a;
                if ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS && leaving.is_none_or(|l| basis[r] < basis[l]))
                {
                    best_ratio = ratio;
                    leaving = Some(r);
                }
            }
        }
        let Some(row) = leaving else {
            return SolveStatus::Unbounded;
        };
        pivot(tableau, basis, row, col, m, width);
    }
    if iteration_cap.is_some_and(|c| c < internal_cap) {
        SolveStatus::Degraded
    } else {
        SolveStatus::LimitReached
    }
}

fn pivot(tableau: &mut [f64], basis: &mut [usize], row: usize, col: usize, m: usize, width: usize) {
    let pivot_val = tableau[row * width + col];
    debug_assert!(pivot_val.abs() > 1e-12, "pivot on a ~zero element");
    for c in 0..width {
        tableau[row * width + c] /= pivot_val;
    }
    for r in 0..m {
        if r == row {
            continue;
        }
        let factor = tableau[r * width + col];
        if factor.abs() < 1e-14 {
            continue;
        }
        for c in 0..width {
            tableau[r * width + c] -= factor * tableau[row * width + c];
        }
    }
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense};

    #[test]
    fn solves_textbook_maximisation() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> x=2, y=6, obj=36.
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_continuous(0.0, f64::INFINITY, 3.0).unwrap();
        let y = m.try_add_continuous(0.0, f64::INFINITY, 5.0).unwrap();
        m.try_add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0)
            .unwrap();
        m.try_add_constraint(&[(y, 2.0)], ConstraintOp::Le, 12.0)
            .unwrap();
        m.try_add_constraint(&[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0)
            .unwrap();
        let sol = solve_lp_dense(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 36.0).abs() < 1e-6);
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
        assert!((sol.value(y) - 6.0).abs() < 1e-6);
        assert!(m.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn solves_minimisation_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 -> x=4? no: put all weight on x
        // (cheaper): x=4, y=0, obj=8; but x>=1 already satisfied.
        let mut m = Model::new(Sense::Minimize);
        let x = m.try_add_continuous(0.0, f64::INFINITY, 2.0).unwrap();
        let y = m.try_add_continuous(0.0, f64::INFINITY, 3.0).unwrap();
        m.try_add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 4.0)
            .unwrap();
        m.try_add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 1.0)
            .unwrap();
        let sol = solve_lp_dense(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 8.0).abs() < 1e-6);
        assert!((sol.value(x) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn handles_equality_constraints_and_bounds() {
        // max x + y s.t. x + y = 5, x in [0,2], y in [0,4] -> obj 5, x in [1,2].
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_continuous(0.0, 2.0, 1.0).unwrap();
        let y = m.try_add_continuous(0.0, 4.0, 1.0).unwrap();
        m.try_add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 5.0)
            .unwrap();
        let sol = solve_lp_dense(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 5.0).abs() < 1e-6);
        assert!(m.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn reports_infeasible() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_continuous(0.0, 1.0, 1.0).unwrap();
        m.try_add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 2.0)
            .unwrap();
        let sol = solve_lp_dense(&m);
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn reports_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_continuous(0.0, f64::INFINITY, 1.0).unwrap();
        let y = m.try_add_continuous(0.0, f64::INFINITY, 0.0).unwrap();
        m.try_add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Le, 1.0)
            .unwrap();
        let sol = solve_lp_dense(&m);
        assert_eq!(sol.status, SolveStatus::Unbounded);
    }

    #[test]
    fn respects_nonzero_lower_bounds() {
        // min x + y with x >= 2, y >= 3, x + y >= 6 -> 6.
        let mut m = Model::new(Sense::Minimize);
        let x = m.try_add_continuous(2.0, f64::INFINITY, 1.0).unwrap();
        let y = m.try_add_continuous(3.0, f64::INFINITY, 1.0).unwrap();
        m.try_add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 6.0)
            .unwrap();
        let sol = solve_lp_dense(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 6.0).abs() < 1e-6);
        assert!(sol.value(x) >= 2.0 - 1e-9 && sol.value(y) >= 3.0 - 1e-9);
    }

    #[test]
    fn degenerate_constraints_do_not_cycle() {
        // A classic degenerate LP; must terminate with the optimum.
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
        let sol = solve_lp_dense(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 1.0).abs() < 1e-5);
    }

    #[test]
    fn generous_budget_reproduces_unbudgeted_solve_exactly() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_continuous(0.0, f64::INFINITY, 3.0).unwrap();
        let y = m.try_add_continuous(0.0, f64::INFINITY, 5.0).unwrap();
        m.try_add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0)
            .unwrap();
        m.try_add_constraint(&[(y, 2.0)], ConstraintOp::Le, 12.0)
            .unwrap();
        m.try_add_constraint(&[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0)
            .unwrap();
        let free = solve_lp_dense(&m);
        let budgeted = solve_lp_dense_budgeted(
            &m,
            &crate::budget::SolveBudget::with_time_limit(std::time::Duration::from_secs(3600)),
        );
        assert_eq!(budgeted.status, free.status);
        assert_eq!(budgeted.values, free.values);
        assert_eq!(budgeted.objective, free.objective);
    }

    #[test]
    fn expired_deadline_yields_typed_budget_status_not_a_hang() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_continuous(0.0, f64::INFINITY, 1.0).unwrap();
        m.try_add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 2.0)
            .unwrap();
        m.try_add_constraint(&[(x, 1.0)], ConstraintOp::Le, 10.0)
            .unwrap();
        let sol = solve_lp_dense_budgeted(
            &m,
            &crate::budget::SolveBudget::with_time_limit(std::time::Duration::ZERO),
        );
        // Phase 1 never ran an iteration: no feasible point exists yet.
        assert_eq!(sol.status, SolveStatus::BudgetExceeded);
    }

    #[test]
    fn iteration_cap_returns_degraded_feasible_point() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        // An all-Le LP needs no phase 1, so the origin basis is feasible
        // and any iteration cap still leaves a primal-feasible point.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..30)
            .map(|_| {
                m.try_add_continuous(0.0, 4.0, rng.gen_range(0.1..1.0))
                    .unwrap()
            })
            .collect();
        for _ in 0..20 {
            let mut terms: Vec<(crate::model::Variable, f64)> = Vec::new();
            for &v in &vars {
                if rng.gen::<f64>() < 0.4 {
                    terms.push((v, rng.gen_range(0.1..1.0)));
                }
            }
            if !terms.is_empty() {
                m.try_add_constraint(&terms, ConstraintOp::Le, rng.gen_range(2.0..8.0))
                    .unwrap();
            }
        }
        let full = solve_lp_dense(&m);
        assert_eq!(full.status, SolveStatus::Optimal);
        let capped = solve_lp_dense_budgeted(
            &m,
            &crate::budget::SolveBudget {
                time_limit: None,
                max_lp_iterations: Some(1),
            },
        );
        assert_eq!(capped.status, SolveStatus::Degraded);
        assert!(m.is_feasible(&capped.values, 1e-6));
        assert!(capped.objective <= full.objective + 1e-9);
    }

    #[test]
    fn larger_random_feasible_lp_is_solved_and_feasible() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..40)
            .map(|_| {
                m.try_add_continuous(0.0, 5.0, rng.gen_range(0.1..1.0))
                    .unwrap()
            })
            .collect();
        for _ in 0..25 {
            let mut terms: Vec<(crate::model::Variable, f64)> = Vec::new();
            for &v in &vars {
                if rng.gen::<f64>() < 0.3 {
                    terms.push((v, rng.gen_range(0.1..1.0)));
                }
            }
            if terms.is_empty() {
                continue;
            }
            m.try_add_constraint(&terms, ConstraintOp::Le, rng.gen_range(2.0..10.0))
                .unwrap();
        }
        let sol = solve_lp_dense(&m);
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(m.is_feasible(&sol.values, 1e-6));
        assert!(sol.objective > 0.0);
    }
}
