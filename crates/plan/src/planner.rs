//! The patrol-planning optimiser (problem P of Sec. VI-B/C).
//!
//! The paper solves problem P as a MILP over a time-unrolled flow graph
//! (Eq. 2) whose binaries are SOS2 variables for non-concave
//! piecewise-linear utilities. Here every cell's utility enters as its
//! upper concave envelope (a concave utility is its own envelope), and the
//! plan is the effort allocation: maximise Σ_v U_v(c_v) under a total
//! budget Σ_v c_v ≤ T·K and per-cell effort caps derived from the
//! round-trip travel time to the patrol post. With concave utilities this
//! is a separable concave knapsack, and filling every cell's
//! `(slope, width)` segments in falling-slope order until the budget runs
//! out solves it exactly (Ibaraki & Katoh, *Resource Allocation Problems*,
//! 1988). So no model is built: the plan is that greedy fill, tagged
//! [`SolveStatus::Optimal`] with `lp_solves` 0. The reported coverage is
//! what the planner allocates; callers re-evaluate it against the true
//! utility, and [`crate::routes::extract_routes`] turns it into routes.

use crate::game::PlanningProblem;
use crate::pwl::{PwlError, PwlFunction};
use paws_solver::SolveStatus;
use std::time::{Duration, Instant};

/// Why patrol planning failed: the utility curves could not be
/// piecewise-linearised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// Building a piecewise-linear utility failed (degenerate cell domain,
    /// non-finite samples, zero segments).
    Pwl(PwlError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Pwl(e) => write!(f, "piecewise-linear utility construction failed: {e}"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Pwl(e) => Some(e),
        }
    }
}

impl From<PwlError> for PlanError {
    fn from(e: PwlError) -> Self {
        PlanError::Pwl(e)
    }
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Number of segments in each PWL approximation (the paper sweeps 5–30).
    pub segments: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self { segments: 10 }
    }
}

/// A computed patrol plan.
#[derive(Debug, Clone)]
pub struct PatrolPlan {
    /// Patrol effort (km) allocated to each candidate cell of the problem.
    pub coverage: Vec<f64>,
    /// Objective value Σ_v U_v(c_v), with each U_v the cell's enveloped PWL
    /// utility.
    pub objective: f64,
    /// Wall-clock planning time.
    pub solve_time: Duration,
    /// Always 0: no plan uses branch-and-bound. Kept because `perfbench`
    /// builds plan literals.
    pub nodes: usize,
    /// Always 0: the greedy fill solves no LP. Kept for `perfbench`, which
    /// reports it as `solver.lp_solves` and builds plan literals.
    pub lp_solves: usize,
    /// Always [`SolveStatus::Optimal`]: the greedy fill is exact. Kept for
    /// `perfbench`, which checks it and builds plan literals.
    pub status: SolveStatus,
}

/// Compute a patrol plan for a planning problem: the greedy fill of the
/// cells' enveloped utilities, which is optimal, so every plan is tagged
/// [`SolveStatus::Optimal`]. Degenerate piecewise-linear utilities (e.g. an
/// empty sampling domain, or a non-finite utility from a NaN-poisoned
/// response surface or β) surface as [`PlanError::Pwl`] instead of a
/// panic.
pub fn try_plan(
    problem: &PlanningProblem,
    config: &PlannerConfig,
) -> Result<PatrolPlan, PlanError> {
    if config.segments < 1 {
        return Err(PlanError::Pwl(PwlError::Empty));
    }
    let start = Instant::now();
    let utilities = cell_utilities(problem, config.segments)?;
    let coverage = greedy_coverage(problem, &utilities);
    let objective = utilities
        .iter()
        .zip(&coverage)
        .map(|(u, &c)| u.eval(c))
        .sum();
    Ok(PatrolPlan {
        coverage,
        objective,
        solve_time: start.elapsed(),
        nodes: 0,
        lp_solves: 0,
        status: SolveStatus::Optimal,
    })
}

/// The optimal allocation of the enveloped separable problem: every
/// segment of every cell's concave utility is a `(slope, width)`
/// candidate, and filling them in descending-slope order until the km
/// budget runs out maximises Σ_v U_v(c_v). Slopes tie in cell order (the
/// sort is stable), so of two identical cells the lower index fills
/// first. Per-cell caps hold because a cell's segments sum to its PWL
/// domain width, and the total never exceeds the budget — so the result is
/// always feasible for problem (P).
fn greedy_coverage(problem: &PlanningProblem, utilities: &[PwlFunction]) -> Vec<f64> {
    struct Segment {
        slope: f64,
        cell: usize,
        width: f64,
    }
    let mut segments: Vec<Segment> = Vec::new();
    for (cell, u) in utilities.iter().enumerate() {
        let (xs, ys) = (u.xs(), u.ys());
        for j in 0..xs.len() - 1 {
            let width = xs[j + 1] - xs[j];
            if width <= 0.0 {
                continue;
            }
            let slope = (ys[j + 1] - ys[j]) / width;
            if slope.is_finite() && slope > 0.0 {
                segments.push(Segment { slope, cell, width });
            }
        }
    }
    segments.sort_by(|a, b| b.slope.total_cmp(&a.slope));
    let mut remaining = problem.budget_km();
    let mut coverage = vec![0.0; problem.n_cells()];
    for s in segments {
        if remaining <= 0.0 {
            break;
        }
        let take = s.width.min(remaining);
        coverage[s.cell] += take;
        remaining -= take;
    }
    coverage
}

/// Each cell's utility resampled to the configured number of segments, as
/// the planner optimises it: itself when concave, else its upper concave
/// envelope.
fn cell_utilities(
    problem: &PlanningProblem,
    segments: usize,
) -> Result<Vec<PwlFunction>, PwlError> {
    (0..problem.n_cells())
        .map(|i| {
            let u = problem.utility(i, problem.beta);
            let hi = problem.max_effort(i).max(1e-3);
            let u = PwlFunction::try_from_samples(0.0, hi, segments, |c| u.eval(c))?;
            Ok(if u.is_concave(1e-9) {
                u
            } else {
                u.concave_envelope()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paws_data::matrix::Matrix;
    use paws_geo::parks::test_park_spec;
    use paws_geo::Park;

    /// A small problem with synthetic response curves.
    fn small_problem(beta: f64, patrol_len: f64, n_patrols: usize) -> PlanningProblem {
        let park = Park::generate(&test_park_spec(), 7);
        let post = park.patrol_posts[0];
        let grid: Vec<f64> = vec![0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
        let probs: Vec<Vec<f64>> = (0..park.n_cells())
            .map(|i| {
                let scale = 0.1 + 0.8 * ((i * 37) % 100) as f64 / 100.0;
                grid.iter()
                    .map(|&e| scale * (1.0 - (-0.7 * e).exp()))
                    .collect()
            })
            .collect();
        let vars: Vec<Vec<f64>> = (0..park.n_cells())
            .map(|i| {
                let base = 0.05 + 0.4 * ((i * 61) % 100) as f64 / 100.0;
                grid.iter().map(|&e| base + 0.03 * e).collect()
            })
            .collect();
        PlanningProblem::from_response(
            &park,
            post,
            &grid,
            &Matrix::from_rows(&probs),
            &Matrix::from_rows(&vars),
            patrol_len,
            n_patrols,
            beta,
        )
    }

    #[test]
    fn allocation_plan_respects_budget_and_caps() {
        let problem = small_problem(0.0, 8.0, 3);
        let plan = try_plan(&problem, &PlannerConfig::default()).unwrap();
        assert_eq!(plan.status, SolveStatus::Optimal);
        assert_eq!((plan.lp_solves, plan.nodes), (0, 0));
        let total: f64 = plan.coverage.iter().sum();
        assert!(
            total <= problem.budget_km() + 1e-6,
            "budget violated: {total}"
        );
        for (i, &c) in plan.coverage.iter().enumerate() {
            assert!(c <= problem.max_effort(i) + 1e-6);
            assert!(c >= -1e-9);
        }
        assert!(plan.objective > 0.0);
    }

    #[test]
    fn allocation_concentrates_effort_on_high_value_cells() {
        let problem = small_problem(0.0, 8.0, 2);
        let computed = try_plan(&problem, &PlannerConfig::default()).unwrap();
        // Compare against a uniform allocation of the same budget.
        let uniform = vec![problem.budget_km() / problem.n_cells() as f64; problem.n_cells()];
        let u_plan = problem.coverage_utility(&computed.coverage, 0.0);
        let u_unif = problem.coverage_utility(&uniform, 0.0);
        assert!(u_plan >= u_unif - 1e-6, "plan {u_plan} vs uniform {u_unif}");
    }

    #[test]
    fn objective_matches_reevaluated_coverage_utility() {
        let problem = small_problem(0.5, 8.0, 2);
        let config = PlannerConfig { segments: 20 };
        let p = try_plan(&problem, &config).unwrap();
        let reeval = problem.coverage_utility(&p.coverage, 0.5);
        // PWL approximation error only.
        assert!((p.objective - reeval).abs() < 0.15 * reeval.abs().max(1.0));
    }

    #[test]
    fn more_segments_never_hurts_much() {
        let problem = small_problem(1.0, 8.0, 2);
        let coarse = try_plan(&problem, &PlannerConfig { segments: 3 }).unwrap();
        let fine = try_plan(&problem, &PlannerConfig { segments: 25 }).unwrap();
        let u_coarse = problem.coverage_utility(&coarse.coverage, 1.0);
        let u_fine = problem.coverage_utility(&fine.coverage, 1.0);
        assert!(u_fine >= u_coarse - 0.05 * u_coarse.abs().max(1.0));
    }

    #[test]
    fn robust_plan_differs_from_nominal_plan() {
        let mut nominal_problem = small_problem(0.0, 8.0, 2);
        let nominal = try_plan(&nominal_problem, &PlannerConfig::default()).unwrap();
        nominal_problem.beta = 1.0;
        let robust = try_plan(&nominal_problem, &PlannerConfig::default()).unwrap();
        // The uncertainty penalty shifts effort; coverages should not be identical.
        let diff: f64 = nominal
            .coverage
            .iter()
            .zip(&robust.coverage)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-6, "robust and nominal plans identical");
    }

    /// A non-finite β makes every sampled utility non-finite, which the
    /// PWL sampler rejects: a typed error, not a panic and not a silently
    /// skipped cell.
    #[test]
    fn non_finite_beta_is_a_typed_pwl_error() {
        let mut problem = small_problem(0.5, 4.0, 1);
        problem.beta = f64::NAN;
        assert_eq!(
            try_plan(&problem, &PlannerConfig::default()).err(),
            Some(PlanError::Pwl(PwlError::NonFinite))
        );
    }

    #[test]
    fn zero_beta_plan_maximises_pure_detection() {
        let problem = small_problem(0.0, 6.0, 1);
        let p = try_plan(&problem, &PlannerConfig::default()).unwrap();
        // With beta=0 the objective equals sum of g at the coverage.
        let g_sum: f64 = p
            .coverage
            .iter()
            .enumerate()
            .map(|(i, &c)| problem.cells[i].g.eval(c))
            .sum();
        assert!((p.objective - g_sum).abs() < 0.1 * g_sum.max(1.0));
    }
}
