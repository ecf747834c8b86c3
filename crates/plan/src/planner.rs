//! The patrol-planning optimiser (problem P of Sec. VI-B/C).
//!
//! The paper solves problem P as a MILP whose binaries are SOS2 variables
//! for non-concave piecewise-linear utilities. Here every cell's utility
//! enters as its upper concave envelope (a concave utility is its own
//! envelope), which makes the allocation exact without an integer
//! program. The reported coverage is what the planner allocates; callers
//! re-evaluate it against the true utility.
//!
//! * [`PlannerMethod::Allocation`] — the effort allocation: maximise
//!   Σ_v U_v(c_v) under a total budget Σ_v c_v ≤ T·K and per-cell effort
//!   caps derived from the round-trip travel time to the patrol post. With
//!   concave utilities this is a separable concave knapsack, and filling
//!   every cell's `(slope, width)` segments in falling-slope order until
//!   the budget runs out solves it exactly (Ibaraki & Katoh, *Resource
//!   Allocation Problems*, 1988). So no model is built: the plan is that
//!   greedy fill, tagged [`SolveStatus::Optimal`] with `lp_solves` 0. This
//!   is the formulation the benchmark harness sweeps (Figs. 8 and 9).
//! * [`PlannerMethod::Flow`] — the full time-unrolled flow formulation of
//!   Eq. (2): aggregate patrol flow over nodes (cell, t) with conservation,
//!   source/sink at the patrol post, coverage defined as flow through a cell
//!   and the same PWL objective, solved as one LP by the sparse revised
//!   simplex. Exact but much larger; intended for small regions and for
//!   validating the allocation formulation. It is the only formulation
//!   that takes [`PlannerConfig::budget`].

use crate::game::{steps_for, PlanningProblem};
use crate::pwl::{PwlError, PwlFunction};
use paws_solver::{
    solve_lp_budgeted, ConstraintOp, Model, Sense, SolveBudget, SolveStatus, SolverError, Variable,
};
use std::time::{Duration, Instant};

/// Why patrol planning failed: either the utility curves could not be
/// piecewise-linearised, or the flow LP terminated without a usable point.
/// A budget-exhausted flow solve is *not* an error — the planner falls
/// back to the greedy feasible fill tagged [`SolveStatus::Degraded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// Building a piecewise-linear utility failed (degenerate cell domain,
    /// non-finite samples, zero segments).
    Pwl(PwlError),
    /// The flow LP produced no usable point (infeasible or unbounded
    /// model — both indicate a malformed problem rather than time pressure).
    Solver(SolverError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Pwl(e) => write!(f, "piecewise-linear utility construction failed: {e}"),
            PlanError::Solver(e) => write!(f, "patrol optimisation failed: {e}"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Pwl(e) => Some(e),
            PlanError::Solver(e) => Some(e),
        }
    }
}

impl From<PwlError> for PlanError {
    fn from(e: PwlError) -> Self {
        PlanError::Pwl(e)
    }
}

impl From<SolverError> for PlanError {
    fn from(e: SolverError) -> Self {
        PlanError::Solver(e)
    }
}

/// Which formulation to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerMethod {
    /// Separable effort-allocation formulation (default).
    Allocation,
    /// Time-unrolled network-flow formulation (small instances only).
    Flow,
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Number of segments in each PWL approximation (the paper sweeps 5–30).
    pub segments: usize,
    /// Formulation to use.
    pub method: PlannerMethod,
    /// Anytime budget for the flow formulation's LP solve: a wall-clock
    /// limit plus an optional iteration cap. Unlimited by default. An
    /// allocation plan is the exact greedy fill, which needs no solver, so
    /// it ignores the budget.
    pub budget: SolveBudget,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            segments: 10,
            method: PlannerMethod::Allocation,
            budget: SolveBudget::unlimited(),
        }
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
    /// Always 0: no plan uses branch-and-bound. Kept so code that reads or
    /// builds a plan compiles.
    pub nodes: usize,
    /// LP solves: 0 for an allocation plan, which needs no LP, and 1 for a
    /// flow plan.
    pub lp_solves: usize,
    /// How the plan was obtained: `Optimal` for every allocation plan, the
    /// LP's status for a flow plan.
    pub status: SolveStatus,
}

/// Compute a patrol plan for a planning problem. Degenerate
/// piecewise-linear utilities (e.g. an empty sampling domain, or a
/// non-finite utility from a NaN-poisoned response surface or β) surface
/// as [`PlanError::Pwl`], and pointless flow solves (infeasible/unbounded
/// models) as [`PlanError::Solver`], instead of a panic mid-optimisation.
///
/// An allocation plan is the greedy concave-envelope fill, which is
/// optimal, so it never degrades. Anytime behaviour applies to the flow
/// formulation: when `config.budget` runs out, the LP's current
/// primal-feasible point is returned tagged [`SolveStatus::Degraded`]; if
/// the budget died before *any* feasible point was found, the greedy fill
/// (feasible by construction) is returned instead, also tagged `Degraded`.
/// An unlimited budget reproduces the pre-budget behaviour exactly.
pub fn try_plan(
    problem: &PlanningProblem,
    config: &PlannerConfig,
) -> Result<PatrolPlan, PlanError> {
    if config.segments < 1 {
        return Err(PlanError::Pwl(PwlError::Empty));
    }
    let start = Instant::now();
    let utilities = cell_utilities(problem, config.segments)?;
    let plan = match config.method {
        PlannerMethod::Allocation => greedy_plan(problem, &utilities, SolveStatus::Optimal, 0),
        PlannerMethod::Flow => {
            let plan = solve_flow(problem, &utilities, &config.budget)?;
            match plan.status {
                SolveStatus::Infeasible => return Err(SolverError::Infeasible.into()),
                SolveStatus::Unbounded => return Err(SolverError::Unbounded.into()),
                // The budget died before the solver found any feasible
                // point: fall back to the greedy fill, which needs no
                // solver at all.
                SolveStatus::BudgetExceeded => {
                    greedy_plan(problem, &utilities, SolveStatus::Degraded, plan.lp_solves)
                }
                _ => plan,
            }
        }
    };
    Ok(PatrolPlan {
        solve_time: start.elapsed(),
        ..plan
    })
}

/// The greedy fill as a plan, scored Σ_v U_v(c_v) over the enveloped
/// utilities.
fn greedy_plan(
    problem: &PlanningProblem,
    utilities: &[PwlFunction],
    status: SolveStatus,
    lp_solves: usize,
) -> PatrolPlan {
    let coverage = greedy_coverage(problem, utilities);
    let objective = utilities
        .iter()
        .zip(&coverage)
        .map(|(u, &c)| u.eval(c))
        .sum();
    PatrolPlan {
        coverage,
        objective,
        solve_time: Duration::default(),
        nodes: 0,
        lp_solves,
        status,
    }
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

/// Add one cell's λ block to the model: one λ per breakpoint of the
/// enveloped utility, with a convexity row Σ λ = 1. Returns the λ variables
/// and their breakpoint x values.
fn add_pwl_block(
    model: &mut Model,
    utility: &PwlFunction,
) -> Result<(Vec<Variable>, Vec<f64>), SolverError> {
    let xs = utility.xs().to_vec();
    let mut lambdas = Vec::with_capacity(xs.len());
    for &y in utility.ys() {
        lambdas.push(model.try_add_continuous(0.0, f64::INFINITY, y)?);
    }
    let terms: Vec<(Variable, f64)> = lambdas.iter().map(|&v| (v, 1.0)).collect();
    model.try_add_constraint(&terms, ConstraintOp::Eq, 1.0)?;
    Ok((lambdas, xs))
}

#[allow(clippy::needless_range_loop)]
fn solve_flow(
    problem: &PlanningProblem,
    utilities: &[PwlFunction],
    budget: &SolveBudget,
) -> Result<PatrolPlan, SolverError> {
    let t_steps = steps_for(problem.patrol_length_km);
    let k = problem.n_patrols as f64;
    let n = problem.n_cells();
    let mut model = Model::new(Sense::Maximize);

    // Flow variables f[i][j][t]: patrols moving from cell i to cell j (j a
    // neighbour of i, or i itself for "stay") between time t and t+1.
    let mut flow: Vec<Vec<Vec<(usize, Variable)>>> = vec![vec![Vec::new(); t_steps]; n];
    for i in 0..n {
        let mut targets = problem.neighbours[i].clone();
        targets.push(i);
        for t in 0..t_steps {
            for &j in &targets {
                let v = model.try_add_continuous(0.0, k, 0.0)?;
                flow[i][t].push((j, v));
            }
        }
    }

    // Source: all K patrols leave the post at t = 0; nothing leaves any other
    // cell at t = 0.
    for i in 0..n {
        let terms: Vec<(Variable, f64)> = flow[i][0].iter().map(|&(_, v)| (v, 1.0)).collect();
        let rhs = if i == problem.post_index { k } else { 0.0 };
        model.try_add_constraint(&terms, ConstraintOp::Eq, rhs)?;
    }
    // Conservation: inflow into (i, t) equals outflow from (i, t) for
    // 1 <= t < T; at t = T all flow must be at the post (sink).
    for t in 1..t_steps {
        for i in 0..n {
            let mut terms: Vec<(Variable, f64)> = Vec::new();
            // Inflow from any j with an edge into i at time t-1.
            for j in 0..n {
                for &(dest, v) in &flow[j][t - 1] {
                    if dest == i {
                        terms.push((v, 1.0));
                    }
                }
            }
            for &(_, v) in &flow[i][t] {
                terms.push((v, -1.0));
            }
            model.try_add_constraint(&terms, ConstraintOp::Eq, 0.0)?;
        }
    }
    // Sink: the inflow at the final step must return to the post.
    let mut sink_terms: Vec<(Variable, f64)> = Vec::new();
    for j in 0..n {
        for &(dest, v) in &flow[j][t_steps - 1] {
            if dest == problem.post_index {
                sink_terms.push((v, 1.0));
            }
        }
    }
    model.try_add_constraint(&sink_terms, ConstraintOp::Eq, k)?;

    // Coverage of cell i: time steps spent at i = Σ_t outflow from (i, t).
    // Link to the PWL blocks: Σ_j λ_ij x_ij − c_i = 0.
    let mut blocks = Vec::with_capacity(n);
    for (i, u) in utilities.iter().enumerate() {
        let block = add_pwl_block(&mut model, u)?;
        let mut link: Vec<(Variable, f64)> = block
            .0
            .iter()
            .zip(&block.1)
            .filter(|(_, &x)| x != 0.0)
            .map(|(&l, &x)| (l, x))
            .collect();
        for t in 0..t_steps {
            for &(_, v) in &flow[i][t] {
                link.push((v, -1.0));
            }
        }
        model.try_add_constraint(&link, ConstraintOp::Eq, 0.0)?;
        blocks.push(block);
    }

    // One LP call; each cell's coverage is Σ_j λ_j·x_j off its λ block.
    let solution = solve_lp_budgeted(&model, budget);
    let coverage = blocks
        .iter()
        .map(|(lambdas, xs)| {
            lambdas
                .iter()
                .zip(xs)
                .map(|(&l, &x)| solution.value(l) * x)
                .sum::<f64>()
                .max(0.0)
        })
        .collect();
    Ok(PatrolPlan {
        coverage,
        objective: solution.objective,
        solve_time: Duration::default(),
        nodes: 0,
        lp_solves: 1,
        status: solution.status,
    })
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
        let config = PlannerConfig {
            segments: 20,
            ..PlannerConfig::default()
        };
        let p = try_plan(&problem, &config).unwrap();
        let reeval = problem.coverage_utility(&p.coverage, 0.5);
        // PWL approximation error only.
        assert!((p.objective - reeval).abs() < 0.15 * reeval.abs().max(1.0));
    }

    #[test]
    fn more_segments_never_hurts_much() {
        let problem = small_problem(1.0, 8.0, 2);
        let coarse = try_plan(
            &problem,
            &PlannerConfig {
                segments: 3,
                ..PlannerConfig::default()
            },
        )
        .unwrap();
        let fine = try_plan(
            &problem,
            &PlannerConfig {
                segments: 25,
                ..PlannerConfig::default()
            },
        )
        .unwrap();
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
    /// PWL sampler rejects: a typed error from every formulation, not a
    /// panic and not a silently skipped cell.
    #[test]
    fn non_finite_beta_is_a_typed_pwl_error() {
        let mut problem = small_problem(0.5, 4.0, 1);
        problem.beta = f64::NAN;
        for method in [PlannerMethod::Allocation, PlannerMethod::Flow] {
            let config = PlannerConfig {
                method,
                ..PlannerConfig::default()
            };
            assert_eq!(
                try_plan(&problem, &config).err(),
                Some(PlanError::Pwl(PwlError::NonFinite)),
                "{method:?}"
            );
        }
    }

    #[test]
    fn flow_formulation_agrees_with_allocation_on_tiny_instance() {
        // Restrict to a very small problem so the flow LP stays tiny.
        let problem = small_problem(0.0, 4.0, 1);
        let alloc = try_plan(&problem, &PlannerConfig::default()).unwrap();
        let flow = try_plan(
            &problem,
            &PlannerConfig {
                method: PlannerMethod::Flow,
                segments: 8,
                ..PlannerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(flow.status, SolveStatus::Optimal);
        let total_flow: f64 = flow.coverage.iter().sum();
        assert!(
            (total_flow - problem.budget_km()).abs() < 1e-4,
            "flow uses the whole patrol time"
        );
        // The flow formulation is more constrained, so its optimum cannot
        // exceed the allocation optimum (up to PWL resolution differences).
        assert!(flow.objective <= alloc.objective + 0.1 * alloc.objective.abs().max(1.0));
        assert!(flow.objective > 0.0);
    }

    /// A zero budget starves the flow LP, which degrades to the greedy
    /// fill; an allocation plan needs no solver, so the same budget returns
    /// the unbudgeted plan, bit for bit.
    #[test]
    fn starved_budget_returns_feasible_degraded_plan() {
        let problem = small_problem(0.5, 8.0, 3);
        let starved = SolveBudget::with_time_limit(Duration::ZERO);
        let free = try_plan(&problem, &PlannerConfig::default()).unwrap();
        let allocation = try_plan(
            &problem,
            &PlannerConfig {
                budget: starved,
                ..PlannerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(allocation.status, SolveStatus::Optimal);
        assert_eq!(allocation.lp_solves, 0);
        assert_eq!(allocation.coverage, free.coverage);
        assert_eq!(allocation.objective.to_bits(), free.objective.to_bits());

        let p = try_plan(
            &problem,
            &PlannerConfig {
                method: PlannerMethod::Flow,
                budget: starved,
                ..PlannerConfig::default()
            },
        )
        .expect("degraded, not an error");
        assert_eq!(p.status, SolveStatus::Degraded);
        let total: f64 = p.coverage.iter().sum();
        assert!(
            total <= problem.budget_km() + 1e-6,
            "degraded plan violates the budget: {total}"
        );
        for (i, &c) in p.coverage.iter().enumerate() {
            assert!(c >= -1e-9);
            assert!(
                c <= problem.max_effort(i) + 1e-6,
                "cell {i} over its cap: {c}"
            );
        }
        // The fallback is the allocation plan's greedy fill, scored over
        // the same enveloped utilities, not an all-zero placeholder.
        assert!(total > 0.0);
        assert_eq!(p.coverage, free.coverage);
        assert_eq!(p.objective.to_bits(), free.objective.to_bits());
    }

    #[test]
    fn generous_budget_reproduces_the_unbudgeted_plan_exactly() {
        let problem = small_problem(0.5, 8.0, 2);
        let free = try_plan(&problem, &PlannerConfig::default()).unwrap();
        let config = PlannerConfig {
            budget: SolveBudget::with_time_limit(Duration::from_secs(3600)),
            ..PlannerConfig::default()
        };
        let budgeted = try_plan(&problem, &config).unwrap();
        assert_eq!(budgeted.status, free.status);
        assert_eq!(budgeted.coverage, free.coverage);
        assert_eq!(budgeted.objective, free.objective);
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
