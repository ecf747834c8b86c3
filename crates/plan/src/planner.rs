//! The patrol-planning optimiser (problem P of Sec. VI-B/C).
//!
//! The paper solves problem P as a MILP whose binaries are SOS2 variables
//! for non-concave piecewise-linear utilities. Here every cell's utility
//! enters as its upper concave envelope (a concave utility is its own
//! envelope), so both formulations are linear programs, solved by the
//! sparse revised simplex: one call for a full model, one per round for
//! column generation. The reported coverage is what the LP allocates;
//! callers re-evaluate it against the true utility.
//!
//! * [`PlannerMethod::Allocation`] — the effort-allocation LP: one PWL
//!   (λ) block per candidate cell, a total-budget constraint
//!   Σ_v c_v ≤ T·K, and per-cell effort caps derived from the round-trip
//!   travel time to the patrol post. This is the formulation the benchmark
//!   harness sweeps (Figs. 8 and 9).
//! * [`PlannerMethod::Flow`] — the full time-unrolled flow formulation of
//!   Eq. (2): aggregate patrol flow over nodes (cell, t) with conservation,
//!   source/sink at the patrol post, coverage defined as flow through a cell
//!   and the same PWL objective. Exact but much larger; intended for small
//!   regions and for validating the allocation formulation.

use crate::game::{steps_for, PlanningProblem};
use crate::pwl::{PwlError, PwlFunction};
use paws_solver::{
    BasisSnapshot, ConstraintOp, Model, Sense, SolveBudget, SolveStatus, SolverError, SparseLp,
    Variable,
};
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// In [`Decomposition::Auto`] mode, column generation kicks in above this
/// many λ variables — below it the full model solves in well under the
/// restricted-master overhead.
const CG_AUTO_THRESHOLD: usize = 4096;
/// Hard cap on restricted-master rounds (each round adds at most one
/// column per cell, so convergence needs at most `segments + 1` rounds;
/// this cap is a numerical-safety backstop, not a tuning knob).
const CG_MAX_ROUNDS: usize = 200;
/// A breakpoint column enters the restricted master only when its reduced
/// cost improves the objective by more than this.
const CG_PRICE_TOL: f64 = 1e-7;

/// Why patrol planning failed: either the utility curves could not be
/// piecewise-linearised, or the optimiser terminated without a usable
/// point. A budget-exhausted solve is *not* an error — the planner falls
/// back to a greedy feasible incumbent tagged [`SolveStatus::Degraded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// Building a piecewise-linear utility failed (degenerate cell domain,
    /// non-finite samples, zero segments).
    Pwl(PwlError),
    /// The optimiser produced no usable point (infeasible or unbounded
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

/// How the allocation formulation is decomposed for the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decomposition {
    /// Pick automatically: column generation above a few thousand λ
    /// variables, the full model otherwise. The default.
    Auto,
    /// Always build the monolithic model with every λ column.
    FullModel,
    /// Always use column generation over per-cell breakpoint blocks: a
    /// restricted master holds a few λ columns per cell and new breakpoints
    /// are priced in against the budget and convexity duals until none
    /// improves.
    ColumnGeneration,
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Number of segments in each PWL approximation (the paper sweeps 5–30).
    pub segments: usize,
    /// Formulation to use.
    pub method: PlannerMethod,
    /// Anytime budget for the whole plan: one wall-clock limit shared by
    /// every LP solve, plus an optional per-solve iteration cap. Unlimited
    /// by default.
    pub budget: SolveBudget,
    /// Decomposition strategy for [`PlannerMethod::Allocation`] (ignored by
    /// the flow formulation).
    pub decomposition: Decomposition,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            segments: 10,
            method: PlannerMethod::Allocation,
            budget: SolveBudget::unlimited(),
            decomposition: Decomposition::Auto,
        }
    }
}

/// A computed patrol plan.
#[derive(Debug, Clone)]
pub struct PatrolPlan {
    /// Patrol effort (km) allocated to each candidate cell of the problem.
    pub coverage: Vec<f64>,
    /// Objective value Σ_v U_v(c_v) of the optimised (PWL) model.
    pub objective: f64,
    /// Wall-clock solve time.
    pub solve_time: Duration,
    /// Always 0: every plan is a linear program, solved without
    /// branch-and-bound. Kept so code that reads or builds a plan compiles.
    pub nodes: usize,
    /// LP solves: 1 for a full model, the number of restricted-master
    /// rounds for column generation, 0 when no LP was needed.
    pub lp_solves: usize,
    /// Termination status of the underlying solver.
    pub status: SolveStatus,
}

/// Compute a patrol plan for a planning problem. Degenerate
/// piecewise-linear utilities (e.g. an empty sampling domain from a
/// NaN-poisoned response surface), model inputs the solver rejects (a
/// non-finite utility becomes a non-finite objective coefficient) and
/// pointless solves (infeasible/unbounded models) surface as a
/// [`PlanError`] instead of a panic mid-optimisation.
///
/// Anytime behaviour: when `config.budget` runs out, the solver's current
/// primal-feasible point is returned tagged [`SolveStatus::Degraded`]; if
/// the budget died before *any* feasible point was found, a greedy
/// marginal-utility allocation (feasible by construction) is returned
/// instead, also tagged `Degraded`. An unlimited budget reproduces the
/// pre-budget behaviour exactly.
pub fn try_plan(
    problem: &PlanningProblem,
    config: &PlannerConfig,
) -> Result<PatrolPlan, PlanError> {
    if config.segments < 1 {
        return Err(PlanError::Pwl(PwlError::Empty));
    }
    let start = Instant::now();
    let utilities = cell_utilities(problem, config.segments)?;
    let mut result = match config.method {
        PlannerMethod::Allocation => solve_allocation(problem, &utilities, config)?,
        PlannerMethod::Flow => solve_flow(problem, &utilities, config)?,
    };
    match result.status {
        SolveStatus::Infeasible => return Err(SolverError::Infeasible.into()),
        SolveStatus::Unbounded => return Err(SolverError::Unbounded.into()),
        SolveStatus::BudgetExceeded => {
            // The budget died before the solver found any feasible point:
            // fall back to the greedy fill, which needs no solver at all.
            let coverage = greedy_coverage(problem, &utilities);
            let objective = utilities
                .iter()
                .zip(&coverage)
                .map(|(u, &c)| u.eval(c))
                .sum();
            result = PatrolPlan {
                coverage,
                objective,
                status: SolveStatus::Degraded,
                ..result
            };
        }
        _ => {}
    }
    Ok(PatrolPlan {
        solve_time: start.elapsed(),
        ..result
    })
}

/// Greedy feasible incumbent for budget-starved solves: every segment of
/// every cell's concave-envelope utility is a `(slope, width)` candidate,
/// and filling them in descending-slope order until the km budget runs out
/// is optimal for the enveloped separable LP. Per-cell caps hold because a
/// cell's segments sum to its PWL domain width, and the total never
/// exceeds the budget — so the result is always feasible for problem (P).
fn greedy_coverage(problem: &PlanningProblem, utilities: &[PwlFunction]) -> Vec<f64> {
    struct Segment {
        slope: f64,
        cell: usize,
        width: f64,
    }
    let mut segments: Vec<Segment> = Vec::new();
    for (cell, u) in utilities.iter().enumerate() {
        let u = enveloped(u);
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

/// Per-cell utility PWL resampled to the configured number of segments.
fn cell_utilities(
    problem: &PlanningProblem,
    segments: usize,
) -> Result<Vec<PwlFunction>, PwlError> {
    (0..problem.n_cells())
        .map(|i| {
            let u = problem.utility(i, problem.beta);
            let hi = problem.max_effort(i).max(1e-3);
            PwlFunction::try_from_samples(0.0, hi, segments, |c| u.eval(c))
        })
        .collect()
}

/// A cell's utility as the planner optimises it: itself when concave,
/// else its upper concave envelope, which the LP solves exactly.
fn enveloped(utility: &PwlFunction) -> Cow<'_, PwlFunction> {
    if utility.is_concave(1e-9) {
        Cow::Borrowed(utility)
    } else {
        Cow::Owned(utility.concave_envelope())
    }
}

/// Add one cell's λ block to the model: one λ per breakpoint of the
/// enveloped utility, with a convexity row Σ λ = 1. Returns the λ variables
/// and their breakpoint x values.
fn add_pwl_block(
    model: &mut Model,
    utility: &PwlFunction,
) -> Result<(Vec<Variable>, Vec<f64>), SolverError> {
    let utility = enveloped(utility);
    let xs = utility.xs().to_vec();
    let mut lambdas = Vec::with_capacity(xs.len());
    for &y in utility.ys() {
        lambdas.push(model.try_add_continuous(0.0, f64::INFINITY, y)?);
    }
    let terms: Vec<(Variable, f64)> = lambdas.iter().map(|&v| (v, 1.0)).collect();
    model.try_add_constraint(&terms, ConstraintOp::Eq, 1.0)?;
    Ok((lambdas, xs))
}

/// Should the allocation formulation go through column generation?
fn use_column_generation(utilities: &[PwlFunction], config: &PlannerConfig) -> bool {
    match config.decomposition {
        Decomposition::FullModel => false,
        Decomposition::ColumnGeneration => true,
        Decomposition::Auto => {
            let n_lambda: usize = utilities.iter().map(|u| u.xs().len()).sum();
            n_lambda > CG_AUTO_THRESHOLD
        }
    }
}

/// Column generation over per-cell breakpoint blocks, for the allocation
/// formulation at scales where the monolithic model is too large to build
/// or solve.
///
/// The full LP is `max Σ_ij λ_ij·y_ij` subject to per-cell convexity rows
/// `Σ_j λ_ij = 1` and one budget row `Σ_ij λ_ij·x_ij ≤ B`. The restricted
/// master holds a small breakpoint subset per cell, seeded from the greedy
/// concave-envelope fill (which is already optimal for the enveloped LP up
/// to per-cell caps, so the seed is a near-optimal incumbent). Each round
/// solves the master with the sparse revised simplex, reads the budget dual
/// `μ` and convexity duals `π_i` off the optimal basis, and adds the best
/// positively-priced breakpoint `argmax_j y_ij − μ·x_ij − π_i` per cell;
/// when no column prices in, the master optimum is optimal for the full LP.
fn solve_allocation_colgen(
    problem: &PlanningProblem,
    utilities: &[PwlFunction],
    config: &PlannerConfig,
) -> Result<PatrolPlan, SolverError> {
    let start = Instant::now();
    let n = utilities.len();
    let envelopes: Vec<PwlFunction> = utilities
        .iter()
        .map(|u| enveloped(u).into_owned())
        .collect();

    // Seed: breakpoint 0 plus the breakpoints bracketing the greedy fill.
    let greedy = greedy_coverage(problem, utilities);
    let mut cols: Vec<Vec<usize>> = Vec::with_capacity(n);
    for (i, env) in envelopes.iter().enumerate() {
        let xs = env.xs();
        let mut s = vec![0usize];
        if greedy[i] > 0.0 && xs.len() > 1 {
            let idx = xs
                .partition_point(|&x| x < greedy[i])
                .clamp(1, xs.len() - 1);
            if idx - 1 > 0 {
                s.push(idx - 1);
            }
            s.push(idx);
        }
        cols.push(s);
    }
    // The budget row needs at least one term; if the greedy fill allocated
    // nothing anywhere (zero km budget), the all-zero plan is optimal.
    if !cols
        .iter()
        .zip(&envelopes)
        .any(|(s, env)| s.iter().any(|&j| env.xs()[j] != 0.0))
    {
        let objective = envelopes.iter().map(|env| env.ys()[0]).sum();
        return Ok(PatrolPlan {
            coverage: vec![0.0; n],
            objective,
            solve_time: Duration::default(),
            nodes: 0,
            lp_solves: 0,
            status: SolveStatus::Optimal,
        });
    }

    let mut rounds = 0usize;
    let mut incumbent: Option<(Vec<f64>, f64)> = None;
    // Previous round's optimal basis plus the struct-column prefix offsets
    // it was taken under, for re-seating in the grown master.
    let mut prev: Option<(Vec<usize>, BasisSnapshot)> = None;
    let finish = |incumbent: Option<(Vec<f64>, f64)>, rounds: usize, status: SolveStatus| {
        match incumbent {
            Some((coverage, objective)) => PatrolPlan {
                coverage,
                objective,
                solve_time: Duration::default(),
                nodes: 0,
                lp_solves: rounds,
                status,
            },
            // No master ever finished: signal the caller to fall back to
            // the solver-free greedy incumbent.
            None => PatrolPlan {
                coverage: vec![0.0; n],
                objective: f64::NEG_INFINITY,
                solve_time: Duration::default(),
                nodes: 0,
                lp_solves: rounds,
                status: SolveStatus::BudgetExceeded,
            },
        }
    };

    loop {
        let round_budget = config.budget.remaining_since(start);
        if round_budget.time_limit == Some(Duration::ZERO) {
            let status = if incumbent.is_some() {
                SolveStatus::Degraded
            } else {
                SolveStatus::BudgetExceeded
            };
            return Ok(finish(incumbent, rounds, status));
        }
        rounds += 1;

        // Build the restricted master: rows 0..n are the convexity rows in
        // cell order, row n is the budget row.
        let mut rmp = Model::new(Sense::Maximize);
        let mut cell_vars: Vec<Vec<(Variable, usize)>> = Vec::with_capacity(n);
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0usize);
        for (i, env) in envelopes.iter().enumerate() {
            let ys = env.ys();
            // A loop, not a `collect` of `Result`s: that loses the exact
            // size hint, and at park scale this master holds every cell.
            let mut vars = Vec::with_capacity(cols[i].len());
            for &j in &cols[i] {
                vars.push((rmp.try_add_continuous(0.0, f64::INFINITY, ys[j])?, j));
            }
            prefix.push(prefix[i] + vars.len());
            cell_vars.push(vars);
        }
        let n_struct = prefix[n];
        for vars in &cell_vars {
            let terms: Vec<(Variable, f64)> = vars.iter().map(|&(v, _)| (v, 1.0)).collect();
            rmp.try_add_constraint(&terms, ConstraintOp::Eq, 1.0)?;
        }
        let budget_terms: Vec<(Variable, f64)> = cell_vars
            .iter()
            .zip(&envelopes)
            .flat_map(|(vars, env)| {
                vars.iter()
                    .filter(|&&(_, j)| env.xs()[j] != 0.0)
                    .map(|&(v, j)| (v, env.xs()[j]))
            })
            .collect();
        rmp.try_add_constraint(&budget_terms, ConstraintOp::Le, problem.budget_km())?;

        // Warm-start the master so no round pays a phase-1 pass over the n
        // convexity rows: round 1 installs the breakpoint-0 column of every
        // cell plus the budget slack (primal feasible at zero coverage,
        // identity-like basis); later rounds re-seat the previous optimal
        // basis, which stays feasible and non-singular because new columns
        // enter at their lower bound and retained columns keep their
        // per-cell local positions.
        let warm = match &prev {
            Some((old_prefix, snap)) => {
                let old_n_struct = old_prefix[n];
                let remapped: Vec<usize> = snap
                    .basic_columns()
                    .iter()
                    .map(|&c| {
                        if c < old_n_struct {
                            let cell = old_prefix.partition_point(|&p| p <= c) - 1;
                            prefix[cell] + (c - old_prefix[cell])
                        } else {
                            n_struct + (c - old_n_struct)
                        }
                    })
                    .collect();
                BasisSnapshot::from_basic_columns(n + 1, n_struct, &remapped)
            }
            None => {
                let mut basic: Vec<usize> = prefix[..n].to_vec();
                basic.push(n_struct + n);
                BasisSnapshot::from_basic_columns(n + 1, n_struct, &basic)
            }
        };
        let outcome = SparseLp::new(&rmp).solve_warm(&round_budget, warm.as_ref());
        let sol = &outcome.solution;
        match sol.status {
            SolveStatus::Optimal | SolveStatus::Degraded | SolveStatus::LimitReached => {
                let coverage: Vec<f64> = cell_vars
                    .iter()
                    .zip(&envelopes)
                    .map(|(vars, env)| {
                        vars.iter()
                            .map(|&(v, j)| sol.value(v) * env.xs()[j])
                            .sum::<f64>()
                            .max(0.0)
                    })
                    .collect();
                incumbent = Some((coverage, sol.objective));
                prev = outcome.basis.as_ref().map(|b| (prefix.clone(), b.clone()));
                if sol.status != SolveStatus::Optimal {
                    // Interrupted master: its point is still primal
                    // feasible for the full problem.
                    return Ok(finish(incumbent, rounds, SolveStatus::Degraded));
                }
            }
            SolveStatus::BudgetExceeded => {
                let status = if incumbent.is_some() {
                    SolveStatus::Degraded
                } else {
                    SolveStatus::BudgetExceeded
                };
                return Ok(finish(incumbent, rounds, status));
            }
            // Structurally impossible (the master is feasible and bounded
            // by construction); surface it so try_plan reports an error.
            other => {
                return Ok(PatrolPlan {
                    coverage: vec![0.0; n],
                    objective: sol.objective,
                    solve_time: Duration::default(),
                    nodes: 0,
                    lp_solves: rounds,
                    status: other,
                });
            }
        }

        // Pricing: best improving breakpoint per cell.
        let mu = outcome.duals[n];
        let mut added = false;
        for (i, env) in envelopes.iter().enumerate() {
            let (xs, ys) = (env.xs(), env.ys());
            let pi = outcome.duals[i];
            let mut best: Option<(usize, f64)> = None;
            for j in 0..xs.len() {
                if cols[i].contains(&j) {
                    continue;
                }
                let rc = ys[j] - mu * xs[j] - pi;
                if rc > CG_PRICE_TOL && best.is_none_or(|(_, brc)| rc > brc) {
                    best = Some((j, rc));
                }
            }
            if let Some((j, _)) = best {
                cols[i].push(j);
                added = true;
            }
        }
        if !added {
            return Ok(finish(incumbent, rounds, SolveStatus::Optimal));
        }
        if rounds >= CG_MAX_ROUNDS {
            return Ok(finish(incumbent, rounds, SolveStatus::Degraded));
        }
    }
}

fn solve_allocation(
    problem: &PlanningProblem,
    utilities: &[PwlFunction],
    config: &PlannerConfig,
) -> Result<PatrolPlan, SolverError> {
    if use_column_generation(utilities, config) {
        return solve_allocation_colgen(problem, utilities, config);
    }
    let mut model = Model::new(Sense::Maximize);
    let mut blocks = Vec::with_capacity(problem.n_cells());
    for u in utilities {
        blocks.push(add_pwl_block(&mut model, u)?);
    }
    // Budget: Σ_v c_v ≤ T·K where c_v = Σ_j λ_vj x_vj.
    let mut budget_terms = Vec::new();
    for (lambdas, xs) in &blocks {
        for (l, &x) in lambdas.iter().zip(xs) {
            if x != 0.0 {
                budget_terms.push((*l, x));
            }
        }
    }
    model.try_add_constraint(&budget_terms, ConstraintOp::Le, problem.budget_km())?;
    Ok(solve_full_model(&model, &blocks, &config.budget))
}

#[allow(clippy::needless_range_loop)]
fn solve_flow(
    problem: &PlanningProblem,
    utilities: &[PwlFunction],
    config: &PlannerConfig,
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
    Ok(solve_full_model(&model, &blocks, &config.budget))
}

/// Solve a full allocation or flow model with one LP call and read each
/// cell's coverage, Σ_j λ_j·x_j, off its λ block.
fn solve_full_model(
    model: &Model,
    blocks: &[(Vec<Variable>, Vec<f64>)],
    budget: &SolveBudget,
) -> PatrolPlan {
    let solution = SparseLp::new(model).solve_budgeted(budget).solution;
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
    PatrolPlan {
        coverage,
        objective: solution.objective,
        solve_time: Duration::default(),
        nodes: 0,
        lp_solves: 1,
        status: solution.status,
    }
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

    /// A non-finite β reaches the solver as a non-finite objective
    /// coefficient, which the model builder rejects: a typed error from
    /// every formulation, not a panic.
    #[test]
    fn non_finite_beta_is_a_typed_solver_error() {
        let mut problem = small_problem(0.5, 4.0, 1);
        problem.beta = f64::NAN;
        for method in [PlannerMethod::Allocation, PlannerMethod::Flow] {
            let config = PlannerConfig {
                method,
                ..PlannerConfig::default()
            };
            assert_eq!(
                try_plan(&problem, &config).err(),
                Some(PlanError::Solver(SolverError::Input(
                    "objective coefficient must be finite"
                ))),
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

    #[test]
    fn starved_budget_returns_feasible_degraded_plan() {
        let problem = small_problem(0.5, 8.0, 3);
        for method in [PlannerMethod::Allocation, PlannerMethod::Flow] {
            let config = PlannerConfig {
                method,
                budget: SolveBudget::with_time_limit(Duration::ZERO),
                ..PlannerConfig::default()
            };
            let p = try_plan(&problem, &config).expect("degraded, not an error");
            assert_eq!(p.status, SolveStatus::Degraded, "{method:?}");
            let total: f64 = p.coverage.iter().sum();
            assert!(
                total <= problem.budget_km() + 1e-6,
                "{method:?}: degraded plan violates the budget: {total}"
            );
            for (i, &c) in p.coverage.iter().enumerate() {
                assert!(c >= -1e-9);
                assert!(
                    c <= problem.max_effort(i) + 1e-6,
                    "{method:?}: cell {i} over its cap: {c}"
                );
            }
            // The greedy incumbent is a real plan, not an all-zero placeholder.
            assert!(total > 0.0, "{method:?}");
            assert!(p.objective > 0.0, "{method:?}");
        }
    }

    /// The greedy fill seeds column generation and stands in for a plan
    /// whose budget ran out, on the claim that it is optimal for the
    /// enveloped LP: its envelope utility must equal the full model's
    /// objective.
    #[test]
    fn greedy_fill_attains_the_full_model_optimum() {
        let config = PlannerConfig {
            decomposition: Decomposition::FullModel,
            ..PlannerConfig::default()
        };
        for beta in [0.0, 0.5, 1.0] {
            for patrol_len in [4.0, 8.0, 12.0] {
                let problem = small_problem(beta, patrol_len, 2);
                let utilities = cell_utilities(&problem, config.segments).unwrap();
                let greedy: f64 = greedy_coverage(&problem, &utilities)
                    .iter()
                    .zip(&utilities)
                    .map(|(&c, u)| enveloped(u).eval(c))
                    .sum();
                let full = try_plan(&problem, &config).unwrap();
                assert_eq!(full.status, SolveStatus::Optimal);
                assert!(
                    (greedy - full.objective).abs() <= 1e-9 * full.objective.abs(),
                    "beta {beta}, T {patrol_len}: greedy {greedy} vs LP {}",
                    full.objective
                );
            }
        }
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
    fn column_generation_matches_full_model_objective() {
        let problem = small_problem(0.5, 8.0, 2);
        let full = try_plan(
            &problem,
            &PlannerConfig {
                decomposition: Decomposition::FullModel,
                ..PlannerConfig::default()
            },
        )
        .unwrap();
        let cg = try_plan(
            &problem,
            &PlannerConfig {
                decomposition: Decomposition::ColumnGeneration,
                ..PlannerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(full.status, SolveStatus::Optimal);
        assert_eq!(cg.status, SolveStatus::Optimal);
        assert!(
            (cg.objective - full.objective).abs() <= 1e-9 * full.objective.abs().max(1.0),
            "cg {} vs full {}",
            cg.objective,
            full.objective
        );
        // The CG plan is feasible for the same budget and caps.
        let total: f64 = cg.coverage.iter().sum();
        assert!(total <= problem.budget_km() + 1e-6);
        for (i, &c) in cg.coverage.iter().enumerate() {
            assert!(c >= -1e-9);
            assert!(c <= problem.max_effort(i) + 1e-6);
        }
        // Every round is one LP solve; no plan explores nodes.
        assert_eq!(cg.nodes, 0);
        assert!(cg.lp_solves >= 1);
    }

    #[test]
    fn column_generation_respects_exhausted_budget() {
        let problem = small_problem(0.5, 8.0, 3);
        let config = PlannerConfig {
            decomposition: Decomposition::ColumnGeneration,
            budget: SolveBudget::with_time_limit(Duration::ZERO),
            ..PlannerConfig::default()
        };
        let p = try_plan(&problem, &config).expect("degraded, not an error");
        assert_eq!(p.status, SolveStatus::Degraded);
        let total: f64 = p.coverage.iter().sum();
        assert!(total <= problem.budget_km() + 1e-6);
        assert!(total > 0.0, "fallback plan should allocate something");
    }

    #[test]
    fn auto_decomposition_keeps_small_instances_on_the_full_model() {
        // The golden small instances must be bit-identical under Auto.
        let problem = small_problem(0.5, 8.0, 2);
        let auto = try_plan(&problem, &PlannerConfig::default()).unwrap();
        let full = try_plan(
            &problem,
            &PlannerConfig {
                decomposition: Decomposition::FullModel,
                ..PlannerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(auto.coverage, full.coverage);
        assert_eq!(auto.objective, full.objective);
        assert_eq!(auto.lp_solves, full.lp_solves);
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
