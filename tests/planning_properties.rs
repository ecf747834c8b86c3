//! Property-based integration tests of the planning stack: for randomly
//! generated response curves the planner must respect its budget, never lose
//! to trivial baselines under its own objective, and stay consistent between
//! the robust and nominal formulations.

use paws_data::Matrix;
use paws_geo::parks::{qenp_spec, test_park_spec};
use paws_geo::Park;
use paws_plan::{try_plan, PlannerConfig, PlanningProblem};
use paws_solver::SolveStatus;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Build a planning problem with parameterised response shapes.
fn build_problem(seed_scale: f64, uncertainty_level: f64, beta: f64) -> PlanningProblem {
    let park = Park::generate(&test_park_spec(), 7);
    let post = park.patrol_posts[0];
    let grid: Vec<f64> = vec![0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    let probs: Vec<Vec<f64>> = (0..park.n_cells())
        .map(|i| {
            let s = (0.05 + seed_scale * ((i * 37 + 11) % 100) as f64 / 100.0).min(0.95);
            grid.iter().map(|&e| s * (1.0 - (-0.7 * e).exp())).collect()
        })
        .collect();
    let vars: Vec<Vec<f64>> = (0..park.n_cells())
        .map(|i| {
            let base = uncertainty_level * ((i * 61 + 3) % 100) as f64 / 100.0;
            grid.iter().map(|&e| (base + 0.02 * e).min(0.99)).collect()
        })
        .collect();
    PlanningProblem::from_response(
        &park,
        post,
        &grid,
        &Matrix::from_rows(&probs),
        &Matrix::from_rows(&vars),
        8.0,
        2,
        beta,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn plans_respect_budget_and_caps(
        scale in 0.2..0.9f64,
        unc in 0.0..0.9f64,
        beta in 0.0..1.0f64,
    ) {
        let problem = build_problem(scale, unc, beta);
        let result = try_plan(&problem, &PlannerConfig::default()).unwrap();
        let total: f64 = result.coverage.iter().sum();
        prop_assert!(total <= problem.budget_km() + 1e-6);
        for (i, &c) in result.coverage.iter().enumerate() {
            prop_assert!(c >= -1e-9);
            prop_assert!(c <= problem.max_effort(i) + 1e-6);
        }
        prop_assert!(result.objective.is_finite());
    }

    #[test]
    fn planner_beats_uniform_allocation(
        scale in 0.2..0.9f64,
        unc in 0.0..0.6f64,
    ) {
        let problem = build_problem(scale, unc, 0.0);
        let result = try_plan(&problem, &PlannerConfig::default()).unwrap();
        let uniform = vec![
            (problem.budget_km() / problem.n_cells() as f64)
                .min(problem.max_effort(0));
            problem.n_cells()
        ];
        let u_opt = problem.coverage_utility(&result.coverage, 0.0);
        let u_uniform = problem.coverage_utility(&uniform, 0.0);
        prop_assert!(u_opt >= u_uniform - 1e-6, "optimised {u_opt} < uniform {u_uniform}");
    }

    #[test]
    fn robust_plan_wins_under_its_own_objective(
        scale in 0.3..0.8f64,
        unc in 0.2..0.9f64,
        beta in 0.5..1.0f64,
    ) {
        let problem = build_problem(scale, unc, beta);
        let robust = try_plan(&problem, &PlannerConfig::default()).unwrap();
        let mut nominal_problem = problem.clone();
        nominal_problem.beta = 0.0;
        let nominal = try_plan(&nominal_problem, &PlannerConfig::default()).unwrap();
        let u_robust = problem.coverage_utility(&robust.coverage, beta);
        let u_nominal = problem.coverage_utility(&nominal.coverage, beta);
        // Allow a tiny tolerance for PWL resolution differences.
        prop_assert!(u_robust >= u_nominal - 0.02 * u_nominal.abs().max(1.0));
    }
}

/// Build a Fig. 8-scale planning problem: the full QENP park at the fig8
/// bench's patrol budget (4 patrols × 10 km) with synthetic saturating
/// response curves over the standard effort grid.
fn qenp_scale_problem() -> PlanningProblem {
    let park = Park::generate(&qenp_spec(), 11);
    let post = park.patrol_posts[0];
    let grid: Vec<f64> = vec![0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    let probs: Vec<Vec<f64>> = (0..park.n_cells())
        .map(|i| {
            let s = (0.05 + 0.6 * ((i * 37 + 11) % 100) as f64 / 100.0).min(0.95);
            grid.iter().map(|&e| s * (1.0 - (-0.7 * e).exp())).collect()
        })
        .collect();
    let vars: Vec<Vec<f64>> = (0..park.n_cells())
        .map(|i| {
            let base = 0.4 * ((i * 61 + 3) % 100) as f64 / 100.0;
            grid.iter().map(|&e| (base + 0.02 * e).min(0.99)).collect()
        })
        .collect();
    PlanningProblem::from_response(
        &park,
        post,
        &grid,
        &Matrix::from_rows(&probs),
        &Matrix::from_rows(&vars),
        40.0,
        4,
        0.9,
    )
}

/// Fig. 8 scale: the plan is the greedy fill, `Optimal` with no LP, within
/// the patrol budget and every cell's cap, and allocates something.
#[test]
fn qenp_scale_plan_is_optimal_and_feasible() {
    let problem = qenp_scale_problem();
    let t0 = Instant::now();
    let p = try_plan(&problem, &PlannerConfig::default()).expect("the QENP-scale problem plans");
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "QENP-scale plan took {:?}",
        t0.elapsed()
    );
    assert_eq!(p.status, SolveStatus::Optimal);
    assert_eq!(p.lp_solves, 0);
    let total: f64 = p.coverage.iter().sum();
    assert!(total <= problem.budget_km() + 1e-6, "over budget: {total}");
    for (i, &c) in p.coverage.iter().enumerate() {
        assert!(c >= -1e-9, "cell {i} negative: {c}");
        assert!(c <= problem.max_effort(i) + 1e-6, "cell {i} over cap: {c}");
    }
    assert!(total > 0.0, "the plan allocated nothing");
}
