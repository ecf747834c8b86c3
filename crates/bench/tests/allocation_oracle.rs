//! An allocation plan is the greedy concave-envelope fill, with no LP. This
//! suite checks its objective against an LP oracle: the allocation model
//! built here with one λ block per cell over the cell's sampled utility
//! (a convexity row Σ λ = 1 each) plus the budget row Σ λ·x ≤ T·K, solved
//! by `solve_lp`. Without adjacency constraints the λ blocks mix any two
//! breakpoints, so the LP optimises each cell's concave envelope without
//! the planner's envelope code.

use paws_bench::full_reach_problem;
use paws_core::{train, ModelConfig, Scenario, WeakLearnerKind};
use paws_data::{build_dataset, split_by_test_year, Discretization, Matrix};
use paws_geo::parks::test_park_spec;
use paws_geo::Park;
use paws_plan::{try_plan, PlannerConfig, PlanningCell, PlanningProblem, PwlFunction};
use paws_solver::{solve_lp, ConstraintOp, Model, Sense, SolveStatus};

/// The LP optimum of the allocation problem at `segments` PWL segments
/// per cell, sampled as the planner samples it.
fn oracle_objective(problem: &PlanningProblem, segments: usize) -> f64 {
    let mut model = Model::new(Sense::Maximize);
    let mut budget_terms = Vec::new();
    for i in 0..problem.n_cells() {
        let u = problem.utility(i, problem.beta);
        let hi = problem.max_effort(i).max(1e-3);
        let u = PwlFunction::try_from_samples(0.0, hi, segments, |c| u.eval(c)).unwrap();
        let lambdas: Vec<_> = u
            .ys()
            .iter()
            .map(|&y| model.try_add_continuous(0.0, f64::INFINITY, y).unwrap())
            .collect();
        let convexity: Vec<_> = lambdas.iter().map(|&l| (l, 1.0)).collect();
        model
            .try_add_constraint(&convexity, ConstraintOp::Eq, 1.0)
            .unwrap();
        budget_terms.extend(lambdas.iter().zip(u.xs()).map(|(&l, &x)| (l, x)));
    }
    model
        .try_add_constraint(&budget_terms, ConstraintOp::Le, problem.budget_km())
        .unwrap();
    let solution = solve_lp(&model);
    assert_eq!(solution.status, SolveStatus::Optimal);
    solution.objective
}

/// Plan `problem` and check the plan against the oracle: an optimal
/// objective within 1e-9 relative, a coverage inside the budget and every
/// cell's cap, and no LP solved.
fn assert_matches_oracle(problem: &PlanningProblem, segments: usize, what: &str) {
    let config = PlannerConfig {
        segments,
        ..PlannerConfig::default()
    };
    let plan = try_plan(problem, &config).unwrap();
    assert_eq!(plan.status, SolveStatus::Optimal, "{what}");
    assert_eq!(plan.lp_solves, 0, "{what}");
    let oracle = oracle_objective(problem, segments);
    assert!(
        (plan.objective - oracle).abs() <= 1e-9 * oracle.abs(),
        "{what}: greedy {} vs LP {oracle}",
        plan.objective
    );
    let total: f64 = plan.coverage.iter().sum();
    assert!(total <= problem.budget_km() + 1e-9, "{what}: spent {total}");
    for (i, &c) in plan.coverage.iter().enumerate() {
        assert!(c >= 0.0, "{what}: cell {i} at {c}");
        assert!(
            c <= problem.max_effort(i).max(1e-3) + 1e-9,
            "{what}: cell {i} over its cap at {c}"
        );
    }
}

/// The planner unit tests' synthetic problem: test park (seed 7), its
/// first patrol post, K = 2 patrols, and deterministic per-cell detection
/// and variance curves on the grid `[0, 0.5, 1, 2, 4, 8]` km.
fn synthetic_problem(beta: f64, patrol_length_km: f64) -> PlanningProblem {
    let park = Park::generate(&test_park_spec(), 7);
    let grid: [f64; 6] = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
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
        park.patrol_posts[0],
        &grid,
        &Matrix::from_rows(&probs),
        &Matrix::from_rows(&vars),
        patrol_length_km,
        2,
        beta,
    )
}

#[test]
fn greedy_plans_match_the_lp_oracle_on_synthetic_posts() {
    for beta in [0.0, 0.5, 1.0] {
        for patrol_length_km in [4.0, 8.0, 12.0, 80.0] {
            let problem = synthetic_problem(beta, patrol_length_km);
            for segments in [3, 10, 25] {
                let what = format!("beta {beta}, T {patrol_length_km}, {segments} segments");
                assert_matches_oracle(&problem, segments, &what);
            }
        }
    }
}

#[test]
fn greedy_plan_matches_the_lp_oracle_on_the_full_reach_problem() {
    let park = Park::generate(&test_park_spec(), 11);
    let problem = full_reach_problem(&park, 0.05 * park.n_cells() as f64, 1.0);
    assert_eq!(problem.n_cells(), park.n_cells());
    assert_matches_oracle(&problem, PlannerConfig::default().segments, "full reach");
}

#[test]
fn greedy_plan_matches_the_lp_oracle_on_a_prepared_park() {
    // The DTB-iW model and planning query of `matrix_parity`'s prepared
    // plan pin.
    let scenario = Scenario::test_scenario(3);
    let history = scenario.simulate_years(2014, 3);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let split = split_by_test_year(&dataset, 2016, 2).expect("split exists");
    let prev = dataset.coverage.last().expect("coverage recorded").clone();
    let mut cfg = ModelConfig::new(WeakLearnerKind::DecisionTree, true, 7);
    cfg.n_learners = 4;
    cfg.n_estimators = 4;
    let model = train(&dataset, &split, &cfg);
    let prepared = model
        .prepare_park(&scenario.park, &dataset, &prev)
        .expect("test park prepares");
    let problem = model
        .try_planning_problem_prepared(
            &scenario.park,
            &prepared,
            scenario.park.patrol_posts[0],
            &[0.0, 0.5, 1.0, 2.0, 4.0],
            8.0,
            2,
            0.8,
        )
        .expect("valid planning query");
    assert_matches_oracle(&problem, PlannerConfig::default().segments, "prepared park");
}

/// Two identical cells tie on every segment slope. The fill takes tied
/// segments in cell order, so with 3 km to spread over 1 km segments of
/// slopes 0.5, 0.3 and 0.1, cell 0 gets its first two and cell 1 its
/// first one.
#[test]
fn identical_cells_fill_in_index_order() {
    let park = Park::generate(&test_park_spec(), 7);
    let xs = vec![0.0, 1.0, 2.0, 3.0];
    let cell = |i: usize| PlanningCell {
        cell: park.cells[i],
        park_index: i,
        travel_km: 0.0,
        g: PwlFunction::new(xs.clone(), vec![0.0, 0.5, 0.8, 0.9]),
        nu: PwlFunction::new(xs.clone(), vec![0.0; 4]),
    };
    let problem = PlanningProblem {
        post: park.cells[0],
        cells: vec![cell(0), cell(1)],
        neighbours: vec![Vec::new(), Vec::new()],
        post_index: 0,
        patrol_length_km: 3.0,
        n_patrols: 1,
        beta: 0.0,
    };
    let config = PlannerConfig {
        segments: 3,
        ..PlannerConfig::default()
    };
    let plan = try_plan(&problem, &config).unwrap();
    assert_eq!(plan.coverage, [2.0, 1.0]);
    assert_matches_oracle(&problem, config.segments, "identical cells");
}
