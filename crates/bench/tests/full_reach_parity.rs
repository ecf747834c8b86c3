//! The synthetic full-reach allocation problem (the LLC benchmark workload)
//! must solve to the same objective through column generation as through
//! the monolithic model — at a scale where the monolith is still cheap.

use paws_bench::full_reach_problem;
use paws_geo::parks::test_park_spec;
use paws_geo::Park;
use paws_plan::{try_plan, Decomposition, PlannerConfig};
use paws_solver::SolveStatus;

#[test]
fn colgen_matches_full_model_on_the_full_reach_workload() {
    let park = Park::generate(&test_park_spec(), 11);
    let problem = full_reach_problem(&park, 0.05 * park.n_cells() as f64, 1.0);

    let full = try_plan(
        &problem,
        &PlannerConfig {
            decomposition: Decomposition::FullModel,
            ..PlannerConfig::default()
        },
    )
    .unwrap();
    let colgen = try_plan(
        &problem,
        &PlannerConfig {
            decomposition: Decomposition::ColumnGeneration,
            ..PlannerConfig::default()
        },
    )
    .unwrap();
    assert_eq!(full.status, SolveStatus::Optimal);
    assert_eq!(colgen.status, SolveStatus::Optimal);
    assert!(
        (full.objective - colgen.objective).abs() <= 1e-6 * full.objective.abs().max(1.0),
        "full {} vs colgen {}",
        full.objective,
        colgen.objective
    );
    let spent: f64 = colgen.coverage.iter().sum();
    assert!(spent <= problem.budget_km() + 1e-6);
}
