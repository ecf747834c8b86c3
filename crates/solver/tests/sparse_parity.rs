//! Property-based parity suite: the sparse revised simplex (the default
//! `solve_lp` engine) must agree with the dense tableau reference
//! (`solve_lp_dense`) on every randomized instance — same status, objective
//! within 1e-9 (relative), identical `require_usable` outcome — and the
//! budgeted entry points must be behavioural no-ops under an unlimited
//! budget. A cycling regression pins the Bland's-rule fallback.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use paws_solver::{
    solve_lp, solve_lp_budgeted, solve_lp_dense, solve_lp_dense_budgeted, ConstraintOp, Model,
    Sense, SolveBudget, SolveStatus, SparseLp,
};

/// A random LP over a handful of bounded/unbounded variables and mixed-sense
/// rows — small enough that both engines run to a definitive status.
fn random_lp(seed: u64) -> Model {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rng.gen_range(1..12);
    let mut m = Model::new(if rng.gen::<f64>() < 0.5 {
        Sense::Maximize
    } else {
        Sense::Minimize
    });
    let vars: Vec<_> = (0..n)
        .map(|_| {
            let lo = rng.gen_range(-3.0..2.0);
            let hi = if rng.gen::<f64>() < 0.3 {
                f64::INFINITY
            } else {
                lo + rng.gen_range(0.0..6.0)
            };
            m.try_add_continuous(lo, hi, rng.gen_range(-4.0..4.0))
                .unwrap()
        })
        .collect();
    for _ in 0..rng.gen_range(1..10) {
        let mut terms = Vec::new();
        for &v in &vars {
            if rng.gen::<f64>() < 0.6 {
                terms.push((v, rng.gen_range(-3.0..3.0)));
            }
        }
        if terms.is_empty() {
            continue;
        }
        let op = match rng.gen_range(0..4) {
            0 => ConstraintOp::Ge,
            1 => ConstraintOp::Eq,
            _ => ConstraintOp::Le,
        };
        m.try_add_constraint(&terms, op, rng.gen_range(-5.0..8.0))
            .unwrap();
    }
    m
}

fn objectives_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn sparse_agrees_with_dense_on_random_lps(seed in 0.0..100000.0f64) {
        let m = random_lp(seed as u64);
        let dense = solve_lp_dense(&m);
        let sparse = solve_lp(&m);
        prop_assert!(
            sparse.status == dense.status,
            "seed {seed}: sparse {:?} vs dense {:?}",
            sparse.status,
            dense.status
        );
        // require_usable must give the identical verdict on both engines.
        prop_assert!(
            sparse.require_usable().is_ok() == dense.require_usable().is_ok(),
            "seed {seed}: require_usable diverged"
        );
        if dense.status == SolveStatus::Optimal {
            prop_assert!(
                objectives_close(sparse.objective, dense.objective),
                "seed {seed}: sparse {} vs dense {}",
                sparse.objective,
                dense.objective
            );
            prop_assert!(
                m.is_feasible(&sparse.values, 1e-6),
                "seed {seed}: sparse point infeasible"
            );
        }
    }

    #[test]
    fn unlimited_budget_is_a_behavioural_noop_on_both_engines(seed in 0.0..100000.0f64) {
        let m = random_lp(seed as u64);
        let budget = SolveBudget::unlimited();
        let sparse_free = solve_lp(&m);
        let sparse_budgeted = solve_lp_budgeted(&m, &budget);
        prop_assert!(sparse_budgeted.status == sparse_free.status);
        prop_assert!(sparse_budgeted.objective == sparse_free.objective);
        prop_assert!(sparse_budgeted.values == sparse_free.values);
        let dense_free = solve_lp_dense(&m);
        let dense_budgeted = solve_lp_dense_budgeted(&m, &budget);
        prop_assert!(dense_budgeted.status == dense_free.status);
        prop_assert!(dense_budgeted.values == dense_free.values);
    }
}

/// Beale's classic cycling LP: Dantzig pricing with naive tie-breaking
/// cycles forever; the stall-triggered Bland fallback (and the forced
/// Bland-only mode) must terminate at the optimum 0.05.
fn beale_model() -> Model {
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
    m
}

#[test]
fn cycling_instance_terminates_via_bland_fallback() {
    let m = beale_model();
    let default_path = solve_lp(&m);
    assert_eq!(default_path.status, SolveStatus::Optimal);
    assert!((default_path.objective - 0.05).abs() < 1e-9);

    // Forced Bland-only run (stall limit zero): pure anti-cycling pricing
    // must reach the same optimum.
    let mut ws = SparseLp::new(&m);
    ws.set_stall_limit(0);
    let bland = ws.solve();
    assert_eq!(bland.status, SolveStatus::Optimal);
    assert!((bland.objective - 0.05).abs() < 1e-9);

    // And the dense reference agrees.
    let dense = solve_lp_dense(&m);
    assert_eq!(dense.status, SolveStatus::Optimal);
    assert!((dense.objective - 0.05).abs() < 1e-9);
}

#[test]
fn degraded_and_budget_exceeded_parity_under_starved_budgets() {
    // Feasible-at-start model: a zero deadline leaves a Degraded feasible
    // point on both engines.
    let mut feasible = Model::new(Sense::Maximize);
    let x = feasible.try_add_continuous(0.0, 5.0, 1.0).unwrap();
    feasible
        .try_add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0)
        .unwrap();
    let budget = SolveBudget::with_time_limit(std::time::Duration::ZERO);
    let sparse = solve_lp_budgeted(&feasible, &budget);
    let dense = solve_lp_dense_budgeted(&feasible, &budget);
    assert_eq!(sparse.status, SolveStatus::Degraded);
    assert_eq!(dense.status, SolveStatus::Degraded);
    assert!(feasible.is_feasible(&sparse.values, 1e-6));

    // Phase-1 model (needs artificials): the same budget dies before
    // feasibility, surfacing BudgetExceeded on both engines.
    let mut phase1 = Model::new(Sense::Maximize);
    let y = phase1.try_add_continuous(0.0, f64::INFINITY, 1.0).unwrap();
    phase1
        .try_add_constraint(&[(y, 1.0)], ConstraintOp::Ge, 2.0)
        .unwrap();
    phase1
        .try_add_constraint(&[(y, 1.0)], ConstraintOp::Le, 10.0)
        .unwrap();
    let sparse1 = solve_lp_budgeted(&phase1, &budget);
    let dense1 = solve_lp_dense_budgeted(&phase1, &budget);
    assert_eq!(sparse1.status, SolveStatus::BudgetExceeded);
    assert_eq!(dense1.status, SolveStatus::BudgetExceeded);
    assert_eq!(
        sparse1.require_usable().is_ok(),
        dense1.require_usable().is_ok()
    );
}

#[test]
fn iteration_cap_yields_degraded_feasible_point_like_dense() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.try_add_continuous(0.0, f64::INFINITY, 3.0).unwrap();
    let y = m.try_add_continuous(0.0, f64::INFINITY, 5.0).unwrap();
    m.try_add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0)
        .unwrap();
    m.try_add_constraint(&[(y, 2.0)], ConstraintOp::Le, 12.0)
        .unwrap();
    m.try_add_constraint(&[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0)
        .unwrap();
    let budget = SolveBudget {
        time_limit: None,
        max_lp_iterations: Some(1),
    };
    let sparse = solve_lp_budgeted(&m, &budget);
    let dense = solve_lp_dense_budgeted(&m, &budget);
    assert_eq!(sparse.status, SolveStatus::Degraded);
    assert_eq!(dense.status, SolveStatus::Degraded);
    assert!(m.is_feasible(&sparse.values, 1e-6));
    assert!(sparse.require_usable().is_ok());
}
