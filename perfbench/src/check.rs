//! Output checks. Each returns `false` instead of panicking; the caller
//! counts the operation as failed.

use paws_plan::PatrolPlan;
use paws_serve::QueryResponse;
use paws_solver::SolveStatus;

/// A risk map covers every cell, its risk and variance are finite, and
/// risk is a probability.
pub fn risk_map_ok(n_cells: usize, risk: &[f64], variance: &[f64]) -> bool {
    risk.len() == n_cells
        && variance.len() == n_cells
        && risk.iter().all(|p| (0.0..=1.0).contains(p))
        && variance.iter().all(|v| v.is_finite())
}

/// A plan is `Optimal`, allocates finite non-negative effort and stays
/// within the patrol budget.
pub fn plan_ok(plan: &PatrolPlan, budget_km: f64) -> bool {
    plan.status == SolveStatus::Optimal
        && plan.coverage.iter().all(|c| c.is_finite() && *c >= -1e-9)
        && plan.coverage.iter().sum::<f64>() <= budget_km + 1e-6
}

/// A served answer passes the same checks as a direct one.
pub fn answer_ok(answer: &QueryResponse, n_cells: usize, budget_km: f64) -> bool {
    match answer {
        QueryResponse::RiskMap { risk, uncertainty } => risk_map_ok(n_cells, risk, uncertainty),
        QueryResponse::ParkResponse { probs, vars } => {
            probs.n_rows() == n_cells
                && probs.as_slice().iter().all(|p| (0.0..=1.0).contains(p))
                && vars.as_slice().iter().all(|v| v.is_finite())
        }
        QueryResponse::PatrolPlan(plan) => plan_ok(plan, budget_km),
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Two answers are bit-identical (a plan's solve time aside).
pub fn same_answer(a: &QueryResponse, b: &QueryResponse) -> bool {
    match (a, b) {
        (
            QueryResponse::RiskMap { risk, uncertainty },
            QueryResponse::RiskMap {
                risk: risk_b,
                uncertainty: uncertainty_b,
            },
        ) => same_bits(risk, risk_b) && same_bits(uncertainty, uncertainty_b),
        (
            QueryResponse::ParkResponse { probs, vars },
            QueryResponse::ParkResponse {
                probs: probs_b,
                vars: vars_b,
            },
        ) => {
            same_bits(probs.as_slice(), probs_b.as_slice())
                && same_bits(vars.as_slice(), vars_b.as_slice())
        }
        (QueryResponse::PatrolPlan(p), QueryResponse::PatrolPlan(q)) => {
            p.status == q.status
                && p.objective.to_bits() == q.objective.to_bits()
                && same_bits(&p.coverage, &q.coverage)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn plan(coverage: Vec<f64>, status: SolveStatus) -> PatrolPlan {
        PatrolPlan {
            coverage,
            objective: 1.0,
            solve_time: Duration::ZERO,
            nodes: 1,
            lp_solves: 1,
            status,
        }
    }

    #[test]
    fn plans_must_be_optimal_and_within_budget() {
        assert!(plan_ok(&plan(vec![1.0, 2.0], SolveStatus::Optimal), 3.0));
        assert!(!plan_ok(&plan(vec![1.0, 2.5], SolveStatus::Optimal), 3.0));
        assert!(!plan_ok(&plan(vec![1.0], SolveStatus::Degraded), 3.0));
        assert!(!plan_ok(&plan(vec![f64::NAN], SolveStatus::Optimal), 3.0));
    }

    #[test]
    fn risk_maps_must_be_probabilities_with_finite_variance() {
        assert!(risk_map_ok(2, &[0.0, 1.0], &[0.1, 0.0]));
        assert!(!risk_map_ok(2, &[0.0, 1.5], &[0.1, 0.0]));
        assert!(!risk_map_ok(2, &[0.0, 0.5], &[f64::INFINITY, 0.0]));
        assert!(!risk_map_ok(3, &[0.0, 0.5], &[0.0, 0.0]));
    }

    #[test]
    fn answers_compare_bit_for_bit() {
        let a = QueryResponse::PatrolPlan(plan(vec![0.1, 0.2], SolveStatus::Optimal));
        let mut p = plan(vec![0.1, 0.2], SolveStatus::Optimal);
        p.solve_time = Duration::from_millis(5);
        assert!(same_answer(&a, &QueryResponse::PatrolPlan(p)));
        let one_ulp_off = plan(vec![0.1, 0.2f64.next_up()], SolveStatus::Optimal);
        assert!(!same_answer(&a, &QueryResponse::PatrolPlan(one_ulp_off)));
        let r = QueryResponse::RiskMap {
            risk: vec![0.5],
            uncertainty: vec![0.0],
        };
        assert!(!same_answer(&a, &r));
    }
}
