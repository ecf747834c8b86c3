//! Evaluation of patrol plans: solution-quality ratios (Fig. 8) and
//! ground-truth snare detections.
//!
//! Sec. VI-D: "we compare the patrols computed with and without uncertainty
//! scores by evaluating them on the ground truth given by the objective with
//! uncertainty … and compute the ratio of the solution quality of the plan
//! at a given β to the baseline of β = 0, Uβ(Cβ)/Uβ(Cβ=0)."

use crate::game::PlanningProblem;
use crate::planner::{try_plan, PlanError, PlannerConfig};

/// Result of comparing a robust plan against the non-robust baseline.
#[derive(Debug, Clone)]
pub struct RobustComparison {
    /// The β used for the robust plan (and for the evaluation objective).
    pub beta: f64,
    /// Uβ(Cβ): utility of the robust plan under the uncertainty-aware objective.
    pub robust_utility: f64,
    /// Uβ(Cβ=0): utility of the β = 0 plan under the same objective.
    pub baseline_utility: f64,
    /// The solution-quality ratio Uβ(Cβ)/Uβ(Cβ=0) plotted in Fig. 8.
    pub improvement_ratio: f64,
    /// Expected snares detected by the robust plan under the ground truth
    /// supplied to [`try_compare_with_ground_truth`] (0 when not evaluated).
    pub robust_detections: f64,
    /// Expected snares detected by the baseline plan.
    pub baseline_detections: f64,
}

/// Compute the Fig. 8 ratio for one planning problem: plan with β = 0 and
/// with `problem.beta`, evaluate both under the β-weighted objective.
///
/// # Errors
/// The [`PlanError`] either plan hit (e.g. [`PlanError::Pwl`] for an
/// empty curve).
pub fn try_compare_robust_vs_baseline(
    problem: &PlanningProblem,
    config: &PlannerConfig,
) -> Result<RobustComparison, PlanError> {
    try_compare(problem, config, |_| 0.0)
}

/// Solve the β = 0 baseline plan and the robust plan at `problem.beta` once
/// each, and build every field from that one pair: the ratio under the
/// β-weighted objective, and `detections` of each plan's coverage. Under a
/// solve budget a second solve could stop at another incumbent, so nothing
/// here solves twice.
fn try_compare(
    problem: &PlanningProblem,
    config: &PlannerConfig,
    detections: impl Fn(&[f64]) -> f64,
) -> Result<RobustComparison, PlanError> {
    let beta = problem.beta;
    let mut baseline_problem = problem.clone();
    baseline_problem.beta = 0.0;
    let baseline = try_plan(&baseline_problem, config)?;
    let robust = try_plan(problem, config)?;

    let baseline_utility = problem.coverage_utility(&baseline.coverage, beta).max(1e-9);
    let robust_utility = problem.coverage_utility(&robust.coverage, beta);
    Ok(RobustComparison {
        beta,
        robust_utility,
        baseline_utility,
        improvement_ratio: robust_utility / baseline_utility,
        robust_detections: detections(&robust.coverage),
        baseline_detections: detections(&baseline.coverage),
    })
}

/// Expected number of snare detections of a coverage vector under a ground
/// truth: Σ_v Pr[attack at v] · Pr[detect | attack, effort c_v].
///
/// `attack_probability[i]` refers to candidate cell `i` of the problem and
/// `detection` maps effort in km to a detection probability.
pub fn expected_detections(
    problem: &PlanningProblem,
    coverage: &[f64],
    attack_probability: &[f64],
    detection: impl Fn(f64) -> f64,
) -> f64 {
    assert_eq!(
        coverage.len(),
        problem.n_cells(),
        "coverage length mismatch"
    );
    assert_eq!(
        attack_probability.len(),
        problem.n_cells(),
        "attack probability length mismatch"
    );
    coverage
        .iter()
        .zip(attack_probability)
        .map(|(&c, &a)| a * detection(c))
        .sum()
}

/// Full comparison including ground-truth detections: the robust and
/// baseline plans are both scored by expected snares found, which is how the
/// paper arrives at the "+30 % detections on average" claim. Each plan is
/// solved once; the ratio and the detections describe the same two plans.
///
/// # Errors
/// The [`PlanError`] either plan hit, as for
/// [`try_compare_robust_vs_baseline`].
pub fn try_compare_with_ground_truth(
    problem: &PlanningProblem,
    config: &PlannerConfig,
    attack_probability: &[f64],
    detection: impl Fn(f64) -> f64 + Copy,
) -> Result<RobustComparison, PlanError> {
    try_compare(problem, config, |coverage| {
        expected_detections(problem, coverage, attack_probability, detection)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paws_data::matrix::Matrix;
    use paws_geo::parks::test_park_spec;
    use paws_geo::Park;

    /// A problem where high-g cells also carry high uncertainty, so the
    /// robust plan meaningfully deviates from the nominal one.
    fn uncertain_problem(beta: f64) -> PlanningProblem {
        let park = Park::generate(&test_park_spec(), 7);
        let post = park.patrol_posts[0];
        let grid: Vec<f64> = vec![0.0, 1.0, 2.0, 4.0, 8.0];
        let probs: Vec<Vec<f64>> = (0..park.n_cells())
            .map(|i| {
                let s = 0.1 + 0.8 * ((i * 29) % 50) as f64 / 50.0;
                grid.iter().map(|&e| s * (1.0 - (-0.7 * e).exp())).collect()
            })
            .collect();
        // Uncertainty correlates with the cell's attractiveness: the model is
        // least sure about exactly the cells it finds most promising.
        let vars: Vec<Vec<f64>> = (0..park.n_cells())
            .map(|i| {
                let s = 0.9 * ((i * 29) % 50) as f64 / 50.0;
                grid.iter().map(|&e| s + 0.02 * e).collect()
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

    #[test]
    fn ratio_is_one_when_beta_is_zero() {
        let problem = uncertain_problem(0.0);
        let cmp = try_compare_robust_vs_baseline(&problem, &PlannerConfig::default()).unwrap();
        assert!((cmp.improvement_ratio - 1.0).abs() < 1e-6);
    }

    #[test]
    fn robust_plan_never_loses_under_its_own_objective() {
        for beta in [0.5, 0.8, 1.0] {
            let problem = uncertain_problem(beta);
            let cmp = try_compare_robust_vs_baseline(&problem, &PlannerConfig::default()).unwrap();
            assert!(
                cmp.improvement_ratio >= 1.0 - 1e-6,
                "beta={beta}: ratio {} < 1",
                cmp.improvement_ratio
            );
        }
    }

    #[test]
    fn ratio_grows_with_beta_for_uncertainty_correlated_risk() {
        let compare = |beta| {
            try_compare_robust_vs_baseline(&uncertain_problem(beta), &PlannerConfig::default())
                .unwrap()
        };
        let (low, high) = (compare(0.3), compare(1.0));
        assert!(high.improvement_ratio >= low.improvement_ratio - 1e-6);
    }

    #[test]
    fn comparisons_propagate_pwl_errors() {
        use crate::pwl::PwlError;
        let problem = uncertain_problem(0.5);
        // A degenerate PWL request (zero segments) propagates as an error
        // through the planner and the evaluation instead of panicking.
        let bad = PlannerConfig {
            segments: 0,
            ..PlannerConfig::default()
        };
        assert_eq!(
            try_compare_robust_vs_baseline(&problem, &bad).err(),
            Some(PlanError::Pwl(PwlError::Empty))
        );
        let attack = vec![0.1; problem.n_cells()];
        assert_eq!(
            try_compare_with_ground_truth(&problem, &bad, &attack, |c| c).err(),
            Some(PlanError::Pwl(PwlError::Empty))
        );
    }

    #[test]
    fn expected_detections_increase_with_coverage() {
        let problem = uncertain_problem(0.0);
        let attack = vec![0.1; problem.n_cells()];
        let detect = |c: f64| 1.0 - (-0.9 * c).exp();
        let none = expected_detections(&problem, &vec![0.0; problem.n_cells()], &attack, detect);
        let some = expected_detections(&problem, &vec![1.0; problem.n_cells()], &attack, detect);
        assert_eq!(none, 0.0);
        assert!(some > 0.0);
    }

    #[test]
    fn ground_truth_comparison_populates_detections() {
        let config = PlannerConfig::default();
        let detect = |c: f64| 1.0 - (-0.9 * c).exp();
        for beta in [0.0, 0.3, 0.9, 1.0] {
            let problem = uncertain_problem(beta);
            let attack: Vec<f64> = (0..problem.n_cells())
                .map(|i| 0.05 + 0.002 * (i % 10) as f64)
                .collect();
            let cmp = try_compare_with_ground_truth(&problem, &config, &attack, detect).unwrap();
            assert!(cmp.robust_detections > 0.0);
            assert!(cmp.baseline_detections > 0.0);
            assert!(cmp.improvement_ratio >= 1.0 - 1e-6);

            // Every field, bit for bit, from two explicit solves.
            let mut baseline_problem = problem.clone();
            baseline_problem.beta = 0.0;
            let baseline = try_plan(&baseline_problem, &config).unwrap().coverage;
            let robust = try_plan(&problem, &config).unwrap().coverage;
            let baseline_utility = problem.coverage_utility(&baseline, beta).max(1e-9);
            let robust_utility = problem.coverage_utility(&robust, beta);
            let bits = |c: &RobustComparison| {
                [
                    c.beta,
                    c.robust_utility,
                    c.baseline_utility,
                    c.improvement_ratio,
                    c.robust_detections,
                    c.baseline_detections,
                ]
                .map(f64::to_bits)
            };
            let reference = RobustComparison {
                beta,
                robust_utility,
                baseline_utility,
                improvement_ratio: robust_utility / baseline_utility,
                robust_detections: expected_detections(&problem, &robust, &attack, detect),
                baseline_detections: expected_detections(&problem, &baseline, &attack, detect),
            };
            assert_eq!(bits(&cmp), bits(&reference), "beta={beta}");
        }
    }
}
