//! Robust patrol planning under predictive uncertainty (Sec. VI / Fig. 8).
//!
//! ```bash
//! cargo run --release --example robust_planning
//! ```
//!
//! Trains the GP-based iWare-E model, prepares the park once, builds one
//! planning problem per patrol post from it, sweeps the robustness parameter
//! β, and reports the solution-quality ratio Uβ(Cβ)/Uβ(Cβ=0) together with
//! the expected number of snares found under the ground-truth poacher model.

use paws_core::{format_table, train, ModelConfig, PawsError, Scenario, WeakLearnerKind};
use paws_data::{build_dataset, split_by_test_year, Discretization};
use paws_plan::{try_compare_with_ground_truth, PlannerConfig};
use paws_sim::Season;

fn main() -> Result<(), PawsError> {
    let scenario = Scenario::test_scenario(11);
    let history = scenario.simulate_years(2014, 3);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let split = split_by_test_year(&dataset, 2016, 2).expect("test year present");

    let mut config = ModelConfig::new(WeakLearnerKind::GaussianProcess, true, 11);
    config.n_learners = 5;
    config.n_estimators = 4;
    config.gp_max_points = 150;
    let model = train(&dataset, &split, &config);
    println!(
        "{} test AUC: {:.3}\n",
        config.name(),
        model.auc_on(&dataset, &split.test)
    );

    let prev = dataset.coverage.last().unwrap().clone();
    let prepared = model.prepare_park(&scenario.park, &dataset, &prev)?;
    let effort_grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    let attack = scenario.attack_probabilities(&vec![0.0; scenario.park.n_cells()], Season::Dry);
    let detection = scenario.sim.detection;

    let mut rows = Vec::new();
    for beta in [0.0, 0.5, 0.8, 0.9, 1.0] {
        // Average the improvement over every patrol post, as in Fig. 8.
        let mut ratios = Vec::new();
        let mut detection_gains = Vec::new();
        for &post in &scenario.park.patrol_posts {
            let problem = model.try_planning_problem_prepared(
                &scenario.park,
                &prepared,
                post,
                &effort_grid,
                10.0,
                3,
                beta,
            )?;
            // Ground-truth attack probabilities of the problem's candidate cells.
            let attack_local: Vec<f64> =
                problem.cells.iter().map(|c| attack[c.park_index]).collect();
            let cmp = try_compare_with_ground_truth(
                &problem,
                &PlannerConfig::default(),
                &attack_local,
                |c| detection.probability(c),
            )?;
            ratios.push(cmp.improvement_ratio);
            if cmp.baseline_detections > 0.0 {
                detection_gains.push(cmp.robust_detections / cmp.baseline_detections);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let max = |v: &[f64]| v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        rows.push(vec![
            format!("{beta:.1}"),
            format!("{:.3}", mean(&ratios)),
            format!("{:.3}", max(&ratios)),
            format!("{:.3}", mean(&detection_gains)),
        ]);
    }

    println!(
        "{}",
        format_table(
            &[
                "beta",
                "avg Uβ(Cβ)/Uβ(C0)",
                "max Uβ(Cβ)/Uβ(C0)",
                "avg detection gain"
            ],
            &rows
        )
    );
    println!(
        "Ratios above 1.0 mean the uncertainty-aware plan beats the nominal plan (cf. Fig. 8)."
    );
    Ok(())
}
