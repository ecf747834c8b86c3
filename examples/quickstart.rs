//! Quickstart: the full PAWS pipeline on a small synthetic park.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! Steps: generate a park scenario, simulate three years of ranger patrols,
//! build the dataset, train the GPB-iW model (Gaussian-process iWare-E),
//! report its test AUC, prepare the park for queries, print a predicted-risk
//! heat map, and plan a robust patrol from the first patrol post.

use paws_core::{ascii_heatmap, train, ModelConfig, PawsError, Scenario, WeakLearnerKind};
use paws_data::{build_dataset, split_by_test_year, Discretization};
use paws_plan::{try_plan, PlannerConfig};

fn main() -> Result<(), PawsError> {
    // 1. A synthetic protected area with a hidden ground-truth poaching process.
    let scenario = Scenario::test_scenario(42);
    println!(
        "Generated park '{}' with {} cells and {} patrol posts",
        scenario.park.name,
        scenario.park.n_cells(),
        scenario.park.patrol_posts.len()
    );

    // 2. Three years of simulated SMART-style patrol history.
    let history = scenario.simulate_years(2014, 3);
    println!(
        "Simulated {} months of patrols with {} detected poaching incidents",
        history.months.len(),
        history.total_detections()
    );

    // 3. Dataset: 3-month time steps, features + previous coverage, labels.
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    println!(
        "Dataset: {} points, {} features, {:.1}% positive labels",
        dataset.n_points(),
        dataset.n_features(),
        100.0 * dataset.n_positive() as f64 / dataset.n_points() as f64
    );

    // 4. Train GPB-iW (train on 2014-2015, test on 2016) and report AUC.
    let split = split_by_test_year(&dataset, 2016, 2).expect("2016 is present in the dataset");
    let mut config = ModelConfig::new(WeakLearnerKind::GaussianProcess, true, 42);
    config.n_learners = 5;
    config.n_estimators = 4;
    config.gp_max_points = 150;
    let model = train(&dataset, &split, &config);
    println!(
        "{} test AUC: {:.3}",
        config.name(),
        model.auc_on(&dataset, &split.test)
    );

    // 5. Prepare the park once (its feature stack standardised against the
    //    model's scaler), then query its risk map at 1 km of prospective
    //    patrol effort (cf. Fig. 6).
    let prev_coverage = dataset.coverage.last().unwrap().clone();
    let prepared = model.prepare_park(&scenario.park, &dataset, &prev_coverage)?;
    let (risk, uncertainty) = model.try_risk_map_prepared(&prepared, 1.0)?;
    println!("\nPredicted poaching risk (darker = riskier):");
    println!("{}", ascii_heatmap(&scenario.park, &risk));
    let mean_unc = uncertainty.iter().sum::<f64>() / uncertainty.len() as f64;
    println!("Mean predictive uncertainty: {mean_unc:.4}");

    // 6. Robust patrol planning from the first patrol post (β = 1).
    let effort_grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    let problem = model.try_planning_problem_prepared(
        &scenario.park,
        &prepared,
        scenario.park.patrol_posts[0],
        &effort_grid,
        10.0,
        3,
        1.0,
    )?;
    let patrol = try_plan(&problem, &PlannerConfig::default())?;
    let covered = patrol.coverage.iter().filter(|&&c| c > 1e-6).count();
    println!(
        "Planned robust patrols: {} of {} reachable cells covered, objective {:.3}, solved in {:?}",
        covered,
        problem.n_cells(),
        patrol.objective,
        patrol.solve_time
    );
    Ok(())
}
