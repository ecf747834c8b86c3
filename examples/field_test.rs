//! Simulated field test (Sec. VII / Table III of the paper).
//!
//! ```bash
//! cargo run --release --example field_test
//! ```
//!
//! Trains the predictive model on historical data, designs a blind field
//! test (high / medium / low predicted-risk blocks placed in rarely
//! patrolled areas), simulates two months of targeted ranger patrols against
//! the ground-truth poacher model, and reports the Table III style summary
//! with a chi-squared significance test.

use paws_core::{format_table, train, ModelConfig, PawsError, Scenario, WeakLearnerKind};
use paws_data::{build_dataset, split_by_test_year, Discretization};
use paws_field::{design_field_test, run_trial, ProtocolConfig, RiskGroup, TrialConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), PawsError> {
    let scenario = Scenario::test_scenario(7);
    let history = scenario.simulate_years(2014, 3);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let split = split_by_test_year(&dataset, 2016, 2).expect("test year present");

    let mut config = ModelConfig::new(WeakLearnerKind::DecisionTree, true, 7);
    config.n_learners = 6;
    let model = train(&dataset, &split, &config);
    println!(
        "{} test AUC: {:.3}",
        config.name(),
        model.auc_on(&dataset, &split.test)
    );

    // Predicted risk of every cell at a nominal effort level, plus total
    // historical effort, drive the block selection.
    let prev = dataset.coverage.last().unwrap().clone();
    let prepared = model.prepare_park(&scenario.park, &dataset, &prev)?;
    let (risk, _) = model.try_risk_map_prepared(&prepared, 1.0)?;
    let historical: Vec<f64> = (0..scenario.park.n_cells())
        .map(|i| dataset.coverage.iter().map(|step| step[i]).sum())
        .collect();

    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let plan = design_field_test(
        &scenario.park,
        &risk,
        &historical,
        &ProtocolConfig {
            block_size: 2,
            blocks_per_group: 4,
            ..ProtocolConfig::default()
        },
        &mut rng,
    );
    println!(
        "Designed field test: {} blocks of {}x{} km",
        plan.blocks.len(),
        plan.block_size,
        plan.block_size
    );

    let outcome = run_trial(
        &scenario.park,
        &scenario.poacher,
        &plan,
        &TrialConfig::default(),
        123,
    );

    let rows: Vec<Vec<String>> = RiskGroup::all()
        .iter()
        .map(|&g| {
            let row = outcome.group(g);
            vec![
                g.label().to_string(),
                row.observed_cells.to_string(),
                row.patrolled_cells.to_string(),
                format!("{:.1}", row.effort_km),
                format!("{:.2}", row.obs_per_cell),
            ]
        })
        .collect();
    println!();
    println!(
        "{}",
        format_table(
            &[
                "Risk group",
                "# Obs.",
                "# Cells",
                "Effort",
                "# Obs. / # Cells"
            ],
            &rows
        )
    );
    println!(
        "Chi-squared = {:.2} (dof {}), p-value = {:.4} -> {}",
        outcome.chi_squared.statistic,
        outcome.chi_squared.dof,
        outcome.chi_squared.p_value,
        if outcome.chi_squared.significant_at(0.05) {
            "significant at the 0.05 level"
        } else {
            "not significant at the 0.05 level"
        }
    );
    println!(
        "Ranking High >= Medium >= Low holds: {}",
        outcome.ranking_holds()
    );
    Ok(())
}
