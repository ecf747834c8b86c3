//! Table III / Figure 10 — simulated field tests in MFNP and SWS: detected
//! poaching per patrolled cell in high / medium / low predicted-risk blocks,
//! with Pearson chi-squared significance tests.
//!
//! The real trials were two MFNP trials (Nov–Dec 2017 and Jan–Mar 2018, 2×2
//! km blocks, DTB-iW predictions) and two SWS trials (Dec 2018–Jan 2019 and
//! Feb–Mar 2019, 3×3 km blocks, GPB-iW on dry-season data). The simulated
//! protocol mirrors those choices against the synthetic ground truth.
//!
//! ```bash
//! cargo run --release -p paws-bench --bin table3
//! ```

use paws_bench::{
    dry_season_dataset, park_model_config, quarterly_dataset, scenario, write_json, Scale,
};
use paws_core::{format_table, train, PawsError, WeakLearnerKind};
use paws_data::{split_by_test_year, Dataset};
use paws_field::{
    design_field_test, run_trial, ProtocolConfig, RiskGroup, TrialConfig, TrialOutcome,
};
use paws_sim::Season;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

#[derive(Serialize)]
struct TrialReport {
    name: String,
    months: usize,
    chi_squared: f64,
    p_value: f64,
    ranking_holds: bool,
    rows: Vec<(String, usize, usize, f64, f64)>,
}

fn report(name: &str, months: usize, outcome: &TrialOutcome) -> TrialReport {
    let rows = RiskGroup::all()
        .iter()
        .map(|&g| {
            let r = outcome.group(g);
            (
                g.label().to_string(),
                r.observed_cells,
                r.patrolled_cells,
                r.effort_km,
                r.obs_per_cell,
            )
        })
        .collect();
    TrialReport {
        name: name.to_string(),
        months,
        chi_squared: outcome.chi_squared.statistic,
        p_value: outcome.chi_squared.p_value,
        ranking_holds: outcome.ranking_holds(),
        rows,
    }
}

fn print_report(r: &TrialReport) {
    println!("{} ({} months):", r.name, r.months);
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|(g, obs, cells, effort, rate)| {
            vec![
                g.clone(),
                obs.to_string(),
                cells.to_string(),
                format!("{effort:.1}"),
                format!("{rate:.2}"),
            ]
        })
        .collect();
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
        "chi-squared = {:.2}, p = {:.4}, High >= Medium >= Low: {}\n",
        r.chi_squared, r.p_value, r.ranking_holds
    );
}

/// Train the park's field-test model, produce a risk map and historical
/// effort, and design the block layout.
#[allow(clippy::too_many_arguments)]
fn design(
    park_name: &str,
    dataset: &Dataset,
    test_year: u32,
    learner: WeakLearnerKind,
    block_size: u32,
    blocks_per_group: usize,
    scale: Scale,
    seed: u64,
) -> Result<(paws_core::Scenario, paws_field::FieldTestPlan), PawsError> {
    let sc = scenario(park_name);
    let split = split_by_test_year(dataset, test_year, 3).expect("test year present");
    let config = park_model_config(park_name, learner, true, scale);
    let model = train(dataset, &split, &config);
    println!(
        "{park_name}: {} test AUC {:.3}",
        config.name(),
        model.auc_on(dataset, &split.test)
    );

    let prev = dataset.coverage.last().unwrap().clone();
    let prepared = model.prepare_park(&sc.park, dataset, &prev)?;
    let (risk, _) = model.try_risk_map_prepared(&prepared, 1.0)?;
    let historical: Vec<f64> = (0..sc.park.n_cells())
        .map(|i| dataset.coverage.iter().map(|step| step[i]).sum())
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let plan = design_field_test(
        &sc.park,
        &risk,
        &historical,
        &ProtocolConfig {
            block_size,
            blocks_per_group,
            ..ProtocolConfig::default()
        },
        &mut rng,
    );
    Ok((sc, plan))
}

fn main() -> Result<(), PawsError> {
    let scale = Scale::from_args();
    println!("Table III / Fig. 10: simulated field tests\n");
    let mut reports = Vec::new();

    // MFNP: DTB-iW predictions, 2×2 km blocks, two trials (2 and 3 months).
    {
        let sc0 = scenario("MFNP");
        let dataset = quarterly_dataset(&sc0);
        let (sc, plan) = design(
            "MFNP",
            &dataset,
            2016,
            WeakLearnerKind::DecisionTree,
            2,
            8,
            scale,
            41,
        )?;
        for (label, months, seed) in [
            ("MFNP trial 1 (Nov-Dec 2017)", 2, 1u64),
            ("MFNP trial 2 (Jan-Mar 2018)", 3, 2),
        ] {
            let outcome = run_trial(
                &sc.park,
                &sc.poacher,
                &plan,
                &TrialConfig {
                    months,
                    season: Season::Dry,
                    detection: sc.sim.detection,
                    ..TrialConfig::default()
                },
                seed,
            );
            let r = report(label, months, &outcome);
            print_report(&r);
            reports.push(r);
        }
    }

    // SWS: GPB-iW on dry-season data, 3×3 km blocks, five blocks per group.
    {
        let sc0 = scenario("SWS");
        let dataset = dry_season_dataset(&sc0);
        let (sc, plan) = design(
            "SWS",
            &dataset,
            2017,
            WeakLearnerKind::GaussianProcess,
            3,
            5,
            scale,
            43,
        )?;
        for (label, months, seed) in [
            ("SWS trial 1 (Dec 2018-Jan 2019)", 2, 3u64),
            ("SWS trial 2 (Feb-Mar 2019)", 2, 4),
        ] {
            let outcome = run_trial(
                &sc.park,
                &sc.poacher,
                &plan,
                &TrialConfig {
                    months,
                    season: Season::Dry,
                    detection: sc.sim.detection,
                    patrols_per_block_month: 5,
                    patrol_length_km: 20.0,
                    ..TrialConfig::default()
                },
                seed,
            );
            let r = report(label, months, &outcome);
            print_report(&r);
            reports.push(r);
        }
    }

    let significant = reports.iter().filter(|r| r.p_value < 0.05).count();
    let ranked = reports.iter().filter(|r| r.ranking_holds).count();
    println!(
        "{}/{} trials significant at 0.05 (paper: all reported trials), {}/{} trials with High >= Medium >= Low.",
        significant,
        reports.len(),
        ranked,
        reports.len()
    );
    write_json("table3", &reports);
    Ok(())
}
