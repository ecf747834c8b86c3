//! Figure 6 — predicted probability of detecting poaching and its
//! uncertainty across MFNP at several prospective patrol-effort levels,
//! alongside the historical patrol effort and detections they derive from.
//!
//! ```bash
//! cargo run --release -p paws-bench --bin fig6
//! ```

use paws_bench::{park_model_config, quarterly_dataset, scenario, write_json, Scale};
use paws_core::{ascii_heatmap, format_table, train, PawsError, WeakLearnerKind};
use paws_data::split_by_test_year;
use serde::Serialize;

#[derive(Serialize)]
struct Fig6Level {
    effort_km: f64,
    mean_risk: f64,
    max_risk: f64,
    mean_uncertainty: f64,
    /// Mean uncertainty over the historically least-patrolled quartile of
    /// cells minus the most-patrolled quartile (positive = the model is less
    /// sure where rangers rarely go, the Fig. 6 observation).
    uncertainty_gap_unpatrolled_vs_patrolled: f64,
}

fn main() -> Result<(), PawsError> {
    let scale = Scale::from_args();
    println!("Figure 6: MFNP risk and uncertainty maps (GPB-iW, test period 2017-Q1)\n");

    let sc = scenario("MFNP");
    let dataset = quarterly_dataset(&sc);
    let split = split_by_test_year(&dataset, 2016, 3).expect("2016 present");
    let config = park_model_config("MFNP", WeakLearnerKind::GaussianProcess, true, scale);
    let model = train(&dataset, &split, &config);
    println!(
        "{} test AUC: {:.3}\n",
        config.name(),
        model.auc_on(&dataset, &split.test)
    );

    // Historical patrol effort and detections over the training years (Fig. 6a/6b).
    let n = sc.park.n_cells();
    let hist_effort: Vec<f64> = (0..n)
        .map(|i| dataset.coverage.iter().map(|step| step[i]).sum())
        .collect();
    let hist_detections: Vec<f64> = (0..n)
        .map(|i| dataset.detections.iter().filter(|step| step[i]).count() as f64)
        .collect();
    println!("(a) Historical patrol effort (km, darker = more patrolled):");
    println!("{}", ascii_heatmap(&sc.park, &hist_effort));
    println!("(b) Historical detected illegal activity:");
    println!("{}", ascii_heatmap(&sc.park, &hist_detections));

    // Quartiles of historical effort, used to summarise the uncertainty maps.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| hist_effort[a].total_cmp(&hist_effort[b]));
    let q = n / 4;
    let least_patrolled = &order[..q];
    let most_patrolled = &order[n - q..];

    let prev = dataset.coverage.last().unwrap().clone();
    let prepared = model.prepare_park(&sc.park, &dataset, &prev)?;
    let mut levels = Vec::new();
    let mut rows = Vec::new();
    for effort in [0.5, 1.0, 2.0, 4.0] {
        let (risk, unc) = model.try_risk_map_prepared(&prepared, effort)?;
        if (effort - 1.0).abs() < 1e-9 {
            println!("(c) Predicted probability of detecting poaching at 1 km of effort:");
            println!("{}", ascii_heatmap(&sc.park, &risk));
            println!("    Corresponding prediction uncertainty:");
            println!("{}", ascii_heatmap(&sc.park, &unc));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let mean_at =
            |idx: &[usize], v: &[f64]| idx.iter().map(|&i| v[i]).sum::<f64>() / idx.len() as f64;
        let level = Fig6Level {
            effort_km: effort,
            mean_risk: mean(&risk),
            max_risk: risk.iter().cloned().fold(0.0, f64::max),
            mean_uncertainty: mean(&unc),
            uncertainty_gap_unpatrolled_vs_patrolled: mean_at(least_patrolled, &unc)
                - mean_at(most_patrolled, &unc),
        };
        rows.push(vec![
            format!("{:.1}", level.effort_km),
            format!("{:.4}", level.mean_risk),
            format!("{:.4}", level.max_risk),
            format!("{:.4}", level.mean_uncertainty),
            format!("{:+.4}", level.uncertainty_gap_unpatrolled_vs_patrolled),
        ]);
        levels.push(level);
    }

    println!(
        "{}",
        format_table(
            &[
                "Effort (km)",
                "Mean risk",
                "Max risk",
                "Mean uncertainty",
                "Uncertainty gap (rarely vs often patrolled)",
            ],
            &rows
        )
    );
    println!("Paper findings reproduced when: mean risk rises with prospective effort,");
    println!(
        "and the uncertainty gap is positive (the model is least certain where rangers rarely go)."
    );
    write_json("fig6", &levels);
    Ok(())
}
