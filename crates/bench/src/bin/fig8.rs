//! Figure 8 — improvement in solution quality (and snare detections) from
//! accounting for uncertainty in patrol planning.
//!
//! Panels (a)–(c): the ratio Uβ(Cβ)/Uβ(Cβ=0) as a function of the
//! robustness parameter β, averaged and maximised over patrol posts, for
//! QENP / MFNP / SWS. Panels (d)–(f): the same ratio as a function of the
//! number of PWL segments at β = 1. The section's headline claim — robust
//! plans detect ≈30 % more snares on average — is checked against the
//! ground-truth poacher model.
//!
//! ```bash
//! cargo run --release -p paws-bench --bin fig8            # reduced sweep
//! cargo run --release -p paws-bench --bin fig8 -- --full  # full sweep
//! cargo run --release -p paws-bench --bin fig8 -- --llc   # engine curves
//! ```
//!
//! `--llc` swaps the quality sweeps for planner scaling curves: the same
//! park-wide allocation LP solved through column generation and as one
//! monolithic sparse revised-simplex model, at study-park sizes (every cell
//! a candidate). The dense tableau reference is timed against the sparse
//! engine by `bench_plan`'s `lp_engine_scaling` group, up to 256 cells.

use paws_bench::{
    full_reach_problem, mean, park_model_config, quarterly_dataset, scenario, write_json, Scale,
};
use paws_core::{format_table, train, PawsError, WeakLearnerKind};
use paws_data::split_by_test_year;
use paws_geo::parks::{mfnp_spec, qenp_spec, sws_spec, test_park_spec};
use paws_geo::Park;
use paws_plan::{
    try_compare_robust_vs_baseline, try_compare_with_ground_truth, try_plan, Decomposition,
    PlannerConfig, PlanningProblem,
};
use paws_sim::Season;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct BetaPoint {
    park: String,
    beta: f64,
    avg_ratio: f64,
    max_ratio: f64,
    avg_detection_gain: f64,
}

#[derive(Serialize)]
struct SegmentPoint {
    park: String,
    segments: usize,
    avg_ratio: f64,
    max_ratio: f64,
}

#[derive(Serialize)]
struct Fig8Output {
    beta_sweep: Vec<BetaPoint>,
    segment_sweep: Vec<SegmentPoint>,
    overall_detection_improvement_pct: f64,
}

const PATROL_LENGTH_KM: f64 = 10.0;
const N_PATROLS: usize = 4;

#[derive(Serialize)]
struct EnginePoint {
    park: String,
    cells: usize,
    lambda_vars: usize,
    engine: String,
    runtime_seconds: f64,
    status: String,
    objective: f64,
}

/// `--llc`: column generation against the full sparse model on park-wide
/// allocation LPs.
fn llc_engines(scale: Scale) -> Result<(), PawsError> {
    let mut parks = vec![
        ("test", Park::generate(&test_park_spec(), 11)),
        ("QENP", Park::generate(&qenp_spec(), 11)),
        ("SWS", Park::generate(&sws_spec(), 11)),
    ];
    if scale.is_full() {
        parks.push(("MFNP", Park::generate(&mfnp_spec(), 11)));
    }
    println!("Figure 8 (LLC): planner scaling on park-wide allocation LPs\n");
    let mut points = Vec::new();
    let mut rows = Vec::new();
    for (name, park) in &parks {
        let cells = park.n_cells();
        let problem = full_reach_problem(park, 0.05 * cells as f64, 1.0);
        let base = PlannerConfig::default();
        let configs = [
            (
                "sparse-colgen",
                PlannerConfig {
                    decomposition: Decomposition::ColumnGeneration,
                    ..base.clone()
                },
            ),
            (
                "sparse-full",
                PlannerConfig {
                    decomposition: Decomposition::FullModel,
                    ..base.clone()
                },
            ),
        ];
        for (engine, config) in configs {
            let start = Instant::now();
            let result = try_plan(&problem, &config)?;
            let runtime_seconds = start.elapsed().as_secs_f64();
            let point = EnginePoint {
                park: name.to_string(),
                cells,
                lambda_vars: cells * (base.segments + 1),
                engine: engine.to_string(),
                runtime_seconds,
                status: format!("{:?}", result.status),
                objective: result.objective,
            };
            rows.push(vec![
                name.to_string(),
                cells.to_string(),
                engine.to_string(),
                format!("{:.2}", point.runtime_seconds),
                point.status.clone(),
                format!("{:.3}", point.objective),
            ]);
            println!(
                "  {name} ({cells} cells) {engine}: {:.2}s {} obj={:.3}",
                point.runtime_seconds, point.status, point.objective
            );
            points.push(point);
        }
    }
    println!(
        "\n{}",
        format_table(
            &[
                "park",
                "cells",
                "engine",
                "runtime (s)",
                "status",
                "objective"
            ],
            &rows
        )
    );
    write_json("fig8_llc", &points);
    Ok(())
}

fn main() -> Result<(), PawsError> {
    let scale = Scale::from_args();
    if std::env::args().any(|a| a == "--llc") {
        return llc_engines(scale);
    }
    println!(
        "Figure 8: gain from uncertainty-aware patrol planning [{} scale]\n",
        if scale.is_full() { "full" } else { "quick" }
    );

    let betas: Vec<f64> = if scale.is_full() {
        vec![0.80, 0.85, 0.90, 0.95, 1.0]
    } else {
        vec![0.80, 0.90, 1.0]
    };
    let segment_counts: Vec<usize> = if scale.is_full() {
        vec![5, 10, 15, 20, 25, 30]
    } else {
        vec![5, 10, 20, 30]
    };
    let parks = ["QENP", "MFNP", "SWS"];

    let mut beta_sweep = Vec::new();
    let mut segment_sweep = Vec::new();
    let mut all_detection_gains = Vec::new();

    for park_name in parks {
        println!("=== {park_name} ===");
        let sc = scenario(park_name);
        let dataset = quarterly_dataset(&sc);
        let test_year = if park_name == "SWS" { 2017 } else { 2016 };
        let split = split_by_test_year(&dataset, test_year, 3).expect("test year present");
        let config = park_model_config(park_name, WeakLearnerKind::GaussianProcess, true, scale);
        let model = train(&dataset, &split, &config);

        // Park-wide response curves are computed once and reused for every
        // post, β and segment count.
        let prev = dataset.coverage.last().unwrap().clone();
        let effort_grid: Vec<f64> = vec![0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0];
        let prepared = model.prepare_park(&sc.park, &dataset, &prev)?;
        let (probs, raw_vars) = model.try_park_response_prepared(&prepared, &effort_grid)?;
        let attack = sc.attack_probabilities(&vec![0.0; sc.park.n_cells()], Season::Dry);
        let detection = sc.sim.detection;

        let posts: Vec<_> = if scale.is_full() {
            sc.park.patrol_posts.clone()
        } else {
            sc.park.patrol_posts.iter().copied().take(4).collect()
        };
        let build = |post, beta| {
            PlanningProblem::from_raw_response(
                &sc.park,
                post,
                &effort_grid,
                &probs,
                &raw_vars,
                PATROL_LENGTH_KM,
                N_PATROLS,
                beta,
            )
        };

        // (a)-(c): sweep β.
        let mut rows = Vec::new();
        for &beta in &betas {
            let mut ratios = Vec::new();
            let mut gains = Vec::new();
            for &post in &posts {
                let problem = build(post, beta);
                let attack_local: Vec<f64> =
                    problem.cells.iter().map(|c| attack[c.park_index]).collect();
                let cmp = try_compare_with_ground_truth(
                    &problem,
                    &PlannerConfig::default(),
                    &attack_local,
                    |c| detection.probability(c),
                )?;
                ratios.push(cmp.improvement_ratio);
                if cmp.baseline_detections > 1e-9 {
                    gains.push(cmp.robust_detections / cmp.baseline_detections);
                }
            }
            let point = BetaPoint {
                park: park_name.to_string(),
                beta,
                avg_ratio: mean(&ratios),
                max_ratio: ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                avg_detection_gain: mean(&gains),
            };
            rows.push(vec![
                format!("{beta:.2}"),
                format!("{:.3}", point.avg_ratio),
                format!("{:.3}", point.max_ratio),
                format!("{:.3}", point.avg_detection_gain),
            ]);
            all_detection_gains.extend(gains);
            beta_sweep.push(point);
        }
        println!(
            "{}",
            format_table(
                &["beta", "avg ratio", "max ratio", "avg detection gain"],
                &rows
            )
        );

        // (d)-(f): sweep PWL segments at β = 1.
        let mut rows = Vec::new();
        for &segments in &segment_counts {
            let planner = PlannerConfig {
                segments,
                ..PlannerConfig::default()
            };
            let mut ratios = Vec::new();
            for &post in &posts {
                let problem = build(post, 1.0);
                ratios.push(try_compare_robust_vs_baseline(&problem, &planner)?.improvement_ratio);
            }
            let point = SegmentPoint {
                park: park_name.to_string(),
                segments,
                avg_ratio: mean(&ratios),
                max_ratio: ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            };
            rows.push(vec![
                segments.to_string(),
                format!("{:.3}", point.avg_ratio),
                format!("{:.3}", point.max_ratio),
            ]);
            segment_sweep.push(point);
        }
        println!(
            "{}",
            format_table(&["PWL segments (beta=1)", "avg ratio", "max ratio"], &rows)
        );
    }

    let overall = (mean(&all_detection_gains) - 1.0) * 100.0;
    println!("Average increase in expected snare detections from robust planning: {overall:+.1}%");
    println!("(paper: +30% on average)");

    write_json(
        "fig8",
        &Fig8Output {
            beta_sweep,
            segment_sweep,
            overall_detection_improvement_pct: overall,
        },
    );
    Ok(())
}
