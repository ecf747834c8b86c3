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
//! ```
//!
//! Planner runtime at LLC scale is `fig9 --llc`'s curve.

use paws_bench::{mean, park_model_config, quarterly_dataset, scenario, write_json, Scale};
use paws_core::{format_table, train, PawsError, WeakLearnerKind};
use paws_data::split_by_test_year;
use paws_plan::{
    try_compare_robust_vs_baseline, try_compare_with_ground_truth, PlannerConfig, PlanningProblem,
};
use paws_sim::Season;
use serde::Serialize;

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

fn main() -> Result<(), PawsError> {
    let scale = Scale::from_args();
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
