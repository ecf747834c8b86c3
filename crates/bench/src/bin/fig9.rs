//! Figure 9 — prescriptive-model runtime (a) and patrol-plan utility (b) as
//! a function of the number of segments in the PWL approximation, for the
//! three parks.
//!
//! ```bash
//! cargo run --release -p paws-bench --bin fig9            # reduced sweep
//! cargo run --release -p paws-bench --bin fig9 -- --full  # 5..25 segments
//! cargo run --release -p paws-bench --bin fig9 -- --llc   # LLC park sizes
//! ```
//!
//! `--llc` swaps the segment sweep for the runtime-vs-park-size curve at
//! LLC scale (10k–100k cells, every cell a candidate), planned by the exact
//! greedy envelope fill.

use paws_bench::{
    full_reach_problem, mean, park_model_config, quarterly_dataset, scenario, write_json, Scale,
};
use paws_core::{format_table, train, PawsError, WeakLearnerKind};
use paws_data::split_by_test_year;
use paws_geo::parks::llc_park_spec;
use paws_geo::Park;
use paws_plan::{try_plan, PlannerConfig, PlanningProblem};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Fig9Point {
    park: String,
    segments: usize,
    runtime_seconds: f64,
    utility: f64,
}

#[derive(Serialize)]
struct Fig9LlcPoint {
    cells: usize,
    lambda_vars: usize,
    budget_km: f64,
    runtime_seconds: f64,
    status: String,
    objective: f64,
}

/// `--llc`: planner runtime vs park size at LLC scale. No allocation plan
/// builds a model, so the time is the envelopes, a sort of every segment
/// and the fill.
fn llc_scaling(scale: Scale) -> Result<(), PawsError> {
    let sizes: &[usize] = if scale.is_full() {
        &[10_000, 25_000, 50_000, 100_000]
    } else {
        &[10_000, 25_000, 50_000]
    };
    println!("Figure 9 (LLC): robust planner runtime vs park size\n");
    let config = PlannerConfig::default();
    let mut points = Vec::new();
    let mut rows = Vec::new();
    for &cells in sizes {
        let park = Park::generate(&llc_park_spec(cells), 11);
        let budget_km = 0.05 * cells as f64;
        let problem = full_reach_problem(&park, budget_km, 1.0);
        let start = Instant::now();
        let result = try_plan(&problem, &config)?;
        let runtime_seconds = start.elapsed().as_secs_f64();
        let point = Fig9LlcPoint {
            cells,
            lambda_vars: cells * (config.segments + 1),
            budget_km,
            runtime_seconds,
            status: format!("{:?}", result.status),
            objective: result.objective,
        };
        rows.push(vec![
            cells.to_string(),
            point.lambda_vars.to_string(),
            format!("{:.2}", point.runtime_seconds),
            point.status.clone(),
            format!("{:.2}", point.objective),
        ]);
        points.push(point);
    }
    println!(
        "{}",
        format_table(
            &["cells", "λ vars", "runtime (s)", "status", "objective"],
            &rows
        )
    );
    write_json("fig9_llc", &points);
    Ok(())
}

fn main() -> Result<(), PawsError> {
    let scale = Scale::from_args();
    if std::env::args().any(|a| a == "--llc") {
        return llc_scaling(scale);
    }
    println!(
        "Figure 9: planner runtime and utility vs PWL segments [{} scale]\n",
        if scale.is_full() { "full" } else { "quick" }
    );
    let segment_counts: Vec<usize> = if scale.is_full() {
        (1..=5).map(|i| i * 5).collect()
    } else {
        vec![5, 10, 15, 25]
    };

    let mut points = Vec::new();
    for park_name in ["MFNP", "QENP", "SWS"] {
        let sc = scenario(park_name);
        let dataset = quarterly_dataset(&sc);
        let test_year = if park_name == "SWS" { 2017 } else { 2016 };
        let split = split_by_test_year(&dataset, test_year, 3).expect("test year present");
        let config = park_model_config(park_name, WeakLearnerKind::GaussianProcess, true, scale);
        let model = train(&dataset, &split, &config);

        let prev = dataset.coverage.last().unwrap().clone();
        let effort_grid: Vec<f64> = vec![0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0];
        let prepared = model.prepare_park(&sc.park, &dataset, &prev)?;
        let (probs, raw_vars) = model.try_park_response_prepared(&prepared, &effort_grid)?;

        // Fully robust plans (β = 1), as in Fig. 9b; a couple of posts keep
        // runtimes representative without dominating the harness.
        let posts: Vec<_> = sc.park.patrol_posts.iter().copied().take(3).collect();
        let mut rows = Vec::new();
        for &segments in &segment_counts {
            let planner = PlannerConfig { segments };
            let mut runtimes = Vec::new();
            let mut utilities = Vec::new();
            for &post in &posts {
                let problem = PlanningProblem::from_raw_response(
                    &sc.park,
                    post,
                    &effort_grid,
                    &probs,
                    &raw_vars,
                    10.0,
                    4,
                    1.0,
                );
                let result = try_plan(&problem, &planner)?;
                runtimes.push(result.solve_time.as_secs_f64());
                utilities.push(problem.coverage_utility(&result.coverage, 1.0));
            }
            let point = Fig9Point {
                park: park_name.to_string(),
                segments,
                runtime_seconds: mean(&runtimes),
                utility: mean(&utilities),
            };
            rows.push(vec![
                segments.to_string(),
                format!("{:.3}", point.runtime_seconds),
                format!("{:.3}", point.utility),
            ]);
            points.push(point);
        }
        println!("{park_name}:");
        println!(
            "{}",
            format_table(&["PWL segments", "runtime (s)", "utility U_1(C_1)"], &rows)
        );
    }

    println!("Shapes to reproduce: runtime grows with the number of segments (Fig. 9a)");
    println!("and the utility of the robust solution converges by ~20-25 segments (Fig. 9b).");
    write_json("fig9", &points);
    Ok(())
}
