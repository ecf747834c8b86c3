//! Runnable serving demo: three resident parks, one mixed query batch,
//! and a mid-traffic model hot-swap.
//!
//! ```text
//! cargo run --release -p paws-serve --bin paws-serve-demo [n_queries]
//! cargo run --release -p paws-serve --bin paws-serve-demo -- --stream
//! ```
//!
//! Default mode trains three small park models (different
//! variants/planes), installs them in a [`paws_serve::PawsServer`],
//! submits an interleaved batch of risk-map / park-response / patrol-plan
//! queries, hot-swaps one park's model from a serialized stack snapshot,
//! and reports per-query outcomes plus batch throughput. `--stream`
//! instead installs one park on the streaming ingest path and replays a
//! seeded patrol-log stream through
//! [`paws_serve::ModelRegistry::ingest_batch`], querying between batches.
//! Both exit non-zero on any serving error, so CI can smoke-run them.

use paws_core::{ModelConfig, RefitPath, Scenario, StreamConfig, WeakLearnerKind};
use paws_data::{build_dataset, split_by_test_year, Discretization};
use paws_serve::{PawsServer, QueryKind, QueryRequest, QueryResponse};
use paws_solver::SolveBudget;
use std::time::{Duration, Instant};

fn stream_demo() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::test_scenario(5);
    let park = scenario.park.clone();
    // Three years of seeded patrol logs in six-month chunks: the first
    // installs the park cold, the rest stream through ingest_batch.
    let batches = scenario.patrol_log_batches(2014, 3, 6);
    let dataset = build_dataset(&park, &batches[0], Discretization::quarterly());

    let mut config = ModelConfig::new(WeakLearnerKind::DecisionTree, true, 5);
    config.n_learners = 4;
    config.n_estimators = 4;
    let stream = StreamConfig {
        warmup_batches: 1,
        tolerance: 0.5,
        scaler_drift: 1.0,
    };

    let server = PawsServer::new();
    let report = server.registry().install_streaming(
        "mondulkiri",
        park.clone(),
        dataset,
        &config,
        stream,
    )?;
    println!(
        "installed mondulkiri streaming: {} cells, {} training rows ({:?})",
        park.n_cells(),
        report.total_rows,
        report.path,
    );

    let start = Instant::now();
    for (i, batch) in batches[1..].iter().enumerate() {
        let months = batch.months.len();
        match server.registry().ingest_batch("mondulkiri", batch)? {
            Some(report) => {
                let path = match report.path {
                    RefitPath::Warm(stats) => format!(
                        "warm ({} kept, {} refitted, cv-from-cache {})",
                        stats.learners_kept, stats.learners_refitted, stats.cv_resolved_from_cache
                    ),
                    RefitPath::Cold(reason) => format!("cold ({reason:?})"),
                };
                println!(
                    "  batch {:>2}: {months} months, +{} rows -> {} total, {path}",
                    i + 2,
                    report.appended,
                    report.total_rows,
                );
            }
            None => println!(
                "  batch {:>2}: {months} months, no new training points",
                i + 2
            ),
        }
        // The refreshed model serves immediately after the swap.
        let answers = server.submit(&[QueryRequest::new(
            "mondulkiri",
            QueryKind::RiskMap { effort_km: 1.0 },
        )]);
        match answers.into_iter().next() {
            Some(Ok(_)) => {}
            Some(Err(e)) => return Err(format!("post-ingest query failed: {e}").into()),
            None => return Err("empty answer batch".into()),
        }
    }
    println!(
        "streamed {} patrol-log batches with mid-traffic refits in {:.2?}",
        batches.len() - 1,
        start.elapsed()
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arg = std::env::args().nth(1);
    if arg.as_deref() == Some("--stream") {
        return stream_demo();
    }
    let n_queries: usize = match arg {
        Some(arg) => arg.parse()?,
        None => 24,
    };

    // --- Fit three park models (the fit half of the split).
    let server = PawsServer::new();
    let park_names = ["gonarezhou", "mondulkiri", "queen-elizabeth"];
    let mut snapshot_source = None;
    println!("resident parks:");
    for (i, name) in park_names.iter().enumerate() {
        let seed = 3 + i as u64;
        let scenario = Scenario::test_scenario(seed);
        let history = scenario.simulate_years(2014, 3);
        let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
        let split = split_by_test_year(&dataset, 2016, 2).ok_or("split exists")?;
        let mut config = ModelConfig::new(WeakLearnerKind::DecisionTree, true, seed);
        config.n_learners = 4;
        config.n_estimators = 4;
        config.weight_mode = paws_iware::WeightMode::Uniform;
        // Vary the serving plane across parks.
        if i == 1 {
            config.precision = paws_core::Precision::F32;
        }
        let model = paws_core::train(&dataset, &split, &config).into_serving();
        println!(
            "  {name:<16} {} cells, {:?} plane",
            scenario.park.n_cells(),
            model.precision(),
        );
        if i == 0 {
            // Keep one park's fit artifacts around for the hot-swap below.
            snapshot_source = model
                .to_stack_snapshot()
                .map(|bytes| (bytes, config.clone(), model.scaler.clone()));
        }
        let prev = vec![0.0; scenario.park.n_cells()];
        server
            .registry()
            .install(*name, model, scenario.park.clone(), &dataset, &prev)?;
    }

    // --- One interleaved batch across all three parks.
    let mut batch = Vec::new();
    for q in 0..n_queries {
        let park = park_names[q % park_names.len()];
        let kind = match q % 4 {
            0 => QueryKind::RiskMap {
                effort_km: 0.5 * (1 + q % 5) as f64,
            },
            1 => QueryKind::RiskMap { effort_km: 1.0 },
            2 => QueryKind::ParkResponse {
                effort_grid: vec![0.0, 0.5, 1.0, 2.0],
            },
            _ => {
                let resident = server.registry().resident(park).ok_or("park is resident")?;
                QueryKind::PatrolPlan {
                    post: resident.park.patrol_posts[0],
                    effort_grid: vec![0.0, 0.5, 1.0, 2.0, 4.0],
                    patrol_length_km: 8.0,
                    n_patrols: 2,
                    beta: 0.8,
                }
            }
        };
        batch.push(
            QueryRequest::new(park, kind)
                .with_budget(SolveBudget::with_time_limit(Duration::from_secs(30))),
        );
    }

    let start = Instant::now();
    let answers = server.submit(&batch);
    let elapsed = start.elapsed();

    let mut risk = 0usize;
    let mut response = 0usize;
    let mut plans = 0usize;
    for (req, answer) in batch.iter().zip(&answers) {
        match answer {
            Ok(QueryResponse::RiskMap { .. }) => risk += 1,
            Ok(QueryResponse::ParkResponse { .. }) => response += 1,
            Ok(QueryResponse::PatrolPlan(plan)) => {
                plans += 1;
                println!(
                    "  plan for {:<16} status {:?}, {:.1} km allocated",
                    req.park,
                    plan.status,
                    plan.coverage.iter().sum::<f64>()
                );
            }
            Err(e) => return Err(format!("query for {} failed: {e}", req.park).into()),
        }
    }
    println!(
        "served {} queries ({risk} risk maps, {response} response surfaces, {plans} plans) \
         in {elapsed:.2?} ({:.0} queries/s)",
        answers.len(),
        answers.len() as f64 / elapsed.as_secs_f64()
    );

    // --- Hot-swap one park's model from its stack snapshot, mid-service.
    let (bytes, config, scaler) = snapshot_source.ok_or("tree stack snapshots")?;
    server
        .registry()
        .swap_from_snapshot(park_names[0], &bytes, config, scaler)?;
    let check = server.submit(&[QueryRequest::new(
        park_names[0],
        QueryKind::RiskMap { effort_km: 1.0 },
    )]);
    match check.into_iter().next() {
        Some(Ok(_)) => println!("hot-swapped {} from snapshot: serving OK", park_names[0]),
        Some(Err(e)) => return Err(format!("post-swap query failed: {e}").into()),
        None => return Err("empty answer batch".into()),
    }
    Ok(())
}
