//! Criterion benchmarks of the serving surface: prepared-park queries and
//! the batched admission layer vs per-request submits.
//!
//! The prepared-park group covers DTB-iW on the 50k-cell LLC park on both
//! planes and SWS's balanced GPB-iW. It times preparation, the first risk
//! map on a fresh park (preparation plus the learner-table fill), and a
//! warm risk map, response surface and planning problem, which only
//! combine the park's tables.

use criterion::{criterion_group, criterion_main, Criterion};
use paws_bench::{dry_season_dataset, park_model_config, scenario, Scale};
use paws_core::{train, ModelConfig, Precision, Scenario, ServingModel, WeakLearnerKind};
use paws_data::{build_dataset, split_by_test_year, Dataset, Discretization};
use paws_geo::Park;
use paws_serve::{PawsServer, QueryKind, QueryRequest};
use std::hint::black_box;

fn quick_config(learner: WeakLearnerKind, use_iware: bool) -> ModelConfig {
    let mut cfg = ModelConfig::new(learner, use_iware, 7);
    cfg.n_learners = 5;
    cfg.n_estimators = 4;
    cfg.gp_max_points = 120;
    cfg.weight_mode = paws_iware::WeightMode::Uniform;
    cfg
}

fn bench_prepared_park(c: &mut Criterion) {
    // DTB-iW on a 50k-cell LLC park, whose feature stack (~8 MB) outgrows
    // the last-level cache, on both planes; and SWS's GPB-iW model (10
    // learners × 5 bagged GPs of 30 points, 21 features) over its 3,750
    // cells.
    let llc = Scenario::llc_scenario(50_000, 5);
    let history = llc.simulate_years(2014, 2);
    let llc_data = build_dataset(&llc.park, &history, Discretization::quarterly());
    let llc_split = split_by_test_year(&llc_data, 2015, 1).expect("2015 present");
    let sws = scenario("SWS");
    let sws_data = dry_season_dataset(&sws);
    let sws_split = split_by_test_year(&sws_data, 2017, 3).expect("2017 present");
    let mut cases: Vec<(&str, &Park, &Dataset, ServingModel)> = Vec::new();
    for (tag, precision) in [("llc_50k", Precision::F64), ("llc_50k_f32", Precision::F32)] {
        let mut cfg = quick_config(WeakLearnerKind::DecisionTree, true);
        cfg.precision = precision;
        let model = train(&llc_data, &llc_split, &cfg).into_serving();
        cases.push((tag, &llc.park, &llc_data, model));
    }
    let cfg = park_model_config("SWS", WeakLearnerKind::GaussianProcess, true, Scale::Quick);
    let model = train(&sws_data, &sws_split, &cfg).into_serving();
    cases.push(("sws_gp", &sws.park, &sws_data, model));
    let grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];

    let mut group = c.benchmark_group("prepared_park");
    group.sample_size(10);
    for (tag, park, dataset, model) in &cases {
        let prev = dataset.coverage.last().unwrap().clone();
        let post = park.patrol_posts[0];
        let prepare = || {
            model
                .prepare_park(park, dataset, &prev)
                .expect("park prepares")
        };
        group.bench_function(format!("prepare_park_{tag}"), |b| {
            b.iter(|| black_box(prepare()))
        });
        // Preparation plus the first risk map, which fills the tables.
        group.bench_function(format!("first_risk_map_fresh_park_{tag}"), |b| {
            b.iter(|| {
                let prepared = prepare();
                black_box(model.try_risk_map_prepared(&prepared, 1.0).unwrap())
            })
        });
        let warm = prepare();
        model.try_risk_map_prepared(&warm, 1.0).unwrap();
        group.bench_function(format!("risk_map_warm_park_{tag}"), |b| {
            b.iter(|| black_box(model.try_risk_map_prepared(&warm, 2.0).unwrap()))
        });
        group.bench_function(format!("park_response_6_levels_warm_park_{tag}"), |b| {
            b.iter(|| black_box(model.try_park_response_prepared(&warm, &grid).unwrap()))
        });
        group.bench_function(format!("planning_problem_warm_park_{tag}"), |b| {
            b.iter(|| {
                black_box(
                    model
                        .try_planning_problem_prepared(park, &warm, post, &grid, 12.0, 2, 0.8)
                        .expect("valid problem"),
                )
            })
        });
    }
    group.finish();
}

fn fit_resident(seed: u64, precision: Precision) -> (Scenario, Dataset, ServingModel) {
    let scenario = Scenario::test_scenario(seed);
    let history = scenario.simulate_years(2014, 3);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let split = split_by_test_year(&dataset, 2016, 2).expect("2016 present");
    let mut cfg = quick_config(WeakLearnerKind::DecisionTree, true);
    cfg.seed = seed;
    cfg.precision = precision;
    let model = train(&dataset, &split, &cfg).into_serving();
    (scenario, dataset, model)
}

fn bench_serve_throughput(c: &mut Criterion) {
    // Three resident parks, one of them on the f32 plane. The batched
    // submit snapshots each park's bundle once and fans the park groups
    // over the pool; the per-request loop pays admission and lookup per
    // query. Both combine each park's learner tables, which the first
    // query fills.
    let server = PawsServer::new();
    let names = ["gonarezhou", "mondulkiri", "queen-elizabeth"];
    for (i, name) in names.iter().enumerate() {
        let precision = if i == 1 {
            Precision::F32
        } else {
            Precision::F64
        };
        let (scenario, dataset, model) = fit_resident(3 + i as u64, precision);
        let prev = vec![0.0; scenario.park.n_cells()];
        server
            .registry()
            .install(*name, model, scenario.park.clone(), &dataset, &prev)
            .expect("install succeeds");
    }

    // 24 risk-map queries: 8 per park over 4 distinct effort levels, with
    // duplicates.
    let mut risk_batch = Vec::new();
    for q in 0..24usize {
        risk_batch.push(QueryRequest::new(
            names[q % names.len()],
            QueryKind::RiskMap {
                effort_km: 0.5 * (1 + q % 4) as f64,
            },
        ));
    }
    // A mixed batch folds in whole response surfaces alongside risk maps.
    let mut mixed_batch = risk_batch[..16].to_vec();
    for name in &names {
        mixed_batch.push(QueryRequest::new(
            *name,
            QueryKind::ParkResponse {
                effort_grid: vec![0.0, 0.5, 1.0, 2.0],
            },
        ));
    }

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(20);
    group.bench_function("submit_batched_24_risk_maps_3_parks", |b| {
        b.iter(|| black_box(server.submit(&risk_batch)))
    });
    group.bench_function("submit_individual_24_risk_maps_3_parks", |b| {
        b.iter(|| {
            for req in &risk_batch {
                black_box(server.submit(std::slice::from_ref(req)));
            }
        })
    });
    group.bench_function("submit_batched_19_mixed_3_parks", |b| {
        b.iter(|| black_box(server.submit(&mixed_batch)))
    });
    group.bench_function("submit_individual_19_mixed_3_parks", |b| {
        b.iter(|| {
            for req in &mixed_batch {
                black_box(server.submit(std::slice::from_ref(req)));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_prepared_park, bench_serve_throughput);
criterion_main!(benches);
