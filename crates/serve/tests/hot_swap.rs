//! Atomic model swap: hot-swapping a park's resident model from a stack
//! snapshot mid-traffic must never expose a torn artifact — every served
//! answer is wholly the old model's or wholly the new one's, in-flight
//! queries finish on the bundle they snapshotted, and queries admitted
//! after the swap see the new model.

use paws_core::{ModelConfig, Scenario, ServingModel, WeakLearnerKind};
use paws_data::{build_dataset, split_by_test_year, Dataset, Discretization};
use paws_geo::Park;
use paws_serve::{PawsServer, QueryKind, QueryRequest, QueryResponse};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn fit(dataset: &Dataset, seed: u64, n_learners: usize) -> ServingModel {
    let split = split_by_test_year(dataset, 2016, 2).expect("split exists");
    let mut config = ModelConfig::new(WeakLearnerKind::DecisionTree, true, seed);
    config.n_learners = n_learners;
    config.n_estimators = 4;
    config.weight_mode = paws_iware::WeightMode::Uniform;
    paws_core::train(dataset, &split, &config).into_serving()
}

fn risk_of(answer: &QueryResponse) -> (&[f64], &[f64]) {
    match answer {
        QueryResponse::RiskMap { risk, uncertainty } => (risk, uncertainty),
        other => panic!("expected a risk map, got {other:?}"),
    }
}

#[test]
fn mid_traffic_snapshot_swap_never_tears_a_query() {
    let scenario = Scenario::test_scenario(11);
    let history = scenario.simulate_years(2014, 3);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let park: Park = scenario.park;
    let prev = vec![0.0; park.n_cells()];

    // Two genuinely different models of the same park (v2 sees more
    // learners), and v2's wire-format snapshot for the swap.
    let v1 = fit(&dataset, 11, 4);
    let v2 = fit(&dataset, 12, 6);
    let risk_map = |model: &ServingModel| {
        let prepared = model
            .prepare_park(&park, &dataset, &prev)
            .expect("the park prepares");
        model.try_risk_map_prepared(&prepared, 1.0)
    };
    let (r1, u1) = risk_map(&v1).expect("v1 serves");
    let (r2, u2) = risk_map(&v2).expect("v2 serves");
    assert_ne!(r1, r2, "the two model versions must be distinguishable");
    let v2_bytes = v2.to_stack_snapshot().expect("tree stack snapshots");
    let v2_config = v2.config.clone();
    let v2_scaler = v2.scaler.clone();

    let server = Arc::new(PawsServer::new());
    server
        .registry()
        .install("mondulkiri", v1, park, &dataset, &prev)
        .expect("install succeeds");

    // Query threads hammer the park while the main thread swaps.
    let stop = Arc::new(AtomicBool::new(false));
    let swapped = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let swapped = Arc::clone(&swapped);
            let (r1, u1, r2, u2) = (r1.clone(), u1.clone(), r2.clone(), u2.clone());
            std::thread::spawn(move || {
                let mut seen_v1 = 0usize;
                let mut seen_v2 = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    // Read the swap flag BEFORE submitting: if the swap
                    // already happened, the answer must be v2's.
                    let swap_done = swapped.load(Ordering::SeqCst);
                    let answers = server.submit(&[QueryRequest::new(
                        "mondulkiri",
                        QueryKind::RiskMap { effort_km: 1.0 },
                    )]);
                    let answer = answers[0].as_ref().expect("query succeeds");
                    let (risk, uncertainty) = risk_of(answer);
                    if risk == r1.as_slice() {
                        assert_eq!(uncertainty, u1.as_slice(), "torn v1 answer");
                        assert!(!swap_done, "v1 answer after the swap completed");
                        seen_v1 += 1;
                    } else {
                        assert_eq!(risk, r2.as_slice(), "answer matches neither model");
                        assert_eq!(uncertainty, u2.as_slice(), "torn v2 answer");
                        seen_v2 += 1;
                    }
                }
                (seen_v1, seen_v2)
            })
        })
        .collect();

    // Let traffic build up on v1, then hot-swap from the snapshot.
    std::thread::sleep(std::time::Duration::from_millis(50));
    server
        .registry()
        .swap_from_snapshot("mondulkiri", &v2_bytes, v2_config, v2_scaler)
        .expect("swap succeeds");
    swapped.store(true, Ordering::SeqCst);
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);

    let mut total_v1 = 0;
    let mut total_v2 = 0;
    for h in handles {
        let (seen_v1, seen_v2) = h.join().expect("no query thread panics");
        total_v1 += seen_v1;
        total_v2 += seen_v2;
    }
    assert!(total_v1 > 0, "no pre-swap traffic was served");
    assert!(total_v2 > 0, "no post-swap traffic was served");

    // Queries admitted after the swap deterministically see v2 — including
    // a repeated level in one batch, served from the new park's tables.
    let answers = server.submit(&[
        QueryRequest::new("mondulkiri", QueryKind::RiskMap { effort_km: 1.0 }),
        QueryRequest::new("mondulkiri", QueryKind::RiskMap { effort_km: 0.5 }),
        QueryRequest::new("mondulkiri", QueryKind::RiskMap { effort_km: 1.0 }),
    ]);
    for idx in [0, 2] {
        let (risk, uncertainty) = risk_of(answers[idx].as_ref().expect("post-swap risk map"));
        assert_eq!(risk, r2.as_slice(), "post-swap answer {idx}");
        assert_eq!(uncertainty, u2.as_slice());
    }
    assert!(answers[1].is_ok(), "a second level serves post-swap too");

    // Swapping an unknown park is a typed error, not a panic.
    assert!(server
        .registry()
        .swap_model("nonexistent", fit(&dataset, 13, 4))
        .is_err());
}
