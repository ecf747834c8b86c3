//! Mid-traffic patrol-log ingest: folding a fresh batch of months into a
//! streaming park must refit (warm) and hot-swap atomically — every served
//! answer is wholly the pre-ingest model's or wholly the post-ingest one's
//! (both pinned against direct model calls), and queries admitted after
//! the ingest deterministically see the refreshed artifact.

use paws_core::{
    ColdReason, FittedModel, ModelConfig, PawsError, RefitPath, Scenario, StreamConfig,
    WeakLearnerKind,
};
use paws_data::{build_dataset, AppendError, Discretization};
use paws_serve::{ModelRegistry, PawsServer, QueryKind, QueryRequest, QueryResponse, ServeError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn config() -> ModelConfig {
    let mut config = ModelConfig::new(WeakLearnerKind::DecisionTree, true, 21);
    config.n_learners = 4;
    config.n_estimators = 4;
    config.weight_mode = paws_iware::WeightMode::Uniform;
    config
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        warmup_batches: 1,
        tolerance: 0.5,
        scaler_drift: 10.0,
    }
}

fn risk_of(answer: &QueryResponse) -> (&[f64], &[f64]) {
    match answer {
        QueryResponse::RiskMap { risk, uncertainty } => (risk, uncertainty),
        other => panic!("expected a risk map, got {other:?}"),
    }
}

#[test]
fn mid_traffic_ingest_batch_hot_swaps_without_tearing() {
    let scenario = Scenario::test_scenario(21);
    let park = scenario.park.clone();
    let batches = scenario.patrol_log_batches(2014, 2, 12);
    assert_eq!(batches.len(), 2);
    let dataset0 = build_dataset(&park, &batches[0], Discretization::quarterly());

    // Direct-call oracles: v1 is the cold install on batch 1; v2 is the
    // deterministic warm refit after batch 2, mirrored offline through an
    // identical registry so the live ingest can be checked bit-for-bit.
    let mirror = ModelRegistry::new();
    mirror
        .install_streaming(
            "oracle",
            park.clone(),
            dataset0.clone(),
            &config(),
            stream_config(),
        )
        .expect("mirror install succeeds");
    let v1 = mirror.resident("oracle").expect("oracle resident");
    let prev0 = dataset0.coverage.last().expect("batch 1 has steps").clone();
    let prepared0 = v1
        .model
        .prepare_park(&park, &dataset0, &prev0)
        .expect("v1 prepares the park");
    let (r1, u1) = v1
        .model
        .try_risk_map_prepared(&prepared0, 1.0)
        .expect("v1 serves directly");

    let report = mirror
        .ingest_batch("oracle", &batches[1])
        .expect("mirror ingest succeeds")
        .expect("batch 2 has training points");
    assert!(
        matches!(report.path, RefitPath::Warm(stats) if stats.learners_kept + stats.learners_refitted > 0),
        "expected a warm refit, got {:?}",
        report.path
    );
    let mut dataset_full = dataset0.clone();
    dataset_full
        .append_observations(&park, &batches[1])
        .expect("batch 2 appends");
    let prev1 = dataset_full
        .coverage
        .last()
        .expect("batch 2 has steps")
        .clone();
    let v2 = mirror.resident("oracle").expect("oracle resident");
    let prepared1 = v2
        .model
        .prepare_park(&park, &dataset_full, &prev1)
        .expect("v2 prepares the park");
    let (r2, u2) = v2
        .model
        .try_risk_map_prepared(&prepared1, 1.0)
        .expect("v2 serves directly");
    assert_ne!(r1, r2, "ingest must change the served surface");

    // The live server under traffic.
    let server = Arc::new(PawsServer::new());
    server
        .registry()
        .install_streaming(
            "mondulkiri",
            park.clone(),
            dataset0.clone(),
            &config(),
            stream_config(),
        )
        .expect("install succeeds");
    assert!(server.registry().is_streaming("mondulkiri"));

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
                    let swap_done = swapped.load(Ordering::SeqCst);
                    let answers = server.submit(&[QueryRequest::new(
                        "mondulkiri",
                        QueryKind::RiskMap { effort_km: 1.0 },
                    )]);
                    let answer = answers[0].as_ref().expect("query succeeds");
                    let (risk, uncertainty) = risk_of(answer);
                    if risk == r1.as_slice() {
                        assert_eq!(uncertainty, u1.as_slice(), "torn v1 answer");
                        assert!(!swap_done, "v1 answer after the ingest completed");
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

    // Let traffic build up on v1, then ingest batch 2 mid-traffic.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let live_report = server
        .registry()
        .ingest_batch("mondulkiri", &batches[1])
        .expect("live ingest succeeds")
        .expect("batch 2 has training points");
    assert_eq!(
        live_report.path, report.path,
        "live ingest mirrors the oracle"
    );
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
    assert!(total_v1 > 0, "no pre-ingest traffic was served");
    assert!(total_v2 > 0, "no post-ingest traffic was served");

    // Queries admitted after the ingest deterministically see v2.
    let answers = server.submit(&[QueryRequest::new(
        "mondulkiri",
        QueryKind::RiskMap { effort_km: 1.0 },
    )]);
    let (risk, uncertainty) = risk_of(answers[0].as_ref().expect("post-ingest risk map"));
    assert_eq!(risk, r2.as_slice(), "post-ingest answer is not v2's");
    assert_eq!(uncertainty, u2.as_slice());
}

#[test]
fn ingest_rejections_are_typed_and_leave_serving_untouched() {
    let scenario = Scenario::test_scenario(22);
    let park = scenario.park.clone();
    let batches = scenario.patrol_log_batches(2014, 2, 12);
    let dataset0 = build_dataset(&park, &batches[0], Discretization::quarterly());

    let registry = ModelRegistry::new();
    let report = registry
        .install_streaming(
            "mondulkiri",
            park.clone(),
            dataset0,
            &config(),
            stream_config(),
        )
        .expect("install succeeds");
    assert_eq!(report.path, RefitPath::Cold(ColdReason::Warmup));

    // Replaying batch 1 is out of order — typed rejection, model untouched.
    let before = registry.resident("mondulkiri").expect("resident");
    let replay = registry.ingest_batch("mondulkiri", &batches[0]);
    assert!(
        matches!(
            replay,
            Err(ServeError::Ingest(AppendError::OutOfOrderStep { .. }))
        ),
        "{replay:?}"
    );
    let err = replay.expect_err("replay is rejected");
    assert!(err.to_string().starts_with("patrol-log ingest rejected: "));
    assert!(std::error::Error::source(&err).is_some());
    let after = registry.resident("mondulkiri").expect("still resident");
    assert!(
        Arc::ptr_eq(&before, &after),
        "rejected ingest must not swap"
    );

    // Ingesting into a non-streaming park is a typed error too.
    let unknown = registry.ingest_batch("nonexistent", &batches[1]);
    assert!(
        matches!(&unknown, Err(ServeError::NotStreaming { park }) if park == "nonexistent"),
        "{unknown:?}"
    );
    assert_eq!(
        unknown.expect_err("unknown park").to_string(),
        "patrol-log ingest rejected: park \"nonexistent\" is not streaming"
    );

    // So is a streaming install from an empty dataset, like `install`'s
    // other shape checks.
    let mut empty = batches[0].clone();
    empty.months.clear();
    let empty = build_dataset(&park, &empty, Discretization::quarterly());
    assert!(matches!(
        registry.install_streaming("empty", park.clone(), empty, &config(), stream_config()),
        Err(ServeError::Model(PawsError::Input(_)))
    ));
    assert!(!registry.is_streaming("empty"));

    // A valid batch still lands after the rejections.
    assert!(registry
        .ingest_batch("mondulkiri", &batches[1])
        .expect("ingest succeeds")
        .is_some());

    // Eviction drops the streaming slot with the bundle.
    registry.evict("mondulkiri");
    assert!(!registry.is_streaming("mondulkiri"));
    assert!(matches!(
        registry.ingest_batch("mondulkiri", &batches[1]),
        Err(ServeError::NotStreaming { park }) if park == "mondulkiri"
    ));
}

#[test]
fn fewer_than_two_cv_folds_install_and_ingest_with_uniform_weights() {
    // `folds < 2` cannot hold anything out; the streaming install and the
    // ingest after it must fall back to uniform weights, not panic.
    let scenario = Scenario::test_scenario(23);
    let park = scenario.park.clone();
    let batches = scenario.patrol_log_batches(2014, 2, 12);
    let dataset0 = build_dataset(&park, &batches[0], Discretization::quarterly());
    let uniform_weights = |registry: &ModelRegistry| {
        let resident = registry.resident("mondulkiri").expect("resident");
        let FittedModel::IWare(model) = &resident.model.fitted else {
            panic!("expected an iWare-E model");
        };
        let n = model.n_learners();
        assert_eq!(model.weights(), vec![1.0 / n as f64; n].as_slice());
    };
    for folds in [0, 1] {
        let mut config = config();
        config.weight_mode = paws_iware::WeightMode::CvOptimized {
            folds,
            iterations: 20,
        };
        let registry = ModelRegistry::new();
        registry
            .install_streaming(
                "mondulkiri",
                park.clone(),
                dataset0.clone(),
                &config,
                stream_config(),
            )
            .expect("install succeeds");
        uniform_weights(&registry);
        registry
            .ingest_batch("mondulkiri", &batches[1])
            .expect("ingest succeeds")
            .expect("batch 2 has training points");
        uniform_weights(&registry);
    }
}

#[test]
fn unfittable_model_configs_are_typed_install_errors() {
    // Each of these used to panic inside the fit; the streaming install
    // must reject them as typed input errors and leave nothing resident.
    let scenario = Scenario::test_scenario(24);
    let park = scenario.park.clone();
    let batches = scenario.patrol_log_batches(2014, 1, 12);
    let dataset0 = build_dataset(&park, &batches[0], Discretization::quarterly());
    let mut bad = Vec::new();
    for learner in [
        WeakLearnerKind::DecisionTree,
        WeakLearnerKind::GaussianProcess,
    ] {
        let mut config = config();
        config.learner = learner;
        bad.push(ModelConfig {
            n_learners: 0,
            ..config.clone()
        });
        bad.push(ModelConfig {
            n_estimators: 0,
            ..config
        });
    }
    let mut gp = config();
    gp.learner = WeakLearnerKind::GaussianProcess;
    gp.gp_max_points = 0;
    bad.push(gp);
    for config in bad {
        let registry = ModelRegistry::new();
        let result = registry.install_streaming(
            "mondulkiri",
            park.clone(),
            dataset0.clone(),
            &config,
            stream_config(),
        );
        assert!(
            matches!(result, Err(ServeError::Model(PawsError::Input(_)))),
            "{config:?} gave {result:?}"
        );
        assert!(registry.resident("mondulkiri").is_none());
        assert!(!registry.is_streaming("mondulkiri"));
    }
}
