//! Forced worker-count parity: with the pool forced to 2, 4 or 8 workers,
//! every parallel surface — the ensemble fit, prepared risk maps and
//! response surfaces (including the block-parallel learner-table fill on
//! an LLC-scale stack), and the batched serving layer — must produce
//! answers **bit-identical** to the 1-thread run. Worker count changes
//! wall-clock, never bits: every fan-out is an ordered indexed collect or
//! a disjoint write over per-item-deterministic work.

use paws_core::{ModelConfig, PreparedPark, Scenario, ServingModel, WeakLearnerKind};
use paws_data::{
    build_dataset, split_by_test_year, Dataset, Discretization, Matrix, TrainTestSplit,
};
use paws_serve::{PawsServer, QueryKind, QueryRequest, QueryResponse};
use std::sync::Arc;

const FORCED: [usize; 3] = [2, 4, 8];
const GRID: [f64; 4] = [0.0, 0.5, 1.0, 2.0];

fn fixture(seed: u64) -> (Scenario, Dataset, TrainTestSplit) {
    let scenario = Scenario::test_scenario(seed);
    let history = scenario.simulate_years(2014, 3);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let split = split_by_test_year(&dataset, 2016, 2).expect("split exists");
    (scenario, dataset, split)
}

fn config(seed: u64, use_iware: bool) -> ModelConfig {
    let mut config = ModelConfig::new(WeakLearnerKind::DecisionTree, use_iware, seed);
    config.n_learners = 4;
    config.n_estimators = 4;
    config.weight_mode = paws_iware::WeightMode::Uniform;
    config
}

/// A deterministic LLC-scale raw feature stack: 25k rows, about a hundred
/// 256-row blocks for the table fill, and wide enough to tile into several
/// spatial shards once prepared (25k rows × model width ≳ 1 MiB).
fn big_raw_stack(n_rows: usize, n_features: usize) -> Matrix {
    let mut flat = Vec::with_capacity(n_rows * n_features);
    for i in 0..n_rows {
        for j in 0..n_features {
            flat.push(((i * 31 + j * 17) % 997) as f64 / 997.0);
        }
    }
    Matrix::from_flat(flat, n_features)
}

/// The learner×tree nested parallel fit must not depend on the worker
/// count: same weights, same thresholds, same served bits at 1, 2, 4 and
/// 8 forced workers.
#[test]
fn parallel_fit_is_bit_identical_to_the_one_thread_fit() {
    let (scenario, dataset, split) = fixture(11);
    for use_iware in [true, false] {
        let cfg = config(11, use_iware);
        let reference: ServingModel = rayon::with_num_threads(1, || {
            paws_core::train(&dataset, &split, &cfg).into_serving()
        });
        let prev = vec![0.0; scenario.park.n_cells()];
        let risk_map = |model: &ServingModel| {
            let prepared = model
                .prepare_park(&scenario.park, &dataset, &prev)
                .expect("the park prepares");
            model.try_risk_map_prepared(&prepared, 1.0)
        };
        let (r_ref, u_ref) = risk_map(&reference).expect("reference risk map");
        for forced in FORCED {
            let model = rayon::with_num_threads(forced, || {
                paws_core::train(&dataset, &split, &cfg).into_serving()
            });
            let (r, u) = risk_map(&model).expect("forced-fit risk map");
            assert_eq!(r, r_ref, "risk drifted: iware={use_iware} x{forced}");
            assert_eq!(u, u_ref, "uncertainty drifted: iware={use_iware} x{forced}");
        }
    }
}

/// The learner-table fill of an LLC-scale park runs in parallel row
/// blocks: a park prepared afresh under every forced worker count fills
/// its tables and serves the 1-thread bits, and so does a fresh park whose
/// tables another model filled first.
#[test]
fn fresh_park_fills_are_bit_identical_across_forced_counts() {
    let (_, dataset, split) = fixture(12);
    let train = |seed| {
        rayon::with_num_threads(1, || {
            paws_core::train(&dataset, &split, &config(seed, true)).into_serving()
        })
    };
    let model = train(12);
    let other = train(14);
    let stack = big_raw_stack(25_000, model.n_features());
    let prepare = || {
        model
            .prepare_rows(stack.clone())
            .expect("big stack prepares")
    };
    let answers = |prepared: &PreparedPark| {
        let (r, u) = model
            .try_risk_map_prepared(prepared, 1.0)
            .expect("valid effort");
        let (p, v) = model
            .try_park_response_prepared(prepared, &GRID)
            .expect("valid grid");
        (r, u, p.into_flat(), v.into_flat())
    };
    let reference = rayon::with_num_threads(1, || {
        let prepared = prepare();
        assert!(
            prepared.shards().len() > 1,
            "the park reports a multi-shard tiling, got {:?}",
            prepared.shards()
        );
        answers(&prepared)
    });
    for forced in FORCED {
        rayon::with_num_threads(forced, || {
            assert!(answers(&prepare()) == reference, "fresh park x{forced}");
            let foreign = prepare();
            other
                .try_risk_map_prepared(&foreign, 1.0)
                .expect("the other model fills the park's tables");
            assert!(
                answers(&foreign) == reference,
                "park filled by another model x{forced}"
            );
        });
    }
}

/// The batched admission layer on top of the forced pool: answers coming
/// back through `PawsServer::submit` match the 1-thread direct reference
/// bit for bit at every forced worker count.
#[test]
fn batched_serve_is_bit_identical_across_forced_counts() {
    let (scenario, dataset, split) = fixture(13);
    let model = rayon::with_num_threads(1, || {
        paws_core::train(&dataset, &split, &config(13, true)).into_serving()
    });
    let prev = vec![0.0; scenario.park.n_cells()];
    let ((r_ref, u_ref), (p_ref, v_ref)) = rayon::with_num_threads(1, || {
        let prepared = model
            .prepare_park(&scenario.park, &dataset, &prev)
            .expect("the park prepares");
        (
            model
                .try_risk_map_prepared(&prepared, 1.0)
                .expect("direct risk map"),
            model
                .try_park_response_prepared(&prepared, &GRID)
                .expect("direct response"),
        )
    });

    let server = Arc::new(PawsServer::new());
    server
        .registry()
        .install("forced-park", model, scenario.park.clone(), &dataset, &prev)
        .expect("install succeeds");
    let batch = vec![
        QueryRequest::new("forced-park", QueryKind::RiskMap { effort_km: 1.0 }),
        QueryRequest::new(
            "forced-park",
            QueryKind::ParkResponse {
                effort_grid: GRID.to_vec(),
            },
        ),
    ];
    for forced in FORCED {
        let answers = rayon::with_num_threads(forced, || server.submit(&batch));
        assert_eq!(answers.len(), 2);
        match answers[0].as_ref().expect("risk query succeeds") {
            QueryResponse::RiskMap { risk, uncertainty } => {
                assert_eq!(risk, &r_ref, "served risk drifted x{forced}");
                assert_eq!(uncertainty, &u_ref, "served uncertainty drifted x{forced}");
            }
            other => panic!("answer shape mismatch: {other:?}"),
        }
        match answers[1].as_ref().expect("response query succeeds") {
            QueryResponse::ParkResponse { probs, vars } => {
                assert_eq!(probs.as_slice(), p_ref.as_slice(), "served probs x{forced}");
                assert_eq!(vars.as_slice(), v_ref.as_slice(), "served vars x{forced}");
            }
            other => panic!("answer shape mismatch: {other:?}"),
        }
    }
}
