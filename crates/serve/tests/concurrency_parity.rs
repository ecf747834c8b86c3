//! Concurrency parity: N threads issuing interleaved queries for several
//! resident parks through the batched admission layer must get answers
//! **bit-identical** to direct single-caller `try_*` calls on the same
//! artifacts — the racing learner-table fill, the cached tables and the
//! work-stealing fan-out change wall-clock, never bits.

use paws_core::{ModelConfig, Scenario, ServingModel, WeakLearnerKind};
use paws_data::{build_dataset, split_by_test_year, Dataset, Discretization, Matrix};
use paws_geo::Park;
use paws_plan::{try_plan, PatrolPlan, PlannerConfig};
use paws_serve::{PawsServer, QueryKind, QueryRequest, QueryResponse};
use std::sync::Arc;

const GRID: [f64; 4] = [0.0, 0.5, 1.0, 2.0];
const PLAN_GRID: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 4.0];
const RISK_LEVELS: [f64; 3] = [0.5, 1.0, 2.0];

struct Fixture {
    name: &'static str,
    park: Park,
    dataset: Dataset,
    prev: Vec<f64>,
}

/// Train one park model; `tweak` selects the serving engine (1: the f32
/// plane, 2: SVM learners, 3: plain bagging, 4: GP learners; the SVM and
/// GP models serve from the resident park's learner tables).
fn fit_park(name: &'static str, seed: u64, tweak: u8) -> (Fixture, ServingModel) {
    let scenario = Scenario::test_scenario(seed);
    let history = scenario.simulate_years(2014, 3);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let split = split_by_test_year(&dataset, 2016, 2).expect("split exists");
    let learner = match tweak {
        2 => WeakLearnerKind::Svm,
        4 => WeakLearnerKind::GaussianProcess,
        _ => WeakLearnerKind::DecisionTree,
    };
    let mut config = ModelConfig::new(learner, tweak != 3, seed);
    config.n_learners = 4;
    config.n_estimators = 4;
    config.gp_max_points = 30;
    config.weight_mode = paws_iware::WeightMode::Uniform;
    if tweak == 1 {
        config.precision = paws_core::Precision::F32;
    }
    let model = paws_core::train(&dataset, &split, &config).into_serving();
    let prev = vec![0.0; scenario.park.n_cells()];
    (
        Fixture {
            name,
            park: scenario.park,
            dataset,
            prev,
        },
        model,
    )
}

/// The per-park answers a direct single caller gets from the `try_*` API.
struct Reference {
    risk: Vec<(Vec<f64>, Vec<f64>)>,
    response: (Matrix, Matrix),
    plan: PatrolPlan,
}

fn direct_reference(fixture: &Fixture, model: &ServingModel) -> Reference {
    let prepared = model
        .prepare_park(&fixture.park, &fixture.dataset, &fixture.prev)
        .expect("valid prepared park");
    let risk = RISK_LEVELS
        .iter()
        .map(|&e| {
            model
                .try_risk_map_prepared(&prepared, e)
                .expect("valid direct risk map")
        })
        .collect();
    let response = model
        .try_park_response_prepared(&prepared, &GRID)
        .expect("valid direct response");
    let problem = model
        .try_planning_problem_prepared(
            &fixture.park,
            &prepared,
            fixture.park.patrol_posts[0],
            &PLAN_GRID,
            8.0,
            2,
            0.8,
        )
        .expect("valid direct problem");
    let plan = try_plan(&problem, &PlannerConfig::default()).expect("direct plan solves");
    Reference {
        risk,
        response,
        plan,
    }
}

fn batch_for(fixtures: &[Fixture]) -> Vec<QueryRequest> {
    let mut batch = Vec::new();
    // Interleave parks and query kinds so every park group coalesces
    // several risk levels (including duplicates) per submitted batch.
    for &level in &RISK_LEVELS {
        for f in fixtures {
            batch.push(QueryRequest::new(
                f.name,
                QueryKind::RiskMap { effort_km: level },
            ));
        }
    }
    for f in fixtures {
        batch.push(QueryRequest::new(
            f.name,
            QueryKind::RiskMap {
                effort_km: RISK_LEVELS[1],
            },
        ));
        batch.push(QueryRequest::new(
            f.name,
            QueryKind::ParkResponse {
                effort_grid: GRID.to_vec(),
            },
        ));
        batch.push(QueryRequest::new(
            f.name,
            QueryKind::PatrolPlan {
                post: f.park.patrol_posts[0],
                effort_grid: PLAN_GRID.to_vec(),
                patrol_length_km: 8.0,
                n_patrols: 2,
                beta: 0.8,
            },
        ));
    }
    batch
}

fn assert_answer_matches(req: &QueryRequest, answer: &QueryResponse, reference: &Reference) {
    match (&req.kind, answer) {
        (QueryKind::RiskMap { effort_km }, QueryResponse::RiskMap { risk, uncertainty }) => {
            let level = RISK_LEVELS
                .iter()
                .position(|l| l == effort_km)
                .expect("known level");
            assert_eq!(
                risk, &reference.risk[level].0,
                "{} risk @{effort_km}",
                req.park
            );
            assert_eq!(
                uncertainty, &reference.risk[level].1,
                "{} uncertainty @{effort_km}",
                req.park
            );
        }
        (QueryKind::ParkResponse { .. }, QueryResponse::ParkResponse { probs, vars }) => {
            assert_eq!(probs.as_slice(), reference.response.0.as_slice());
            assert_eq!(vars.as_slice(), reference.response.1.as_slice());
        }
        (QueryKind::PatrolPlan { .. }, QueryResponse::PatrolPlan(plan)) => {
            assert_eq!(plan.coverage, reference.plan.coverage, "{} plan", req.park);
            assert_eq!(plan.objective, reference.plan.objective);
            assert_eq!(plan.status, reference.plan.status);
        }
        (kind, answer) => panic!("answer shape mismatch: {kind:?} vs {answer:?}"),
    }
}

#[test]
fn threaded_batches_are_bit_identical_to_direct_calls() {
    // Five resident parks spanning the engine matrix: the f64 and f32 tree
    // arenas, SVM iWare, plain bagging, and GP iWare. The SVM and GP models
    // serve from learner tables, which the threads' first batches race to
    // fill.
    let specs = [
        ("gonarezhou", 3u64, 0u8),
        ("mondulkiri", 4, 1),
        ("queen-elizabeth", 5, 2),
        ("srepok-plain", 6, 3),
        ("srepok-gp", 7, 4),
    ];
    let server = Arc::new(PawsServer::new());
    let mut fixtures = Vec::new();
    let mut references = Vec::new();
    for (name, seed, tweak) in specs {
        let (fixture, model) = fit_park(name, seed, tweak);
        references.push(direct_reference(&fixture, &model));
        server
            .registry()
            .install(
                name,
                model,
                fixture.park.clone(),
                &fixture.dataset,
                &fixture.prev,
            )
            .expect("install succeeds");
        fixtures.push(fixture);
    }
    let fixtures = Arc::new(fixtures);
    let references = Arc::new(references);

    let handles: Vec<_> = (0..4)
        .map(|t| {
            let server = Arc::clone(&server);
            let fixtures = Arc::clone(&fixtures);
            let references = Arc::clone(&references);
            std::thread::spawn(move || {
                for round in 0..3 {
                    let mut batch = batch_for(&fixtures);
                    // Different interleavings per thread/round: parity must
                    // not depend on request order.
                    if (t + round) % 2 == 1 {
                        batch.reverse();
                    }
                    let answers = server.submit(&batch);
                    assert_eq!(answers.len(), batch.len());
                    for (req, answer) in batch.iter().zip(&answers) {
                        let park_idx = fixtures
                            .iter()
                            .position(|f| f.name == req.park)
                            .expect("known park");
                        let answer = answer.as_ref().expect("query succeeds");
                        assert_answer_matches(req, answer, &references[park_idx]);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no serving thread panics");
    }
}
