//! Batched query admission over the resident-model registry.
//!
//! [`PawsServer::submit`] takes a batch of [`QueryRequest`]s addressed to
//! any number of resident parks and answers every one of them:
//!
//! 1. requests are grouped by park, and each group snapshots its park's
//!    [`crate::registry::ResidentPark`] bundle exactly once — a hot swap
//!    landing mid-batch never mixes artifacts within a group;
//! 2. park groups fan out across the work-stealing pool, and inside a
//!    group each request gets the direct call a caller holding the bundle
//!    would make: `try_risk_map_prepared`, `try_park_response_prepared`, or
//!    `try_planning_problem_prepared` then `try_plan`. A park's first
//!    iWare query fills its learner tables, so every later risk map,
//!    response surface and planning problem on it only combines them;
//! 3. each answer is a typed [`QueryResponse`] / [`ServeError`] — the
//!    admission layer never panics on caller input — and a request whose
//!    [`crate::request::SolveBudget`] wall-clock deadline lapses before its
//!    query starts is refused with [`ServeError::DeadlineExceeded`]. The
//!    deadline bounds admission only: a query that starts in time gets the
//!    direct call's answer, and a patrol plan is the planner's exact
//!    greedy fill, which needs no solver.

use crate::registry::{ModelRegistry, ResidentPark};
use crate::request::{QueryKind, QueryRequest, QueryResponse, ServeError};
use paws_plan::{try_plan, PlannerConfig};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The serving front end: a registry plus the batched admission layer.
#[derive(Default)]
pub struct PawsServer {
    registry: ModelRegistry,
    /// Planner settings (PWL segments) for every patrol-plan query.
    pub planner: PlannerConfig,
}

/// One park's slice of a batch: the original request indices (answers are
/// scattered back into submission order).
struct ParkGroup<'a> {
    name: &'a str,
    requests: Vec<(usize, &'a QueryRequest)>,
}

impl PawsServer {
    /// A server with an empty registry and default planner settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// The resident-model registry (install/swap/evict parks here).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Serve a batch of queries, one answer per request, in submission
    /// order. See the module docs for the admission pipeline.
    pub fn submit(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse, ServeError>> {
        let admitted = Instant::now();
        // Group by park, preserving first-seen park order for determinism.
        let mut order: Vec<&str> = Vec::new();
        let mut groups: HashMap<&str, Vec<(usize, &QueryRequest)>> = HashMap::new();
        for (idx, req) in requests.iter().enumerate() {
            let slot = groups.entry(req.park.as_str()).or_insert_with(|| {
                order.push(req.park.as_str());
                Vec::new()
            });
            slot.push((idx, req));
        }
        let groups: Vec<ParkGroup<'_>> = order
            .into_iter()
            .map(|name| ParkGroup {
                name,
                requests: groups.remove(name).unwrap_or_default(),
            })
            .collect();

        // Snapshot each park's bundle once per batch, then fan out.
        let mut answers: Vec<Option<Result<QueryResponse, ServeError>>> =
            (0..requests.len()).map(|_| None).collect();
        let served: Vec<Vec<(usize, Result<QueryResponse, ServeError>)>> = groups
            .par_iter()
            .map(|group| {
                let resident = self.registry.resident(group.name);
                self.serve_group(group, resident, admitted)
            })
            .collect();
        for (idx, answer) in served.into_iter().flatten() {
            answers[idx] = Some(answer);
        }
        answers
            .into_iter()
            .map(|a| {
                a.unwrap_or(Err(ServeError::Model(paws_core::PawsError::Input(
                    "request was not routed to any park group",
                ))))
            })
            .collect()
    }

    /// Serve one park's requests against one snapshotted bundle.
    fn serve_group(
        &self,
        group: &ParkGroup<'_>,
        resident: Option<Arc<ResidentPark>>,
        admitted: Instant,
    ) -> Vec<(usize, Result<QueryResponse, ServeError>)> {
        let Some(resident) = resident else {
            return group
                .requests
                .iter()
                .map(|&(idx, _)| (idx, Err(ServeError::UnknownPark(group.name.to_string()))))
                .collect();
        };

        let (model, prepared) = (&resident.model, &resident.prepared);
        group
            .requests
            .iter()
            .map(|&(idx, req)| {
                if req.budget.lapsed(admitted) {
                    return (
                        idx,
                        Err(ServeError::DeadlineExceeded {
                            park: group.name.to_string(),
                        }),
                    );
                }
                let answer = match &req.kind {
                    QueryKind::RiskMap { effort_km } => model
                        .try_risk_map_prepared(prepared, *effort_km)
                        .map(|(risk, uncertainty)| QueryResponse::RiskMap { risk, uncertainty })
                        .map_err(ServeError::from),
                    QueryKind::ParkResponse { effort_grid } => model
                        .try_park_response_prepared(prepared, effort_grid)
                        .map(|(probs, vars)| QueryResponse::ParkResponse { probs, vars })
                        .map_err(ServeError::from),
                    QueryKind::PatrolPlan {
                        post,
                        effort_grid,
                        patrol_length_km,
                        n_patrols,
                        beta,
                    } => model
                        .try_planning_problem_prepared(
                            &resident.park,
                            prepared,
                            *post,
                            effort_grid,
                            *patrol_length_km,
                            *n_patrols,
                            *beta,
                        )
                        .map_err(ServeError::from)
                        .and_then(|problem| {
                            try_plan(&problem, &self.planner)
                                .map(QueryResponse::PatrolPlan)
                                .map_err(|e| ServeError::Model(e.into()))
                        }),
                };
                (idx, answer)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{QueryKind, QueryRequest, SolveBudget};
    use paws_core::{ModelConfig, PawsError, Scenario, ServingModel, WeakLearnerKind};
    use paws_data::{build_dataset, split_by_test_year, Dataset, Discretization};
    use paws_geo::Park;
    use paws_solver::SolveStatus;
    use std::time::Duration;

    fn fixture() -> (Park, Dataset, ServingModel) {
        let scenario = Scenario::test_scenario(3);
        let history = scenario.simulate_years(2014, 3);
        let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
        let split = split_by_test_year(&dataset, 2016, 2).expect("split exists");
        let mut config = ModelConfig::new(WeakLearnerKind::DecisionTree, true, 3);
        config.n_learners = 4;
        config.n_estimators = 4;
        config.weight_mode = paws_iware::WeightMode::Uniform;
        let model = paws_core::train(&dataset, &split, &config).into_serving();
        (scenario.park, dataset, model)
    }

    fn server_with_park() -> (PawsServer, Park) {
        let (park, dataset, model) = fixture();
        let server = PawsServer::new();
        let prev = vec![0.0; park.n_cells()];
        server
            .registry()
            .install("mondulkiri", model, park.clone(), &dataset, &prev)
            .expect("install succeeds");
        (server, park)
    }

    #[test]
    fn unknown_parks_and_empty_batches_are_handled() {
        let (server, _) = server_with_park();
        assert!(server.submit(&[]).is_empty());
        let answers = server.submit(&[QueryRequest::new(
            "atlantis",
            QueryKind::RiskMap { effort_km: 1.0 },
        )]);
        assert!(matches!(&answers[0], Err(ServeError::UnknownPark(p)) if p == "atlantis"));
    }

    #[test]
    fn invalid_queries_get_typed_errors_without_poisoning_the_batch() {
        let (server, park) = server_with_park();
        let answers = server.submit(&[
            QueryRequest::new(
                "mondulkiri",
                QueryKind::RiskMap {
                    effort_km: f64::NAN,
                },
            ),
            QueryRequest::new("mondulkiri", QueryKind::RiskMap { effort_km: -2.0 }),
            QueryRequest::new("mondulkiri", QueryKind::RiskMap { effort_km: 1.0 }),
            QueryRequest::new(
                "mondulkiri",
                QueryKind::ParkResponse {
                    effort_grid: vec![],
                },
            ),
            QueryRequest::new(
                "mondulkiri",
                QueryKind::PatrolPlan {
                    post: park.patrol_posts[0],
                    effort_grid: vec![0.0, 1.0],
                    patrol_length_km: 8.0,
                    n_patrols: 2,
                    beta: 1.5,
                },
            ),
        ]);
        assert!(matches!(
            &answers[0],
            Err(ServeError::Model(PawsError::Input(_)))
        ));
        assert!(matches!(
            &answers[1],
            Err(ServeError::Model(PawsError::Input(_)))
        ));
        assert!(answers[2].is_ok(), "the valid query still serves");
        assert!(matches!(
            &answers[3],
            Err(ServeError::Model(PawsError::Query(_)))
        ));
        assert!(
            matches!(&answers[4], Err(ServeError::Model(PawsError::Input(_)))),
            "beta outside [0, 1] is refused, not a panic"
        );
    }

    #[test]
    fn unordered_plan_grids_are_refused_and_the_batch_still_serves() {
        let (server, park) = server_with_park();
        let plan = |effort_grid: Vec<f64>| {
            QueryRequest::new(
                "mondulkiri",
                QueryKind::PatrolPlan {
                    post: park.patrol_posts[0],
                    effort_grid,
                    patrol_length_km: 8.0,
                    n_patrols: 2,
                    beta: 0.8,
                },
            )
        };
        let answers = server.submit(&[
            plan(vec![1.0, 0.0]),
            QueryRequest::new("mondulkiri", QueryKind::RiskMap { effort_km: 1.0 }),
            plan(vec![0.0, 0.0, 1.0]),
            QueryRequest::new(
                "mondulkiri",
                QueryKind::ParkResponse {
                    effort_grid: vec![1.0, 0.0],
                },
            ),
            plan(vec![0.0, 0.5, 1.0]),
        ]);
        assert!(matches!(
            &answers[0],
            Err(ServeError::Model(PawsError::Input(_)))
        ));
        assert!(matches!(&answers[1], Ok(QueryResponse::RiskMap { .. })));
        assert!(matches!(
            &answers[2],
            Err(ServeError::Model(PawsError::Input(_)))
        ));
        assert!(
            matches!(&answers[3], Ok(QueryResponse::ParkResponse { .. })),
            "response surfaces accept unsorted grids"
        );
        assert!(matches!(&answers[4], Ok(QueryResponse::PatrolPlan(_))));
    }

    #[test]
    fn lapsed_deadlines_refuse_queries_and_leave_started_plans_optimal() {
        let (server, park) = server_with_park();
        let answers = server.submit(&[
            QueryRequest::new("mondulkiri", QueryKind::RiskMap { effort_km: 1.0 })
                .with_budget(SolveBudget::with_time_limit(Duration::ZERO)),
            QueryRequest::new("mondulkiri", QueryKind::RiskMap { effort_km: 1.0 }),
        ]);
        assert!(matches!(
            &answers[0],
            Err(ServeError::DeadlineExceeded { park }) if park == "mondulkiri"
        ));
        assert!(answers[1].is_ok(), "unbudgeted sibling is unaffected");

        // A plan whose budget lapses *during* the batch (the deadline check
        // passes at admission) is still the optimal greedy allocation: the
        // deadline bounds admission only.
        let plan_req = QueryRequest::new(
            "mondulkiri",
            QueryKind::PatrolPlan {
                post: park.patrol_posts[0],
                effort_grid: vec![0.0, 0.5, 1.0, 2.0],
                patrol_length_km: 8.0,
                n_patrols: 2,
                beta: 0.8,
            },
        )
        .with_budget(SolveBudget::with_time_limit(Duration::from_nanos(1)));
        // The nanosecond budget may or may not lapse before admission on a
        // fast machine; both outcomes are acceptable, a panic or a
        // non-optimal plan is not.
        let answers = server.submit(&[plan_req]);
        match &answers[0] {
            Ok(QueryResponse::PatrolPlan(plan)) => {
                assert_eq!(plan.status, SolveStatus::Optimal);
            }
            Err(ServeError::DeadlineExceeded { .. }) => {}
            other => panic!("unexpected starved-plan outcome: {other:?}"),
        }
    }

    /// A live deadline only decides admission: the plan it admits is the
    /// one a direct call on the resident bundle returns, bit for bit.
    #[test]
    fn a_live_deadline_leaves_the_plan_equal_to_the_direct_call() {
        let (server, park) = server_with_park();
        let (post, grid) = (park.patrol_posts[0], vec![0.0, 0.5, 1.0, 2.0]);
        let answers = server.submit(&[QueryRequest::new(
            "mondulkiri",
            QueryKind::PatrolPlan {
                post,
                effort_grid: grid.clone(),
                patrol_length_km: 8.0,
                n_patrols: 2,
                beta: 0.8,
            },
        )
        .with_budget(SolveBudget::with_time_limit(Duration::from_secs(600)))]);
        let resident = server.registry().resident("mondulkiri").expect("installed");
        let problem = resident
            .model
            .try_planning_problem_prepared(
                &resident.park,
                &resident.prepared,
                post,
                &grid,
                8.0,
                2,
                0.8,
            )
            .expect("valid problem");
        let direct = try_plan(&problem, &server.planner).expect("direct plan");
        let Ok(QueryResponse::PatrolPlan(served)) = &answers[0] else {
            panic!("expected a plan: {:?}", answers[0]);
        };
        assert_eq!(served.status, direct.status);
        let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&served.coverage), bits(&direct.coverage));
        assert_eq!(served.objective.to_bits(), direct.objective.to_bits());
    }

    #[test]
    fn identical_grids_get_bit_identical_answers() {
        let (server, _) = server_with_park();
        let grid = vec![0.0, 0.5, 1.0];
        let answers = server.submit(&[
            QueryRequest::new(
                "mondulkiri",
                QueryKind::ParkResponse {
                    effort_grid: grid.clone(),
                },
            ),
            QueryRequest::new("mondulkiri", QueryKind::ParkResponse { effort_grid: grid }),
        ]);
        let (a, b) = (&answers[0], &answers[1]);
        match (a, b) {
            (
                Ok(QueryResponse::ParkResponse {
                    probs: pa,
                    vars: va,
                }),
                Ok(QueryResponse::ParkResponse {
                    probs: pb,
                    vars: vb,
                }),
            ) => {
                assert_eq!(pa.as_slice(), pb.as_slice());
                assert_eq!(va.as_slice(), vb.as_slice());
            }
            other => panic!("expected two response surfaces: {other:?}"),
        }
    }
}
