//! `serve_stream`: one closed-loop client submits a fixed 24-query batch
//! through `PawsServer::submit` while QENP's patrol logs arrive quarter by
//! quarter through `ModelRegistry::ingest_batch`. Also the batch template
//! and direct-call helpers the cycle workloads' traced serving probe uses.

use crate::check::{answer_ok, same_answer};
use crate::record::{cpu_ms_since, ms_since, Stamp, Tally, Trace};
use crate::stats::Ratio;
use crate::{Outcome, Probes};
use paws_bench::{park_model_config, Scale};
use paws_core::{
    train, ModelConfig, Precision, RefitPath, Scenario, StreamConfig, StreamingFit, WeakLearnerKind,
};
use paws_data::{build_dataset, split_by_test_year, Dataset, Discretization, TrainTestSplit};
use paws_geo::CellId;
use paws_plan::{expected_detections, try_plan, PlannerConfig};
use paws_serve::{PawsServer, QueryKind, QueryRequest, QueryResponse, ResidentPark};
use paws_sim::{History, Season};

/// Effort levels the batch's risk maps are spread over.
const RISK_LEVELS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
/// The grid every response-surface query in a batch shares.
const RESPONSE_GRID: [f64; 4] = [0.0, 1.0, 2.0, 4.0];
/// The effort grid of the paper's per-post planning problems.
pub const PAPER_GRID: [f64; 6] = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
const PLAN_KM: f64 = 12.0;
const PLAN_PATROLS: usize = 2;
const PLAN_BETA: f64 = 0.8;
/// QENP's quarterly log batches: the first year installs the park, the
/// remaining twenty arrive during the run.
const WARM_BATCHES: usize = 4;
/// Batches per second of `--seconds`: a run submits a number of batches
/// fixed by the run length, not by the speed of the code under test. At
/// one worker a batch took about 40 ms and the twenty ingests about 8 s
/// together, so the loop lasts about `--seconds`.
const BATCHES_PER_S: f64 = 15.0;
/// Set-ups per run; `setup_s` is their median. Each fits two parks, about
/// 2 s at one worker.
const SETUP_REPS: usize = 3;
/// The serving loop's sensitivity to the host's speed (see
/// `calib::set_sensitivity`): across runs in the host's fast and slow
/// phases, submit latency went as the reference to the power 1.04.
const HOST_SENSITIVITY: f64 = 1.0;
/// Every this many batches the loop also scores the plans against ground
/// truth (and, traced, times every query as a direct call).
const EVAL_EVERY: usize = 8;

/// The stream configuration of every warm refit: the registry's for QENP
/// and the cycles' ingest probe.
pub fn stream_config() -> StreamConfig {
    StreamConfig {
        warmup_batches: 1,
        tolerance: 0.5,
        scaler_drift: 1.0,
    }
}

/// One park's slice of a batch: its registry name and patrol posts.
pub struct BatchPark<'a> {
    pub name: &'static str,
    pub posts: &'a [CellId],
}

/// The fixed 24-query batch `b` over `parks` (round robin): 12 risk maps
/// over four effort levels (duplicates across the batch, so same-park
/// levels coalesce), 6 response surfaces on one shared grid (so the
/// response cache engages) and 6 patrol plans at posts that rotate with
/// `b`.
pub fn batch(parks: &[BatchPark<'_>], b: usize) -> Vec<QueryRequest> {
    let np = parks.len();
    let mut out = Vec::with_capacity(24);
    for q in 0..12 {
        let kind = QueryKind::RiskMap {
            effort_km: RISK_LEVELS[q % RISK_LEVELS.len()],
        };
        out.push(QueryRequest::new(parks[q % np].name, kind));
    }
    for q in 0..6 {
        let kind = QueryKind::ParkResponse {
            effort_grid: RESPONSE_GRID.to_vec(),
        };
        out.push(QueryRequest::new(parks[q % np].name, kind));
    }
    for q in 0..6 {
        let park = &parks[q % np];
        let kind = QueryKind::PatrolPlan {
            post: park.posts[(b * 6 / np + q / np) % park.posts.len()],
            effort_grid: PAPER_GRID.to_vec(),
            patrol_length_km: PLAN_KM,
            n_patrols: PLAN_PATROLS,
            beta: PLAN_BETA,
        };
        out.push(QueryRequest::new(park.name, kind));
    }
    out
}

/// Index of a query kind in [`Probes::kind_ms`].
fn kind_index(kind: &QueryKind) -> usize {
    match kind {
        QueryKind::RiskMap { .. } => 0,
        QueryKind::ParkResponse { .. } => 1,
        QueryKind::PatrolPlan { .. } => 2,
    }
}

/// The patrol budget a plan query allows.
fn budget_km(kind: &QueryKind) -> f64 {
    match kind {
        QueryKind::PatrolPlan {
            patrol_length_km,
            n_patrols,
            ..
        } => patrol_length_km * *n_patrols as f64,
        _ => 0.0,
    }
}

/// Answer one query by the direct `try_*_prepared` / `try_plan` calls on
/// a resident bundle, as `submit` would without admission.
pub fn direct(
    resident: &ResidentPark,
    kind: &QueryKind,
    planner: &PlannerConfig,
    trace: &mut Trace,
    subject: &'static str,
) -> Result<QueryResponse, String> {
    let model = &resident.model;
    let prepared = &resident.prepared;
    match kind {
        QueryKind::RiskMap { effort_km } => trace
            .span("core.risk_map", subject, || {
                model.try_risk_map_prepared(prepared, *effort_km)
            })
            .map(|(risk, uncertainty)| QueryResponse::RiskMap { risk, uncertainty })
            .map_err(|e| e.to_string()),
        QueryKind::ParkResponse { effort_grid } => trace
            .span("core.response", subject, || {
                model.try_park_response_prepared(prepared, effort_grid)
            })
            .map(|(probs, vars)| QueryResponse::ParkResponse { probs, vars })
            .map_err(|e| e.to_string()),
        QueryKind::PatrolPlan {
            post,
            effort_grid,
            patrol_length_km,
            n_patrols,
            beta,
        } => {
            let problem = trace
                .span("plan.problem", subject, || {
                    model.try_planning_problem_prepared(
                        &resident.park,
                        prepared,
                        *post,
                        effort_grid,
                        *patrol_length_km,
                        *n_patrols,
                        *beta,
                    )
                })
                .map_err(|e| e.to_string())?;
            trace
                .span("plan.solve", subject, || try_plan(&problem, planner))
                .map(QueryResponse::PatrolPlan)
                .map_err(|e| e.to_string())
        }
    }
}

/// Traced only: answer every query of a submitted batch again as direct
/// calls, per kind, and relate their sum to the `submit` time.
pub fn time_direct(
    server: &PawsServer,
    requests: &[QueryRequest],
    submit_ms: f64,
    subject: &'static str,
    trace: &mut Trace,
    probes: &mut Probes,
) {
    let mut kind_ms = [0.0; 3];
    for req in requests {
        let Some(resident) = server.registry().resident(&req.park) else {
            continue;
        };
        let mark = trace.mark();
        let _ = direct(&resident, &req.kind, &server.planner, trace, subject);
        kind_ms[kind_index(&req.kind)] += trace.ms_since_mark(mark);
    }
    for (samples, ms) in probes.kind_ms.iter_mut().zip(kind_ms) {
        samples.push(ms);
    }
    probes
        .coalesce
        .push(Ratio::new(kind_ms.iter().sum(), submit_ms));
}

/// Check every answer of a batch and, for one sampled query, that the
/// served answer is bit-identical to the direct call on the same bundle.
pub fn check_batch(
    server: &PawsServer,
    requests: &[QueryRequest],
    answers: &[Result<QueryResponse, paws_serve::ServeError>],
    sample: usize,
    tally: &mut Tally,
    probes: &mut Probes,
) {
    let mut off = Trace::new(false);
    for (i, (req, answer)) in requests.iter().zip(answers).enumerate() {
        let Some(answer) = tally.ok(answer.as_ref(), "served query") else {
            continue;
        };
        let Some(resident) = server.registry().resident(&req.park) else {
            tally.check(false, || format!("park {} not resident", req.park));
            continue;
        };
        let n_cells = resident.park.n_cells();
        let budget = budget_km(&req.kind);
        tally.check(answer_ok(answer, n_cells, budget), || {
            format!(
                "served {:?} answer for {} failed its checks",
                req.kind, req.park
            )
        });
        if let QueryResponse::PatrolPlan(plan) = answer {
            probes.optimal.add(
                f64::from(u8::from(plan.status == paws_solver::SolveStatus::Optimal)),
                1.0,
            );
        }
        if i == sample {
            let direct = direct(&resident, &req.kind, &server.planner, &mut off, "");
            let same = direct.as_ref().is_ok_and(|d| same_answer(answer, d));
            tally.check(same, || {
                format!(
                    "served answer {i} for {} differs from the direct call",
                    req.park
                )
            });
        }
    }
}

/// A resident park and its ground truth.
struct Site {
    name: &'static str,
    scenario: Scenario,
    attack: Vec<f64>,
    /// MFNP and SWS: their dataset and its held-out points (2017 and
    /// 2018; the model trained on 2014–2016), which the resident model's
    /// test AUC is measured on.
    test: Option<(Dataset, Vec<usize>)>,
}

struct Setup {
    server: PawsServer,
    sites: Vec<Site>,
    /// QENP's log batches still to arrive.
    stream: Vec<History>,
    /// A copy of QENP's resident dataset, grown by the same appends.
    mirror: Dataset,
    /// SWS's fit inputs, for the traced fit-scaling probe.
    sws_fit: Option<(Dataset, TrainTestSplit, ModelConfig)>,
}

fn ground_truth(scenario: &Scenario) -> Vec<f64> {
    scenario.attack_probabilities(&vec![0.0; scenario.park.n_cells()], Season::Dry)
}

/// A park's DTB-iW model: the paper's quick-scale ensemble for the park
/// (10 learners of 5 trees, 3-fold CV weights, balanced bagging for SWS),
/// fitted from `seed`, serving on `precision`.
fn dtb_config(park: &str, seed: u64, precision: Precision) -> ModelConfig {
    let mut config = park_model_config(park, WeakLearnerKind::DecisionTree, true, Scale::Quick);
    config.seed = seed;
    config.precision = precision;
    config
}

/// Generate the three parks, fit and install MFNP (f64 plane) and SWS
/// (f32 plane), and install QENP on the streaming path from its first
/// year of logs.
fn setup(seed: u64, trace: &mut Trace) -> Result<Setup, String> {
    let server = PawsServer::new();
    let mut sites = Vec::new();
    let mut sws_fit = None;
    for (name, disc, precision) in [
        ("MFNP", Discretization::quarterly(), Precision::F64),
        ("SWS", Discretization::dry_season(), Precision::F32),
    ] {
        let scenario = Scenario::study_site(name, crate::SITE_SEED);
        let history = scenario.simulate_years(2013, 6);
        let dataset = trace.span("data.build_dataset", name, || {
            build_dataset(&scenario.park, &history, disc)
        });
        let split = split_by_test_year(&dataset, 2017, 3).ok_or("test year 2017 missing")?;
        let config = dtb_config(name, seed, precision);
        let model = trace.span("iware.fit", name, || {
            train(&dataset, &split, &config).into_serving()
        });
        let prev = dataset.coverage.last().cloned().ok_or("empty dataset")?;
        server
            .registry()
            .install(name, model, scenario.park.clone(), &dataset, &prev)
            .map_err(|e| e.to_string())?;
        if name == "SWS" {
            sws_fit = Some((dataset.clone(), split.clone(), config));
        }
        let mut held_out = split.test.clone();
        held_out.extend(split_by_test_year(&dataset, 2018, 1).map_or(Vec::new(), |s| s.test));
        sites.push(Site {
            name,
            attack: ground_truth(&scenario),
            scenario,
            test: Some((dataset, held_out)),
        });
    }

    let scenario = Scenario::study_site("QENP", crate::SITE_SEED);
    let mut batches = scenario.patrol_log_batches(2013, 6, 3);
    let stream = batches.split_off(WARM_BATCHES.min(batches.len()));
    let first_year = History {
        start_year: 2013,
        months: batches.into_iter().flat_map(|h| h.months).collect(),
        n_cells: scenario.park.n_cells(),
    };
    let dataset = trace.span("data.build_dataset", "QENP", || {
        build_dataset(&scenario.park, &first_year, Discretization::quarterly())
    });
    let mirror = dataset.clone();
    let config = dtb_config("QENP", seed, Precision::F64);
    trace
        .span("iware.fit", "QENP", || {
            server.registry().install_streaming(
                "QENP",
                scenario.park.clone(),
                dataset,
                &config,
                stream_config(),
            )
        })
        .map_err(|e| e.to_string())?;
    sites.push(Site {
        name: "QENP",
        attack: ground_truth(&scenario),
        scenario,
        test: None,
    });
    Ok(Setup {
        server,
        sites,
        stream,
        mirror,
        sws_fit,
    })
}

/// Rows of `dataset` from `start` on.
fn rows_from(dataset: &Dataset, start: usize) -> Vec<usize> {
    (start..dataset.n_points()).collect()
}

pub fn run(seed: u64, seconds: f64, trace: &mut Trace, tally: &mut Tally) -> Outcome {
    crate::calib::set_sensitivity(HOST_SENSITIVITY);
    let mut out = Outcome::default();
    let mut setup_result = None;
    for _ in 0..SETUP_REPS {
        // One host sample right before, none during: a set-up is timed
        // whole, and its calls' spans are recorded inside it.
        trace.sample_host();
        trace.hold_sampling(true);
        let start = Stamp::now();
        let s = setup(seed, trace);
        out.setup_s.push(ms_since(start) / 1e3);
        trace.hold_sampling(false);
        setup_result = Some(s);
    }
    let Some(Setup {
        server,
        sites,
        stream,
        mut mirror,
        sws_fit,
    }) = setup_result.and_then(|s| tally.ok(s, "serve_stream setup"))
    else {
        return out;
    };
    let qenp = sites.iter().position(|s| s.name == "QENP").unwrap_or(0);
    let qenp_park = sites[qenp].scenario.park.clone();

    // Traced only: a second streaming driver fed the same rows, so the warm
    // refit can be timed apart from the registry's append and swap.
    let mut fit_mirror = trace.on().then(|| {
        let mut fit = StreamingFit::new(dtb_config("QENP", seed, Precision::F64), stream_config());
        let idx = rows_from(&mirror, 0);
        let _ = fit.ingest(
            mirror.feature_rows(&idx).view(),
            &mirror.labels(&idx),
            &mirror.efforts(&idx),
        );
        fit
    });

    let parks: Vec<BatchPark<'_>> = sites
        .iter()
        .map(|s| BatchPark {
            name: s.name,
            posts: &s.scenario.park.patrol_posts,
        })
        .collect();
    let mut probes = Probes::default();
    let mut last_total = mirror.n_points();
    let n_ingests = stream.len();
    let n_batches = ((seconds * BATCHES_PER_S).round() as usize).max(n_ingests + 1);
    let mut next_ingest = 0;
    let loop_start = Stamp::now();
    let sampling = trace.host_spent_ms();
    let mark = trace.mark();
    for b in 0..n_batches {
        // Ingest k lands before batch (k + 1)·n_batches / (n_ingests + 1).
        while next_ingest < n_ingests && b >= (next_ingest + 1) * n_batches / (n_ingests + 1) {
            let logs = &stream[next_ingest];
            next_ingest += 1;
            // Score the resident model on the quarter before it learns it.
            let before = mirror.n_points();
            let appended = trace.span("data.append", "QENP", || {
                mirror.append_observations(&qenp_park, logs)
            });
            let Some(appended) = tally.ok(appended, "mirror append") else {
                continue;
            };
            let idx = rows_from(&mirror, before);
            if let Some(resident) = server.registry().resident("QENP") {
                trace.span("iware.score", "QENP", || {
                    out.held_out.score(&resident.model, &mirror, &idx)
                });
            }
            let report = trace.span("serve.ingest", "QENP", || {
                server.registry().ingest_batch("QENP", logs)
            });
            out.refresh_ms.push(trace.last_ms());
            let total = mirror.n_points();
            match tally.ok(report, "ingest_batch") {
                Some(Some(report)) => {
                    tally.check(
                        appended > 0 && report.total_rows == total && total > last_total,
                        || {
                            format!(
                                "ingest reported {} rows, expected {total}",
                                report.total_rows
                            )
                        },
                    );
                    if let RefitPath::Warm(stats) = report.path {
                        probes.kept.add(
                            stats.learners_kept as f64,
                            (stats.learners_kept + stats.learners_refitted) as f64,
                        );
                        probes
                            .cv_cache
                            .add(f64::from(u8::from(stats.cv_resolved_from_cache)), 1.0);
                    }
                }
                Some(None) => tally.check(false, || "ingest was not applied".to_string()),
                None => {}
            }
            last_total = total;
            if let Some(fit) = fit_mirror.as_mut() {
                let rows = mirror.feature_rows(&idx);
                let (labels, efforts) = (mirror.labels(&idx), mirror.efforts(&idx));
                let _ = trace.span("iware.warm_refit", "QENP", || {
                    fit.ingest(rows.view(), &labels, &efforts)
                });
                if let Some(resident) = server.registry().resident("QENP") {
                    let prev = mirror.coverage.last().cloned().unwrap_or_default();
                    let _ = trace.span("core.prepare", "QENP", || {
                        resident.model.prepare_park(&qenp_park, &mirror, &prev)
                    });
                }
            }
        }
        let requests = batch(&parks, b);
        let answers = trace.span("serve.submit", "batch", || server.submit(&requests));
        let submit_ms = trace.last_ms();
        out.unit_ms.push(submit_ms);
        trace.span("bench.check", "batch", || {
            check_batch(
                &server,
                &requests,
                &answers,
                b % requests.len(),
                tally,
                &mut probes,
            )
        });
        if b == 0 {
            for answer in answers.iter().flatten() {
                if let QueryResponse::PatrolPlan(plan) = answer {
                    probes.lp_solves += plan.lp_solves as f64;
                }
            }
        }
        if b % EVAL_EVERY == 0 {
            let detections = score_plans(&server, &sites, &requests, &answers, trace, tally);
            out.detections.push(detections);
            if trace.on() {
                time_direct(&server, &requests, submit_ms, "batch", trace, &mut probes);
            }
        }
    }
    let loop_ms = cpu_ms_since(loop_start) - (trace.host_spent_ms() - sampling);
    if trace.on() {
        probes
            .stage_coverage
            .push(trace.cpu_ms_since_mark(mark) / loop_ms);
    }
    eprintln!(
        "serve_stream: {n_batches} batches, {} ingests in {:.1} s CPU",
        out.refresh_ms.len(),
        loop_ms / 1e3
    );

    // Test AUC pools MFNP's and SWS's held-out years with every QENP
    // quarter, each scored before the model had seen it.
    for site in &sites {
        if let (Some((dataset, held_out)), Some(resident)) =
            (&site.test, server.registry().resident(site.name))
        {
            out.held_out.score(&resident.model, dataset, held_out);
        }
    }

    if trace.on() {
        probe_layers(
            &server,
            &sites,
            sws_fit,
            &mirror,
            seed,
            trace,
            tally,
            &mut probes,
        );
    }
    out.probes = probes;
    out
}

/// Expected ground-truth detections of a batch's plan answers, summed.
fn score_plans(
    server: &PawsServer,
    sites: &[Site],
    requests: &[QueryRequest],
    answers: &[Result<QueryResponse, paws_serve::ServeError>],
    trace: &mut Trace,
    tally: &mut Tally,
) -> f64 {
    let mut total = 0.0;
    for (req, answer) in requests.iter().zip(answers) {
        let (
            QueryKind::PatrolPlan {
                post,
                effort_grid,
                patrol_length_km,
                n_patrols,
                beta,
            },
            Ok(QueryResponse::PatrolPlan(plan)),
        ) = (&req.kind, answer)
        else {
            continue;
        };
        let (Some(site), Some(resident)) = (
            sites.iter().find(|s| s.name == req.park),
            server.registry().resident(&req.park),
        ) else {
            continue;
        };
        let problem = trace.span("plan.problem", site.name, || {
            resident.model.try_planning_problem_prepared(
                &resident.park,
                &resident.prepared,
                *post,
                effort_grid,
                *patrol_length_km,
                *n_patrols,
                *beta,
            )
        });
        let Some(problem) = tally.ok(problem, "planning problem") else {
            continue;
        };
        if problem.n_cells() != plan.coverage.len() {
            tally.check(false, || "plan and problem sizes differ".to_string());
            continue;
        }
        total += trace.span("plan.evaluate", site.name, || {
            let attack: Vec<f64> = problem
                .cells
                .iter()
                .map(|c| site.attack[c.park_index])
                .collect();
            let detection = site.scenario.sim.detection;
            expected_detections(&problem, &plan.coverage, &attack, |c| {
                detection.probability(c)
            })
        });
    }
    total
}

/// Traced only: the layer probes the serving loop does not exercise by
/// itself — pool scaling of a response surface and of a fit, and a field
/// trial designed from QENP's served risk map.
#[allow(clippy::too_many_arguments)]
fn probe_layers(
    server: &PawsServer,
    sites: &[Site],
    sws_fit: Option<(Dataset, TrainTestSplit, ModelConfig)>,
    qenp_dataset: &Dataset,
    seed: u64,
    trace: &mut Trace,
    tally: &mut Tally,
    probes: &mut Probes,
) {
    if let Some(resident) = server.registry().resident("MFNP") {
        crate::probe_response(
            &resident.model,
            &resident.prepared,
            &RESPONSE_GRID,
            "MFNP",
            trace,
            probes,
        );
    }
    if let Some((dataset, split, config)) = sws_fit {
        crate::probe_fit(&dataset, &split, &config, probes);
    }
    for site in sites {
        if let Some(resident) = server.registry().resident(site.name) {
            probes.add_prepared(&resident.model, &resident.prepared);
        }
    }
    if let (Some(site), Some(resident)) = (
        sites.iter().find(|s| s.name == "QENP"),
        server.registry().resident("QENP"),
    ) {
        let risk = resident
            .model
            .try_risk_map_prepared(&resident.prepared, 1.0);
        if let Some((risk, _)) = tally.ok(risk, "QENP risk map") {
            crate::field_trial(
                &site.scenario,
                qenp_dataset,
                &risk,
                seed,
                "QENP",
                trace,
                tally,
            );
        }
    }
}
