//! `paper_cycle` and `llc_cycle`: the park's whole cycle, repeated — patrol
//! logs → dataset → iWare-E fit → prepared park → risk maps → patrol plans
//! scored against ground truth → field-test design and trial.

use crate::record::{cpu_ms_since, ms_since, Stamp, Tally, Trace, PROBE};
use crate::serve::{batch, check_batch, stream_config, time_direct, BatchPark, PAPER_GRID};
use crate::stats::median;
use crate::{field_trial, probe_fit, probe_response, HeldOut, Outcome, Probes};
use paws_bench::{park_model_config, Scale};
use paws_core::{
    train, try_planning_problem_from_response, ModelConfig, PreparedPark, RefitPath, Scenario,
    ServingModel, StreamingFit, WeakLearnerKind,
};
use paws_data::{build_dataset, split_by_test_year, Dataset, Discretization, TrainTestSplit};
use paws_plan::{
    expected_detections, try_plan, PatrolPlan, PlanError, PlannerConfig, PlanningProblem,
};
use paws_serve::PawsServer;
use paws_sim::{History, Season};

/// How one park runs through the cycle.
pub struct ParkSpec {
    pub name: &'static str,
    pub disc: Discretization,
    pub test_year: u32,
    pub train_years: usize,
    pub config: ModelConfig,
}

/// How the cycle plans patrols.
pub enum Planning {
    /// At every patrol post: a robust (β) and a β = 0 plan.
    PerPost {
        grid: &'static [f64],
        patrol_km: f64,
        n_patrols: usize,
        beta: f64,
    },
    /// One park-wide problem from the park's response surface.
    ParkWide {
        patrol_km: f64,
        n_patrols: usize,
        beta: f64,
    },
}

pub struct CycleSpec {
    pub make: fn(&str, u64) -> Scenario,
    /// Measured seconds of one pass and its set-up at one worker: a run
    /// makes `--seconds / pass_s` of them (at least one), a count fixed by
    /// the run length, not by the speed of the code under test.
    pub pass_s: f64,
    pub start_year: u32,
    pub years: u32,
    pub parks: Vec<ParkSpec>,
    /// Effort levels of the risk maps each pass draws (1 km must be one:
    /// the field test is designed from it).
    pub risk_levels: &'static [f64],
    /// The park response surface each pass draws, if any.
    pub response_grid: Option<&'static [f64]>,
    pub planning: Planning,
    /// Parks (indices into `parks`) the traced probes use: the response
    /// and fit scaling probes, the serving probe, the ingest probe.
    pub probe_response: usize,
    pub probe_fit: usize,
    pub probe_serve: usize,
    pub probe_ingest: usize,
}

/// A cycle pass's sensitivity to the host's speed (see
/// `calib::set_sensitivity`): across runs of one seed in the host's fast and
/// slow phases, pass latency went as the reference to the power 0.77–0.99
/// on paper_cycle (five seeds) and 0.82 on llc_cycle (24 runs).
const HOST_SENSITIVITY: f64 = 0.85;

/// A run stops starting passes once it has spent this many times
/// `--seconds` on them, so a slow machine still ends in time.
const PASS_CAP: f64 = 2.5;

/// The stages between a park's patrol logs and a model ready to serve them.
const REFRESH_STAGES: [&str; 4] = [
    "data.build_dataset",
    "data.split",
    "iware.fit",
    "core.prepare",
];

/// The paper's three parks: DTB-iW for MFNP and QENP (quarterly),
/// balanced GPB-iW for SWS (dry season), plans at every post. The
/// ensembles are the quick-scale ones (10 learners of 5 trees, 3-fold CV
/// weights), bagged from `seed`: at full scale one pass took 17 s on one
/// worker, too long to repeat within a run.
pub fn paper(seed: u64) -> CycleSpec {
    let park = |name, disc, learner| ParkSpec {
        name,
        disc,
        test_year: 2017,
        train_years: 3,
        config: ModelConfig {
            seed,
            ..park_model_config(name, learner, true, Scale::Quick)
        },
    };
    CycleSpec {
        make: Scenario::study_site,
        pass_s: 7.0,
        start_year: 2013,
        years: 6,
        parks: vec![
            park(
                "MFNP",
                Discretization::quarterly(),
                WeakLearnerKind::DecisionTree,
            ),
            park(
                "QENP",
                Discretization::quarterly(),
                WeakLearnerKind::DecisionTree,
            ),
            park(
                "SWS",
                Discretization::dry_season(),
                WeakLearnerKind::GaussianProcess,
            ),
        ],
        risk_levels: &[1.0],
        response_grid: None,
        planning: Planning::PerPost {
            grid: &PAPER_GRID,
            patrol_km: 12.0,
            n_patrols: 2,
            beta: 0.8,
        },
        probe_response: 2,
        probe_fit: 2,
        probe_serve: 0,
        probe_ingest: 1,
    }
}

/// One 50k-cell park: DTB-iW defaults, four risk maps, a six-level
/// response surface and one park-wide plan. The fit is bagged from
/// [`crate::SITE_SEED`], not from the workload seed, which draws only the
/// field trial here: the expected detections of the one park-wide plan a
/// pass makes spread by 0.18 (quartile distance / median) over five
/// bagging seeds.
pub fn llc() -> CycleSpec {
    CycleSpec {
        make: |_, seed| Scenario::llc_scenario(50_000, seed),
        pass_s: 5.5,
        start_year: 2014,
        years: 2,
        parks: vec![ParkSpec {
            name: "LLC",
            disc: Discretization::quarterly(),
            test_year: 2015,
            train_years: 1,
            config: ModelConfig::new(WeakLearnerKind::DecisionTree, true, crate::SITE_SEED),
        }],
        risk_levels: &[0.5, 1.0, 2.0, 4.0],
        response_grid: Some(&PAPER_GRID),
        planning: Planning::ParkWide {
            patrol_km: 900.0,
            n_patrols: 4,
            beta: 1.0,
        },
        probe_response: 0,
        probe_fit: 0,
        probe_serve: 0,
        probe_ingest: 0,
    }
}

/// Patrol-log histories per park, drawn from [`crate::SITE_SEED`]. Pass
/// `i` runs on history `i mod SEASONS`, so a run's figures pool several
/// seasons of logs.
const SEASONS: u64 = 4;

/// A park's scenario, simulated log histories and ground truth.
struct Site {
    scenario: Scenario,
    histories: Vec<History>,
    /// Ground-truth attack probability per park cell.
    attack: Vec<f64>,
}

fn setup(spec: &CycleSpec, trace: &mut Trace) -> Vec<Site> {
    spec.parks
        .iter()
        .map(|p| {
            let scenario = trace.span("sim.scenario", p.name, || {
                (spec.make)(p.name, crate::SITE_SEED)
            });
            let histories = (0..SEASONS)
                .map(|season| {
                    let mut draw = scenario.clone();
                    draw.seed = crate::SITE_SEED.wrapping_mul(SEASONS).wrapping_add(season);
                    trace.span("sim.history", p.name, || {
                        draw.simulate_years(spec.start_year, spec.years)
                    })
                })
                .collect();
            let zeros = vec![0.0; scenario.park.n_cells()];
            let attack = trace.span("sim.truth", p.name, || {
                scenario.attack_probabilities(&zeros, Season::Dry)
            });
            Site {
                scenario,
                histories,
                attack,
            }
        })
        .collect()
}

/// What one park's pass leaves behind for the traced probes.
struct Fitted {
    model: ServingModel,
    prepared: PreparedPark,
    dataset: Dataset,
    split: TrainTestSplit,
}

/// Totals of one pass.
#[derive(Default)]
struct Pass {
    detections: f64,
    lp_solves: f64,
}

/// Count a plan attempt: `Err`, not `Optimal`, or over budget fails.
fn check_plan<'a>(
    plan: &'a Result<PatrolPlan, PlanError>,
    problem: &PlanningProblem,
    pass: &mut Pass,
    tally: &mut Tally,
    probes: &mut Probes,
) -> Option<&'a PatrolPlan> {
    let plan = tally.ok(plan.as_ref(), "plan")?;
    let optimal = plan.status == paws_solver::SolveStatus::Optimal;
    probes.optimal.add(f64::from(u8::from(optimal)), 1.0);
    pass.lp_solves += plan.lp_solves as f64;
    tally.check(crate::check::plan_ok(plan, problem.budget_km()), || {
        format!(
            "plan at post {:?} is {:?} or over budget",
            problem.post, plan.status
        )
    });
    Some(plan)
}

/// One park through the whole cycle.
#[allow(clippy::too_many_arguments)]
fn park_pass(
    spec: &CycleSpec,
    p: &ParkSpec,
    site: &Site,
    history: &History,
    seed: u64,
    trace: &mut Trace,
    tally: &mut Tally,
    probes: &mut Probes,
    pass: &mut Pass,
    held_out: &mut HeldOut,
) -> Option<Fitted> {
    let park = &site.scenario.park;
    let name = p.name;
    let dataset = trace.span("data.build_dataset", name, || {
        build_dataset(park, history, p.disc)
    });
    let split = trace.span("data.split", name, || {
        split_by_test_year(&dataset, p.test_year, p.train_years)
    });
    let Some(split) = split else {
        tally.check(false, || {
            format!("{name}: test year {} missing", p.test_year)
        });
        return None;
    };
    let model = trace.span("iware.fit", name, || {
        train(&dataset, &split, &p.config).into_serving()
    });
    let prev = dataset.coverage.last().cloned().unwrap_or_default();
    let prepared = trace.span("core.prepare", name, || {
        model.prepare_park(park, &dataset, &prev)
    });
    let prepared = tally.ok(prepared, "prepare_park")?;
    trace.span("iware.score", name, || {
        held_out.score(&model, &dataset, &split.test)
    });

    let mut field_risk = None;
    for &level in spec.risk_levels {
        let map = trace.span("core.risk_map", name, || {
            model.try_risk_map_prepared(&prepared, level)
        });
        if let Some((risk, var)) = tally.ok(map, "risk map") {
            tally.check(
                crate::check::risk_map_ok(park.n_cells(), &risk, &var),
                || format!("{name}: risk map at {level} km failed its checks"),
            );
            if level == 1.0 {
                field_risk = Some(risk);
            }
        }
    }
    let response = spec.response_grid.and_then(|grid| {
        let r = trace.span("core.response", name, || {
            model.try_park_response_prepared(&prepared, grid)
        });
        tally.ok(r, "park response").map(|r| (grid, r))
    });

    let planner = PlannerConfig::default();
    let detection = site.scenario.sim.detection;
    let score = |problem: &PlanningProblem, plan: &PatrolPlan| {
        let attack: Vec<f64> = problem
            .cells
            .iter()
            .map(|c| site.attack[c.park_index])
            .collect();
        expected_detections(problem, &plan.coverage, &attack, |c| {
            detection.probability(c)
        })
    };
    match spec.planning {
        Planning::PerPost {
            grid,
            patrol_km,
            n_patrols,
            beta,
        } => {
            for &post in &park.patrol_posts {
                let problem = trace.span("plan.problem", name, || {
                    model.try_planning_problem_prepared(
                        park, &prepared, post, grid, patrol_km, n_patrols, beta,
                    )
                });
                let Some(problem) = tally.ok(problem, "planning problem") else {
                    continue;
                };
                let robust = trace.span("plan.solve", name, || try_plan(&problem, &planner));
                let baseline = trace.span("plan.solve", name, || {
                    let mut nominal = problem.clone();
                    nominal.beta = 0.0;
                    try_plan(&nominal, &planner)
                });
                check_plan(&baseline, &problem, pass, tally, probes);
                if let Some(plan) = check_plan(&robust, &problem, pass, tally, probes) {
                    pass.detections += trace.span("plan.evaluate", name, || score(&problem, plan));
                }
            }
        }
        Planning::ParkWide {
            patrol_km,
            n_patrols,
            beta,
        } => {
            if let Some((grid, (probs, vars))) = &response {
                let post = park.patrol_posts[0];
                let problem = trace.span("plan.problem", name, || {
                    try_planning_problem_from_response(
                        park, post, grid, probs, vars, patrol_km, n_patrols, beta,
                    )
                });
                if let Some(problem) = tally.ok(problem, "park-wide planning problem") {
                    let plan = trace.span("plan.solve", name, || try_plan(&problem, &planner));
                    if let Some(plan) = check_plan(&plan, &problem, pass, tally, probes) {
                        pass.detections +=
                            trace.span("plan.evaluate", name, || score(&problem, plan));
                    }
                }
            }
        }
    }

    match field_risk {
        Some(risk) => field_trial(&site.scenario, &dataset, &risk, seed, name, trace, tally),
        None => tally.check(false, || {
            format!("{name}: no 1 km risk map to design the field test")
        }),
    }
    Some(Fitted {
        model,
        prepared,
        dataset,
        split,
    })
}

/// Per (stage, park): its total time in each repetition — of a pass, or of
/// the set-up.
#[derive(Default)]
struct StageTimes(Vec<((&'static str, &'static str), Vec<f64>)>);

impl StageTimes {
    /// Add one repetition: the spans `trace` recorded since `mark`.
    fn add(&mut self, trace: &Trace, mark: usize) {
        for (key, total) in trace.totals_since(mark) {
            match self.0.iter_mut().find(|(k, _)| *k == key) {
                Some((_, totals)) => totals.push(total),
                None => self.0.push((key, vec![total])),
            }
        }
    }

    /// The median repetition built stage by stage: every kept (stage,
    /// park)'s median over the repetitions, summed. A slow spell of the
    /// machine that hits one repetition's stage moves nothing.
    fn median_ms(&self, keep: impl Fn(&str) -> bool) -> f64 {
        self.0
            .iter()
            .filter(|((name, _), _)| keep(name))
            .filter_map(|(_, totals)| median(totals))
            .sum()
    }
}

pub fn run(
    spec: &CycleSpec,
    seed: u64,
    seconds: f64,
    trace: &mut Trace,
    tally: &mut Tally,
) -> Outcome {
    crate::calib::set_sensitivity(HOST_SENSITIVITY);
    let mut out = Outcome::default();
    let mut sites = Vec::new();
    let mut probes = Probes::default();
    let mut last: Vec<Option<Fitted>> = Vec::new();
    let mut setups = StageTimes::default();
    let mut stages = StageTimes::default();
    let loop_start = Stamp::now();
    let passes = ((seconds / spec.pass_s).round() as usize).max(1);
    for i in 0..passes {
        if i > 0 && cpu_ms_since(loop_start) > PASS_CAP * seconds * 1e3 {
            break;
        }
        // Set up again before every pass, so that set-up is sampled across
        // the run as the passes are.
        sites.clear();
        let mark = trace.mark();
        sites = setup(spec, trace);
        setups.add(trace, mark);

        let start = Stamp::now();
        let sampling = trace.host_spent_ms();
        let mark = trace.mark();
        let mut pass = Pass::default();
        last = spec
            .parks
            .iter()
            .zip(&sites)
            .map(|(p, site)| {
                let history = &site.histories[i % site.histories.len()];
                park_pass(
                    spec,
                    p,
                    site,
                    history,
                    seed,
                    trace,
                    tally,
                    &mut probes,
                    &mut pass,
                    &mut out.held_out,
                )
            })
            .collect();
        // The pass's CPU time, less the host samples taken between its
        // calls; its duration is its calls' durations on the benchmark's
        // clock, summed.
        let cpu_ms = cpu_ms_since(start) - (trace.host_spent_ms() - sampling);
        let ms = trace.ms_since_mark(mark);
        if trace.on() {
            probes
                .stage_coverage
                .push(trace.cpu_ms_since_mark(mark) / cpu_ms);
        }
        if out.unit_ms.is_empty() {
            probes.lp_solves = pass.lp_solves;
        }
        eprintln!(
            "pass {i}: {ms:.0} ms ({cpu_ms:.0} ms CPU), {:.4} detections",
            pass.detections
        );
        stages.add(trace, mark);
        out.unit_ms.push(ms);
        out.detections.push(pass.detections);
    }
    out.setup_s = vec![setups.median_ms(|_| true) / 1e3];
    out.unit_p50_ms = Some(stages.median_ms(|_| true));
    out.refresh_ms = vec![stages.median_ms(|name| REFRESH_STAGES.contains(&name))];
    eprintln!(
        "{} passes and set-ups in {:.1} s CPU",
        out.unit_ms.len(),
        cpu_ms_since(loop_start) / 1e3
    );

    if trace.on() {
        for fitted in last.iter().flatten() {
            probes.add_prepared(&fitted.model, &fitted.prepared);
        }
        probe_layers(spec, &sites, last, seed, trace, tally, &mut probes);
    }
    out.probes = probes;
    out
}

/// Traced only: the layers a pass does not exercise by itself — pool
/// scaling of a response surface and a fit, one served batch against the
/// pass's model, and an append plus warm refit of the park's last year.
fn probe_layers(
    spec: &CycleSpec,
    sites: &[Site],
    mut last: Vec<Option<Fitted>>,
    seed: u64,
    trace: &mut Trace,
    tally: &mut Tally,
    probes: &mut Probes,
) {
    let grid: &[f64] = match spec.planning {
        Planning::PerPost { grid, .. } => grid,
        Planning::ParkWide { .. } => spec.response_grid.unwrap_or(&PAPER_GRID),
    };
    if let Some(f) = &last[spec.probe_response] {
        let name = spec.parks[spec.probe_response].name;
        probe_response(&f.model, &f.prepared, grid, name, trace, probes);
    }
    if let Some(f) = &last[spec.probe_fit] {
        let p = &spec.parks[spec.probe_fit];
        probe_fit(&f.dataset, &f.split, &p.config, probes);
    }

    // One served batch against the pass's model of the serving-probe park.
    if let Some(f) = last[spec.probe_serve].take() {
        let name = spec.parks[spec.probe_serve].name;
        let site = &sites[spec.probe_serve];
        let server = PawsServer::new();
        let prev = f.dataset.coverage.last().cloned().unwrap_or_default();
        let installed =
            server
                .registry()
                .install(name, f.model, site.scenario.park.clone(), &f.dataset, &prev);
        if tally.ok(installed, "install").is_some() {
            let parks = [BatchPark {
                name,
                posts: &site.scenario.park.patrol_posts,
            }];
            for b in 0..3 {
                let requests = batch(&parks, b);
                let start = Stamp::now();
                let answers = server.submit(&requests);
                let submit_ms = ms_since(start);
                check_batch(&server, &requests, &answers, b, tally, probes);
                time_direct(&server, &requests, submit_ms, PROBE, trace, probes);
            }
        }
    }

    // Append the park's last simulated quarter to a dataset of the months
    // before it, and refit warmly from a cold fit of those months — the
    // quarterly ingest serve_stream makes.
    let p = &spec.parks[spec.probe_ingest];
    let site = &sites[spec.probe_ingest];
    let park = &site.scenario.park;
    let history = &site.histories[0];
    let split_at = history.months.len().saturating_sub(3);
    let part = |months: &[paws_sim::MonthRecord]| History {
        start_year: months.first().map_or(history.start_year, |m| m.year),
        months: months.to_vec(),
        n_cells: history.n_cells,
    };
    let head = part(&history.months[..split_at]);
    let tail = part(&history.months[split_at..]);
    let mut dataset = build_dataset(park, &head, p.disc);
    let mut fit = StreamingFit::new(
        ModelConfig::new(WeakLearnerKind::DecisionTree, true, seed),
        stream_config(),
    );
    let idx: Vec<usize> = (0..dataset.n_points()).collect();
    let cold = fit.ingest(
        dataset.feature_rows(&idx).view(),
        &dataset.labels(&idx),
        &dataset.efforts(&idx),
    );
    if tally.ok(cold, "cold streaming fit").is_none() {
        return;
    }
    let before = dataset.n_points();
    let appended = trace.span("data.append", p.name, || {
        dataset.append_observations(park, &tail)
    });
    if tally.ok(appended, "append_observations").is_none() {
        return;
    }
    let idx: Vec<usize> = (before..dataset.n_points()).collect();
    let rows = dataset.feature_rows(&idx);
    let (labels, efforts) = (dataset.labels(&idx), dataset.efforts(&idx));
    let warm = trace.span("iware.warm_refit", p.name, || {
        fit.ingest(rows.view(), &labels, &efforts)
    });
    if let Some((_, report)) = tally.ok(warm, "warm refit") {
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
}
