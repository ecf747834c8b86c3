//! Cross-crate integration test: the complete data-to-deployment pipeline on
//! the small test park, from simulated history through prediction, planning
//! and a simulated field test.

use paws_core::{train, ModelConfig, Scenario, WeakLearnerKind};
use paws_data::{build_dataset, split_by_test_year, DatasetStats, Discretization};
use paws_field::{design_field_test, run_trial, ProtocolConfig, RiskGroup, TrialConfig};
use paws_plan::{extract_routes, try_plan, PlannerConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn quick_model(learner: WeakLearnerKind, use_iware: bool, seed: u64) -> ModelConfig {
    let mut cfg = ModelConfig::new(learner, use_iware, seed);
    cfg.n_learners = 5;
    cfg.n_estimators = 4;
    cfg.gp_max_points = 120;
    cfg.weight_mode = paws_iware::WeightMode::Uniform;
    cfg
}

#[test]
fn full_pipeline_runs_and_beats_chance() {
    let scenario = Scenario::test_scenario(29);
    let history = scenario.simulate_years(2014, 3);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());

    // Dataset sanity: imbalanced, effort-bearing points only.
    let stats = DatasetStats::compute("TestPark", &dataset);
    assert!(stats.n_points > 500, "expected a reasonably sized dataset");
    assert!(stats.pct_positive > 0.5 && stats.pct_positive < 60.0);
    assert!(stats.avg_effort_km > 0.0);

    let split = split_by_test_year(&dataset, 2016, 2).expect("2016 present");
    let model = train(
        &dataset,
        &split,
        &quick_model(WeakLearnerKind::DecisionTree, true, 29),
    );
    let auc = model.auc_on(&dataset, &split.test);
    assert!(
        auc > 0.55,
        "pipeline model should beat chance, got AUC {auc}"
    );

    // Risk maps over the park.
    let prev = dataset.coverage.last().unwrap().clone();
    let prepared = model.prepare_park(&scenario.park, &dataset, &prev).unwrap();
    let (risk, var) = model.try_risk_map_prepared(&prepared, 1.0).unwrap();
    assert_eq!(risk.len(), scenario.park.n_cells());
    assert!(risk.iter().all(|&p| (0.0..=1.0).contains(&p)));
    assert!(var.iter().all(|&v| v >= 0.0));

    // The predicted risk should carry real signal about the ground truth:
    // the mean true attack probability of the top-risk decile must exceed
    // the bottom decile's.
    let truth: Vec<f64> = (0..scenario.park.n_cells())
        .map(|i| scenario.poacher.static_risk(i))
        .collect();
    let mut order: Vec<usize> = (0..risk.len()).collect();
    order.sort_by(|&a, &b| risk[a].partial_cmp(&risk[b]).unwrap());
    let decile = risk.len() / 10;
    let mean_truth = |idx: &[usize]| idx.iter().map(|&i| truth[i]).sum::<f64>() / idx.len() as f64;
    let bottom = mean_truth(&order[..decile]);
    let top = mean_truth(&order[risk.len() - decile..]);
    assert!(
        top > bottom,
        "top predicted-risk cells should be truly riskier ({top:.4} vs {bottom:.4})"
    );

    // Patrol planning from every post stays within budget and produces routes.
    let effort_grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    for &post in &scenario.park.patrol_posts {
        let problem = model
            .try_planning_problem_prepared(
                &scenario.park,
                &prepared,
                post,
                &effort_grid,
                8.0,
                2,
                1.0,
            )
            .unwrap();
        let patrol = try_plan(&problem, &PlannerConfig::default()).unwrap();
        assert!(patrol.coverage.iter().sum::<f64>() <= problem.budget_km() + 1e-6);
        let routes = extract_routes(&problem, &patrol.coverage);
        assert_eq!(routes.len(), 2);
        for r in &routes {
            assert_eq!(r.cells.first(), Some(&post));
            assert_eq!(r.cells.last(), Some(&post));
        }
    }
}

#[test]
#[cfg(not(debug_assertions))]
fn large_park_pipeline_runs_end_to_end() {
    // The small test park above leaves the whole stack cache-resident; this
    // release-profile smoke drives the same fit → risk map → patrol-plan
    // pipeline on a seeded LLC-scale park (50k cells).
    let scenario = Scenario::llc_scenario(50_000, 43);
    assert_eq!(scenario.park.n_cells(), 50_000);
    let history = scenario.simulate_years(2014, 2);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let split = split_by_test_year(&dataset, 2015, 1).expect("2015 present");
    let model = train(
        &dataset,
        &split,
        &quick_model(WeakLearnerKind::DecisionTree, true, 43),
    );
    let auc = model.auc_on(&dataset, &split.test);
    assert!(auc > 0.55, "LLC-park model should beat chance, got {auc}");

    let prev = dataset.coverage.last().unwrap().clone();
    let effort_grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    let post = scenario.park.patrol_posts[0];

    let prepared = model.prepare_park(&scenario.park, &dataset, &prev).unwrap();
    let (risk, var) = model.try_risk_map_prepared(&prepared, 1.0).unwrap();
    assert_eq!(risk.len(), 50_000);
    assert!(risk.iter().all(|&p| (0.0..=1.0).contains(&p)));
    assert!(var.iter().all(|&v| v >= 0.0));

    let problem = model
        .try_planning_problem_prepared(&scenario.park, &prepared, post, &effort_grid, 8.0, 2, 1.0)
        .unwrap();
    let patrol = try_plan(&problem, &PlannerConfig::default()).unwrap();
    assert!(patrol.coverage.iter().sum::<f64>() <= problem.budget_km() + 1e-6);
    let routes = extract_routes(&problem, &patrol.coverage);
    assert_eq!(routes.len(), 2);
    for r in &routes {
        assert_eq!(r.cells.first(), Some(&post));
        assert_eq!(r.cells.last(), Some(&post));
    }
}

#[test]
#[cfg(not(debug_assertions))]
fn large_park_planner_plans_a_park_wide_allocation() {
    // The LLC-scale planning claim end to end: fit a model on a 50k-cell
    // park, sample its response curves, and plan a *park-wide* allocation
    // (a patrol length long enough that every cell is a candidate — an
    // allocation of ~550k breakpoints, which the greedy envelope fill
    // plans without an LP; the dense tableau would need tens of
    // gigabytes). The plan must come back Optimal and feasible.
    use paws_solver::SolveStatus;

    let scenario = Scenario::llc_scenario(50_000, 43);
    let history = scenario.simulate_years(2014, 2);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let split = split_by_test_year(&dataset, 2015, 1).expect("2015 present");
    let model = train(
        &dataset,
        &split,
        &quick_model(WeakLearnerKind::DecisionTree, true, 43),
    );
    let prev = dataset.coverage.last().unwrap().clone();
    let effort_grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    let post = scenario.park.patrol_posts[0];
    let prepared = model.prepare_park(&scenario.park, &dataset, &prev).unwrap();
    // 900 km patrols reach every cell of the ~270-cell-wide park.
    let problem = model
        .try_planning_problem_prepared(&scenario.park, &prepared, post, &effort_grid, 900.0, 4, 1.0)
        .unwrap();
    assert_eq!(
        problem.n_cells(),
        50_000,
        "park-wide reach should make every cell a candidate"
    );

    let plan = try_plan(&problem, &PlannerConfig::default()).unwrap();
    assert_eq!(plan.status, SolveStatus::Optimal);
    assert!(plan.coverage.iter().sum::<f64>() <= problem.budget_km() + 1e-6);
    assert!(plan.coverage.iter().all(|&c| c >= 0.0));
}

#[test]
fn iware_improves_over_plain_bagging_on_average() {
    // The paper's central Table II claim, checked directionally on the
    // synthetic park: averaged over learners and seeds, iWare-E should not
    // lose AUC relative to plain bagging.
    let scenario = Scenario::test_scenario(17);
    let history = scenario.simulate_years(2014, 4);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let split = split_by_test_year(&dataset, 2017, 3).expect("2017 present");

    let mut plain_total = 0.0;
    let mut iware_total = 0.0;
    let mut n = 0.0;
    for seed in [1u64, 2] {
        let plain = train(
            &dataset,
            &split,
            &quick_model(WeakLearnerKind::DecisionTree, false, seed),
        );
        let iware = train(
            &dataset,
            &split,
            &quick_model(WeakLearnerKind::DecisionTree, true, seed),
        );
        plain_total += plain.auc_on(&dataset, &split.test);
        iware_total += iware.auc_on(&dataset, &split.test);
        n += 1.0;
    }
    let plain_avg = plain_total / n;
    let iware_avg = iware_total / n;
    assert!(
        iware_avg > plain_avg - 0.05,
        "iWare-E should be competitive with plain bagging (plain {plain_avg:.3}, iware {iware_avg:.3})"
    );
}

#[test]
fn field_test_protocol_discriminates_risk_groups_with_oracle_predictions() {
    // End-to-end check of the Sec. VII protocol across crates: when the risk
    // map used for block selection carries real signal (here: the ground
    // truth itself, i.e. a well-calibrated predictor), the simulated blind
    // trials detect more poaching per patrolled cell in high-risk blocks
    // than in low-risk blocks, as in Table III.
    let scenario = Scenario::test_scenario(53);
    let history = scenario.simulate_years(2014, 2);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let risk: Vec<f64> = (0..scenario.park.n_cells())
        .map(|i| scenario.poacher.static_risk(i))
        .collect();
    let historical: Vec<f64> = (0..scenario.park.n_cells())
        .map(|i| dataset.coverage.iter().map(|step| step[i]).sum())
        .collect();

    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let design = design_field_test(
        &scenario.park,
        &risk,
        &historical,
        &ProtocolConfig {
            block_size: 2,
            blocks_per_group: 4,
            ..ProtocolConfig::default()
        },
        &mut rng,
    );

    let mut high = 0.0;
    let mut low = 0.0;
    for seed in 0..4 {
        let outcome = run_trial(
            &scenario.park,
            &scenario.poacher,
            &design,
            &TrialConfig::default(),
            seed,
        );
        assert_eq!(outcome.groups.len(), 3);
        for g in &outcome.groups {
            assert!(g.observed_cells <= g.patrolled_cells);
            assert!(g.effort_km >= 0.0);
        }
        assert!(outcome.chi_squared.p_value > 0.0 && outcome.chi_squared.p_value <= 1.0);
        high += outcome.group(RiskGroup::High).obs_per_cell;
        low += outcome.group(RiskGroup::Low).obs_per_cell;
    }
    assert!(
        high > low,
        "high-risk blocks should out-detect low-risk blocks ({high:.3} vs {low:.3})"
    );
}

#[test]
fn field_test_protocol_runs_with_model_predictions() {
    // With quick-scale model predictions the discrimination is not
    // guaranteed, but the full pipeline — train, predict, design, deploy,
    // analyse — must run and produce an internally consistent report.
    let scenario = Scenario::test_scenario(53);
    let history = scenario.simulate_years(2014, 3);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let split = split_by_test_year(&dataset, 2016, 2).expect("2016 present");
    let model = train(
        &dataset,
        &split,
        &quick_model(WeakLearnerKind::DecisionTree, true, 53),
    );

    let prev = dataset.coverage.last().unwrap().clone();
    let prepared = model.prepare_park(&scenario.park, &dataset, &prev).unwrap();
    let (risk, _) = model.try_risk_map_prepared(&prepared, 1.0).unwrap();
    let historical: Vec<f64> = (0..scenario.park.n_cells())
        .map(|i| dataset.coverage.iter().map(|step| step[i]).sum())
        .collect();

    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let design = design_field_test(
        &scenario.park,
        &risk,
        &historical,
        &ProtocolConfig {
            block_size: 2,
            blocks_per_group: 4,
            ..ProtocolConfig::default()
        },
        &mut rng,
    );
    // Blocks must be ordered by the *predicted* risk the protocol was given.
    let mean_pred = |group: RiskGroup| {
        let blocks = design.blocks_in(group);
        blocks.iter().map(|b| b.mean_risk).sum::<f64>() / blocks.len() as f64
    };
    assert!(mean_pred(RiskGroup::High) > mean_pred(RiskGroup::Medium));
    assert!(mean_pred(RiskGroup::Medium) > mean_pred(RiskGroup::Low));

    let outcome = run_trial(
        &scenario.park,
        &scenario.poacher,
        &design,
        &TrialConfig::default(),
        1,
    );
    assert_eq!(outcome.groups.len(), 3);
    for g in &outcome.groups {
        assert!(
            g.patrolled_cells > 0,
            "targeted patrols must reach every group's blocks"
        );
        assert!(g.observed_cells <= g.patrolled_cells);
    }
    assert!(outcome.chi_squared.p_value > 0.0 && outcome.chi_squared.p_value <= 1.0);
}
