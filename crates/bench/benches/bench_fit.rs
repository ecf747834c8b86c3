//! Criterion micro-benchmarks of the staged fit pipeline: a full cold
//! `fit_cached`, a warm refit after a small patrol-log append (unchanged
//! learners kept from the cache), and the degenerate warm refit with no
//! appended rows (every learner kept bit-identically — only the CV-weight
//! solve reruns). The warm/resolve timings include the `FitCache` clone a
//! live registry would never pay (it mutates its resident cache in
//! place), so the measured speedups are conservative. All three fit
//! DTB-iW on the test park; a fourth case is SWS's GPB-iW cold fit, most
//! of whose time is the CV folds' out-of-fold GP means.

use criterion::{criterion_group, criterion_main, Criterion};
use paws_bench::{dry_season_dataset, park_model_config, scenario, Scale};
use paws_core::{ModelConfig, Scenario, WeakLearnerKind};
use paws_data::{build_dataset, split_by_test_year, Discretization, Matrix, StandardScaler};
use paws_iware::{IWareConfig, IWareModel};
use std::hint::black_box;

struct FitWorkload {
    config: IWareConfig,
    /// All standardised rows (base + the 2% append).
    rows: Matrix,
    labels: Vec<f64>,
    efforts: Vec<f64>,
    /// Rows resident before the append.
    n_base: usize,
}

fn setup() -> FitWorkload {
    let scenario = Scenario::test_scenario(7);
    let history = scenario.simulate_years(2014, 3);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let idx: Vec<usize> = (0..dataset.n_points()).collect();
    let raw = dataset.feature_rows(&idx);
    let labels = dataset.labels(&idx);
    let efforts = dataset.efforts(&idx);
    let (_, rows) = StandardScaler::fit_transform(raw);

    // Paper-scale ensemble shape: 10 learners × 8 bagged trees, CV-solved
    // weights (the ModelConfig defaults).
    let config = ModelConfig::new(WeakLearnerKind::DecisionTree, true, 7);
    let n_base = rows.n_rows() - rows.n_rows() / 50; // ~2% append
    FitWorkload {
        config: config.iware_config(),
        rows,
        labels,
        efforts,
        n_base,
    }
}

/// SWS's quick-scale balanced GPB-iW model (10 learners × 5 GPs, 3-fold
/// CV weights) and its standardised dry-season training rows up to 2017.
fn sws_gp_setup() -> FitWorkload {
    let sws = scenario("SWS");
    let dataset = dry_season_dataset(&sws);
    let split = split_by_test_year(&dataset, 2017, 3).expect("2017 present");
    let (_, rows) = StandardScaler::fit_transform(dataset.feature_rows(&split.train));
    let config = park_model_config("SWS", WeakLearnerKind::GaussianProcess, true, Scale::Quick);
    FitWorkload {
        config: config.iware_config(),
        // No append: the SWS case fits every row once.
        n_base: rows.n_rows(),
        rows,
        labels: dataset.labels(&split.train),
        efforts: dataset.efforts(&split.train),
    }
}

fn bench_fit_paths(c: &mut Criterion) {
    let w = setup();
    let base_rows = w.rows.view().head(w.n_base).to_matrix();
    let base_labels = &w.labels[..w.n_base];
    let base_efforts = &w.efforts[..w.n_base];

    let mut group = c.benchmark_group("staged_fit");
    group.sample_size(10);

    // Cold: the full staged pipeline (thresholds, member fits, arena
    // build, CV-weight solve) on every row.
    group.bench_function("cold_fit", |b| {
        b.iter(|| {
            black_box(IWareModel::fit_cached(
                &w.config,
                w.rows.view(),
                &w.labels,
                &w.efforts,
            ))
        })
    });

    // Warm: ~2% of the rows are new; the drift budget keeps every
    // unchanged learner, so only moved subsets refit and the CV weights
    // resolve from cached fold predictions.
    let (_, warm_cache) =
        IWareModel::fit_cached(&w.config, base_rows.view(), base_labels, base_efforts);
    group.bench_function("warm_refit_2pct_append", |b| {
        b.iter(|| {
            let mut cache = warm_cache.clone();
            black_box(IWareModel::warm_refit(
                &w.config,
                &mut cache,
                w.rows.view(),
                &w.labels,
                &w.efforts,
                1.0,
            ))
        })
    });

    // Resolve-only: no appended rows at all — every learner is kept
    // bit-identically and only the CV simplex solve reruns.
    let (_, full_cache) = IWareModel::fit_cached(&w.config, w.rows.view(), &w.labels, &w.efforts);
    group.bench_function("cv_weight_resolve_only", |b| {
        b.iter(|| {
            let mut cache = full_cache.clone();
            black_box(IWareModel::warm_refit(
                &w.config,
                &mut cache,
                w.rows.view(),
                &w.labels,
                &w.efforts,
                1.0,
            ))
        })
    });

    // SWS's GPB-iW cold fit: member fits, then per CV fold the fold
    // learners' fits and their out-of-fold GP means.
    let sws = sws_gp_setup();
    group.bench_function("sws_gp_cold_fit", |b| {
        b.iter(|| {
            black_box(IWareModel::fit_cached(
                &sws.config,
                sws.rows.view(),
                &sws.labels,
                &sws.efforts,
            ))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_fit_paths);
criterion_main!(benches);
