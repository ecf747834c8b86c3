//! Criterion micro-benchmarks of the predictive stage (Table II / Fig. 6
//! building blocks): weak-learner training, iWare-E training and park-wide
//! prediction on a prepared park. A park's first query fills its learner
//! tables, so the loops over one prepared park time the warm combine;
//! `bench_serve`'s `prepared_park` group times the fill.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paws_core::{train, ModelConfig, Scenario, WeakLearnerKind};
use paws_data::{
    build_dataset, split_by_test_year, Dataset, Discretization, Matrix, TrainTestSplit,
};
use paws_ml::bagging::{BaggingClassifier, BaggingConfig};
use paws_ml::gp::{GaussianProcess, GpConfig};
use paws_ml::{Classifier, UncertainClassifier};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn setup() -> (Scenario, Dataset, TrainTestSplit) {
    let scenario = Scenario::test_scenario(7);
    let history = scenario.simulate_years(2014, 3);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let split = split_by_test_year(&dataset, 2016, 2).expect("2016 present");
    (scenario, dataset, split)
}

fn quick_config(learner: WeakLearnerKind, use_iware: bool) -> ModelConfig {
    let mut cfg = ModelConfig::new(learner, use_iware, 7);
    cfg.n_learners = 5;
    cfg.n_estimators = 4;
    cfg.gp_max_points = 120;
    cfg.weight_mode = paws_iware::WeightMode::Uniform;
    cfg
}

fn bench_weak_learners(c: &mut Criterion) {
    let (_, dataset, split) = setup();
    let rows = dataset.feature_rows(&split.train);
    let labels = dataset.labels(&split.train);
    let mut c = c.benchmark_group("weak_learners");
    c.sample_size(20);
    c.bench_function("fit_bagged_trees_10", |b| {
        b.iter(|| {
            black_box(BaggingClassifier::fit(
                &BaggingConfig::trees(10, 3),
                rows.view(),
                &labels,
            ))
        })
    });
    c.bench_function("fit_gp_200_points", |b| {
        b.iter(|| {
            black_box(GaussianProcess::fit(
                &GpConfig {
                    max_points: 200,
                    ..GpConfig::default()
                },
                rows.view(),
                &labels,
                3,
            ))
        })
    });
    c.finish();
}

fn bench_gp_predict(c: &mut Criterion) {
    // One GP member at the shape of SWS's balanced GPB-iW members: 30
    // training points (15 per class) of 21 standardised features, scored
    // over 3,750 rows — one learner's share of an SWS response surface.
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let mut standardised = |n_rows: usize| {
        Matrix::from_flat(
            (0..n_rows * 21).map(|_| rng.gen_range(-2.0..2.0)).collect(),
            21,
        )
    };
    let train = standardised(30);
    let queries = standardised(3_750);
    let labels: Vec<f64> = (0..30).map(|i| f64::from(i % 2 == 0)).collect();
    let gp = GaussianProcess::fit(&GpConfig::default(), train.view(), &labels, 3);
    let mut group = c.benchmark_group("gp_predict");
    group.sample_size(20);
    group.bench_function("mean_30_points_3750_rows", |b| {
        b.iter(|| black_box(gp.predict_proba(queries.view())))
    });
    group.bench_function("mean_and_variance_30_points_3750_rows", |b| {
        b.iter(|| black_box(gp.predict_with_variance(queries.view())))
    });
    group.finish();
}

fn bench_iware_training(c: &mut Criterion) {
    let (_, dataset, split) = setup();
    let mut group = c.benchmark_group("iware_training");
    group.sample_size(10);
    group.bench_function("train_dtb_iware", |b| {
        b.iter(|| {
            black_box(train(
                &dataset,
                &split,
                &quick_config(WeakLearnerKind::DecisionTree, true),
            ))
        })
    });
    group.finish();
}

fn bench_park_prediction(c: &mut Criterion) {
    let (scenario, dataset, split) = setup();
    let model = train(
        &dataset,
        &split,
        &quick_config(WeakLearnerKind::DecisionTree, true),
    );
    // The same variant with the f32 prediction plane selected (training is
    // f64 either way; only the serving arena differs).
    let mut cfg32 = quick_config(WeakLearnerKind::DecisionTree, true);
    cfg32.precision = paws_core::Precision::F32;
    let model32 = train(&dataset, &split, &cfg32);
    let prev = dataset.coverage.last().unwrap().clone();
    let prepared = model.prepare_park(&scenario.park, &dataset, &prev).unwrap();
    let prepared32 = model32
        .prepare_park(&scenario.park, &dataset, &prev)
        .unwrap();
    let mut group = c.benchmark_group("park_prediction");
    group.sample_size(20);
    group.bench_function("risk_map_500_cells", |b| {
        b.iter(|| black_box(model.try_risk_map_prepared(&prepared, 1.0).unwrap()))
    });
    group.bench_function("risk_map_500_cells_f32", |b| {
        b.iter(|| black_box(model32.try_risk_map_prepared(&prepared32, 1.0).unwrap()))
    });
    let grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    group.bench_function("park_response_500_cells_6_levels", |b| {
        b.iter(|| black_box(model.try_park_response_prepared(&prepared, &grid).unwrap()))
    });
    group.bench_function("park_response_500_cells_6_levels_f32", |b| {
        b.iter(|| {
            black_box(
                model32
                    .try_park_response_prepared(&prepared32, &grid)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_park_prediction_threads(c: &mut Criterion) {
    // 1-vs-N-thread warm response surfaces on the test park. The combine
    // fans out per 4,096-row strip, and the park's 500 cells are one strip,
    // so every N combines on the calling thread: the group shows that a
    // small park's combine stays off the pool. bench_serve's 50k-cell park
    // covers the fan-out.
    let (scenario, dataset, split) = setup();
    let model = train(
        &dataset,
        &split,
        &quick_config(WeakLearnerKind::DecisionTree, true),
    );
    let prev = dataset.coverage.last().unwrap().clone();
    let prepared = model.prepare_park(&scenario.park, &dataset, &prev).unwrap();
    let grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    let mut group = c.benchmark_group("park_response_threads");
    group.sample_size(20);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                rayon::with_num_threads(threads, || {
                    b.iter(|| {
                        black_box(model.try_park_response_prepared(&prepared, &grid).unwrap())
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_weak_learners,
    bench_gp_predict,
    bench_iware_training,
    bench_park_prediction,
    bench_park_prediction_threads
);
criterion_main!(benches);
