//! Micro-benchmarks of the flat-matrix predictive stack: index gathers,
//! batch vs per-row prediction, arena traversal, the tree, bagging and
//! iWare-E fits, the iWare-E response surface, the SIMD kernels and the
//! response surface's thread scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paws_core::Scenario;
use paws_data::simd;
use paws_data::{build_dataset, split_by_test_year, Discretization, Matrix, StandardScaler};
use paws_ml::bagging::{BaggingClassifier, BaggingConfig};
use paws_ml::traits::Classifier;
use paws_ml::tree::{DecisionTree, TreeConfig};
use std::hint::black_box;

struct Workload {
    flat: Matrix,
    labels: Vec<f64>,
    efforts: Vec<f64>,
    park_flat: Matrix,
}

/// Test-scenario-park training data (standardised) and the park's cells.
fn workload() -> Workload {
    let scenario = Scenario::test_scenario(7);
    let history = scenario.simulate_years(2014, 3);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let split = split_by_test_year(&dataset, 2016, 2).expect("2016 present");
    let rows = dataset.feature_rows(&split.train);
    let labels = dataset.labels(&split.train);
    let efforts = dataset.efforts(&split.train);
    let (scaler, flat) = StandardScaler::fit_transform(rows);
    let prev = dataset.coverage.last().unwrap().clone();
    let mut park_flat = dataset.full_feature_matrix(&scenario.park, &prev);
    scaler.transform_in_place(&mut park_flat);
    Workload {
        flat,
        labels,
        efforts,
        park_flat,
    }
}

fn bench_gather(c: &mut Criterion) {
    let w = workload();
    let idx: Vec<usize> = (0..w.flat.n_rows()).filter(|i| i % 3 != 0).collect();
    let mut group = c.benchmark_group("subset_extraction");
    group.sample_size(30);
    group.bench_function("flat_gather", |b| b.iter(|| black_box(w.flat.gather(&idx))));
    group.finish();
}

fn bench_batch_vs_per_row_predict(c: &mut Criterion) {
    let w = workload();
    let tree = DecisionTree::fit(&TreeConfig::default(), w.flat.view(), &w.labels, 7);
    let mut group = c.benchmark_group("tree_prediction");
    group.sample_size(30);
    group.bench_function("per_row_single_calls", |b| {
        b.iter(|| {
            black_box(
                w.park_flat
                    .rows()
                    .map(|r| tree.predict_proba_one(r))
                    .collect::<Vec<f64>>(),
            )
        })
    });
    group.bench_function("batch_matrix", |b| {
        b.iter(|| black_box(tree.predict_proba(w.park_flat.view())))
    });
    group.finish();
}

fn bench_forest_traversal(c: &mut Criterion) {
    // The tentpole of the arena migration: a 10-tree DTB ensemble predicts
    // the whole park, walked row-at-a-time per tree (the pre-arena access
    // pattern, on the same slab) versus the level-synchronous batch kernel.
    let w = workload();
    let bag = BaggingClassifier::fit(&BaggingConfig::trees(10, 3), w.flat.view(), &w.labels);
    let forest = bag.forest().expect("tree ensembles are arena-backed");
    let mut group = c.benchmark_group("forest_traversal");
    group.sample_size(30);
    group.bench_function("per_row_tree_walks", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(forest.n_trees() * w.park_flat.n_rows());
            for t in 0..forest.n_trees() {
                for row in w.park_flat.rows() {
                    out.push(forest.predict_row(t, row));
                }
            }
            black_box(out)
        })
    });
    group.bench_function("level_sync_batch", |b| {
        b.iter(|| black_box(forest.predict_proba_batch(w.park_flat.view())))
    });
    // The f32 plane's 8-byte-node arena over a pre-narrowed park batch:
    // isolates the traversal bandwidth win from the per-call narrowing
    // cost (which the end-to-end park_prediction benches include).
    let forest32 = paws_ml::Forest32::try_from_forest(forest).expect("arena fits the f32 caps");
    let park32 = paws_data::Matrix32::from_f64(w.park_flat.view());
    group.bench_function("level_sync_batch_f32", |b| {
        b.iter(|| black_box(forest32.predict_proba_batch(park32.view())))
    });
    group.finish();
}

fn bench_tree_fit(c: &mut Criterion) {
    let w = workload();
    let cfg = TreeConfig::default();
    let mut group = c.benchmark_group("tree_fit");
    group.sample_size(15);
    group.bench_function("rank_histogram", |b| {
        b.iter(|| black_box(DecisionTree::fit(&cfg, w.flat.view(), &w.labels, 7)))
    });
    group.finish();
}

fn bench_bagging_fit(c: &mut Criterion) {
    // One ranking per ensemble; each member fits from its in-bag counts.
    let w = workload();
    let mut group = c.benchmark_group("bagging_fit_10_trees");
    group.sample_size(10);
    group.bench_function("shared_ranking", |b| {
        b.iter(|| {
            black_box(BaggingClassifier::fit(
                &BaggingConfig::trees(10, 3),
                w.flat.view(),
                &w.labels,
            ))
        })
    });
    group.finish();
}

fn bench_iware(c: &mut Criterion) {
    use paws_iware::{IWareConfig, IWareModel, WeightMode};
    let w = workload();
    let grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    let config = IWareConfig {
        n_learners: 5,
        base: BaggingConfig::trees(4, 3),
        weight_mode: WeightMode::Uniform,
        min_subset_size: 20,
        seed: 3,
    };

    let mut group = c.benchmark_group("iware_fit");
    group.sample_size(10);
    group.bench_function("flat_gather", |b| {
        b.iter(|| {
            black_box(IWareModel::fit(
                &config,
                w.flat.view(),
                &w.labels,
                &w.efforts,
            ))
        })
    });
    group.finish();

    let flat_model = IWareModel::fit(&config, w.flat.view(), &w.labels, &w.efforts);
    let mut group = c.benchmark_group("iware_effort_response");
    group.sample_size(20);
    group.bench_function("flat_cell_parallel", |b| {
        b.iter(|| black_box(flat_model.effort_response(w.park_flat.view(), &grid)))
    });
    let mut f32_model = IWareModel::fit(&config, w.flat.view(), &w.labels, &w.efforts);
    f32_model.set_precision(paws_iware::Precision::F32).unwrap();
    group.bench_function("flat_cell_parallel_f32", |b| {
        b.iter(|| black_box(f32_model.effort_response(w.park_flat.view(), &grid)))
    });
    group.finish();
}

fn bench_simd_kernels(c: &mut Criterion) {
    // The `f64x4` micro-kernels against their sequential scalar
    // references, at the GP-solve scale (n ≈ 400, the `L⁻¹k*` prefix dots)
    // and a longer streaming length.
    for n in [400usize, 4096] {
        let a: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.91).cos()).collect();
        let mut group = c.benchmark_group(format!("simd_kernels_{n}"));
        group.sample_size(30);
        group.bench_function("dot_scalar", |bch| {
            bch.iter(|| black_box(simd::dot_scalar(&a, &b)))
        });
        group.bench_function("dot_f64x4", |bch| bch.iter(|| black_box(simd::dot(&a, &b))));
        group.bench_function("sum_scalar", |bch| {
            bch.iter(|| black_box(simd::sum_scalar(&a)))
        });
        group.bench_function("sum_f64x4", |bch| bch.iter(|| black_box(simd::sum(&a))));
        group.bench_function("sqdist_scalar", |bch| {
            bch.iter(|| {
                black_box(
                    a.iter()
                        .zip(&b)
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum::<f64>(),
                )
            })
        });
        group.bench_function("sqdist_f64x4", |bch| {
            bch.iter(|| black_box(simd::squared_distance(&a, &b)))
        });
        group.bench_function("axpy_autovec", |bch| {
            let mut y = b.clone();
            bch.iter(|| {
                simd::axpy(1.0000001, &a, &mut y);
                black_box(y[0])
            })
        });
        // f32x8 counterparts on the same (narrowed) contents: the
        // per-kernel half of the f32 plane's bandwidth story.
        let a32: Vec<f32> = a.iter().map(|&v| v as f32).collect();
        let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
        group.bench_function("dot_f32x8", |bch| {
            bch.iter(|| black_box(simd::dot(&a32, &b32)))
        });
        group.bench_function("sum_f32x8", |bch| bch.iter(|| black_box(simd::sum(&a32))));
        group.bench_function("sqdist_f32x8", |bch| {
            bch.iter(|| black_box(simd::squared_distance(&a32, &b32)))
        });
        group.bench_function("axpy_f32_autovec", |bch| {
            let mut y = b32.clone();
            bch.iter(|| {
                simd::axpy(1.0000001, &a32, &mut y);
                black_box(y[0])
            })
        });
        group.finish();
    }
}

fn bench_effort_response_threads(c: &mut Criterion) {
    // 1-vs-N-thread scaling of the park-wide response surface over the
    // work-stealing pool. On a single-core runner N > 1 only measures the
    // pool's oversubscription overhead; run on a multi-core host to see
    // real scaling.
    use paws_iware::{IWareConfig, IWareModel, WeightMode};
    let w = workload();
    let grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    let config = IWareConfig {
        n_learners: 5,
        base: BaggingConfig::trees(4, 3),
        weight_mode: WeightMode::Uniform,
        min_subset_size: 20,
        seed: 3,
    };
    let model = IWareModel::fit(&config, w.flat.view(), &w.labels, &w.efforts);
    let mut group = c.benchmark_group("effort_response_threads");
    group.sample_size(20);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                rayon::with_num_threads(threads, || {
                    b.iter(|| black_box(model.effort_response(w.park_flat.view(), &grid)))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gather,
    bench_batch_vs_per_row_predict,
    bench_forest_traversal,
    bench_tree_fit,
    bench_bagging_fit,
    bench_iware,
    bench_simd_kernels,
    bench_effort_response_threads
);
criterion_main!(benches);
