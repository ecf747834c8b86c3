//! Criterion benchmarks for the planning stack: dense-tableau vs sparse
//! revised-simplex LP engines on allocation-shaped LPs across cell counts,
//! the allocation plan across PWL segment counts and the flow formulation
//! on the test park (the Fig. 9a runtime measurement at component scale),
//! and the greedy allocation plan on an LLC-scale park. The 10k–100k-cell
//! planner curve is recorded by `fig9 --llc` into `results/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paws_bench::full_reach_problem;
use paws_data::Matrix;
use paws_geo::parks::{llc_park_spec, test_park_spec};
use paws_geo::Park;
use paws_plan::{try_plan, PlannerConfig, PlannerMethod, PlanningProblem};
use paws_solver::{solve_lp, solve_lp_dense, ConstraintOp, Model, Sense};
use std::hint::black_box;

/// A park-wide allocation LP at `n_cells` candidate cells: a per-cell λ
/// block over a 6-breakpoint concave utility, one convexity row per cell,
/// one budget row — an LP-sized workload for the two simplex engines.
fn allocation_lp(n_cells: usize) -> Model {
    let xs = [0.0f64, 0.5, 1.0, 2.0, 4.0, 8.0];
    let mut m = Model::new(Sense::Maximize);
    let mut budget_terms = Vec::new();
    for i in 0..n_cells {
        let s = 0.1 + 0.8 * ((i * 37) % 100) as f64 / 100.0;
        let rate = 0.3 + 0.5 * ((i * 53) % 97) as f64 / 97.0;
        let lambdas: Vec<_> = xs
            .iter()
            .map(|&x| {
                let y = s * (1.0 - (-rate * x).exp());
                m.try_add_continuous(0.0, f64::INFINITY, y).unwrap()
            })
            .collect();
        let conv: Vec<_> = lambdas.iter().map(|&v| (v, 1.0)).collect();
        m.try_add_constraint(&conv, ConstraintOp::Eq, 1.0).unwrap();
        budget_terms.extend(
            lambdas
                .iter()
                .zip(&xs)
                .filter(|&(_, &x)| x != 0.0)
                .map(|(&v, &x)| (v, x)),
        );
    }
    m.try_add_constraint(&budget_terms, ConstraintOp::Le, 0.05 * n_cells as f64)
        .unwrap();
    m
}

fn bench_lp_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_engine_scaling");
    group.sample_size(10);
    for n_cells in [64usize, 256, 1024, 4096] {
        let model = allocation_lp(n_cells);
        group.bench_with_input(BenchmarkId::new("sparse", n_cells), &model, |b, model| {
            b.iter(|| black_box(solve_lp(model)))
        });
        // The dense tableau is O(rows × columns) per pivot; past ~256
        // cells a single solve takes seconds, so the dense curve stops
        // there.
        if n_cells <= 256 {
            group.bench_with_input(BenchmarkId::new("dense", n_cells), &model, |b, model| {
                b.iter(|| black_box(solve_lp_dense(model)))
            });
        }
    }
    group.finish();
}

/// A post's planning problem on the test park, over synthetic response
/// curves.
fn test_park_problem(patrol_length_km: f64) -> PlanningProblem {
    let park = Park::generate(&test_park_spec(), 7);
    let post = park.patrol_posts[0];
    let grid: Vec<f64> = vec![0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    let probs: Vec<Vec<f64>> = (0..park.n_cells())
        .map(|i| {
            let s = 0.1 + 0.8 * ((i * 37) % 100) as f64 / 100.0;
            grid.iter().map(|&e| s * (1.0 - (-0.7 * e).exp())).collect()
        })
        .collect();
    let vars: Vec<Vec<f64>> = (0..park.n_cells())
        .map(|i| {
            let b = 0.05 + 0.4 * ((i * 61) % 100) as f64 / 100.0;
            grid.iter().map(|&e| (b + 0.03 * e).min(0.95)).collect()
        })
        .collect();
    PlanningProblem::from_response(
        &park,
        post,
        &grid,
        &Matrix::from_rows(&probs),
        &Matrix::from_rows(&vars),
        patrol_length_km,
        3,
        1.0,
    )
}

fn bench_allocation_segments(c: &mut Criterion) {
    let problem = test_park_problem(10.0);
    let mut group = c.benchmark_group("allocation_by_segments");
    group.sample_size(10);
    for segments in [5usize, 10, 20] {
        group.bench_with_input(
            BenchmarkId::from_parameter(segments),
            &segments,
            |b, &segments| {
                let config = PlannerConfig {
                    segments,
                    ..PlannerConfig::default()
                };
                b.iter(|| black_box(try_plan(&problem, &config).unwrap()));
            },
        );
    }
    group.finish();
}

fn bench_flow_formulation(c: &mut Criterion) {
    let problem = test_park_problem(4.0);
    let config = PlannerConfig {
        method: PlannerMethod::Flow,
        segments: 6,
        ..PlannerConfig::default()
    };
    let mut group = c.benchmark_group("flow_formulation");
    group.sample_size(10);
    group.bench_function("flow_tiny", |b| {
        b.iter(|| black_box(try_plan(&problem, &config).unwrap()))
    });
    group.finish();
}

fn bench_greedy_llc(c: &mut Criterion) {
    let park = Park::generate(&llc_park_spec(10_000), 11);
    let problem = full_reach_problem(&park, 500.0, 1.0);
    let config = PlannerConfig::default();
    let mut group = c.benchmark_group("greedy_planner");
    group.sample_size(10);
    group.bench_function("llc_10k_cells", |b| {
        b.iter(|| black_box(try_plan(&problem, &config).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lp_engines,
    bench_allocation_segments,
    bench_flow_formulation,
    bench_greedy_llc
);
criterion_main!(benches);
