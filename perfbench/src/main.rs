//! Benchmark of the PAWS data-to-deployment cycle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_cycle|llc_cycle|serve_stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The workload's inputs are generated from `--seed`; the run measures for
//! about `--seconds` seconds, checks every output, and prints as its last
//! stdout line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics untraced, the per-layer metrics with
//! `--trace 1`). The line before it is the full record: the environment
//! fingerprint, both metric sets and the per-stage table. NOTES.md explains
//! the workloads and metrics.

mod calib;
mod check;
mod cycle;
mod heap;
mod record;
mod serve;
mod stats;

use paws_core::{train, ModelConfig, PreparedPark, Scenario, ServingModel};
use paws_data::{Dataset, TrainTestSplit};
use paws_field::{design_field_test, run_trial, ProtocolConfig, TrialConfig};
use paws_sim::Season;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use record::{wall_timed, Metrics, Tally, Trace};
use serde::Serialize;
use stats::{mean, median, tail_or_max, Ratio};
use std::process::ExitCode;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 2013;
/// Repetitions of each side of the traced pool-scaling response probe.
const RESPONSE_REPS: usize = 3;
/// Pool width of every measured call. One worker: on a 2-vCPU machine
/// shared with other tenants, the same pass at two workers varied by ±15%
/// within and between runs, at one worker by ±3%. The traced probes report
/// the scaling to every CPU (`pool.*_speedup`).
const WORKERS: usize = 1;

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seed of every park's geography, poacher ground truth and patrol-log
/// histories. Like the paper's real sites and their recorded logs these stay
/// fixed; the workload seed draws the pipeline's own randomness — every
/// fit's bagging and the field trials — so a new seed is a new fit of the
/// same logs.
pub const SITE_SEED: u64 = 2013;

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Seconds of each set-up (serve_stream); for the cycles one figure,
    /// their set-ups' stage-by-stage median (see `unit_p50_ms`).
    pub setup_s: Vec<f64>,
    /// Milliseconds of each unit of work: a cycle pass, or one submit.
    pub unit_ms: Vec<f64>,
    /// Cycles: the median pass built stage by stage — every (stage, park)'s
    /// median over the passes, summed — so a slow spell of the machine in
    /// one pass's stage moves nothing. Otherwise the median of `unit_ms`.
    pub unit_p50_ms: Option<f64>,
    /// Milliseconds from new patrol logs to models serving them: per
    /// ingest, `ingest_batch`; for the cycles one figure, every park's
    /// dataset build, split, fit and preparation, summed stage by stage as
    /// in `unit_p50_ms`.
    pub refresh_ms: Vec<f64>,
    /// Expected ground-truth detections of the robust plans, per unit
    /// (every pass, every evaluated batch). They depend on the unit's log
    /// draw, posts and fit, not on the host; their mean weighs every unit,
    /// where a median would jump between the units' values.
    pub detections: Vec<f64>,
    /// Every held-out observation the run's models scored: labels and
    /// predicted probabilities, pooled for one test AUC.
    pub held_out: HeldOut,
    pub probes: Probes,
}

/// Labels and scores of held-out observations, one group per model (and
/// per held-out batch).
#[derive(Default)]
pub struct HeldOut {
    groups: Vec<(Vec<f64>, Vec<f64>)>,
}

impl HeldOut {
    /// Score the points `idx` of `dataset` with `model`, as one group.
    pub fn score(&mut self, model: &ServingModel, dataset: &Dataset, idx: &[usize]) {
        let rows = dataset.feature_rows(idx);
        let scores = model.predict(rows.view(), &dataset.efforts(idx));
        self.groups.push((dataset.labels(idx), scores));
    }

    /// The share of (positive, negative) pairs within a group that the
    /// group's model ranks correctly, over all groups: each group's ROC AUC
    /// weighted by its pair count. Scores of different models are never
    /// compared with each other. `None` when no group has both classes.
    pub fn auc(&self) -> Option<f64> {
        let mut weighted = Ratio::default();
        for (labels, scores) in &self.groups {
            let positives = labels.iter().filter(|&&l| l > 0.5).count() as f64;
            let pairs = positives * (labels.len() as f64 - positives);
            if pairs > 0.0 {
                weighted.add(paws_ml::metrics::roc_auc(labels, scores) * pairs, pairs);
            }
        }
        weighted.value()
    }
}

/// Per-layer figures that are not a span median.
#[derive(Default)]
pub struct Probes {
    /// Warm refits: learners kept / learners in the ensemble.
    pub kept: Ratio,
    /// Warm refits whose CV weights came from the cache / warm refits.
    pub cv_cache: Ratio,
    /// Response surface at [`WORKERS`] / at every CPU (ms / ms).
    pub response_speedup: Ratio,
    /// Cells × effort levels of that response surface / its seconds at
    /// [`WORKERS`].
    pub response_cells_per_s: Ratio,
    /// Fit at [`WORKERS`] / at every CPU (ms / ms).
    pub fit_speedup: Ratio,
    /// Bytes of the prepared planes the models read (computed).
    pub plane_bytes: f64,
    /// Most spatial shards of any prepared park.
    pub shards: usize,
    /// LP solves of the first unit's plans.
    pub lp_solves: f64,
    /// `Optimal` plans / plans attempted.
    pub optimal: Ratio,
    /// Direct-call milliseconds per batch, by kind (risk map, response,
    /// plan).
    pub kind_ms: [Vec<f64>; 3],
    /// Σ direct-call time / `submit` time, per timed batch.
    pub coalesce: Vec<Ratio>,
    /// Σ span time / wall time of each traced unit.
    pub stage_coverage: Vec<f64>,
}

impl Probes {
    /// Account one prepared park's plane size and shard count.
    pub fn add_prepared(&mut self, model: &ServingModel, prepared: &PreparedPark) {
        let width = match model.precision() {
            paws_core::Precision::F32 => 4.0,
            paws_core::Precision::F64 => 8.0,
        };
        self.plane_bytes += (prepared.n_cells() * prepared.n_features()) as f64 * width;
        self.shards = self.shards.max(prepared.shards().len());
    }
}

/// Traced probe: one response surface at [`WORKERS`] and at every CPU,
/// [`RESPONSE_REPS`] times each, by wall time.
pub fn probe_response(
    model: &ServingModel,
    prepared: &PreparedPark,
    grid: &[f64],
    subject: &'static str,
    trace: &mut Trace,
    probes: &mut Probes,
) {
    let mut narrow = Vec::new();
    let mut wide = Vec::new();
    for _ in 0..RESPONSE_REPS {
        let _ = trace.span("core.response", subject, || {
            model.try_park_response_prepared(prepared, grid)
        });
        let (_, ms) = wall_timed(|| model.try_park_response_prepared(prepared, grid));
        narrow.push(ms);
        let (_, ms) = wall_timed(|| {
            rayon::with_num_threads(cpus(), || model.try_park_response_prepared(prepared, grid))
        });
        wide.push(ms);
    }
    if let (Some(narrow), Some(wide)) = (median(&narrow), median(&wide)) {
        probes.response_speedup = Ratio::new(narrow, wide);
    }
    if let Some(ms) = trace.median_ms("core.response") {
        probes.response_cells_per_s =
            Ratio::new((prepared.n_cells() * grid.len()) as f64, ms / 1e3);
    }
}

/// Traced probe: one fit at [`WORKERS`] and one at every CPU, by wall time.
pub fn probe_fit(
    dataset: &Dataset,
    split: &TrainTestSplit,
    config: &ModelConfig,
    probes: &mut Probes,
) {
    let (_, narrow) = wall_timed(|| train(dataset, split, config));
    let (_, wide) =
        wall_timed(|| rayon::with_num_threads(cpus(), || train(dataset, split, config)));
    probes.fit_speedup = Ratio::new(narrow, wide);
}

/// Design a field test from a risk map and run a 3-month trial on it.
pub fn field_trial(
    scenario: &Scenario,
    dataset: &Dataset,
    risk: &[f64],
    seed: u64,
    subject: &'static str,
    trace: &mut Trace,
    tally: &mut Tally,
) {
    let park = &scenario.park;
    let outcome = trace.span("field.trial", subject, || {
        let historical: Vec<f64> = (0..park.n_cells())
            .map(|i| dataset.coverage.iter().map(|step| step[i]).sum())
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let design = design_field_test(
            park,
            risk,
            &historical,
            &ProtocolConfig::default(),
            &mut rng,
        );
        let config = TrialConfig {
            months: 3,
            season: Season::Dry,
            detection: scenario.sim.detection,
            ..TrialConfig::default()
        };
        run_trial(park, &scenario.poacher, &design, &config, seed)
    });
    let p = outcome.chi_squared.p_value;
    tally.check(
        outcome.groups.len() == 3
            && outcome
                .groups
                .iter()
                .all(|g| g.observed_cells <= g.patrolled_cells)
            && p > 0.0
            && p <= 1.0,
        || format!("{subject} field trial outcome is inconsistent"),
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// The git revision of the working directory, if it is a checkout.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment a run was measured in; runs whose fingerprints differ
/// are not compared.
#[derive(Serialize)]
struct Fingerprint {
    git: String,
    nproc: usize,
    rustc: String,
    profile: String,
    pool_threads: usize,
    seed: u64,
}

impl Fingerprint {
    fn new(seed: u64) -> Self {
        Self {
            git: git_revision(),
            nproc: cpus(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            profile: env!("PERFBENCH_PROFILE").to_string(),
            pool_threads: rayon::current_num_threads(),
            seed,
        }
    }
}

/// One (stage, subject) row of the per-stage table.
#[derive(Serialize)]
struct Stage {
    stage: String,
    n: usize,
    median_ms: f64,
    total_ms: f64,
}

/// The full record of a run, printed before the result line.
#[derive(Serialize)]
struct Record {
    workload: String,
    seconds: f64,
    trace: bool,
    fingerprint: Fingerprint,
    end_to_end: Metrics,
    per_layer: Metrics,
    wall_s: f64,
    cpu_s: f64,
    /// Median reference sample of the run / `calib::NOMINAL_MS`. Each
    /// duration was divided by the samples around it, over the nominal
    /// time, to the workload's sensitivity (see `calib`).
    host_slowdown: f64,
    host_samples: usize,
    host_quartiles_ms: Option<[f64; 3]>,
    units: usize,
    unit_quartiles_ms: Option<[f64; 3]>,
    stages: Vec<Stage>,
}

#[derive(Serialize)]
struct RecordLine {
    record: Record,
}

/// The result line: the last line of standard output.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// A line of compact JSON.
fn json_line(value: &impl Serialize) -> String {
    serde_json::to_string(value).unwrap_or_default()
}

/// The end-to-end metrics (BENCHMARK.json `end_to_end`).
fn end_to_end(out: &Outcome, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    let tail = tail_or_max(&out.unit_ms);
    let values = [
        ("setup_s", median(&out.setup_s), "s"),
        (
            "latency_p50_ms",
            out.unit_p50_ms.or_else(|| median(&out.unit_ms)),
            "ms",
        ),
        ("latency_tail_ms", tail.map(|t| t.1), "ms"),
        ("refresh_p50_ms", median(&out.refresh_ms), "ms"),
        ("detections", mean(&out.detections), "snares"),
        ("test_auc", out.held_out.auc(), "auc"),
        ("peak_heap_mb", Some(heap::peak_mb()), "MB"),
    ];
    for (name, value, unit) in values {
        let value = value.filter(|v| v.is_finite() && *v > 0.0);
        tally.check(value.is_some(), || format!("no measurement for {name}"));
        m.push(name, value.unwrap_or(0.0), unit);
    }
    if let Some((p, _)) = tail {
        eprintln!("latency_tail_ms is p{p} of {} units", out.unit_ms.len());
    }
    m
}

/// The per-layer metrics (BENCHMARK.json `per_layer`).
fn per_layer(out: &Outcome, trace: &Trace) -> Metrics {
    let p = &out.probes;
    let span = |name: &str| trace.median_ms(name).unwrap_or(0.0);
    let ratio = |r: &Ratio| r.value().unwrap_or(0.0);
    let coalesce: Vec<f64> = p.coalesce.iter().filter_map(Ratio::value).collect();
    let response_ms = span("core.response");
    let mut m = Metrics::default();
    m.push("data.build_dataset_ms", span("data.build_dataset"), "ms");
    m.push("data.append_ms", span("data.append"), "ms");
    m.push("iware.fit_ms", span("iware.fit"), "ms");
    m.push("iware.warm_refit_ms", span("iware.warm_refit"), "ms");
    m.push("iware.kept_ratio", ratio(&p.kept), "ratio");
    m.push("iware.cv_cache_ratio", ratio(&p.cv_cache), "ratio");
    m.push("core.prepare_ms", span("core.prepare"), "ms");
    m.push("core.risk_map_ms", span("core.risk_map"), "ms");
    m.push("core.response_ms", response_ms, "ms");
    m.push("ml.cells_per_s", ratio(&p.response_cells_per_s), "1/s");
    m.push("ml.plane_mb", p.plane_bytes / 1e6, "MB");
    m.push("core.shards", p.shards as f64, "count");
    m.push("pool.response_speedup", ratio(&p.response_speedup), "x");
    m.push("pool.fit_speedup", ratio(&p.fit_speedup), "x");
    m.push("plan.problem_ms", span("plan.problem"), "ms");
    m.push("plan.solve_ms", span("plan.solve"), "ms");
    m.push("solver.lp_solves", p.lp_solves, "count");
    m.push("plan.optimal_ratio", ratio(&p.optimal), "ratio");
    m.push("field.trial_ms", span("field.trial"), "ms");
    for (name, samples) in [
        ("serve.kind_ms.risk_map", &p.kind_ms[0]),
        ("serve.kind_ms.response", &p.kind_ms[1]),
        ("serve.kind_ms.plan", &p.kind_ms[2]),
    ] {
        m.push(name, median(samples).unwrap_or(0.0), "ms");
    }
    m.push("serve.coalesce_gain", median(&coalesce).unwrap_or(0.0), "x");
    m.push(
        "trace.stage_coverage",
        median(&p.stage_coverage).unwrap_or(0.0),
        "ratio",
    );
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    rayon::set_num_threads(WORKERS);
    let wall = std::time::Instant::now();
    let cpu = record::Stamp::now();
    let mut trace = Trace::new(args.trace).sampling_host();
    let mut tally = Tally::default();
    let (seed, seconds) = (args.seed, args.seconds);
    let outcome = match args.workload.as_str() {
        "paper_cycle" => cycle::run(&cycle::paper(seed), seed, seconds, &mut trace, &mut tally),
        "llc_cycle" => cycle::run(&cycle::llc(), seed, seconds, &mut trace, &mut tally),
        "serve_stream" => serve::run(seed, seconds, &mut trace, &mut tally),
        other => {
            eprintln!("perfbench: unknown workload {other:?}; expected paper_cycle, llc_cycle or serve_stream");
            return ExitCode::from(2);
        }
    };
    let host = trace.host().map_or(&[][..], |h| h.samples());
    let host_quartiles_ms = stats::quartiles(host);
    let host_samples = host.len();
    let host_slowdown = trace
        .host()
        .and_then(|h| h.median_slowdown())
        .unwrap_or(0.0);
    eprintln!("host slowdown: median {host_slowdown:.3} over {host_samples} reference samples");
    let e2e = end_to_end(&outcome, &mut tally);
    let layers = per_layer(&outcome, &trace);

    for (label, n, med, total) in trace.summary() {
        eprintln!("  {label:<34} n={n:<5} median {med:>10.3} ms  total {total:>10.1} ms");
    }
    for failure in &tally.first_failures {
        eprintln!("FAILED: {failure}");
    }
    let stages = trace
        .summary()
        .into_iter()
        .map(|(stage, n, median_ms, total_ms)| Stage {
            stage,
            n,
            median_ms,
            total_ms,
        })
        .collect();
    let metrics = if args.trace {
        layers.clone()
    } else {
        e2e.clone()
    };
    let record = Record {
        workload: args.workload,
        seconds,
        trace: args.trace,
        fingerprint: Fingerprint::new(seed),
        end_to_end: e2e,
        per_layer: if args.trace {
            layers
        } else {
            Metrics::default()
        },
        wall_s: wall.elapsed().as_secs_f64(),
        cpu_s: record::cpu_ms_since(cpu) / 1e3,
        host_slowdown,
        host_samples,
        host_quartiles_ms,
        units: outcome.unit_ms.len(),
        unit_quartiles_ms: stats::quartiles(&outcome.unit_ms),
        stages,
    };
    println!("{}", json_line(&RecordLine { record }));
    let result = ResultLine {
        correct: tally.failed == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
    };
    println!("{}", json_line(&result));
    ExitCode::SUCCESS
}
