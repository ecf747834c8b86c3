//! Streaming-fit parity suite.
//!
//! The contract of `paws_core::stream`:
//!
//! * **Strict parity** — with `tolerance = 0` (`StreamConfig::strict`),
//!   streaming a patrol-log history batch-by-batch through
//!   [`paws_core::fit_stream`] produces a model **bit-identical** to the
//!   one-shot fit on the concatenated history: same scaler statistics,
//!   same thresholds, same weights, same predictions. The `GOLDEN_*`
//!   constants pin the streamed surface itself so cross-version drift is
//!   caught even if both paths drift together.
//! * **Bounded warm divergence** — with a positive tolerance the warm
//!   path may keep learners fitted on slightly stale subsets and resolve
//!   CV weights from cached fold predictions; the served surface must
//!   stay within a documented envelope of the cold fit.
//! * **Pinned warm refits** — a tolerant refit is only bounded against the
//!   cold fit, so the learners it keeps and the weights it re-solves are
//!   pinned instead: each fixture fits cold, then refits twice in a row,
//!   and every model's stack snapshot (FNV-1a) and every `RefitStats` must
//!   reproduce exactly. One fixture per branch of the staged driver.

use paws_core::{
    fit_stream, ColdReason, ModelConfig, RefitPath, Scenario, StreamBatch, StreamConfig,
    WeakLearnerKind,
};
use paws_data::{build_dataset, Dataset, Discretization, Matrix, StandardScaler};
use paws_iware::{IWareConfig, IWareModel, RefitStats, WeightMode};
use paws_ml::bagging::BaggingConfig;
use paws_sim::History;

const TOL: f64 = 1e-12;

/// Turn a chronological run of history batches into raw training batches
/// by growing one dataset incrementally — each [`StreamBatch`] holds
/// exactly the points the corresponding patrol-log chunk contributed.
fn training_batches(scenario: &Scenario, batches: &[History]) -> (Dataset, Vec<StreamBatch>) {
    let mut dataset = build_dataset(&scenario.park, &batches[0], Discretization::quarterly());
    let mut out = Vec::new();
    let mut from = 0usize;
    let push = |dataset: &Dataset, from: usize| {
        let idx: Vec<usize> = (from..dataset.n_points()).collect();
        StreamBatch {
            rows: dataset.feature_rows(&idx),
            labels: dataset.labels(&idx),
            efforts: dataset.efforts(&idx),
        }
    };
    out.push(push(&dataset, from));
    for batch in &batches[1..] {
        from = dataset.n_points();
        dataset
            .append_observations(&scenario.park, batch)
            .expect("chronological batches append");
        out.push(push(&dataset, from));
    }
    (dataset, out)
}

fn config(seed: u64) -> ModelConfig {
    let mut config = ModelConfig::new(WeakLearnerKind::DecisionTree, true, seed);
    config.n_learners = 5;
    config.n_estimators = 4;
    config
}

fn iware(model: &paws_core::ServingModel) -> &IWareModel {
    match &model.fitted {
        paws_core::FittedModel::IWare(m) => m,
        _ => panic!("expected an iWare model"),
    }
}

/// First four streamed risk predictions of the strict-parity fixture
/// (scenario seed 13, two years in four 6-month batches, DTB-iW seed 13),
/// probed at effort 1.0 on the first four training rows.
const GOLDEN_STREAMED_RISK: [f64; 4] = [
    0.1157655693341123,
    0.16006085760181857,
    0.0666501951901842,
    0.06852655740723551,
];

#[test]
fn zero_tolerance_stream_is_bit_identical_to_the_one_shot_fit() {
    let scenario = Scenario::test_scenario(13);
    let history_batches = scenario.patrol_log_batches(2014, 2, 6);
    assert_eq!(history_batches.len(), 4);
    let (dataset, batches) = training_batches(&scenario, &history_batches);

    let config = config(13);
    let (streamed, reports) =
        fit_stream(&config, &batches, &StreamConfig::strict()).expect("stream fits");
    assert_eq!(reports.len(), 4);
    for report in &reports {
        assert_eq!(report.path, RefitPath::Cold(ColdReason::ZeroTolerance));
    }
    assert_eq!(reports[3].total_rows, dataset.n_points());

    // One-shot: the exact pipeline on all points at once.
    let idx: Vec<usize> = (0..dataset.n_points()).collect();
    let rows = dataset.feature_rows(&idx);
    let labels = dataset.labels(&idx);
    let efforts = dataset.efforts(&idx);
    let (scaler, scaled) = StandardScaler::fit_transform(rows.clone());
    let one_shot = IWareModel::fit(&config.iware_config(), scaled.view(), &labels, &efforts);

    // Scaler statistics are bit-identical (the strict path refits the
    // scaler from scratch on the full raw matrix).
    assert_eq!(
        streamed.scaler.means(),
        scaler.means(),
        "scaler means diverged"
    );
    assert_eq!(
        streamed.scaler.stds(),
        scaler.stds(),
        "scaler stds diverged"
    );

    // Thresholds, weights and served predictions are bit-identical.
    let sm = iware(&streamed);
    assert_eq!(
        sm.thresholds(),
        one_shot.thresholds(),
        "thresholds diverged"
    );
    assert_eq!(sm.weights(), one_shot.weights(), "weights diverged");
    let probe_efforts = vec![1.0; scaled.n_rows()];
    let got = sm.predict_proba_at_effort(scaled.view(), &probe_efforts);
    let want = one_shot.predict_proba_at_effort(scaled.view(), &probe_efforts);
    assert_eq!(got, want, "served predictions diverged");

    // Golden pin: the streamed surface itself must not drift.
    for (i, &golden) in GOLDEN_STREAMED_RISK.iter().enumerate() {
        assert!(
            (got[i] - golden).abs() <= TOL,
            "golden drift at {i}: got {}, want {golden}",
            got[i]
        );
    }
}

#[test]
fn threshold_count_change_keeps_surviving_learners_warm() {
    // PR 10 satellite (ROADMAP item 3 leftover): per-learner bagging
    // seeds are keyed by threshold *identity*, not index, so a warm refit
    // across a threshold-count change — a new distinct patrol-effort
    // level appearing in the log, exactly what quarterly discretization
    // produces — keeps the learners whose thresholds survive instead of
    // falling back to a full cold refit.
    let config = IWareConfig {
        n_learners: 4,
        base: BaggingConfig::trees(4, 3),
        weight_mode: WeightMode::Uniform,
        min_subset_size: 10,
        seed: 7,
    };

    // Two discretized effort levels (0 km, 1 km) → percentile dedup stops
    // at thresholds [0.0, 1.0].
    let feat = |i: usize| {
        vec![
            ((i * 37) % 101) as f64 / 101.0,
            ((i * 61) % 89) as f64 / 89.0,
            ((i * 13) % 97) as f64 / 97.0,
        ]
    };
    let n0 = 120;
    let rows0: Vec<Vec<f64>> = (0..n0).map(feat).collect();
    let labels0: Vec<f64> = (0..n0)
        .map(|i| if i % 3 == 0 { 1.0 } else { 0.0 })
        .collect();
    let efforts0: Vec<f64> = (0..n0)
        .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
        .collect();
    let x0 = Matrix::from_rows(&rows0);

    let (cold, mut cache) = IWareModel::fit_cached(&config, x0.view(), &labels0, &efforts0);
    assert_eq!(
        cold.n_learners(),
        2,
        "fixture: ties dedup to two thresholds"
    );

    // Append a patrol cycle at a new 2 km effort level: three distinct
    // efforts now, so the threshold *count* grows to three.
    let n1 = 160;
    let rows1: Vec<Vec<f64>> = (0..n1).map(feat).collect();
    let labels1: Vec<f64> = (0..n1)
        .map(|i| if i % 3 == 0 { 1.0 } else { 0.0 })
        .collect();
    let efforts1: Vec<f64> = (0..n1)
        .map(|i| {
            if i >= n0 {
                2.0
            } else if i % 2 == 0 {
                0.0
            } else {
                1.0
            }
        })
        .collect();
    let x1 = Matrix::from_rows(&rows1);

    let (warm, stats) =
        IWareModel::warm_refit(&config, &mut cache, x1.view(), &labels1, &efforts1, 0.6);
    assert_eq!(
        warm.n_learners(),
        3,
        "fixture: the new effort level adds a threshold"
    );
    assert!(
        stats.learners_kept > 0,
        "a surviving threshold must keep its learner warm across a count change, got {stats:?}"
    );
    assert_eq!(
        stats.learners_kept + stats.learners_refitted,
        warm.n_learners()
    );
    assert_eq!(
        cache.n_learners(),
        3,
        "cache re-keyed to the new threshold list"
    );
}

#[test]
fn warm_stream_divergence_is_bounded() {
    let scenario = Scenario::test_scenario(13);
    let history_batches = scenario.patrol_log_batches(2014, 2, 6);
    let (dataset, batches) = training_batches(&scenario, &history_batches);

    let config = config(13);
    let warm_cfg = StreamConfig {
        warmup_batches: 1,
        tolerance: 0.5,
        scaler_drift: 10.0,
    };
    let (warm, reports) = fit_stream(&config, &batches, &warm_cfg).expect("warm stream fits");
    assert_eq!(reports[0].path, RefitPath::Cold(ColdReason::Warmup));
    let mut warm_batches = 0;
    let mut kept = 0;
    for report in &reports[1..] {
        match report.path {
            RefitPath::Warm(stats) => {
                warm_batches += 1;
                kept += stats.learners_kept;
            }
            RefitPath::Cold(reason) => panic!("unexpected cold refit: {reason:?}"),
        }
    }
    assert_eq!(warm_batches, 3, "post-warmup batches must refit warmly");
    assert!(kept > 0, "the warm path never kept a learner");

    // The warm surface stays within the documented envelope of the strict
    // (= one-shot) fit on the same data.
    let (strict, _) =
        fit_stream(&config, &batches, &StreamConfig::strict()).expect("strict stream fits");
    let idx: Vec<usize> = (0..dataset.n_points()).collect();
    let rows = dataset.feature_rows(&idx);
    let probe_efforts = vec![1.0; rows.n_rows()];

    let mut warm_rows = rows.clone();
    warm.scaler.transform_in_place(&mut warm_rows);
    let warm_pred = iware(&warm).predict_proba_at_effort(warm_rows.view(), &probe_efforts);
    let mut strict_rows = rows.clone();
    strict.scaler.transform_in_place(&mut strict_rows);
    let strict_pred = iware(&strict).predict_proba_at_effort(strict_rows.view(), &probe_efforts);

    let max_diff = warm_pred
        .iter()
        .zip(&strict_pred)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    let mean_diff = warm_pred
        .iter()
        .zip(&strict_pred)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / warm_pred.len() as f64;
    // Envelope for this deliberately aggressive fixture (tolerance 0.5,
    // data growing 4× across the warm batches): learners kept on subsets
    // up to 50% stale plus the cached-CV weight resolve measure mean ≈0.10
    // / max ≈0.58 against the cold fit. Real deployments append a few
    // percent per cycle and sit far inside this bound.
    assert!(
        mean_diff < 0.15 && max_diff < 0.7,
        "warm surface diverged from the cold fit (mean {mean_diff}, max {max_diff})"
    );
}

/// FNV-1a over a byte slice: a stable fingerprint of a stack snapshot.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64 of `i` under `salt`: a platform-independent stream for
/// fixture rows.
fn mix(i: u64, salt: u64) -> u64 {
    let mut z = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(salt);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One training batch: feature rows, labels and patrol efforts.
struct Batch {
    x: Matrix,
    labels: Vec<f64>,
    efforts: Vec<f64>,
}

/// `n` patrol points with three features in [0, 1), a continuous effort
/// in [0, 4) km on a 1 m grid, and detections that grow with the first two
/// features and with the effort.
fn continuous_batch(n: usize, salt: u64) -> Batch {
    let unit = |i: usize, k: u64| (mix(i as u64 * 8 + k, salt) >> 11) as f64 / (1u64 << 53) as f64;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| vec![unit(i, 0), unit(i, 1), unit(i, 2)])
        .collect();
    let efforts: Vec<f64> = (0..n)
        .map(|i| (unit(i, 3) * 4000.0).round() / 1000.0)
        .collect();
    let labels = (0..n)
        .map(|i| {
            let risk = 0.6 * rows[i][0] + 0.3 * rows[i][1];
            let seen = 1.0 - (-efforts[i]).exp();
            f64::from(u8::from(unit(i, 4) < risk * seen))
        })
        .collect();
    Batch {
        x: Matrix::from_rows(&rows),
        labels,
        efforts,
    }
}

/// The rows of `threshold_count_change_keeps_surviving_learners_warm`,
/// extended: rows below 120 alternate 0 / 1 km, rows 120–159 sit at a new
/// 2 km level, and later rows cycle through 0, 1 and 2 km.
fn effort_level_batch(n: usize) -> Batch {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            vec![
                ((i * 37) % 101) as f64 / 101.0,
                ((i * 61) % 89) as f64 / 89.0,
                ((i * 13) % 97) as f64 / 97.0,
            ]
        })
        .collect();
    let labels = (0..n).map(|i| f64::from(u8::from(i % 3 == 0))).collect();
    let efforts = (0..n)
        .map(|i| match i {
            0..=119 => (i % 2) as f64,
            120..=159 => 2.0,
            _ => (i % 3) as f64,
        })
        .collect();
    Batch {
        x: Matrix::from_rows(&rows),
        labels,
        efforts,
    }
}

/// Fit cold on the first `sizes[0]` rows of `batch`, then warm-refit on
/// the first `sizes[1]` and `sizes[2]` rows with one cache. Returns the
/// cold model's learner count and snapshot hash and, per refit, the
/// snapshot hash and the stats.
fn refit_twice(
    config: &IWareConfig,
    batch: &Batch,
    sizes: [usize; 3],
    tolerance: f64,
) -> (usize, u64, [(u64, RefitStats); 2]) {
    let head = |n: usize| {
        (
            batch.x.view().head(n),
            &batch.labels[..n],
            &batch.efforts[..n],
        )
    };
    let snapshot = |model: &IWareModel| fnv1a(&model.to_stack_snapshot().expect("tree stack"));
    let (x, labels, efforts) = head(sizes[0]);
    let (cold, mut cache) = IWareModel::fit_cached(config, x, labels, efforts);
    let mut refit = |n: usize| {
        let (x, labels, efforts) = head(n);
        let (model, stats) =
            IWareModel::warm_refit(config, &mut cache, x, labels, efforts, tolerance);
        assert_eq!(cache.n_rows(), n);
        assert_eq!(cache.n_learners(), model.n_learners());
        (snapshot(&model), stats)
    };
    let first = refit(sizes[1]);
    let second = refit(sizes[2]);
    (cold.n_learners(), snapshot(&cold), [first, second])
}

fn stats(kept: usize, refitted: usize, from_cache: bool, full_cv: bool) -> RefitStats {
    RefitStats {
        learners_kept: kept,
        learners_refitted: refitted,
        cv_resolved_from_cache: from_cache,
        full_cv,
    }
}

fn cv_config(n_learners: usize, seed: u64, min_subset_size: usize) -> IWareConfig {
    let mut config = IWareConfig::new(n_learners, BaggingConfig::trees(4, 3), seed);
    config.weight_mode = WeightMode::CvOptimized {
        folds: 3,
        iterations: 40,
    };
    config.min_subset_size = min_subset_size;
    config
}

#[test]
fn same_count_tolerant_refits_match_the_pinned_bits() {
    // Two 4% appends move every percentile threshold but keep five: the
    // refits match learners by position, keep those whose subsets drifted
    // at most 5%, and re-solve the weights from the cached CV predictions.
    let config = cv_config(5, 11, 20);
    let got = refit_twice(&config, &continuous_batch(324, 21), [300, 312, 324], 0.05);
    let want = (
        5,
        16471055412489477368,
        [
            (15189277815691194467, stats(3, 2, true, false)),
            (8948157448255065792, stats(4, 1, true, false)),
        ],
    );
    assert_eq!(got, want);
}

#[test]
fn count_change_tolerant_refits_match_the_pinned_bits() {
    // The count-change fixture at tolerance 0.6 with CV weights: the first
    // refit adds a threshold, keeps surviving learners by θ and runs the
    // full CV; the second keeps the count and re-solves from the CV cache
    // the first one left.
    let config = cv_config(4, 7, 10);
    let got = refit_twice(&config, &effort_level_batch(200), [120, 160, 200], 0.6);
    let want = (
        2,
        9278044450216307643,
        [
            (18358979704622005914, stats(1, 2, false, true)),
            (18395572181388770224, stats(2, 1, true, false)),
        ],
    );
    assert_eq!(got, want);
}

#[test]
fn uniform_count_change_refits_match_the_pinned_bits() {
    // The same fixture under uniform weights: no CV stage runs at all.
    let mut config = cv_config(4, 7, 10);
    config.weight_mode = WeightMode::Uniform;
    let got = refit_twice(&config, &effort_level_batch(200), [120, 160, 200], 0.6);
    let want = (
        2,
        7107356706690528258,
        [
            (6361926291029578130, stats(1, 2, false, false)),
            (9684595551715805011, stats(2, 1, false, false)),
        ],
    );
    assert_eq!(got, want);
}

#[test]
fn refits_from_a_cache_without_cv_match_the_pinned_bits() {
    // The first 60 rows hold two detections, too few to stratify into
    // three folds, so the cold fit caches no CV predictions. The first
    // refit keeps the count and runs the full CV on the warm path; the
    // second re-solves from the cache it left.
    let mut batch = continuous_batch(100, 22);
    for (i, label) in batch.labels.iter_mut().enumerate().take(60) {
        *label = f64::from(u8::from(i == 7 || i == 41));
    }
    let config = cv_config(4, 5, 10);
    let got = refit_twice(&config, &batch, [60, 80, 100], 0.5);
    let want = (
        4,
        6213942725596420223,
        [
            (12029504256681007152, stats(3, 1, false, true)),
            (13440602168119772281, stats(4, 0, true, false)),
        ],
    );
    assert_eq!(got, want);
}
