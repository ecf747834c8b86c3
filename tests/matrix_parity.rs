//! Parity tests for the flat-matrix refactor of the predictive stack.
//!
//! The `GOLDEN_*` constants below were generated by running the exact same
//! fixed-seed training/prediction sequences on the pre-refactor
//! implementation (nested `Vec<Vec<f64>>` features, per-row clones for
//! bootstraps and filtered subsets). The flat [`Matrix`] code path must
//! reproduce them to ≤ 1e-12, proving the memory-layout migration changed
//! no numbers anywhere in the tree / SVM / GP / bagging / iWare-E stack.
//!
//! The `GOLDEN_IWARE_*` group was regenerated twice on purpose: when the
//! per-learner bagging seed formula changed from index-tied to
//! threshold-keyed (so warm refits survive threshold-count changes), and
//! when the CV-weight solve moved from a central-difference gradient to
//! the analytic one, which moved the solved weights by about 1e-11. The
//! non-iWare goldens still pin the original pre-refactor numbers. The
//! `GOLDEN_GP_IWARE_*` group, a CV-weighted GPB-iW model, was added later
//! from the per-member GP prediction path and is compared bit for bit.
//!
//! A second group of tests checks layout invariances of the new code path
//! itself: index-gathered subsets behave exactly like row-cloned subsets,
//! and batch prediction equals per-row prediction.

use paws_data::{Matrix, MatrixView, StandardScaler};
use paws_iware::{IWareConfig, IWareModel, WeightMode};
use paws_ml::bagging::{BaggingClassifier, BaggingConfig, BaseLearnerConfig};
use paws_ml::gp::{GaussianProcess, GpConfig};
use paws_ml::svm::{LinearSvm, SvmConfig};
use paws_ml::traits::{Classifier, UncertainClassifier};
use paws_ml::tree::{DecisionTree, TreeConfig};
use paws_plan::{try_plan, PatrolPlan, PlannerConfig, PlanningProblem};
use paws_solver::SolveStatus;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const TOL: f64 = 1e-12;

const GOLDEN_TREE: [f64; 10] = [
    1.0,
    0.25,
    0.0,
    1.0,
    0.0,
    0.0,
    0.6111111111111112,
    0.7333333333333333,
    0.0,
    0.6111111111111112,
];
const GOLDEN_TREE_SUBSAMPLED: [f64; 10] = [
    0.5,
    0.3333333333333333,
    0.0,
    1.0,
    0.0,
    0.0,
    0.42857142857142855,
    1.0,
    0.0,
    1.0,
];
const GOLDEN_SVM: [f64; 10] = [
    0.4422006509112557,
    0.24013532631528917,
    0.49149968793915205,
    0.7463914876247285,
    0.4683813879859885,
    0.07144649594748691,
    0.6479806388153552,
    0.5180448263547601,
    0.27102903634364545,
    0.7409941671904968,
];
const GOLDEN_GP_PROB: [f64; 10] = [
    0.6325359073567605,
    0.30198702394916815,
    0.32813204427274884,
    0.5808105238915069,
    0.2891961816152426,
    0.0,
    0.6903082135202723,
    0.4581843577337789,
    0.30117760018572265,
    0.6814502382624725,
];
const GOLDEN_GP_VAR: [f64; 10] = [
    0.005463309195689603,
    0.005828531710426854,
    0.010168310054503027,
    0.006276123733312655,
    0.009545746792959608,
    0.01997449876314139,
    0.006900245067378741,
    0.007126759853408493,
    0.0033889022544829617,
    0.00918631556268057,
];
const GOLDEN_BAG_PROB: [f64; 10] = [
    0.8541666666666665,
    0.734375,
    0.14583333333333331,
    0.875,
    0.0,
    0.0,
    0.6820667220376523,
    0.5161764705882352,
    0.05,
    0.6833333333333333,
];
const GOLDEN_BAG_VAR: [f64; 10] = [
    0.05164930555555557,
    0.103271484375,
    0.06553819444444443,
    0.109375,
    0.0,
    0.0,
    0.055602511792119426,
    0.05838811995386389,
    0.017500000000000005,
    0.1386111111111111,
];
const GOLDEN_BALANCED_BAG: [f64; 10] = [
    0.8125,
    0.8083333333333333,
    0.12291666666666665,
    0.9583333333333333,
    0.20625,
    0.08333333333333333,
    0.6729166666666667,
    0.7980769230769231,
    0.0,
    0.7596153846153846,
];
const GOLDEN_GP_BAG_PROB: [f64; 10] = [
    0.5574944764826416,
    0.2183027292049822,
    0.48206311444603095,
    0.6897343156878223,
    0.46317584021488584,
    0.0038664944779069157,
    0.6334888788724464,
    0.5319272378194467,
    0.2833369066621809,
    0.6657593438394224,
];
const GOLDEN_GP_BAG_VAR: [f64; 10] = [
    0.0068286683916457536,
    0.007730583623097642,
    0.016308979757083526,
    0.009063469654189324,
    0.015602262568551831,
    0.025265442760380303,
    0.011812283875336801,
    0.009739995153828654,
    0.0053505519724902735,
    0.017158224304287446,
];
const GOLDEN_IWARE_WEIGHTS: [f64; 4] = [
    0.3375347092322339,
    0.2369737061208928,
    0.21104928279192028,
    0.21444230185495294,
];
const GOLDEN_IWARE_THRESHOLDS: [f64; 4] = [
    0.0,
    1.1528700123869378,
    2.0186592448661806,
    2.9789340051446236,
];
const GOLDEN_IWARE_PROB: [f64; 10] = [
    0.8994456606304609,
    0.5219518693139458,
    0.05555555555555555,
    0.9605043823131846,
    0.3634094637420681,
    0.09999999999999999,
    0.8175230433741341,
    0.7710339908517205,
    0.0,
    0.8935845380748247,
];
const GOLDEN_IWARE_RESPONSE_P_ROW0: [f64; 4] = [1.0, 1.0, 0.8625063910942397, 0.921008764626369];
const GOLDEN_IWARE_RESPONSE_V_ROW0: [f64; 4] =
    [0.0, 0.0, 0.06874680445288019, 0.039495617686815476];
const GOLDEN_IWARE_PV_PROB: [f64; 10] = [
    0.8994456606304609,
    0.5219518693139458,
    0.05555555555555555,
    0.9605043823131846,
    0.3634094637420681,
    0.09999999999999999,
    0.8175230433741341,
    0.7710339908517205,
    0.0,
    0.8935845380748247,
];
const GOLDEN_IWARE_PV_VAR: [f64; 10] = [
    0.05027716968476951,
    0.09251709355277225,
    0.009259259259259259,
    0.019747808843407735,
    0.1719862425417209,
    0.03000000000000001,
    0.06176677765605875,
    0.09220287266257525,
    0.0,
    0.017830433129893346,
];

/// Bit pins of [`gp_iware_config`]'s model (its thresholds are
/// `GOLDEN_IWARE_THRESHOLDS`): weights, `predict_with_variance_at_effort`
/// on the query rows at their own efforts, and row 0 of the response over
/// 0.5, 1, 2 and 3.5 km.
const GOLDEN_GP_IWARE_WEIGHTS: [f64; 4] = [
    0.23606338700478827,
    0.30127877814275267,
    0.23228706651505338,
    0.2303707683374057,
];
const GOLDEN_GP_IWARE_PV_PROB: [f64; 10] = [
    0.5272893077631793,
    0.3283285728553849,
    0.40136490344283327,
    0.7799219618787363,
    0.5343871337428859,
    0.0,
    0.693196764377406,
    0.6773353021540659,
    0.32395512127501025,
    0.7565241982204362,
];
const GOLDEN_GP_IWARE_PV_VAR: [f64; 10] = [
    0.00712842540822278,
    0.00756056692253762,
    0.012149624283213867,
    0.007392566880653352,
    0.013208581314529417,
    0.028280817329682278,
    0.009631629471459947,
    0.008867667393905224,
    0.005952857307319708,
    0.01264150327510653,
];
const GOLDEN_GP_IWARE_RESPONSE_P_ROW0: [f64; 4] = [
    0.4619730108431986,
    0.4619730108431986,
    0.5368881720539366,
    0.5175668633976834,
];
const GOLDEN_GP_IWARE_RESPONSE_V_ROW0: [f64; 4] = [
    0.007352601506245837,
    0.007352601506245837,
    0.007106945649669571,
    0.0071317252263549315,
];

/// The same synthetic dataset the golden generator used (identical RNG
/// consumption order), as both nested rows and a flat matrix.
fn synth(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    let mut efforts = Vec::new();
    for _ in 0..n {
        let x0: f64 = rng.gen_range(-1.0..1.0);
        let x1: f64 = rng.gen_range(-1.0..1.0);
        let x2: f64 = rng.gen_range(-1.0..1.0);
        let attack_p = 1.0 / (1.0 + (-(2.0 * x0 + x1 - 0.5 * x2)).exp());
        let attack = rng.gen::<f64>() < attack_p;
        let effort: f64 = rng.gen_range(0.0..4.0);
        let detect = attack && rng.gen::<f64>() < 1.0 - (-1.2 * effort).exp();
        rows.push(vec![x0, x1, x2]);
        labels.push(if detect { 1.0 } else { 0.0 });
        efforts.push(effort);
    }
    (rows, labels, efforts)
}

fn training_data() -> (Matrix, Vec<f64>, Vec<f64>) {
    let (rows, labels, efforts) = synth(300, 424242);
    (Matrix::from_rows(&rows), labels, efforts)
}

fn assert_close(actual: &[f64], golden: &[f64], what: &str) {
    assert_eq!(actual.len(), golden.len(), "{what}: length mismatch");
    for (i, (a, g)) in actual.iter().zip(golden).enumerate() {
        assert!(
            (a - g).abs() <= TOL,
            "{what}[{i}]: {a} differs from pre-refactor value {g}"
        );
    }
}

fn query(x: &Matrix) -> MatrixView<'_> {
    x.view().head(10)
}

#[test]
fn tree_predictions_match_nested_vec_implementation() {
    let (x, labels, _) = training_data();
    let tree = DecisionTree::fit(&TreeConfig::default(), x.view(), &labels, 7);
    assert_close(&tree.predict_proba(query(&x)), &GOLDEN_TREE, "tree");

    let sub = DecisionTree::fit(
        &TreeConfig {
            max_features: Some(2),
            ..TreeConfig::default()
        },
        x.view(),
        &labels,
        11,
    );
    assert_close(
        &sub.predict_proba(query(&x)),
        &GOLDEN_TREE_SUBSAMPLED,
        "tree(max_features=2)",
    );
}

#[test]
fn svm_predictions_match_nested_vec_implementation() {
    let (x, labels, _) = training_data();
    let svm = LinearSvm::fit(&SvmConfig::default(), x.view(), &labels, 3);
    assert_close(&svm.predict_proba(query(&x)), &GOLDEN_SVM, "svm");
}

#[test]
fn gp_predictions_match_nested_vec_implementation() {
    let (x, labels, _) = training_data();
    // max_points < n exercises the shuffle-subsample (gather) path.
    let gp = GaussianProcess::fit(
        &GpConfig {
            max_points: 120,
            ..GpConfig::default()
        },
        x.view(),
        &labels,
        5,
    );
    let (p, v) = gp.predict_with_variance(query(&x));
    assert_close(&p, &GOLDEN_GP_PROB, "gp prob");
    assert_close(&v, &GOLDEN_GP_VAR, "gp var");
}

#[test]
fn bagging_predictions_match_nested_vec_implementation() {
    let (x, labels, _) = training_data();
    let bag = BaggingClassifier::fit(&BaggingConfig::trees(8, 9), x.view(), &labels);
    let (p, v) = bag.predict_with_variance(query(&x));
    assert_close(&p, &GOLDEN_BAG_PROB, "bagging prob");
    assert_close(&v, &GOLDEN_BAG_VAR, "bagging spread var");

    let balanced = BaggingClassifier::fit(
        &BaggingConfig {
            balanced: true,
            ..BaggingConfig::trees(8, 9)
        },
        x.view(),
        &labels,
    );
    assert_close(
        &balanced.predict_proba(query(&x)),
        &GOLDEN_BALANCED_BAG,
        "balanced bagging",
    );
}

#[test]
fn gp_bagging_matches_nested_vec_implementation() {
    // Also covers the predict_with_variance fix: the intrinsic-variance
    // path must produce the same numbers it did when member predictions
    // were computed twice.
    let (x, labels, _) = training_data();
    let gp_bag = BaggingClassifier::fit(
        &BaggingConfig {
            base: BaseLearnerConfig::Gp(GpConfig {
                max_points: 80,
                ..GpConfig::default()
            }),
            ..BaggingConfig::gps(3, 13)
        },
        x.view(),
        &labels,
    );
    let (p, v) = gp_bag.predict_with_variance(query(&x));
    assert_close(&p, &GOLDEN_GP_BAG_PROB, "gp bagging prob");
    assert_close(&v, &GOLDEN_GP_BAG_VAR, "gp bagging intrinsic var");
}

fn iware_config() -> IWareConfig {
    IWareConfig {
        n_learners: 4,
        base: BaggingConfig::trees(4, 3),
        weight_mode: WeightMode::CvOptimized {
            folds: 3,
            iterations: 40,
        },
        min_subset_size: 20,
        seed: 9,
    }
}

#[test]
fn iware_matches_nested_vec_implementation() {
    let (x, labels, efforts) = training_data();
    let model = IWareModel::fit(&iware_config(), x.view(), &labels, &efforts);
    assert_close(model.weights(), &GOLDEN_IWARE_WEIGHTS, "iware weights");
    assert_close(
        model.thresholds(),
        &GOLDEN_IWARE_THRESHOLDS,
        "iware thresholds",
    );
    assert_close(
        &model.predict_proba_at_effort(query(&x), &efforts[..10]),
        &GOLDEN_IWARE_PROB,
        "iware prob",
    );
    let (pv_p, pv_v) = model.predict_with_variance_at_effort(query(&x), &efforts[..10]);
    assert_close(&pv_p, &GOLDEN_IWARE_PV_PROB, "iware pv prob");
    assert_close(&pv_v, &GOLDEN_IWARE_PV_VAR, "iware pv var");

    let grid = [0.5, 1.0, 2.0, 3.5];
    let (er_p, er_v) = model.effort_response(query(&x), &grid);
    assert_close(
        er_p.row(0),
        &GOLDEN_IWARE_RESPONSE_P_ROW0,
        "iware response prob",
    );
    assert_close(
        er_v.row(0),
        &GOLDEN_IWARE_RESPONSE_V_ROW0,
        "iware response var",
    );
}

/// A balanced, CV-weighted GPB-iW model on the golden scenario: 4 learners
/// of 3 GPs with at most 80 points each, weights from 3 CV folds.
fn gp_iware_config() -> IWareConfig {
    IWareConfig {
        base: BaggingConfig {
            base: BaseLearnerConfig::Gp(GpConfig {
                max_points: 80,
                ..GpConfig::default()
            }),
            balanced: true,
            ..BaggingConfig::gps(3, 13)
        },
        ..iware_config()
    }
}

#[test]
fn gp_iware_matches_the_pinned_bits() {
    // The out-of-fold GP means set the weights, the varying-effort predict
    // reads every learner's table at its own prefix, and the response row
    // combines the tables at four levels.
    let (x, labels, efforts) = training_data();
    let model = IWareModel::fit(&gp_iware_config(), x.view(), &labels, &efforts);
    assert_bits(
        model.weights(),
        &GOLDEN_GP_IWARE_WEIGHTS,
        "gp iware weights",
    );
    assert_bits(
        model.thresholds(),
        &GOLDEN_IWARE_THRESHOLDS,
        "gp iware thresholds",
    );
    let (p, v) = model.predict_with_variance_at_effort(query(&x), &efforts[..10]);
    assert_bits(&p, &GOLDEN_GP_IWARE_PV_PROB, "gp iware pv prob");
    assert_bits(&v, &GOLDEN_GP_IWARE_PV_VAR, "gp iware pv var");
    let (er_p, er_v) = model.effort_response(query(&x), &[0.5, 1.0, 2.0, 3.5]);
    assert_bits(
        er_p.row(0),
        &GOLDEN_GP_IWARE_RESPONSE_P_ROW0,
        "gp iware response prob",
    );
    assert_bits(
        er_v.row(0),
        &GOLDEN_GP_IWARE_RESPONSE_V_ROW0,
        "gp iware response var",
    );
}

// ---------------------------------------------------------------------------
// Arena / batch-traversal parity.
// ---------------------------------------------------------------------------

#[test]
fn forest_batch_traversal_matches_per_row_walks_on_the_goldens() {
    // The level-synchronous batch kernel must agree bit-for-bit with the
    // classic root-to-leaf walk over the same arena, and the ensemble mean
    // built from it must still hit the pre-refactor goldens.
    let (x, labels, _) = training_data();
    let bag = BaggingClassifier::fit(&BaggingConfig::trees(8, 9), x.view(), &labels);
    let forest = bag.forest().expect("tree ensembles are arena-backed");
    assert_eq!(forest.n_trees(), 8);

    let q = query(&x);
    let batch = forest.predict_proba_batch(q);
    for t in 0..forest.n_trees() {
        for (r, row) in q.rows().enumerate() {
            assert_eq!(
                batch.get(t, r),
                forest.predict_row(t, row),
                "tree {t} row {r}"
            );
        }
    }
    assert_close(&bag.predict_proba(q), &GOLDEN_BAG_PROB, "arena bag prob");
}

#[test]
fn iware_effort_response_through_the_forest_stack_matches_goldens() {
    // A tree-based iWare-E model fuses all I×B member trees into one arena
    // and serves effort_response from a single batch traversal; the fused
    // path must reproduce the goldens bit-identically.
    let (x, labels, efforts) = training_data();
    let model = IWareModel::fit(&iware_config(), x.view(), &labels, &efforts);
    let (n_trees, n_nodes) = model.arena_stats().expect("DTB stack is arena-fused");
    assert_eq!(n_trees, 4 * 4, "4 learners × 4 bagged trees");
    assert!(n_nodes > n_trees);

    let grid = [0.5, 1.0, 2.0, 3.5];
    let (er_p, er_v) = model.effort_response(query(&x), &grid);
    assert_close(
        er_p.row(0),
        &GOLDEN_IWARE_RESPONSE_P_ROW0,
        "stacked response prob",
    );
    assert_close(
        er_v.row(0),
        &GOLDEN_IWARE_RESPONSE_V_ROW0,
        "stacked response var",
    );
    // And level by level, the fused-arena surface equals the pointwise
    // prediction path.
    for (e, &level) in grid.iter().enumerate() {
        let level_efforts = vec![level; 10];
        let (p_ref, v_ref) = model.predict_with_variance_at_effort(query(&x), &level_efforts);
        for r in 0..10 {
            assert_eq!(er_p.get(r, e), p_ref[r]);
            assert_eq!(er_v.get(r, e), v_ref[r]);
        }
    }
}

// ---------------------------------------------------------------------------
// The f32 prediction plane vs the f64 goldens.
// ---------------------------------------------------------------------------

/// Documented divergence bound of the f32 plane on the golden scenarios:
/// no query value sits within an f32 ulp of a split threshold here, so the
/// only deviation is f32 rounding through the reduce/combine chain.
const F32_TOL: f64 = 1e-5;

fn assert_close_f32(actual: &[f64], golden: &[f64], what: &str) {
    assert_eq!(actual.len(), golden.len(), "{what}: length mismatch");
    for (i, (a, g)) in actual.iter().zip(golden).enumerate() {
        assert!(
            (a - g).abs() <= F32_TOL,
            "{what}[{i}]: f32-plane value {a} beyond {F32_TOL} of golden {g}"
        );
    }
}

#[test]
fn f32_bagging_predictions_stay_within_the_documented_bound_of_the_goldens() {
    use paws_ml::Precision;
    let (x, labels, _) = training_data();
    let mut bag = BaggingClassifier::fit(&BaggingConfig::trees(8, 9), x.view(), &labels);
    bag.set_precision(Precision::F32).unwrap();
    let forest32 = bag.forest32().expect("tree ensemble narrows an arena");
    assert_eq!(forest32.n_trees(), 8);
    // The layout claim: 8-byte nodes, half the f64 arena's 16.
    assert_eq!(paws_ml::Forest32::NODE_BYTES, 8);

    let (p, v) = bag.predict_with_variance(query(&x));
    assert_close_f32(&p, &GOLDEN_BAG_PROB, "f32 bagging prob");
    assert_close_f32(&v, &GOLDEN_BAG_VAR, "f32 bagging spread var");
    assert_close_f32(&bag.predict_proba(query(&x)), &GOLDEN_BAG_PROB, "f32 proba");
}

#[test]
fn f32_forest_batch_traversal_is_bit_identical_to_per_row_f32_walks() {
    // Within the plane, the batch kernel has the same bit-exactness
    // contract as the f64 arena: batch == per-row, bit for bit.
    let (x, labels, _) = training_data();
    let mut bag = BaggingClassifier::fit(&BaggingConfig::trees(8, 9), x.view(), &labels);
    bag.set_precision(paws_ml::Precision::F32).unwrap();
    let forest32 = bag.forest32().expect("arena narrowed");
    let q32 = paws_data::Matrix32::from_f64(query(&x));
    let batch = forest32.predict_proba_batch(q32.view());
    for t in 0..forest32.n_trees() {
        for (r, row) in q32.rows().enumerate() {
            assert_eq!(
                batch.get(t, r),
                forest32.predict_row(t, row),
                "tree {t} row {r}"
            );
        }
    }
}

#[test]
fn f32_iware_response_surfaces_stay_within_the_documented_bound() {
    use paws_iware::Precision;
    let (x, labels, efforts) = training_data();
    let mut model = IWareModel::fit(&iware_config(), x.view(), &labels, &efforts);
    model.set_precision(Precision::F32).unwrap();
    let (n_trees, n_nodes) = model.arena32_stats().expect("narrowed stack");
    assert_eq!((n_trees, n_nodes), model.arena_stats().unwrap());

    // The fused f32 effort_response against the f64 golden response rows.
    let grid = [0.5, 1.0, 2.0, 3.5];
    let (er_p, er_v) = model.effort_response(query(&x), &grid);
    assert_close_f32(
        er_p.row(0),
        &GOLDEN_IWARE_RESPONSE_P_ROW0,
        "f32 response prob",
    );
    assert_close_f32(
        er_v.row(0),
        &GOLDEN_IWARE_RESPONSE_V_ROW0,
        "f32 response var",
    );

    // The constant-effort (risk-map) path against the same goldens, level
    // by level.
    for (e, &level) in grid.iter().enumerate() {
        let level_efforts = vec![level; 10];
        let (p_ref, v_ref) = model.predict_with_variance_at_effort(query(&x), &level_efforts);
        for r in 0..10 {
            assert!((er_p.get(r, e) - p_ref[r]).abs() <= F32_TOL);
            assert!((er_v.get(r, e) - v_ref[r]).abs() <= F32_TOL);
        }
    }

    // Per-row varying efforts intentionally stay on the f64 plane: they
    // must still hit the f64 goldens bit-tight.
    assert_close(
        &model.predict_proba_at_effort(query(&x), &efforts[..10]),
        &GOLDEN_IWARE_PROB,
        "f32-switched varying-effort prob (f64 fallback)",
    );

    // Switching back restores the exact f64 plane.
    model.set_precision(Precision::F64).unwrap();
    assert!(model.arena32_stats().is_none());
    let (er_p64, _) = model.effort_response(query(&x), &grid);
    assert_close(er_p64.row(0), &GOLDEN_IWARE_RESPONSE_P_ROW0, "restored f64");
}

/// Seeded LLC-scale park scenario shared by the large-park parity tests
/// (50k cells — the feature matrix and response surfaces outgrow the LLC,
/// unlike the golden scenarios above).
#[cfg(not(debug_assertions))]
fn large_park_setup() -> (
    paws_core::Scenario,
    paws_data::Dataset,
    paws_core::TrainedModel,
) {
    use paws_core::{train, ModelConfig, Scenario, WeakLearnerKind};
    use paws_data::{build_dataset, split_by_test_year, Discretization};
    let scenario = Scenario::llc_scenario(50_000, 61);
    let history = scenario.simulate_years(2014, 2);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let split = split_by_test_year(&dataset, 2015, 1).expect("2015 present");
    let mut cfg = ModelConfig::new(WeakLearnerKind::DecisionTree, true, 61);
    cfg.n_learners = 5;
    cfg.n_estimators = 4;
    cfg.weight_mode = WeightMode::Uniform;
    let model = train(&dataset, &split, &cfg);
    (scenario, dataset, model)
}

#[test]
#[cfg(not(debug_assertions))]
fn large_park_f32_plane_stays_within_policy() {
    use paws_core::Precision;
    let (scenario, dataset, mut model) = large_park_setup();
    assert_eq!(scenario.park.n_cells(), 50_000);
    let prev = dataset.coverage.last().unwrap().clone();
    let grid = [0.0, 1.0, 4.0];
    let prepared = model.prepare_park(&scenario.park, &dataset, &prev).unwrap();
    let (p64, _) = model.try_park_response_prepared(&prepared, &grid).unwrap();

    // The f32 plane stays within the documented park-scale policy of the
    // f64 surface (≤ 1e-5 on ≥ 99.5 % of cells, flips bounded by leaf gap
    // over fan-in).
    model.set_precision(Precision::F32).unwrap();
    let (p32, _) = model.try_park_response_prepared(&prepared, &grid).unwrap();
    let diffs: Vec<f64> = p64
        .as_slice()
        .iter()
        .zip(p32.as_slice())
        .map(|(a, b)| (a - b).abs())
        .collect();
    let over = diffs.iter().filter(|&&d| d > 1e-5).count();
    let max = diffs.iter().copied().fold(0.0f64, f64::max);
    assert!(
        (over as f64) <= 0.005 * diffs.len() as f64,
        "{over}/{} LLC cells beyond 1e-5",
        diffs.len()
    );
    assert!(max <= 0.5, "max abs divergence {max}");
}

// ---------------------------------------------------------------------------
// Snapshot round trips on the golden models.
// ---------------------------------------------------------------------------

#[test]
fn forest_snapshot_round_trip_reproduces_the_goldens_bit_identically() {
    use paws_ml::snapshot::{read_forest, write_forest};
    // The golden bag's fused arena, through the wire format and back: the
    // decoded forest must predict bit-identically, and its ensemble mean
    // must still hit the pre-refactor goldens.
    let (x, labels, _) = training_data();
    let bag = BaggingClassifier::fit(&BaggingConfig::trees(8, 9), x.view(), &labels);
    let forest = bag.forest().expect("tree ensembles are arena-backed");

    let bytes = write_forest(forest);
    let loaded = read_forest(&bytes).expect("golden snapshot decodes");
    assert_eq!(write_forest(&loaded), bytes, "re-encode must be canonical");

    let q = query(&x);
    let reference = forest.predict_proba_batch(q);
    let batch = loaded.predict_proba_batch(q);
    assert_eq!(batch.as_slice(), reference.as_slice(), "reloaded arena");

    // Ensemble mean from the reloaded arena vs the golden constants.
    let mean: Vec<f64> = (0..q.n_rows())
        .map(|r| (0..loaded.n_trees()).map(|t| batch.get(t, r)).sum::<f64>() / 8.0)
        .collect();
    assert_close(&mean, &GOLDEN_BAG_PROB, "reloaded bag prob");
}

#[test]
fn iware_stack_snapshot_round_trip_reproduces_the_goldens_bit_identically() {
    // The golden iWare-E model's fused learner stack through the wire
    // format: the reconstructed model must serve the exact golden response
    // surfaces.
    let (x, labels, efforts) = training_data();
    let model = IWareModel::fit(&iware_config(), x.view(), &labels, &efforts);
    let bytes = model
        .to_stack_snapshot()
        .expect("golden stack is snapshotable");
    let loaded =
        IWareModel::from_stack_snapshot(&bytes, iware_config()).expect("golden snapshot decodes");

    let grid = [0.5, 1.0, 2.0, 3.5];
    let (ref_p, ref_v) = model.effort_response(query(&x), &grid);
    let (er_p, er_v) = loaded.effort_response(query(&x), &grid);
    assert_eq!(er_p.as_slice(), ref_p.as_slice(), "reloaded response prob");
    assert_eq!(er_v.as_slice(), ref_v.as_slice(), "reloaded response var");
    assert_close(
        er_p.row(0),
        &GOLDEN_IWARE_RESPONSE_P_ROW0,
        "reloaded vs golden p",
    );
    assert_close(
        er_v.row(0),
        &GOLDEN_IWARE_RESPONSE_V_ROW0,
        "reloaded vs golden v",
    );
}

// ---------------------------------------------------------------------------
// Layout invariances of the new code path.
// ---------------------------------------------------------------------------

#[test]
fn gather_equals_row_cloned_subset_for_training() {
    let (rows, labels, _) = synth(300, 77);
    let x = Matrix::from_rows(&rows);
    let idx: Vec<usize> = (0..rows.len()).filter(|i| i % 3 != 0).collect();

    // Index-gathered subset…
    let gathered = x.gather(&idx);
    // …versus the old-style per-row cloned subset.
    let cloned: Vec<Vec<f64>> = idx.iter().map(|&i| rows[i].clone()).collect();
    let cloned = Matrix::from_rows(&cloned);
    assert_eq!(gathered, cloned, "gather must equal per-row clones");

    let sub_labels: Vec<f64> = idx.iter().map(|&i| labels[i]).collect();
    let a = DecisionTree::fit(&TreeConfig::default(), gathered.view(), &sub_labels, 5);
    let b = DecisionTree::fit(&TreeConfig::default(), cloned.view(), &sub_labels, 5);
    assert_eq!(
        a.predict_proba(x.view().head(25)),
        b.predict_proba(x.view().head(25)),
        "training on gathered vs cloned subsets must be identical"
    );
}

#[test]
fn batch_prediction_equals_per_row_prediction() {
    let (rows, labels, _) = synth(200, 99);
    let x = Matrix::from_rows(&rows);
    let tree = DecisionTree::fit(&TreeConfig::default(), x.view(), &labels, 1);
    let svm = LinearSvm::fit(&SvmConfig::default(), x.view(), &labels, 1);
    let gp = GaussianProcess::fit(
        &GpConfig {
            max_points: 90,
            ..GpConfig::default()
        },
        x.view(),
        &labels,
        1,
    );
    let q = x.view().head(30);
    for (name, batch, model) in [
        ("tree", tree.predict_proba(q), &tree as &dyn Classifier),
        ("svm", svm.predict_proba(q), &svm as &dyn Classifier),
        ("gp", gp.predict_proba(q), &gp as &dyn Classifier),
    ] {
        for (i, &p) in batch.iter().enumerate() {
            assert_eq!(p, model.predict_proba_one(q.row(i)), "{name} row {i}");
        }
    }
}

#[test]
fn scaler_in_place_equals_fresh_transform() {
    let (rows, _, _) = synth(150, 5);
    let x = Matrix::from_rows(&rows);
    let scaler = StandardScaler::fit(x.view());
    // Borrowed transform…
    let transformed = scaler.transform(x.view());
    // …versus consuming in-place fit_transform.
    let (scaler2, in_place) = StandardScaler::fit_transform(x.clone());
    assert_eq!(scaler.n_features(), scaler2.n_features());
    assert_eq!(transformed, in_place);
    // …versus the per-row reference.
    for (i, r) in rows.iter().enumerate() {
        let mut row = r.clone();
        scaler.transform_row(&mut row);
        assert_eq!(transformed.row(i), row.as_slice());
    }
}

#[test]
fn empty_prediction_batches_return_empty_results() {
    // Regression: the flat member/learner prediction tables cannot represent
    // an n × 0 matrix, so the public predict paths guard empty batches (the
    // nested-Vec implementation returned empty vectors here).
    let (x, labels, efforts) = training_data();
    let empty = x.gather(&[]);

    let bag = BaggingClassifier::fit(&BaggingConfig::trees(3, 1), x.view(), &labels);
    assert!(bag.predict_proba(empty.view()).is_empty());
    let (p, v) = bag.predict_with_variance(empty.view());
    assert!(p.is_empty() && v.is_empty());

    let model = IWareModel::fit(&iware_config(), x.view(), &labels, &efforts);
    assert!(model.predict_proba_at_effort(empty.view(), &[]).is_empty());
    let (p, v) = model.predict_with_variance_at_effort(empty.view(), &[]);
    assert!(p.is_empty() && v.is_empty());
    let (er_p, er_v) = model.effort_response(empty.view(), &[0.5, 1.0]);
    assert_eq!(er_p.n_rows(), 0);
    assert_eq!(er_v.n_rows(), 0);
    assert_eq!(er_p.n_cols(), 2);
}

// ---------------------------------------------------------------------------
// Bit pins of the f32 prediction plane.
// ---------------------------------------------------------------------------
//
// The tolerance tests above accept any f32 surface within 1e-5 of the f64
// goldens, so a change that reorders one f32 sum would pass them. These
// goldens pin the f32 plane's exact bits instead: literals on the golden
// scenario, FNV-1a 64 hashes of every f32 entry point the serving paths
// reach on the test park.

/// FNV-1a 64 over the little-endian bytes of each value's `to_bits`.
fn fnv1a_bits(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const GOLDEN_F32_BAG_PROB: [f64; 10] = [
    0.8541667461395264,
    0.734375,
    0.1458333432674408,
    0.875,
    0.0,
    0.0,
    0.682066798210144,
    0.5161764621734619,
    0.05000000074505806,
    0.6833333373069763,
];
const GOLDEN_F32_BAG_VAR: [f64; 10] = [
    0.0516493022441864,
    0.103271484375,
    0.0655382052063942,
    0.109375,
    0.0,
    0.0,
    0.055602509528398514,
    0.0583881214261055,
    0.017499998211860657,
    0.1386111080646515,
];
const GOLDEN_F32_IWARE_RESPONSE_P_ROW0: [f64; 4] =
    [1.0, 1.0, 0.8625063300132751, 0.9210087656974792];
const GOLDEN_F32_IWARE_RESPONSE_V_ROW0: [f64; 4] =
    [0.0, 0.0, 0.06874680519104004, 0.039495617151260376];
/// Hashes of the whole 10 × 4 f32 response surfaces `(probs, vars)`.
const GOLDEN_F32_IWARE_RESPONSE_HASHES: (u64, u64) = (0x6d4f_4814_3139_ed0a, 0x4d71_e4f9_4cb1_9961);

/// Hashes of one test-park model's f32 outputs: `[risk, uncertainty]` at
/// effort 1.5 km, `[probs, vars]` of the response surfaces over
/// [`F32_PIN_GRID`], and `predict` on the test split at a constant 1.5 km
/// and at the recorded efforts.
struct F32ParkPins {
    risk: [u64; 2],
    response: [u64; 2],
    predict_constant: u64,
    predict_varying: u64,
}

const F32_PIN_GRID: [f64; 4] = [0.5, 1.0, 2.0, 3.5];

const GOLDEN_F32_DTB_IW: F32ParkPins = F32ParkPins {
    risk: [0xc250_0ff9_f557_edf7, 0x1769_78e6_8c4a_a939],
    response: [0xe111_1582_40fd_fc31, 0xa9cd_5980_4407_4c82],
    predict_constant: 0xdacf_716e_cb0f_df3d,
    predict_varying: 0x291d_2a62_fdf2_a461,
};

const GOLDEN_F32_DTB: F32ParkPins = F32ParkPins {
    risk: [0xfdd0_0bed_8b6a_410f, 0xe71d_eb71_9409_b219],
    response: [0x4fab_eb99_8d7b_ce5d, 0x7066_1884_e371_16b5],
    predict_constant: 0x7281_3e5d_86c0_9bd7,
    predict_varying: 0x7281_3e5d_86c0_9bd7,
};

fn assert_bits(actual: &[f64], golden: &[f64], what: &str) {
    assert_eq!(actual.len(), golden.len(), "{what}: length mismatch");
    for (i, (a, g)) in actual.iter().zip(golden).enumerate() {
        assert_eq!(
            a.to_bits(),
            g.to_bits(),
            "{what}[{i}]: {a} is not the pinned {g}"
        );
    }
}

#[test]
fn f32_plane_bits_match_the_pinned_goldens_on_the_golden_scenario() {
    use paws_ml::Precision;
    let (x, labels, efforts) = training_data();
    let mut bag = BaggingClassifier::fit(&BaggingConfig::trees(8, 9), x.view(), &labels);
    bag.set_precision(Precision::F32).unwrap();
    let (p, v) = bag.predict_with_variance(query(&x));
    assert_bits(&p, &GOLDEN_F32_BAG_PROB, "f32 bagging prob");
    assert_bits(&v, &GOLDEN_F32_BAG_VAR, "f32 bagging spread var");
    assert_bits(
        &bag.predict_proba(query(&x)),
        &GOLDEN_F32_BAG_PROB,
        "f32 proba",
    );

    let mut model = IWareModel::fit(&iware_config(), x.view(), &labels, &efforts);
    model.set_precision(Precision::F32).unwrap();
    let (er_p, er_v) = model.effort_response(query(&x), &F32_PIN_GRID);
    assert_bits(
        er_p.row(0),
        &GOLDEN_F32_IWARE_RESPONSE_P_ROW0,
        "f32 response prob",
    );
    assert_bits(
        er_v.row(0),
        &GOLDEN_F32_IWARE_RESPONSE_V_ROW0,
        "f32 response var",
    );
    assert_eq!(
        (fnv1a_bits(er_p.as_slice()), fnv1a_bits(er_v.as_slice())),
        GOLDEN_F32_IWARE_RESPONSE_HASHES,
        "f32 response surfaces"
    );
}

#[test]
fn f32_plane_bits_match_the_pinned_goldens_on_the_test_park() {
    use paws_core::{train, ModelConfig, Precision, Scenario, WeakLearnerKind};
    use paws_data::{build_dataset, split_by_test_year, Discretization};
    let scenario = Scenario::test_scenario(3);
    let history = scenario.simulate_years(2014, 3);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let split = split_by_test_year(&dataset, 2016, 2).expect("split exists");
    let prev = dataset.coverage.last().expect("coverage recorded").clone();
    let test_rows = dataset.feature_rows(&split.test);
    let test_efforts = dataset.efforts(&split.test);
    for (use_iware, golden) in [(true, GOLDEN_F32_DTB_IW), (false, GOLDEN_F32_DTB)] {
        let mut cfg = ModelConfig::new(WeakLearnerKind::DecisionTree, use_iware, 7);
        cfg.n_learners = 4;
        cfg.n_estimators = 4;
        cfg.precision = Precision::F32;
        let model = train(&dataset, &split, &cfg);
        let what = if use_iware { "DTB-iW" } else { "DTB" };
        let hash2 = |(a, b): (&[f64], &[f64])| [fnv1a_bits(a), fnv1a_bits(b)];

        let prepared = model
            .prepare_park(&scenario.park, &dataset, &prev)
            .expect("test park prepares");
        let (r, u) = model
            .try_risk_map_prepared(&prepared, 1.5)
            .expect("valid effort level");
        assert_eq!(hash2((&r, &u)), golden.risk, "{what} prepared risk map");
        let (p, v) = model
            .try_park_response_prepared(&prepared, &F32_PIN_GRID)
            .expect("valid effort grid");
        assert_eq!(
            hash2((p.as_slice(), v.as_slice())),
            golden.response,
            "{what} prepared response"
        );

        let constant = model.predict(test_rows.view(), &vec![1.5; test_rows.n_rows()]);
        assert_eq!(
            fnv1a_bits(&constant),
            golden.predict_constant,
            "{what} predict"
        );
        let varying = model.predict(test_rows.view(), &test_efforts);
        assert_eq!(
            fnv1a_bits(&varying),
            golden.predict_varying,
            "{what} varying-effort predict"
        );
    }
}

// ---------------------------------------------------------------------------
// Bit pins of patrol plans.
// ---------------------------------------------------------------------------
//
// The planner tests compare plans with each other and with an LP oracle
// (the greedy fill against the LP optimum within 1e-9), so a change that
// moved every plan's last bits alike would pass them. These pins fix each plan's
// exact bits: FNV-1a 64 over the coverage followed by the objective, plus
// the status and both solve counters.

#[derive(Debug, PartialEq, Eq)]
struct PlanPin {
    bits: u64,
    status: SolveStatus,
    lp_solves: usize,
    nodes: usize,
}

fn plan_pin(plan: &PatrolPlan) -> PlanPin {
    let mut values = plan.coverage.clone();
    values.push(plan.objective);
    PlanPin {
        bits: fnv1a_bits(&values),
        status: plan.status,
        lp_solves: plan.lp_solves,
        nodes: plan.nodes,
    }
}

/// The planner unit tests' synthetic problem: test park (seed 7), its
/// first patrol post, deterministic per-cell detection and variance curves
/// on the grid `[0, 0.5, 1, 2, 4, 8]` km.
fn synthetic_plan_problem(beta: f64, patrol_length_km: f64, n_patrols: usize) -> PlanningProblem {
    let park = paws_geo::Park::generate(&paws_geo::parks::test_park_spec(), 7);
    let grid: [f64; 6] = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    let probs: Vec<Vec<f64>> = (0..park.n_cells())
        .map(|i| {
            let scale = 0.1 + 0.8 * ((i * 37) % 100) as f64 / 100.0;
            grid.iter()
                .map(|&e| scale * (1.0 - (-0.7 * e).exp()))
                .collect()
        })
        .collect();
    let vars: Vec<Vec<f64>> = (0..park.n_cells())
        .map(|i| {
            let base = 0.05 + 0.4 * ((i * 61) % 100) as f64 / 100.0;
            grid.iter().map(|&e| base + 0.03 * e).collect()
        })
        .collect();
    PlanningProblem::from_response(
        &park,
        park.patrol_posts[0],
        &grid,
        &Matrix::from_rows(&probs),
        &Matrix::from_rows(&vars),
        patrol_length_km,
        n_patrols,
        beta,
    )
}

const PLAN_BETAS: [f64; 3] = [0.0, 0.5, 1.0];

/// The greedy allocation plan at T = 8 km, K = 2, one pin per β in
/// [`PLAN_BETAS`].
const GOLDEN_PLAN_ALLOCATION: [PlanPin; 3] = [
    PlanPin {
        bits: 0xe734_3c7a_a90a_a984,
        status: SolveStatus::Optimal,
        lp_solves: 0,
        nodes: 0,
    },
    PlanPin {
        bits: 0x47a7_5f09_ad41_f6fa,
        status: SolveStatus::Optimal,
        lp_solves: 0,
        nodes: 0,
    },
    PlanPin {
        bits: 0x6fc3_ed98_28e2_8370,
        status: SolveStatus::Optimal,
        lp_solves: 0,
        nodes: 0,
    },
];
/// T = 80 km, K = 2, β = 0.5: every test-park cell is a candidate.
const GOLDEN_PLAN_WIDE: PlanPin = PlanPin {
    bits: 0x067e_d9aa_43fc_fa7c,
    status: SolveStatus::Optimal,
    lp_solves: 0,
    nodes: 0,
};
/// The test-park DTB-iW model of the f32 pins above, on the default f64
/// plane, planned through a prepared park: post 0, grid
/// `[0, 0.5, 1, 2, 4]`, T = 8 km, K = 2, β = 0.8.
const GOLDEN_PLAN_PREPARED: PlanPin = PlanPin {
    bits: 0x8015_e136_c5bb_1139,
    status: SolveStatus::Optimal,
    lp_solves: 0,
    nodes: 0,
};

#[test]
fn allocation_plans_match_the_pinned_bits() {
    let config = PlannerConfig::default();
    for (beta, golden) in PLAN_BETAS.into_iter().zip(&GOLDEN_PLAN_ALLOCATION) {
        let plan = try_plan(&synthetic_plan_problem(beta, 8.0, 2), &config).unwrap();
        assert_eq!(&plan_pin(&plan), golden, "beta {beta}");
    }

    let wide = synthetic_plan_problem(0.5, 80.0, 2);
    assert_eq!(
        wide.n_cells(),
        paws_geo::Park::generate(&paws_geo::parks::test_park_spec(), 7).n_cells()
    );
    let plan = try_plan(&wide, &config).unwrap();
    assert_eq!(plan_pin(&plan), GOLDEN_PLAN_WIDE, "every cell");
}

#[test]
fn prepared_park_plan_matches_the_pinned_bits() {
    use paws_core::{train, ModelConfig, Scenario, WeakLearnerKind};
    use paws_data::{build_dataset, split_by_test_year, Discretization};
    let scenario = Scenario::test_scenario(3);
    let history = scenario.simulate_years(2014, 3);
    let dataset = build_dataset(&scenario.park, &history, Discretization::quarterly());
    let split = split_by_test_year(&dataset, 2016, 2).expect("split exists");
    let prev = dataset.coverage.last().expect("coverage recorded").clone();
    let mut cfg = ModelConfig::new(WeakLearnerKind::DecisionTree, true, 7);
    cfg.n_learners = 4;
    cfg.n_estimators = 4;
    let model = train(&dataset, &split, &cfg);
    let prepared = model
        .prepare_park(&scenario.park, &dataset, &prev)
        .expect("test park prepares");
    let problem = model
        .try_planning_problem_prepared(
            &scenario.park,
            &prepared,
            scenario.park.patrol_posts[0],
            &[0.0, 0.5, 1.0, 2.0, 4.0],
            8.0,
            2,
            0.8,
        )
        .expect("valid planning query");
    let plan = try_plan(&problem, &PlannerConfig::default()).unwrap();
    assert_eq!(plan_pin(&plan), GOLDEN_PLAN_PREPARED);
}

// ---------------------------------------------------------------------------
// Bit pins of planning problems.
// ---------------------------------------------------------------------------
//
// The plan pins above fix what the planner returns, but only for one
// park and short patrols. These pins fix the problems themselves, as
// `try_planning_problem_from_response` builds them from raw surfaces: the
// candidate list, every candidate's travel distance and resampled g and ν
// breakpoints, and the candidate graph. The raw variances include zeros
// and negative entries, which the squash's scale fit skips and its
// logistic map clamps to 0.

/// FNV-1a 64 over the little-endian bytes of each word.
fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Every field of a planning problem that depends on the park, the post
/// and the surfaces, as words: the post and its index, then per candidate
/// its cell, park index, travel distance, g and ν breakpoints and
/// neighbour list.
fn problem_words(problem: &PlanningProblem, out: &mut Vec<u64>) {
    let bits = |out: &mut Vec<u64>, xs: &[f64]| {
        out.push(xs.len() as u64);
        out.extend(xs.iter().map(|x| x.to_bits()));
    };
    out.push(u64::from(problem.post.0));
    out.push(problem.post_index as u64);
    out.push(problem.cells.len() as u64);
    for (cell, neighbours) in problem.cells.iter().zip(&problem.neighbours) {
        out.push(u64::from(cell.cell.0));
        out.push(cell.park_index as u64);
        out.push(cell.travel_km.to_bits());
        for pwl in [&cell.g, &cell.nu] {
            bits(out, pwl.xs());
            bits(out, pwl.ys());
        }
        out.push(neighbours.len() as u64);
        out.extend(neighbours.iter().map(|&n| n as u64));
    }
}

/// Synthetic raw response surfaces over `levels` effort levels: a
/// saturating detection curve per cell, and variances that are zero in
/// every eleventh entry, negative in every thirteenth and otherwise
/// spread over about a factor of ten.
fn raw_surfaces(n_cells: usize, levels: &[f64]) -> (Matrix, Matrix) {
    let mut probs = Matrix::zeros(n_cells, levels.len());
    let mut vars = Matrix::zeros(n_cells, levels.len());
    for i in 0..n_cells {
        let scale = 0.1 + 0.8 * ((i * 37) % 100) as f64 / 100.0;
        let rate = 0.3 + 0.5 * ((i * 53) % 97) as f64 / 97.0;
        for (l, &e) in levels.iter().enumerate() {
            probs.row_mut(i)[l] = scale * (1.0 - (-rate * e).exp());
            let k = i * levels.len() + l;
            vars.row_mut(i)[l] = if k.is_multiple_of(11) {
                0.0
            } else if k.is_multiple_of(13) {
                -0.02 * (1 + k % 5) as f64
            } else {
                0.01 + 0.1 * ((i * 61 + l * 17) % 100) as f64 / 100.0 + 0.002 * e
            };
        }
    }
    (probs, vars)
}

/// Per case: park, patrol length (km), candidates summed over the posts,
/// and the FNV-1a hash of every post's problem in post order. K = 2 and
/// β = 0.8 throughout.
const GOLDEN_PROBLEMS: [(&str, f64, usize, u64); 7] = [
    ("QENP", 1.0, 8, 0x0bcf_89b0_1bc8_5b25),
    ("QENP", 12.0, 566, 0xd7cf_75e6_2bd4_a5db),
    ("QENP", 40.0, 4280, 0xb6cd_0f9f_2074_e519),
    ("SWS", 1.0, 6, 0xdbd1_7175_ee40_cbc1),
    ("SWS", 12.0, 405, 0x94ae_dee1_eb5c_55fc),
    ("SWS", 40.0, 3231, 0x12b6_e619_3145_048a),
    ("test", 80.0, 1500, 0x982d_5110_63d8_e1cd),
];

#[test]
fn planning_problems_from_raw_surfaces_match_the_pinned_bits() {
    use paws_core::try_planning_problem_from_response;
    use paws_geo::parks::{qenp_spec, sws_spec, test_park_spec};
    use paws_geo::Park;
    let parks = [
        ("QENP", Park::generate(&qenp_spec(), 2013)),
        ("SWS", Park::generate(&sws_spec(), 2013)),
        ("test", Park::generate(&test_park_spec(), 7)),
    ];
    let levels = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    let pins: Vec<(&str, f64, usize, u64)> = GOLDEN_PROBLEMS
        .iter()
        .map(|&(name, patrol_km, _, _)| {
            let park = &parks.iter().find(|(n, _)| *n == name).unwrap().1;
            let (probs, vars) = raw_surfaces(park.n_cells(), &levels);
            let mut words = Vec::new();
            let mut total = 0;
            for &post in &park.patrol_posts {
                let problem = try_planning_problem_from_response(
                    park, post, &levels, &probs, &vars, patrol_km, 2, 0.8,
                )
                .expect("valid planning query");
                if name == "test" {
                    assert_eq!(problem.n_cells(), park.n_cells(), "every cell in reach");
                }
                total += problem.n_cells();
                problem_words(&problem, &mut words);
            }
            (name, patrol_km, total, fnv1a_words(words))
        })
        .collect();
    assert_eq!(pins, GOLDEN_PROBLEMS);
}
