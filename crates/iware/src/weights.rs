//! Classifier-weight optimisation for the iWare-E ensemble.
//!
//! Sec. IV, first enhancement: instead of weighing every qualified
//! classifier equally, the enhanced iWare-E "hold\[s\] out a testing set and
//! perform\[s\] 5-fold cross validation to minimize the log loss of the
//! predictions when varying the classifier weights", then retrains on the
//! full training data with those weights.
//!
//! The optimiser works on the (validation-prediction, qualified-prefix,
//! label) triples produced during cross-validation. Weights live on the
//! probability simplex; per test point only the qualified learners'
//! (renormalised) weights contribute. The simplex is parameterised with a
//! softmax and optimised by gradient descent with a central-difference
//! gradient, so each iteration scores 2·L perturbed weight vectors (L ≤ 20
//! learners) and one candidate step.
//!
//! # The fused pass
//!
//! Thresholds are strictly ascending, so a point's qualified learners are
//! always a prefix `0..k`. A weight vector's prefix sum Σ_{j<k} w_j then
//! depends on `k` alone, not on the point. [`optimize_weights`] scores all
//! 2·L central-difference vectors of an iteration in one pass over the
//! flat `points × learners` prediction matrix: the vectors sit side by
//! side in groups of four, each with its own prefix sums (computed once
//! per pass), weighted-sum accumulator and running loss, so every
//! prediction row is read once for all of them. The candidate step is
//! scored in a second pass, and a rejected step keeps its gradient (`z`
//! did not move, so recomputing it would give the same bits).
//!
//! The pass is bit-identical to scoring each vector on its own with
//! [`combine`]: per vector it runs the same IEEE operations in the same
//! order — prefix and weighted sums in learner order from 0.0, the
//! `≤ 1e-12` unweighted-mean fallback, the clamp, the `ln`, and the
//! running total in point order divided by n — with no fused
//! multiply-add and no reassociation. Losses, gradients, accepted steps
//! and so the weights are exactly those of the per-vector solve.

use paws_data::matrix::MatrixView;
use serde::{Deserialize, Serialize};

/// How ensemble-member predictions are combined.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WeightMode {
    /// Equal weight to every qualified classifier (original iWare-E).
    Uniform,
    /// Cross-validated log-loss-optimal weights (the paper's enhancement).
    CvOptimized {
        /// Number of stratified CV folds (the paper uses 5). Fewer than
        /// two folds hold nothing out, so `folds < 2` gives uniform
        /// weights, as does a batch too small to stratify.
        folds: usize,
        /// Gradient-descent iterations for the weight fit.
        iterations: usize,
    },
}

impl Default for WeightMode {
    fn default() -> Self {
        WeightMode::CvOptimized {
            folds: 5,
            iterations: 120,
        }
    }
}

/// Qualified weight sums at or below this fall back to the unweighted
/// mean of the qualified learners.
const DEGENERATE_WSUM: f64 = 1e-12;

/// Log-loss clamp keeping predictions of exactly 0 or 1 finite.
const EPS: f64 = 1e-9;

/// Weight vectors scored side by side per prediction row.
const LANES: usize = 4;

/// Combine learner probabilities for one point: renormalise the weights of
/// the qualified learners and take the weighted average.
pub fn combine(probabilities: &[f64], weights: &[f64], qualified: &[usize]) -> f64 {
    debug_assert_eq!(probabilities.len(), weights.len());
    let mut wsum = 0.0;
    let mut acc = 0.0;
    for &i in qualified {
        wsum += weights[i];
        acc += weights[i] * probabilities[i];
    }
    if wsum <= DEGENERATE_WSUM {
        // Degenerate weights: fall back to the unweighted mean of the
        // qualified learners.
        let n = qualified.len().max(1) as f64;
        qualified.iter().map(|&i| probabilities[i]).sum::<f64>() / n
    } else {
        acc / wsum
    }
}

fn softmax(z: &[f64]) -> Vec<f64> {
    let max = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = z.iter().map(|&x| (x - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Up to [`LANES`] weight vectors stored learner-major, so one prediction
/// row updates all of them: `weights[j][lane]` is learner `j`'s weight in
/// vector `lane`, and `prefix[k - 1][lane]` its prefix sum over `0..k`,
/// added in learner order from 0.0. `degenerate[k - 1]` says whether any
/// vector's prefix sum over `0..k` takes the unweighted-mean fallback.
/// Unused lanes hold zero weights and are never scored.
struct LaneGroup {
    weights: Vec<[f64; LANES]>,
    prefix: Vec<[f64; LANES]>,
    degenerate: Vec<bool>,
}

impl LaneGroup {
    fn new(vectors: &[Vec<f64>]) -> Self {
        let n_learners = vectors[0].len();
        let mut weights = vec![[0.0; LANES]; n_learners];
        let mut prefix = vec![[0.0; LANES]; n_learners];
        for (lane, w) in vectors.iter().enumerate() {
            let mut wsum = 0.0;
            for (j, &wj) in w.iter().enumerate() {
                wsum += wj;
                weights[j][lane] = wj;
                prefix[j][lane] = wsum;
            }
        }
        let degenerate = prefix
            .iter()
            .map(|wsum| wsum[..vectors.len()].iter().any(|&s| s <= DEGENERATE_WSUM))
            .collect();
        Self {
            weights,
            prefix,
            degenerate,
        }
    }
}

/// Mean log loss of the combined predictions under each weight vector,
/// all scored in one pass over the prediction rows. `qualified[i]` is
/// point `i`'s qualified-prefix length. Each loss has the bits that
/// [`combine`], the clamp and `ln` give the vector scored on its own.
fn log_losses(
    predictions: MatrixView<'_>,
    qualified: &[usize],
    labels: &[f64],
    vectors: &[Vec<f64>],
) -> Vec<f64> {
    let groups: Vec<LaneGroup> = vectors.chunks(LANES).map(LaneGroup::new).collect();
    let mut totals = vec![0.0; vectors.len()];
    // Per lane, the argument of the point's `ln`: the clamped combined
    // probability, or one minus it for a negative label.
    let mut ln_args = vec![[0.0; LANES]; groups.len()];
    for ((row, &k), &y) in predictions.rows().zip(qualified).zip(labels) {
        let p = &row[..k];
        // The qualified learners' unweighted mean, computed only when some
        // vector's prefix weight sum vanishes at `k`.
        let mut mean = None;
        for (group, args) in groups.iter().zip(&mut ln_args) {
            let mut acc = [0.0; LANES];
            for (w, &pj) in group.weights.iter().zip(p) {
                for (a, &wl) in acc.iter_mut().zip(w) {
                    *a += wl * pj;
                }
            }
            let wsum = &group.prefix[k - 1];
            let mut prob: [f64; LANES] = std::array::from_fn(|lane| acc[lane] / wsum[lane]);
            if group.degenerate[k - 1] {
                let mean = *mean.get_or_insert_with(|| p.iter().sum::<f64>() / k as f64);
                for (pr, &s) in prob.iter_mut().zip(wsum) {
                    if s <= DEGENERATE_WSUM {
                        *pr = mean;
                    }
                }
            }
            let prob = prob.map(|pr| pr.clamp(EPS, 1.0 - EPS));
            *args = if y > 0.5 {
                prob
            } else {
                prob.map(|pr| 1.0 - pr)
            };
        }
        for (total, &arg) in totals.iter_mut().zip(ln_args.iter().flatten()) {
            *total += -arg.ln();
        }
    }
    let n = labels.len().max(1) as f64;
    totals.iter().map(|&t| t / n).collect()
}

/// Central-difference gradient at `z` in the softmax parameterisation,
/// with the 2·L perturbed vectors scored in one fused pass.
fn central_difference(z: &[f64], losses: impl Fn(&[Vec<f64>]) -> Vec<f64>) -> Vec<f64> {
    let h = 1e-4;
    let vectors: Vec<Vec<f64>> = (0..z.len())
        .flat_map(|j| {
            let mut zp = z.to_vec();
            zp[j] += h;
            let mut zm = z.to_vec();
            zm[j] -= h;
            [softmax(&zp), softmax(&zm)]
        })
        .collect();
    losses(&vectors)
        .chunks_exact(2)
        .map(|pm| (pm[0] - pm[1]) / (2.0 * h))
        .collect()
}

/// Fit simplex weights minimising the cross-validated log loss.
///
/// * `predictions` — one row per point: the out-of-fold probability of
///   each learner.
/// * `qualified[point]` — the length `k` of the point's qualified prefix
///   `0..k` (see [`crate::thresholds::qualified_count`]), in `1..=L`.
/// * `labels[point]` — binary labels.
pub fn optimize_weights(
    predictions: MatrixView<'_>,
    qualified: &[usize],
    labels: &[f64],
    iterations: usize,
) -> Vec<f64> {
    assert!(
        !predictions.is_empty(),
        "no validation predictions supplied"
    );
    assert_eq!(
        predictions.n_rows(),
        labels.len(),
        "predictions/labels length mismatch"
    );
    assert_eq!(
        predictions.n_rows(),
        qualified.len(),
        "predictions/qualified length mismatch"
    );
    let n_learners = predictions.n_cols();
    assert!(
        qualified.iter().all(|&k| (1..=n_learners).contains(&k)),
        "qualified-prefix lengths must lie in 1..=n_learners"
    );
    if n_learners == 1 {
        return vec![1.0];
    }
    let losses = |vectors: &[Vec<f64>]| log_losses(predictions, qualified, labels, vectors);

    let mut z = vec![0.0; n_learners];
    let mut lr = 0.5;
    let mut best_w = softmax(&z);
    let mut best_loss = losses(std::slice::from_ref(&best_w))[0];
    // The gradient at `z`, kept while steps are rejected (they leave `z`
    // unchanged).
    let mut grad: Option<Vec<f64>> = None;

    for _ in 0..iterations {
        let g = grad.get_or_insert_with(|| central_difference(&z, losses));
        let candidate: Vec<f64> = z
            .iter()
            .zip(g.iter())
            .map(|(zi, gi)| zi - lr * gi)
            .collect();
        let cand_w = softmax(&candidate);
        let cand_loss = losses(std::slice::from_ref(&cand_w))[0];
        if cand_loss < best_loss {
            best_loss = cand_loss;
            best_w = cand_w;
            z = candidate;
            grad = None;
            lr = (lr * 1.1).min(2.0);
        } else {
            lr *= 0.5;
            if lr < 1e-4 {
                break;
            }
        }
    }
    best_w
}

#[cfg(test)]
mod tests {
    use super::*;
    use paws_data::matrix::Matrix;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The per-vector log loss the fused pass replaced: one full pass over
    /// nested rows and qualified sets per weight vector.
    fn weighted_log_loss(
        predictions: &[Vec<f64>],
        qualified: &[Vec<usize>],
        labels: &[f64],
        weights: &[f64],
    ) -> f64 {
        let eps = 1e-9;
        let mut total = 0.0;
        for ((p, q), &y) in predictions.iter().zip(qualified).zip(labels) {
            let prob = combine(p, weights, q).clamp(eps, 1.0 - eps);
            total += if y > 0.5 {
                -prob.ln()
            } else {
                -(1.0 - prob).ln()
            };
        }
        total / labels.len().max(1) as f64
    }

    /// The optimiser the fused solve replaced: 2·L + 1 separate loss
    /// passes per iteration and the gradient recomputed every iteration.
    /// Returns the weights and the number of steps accepted right after a
    /// rejection: the steps the fused solve takes on a kept gradient.
    fn reference_optimize_weights(
        predictions: &[Vec<f64>],
        qualified: &[Vec<usize>],
        labels: &[f64],
        iterations: usize,
    ) -> (Vec<f64>, usize) {
        let n_learners = predictions[0].len();
        if n_learners == 1 {
            return (vec![1.0], 0);
        }
        let mut z = vec![0.0; n_learners];
        let mut lr = 0.5;
        let mut best_w = softmax(&z);
        let mut best_loss = weighted_log_loss(predictions, qualified, labels, &best_w);
        let mut after_rejection = false;
        let mut kept_gradient_steps = 0;
        for _ in 0..iterations {
            let h = 1e-4;
            let mut grad = vec![0.0; n_learners];
            for j in 0..n_learners {
                let mut zp = z.clone();
                zp[j] += h;
                let lp = weighted_log_loss(predictions, qualified, labels, &softmax(&zp));
                let mut zm = z.clone();
                zm[j] -= h;
                let lm = weighted_log_loss(predictions, qualified, labels, &softmax(&zm));
                grad[j] = (lp - lm) / (2.0 * h);
            }
            let candidate: Vec<f64> = z.iter().zip(&grad).map(|(zi, gi)| zi - lr * gi).collect();
            let cand_w = softmax(&candidate);
            let cand_loss = weighted_log_loss(predictions, qualified, labels, &cand_w);
            if cand_loss < best_loss {
                best_loss = cand_loss;
                best_w = cand_w;
                z = candidate;
                lr = (lr * 1.1).min(2.0);
                kept_gradient_steps += usize::from(after_rejection);
                after_rejection = false;
            } else {
                after_rejection = true;
                lr *= 0.5;
                if lr < 1e-4 {
                    break;
                }
            }
        }
        (best_w, kept_gradient_steps)
    }

    /// The reference's inputs for a flat cache: nested rows and the
    /// qualified sets `0..k`.
    fn nested(predictions: &Matrix, qualified: &[usize]) -> (Vec<Vec<f64>>, Vec<Vec<usize>>) {
        let sets = qualified.iter().map(|&k| (0..k).collect()).collect();
        (predictions.to_rows(), sets)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A random CV cache: `n` points × L learners of out-of-fold
    /// probabilities (label-following to different degrees, with some
    /// pinned at exactly 0, exactly 1 and either side of the clamp),
    /// random qualified prefixes, and labels at a positive rate down to
    /// the paper's 1:200.
    fn random_cache(rng: &mut ChaCha8Rng) -> (Matrix, Vec<usize>, Vec<f64>) {
        let n_learners = rng.gen_range(1..21);
        let n = if rng.gen_bool(0.5) {
            rng.gen_range(1..64)
        } else {
            rng.gen_range(1..3000)
        };
        let positive_rate = [0.5, 0.2, 0.05, 1.0 / 200.0, 0.0, 1.0][rng.gen_range(0..6)];
        let labels: Vec<f64> = (0..n)
            .map(|_| f64::from(rng.gen_bool(positive_rate)))
            .collect();
        let pinned = [
            0.0,
            1.0,
            EPS,
            EPS.next_down(),
            EPS.next_up(),
            1.0 - EPS,
            (1.0 - EPS).next_down(),
            (1.0 - EPS).next_up(),
        ];
        let pinned_rate = [0.0, 0.02, 0.3][rng.gen_range(0..3)];
        let skill: Vec<f64> = (0..n_learners).map(|_| rng.gen_range(-2.0..4.0)).collect();
        let mut flat = Vec::with_capacity(n * n_learners);
        for &y in &labels {
            let sign = if y > 0.5 { 1.0 } else { -1.0 };
            for &s in &skill {
                let p = if rng.gen_bool(pinned_rate) {
                    pinned[rng.gen_range(0..pinned.len())]
                } else {
                    let logit = sign * s + rng.gen_range(-2.0..2.0) - 3.0;
                    1.0 / (1.0 + (-logit).exp())
                };
                flat.push(p);
            }
        }
        let prefix_mode = rng.gen_range(0..3);
        let qualified = (0..n)
            .map(|_| match prefix_mode {
                0 => n_learners,
                1 => 1,
                _ => rng.gen_range(1..n_learners + 1),
            })
            .collect();
        (Matrix::from_flat(flat, n_learners), qualified, labels)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 12 } else { 300 }
        ))]

        #[test]
        fn fused_solver_matches_the_reference_optimizer(seed in 0.0..1e9) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed as u64);
            let (predictions, qualified, labels) = random_cache(&mut rng);
            let iterations = rng.gen_range(0..200);
            let fused = optimize_weights(predictions.view(), &qualified, &labels, iterations);
            let (rows, sets) = nested(&predictions, &qualified);
            let (reference, _) = reference_optimize_weights(&rows, &sets, &labels, iterations);
            proptest::prop_assert!(
                bits(&fused) == bits(&reference),
                "case seed {seed}: {} points x {} learners, {iterations} iterations",
                labels.len(),
                predictions.n_cols()
            );
        }
    }

    #[test]
    fn rejected_steps_reuse_the_gradient_bit_identically() {
        // Long runs on small caches: a step that overshoots is rejected,
        // and the halved step that follows goes along the kept gradient.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut kept_gradient_steps = 0;
        for _ in 0..300 {
            let (predictions, qualified, labels) = random_cache(&mut rng);
            if labels.len() > 300 {
                continue;
            }
            let (rows, sets) = nested(&predictions, &qualified);
            let (reference, kept) = reference_optimize_weights(&rows, &sets, &labels, 199);
            let fused = optimize_weights(predictions.view(), &qualified, &labels, 199);
            assert_eq!(bits(&fused), bits(&reference));
            kept_gradient_steps += kept;
            if kept_gradient_steps >= 3 {
                return;
            }
        }
        panic!("only {kept_gradient_steps} steps were taken on a kept gradient");
    }

    #[test]
    fn fused_losses_match_the_reference_on_degenerate_weights() {
        // Weight vectors whose qualified prefix sums fall to ≤ 1e-12, so
        // the unweighted-mean fallback runs for some (vector, k) pairs and
        // not for others within one lane group.
        let n_learners = 6;
        let underflowed = softmax(&[-800.0, -800.0, -800.0, 0.0, -1.0, -800.0]);
        assert_eq!(underflowed[..3], [0.0; 3]);
        let vectors = vec![
            vec![0.0; n_learners],
            vec![f64::from_bits(1); n_learners],
            vec![1e-13, 1e-13, 1e-13, 0.2, 0.3, 0.5],
            underflowed,
            vec![5e-13, 5e-13, 0.0, 0.0, 0.0, 0.0],
            vec![1.0 / 6.0; n_learners],
            vec![f64::MIN_POSITIVE, 0.0, 0.5, 0.0, 0.25, 0.25],
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 97;
        let labels: Vec<f64> = (0..n).map(|i| f64::from(i % 7 == 0)).collect();
        let pinned = [0.0, 1.0, EPS, 1.0 - EPS];
        let flat: Vec<f64> = (0..n * n_learners)
            .map(|i| {
                if i % 5 == 0 {
                    pinned[i % pinned.len()]
                } else {
                    rng.gen_range(0.0..1.0)
                }
            })
            .collect();
        let predictions = Matrix::from_flat(flat, n_learners);
        let qualified: Vec<usize> = (0..n).map(|i| 1 + i % n_learners).collect();
        let (rows, sets) = nested(&predictions, &qualified);

        let fused = log_losses(predictions.view(), &qualified, &labels, &vectors);
        let reference: Vec<f64> = vectors
            .iter()
            .map(|w| weighted_log_loss(&rows, &sets, &labels, w))
            .collect();
        assert_eq!(bits(&fused), bits(&reference));
        // All-zero weights score the plain mean of each qualified prefix.
        let mean_only = weighted_log_loss(&rows, &sets, &labels, &vectors[0]);
        assert_eq!(fused[1].to_bits(), mean_only.to_bits());
    }

    #[test]
    fn combine_renormalises_over_qualified_learners() {
        let probs = vec![0.1, 0.9, 0.5];
        let weights = vec![0.25, 0.25, 0.5];
        // Only learners 0 and 1 qualified -> (0.25*0.1 + 0.25*0.9)/0.5 = 0.5.
        assert!((combine(&probs, &weights, &[0, 1]) - 0.5).abs() < 1e-12);
        // All qualified -> plain weighted mean.
        assert!((combine(&probs, &weights, &[0, 1, 2]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn combine_falls_back_when_weights_vanish() {
        let probs = vec![0.2, 0.8];
        let weights = vec![0.0, 0.0];
        assert!((combine(&probs, &weights, &[0, 1]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn optimizer_prefers_the_accurate_learner() {
        // Learner 0 predicts the truth, learner 1 predicts noise.
        let n = 200;
        let labels: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { 0.0 }).collect();
        let predictions: Vec<Vec<f64>> = labels
            .iter()
            .enumerate()
            .map(|(i, &y)| {
                let good = if y > 0.5 { 0.9 } else { 0.1 };
                let noisy = if i % 3 == 0 { 0.8 } else { 0.3 };
                vec![good, noisy]
            })
            .collect();
        let predictions = Matrix::from_rows(&predictions);
        let w = optimize_weights(predictions.view(), &vec![2; n], &labels, 200);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w[0] > 0.8, "accurate learner should dominate: {w:?}");
    }

    #[test]
    fn optimized_weights_never_worse_than_uniform() {
        let n = 120;
        let labels: Vec<f64> = (0..n).map(|i| if i % 4 == 0 { 1.0 } else { 0.0 }).collect();
        let predictions: Vec<Vec<f64>> = labels
            .iter()
            .enumerate()
            .map(|(i, &y)| {
                vec![
                    if y > 0.5 { 0.7 } else { 0.3 },
                    if (i / 2) % 2 == 0 { 0.6 } else { 0.4 },
                    0.5,
                ]
            })
            .collect();
        let qualified: Vec<usize> = (0..n).map(|i| if i % 2 == 0 { 3 } else { 2 }).collect();
        let predictions = Matrix::from_rows(&predictions);
        let uniform = vec![1.0 / 3.0; 3];
        let w = optimize_weights(predictions.view(), &qualified, &labels, 150);
        let (rows, sets) = nested(&predictions, &qualified);
        let loss_uniform = weighted_log_loss(&rows, &sets, &labels, &uniform);
        let loss_opt = weighted_log_loss(&rows, &sets, &labels, &w);
        assert!(loss_opt <= loss_uniform + 1e-9);
    }

    #[test]
    fn single_learner_gets_all_the_weight() {
        let predictions = Matrix::from_rows(&[vec![0.3]]);
        let w = optimize_weights(predictions.view(), &[1], &[1.0], 10);
        assert_eq!(w, vec![1.0]);
    }

    #[test]
    fn weights_form_a_probability_simplex() {
        let labels = vec![1.0, 0.0, 1.0, 0.0];
        let predictions = Matrix::from_rows(&[
            vec![0.8, 0.2],
            vec![0.3, 0.6],
            vec![0.7, 0.4],
            vec![0.2, 0.5],
        ]);
        let w = optimize_weights(predictions.view(), &[2; 4], &labels, 100);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w.iter().all(|&x| x >= 0.0));
    }

    #[test]
    #[should_panic(expected = "qualified-prefix lengths")]
    fn empty_qualified_prefixes_are_rejected() {
        let predictions = Matrix::from_rows(&[vec![0.3, 0.6]]);
        optimize_weights(predictions.view(), &[0], &[1.0], 10);
    }
}
