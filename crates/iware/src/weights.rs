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
//! softmax and optimised by gradient descent on the exact gradient of the
//! loss, so each iteration scores one candidate step.
//!
//! # The fused pass
//!
//! Thresholds are strictly ascending, so a point's qualified learners are
//! always a prefix `0..k`. A weight vector's prefix sum W_k = Σ_{j<k} w_j
//! then depends on `k` alone, not on the point, and is computed once per
//! pass. One pass over the flat `points × learners` prediction matrix
//! gives a weight vector's loss and its gradient together:
//!
//! * **The loss** runs [`combine`]'s IEEE operations in its order —
//!   prefix and weighted sums in learner order from 0.0, the `≤ 1e-12`
//!   unweighted-mean fallback — then the clamp and the `ln`, with the
//!   running total in point order divided by n. A weight vector's loss
//!   has exactly the bits of scoring it point by point with [`combine`].
//! * **The gradient.** A point's combined probability is
//!   p = Σ_{j<k} w_j P_j / W_k, so ∂p/∂w_j = (P_j − p) / W_k for every
//!   qualified learner j. An unclamped point adds dℓ/dp · (P_j − p) / W_k
//!   to each of them; the −p terms are summed once per prefix length and
//!   subtracted as a suffix sum. A clamped point, and one that takes the
//!   unweighted-mean fallback, is flat in the weights and adds 0. The
//!   softmax then gives ∂L/∂z_j = w_j (g_j − Σ_l w_l g_l) / n.
//!
//! [`optimize_weights`] runs one pass at the start and one per iteration,
//! on the candidate step: an accepted candidate's gradient is the next
//! step's, and a rejected step keeps the last accepted gradient (`z` did
//! not move).

use paws_data::matrix::MatrixView;

/// How ensemble-member predictions are combined.
#[derive(Debug, Clone, Copy, PartialEq)]
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
/// mean of the qualified learners. The f32 plane's combine compares
/// against the nearest f32; real weight prefixes are either exactly 0.0
/// (every weight optimised to zero) or far above the cutoff, so both
/// planes agree on which prefixes fall back.
pub(crate) const DEGENERATE_WSUM: f64 = 1e-12;

/// Log-loss clamp keeping predictions of exactly 0 or 1 finite.
const EPS: f64 = 1e-9;

/// Combine learner probabilities for one point whose qualified learners
/// are the prefix `0..k` (see [`crate::thresholds::qualified_count`]):
/// renormalise their weights and take the weighted average.
pub fn combine(probabilities: &[f64], weights: &[f64], k: usize) -> f64 {
    debug_assert_eq!(probabilities.len(), weights.len());
    let mut wsum = 0.0;
    let mut acc = 0.0;
    for (&w, &p) in weights[..k].iter().zip(&probabilities[..k]) {
        wsum += w;
        acc += w * p;
    }
    if wsum <= DEGENERATE_WSUM {
        // Degenerate weights: fall back to the unweighted mean of the
        // qualified learners.
        probabilities[..k].iter().sum::<f64>() / k.max(1) as f64
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

/// Mean log loss of the combined predictions under the simplex weights
/// `w = softmax(z)`, and its gradient with respect to `z`, in one pass over
/// the prediction rows. `qualified[i]` is point `i`'s qualified-prefix
/// length. The loss has the bits that [`combine`], the clamp and `ln` give
/// point by point.
fn loss_and_gradient(
    predictions: MatrixView<'_>,
    qualified: &[usize],
    labels: &[f64],
    w: &[f64],
) -> (f64, Vec<f64>) {
    let prefix: Vec<f64> = w
        .iter()
        .scan(0.0, |wsum, &wj| {
            *wsum += wj;
            Some(*wsum)
        })
        .collect();
    let mut total = 0.0;
    // g_j before the −p terms: Σ dℓ/dp · P_j / W_k over the points that
    // qualify learner j.
    let mut grad_w = vec![0.0; w.len()];
    // Σ dℓ/dp · p / W_k over the points of prefix length k, at k − 1.
    let mut by_prefix = vec![0.0; w.len()];
    for ((row, &k), &y) in predictions.rows().zip(qualified).zip(labels) {
        let p = &row[..k];
        let wsum = prefix[k - 1];
        let degenerate = wsum <= DEGENERATE_WSUM;
        let prob = if degenerate {
            p.iter().sum::<f64>() / k as f64
        } else {
            let mut acc = 0.0;
            for (&wj, &pj) in w.iter().zip(p) {
                acc += wj * pj;
            }
            acc / wsum
        };
        let clamped = prob.clamp(EPS, 1.0 - EPS);
        total += if y > 0.5 {
            -clamped.ln()
        } else {
            -(1.0 - clamped).ln()
        };
        // The fallback mean and the clamp are flat in the weights.
        if degenerate || clamped != prob {
            continue;
        }
        let slope = if y > 0.5 {
            -1.0 / prob
        } else {
            1.0 / (1.0 - prob)
        } / wsum;
        for (g, &pj) in grad_w.iter_mut().zip(p) {
            *g += slope * pj;
        }
        by_prefix[k - 1] += slope * prob;
    }
    // Learner j qualifies in every prefix longer than j.
    let mut suffix = 0.0;
    for (g, &s) in grad_w.iter_mut().zip(&by_prefix).rev() {
        suffix += s;
        *g -= suffix;
    }
    let n = labels.len().max(1) as f64;
    let mean: f64 = w.iter().zip(&grad_w).map(|(wj, gj)| wj * gj).sum();
    let grad_z = w
        .iter()
        .zip(&grad_w)
        .map(|(wj, gj)| wj * (gj - mean) / n)
        .collect();
    (total / n, grad_z)
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
    let pass = |w: &[f64]| loss_and_gradient(predictions, qualified, labels, w);

    let mut z = vec![0.0; n_learners];
    let mut lr = 0.5;
    let mut best_w = softmax(&z);
    // The gradient at `z`, kept while steps are rejected (they leave `z`
    // unchanged).
    let (mut best_loss, mut grad) = pass(&best_w);

    for _ in 0..iterations {
        let candidate: Vec<f64> = z.iter().zip(&grad).map(|(zi, gi)| zi - lr * gi).collect();
        let cand_w = softmax(&candidate);
        let (cand_loss, cand_grad) = pass(&cand_w);
        if cand_loss < best_loss {
            best_loss = cand_loss;
            best_w = cand_w;
            z = candidate;
            grad = cand_grad;
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

    /// The per-vector log loss, one full pass over nested rows and
    /// qualified-prefix lengths per weight vector.
    fn weighted_log_loss(
        predictions: &[Vec<f64>],
        qualified: &[usize],
        labels: &[f64],
        weights: &[f64],
    ) -> f64 {
        let eps = 1e-9;
        let mut total = 0.0;
        for ((p, &k), &y) in predictions.iter().zip(qualified).zip(labels) {
            let prob = combine(p, weights, k).clamp(eps, 1.0 - eps);
            total += if y > 0.5 {
                -prob.ln()
            } else {
                -(1.0 - prob).ln()
            };
        }
        total / labels.len().max(1) as f64
    }

    /// Central difference of [`weighted_log_loss`] in the softmax
    /// parameters at `z`.
    fn central_difference(
        predictions: &[Vec<f64>],
        qualified: &[usize],
        labels: &[f64],
        z: &[f64],
    ) -> Vec<f64> {
        let h = 1e-4;
        (0..z.len())
            .map(|j| {
                let mut zp = z.to_vec();
                zp[j] += h;
                let lp = weighted_log_loss(predictions, qualified, labels, &softmax(&zp));
                let mut zm = z.to_vec();
                zm[j] -= h;
                let lm = weighted_log_loss(predictions, qualified, labels, &softmax(&zm));
                (lp - lm) / (2.0 * h)
            })
            .collect()
    }

    /// Gradient descent with the steps of [`optimize_weights`], but with
    /// the gradient at `z` recomputed on every iteration. Returns the
    /// weights and the number of steps accepted right after a rejection:
    /// the steps [`optimize_weights`] takes on a kept gradient.
    fn recomputing_descent(
        n_learners: usize,
        iterations: usize,
        loss: impl Fn(&[f64]) -> f64,
        gradient: impl Fn(&[f64]) -> Vec<f64>,
    ) -> (Vec<f64>, usize) {
        let mut z = vec![0.0; n_learners];
        let mut lr = 0.5;
        let mut best_w = softmax(&z);
        let mut best_loss = loss(&best_w);
        let (mut after_rejection, mut kept_gradient_steps) = (false, 0);
        for _ in 0..iterations {
            let grad = gradient(&z);
            let candidate: Vec<f64> = z.iter().zip(&grad).map(|(zi, gi)| zi - lr * gi).collect();
            let cand_w = softmax(&candidate);
            let cand_loss = loss(&cand_w);
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

    /// The optimiser with the central-difference gradient: 2·L + 1
    /// separate loss passes per iteration.
    fn reference_optimize_weights(
        predictions: &[Vec<f64>],
        qualified: &[usize],
        labels: &[f64],
        iterations: usize,
    ) -> Vec<f64> {
        let loss = |w: &[f64]| weighted_log_loss(predictions, qualified, labels, w);
        let gradient = |z: &[f64]| central_difference(predictions, qualified, labels, z);
        recomputing_descent(predictions[0].len(), iterations, loss, gradient).0
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
            // The solve starts at the uniform weights and only accepts
            // steps that lower the loss, and it must land as low as the
            // central-difference optimiser, to 1e-6 relative.
            let mut rng = ChaCha8Rng::seed_from_u64(seed as u64);
            let (predictions, qualified, labels) = random_cache(&mut rng);
            let iterations = rng.gen_range(0..200);
            let n_learners = predictions.n_cols();
            let solved = optimize_weights(predictions.view(), &qualified, &labels, iterations);
            let rows = predictions.to_rows();
            let reference = reference_optimize_weights(&rows, &qualified, &labels, iterations);
            let loss = |w: &[f64]| weighted_log_loss(&rows, &qualified, &labels, w);
            let uniform = vec![1.0 / n_learners as f64; n_learners];
            let (solved, reference, uniform) = (loss(&solved), loss(&reference), loss(&uniform));
            proptest::prop_assert!(
                solved <= uniform && solved <= reference * (1.0 + 1e-6),
                "case seed {seed}: {} points x {n_learners} learners, {iterations} iterations: \
                 loss {solved:e}, uniform {uniform:e}, reference {reference:e}",
                labels.len()
            );
        }

        #[test]
        fn analytic_gradient_matches_a_central_difference(seed in 0.0..1e9) {
            // Probabilities stay clear of the clamp: next to 1 − 1e-9,
            // `1 − p` cancels and the central difference reads rounding
            // noise where the exact gradient is 0.
            let mut rng = ChaCha8Rng::seed_from_u64(seed as u64);
            let (predictions, qualified, labels) = random_cache(&mut rng);
            let n_learners = predictions.n_cols();
            let flat = predictions.rows().flatten().map(|&p| 1e-3 + p * (1.0 - 2e-3)).collect();
            let predictions = Matrix::from_flat(flat, n_learners);
            let rows = predictions.to_rows();
            let random_z = (0..n_learners).map(|_| rng.gen_range(-3.0..3.0)).collect();
            for z in [vec![0.0; n_learners], random_z] {
                let (_, analytic) =
                    loss_and_gradient(predictions.view(), &qualified, &labels, &softmax(&z));
                let numeric = central_difference(&rows, &qualified, &labels, &z);
                let scale = analytic.iter().fold(0.0f64, |m, g| m.max(g.abs()));
                let error = analytic
                    .iter()
                    .zip(&numeric)
                    .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
                proptest::prop_assert!(
                    error <= 1e-6 * scale + 1e-9,
                    "case seed {seed}: {} points x {n_learners} learners at z = {z:?}: \
                     error {error:e} against max-norm {scale:e}",
                    labels.len()
                );
            }
        }
    }

    #[test]
    fn clamped_and_degenerate_points_add_nothing_to_the_gradient() {
        // Learner 0 has weight exactly 0, so prefix length 1 takes the
        // unweighted-mean fallback (its points would otherwise divide by
        // W_1 = 0), and every longer prefix combines to a probability
        // outside [1e-9, 1 − 1e-9].
        let w = [0.0, 0.25, 0.75];
        let rows = [
            (vec![0.3, 0.6, 0.2], 1, 1.0),
            (vec![0.9, 0.1, 0.5], 1, 0.0),
            (vec![0.5, 0.0, 0.0], 3, 1.0),
            (vec![0.5, 0.0, 0.0], 2, 0.0),
            (vec![0.1, 1.0, 1.0], 3, 0.0),
            (vec![0.1, 1.0, 1.0], 2, 1.0),
            (vec![0.4, 0.0, 5e-10], 3, 1.0),
            (vec![0.7, 1e-12, 1e-10], 3, 0.0),
            (vec![0.2, (1.0 - EPS).next_up(), 1.0], 2, 1.0),
        ];
        let predictions = Matrix::from_rows(&rows.iter().map(|r| r.0.clone()).collect::<Vec<_>>());
        let qualified: Vec<usize> = rows.iter().map(|r| r.1).collect();
        let labels: Vec<f64> = rows.iter().map(|r| r.2).collect();
        let (loss, grad) = loss_and_gradient(predictions.view(), &qualified, &labels, &w);
        assert!(loss > 1.0, "clamped points still score: {loss}");
        assert!(grad.iter().all(|&g| g == 0.0), "{grad:?}");
        // The same cache with learner 0 weighted has a gradient.
        let (_, grad) =
            loss_and_gradient(predictions.view(), &qualified, &labels, &[0.5, 0.25, 0.25]);
        assert!(grad.iter().any(|&g| g != 0.0), "{grad:?}");
    }

    #[test]
    fn rejected_steps_reuse_the_gradient_bit_identically() {
        // Long runs on small caches: a step that overshoots is rejected,
        // and the halved step that follows goes along the kept gradient.
        // The solve must match a descent that recomputes the gradient at
        // `z` on every iteration.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut kept_gradient_steps = 0;
        for _ in 0..300 {
            let (predictions, qualified, labels) = random_cache(&mut rng);
            if labels.len() > 300 {
                continue;
            }
            let pass = |w: &[f64]| loss_and_gradient(predictions.view(), &qualified, &labels, w);
            let (reference, kept) = recomputing_descent(
                predictions.n_cols(),
                199,
                |w| pass(w).0,
                |z| pass(&softmax(z)).1,
            );
            let solved = optimize_weights(predictions.view(), &qualified, &labels, 199);
            assert_eq!(bits(&solved), bits(&reference));
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
        // the unweighted-mean fallback runs for some prefix lengths and
        // not for others.
        let n_learners = 6;
        let underflowed = softmax(&[-800.0, -800.0, -800.0, 0.0, -1.0, -800.0]);
        assert_eq!(underflowed[..3], [0.0; 3]);
        let vectors = [
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
        let rows = predictions.to_rows();

        let fused: Vec<f64> = vectors
            .iter()
            .map(|w| loss_and_gradient(predictions.view(), &qualified, &labels, w).0)
            .collect();
        let reference: Vec<f64> = vectors
            .iter()
            .map(|w| weighted_log_loss(&rows, &qualified, &labels, w))
            .collect();
        assert_eq!(bits(&fused), bits(&reference));
        // All-zero weights score the plain mean of each qualified prefix.
        let mean_only = weighted_log_loss(&rows, &qualified, &labels, &vectors[0]);
        assert_eq!(fused[1].to_bits(), mean_only.to_bits());
    }

    #[test]
    fn combine_renormalises_over_qualified_learners() {
        let probs = vec![0.1, 0.9, 0.5];
        let weights = vec![0.25, 0.25, 0.5];
        // Only learners 0 and 1 qualified -> (0.25*0.1 + 0.25*0.9)/0.5 = 0.5.
        assert!((combine(&probs, &weights, 2) - 0.5).abs() < 1e-12);
        // All qualified -> plain weighted mean.
        assert!((combine(&probs, &weights, 3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn combine_falls_back_when_weights_vanish() {
        let probs = vec![0.2, 0.8];
        let weights = vec![0.0, 0.0];
        assert!((combine(&probs, &weights, 2) - 0.5).abs() < 1e-12);
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
        let rows = predictions.to_rows();
        let loss_uniform = weighted_log_loss(&rows, &qualified, &labels, &uniform);
        let loss_opt = weighted_log_loss(&rows, &qualified, &labels, &w);
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
