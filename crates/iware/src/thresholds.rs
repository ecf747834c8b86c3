//! Patrol-effort thresholds for the iWare-E filtered datasets.
//!
//! Sec. IV: the original iWare-E picked 16 equally-spaced thresholds from
//! 0 km to 7.5 km; the paper's enhancement selects thresholds at patrol-
//! effort *percentiles* instead, "to produce a consistent amount of training
//! data for each classifier", turning the number of classifiers into the
//! single hyperparameter and handling sparse effort ranges gracefully.
//! [`select_thresholds`] places them that way; the equal-spacing scheme is
//! not implemented.
//!
//! # The qualified prefix
//!
//! Only the learners whose threshold does not exceed a point's patrol
//! effort are qualified to vote on it. Thresholds are strictly ascending,
//! so the qualified learners are always a prefix `0..k` of the learner
//! list, and its length [`qualified_count`] is the only form of a
//! qualified set in this crate: the CV-weight fit scores each point over
//! its prefix, and every prediction combines learners `0..k` in learner
//! order. The invariant holds wherever a model comes from:
//! [`select_thresholds`] emits no duplicates, every fit asserts strictly
//! ascending thresholds before training, and the stack-snapshot decoder
//! rejects thresholds that are not finite and strictly ascending.

/// Compute up to `n` **strictly ascending** thresholds at evenly spaced
/// percentiles of the training efforts.
///
/// The first threshold is always 0 (the classifier trained on the entire
/// dataset), mirroring θ₁ = 0 in the original formulation.
///
/// With heavy ties in the training effort (e.g. many never-patrolled cells
/// recorded at 0.0) several percentiles land on the same value; emitting
/// them verbatim would train identical filtered learners that are then
/// double-counted in the weighted vote. Tied percentile candidates are
/// therefore advanced to the next distinct effort value, and when no
/// strictly larger value remains the list ends early — the result can hold
/// fewer than `n` thresholds, never duplicates.
pub fn select_thresholds(efforts: &[f64], n: usize) -> Vec<f64> {
    assert!(n >= 1, "need at least one threshold");
    assert!(!efforts.is_empty(), "no training efforts supplied");
    let mut sorted = efforts.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut last = 0.0;
    let mut thresholds = Vec::with_capacity(n);
    thresholds.push(last);
    for i in 1..n {
        let pct = i as f64 / n as f64;
        let rank = (pct * (sorted.len() - 1) as f64).round() as usize;
        // A candidate tied with the previous threshold advances to the next
        // distinct effort value; when every remaining effort equals the
        // previous threshold, stop rather than duplicate learners.
        let Some(&next) = sorted[rank..].iter().find(|&&v| v > last) else {
            break;
        };
        thresholds.push(next);
        last = next;
    }
    thresholds
}

/// Length `k` of the qualified prefix `0..k` at a given patrol effort: the
/// number of learners whose threshold does not exceed the effort. The
/// first learner (θ = 0) always qualifies, so `k ≥ 1`.
pub fn qualified_count(thresholds: &[f64], effort: f64) -> usize {
    thresholds.iter().filter(|&&t| t <= effort).count().max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_thresholds_are_ascending_and_start_at_zero() {
        let efforts: Vec<f64> = (1..=100).map(|i| i as f64 / 10.0).collect();
        let t = select_thresholds(&efforts, 10);
        assert_eq!(t.len(), 10);
        assert_eq!(t[0], 0.0);
        for w in t.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(
            *t.last().unwrap() < 10.0,
            "top threshold must leave some data"
        );
    }

    #[test]
    fn percentile_thresholds_balance_data_counts() {
        // With uniformly distributed efforts, consecutive thresholds should
        // each exclude roughly the same number of additional points.
        let efforts: Vec<f64> = (0..1000).map(|i| i as f64 / 100.0).collect();
        let t = select_thresholds(&efforts, 5);
        let counts: Vec<usize> = t
            .iter()
            .map(|&theta| efforts.iter().filter(|&&e| e > theta).count())
            .collect();
        for w in counts.windows(2) {
            let drop = w[0] - w[1];
            assert!((drop as i64 - 200).abs() <= 10, "unequal bucket: {drop}");
        }
    }

    #[test]
    fn tied_percentiles_advance_to_the_next_distinct_effort() {
        // 70% of cells never patrolled: percentiles 1..=3 of 5 all land on
        // 0.0, which used to emit duplicate thresholds (and thus identical
        // filtered learners voting repeatedly).
        let mut efforts = vec![0.0; 70];
        efforts.extend((1..=30).map(|i| i as f64 / 10.0));
        let t = select_thresholds(&efforts, 5);
        for w in t.windows(2) {
            assert!(w[1] > w[0], "thresholds must be strictly ascending: {t:?}");
        }
        assert_eq!(t[0], 0.0);
        // The first tied candidate advances to the smallest positive effort.
        assert!((t[1] - 0.1).abs() < 1e-12, "expected 0.1, got {t:?}");
    }

    #[test]
    fn all_tied_efforts_collapse_to_a_single_threshold() {
        let efforts = vec![0.0; 50];
        let t = select_thresholds(&efforts, 8);
        assert_eq!(t, vec![0.0]);
    }

    #[test]
    fn qualification_grows_with_effort() {
        let thresholds = vec![0.0, 0.5, 1.0, 2.0, 4.0];
        assert_eq!(qualified_count(&thresholds, 0.0), 1);
        assert_eq!(qualified_count(&thresholds, 0.75), 2);
        assert_eq!(qualified_count(&thresholds, 2.0), 4);
        assert_eq!(qualified_count(&thresholds, 10.0), 5);
    }

    #[test]
    fn qualification_never_empty() {
        let thresholds = vec![1.0, 2.0];
        assert_eq!(qualified_count(&thresholds, 0.1), 1);
    }

    #[test]
    fn qualified_count_is_the_length_of_the_qualified_prefix() {
        let mut efforts: Vec<f64> = (0..200).map(|i| f64::from(i % 37) / 4.0).collect();
        efforts.extend([0.0; 60]);
        let threshold_sets = [
            select_thresholds(&efforts, 8),
            select_thresholds(&efforts, 1),
            vec![1.5, 3.0, 4.5, 6.0, 7.5],
        ];
        for thresholds in &threshold_sets {
            assert!(thresholds.windows(2).all(|w| w[1] > w[0]));
            // Below the first threshold, exactly at every threshold (a
            // tie qualifies), just either side of it, and far above.
            let mut probes = vec![-1.0, 0.0, 1.0, 100.0];
            for &t in thresholds {
                probes.extend([t, t.next_down(), t.next_up()]);
            }
            probes.extend(&efforts);
            for &e in &probes {
                // Learners `0..k` qualify (the first one by fallback when
                // its threshold exceeds the effort) and none after them.
                let k = qualified_count(thresholds, e);
                let qualified: Vec<bool> = thresholds.iter().map(|&t| t <= e).collect();
                assert!(
                    qualified[1..k].iter().all(|&q| q),
                    "effort {e} against {thresholds:?}"
                );
                assert!(
                    !qualified[k..].iter().any(|&q| q),
                    "effort {e} against {thresholds:?}"
                );
            }
        }
        // The explicit set starts above every zero effort: only the
        // fallback first learner qualifies there.
        assert_eq!(qualified_count(&threshold_sets[2], 0.0), 1);
        assert_eq!(qualified_count(&threshold_sets[2], 1.5), 1);
        assert_eq!(qualified_count(&threshold_sets[2], 3.0), 2);
    }

    #[test]
    #[should_panic(expected = "at least one threshold")]
    fn zero_thresholds_rejected() {
        select_thresholds(&[1.0], 0);
    }
}
