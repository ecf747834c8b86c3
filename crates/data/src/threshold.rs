//! Positive-label rate as a function of patrol-effort threshold (Fig. 4).
//!
//! Sec. III-C: "the percentage of illegal activity detected increases
//! proportionally to patrol effort exerted. Thus, given a threshold θ of
//! patrol effort, negative data samples recorded based on a patrol effort of
//! c ≥ θ are relatively more reliable". Fig. 4 plots, for thresholds placed
//! at patrol-effort percentiles, the percentage of positive labels among the
//! points whose effort is at least the threshold.

use serde::Serialize;

/// One point of the Fig. 4 curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ThresholdPoint {
    /// Patrol-effort percentile of the threshold (0–100).
    pub percentile: f64,
    /// Effort value (km) at that percentile.
    pub effort_km: f64,
    /// Percentage of positive labels among points with effort ≥ threshold.
    pub pct_positive: f64,
    /// Number of points retained at this threshold.
    pub n_points: usize,
}

/// The value at a given percentile (0–100) of a sample, using linear
/// interpolation between order statistics.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!(
        (0.0..=100.0).contains(&pct),
        "percentile must be in [0, 100]"
    );
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Compute the Fig. 4 curve: positive-label percentage among points whose
/// patrol effort is at least the threshold placed at each requested
/// percentile.
///
/// `efforts` and `labels` are parallel slices over data points.
pub fn positive_rate_by_effort_percentile(
    efforts: &[f64],
    labels: &[bool],
    percentiles: &[f64],
) -> Vec<ThresholdPoint> {
    assert_eq!(
        efforts.len(),
        labels.len(),
        "efforts/labels length mismatch"
    );
    assert!(!efforts.is_empty(), "no data points");
    percentiles
        .iter()
        .map(|&pct| {
            let theta = percentile(efforts, pct);
            let mut kept = 0usize;
            let mut positive = 0usize;
            for (e, &l) in efforts.iter().zip(labels) {
                if *e >= theta {
                    kept += 1;
                    if l {
                        positive += 1;
                    }
                }
            }
            ThresholdPoint {
                percentile: pct,
                effort_km: theta,
                pct_positive: if kept == 0 {
                    0.0
                } else {
                    100.0 * positive as f64 / kept as f64
                },
                n_points: kept,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert!((percentile(&v, 25.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
    }

    #[test]
    fn higher_effort_points_have_higher_positive_rate() {
        // Construct data where detections only happen with effort >= 2 km,
        // mirroring the one-sided noise mechanism.
        let efforts: Vec<f64> = (0..100).map(|i| i as f64 / 20.0).collect();
        // Positive fraction grows with effort: floor(e) out of every 5 points.
        let labels: Vec<bool> = efforts
            .iter()
            .enumerate()
            .map(|(i, &e)| (i % 5) < (e.floor() as usize).min(5))
            .collect();
        let curve = positive_rate_by_effort_percentile(&efforts, &labels, &[0.0, 40.0, 80.0]);
        assert!(curve[0].pct_positive <= curve[1].pct_positive);
        assert!(curve[1].pct_positive <= curve[2].pct_positive);
        assert!(curve[0].n_points >= curve[2].n_points);
    }

    #[test]
    fn all_negative_labels_yield_zero_curve() {
        let efforts = vec![0.5, 1.0, 2.0, 3.0];
        let labels = vec![false; 4];
        let curve = positive_rate_by_effort_percentile(&efforts, &labels, &[0.0, 50.0]);
        assert!(curve.iter().all(|p| p.pct_positive == 0.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        positive_rate_by_effort_percentile(&[1.0], &[true, false], &[0.0]);
    }
}
