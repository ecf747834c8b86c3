//! Robustness machinery: squashing uncertainty scores and forming the
//! risk-averse objective.
//!
//! Sec. VI-C: "The uncertainty scores that we get from the GPB-iW model are
//! scaled to the range [0, 1] through a logistic squashing function. We then
//! choose β ∈ [0, 1] to rescale the uncertainty score and ensure that the
//! objective function is always positive." The squashed score multiplies the
//! detection probability in the penalty term of Eq. (4),
//! `U_v(c) = g_v(c) − β·g_v(c)·ν_v(c)`, so `U_v` stays non-negative for any
//! β ≤ 1.

/// Logistic squashing of raw predictive variances into [0, 1).
///
/// `scale` sets the variance magnitude mapped to ≈ 0.46; a good default is
/// the mean variance over the park, which [`VarianceSquash::fit`] computes
/// and [`PlanningProblem::from_raw_response`] uses.
///
/// [`PlanningProblem::from_raw_response`]: crate::PlanningProblem::from_raw_response
#[derive(Debug, Clone, Copy)]
pub struct VarianceSquash {
    /// Characteristic variance scale.
    pub scale: f64,
}

impl VarianceSquash {
    /// Create a squash with an explicit scale.
    pub fn new(scale: f64) -> Self {
        assert!(scale > 0.0, "squash scale must be positive");
        Self { scale }
    }

    /// Fit the scale to the mean of the positive variances, summed in
    /// order (1 when there are none).
    pub fn fit(variances: &[f64]) -> Self {
        let (sum, count) = variances
            .iter()
            .filter(|&&v| v > 0.0)
            .fold((0.0, 0usize), |(sum, count), &v| (sum + v, count + 1));
        let mean = if count == 0 { 1.0 } else { sum / count as f64 };
        Self {
            scale: mean.max(1e-9),
        }
    }

    /// Map a raw variance to [0, 1): `2σ(v / scale) − 1`.
    pub fn apply(&self, variance: f64) -> f64 {
        let v = variance.max(0.0) / self.scale;
        2.0 / (1.0 + (-v).exp()) - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_variance_maps_to_zero() {
        let s = VarianceSquash::new(0.5);
        assert_eq!(s.apply(0.0), 0.0);
        assert_eq!(s.apply(-1.0), 0.0);
    }

    #[test]
    fn squash_is_monotone_and_bounded() {
        let s = VarianceSquash::new(1.0);
        let mut prev = 0.0;
        for i in 1..100 {
            let v = s.apply(i as f64 * 0.2);
            assert!(v > prev);
            assert!(v < 1.0);
            prev = v;
        }
    }

    #[test]
    fn fit_uses_mean_scale() {
        let s = VarianceSquash::fit(&[0.5, 1.5, 1.0]);
        assert!((s.scale - 1.0).abs() < 1e-12);
        // A variance equal to the scale maps to 2σ(1)−1 ≈ 0.462.
        assert!((s.apply(1.0) - 0.4621).abs() < 1e-3);
    }

    #[test]
    fn fit_on_empty_or_zero_variances_stays_finite() {
        let s = VarianceSquash::fit(&[]);
        assert!(s.scale > 0.0);
        let s2 = VarianceSquash::fit(&[0.0, 0.0]);
        assert!(s2.scale > 0.0);
        assert_eq!(s2.apply(0.0), 0.0);
    }

    proptest! {
        #[test]
        fn squash_always_in_unit_interval(v in 0.0..1e6f64, scale in 1e-6..1e3f64) {
            let s = VarianceSquash::new(scale);
            let out = s.apply(v);
            // Numerically the squash saturates at exactly 1.0 for huge ratios.
            prop_assert!((0.0..=1.0).contains(&out));
        }

        #[test]
        fn utility_stays_positive_for_beta_in_unit_interval(
            g in 0.0..1.0f64, v in 0.0..10.0f64, beta in 0.0..1.0f64
        ) {
            let s = VarianceSquash::new(1.0);
            let u = g - beta * g * s.apply(v);
            prop_assert!(u >= 0.0);
        }
    }
}
