//! Imperfect detection of poaching signs.
//!
//! Sec. III-C: "Positive records are reliable regardless of the amount of
//! patrol effort … but negative labels have different levels of uncertainty
//! which depend on the patrol effort". We model the probability of a ranger
//! detecting an existing snare in a cell as a saturating function of the
//! kilometres patrolled through that cell,
//! `p(detect | attack, effort e) = p_max · (1 − exp(−rate · e))`,
//! which produces exactly the one-sided label noise the iWare-E ensemble is
//! designed to handle and the increasing detection curves of Fig. 4.

/// Saturating detection-probability model.
#[derive(Debug, Clone, Copy)]
pub struct DetectionModel {
    /// Rate of the exponential saturation per km of effort.
    pub rate_per_km: f64,
    /// Asymptotic detection probability with unbounded effort (snares can be
    /// missed even by exhaustive patrols).
    pub max_probability: f64,
}

impl Default for DetectionModel {
    fn default() -> Self {
        Self {
            rate_per_km: 0.9,
            max_probability: 0.95,
        }
    }
}

impl DetectionModel {
    /// Create a detection model.
    ///
    /// # Panics
    /// Panics when parameters are outside their valid ranges.
    pub fn new(rate_per_km: f64, max_probability: f64) -> Self {
        assert!(rate_per_km > 0.0, "detection rate must be positive");
        assert!(
            (0.0..=1.0).contains(&max_probability),
            "max detection probability must be in [0, 1]"
        );
        Self {
            rate_per_km,
            max_probability,
        }
    }

    /// Probability of detecting an existing attack given `effort_km` of
    /// patrolling through the cell.
    #[inline]
    pub fn probability(&self, effort_km: f64) -> f64 {
        if effort_km <= 0.0 {
            return 0.0;
        }
        self.max_probability * (1.0 - (-self.rate_per_km * effort_km).exp())
    }

    /// Joint probability of an attack *and* its detection — the quantity the
    /// predictive model estimates (Pr[a = 1, o = 1] in Sec. V-B).
    #[inline]
    pub fn joint_detection(&self, attack_probability: f64, effort_km: f64) -> f64 {
        attack_probability * self.probability(effort_km)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_effort_never_detects() {
        let d = DetectionModel::default();
        assert_eq!(d.probability(0.0), 0.0);
        assert_eq!(d.probability(-1.0), 0.0);
    }

    #[test]
    fn detection_is_monotone_in_effort() {
        let d = DetectionModel::default();
        let mut prev = 0.0;
        for e in 1..=40 {
            let p = d.probability(e as f64 * 0.25);
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn detection_bounded_by_max() {
        let d = DetectionModel::new(2.0, 0.8);
        assert!(d.probability(100.0) <= 0.8 + 1e-12);
        assert!((d.probability(100.0) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn joint_detection_scales_with_attack_probability() {
        let d = DetectionModel::default();
        let p1 = d.joint_detection(0.2, 1.0);
        let p2 = d.joint_detection(0.4, 1.0);
        assert!((p2 - 2.0 * p1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn rejects_non_positive_rate() {
        let _ = DetectionModel::new(0.0, 0.9);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn rejects_bad_max_probability() {
        let _ = DetectionModel::new(1.0, 1.5);
    }
}
