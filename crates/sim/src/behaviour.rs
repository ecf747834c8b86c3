//! Ground-truth poacher behaviour model.
//!
//! The real datasets record where rangers *found* snares; the underlying
//! attack process is unobserved. For the reproduction we need a ground truth
//! to (a) generate historical observations with exactly the biases the paper
//! describes and (b) score patrol plans and field tests against the true
//! attack distribution. The model is a boundedly-rational response in the
//! Green Security Game sense: attack probability is a logistic function of
//! landscape attractiveness (animal density, accessibility from the boundary,
//! roads and villages) minus a deterrence term in the rangers' previous
//! patrol coverage, plus seasonal drift for parks with a wet/dry cycle.

use paws_geo::{FeatureKind, Park, Seasonality};
use rand::Rng;

/// Season of a simulated month.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Season {
    /// Dry season (November through April in SWS).
    Dry,
    /// Wet season (May through October).
    Wet,
}

impl Season {
    /// Season of a calendar month (1–12) under the SWS regime.
    pub fn of_month(month: u32) -> Self {
        match month {
            11 | 12 | 1 | 2 | 3 | 4 => Season::Dry,
            _ => Season::Wet,
        }
    }
}

/// Configuration of the ground-truth attack model.
#[derive(Debug, Clone)]
pub struct AttackModelConfig {
    /// Intercept of the logistic attack model; calibrated so the park-wide
    /// mean monthly attack probability matches `target_attack_rate`.
    pub intercept: f64,
    /// Weight on (normalised) animal density.
    pub w_animal: f64,
    /// Weight on boundary accessibility `exp(-dist_boundary / 6 km)`.
    pub w_boundary: f64,
    /// Weight on road accessibility `exp(-dist_road / 5 km)`.
    pub w_road: f64,
    /// Weight on village proximity `exp(-dist_village / 8 km)`.
    pub w_village: f64,
    /// Weight on forest cover (snares are easier to hide under canopy).
    pub w_forest: f64,
    /// Deterrence: reduction in attack logit per km of ranger coverage in
    /// the previous time step.
    pub deterrence: f64,
    /// Strength of the seasonal north/south shift (0 disables it).
    pub seasonal_shift: f64,
    /// Standard deviation of a per-cell idiosyncratic logit offset, giving
    /// poacher preferences the model cannot fully explain from features.
    pub cell_noise_sd: f64,
    /// Park-wide mean monthly attack probability the intercept is calibrated
    /// to reach (before deterrence).
    pub target_attack_rate: f64,
}

impl Default for AttackModelConfig {
    fn default() -> Self {
        Self {
            intercept: -2.0,
            w_animal: 2.2,
            w_boundary: 1.8,
            w_road: 0.9,
            w_village: 1.2,
            w_forest: 0.7,
            deterrence: 0.35,
            seasonal_shift: 0.0,
            cell_noise_sd: 0.6,
            target_attack_rate: 0.08,
        }
    }
}

/// The realised ground-truth poacher model for one park.
#[derive(Debug, Clone)]
pub struct PoacherModel {
    config: AttackModelConfig,
    /// Attractiveness score (logit without intercept/deterrence/season) per
    /// in-park cell, in `Park::cells` order.
    attractiveness: Vec<f64>,
    /// Normalised north/south position in [-0.5, 0.5] per in-park cell
    /// (negative = north); used by the seasonal shift.
    north_south: Vec<f64>,
    seasonality: Seasonality,
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Pull a feature column restricted to in-park cells, normalised to [0, 1].
fn park_column_unit(park: &Park, kind: FeatureKind) -> Option<Vec<f64>> {
    let col = park.features.column(kind)?;
    let vals: Vec<f64> = park.cells.iter().map(|c| col[c.index()]).collect();
    let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let range = (hi - lo).max(1e-12);
    Some(vals.into_iter().map(|v| (v - lo) / range).collect())
}

impl PoacherModel {
    /// Build the ground-truth model for a park, calibrating the intercept so
    /// the mean monthly attack probability (with zero prior coverage) equals
    /// `config.target_attack_rate`.
    pub fn new<R: Rng>(park: &Park, mut config: AttackModelConfig, rng: &mut R) -> Self {
        let n = park.n_cells();
        let zeros = vec![0.0; n];
        let animal =
            park_column_unit(park, FeatureKind::AnimalDensity).unwrap_or_else(|| zeros.clone());
        let forest =
            park_column_unit(park, FeatureKind::ForestCover).unwrap_or_else(|| zeros.clone());
        let d_boundary = park
            .features
            .column(FeatureKind::DistBoundary)
            .map(|col| {
                park.cells
                    .iter()
                    .map(|c| col[c.index()])
                    .collect::<Vec<_>>()
            })
            .unwrap_or_else(|| zeros.clone());
        let d_road = park
            .features
            .column(FeatureKind::DistRoad)
            .map(|col| {
                park.cells
                    .iter()
                    .map(|c| col[c.index()])
                    .collect::<Vec<_>>()
            })
            .unwrap_or_else(|| vec![10.0; n]);
        let d_village = park
            .features
            .column(FeatureKind::DistVillage)
            .map(|col| {
                park.cells
                    .iter()
                    .map(|c| col[c.index()])
                    .collect::<Vec<_>>()
            })
            .unwrap_or_else(|| vec![10.0; n]);

        let attractiveness: Vec<f64> = (0..n)
            .map(|i| {
                config.w_animal * animal[i]
                    + config.w_boundary * (-d_boundary[i] / 6.0).exp()
                    + config.w_road * (-d_road[i] / 5.0).exp()
                    + config.w_village * (-d_village[i] / 8.0).exp()
                    + config.w_forest * forest[i]
                    + rng.gen_range(-1.0..1.0) * config.cell_noise_sd
            })
            .collect();

        let north_south: Vec<f64> = park
            .cells
            .iter()
            .map(|&c| {
                let (row, _) = park.grid.coords(c);
                row as f64 / park.grid.rows().max(1) as f64 - 0.5
            })
            .collect();

        config.intercept = calibrate_intercept(&attractiveness, config.target_attack_rate);

        Self {
            config,
            attractiveness,
            north_south,
            seasonality: park.seasonality,
        }
    }

    /// Configuration used to build the model (with the calibrated intercept).
    pub fn config(&self) -> &AttackModelConfig {
        &self.config
    }

    /// The attractiveness score of each in-park cell.
    pub fn attractiveness(&self) -> &[f64] {
        &self.attractiveness
    }

    /// Ground-truth probability that the adversary at in-park cell index
    /// `cell_idx` places snares during a month, given the ranger coverage
    /// (km patrolled in that cell) of the previous time step.
    pub fn attack_probability(
        &self,
        cell_idx: usize,
        prev_coverage_km: f64,
        season: Season,
    ) -> f64 {
        let seasonal = match (self.seasonality, season) {
            (Seasonality::WetDry, Season::Dry) => {
                -self.config.seasonal_shift * self.north_south[cell_idx]
            }
            (Seasonality::WetDry, Season::Wet) => {
                self.config.seasonal_shift * self.north_south[cell_idx]
            }
            (Seasonality::None, _) => 0.0,
        };
        let logit = self.config.intercept + self.attractiveness[cell_idx] + seasonal
            - self.config.deterrence * prev_coverage_km;
        sigmoid(logit)
    }

    /// Sample the attack indicator for every in-park cell for one month.
    pub fn sample_attacks<R: Rng>(
        &self,
        prev_coverage_km: &[f64],
        season: Season,
        rng: &mut R,
    ) -> Vec<bool> {
        assert_eq!(prev_coverage_km.len(), self.attractiveness.len());
        (0..self.attractiveness.len())
            .map(|i| rng.gen::<f64>() < self.attack_probability(i, prev_coverage_km[i], season))
            .collect()
    }

    /// Number of in-park cells the model covers.
    pub fn n_cells(&self) -> usize {
        self.attractiveness.len()
    }

    /// Convenience: ground-truth attack probabilities for every cell with a
    /// common previous coverage (used by plan evaluation and field tests).
    pub fn attack_probabilities(&self, prev_coverage_km: &[f64], season: Season) -> Vec<f64> {
        (0..self.n_cells())
            .map(|i| self.attack_probability(i, prev_coverage_km[i], season))
            .collect()
    }

    /// Map an in-park cell index back to its attack probability ignoring
    /// deterrence — the "static risk" used for sanity checks.
    pub fn static_risk(&self, cell_idx: usize) -> f64 {
        sigmoid(self.config.intercept + self.attractiveness[cell_idx])
    }
}

/// Solve for the intercept `b` such that `mean_i sigmoid(b + s_i) = target`
/// using bisection; the mean is monotone increasing in `b`.
pub fn calibrate_intercept(scores: &[f64], target: f64) -> f64 {
    assert!(!scores.is_empty(), "cannot calibrate on an empty park");
    assert!(
        target > 0.0 && target < 1.0,
        "target rate must be in (0, 1)"
    );
    let mean_at =
        |b: f64| scores.iter().map(|&s| sigmoid(b + s)).sum::<f64>() / scores.len() as f64;
    let (mut lo, mut hi) = (-30.0, 30.0);
    for _ in 0..200 {
        let mid = (lo + hi) / 2.0;
        if mean_at(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use paws_geo::parks::test_park_spec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn model() -> (Park, PoacherModel) {
        let park = Park::generate(&test_park_spec(), 7);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = PoacherModel::new(&park, AttackModelConfig::default(), &mut rng);
        (park, model)
    }

    #[test]
    fn probabilities_are_valid() {
        let (_, m) = model();
        for i in 0..m.n_cells() {
            for cov in [0.0, 0.5, 2.0, 10.0] {
                let p = m.attack_probability(i, cov, Season::Dry);
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn calibration_hits_target_rate() {
        let (_, m) = model();
        let zeros = vec![0.0; m.n_cells()];
        let mean: f64 = m
            .attack_probabilities(&zeros, Season::Dry)
            .iter()
            .sum::<f64>()
            / m.n_cells() as f64;
        assert!(
            (mean - m.config().target_attack_rate).abs() < 0.01,
            "mean={mean}"
        );
    }

    #[test]
    fn deterrence_reduces_attack_probability() {
        let (_, m) = model();
        for i in (0..m.n_cells()).step_by(17) {
            let p0 = m.attack_probability(i, 0.0, Season::Wet);
            let p5 = m.attack_probability(i, 5.0, Season::Wet);
            assert!(p5 < p0);
        }
    }

    #[test]
    fn seasonal_shift_moves_risk_between_halves() {
        let spec = paws_geo::parks::test_park_spec();
        let mut spec = spec;
        spec.seasonality = Seasonality::WetDry;
        let park = Park::generate(&spec, 7);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let cfg = AttackModelConfig {
            seasonal_shift: 2.0,
            ..AttackModelConfig::default()
        };
        let m = PoacherModel::new(&park, cfg, &mut rng);
        // A clearly-northern cell (small row index) should be riskier in the
        // dry season than in the wet season.
        let north_idx = (0..m.n_cells())
            .min_by(|&a, &b| {
                let (ra, _) = park.grid.coords(park.cells[a]);
                let (rb, _) = park.grid.coords(park.cells[b]);
                ra.cmp(&rb)
            })
            .unwrap();
        let dry = m.attack_probability(north_idx, 0.0, Season::Dry);
        let wet = m.attack_probability(north_idx, 0.0, Season::Wet);
        assert!(dry > wet);
    }

    #[test]
    fn no_seasonal_effect_without_wetdry() {
        let (_, m) = model();
        for i in (0..m.n_cells()).step_by(29) {
            let dry = m.attack_probability(i, 0.0, Season::Dry);
            let wet = m.attack_probability(i, 0.0, Season::Wet);
            assert_eq!(dry, wet);
        }
    }

    #[test]
    fn sample_attacks_matches_probability_on_average() {
        let (_, m) = model();
        let zeros = vec![0.0; m.n_cells()];
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let trials = 300;
        let mut total = 0usize;
        for _ in 0..trials {
            total += m
                .sample_attacks(&zeros, Season::Dry, &mut rng)
                .iter()
                .filter(|&&a| a)
                .count();
        }
        let empirical = total as f64 / (trials * m.n_cells()) as f64;
        assert!((empirical - m.config().target_attack_rate).abs() < 0.02);
    }

    #[test]
    fn season_of_month_splits_nov_to_apr() {
        assert_eq!(Season::of_month(11), Season::Dry);
        assert_eq!(Season::of_month(2), Season::Dry);
        assert_eq!(Season::of_month(4), Season::Dry);
        assert_eq!(Season::of_month(5), Season::Wet);
        assert_eq!(Season::of_month(10), Season::Wet);
    }

    #[test]
    fn calibrate_intercept_monotone_check() {
        let scores = vec![0.0, 0.5, -0.5, 1.0];
        for target in [0.05, 0.3, 0.7] {
            let b = calibrate_intercept(&scores, target);
            let mean: f64 = scores
                .iter()
                .map(|&s| 1.0 / (1.0 + (-(b + s)).exp()))
                .sum::<f64>()
                / 4.0;
            assert!((mean - target).abs() < 1e-6);
        }
    }
}
