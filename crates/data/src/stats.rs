//! Dataset summary statistics (Table I of the paper).

use crate::dataset::Dataset;
use serde::Serialize;

/// The per-dataset statistics reported in Table I.
#[derive(Debug, Clone, Serialize)]
pub struct DatasetStats {
    /// Dataset name (park, possibly with a season qualifier).
    pub name: String,
    /// Number of feature columns (static features + previous coverage).
    pub n_features: usize,
    /// Number of 1×1 km cells inside the park.
    pub n_cells: usize,
    /// Number of (cell, time-step) data points with non-zero patrol effort.
    pub n_points: usize,
    /// Number of positively-labelled points.
    pub n_positive: usize,
    /// Percentage of positive labels (0–100).
    pub pct_positive: f64,
    /// Average patrol effort (km) per patrolled cell and time step.
    pub avg_effort_km: f64,
}

impl DatasetStats {
    /// Compute the Table I statistics of a dataset.
    pub fn compute(name: &str, dataset: &Dataset) -> Self {
        let n_points = dataset.n_points();
        let n_positive = dataset.n_positive();
        let total_effort: f64 = dataset.points.iter().map(|p| p.current_effort).sum();
        Self {
            name: name.to_string(),
            n_features: dataset.n_features(),
            n_cells: dataset.n_cells,
            n_points,
            n_positive,
            pct_positive: if n_points == 0 {
                0.0
            } else {
                100.0 * n_positive as f64 / n_points as f64
            },
            avg_effort_km: if n_points == 0 {
                0.0
            } else {
                total_effort / n_points as f64
            },
        }
    }

    /// The class-imbalance ratio `negatives : positives` (e.g. ≈ 200 for SWS).
    pub fn imbalance_ratio(&self) -> f64 {
        if self.n_positive == 0 {
            f64::INFINITY
        } else {
            (self.n_points - self.n_positive) as f64 / self.n_positive as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::build_dataset;
    use crate::discretize::Discretization;
    use paws_geo::parks::test_park_spec;
    use paws_geo::Park;
    use paws_sim::history::simulate_history;
    use paws_sim::presets::test_sim_config;
    use paws_sim::{AttackModelConfig, PoacherModel};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn stats_are_internally_consistent() {
        let park = Park::generate(&test_park_spec(), 7);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = PoacherModel::new(&park, AttackModelConfig::default(), &mut rng);
        let history = simulate_history(&park, &model, &test_sim_config(), 2013, 2, 3);
        let ds = build_dataset(&park, &history, Discretization::quarterly());
        let stats = DatasetStats::compute("TestPark", &ds);
        assert_eq!(stats.n_cells, 500);
        assert_eq!(stats.n_points, ds.n_points());
        assert_eq!(stats.n_positive, ds.n_positive());
        assert!(stats.pct_positive > 0.0 && stats.pct_positive < 100.0);
        assert!(stats.avg_effort_km > 0.0);
        assert!(stats.imbalance_ratio() > 1.0);
        assert!(
            (stats.pct_positive / 100.0 - stats.n_positive as f64 / stats.n_points as f64).abs()
                < 1e-12
        );
    }

    #[test]
    fn empty_dataset_yields_zero_stats() {
        let park = Park::generate(&test_park_spec(), 7);
        let ds = Dataset {
            park_name: "empty".into(),
            feature_names: vec!["a".into()],
            points: vec![],
            features: crate::matrix::Matrix::new(1),
            n_cells: park.n_cells(),
            steps: vec![],
            coverage: vec![],
            detections: vec![],
            discretization: Discretization::quarterly(),
        };
        let stats = DatasetStats::compute("empty", &ds);
        assert_eq!(stats.n_points, 0);
        assert_eq!(stats.pct_positive, 0.0);
        assert_eq!(stats.avg_effort_km, 0.0);
        assert!(stats.imbalance_ratio().is_infinite());
    }
}
