//! Train/test splits by calendar year.
//!
//! Sec. V-A: "We generate predictive poaching models with four years of data
//! for each park, training on the first three years and testing on the
//! fourth. … earlier years are increasingly less predictive of future
//! years." Splits therefore select a test year and the `train_years`
//! immediately preceding it.

use crate::dataset::Dataset;

/// Indices into [`Dataset::points`] of a train/test split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainTestSplit {
    /// Point indices of the training years.
    pub train: Vec<usize>,
    /// Point indices of the test year.
    pub test: Vec<usize>,
    /// The test year.
    pub test_year: u32,
    /// The training years, ascending.
    pub train_years: Vec<u32>,
}

impl TrainTestSplit {
    /// Number of training points.
    pub fn n_train(&self) -> usize {
        self.train.len()
    }

    /// Number of test points.
    pub fn n_test(&self) -> usize {
        self.test.len()
    }
}

/// Split a dataset into `train_years` years of training data and one test
/// year. Returns `None` when the requested years are not present.
pub fn split_by_test_year(
    dataset: &Dataset,
    test_year: u32,
    train_years: usize,
) -> Option<TrainTestSplit> {
    assert!(train_years > 0, "need at least one training year");
    let years: Vec<u32> = {
        let mut ys: Vec<u32> = dataset.steps.iter().map(|s| s.year).collect();
        ys.dedup();
        ys
    };
    if !years.contains(&test_year) {
        return None;
    }
    let wanted_train: Vec<u32> = (1..=train_years as u32)
        .filter_map(|d| test_year.checked_sub(d))
        .filter(|y| years.contains(y))
        .collect();
    if wanted_train.is_empty() {
        return None;
    }
    let mut train = Vec::new();
    let mut test = Vec::new();
    for (i, p) in dataset.points.iter().enumerate() {
        if p.year == test_year {
            test.push(i);
        } else if wanted_train.contains(&p.year) {
            train.push(i);
        }
    }
    if train.is_empty() || test.is_empty() {
        return None;
    }
    let mut train_years: Vec<u32> = wanted_train;
    train_years.sort_unstable();
    Some(TrainTestSplit {
        train,
        test,
        test_year,
        train_years,
    })
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

    fn dataset() -> Dataset {
        let park = Park::generate(&test_park_spec(), 7);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = PoacherModel::new(&park, AttackModelConfig::default(), &mut rng);
        let history = simulate_history(&park, &model, &test_sim_config(), 2013, 4, 3);
        build_dataset(&park, &history, Discretization::quarterly())
    }

    #[test]
    fn split_partitions_points_by_year() {
        let ds = dataset();
        let split = split_by_test_year(&ds, 2016, 3).unwrap();
        assert_eq!(split.test_year, 2016);
        assert_eq!(split.train_years, vec![2013, 2014, 2015]);
        for &i in &split.train {
            assert!(ds.points[i].year < 2016);
        }
        for &i in &split.test {
            assert_eq!(ds.points[i].year, 2016);
        }
        assert!(split.n_train() > split.n_test());
    }

    #[test]
    fn split_with_fewer_available_years_uses_what_exists() {
        let ds = dataset();
        let split = split_by_test_year(&ds, 2014, 3).unwrap();
        assert_eq!(split.train_years, vec![2013]);
    }

    #[test]
    fn missing_test_year_returns_none() {
        let ds = dataset();
        assert!(split_by_test_year(&ds, 2030, 3).is_none());
        assert!(split_by_test_year(&ds, 2013, 3).is_none());
    }

    #[test]
    fn train_and_test_are_disjoint_and_cover_selected_years() {
        let ds = dataset();
        let split = split_by_test_year(&ds, 2015, 2).unwrap();
        let mut all: Vec<usize> = split
            .train
            .iter()
            .chain(split.test.iter())
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), split.n_train() + split.n_test());
    }
}
