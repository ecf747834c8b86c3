//! Multi-year simulation of patrols, attacks and observations.
//!
//! The output is the synthetic stand-in for the SMART database the paper's
//! pipeline starts from: for every simulated month we keep the patrol
//! waypoints (what the dataset pipeline is allowed to see), the true per-cell
//! effort, the ground-truth attacks, and the detected attacks (observations).

use crate::behaviour::{PoacherModel, Season};
use crate::detection::DetectionModel;
use crate::patrol::{effort_map, simulate_month, Patrol, PatrolConfig};
use paws_geo::Park;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Complete simulator configuration for one park.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Ground-truth attack model parameters.
    pub attack: crate::behaviour::AttackModelConfig,
    /// Detection model (effort → detection probability).
    pub detection: DetectionModel,
    /// Patrol simulator parameters.
    pub patrol: PatrolConfig,
}

/// Everything that happened in the park during one simulated month.
#[derive(Debug, Clone)]
pub struct MonthRecord {
    /// Calendar year.
    pub year: u32,
    /// Calendar month (1–12).
    pub month: u32,
    /// Season of the month (relevant for SWS).
    pub season: Season,
    /// Patrols conducted during the month.
    pub patrols: Vec<Patrol>,
    /// True kilometres patrolled per in-park cell.
    pub true_effort: Vec<f64>,
    /// Ground-truth attack indicator per in-park cell.
    pub attacks: Vec<bool>,
    /// Detected attacks (observations) per in-park cell.
    pub detections: Vec<bool>,
}

impl MonthRecord {
    /// Number of cells with a detected attack this month.
    pub fn n_detections(&self) -> usize {
        self.detections.iter().filter(|&&d| d).count()
    }

    /// Number of cells with a ground-truth attack this month.
    pub fn n_attacks(&self) -> usize {
        self.attacks.iter().filter(|&&a| a).count()
    }
}

/// A multi-year simulated history for one park.
#[derive(Debug, Clone)]
pub struct History {
    /// First simulated calendar year.
    pub start_year: u32,
    /// Monthly records in chronological order (January of `start_year`
    /// onwards).
    pub months: Vec<MonthRecord>,
    /// Number of in-park cells each per-cell vector covers.
    pub n_cells: usize,
}

impl History {
    /// Number of simulated years.
    pub fn n_years(&self) -> u32 {
        (self.months.len() / 12) as u32
    }

    /// Iterate over the records of one calendar year.
    pub fn year(&self, year: u32) -> impl Iterator<Item = &MonthRecord> {
        self.months.iter().filter(move |m| m.year == year)
    }

    /// All calendar years present, in order.
    pub fn years(&self) -> Vec<u32> {
        let mut ys: Vec<u32> = self.months.iter().map(|m| m.year).collect();
        ys.dedup();
        ys
    }

    /// Total detected attacks across the whole history.
    pub fn total_detections(&self) -> usize {
        self.months.iter().map(|m| m.n_detections()).sum()
    }
}

/// Simulate `years` years of patrols and poaching for a park.
///
/// Deterrence works on the previous month's true coverage: the adversary
/// responds to what the rangers actually did, not to the reconstructed
/// dataset effort.
pub fn simulate_history(
    park: &Park,
    model: &PoacherModel,
    config: &SimConfig,
    start_year: u32,
    years: u32,
    seed: u64,
) -> History {
    assert!(years > 0, "must simulate at least one year");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut months = Vec::with_capacity((years * 12) as usize);
    let mut prev_effort = vec![0.0; park.n_cells()];

    for y in 0..years {
        for m in 1..=12u32 {
            let season = Season::of_month(m);
            let patrols = simulate_month(park, &config.patrol, &mut rng);
            let true_effort = effort_map(park, &patrols);
            let attacks = model.sample_attacks(&prev_effort, season, &mut rng);
            let detections: Vec<bool> = attacks
                .iter()
                .enumerate()
                .map(|(i, &attacked)| {
                    attacked && rng.gen::<f64>() < config.detection.probability(true_effort[i])
                })
                .collect();
            months.push(MonthRecord {
                year: start_year + y,
                month: m,
                season,
                patrols,
                true_effort: true_effort.clone(),
                attacks,
                detections,
            });
            prev_effort = true_effort;
        }
    }

    History {
        start_year,
        months,
        n_cells: park.n_cells(),
    }
}

/// Simulate `years` years of patrol logs and chop them into time-ordered
/// chunks of `months_per_batch` consecutive months — the seeded stream a
/// deployment would receive from the ranger database between patrol
/// cycles.
///
/// The whole history is simulated in **one** RNG stream and only then
/// chunked, so the concatenation of the returned batches is bit-identical
/// to [`simulate_history`] with the same seed (one shared `prev_effort`
/// deterrence chain across batch boundaries; re-seeding per batch would
/// break that). The final batch may be shorter than `months_per_batch`.
///
/// To keep a streamed dataset build bit-identical to the one-shot build,
/// pick `months_per_batch` so no discretisation step straddles a batch
/// boundary (e.g. a multiple of 3 for quarterly steps).
///
/// # Panics
/// Panics when `months_per_batch` is zero.
pub fn patrol_log_batches(
    park: &Park,
    model: &PoacherModel,
    config: &SimConfig,
    start_year: u32,
    years: u32,
    seed: u64,
    months_per_batch: usize,
) -> Vec<History> {
    assert!(months_per_batch > 0, "batches must hold at least one month");
    let full = simulate_history(park, model, config, start_year, years, seed);
    let n_cells = full.n_cells;
    full.months
        .chunks(months_per_batch)
        .map(|chunk| History {
            start_year: chunk[0].year,
            months: chunk.to_vec(),
            n_cells,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behaviour::AttackModelConfig;
    use paws_geo::parks::test_park_spec;

    fn setup() -> (Park, PoacherModel, SimConfig) {
        let park = Park::generate(&test_park_spec(), 7);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = PoacherModel::new(&park, AttackModelConfig::default(), &mut rng);
        (park, model, SimConfig::default())
    }

    #[test]
    fn history_has_twelve_months_per_year() {
        let (park, model, config) = setup();
        let h = simulate_history(&park, &model, &config, 2013, 2, 11);
        assert_eq!(h.months.len(), 24);
        assert_eq!(h.n_years(), 2);
        assert_eq!(h.years(), vec![2013, 2014]);
        assert_eq!(h.year(2014).count(), 12);
    }

    #[test]
    fn detections_imply_attacks_and_effort() {
        let (park, model, config) = setup();
        let h = simulate_history(&park, &model, &config, 2013, 1, 13);
        for month in &h.months {
            for i in 0..park.n_cells() {
                if month.detections[i] {
                    assert!(month.attacks[i], "detection without attack");
                    assert!(
                        month.true_effort[i] > 0.0,
                        "detection without patrol effort"
                    );
                }
            }
        }
    }

    #[test]
    fn detections_do_not_exceed_attacks() {
        let (park, model, config) = setup();
        let h = simulate_history(&park, &model, &config, 2013, 2, 17);
        for month in &h.months {
            assert!(month.n_detections() <= month.n_attacks());
        }
        assert!(
            h.total_detections() > 0,
            "history should contain some detections"
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let (park, model, config) = setup();
        let a = simulate_history(&park, &model, &config, 2013, 1, 5);
        let b = simulate_history(&park, &model, &config, 2013, 1, 5);
        assert_eq!(a.months[3].detections, b.months[3].detections);
        assert_eq!(a.months[7].true_effort, b.months[7].true_effort);
    }

    #[test]
    fn different_seeds_differ() {
        let (park, model, config) = setup();
        let a = simulate_history(&park, &model, &config, 2013, 1, 5);
        let b = simulate_history(&park, &model, &config, 2013, 1, 6);
        assert_ne!(
            a.months
                .iter()
                .map(|m| m.n_detections())
                .collect::<Vec<_>>(),
            b.months
                .iter()
                .map(|m| m.n_detections())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn patrol_log_batches_concatenate_to_the_one_shot_history() {
        let (park, model, config) = setup();
        let full = simulate_history(&park, &model, &config, 2013, 2, 23);
        for months_per_batch in [3, 5, 12, 24, 30] {
            let batches = patrol_log_batches(&park, &model, &config, 2013, 2, 23, months_per_batch);
            assert_eq!(
                batches.iter().map(|b| b.months.len()).sum::<usize>(),
                full.months.len()
            );
            let mut i = 0;
            for batch in &batches {
                assert_eq!(batch.n_cells, full.n_cells);
                assert_eq!(batch.start_year, batch.months[0].year);
                for month in &batch.months {
                    assert_eq!(
                        (month.year, month.month),
                        (full.months[i].year, full.months[i].month)
                    );
                    assert_eq!(month.true_effort, full.months[i].true_effort);
                    assert_eq!(month.detections, full.months[i].detections);
                    i += 1;
                }
            }
        }
    }

    #[test]
    fn per_cell_vectors_cover_the_park() {
        let (park, model, config) = setup();
        let h = simulate_history(&park, &model, &config, 2013, 1, 19);
        assert_eq!(h.n_cells, park.n_cells());
        for m in &h.months {
            assert_eq!(m.true_effort.len(), park.n_cells());
            assert_eq!(m.attacks.len(), park.n_cells());
            assert_eq!(m.detections.len(), park.n_cells());
        }
    }
}
