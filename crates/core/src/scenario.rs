//! Scenario bundles: a synthetic park plus its ground-truth poacher model
//! and simulator calibration.
//!
//! A [`Scenario`] is the reproduction's stand-in for "a protected area with
//! its (unknown) poaching process and its ranger force". Everything
//! downstream — dataset construction, model training, patrol planning and
//! simulated field tests — consumes a scenario.

use paws_geo::{Park, ParkSpec};
use paws_sim::history::simulate_history;
use paws_sim::{History, PoacherModel, SimConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A park together with its ground truth.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The synthetic protected area.
    pub park: Park,
    /// Ground-truth poacher behaviour (the evaluation oracle).
    pub poacher: PoacherModel,
    /// Simulator calibration (patrol force, detection model, attack model).
    pub sim: SimConfig,
    /// Seed the scenario was generated with.
    pub seed: u64,
}

impl Scenario {
    /// Generate a scenario from a park spec and simulator configuration.
    pub fn generate(spec: &ParkSpec, sim: SimConfig, seed: u64) -> Self {
        let park = Park::generate(spec, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(0x9e37_79b9));
        let poacher = PoacherModel::new(&park, sim.attack.clone(), &mut rng);
        Self {
            park,
            poacher,
            sim,
            seed,
        }
    }

    /// One of the three study sites of the paper ("MFNP", "QENP", "SWS"),
    /// with the calibrated simulator preset.
    pub fn study_site(name: &str, seed: u64) -> Self {
        let spec = match name {
            "MFNP" => paws_geo::parks::mfnp_spec(),
            "QENP" => paws_geo::parks::qenp_spec(),
            "SWS" => paws_geo::parks::sws_spec(),
            other => panic!("unknown study site {other:?}; expected MFNP, QENP or SWS"),
        };
        Self::generate(&spec, paws_sim::presets::sim_config_for(name), seed)
    }

    /// The small test park used by unit tests, examples and the quickstart.
    pub fn test_scenario(seed: u64) -> Self {
        Self::generate(
            &paws_geo::parks::test_park_spec(),
            paws_sim::presets::test_sim_config(),
            seed,
        )
    }

    /// An LLC-scale scenario (`target_cells` ≥ 10k, intended 50k–200k):
    /// the seeded large-park workload the f32-plane bandwidth comparisons,
    /// the learner-table fill and park-wide planning are measured on.
    /// Geography scales MFNP (`paws_geo::parks::llc_park_spec`); the patrol
    /// force scales with √area so the dataset keeps study-site-like
    /// coverage density (`paws_sim::presets::llc_sim_config`).
    pub fn llc_scenario(target_cells: usize, seed: u64) -> Self {
        Self::generate(
            &paws_geo::parks::llc_park_spec(target_cells),
            paws_sim::presets::llc_sim_config(target_cells),
            seed,
        )
    }

    /// Simulate `years` years of patrol history starting at `start_year`.
    pub fn simulate_years(&self, start_year: u32, years: u32) -> History {
        simulate_history(
            &self.park,
            &self.poacher,
            &self.sim,
            start_year,
            years,
            self.seed.wrapping_add(start_year as u64),
        )
    }

    /// Simulate `years` years of patrol logs and return them as
    /// time-ordered batches of `months_per_batch` consecutive months —
    /// the seeded stream [`crate::stream::StreamingFit`] and the serving
    /// registry's ingest consume. The concatenation of the batches is
    /// bit-identical to [`Scenario::simulate_years`] with the same
    /// arguments (see [`paws_sim::patrol_log_batches`]).
    pub fn patrol_log_batches(
        &self,
        start_year: u32,
        years: u32,
        months_per_batch: usize,
    ) -> Vec<History> {
        paws_sim::patrol_log_batches(
            &self.park,
            &self.poacher,
            &self.sim,
            start_year,
            years,
            self.seed.wrapping_add(start_year as u64),
            months_per_batch,
        )
    }

    /// Ground-truth attack probabilities of every in-park cell given a
    /// previous-coverage vector (used when scoring plans and field tests).
    pub fn attack_probabilities(
        &self,
        prev_coverage: &[f64],
        season: paws_sim::Season,
    ) -> Vec<f64> {
        self.poacher.attack_probabilities(prev_coverage, season)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_scenario_is_deterministic() {
        let a = Scenario::test_scenario(5);
        let b = Scenario::test_scenario(5);
        assert_eq!(a.park.cells, b.park.cells);
        assert_eq!(a.poacher.attractiveness(), b.poacher.attractiveness());
    }

    #[test]
    fn simulate_years_produces_expected_months() {
        let s = Scenario::test_scenario(1);
        let h = s.simulate_years(2014, 2);
        assert_eq!(h.months.len(), 24);
        assert_eq!(h.n_cells, s.park.n_cells());
    }

    #[test]
    fn patrol_log_batches_match_one_shot_history() {
        let s = Scenario::test_scenario(3);
        let full = s.simulate_years(2014, 1);
        let batches = s.patrol_log_batches(2014, 1, 3);
        assert_eq!(batches.len(), 4);
        let stitched: Vec<_> = batches.iter().flat_map(|b| b.months.iter()).collect();
        assert_eq!(stitched.len(), full.months.len());
        for (got, want) in stitched.iter().zip(&full.months) {
            assert_eq!((got.year, got.month), (want.year, want.month));
            assert_eq!(got.detections, want.detections);
        }
    }

    #[test]
    fn attack_probabilities_cover_park() {
        let s = Scenario::test_scenario(2);
        let p = s.attack_probabilities(&vec![0.0; s.park.n_cells()], paws_sim::Season::Dry);
        assert_eq!(p.len(), s.park.n_cells());
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    #[should_panic(expected = "unknown study site")]
    fn unknown_site_rejected() {
        let _ = Scenario::study_site("Yellowstone", 1);
    }
}
