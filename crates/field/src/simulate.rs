//! Simulated field deployment and Table III analysis.
//!
//! In the real field tests (Sec. VII) rangers were given the GPS centres of
//! the selected blocks — without their risk labels — and asked to focus
//! their patrols there for several months; afterwards the detections per
//! patrolled cell were compared across risk groups with a chi-squared test.
//! This module replays that protocol against the ground-truth poacher model:
//! targeted patrols are simulated towards each block, attacks and detections
//! are sampled, and the per-group summary rows of Table III / Fig. 10 are
//! produced.

use crate::chisq::{chi_squared_test, ChiSquaredResult};
use crate::protocol::{FieldTestPlan, RiskGroup};
use paws_geo::Park;
use paws_sim::patrol::{simulate_patrol, PatrolConfig};
use paws_sim::{DetectionModel, PoacherModel, Season};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Configuration of a simulated field trial.
#[derive(Debug, Clone)]
pub struct TrialConfig {
    /// Number of months the trial runs (e.g. 2 for the SWS trials, 2–3 for MFNP).
    pub months: usize,
    /// Targeted patrols dispatched to each block per month.
    pub patrols_per_block_month: usize,
    /// Length of each targeted patrol in km.
    pub patrol_length_km: f64,
    /// Season the trial takes place in (Dry for the SWS trials).
    pub season: Season,
    /// Ranger detection model.
    pub detection: DetectionModel,
    /// Patrol-walk parameters (waypoint spacing is irrelevant here; the
    /// simulator's true effort is used directly).
    pub patrol: PatrolConfig,
}

impl Default for TrialConfig {
    fn default() -> Self {
        Self {
            months: 2,
            patrols_per_block_month: 4,
            patrol_length_km: 12.0,
            season: Season::Dry,
            detection: DetectionModel::default(),
            patrol: PatrolConfig {
                post_bias: 2.5,
                risk_seeking: 0.0,
                ..PatrolConfig::default()
            },
        }
    }
}

/// Per-risk-group outcome row (one row of Table III).
#[derive(Debug, Clone)]
pub struct GroupOutcome {
    /// Risk group.
    pub group: RiskGroup,
    /// Number of cells in which poaching activity was observed (# Obs.).
    pub observed_cells: usize,
    /// Number of 1×1 km cells patrolled (# Cells).
    pub patrolled_cells: usize,
    /// Total patrol effort in km (Effort).
    pub effort_km: f64,
    /// Normalised observations, # Obs. / # Cells.
    pub obs_per_cell: f64,
}

/// Outcome of a simulated field trial.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// Per-group rows in High / Medium / Low order.
    pub groups: Vec<GroupOutcome>,
    /// Chi-squared test of independence between risk group and observation.
    pub chi_squared: ChiSquaredResult,
}

impl TrialOutcome {
    /// The row of a specific group.
    pub fn group(&self, group: RiskGroup) -> &GroupOutcome {
        self.groups
            .iter()
            .find(|g| g.group == group)
            .expect("all groups are always reported")
    }

    /// True when detections per patrolled cell are ordered
    /// High ≥ Medium ≥ Low — the headline finding of the field tests.
    pub fn ranking_holds(&self) -> bool {
        let h = self.group(RiskGroup::High).obs_per_cell;
        let m = self.group(RiskGroup::Medium).obs_per_cell;
        let l = self.group(RiskGroup::Low).obs_per_cell;
        h >= m && m >= l
    }
}

/// Run one simulated field trial.
pub fn run_trial(
    park: &Park,
    poacher: &PoacherModel,
    plan: &FieldTestPlan,
    config: &TrialConfig,
    seed: u64,
) -> TrialOutcome {
    assert!(config.months >= 1, "trial needs at least one month");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = park.n_cells();

    // Accumulated over the whole trial.
    let mut total_effort = vec![0.0f64; n];
    let mut observed = vec![false; n];
    let mut prev_effort = vec![0.0f64; n];

    for _ in 0..config.months {
        // Rangers run targeted patrols to every block centre from the nearest
        // patrol post (they do not know the blocks' risk groups).
        let mut month_effort = vec![0.0f64; n];
        for block in &plan.blocks {
            let post = *park
                .patrol_posts
                .iter()
                .min_by(|a, b| {
                    park.grid
                        .distance_km(**a, block.centre)
                        .total_cmp(&park.grid.distance_km(**b, block.centre))
                })
                .expect("park has patrol posts");
            for _ in 0..config.patrols_per_block_month {
                // Rangers are asked to focus on the block, so the outing is
                // long enough to reach it from the post (possibly camping en
                // route, as the real teams do) plus the configured wandering
                // length inside and around the block.
                let approach_km = 2.0 * park.grid.distance_km(post, block.centre);
                let patrol_cfg = PatrolConfig {
                    patrol_length_km: config.patrol_length_km + approach_km,
                    ..config.patrol.clone()
                };
                let patrol = simulate_patrol(park, post, &patrol_cfg, Some(block.centre), &mut rng);
                for &(idx, km) in &patrol.true_effort {
                    month_effort[idx] += km;
                }
            }
        }

        // Poachers attack in response to last month's coverage; rangers
        // detect attacks in the cells they actually walked through.
        let attacks = poacher.sample_attacks(&prev_effort, config.season, &mut rng);
        for i in 0..n {
            if attacks[i] && rng.gen::<f64>() < config.detection.probability(month_effort[i]) {
                observed[i] = true;
            }
            total_effort[i] += month_effort[i];
        }
        prev_effort = month_effort;
    }

    // Aggregate per risk group, restricted to the experiment blocks.
    let mut groups = Vec::new();
    for group in RiskGroup::all() {
        let mut observed_cells = 0usize;
        let mut patrolled_cells = 0usize;
        let mut effort_km = 0.0;
        for block in plan.blocks_in(group) {
            for &cell in &block.cells {
                let i = park.cell_position(cell).expect("block cells are in park");
                if total_effort[i] > 0.0 {
                    patrolled_cells += 1;
                    effort_km += total_effort[i];
                    if observed[i] {
                        observed_cells += 1;
                    }
                }
            }
        }
        let obs_per_cell = if patrolled_cells == 0 {
            0.0
        } else {
            observed_cells as f64 / patrolled_cells as f64
        };
        groups.push(GroupOutcome {
            group,
            observed_cells,
            patrolled_cells,
            effort_km,
            obs_per_cell,
        });
    }

    // Chi-squared over the (group × observed/not-observed) table. Guard
    // against degenerate tables (no observations anywhere, or a group with
    // no patrolled cells) by adding a small continuity floor.
    let table: Vec<Vec<f64>> = groups
        .iter()
        .map(|g| {
            let obs = g.observed_cells as f64;
            let not = (g.patrolled_cells.saturating_sub(g.observed_cells)) as f64;
            vec![obs.max(0.25), not.max(0.25)]
        })
        .collect();
    let chi_squared = chi_squared_test(&table);

    TrialOutcome {
        groups,
        chi_squared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{design_field_test, ProtocolConfig};
    use paws_geo::parks::test_park_spec;
    use paws_sim::AttackModelConfig;

    fn setup() -> (Park, PoacherModel, FieldTestPlan) {
        let park = Park::generate(&test_park_spec(), 7);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let attack_cfg = AttackModelConfig {
            target_attack_rate: 0.25,
            ..AttackModelConfig::default()
        };
        let poacher = PoacherModel::new(&park, attack_cfg, &mut rng);
        // Use the ground-truth static risk as the "prediction" so the
        // protocol has a strong signal to separate groups.
        let risk: Vec<f64> = (0..park.n_cells())
            .map(|i| poacher.static_risk(i))
            .collect();
        let effort = vec![0.0; park.n_cells()];
        let plan = design_field_test(
            &park,
            &risk,
            &effort,
            &ProtocolConfig {
                block_size: 2,
                blocks_per_group: 4,
                ..ProtocolConfig::default()
            },
            &mut rng,
        );
        (park, poacher, plan)
    }

    #[test]
    fn trial_reports_all_three_groups() {
        let (park, poacher, plan) = setup();
        let outcome = run_trial(&park, &poacher, &plan, &TrialConfig::default(), 3);
        assert_eq!(outcome.groups.len(), 3);
        for g in &outcome.groups {
            assert!(
                g.patrolled_cells > 0,
                "every group should receive some patrols"
            );
            assert!(g.effort_km > 0.0);
            assert!(g.observed_cells <= g.patrolled_cells);
        }
    }

    #[test]
    fn high_risk_blocks_yield_more_detections_with_oracle_predictions() {
        let (park, poacher, plan) = setup();
        // Average over a few seeds to keep the test stable.
        let mut high = 0.0;
        let mut low = 0.0;
        for seed in 0..5 {
            let outcome = run_trial(&park, &poacher, &plan, &TrialConfig::default(), seed);
            high += outcome.group(RiskGroup::High).obs_per_cell;
            low += outcome.group(RiskGroup::Low).obs_per_cell;
        }
        assert!(
            high > low,
            "high-risk blocks should out-detect low-risk blocks ({high} vs {low})"
        );
    }

    #[test]
    fn chi_squared_is_computed_and_valid() {
        let (park, poacher, plan) = setup();
        let outcome = run_trial(&park, &poacher, &plan, &TrialConfig::default(), 11);
        assert!(outcome.chi_squared.p_value >= 0.0 && outcome.chi_squared.p_value <= 1.0);
        assert_eq!(outcome.chi_squared.dof, 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let (park, poacher, plan) = setup();
        let a = run_trial(&park, &poacher, &plan, &TrialConfig::default(), 7);
        let b = run_trial(&park, &poacher, &plan, &TrialConfig::default(), 7);
        assert_eq!(
            a.group(RiskGroup::High).observed_cells,
            b.group(RiskGroup::High).observed_cells
        );
        assert_eq!(a.chi_squared.statistic, b.chi_squared.statistic);
    }

    #[test]
    fn longer_trials_accumulate_more_effort() {
        let (park, poacher, plan) = setup();
        let short = run_trial(
            &park,
            &poacher,
            &plan,
            &TrialConfig {
                months: 1,
                ..TrialConfig::default()
            },
            5,
        );
        let long = run_trial(
            &park,
            &poacher,
            &plan,
            &TrialConfig {
                months: 4,
                ..TrialConfig::default()
            },
            5,
        );
        let total = |o: &TrialOutcome| o.groups.iter().map(|g| g.effort_km).sum::<f64>();
        assert!(total(&long) > total(&short));
    }
}
