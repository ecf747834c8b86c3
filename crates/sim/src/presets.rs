//! Per-park simulator presets.
//!
//! The parameters aim at Table I of the paper: the fraction of positive
//! labels among patrolled (cell, quarter) points (14.3 % MFNP, 4.7 % QENP,
//! 0.36 % SWS, 0.25 % SWS dry season) and the average patrol effort per
//! patrolled cell (1.75 / 2.08 / 3.96 / 3.03 km). They hit the positive
//! rates but not the effort or the point counts. The generated six-year
//! datasets measure:
//!
//! | | MFNP | QENP | SWS | SWS dry |
//! |---|---|---|---|---|
//! | positive rate (paper) | 14.79 % (14.30) | 4.30 % (4.70) | 0.35 % (0.36) | 0.32 % (0.25) |
//! | average effort, km (paper) | 3.05 (1.75) | 3.46 (2.08) | 7.33 (3.96) | 5.78 (3.03) |
//! | patrolled points / paper's | 0.58 | 0.57 | 0.50 | 0.45 |
//!
//! `cargo run --release -p paws-bench --bin table1` regenerates these
//! numbers.

use crate::behaviour::AttackModelConfig;
use crate::detection::DetectionModel;
use crate::history::SimConfig;
use crate::patrol::{PatrolConfig, Transport};

/// Simulator preset for Murchison Falls National Park.
///
/// Foot patrols, relatively rich positive rate (14.3 % of patrolled points
/// per quarter), poaching concentrated near the edges of the circular park.
pub fn mfnp_sim_config() -> SimConfig {
    SimConfig {
        attack: AttackModelConfig {
            target_attack_rate: 0.115,
            w_boundary: 2.4,
            w_animal: 2.0,
            deterrence: 0.30,
            seasonal_shift: 0.0,
            cell_noise_sd: 0.6,
            ..AttackModelConfig::default()
        },
        detection: DetectionModel::new(0.9, 0.95),
        patrol: PatrolConfig {
            patrols_per_month: 46,
            patrol_length_km: 10.0,
            waypoint_interval_km: 1.5,
            post_bias: 0.18,
            risk_seeking: 0.5,
            transport: Transport::Foot,
        },
    }
}

/// Simulator preset for Queen Elizabeth National Park.
///
/// Foot patrols, moderate positive rate (4.7 %), elongated park so the
/// interior is accessible from the boundary everywhere.
pub fn qenp_sim_config() -> SimConfig {
    SimConfig {
        attack: AttackModelConfig {
            target_attack_rate: 0.050,
            w_boundary: 1.4,
            w_animal: 2.4,
            deterrence: 0.30,
            seasonal_shift: 0.0,
            cell_noise_sd: 0.6,
            ..AttackModelConfig::default()
        },
        detection: DetectionModel::new(0.8, 0.95),
        patrol: PatrolConfig {
            patrols_per_month: 40,
            patrol_length_km: 14.0,
            waypoint_interval_km: 1.5,
            post_bias: 0.18,
            risk_seeking: 0.5,
            transport: Transport::Foot,
        },
    }
}

/// Simulator preset for Srepok Wildlife Sanctuary.
///
/// Motorbike patrols: much longer outings, sparser waypoints, lower per-km
/// detection; extremely rare positives (0.36 % of patrolled points) and a
/// strong wet/dry seasonal shift.
pub fn sws_sim_config() -> SimConfig {
    SimConfig {
        attack: AttackModelConfig {
            target_attack_rate: 0.006,
            w_boundary: 1.2,
            w_animal: 1.8,
            w_road: 1.2,
            deterrence: 0.25,
            seasonal_shift: 1.6,
            cell_noise_sd: 0.7,
            ..AttackModelConfig::default()
        },
        detection: DetectionModel::new(0.35, 0.75),
        patrol: PatrolConfig {
            patrols_per_month: 55,
            patrol_length_km: 40.0,
            waypoint_interval_km: 4.0,
            post_bias: 0.12,
            risk_seeking: 0.4,
            transport: Transport::Motorbike,
        },
    }
}

/// A fast preset for tests and examples on the small test park.
pub fn test_sim_config() -> SimConfig {
    SimConfig {
        attack: AttackModelConfig {
            target_attack_rate: 0.10,
            ..AttackModelConfig::default()
        },
        detection: DetectionModel::new(0.9, 0.95),
        patrol: PatrolConfig {
            patrols_per_month: 14,
            patrol_length_km: 8.0,
            waypoint_interval_km: 1.5,
            post_bias: 0.4,
            risk_seeking: 0.8,
            transport: Transport::Foot,
        },
    }
}

/// Simulator preset for the LLC-scale synthetic parks
/// (`paws_geo::parks::llc_park_spec`): MFNP-like attack/detection
/// behaviour with the patrol force grown with the square root of the park
/// area, so patrol-coverage *density* — and with it the dataset's
/// positive rate and effort distribution — stays comparable to the study
/// sites while the prediction surface grows by an order of magnitude.
pub fn llc_sim_config(target_cells: usize) -> SimConfig {
    // Same baseline the geography scales from (paws_geo::parks::llc_park_spec),
    // so patrol force and park area grow in lockstep.
    let mfnp_cells = paws_geo::parks::mfnp_spec().target_cells as f64;
    let scale = (target_cells as f64 / mfnp_cells).sqrt().max(1.0);
    SimConfig {
        attack: AttackModelConfig {
            target_attack_rate: 0.115,
            w_boundary: 2.4,
            w_animal: 2.0,
            deterrence: 0.30,
            seasonal_shift: 0.0,
            cell_noise_sd: 0.6,
            ..AttackModelConfig::default()
        },
        detection: DetectionModel::new(0.9, 0.95),
        patrol: PatrolConfig {
            patrols_per_month: (46.0 * scale).round() as usize,
            patrol_length_km: 10.0,
            waypoint_interval_km: 1.5,
            post_bias: 0.18,
            risk_seeking: 0.5,
            transport: Transport::Foot,
        },
    }
}

/// Look up the preset matching a park preset name from `paws_geo::parks`.
pub fn sim_config_for(park_name: &str) -> SimConfig {
    match park_name {
        "MFNP" => mfnp_sim_config(),
        "QENP" => qenp_sim_config(),
        "SWS" => sws_sim_config(),
        _ => test_sim_config(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_by_name() {
        assert_eq!(sim_config_for("MFNP").patrol.patrols_per_month, 46);
        assert_eq!(sim_config_for("QENP").patrol.patrols_per_month, 40);
        assert_eq!(sim_config_for("SWS").patrol.transport, Transport::Motorbike);
        assert_eq!(sim_config_for("anything-else").patrol.patrols_per_month, 14);
    }

    #[test]
    fn llc_patrol_force_scales_with_park_side() {
        let small = llc_sim_config(50_000);
        let large = llc_sim_config(200_000);
        // √(200k/50k) = 2× the patrol force for 4× the area (± rounding).
        let ratio = large.patrol.patrols_per_month as f64 / small.patrol.patrols_per_month as f64;
        assert!((ratio - 2.0).abs() < 0.02, "ratio {ratio}");
        assert!(small.patrol.patrols_per_month > mfnp_sim_config().patrol.patrols_per_month);
        assert_eq!(small.attack.seasonal_shift, 0.0);
    }

    #[test]
    fn attack_rates_ordered_like_table1() {
        // MFNP > QENP > SWS in positive-label rate.
        let m = mfnp_sim_config().attack.target_attack_rate;
        let q = qenp_sim_config().attack.target_attack_rate;
        let s = sws_sim_config().attack.target_attack_rate;
        assert!(m > q && q > s);
    }

    #[test]
    fn sws_has_sparser_waypoints_and_longer_patrols() {
        let sws = sws_sim_config().patrol;
        let mfnp = mfnp_sim_config().patrol;
        assert!(sws.waypoint_interval_km > mfnp.waypoint_interval_km);
        assert!(sws.patrol_length_km > mfnp.patrol_length_km);
    }

    #[test]
    fn only_sws_has_seasonal_shift() {
        assert_eq!(mfnp_sim_config().attack.seasonal_shift, 0.0);
        assert_eq!(qenp_sim_config().attack.seasonal_shift, 0.0);
        assert!(sws_sim_config().attack.seasonal_shift > 0.0);
    }
}
