//! Ranger patrol simulator.
//!
//! Real patrols start from patrol posts, follow terrain and access routes,
//! and record GPS waypoints roughly every 30 minutes; their spatial coverage
//! is uneven (Fig. 3), which is the main source of bias in the historical
//! datasets. The simulator reproduces that process: post-anchored biased
//! random walks over the in-park 8-neighbourhood, a configurable total
//! length, and waypoints emitted at a fixed distance interval (sparser for
//! motorbike patrols, as in SWS).

use paws_geo::{CellId, FeatureKind, Park};
use rand::Rng;

/// A GPS fix recorded by a ranger team during one patrol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waypoint {
    /// Cell the fix falls in.
    pub cell: CellId,
    /// Distance along the patrol at which the fix was recorded, in km.
    pub km_from_start: f64,
}

/// One simulated ranger patrol.
#[derive(Debug, Clone)]
pub struct Patrol {
    /// Patrol post (start and nominal end of the patrol).
    pub post: CellId,
    /// Waypoints in chronological order, including the start cell.
    pub waypoints: Vec<Waypoint>,
    /// True kilometres travelled through each visited cell
    /// (`(in-park cell index, km)` pairs). Detection uses this; the dataset
    /// pipeline only sees the sparser `waypoints`.
    pub true_effort: Vec<(usize, f64)>,
}

/// Mode of transport; controls speed (km per outing) and waypoint sparsity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Foot patrols (MFNP, QENP).
    Foot,
    /// Motorbike patrols (SWS): longer distances, sparser waypoints, lower
    /// per-km detection.
    Motorbike,
}

/// Configuration of the patrol simulator.
#[derive(Debug, Clone)]
pub struct PatrolConfig {
    /// Number of patrols launched per simulated month.
    pub patrols_per_month: usize,
    /// Length of each patrol in km.
    pub patrol_length_km: f64,
    /// Distance between recorded waypoints in km (≈ 30 minutes of travel).
    pub waypoint_interval_km: f64,
    /// Strength of the pull back towards the patrol post (creates the
    /// uneven, post-centred coverage of Fig. 3). 0 = unbiased walk.
    pub post_bias: f64,
    /// Strength of the rangers' preference for high animal-density areas
    /// (their expert intuition about worthwhile patrol targets).
    pub risk_seeking: f64,
    /// Mode of transport.
    pub transport: Transport,
}

impl Default for PatrolConfig {
    fn default() -> Self {
        Self {
            patrols_per_month: 20,
            patrol_length_km: 10.0,
            waypoint_interval_km: 1.5,
            post_bias: 0.25,
            risk_seeking: 0.8,
            transport: Transport::Foot,
        }
    }
}

/// Simulate all patrols for one month from the park's patrol posts.
pub fn simulate_month<R: Rng>(park: &Park, config: &PatrolConfig, rng: &mut R) -> Vec<Patrol> {
    assert!(!park.patrol_posts.is_empty(), "park has no patrol posts");
    (0..config.patrols_per_month)
        .map(|_| {
            let post = park.patrol_posts[rng.gen_range(0..park.patrol_posts.len())];
            simulate_patrol(park, post, config, None, rng)
        })
        .collect()
}

/// Simulate a single patrol. When `target` is given the walk is pulled
/// towards that cell first (used by the field-test protocol, where rangers
/// are asked to focus on the centre of a recommended block).
pub fn simulate_patrol<R: Rng>(
    park: &Park,
    post: CellId,
    config: &PatrolConfig,
    target: Option<CellId>,
    rng: &mut R,
) -> Patrol {
    assert!(park.contains(post), "patrol post must be inside the park");
    let animal = park.features.column(FeatureKind::AnimalDensity);
    let mut current = post;
    let mut travelled = 0.0_f64;
    let mut next_waypoint_at = 0.0_f64;
    let mut waypoints = vec![Waypoint {
        cell: current,
        km_from_start: 0.0,
    }];
    next_waypoint_at += config.waypoint_interval_km;
    let mut effort: Vec<f64> = vec![0.0; park.n_cells()];
    let mut prev: Option<CellId> = None;

    while travelled < config.patrol_length_km {
        let neighbours = park.park_neighbours(current);
        if neighbours.is_empty() {
            break;
        }
        // Weight candidate moves: pull towards post (or target), prefer
        // attractive cells, avoid immediately backtracking.
        let weights: Vec<f64> = neighbours
            .iter()
            .map(|(n, _)| {
                let anchor = target.unwrap_or(post);
                let d_anchor = park.grid.distance_km(*n, anchor);
                let pull = (-config.post_bias * d_anchor / 5.0).exp();
                let attract = animal
                    .map(|col| (config.risk_seeking * col[n.index()]).exp())
                    .unwrap_or(1.0);
                let backtrack = if Some(*n) == prev { 0.2 } else { 1.0 };
                (pull * attract * backtrack).max(1e-9)
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut pick = rng.gen_range(0.0..total);
        let mut chosen = 0;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                chosen = i;
                break;
            }
            pick -= w;
        }
        let (next, step) = neighbours[chosen];

        // Split the step's km between the two cells it touches.
        let here_idx = park
            .cell_position(current)
            .expect("current cell is in park");
        let next_idx = park.cell_position(next).expect("next cell is in park");
        effort[here_idx] += step / 2.0;
        effort[next_idx] += step / 2.0;

        travelled += step;
        prev = Some(current);
        current = next;

        while travelled >= next_waypoint_at {
            waypoints.push(Waypoint {
                cell: current,
                km_from_start: next_waypoint_at,
            });
            next_waypoint_at += config.waypoint_interval_km;
        }
    }

    let true_effort: Vec<(usize, f64)> = effort
        .iter()
        .enumerate()
        .filter(|(_, &e)| e > 0.0)
        .map(|(i, &e)| (i, e))
        .collect();

    Patrol {
        post,
        waypoints,
        true_effort,
    }
}

/// Aggregate the true per-cell effort (km) of a set of patrols into a dense
/// vector over in-park cell indices.
pub fn effort_map(park: &Park, patrols: &[Patrol]) -> Vec<f64> {
    let mut effort = vec![0.0; park.n_cells()];
    for p in patrols {
        for &(idx, km) in &p.true_effort {
            effort[idx] += km;
        }
    }
    effort
}

#[cfg(test)]
mod tests {
    use super::*;
    use paws_geo::parks::test_park_spec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn park() -> Park {
        Park::generate(&test_park_spec(), 7)
    }

    #[test]
    fn patrol_stays_inside_park() {
        let park = park();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let config = PatrolConfig::default();
        for _ in 0..5 {
            let p = simulate_patrol(&park, park.patrol_posts[0], &config, None, &mut rng);
            for w in &p.waypoints {
                assert!(park.contains(w.cell));
            }
        }
    }

    #[test]
    fn patrol_total_effort_close_to_length() {
        let park = park();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let config = PatrolConfig::default();
        let p = simulate_patrol(&park, park.patrol_posts[0], &config, None, &mut rng);
        let total: f64 = p.true_effort.iter().map(|(_, km)| km).sum();
        assert!(total >= config.patrol_length_km - 0.01);
        assert!(total <= config.patrol_length_km + 2.0);
    }

    #[test]
    fn waypoints_are_ordered_and_spaced() {
        let park = park();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let config = PatrolConfig {
            waypoint_interval_km: 2.0,
            patrol_length_km: 12.0,
            ..PatrolConfig::default()
        };
        let p = simulate_patrol(&park, park.patrol_posts[1], &config, None, &mut rng);
        assert!(p.waypoints.len() >= 2);
        for pair in p.waypoints.windows(2) {
            assert!(pair[1].km_from_start > pair[0].km_from_start);
            assert!((pair[1].km_from_start - pair[0].km_from_start - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn first_waypoint_is_the_post() {
        let park = park();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let p = simulate_patrol(
            &park,
            park.patrol_posts[2],
            &PatrolConfig::default(),
            None,
            &mut rng,
        );
        assert_eq!(p.waypoints[0].cell, p.post);
        assert_eq!(p.waypoints[0].km_from_start, 0.0);
    }

    #[test]
    fn monthly_simulation_launches_configured_patrols() {
        let park = park();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let config = PatrolConfig {
            patrols_per_month: 7,
            ..PatrolConfig::default()
        };
        let patrols = simulate_month(&park, &config, &mut rng);
        assert_eq!(patrols.len(), 7);
    }

    #[test]
    fn effort_map_sums_patrol_effort() {
        let park = park();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let config = PatrolConfig::default();
        let patrols = simulate_month(&park, &config, &mut rng);
        let map = effort_map(&park, &patrols);
        let total_map: f64 = map.iter().sum();
        let total_patrols: f64 = patrols
            .iter()
            .flat_map(|p| p.true_effort.iter().map(|(_, km)| km))
            .sum();
        assert!((total_map - total_patrols).abs() < 1e-9);
    }

    #[test]
    fn targeted_patrol_reaches_neighbourhood_of_target() {
        let park = park();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        // Pick a target reasonably far from the post.
        let post = park.patrol_posts[0];
        let target = *park
            .cells
            .iter()
            .max_by(|a, b| {
                park.grid
                    .distance_km(post, **a)
                    .total_cmp(&park.grid.distance_km(post, **b))
            })
            .unwrap();
        let config = PatrolConfig {
            patrol_length_km: 60.0,
            post_bias: 2.0,
            risk_seeking: 0.0,
            ..PatrolConfig::default()
        };
        let p = simulate_patrol(&park, post, &config, Some(target), &mut rng);
        let min_dist = p
            .waypoints
            .iter()
            .map(|w| park.grid.distance_km(w.cell, target))
            .fold(f64::INFINITY, f64::min);
        let start_dist = park.grid.distance_km(post, target);
        assert!(
            min_dist < start_dist,
            "targeted walk never approached the target"
        );
    }

    #[test]
    fn coverage_is_spatially_biased_towards_posts() {
        // The central bias mechanism of the paper: historical effort is
        // concentrated near posts.
        let park = park();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let config = PatrolConfig {
            patrols_per_month: 60,
            post_bias: 1.0,
            ..PatrolConfig::default()
        };
        let patrols = simulate_month(&park, &config, &mut rng);
        let map = effort_map(&park, &patrols);
        let dist_post: Vec<f64> = park
            .cells
            .iter()
            .map(|c| {
                park.patrol_posts
                    .iter()
                    .map(|p| park.grid.distance_km(*c, *p))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let near: Vec<usize> = (0..park.n_cells())
            .filter(|&i| dist_post[i] <= 3.0)
            .collect();
        let far: Vec<usize> = (0..park.n_cells())
            .filter(|&i| dist_post[i] >= 8.0)
            .collect();
        let mean =
            |idx: &[usize]| idx.iter().map(|&i| map[i]).sum::<f64>() / idx.len().max(1) as f64;
        assert!(
            mean(&near) > mean(&far),
            "effort should concentrate near posts"
        );
    }
}
