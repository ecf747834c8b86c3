//! The Green Security Game planning problem.
//!
//! Sec. VI-A: the protected area is a graph of 1×1 km cells; the defender
//! (rangers) picks patrol routes starting and ending at a patrol post, and
//! each of the N adversaries (one per cell) decides whether to place snares.
//! The defender's expected utility is the probability of detecting an attack
//! summed over cells, where both the attack probability and the detection
//! probability are captured by the learned response function g_v(c_v)
//! (probability of a *detected* attack as a function of patrol effort) and —
//! in the enhanced model — its uncertainty ν_v(c_v).
//!
//! A [`PlanningProblem`] gathers everything the planner needs for one patrol
//! post: the candidate cells with their response functions, travel times
//! from the post, the patrol length T, the number of patrols K, and the
//! robustness parameter β.

use crate::pwl::{interpolate, PwlFunction};
use crate::robust::VarianceSquash;
use paws_data::matrix::Matrix;
use paws_geo::distance::masked_distance_to_nearest;
use paws_geo::{CellId, Park};

/// One candidate cell in a planning problem.
#[derive(Debug, Clone)]
pub struct PlanningCell {
    /// Park cell id.
    pub cell: CellId,
    /// In-park cell index (into `Park::cells`).
    pub park_index: usize,
    /// Shortest-path travel distance from the patrol post, in km.
    pub travel_km: f64,
    /// Detected-attack probability as a function of patrol effort, g_v(c).
    pub g: PwlFunction,
    /// Squashed prediction uncertainty as a function of effort, ν_v(c) ∈ [0, 1].
    pub nu: PwlFunction,
}

/// A patrol-planning problem for one patrol post.
#[derive(Debug, Clone)]
pub struct PlanningProblem {
    /// The patrol post all routes start and end at.
    pub post: CellId,
    /// Candidate cells (those reachable within the patrol length).
    pub cells: Vec<PlanningCell>,
    /// Adjacency between candidate cells (indices into `cells`), including
    /// only in-park neighbours that are themselves candidates.
    pub neighbours: Vec<Vec<usize>>,
    /// Index into `cells` of the post itself.
    pub post_index: usize,
    /// Length of a single patrol, T, in km (= time steps).
    pub patrol_length_km: f64,
    /// Number of patrols K conducted during the planning period.
    pub n_patrols: usize,
    /// Robustness weight β ∈ [0, 1] on the uncertainty penalty.
    pub beta: f64,
}

impl PlanningProblem {
    /// Build a planning problem from per-cell response curves.
    ///
    /// * `park` — the park geometry.
    /// * `post` — the patrol post cell.
    /// * `effort_grid` — the effort levels at which `probs`/`vars` were
    ///   sampled (strictly ascending, starting at 0).
    /// * `probs`, `vars` — flat response matrices with one row per in-park
    ///   cell and one column per effort level (as produced by
    ///   `IWareModel::effort_response`), the variance already squashed to
    ///   [0, 1].
    ///
    /// Only cells within `patrol_length_km / 2` of the post are candidates,
    /// so the travel search stops there and only their rows are read.
    #[allow(clippy::too_many_arguments)]
    pub fn from_response(
        park: &Park,
        post: CellId,
        effort_grid: &[f64],
        probs: &Matrix,
        vars: &Matrix,
        patrol_length_km: f64,
        n_patrols: usize,
        beta: f64,
    ) -> Self {
        Self::build(
            park,
            post,
            effort_grid,
            probs,
            vars,
            None,
            patrol_length_km,
            n_patrols,
            beta,
        )
    }

    /// As [`PlanningProblem::from_response`], but from raw predictive
    /// variances: ν is [`VarianceSquash::fit`] over every cell and level of
    /// `raw_vars` (the park-wide scale), applied to the candidates' rows
    /// only.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_response(
        park: &Park,
        post: CellId,
        effort_grid: &[f64],
        probs: &Matrix,
        raw_vars: &Matrix,
        patrol_length_km: f64,
        n_patrols: usize,
        beta: f64,
    ) -> Self {
        Self::build(
            park,
            post,
            effort_grid,
            probs,
            raw_vars,
            Some(VarianceSquash::fit(raw_vars.as_slice())),
            patrol_length_km,
            n_patrols,
            beta,
        )
    }

    /// The constructor behind both public ones: `squash`, when given, maps
    /// each candidate's `vars` row to ν through one reused buffer.
    #[allow(clippy::too_many_arguments)]
    fn build(
        park: &Park,
        post: CellId,
        effort_grid: &[f64],
        probs: &Matrix,
        vars: &Matrix,
        squash: Option<VarianceSquash>,
        patrol_length_km: f64,
        n_patrols: usize,
        beta: f64,
    ) -> Self {
        assert!(park.contains(post), "patrol post must be inside the park");
        assert_eq!(
            probs.n_rows(),
            park.n_cells(),
            "probs must cover every in-park cell"
        );
        assert_eq!(
            vars.n_rows(),
            park.n_cells(),
            "vars must cover every in-park cell"
        );
        assert!(effort_grid.len() >= 2, "need at least two effort levels");
        assert!(
            effort_grid.windows(2).all(|w| w[1] > w[0]),
            "effort levels must be strictly ascending"
        );
        assert!(
            probs.n_cols() == effort_grid.len() && vars.n_cols() == effort_grid.len(),
            "response sample length mismatch"
        );
        assert!(
            patrol_length_km > 0.0 && n_patrols > 0,
            "empty patrol budget"
        );
        assert!((0.0..=1.0).contains(&beta), "beta must be in [0, 1]");

        // Candidate cells: reachable and back within a single patrol.
        let reach_limit = patrol_length_km / 2.0;
        let travel = park_travel_distances(park, post, reach_limit);
        let mut cells = Vec::new();
        let mut park_index_to_planning: Vec<Option<usize>> = vec![None; park.n_cells()];
        let mut squashed = vec![0.0; effort_grid.len()];
        for (pi, &cell) in park.cells.iter().enumerate() {
            let t = travel[pi];
            if t <= reach_limit {
                let nu_row = match squash {
                    Some(squash) => {
                        for (out, &v) in squashed.iter_mut().zip(vars.row(pi)) {
                            *out = squash.apply(v);
                        }
                        &squashed[..]
                    }
                    None => vars.row(pi),
                };
                let max_effort = effective_max_effort(patrol_length_km, n_patrols, t);
                let (g, nu) = resample_response(effort_grid, probs.row(pi), nu_row, max_effort);
                park_index_to_planning[pi] = Some(cells.len());
                cells.push(PlanningCell {
                    cell,
                    park_index: pi,
                    travel_km: t,
                    g,
                    nu,
                });
            }
        }
        let post_index = cells
            .iter()
            .position(|c| c.cell == post)
            .expect("post is always reachable from itself");

        let neighbours = cells
            .iter()
            .map(|c| {
                park.park_neighbours(c.cell)
                    .into_iter()
                    .filter_map(|(n, _)| {
                        park.cell_position(n)
                            .and_then(|pi| park_index_to_planning[pi])
                    })
                    .collect()
            })
            .collect();

        Self {
            post,
            cells,
            neighbours,
            post_index,
            patrol_length_km,
            n_patrols,
            beta,
        }
    }

    /// Total effort budget T × K in km (Sec. VI-B, last constraint of P).
    pub fn budget_km(&self) -> f64 {
        self.patrol_length_km * self.n_patrols as f64
    }

    /// Number of discrete steps in one patrol (see [`steps_for`]).
    pub fn patrol_steps(&self) -> usize {
        steps_for(self.patrol_length_km)
    }

    /// Number of candidate cells.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Maximum effort that can feasibly be spent in candidate cell `i`,
    /// accounting for the round trip from the post within each patrol.
    pub fn max_effort(&self, i: usize) -> f64 {
        effective_max_effort(
            self.patrol_length_km,
            self.n_patrols,
            self.cells[i].travel_km,
        )
    }

    /// The robust per-cell utility U_v(c) = g_v(c) − β·g_v(c)·ν_v(c)
    /// (Eq. 4), as a PWL function over the same breakpoints as g_v.
    pub fn utility(&self, i: usize, beta: f64) -> PwlFunction {
        self.cells[i]
            .g
            .combine(&self.cells[i].nu, |g, nu| g - beta * g * nu)
    }

    /// Evaluate Σ_v U_v(c_v) for a coverage vector under a given β.
    pub fn coverage_utility(&self, coverage: &[f64], beta: f64) -> f64 {
        assert_eq!(coverage.len(), self.cells.len(), "coverage length mismatch");
        coverage
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let g = self.cells[i].g.eval(c);
                let nu = self.cells[i].nu.eval(c);
                g - beta * g * nu
            })
            .sum()
    }
}

/// The number of discrete patrol steps implied by a patrol length in km
/// (one step ≈ one km, nearest-integer, never zero).
///
/// Route extraction and [`PlanningProblem::patrol_steps`] both go through
/// this one helper, so every layer counts the same steps for a patrol (an
/// 8.5 km patrol is 9 steps, never 8).
pub fn steps_for(patrol_length_km: f64) -> usize {
    patrol_length_km.round().max(1.0) as usize
}

/// Shortest octile travel distance (km) from `post` to every in-park cell
/// within `limit_km`, walking only through the park: the grid's distance
/// transform confined to `park.mask` and stopped at the limit. Cells farther
/// than the limit or cut off from the post by the park read
/// `f64::INFINITY`, and so does every cell when the post is outside the
/// park; every other cell reads the unbounded search's bits.
pub fn park_travel_distances(park: &Park, post: CellId, limit_km: f64) -> Vec<f64> {
    let dist = masked_distance_to_nearest(&park.grid, &park.mask, &[post], limit_km);
    park.cells.iter().map(|c| dist[c.index()]).collect()
}

fn effective_max_effort(patrol_length_km: f64, n_patrols: usize, travel_km: f64) -> f64 {
    let per_patrol = (patrol_length_km - 2.0 * travel_km).max(0.0);
    // Even an on-post cell cannot absorb more than the per-patrol length.
    (per_patrol * n_patrols as f64).max(0.1)
}

/// Restrict a cell's sampled g and ν curves to `[0, max_effort]`,
/// re-sampling both at the same evenly spaced breakpoints by interpolation
/// so every cell's PWLs live on its own feasible-effort domain.
fn resample_response(
    effort_grid: &[f64],
    g: &[f64],
    nu: &[f64],
    max_effort: f64,
) -> (PwlFunction, PwlFunction) {
    let n = effort_grid.len() - 1;
    let hi = max_effort.max(1e-3);
    let xs: Vec<f64> = (0..=n).map(|i| hi * i as f64 / n as f64).collect();
    let sample = |values: &[f64]| -> Vec<f64> {
        xs.iter()
            .map(|&x| interpolate(effort_grid, values, x))
            .collect()
    };
    let (g, nu) = (sample(g), sample(nu));
    (PwlFunction::new(xs.clone(), g), PwlFunction::new(xs, nu))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paws_geo::parks::test_park_spec;

    fn toy_problem() -> (Park, PlanningProblem) {
        let park = Park::generate(&test_park_spec(), 7);
        let post = park.patrol_posts[0];
        let grid: Vec<f64> = vec![0.0, 1.0, 2.0, 4.0];
        // Saturating detection response, uncertainty rising with effort.
        let probs: Vec<Vec<f64>> = (0..park.n_cells())
            .map(|i| {
                let scale = 0.2 + 0.6 * (i % 7) as f64 / 7.0;
                grid.iter()
                    .map(|&e| scale * (1.0 - (-0.8 * e).exp()))
                    .collect()
            })
            .collect();
        let vars: Vec<Vec<f64>> = (0..park.n_cells())
            .map(|i| {
                grid.iter()
                    .map(|&e| 0.1 + 0.05 * e + 0.002 * (i % 13) as f64)
                    .collect()
            })
            .collect();
        let problem = PlanningProblem::from_response(
            &park,
            post,
            &grid,
            &Matrix::from_rows(&probs),
            &Matrix::from_rows(&vars),
            10.0,
            3,
            1.0,
        );
        (park, problem)
    }

    #[test]
    fn candidate_cells_are_reachable_and_include_post() {
        let (park, p) = toy_problem();
        assert!(p.n_cells() > 1);
        assert!(p.n_cells() <= park.n_cells());
        assert_eq!(p.cells[p.post_index].cell, p.post);
        for c in &p.cells {
            assert!(c.travel_km <= p.patrol_length_km / 2.0 + 1e-9);
        }
    }

    #[test]
    fn neighbours_are_valid_indices() {
        let (_, p) = toy_problem();
        for (i, ns) in p.neighbours.iter().enumerate() {
            for &n in ns {
                assert!(n < p.n_cells());
                assert_ne!(n, i);
            }
        }
    }

    #[test]
    fn budget_and_max_effort_are_consistent() {
        let (_, p) = toy_problem();
        assert_eq!(p.budget_km(), 30.0);
        for i in 0..p.n_cells() {
            assert!(p.max_effort(i) > 0.0);
            assert!(p.max_effort(i) <= p.budget_km() + 1e-9);
        }
        // The post cell can absorb the most effort.
        let post_max = p.max_effort(p.post_index);
        assert!((0..p.n_cells()).all(|i| p.max_effort(i) <= post_max + 1e-9));
    }

    #[test]
    fn utility_penalises_uncertainty() {
        let (_, p) = toy_problem();
        let i = p.post_index;
        let u0 = p.utility(i, 0.0);
        let u1 = p.utility(i, 1.0);
        let c = p.max_effort(i) / 2.0;
        assert!(u1.eval(c) <= u0.eval(c) + 1e-12);
        // With β = 0 the utility is exactly g.
        assert!((u0.eval(c) - p.cells[i].g.eval(c)).abs() < 1e-12);
    }

    #[test]
    fn coverage_utility_matches_manual_sum() {
        let (_, p) = toy_problem();
        let coverage: Vec<f64> = (0..p.n_cells()).map(|i| (i % 3) as f64 * 0.5).collect();
        let total = p.coverage_utility(&coverage, 0.7);
        let manual: f64 = (0..p.n_cells())
            .map(|i| {
                let g = p.cells[i].g.eval(coverage[i]);
                let nu = p.cells[i].nu.eval(coverage[i]);
                g - 0.7 * g * nu
            })
            .sum();
        assert!((total - manual).abs() < 1e-9);
    }

    #[test]
    fn travel_distances_are_zero_at_post_and_metric() {
        let (park, p) = toy_problem();
        let d = park_travel_distances(&park, p.post, f64::INFINITY);
        assert_eq!(d[park.cell_position(p.post).unwrap()], 0.0);
        for (i, &cell) in park.cells.iter().enumerate() {
            if d[i].is_finite() {
                // Octile path distance is at least the Euclidean distance.
                assert!(d[i] + 1e-9 >= park.grid.distance_km(p.post, cell) - 1e-9);
            }
        }
    }

    #[test]
    fn travel_distances_match_a_bellman_ford_relaxation_bit_for_bit() {
        // Reference: relax every in-park edge until nothing changes. Each
        // fixed-point distance is the minimum over paths of the path's
        // left-to-right sum, which any Dijkstra over the same edges must
        // return too, whatever its heap's tie order. On the test park no
        // path through outside cells is ever shorter; on QENP it is from
        // two of the eight posts, so QENP also checks that walks stay in
        // the park. A limited search keeps those bits for every cell the
        // relaxation puts within the limit and reads infinity beyond it.
        let parks = [
            (test_park_spec(), 1),
            (test_park_spec(), 7),
            (test_park_spec(), 42),
            (paws_geo::parks::qenp_spec(), 2013),
        ];
        for (spec, seed) in parks {
            let park = Park::generate(&spec, seed);
            for &post in &park.patrol_posts {
                let mut expect = vec![f64::INFINITY; park.n_cells()];
                expect[park.cell_position(post).unwrap()] = 0.0;
                let mut changed = true;
                while changed {
                    changed = false;
                    for (i, &cell) in park.cells.iter().enumerate() {
                        for (n, step) in park.park_neighbours(cell) {
                            let j = park.cell_position(n).unwrap();
                            let nd = expect[i] + step;
                            if nd < expect[j] {
                                expect[j] = nd;
                                changed = true;
                            }
                        }
                    }
                }
                let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                for limit in [f64::INFINITY, 0.5, 6.0, 20.0] {
                    let within: Vec<f64> = expect
                        .iter()
                        .map(|&d| if d <= limit { d } else { f64::INFINITY })
                        .collect();
                    assert_eq!(
                        bits(&park_travel_distances(&park, post, limit)),
                        bits(&within),
                        "{} seed {seed}, post {post:?}, limit {limit}",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn steps_for_rounds_at_half_km_boundaries() {
        // The single step-budget helper: nearest-integer with ties away
        // from zero, clamped to at least one step. Pinning the x.5 cases
        // guards against a regression to the truncating `as usize` math
        // that used to live in the route-length test.
        assert_eq!(steps_for(8.5), 9);
        assert_eq!(steps_for(7.5), 8);
        assert_eq!(steps_for(8.49), 8);
        assert_eq!(steps_for(0.5), 1);
        assert_eq!(steps_for(0.2), 1);
        // And the truncating math it replaces would have said 8 here:
        assert_ne!(steps_for(8.5), 8.5f64 as usize);
    }

    #[test]
    fn patrol_steps_uses_the_shared_helper() {
        let (_, p) = toy_problem();
        assert_eq!(p.patrol_steps(), steps_for(p.patrol_length_km));
    }

    #[test]
    #[should_panic(expected = "beta must be in [0, 1]")]
    fn invalid_beta_rejected() {
        let park = Park::generate(&test_park_spec(), 7);
        let post = park.patrol_posts[0];
        let grid: Vec<f64> = vec![0.0, 1.0];
        let probs = vec![vec![0.0, 0.1]; park.n_cells()];
        let vars = vec![vec![0.1, 0.1]; park.n_cells()];
        let _ = PlanningProblem::from_response(
            &park,
            post,
            &grid,
            &Matrix::from_rows(&probs),
            &Matrix::from_rows(&vars),
            8.0,
            2,
            1.5,
        );
    }
}
