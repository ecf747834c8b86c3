//! Route extraction: turning an optimised coverage vector into concrete
//! ranger patrols.
//!
//! The planner of Sec. VI decides *how much* effort each cell should receive;
//! rangers need actual routes that start and end at the patrol post. The
//! extractor builds K routes of (at most) T steps each with a greedy
//! coverage-chasing walk: at every step the patrol moves to the adjacent
//! candidate cell with the largest remaining effort demand (discounted by
//! distance), returning to the post in time.

use crate::game::{steps_for, PlanningProblem};
use paws_geo::CellId;

/// One extracted patrol route (sequence of visited cells, starting and
/// ending at the patrol post).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Visited cells in order, including the post at both ends.
    pub cells: Vec<CellId>,
}

impl Route {
    /// Length of the route in steps (edges traversed).
    pub fn n_steps(&self) -> usize {
        self.cells.len().saturating_sub(1)
    }
}

/// Extract `problem.n_patrols` routes approximating the coverage vector.
pub fn extract_routes(problem: &PlanningProblem, coverage: &[f64]) -> Vec<Route> {
    assert_eq!(
        coverage.len(),
        problem.n_cells(),
        "coverage length mismatch"
    );
    let t_steps = steps_for(problem.patrol_length_km);
    let mut demand: Vec<f64> = coverage.to_vec();
    // Pre-compute hop distance to the post within the candidate sub-graph so
    // routes can always return in time.
    let hops_to_post = hop_distances(problem, problem.post_index);

    (0..problem.n_patrols)
        .map(|_| {
            let mut current = problem.post_index;
            let mut cells = vec![problem.cells[current].cell];
            for step in 0..t_steps {
                let remaining = t_steps - step - 1;
                // Candidate next cells: neighbours (plus staying put) that can
                // still make it home in the remaining steps.
                let mut options: Vec<usize> = problem.neighbours[current].clone();
                options.push(current);
                options.retain(|&j| hops_to_post[j] as usize <= remaining);
                if options.is_empty() {
                    break;
                }
                // Greedy: follow the largest remaining demand, preferring to
                // keep moving over idling on an exhausted cell. total_cmp
                // keeps the selection well-defined even when a degenerate
                // problem (empty park, NaN response surface) puts NaN into
                // the demand vector — partial_cmp().unwrap() panicked
                // mid-planning here.
                let next = *options
                    .iter()
                    .max_by(|&&a, &&b| {
                        let da = demand[a] - if a == current { 1e-6 } else { 0.0 };
                        let db = demand[b] - if b == current { 1e-6 } else { 0.0 };
                        da.total_cmp(&db)
                    })
                    .expect("options is non-empty");
                demand[next] = (demand[next] - 1.0).max(0.0);
                current = next;
                cells.push(problem.cells[current].cell);
            }
            // Walk back to the post if the greedy walk did not end there.
            while current != problem.post_index {
                let next = *problem.neighbours[current]
                    .iter()
                    .min_by_key(|&&j| hops_to_post[j])
                    .expect("candidate sub-graph is connected to the post");
                current = next;
                cells.push(problem.cells[current].cell);
            }
            Route { cells }
        })
        .collect()
}

/// Per-cell effort implied by a set of routes (one km per visited step).
pub fn route_coverage(problem: &PlanningProblem, routes: &[Route]) -> Vec<f64> {
    let mut coverage = vec![0.0; problem.n_cells()];
    let index_of: std::collections::HashMap<CellId, usize> = problem
        .cells
        .iter()
        .enumerate()
        .map(|(i, c)| (c.cell, i))
        .collect();
    for route in routes {
        for cell in route.cells.iter().skip(1) {
            if let Some(&i) = index_of.get(cell) {
                coverage[i] += 1.0;
            }
        }
    }
    coverage
}

/// Breadth-first hop distances from `source` within the candidate sub-graph.
fn hop_distances(problem: &PlanningProblem, source: usize) -> Vec<u32> {
    let mut dist = vec![u32::MAX; problem.n_cells()];
    let mut queue = std::collections::VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(i) = queue.pop_front() {
        for &j in &problem.neighbours[i] {
            if dist[j] == u32::MAX {
                dist[j] = dist[i] + 1;
                queue.push_back(j);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{try_plan, PlannerConfig};
    use paws_data::matrix::Matrix;
    use paws_geo::parks::test_park_spec;
    use paws_geo::Park;

    fn problem() -> PlanningProblem {
        let park = Park::generate(&test_park_spec(), 7);
        let post = park.patrol_posts[0];
        let grid: Vec<f64> = vec![0.0, 1.0, 2.0, 4.0, 8.0];
        let probs: Vec<Vec<f64>> = (0..park.n_cells())
            .map(|i| {
                let s = 0.1 + 0.8 * ((i * 13) % 50) as f64 / 50.0;
                grid.iter().map(|&e| s * (1.0 - (-0.6 * e).exp())).collect()
            })
            .collect();
        let vars = vec![vec![0.2; grid.len()]; park.n_cells()];
        PlanningProblem::from_response(
            &park,
            post,
            &grid,
            &Matrix::from_rows(&probs),
            &Matrix::from_rows(&vars),
            8.0,
            3,
            0.0,
        )
    }

    #[test]
    fn routes_start_and_end_at_the_post() {
        let p = problem();
        let coverage = try_plan(&p, &PlannerConfig::default()).unwrap().coverage;
        let routes = extract_routes(&p, &coverage);
        assert_eq!(routes.len(), 3);
        for r in &routes {
            assert_eq!(*r.cells.first().unwrap(), p.post);
            assert_eq!(*r.cells.last().unwrap(), p.post);
        }
    }

    #[test]
    fn routes_respect_patrol_length_roughly() {
        let p = problem();
        let coverage = try_plan(&p, &PlannerConfig::default()).unwrap().coverage;
        let routes = extract_routes(&p, &coverage);
        // The same rounding helper the extractor itself uses — this bound
        // used a truncating `as usize` before, disagreeing with the
        // extractor at x.5 patrol lengths.
        let t_steps = steps_for(p.patrol_length_km);
        for r in &routes {
            // Greedy may add a short tail to return home but never more than
            // the reach radius.
            assert!(r.n_steps() <= t_steps + steps_for(p.patrol_length_km / 2.0));
            assert!(r.n_steps() >= 2);
        }
    }

    #[test]
    fn routes_only_visit_adjacent_candidate_cells() {
        let p = problem();
        let coverage = try_plan(&p, &PlannerConfig::default()).unwrap().coverage;
        let routes = extract_routes(&p, &coverage);
        let index_of: std::collections::HashMap<CellId, usize> = p
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| (c.cell, i))
            .collect();
        for r in &routes {
            for w in r.cells.windows(2) {
                let a = index_of[&w[0]];
                let b = index_of[&w[1]];
                assert!(
                    a == b || p.neighbours[a].contains(&b),
                    "route takes a non-adjacent step"
                );
            }
        }
    }

    #[test]
    fn nan_demand_does_not_panic_route_extraction() {
        // Regression: the greedy sort compared demands with
        // `partial_cmp(..).unwrap()`, so one NaN in the coverage vector (a
        // degenerate response surface / empty-park plan) panicked
        // mid-planning. With total_cmp the walk stays defined and every
        // route still closes at the post.
        let p = problem();
        let mut coverage = try_plan(&p, &PlannerConfig::default()).unwrap().coverage;
        for (i, c) in coverage.iter_mut().enumerate() {
            if i % 4 == 0 {
                *c = f64::NAN;
            }
        }
        let routes = extract_routes(&p, &coverage);
        assert_eq!(routes.len(), 3);
        for r in &routes {
            assert_eq!(*r.cells.first().unwrap(), p.post);
            assert_eq!(*r.cells.last().unwrap(), p.post);
        }

        // All-NaN demand is the worst case and must not panic either.
        let all_nan = vec![f64::NAN; p.n_cells()];
        let routes = extract_routes(&p, &all_nan);
        assert_eq!(routes.len(), 3);
    }

    #[test]
    fn route_coverage_targets_high_demand_cells() {
        let p = problem();
        let planned = try_plan(&p, &PlannerConfig::default()).unwrap().coverage;
        let routes = extract_routes(&p, &planned);
        let realised = route_coverage(&p, &routes);
        // The realised coverage should put most of its effort on cells with
        // positive planned coverage.
        let total: f64 = realised.iter().sum();
        let on_target: f64 = realised
            .iter()
            .zip(&planned)
            .filter(|(_, &plan)| plan > 1e-6)
            .map(|(r, _)| r)
            .sum();
        assert!(total > 0.0);
        assert!(
            on_target / total > 0.5,
            "routes ignore the plan: {on_target}/{total}"
        );
    }
}
