//! Branch-and-bound for mixed binary programs.
//!
//! The patrol-planning MILP (problem P with a piecewise-linear objective)
//! needs binary variables only for the SOS2 encoding of non-concave PWL
//! pieces; all other decision variables (patrol effort, flows, λ weights)
//! are continuous. Branch-and-bound on the binaries is therefore
//! sufficient. Relaxations are solved by the sparse revised simplex of
//! [`crate::revised`] by default — one [`SparseLp`] workspace is built per
//! search and every node warm-starts from its parent's optimal basis — with
//! the dense tableau of [`crate::simplex`] selectable via
//! [`MilpOptions::engine`] for parity testing and benchmarking.

use std::rc::Rc;

use crate::budget::{deadline_expired, SolveBudget};
use crate::model::{Model, Sense, Solution, SolveStatus};
use crate::revised::{BasisSnapshot, SparseLp};
use crate::simplex::solve_lp_inner;

/// Which LP engine branch-and-bound uses for node relaxations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LpEngine {
    /// Sparse revised simplex with a shared workspace and parent-basis warm
    /// starts — the default.
    #[default]
    Sparse,
    /// The dense tableau reference engine (solves every node from scratch).
    Dense,
}

/// Options controlling the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct MilpOptions {
    /// Maximum number of explored nodes before returning the incumbent.
    pub max_nodes: usize,
    /// Absolute optimality gap at which a node is fathomed.
    pub gap_tolerance: f64,
    /// Integrality tolerance.
    pub int_tolerance: f64,
    /// Anytime budget for the whole search: one wall-clock deadline shared
    /// by every LP relaxation, plus an optional per-LP iteration cap. When
    /// it runs out the best incumbent is returned tagged
    /// [`SolveStatus::Degraded`] ([`SolveStatus::BudgetExceeded`] when no
    /// incumbent was found in time). Unlimited by default.
    pub budget: SolveBudget,
    /// Relaxation engine; [`LpEngine::Sparse`] unless stated otherwise.
    pub engine: LpEngine,
}

impl Default for MilpOptions {
    fn default() -> Self {
        Self {
            max_nodes: 20_000,
            gap_tolerance: 1e-6,
            int_tolerance: 1e-6,
            budget: SolveBudget::unlimited(),
            engine: LpEngine::default(),
        }
    }
}

/// Statistics of a branch-and-bound run.
#[derive(Debug, Clone, Default)]
pub struct MilpStats {
    /// Number of explored nodes.
    pub nodes: usize,
    /// Number of LP relaxations solved.
    pub lp_solves: usize,
    /// Number of relaxations that successfully warm-started from their
    /// parent node's basis (always 0 on the dense engine).
    pub warm_starts: usize,
}

struct Node {
    bounds: Vec<(f64, f64)>,
    relaxation_bound: f64,
    /// Optimal basis of the parent relaxation, shared by both children.
    warm: Option<Rc<BasisSnapshot>>,
}

/// Solve a model whose binary variables must take integral values.
pub fn solve_milp(model: &Model, options: &MilpOptions) -> (Solution, MilpStats) {
    let binaries = model.binary_vars();
    let mut stats = MilpStats::default();
    let deadline = options.budget.deadline();
    let lp_cap = options.budget.max_lp_iterations;

    let root_bounds: Vec<(f64, f64)> = (0..model.n_vars())
        .map(|i| (model.vars[i].lower, model.vars[i].upper))
        .collect();

    // One sparse workspace per search: CSC build and solver scratch are
    // shared by every relaxation, and each node warm-starts from the basis
    // its parent left behind.
    let mut sparse_ws = match options.engine {
        LpEngine::Sparse => Some(SparseLp::new(model)),
        LpEngine::Dense => None,
    };
    let solve_relax = |ws: &mut Option<SparseLp>,
                       bounds: &[(f64, f64)],
                       warm: Option<&BasisSnapshot>,
                       stats: &mut MilpStats|
     -> (Solution, Option<Rc<BasisSnapshot>>) {
        stats.lp_solves += 1;
        match ws {
            Some(ws) => {
                let out = ws.solve_inner(Some(bounds), lp_cap, deadline, warm);
                if out.warm_started {
                    stats.warm_starts += 1;
                }
                (out.solution, out.basis.map(Rc::new))
            }
            None => (solve_lp_inner(model, Some(bounds), lp_cap, deadline), None),
        }
    };

    let (root, root_basis) = solve_relax(&mut sparse_ws, &root_bounds, None, &mut stats);
    match root.status {
        SolveStatus::Infeasible | SolveStatus::Unbounded | SolveStatus::BudgetExceeded => {
            return (root, stats)
        }
        _ => {}
    }
    if binaries.is_empty() {
        return (root, stats);
    }

    // Maximisation internally: convert sense so "better" means larger.
    let better = |a: f64, b: f64| match model.sense() {
        Sense::Maximize => a > b,
        Sense::Minimize => a < b,
    };

    // A Degraded root relaxation has no trustworthy bound; remember that
    // the budget already bit so the final status reports degradation.
    let mut budget_hit = root.status == SolveStatus::Degraded;
    let mut incumbent: Option<Solution> = None;
    let mut stack: Vec<Node> = vec![Node {
        bounds: root_bounds,
        relaxation_bound: root.objective,
        warm: root_basis,
    }];

    while let Some(node) = stack.pop() {
        if deadline_expired(deadline) {
            budget_hit = true;
            break;
        }
        if stats.nodes >= options.max_nodes {
            break;
        }
        stats.nodes += 1;

        // Bound-based fathoming against the incumbent.
        if let Some(inc) = &incumbent {
            let gap_ok = match model.sense() {
                Sense::Maximize => node.relaxation_bound <= inc.objective + options.gap_tolerance,
                Sense::Minimize => node.relaxation_bound >= inc.objective - options.gap_tolerance,
            };
            if gap_ok {
                continue;
            }
        }

        let (relax, relax_basis) = solve_relax(
            &mut sparse_ws,
            &node.bounds,
            node.warm.as_deref(),
            &mut stats,
        );
        if relax.status == SolveStatus::Infeasible {
            continue;
        }
        if matches!(
            relax.status,
            SolveStatus::Degraded | SolveStatus::BudgetExceeded
        ) {
            // An unfinished relaxation has neither a valid bound to fathom
            // with nor a branching point worth trusting: skip the node and
            // let the deadline check at the loop top stop the search.
            budget_hit = true;
            continue;
        }
        if let Some(inc) = &incumbent {
            if !better(relax.objective, inc.objective + 0.0) {
                continue;
            }
        }

        // Most fractional binary.
        let fractional = most_fractional(
            binaries.iter().map(|&v| (v, relax.value(v))),
            options.int_tolerance,
        );

        match fractional {
            None => {
                // Integral solution: candidate incumbent.
                let mut values = relax.values.clone();
                for &v in &binaries {
                    values[v.0] = values[v.0].round();
                }
                let objective = model.objective_value(&values);
                let candidate = Solution {
                    status: SolveStatus::Optimal,
                    objective,
                    values,
                };
                if incumbent
                    .as_ref()
                    .is_none_or(|inc| better(candidate.objective, inc.objective))
                {
                    incumbent = Some(candidate);
                }
            }
            Some((var, value)) => {
                // Branch: explore the side closer to the relaxation value last
                // (so it is popped first from the DFS stack).
                let mut zero = node.bounds.clone();
                zero[var.0] = (0.0, 0.0);
                let mut one = node.bounds.clone();
                one[var.0] = (1.0, 1.0);
                let (first, second) = if value >= 0.5 {
                    (zero, one)
                } else {
                    (one, zero)
                };
                stack.push(Node {
                    bounds: first,
                    relaxation_bound: relax.objective,
                    warm: relax_basis.clone(),
                });
                stack.push(Node {
                    bounds: second,
                    relaxation_bound: relax.objective,
                    warm: relax_basis,
                });
            }
        }
    }

    match incumbent {
        Some(mut sol) => {
            if budget_hit {
                sol.status = SolveStatus::Degraded;
            } else if stats.nodes >= options.max_nodes {
                sol.status = SolveStatus::LimitReached;
            }
            (sol, stats)
        }
        None => (
            Solution {
                status: if budget_hit {
                    SolveStatus::BudgetExceeded
                } else if stats.nodes >= options.max_nodes {
                    SolveStatus::LimitReached
                } else {
                    SolveStatus::Infeasible
                },
                objective: match model.sense() {
                    Sense::Maximize => f64::NEG_INFINITY,
                    Sense::Minimize => f64::INFINITY,
                },
                values: vec![0.0; model.n_vars()],
            },
            stats,
        ),
    }
}

/// The most fractional candidate (value nearest 0.5) among `values`, or
/// `None` when every value is integral within `tol`.
///
/// A non-finite relaxation value (a degenerate LP basis) is treated as
/// non-fractional and skipped — it carries no branching information, and it
/// used to panic the `partial_cmp().unwrap()` comparator. The surviving
/// comparison uses `total_cmp`, which cannot panic and keeps the original
/// `max_by` tie-breaking (the last of equally fractional candidates wins).
fn most_fractional<V: Copy>(values: impl Iterator<Item = (V, f64)>, tol: f64) -> Option<(V, f64)> {
    values
        .filter(|(_, x)| x.is_finite() && (x - x.round()).abs() > tol)
        .max_by(|a, b| {
            let fa = (a.1 - 0.5).abs();
            let fb = (b.1 - 0.5).abs();
            fb.total_cmp(&fa)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense};

    #[test]
    fn most_fractional_skips_non_finite_and_picks_nearest_half() {
        // Regression: a NaN relaxation value panicked the branching
        // comparator; it must now be treated as non-fractional (skipped).
        let picked = most_fractional(
            [
                (0usize, 1.0),          // integral — filtered
                (1, f64::NAN),          // non-finite — skipped, not a panic
                (2, 0.9),               // fractional
                (3, f64::INFINITY),     // non-finite — skipped
                (4, 0.45),              // most fractional
                (5, f64::NEG_INFINITY), // non-finite — skipped
            ]
            .into_iter(),
            1e-6,
        );
        assert_eq!(picked, Some((4, 0.45)));
        // All-integral (or unusable) candidates mean "no branching var".
        assert_eq!(
            most_fractional([(0usize, 1.0), (1, f64::NAN)].into_iter(), 1e-6),
            None
        );
    }

    #[test]
    fn solves_small_knapsack() {
        // Knapsack: values 10, 13, 7; weights 5, 7, 4; capacity 9 -> pick items 1 and 3 (17).
        let mut m = Model::new(Sense::Maximize);
        let x1 = m.try_add_binary("x1", 10.0).unwrap();
        let x2 = m.try_add_binary("x2", 13.0).unwrap();
        let x3 = m.try_add_binary("x3", 7.0).unwrap();
        m.try_add_constraint(&[(x1, 5.0), (x2, 7.0), (x3, 4.0)], ConstraintOp::Le, 9.0)
            .unwrap();
        let (sol, stats) = solve_milp(&m, &MilpOptions::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 17.0).abs() < 1e-6);
        assert!((sol.value(x1) - 1.0).abs() < 1e-6);
        assert!((sol.value(x2) - 0.0).abs() < 1e-6);
        assert!((sol.value(x3) - 1.0).abs() < 1e-6);
        assert!(stats.nodes >= 1);
    }

    #[test]
    fn mixed_integer_with_continuous_part() {
        // max 4y + x  s.t. x <= 3.5, x + 10y <= 10, y binary.
        // y=1 -> x <= 0 -> obj 4; y=0 -> x <= 3.5 -> obj 3.5. Optimal y=1.
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_continuous("x", 0.0, 3.5, 1.0).unwrap();
        let y = m.try_add_binary("y", 4.0).unwrap();
        m.try_add_constraint(&[(x, 1.0), (y, 10.0)], ConstraintOp::Le, 10.0)
            .unwrap();
        let (sol, _) = solve_milp(&m, &MilpOptions::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 4.0).abs() < 1e-6);
        assert!((sol.value(y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn pure_lp_passes_through() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_continuous("x", 0.0, 2.0, 1.0).unwrap();
        m.try_add_constraint(&[(x, 1.0)], ConstraintOp::Le, 5.0)
            .unwrap();
        let (sol, stats) = solve_milp(&m, &MilpOptions::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!((sol.objective - 2.0).abs() < 1e-6);
        assert_eq!(stats.lp_solves, 1);
    }

    #[test]
    fn infeasible_binary_problem_detected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_binary("x", 1.0).unwrap();
        let y = m.try_add_binary("y", 1.0).unwrap();
        m.try_add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 3.0)
            .unwrap();
        let (sol, _) = solve_milp(&m, &MilpOptions::default());
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn set_partitioning_exactly_one() {
        // Choose exactly one of three options, maximise value.
        let mut m = Model::new(Sense::Maximize);
        let a = m.try_add_binary("a", 2.0).unwrap();
        let b = m.try_add_binary("b", 5.0).unwrap();
        let c = m.try_add_binary("c", 3.0).unwrap();
        m.try_add_constraint(&[(a, 1.0), (b, 1.0), (c, 1.0)], ConstraintOp::Eq, 1.0)
            .unwrap();
        let (sol, _) = solve_milp(&m, &MilpOptions::default());
        assert!((sol.objective - 5.0).abs() < 1e-6);
        assert!((sol.value(b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn minimisation_branching_works() {
        // min 3a + 2b + 4c s.t. a + b + c >= 2 (binaries) -> pick b and a? 2+3=5 vs b+c=6, a+c=7 -> 5.
        let mut m = Model::new(Sense::Minimize);
        let a = m.try_add_binary("a", 3.0).unwrap();
        let b = m.try_add_binary("b", 2.0).unwrap();
        let c = m.try_add_binary("c", 4.0).unwrap();
        m.try_add_constraint(&[(a, 1.0), (b, 1.0), (c, 1.0)], ConstraintOp::Ge, 2.0)
            .unwrap();
        let (sol, _) = solve_milp(&m, &MilpOptions::default());
        assert!((sol.objective - 5.0).abs() < 1e-6);
        assert!((sol.value(a) - 1.0).abs() < 1e-6);
        assert!((sol.value(b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn node_limit_returns_limit_status() {
        // A 12-item knapsack with a node limit of 1 cannot finish.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..12)
            .map(|i| {
                m.try_add_binary(&format!("x{i}"), (i % 5) as f64 + 1.5)
                    .unwrap()
            })
            .collect();
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i % 3) as f64 + 1.0))
            .collect();
        m.try_add_constraint(&terms, ConstraintOp::Le, 7.5).unwrap();
        let options = MilpOptions {
            max_nodes: 1,
            ..MilpOptions::default()
        };
        let (sol, stats) = solve_milp(&m, &options);
        assert!(stats.nodes <= 2);
        assert!(sol.status == SolveStatus::LimitReached || sol.status == SolveStatus::Optimal);
    }

    #[test]
    fn generous_budget_reproduces_unbudgeted_milp_exactly() {
        let mut m = Model::new(Sense::Maximize);
        let x1 = m.try_add_binary("x1", 10.0).unwrap();
        let x2 = m.try_add_binary("x2", 13.0).unwrap();
        let x3 = m.try_add_binary("x3", 7.0).unwrap();
        m.try_add_constraint(&[(x1, 5.0), (x2, 7.0), (x3, 4.0)], ConstraintOp::Le, 9.0)
            .unwrap();
        let (free, free_stats) = solve_milp(&m, &MilpOptions::default());
        let options = MilpOptions {
            budget: crate::budget::SolveBudget::with_time_limit(std::time::Duration::from_secs(
                3600,
            )),
            ..MilpOptions::default()
        };
        let (budgeted, stats) = solve_milp(&m, &options);
        assert_eq!(budgeted.status, free.status);
        assert_eq!(budgeted.values, free.values);
        assert_eq!(budgeted.objective, free.objective);
        assert_eq!(stats.nodes, free_stats.nodes);
        assert_eq!(stats.lp_solves, free_stats.lp_solves);
    }

    #[test]
    fn expired_deadline_returns_budget_exceeded_without_hanging() {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..10)
            .map(|i| {
                m.try_add_binary(&format!("x{i}"), (i % 4) as f64 + 1.0)
                    .unwrap()
            })
            .collect();
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i % 3) as f64 + 1.0))
            .collect();
        m.try_add_constraint(&terms, ConstraintOp::Le, 6.5).unwrap();
        let options = MilpOptions {
            budget: crate::budget::SolveBudget::with_time_limit(std::time::Duration::ZERO),
            ..MilpOptions::default()
        };
        let (sol, _) = solve_milp(&m, &options);
        assert_eq!(sol.status, SolveStatus::BudgetExceeded);
    }

    #[test]
    fn starved_lp_iterations_surface_as_budget_degradation() {
        // With one simplex iteration per relaxation no node can be solved
        // to optimality; the search must still terminate with a typed
        // budget status rather than mis-reporting optimality.
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_binary("x", 3.0).unwrap();
        let y = m.try_add_binary("y", 2.0).unwrap();
        m.try_add_constraint(&[(x, 2.0), (y, 2.0)], ConstraintOp::Le, 3.0)
            .unwrap();
        let options = MilpOptions {
            budget: crate::budget::SolveBudget {
                time_limit: None,
                max_lp_iterations: Some(1),
            },
            ..MilpOptions::default()
        };
        let (sol, _) = solve_milp(&m, &options);
        assert!(
            matches!(
                sol.status,
                SolveStatus::Degraded | SolveStatus::BudgetExceeded
            ),
            "unexpected status {:?}",
            sol.status
        );
    }

    #[test]
    fn sparse_and_dense_engines_agree_and_sparse_warm_starts() {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..10)
            .map(|i| {
                m.try_add_binary(&format!("x{i}"), ((i * 7) % 11) as f64 + 0.5)
                    .unwrap()
            })
            .collect();
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, ((i * 3) % 5) as f64 + 1.0))
            .collect();
        m.try_add_constraint(&terms, ConstraintOp::Le, 11.5)
            .unwrap();
        let (sparse, sparse_stats) = solve_milp(&m, &MilpOptions::default());
        let (dense, dense_stats) = solve_milp(
            &m,
            &MilpOptions {
                engine: LpEngine::Dense,
                ..MilpOptions::default()
            },
        );
        assert_eq!(sparse.status, SolveStatus::Optimal);
        assert_eq!(dense.status, SolveStatus::Optimal);
        assert!(
            (sparse.objective - dense.objective).abs() < 1e-9,
            "sparse {} vs dense {}",
            sparse.objective,
            dense.objective
        );
        // The dense engine never warm-starts; the sparse engine should
        // reuse parent bases for most non-root relaxations.
        assert_eq!(dense_stats.warm_starts, 0);
        assert!(
            sparse_stats.lp_solves <= 1 || sparse_stats.warm_starts > 0,
            "expected warm starts in {sparse_stats:?}"
        );
    }

    #[test]
    fn larger_knapsack_matches_dynamic_programming() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let n = 14;
        let values: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(1.0..20.0_f64).round())
            .collect();
        let weights: Vec<usize> = (0..n).map(|_| rng.gen_range(1..8)).collect();
        let capacity = 20usize;

        // DP over integer weights.
        let mut dp = vec![0.0f64; capacity + 1];
        for i in 0..n {
            for w in (weights[i]..=capacity).rev() {
                dp[w] = dp[w].max(dp[w - weights[i]] + values[i]);
            }
        }
        let best_dp = dp[capacity];

        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|i| m.try_add_binary(&format!("x{i}"), values[i]).unwrap())
            .collect();
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, weights[i] as f64))
            .collect();
        m.try_add_constraint(&terms, ConstraintOp::Le, capacity as f64)
            .unwrap();
        let (sol, _) = solve_milp(&m, &MilpOptions::default());
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(
            (sol.objective - best_dp).abs() < 1e-6,
            "milp={} dp={}",
            sol.objective,
            best_dp
        );
    }
}
