//! Anytime solve budgets.
//!
//! The patrol planner runs inside a serving surface with a response
//! deadline; an adversarially slow instance must not hang the caller. A
//! [`SolveBudget`] bounds a solve by wall-clock time and/or simplex
//! iterations; when the budget is exhausted the solvers return their
//! current primal-feasible point tagged
//! [`crate::model::SolveStatus::Degraded`] (or
//! [`crate::model::SolveStatus::BudgetExceeded`] when no usable point was
//! found in time) instead of running to completion.
//!
//! The default budget is unlimited, so budget-unaware callers see exactly
//! the pre-budget behaviour.

use std::time::{Duration, Instant};

/// Resource bounds for one solve. The default is unlimited on both axes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveBudget {
    /// Wall-clock limit for the whole solve. `None` means no deadline.
    pub time_limit: Option<Duration>,
    /// Cap on simplex iterations *per LP solve*, applied on top of the
    /// solver's internal anti-cycling cap. `None` means the internal cap
    /// alone applies.
    pub max_lp_iterations: Option<usize>,
}

impl SolveBudget {
    /// No limits: solves behave exactly as if no budget existed.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Budget bounded by wall-clock time only.
    pub fn with_time_limit(limit: Duration) -> Self {
        Self {
            time_limit: Some(limit),
            max_lp_iterations: None,
        }
    }

    /// What is left of this budget for a solve that starts now, when its
    /// clock started at `since`: the time limit less the time elapsed
    /// since then, saturating at zero, with the iteration cap carried
    /// over. A budget without a time limit comes back unchanged, and a
    /// `time_limit` of `Some(Duration::ZERO)` means nothing is left.
    pub fn remaining_since(&self, since: Instant) -> Self {
        Self {
            time_limit: self
                .time_limit
                .map(|limit| limit.saturating_sub(since.elapsed())),
            ..*self
        }
    }

    /// Convert the relative time limit into an absolute deadline, measured
    /// from now. A limit too large to represent is treated as no deadline.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.time_limit.and_then(|d| Instant::now().checked_add(d))
    }
}

/// True when `deadline` is set and has passed.
pub(crate) fn deadline_expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let b = SolveBudget::default();
        assert_eq!(b, SolveBudget::unlimited());
        assert!(b.deadline().is_none());
        assert!(!deadline_expired(b.deadline()));
    }

    #[test]
    fn zero_time_limit_expires_immediately() {
        let b = SolveBudget::with_time_limit(Duration::ZERO);
        assert!(deadline_expired(b.deadline()));
    }

    #[test]
    fn remaining_budget_saturates_and_carries_the_iteration_cap() {
        let start = Instant::now();
        let unlimited = SolveBudget::unlimited();
        assert_eq!(unlimited.remaining_since(start), unlimited);
        let capped = SolveBudget {
            time_limit: None,
            max_lp_iterations: Some(7),
        };
        assert_eq!(capped.remaining_since(start), capped);

        let brief = SolveBudget {
            time_limit: Some(Duration::from_nanos(1)),
            max_lp_iterations: Some(7),
        };
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(
            brief.remaining_since(start),
            SolveBudget {
                time_limit: Some(Duration::ZERO),
                max_lp_iterations: Some(7),
            }
        );

        let hour = Duration::from_secs(3600);
        let left = SolveBudget::with_time_limit(hour)
            .remaining_since(start)
            .time_limit
            .unwrap();
        assert!(left < hour && left > hour - Duration::from_secs(60));
    }

    #[test]
    fn huge_time_limit_degrades_to_no_deadline() {
        let b = SolveBudget::with_time_limit(Duration::MAX);
        assert!(!deadline_expired(b.deadline()));
    }
}
