//! Temporal discretisation of the patrol history.
//!
//! The paper partitions time into three-month steps ("which allows us to
//! capture seasonal trends and corresponds to approximately how often
//! rangers plan new patrol strategies"), and — for the strongly seasonal
//! SWS dataset — into two-month steps restricted to the dry season
//! (November–April), "to obtain three points per year".

use paws_sim::Season;

/// Which part of the year enters the dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeasonFilter {
    /// Use every month.
    All,
    /// Use only dry-season months (November–April), as for SWS dry.
    DryOnly,
}

/// A temporal discretisation scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Discretization {
    /// Number of calendar months aggregated into one time step.
    pub months_per_step: u32,
    /// Season filter applied before grouping.
    pub season: SeasonFilter,
}

impl Discretization {
    /// The paper's default: three-month steps over the whole year
    /// (4 steps per year).
    pub fn quarterly() -> Self {
        Self {
            months_per_step: 3,
            season: SeasonFilter::All,
        }
    }

    /// The SWS dry-season scheme: two-month steps over November–April
    /// (3 steps per year: Jan–Feb, Mar–Apr, Nov–Dec).
    pub fn dry_season() -> Self {
        Self {
            months_per_step: 2,
            season: SeasonFilter::DryOnly,
        }
    }

    /// Number of time steps per calendar year under this scheme.
    pub fn steps_per_year(&self) -> u32 {
        match self.season {
            SeasonFilter::All => 12 / self.months_per_step,
            SeasonFilter::DryOnly => 6 / self.months_per_step,
        }
    }

    /// Map a calendar month (1–12) to its step index within the year, or
    /// `None` when the month is filtered out.
    pub fn step_of_month(&self, month: u32) -> Option<u32> {
        assert!((1..=12).contains(&month), "month out of range");
        match self.season {
            SeasonFilter::All => Some((month - 1) / self.months_per_step),
            SeasonFilter::DryOnly => {
                if Season::of_month(month) != Season::Dry {
                    return None;
                }
                // Order dry months within the calendar year: Jan,Feb,Mar,Apr,Nov,Dec.
                let pos = match month {
                    1 => 0,
                    2 => 1,
                    3 => 2,
                    4 => 3,
                    11 => 4,
                    12 => 5,
                    _ => unreachable!(),
                };
                Some(pos / self.months_per_step)
            }
        }
    }

    /// Human-readable label of a step within a year, e.g. `"Q1"` or `"D2"`.
    pub fn step_label(&self, step_in_year: u32) -> String {
        match self.season {
            SeasonFilter::All => format!("Q{}", step_in_year + 1),
            SeasonFilter::DryOnly => format!("D{}", step_in_year + 1),
        }
    }
}

/// Identity of one time step in a discretised history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepInfo {
    /// Calendar year the step belongs to.
    pub year: u32,
    /// Index of the step within its year.
    pub step_in_year: u32,
    /// Display label, e.g. `"2016-Q3"`.
    pub label: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarterly_has_four_steps() {
        let d = Discretization::quarterly();
        assert_eq!(d.steps_per_year(), 4);
        assert_eq!(d.step_of_month(1), Some(0));
        assert_eq!(d.step_of_month(3), Some(0));
        assert_eq!(d.step_of_month(4), Some(1));
        assert_eq!(d.step_of_month(12), Some(3));
    }

    #[test]
    fn dry_season_has_three_steps_and_filters_wet_months() {
        let d = Discretization::dry_season();
        assert_eq!(d.steps_per_year(), 3);
        assert_eq!(d.step_of_month(1), Some(0));
        assert_eq!(d.step_of_month(2), Some(0));
        assert_eq!(d.step_of_month(3), Some(1));
        assert_eq!(d.step_of_month(4), Some(1));
        assert_eq!(d.step_of_month(11), Some(2));
        assert_eq!(d.step_of_month(12), Some(2));
        for wet in 5..=10 {
            assert_eq!(d.step_of_month(wet), None);
        }
    }

    #[test]
    fn labels_distinguish_schemes() {
        assert_eq!(Discretization::quarterly().step_label(0), "Q1");
        assert_eq!(Discretization::dry_season().step_label(2), "D3");
    }

    #[test]
    #[should_panic(expected = "month out of range")]
    fn month_zero_rejected() {
        Discretization::quarterly().step_of_month(0);
    }

    #[test]
    fn every_month_maps_to_a_valid_quarter() {
        let d = Discretization::quarterly();
        for m in 1..=12 {
            let s = d.step_of_month(m).unwrap();
            assert!(s < d.steps_per_year());
        }
    }
}
