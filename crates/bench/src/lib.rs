//! Shared infrastructure for the experiment binaries (one per paper table /
//! figure) and the Criterion benchmarks.
//!
//! Every binary accepts `--full` to run at the paper's full experimental
//! scale; the default "quick" scale uses the same full-size parks and
//! datasets but fewer test years, smaller ensembles and fewer sweep points
//! so the whole suite finishes in minutes. Each binary prints its table and
//! writes `results/<name>.json`.

use paws_core::{ModelConfig, Scenario, WeakLearnerKind};
use paws_data::{build_dataset, Dataset, Discretization};
use paws_geo::Park;
use paws_plan::{PlanningCell, PlanningProblem, PwlFunction};
use serde::Serialize;
use std::path::PathBuf;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced ensembles / sweeps; minutes instead of hours.
    Quick,
    /// The paper's full experimental grid.
    Full,
}

impl Scale {
    /// Parse the scale from the process arguments (`--full` selects
    /// [`Scale::Full`]).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// True for the full experimental grid.
    pub fn is_full(&self) -> bool {
        matches!(self, Scale::Full)
    }
}

/// First simulated year of every history (six years, 2013–2018, mirroring
/// the "four years of data … up to 18 years" setup trimmed to what Table I
/// reports).
pub const START_YEAR: u32 = 2013;
/// Number of simulated years per park.
pub const SIM_YEARS: u32 = 6;

/// The three study sites, generated with their calibrated simulators.
pub fn study_scenarios() -> Vec<Scenario> {
    ["MFNP", "QENP", "SWS"]
        .iter()
        .map(|name| Scenario::study_site(name, 2013))
        .collect()
}

/// One study site by name.
pub fn scenario(name: &str) -> Scenario {
    Scenario::study_site(name, 2013)
}

/// Simulate the six-year history and build the quarterly dataset of a
/// scenario.
pub fn quarterly_dataset(scenario: &Scenario) -> Dataset {
    let history = scenario.simulate_years(START_YEAR, SIM_YEARS);
    build_dataset(&scenario.park, &history, Discretization::quarterly())
}

/// Simulate the six-year history and build the dry-season dataset (used for
/// SWS dry in Table I/II and the SWS field tests).
pub fn dry_season_dataset(scenario: &Scenario) -> Dataset {
    let history = scenario.simulate_years(START_YEAR, SIM_YEARS);
    build_dataset(&scenario.park, &history, Discretization::dry_season())
}

/// The model configuration a park uses in the paper: 20 iWare-E learners for
/// MFNP/QENP, 10 for SWS, balanced bagging only for SWS; ensemble sizes are
/// reduced at `Scale::Quick`.
pub fn park_model_config(
    park_name: &str,
    learner: WeakLearnerKind,
    use_iware: bool,
    scale: Scale,
) -> ModelConfig {
    let mut cfg = ModelConfig::new(learner, use_iware, 2020);
    cfg.n_learners = match (park_name, scale) {
        ("SWS", _) => 10,
        (_, Scale::Full) => 20,
        (_, Scale::Quick) => 10,
    };
    cfg.n_estimators = if scale.is_full() { 10 } else { 5 };
    cfg.balanced = park_name == "SWS";
    cfg.gp_max_points = if scale.is_full() { 300 } else { 200 };
    if !scale.is_full() {
        cfg.weight_mode = paws_iware::WeightMode::CvOptimized {
            folds: 3,
            iterations: 60,
        };
    }
    cfg
}

/// A park-wide synthetic allocation problem: every cell is a candidate
/// (the full-reach LP the sparse planner is sized for) with a deterministic
/// saturating concave detection curve over effort `[0, 8]` km and an
/// uncertainty curve rising with effort, varied cell-to-cell so the LP
/// optimum spreads effort across many cells. `budget_km` is the total
/// effort budget T×K; four patrols share it, and every cell's travel time
/// is set so its feasible effort is exactly the curve domain (8 km) —
/// otherwise the planner would resample each 8 km curve over a
/// budget-sized domain and flatten it into noise. Neighbour lists are
/// left empty — these problems feed the allocation planner, not route
/// extraction.
pub fn full_reach_problem(park: &Park, budget_km: f64, beta: f64) -> PlanningProblem {
    let grid = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    let patrol_length_km = budget_km / 4.0;
    // (T − 2·travel) × 4 patrols = 8 km of feasible effort per cell.
    let travel_km = ((patrol_length_km - 2.0) / 2.0).max(0.0);
    let cells: Vec<PlanningCell> = park
        .cells
        .iter()
        .enumerate()
        .map(|(i, &cell)| {
            let s = 0.1 + 0.8 * ((i * 37) % 100) as f64 / 100.0;
            let rate = 0.3 + 0.5 * ((i * 53) % 97) as f64 / 97.0;
            let b = 0.05 + 0.4 * ((i * 61) % 100) as f64 / 100.0;
            let g_ys: Vec<f64> = grid
                .iter()
                .map(|&e| s * (1.0 - (-rate * e).exp()))
                .collect();
            let nu_ys: Vec<f64> = grid.iter().map(|&e| (b + 0.03 * e).min(0.95)).collect();
            PlanningCell {
                cell,
                park_index: i,
                travel_km,
                g: PwlFunction::new(grid.to_vec(), g_ys),
                nu: PwlFunction::new(grid.to_vec(), nu_ys),
            }
        })
        .collect();
    let post = park.patrol_posts[0];
    let post_index = park
        .cells
        .iter()
        .position(|&c| c == post)
        .expect("patrol post is an in-park cell");
    let n = cells.len();
    PlanningProblem {
        post,
        cells,
        neighbours: vec![Vec::new(); n],
        post_index,
        patrol_length_km,
        n_patrols: 4,
        beta,
    }
}

/// Directory experiment outputs (JSON) are written to.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Serialise an experiment result to `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(value).expect("serialise result");
    std::fs::write(&path, body).expect("write result file");
    println!("\n[results written to {}]", path.display());
}

/// Mean of a slice (0 for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_default() {
        assert!(!Scale::Quick.is_full());
        assert!(Scale::Full.is_full());
    }

    #[test]
    fn park_configs_follow_paper_hyperparameters() {
        let mfnp = park_model_config("MFNP", WeakLearnerKind::GaussianProcess, true, Scale::Full);
        let sws = park_model_config("SWS", WeakLearnerKind::GaussianProcess, true, Scale::Full);
        assert_eq!(mfnp.n_learners, 20);
        assert_eq!(sws.n_learners, 10);
        assert!(sws.balanced);
        assert!(!mfnp.balanced);
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
