//! Field-test design: selecting experiment blocks by predicted risk.
//!
//! Sec. VII: risk predictions on 1×1 km cells are averaged over adjacent
//! cells to produce larger experiment blocks (3×3 km in SWS, 2×2 km in
//! MFNP); blocks that were frequently patrolled in the past are discarded
//! ("we discarded all blocks with historical patrol effort above the 50th
//! percentile, to ensure we were assessing the ability of our model to make
//! predictions in regions with limited data"); and high / medium / low risk
//! blocks are drawn from the 80–100, 40–60 and 0–20 risk percentiles. The
//! risk group of each block is *not* revealed to the rangers.

use paws_geo::{CellId, Park};
use rand::seq::SliceRandom;
use rand::Rng;

/// Predicted-risk group of an experiment block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RiskGroup {
    /// 80–100th percentile of predicted risk.
    High,
    /// 40–60th percentile.
    Medium,
    /// 0–20th percentile.
    Low,
}

impl RiskGroup {
    /// All groups in reporting order (High, Medium, Low).
    pub fn all() -> [RiskGroup; 3] {
        [RiskGroup::High, RiskGroup::Medium, RiskGroup::Low]
    }

    /// Display label used in Table III.
    pub fn label(&self) -> &'static str {
        match self {
            RiskGroup::High => "High",
            RiskGroup::Medium => "Medium",
            RiskGroup::Low => "Low",
        }
    }
}

/// One selected experiment block.
#[derive(Debug, Clone)]
pub struct FieldBlock {
    /// Cell nearest the block centre (the GPS coordinate given to rangers).
    pub centre: CellId,
    /// In-park cells belonging to the block.
    pub cells: Vec<CellId>,
    /// Risk group of the block (hidden from rangers during the trial).
    pub group: RiskGroup,
    /// Mean predicted risk over the block's cells.
    pub mean_risk: f64,
}

/// A designed field test.
#[derive(Debug, Clone)]
pub struct FieldTestPlan {
    /// Selected blocks across all risk groups.
    pub blocks: Vec<FieldBlock>,
    /// Side length of each block in km.
    pub block_size: u32,
}

impl FieldTestPlan {
    /// Blocks belonging to one risk group.
    pub fn blocks_in(&self, group: RiskGroup) -> Vec<&FieldBlock> {
        self.blocks.iter().filter(|b| b.group == group).collect()
    }
}

/// Configuration of the block-selection protocol.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Block side length in km (3 for SWS, 2 for MFNP).
    pub block_size: u32,
    /// Number of blocks selected per risk group (5 in SWS).
    pub blocks_per_group: usize,
    /// Blocks whose mean historical effort exceeds this percentile of all
    /// candidate blocks are discarded.
    pub max_effort_percentile: f64,
    /// Risk percentile range of the high group.
    pub high_range: (f64, f64),
    /// Risk percentile range of the medium group.
    pub medium_range: (f64, f64),
    /// Risk percentile range of the low group.
    pub low_range: (f64, f64),
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        Self {
            block_size: 3,
            blocks_per_group: 5,
            max_effort_percentile: 50.0,
            high_range: (80.0, 100.0),
            medium_range: (40.0, 60.0),
            low_range: (0.0, 20.0),
        }
    }
}

/// Design a field test: tile the park into blocks, filter by historical
/// effort, and sample blocks from each risk-percentile band.
///
/// * `risk[i]` — predicted risk of in-park cell `i` (`Park::cells` order).
/// * `historical_effort[i]` — total historical patrol effort of cell `i`.
pub fn design_field_test<R: Rng>(
    park: &Park,
    risk: &[f64],
    historical_effort: &[f64],
    config: &ProtocolConfig,
    rng: &mut R,
) -> FieldTestPlan {
    assert_eq!(risk.len(), park.n_cells(), "risk length mismatch");
    assert_eq!(
        historical_effort.len(),
        park.n_cells(),
        "effort length mismatch"
    );
    assert!(config.block_size >= 1, "block size must be at least 1 km");
    assert!(
        config.blocks_per_group >= 1,
        "need at least one block per group"
    );

    // Tile the bounding rectangle into non-overlapping blocks.
    struct Candidate {
        centre: CellId,
        cells: Vec<CellId>,
        mean_risk: f64,
        mean_effort: f64,
    }
    let bs = config.block_size;
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut row = 0;
    while row + bs <= park.grid.rows() {
        let mut col = 0;
        while col + bs <= park.grid.cols() {
            let mut cells = Vec::new();
            let mut risk_sum = 0.0;
            let mut effort_sum = 0.0;
            for r in row..row + bs {
                for c in col..col + bs {
                    let cell = park.grid.cell(r, c);
                    if let Some(i) = park.cell_position(cell) {
                        cells.push(cell);
                        risk_sum += risk[i];
                        effort_sum += historical_effort[i];
                    }
                }
            }
            // Require the block to lie (almost) entirely inside the park.
            if cells.len() as u32 >= bs * bs {
                let n = cells.len() as f64;
                let mean_risk = risk_sum / n;
                let mean_effort = effort_sum / n;
                // Reject blocks touching a non-finite risk or effort cell up
                // front: a single NaN prediction used to panic the
                // percentile sort below, and under a NaN-tolerant sort it
                // would land in an arbitrary risk band. Such a block cannot
                // be ranked, so it cannot be a candidate.
                if mean_risk.is_finite() && mean_effort.is_finite() {
                    let centre_cell = park.grid.cell(row + bs / 2, col + bs / 2);
                    candidates.push(Candidate {
                        centre: centre_cell,
                        cells,
                        mean_risk,
                        mean_effort,
                    });
                }
            }
            col += bs;
        }
        row += bs;
    }
    assert!(
        candidates.len() >= 3 * config.blocks_per_group,
        "park too small for the requested field-test design"
    );

    // Discard frequently-patrolled blocks.
    let effort_threshold = percentile(
        &candidates.iter().map(|c| c.mean_effort).collect::<Vec<_>>(),
        config.max_effort_percentile,
    );
    let mut valid: Vec<Candidate> = candidates
        .into_iter()
        .filter(|c| c.mean_effort <= effort_threshold)
        .collect();
    assert!(
        valid.len() >= 3 * config.blocks_per_group,
        "not enough rarely-patrolled blocks for the field-test design"
    );

    // Rank by risk and pick from the configured percentile bands. The
    // candidates are all-finite by construction, so total_cmp agrees with
    // the naive float order; it just cannot panic.
    valid.sort_by(|a, b| a.mean_risk.total_cmp(&b.mean_risk));
    let n = valid.len();
    let band_indices = |range: (f64, f64)| -> Vec<usize> {
        let lo = ((range.0 / 100.0) * n as f64).floor() as usize;
        let hi = (((range.1 / 100.0) * n as f64).ceil() as usize).min(n);
        (lo..hi).collect()
    };

    let mut blocks = Vec::new();
    for (group, range) in [
        (RiskGroup::High, config.high_range),
        (RiskGroup::Medium, config.medium_range),
        (RiskGroup::Low, config.low_range),
    ] {
        let mut band = band_indices(range);
        band.shuffle(rng);
        for &i in band.iter().take(config.blocks_per_group) {
            blocks.push(FieldBlock {
                centre: valid[i].centre,
                cells: valid[i].cells.clone(),
                group,
                mean_risk: valid[i].mean_risk,
            });
        }
    }

    FieldTestPlan {
        blocks,
        block_size: config.block_size,
    }
}

fn percentile(values: &[f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (pct / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use paws_geo::parks::test_park_spec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (Park, Vec<f64>, Vec<f64>) {
        let park = Park::generate(&test_park_spec(), 7);
        // Risk increases with the cell's column; effort increases with row.
        let risk: Vec<f64> = park
            .cells
            .iter()
            .map(|&c| {
                let (_, col) = park.grid.coords(c);
                col as f64 / park.grid.cols() as f64
            })
            .collect();
        let effort: Vec<f64> = park
            .cells
            .iter()
            .map(|&c| {
                let (row, _) = park.grid.coords(c);
                row as f64 / park.grid.rows() as f64
            })
            .collect();
        (park, risk, effort)
    }

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            block_size: 2,
            blocks_per_group: 3,
            ..ProtocolConfig::default()
        }
    }

    #[test]
    fn design_selects_requested_blocks_per_group() {
        let (park, risk, effort) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let plan = design_field_test(&park, &risk, &effort, &config(), &mut rng);
        for g in RiskGroup::all() {
            assert_eq!(plan.blocks_in(g).len(), 3, "group {g:?}");
        }
        assert_eq!(plan.blocks.len(), 9);
    }

    #[test]
    fn high_blocks_have_higher_risk_than_low_blocks() {
        let (park, risk, effort) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let plan = design_field_test(&park, &risk, &effort, &config(), &mut rng);
        let mean = |g: RiskGroup| {
            let blocks = plan.blocks_in(g);
            blocks.iter().map(|b| b.mean_risk).sum::<f64>() / blocks.len() as f64
        };
        assert!(mean(RiskGroup::High) > mean(RiskGroup::Medium));
        assert!(mean(RiskGroup::Medium) > mean(RiskGroup::Low));
    }

    #[test]
    fn blocks_are_made_of_in_park_cells_of_the_right_size() {
        let (park, risk, effort) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let plan = design_field_test(&park, &risk, &effort, &config(), &mut rng);
        for b in &plan.blocks {
            assert_eq!(b.cells.len(), 4, "2×2 block");
            for c in &b.cells {
                assert!(park.contains(*c));
            }
        }
    }

    #[test]
    fn frequently_patrolled_blocks_are_excluded() {
        let (park, risk, effort) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let plan = design_field_test(&park, &risk, &effort, &config(), &mut rng);
        // Effort rises with the row index, so selected blocks should sit in
        // the low-effort (low-row) half of the park on average.
        let mean_row: f64 = plan
            .blocks
            .iter()
            .flat_map(|b| b.cells.iter())
            .map(|&c| park.grid.coords(c).0 as f64)
            .sum::<f64>()
            / plan
                .blocks
                .iter()
                .map(|b| b.cells.len() as f64)
                .sum::<f64>();
        assert!(
            mean_row < park.grid.rows() as f64 * 0.55,
            "mean row {mean_row}"
        );
    }

    #[test]
    fn blocks_do_not_overlap() {
        let (park, risk, effort) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let plan = design_field_test(&park, &risk, &effort, &config(), &mut rng);
        let mut seen = std::collections::HashSet::new();
        for b in &plan.blocks {
            for c in &b.cells {
                assert!(seen.insert(*c), "cell {c:?} appears in two blocks");
            }
        }
    }

    #[test]
    fn nan_risk_cells_are_rejected_not_ranked() {
        // Regression: one NaN risk prediction used to panic the
        // `partial_cmp().unwrap()` ranking sort; now the affected block is
        // dropped at candidate collection and the design still succeeds.
        let (park, mut risk, effort) = setup();
        let mid = risk.len() / 2;
        let poisoned = park.cells[mid];
        risk[mid] = f64::NAN;
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let plan = design_field_test(&park, &risk, &effort, &config(), &mut rng);
        assert_eq!(plan.blocks.len(), 9);
        for b in &plan.blocks {
            assert!(b.mean_risk.is_finite(), "selected block risk is finite");
            assert!(
                !b.cells.contains(&poisoned),
                "the NaN-risk cell's block must not be selected"
            );
        }
        // An infinite effort cell is equally unrankable.
        let (park, risk, mut effort) = setup();
        effort[3] = f64::INFINITY;
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let plan = design_field_test(&park, &risk, &effort, &config(), &mut rng);
        assert_eq!(plan.blocks.len(), 9);
    }

    #[test]
    #[should_panic(expected = "park too small")]
    fn too_small_park_is_rejected() {
        let (park, risk, effort) = setup();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let cfg = ProtocolConfig {
            block_size: 12,
            blocks_per_group: 5,
            ..ProtocolConfig::default()
        };
        let _ = design_field_test(&park, &risk, &effort, &cfg, &mut rng);
    }
}
