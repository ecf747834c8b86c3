//! Park presets matching the three study sites of the paper.
//!
//! Table I of the paper:
//!
//! | | MFNP | QENP | SWS |
//! |---|---|---|---|
//! | Number of features | 22 | 19 | 21 |
//! | Number of 1×1 km cells | 4,613 | 2,522 | 3,750 |
//!
//! The feature count in Table I includes the single dynamic covariate
//! (previous-step patrol coverage, added by `paws-data`), so the presets
//! generate 21 / 18 / 20 static columns respectively. Cell counts are exact.

use crate::features::FeatureKind;
use crate::park::{BoundaryShape, ParkSpec, Seasonality};

/// Murchison Falls National Park, Uganda (≈ 5,000 km², 4,613 study cells).
///
/// Large grasslands, roughly circular with a protected core, so most
/// poaching happens near the edges (Sec. VII-A).
pub fn mfnp_spec() -> ParkSpec {
    use FeatureKind::*;
    ParkSpec {
        name: "MFNP".to_string(),
        rows: 82,
        cols: 82,
        target_cells: 4_613,
        shape: BoundaryShape::Circular,
        n_rivers: 6,
        n_roads: 5,
        n_villages: 14,
        n_towns: 4,
        n_patrol_posts: 10,
        n_camps: 4,
        n_water_holes: 10,
        features: vec![
            Elevation,
            Slope,
            Ruggedness,
            ForestCover,
            ScrubCover,
            GrasslandCover,
            Npp,
            Rainfall,
            AnimalDensity,
            WaterDensity,
            RiverDensity,
            RoadDensity,
            DistRiver,
            DistWaterHole,
            DistRoad,
            DistBoundary,
            DistVillage,
            DistTown,
            DistPatrolPost,
            DistCamp,
            DistForestEdge,
        ],
        seasonality: Seasonality::None,
        terrain_scale: 1.0,
    }
}

/// Queen Elizabeth National Park, Uganda (≈ 2,500 km², 2,522 study cells).
///
/// Elongated shape — "it is easy to access the center from the boundary" —
/// more scrub and woodland than MFNP.
pub fn qenp_spec() -> ParkSpec {
    use FeatureKind::*;
    ParkSpec {
        name: "QENP".to_string(),
        rows: 88,
        cols: 44,
        target_cells: 2_522,
        shape: BoundaryShape::Elongated { aspect: 2.2 },
        n_rivers: 4,
        n_roads: 4,
        n_villages: 12,
        n_towns: 3,
        n_patrol_posts: 8,
        n_camps: 3,
        n_water_holes: 8,
        features: vec![
            Elevation,
            Slope,
            ForestCover,
            ScrubCover,
            GrasslandCover,
            Npp,
            AnimalDensity,
            WaterDensity,
            RiverDensity,
            RoadDensity,
            DistRiver,
            DistWaterHole,
            DistRoad,
            DistBoundary,
            DistVillage,
            DistTown,
            DistPatrolPost,
            DistCamp,
        ],
        seasonality: Seasonality::None,
        terrain_scale: 1.0,
    }
}

/// Srepok Wildlife Sanctuary, Cambodia (≈ 4,300 km², 3,750 study cells).
///
/// Dense forest, strong wet/dry seasonality, motorbike patrols, only 72
/// rangers — the hardest of the three datasets (0.36 % positive labels).
pub fn sws_spec() -> ParkSpec {
    use FeatureKind::*;
    ParkSpec {
        name: "SWS".to_string(),
        rows: 72,
        cols: 76,
        target_cells: 3_750,
        shape: BoundaryShape::Elongated { aspect: 1.3 },
        n_rivers: 7,
        n_roads: 3,
        n_villages: 10,
        n_towns: 3,
        n_patrol_posts: 6,
        n_camps: 2,
        n_water_holes: 12,
        features: vec![
            Elevation,
            Slope,
            Ruggedness,
            ForestCover,
            ScrubCover,
            Npp,
            Rainfall,
            AnimalDensity,
            WaterDensity,
            RiverDensity,
            RoadDensity,
            DistRiver,
            DistWaterHole,
            DistRoad,
            DistBoundary,
            DistVillage,
            DistTown,
            DistPatrolPost,
            DistCamp,
            DistForestEdge,
        ],
        seasonality: Seasonality::WetDry,
        terrain_scale: 1.0,
    }
}

/// A small park used throughout unit/integration tests and the quickstart
/// example; it keeps every pipeline stage fast while preserving the
/// structure of the real presets.
pub fn test_park_spec() -> ParkSpec {
    use FeatureKind::*;
    ParkSpec {
        name: "TestPark".to_string(),
        rows: 28,
        cols: 28,
        target_cells: 500,
        shape: BoundaryShape::Circular,
        n_rivers: 2,
        n_roads: 2,
        n_villages: 5,
        n_towns: 2,
        n_patrol_posts: 3,
        n_camps: 1,
        n_water_holes: 4,
        features: vec![
            Elevation,
            Slope,
            ForestCover,
            GrasslandCover,
            AnimalDensity,
            WaterDensity,
            DistRiver,
            DistRoad,
            DistBoundary,
            DistVillage,
            DistPatrolPost,
        ],
        seasonality: Seasonality::None,
        terrain_scale: 1.0,
    }
}

/// An LLC-scale synthetic park of `target_cells` 1×1 km cells
/// (50k–200k intended; anything ≥ 10k accepted) — the workload the f32
/// plane's bandwidth claims are measured on, since the study-site presets
/// (≤ 4,613 cells) keep every feature matrix comfortably cache-resident.
///
/// The spec scales MFNP's geography: the same full feature set (21 static
/// columns with the generator's realistic cross-correlations — animal
/// density driven by water/NPP/interior distance, vegetation covers
/// competing to sum to one, density layers derived from the same traced
/// rivers/roads the distance layers use), a circular boundary at MFNP's
/// fill ratio, and infrastructure counts grown with the square root of
/// the area so rivers/roads/posts stay realistically sparse.
pub fn llc_park_spec(target_cells: usize) -> ParkSpec {
    assert!(
        target_cells >= 10_000,
        "LLC-scale parks start at 10k cells; use the study-site presets below that"
    );
    // MFNP's bounding-box fill: 4,613 cells in an 82×82 grid.
    let mfnp = mfnp_spec();
    let fill = mfnp.target_cells as f64 / f64::from(mfnp.rows * mfnp.cols);
    let side = (target_cells as f64 / fill).sqrt().ceil() as u32;
    let scale = (target_cells as f64 / mfnp.target_cells as f64).sqrt();
    let grown = |n: usize| ((n as f64 * scale).round() as usize).max(n);
    ParkSpec {
        name: format!("LLC-{}k", target_cells.div_ceil(1000)),
        rows: side,
        cols: side,
        target_cells,
        shape: BoundaryShape::Circular,
        n_rivers: grown(mfnp.n_rivers),
        n_roads: grown(mfnp.n_roads),
        n_villages: grown(mfnp.n_villages),
        n_towns: grown(mfnp.n_towns),
        n_patrol_posts: grown(mfnp.n_patrol_posts),
        n_camps: grown(mfnp.n_camps),
        n_water_holes: grown(mfnp.n_water_holes),
        features: mfnp.features,
        seasonality: Seasonality::None,
        // One landscape, not a tiling of MFNP-sized patches: terrain
        // length scales grow with the park side.
        terrain_scale: scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_feature_counts_match_table1_minus_coverage() {
        // Table I counts include the dynamic previous-coverage covariate.
        assert_eq!(mfnp_spec().features.len() + 1, 22);
        assert_eq!(qenp_spec().features.len() + 1, 19);
        assert_eq!(sws_spec().features.len() + 1, 21);
    }

    #[test]
    fn cell_targets_match_table1() {
        assert_eq!(mfnp_spec().target_cells, 4_613);
        assert_eq!(qenp_spec().target_cells, 2_522);
        assert_eq!(sws_spec().target_cells, 3_750);
    }

    #[test]
    fn cell_targets_fit_bounding_boxes() {
        for spec in [mfnp_spec(), qenp_spec(), sws_spec()] {
            assert!(spec.target_cells <= (spec.rows as usize) * (spec.cols as usize));
        }
    }

    #[test]
    fn llc_spec_scales_mfnp_geography() {
        let spec = llc_park_spec(50_000);
        assert_eq!(spec.target_cells, 50_000);
        assert!(spec.rows as usize * spec.cols as usize >= 50_000);
        assert_eq!(spec.features.len(), mfnp_spec().features.len());
        assert_eq!(spec.name, "LLC-50k");
        // Infrastructure grows sublinearly with area (√ scaling) but never
        // below the MFNP baseline.
        let scale = (50_000f64 / mfnp_spec().target_cells as f64).sqrt();
        assert_eq!(
            spec.n_patrol_posts,
            (10.0 * scale).round() as usize,
            "posts scale with √area"
        );
        assert!(spec.n_rivers >= mfnp_spec().n_rivers);
        let bigger = llc_park_spec(200_000);
        assert!(bigger.n_patrol_posts > spec.n_patrol_posts);
        assert!(bigger.rows > spec.rows);
    }

    #[test]
    #[should_panic(expected = "LLC-scale parks start at 10k cells")]
    fn llc_spec_rejects_small_parks() {
        let _ = llc_park_spec(500);
    }

    #[test]
    fn only_sws_is_seasonal() {
        assert_eq!(mfnp_spec().seasonality, Seasonality::None);
        assert_eq!(qenp_spec().seasonality, Seasonality::None);
        assert_eq!(sws_spec().seasonality, Seasonality::WetDry);
    }
}
