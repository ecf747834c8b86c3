//! Static geospatial feature layers.
//!
//! Sec. III-B of the paper: "The features used in our dataset represent
//! static geospatial features about locations within each park … terrain
//! features such as rivers, elevation maps, and forest cover; landscape
//! features such as roads, park boundary, local villages, and patrol posts;
//! and ecological features such as animal density and net primary
//! productivity. We use these static features … either as direct values
//! (such as slope or animal density) or as distance values (such as distance
//! to nearest river)."
//!
//! Each [`FeatureKind`] names one such layer; a [`FeatureTable`] holds the
//! realised per-cell values for a generated park.

/// The roster of static feature layers the synthetic parks can generate.
///
/// Real deployments have slightly different feature sets per park
/// (Table I: 22 / 19 / 21 features including previous patrol coverage);
/// the park presets select subsets of this roster to match those counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    /// Terrain elevation (normalised metres).
    Elevation,
    /// Terrain slope, the gradient magnitude of elevation.
    Slope,
    /// Terrain ruggedness (local elevation variance).
    Ruggedness,
    /// Fraction of the cell under forest canopy.
    ForestCover,
    /// Fraction of the cell under scrub.
    ScrubCover,
    /// Fraction of the cell that is open grassland.
    GrasslandCover,
    /// Net primary productivity.
    Npp,
    /// Annual rainfall (normalised).
    Rainfall,
    /// Relative density of large mammals.
    AnimalDensity,
    /// Density of surface water within 3 km.
    WaterDensity,
    /// Density of river cells within 3 km.
    RiverDensity,
    /// Density of road cells within 3 km.
    RoadDensity,
    /// Distance (km) to the nearest river.
    DistRiver,
    /// Distance (km) to the nearest water hole.
    DistWaterHole,
    /// Distance (km) to the nearest road.
    DistRoad,
    /// Distance (km) to the park boundary.
    DistBoundary,
    /// Distance (km) to the nearest village outside the park.
    DistVillage,
    /// Distance (km) to the nearest town.
    DistTown,
    /// Distance (km) to the nearest patrol post.
    DistPatrolPost,
    /// Distance (km) to the nearest ranger camp inside the park.
    DistCamp,
    /// Distance (km) to the nearest forest edge.
    DistForestEdge,
}

impl FeatureKind {
    /// Stable, human-readable name used in reports and serialised datasets.
    pub fn name(&self) -> &'static str {
        match self {
            FeatureKind::Elevation => "elevation",
            FeatureKind::Slope => "slope",
            FeatureKind::Ruggedness => "ruggedness",
            FeatureKind::ForestCover => "forest_cover",
            FeatureKind::ScrubCover => "scrub_cover",
            FeatureKind::GrasslandCover => "grassland_cover",
            FeatureKind::Npp => "npp",
            FeatureKind::Rainfall => "rainfall",
            FeatureKind::AnimalDensity => "animal_density",
            FeatureKind::WaterDensity => "water_density",
            FeatureKind::RiverDensity => "river_density",
            FeatureKind::RoadDensity => "road_density",
            FeatureKind::DistRiver => "dist_river",
            FeatureKind::DistWaterHole => "dist_water_hole",
            FeatureKind::DistRoad => "dist_road",
            FeatureKind::DistBoundary => "dist_boundary",
            FeatureKind::DistVillage => "dist_village",
            FeatureKind::DistTown => "dist_town",
            FeatureKind::DistPatrolPost => "dist_patrol_post",
            FeatureKind::DistCamp => "dist_camp",
            FeatureKind::DistForestEdge => "dist_forest_edge",
        }
    }

    /// The full roster, in canonical order.
    pub fn all() -> &'static [FeatureKind] {
        use FeatureKind::*;
        &[
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
        ]
    }
}

/// Column-oriented table of static features for every cell of the grid
/// bounding rectangle (row-major cell order).
#[derive(Debug, Clone)]
pub struct FeatureTable {
    kinds: Vec<FeatureKind>,
    /// `columns[k][cell]`, one column per feature kind.
    columns: Vec<Vec<f64>>,
    n_cells: usize,
}

impl FeatureTable {
    /// Create an empty table for `n_cells` cells.
    pub fn new(n_cells: usize) -> Self {
        Self {
            kinds: Vec::new(),
            columns: Vec::new(),
            n_cells,
        }
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.kinds.len()
    }

    /// Number of cells covered by each column.
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// The feature kinds in column order.
    pub fn kinds(&self) -> &[FeatureKind] {
        &self.kinds
    }

    /// Column names, in column order.
    pub fn names(&self) -> Vec<&'static str> {
        self.kinds.iter().map(|k| k.name()).collect()
    }

    /// Append a column.
    ///
    /// # Panics
    /// Panics when the column length does not match the cell count or when
    /// the feature kind is already present.
    pub fn push(&mut self, kind: FeatureKind, values: Vec<f64>) {
        assert_eq!(values.len(), self.n_cells, "feature column length mismatch");
        assert!(
            !self.kinds.contains(&kind),
            "duplicate feature column {:?}",
            kind
        );
        self.kinds.push(kind);
        self.columns.push(values);
    }

    /// Borrow one column by kind.
    pub fn column(&self, kind: FeatureKind) -> Option<&[f64]> {
        self.kinds
            .iter()
            .position(|k| *k == kind)
            .map(|i| self.columns[i].as_slice())
    }

    /// The feature vector of one cell, in column order.
    pub fn row(&self, cell: usize) -> Vec<f64> {
        assert!(cell < self.n_cells, "cell index out of range");
        self.columns.iter().map(|c| c[cell]).collect()
    }

    /// Write the feature vector of one cell into `out` without allocating.
    ///
    /// # Panics
    /// Panics when `out` is not exactly `n_features` long or the cell index
    /// is out of range.
    pub fn write_row(&self, cell: usize, out: &mut [f64]) {
        assert!(cell < self.n_cells, "cell index out of range");
        assert_eq!(out.len(), self.n_features(), "output width mismatch");
        for (slot, column) in out.iter_mut().zip(&self.columns) {
            *slot = column[cell];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_names_are_unique() {
        let all = FeatureKind::all();
        let mut names: Vec<_> = all.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn push_and_row_roundtrip() {
        let mut t = FeatureTable::new(3);
        t.push(FeatureKind::Elevation, vec![1.0, 2.0, 3.0]);
        t.push(FeatureKind::Slope, vec![0.1, 0.2, 0.3]);
        assert_eq!(t.n_features(), 2);
        assert_eq!(t.row(1), vec![2.0, 0.2]);
        assert_eq!(t.column(FeatureKind::Slope).unwrap(), &[0.1, 0.2, 0.3]);
        assert!(t.column(FeatureKind::Npp).is_none());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn push_rejects_wrong_length() {
        let mut t = FeatureTable::new(3);
        t.push(FeatureKind::Elevation, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate feature")]
    fn push_rejects_duplicates() {
        let mut t = FeatureTable::new(2);
        t.push(FeatureKind::Elevation, vec![1.0, 2.0]);
        t.push(FeatureKind::Elevation, vec![3.0, 4.0]);
    }
}
