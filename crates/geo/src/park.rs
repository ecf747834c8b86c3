//! Synthetic protected-area generation.
//!
//! Real PAWS uses GIS shapefiles and GeoTIFF layers supplied by UWA / WCS /
//! WWF that are not publicly released. This module builds a synthetic park
//! with the same *structure*: an irregular park boundary on a 1×1 km grid,
//! terrain (elevation / slope / cover), hydrology (rivers, water holes),
//! infrastructure (roads, villages, towns, patrol posts, ranger camps), and
//! ecological layers (animal density, NPP). Every generated object feeds the
//! same distance/direct feature columns the paper describes, so the learned
//! models see the same kind of spatially-correlated, post-biased data.

use crate::distance::{density_within, distance_to_nearest};
use crate::features::{FeatureKind, FeatureTable};
use crate::grid::{CellId, Grid};
use crate::noise::FractalNoise;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Seasonal regime of a park.
///
/// SWS in Cambodia has a pronounced wet/dry cycle (rivers become impassable
/// in the wet season and poaching shifts geographically); the Ugandan parks
/// are treated as non-seasonal, matching Sec. III-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seasonality {
    /// No seasonal structure.
    None,
    /// Alternating wet and dry seasons; the attack model shifts north (dry)
    /// and south (wet) as reported by the SWS rangers.
    WetDry,
}

/// Shape of the park boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundaryShape {
    /// Roughly circular (MFNP: "circular with a more protected core").
    Circular,
    /// Elongated ellipse (QENP: "the shape of QENP is long").
    Elongated {
        /// Ratio of the long axis to the short axis (> 1).
        aspect: f64,
    },
}

/// Specification of a synthetic park; see [`crate::parks`] for the presets
/// matching the three study sites.
#[derive(Debug, Clone)]
pub struct ParkSpec {
    /// Park name used in reports.
    pub name: String,
    /// Grid rows (north-south km).
    pub rows: u32,
    /// Grid columns (east-west km).
    pub cols: u32,
    /// Number of 1×1 km cells inside the park boundary (Table I).
    pub target_cells: usize,
    /// Boundary shape.
    pub shape: BoundaryShape,
    /// Number of rivers.
    pub n_rivers: usize,
    /// Number of roads crossing the park.
    pub n_roads: usize,
    /// Number of villages just outside the boundary.
    pub n_villages: usize,
    /// Number of towns further outside the boundary.
    pub n_towns: usize,
    /// Number of patrol posts (Fig. 11 shows posts around the boundary).
    pub n_patrol_posts: usize,
    /// Number of ranger camps in the interior.
    pub n_camps: usize,
    /// Number of water holes.
    pub n_water_holes: usize,
    /// Static feature columns to generate for this park.
    pub features: Vec<FeatureKind>,
    /// Seasonal regime.
    pub seasonality: Seasonality,
    /// Multiplier on the terrain-noise length scales (elevation, cover,
    /// NPP, rainfall, wildlife, boundary wobble). `1.0` reproduces the
    /// study-site landscapes exactly; LLC-scale parks
    /// (`crate::parks::llc_park_spec`) grow it with the park side so a
    /// 270 km park remains one landscape with realistic long-range
    /// feature correlations instead of a patchwork of 24 km tiles.
    pub terrain_scale: f64,
}

/// A fully generated synthetic park.
#[derive(Debug, Clone)]
pub struct Park {
    /// Park name.
    pub name: String,
    /// Bounding-rectangle grid.
    pub grid: Grid,
    /// `mask[cell] == true` when the cell is inside the park boundary.
    pub mask: Vec<bool>,
    /// In-park cell ids in row-major order; downstream datasets index cells
    /// by position in this list.
    pub cells: Vec<CellId>,
    /// Static feature layers over the full bounding rectangle.
    pub features: FeatureTable,
    /// Patrol post cells (inside the park, near the boundary).
    pub patrol_posts: Vec<CellId>,
    /// Ranger camps (inside the park interior).
    pub camps: Vec<CellId>,
    /// River cells.
    pub rivers: Vec<CellId>,
    /// Road cells.
    pub roads: Vec<CellId>,
    /// Village cells (outside the park).
    pub villages: Vec<CellId>,
    /// Town cells (outside the park, further away).
    pub towns: Vec<CellId>,
    /// Water hole cells.
    pub water_holes: Vec<CellId>,
    /// Boundary cells (in-park cells adjacent to outside).
    pub boundary: Vec<CellId>,
    /// Seasonal regime.
    pub seasonality: Seasonality,
    /// Position of each in-park cell in `cells`, or `u32::MAX` when outside.
    cell_pos: Vec<u32>,
}

impl Park {
    /// Generate a park from a spec with a deterministic seed.
    pub fn generate(spec: &ParkSpec, seed: u64) -> Self {
        ParkBuilder::new(spec, seed).build()
    }

    /// Number of in-park cells.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Is the cell inside the park boundary?
    #[inline]
    pub fn contains(&self, cell: CellId) -> bool {
        self.mask[cell.index()]
    }

    /// Position of an in-park cell within [`Park::cells`], if inside.
    #[inline]
    pub fn cell_position(&self, cell: CellId) -> Option<usize> {
        let p = self.cell_pos[cell.index()];
        if p == u32::MAX {
            None
        } else {
            Some(p as usize)
        }
    }

    /// Static feature vector of a cell (column order = `features.kinds()`).
    pub fn feature_row(&self, cell: CellId) -> Vec<f64> {
        self.features.row(cell.index())
    }

    /// Write the static feature vector of a cell into `out` without
    /// allocating (used by flat feature-matrix assembly).
    pub fn write_feature_row(&self, cell: CellId, out: &mut [f64]) {
        self.features.write_row(cell.index(), out);
    }

    /// Number of static feature columns.
    pub fn n_static_features(&self) -> usize {
        self.features.n_features()
    }

    /// In-park 8-neighbours of an in-park cell, with step lengths in km.
    pub fn park_neighbours(&self, cell: CellId) -> Vec<(CellId, f64)> {
        self.grid
            .neighbours8(cell)
            .into_iter()
            .filter(|(n, _)| self.contains(*n))
            .collect()
    }
}

struct ParkBuilder<'a> {
    spec: &'a ParkSpec,
    rng: ChaCha8Rng,
    grid: Grid,
}

impl<'a> ParkBuilder<'a> {
    fn new(spec: &'a ParkSpec, seed: u64) -> Self {
        assert!(
            spec.target_cells <= (spec.rows as usize * spec.cols as usize),
            "target cell count exceeds the bounding rectangle"
        );
        assert!(
            spec.n_patrol_posts > 0,
            "a park needs at least one patrol post"
        );
        Self {
            spec,
            rng: ChaCha8Rng::seed_from_u64(seed),
            grid: Grid::new(spec.rows, spec.cols),
        }
    }

    fn build(mut self) -> Park {
        let mask = self.build_mask();
        let cells: Vec<CellId> = self.grid.cells().filter(|c| mask[c.index()]).collect();
        let mut cell_pos = vec![u32::MAX; self.grid.len()];
        for (i, c) in cells.iter().enumerate() {
            cell_pos[c.index()] = i as u32;
        }
        let boundary = self.boundary_cells(&mask);

        // Terrain noise fields; length scales grow with the spec's
        // terrain_scale so LLC-size parks stay one coherent landscape.
        let ts = self.spec.terrain_scale;
        let elevation_noise =
            FractalNoise::new(self.rng.gen(), self.spec.rows, self.spec.cols, 24.0 * ts, 5);
        let forest_noise =
            FractalNoise::new(self.rng.gen(), self.spec.rows, self.spec.cols, 14.0 * ts, 4);
        let scrub_noise =
            FractalNoise::new(self.rng.gen(), self.spec.rows, self.spec.cols, 10.0 * ts, 4);
        let npp_noise =
            FractalNoise::new(self.rng.gen(), self.spec.rows, self.spec.cols, 18.0 * ts, 4);
        let rain_noise =
            FractalNoise::new(self.rng.gen(), self.spec.rows, self.spec.cols, 30.0 * ts, 3);
        let animal_noise =
            FractalNoise::new(self.rng.gen(), self.spec.rows, self.spec.cols, 12.0 * ts, 4);

        let elevation: Vec<f64> = self
            .grid
            .cells()
            .map(|c| {
                let (r, k) = self.grid.centre_km(c);
                elevation_noise.sample_unit(r, k)
            })
            .collect();

        let rivers = self.trace_rivers(&mask, &elevation, &boundary);
        let water_holes = self.place_water_holes(&cells, &elevation);
        let roads = self.trace_roads(&boundary);
        let villages = self.place_outside(&mask, &boundary, self.spec.n_villages, 1.0, 4.0);
        let towns = self.place_outside(&mask, &boundary, self.spec.n_towns, 5.0, 12.0);
        let patrol_posts = self.place_patrol_posts(&mask, &cells, &boundary, &roads);
        let camps = self.place_camps(&cells, &boundary);

        // Distance transforms reused by several feature layers.
        let dist_boundary_outside = distance_to_nearest(&self.grid, &self.outside_cells(&mask));
        let dist_river = distance_to_nearest(&self.grid, &rivers);
        let dist_road = distance_to_nearest(&self.grid, &roads);
        let dist_village = distance_to_nearest(&self.grid, &villages);
        let dist_town = distance_to_nearest(&self.grid, &towns);
        let dist_post = distance_to_nearest(&self.grid, &patrol_posts);
        let dist_camp = distance_to_nearest(&self.grid, &camps);
        let dist_water_hole = distance_to_nearest(&self.grid, &water_holes);

        let slope = self.slope_of(&elevation);
        let ruggedness = self.ruggedness_of(&elevation);

        // Vegetation cover: three competing layers normalised to sum to one.
        let mut forest = Vec::with_capacity(self.grid.len());
        let mut scrub = Vec::with_capacity(self.grid.len());
        let mut grass = Vec::with_capacity(self.grid.len());
        for c in self.grid.cells() {
            let (r, k) = self.grid.centre_km(c);
            let f = forest_noise.sample_unit(r, k).powi(2) + 0.05;
            let s = scrub_noise.sample_unit(r, k).powi(2) + 0.05;
            let g = (1.0 - forest_noise.sample_unit(r, k)).powi(2) + 0.05;
            let total = f + s + g;
            forest.push(f / total);
            scrub.push(s / total);
            grass.push(g / total);
        }

        let npp: Vec<f64> = self
            .grid
            .cells()
            .map(|c| {
                let (r, k) = self.grid.centre_km(c);
                0.6 * npp_noise.sample_unit(r, k) + 0.4 * forest[c.index()]
            })
            .collect();
        let rainfall: Vec<f64> = self
            .grid
            .cells()
            .map(|c| {
                let (r, k) = self.grid.centre_km(c);
                rain_noise.sample_unit(r, k)
            })
            .collect();

        // Animal density: higher in the interior, near water, on productive
        // land; this is the main driver of where poachers set snares.
        let animal_density: Vec<f64> = self
            .grid
            .cells()
            .map(|c| {
                let i = c.index();
                let (r, k) = self.grid.centre_km(c);
                let interior = (dist_boundary_outside[i] / 10.0).min(1.0);
                let water =
                    (-dist_water_hole[i] / 6.0).exp() * 0.5 + (-dist_river[i] / 8.0).exp() * 0.5;
                let base = animal_noise.sample_unit(r, k);
                (0.35 * base + 0.30 * interior + 0.20 * water + 0.15 * npp[i]).clamp(0.0, 1.0)
            })
            .collect();

        let water_density = {
            let mut sources = rivers.clone();
            sources.extend_from_slice(&water_holes);
            density_within(&self.grid, &sources, 3.0)
        };
        let river_density = density_within(&self.grid, &rivers, 3.0);
        let road_density = density_within(&self.grid, &roads, 3.0);

        // Forest edge: cells where forest cover crosses 0.5 between
        // neighbours.
        let forest_edge: Vec<CellId> = self
            .grid
            .cells()
            .filter(|c| {
                let here = forest[c.index()] >= 0.5;
                self.grid
                    .neighbours4(*c)
                    .iter()
                    .any(|n| (forest[n.index()] >= 0.5) != here)
            })
            .collect();
        let dist_forest_edge = distance_to_nearest(&self.grid, &forest_edge);

        let mut features = FeatureTable::new(self.grid.len());
        let finite = |v: Vec<f64>, cap: f64| -> Vec<f64> {
            v.into_iter()
                .map(|x| if x.is_finite() { x } else { cap })
                .collect()
        };
        let max_dist = (self.spec.rows + self.spec.cols) as f64;
        for kind in &self.spec.features {
            let column = match kind {
                FeatureKind::Elevation => elevation.clone(),
                FeatureKind::Slope => slope.clone(),
                FeatureKind::Ruggedness => ruggedness.clone(),
                FeatureKind::ForestCover => forest.clone(),
                FeatureKind::ScrubCover => scrub.clone(),
                FeatureKind::GrasslandCover => grass.clone(),
                FeatureKind::Npp => npp.clone(),
                FeatureKind::Rainfall => rainfall.clone(),
                FeatureKind::AnimalDensity => animal_density.clone(),
                FeatureKind::WaterDensity => water_density.clone(),
                FeatureKind::RiverDensity => river_density.clone(),
                FeatureKind::RoadDensity => road_density.clone(),
                FeatureKind::DistRiver => finite(dist_river.clone(), max_dist),
                FeatureKind::DistWaterHole => finite(dist_water_hole.clone(), max_dist),
                FeatureKind::DistRoad => finite(dist_road.clone(), max_dist),
                FeatureKind::DistBoundary => finite(dist_boundary_outside.clone(), max_dist),
                FeatureKind::DistVillage => finite(dist_village.clone(), max_dist),
                FeatureKind::DistTown => finite(dist_town.clone(), max_dist),
                FeatureKind::DistPatrolPost => finite(dist_post.clone(), max_dist),
                FeatureKind::DistCamp => finite(dist_camp.clone(), max_dist),
                FeatureKind::DistForestEdge => finite(dist_forest_edge.clone(), max_dist),
            };
            features.push(*kind, column);
        }

        Park {
            name: self.spec.name.clone(),
            grid: self.grid,
            mask,
            cells,
            features,
            patrol_posts,
            camps,
            rivers,
            roads,
            villages,
            towns,
            water_holes,
            boundary,
            seasonality: self.spec.seasonality,
            cell_pos,
        }
    }

    /// Build the park mask: a noise-perturbed ellipse scaled to hit the exact
    /// target cell count.
    fn build_mask(&mut self) -> Vec<bool> {
        let rows = self.spec.rows as f64;
        let cols = self.spec.cols as f64;
        let (cr, cc) = (rows / 2.0, cols / 2.0);
        let aspect = match self.spec.shape {
            BoundaryShape::Circular => 1.0,
            BoundaryShape::Elongated { aspect } => aspect.max(1.0),
        };
        let wobble = FractalNoise::new(
            self.rng.gen(),
            self.spec.rows,
            self.spec.cols,
            20.0 * self.spec.terrain_scale,
            3,
        );

        // Radial score of every cell: lower = closer to the park centre after
        // aspect scaling and boundary wobble. The `target_cells` cells with
        // the lowest score form the park, which guarantees an exact match
        // with Table I's cell counts while keeping an organic boundary.
        let mut scored: Vec<(f64, CellId)> = self
            .grid
            .cells()
            .map(|cell| {
                let (r, c) = self.grid.centre_km(cell);
                let dr = (r - cr) / rows;
                let dc = (c - cc) / (cols / aspect.max(1.0)).max(1.0) * (aspect.sqrt());
                let radial = (dr * dr + dc * dc).sqrt();
                let w = 0.12 * wobble.sample(r, c);
                (radial + w, cell)
            })
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut mask = vec![false; self.grid.len()];
        for (_, cell) in scored.iter().take(self.spec.target_cells) {
            mask[cell.index()] = true;
        }
        mask
    }

    fn outside_cells(&self, mask: &[bool]) -> Vec<CellId> {
        self.grid.cells().filter(|c| !mask[c.index()]).collect()
    }

    fn boundary_cells(&self, mask: &[bool]) -> Vec<CellId> {
        self.grid
            .cells()
            .filter(|c| {
                mask[c.index()]
                    && (self.grid.neighbours4(*c).iter().any(|n| !mask[n.index()])
                        || self.grid.neighbours4(*c).len() < 4)
            })
            .collect()
    }

    fn trace_rivers(
        &mut self,
        mask: &[bool],
        elevation: &[f64],
        boundary: &[CellId],
    ) -> Vec<CellId> {
        let mut rivers = Vec::new();
        let interior: Vec<CellId> = self.grid.cells().filter(|c| mask[c.index()]).collect();
        if interior.is_empty() {
            return rivers;
        }
        for _ in 0..self.spec.n_rivers {
            // Start at a relatively high cell and walk downhill with noise
            // until leaving the park or hitting a dead end.
            let mut best = *interior.choose(&mut self.rng).expect("non-empty interior");
            for _ in 0..20 {
                let cand = *interior.choose(&mut self.rng).expect("non-empty interior");
                if elevation[cand.index()] > elevation[best.index()] {
                    best = cand;
                }
            }
            let mut current = best;
            let max_len = (self.spec.rows + self.spec.cols) as usize;
            for _ in 0..max_len {
                rivers.push(current);
                let neigh = self.grid.neighbours8(current);
                let next = neigh
                    .iter()
                    .map(|(n, _)| (elevation[n.index()] + self.rng.gen_range(-0.03..0.03), *n))
                    .min_by(|a, b| a.0.total_cmp(&b.0))
                    .map(|(_, n)| n);
                match next {
                    Some(n) if !rivers.contains(&n) => {
                        current = n;
                        if !mask[n.index()] || boundary.contains(&n) {
                            rivers.push(n);
                            break;
                        }
                    }
                    _ => break,
                }
            }
        }
        rivers.sort_unstable();
        rivers.dedup();
        rivers
    }

    fn place_water_holes(&mut self, cells: &[CellId], elevation: &[f64]) -> Vec<CellId> {
        let mut sorted: Vec<CellId> = cells.to_vec();
        sorted.sort_by(|a, b| elevation[a.index()].total_cmp(&elevation[b.index()]));
        let low = &sorted[..(sorted.len() / 3).max(1)];
        let mut out = Vec::new();
        for _ in 0..self.spec.n_water_holes {
            if let Some(&c) = low.choose(&mut self.rng) {
                out.push(c);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn trace_roads(&mut self, boundary: &[CellId]) -> Vec<CellId> {
        let mut roads = Vec::new();
        if boundary.len() < 2 {
            return roads;
        }
        for _ in 0..self.spec.n_roads {
            let a = *boundary.choose(&mut self.rng).expect("non-empty boundary");
            // Pick the end point far from the start so roads cross the park.
            let b = *boundary
                .iter()
                .max_by(|x, y| {
                    let da = self.grid.distance_km(a, **x) + self.rng.gen_range(0.0..6.0);
                    let db = self.grid.distance_km(a, **y) + self.rng.gen_range(0.0..6.0);
                    da.total_cmp(&db)
                })
                .expect("non-empty boundary");
            roads.extend(self.line_cells(a, b));
        }
        roads.sort_unstable();
        roads.dedup();
        roads
    }

    /// Rasterise the straight segment between two cell centres.
    fn line_cells(&self, a: CellId, b: CellId) -> Vec<CellId> {
        let (ar, ac) = self.grid.centre_km(a);
        let (br, bc) = self.grid.centre_km(b);
        let steps = ((ar - br).abs().max((ac - bc).abs()).ceil() as usize).max(1);
        (0..=steps)
            .filter_map(|s| {
                let t = s as f64 / steps as f64;
                let r = ar + (br - ar) * t;
                let c = ac + (bc - ac) * t;
                self.grid.try_cell(r.floor() as i64, c.floor() as i64)
            })
            .collect()
    }

    fn place_outside(
        &mut self,
        mask: &[bool],
        boundary: &[CellId],
        count: usize,
        min_km: f64,
        max_km: f64,
    ) -> Vec<CellId> {
        let dist_to_park: Vec<f64> = {
            let inside: Vec<CellId> = self.grid.cells().filter(|c| mask[c.index()]).collect();
            distance_to_nearest(&self.grid, &inside)
        };
        let candidates: Vec<CellId> = self
            .grid
            .cells()
            .filter(|c| {
                !mask[c.index()]
                    && dist_to_park[c.index()] >= min_km
                    && dist_to_park[c.index()] <= max_km
            })
            .collect();
        let mut out = Vec::new();
        for _ in 0..count {
            if let Some(&c) = candidates.choose(&mut self.rng) {
                out.push(c);
            } else if let Some(&c) = boundary.choose(&mut self.rng) {
                // Degenerate geometry (tiny test parks): fall back to the boundary.
                out.push(c);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Patrol posts sit inside the park near the boundary (and preferentially
    /// near roads), spread out by greedy max-min distance — mirroring Fig. 11.
    fn place_patrol_posts(
        &mut self,
        mask: &[bool],
        cells: &[CellId],
        boundary: &[CellId],
        roads: &[CellId],
    ) -> Vec<CellId> {
        let dist_road = distance_to_nearest(&self.grid, roads);
        let dist_outside: Vec<f64> = {
            // Mask lookup, not a per-cell scan of the in-park list — the
            // LLC-scale parks (50k+ cells) made the old `cells.contains`
            // filter quadratic in park size.
            let outside: Vec<CellId> = self.grid.cells().filter(|c| !mask[c.index()]).collect();
            if outside.is_empty() {
                vec![0.0; self.grid.len()]
            } else {
                distance_to_nearest(&self.grid, &outside)
            }
        };
        let mut candidates: Vec<CellId> = cells
            .iter()
            .copied()
            .filter(|c| dist_outside[c.index()] <= 4.0)
            .collect();
        if candidates.is_empty() {
            candidates = boundary.to_vec();
        }
        if candidates.is_empty() {
            candidates = cells.to_vec();
        }
        // Score candidates by proximity to roads so posts sit on access routes.
        candidates.sort_by(|a, b| dist_road[a.index()].total_cmp(&dist_road[b.index()]));
        let pool = &candidates[..candidates.len().min(candidates.len() / 2 + 1).max(1)];

        let mut posts: Vec<CellId> = Vec::with_capacity(self.spec.n_patrol_posts);
        let first = pool[self.rng.gen_range(0..pool.len())];
        posts.push(first);
        while posts.len() < self.spec.n_patrol_posts {
            // Greedy farthest-point placement.
            let next = pool
                .iter()
                .copied()
                .max_by(|a, b| {
                    let da: f64 = posts
                        .iter()
                        .map(|p| self.grid.distance_km(*a, *p))
                        .fold(f64::INFINITY, f64::min);
                    let db: f64 = posts
                        .iter()
                        .map(|p| self.grid.distance_km(*b, *p))
                        .fold(f64::INFINITY, f64::min);
                    da.total_cmp(&db)
                })
                .expect("non-empty candidate pool");
            if posts.contains(&next) {
                break;
            }
            posts.push(next);
        }
        posts
    }

    fn place_camps(&mut self, cells: &[CellId], boundary: &[CellId]) -> Vec<CellId> {
        let dist_boundary = distance_to_nearest(&self.grid, boundary);
        let mut interior: Vec<CellId> = cells
            .iter()
            .copied()
            .filter(|c| dist_boundary[c.index()] >= 3.0)
            .collect();
        if interior.is_empty() {
            interior = cells.to_vec();
        }
        let mut out = Vec::new();
        for _ in 0..self.spec.n_camps {
            if let Some(&c) = interior.choose(&mut self.rng) {
                out.push(c);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn slope_of(&self, elevation: &[f64]) -> Vec<f64> {
        self.grid
            .cells()
            .map(|c| {
                let here = elevation[c.index()];
                let neigh = self.grid.neighbours4(c);
                if neigh.is_empty() {
                    return 0.0;
                }
                neigh
                    .iter()
                    .map(|n| (elevation[n.index()] - here).abs())
                    .fold(0.0, f64::max)
            })
            .collect()
    }

    fn ruggedness_of(&self, elevation: &[f64]) -> Vec<f64> {
        self.grid
            .cells()
            .map(|c| {
                let neigh = self.grid.neighbours8(c);
                if neigh.is_empty() {
                    return 0.0;
                }
                let here = elevation[c.index()];
                let mean: f64 = neigh.iter().map(|(n, _)| elevation[n.index()]).sum::<f64>()
                    / neigh.len() as f64;
                let var: f64 = neigh
                    .iter()
                    .map(|(n, _)| (elevation[n.index()] - mean).powi(2))
                    .sum::<f64>()
                    / neigh.len() as f64;
                (var.sqrt() + (here - mean).abs()) / 2.0
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parks;

    fn tiny_spec() -> ParkSpec {
        ParkSpec {
            name: "tiny".to_string(),
            rows: 20,
            cols: 20,
            target_cells: 200,
            shape: BoundaryShape::Circular,
            n_rivers: 2,
            n_roads: 2,
            n_villages: 4,
            n_towns: 2,
            n_patrol_posts: 3,
            n_camps: 1,
            n_water_holes: 3,
            features: FeatureKind::all().to_vec(),
            seasonality: Seasonality::None,
            terrain_scale: 1.0,
        }
    }

    #[test]
    fn generates_exact_cell_count() {
        let park = Park::generate(&tiny_spec(), 42);
        assert_eq!(park.n_cells(), 200);
        assert_eq!(park.cells.len(), park.mask.iter().filter(|&&m| m).count());
    }

    #[test]
    fn cell_positions_are_consistent() {
        let park = Park::generate(&tiny_spec(), 42);
        for (i, &c) in park.cells.iter().enumerate() {
            assert_eq!(park.cell_position(c), Some(i));
            assert!(park.contains(c));
        }
        for c in park.grid.cells() {
            if !park.contains(c) {
                assert_eq!(park.cell_position(c), None);
            }
        }
    }

    #[test]
    fn features_match_spec_and_are_finite() {
        let park = Park::generate(&tiny_spec(), 7);
        assert_eq!(park.n_static_features(), FeatureKind::all().len());
        for &c in &park.cells {
            for v in park.feature_row(c) {
                assert!(v.is_finite(), "non-finite feature value");
            }
        }
    }

    #[test]
    fn patrol_posts_inside_park() {
        let park = Park::generate(&tiny_spec(), 3);
        assert_eq!(park.patrol_posts.len(), 3);
        for p in &park.patrol_posts {
            assert!(park.contains(*p), "patrol post outside park");
        }
    }

    #[test]
    fn villages_outside_park() {
        let park = Park::generate(&tiny_spec(), 5);
        assert!(!park.villages.is_empty());
        for v in &park.villages {
            assert!(!park.contains(*v), "village inside park");
        }
    }

    #[test]
    fn boundary_cells_touch_outside() {
        let park = Park::generate(&tiny_spec(), 11);
        assert!(!park.boundary.is_empty());
        for b in &park.boundary {
            assert!(park.contains(*b));
            let touches_outside = park.grid.neighbours4(*b).iter().any(|n| !park.contains(*n))
                || park.grid.neighbours4(*b).len() < 4;
            assert!(touches_outside);
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = Park::generate(&tiny_spec(), 99);
        let b = Park::generate(&tiny_spec(), 99);
        assert_eq!(a.cells, b.cells);
        assert_eq!(a.patrol_posts, b.patrol_posts);
        assert_eq!(a.feature_row(a.cells[10]), b.feature_row(b.cells[10]));
    }

    #[test]
    fn different_seed_changes_landscape() {
        let a = Park::generate(&tiny_spec(), 1);
        let b = Park::generate(&tiny_spec(), 2);
        assert_ne!(a.feature_row(a.cells[0]), b.feature_row(b.cells[0]));
    }

    #[test]
    fn presets_have_table1_cell_counts() {
        // Keep this cheap: generate only the smallest preset here; the full
        // Table I check lives in the bench/integration tests.
        let spec = parks::qenp_spec();
        let park = Park::generate(&spec, 1);
        assert_eq!(park.n_cells(), 2522);
    }

    #[test]
    fn park_neighbours_stay_inside() {
        let park = Park::generate(&tiny_spec(), 13);
        for &c in park.cells.iter().take(50) {
            for (n, step) in park.park_neighbours(c) {
                assert!(park.contains(n));
                assert!((1.0..=std::f64::consts::SQRT_2 + 1e-12).contains(&step));
            }
        }
    }
}
