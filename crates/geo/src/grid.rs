//! Discretisation of a protected area into 1×1 km grid cells.
//!
//! The paper discretises each park into 1×1 km cells (Sec. III-B). A
//! [`Grid`] describes the bounding rectangle of the study region; a park is
//! the subset of cells inside the park boundary (the *mask*, see
//! [`crate::park::Park`]). Cells are addressed either by `(row, col)`
//! coordinates or by a dense [`CellId`] index used everywhere downstream
//! (feature matrices, labels, risk maps).

/// Dense identifier of a grid cell within a [`Grid`].
///
/// Cell ids enumerate the full bounding rectangle in row-major order; park
/// code normally works with the subset of ids for which the park mask is
/// true.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl CellId {
    /// Underlying dense index as `usize` (for indexing slices).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A rectangular grid of 1×1 km cells covering the study region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    rows: u32,
    cols: u32,
}

impl Grid {
    /// Create a grid with the given number of rows and columns.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(rows: u32, cols: u32) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        Self { rows, cols }
    }

    /// Number of rows (north-south extent in km).
    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns (east-west extent in km).
    #[inline]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Total number of cells in the bounding rectangle.
    #[inline]
    pub fn len(&self) -> usize {
        (self.rows as usize) * (self.cols as usize)
    }

    /// True when the grid has no cells (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Convert `(row, col)` to a dense cell id.
    ///
    /// # Panics
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn cell(&self, row: u32, col: u32) -> CellId {
        assert!(row < self.rows && col < self.cols, "cell out of bounds");
        CellId(row * self.cols + col)
    }

    /// Convert `(row, col)` to a cell id, returning `None` when out of bounds.
    #[inline]
    pub fn try_cell(&self, row: i64, col: i64) -> Option<CellId> {
        if row >= 0 && col >= 0 && (row as u32) < self.rows && (col as u32) < self.cols {
            Some(CellId(row as u32 * self.cols + col as u32))
        } else {
            None
        }
    }

    /// Convert a cell id back to `(row, col)`.
    #[inline]
    pub fn coords(&self, cell: CellId) -> (u32, u32) {
        let row = cell.0 / self.cols;
        let col = cell.0 % self.cols;
        debug_assert!(row < self.rows);
        (row, col)
    }

    /// Centre of a cell in kilometres from the grid origin (south-west corner).
    #[inline]
    pub fn centre_km(&self, cell: CellId) -> (f64, f64) {
        let (row, col) = self.coords(cell);
        (row as f64 + 0.5, col as f64 + 0.5)
    }

    /// Euclidean distance in kilometres between the centres of two cells.
    #[inline]
    pub fn distance_km(&self, a: CellId, b: CellId) -> f64 {
        let (ar, ac) = self.coords(a);
        let (br, bc) = self.coords(b);
        let dr = ar as f64 - br as f64;
        let dc = ac as f64 - bc as f64;
        (dr * dr + dc * dc).sqrt()
    }

    /// Iterate over every cell id of the bounding rectangle in row-major order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.len() as u32).map(CellId)
    }

    /// The 4-neighbourhood (von Neumann) of a cell, clipped to the grid.
    pub fn neighbours4(&self, cell: CellId) -> Vec<CellId> {
        let (row, col) = self.coords(cell);
        let (row, col) = (row as i64, col as i64);
        [(-1, 0), (1, 0), (0, -1), (0, 1)]
            .iter()
            .filter_map(|&(dr, dc)| self.try_cell(row + dr, col + dc))
            .collect()
    }

    /// The 8-neighbourhood (Moore) of a cell, clipped to the grid.
    ///
    /// Each entry is returned with the step length in kilometres (1 for the
    /// four cardinal moves, √2 for the diagonals), which is what the patrol
    /// simulator and the distance transform need.
    pub fn neighbours8(&self, cell: CellId) -> Vec<(CellId, f64)> {
        let (row, col) = self.coords(cell);
        let (row, col) = (row as i64, col as i64);
        let mut out = Vec::with_capacity(8);
        for dr in -1i64..=1 {
            for dc in -1i64..=1 {
                if dr == 0 && dc == 0 {
                    continue;
                }
                if let Some(n) = self.try_cell(row + dr, col + dc) {
                    let step = if dr != 0 && dc != 0 {
                        std::f64::consts::SQRT_2
                    } else {
                        1.0
                    };
                    out.push((n, step));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_roundtrip() {
        let g = Grid::new(7, 11);
        for r in 0..7 {
            for c in 0..11 {
                let id = g.cell(r, c);
                assert_eq!(g.coords(id), (r, c));
            }
        }
    }

    #[test]
    fn len_matches_dims() {
        let g = Grid::new(13, 9);
        assert_eq!(g.len(), 117);
        assert_eq!(g.cells().count(), 117);
    }

    #[test]
    fn try_cell_rejects_out_of_bounds() {
        let g = Grid::new(4, 4);
        assert!(g.try_cell(-1, 0).is_none());
        assert!(g.try_cell(0, -1).is_none());
        assert!(g.try_cell(4, 0).is_none());
        assert!(g.try_cell(0, 4).is_none());
        assert!(g.try_cell(3, 3).is_some());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn cell_panics_out_of_bounds() {
        let g = Grid::new(4, 4);
        let _ = g.cell(4, 0);
    }

    #[test]
    fn corner_neighbourhood_sizes() {
        let g = Grid::new(5, 5);
        assert_eq!(g.neighbours4(g.cell(0, 0)).len(), 2);
        assert_eq!(g.neighbours4(g.cell(2, 2)).len(), 4);
        assert_eq!(g.neighbours8(g.cell(0, 0)).len(), 3);
        assert_eq!(g.neighbours8(g.cell(2, 2)).len(), 8);
    }

    #[test]
    fn neighbour_steps_are_metric() {
        let g = Grid::new(5, 5);
        for (n, step) in g.neighbours8(g.cell(2, 2)) {
            let d = g.distance_km(g.cell(2, 2), n);
            assert!((d - step).abs() < 1e-12);
        }
    }

    #[test]
    fn centre_km_is_offset_by_half() {
        let g = Grid::new(3, 3);
        assert_eq!(g.centre_km(g.cell(0, 0)), (0.5, 0.5));
        assert_eq!(g.centre_km(g.cell(2, 1)), (2.5, 1.5));
    }

    #[test]
    fn distance_symmetry() {
        let g = Grid::new(10, 10);
        let a = g.cell(1, 2);
        let b = g.cell(7, 9);
        assert!((g.distance_km(a, b) - g.distance_km(b, a)).abs() < 1e-12);
    }
}
