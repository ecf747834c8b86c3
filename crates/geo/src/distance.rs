//! Distance transforms over the cell grid.
//!
//! The PAWS feature vectors use "distance to nearest X" layers (distance to
//! rivers, roads, park boundary, villages, patrol posts, …). These are
//! computed with a multi-source Dijkstra over the 8-neighbourhood with step
//! costs of 1 km (cardinal) and √2 km (diagonal), which approximates the
//! Euclidean distance well enough at 1 km resolution. The planner's travel
//! distances from a patrol post are the same Dijkstra confined to the park
//! mask and stopped at a distance limit ([`masked_distance_to_nearest`]).

use crate::grid::{CellId, Grid};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Entry in the Dijkstra frontier (min-heap by distance).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Frontier {
    dist: f64,
    cell: CellId,
}

impl Eq for Frontier {}

impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap becomes a min-heap on distance. Ordered
        // with `total_cmp`: the old `partial_cmp().unwrap_or(Equal)` made a
        // NaN key compare Equal to *every* distance, letting it float
        // through the heap and corrupt the pop order; under total order a
        // NaN key has a consistent, worst (popped-last) rank.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.cell.0.cmp(&self.cell.0))
    }
}

impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Distance in km from every cell of the grid to the nearest source cell.
///
/// Returns `f64::INFINITY` for cells unreachable from any source (only
/// possible when `sources` is empty).
pub fn distance_to_nearest(grid: &Grid, sources: &[CellId]) -> Vec<f64> {
    shortest_paths(grid, sources, f64::INFINITY, |_| true)
}

/// As [`distance_to_nearest`], but every path stays on cells where `mask`
/// is true, and the search stops at `limit_km`. Cells off the mask, cells
/// the mask cuts off from every source, and cells farther than `limit_km`
/// read `f64::INFINITY`; a source off the mask starts no path, and one on
/// it reads 0 whatever the limit. Every other cell reads the bits of the
/// unbounded search (`limit_km` infinite): a path's sum never shrinks as
/// steps are added, so no cell within the limit is reached only through
/// one beyond it.
///
/// # Panics
/// Panics when `mask` does not have one entry per grid cell.
pub fn masked_distance_to_nearest(
    grid: &Grid,
    mask: &[bool],
    sources: &[CellId],
    limit_km: f64,
) -> Vec<f64> {
    assert_eq!(mask.len(), grid.len(), "mask must cover the grid");
    shortest_paths(grid, sources, limit_km, |c| mask[c.index()])
}

/// The multi-source Dijkstra behind both transforms, walking only onto
/// cells `open` admits and pushing no cell beyond `limit_km`. Each distance
/// is the minimum over admitted paths of the path's left-to-right sum of
/// steps, whatever the heap's tie order.
fn shortest_paths(
    grid: &Grid,
    sources: &[CellId],
    limit_km: f64,
    open: impl Fn(CellId) -> bool,
) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; grid.len()];
    let mut heap = BinaryHeap::new();
    for &s in sources {
        assert!(s.index() < grid.len(), "source cell out of bounds");
        if open(s) && dist[s.index()] > 0.0 {
            dist[s.index()] = 0.0;
            heap.push(Frontier { dist: 0.0, cell: s });
        }
    }
    while let Some(Frontier { dist: d, cell }) = heap.pop() {
        if d > dist[cell.index()] {
            continue;
        }
        for (n, step) in grid.neighbours8(cell) {
            if !open(n) {
                continue;
            }
            // Step costs are 1/√2 km by construction; a non-finite cost
            // (a future weighted-grid bug) must not enter the frontier,
            // where it would outrank real paths and poison every distance
            // downstream of it.
            debug_assert!(step.is_finite(), "non-finite neighbour step cost");
            let nd = d + step;
            if nd <= limit_km && nd.is_finite() && nd < dist[n.index()] {
                dist[n.index()] = nd;
                heap.push(Frontier { dist: nd, cell: n });
            }
        }
    }
    dist
}

/// Density of source cells within a radius (km) of each cell, normalised to
/// `[0, 1]` by the neighbourhood size. Used for "river density" / "road
/// density" style features.
pub fn density_within(grid: &Grid, sources: &[CellId], radius_km: f64) -> Vec<f64> {
    assert!(radius_km > 0.0, "radius must be positive");
    let mut is_source = vec![false; grid.len()];
    for &s in sources {
        is_source[s.index()] = true;
    }
    let r = radius_km.ceil() as i64;
    let mut out = vec![0.0; grid.len()];
    for cell in grid.cells() {
        let (row, col) = grid.coords(cell);
        let mut count = 0usize;
        let mut total = 0usize;
        for dr in -r..=r {
            for dc in -r..=r {
                let d2 = (dr * dr + dc * dc) as f64;
                if d2 > radius_km * radius_km {
                    continue;
                }
                total += 1;
                if let Some(n) = grid.try_cell(row as i64 + dr, col as i64 + dc) {
                    if is_source[n.index()] {
                        count += 1;
                    }
                }
            }
        }
        out[cell.index()] = if total == 0 {
            0.0
        } else {
            count as f64 / total as f64
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_zero_at_sources() {
        let g = Grid::new(10, 10);
        let sources = vec![g.cell(3, 3), g.cell(7, 8)];
        let d = distance_to_nearest(&g, &sources);
        for s in &sources {
            assert_eq!(d[s.index()], 0.0);
        }
    }

    #[test]
    fn distance_matches_chebyshev_lower_bound() {
        // Octile distance is always >= Chebyshev and <= Manhattan.
        let g = Grid::new(12, 12);
        let src = g.cell(0, 0);
        let d = distance_to_nearest(&g, &[src]);
        for cell in g.cells() {
            let (r, c) = g.coords(cell);
            let cheb = r.max(c) as f64;
            let man = (r + c) as f64;
            assert!(d[cell.index()] + 1e-9 >= cheb);
            assert!(d[cell.index()] <= man + 1e-9);
        }
    }

    #[test]
    fn straight_line_distance_exact() {
        let g = Grid::new(1, 20);
        let d = distance_to_nearest(&g, &[g.cell(0, 0)]);
        for c in 0..20 {
            assert!((d[g.cell(0, c).index()] - c as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_sources_all_infinite() {
        let g = Grid::new(5, 5);
        let d = distance_to_nearest(&g, &[]);
        assert!(d.iter().all(|&x| x.is_infinite()));
    }

    #[test]
    fn density_bounded_and_peaks_at_sources() {
        let g = Grid::new(15, 15);
        let sources: Vec<_> = (0..15).map(|c| g.cell(7, c)).collect();
        let dens = density_within(&g, &sources, 3.0);
        assert!(dens.iter().all(|&x| (0.0..=1.0).contains(&x)));
        // A cell on the source line has strictly higher density than one far
        // away from it.
        assert!(dens[g.cell(7, 7).index()] > dens[g.cell(0, 0).index()]);
    }

    #[test]
    fn frontier_heap_ranks_nan_last_not_equal() {
        // Regression: the frontier ordering used
        // `partial_cmp(..).unwrap_or(Equal)`, so a NaN key compared Equal
        // to everything and could pop ahead of genuinely nearer cells.
        // Under total_cmp a NaN key has a consistent, worst possible rank.
        let g = Grid::new(2, 2);
        let mut heap = BinaryHeap::new();
        for (d, c) in [(2.0, 0), (f64::NAN, 1), (0.5, 2), (1.0, 3)] {
            heap.push(Frontier {
                dist: d,
                cell: g.cells().nth(c).unwrap(),
            });
        }
        let order: Vec<f64> = std::iter::from_fn(|| heap.pop().map(|f| f.dist)).collect();
        assert_eq!(&order[..3], &[0.5, 1.0, 2.0], "finite keys pop ascending");
        assert!(order[3].is_nan(), "NaN pops last");
        // The ordering is total: NaN vs finite is consistently Less under
        // the reversed (min-heap) comparison, never Equal.
        let nan = Frontier {
            dist: f64::NAN,
            cell: g.cell(0, 0),
        };
        let one = Frontier {
            dist: 1.0,
            cell: g.cell(0, 1),
        };
        assert_eq!(nan.cmp(&one), Ordering::Less);
        assert_eq!(one.cmp(&nan), Ordering::Greater);
    }

    /// A 5×5 grid walled down column 2, open only at the bottom row.
    fn walled_grid() -> (Grid, Vec<bool>) {
        let g = Grid::new(5, 5);
        let mask = g
            .cells()
            .map(|c| {
                let (r, col) = g.coords(c);
                col != 2 || r == 4
            })
            .collect();
        (g, mask)
    }

    #[test]
    fn masked_distances_detour_around_cells_off_the_mask() {
        // The far side of the wall is reached around its end, never
        // through it.
        let (g, mask) = walled_grid();
        let d = masked_distance_to_nearest(&g, &mask, &[g.cell(0, 0)], f64::INFINITY);
        let sq2 = std::f64::consts::SQRT_2;
        assert_eq!(d[g.cell(0, 1).index()], 1.0);
        assert!(d[g.cell(0, 2).index()].is_infinite(), "off the mask");
        assert!((d[g.cell(4, 2).index()] - (2.0 + 2.0 * sq2)).abs() < 1e-12);
        assert!((d[g.cell(0, 3).index()] - (5.0 + 3.0 * sq2)).abs() < 1e-12);
        // An open mask is the plain transform; a source off the mask
        // reaches nothing, not even itself.
        let open = vec![true; g.len()];
        assert_eq!(
            masked_distance_to_nearest(&g, &open, &[g.cell(2, 2)], f64::INFINITY),
            distance_to_nearest(&g, &[g.cell(2, 2)])
        );
        let off = masked_distance_to_nearest(&g, &mask, &[g.cell(0, 2)], f64::INFINITY);
        assert!(off.iter().all(|x| x.is_infinite()));
    }

    #[test]
    fn limited_distances_keep_the_unbounded_bits_within_the_limit() {
        // Reference: relax every masked edge until nothing changes, which
        // gives each cell the minimum over masked paths of the path's
        // left-to-right sum.
        let (g, mask) = walled_grid();
        let src = g.cell(0, 0);
        let mut relaxed = vec![f64::INFINITY; g.len()];
        relaxed[src.index()] = 0.0;
        let mut changed = true;
        while changed {
            changed = false;
            for c in g.cells().filter(|c| mask[c.index()]) {
                for (n, step) in g.neighbours8(c) {
                    let nd = relaxed[c.index()] + step;
                    if mask[n.index()] && nd < relaxed[n.index()] {
                        relaxed[n.index()] = nd;
                        changed = true;
                    }
                }
            }
        }
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // An infinite limit is the unbounded transform.
        let unbounded = masked_distance_to_nearest(&g, &mask, &[src], f64::INFINITY);
        assert_eq!(bits(&unbounded), bits(&relaxed));
        // A limit of 0 reaches only the source.
        let only_source = masked_distance_to_nearest(&g, &mask, &[src], 0.0);
        for c in g.cells() {
            let want = if c == src { 0.0 } else { f64::INFINITY };
            assert_eq!(only_source[c.index()].to_bits(), want.to_bits());
        }
        // Any other limit keeps the unbounded bits up to and at the limit,
        // even behind the wall, and reads infinity beyond it.
        let far = relaxed[g.cell(0, 3).index()];
        for limit in [1.0, std::f64::consts::SQRT_2, 2.5, far - 1.0, far, 1e9] {
            let limited = masked_distance_to_nearest(&g, &mask, &[src], limit);
            let want: Vec<f64> = relaxed
                .iter()
                .map(|&d| if d <= limit { d } else { f64::INFINITY })
                .collect();
            assert_eq!(bits(&limited), bits(&want), "limit {limit}");
        }
    }

    #[test]
    fn distance_triangle_inequality_via_two_sources() {
        // distance to {a, b} is the min of the individual transforms.
        let g = Grid::new(9, 9);
        let a = g.cell(1, 1);
        let b = g.cell(7, 6);
        let da = distance_to_nearest(&g, &[a]);
        let db = distance_to_nearest(&g, &[b]);
        let dab = distance_to_nearest(&g, &[a, b]);
        for cell in g.cells() {
            let expect = da[cell.index()].min(db[cell.index()]);
            assert!((dab[cell.index()] - expect).abs() < 1e-9);
        }
    }
}
