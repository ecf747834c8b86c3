//! Sparse LU factorisation of a simplex basis with Markowitz pivot
//! selection, plus the product-form eta file that amortises basis changes
//! between refactorisations.
//!
//! The factorisation is right-looking Gaussian elimination over a working
//! copy of the basis columns. Pivots are chosen by the classic Markowitz
//! rule — minimise `(row_count−1)·(col_count−1)` among numerically
//! acceptable candidates (`|a| ≥ 0.1·colmax`) — with singleton columns
//! taken immediately as a fast path, which is the common case for planning
//! bases (slack and λ columns are one- and two-nonzero columns).
//!
//! A factorisation records, per elimination step `k`:
//! * the pivot position `(row p_k, basis column j_k)` and pivot value,
//! * the L multipliers that eliminated column `j_k` below the pivot,
//! * the U row: the pivot row's surviving entries in still-active columns.
//!
//! `FTRAN` (solve `Bx = b`) applies the L ops forward then back-substitutes
//! the U rows in reverse elimination order; `BTRAN` (solve `Bᵀy = c`)
//! forward-substitutes `Uᵀ` by scatter in elimination order then applies
//! the transposed L ops in reverse. Basis changes append `Eta` updates
//! (the spike `w = B⁻¹a_q` at the leaving position); both solves thread the
//! eta file in the appropriate order.

/// Entries with magnitude at or below this are dropped during elimination.
const DROP_TOL: f64 = 1e-12;
/// A pivot candidate must be at least this large in absolute value.
const ABS_PIVOT_MIN: f64 = 1e-10;
/// Relative (threshold-pivoting) bound: a candidate must be within this
/// factor of the largest entry in its column.
const REL_PIVOT: f64 = 0.1;
/// Markowitz search examines at most this many numerically valid candidate
/// columns before settling for the best seen.
const CANDIDATE_LIMIT: usize = 4;
/// Column-count buckets above this size are lumped together.
const MAX_BUCKET: usize = 48;

/// One product-form basis update: the spike `w = B⁻¹ a_entering` pivoted at
/// basis position `p`.
#[derive(Debug, Clone)]
pub(crate) struct Eta {
    /// Basis position replaced by the entering column.
    pub p: usize,
    /// Off-pivot non-zeros of the spike, `(position, w_r)` with `r ≠ p`.
    pub entries: Vec<(usize, f64)>,
    /// The pivot element `w_p`.
    pub pivot: f64,
}

/// LU factors of an m×m basis, in elimination order.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuFactors {
    m: usize,
    /// Pivot row of step k.
    pivot_rows: Vec<usize>,
    /// Pivot (basis-position) column of step k.
    pivot_cols: Vec<usize>,
    /// Pivot value of step k.
    pivot_vals: Vec<f64>,
    /// L multipliers, flattened per step: `l_ptr[k]..l_ptr[k+1]`.
    l_ptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    /// U-row entries (excluding the pivot), flattened per step.
    u_ptr: Vec<usize>,
    u_cols: Vec<usize>,
    u_vals: Vec<f64>,
}

impl LuFactors {
    /// Factorise the m×m basis given by `cols` (one sparse column per basis
    /// position, `(row, value)` pairs). Returns `None` when the basis is
    /// structurally or numerically singular.
    pub fn factorise(m: usize, cols: &[Vec<(usize, f64)>]) -> Option<Self> {
        if cols.len() != m {
            return None;
        }
        let mut acols: Vec<Vec<(usize, f64)>> = cols.to_vec();
        let mut col_active = vec![true; m];
        let mut row_active = vec![true; m];
        let mut col_count = vec![0usize; m];
        let mut row_count = vec![0usize; m];
        // Candidate columns per row (lazily maintained superset).
        let mut arow_cols: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (j, col) in acols.iter().enumerate() {
            col_count[j] = col.len();
            for &(r, _) in col {
                if r >= m {
                    return None;
                }
                row_count[r] += 1;
                arow_cols[r].push(j);
            }
        }
        // Columns bucketed by non-zero count (lazy deletion).
        let bucket_of = |count: usize| count.min(MAX_BUCKET);
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); MAX_BUCKET + 1];
        for j in 0..m {
            buckets[bucket_of(col_count[j])].push(j);
        }

        let mut factors = LuFactors {
            m,
            l_ptr: vec![0],
            u_ptr: vec![0],
            ..LuFactors::default()
        };
        let mut work = vec![0.0f64; m];
        // Column-visited stamps for deduping arow_cols sweeps.
        let mut stamp = vec![0u32; m];
        let mut epoch = 0u32;
        let mut requeue: Vec<usize> = Vec::new();

        for _step in 0..m {
            // ---- Markowitz pivot search -------------------------------
            let mut best: Option<(usize, usize, f64, usize)> = None; // (p, j, val, cost)
            let mut examined = 0usize;
            requeue.clear();
            'search: for (b, bucket) in buckets.iter_mut().enumerate().skip(1) {
                while let Some(j) = bucket.pop() {
                    if !col_active[j] || bucket_of(col_count[j]) != b || col_count[j] == 0 {
                        // Stale entry: a live column re-queued itself when
                        // its count changed, so dropping this copy is safe.
                        continue;
                    }
                    requeue.push(j);
                    let colmax = acols[j]
                        .iter()
                        .fold(0.0f64, |acc, &(_, v)| acc.max(v.abs()));
                    if colmax <= ABS_PIVOT_MIN {
                        continue;
                    }
                    let mut local: Option<(usize, f64, usize)> = None;
                    for &(r, v) in &acols[j] {
                        if v.abs() < REL_PIVOT * colmax || v.abs() <= ABS_PIVOT_MIN {
                            continue;
                        }
                        let cost = (row_count[r] - 1) * (col_count[j] - 1);
                        let better = match local {
                            None => true,
                            Some((_, lv, lc)) => cost < lc || (cost == lc && v.abs() > lv.abs()),
                        };
                        if better {
                            local = Some((r, v, cost));
                        }
                    }
                    if let Some((r, v, cost)) = local {
                        let better = match best {
                            None => true,
                            Some((_, _, bv, bc)) => cost < bc || (cost == bc && v.abs() > bv.abs()),
                        };
                        if better {
                            best = Some((r, j, v, cost));
                        }
                        examined += 1;
                        if cost == 0 || examined >= CANDIDATE_LIMIT {
                            break 'search;
                        }
                    }
                }
            }
            for &j in &requeue {
                if col_active[j] {
                    buckets[bucket_of(col_count[j])].push(j);
                }
            }
            let Some((p, j, piv, _)) = best else {
                return None; // no acceptable pivot anywhere: singular
            };

            // ---- Elimination of column j at pivot row p ---------------
            factors.pivot_rows.push(p);
            factors.pivot_cols.push(j);
            factors.pivot_vals.push(piv);
            let l_start = factors.l_rows.len();
            for &(r, v) in &acols[j] {
                if r != p {
                    factors.l_rows.push(r);
                    factors.l_vals.push(v / piv);
                    row_count[r] -= 1;
                }
            }
            factors.l_ptr.push(factors.l_rows.len());
            col_active[j] = false;
            row_active[p] = false;
            acols[j].clear();
            col_count[j] = 0;

            // Sweep the pivot row's candidate columns, building the U row
            // and applying the rank-1 update to each touched column.
            epoch = epoch.wrapping_add(1);
            let row_candidates = std::mem::take(&mut arow_cols[p]);
            for c in row_candidates {
                if !col_active[c] || stamp[c] == epoch {
                    continue;
                }
                stamp[c] = epoch;
                let Some(at_p) = acols[c].iter().position(|&(r, _)| r == p) else {
                    continue;
                };
                let w = acols[c][at_p].1;
                factors.u_cols.push(c);
                factors.u_vals.push(w);
                // Scatter column c (minus the pivot-row entry), apply the
                // elimination, gather back, and fix up the row structures.
                let old = std::mem::take(&mut acols[c]);
                for &(r, v) in &old {
                    if r != p {
                        work[r] = v;
                    }
                }
                for k in l_start..factors.l_ptr[factors.l_ptr.len() - 1] {
                    let r = factors.l_rows[k];
                    work[r] -= factors.l_vals[k] * w;
                }
                let mut rebuilt = Vec::with_capacity(old.len() + 2);
                // Old rows first (preserves counts for vanished entries).
                for &(r, _) in &old {
                    if r == p {
                        continue;
                    }
                    let v = work[r];
                    work[r] = 0.0;
                    if v.abs() > DROP_TOL {
                        rebuilt.push((r, v));
                    } else {
                        row_count[r] -= 1;
                    }
                }
                // Fill-in: L rows not present in the old column.
                for k in l_start..factors.l_ptr[factors.l_ptr.len() - 1] {
                    let r = factors.l_rows[k];
                    let v = work[r];
                    if v != 0.0 {
                        work[r] = 0.0;
                        if v.abs() > DROP_TOL {
                            rebuilt.push((r, v));
                            row_count[r] += 1;
                            arow_cols[r].push(c);
                        }
                    }
                }
                col_count[c] = rebuilt.len();
                acols[c] = rebuilt;
                buckets[bucket_of(col_count[c])].push(c);
            }
            factors.u_ptr.push(factors.u_cols.len());
        }
        Some(factors)
    }

    /// Solve `B x = b`. `work` holds `b` indexed by row on entry and is
    /// consumed as scratch; the solution lands in `out`, indexed by basis
    /// position (every entry of `out` is overwritten). The two buffers are
    /// separate because pivot rows and pivot columns are *different*
    /// permutations of `0..m` — an in-place solve would alias unread
    /// right-hand-side entries with already-written solution entries.
    pub fn ftran(&self, work: &mut [f64], out: &mut [f64]) {
        let m = self.m;
        // Forward: apply L ops in elimination order.
        for k in 0..m {
            let wp = work[self.pivot_rows[k]];
            if wp != 0.0 {
                for t in self.l_ptr[k]..self.l_ptr[k + 1] {
                    work[self.l_rows[t]] -= self.l_vals[t] * wp;
                }
            }
        }
        // Backward: U back-substitution; x lands at the pivot columns.
        for k in (0..m).rev() {
            let mut acc = work[self.pivot_rows[k]];
            for t in self.u_ptr[k]..self.u_ptr[k + 1] {
                acc -= self.u_vals[t] * out[self.u_cols[t]];
            }
            out[self.pivot_cols[k]] = acc / self.pivot_vals[k];
        }
    }

    /// Solve `Bᵀ y = c`. `work` holds `c` indexed by basis position on
    /// entry and is consumed as scratch; the solution lands in `out`,
    /// indexed by row (every entry of `out` is overwritten).
    pub fn btran(&self, work: &mut [f64], out: &mut [f64]) {
        let m = self.m;
        // Forward: solve Uᵀ z = c by scatter in elimination order. Residual
        // updates only ever touch columns still active at that step, so the
        // pivot column read at step k is final when read.
        for k in 0..m {
            let t = work[self.pivot_cols[k]] / self.pivot_vals[k];
            for u in self.u_ptr[k]..self.u_ptr[k + 1] {
                work[self.u_cols[u]] -= t * self.u_vals[u];
            }
            out[self.pivot_rows[k]] = t;
        }
        // Backward: apply transposed L ops in reverse order.
        for k in (0..m).rev() {
            let mut acc = out[self.pivot_rows[k]];
            for t in self.l_ptr[k]..self.l_ptr[k + 1] {
                acc -= self.l_vals[t] * out[self.l_rows[t]];
            }
            out[self.pivot_rows[k]] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_from_cols(m: usize, cols: &[Vec<(usize, f64)>]) -> Vec<Vec<f64>> {
        let mut a = vec![vec![0.0; m]; m];
        for (j, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                a[r][j] += v;
            }
        }
        a
    }

    fn matvec(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(c, v)| c * v).sum())
            .collect()
    }

    fn matvec_t(a: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
        let m = a.len();
        (0..m)
            .map(|j| (0..m).map(|i| a[i][j] * y[i]).sum())
            .collect()
    }

    #[test]
    fn ftran_btran_solve_identity() {
        let cols: Vec<Vec<(usize, f64)>> = (0..4).map(|i| vec![(i, 1.0)]).collect();
        let f = LuFactors::factorise(4, &cols).unwrap();
        let mut w = vec![1.0, 2.0, 3.0, 4.0];
        let mut out = vec![0.0; 4];
        f.ftran(&mut w, &mut out);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0]);
        let mut w = vec![4.0, 3.0, 2.0, 1.0];
        f.btran(&mut w, &mut out);
        assert_eq!(out, vec![4.0, 3.0, 2.0, 1.0]);
    }

    #[test]
    fn solves_against_dense_reference() {
        // A mix of slack-like and structural-like columns with a permuted
        // structure, exercising both elimination and fill-in.
        let cols: Vec<Vec<(usize, f64)>> = vec![
            vec![(0, 2.0), (2, 1.0)],
            vec![(1, 1.0)],
            vec![(0, 1.0), (2, 3.0), (3, 0.5)],
            vec![(1, -2.0), (3, 4.0)],
        ];
        let m = 4;
        let f = LuFactors::factorise(m, &cols).expect("nonsingular");
        let a = dense_from_cols(m, &cols);
        let x_true = vec![1.5, -2.0, 0.25, 3.0];
        let b = matvec(&a, &x_true);
        let mut w = b.clone();
        let mut out = vec![0.0; m];
        f.ftran(&mut w, &mut out);
        for i in 0..m {
            assert!((out[i] - x_true[i]).abs() < 1e-10, "x[{i}] = {}", out[i]);
        }
        let y_true = vec![0.5, 1.0, -1.0, 2.0];
        let c = matvec_t(&a, &y_true);
        let mut w = c.clone();
        f.btran(&mut w, &mut out);
        for i in 0..m {
            assert!((out[i] - y_true[i]).abs() < 1e-10, "y[{i}] = {}", out[i]);
        }
    }

    #[test]
    fn random_sparse_basis_roundtrips() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for trial in 0..25 {
            let m = rng.gen_range(2..30);
            // Diagonally dominant => nonsingular.
            let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
            for j in 0..m {
                let mut col = vec![(j, rng.gen_range(2.0..4.0))];
                for r in 0..m {
                    if r != j && rng.gen::<f64>() < 0.15 {
                        col.push((r, rng.gen_range(-0.5..0.5)));
                    }
                }
                cols.push(col);
            }
            let f = LuFactors::factorise(m, &cols).expect("diag-dominant basis");
            let a = dense_from_cols(m, &cols);
            let x_true: Vec<f64> = (0..m).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let mut w = matvec(&a, &x_true);
            let mut out = vec![0.0; m];
            f.ftran(&mut w, &mut out);
            for i in 0..m {
                assert!(
                    (out[i] - x_true[i]).abs() < 1e-8,
                    "trial {trial} ftran x[{i}]"
                );
            }
            let y_true: Vec<f64> = (0..m).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let mut w = matvec_t(&a, &y_true);
            f.btran(&mut w, &mut out);
            for i in 0..m {
                assert!(
                    (out[i] - y_true[i]).abs() < 1e-8,
                    "trial {trial} btran y[{i}]"
                );
            }
        }
    }

    #[test]
    fn singular_basis_is_rejected() {
        // Two identical columns.
        let cols: Vec<Vec<(usize, f64)>> = vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]];
        assert!(LuFactors::factorise(2, &cols).is_none());
        // A structurally empty column.
        let cols: Vec<Vec<(usize, f64)>> = vec![vec![(0, 1.0)], vec![]];
        assert!(LuFactors::factorise(2, &cols).is_none());
    }
}
