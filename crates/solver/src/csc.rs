//! Column-major compressed sparse column (CSC) storage for the revised
//! simplex.
//!
//! The planning LPs are overwhelmingly sparse — a λ column touches exactly
//! its cell's convexity row and the budget row — so the sparse engine never
//! materialises a tableau. [`CscMatrix::from_model`] transposes a
//! [`Model`]'s row-major constraint list into per-variable columns once;
//! pricing, FTRAN loads and basis refactorisation all read columns through
//! [`CscMatrix::col`].

use crate::model::Model;

/// A read-only m×n sparse matrix in compressed-sparse-column layout.
///
/// Row indices within one column are strictly increasing and duplicate
/// `(row, value)` entries from the source model are summed, matching the
/// dense tableau's `+=` accumulation semantics.
#[derive(Debug, Clone)]
pub struct CscMatrix {
    m: usize,
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.m
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The non-zeros of column `j` as `(row, value)` pairs, rows ascending.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&r, &v)| (r, v))
    }

    /// Dot product of column `j` with a dense row-indexed vector.
    pub fn col_dot(&self, j: usize, dense: &[f64]) -> f64 {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        let mut acc = 0.0;
        for k in lo..hi {
            acc += self.values[k] * dense[self.row_idx[k]];
        }
        acc
    }

    /// Build the structural-column matrix of a model: one column per
    /// decision variable, one row per constraint. Logical (slack) and
    /// artificial columns are identity columns the simplex synthesises on
    /// the fly, so they are deliberately not stored.
    pub fn from_model(model: &Model) -> Self {
        let m = model.n_constraints();
        let n = model.n_vars();
        // Count entries per column (duplicates counted, merged below).
        let mut counts = vec![0usize; n];
        for c in &model.constraints {
            for &(var, _) in &c.terms {
                counts[var] += 1;
            }
        }
        let mut col_ptr = vec![0usize; n + 1];
        for j in 0..n {
            col_ptr[j + 1] = col_ptr[j] + counts[j];
        }
        let nnz_upper = col_ptr[n];
        let mut row_idx = vec![0usize; nnz_upper];
        let mut values = vec![0.0f64; nnz_upper];
        let mut cursor = col_ptr.clone();
        // Constraints are visited in row order, so each column's rows land
        // already sorted ascending.
        for (r, c) in model.constraints.iter().enumerate() {
            for &(var, coeff) in &c.terms {
                let k = cursor[var];
                row_idx[k] = r;
                values[k] = coeff;
                cursor[var] += 1;
            }
        }
        // Merge duplicate rows within each column (the dense path sums them).
        let mut out_ptr = vec![0usize; n + 1];
        let mut w = 0usize;
        for j in 0..n {
            let lo = col_ptr[j];
            let hi = col_ptr[j + 1];
            out_ptr[j] = w;
            let mut k = lo;
            while k < hi {
                let row = row_idx[k];
                let mut val = values[k];
                let mut k2 = k + 1;
                while k2 < hi && row_idx[k2] == row {
                    val += values[k2];
                    k2 += 1;
                }
                row_idx[w] = row;
                values[w] = val;
                w += 1;
                k = k2;
            }
        }
        out_ptr[n] = w;
        row_idx.truncate(w);
        values.truncate(w);
        Self {
            m,
            n,
            col_ptr: out_ptr,
            row_idx,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense, Variable};

    #[test]
    fn transposes_rows_into_sorted_columns() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_continuous(0.0, 1.0, 1.0).unwrap();
        let y = m.try_add_continuous(0.0, 1.0, 1.0).unwrap();
        m.try_add_constraint(&[(x, 2.0), (y, 3.0)], ConstraintOp::Le, 4.0)
            .unwrap();
        m.try_add_constraint(&[(y, -1.0)], ConstraintOp::Ge, -2.0)
            .unwrap();
        m.try_add_constraint(&[(x, 5.0)], ConstraintOp::Eq, 1.0)
            .unwrap();
        let csc = CscMatrix::from_model(&m);
        assert_eq!((csc.n_rows(), csc.n_cols(), csc.nnz()), (3, 2, 4));
        assert_eq!(csc.col(0).collect::<Vec<_>>(), vec![(0, 2.0), (2, 5.0)]);
        assert_eq!(csc.col(1).collect::<Vec<_>>(), vec![(0, 3.0), (1, -1.0)]);
    }

    #[test]
    fn duplicate_terms_are_summed_like_the_dense_tableau() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.try_add_continuous(0.0, 1.0, 1.0).unwrap();
        m.try_add_constraint(&[(x, 2.0), (Variable(0), 3.0)], ConstraintOp::Le, 4.0)
            .unwrap();
        let csc = CscMatrix::from_model(&m);
        assert_eq!(csc.col(0).collect::<Vec<_>>(), vec![(0, 5.0)]);
        assert_eq!(csc.nnz(), 1);
    }

    #[test]
    fn col_dot_matches_manual_product() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.try_add_continuous(0.0, 1.0, 1.0).unwrap();
        m.try_add_constraint(&[(x, 2.0)], ConstraintOp::Le, 1.0)
            .unwrap();
        m.try_add_constraint(&[(x, -3.0)], ConstraintOp::Ge, -5.0)
            .unwrap();
        let csc = CscMatrix::from_model(&m);
        assert_eq!(csc.col_dot(0, &[10.0, 100.0]), 2.0 * 10.0 - 3.0 * 100.0);
    }
}
