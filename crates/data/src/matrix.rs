//! Contiguous row-major feature matrices, on both precision planes.
//!
//! The predictive stack (weak learners, bagging, iWare-E, park-wide
//! response evaluation) previously passed features as `Vec<Vec<f64>>`:
//! every row a separate heap allocation, every bootstrap or effort-filtered
//! subset a fresh set of row clones. [`Matrix`] stores all rows in one flat
//! `Vec<f64>` so batch kernels stream cache-line-contiguous data, and
//! subsets are taken with [`Matrix::gather`] — one allocation and a
//! row-by-row memcpy instead of per-row clones.
//!
//! [`MatrixView`] is the borrowed counterpart (a `&[T]` plus the column
//! count); it is `Copy`, so passing feature batches through `fit`/`predict`
//! signatures never clones data.
//!
//! Both types are generic over the plane's [`Element`] and default to
//! `f64`, the training plane. The f32 prediction plane's batches,
//! [`Matrix32`] / [`MatrixView32`], only ever exist as **narrowed copies**
//! of f64 batches ([`Matrix32::from_f64`], round-to-nearest per element)
//! made at prediction time: halving the element width halves the
//! feature-row bandwidth of park-wide tree traversal, and pairs with
//! `paws_ml`'s 8-byte f32 arena nodes.

use crate::simd::{self, Element};

/// Owned, contiguous, row-major matrix of features (`f64` by default).
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T = f64> {
    data: Vec<T>,
    n_cols: usize,
}

/// The f32 prediction plane's owned feature batch.
pub type Matrix32 = Matrix<f32>;

/// The f32 prediction plane's borrowed feature batch.
pub type MatrixView32<'a> = MatrixView<'a, f32>;

impl<T: Element> Matrix<T> {
    /// Empty matrix with the given column count.
    pub fn new(n_cols: usize) -> Self {
        assert!(n_cols > 0, "matrix needs at least one column");
        Self {
            data: Vec::new(),
            n_cols,
        }
    }

    /// Empty matrix with capacity reserved for `n_rows` rows.
    pub fn with_capacity(n_rows: usize, n_cols: usize) -> Self {
        assert!(n_cols > 0, "matrix needs at least one column");
        Self {
            data: Vec::with_capacity(n_rows * n_cols),
            n_cols,
        }
    }

    /// Zero-filled `n_rows × n_cols` matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        assert!(n_cols > 0, "matrix needs at least one column");
        Self {
            data: vec![T::ZERO; n_rows * n_cols],
            n_cols,
        }
    }

    /// Take ownership of a flat row-major buffer.
    ///
    /// # Panics
    /// Panics when the buffer length is not a multiple of `n_cols`.
    pub fn from_flat(data: Vec<T>, n_cols: usize) -> Self {
        assert!(n_cols > 0, "matrix needs at least one column");
        assert!(
            data.len().is_multiple_of(n_cols),
            "flat buffer length {} is not a multiple of the column count {}",
            data.len(),
            n_cols
        );
        Self { data, n_cols }
    }

    /// Copy nested rows into a flat matrix.
    ///
    /// # Panics
    /// Panics on empty input or ragged feature rows.
    pub fn from_rows(rows: &[Vec<T>]) -> Self {
        assert!(!rows.is_empty(), "cannot build a matrix from zero rows");
        let n_cols = rows[0].len();
        assert!(n_cols > 0, "matrix needs at least one column");
        assert!(
            rows.iter().all(|r| r.len() == n_cols),
            "ragged feature rows"
        );
        let mut data = Vec::with_capacity(rows.len() * n_cols);
        for row in rows {
            data.extend_from_slice(row);
        }
        Self { data, n_cols }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.data.len() / self.n_cols
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// True when the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Element at (`row`, `col`).
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> T {
        self.data[row * self.n_cols + col]
    }

    /// Iterator over row slices.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[T]> {
        self.data.chunks_exact(self.n_cols)
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics when the row width does not match the column count.
    pub fn push_row(&mut self, row: &[T]) {
        assert_eq!(row.len(), self.n_cols, "row width mismatch");
        self.data.extend_from_slice(row);
    }

    /// Append every row of a borrowed batch — the streaming-append
    /// primitive. One `extend_from_slice` on the flat buffer, so a matrix
    /// grown batch-by-batch is byte-identical to one built in a single
    /// pass over the concatenated rows.
    ///
    /// # Panics
    /// Panics when the batch width does not match the column count.
    pub fn extend_rows(&mut self, rows: MatrixView<'_, T>) {
        assert_eq!(rows.n_cols(), self.n_cols, "row width mismatch");
        self.data.extend_from_slice(rows.as_slice());
    }

    /// New matrix holding rows `idx` (in order, repeats allowed) — the
    /// index-based replacement for cloning row subsets.
    pub fn gather(&self, idx: &[usize]) -> Matrix<T> {
        self.view().gather(idx)
    }

    /// Borrowed view of the whole matrix.
    #[inline]
    pub fn view(&self) -> MatrixView<'_, T> {
        MatrixView {
            data: &self.data,
            n_cols: self.n_cols,
        }
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume into the flat row-major buffer.
    pub fn into_flat(self) -> Vec<T> {
        self.data
    }

    /// Copy into nested rows (boundary adapter for row-oriented consumers).
    pub fn to_rows(&self) -> Vec<Vec<T>> {
        self.rows().map(|r| r.to_vec()).collect()
    }
}

impl Matrix32 {
    /// Narrow an f64 batch into the f32 prediction plane (round-to-nearest
    /// per element, saturating like [`simd::narrow`]; one pass, one
    /// allocation).
    pub fn from_f64(x: MatrixView<'_>) -> Self {
        let mut data = vec![0.0f32; x.as_slice().len()];
        simd::narrow(x.as_slice(), &mut data);
        Self {
            data,
            n_cols: x.n_cols(),
        }
    }
}

/// Borrowed row-major matrix view: the argument type of every `fit` /
/// `predict` in the predictive stack.
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a, T = f64> {
    data: &'a [T],
    n_cols: usize,
}

impl<'a, T: Element> MatrixView<'a, T> {
    /// View over a flat row-major buffer.
    ///
    /// # Panics
    /// Panics when the buffer length is not a multiple of `n_cols`.
    pub fn from_flat(data: &'a [T], n_cols: usize) -> Self {
        assert!(n_cols > 0, "matrix needs at least one column");
        assert!(
            data.len().is_multiple_of(n_cols),
            "flat buffer length {} is not a multiple of the column count {}",
            data.len(),
            n_cols
        );
        Self { data, n_cols }
    }

    /// View of a single row (no copy).
    pub fn single_row(row: &'a [T]) -> Self {
        assert!(!row.is_empty(), "matrix needs at least one column");
        Self {
            data: row,
            n_cols: row.len(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.data.len() / self.n_cols
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// True when the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [T] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Element at (`row`, `col`).
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> T {
        self.data[row * self.n_cols + col]
    }

    /// Iterator over row slices.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &'a [T]> {
        self.data.chunks_exact(self.n_cols)
    }

    /// First `n` rows as a sub-view (no copy).
    pub fn head(&self, n: usize) -> MatrixView<'a, T> {
        MatrixView {
            data: &self.data[..n * self.n_cols],
            n_cols: self.n_cols,
        }
    }

    /// Owned matrix holding rows `idx` (in order, repeats allowed).
    pub fn gather(&self, idx: &[usize]) -> Matrix<T> {
        let mut data = Vec::with_capacity(idx.len() * self.n_cols);
        for &i in idx {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            data,
            n_cols: self.n_cols,
        }
    }

    /// Copy into an owned [`Matrix`].
    pub fn to_matrix(&self) -> Matrix<T> {
        Matrix {
            data: self.data.to_vec(),
            n_cols: self.n_cols,
        }
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &'a [T] {
        self.data
    }
}

impl<'a, T: Element> From<&'a Matrix<T>> for MatrixView<'a, T> {
    fn from(m: &'a Matrix<T>) -> Self {
        m.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]])
    }

    #[test]
    fn shape_and_row_access() {
        let m = sample();
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(2, 1), 6.0);
        assert_eq!(m.rows().count(), 3);
    }

    #[test]
    fn gather_matches_cloned_rows() {
        let m = sample();
        let idx = [2usize, 0, 2];
        let g = m.gather(&idx);
        assert_eq!(g.n_rows(), 3);
        assert_eq!(g.row(0), m.row(2));
        assert_eq!(g.row(1), m.row(0));
        assert_eq!(g.row(2), m.row(2));
    }

    #[test]
    fn push_row_appends() {
        let mut m = Matrix::new(2);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn view_head_and_single_row() {
        let m = sample();
        let v = m.view().head(2);
        assert_eq!(v.n_rows(), 2);
        assert_eq!(v.row(1), &[3.0, 4.0]);
        let one = MatrixView::single_row(&[7.0, 8.0]);
        assert_eq!(one.n_rows(), 1);
        assert_eq!(one.n_cols(), 2);
    }

    #[test]
    fn round_trips_with_nested_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let m = Matrix::from_rows(&rows);
        assert_eq!(m.to_rows(), rows);
        let back = Matrix::from_flat(m.as_slice().to_vec(), 2);
        assert_eq!(back, m);
    }

    #[test]
    fn narrowing_rounds_each_element_to_nearest() {
        let m = Matrix::from_rows(&[vec![1.0, 0.1], vec![-2.5, 1e-9]]);
        let m32 = Matrix32::from_f64(m.view());
        assert_eq!((m32.n_rows(), m32.n_cols()), (2, 2));
        for (r32, r64) in m32.rows().zip(m.rows()) {
            for (v32, v64) in r32.iter().zip(r64) {
                assert_eq!(*v32, *v64 as f32);
            }
        }
        // 0.1 is inexact in both widths but the narrowing is the nearest f32.
        assert_eq!(m32.get(0, 1), 0.1f32);
    }

    fn shape_row_and_view_access<T: Element>() {
        let mut m = Matrix::<T>::zeros(3, 2);
        let row = [T::from_f64(3.0), T::from_f64(4.0)];
        m.row_mut(1).copy_from_slice(&row);
        assert_eq!(m.row(1), &row);
        assert_eq!(m.get(1, 1), row[1]);
        let v = m.view().head(2);
        assert_eq!(v.n_rows(), 2);
        assert_eq!(v.row(1), &row);
        assert_eq!(v.rows().count(), 2);
        assert_eq!(m.gather(&[1, 1]).row(0), &row);
    }

    #[test]
    fn both_planes_share_the_row_access_of_one_layout() {
        shape_row_and_view_access::<f64>();
        shape_row_and_view_access::<f32>();
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_row_rejects_wrong_width() {
        let mut m = Matrix::new(2);
        m.push_row(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "multiple of the column count")]
    fn from_flat_rejects_partial_rows() {
        let _ = Matrix::from_flat(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    #[should_panic(expected = "multiple of the column count")]
    fn from_flat_rejects_partial_rows_on_the_f32_plane() {
        let _ = Matrix32::from_flat(vec![1.0, 2.0, 3.0], 2);
    }
}
