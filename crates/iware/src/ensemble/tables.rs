//! The learner tables of the iWare-E ensemble: the fused learner stack's
//! block fill, the per-learner (probability, variance) tables, and the
//! combines that turn them into risk maps and response surfaces.

use super::{IWareModel, LearnerStack};
use crate::thresholds::qualified_learners;
use paws_data::matrix::{Matrix, Matrix32, MatrixView};
use paws_data::simd::{self, Element};
use paws_ml::forest::ArenaElement;
use paws_ml::precision::Precision;
use paws_ml::traits::{
    validate_effort_grid, validate_query, Classifier, QueryError, UncertainClassifier,
};
use rayon::prelude::*;

/// Rows are filled and combined in blocks of this many (matches the forest
/// traversal's internal block size, so each block's traverse → reduce
/// stays cache-resident).
const ROW_CHUNK: usize = 256;

/// A qualified learner set whose weight mass is at most this falls back to
/// the unweighted mean of its learners. On the f32 plane the cutoff is the
/// nearest f32; real weight prefixes are either exactly 0.0 (every weight
/// optimised to zero) or far above the cutoff, so both planes agree on
/// which prefixes fall back.
const DEGENERATE_WEIGHT_SUM: f64 = 1e-12;

impl<T: ArenaElement> LearnerStack<T> {
    /// The learner tables of one row block: batch-traverse the arena for
    /// rows `start..start + len`, then fold each learner's member rows into
    /// `(means, spreads)` (`n_learners × len`, learner-major) while the
    /// per-tree block is still cache-resident. Without `with_variance` the
    /// spread pass is skipped and `spreads` is empty.
    fn block_tables(
        &self,
        x: MatrixView<'_, T>,
        start: usize,
        len: usize,
        with_variance: bool,
    ) -> (Vec<T>, Vec<T>) {
        let mut per_tree = vec![T::ZERO; self.forest.n_trees() * len];
        self.forest
            .predict_proba_block(x, start, len, &mut per_tree);
        let nl = self.ranges.len();
        let mut probs = vec![T::ZERO; nl * len];
        let mut vars = vec![T::ZERO; if with_variance { nl * len } else { 0 }];
        for (li, range) in self.ranges.iter().enumerate() {
            reduce_members(
                &per_tree,
                len,
                range.clone(),
                &mut probs[li * len..(li + 1) * len],
                None,
            );
        }
        if with_variance {
            for (li, range) in self.ranges.iter().enumerate() {
                reduce_members(
                    &per_tree,
                    len,
                    range.clone(),
                    &mut vars[li * len..(li + 1) * len],
                    Some(&probs[li * len..(li + 1) * len]),
                );
            }
        }
        (probs, vars)
    }
}

/// The per-learner (probability, variance) tables of one feature batch,
/// stamped with the model and the plane that computed them.
///
/// Each table is learner-major `n_learners × n_rows`, in the element of
/// the model's serving plane. Neither depends on an effort level, so one
/// batch's tables serve every risk map and response surface on it. Build
/// them with [`IWareModel::learner_tables`] and combine them with
/// [`IWareModel::combine_tables_at_effort`] or
/// [`IWareModel::combine_tables_response`], which refuse tables stamped by
/// any other model or filled on the plane the model no longer serves
/// from.
pub struct LearnerTables {
    model_id: u64,
    plane: TablePlane,
}

/// Learner tables on the plane that filled them.
enum TablePlane {
    F64(Tables<f64>),
    F32(Tables<f32>),
}

/// Learner-major `n_learners × n_rows` probability and variance tables on
/// one plane; `vars` is empty when the fill skipped the member spread.
struct Tables<T> {
    n_rows: usize,
    probs: Vec<T>,
    vars: Vec<T>,
}

impl<T: Element> Tables<T> {
    /// Risk and uncertainty for one qualified set: every row combines
    /// learner-major with contiguous axpy rows, widened at emission. The
    /// uncertainty is empty when the tables hold no variances.
    fn at_effort(&self, weights: &[T], qualified: &[usize]) -> (Vec<f64>, Vec<f64>) {
        let n = self.n_rows;
        let combine = |table: &[T]| {
            T::into_f64_vec(combine_rows(
                LearnerTable::new(table, n, 0),
                weights,
                qualified,
                n,
            ))
        };
        let vars = if self.vars.is_empty() {
            Vec::new()
        } else {
            combine(&self.vars)
        };
        (combine(&self.probs), vars)
    }

    /// Response surfaces over every level of a [`IWareModel::level_plan`],
    /// cell-parallel over block windows of the full tables.
    fn response(
        &self,
        weights: &[T],
        qualified_per_level: &[Vec<usize>],
        prefix_lens: Option<&[usize]>,
    ) -> (Matrix, Matrix) {
        let n = self.n_rows;
        blocked_response(
            n,
            qualified_per_level.len(),
            |start, len, p_flat, v_flat| {
                combine_levels_block(
                    weights,
                    prefix_lens,
                    qualified_per_level,
                    LearnerTable::new(&self.probs, n, start),
                    LearnerTable::new(&self.vars, n, start),
                    len,
                    p_flat,
                    v_flat,
                );
            },
        )
    }
}

impl IWareModel {
    /// This model's tables of a batch on its serving plane. The narrowed
    /// stack fills f32 tables, reading each block's rows narrowed from the
    /// f64 batch; otherwise the f64 tables of [`IWareModel::f64_tables`].
    /// Without `with_variance` the variance tables stay empty.
    fn tables(&self, x: MatrixView<'_>, with_variance: bool) -> TablePlane {
        match &self.stack32 {
            Some(stack) => TablePlane::F32(fill_blocks(
                stack.ranges.len(),
                x.n_rows(),
                with_variance,
                |start, len| {
                    let w = x.n_cols();
                    let block = MatrixView::from_flat(&x.as_slice()[start * w..][..len * w], w);
                    stack.block_tables(Matrix32::from_f64(block).view(), 0, len, with_variance)
                },
            )),
            None => TablePlane::F64(self.f64_tables(x, with_variance)),
        }
    }

    /// The f64 tables of a batch: a tree stack fills them block by block
    /// from the fused arena, other learner bases score the batch learner
    /// by learner.
    fn f64_tables(&self, x: MatrixView<'_>, with_variance: bool) -> Tables<f64> {
        let n_rows = x.n_rows();
        if let Some(stack) = &self.stack {
            return fill_blocks(stack.ranges.len(), n_rows, with_variance, |start, len| {
                stack.block_tables(x, start, len, with_variance)
            });
        }
        let per_learner: Vec<(Vec<f64>, Vec<f64>)> = self
            .learners
            .par_iter()
            .map(|l| {
                if with_variance {
                    l.predict_with_variance(x)
                } else {
                    (l.predict_proba(x), Vec::new())
                }
            })
            .collect();
        let len = per_learner.len() * n_rows;
        let mut probs = Vec::with_capacity(len);
        let mut vars = Vec::with_capacity(if with_variance { len } else { 0 });
        for (p, v) in per_learner {
            probs.extend_from_slice(&p);
            vars.extend_from_slice(&v);
        }
        Tables {
            n_rows,
            probs,
            vars,
        }
    }

    /// The per-learner tables of a feature batch (standardised like every
    /// other query), filled on the model's serving plane: a tree stack
    /// traverses its fused arena block by block, other learners score the
    /// batch once each. Combining them with
    /// [`IWareModel::combine_tables_at_effort`] or
    /// [`IWareModel::combine_tables_response`] gives the exact bits of the
    /// direct entry points on the same batch.
    pub fn learner_tables(&self, x: MatrixView<'_>) -> LearnerTables {
        LearnerTables {
            model_id: self.id,
            plane: self.tables(x, true),
        }
    }

    /// Risk and uncertainty at one effort level from this model's learner
    /// tables: bit-identical to [`IWareModel::predict_with_variance_at_effort`]
    /// at that constant effort on the batch the tables were built from.
    /// `None` when the tables carry another model's id or were filled on
    /// the plane this model no longer serves from.
    pub fn combine_tables_at_effort(
        &self,
        tables: &LearnerTables,
        effort: f64,
    ) -> Option<(Vec<f64>, Vec<f64>)> {
        self.owns(tables)
            .then(|| self.combine_at_effort(&tables.plane, effort))
    }

    /// Response surfaces over an effort grid from this model's learner
    /// tables: bit-identical to [`IWareModel::effort_response`] on the
    /// batch the tables were built from. `None` when the tables carry
    /// another model's id or were filled on another plane.
    ///
    /// # Panics
    /// Panics on an empty effort grid, like [`IWareModel::effort_response`].
    pub fn combine_tables_response(
        &self,
        tables: &LearnerTables,
        effort_grid: &[f64],
    ) -> Option<(Matrix, Matrix)> {
        assert!(!effort_grid.is_empty(), "empty effort grid");
        self.owns(tables)
            .then(|| self.combine_response(&tables.plane, effort_grid))
    }

    /// Whether this model, on its current plane, filled `tables`.
    fn owns(&self, tables: &LearnerTables) -> bool {
        let plane = match tables.plane {
            TablePlane::F64(_) => Precision::F64,
            TablePlane::F32(_) => Precision::F32,
        };
        tables.model_id == self.id && plane == self.precision()
    }

    /// The one constant-effort combine: f64 tables with the fitted weights,
    /// f32 tables with the weights narrowed.
    fn combine_at_effort(&self, plane: &TablePlane, effort: f64) -> (Vec<f64>, Vec<f64>) {
        let q = qualified_learners(&self.thresholds, effort);
        match plane {
            TablePlane::F64(t) => t.at_effort(&self.weights, &q),
            TablePlane::F32(t) => t.at_effort(&self.weights32(), &q),
        }
    }

    /// The one effort-grid combine, on the plane of the tables.
    fn combine_response(&self, plane: &TablePlane, effort_grid: &[f64]) -> (Matrix, Matrix) {
        let (qualified_per_level, prefix_lens) = self.level_plan(effort_grid);
        let prefix_lens = prefix_lens.as_deref();
        match plane {
            TablePlane::F64(t) => t.response(&self.weights, &qualified_per_level, prefix_lens),
            TablePlane::F32(t) => t.response(&self.weights32(), &qualified_per_level, prefix_lens),
        }
    }

    /// The classifier weights narrowed to the f32 plane.
    fn weights32(&self) -> Vec<f32> {
        self.weights.iter().map(|&w| w as f32).collect()
    }

    /// Predict the probability of detected poaching for each row, given the
    /// patrol effort that will be (or was) spent in the corresponding cell.
    pub fn predict_proba_at_effort(&self, x: MatrixView<'_>, efforts: &[f64]) -> Vec<f64> {
        self.predict_at_effort(x, efforts, false).0
    }

    /// Predict probability and uncertainty (variance) for each row at the
    /// given patrol efforts.
    pub fn predict_with_variance_at_effort(
        &self,
        x: MatrixView<'_>,
        efforts: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        self.predict_at_effort(x, efforts, true)
    }

    /// Both per-row entry points. A constant effort (the risk-map shape)
    /// means one qualified set for every row: fill the serving plane's
    /// tables and combine them as a prepared park's tables would be.
    /// Varying efforts keep the f64 plane and combine each row's qualified
    /// set. Without `with_variance` the uncertainty is empty.
    fn predict_at_effort(
        &self,
        x: MatrixView<'_>,
        efforts: &[f64],
        with_variance: bool,
    ) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(x.n_rows(), efforts.len(), "rows/efforts length mismatch");
        if x.n_rows() == 0 {
            return (Vec::new(), Vec::new());
        }
        if efforts.windows(2).all(|w| w[0] == w[1]) {
            return self.combine_at_effort(&self.tables(x, with_variance), efforts[0]);
        }
        let n_rows = x.n_rows();
        let tables = self.f64_tables(x, with_variance);
        let p_table = LearnerTable::new(&tables.probs, n_rows, 0);
        let v_table = LearnerTable::new(&tables.vars, n_rows, 0);
        let mut probs = Vec::with_capacity(n_rows);
        let mut vars = Vec::with_capacity(if with_variance { n_rows } else { 0 });
        for (r, &effort) in efforts.iter().enumerate() {
            let q = qualified_learners(&self.thresholds, effort);
            probs.push(combine_table_indexed(&p_table, &self.weights, &q, r));
            if with_variance {
                vars.push(combine_table_indexed(&v_table, &self.weights, &q, r));
            }
        }
        (probs, vars)
    }

    /// Evaluate probability and uncertainty for every row across a grid of
    /// hypothetical patrol efforts. Returns `(probs, vars)` as flat
    /// `n_rows × n_levels` matrices — the g_v(c) and ν_v(c) response
    /// functions the patrol planner consumes (Sec. VI).
    ///
    /// The batch's [`LearnerTables`] are filled on the serving plane, then
    /// [`IWareModel::combine_tables_response`]'s combine runs cell-parallel
    /// in 256-row blocks. Reductions and combines use the lane kernels with
    /// the exact per-element operation order of the reference path, so the
    /// f64 surface is bit-identical to per-row evaluation.
    pub fn effort_response(&self, x: MatrixView<'_>, effort_grid: &[f64]) -> (Matrix, Matrix) {
        assert!(!effort_grid.is_empty(), "empty effort grid");
        self.combine_response(&self.tables(x, true), effort_grid)
    }

    /// [`IWareModel::effort_response`] with the adversarial-input guard:
    /// the query batch and effort grid are validated (width, finiteness,
    /// non-empty) and rejected with a typed [`QueryError`] instead of
    /// tripping an assert deep inside a traversal kernel — or, on non-tree
    /// learner stacks, silently flowing NaN through kernel evaluations.
    /// This is the serving-surface entry point; the panicking
    /// `effort_response` stays for trusted in-process callers.
    pub fn try_effort_response(
        &self,
        x: MatrixView<'_>,
        effort_grid: &[f64],
    ) -> Result<(Matrix, Matrix), QueryError> {
        validate_query(x, self.n_features)?;
        validate_effort_grid(effort_grid)?;
        Ok(self.effort_response(x, effort_grid))
    }

    /// Qualified learner sets per effort level, plus the ascending-prefix
    /// fast-path lengths when they apply (shared by both planes).
    ///
    /// Thresholds are ascending, so each level's qualified set is a prefix
    /// of the learner list; when the requested grid is ascending too, one
    /// incremental pass over the learners serves every level (same
    /// accumulation order as `combine`, hence bit-identical).
    fn level_plan(&self, effort_grid: &[f64]) -> (Vec<Vec<usize>>, Option<Vec<usize>>) {
        let qualified_per_level: Vec<Vec<usize>> = effort_grid
            .iter()
            .map(|&e| qualified_learners(&self.thresholds, e))
            .collect();
        let prefix_lens: Option<Vec<usize>> = {
            let lens: Vec<usize> = qualified_per_level.iter().map(|q| q.len()).collect();
            let is_prefix = qualified_per_level
                .iter()
                .all(|q| q.iter().copied().eq(0..q.len()));
            let ascending = lens.windows(2).all(|w| w[0] <= w[1]);
            if is_prefix && ascending {
                Some(lens)
            } else {
                None
            }
        };
        (qualified_per_level, prefix_lens)
    }
}

/// A borrowed `n_learners × width` prediction table: learner `l`'s block
/// row is `data[l·stride + offset ..][..len]`. Lets the combine kernels
/// run unchanged over whole learner tables (`offset = 0`) or a block
/// window of them (`stride = n_rows`). Generic over the scalar so the f64
/// and f32 planes share the layout logic.
#[derive(Clone, Copy)]
struct LearnerTable<'a, T> {
    data: &'a [T],
    stride: usize,
    offset: usize,
}

impl<'a, T: Copy> LearnerTable<'a, T> {
    fn new(data: &'a [T], stride: usize, offset: usize) -> Self {
        Self {
            data,
            stride,
            offset,
        }
    }

    #[inline]
    fn row(&self, learner: usize, len: usize) -> &'a [T] {
        &self.data[learner * self.stride + self.offset..][..len]
    }

    #[inline]
    fn get(&self, learner: usize, r: usize) -> T {
        self.data[learner * self.stride + self.offset + r]
    }
}

/// Weighted combination of one row's per-learner outputs, indexing straight
/// into a learner table (no per-row scratch vector). Operation order
/// matches [`crate::weights::combine`] exactly, so results are
/// bit-identical.
fn combine_table_indexed<T: Element>(
    table: &LearnerTable<'_, T>,
    weights: &[T],
    qualified: &[usize],
    r: usize,
) -> T {
    let mut wsum = T::ZERO;
    let mut acc = T::ZERO;
    for &i in qualified {
        wsum += weights[i];
        acc += weights[i] * table.get(i, r);
    }
    if wsum <= T::from_f64(DEGENERATE_WEIGHT_SUM) {
        // Degenerate weights: fall back to the unweighted mean of the
        // qualified learners.
        let n = T::from_usize(qualified.len().max(1));
        qualified.iter().map(|&i| table.get(i, r)).sum::<T>() / n
    } else {
        acc / wsum
    }
}

/// Weighted combination of one qualified set across a whole block of rows
/// at once: each qualified learner streams its contiguous prediction row
/// into the accumulator with one lane-kernel axpy. Per element this
/// performs the exact operation sequence of [`combine_table_indexed`] (same
/// learner order, same trailing division), so results are bit-identical to
/// the per-row path.
fn combine_rows<T: Element>(
    per_learner: LearnerTable<'_, T>,
    weights: &[T],
    qualified: &[usize],
    len: usize,
) -> Vec<T> {
    let mut acc = vec![T::ZERO; len];
    let mut wsum = T::ZERO;
    for &i in qualified {
        wsum += weights[i];
        simd::axpy(weights[i], per_learner.row(i, len), &mut acc);
    }
    if wsum <= T::from_f64(DEGENERATE_WEIGHT_SUM) {
        // Degenerate weights: unweighted mean of the qualified learners.
        let n = T::from_usize(qualified.len().max(1));
        let mut sum = vec![T::ZERO; len];
        for &i in qualified {
            simd::add_assign(&mut sum, per_learner.row(i, len));
        }
        simd::div_assign(&mut sum, n);
        sum
    } else {
        simd::div_assign(&mut acc, wsum);
        acc
    }
}

/// Combine one block of per-learner tables over every effort level,
/// writing row-major `len × n_levels` output widened to f64. `prefix_lens`
/// selects the incremental learner-major path (contiguous lane-kernel axpy
/// per new learner, packed emission divides); otherwise each row combines
/// its qualified set indexed. Per element both paths replay the exact
/// operation sequence of [`combine_table_indexed`].
#[allow(clippy::too_many_arguments)]
fn combine_levels_block<T: Element>(
    weights: &[T],
    prefix_lens: Option<&[usize]>,
    qualified_per_level: &[Vec<usize>],
    p_table: LearnerTable<'_, T>,
    v_table: LearnerTable<'_, T>,
    len: usize,
    p_flat: &mut [f64],
    v_flat: &mut [f64],
) {
    let n_levels = qualified_per_level.len();
    let degenerate = T::from_f64(DEGENERATE_WEIGHT_SUM);
    if let Some(lens) = prefix_lens {
        // Degenerate prefixes fall back to the unweighted mean; whether any
        // exist depends only on the weights (same accumulation order as the
        // loop below).
        let needs_unweighted = {
            let mut wsum = T::ZERO;
            let mut taken = 0usize;
            lens.iter().any(|&l| {
                while taken < l {
                    wsum += weights[taken];
                    taken += 1;
                }
                wsum <= degenerate
            })
        };
        let mut acc_p = vec![T::ZERO; len];
        let mut acc_v = vec![T::ZERO; len];
        let mut sum_p = vec![T::ZERO; if needs_unweighted { len } else { 0 }];
        let mut sum_v = vec![T::ZERO; if needs_unweighted { len } else { 0 }];
        // Scratch for the emission divide: one packed division pass per
        // level (the same IEEE divide per element as the scalar
        // `acc / wsum`).
        let mut emit = vec![T::ZERO; len];
        let mut wsum = T::ZERO;
        let mut taken = 0usize;
        for (e, &l) in lens.iter().enumerate() {
            while taken < l {
                let w = weights[taken];
                wsum += w;
                simd::axpy(w, p_table.row(taken, len), &mut acc_p);
                simd::axpy(w, v_table.row(taken, len), &mut acc_v);
                if needs_unweighted {
                    simd::add_assign(&mut sum_p, p_table.row(taken, len));
                    simd::add_assign(&mut sum_v, v_table.row(taken, len));
                }
                taken += 1;
            }
            let (divisor, from_p, from_v) = if wsum <= degenerate {
                (T::from_usize(taken.max(1)), &sum_p, &sum_v)
            } else {
                (wsum, &acc_p, &acc_v)
            };
            emit.copy_from_slice(from_p);
            simd::div_assign(&mut emit, divisor);
            for (r, &val) in emit.iter().enumerate() {
                p_flat[r * n_levels + e] = val.to_f64();
            }
            emit.copy_from_slice(from_v);
            simd::div_assign(&mut emit, divisor);
            for (r, &val) in emit.iter().enumerate() {
                v_flat[r * n_levels + e] = val.to_f64();
            }
        }
    } else {
        for r in 0..len {
            for (e, q) in qualified_per_level.iter().enumerate() {
                p_flat[r * n_levels + e] = combine_table_indexed(&p_table, weights, q, r).to_f64();
                v_flat[r * n_levels + e] = combine_table_indexed(&v_table, weights, q, r).to_f64();
            }
        }
    }
}

/// Learner-major `n_learners × n_rows` tables filled in parallel
/// [`ROW_CHUNK`]-row blocks: `block(start, len)` returns one block's
/// learner-major `(probs, vars)` (`vars` empty without `with_variance`),
/// copied into that block's window of every learner row. Only per-block
/// buffers exist beside the tables.
fn fill_blocks<T: Element>(
    n_learners: usize,
    n_rows: usize,
    with_variance: bool,
    block: impl Fn(usize, usize) -> (Vec<T>, Vec<T>) + Sync,
) -> Tables<T> {
    let mut probs = vec![T::ZERO; n_learners * n_rows];
    let mut vars = vec![
        T::ZERO;
        if with_variance {
            n_learners * n_rows
        } else {
            0
        }
    ];
    let windows: Vec<_> = block_windows(&mut probs, n_rows)
        .into_iter()
        .zip(block_windows(&mut vars, n_rows))
        .enumerate()
        .collect();
    windows.into_par_iter().for_each(|(b, (p_rows, v_rows))| {
        let start = b * ROW_CHUNK;
        let len = ROW_CHUNK.min(n_rows - start);
        let (p, v) = block(start, len);
        for (window, row) in p_rows.into_iter().zip(p.chunks_exact(len)) {
            window.copy_from_slice(row);
        }
        for (window, row) in v_rows.into_iter().zip(v.chunks_exact(len)) {
            window.copy_from_slice(row);
        }
    });
    Tables {
        n_rows,
        probs,
        vars,
    }
}

/// Split a learner-major table of `n_rows`-wide learner rows into per-block
/// windows: entry `b` holds block `b`'s [`ROW_CHUNK`]-wide slice of every
/// learner row (none when the table is empty).
fn block_windows<T>(table: &mut [T], n_rows: usize) -> Vec<Vec<&mut [T]>> {
    let mut blocks: Vec<Vec<&mut [T]>> = (0..n_rows.div_ceil(ROW_CHUNK))
        .map(|_| Vec::new())
        .collect();
    for row in table.chunks_mut(n_rows.max(1)) {
        for (block, window) in blocks.iter_mut().zip(row.chunks_mut(ROW_CHUNK)) {
            block.push(window);
        }
    }
    blocks
}

/// Evaluate a flat `n_rows × n_levels` response surface cell-parallel in
/// [`ROW_CHUNK`]-row blocks: `fill(start, len, p_flat, v_flat)` writes one
/// block's row-major strips, and the strips are stitched back in row order.
fn blocked_response(
    n_rows: usize,
    n_levels: usize,
    fill: impl Fn(usize, usize, &mut [f64], &mut [f64]) + Sync,
) -> (Matrix, Matrix) {
    let starts: Vec<usize> = (0..n_rows).step_by(ROW_CHUNK).collect();
    let parts: Vec<(Vec<f64>, Vec<f64>)> = starts
        .into_par_iter()
        .map(|start| {
            let len = ROW_CHUNK.min(n_rows - start);
            let mut p_flat = vec![0.0; len * n_levels];
            let mut v_flat = vec![0.0; len * n_levels];
            fill(start, len, &mut p_flat, &mut v_flat);
            (p_flat, v_flat)
        })
        .collect();
    let mut p_all = Vec::with_capacity(n_rows * n_levels);
    let mut v_all = Vec::with_capacity(n_rows * n_levels);
    for (p, v) in parts {
        p_all.extend_from_slice(&p);
        v_all.extend_from_slice(&v);
    }
    (
        Matrix::from_flat(p_all, n_levels),
        Matrix::from_flat(v_all, n_levels),
    )
}

/// Accumulate member (tree) rows `range` of a tree-major prediction table
/// (`row t` at `per_tree[t·stride..]`, `out.len()` wide) into `out`: the
/// member mean when `mean` is `None`, otherwise the member spread around
/// the given mean. The element-wise lane kernels keep the accumulation
/// order and trailing division exactly as in [`BaggingClassifier`]'s
/// per-learner reduction, so the fused-arena path is bit-identical to it.
fn reduce_members<T: Element>(
    per_tree: &[T],
    stride: usize,
    range: std::ops::Range<usize>,
    out: &mut [T],
    mean: Option<&[T]>,
) {
    let b = T::from_usize(range.len());
    match mean {
        None => {
            for t in range {
                simd::add_assign(out, &per_tree[t * stride..][..out.len()]);
            }
        }
        Some(mean) => {
            for t in range {
                simd::accumulate_sq_diff(out, &per_tree[t * stride..][..out.len()], mean);
            }
        }
    }
    simd::div_assign(out, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::tests::{noisy_poaching_data, quick_config};
    use crate::ensemble::IWareConfig;
    use paws_ml::bagging::BaggingConfig;

    #[test]
    fn effort_response_matches_pointwise_prediction() {
        // The flat response matrix must agree with predict_proba_at_effort
        // evaluated level by level.
        let (rows, labels, efforts, _) = noisy_poaching_data(250, 11);
        let model = IWareModel::fit(&quick_config(4), rows.view(), &labels, &efforts);
        let grid = [0.5, 2.0];
        let q = rows.view().head(15);
        let (probs, vars) = model.effort_response(q, &grid);
        for (e, &level) in grid.iter().enumerate() {
            let level_efforts = vec![level; 15];
            let (p_ref, v_ref) = model.predict_with_variance_at_effort(q, &level_efforts);
            for r in 0..15 {
                assert_eq!(probs.get(r, e), p_ref[r]);
                assert_eq!(vars.get(r, e), v_ref[r]);
            }
        }
    }

    #[test]
    fn learner_tables_serve_the_direct_bits_to_their_own_model_only() {
        // Kept tables combine to the direct entry points' bits at any level
        // and over sorted or unsorted grids: GP learners, a tree stack on
        // either plane, and an empty batch. A second fit of the same config
        // predicts the same bits but is another model: its combiners refuse
        // the tables. So does the model itself once it serves from the
        // other plane.
        let (rows, labels, efforts, _) = noisy_poaching_data(250, 12);
        let gp = IWareConfig {
            base: BaggingConfig::gps(3, 5),
            ..quick_config(4)
        };
        let cases = [
            (gp, Precision::F64),
            (quick_config(4), Precision::F64),
            (quick_config(4), Precision::F32),
        ];
        for (cfg, precision) in cases {
            for n in [40, 0] {
                let case = format!("{} {precision:?} {n} rows", cfg.base.base.short_name());
                let mut model = IWareModel::fit(&cfg, rows.view(), &labels, &efforts);
                let mut twin = IWareModel::fit(&cfg, rows.view(), &labels, &efforts);
                model.set_precision(precision).unwrap();
                twin.set_precision(precision).unwrap();
                let q = rows.view().head(n);
                let tables = model.learner_tables(q);
                for level in [0.0, 0.7, 2.5, 10.0] {
                    let direct = model.predict_with_variance_at_effort(q, &vec![level; n]);
                    assert_eq!(
                        twin.predict_with_variance_at_effort(q, &vec![level; n]),
                        direct,
                        "{case}"
                    );
                    let combined = model.combine_tables_at_effort(&tables, level);
                    assert_eq!(combined, Some(direct), "{case} @{level}");
                    assert_eq!(twin.combine_tables_at_effort(&tables, level), None);
                }
                for grid in [[0.0, 0.5, 1.0, 2.0], [2.0, 0.0, 1.0, 0.5]] {
                    let (p, v) = model.effort_response(q, &grid);
                    let (pt, vt) = model
                        .combine_tables_response(&tables, &grid)
                        .expect("the model's own tables");
                    assert_eq!(pt.as_slice(), p.as_slice(), "{case} {grid:?}");
                    assert_eq!(vt.as_slice(), v.as_slice(), "{case} {grid:?}");
                    assert!(twin.combine_tables_response(&tables, &grid).is_none());
                }
                let other = match precision {
                    Precision::F64 => Precision::F32,
                    Precision::F32 => Precision::F64,
                };
                model.set_precision(other).unwrap();
                assert_eq!(
                    model.combine_tables_at_effort(&tables, 1.0).is_some(),
                    model.precision() == precision,
                    "{case}: tables serve only the plane that filled them"
                );
            }
        }
    }

    #[test]
    fn f32_plane_tracks_the_f64_surfaces() {
        let (rows, labels, efforts, _) = noisy_poaching_data(400, 17);
        let mut model = IWareModel::fit(&quick_config(5), rows.view(), &labels, &efforts);
        assert_eq!(model.precision(), Precision::F64);
        assert!(model.arena32_stats().is_none());
        let q = rows.view().head(300);
        let grid = vec![0.5, 1.0, 2.0, 3.5];
        let (p64, v64) = model.effort_response(q, &grid);
        let level = vec![1.0; 300];
        let (rp64, rv64) = model.predict_with_variance_at_effort(q, &level);
        let pp64 = model.predict_proba_at_effort(q, &level);

        model.set_precision(Precision::F32).unwrap();
        let (n_trees, n_nodes) = model.arena32_stats().expect("tree stack narrows");
        assert_eq!((n_trees, n_nodes), model.arena_stats().unwrap());
        let (p32, v32) = model.effort_response(q, &grid);
        let (rp32, rv32) = model.predict_with_variance_at_effort(q, &level);
        let pp32 = model.predict_proba_at_effort(q, &level);

        let max_abs = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max)
        };
        assert!(max_abs(p64.as_slice(), p32.as_slice()) <= 1e-5);
        assert!(max_abs(v64.as_slice(), v32.as_slice()) <= 1e-5);
        assert!(max_abs(&rp64, &rp32) <= 1e-5);
        assert!(max_abs(&rv64, &rv32) <= 1e-5);
        assert!(max_abs(&pp64, &pp32) <= 1e-5);

        // Switching back restores the bit-exact f64 plane.
        model.set_precision(Precision::F64).unwrap();
        assert!(model.arena32_stats().is_none());
        let (p_back, _) = model.effort_response(q, &grid);
        assert_eq!(p_back.as_slice(), p64.as_slice());
        // Narrowing again rebuilds the same f32 plane.
        model.set_precision(Precision::F32).unwrap();
        let (p32_again, _) = model.effort_response(q, &grid);
        assert_eq!(p32_again.as_slice(), p32.as_slice());
    }

    #[test]
    fn f32_plane_varying_efforts_fall_back_to_f64() {
        // Per-row varying efforts are not a park-wide hot path; they keep
        // the f64 path bit-exactly even when the f32 plane is selected.
        let (rows, labels, efforts, _) = noisy_poaching_data(250, 18);
        let mut model = IWareModel::fit(&quick_config(4), rows.view(), &labels, &efforts);
        let q = rows.view().head(30);
        let p64 = model.predict_proba_at_effort(q, &efforts[..30]);
        let (vp64, vv64) = model.predict_with_variance_at_effort(q, &efforts[..30]);
        model.set_precision(Precision::F32).unwrap();
        assert_eq!(model.predict_proba_at_effort(q, &efforts[..30]), p64);
        let (vp32, vv32) = model.predict_with_variance_at_effort(q, &efforts[..30]);
        assert_eq!(vp32, vp64);
        assert_eq!(vv32, vv64);
    }

    #[test]
    fn f32_switch_is_a_no_op_for_gp_learner_stacks() {
        // A GPB-iW stack has no f32 plane: the switch keeps it serving f64
        // bits, and `precision` reports the plane that actually serves.
        let (rows, labels, efforts, _) = noisy_poaching_data(200, 19);
        let cfg = IWareConfig {
            base: BaggingConfig::gps(2, 5),
            ..quick_config(3)
        };
        let mut model = IWareModel::fit(&cfg, rows.view(), &labels, &efforts);
        let q = rows.view().head(25);
        let grid = [0.5, 2.0];
        let (p64, v64) = model.effort_response(q, &grid);
        model.set_precision(Precision::F32).unwrap();
        assert_eq!(model.precision(), Precision::F64);
        assert!(model.arena32_stats().is_none());
        let (p, v) = model.effort_response(q, &grid);
        assert_eq!(p.as_slice(), p64.as_slice());
        assert_eq!(v.as_slice(), v64.as_slice());
    }

    #[test]
    fn try_effort_response_rejects_adversarial_queries() {
        let (rows, labels, efforts, _) = noisy_poaching_data(200, 13);
        let model = IWareModel::fit(&quick_config(3), rows.view(), &labels, &efforts);
        let grid = [0.5, 1.5];

        let wide = Matrix::from_rows(&[vec![0.1, 0.2, 0.3]]);
        assert_eq!(
            model.try_effort_response(wide.view(), &grid),
            Err(QueryError::WidthMismatch {
                expected: 2,
                got: 3
            })
        );

        let empty = Matrix::new(2);
        assert_eq!(
            model.try_effort_response(empty.view(), &grid),
            Err(QueryError::EmptyQuery)
        );

        let nan = Matrix::from_rows(&[vec![0.1, 0.2], vec![f64::NAN, 0.4]]);
        assert_eq!(
            model.try_effort_response(nan.view(), &grid),
            Err(QueryError::NonFinite { row: 1, col: 0 })
        );

        let q = rows.view().head(8);
        assert_eq!(
            model.try_effort_response(q, &[]),
            Err(QueryError::EmptyEffortGrid)
        );
        assert_eq!(
            model.try_effort_response(q, &[0.5, -1.0]),
            Err(QueryError::BadEffort { index: 1 })
        );
        assert_eq!(
            model.try_effort_response(q, &[0.5, f64::INFINITY]),
            Err(QueryError::BadEffort { index: 1 })
        );

        // Valid input passes through to the panicking path unchanged.
        let (p_ok, _) = model.try_effort_response(q, &grid).expect("valid query");
        let (p_ref, _) = model.effort_response(q, &grid);
        assert_eq!(p_ok.as_slice(), p_ref.as_slice());
    }
}
