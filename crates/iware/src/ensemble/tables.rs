//! The learner tables of the iWare-E ensemble: the fused learner stack's
//! block fill, the per-learner (probability, variance) tables, and the one
//! combine that turns them into risk maps and response surfaces.

use super::{IWareModel, LearnerStack};
use crate::thresholds::qualified_count;
use crate::weights::{combine, DEGENERATE_WSUM};
use paws_data::matrix::{Matrix, Matrix32, MatrixView};
use paws_data::simd::{self, Element};
use paws_ml::bagging::{pooled_gp_tables, BaggingClassifier};
use paws_ml::forest::ArenaElement;
use paws_ml::gp::RowPool;
use paws_ml::precision::Precision;
use paws_ml::traits::{
    validate_effort_grid, validate_query, Classifier, QueryError, UncertainClassifier,
};
use rayon::prelude::*;

/// Rows are filled in blocks of this many (matches the forest traversal's
/// internal block size, so each block's traverse → reduce stays
/// cache-resident).
const ROW_CHUNK: usize = 256;

/// Rows are combined in strips of this many. A strip is enough work to pay
/// for its scratch buffers and its pool task, and its accumulator (32 KB in
/// f64) stays in cache. A batch of one strip (up to 4,096 rows, such as
/// QENP's or SWS's cells) is combined on the calling thread: there,
/// entering the pool costs more than the combine itself.
const COMBINE_ROWS: usize = 4096;

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
/// [`IWareModel::combine_tables_response`] (a risk map is its one-level
/// case), which refuses tables stamped by any other model or filled on the
/// plane the model no longer serves from.
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
/// one plane; `vars` is empty when the fill skipped the variances.
pub(super) struct Tables<T> {
    pub(super) n_rows: usize,
    pub(super) probs: Vec<T>,
    vars: Vec<T>,
}

impl<T: Element> Tables<T> {
    /// Response surfaces over `levels`, `(column, qualified-prefix length)`
    /// pairs in ascending prefix order, filled cell-parallel: one task per
    /// [`COMBINE_ROWS`]-row strip writes that strip of each surface. The
    /// variance surface is empty when the tables hold no variances.
    fn response(&self, weights: &[T], levels: &[(usize, usize)]) -> (Matrix, Matrix) {
        let (n_rows, n_levels) = (self.n_rows, levels.len());
        let strip_len = COMBINE_ROWS * n_levels;
        let mut probs = vec![0.0; n_rows * n_levels];
        let mut vars = vec![0.0; if self.vars.is_empty() { 0 } else { probs.len() }];
        let mut v_strips = vars.chunks_mut(strip_len);
        let strips: Vec<_> = probs
            .chunks_mut(strip_len)
            .map(|p| (p, v_strips.next()))
            .enumerate()
            .collect();
        let fill = |(s, (p_strip, v_strip)): (usize, (&mut [f64], Option<&mut [f64]>))| {
            let start = s * COMBINE_ROWS;
            combine_levels_block(weights, levels, &self.probs[start..], n_rows, p_strip);
            if let Some(v_strip) = v_strip {
                combine_levels_block(weights, levels, &self.vars[start..], n_rows, v_strip);
            }
        };
        if strips.len() > 1 {
            strips.into_par_iter().for_each(fill);
        } else {
            strips.into_iter().for_each(fill);
        }
        (
            Matrix::from_flat(probs, n_levels),
            Matrix::from_flat(vars, n_levels),
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
                    let block = Matrix32::from_f64(row_block(x, start, len));
                    stack.block_tables(block.view(), 0, len, with_variance)
                },
            )),
            None => TablePlane::F64(self.f64_tables(x, with_variance)),
        }
    }

    /// The f64 tables of a batch: a tree stack fills them block by block
    /// from the fused arena, other learners through
    /// [`learner_f64_tables`].
    fn f64_tables(&self, x: MatrixView<'_>, with_variance: bool) -> Tables<f64> {
        match self.stack() {
            Some(stack) => fill_blocks(
                stack.ranges.len(),
                x.n_rows(),
                with_variance,
                |start, len| stack.block_tables(x, start, len, with_variance),
            ),
            None => learner_f64_tables(&self.learners, self.pool(), x, with_variance),
        }
    }

    /// The per-learner tables of a feature batch (standardised like every
    /// other query), filled on the model's serving plane: a tree stack
    /// traverses its fused arena and GP learners run the pooled kernel,
    /// both block by block, and SVM learners score the batch once each.
    /// Combining them with [`IWareModel::combine_tables_response`] gives
    /// the exact bits of the direct entry points on the same batch.
    pub fn learner_tables(&self, x: MatrixView<'_>) -> LearnerTables {
        LearnerTables {
            model_id: self.id,
            plane: self.tables(x, true),
        }
    }

    /// Response surfaces over an effort grid from this model's learner
    /// tables: bit-identical to [`IWareModel::effort_response`] on the
    /// batch the tables were built from, and a one-level grid gives the
    /// constant-effort risk map of
    /// [`IWareModel::predict_with_variance_at_effort`]. `None` when the
    /// tables carry another model's id or were filled on another plane.
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

    /// The one combine, on the plane of the tables (f32 tables take the
    /// weights narrowed). Level `e`'s qualified learners are the prefix
    /// `0..qualified_count(θ, grid[e])`; the levels are ordered by that
    /// length once per query, so the block combine visits them in one pass
    /// over the learners whatever the grid's order.
    fn combine_response(&self, plane: &TablePlane, effort_grid: &[f64]) -> (Matrix, Matrix) {
        let mut levels: Vec<(usize, usize)> = effort_grid
            .iter()
            .map(|&e| qualified_count(&self.thresholds, e))
            .enumerate()
            .collect();
        levels.sort_by_key(|&(_, k)| k);
        match plane {
            TablePlane::F64(t) => t.response(&self.weights, &levels),
            TablePlane::F32(t) => t.response(&self.weights32(), &levels),
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

    /// Both per-row entry points. A constant effort (the risk-map shape) is
    /// the one-level response on the serving plane's tables, exactly as a
    /// prepared park's tables would combine. Varying efforts keep the f64
    /// plane and combine each row's qualified prefix with
    /// [`crate::weights::combine`]. Without `with_variance` the uncertainty
    /// is empty.
    fn predict_at_effort(
        &self,
        x: MatrixView<'_>,
        efforts: &[f64],
        with_variance: bool,
    ) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(x.n_rows(), efforts.len(), "rows/efforts length mismatch");
        let Some(&first) = efforts.first() else {
            return (Vec::new(), Vec::new());
        };
        if efforts.iter().all(|&e| e == first) {
            let (p, v) = self.combine_response(&self.tables(x, with_variance), &[first]);
            return (p.into_flat(), v.into_flat());
        }
        let n_rows = x.n_rows();
        let tables = self.f64_tables(x, with_variance);
        // Row `r`'s learner outputs, gathered from the learner-major table.
        let mut column = vec![0.0; self.weights.len()];
        let mut combine_row = |table: &[f64], r: usize, k: usize| {
            for (l, c) in column.iter_mut().enumerate() {
                *c = table[l * n_rows + r];
            }
            combine(&column, &self.weights, k)
        };
        let mut probs = Vec::with_capacity(n_rows);
        let mut vars = Vec::with_capacity(if with_variance { n_rows } else { 0 });
        for (r, &effort) in efforts.iter().enumerate() {
            let k = qualified_count(&self.thresholds, effort);
            probs.push(combine_row(&tables.probs, r, k));
            if with_variance {
                vars.push(combine_row(&tables.vars, r, k));
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
    /// in 4,096-row strips. Reductions and combines use the lane kernels with
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
}

/// The f64 tables of `learners` without a fused tree stack. With `pool`,
/// their [`paws_ml::bagging::pool_gp_learners`], GP learners fill them in
/// parallel [`ROW_CHUNK`]-row blocks, one pass of the pooled kernel per
/// block; otherwise each learner scores the batch on its own.
pub(super) fn learner_f64_tables(
    learners: &[BaggingClassifier],
    pool: Option<&RowPool>,
    x: MatrixView<'_>,
    with_variance: bool,
) -> Tables<f64> {
    let n_rows = x.n_rows();
    if let Some(pool) = pool {
        return fill_blocks(learners.len(), n_rows, with_variance, |start, len| {
            pooled_gp_tables(pool, learners, row_block(x, start, len), with_variance)
        });
    }
    let per_learner: Vec<(Vec<f64>, Vec<f64>)> = learners
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

/// Rows `start..start + len` of `x`.
pub(super) fn row_block(x: MatrixView<'_>, start: usize, len: usize) -> MatrixView<'_> {
    let w = x.n_cols();
    MatrixView::from_flat(&x.as_slice()[start * w..][..len * w], w)
}

/// Combine one strip of rows of a learner-major table over every level,
/// into the strip's row-major `len × n_levels` output widened to f64: `len`
/// is `strip.len() / n_levels`, and learner `l`'s values for the strip are
/// `table[l · stride..][..len]`.
///
/// `levels` holds `(column, prefix length)` in ascending prefix order, so
/// one pass over the learners serves every level: each learner that joins
/// the prefix adds its contiguous row to the weighted sum with one
/// lane-kernel axpy, and each level divides the running sum at its own
/// prefix into its own column. Per element this is the operation sequence
/// of [`crate::weights::combine`] — sums in learner order from zero, no
/// fused multiply-add, the same unweighted-mean fallback — so every route
/// through the combine gives the same bits.
fn combine_levels_block<T: Element>(
    weights: &[T],
    levels: &[(usize, usize)],
    table: &[T],
    stride: usize,
    strip: &mut [f64],
) {
    let n_levels = levels.len();
    let len = strip.len() / n_levels;
    let row = |l: usize| &table[l * stride..][..len];
    let degenerate = T::from_f64(DEGENERATE_WSUM);
    let prefix_sums: Vec<T> = weights
        .iter()
        .scan(T::ZERO, |wsum, &w| {
            *wsum += w;
            Some(*wsum)
        })
        .collect();
    // The unweighted sums are kept only when some level falls back.
    let needs_unweighted = levels
        .iter()
        .any(|&(_, k)| prefix_sums[k - 1] <= degenerate);
    let mut acc = vec![T::ZERO; len];
    let mut sum = vec![T::ZERO; if needs_unweighted { len } else { 0 }];
    let mut taken = 0;
    for &(column, k) in levels {
        for (l, &w) in weights[..k].iter().enumerate().skip(taken) {
            simd::axpy(w, row(l), &mut acc);
            if needs_unweighted {
                simd::add_assign(&mut sum, row(l));
            }
        }
        taken = k;
        let wsum = prefix_sums[k - 1];
        let (from, divisor) = if wsum <= degenerate {
            (&sum, T::from_usize(k))
        } else {
            (&acc, wsum)
        };
        // One level fills the strip contiguously, so the divide packs.
        let divide = |(out, &a): (&mut f64, &T)| *out = (a / divisor).to_f64();
        if n_levels == 1 {
            strip.iter_mut().zip(from).for_each(divide);
        } else {
            strip[column..]
                .iter_mut()
                .step_by(n_levels)
                .zip(from)
                .for_each(divide);
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
    fn response_columns_are_constant_effort_predictions_in_any_grid_order() {
        // Each response column is the constant-effort prediction at its
        // level, bit for bit, whatever the grid's order: the grid is
        // unsorted, repeats a level, and reaches below the first positive
        // threshold and above the last. Zeroing the first two weights makes
        // the short prefixes take the unweighted-mean fallback. On the f64
        // plane the columns also match varying efforts, which combine row
        // by row with `weights::combine`, a route independent of the block
        // combine.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (rows, labels, efforts, _) = noisy_poaching_data(250, 23);
        let gp = IWareConfig {
            base: BaggingConfig::gps(3, 5),
            ..quick_config(4)
        };
        let grid = [2.0, 0.0, 1.0, 0.5, 2.0, 10.0];
        let stacks = [
            (gp, Precision::F64),
            (quick_config(4), Precision::F64),
            (quick_config(4), Precision::F32),
        ];
        for (cfg, precision) in stacks {
            let mut model = IWareModel::fit(&cfg, rows.view(), &labels, &efforts);
            model.set_precision(precision).unwrap();
            assert_eq!(model.precision(), precision);
            let t = model.thresholds();
            assert!(t[1] > 0.5 && t[t.len() - 1] < 10.0, "grid spans {t:?}");
            let fitted = model.weights.clone();
            let mut zeroed = fitted.clone();
            zeroed[..2].fill(0.0);
            for weights in [fitted, zeroed] {
                model.weights = weights;
                for n in [40, 0] {
                    let case = format!(
                        "{} {precision:?} {:?} {n} rows",
                        cfg.base.base.short_name(),
                        model.weights
                    );
                    let q = rows.view().head(n);
                    let (p, v) = model.effort_response(q, &grid);
                    assert_eq!((p.n_rows(), p.n_cols()), (n, grid.len()), "{case}");
                    for (e, &level) in grid.iter().enumerate() {
                        let (pe, ve) = model.predict_with_variance_at_effort(q, &vec![level; n]);
                        let column = |m: &Matrix| (0..n).map(|r| m.get(r, e)).collect::<Vec<_>>();
                        assert_eq!(bits(&column(&p)), bits(&pe), "{case} @{level}");
                        assert_eq!(bits(&column(&v)), bits(&ve), "{case} @{level}");
                        let pp = model.predict_proba_at_effort(q, &vec![level; n]);
                        assert_eq!(bits(&pp), bits(&pe), "{case} @{level}");
                    }
                    let (pt, vt) = model
                        .combine_tables_response(&model.learner_tables(q), &grid)
                        .expect("the model's own tables");
                    assert_eq!(bits(pt.as_slice()), bits(p.as_slice()), "{case}");
                    assert_eq!(bits(vt.as_slice()), bits(v.as_slice()), "{case}");
                    if precision == Precision::F64 {
                        // Row `r` at level `grid[r % 6]`.
                        let per_row: Vec<f64> = (0..n).map(|r| grid[r % grid.len()]).collect();
                        let (pr, vr) = model.predict_with_variance_at_effort(q, &per_row);
                        let diagonal = |m: &Matrix| {
                            (0..n).map(|r| m.get(r, r % grid.len())).collect::<Vec<_>>()
                        };
                        assert_eq!(bits(&diagonal(&p)), bits(&pr), "{case} per row");
                        assert_eq!(bits(&diagonal(&v)), bits(&vr), "{case} per row");
                    }
                }
            }
        }
    }

    #[test]
    fn strips_fanned_over_the_pool_give_the_one_strip_bits() {
        // A batch longer than one strip combines strip by strip on the pool:
        // the rows past the first strip read what they read combined on
        // their own, and each column is the constant-effort prediction.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (rows, labels, efforts, _) = noisy_poaching_data(250, 25);
        let n = COMBINE_ROWS + 300;
        let (queries, ..) = noisy_poaching_data(n, 26);
        let tail = MatrixView::from_flat(&queries.as_slice()[COMBINE_ROWS * 2..], 2);
        let grid = [2.0, 0.0, 1.0, 0.5, 2.0, 10.0];
        for precision in [Precision::F64, Precision::F32] {
            let mut model = IWareModel::fit(&quick_config(4), rows.view(), &labels, &efforts);
            model.set_precision(precision).unwrap();
            let (p, v) = model.effort_response(queries.view(), &grid);
            let (pt, vt) = model.effort_response(tail, &grid);
            let past_first = COMBINE_ROWS * grid.len()..;
            assert_eq!(bits(&p.as_slice()[past_first.clone()]), bits(pt.as_slice()));
            assert_eq!(bits(&v.as_slice()[past_first]), bits(vt.as_slice()));
            for (e, &level) in grid.iter().enumerate() {
                let (pe, ve) =
                    model.predict_with_variance_at_effort(queries.view(), &vec![level; n]);
                let column = |m: &Matrix| (0..n).map(|r| m.get(r, e)).collect::<Vec<_>>();
                assert_eq!(bits(&column(&p)), bits(&pe), "{precision:?} @{level}");
                assert_eq!(bits(&column(&v)), bits(&ve), "{precision:?} @{level}");
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
                    let (p, v) = model
                        .combine_tables_response(&tables, &[level])
                        .expect("the model's own tables");
                    assert_eq!((p.into_flat(), v.into_flat()), direct, "{case} @{level}");
                    assert!(twin.combine_tables_response(&tables, &[level]).is_none());
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
                    model.combine_tables_response(&tables, &[1.0]).is_some(),
                    model.precision() == precision,
                    "{case}: tables serve only the plane that filled them"
                );
            }
        }
    }

    #[test]
    fn pooled_gp_tables_equal_each_learners_own_predictions() {
        // A GPB-iW model fills its tables from one row pool, in 256-row
        // blocks fanned over the pool; each learner's rows must be the bits
        // of that learner's own predict_with_variance and predict_proba.
        // 603 rows make three blocks, the last ending in a partial
        // four-row lane block.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (rows, labels, efforts, _) = noisy_poaching_data(250, 27);
        let (queries, ..) = noisy_poaching_data(603, 28);
        for balanced in [false, true] {
            let cfg = IWareConfig {
                base: BaggingConfig {
                    balanced,
                    ..BaggingConfig::gps(3, 5)
                },
                ..quick_config(4)
            };
            let model = IWareModel::fit(&cfg, rows.view(), &labels, &efforts);
            assert!(model.pool().is_some(), "GP learners pool their rows");
            for n in [603, 5, 0] {
                let q = queries.view().head(n);
                let with_var = model.f64_tables(q, true);
                let mean_only = model.f64_tables(q, false);
                assert!(mean_only.vars.is_empty());
                for (l, learner) in model.learners.iter().enumerate() {
                    let case = format!("balanced {balanced}, {n} rows, learner {l}");
                    let row = |t: &[f64]| bits(&t[l * n..(l + 1) * n]);
                    let (p, v) = learner.predict_with_variance(q);
                    assert_eq!(row(&with_var.probs), bits(&p), "{case}");
                    assert_eq!(row(&with_var.vars), bits(&v), "{case}");
                    assert_eq!(
                        row(&mean_only.probs),
                        bits(&learner.predict_proba(q)),
                        "{case}"
                    );
                }
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
