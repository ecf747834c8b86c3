//! Arena-backed ensembles of decision trees with interleaved batch
//! traversal.
//!
//! The planning loop of Sec. VI evaluates the g_v(c)/ν_v(c) response
//! surfaces over every park cell × effort level, and after the flat-matrix
//! migration that cost is pure decision-tree traversal. A bagging ensemble
//! (and, one level up, the whole iWare-E learner stack) used to keep each
//! tree's nodes in its own `Vec`, so a park-wide prediction chased pointers
//! across I×B scattered heap allocations, one row at a time.
//!
//! [`Forest`] fixes both halves of that:
//!
//! * **Arena layout** — the nodes of every tree live in one contiguous
//!   slab of packed 16-byte arena nodes with per-tree root offsets.
//!   Trees are re-laid out in breadth-first order when they are spliced
//!   in, which places each split's two children adjacently — so only the
//!   left child index is stored (`right = left + 1`), and a traversal
//!   step issues exactly two node loads. Whole forests can be spliced
//!   into a larger arena ([`Forest::push_forest`]), which is how the
//!   iWare-E stack builds its single learner-wide slab.
//! * **Interleaved batch traversal** — [`Forest::predict_proba_batch`]
//!   advances rows through each tree in register-resident groups of
//!   `INTERLEAVE` (16) cursors: every group member is an independent
//!   root-to-leaf dependency chain, so the CPU overlaps their node loads,
//!   while the group's feature rows stay hot in L1. The per-level advance
//!   is branch-free — a leaf stores a `+∞` threshold and self-referencing
//!   child, so finished rows spin in place with no leaf test in the loop
//!   (the batch entry points assert the query matrix finite, which both
//!   guarantees the self-loop and keeps the unchecked arena indexing
//!   sound). Blocks of `ROW_BLOCK` (256) rows are the unit of parallel
//!   fan-out over the work-stealing pool, and
//!   [`Forest::predict_proba_block`] exposes single-block traversal so
//!   consumers (the iWare-E stack) can fuse their per-learner reductions
//!   while a block is still cache-resident.
//!
//! Traversal performs exactly the same `feature <= threshold` comparisons
//! as the per-row walk, so predictions are bit-identical to evaluating each
//! [`DecisionTree`] on its own.
//!
//! The arena is written once for both precision planes: [`Forest`] is
//! generic over an [`ArenaElement`] — `f64`, the trained arena, or `f32`,
//! the prediction plane's narrowed [`Forest32`](crate::forest32::Forest32)
//! with 8-byte nodes — and every traversal kernel is monomorphised per
//! element. The f32 arena's own rules (downward threshold narrowing, its
//! packing caps) live in [`crate::forest32`].

use crate::tree::DecisionTree;
use paws_data::matrix::{Matrix, MatrixView};
use paws_data::simd::Element;
use rayon::prelude::*;
use std::fmt::Debug;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// An element a [`Forest`] arena can hold (sealed: `f64` and `f32`), with
/// the packed word its nodes store `left_child | feature << k` in: a `u64`
/// split 32/32 beside an f64 threshold (a 16-byte node), or a `u32` split
/// 24/8 beside an f32 threshold (an 8-byte node; its caps are checked when
/// an f64 arena is narrowed, see [`crate::forest32`]).
pub trait ArenaElement: Element + sealed::Sealed {
    /// The packed topology word of a node.
    type Word: Copy + Debug + Send + Sync;
    /// Pack a child index and a feature index.
    fn pack(left: u32, feature: u32) -> Self::Word;
    /// The child index of a packed word.
    fn left(word: Self::Word) -> u32;
    /// The feature index of a packed word.
    fn feature(word: Self::Word) -> u32;
}

impl ArenaElement for f64 {
    type Word = u64;

    #[inline(always)]
    fn pack(left: u32, feature: u32) -> u64 {
        u64::from(left) | (u64::from(feature) << 32)
    }

    #[inline(always)]
    fn left(word: u64) -> u32 {
        word as u32
    }

    #[inline(always)]
    fn feature(word: u64) -> u32 {
        (word >> 32) as u32
    }
}

/// Compact arena node: 16 bytes on the f64 plane, 8 on the f32 plane. The
/// BFS splice pushes a split's two children consecutively, so the right
/// child is always `left + 1` and only `left` is stored — one fewer load
/// per traversal step, and (in f64) a third less arena memory than the
/// fitted tree's 24-byte nodes.
///
/// Leaves are encoded so the traversal step needs **no leaf test at
/// all**: a leaf's threshold is `+∞` and its `left` is its own index, so
/// any finite row value compares `<=` and the row self-loops in place;
/// its probability lives in the forest's side table (`leaf_values`),
/// touched once per row at output time rather than once per level.
/// Feature indices of real splits are always in range, and a leaf's
/// `feature` is 0, so the per-step feature clamp disappears too.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArenaNode<T: ArenaElement = f64> {
    /// Split threshold for interior nodes; `+∞` for leaves.
    pub(crate) value: T,
    /// Packed `left_child | feature << k` — one load yields both the
    /// topology and the feature index, so a traversal step issues exactly
    /// two loads (node word + threshold) plus the row value. Right child
    /// is `left + 1`; a leaf's `left` is its own index and its `feature`
    /// is 0 (harmlessly compared against the `+∞` threshold).
    packed: T::Word,
}

impl<T: ArenaElement> ArenaNode<T> {
    #[inline]
    pub(crate) fn new(value: T, left: u32, feature: u32) -> Self {
        Self {
            value,
            packed: T::pack(left, feature),
        }
    }

    #[inline(always)]
    pub(crate) fn left(&self) -> u32 {
        T::left(self.packed)
    }

    #[inline(always)]
    pub(crate) fn feature(&self) -> u32 {
        T::feature(self.packed)
    }

    /// Leaves self-reference; interior BFS children always come after
    /// their parent, so `left == own index` identifies a leaf.
    #[inline]
    pub(crate) fn is_leaf(&self, own: u32) -> bool {
        self.left() == own
    }

    /// Index of the node this row moves to: `left` when
    /// `row-value <= threshold` (always, for a leaf's `+∞` threshold and
    /// finite rows), `left + 1` otherwise. Exactly the comparison
    /// `if xv <= threshold { left } else { right }` of the fitted tree.
    // `!(xv <= v)` (not `xv > v`) is deliberate: a NaN query value must
    // fall right, matching the fitted tree's `if xv <= v {left} else
    // {right}` exactly.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline(always)]
    fn advance(&self, xv: T) -> u32 {
        self.left() + u32::from(!(xv <= self.value))
    }
}

impl ArenaNode {
    /// Raw `(value_bits, packed)` words — the snapshot wire image of a
    /// node.
    #[inline]
    pub(crate) fn to_bits(self) -> (u64, u64) {
        (self.value.to_bits(), self.packed)
    }

    /// Rebuild a node from its wire image. Only the snapshot decoder may
    /// call this, and only after (or on the way to) full arena validation.
    #[inline]
    pub(crate) fn from_bits(value_bits: u64, packed: u64) -> Self {
        Self {
            value: f64::from_bits(value_bits),
            packed,
        }
    }
}

/// The raw slices of an arena: `(nodes, leaf_values, roots, depths)`.
pub(crate) type ArenaParts<'a, T> = (&'a [ArenaNode<T>], &'a [T], &'a [u32], &'a [u32]);

/// One node of a synthetic tree for [`Forest::push_raw_tree`]: either a
/// split (`x[feature] <= threshold` → `left`, else `right`; indices into
/// the same node slice) or a leaf carrying its prediction value.
#[derive(Debug, Clone, Copy)]
pub enum RawNode {
    /// Interior split node.
    Split {
        /// Feature column compared against the threshold.
        feature: u32,
        /// Split threshold (`<=` goes left). Any non-NaN value.
        threshold: f64,
        /// Index of the left child in the node slice.
        left: u32,
        /// Index of the right child in the node slice.
        right: u32,
    },
    /// Leaf node.
    Leaf {
        /// Prediction emitted when a row exits here.
        value: f64,
    },
}

/// Rows are traversed in blocks of this many: a block's feature rows stay
/// resident in L1 while every tree streams over them, and blocks are the
/// unit of parallel fan-out across the work-stealing pool.
pub(crate) const ROW_BLOCK: usize = 256;

/// Rows advance through a tree in register-resident groups of this many
/// interleaved root-to-leaf walks (see [`Forest::traverse_block`]).
pub(crate) const INTERLEAVE: usize = 16;

/// An arena of decision trees: one contiguous node slab, per-tree roots and
/// depths. `Forest` (f64) is the trained arena; `Forest<f32>` is its
/// narrowed copy on the f32 prediction plane.
#[derive(Debug, Clone)]
pub struct Forest<T: ArenaElement = f64> {
    /// All nodes of all trees, each tree contiguous in BFS (level) order.
    nodes: Vec<ArenaNode<T>>,
    /// Leaf probabilities, parallel to `nodes` (0.0 at interior nodes);
    /// read once per (row, tree) when a traversal finishes.
    leaf_values: Vec<T>,
    /// Arena index of each tree's root.
    roots: Vec<u32>,
    /// Depth (edges on the longest root-to-leaf path) of each tree; the
    /// number of level-synchronous steps needed to reach every leaf.
    depths: Vec<u32>,
    n_features: usize,
}

impl Forest {
    /// Empty arena for trees over `n_features`-wide rows.
    pub fn new(n_features: usize) -> Self {
        assert!(n_features > 0, "forest needs at least one feature");
        Self {
            nodes: Vec::new(),
            leaf_values: Vec::new(),
            roots: Vec::new(),
            depths: Vec::new(),
            n_features,
        }
    }

    /// Build an arena from fitted trees (splicing each in BFS order).
    pub fn from_trees<'a, I>(n_features: usize, trees: I) -> Self
    where
        I: IntoIterator<Item = &'a DecisionTree>,
    {
        let mut forest = Self::new(n_features);
        for tree in trees {
            forest.push_tree(tree);
        }
        forest
    }

    /// Splice a fitted tree's nodes into the arena in breadth-first order,
    /// remapping child indices; leaves become self-referencing so batch
    /// traversal can advance without a leaf branch.
    pub fn push_tree(&mut self, tree: &DecisionTree) {
        assert_eq!(
            tree.n_features(),
            self.n_features,
            "feature width mismatch between tree and forest"
        );
        let src = tree.nodes();
        assert!(!src.is_empty(), "cannot splice an unfitted tree");
        let raw: Vec<RawNode> = src
            .iter()
            .map(|node| {
                if node.is_leaf() {
                    RawNode::Leaf { value: node.value }
                } else {
                    debug_assert!(
                        node.value.is_finite(),
                        "split thresholds are finite by training-data validation"
                    );
                    RawNode::Split {
                        feature: node.feature as u32,
                        threshold: node.value,
                        left: node.left,
                        right: node.right,
                    }
                }
            })
            .collect();
        self.push_raw_tree(&raw);
    }

    /// Splice a synthetic tree described node by node (node 0 is the
    /// root) — the construction surface the property suites and benches
    /// use to build forests with exact shapes, tied thresholds, and
    /// extreme (`±∞`, denormal-adjacent) split values that a fitted CART
    /// tree would never produce. Fitted trees go through the same path
    /// via [`Forest::push_tree`].
    ///
    /// # Panics
    /// Panics when the nodes do not describe a proper binary tree rooted
    /// at node 0 (a child index out of range or referenced twice, or
    /// unreachable nodes), a split feature is out of range, or a split
    /// threshold is NaN (`±∞` is allowed: the comparison semantics of the
    /// traversal kernels handle it exactly).
    pub fn push_raw_tree(&mut self, src: &[RawNode]) {
        assert!(!src.is_empty(), "cannot splice an empty tree");
        let base = self.nodes.len() as u32;

        // BFS pass: source index and level of every node in visit order,
        // doubling as tree-shape validation (each node reached exactly
        // once from the root).
        let mut order: Vec<(u32, u32)> = Vec::with_capacity(src.len());
        let mut new_index: Vec<u32> = vec![u32::MAX; src.len()];
        order.push((0, 0));
        new_index[0] = base;
        let mut head = 0;
        let mut depth = 0u32;
        while head < order.len() {
            let (si, level) = order[head];
            head += 1;
            depth = depth.max(level);
            if let RawNode::Split {
                feature,
                threshold,
                left,
                right,
            } = src[si as usize]
            {
                assert!(
                    (feature as usize) < self.n_features,
                    "split feature out of range"
                );
                assert!(!threshold.is_nan(), "split threshold must not be NaN");
                for child in [left, right] {
                    assert!(
                        (child as usize) < src.len(),
                        "child index out of range in raw tree"
                    );
                    assert!(
                        new_index[child as usize] == u32::MAX && child != 0,
                        "raw tree node referenced twice (not a tree)"
                    );
                    new_index[child as usize] = base + order.len() as u32;
                    order.push((child, level + 1));
                }
            }
        }
        assert_eq!(order.len(), src.len(), "raw tree has unreachable nodes");

        self.nodes.reserve(src.len());
        self.leaf_values.reserve(src.len());
        for &(si, _) in &order {
            match src[si as usize] {
                RawNode::Leaf { value } => {
                    self.nodes
                        .push(ArenaNode::new(f64::INFINITY, new_index[si as usize], 0));
                    self.leaf_values.push(value);
                }
                RawNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    // The BFS pass pushed this split's children back to
                    // back, so the right child sits directly after the
                    // left one — the invariant ArenaNode::advance relies
                    // on.
                    debug_assert_eq!(
                        new_index[right as usize],
                        new_index[left as usize] + 1,
                        "BFS splice must place siblings adjacently"
                    );
                    self.nodes
                        .push(ArenaNode::new(threshold, new_index[left as usize], feature));
                    self.leaf_values.push(0.0);
                }
            }
        }
        self.roots.push(base);
        self.depths.push(depth);
    }

    /// Splice every tree of another forest into this arena (the iWare-E
    /// stack uses this to fuse its learners' forests into one slab).
    pub fn push_forest(&mut self, other: &Forest) {
        assert_eq!(
            other.n_features, self.n_features,
            "feature width mismatch between forests"
        );
        let base = self.nodes.len() as u32;
        self.nodes.extend(
            other
                .nodes
                .iter()
                .map(|n| ArenaNode::new(n.value, n.left() + base, n.feature())),
        );
        self.leaf_values.extend_from_slice(&other.leaf_values);
        self.roots.extend(other.roots.iter().map(|&r| r + base));
        self.depths.extend_from_slice(&other.depths);
    }
}

impl<T: ArenaElement> Forest<T> {
    /// Number of trees in the arena.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total number of nodes across all trees.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Feature width the trees were fitted on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Depth of tree `t` (edges on its longest root-to-leaf path).
    pub fn tree_depth(&self, t: usize) -> usize {
        self.depths[t] as usize
    }

    /// Bytes per arena node: 16 on the f64 plane, 8 on the f32 plane.
    pub const NODE_BYTES: usize = std::mem::size_of::<ArenaNode<T>>();

    /// Per-tree predictions for a feature batch as a flat
    /// `n_trees × n_rows` matrix (row `t` holds tree `t`'s probabilities),
    /// computed level-synchronously.
    ///
    /// # Panics
    /// Panics on an empty batch (an `n_trees × 0` matrix is not
    /// representable) or a feature-width mismatch; ensemble entry points
    /// guard the empty case.
    pub fn predict_proba_batch(&self, x: MatrixView<'_, T>) -> Matrix<T> {
        assert_eq!(x.n_cols(), self.n_features, "feature width mismatch");
        assert!(!self.roots.is_empty(), "empty forest");
        assert!(!x.is_empty(), "empty prediction batch");
        // Finite inputs are what lets the branch-free kernel drop the
        // per-step leaf test (a leaf's `+∞` threshold captures every
        // finite row), and the guard keeps the unchecked arena indexing
        // sound for hostile inputs.
        assert!(
            paws_data::simd::all_finite(x.as_slice()),
            "prediction features must be finite"
        );
        let n_rows = x.n_rows();
        let n_trees = self.roots.len();
        let mut out = Matrix::zeros(n_trees, n_rows);

        if n_rows <= ROW_BLOCK || rayon::current_num_threads() <= 1 {
            // Single-threaded: traverse block by block straight into the
            // output matrix (stride = n_rows), no intermediate slabs.
            for start in (0..n_rows).step_by(ROW_BLOCK) {
                let len = ROW_BLOCK.min(n_rows - start);
                self.traverse_block(x, start, len, out.as_mut_slice(), n_rows, start);
            }
            return out;
        }

        // Multi-block batches fan the independent ROW_BLOCK chunks over the
        // work-stealing pool; each block produces its own tree-major slab
        // which is scattered back in order, so results are identical to the
        // sequential walk.
        let starts: Vec<usize> = (0..n_rows).step_by(ROW_BLOCK).collect();
        let blocks: Vec<Vec<T>> = starts
            .par_iter()
            .map(|&start| {
                let len = ROW_BLOCK.min(n_rows - start);
                let mut block = vec![T::ZERO; n_trees * len];
                self.traverse_block(x, start, len, &mut block, len, 0);
                block
            })
            .collect();
        for (&start, block) in starts.iter().zip(&blocks) {
            let len = ROW_BLOCK.min(n_rows - start);
            for (t, seg) in block.chunks_exact(len).enumerate() {
                out.row_mut(t)[start..start + len].copy_from_slice(seg);
            }
        }
        out
    }

    /// Advance rows `start..start + len` of `x` through every tree,
    /// level-synchronously, writing tree-major results into `out_block`
    /// (`n_trees × len`). The inner advance performs exactly the same
    /// `feature <= threshold` comparisons as [`Forest::predict_row`].
    ///
    /// Rows advance in register-resident groups of [`INTERLEAVE`]: the
    /// group's node cursors live in a fixed-size array (no frontier
    /// load/store per step, unlike a block-wide frontier in memory), while
    /// the group still gives the CPU [`INTERLEAVE`] independent root-to-leaf chains
    /// to overlap. Leaves self-reference, so the per-level advance stays
    /// branch-free: a row that finishes early spins in its register until
    /// the group completes the tree's depth.
    /// Results for tree `t`, row `j` land at
    /// `out[t * out_stride + out_offset + j]`, so callers can aim either at
    /// a per-block slab (`stride = len`) or straight at the strided rows of
    /// the full output matrix (`stride = n_rows`).
    fn traverse_block(
        &self,
        x: MatrixView<'_, T>,
        start: usize,
        len: usize,
        out: &mut [T],
        out_stride: usize,
        out_offset: usize,
    ) {
        debug_assert!(out.len() >= (self.roots.len() - 1) * out_stride + out_offset + len);
        let n_cols = x.n_cols();
        // The block's feature rows as one contiguous window.
        let rows = &x.as_slice()[start * n_cols..(start + len) * n_cols];
        let nodes = self.nodes.as_slice();
        let leaf_values = self.leaf_values.as_slice();
        for (t, (&root, &depth)) in self.roots.iter().zip(&self.depths).enumerate() {
            let out_t = &mut out[t * out_stride + out_offset..t * out_stride + out_offset + len];
            let mut j = 0usize;
            // Full groups: the lane loop has a constant bound so the
            // INTERLEAVE cursors unroll into registers.
            while j + INTERLEAVE <= len {
                let base = j * n_cols;
                let mut slots = [root; INTERLEAVE];
                for _ in 0..depth {
                    for (lane, slot) in slots.iter_mut().enumerate() {
                        // SAFETY: every cursor starts at a tree root and is
                        // only ever replaced by `node.advance(finite xv)`;
                        // a split's `left`/`left + 1` are its two children
                        // (remapped to valid arena indices at splice time)
                        // and a leaf's `+∞` threshold sends every finite
                        // row back to the leaf itself — the batch entry
                        // point asserts the whole query matrix finite.
                        // Split features are `< n_features` (leaves use 0),
                        // so `base + lane·n_cols + f < len·n_cols` because
                        // `j + lane ≤ len − 1`.
                        let node = unsafe { *nodes.get_unchecked(*slot as usize) };
                        let f = node.feature() as usize;
                        let xv = unsafe { *rows.get_unchecked(base + lane * n_cols + f) };
                        *slot = node.advance(xv);
                    }
                }
                for (o, &slot) in out_t[j..j + INTERLEAVE].iter_mut().zip(&slots) {
                    // SAFETY: as above — `slot` is a valid arena index.
                    *o = unsafe { *leaf_values.get_unchecked(slot as usize) };
                }
                j += INTERLEAVE;
            }
            // Remainder rows (< INTERLEAVE): plain per-row walks.
            for (o, jr) in out_t[j..].iter_mut().zip(j..len) {
                let row = &rows[jr * n_cols..(jr + 1) * n_cols];
                let mut idx = root;
                let mut node = nodes[idx as usize];
                while !node.is_leaf(idx) {
                    idx = node.advance(row[node.feature() as usize]);
                    node = nodes[idx as usize];
                }
                *o = leaf_values[idx as usize];
            }
        }
    }

    /// Per-tree predictions for rows `start..start + len` of `x`, written
    /// tree-major into `out_block` (`n_trees × len`, tree `t` at
    /// `out_block[t·len..(t+1)·len]`). This is the cache-blocked building
    /// block behind [`Forest::predict_proba_batch`]: consumers that reduce
    /// per-tree predictions (the iWare-E learner stack) call it per block
    /// and fold the reduction while the block is still cache-resident,
    /// instead of materialising the full `n_trees × n_rows` table.
    ///
    /// # Panics
    /// Panics on shape mismatches or a non-finite feature window.
    pub fn predict_proba_block(
        &self,
        x: MatrixView<'_, T>,
        start: usize,
        len: usize,
        out_block: &mut [T],
    ) {
        assert_eq!(x.n_cols(), self.n_features, "feature width mismatch");
        assert!(!self.roots.is_empty(), "empty forest");
        assert!(len > 0 && start + len <= x.n_rows(), "block out of range");
        assert_eq!(
            out_block.len(),
            self.roots.len() * len,
            "output block shape mismatch"
        );
        let window = &x.as_slice()[start * x.n_cols()..(start + len) * x.n_cols()];
        assert!(
            paws_data::simd::all_finite(window),
            "prediction features must be finite"
        );
        self.traverse_block(x, start, len, out_block, len, 0);
    }

    /// The raw arena parts `(nodes, leaf_values, roots, depths)`: the
    /// snapshot writer's input, and the narrowing input of
    /// [`Forest32::try_from_forest`](crate::forest32::Forest32::try_from_forest).
    pub(crate) fn arena_parts(&self) -> ArenaParts<'_, T> {
        (&self.nodes, &self.leaf_values, &self.roots, &self.depths)
    }

    /// Assemble a forest from parts **already validated** against every
    /// splice invariant: by the snapshot decoder (see [`crate::snapshot`]),
    /// or copied node for node from a valid arena by the f32 narrowing. Not
    /// a public constructor: unvalidated parts here would unsound the
    /// unchecked traversal kernels.
    pub(crate) fn from_validated_parts(
        nodes: Vec<ArenaNode<T>>,
        leaf_values: Vec<T>,
        roots: Vec<u32>,
        depths: Vec<u32>,
        n_features: usize,
    ) -> Self {
        debug_assert_eq!(nodes.len(), leaf_values.len());
        debug_assert_eq!(roots.len(), depths.len());
        Self {
            nodes,
            leaf_values,
            roots,
            depths,
            n_features,
        }
    }

    /// Number of edges tree `t` traverses for one row (diagnostics).
    pub fn row_depth(&self, t: usize, row: &[T]) -> usize {
        let mut idx = self.roots[t];
        let mut node = self.nodes[idx as usize];
        let mut d = 0;
        while !node.is_leaf(idx) {
            idx = node.advance(row[node.feature() as usize]);
            node = self.nodes[idx as usize];
            d += 1;
        }
        d
    }

    /// Prediction of tree `t` for one row (classic root-to-leaf walk); the
    /// reference the batch kernel must agree with bit-for-bit.
    pub fn predict_row(&self, t: usize, row: &[T]) -> T {
        assert_eq!(row.len(), self.n_features, "feature width mismatch");
        let mut idx = self.roots[t];
        let mut node = self.nodes[idx as usize];
        while !node.is_leaf(idx) {
            idx = node.advance(row[node.feature() as usize]);
            node = self.nodes[idx as usize];
        }
        self.leaf_values[idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest32::Forest32;
    use crate::traits::Classifier;
    use crate::tree::TreeConfig;
    use paws_data::matrix::Matrix32;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()])
            .collect();
        let labels: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] + r[1] > 1.0 { 1.0 } else { 0.0 })
            .collect();
        (Matrix::from_rows(&rows), labels)
    }

    fn fitted_trees(n_trees: usize) -> (Matrix, Vec<DecisionTree>) {
        let (x, labels) = data(300, 3);
        let trees: Vec<DecisionTree> = (0..n_trees)
            .map(|s| {
                DecisionTree::fit(
                    &TreeConfig {
                        max_features: Some(2),
                        ..TreeConfig::default()
                    },
                    x.view(),
                    &labels,
                    s as u64,
                )
            })
            .collect();
        (x, trees)
    }

    #[test]
    fn arena_holds_every_tree_contiguously() {
        let (_, trees) = fitted_trees(6);
        let forest = Forest::from_trees(3, trees.iter());
        assert_eq!(forest.n_trees(), 6);
        assert_eq!(
            forest.n_nodes(),
            trees.iter().map(|t| t.n_nodes()).sum::<usize>()
        );
        for (t, tree) in trees.iter().enumerate() {
            assert_eq!(forest.tree_depth(t), tree.depth());
        }
    }

    #[test]
    fn batch_traversal_is_bit_identical_to_per_tree_prediction() {
        let (x, trees) = fitted_trees(5);
        let forest = Forest::from_trees(3, trees.iter());
        // A batch spanning several ROW_BLOCK chunks.
        let batch = forest.predict_proba_batch(x.view());
        assert_eq!(batch.n_rows(), 5);
        assert_eq!(batch.n_cols(), x.n_rows());
        for (t, tree) in trees.iter().enumerate() {
            let reference = tree.predict_proba(x.view());
            assert_eq!(batch.row(t), reference.as_slice(), "tree {t}");
        }
    }

    #[test]
    fn per_row_arena_walk_matches_the_source_trees() {
        let (x, trees) = fitted_trees(4);
        let forest = Forest::from_trees(3, trees.iter());
        for (t, tree) in trees.iter().enumerate() {
            for row in x.view().head(50).rows() {
                assert_eq!(forest.predict_row(t, row), tree.predict_proba_one(row));
            }
        }
    }

    #[test]
    fn spliced_forests_predict_like_their_parts() {
        let (x, trees) = fitted_trees(6);
        let a = Forest::from_trees(3, trees[..2].iter());
        let b = Forest::from_trees(3, trees[2..].iter());
        let mut stacked = Forest::new(3);
        stacked.push_forest(&a);
        stacked.push_forest(&b);
        assert_eq!(stacked.n_trees(), 6);
        let whole = Forest::from_trees(3, trees.iter());
        let q = x.view().head(40);
        assert_eq!(
            stacked.predict_proba_batch(q).as_slice(),
            whole.predict_proba_batch(q).as_slice()
        );
    }

    /// The batch kernel against the per-row walk, and a row block against
    /// the batch, bit for bit: one property for both planes.
    fn batch_and_block_match_per_row_walks<T: ArenaElement>(
        forest: &Forest<T>,
        q: MatrixView<'_, T>,
    ) {
        let batch = forest.predict_proba_batch(q);
        for t in 0..forest.n_trees() {
            for (r, row) in q.rows().enumerate() {
                assert_eq!(
                    batch.get(t, r),
                    forest.predict_row(t, row),
                    "tree {t} row {r}"
                );
            }
        }
        let (start, len) = (17, 40);
        let mut block = vec![T::ZERO; forest.n_trees() * len];
        forest.predict_proba_block(q, start, len, &mut block);
        for t in 0..forest.n_trees() {
            assert_eq!(
                &block[t * len..(t + 1) * len],
                &batch.row(t)[start..start + len]
            );
        }
    }

    #[test]
    fn batch_and_block_traversal_match_per_row_walks_on_both_planes() {
        let (x, trees) = fitted_trees(5);
        let forest = Forest::from_trees(3, trees.iter());
        batch_and_block_match_per_row_walks(&forest, x.view());
        let forest32 = Forest32::try_from_forest(&forest).unwrap();
        batch_and_block_match_per_row_walks(&forest32, Matrix32::from_f64(x.view()).view());
    }

    #[test]
    fn node_words_are_sixteen_and_eight_bytes() {
        // The layout claim of the f32 plane: half the f64 arena's node.
        assert_eq!(Forest::<f64>::NODE_BYTES, 16);
        assert_eq!(Forest32::NODE_BYTES, 8);
    }

    #[test]
    #[should_panic(expected = "prediction features must be finite")]
    fn rejects_non_finite_queries() {
        let (x, trees) = fitted_trees(1);
        let forest = Forest::from_trees(3, trees.iter());
        let mut q = x.clone();
        q.row_mut(0)[1] = f64::NAN;
        let _ = forest.predict_proba_batch(q.view());
    }

    #[test]
    #[should_panic(expected = "prediction features must be finite")]
    fn rejects_non_finite_queries_on_the_f32_plane() {
        let (x, trees) = fitted_trees(1);
        let forest32 = Forest32::try_from_forest(&Forest::from_trees(3, trees.iter())).unwrap();
        let mut q = Matrix32::from_f64(x.view());
        q.row_mut(0)[1] = f32::NAN;
        let _ = forest32.predict_proba_batch(q.view());
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn rejects_wrong_width_trees() {
        let (_, trees) = fitted_trees(1);
        let mut forest = Forest::new(7);
        forest.push_tree(&trees[0]);
    }

    #[test]
    #[should_panic(expected = "empty prediction batch")]
    fn rejects_empty_batches() {
        let (x, trees) = fitted_trees(1);
        let forest = Forest::from_trees(3, trees.iter());
        let empty = x.gather(&[]);
        let _ = forest.predict_proba_batch(empty.view());
    }
}
