//! The f32 prediction plane's forest: an 8-byte-node arena narrowed from a
//! trained f64 [`Forest`].
//!
//! PR 3 left batch traversal at ~2 cycles/step, pinned against the load-port
//! floor of the 16-byte [`Forest`] node (one 8-byte threshold load + one
//! 8-byte topology load per step) and 8-byte feature reads. [`Forest32`]
//! halves every one of those streams: a node is **8 bytes** (f32 threshold +
//! one packed u32 topology/feature word), leaf probabilities are f32, and
//! the feature batch is a narrowed [`Matrix32`] — twice the nodes per cache
//! line, half the feature-row bandwidth.
//!
//! The layout invariants are exactly the f64 arena's: BFS sibling adjacency
//! (`right = left + 1`, only `left` stored), `+∞`-threshold self-looping
//! leaves (no leaf test in the advance), [`INTERLEAVE`]-way
//! register-interleaved row groups, [`ROW_BLOCK`]-row parallel fan-out.
//!
//! # Precision policy
//!
//! A `Forest32` is a **derived cache**, never a source of truth: training,
//! serialization and the golden parity surface all stay on the f64
//! [`Forest`]. Conversion ([`Forest32::from_forest`]) narrows each split
//! threshold **downward** to the largest f32 ≤ t (see `narrow_threshold`),
//! which makes the plane's semantics exact: a `Forest32` traversal decides
//! every comparison precisely as the f64 tree would decide it for the
//! *f32-quantized* query. The only source of divergence is therefore query
//! narrowing itself — a row whose f64 feature value lies within half an
//! f32 ulp of a split threshold can round across it and take the other
//! branch (a "leaf flip").
//!
//! CART thresholds are midpoints between adjacent distinct training
//! values, so a flip needs two training values closer than ~2 f32 ulps. On
//! the golden parity scenarios that never happens and the end-to-end
//! divergence is pinned ≤ 1e-5 (`tests/matrix_parity.rs`); on park-scale
//! standardized feature stacks it happens only where a fitted tree split a
//! noise-level gap — measured on the test-scenario park, ≥ 99.5 % of
//! response-surface cells stay within 1e-5 of the f64 surface, and a
//! flipped cell moves by at most the affected leaf gap divided by the
//! ensemble fan-in (pinned by the paws-core pipeline test).
//!
//! # Packing limits
//!
//! The packed u32 word holds `left` in the low 24 bits and `feature` in the
//! high 8, capping a `Forest32` arena at 2²⁴ ≈ 16.7 M nodes and 256
//! features — two orders of magnitude above the largest iWare-E learner
//! stack in this reproduction (asserted at conversion, not at traversal).

use crate::forest::{Forest, INTERLEAVE, ROW_BLOCK};
use paws_data::matrix32::{Matrix32, MatrixView32};
use rayon::prelude::*;

/// Maximum node count the 24-bit child index can address.
const MAX_NODES: usize = 1 << 24;
/// Maximum feature count the 8-bit feature field can address.
const MAX_FEATURES: usize = 1 << 8;

/// Compact 8-byte arena node: f32 threshold plus one u32 packing
/// `left_child | feature << 24`. Same encoding contract as the f64
/// `ArenaNode`: interior nodes store the left child (right is `left + 1`),
/// leaves store `+∞` and self-reference with `feature = 0`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArenaNode32 {
    /// Split threshold for interior nodes; `+∞` for leaves.
    pub(crate) value: f32,
    /// Packed `left_child | feature << 24`.
    packed: u32,
}

impl ArenaNode32 {
    #[inline]
    fn new(value: f32, left: u32, feature: u32) -> Self {
        debug_assert!(left < MAX_NODES as u32);
        debug_assert!(feature < MAX_FEATURES as u32);
        Self {
            value,
            packed: left | (feature << 24),
        }
    }

    #[inline(always)]
    pub(crate) fn left(&self) -> u32 {
        self.packed & (MAX_NODES as u32 - 1)
    }

    #[inline(always)]
    pub(crate) fn feature(&self) -> u32 {
        self.packed >> 24
    }

    /// Raw `(value_bits, packed)` words — the snapshot wire image of a
    /// node.
    #[inline]
    pub(crate) fn to_bits(self) -> (u32, u32) {
        (self.value.to_bits(), self.packed)
    }

    /// Rebuild a node from its wire image. Snapshot decoder only; the
    /// caller validates the arena before traversal can see it.
    #[inline]
    pub(crate) fn from_bits(value_bits: u32, packed: u32) -> Self {
        Self {
            value: f32::from_bits(value_bits),
            packed,
        }
    }

    /// Leaves self-reference (see the f64 `ArenaNode`).
    #[inline]
    pub(crate) fn is_leaf(&self, own: u32) -> bool {
        self.left() == own
    }

    /// `left` when `xv <= threshold` (always, for a leaf's `+∞` threshold
    /// and finite rows), `left + 1` otherwise — the f32 image of the f64
    /// advance.
    // `!(xv <= v)`, not `xv > v`: a NaN query value must fall right,
    // matching the f64 arena exactly.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline(always)]
    fn advance(&self, xv: f32) -> u32 {
        self.left() + u32::from(!(xv <= self.value))
    }
}

/// Narrow a split threshold to the **largest f32 ≤ t** (not round-to-
/// nearest). For any f32 query value `x`, `x <= t32` is then *exactly*
/// `x <= t`: the f32 plane's comparisons are the f64 tree's comparisons
/// applied to the narrowed query, and the only residual divergence is the
/// query narrowing itself (a row whose f64 value sits within half an f32
/// ulp of `t` can round across it — see the module docs). Round-to-nearest
/// would add a second, avoidable flip window whenever the threshold rounds
/// up across an f32 boundary.
#[inline]
fn narrow_threshold(t: f64) -> f32 {
    let v = t as f32; // round-to-nearest
    if f64::from(v) <= t {
        v
    } else {
        v.next_down()
    }
}

/// Why a trained f64 [`Forest`] cannot be narrowed into the f32 plane's
/// packed 24-bit-node / 8-bit-feature word. Surfaced through
/// `set_precision` on the ensembles so callers can react (keep serving
/// from the f64 plane) instead of panicking deep inside a conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NarrowError {
    /// The arena has no trees; there is nothing to narrow.
    EmptyForest,
    /// The node count exceeds the 24-bit child index (`2²⁴` nodes).
    TooManyNodes {
        /// Nodes in the source arena.
        n_nodes: usize,
        /// Exclusive cap of the packed index.
        max: usize,
    },
    /// The feature width exceeds the 8-bit feature field (256 features).
    TooManyFeatures {
        /// Feature width of the source arena.
        n_features: usize,
        /// Inclusive cap of the packed field.
        max: usize,
    },
}

impl std::fmt::Display for NarrowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NarrowError::EmptyForest => write!(f, "cannot narrow an empty forest"),
            NarrowError::TooManyNodes { n_nodes, max } => write!(
                f,
                "forest arena exceeds the 24-bit node index of the f32 plane \
                 ({n_nodes} nodes, cap {max})"
            ),
            NarrowError::TooManyFeatures { n_features, max } => write!(
                f,
                "feature width exceeds the 8-bit feature field of the f32 plane \
                 ({n_features} features, cap {max})"
            ),
        }
    }
}

impl std::error::Error for NarrowError {}

/// The packing-cap check behind [`Forest32::try_from_forest`], factored
/// out so the caps are testable without allocating a 2²⁴-node arena.
pub(crate) fn check_caps(n_nodes: usize, n_features: usize) -> Result<(), NarrowError> {
    if n_nodes >= MAX_NODES {
        return Err(NarrowError::TooManyNodes {
            n_nodes,
            max: MAX_NODES,
        });
    }
    if n_features > MAX_FEATURES {
        return Err(NarrowError::TooManyFeatures {
            n_features,
            max: MAX_FEATURES,
        });
    }
    Ok(())
}

/// An f32 arena of decision trees, converted from a trained f64 [`Forest`].
/// Same BFS layout, half the node and leaf-table footprint.
#[derive(Debug, Clone)]
pub struct Forest32 {
    nodes: Vec<ArenaNode32>,
    /// Leaf probabilities, parallel to `nodes` (0.0 at interior nodes).
    leaf_values: Vec<f32>,
    roots: Vec<u32>,
    depths: Vec<u32>,
    n_features: usize,
}

impl Forest32 {
    /// Narrow a trained f64 forest into the prediction plane: each split
    /// threshold narrows to the largest f32 ≤ it (see `narrow_threshold`),
    /// leaf probabilities round to nearest f32, and the topology is copied
    /// verbatim (re-packed into the 24/8-bit word).
    ///
    /// # Errors
    /// [`NarrowError::EmptyForest`] for an arena with no trees, and
    /// [`NarrowError::TooManyNodes`] / [`NarrowError::TooManyFeatures`]
    /// when it exceeds the packing caps (2²⁴ nodes / 256 features).
    pub fn try_from_forest(forest: &Forest) -> Result<Self, NarrowError> {
        let (nodes, leaf_values, roots, depths) = forest.arena_parts();
        if roots.is_empty() {
            return Err(NarrowError::EmptyForest);
        }
        check_caps(nodes.len(), forest.n_features())?;
        let nodes32: Vec<ArenaNode32> = nodes
            .iter()
            .map(|n| {
                // Out-of-f32-range thresholds saturate consistently with the
                // query plane's ±f32::MAX clamp (`simd32::narrow`): t >
                // f32::MAX narrows down to f32::MAX (every clamped query
                // goes left, as in f64); t < -f32::MAX narrows to -inf
                // (every clamped query goes right, as in f64). Interior
                // `±∞` thresholds (synthetic trees only) narrow to
                // themselves and keep their always-left / always-right
                // semantics; NaN never occurs in an arena.
                let v32 = narrow_threshold(n.value);
                debug_assert!(!v32.is_nan(), "arena thresholds are never NaN");
                ArenaNode32::new(v32, n.left(), n.feature())
            })
            .collect();
        Ok(Self {
            nodes: nodes32,
            leaf_values: leaf_values.iter().map(|&v| v as f32).collect(),
            roots: roots.to_vec(),
            depths: depths.to_vec(),
            n_features: forest.n_features(),
        })
    }

    /// The raw arena parts `(nodes, leaf_values, roots, depths)` — the
    /// snapshot writer's input.
    pub(crate) fn arena_parts32(&self) -> (&[ArenaNode32], &[f32], &[u32], &[u32]) {
        (&self.nodes, &self.leaf_values, &self.roots, &self.depths)
    }

    /// Assemble an f32 arena from parts the snapshot decoder has already
    /// validated (same contract as `Forest::from_validated_parts`).
    pub(crate) fn from_validated_parts(
        nodes: Vec<ArenaNode32>,
        leaf_values: Vec<f32>,
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

    /// Number of trees in the arena.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Total number of nodes across all trees.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Feature width the source trees were fitted on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Bytes per arena node (the layout claim the plane is built on).
    pub const NODE_BYTES: usize = std::mem::size_of::<ArenaNode32>();

    /// Per-tree predictions for an f32 feature batch as a flat
    /// `n_trees × n_rows` [`Matrix32`] — the single-precision image of
    /// [`Forest::predict_proba_batch`], with identical blocking and
    /// fan-out.
    ///
    /// # Panics
    /// Panics on an empty batch, a feature-width mismatch, or non-finite
    /// query features (the guard that keeps the branch-free self-looping
    /// leaves and unchecked arena indexing sound).
    pub fn predict_proba_batch(&self, x: MatrixView32<'_>) -> Matrix32 {
        assert_eq!(x.n_cols(), self.n_features, "feature width mismatch");
        assert!(!self.roots.is_empty(), "empty forest");
        assert!(!x.is_empty(), "empty prediction batch");
        assert!(
            paws_data::simd32::all_finite(x.as_slice()),
            "prediction features must be finite"
        );
        let n_rows = x.n_rows();
        let n_trees = self.roots.len();
        let mut out = Matrix32::zeros(n_trees, n_rows);

        if n_rows <= ROW_BLOCK || rayon::current_num_threads() <= 1 {
            for start in (0..n_rows).step_by(ROW_BLOCK) {
                let len = ROW_BLOCK.min(n_rows - start);
                self.traverse_block(x, start, len, out.as_mut_slice(), n_rows, start);
            }
            return out;
        }

        let starts: Vec<usize> = (0..n_rows).step_by(ROW_BLOCK).collect();
        let blocks: Vec<Vec<f32>> = starts
            .par_iter()
            .map(|&start| {
                let len = ROW_BLOCK.min(n_rows - start);
                let mut block = vec![0.0f32; n_trees * len];
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

    /// Per-tree predictions for rows `start..start + len`, written
    /// tree-major into `out_block` (`n_trees × len`) — the cache-blocked
    /// building block the fused iWare-E f32 pipeline consumes.
    ///
    /// # Panics
    /// Panics on shape mismatches or a non-finite feature window.
    pub fn predict_proba_block(
        &self,
        x: MatrixView32<'_>,
        start: usize,
        len: usize,
        out_block: &mut [f32],
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
            paws_data::simd32::all_finite(window),
            "prediction features must be finite"
        );
        self.traverse_block(x, start, len, out_block, len, 0);
    }

    /// The f32 image of `Forest::traverse_block`: [`INTERLEAVE`]-way
    /// register-interleaved root-to-leaf walks, branch-free advance via the
    /// self-looping leaves, scalar remainder.
    fn traverse_block(
        &self,
        x: MatrixView32<'_>,
        start: usize,
        len: usize,
        out: &mut [f32],
        out_stride: usize,
        out_offset: usize,
    ) {
        debug_assert!(out.len() >= (self.roots.len() - 1) * out_stride + out_offset + len);
        let n_cols = x.n_cols();
        let rows = &x.as_slice()[start * n_cols..(start + len) * n_cols];
        let nodes = self.nodes.as_slice();
        let leaf_values = self.leaf_values.as_slice();
        for (t, (&root, &depth)) in self.roots.iter().zip(&self.depths).enumerate() {
            let out_t = &mut out[t * out_stride + out_offset..t * out_stride + out_offset + len];
            let mut j = 0usize;
            while j + INTERLEAVE <= len {
                let base = j * n_cols;
                let mut slots = [root; INTERLEAVE];
                for _ in 0..depth {
                    for (lane, slot) in slots.iter_mut().enumerate() {
                        // SAFETY: identical argument to the f64 kernel —
                        // cursors start at roots, `advance` over a finite
                        // row value only yields child indices (remapped to
                        // valid arena positions at conversion, since the
                        // source arena's invariants are copied verbatim) or
                        // the leaf itself; features are `< n_features`, so
                        // `base + lane·n_cols + f` stays inside the block
                        // window.
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

    /// Prediction of tree `t` for one f32 row (classic root-to-leaf walk);
    /// the reference the batch kernel must agree with bit-for-bit.
    pub fn predict_row(&self, t: usize, row: &[f32]) -> f32 {
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
    use crate::tree::{DecisionTree, TreeConfig};
    use paws_data::matrix::Matrix;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn fitted_forest(n_trees: usize) -> (Matrix, Forest) {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()])
            .collect();
        let labels: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] + r[1] > 1.0 { 1.0 } else { 0.0 })
            .collect();
        let x = Matrix::from_rows(&rows);
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
        let forest = Forest::from_trees(3, trees.iter());
        (x, forest)
    }

    #[test]
    fn node_is_eight_bytes() {
        // The layout claim of the whole plane: half the f64 arena's node.
        assert_eq!(Forest32::NODE_BYTES, 8);
        assert_eq!(std::mem::size_of::<ArenaNode32>(), 8);
    }

    #[test]
    fn conversion_preserves_topology_and_narrows_values() {
        let (_, forest) = fitted_forest(5);
        let f32forest = Forest32::try_from_forest(&forest).unwrap();
        assert_eq!(f32forest.n_trees(), forest.n_trees());
        assert_eq!(f32forest.n_nodes(), forest.n_nodes());
        assert_eq!(f32forest.n_features(), forest.n_features());
        let (nodes, leaf_values, roots, depths) = forest.arena_parts();
        assert_eq!(f32forest.roots, roots);
        assert_eq!(f32forest.depths, depths);
        for ((n32, n64), (l32, l64)) in f32forest
            .nodes
            .iter()
            .zip(nodes)
            .zip(f32forest.leaf_values.iter().zip(leaf_values))
        {
            assert_eq!(n32.left(), n64.left());
            assert_eq!(n32.feature(), n64.feature());
            assert_eq!(n32.value, narrow_threshold(n64.value));
            // The downward narrowing invariant: t32 ≤ t, within one ulp
            // (leaves keep their +∞ marker exactly).
            assert!(f64::from(n32.value) <= n64.value);
            if n64.value.is_finite() {
                assert!(f64::from(n32.value.next_up()) > n64.value);
            } else {
                assert_eq!(n32.value, f32::INFINITY);
            }
            assert_eq!(*l32, *l64 as f32);
        }
    }

    #[test]
    fn batch_traversal_is_bit_identical_to_per_row_walks() {
        let (x, forest) = fitted_forest(5);
        let f32forest = Forest32::try_from_forest(&forest).unwrap();
        let q = Matrix32::from_f64(x.view());
        let batch = f32forest.predict_proba_batch(q.view());
        for t in 0..f32forest.n_trees() {
            for (r, row) in q.rows().enumerate() {
                assert_eq!(batch.get(t, r), f32forest.predict_row(t, row));
            }
        }
    }

    #[test]
    fn block_traversal_matches_the_full_batch() {
        let (x, forest) = fitted_forest(4);
        let f32forest = Forest32::try_from_forest(&forest).unwrap();
        let q = Matrix32::from_f64(x.view());
        let batch = f32forest.predict_proba_batch(q.view());
        let (start, len) = (17, 40);
        let mut block = vec![0.0f32; f32forest.n_trees() * len];
        f32forest.predict_proba_block(q.view(), start, len, &mut block);
        for t in 0..f32forest.n_trees() {
            assert_eq!(
                &block[t * len..(t + 1) * len],
                &batch.row(t)[start..start + len]
            );
        }
    }

    #[test]
    fn packed_word_round_trips_at_the_limits() {
        let n = ArenaNode32::new(1.5, (MAX_NODES - 1) as u32, (MAX_FEATURES - 1) as u32);
        assert_eq!(n.left(), (MAX_NODES - 1) as u32);
        assert_eq!(n.feature(), (MAX_FEATURES - 1) as u32);
    }

    #[test]
    fn packing_caps_are_typed_errors() {
        // The caps themselves, checked without allocating a 2²⁴-node
        // arena: the node count must stay below the 24-bit child index and
        // the feature width within the 8-bit field.
        assert_eq!(check_caps(MAX_NODES - 1, MAX_FEATURES), Ok(()));
        assert_eq!(
            check_caps(MAX_NODES, 3),
            Err(NarrowError::TooManyNodes {
                n_nodes: MAX_NODES,
                max: MAX_NODES
            })
        );
        assert_eq!(
            check_caps(10, MAX_FEATURES + 1),
            Err(NarrowError::TooManyFeatures {
                n_features: MAX_FEATURES + 1,
                max: MAX_FEATURES
            })
        );
        // Display strings name the violated field (surfaced to users via
        // set_precision).
        assert!(check_caps(MAX_NODES, 3)
            .unwrap_err()
            .to_string()
            .contains("24-bit node index"));
    }

    #[test]
    fn try_from_forest_reports_feature_cap() {
        use crate::forest::RawNode;
        let mut forest = Forest::new(300);
        forest.push_raw_tree(&[
            RawNode::Split {
                feature: 299,
                threshold: 0.5,
                left: 1,
                right: 2,
            },
            RawNode::Leaf { value: 0.0 },
            RawNode::Leaf { value: 1.0 },
        ]);
        assert_eq!(
            Forest32::try_from_forest(&forest).unwrap_err(),
            NarrowError::TooManyFeatures {
                n_features: 300,
                max: MAX_FEATURES
            }
        );
    }

    #[test]
    fn try_from_forest_reports_empty_forests() {
        let forest = Forest::new(3);
        assert_eq!(
            Forest32::try_from_forest(&forest).unwrap_err(),
            NarrowError::EmptyForest
        );
    }

    #[test]
    #[should_panic(expected = "prediction features must be finite")]
    fn rejects_non_finite_queries() {
        let (x, forest) = fitted_forest(1);
        let f32forest = Forest32::try_from_forest(&forest).unwrap();
        let mut q = Matrix32::from_f64(x.view());
        q.row_mut(0)[1] = f32::NAN;
        let _ = f32forest.predict_proba_batch(q.view());
    }
}
