//! The f32 prediction plane's forest: `Forest<f32>`, an 8-byte-node arena
//! narrowed from a trained f64 [`Forest`], and the rules that narrowing
//! follows.
//!
//! PR 3 left batch traversal at ~2 cycles/step, pinned against the load-port
//! floor of the 16-byte [`Forest`] node (one 8-byte threshold load + one
//! 8-byte topology load per step) and 8-byte feature reads. [`Forest32`]
//! halves every one of those streams: a node is **8 bytes** (f32 threshold +
//! one packed u32 topology/feature word), leaf probabilities are f32, and
//! the feature batch is a narrowed `Matrix32` — twice the nodes per cache
//! line, half the feature-row bandwidth.
//!
//! The arena and its traversal kernels are [`Forest`]'s own, monomorphised
//! at `f32`: BFS sibling adjacency (`right = left + 1`, only `left`
//! stored), `+∞`-threshold self-looping leaves (no leaf test in the
//! advance), register-interleaved row groups and row-block parallel
//! fan-out. This module holds only what is specific to the f32 plane: the
//! 24/8-bit node word, the narrowing of thresholds and leaves, and the
//! typed [`NarrowError`] for arenas beyond the word's caps.
//!
//! # Precision policy
//!
//! A `Forest32` is a **derived cache**, never a source of truth: training,
//! serialization and the golden parity surface all stay on the f64
//! [`Forest`]. Conversion ([`Forest32::try_from_forest`]) narrows each split
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

use crate::forest::{ArenaElement, ArenaNode, Forest};

/// The f32 prediction plane's arena.
pub type Forest32 = Forest<f32>;

/// Maximum node count the 24-bit child index can address.
const MAX_NODES: usize = 1 << 24;
/// Maximum feature count the 8-bit feature field can address.
const MAX_FEATURES: usize = 1 << 8;

/// The 8-byte node's word: `left_child | feature << 24`. The caps are
/// checked once, when an f64 arena is narrowed (`check_caps`).
impl ArenaElement for f32 {
    type Word = u32;

    #[inline(always)]
    fn pack(left: u32, feature: u32) -> u32 {
        debug_assert!(left < MAX_NODES as u32);
        debug_assert!(feature < MAX_FEATURES as u32);
        left | (feature << 24)
    }

    #[inline(always)]
    fn left(word: u32) -> u32 {
        word & (MAX_NODES as u32 - 1)
    }

    #[inline(always)]
    fn feature(word: u32) -> u32 {
        word >> 24
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
fn check_caps(n_nodes: usize, n_features: usize) -> Result<(), NarrowError> {
    if n_nodes >= MAX_NODES {
        return Err(NarrowError::TooManyNodes {
            n_nodes,
            max: MAX_NODES,
        });
    }
    check_width(n_features)
}

/// The f32 plane's feature-width cap alone, so a caller can refuse a batch
/// the plane could never serve before fitting anything on it.
///
/// # Errors
/// [`NarrowError::TooManyFeatures`] when `n_features` exceeds 256.
pub fn check_width(n_features: usize) -> Result<(), NarrowError> {
    if n_features > MAX_FEATURES {
        return Err(NarrowError::TooManyFeatures {
            n_features,
            max: MAX_FEATURES,
        });
    }
    Ok(())
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
        let nodes32 = nodes
            .iter()
            .map(|n| {
                // Out-of-f32-range thresholds saturate consistently with the
                // query plane's ±f32::MAX clamp (`simd::narrow`): t >
                // f32::MAX narrows down to f32::MAX (every clamped query
                // goes left, as in f64); t < -f32::MAX narrows to -inf
                // (every clamped query goes right, as in f64). Interior
                // `±∞` thresholds (synthetic trees only) narrow to
                // themselves and keep their always-left / always-right
                // semantics; NaN never occurs in an arena.
                let v32 = narrow_threshold(n.value);
                debug_assert!(!v32.is_nan(), "arena thresholds are never NaN");
                ArenaNode::new(v32, n.left(), n.feature())
            })
            .collect();
        // The topology is the valid f64 arena's, node for node.
        Ok(Self::from_validated_parts(
            nodes32,
            leaf_values.iter().map(|&v| v as f32).collect(),
            roots.to_vec(),
            depths.to_vec(),
            forest.n_features(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{DecisionTree, TreeConfig};
    use paws_data::matrix::Matrix;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn fitted_forest(n_trees: usize) -> Forest {
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
        Forest::from_trees(3, trees.iter())
    }

    #[test]
    fn conversion_preserves_topology_and_narrows_values() {
        let forest = fitted_forest(5);
        let f32forest = Forest32::try_from_forest(&forest).unwrap();
        assert_eq!(f32forest.n_trees(), forest.n_trees());
        assert_eq!(f32forest.n_nodes(), forest.n_nodes());
        assert_eq!(f32forest.n_features(), forest.n_features());
        let (nodes, leaf_values, roots, depths) = forest.arena_parts();
        let (nodes32, leaf_values32, roots32, depths32) = f32forest.arena_parts();
        assert_eq!(roots32, roots);
        assert_eq!(depths32, depths);
        for ((n32, n64), (l32, l64)) in nodes32
            .iter()
            .zip(nodes)
            .zip(leaf_values32.iter().zip(leaf_values))
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
    fn packed_word_round_trips_at_the_limits() {
        let n = ArenaNode::new(1.5f32, (MAX_NODES - 1) as u32, (MAX_FEATURES - 1) as u32);
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
}
