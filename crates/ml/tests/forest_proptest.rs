//! Property suite pinning the arena kernels to the per-row walk.
//!
//! Random synthetic forests — depths 1..12, up to 64 trees, tied and
//! extreme (`±∞`, denormal-adjacent, out-of-f32-range) thresholds — are
//! scored over random query blocks whose values are built to land *on*
//! thresholds, one ulp to either side of them, and far away. For every
//! case, all of the following must agree **bit for bit**:
//!
//! * f64: the per-row root-to-leaf walk ([`Forest::predict_row`]), the
//!   interleaved arena batch kernel ([`Forest::predict_proba_batch`]) and
//!   its row-block entry point ([`Forest::predict_proba_block`]).
//! * f32: the same three kernels of the narrowed arena ([`Forest32`]) on
//!   the f32-quantized query block.
//!
//! The suite deliberately crosses every blocking boundary: query counts
//! and sub-block offsets straddle the 16-row interleave groups and the
//! 256-row parallel blocks.

use paws_data::{Matrix, Matrix32};
use paws_ml::forest::RawNode;
use paws_ml::{Forest, Forest32};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Interesting split thresholds: ties (repeated draws), signed zeros,
/// denormal-adjacent magnitudes, out-of-f32-range values and infinities.
fn draw_threshold<R: Rng>(rng: &mut R, pool: &mut Vec<f64>) -> f64 {
    let t = match rng.gen_range(0..10) {
        0 if !pool.is_empty() => pool[rng.gen_range(0..pool.len())], // exact tie
        1 => 0.0,
        2 => -0.0,
        3 => f64::MIN_POSITIVE, // smallest normal
        4 => -5e-324,           // negative denormal
        5 => 1e308,             // finite, beyond f32 range
        6 => -1e308,
        7 => f64::INFINITY,     // always-left split
        8 => f64::NEG_INFINITY, // always-right split
        _ => rng.gen_range(-2.0..2.0),
    };
    pool.push(t);
    t
}

/// Grow a random tree as [`RawNode`]s: node 0 is the root; split
/// probability decays with depth, hard depth cap `max_depth` (≤ 12).
fn grow_tree<R: Rng>(
    rng: &mut R,
    n_features: usize,
    max_depth: usize,
    pool: &mut Vec<f64>,
) -> Vec<RawNode> {
    fn grow<R: Rng>(
        rng: &mut R,
        nodes: &mut Vec<RawNode>,
        n_features: usize,
        depth: usize,
        max_depth: usize,
        pool: &mut Vec<f64>,
    ) -> u32 {
        let idx = nodes.len() as u32;
        let split = depth < max_depth && rng.gen::<f64>() < 0.75 && nodes.len() < 400;
        if !split {
            nodes.push(RawNode::Leaf {
                value: rng.gen_range(-1.0..1.0),
            });
            return idx;
        }
        // Placeholder, patched once the children exist.
        nodes.push(RawNode::Leaf { value: 0.0 });
        let feature = rng.gen_range(0..n_features) as u32;
        let threshold = draw_threshold(rng, pool);
        let left = grow(rng, nodes, n_features, depth + 1, max_depth, pool);
        let right = grow(rng, nodes, n_features, depth + 1, max_depth, pool);
        nodes[idx as usize] = RawNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        idx
    }
    let mut nodes = Vec::new();
    grow(rng, &mut nodes, n_features, 0, max_depth, pool);
    nodes
}

/// Query values engineered to probe the comparison boundaries: exact
/// threshold hits, one-ulp neighbours, denormals, f32-saturating
/// magnitudes — always finite (the kernels' input contract).
fn draw_query<R: Rng>(rng: &mut R, pool: &[f64]) -> f64 {
    let finite_pool = |rng: &mut R, pool: &[f64]| -> f64 {
        if pool.is_empty() {
            return rng.gen_range(-2.0..2.0);
        }
        let t = pool[rng.gen_range(0..pool.len())];
        if t.is_finite() {
            t
        } else {
            rng.gen_range(-2.0..2.0)
        }
    };
    match rng.gen_range(0..8) {
        0 => finite_pool(rng, pool),             // exact tie with a threshold
        1 => finite_pool(rng, pool).next_up(),   // one ulp right of it
        2 => finite_pool(rng, pool).next_down(), // one ulp left of it
        3 => 0.0,
        4 => -0.0,
        5 => 5e-324, // denormal
        6 => {
            // Finite but outside f32 range: saturates on the f32 plane.
            if rng.gen() {
                1.5e308
            } else {
                -1.5e308
            }
        }
        _ => rng.gen_range(-3.0..3.0),
    }
}

/// One full engine parity check of a random forest × query block.
fn check_case(seed: u64, n_trees_max: usize, max_depth: usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n_features = rng.gen_range(1..8usize);
    let n_trees = rng.gen_range(1..n_trees_max + 1);
    let mut pool = Vec::new();
    let mut forest = Forest::new(n_features);
    for _ in 0..n_trees {
        forest.push_raw_tree(&grow_tree(&mut rng, n_features, max_depth, &mut pool));
    }

    // Query block straddling the interleave (16) and parallel-block (256)
    // boundaries.
    let n_rows = rng.gen_range(1..300usize);
    let mut x = Matrix::new(n_features);
    let mut row = vec![0.0; n_features];
    for _ in 0..n_rows {
        for v in row.iter_mut() {
            *v = draw_query(&mut rng, &pool);
        }
        x.push_row(&row);
    }

    // f64: per-row walk vs interleaved arena.
    let arena = forest.predict_proba_batch(x.view());
    for t in 0..n_trees {
        for (r, row) in x.view().rows().enumerate() {
            assert_eq!(
                arena.get(t, r),
                forest.predict_row(t, row),
                "arena vs per-row walk diverged (seed {seed}, tree {t}, row {r})"
            );
        }
    }

    // A random sub-block must match the corresponding batch columns, on
    // both planes.
    let forest32 = Forest32::try_from_forest(&forest).unwrap();
    let q32 = Matrix32::from_f64(x.view());
    let arena32 = forest32.predict_proba_batch(q32.view());
    if n_rows > 2 {
        let start = rng.gen_range(0..n_rows - 1);
        let len = rng.gen_range(1..n_rows - start + 1);
        let mut block = vec![0.0; n_trees * len];
        forest.predict_proba_block(x.view(), start, len, &mut block);
        let mut block32 = vec![0.0f32; n_trees * len];
        forest32.predict_proba_block(q32.view(), start, len, &mut block32);
        for t in 0..n_trees {
            assert_eq!(
                &block[t * len..(t + 1) * len],
                &arena.row(t)[start..start + len],
                "block scoring diverged (seed {seed}, tree {t})"
            );
            assert_eq!(
                &block32[t * len..(t + 1) * len],
                &arena32.row(t)[start..start + len],
                "f32 block scoring diverged (seed {seed}, tree {t})"
            );
        }
    }

    // f32 plane: narrowed arena vs its per-row walk, bit-tight.
    for t in 0..n_trees {
        for (r, row) in q32.rows().enumerate() {
            assert_eq!(
                arena32.get(t, r),
                forest32.predict_row(t, row),
                "f32 arena vs per-row walk diverged (seed {seed}, tree {t}, row {r})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_engines_agree_on_random_forests(seed in 0.0..1e9) {
        // Up to 16 moderately deep trees per case.
        check_case(seed as u64, 16, 9);
    }

    #[test]
    fn all_engines_agree_on_wide_shallow_ensembles(seed in 0.0..1e9) {
        // Up to 64 small trees per case.
        check_case(seed as u64, 64, 4);
    }

    #[test]
    fn all_engines_agree_on_deep_multiword_trees(seed in 0.0..1e9) {
        // Few trees, depth up to 12: long root-to-leaf walks with leaf
        // counts past 64.
        check_case(seed as u64, 3, 12);
    }
}

#[test]
fn tied_thresholds_on_one_feature_stay_exact() {
    // A pathological tree: every split tests the same feature at the same
    // threshold. Rows landing exactly on the threshold must take the left
    // branch everywhere, in every engine.
    let t = 0.5;
    let nodes = vec![
        RawNode::Split {
            feature: 0,
            threshold: t,
            left: 1,
            right: 2,
        },
        RawNode::Split {
            feature: 0,
            threshold: t,
            left: 3,
            right: 4,
        },
        RawNode::Split {
            feature: 0,
            threshold: t,
            left: 5,
            right: 6,
        },
        RawNode::Leaf { value: 0.1 },
        RawNode::Leaf { value: 0.2 },
        RawNode::Leaf { value: 0.3 },
        RawNode::Leaf { value: 0.4 },
    ];
    let mut forest = Forest::new(1);
    forest.push_raw_tree(&nodes);
    let x = Matrix::from_rows(&[
        vec![t],
        vec![t.next_down()],
        vec![t.next_up()],
        vec![-1.0],
        vec![1.0],
    ]);
    let arena = forest.predict_proba_batch(x.view());
    for (r, row) in x.view().rows().enumerate() {
        assert_eq!(arena.get(0, r), forest.predict_row(0, row));
    }
    // On / left-of threshold → deep-left leaf; right of it → right leaf.
    assert_eq!(arena.get(0, 0), 0.1);
    assert_eq!(arena.get(0, 1), 0.1);
    assert_eq!(arena.get(0, 2), 0.4);
}

#[test]
fn infinite_thresholds_pin_a_branch_in_every_engine() {
    // `+∞` splits always go left for finite queries; `-∞` always right.
    let nodes = vec![
        RawNode::Split {
            feature: 0,
            threshold: f64::INFINITY,
            left: 1,
            right: 2,
        },
        RawNode::Split {
            feature: 1,
            threshold: f64::NEG_INFINITY,
            left: 3,
            right: 4,
        },
        RawNode::Leaf { value: -1.0 },
        RawNode::Leaf { value: 0.25 },
        RawNode::Leaf { value: 0.75 },
    ];
    let mut forest = Forest::new(2);
    forest.push_raw_tree(&nodes);
    let x = Matrix::from_rows(&[vec![1e308, -1e308], vec![-1e308, 1e308], vec![0.0, 0.0]]);
    let arena = forest.predict_proba_batch(x.view());
    assert!(arena.as_slice().iter().all(|&v| v == 0.75));
    // The f32 plane narrows ±∞ thresholds to themselves and saturates the
    // ±1e308 queries at ±f32::MAX — same branches everywhere.
    let forest32 = Forest32::try_from_forest(&forest).unwrap();
    let q32 = Matrix32::from_f64(x.view());
    assert!(forest32
        .predict_proba_batch(q32.view())
        .as_slice()
        .iter()
        .all(|&v| v == 0.75));
}
