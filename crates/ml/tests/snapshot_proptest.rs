//! Fault-injection suite for the snapshot wire format.
//!
//! Random synthetic forests are serialized and then attacked: truncation
//! at every byte length (subsuming every section boundary), random bit
//! flips in header, table and payload, wrong magic/version/endianness/
//! kind, and over/under-stated section lengths. Every corrupted slab must
//! yield a typed [`SnapshotError`] — never a panic, hang, or a forest
//! that silently decodes to something else. Clean round trips must be
//! bit-identical: same bytes on re-encode, same predictions from the
//! arena.

use paws_data::Matrix;
use paws_ml::forest::RawNode;
use paws_ml::snapshot::{read_forest, write_forest};
use paws_ml::{Forest, PayloadKind, SnapshotWriter};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Grow a random tree with *finite* thresholds (the snapshot contract:
/// interior splits must be finite; only the leaf marker is `+∞`).
fn grow_tree<R: Rng>(rng: &mut R, n_features: usize, max_depth: usize) -> Vec<RawNode> {
    fn grow<R: Rng>(
        rng: &mut R,
        nodes: &mut Vec<RawNode>,
        n_features: usize,
        depth: usize,
        max_depth: usize,
    ) -> u32 {
        let idx = nodes.len() as u32;
        let split = depth < max_depth && rng.gen::<f64>() < 0.7 && nodes.len() < 200;
        if !split {
            nodes.push(RawNode::Leaf {
                value: rng.gen_range(-1.0..1.0),
            });
            return idx;
        }
        nodes.push(RawNode::Leaf { value: 0.0 });
        let feature = rng.gen_range(0..n_features) as u32;
        let threshold = match rng.gen_range(0..5) {
            0 => 0.0,
            1 => -0.0,
            // Large finite extremes.
            2 => 1e30,
            3 => -1e30,
            _ => rng.gen_range(-2.0..2.0),
        };
        let left = grow(rng, nodes, n_features, depth + 1, max_depth);
        let right = grow(rng, nodes, n_features, depth + 1, max_depth);
        nodes[idx as usize] = RawNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        idx
    }
    let mut nodes = Vec::new();
    grow(rng, &mut nodes, n_features, 0, max_depth);
    nodes
}

fn random_forest(rng: &mut ChaCha8Rng) -> Forest {
    let n_features = rng.gen_range(1..8usize);
    let n_trees = rng.gen_range(1..12usize);
    let mut forest = Forest::new(n_features);
    for _ in 0..n_trees {
        forest.push_raw_tree(&grow_tree(rng, n_features, 8));
    }
    forest
}

fn random_queries(rng: &mut ChaCha8Rng, n_features: usize) -> Matrix {
    let n_rows = rng.gen_range(1..40usize);
    let mut x = Matrix::new(n_features);
    let mut row = vec![0.0; n_features];
    for _ in 0..n_rows {
        for v in row.iter_mut() {
            *v = rng.gen_range(-3.0..3.0);
        }
        x.push_row(&row);
    }
    x
}

fn check_round_trip(seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let forest = random_forest(&mut rng);
    let x = random_queries(&mut rng, forest.n_features());

    // The decoded forest re-encodes to the same bytes (canonical form) and
    // predicts bit-identically.
    let bytes = write_forest(&forest);
    let loaded = read_forest(&bytes).expect("clean snapshot decodes");
    assert_eq!(write_forest(&loaded), bytes, "re-encode not canonical");
    let reference = forest.predict_proba_batch(x.view());
    assert_eq!(
        loaded.predict_proba_batch(x.view()).as_slice(),
        reference.as_slice(),
        "arena predictions diverged after round trip (seed {seed})"
    );
}

fn check_truncations(seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let forest = random_forest(&mut rng);
    let bytes = write_forest(&forest);
    // Every prefix length — subsumes truncation at every section boundary
    // and mid-section. Each must be a typed error, not a panic.
    for len in 0..bytes.len() {
        assert!(
            read_forest(&bytes[..len]).is_err(),
            "truncation to {len}/{} bytes decoded (seed {seed})",
            bytes.len()
        );
    }
    // Trailing garbage is corruption too: the slab must be exact.
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0u8; 7]);
    assert!(read_forest(&padded).is_err(), "trailing bytes accepted");
}

fn check_bit_flips(seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let forest = random_forest(&mut rng);
    let bytes = write_forest(&forest);
    for _ in 0..64 {
        let mut corrupt = bytes.clone();
        let n_flips = rng.gen_range(1..4usize);
        for _ in 0..n_flips {
            let at = rng.gen_range(0..corrupt.len());
            corrupt[at] ^= 1 << rng.gen_range(0..8u32);
        }
        if corrupt == bytes {
            continue; // flips cancelled each other out
        }
        assert!(
            read_forest(&corrupt).is_err(),
            "bit-flipped snapshot decoded (seed {seed})"
        );
    }
}

fn check_header_mutations(seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let forest = random_forest(&mut rng);
    let bytes = write_forest(&forest);

    // Wrong magic.
    let mut b = bytes.clone();
    b[0] = b'X';
    assert!(read_forest(&b).is_err());
    // Unsupported future version.
    let mut b = bytes.clone();
    b[8] = 0xFF;
    assert!(read_forest(&b).is_err());
    // Foreign endianness tag (a big-endian writer).
    let mut b = bytes.clone();
    b[10] = 0x12;
    b[11] = 0x34;
    assert!(read_forest(&b).is_err());
    // Kind confusion: a learner-stack slab is not a forest snapshot, even
    // though it carries structurally valid forest sections.
    let mut stack = SnapshotWriter::new(PayloadKind::LearnerStack);
    stack.push_forest(&forest);
    assert!(read_forest(&stack.finish()).is_err());
    // Over- and under-stated section count.
    for delta in [-1i64, 1] {
        let mut b = bytes.clone();
        let count = u32::from_le_bytes(b[16..20].try_into().unwrap());
        let tampered = (count as i64 + delta).max(0) as u32;
        b[16..20].copy_from_slice(&tampered.to_le_bytes());
        assert!(read_forest(&b).is_err(), "count {tampered} accepted");
    }
    // Over- and under-stated section lengths (first table entry; offset 12
    // within the 32-byte entry holds the u64 length).
    for delta in [-8i64, 8] {
        let mut b = bytes.clone();
        let at = 20 + 12;
        let len = u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let tampered = (len as i64 + delta).max(0) as u64;
        b[at..at + 8].copy_from_slice(&tampered.to_le_bytes());
        assert!(read_forest(&b).is_err(), "length {tampered} accepted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn clean_round_trips_are_bit_identical(seed in 0.0..1e9) {
        check_round_trip(seed as u64);
    }

    #[test]
    fn every_truncation_is_a_typed_error(seed in 0.0..1e9) {
        check_truncations(seed as u64);
    }

    #[test]
    fn random_bit_flips_are_typed_errors(seed in 0.0..1e9) {
        check_bit_flips(seed as u64);
    }

    #[test]
    fn header_and_table_mutations_are_typed_errors(seed in 0.0..1e9) {
        check_header_mutations(seed as u64);
    }
}

#[test]
fn empty_and_single_leaf_forests_round_trip() {
    let empty = Forest::new(3);
    let loaded = read_forest(&write_forest(&empty)).unwrap();
    assert_eq!(loaded.n_trees(), 0);
    assert_eq!(loaded.n_features(), 3);

    let mut single = Forest::new(1);
    single.push_raw_tree(&[RawNode::Leaf { value: 0.5 }]);
    let loaded = read_forest(&write_forest(&single)).unwrap();
    assert_eq!(loaded.predict_row(0, &[0.0]), 0.5);
}
