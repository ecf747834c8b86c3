//! Property tests: the `f64x4` reduction kernels agree with their
//! sequential scalar references over randomized contents and lengths, and
//! every scalar-tail residue `0..8` is exercised on every case (the tail
//! loop is where a lane-split kernel classically goes wrong).
//!
//! Reduction kernels (`dot`, `sum`, `sum_squares`, `squared_distance`)
//! regroup the accumulation across lanes, so they are compared within the
//! documented ≤ 1e-12 relative envelope; the element-wise kernel (`axpy`)
//! must be **bit-identical** to its scalar loop.

use paws_data::simd;
use proptest::prelude::*;

/// Deterministic pseudo-random vector derived from the sampled phase.
fn wave(n: usize, freq: f64, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 * freq + phase).sin() * 3.0) - 0.7)
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reduction_kernels_match_scalar_over_all_tail_residues(
        base in 0.0..96.0f64,
        phase in 0.0..6.2f64,
    ) {
        // Cover every tail residue 0..8 around the sampled base length
        // (lengths 0..7 themselves appear when base < 1).
        for tail in 0..8usize {
            let n = base as usize + tail;
            let a = wave(n, 0.731, phase);
            let b = wave(n, 1.137, phase + 1.3);

            prop_assert!(
                close(simd::dot(&a, &b), simd::dot_scalar(&a, &b)),
                "dot len {n}"
            );
            prop_assert!(
                close(simd::sum(&a), simd::sum_scalar(&a)),
                "sum len {n}"
            );
            let sq_ref: f64 = a.iter().map(|x| x * x).sum();
            prop_assert!(close(simd::sum_squares(&a), sq_ref), "sum_squares len {n}");
            let dist_ref: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            prop_assert!(
                close(simd::squared_distance(&a, &b), dist_ref),
                "squared_distance len {n}"
            );
        }
    }

    #[test]
    fn axpy_is_bit_identical_to_scalar_over_all_tail_residues(
        base in 0.0..96.0f64,
        phase in 0.0..6.2f64,
        alpha in -2.5..2.5f64,
    ) {
        for tail in 0..8usize {
            let n = base as usize + tail;
            let x = wave(n, 0.919, phase);
            let mut y_simd = wave(n, 1.373, phase + 0.4);
            let mut y_ref = y_simd.clone();
            simd::axpy(alpha, &x, &mut y_simd);
            simd::axpy_scalar(alpha, &x, &mut y_ref);
            prop_assert!(y_simd == y_ref, "axpy len {n} diverged");
        }
    }

    #[test]
    fn binary_label_sums_are_exact_for_any_length(base in 0.0..512.0f64, phase in 0.0..6.2f64) {
        // 0/1 sums are exact integers regardless of lane regrouping.
        let n = base as usize;
        let labels: Vec<f64> = (0..n)
            .map(|i| f64::from(u8::from(((i as f64 * 0.37 + phase).sin()) > 0.2)))
            .collect();
        let expected = labels.iter().filter(|&&l| l == 1.0).count() as f64;
        prop_assert!(simd::sum(&labels) == expected);
        prop_assert!(simd::sum(&labels) == simd::sum_scalar(&labels));
    }
}
