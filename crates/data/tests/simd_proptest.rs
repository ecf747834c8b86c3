//! Property tests for the lane kernels, on both precision planes: the
//! `f64x4` and `f32x8` instantiations of every reduction agree with their
//! sequential scalar references over randomized contents and lengths, and
//! every scalar-tail residue (`0..8` for f64, `0..16` for f32) is exercised
//! on every case — the tail loop is where a lane-split kernel classically
//! goes wrong.
//!
//! * Reduction kernels (`dot`, `sum`, `sum_squares`, `squared_distance`)
//!   regroup the accumulation across lanes, so they are compared within a
//!   per-plane relative envelope (1e-12 in f64, 1e-4 in f32).
//! * The element-wise kernel (`axpy`) must be **bit-identical** to its
//!   scalar loop on both planes.
//! * Cross-plane: every f32 kernel agrees with the f64 kernel evaluated on
//!   the same (widened) inputs within `n · ε₃₂`-scaled bounds — the
//!   property that lets the f32 prediction plane document a divergence
//!   bound at all.
//! * The f64 ↔ f32 boundary: narrowing is round-to-nearest and widening
//!   exact.

use paws_data::simd::{self, Element, LaneVector};
use proptest::prelude::*;

/// Deterministic pseudo-random vector derived from the sampled phase,
/// computed in the plane's own precision.
fn wave<T: Element>(n: usize, freq: f64, phase: f64) -> Vec<T> {
    (0..n)
        .map(|i| T::from_f64(((i as f64 * freq + phase).sin() * 3.0) - 0.7))
        .collect()
}

fn widen(xs: &[f32]) -> Vec<f64> {
    xs.iter().map(|&v| f64::from(v)).collect()
}

fn close<T: Element>(a: T, b: T, tol: f64) -> bool {
    let (a, b) = (a.to_f64(), b.to_f64());
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// f32 result vs f64 reference: an f32 kernel over `n` elements carries at
/// most ~n rounding steps of 2⁻²⁴ each on the accumulator.
fn close_cross(a32: f32, a64: f64, n: usize) -> bool {
    let scale = a64.abs().max(1.0);
    (f64::from(a32) - a64).abs() <= (n as f64 + 8.0) * f64::from(f32::EPSILON) * scale
}

/// Lengths `base + tail` for every tail residue of `T`'s lane count.
fn tail_lengths<T: Element>(base: f64) -> impl Iterator<Item = usize> {
    (0..2 * T::Lanes::N).map(move |tail| base as usize + tail)
}

fn reductions_match_scalar<T: Element>(base: f64, phase: f64, tol: f64) {
    for n in tail_lengths::<T>(base) {
        let a = wave::<T>(n, 0.731, phase);
        let b = wave::<T>(n, 1.137, phase + 1.3);
        let sq_ref: T = a.iter().map(|&x| x * x).sum();
        let dist_ref: T = a.iter().zip(&b).map(|(&x, &y)| (x - y) * (x - y)).sum();
        for (what, lanes, scalar) in [
            ("dot", simd::dot(&a, &b), simd::dot_scalar(&a, &b)),
            ("sum", simd::sum(&a), simd::sum_scalar(&a)),
            ("sum_squares", simd::sum_squares(&a), sq_ref),
            ("squared_distance", simd::squared_distance(&a, &b), dist_ref),
        ] {
            assert!(
                close(lanes, scalar, tol),
                "{what} len {n}: {lanes:?} vs {scalar:?}"
            );
        }
    }
}

fn axpy_matches_scalar<T: Element>(base: f64, phase: f64, alpha: f64) -> bool {
    tail_lengths::<T>(base).all(|n| {
        let x = wave::<T>(n, 0.919, phase);
        let mut y_simd = wave::<T>(n, 1.373, phase + 0.4);
        let mut y_ref = y_simd.clone();
        simd::axpy(T::from_f64(alpha), &x, &mut y_simd);
        simd::axpy_scalar(T::from_f64(alpha), &x, &mut y_ref);
        y_simd == y_ref
    })
}

fn label_sums_are_exact<T: Element>(base: f64, phase: f64) -> bool {
    let n = base as usize;
    let labels: Vec<T> = (0..n)
        .map(|i| T::from_usize(usize::from(((i as f64 * 0.37 + phase).sin()) > 0.2)))
        .collect();
    let expected = T::from_usize(labels.iter().filter(|&&l| l == T::from_usize(1)).count());
    simd::sum(&labels) == expected && simd::sum(&labels) == simd::sum_scalar(&labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reduction_kernels_match_scalar_over_all_tail_residues(
        base in 0.0..96.0f64,
        phase in 0.0..6.2f64,
    ) {
        reductions_match_scalar::<f64>(base, phase, 1e-12);
        reductions_match_scalar::<f32>(base, phase, 1e-4);
    }

    #[test]
    fn f32_kernels_track_the_f64_kernels_on_widened_inputs(
        base in 0.0..96.0f64,
        phase in 0.0..6.2f64,
    ) {
        // The cross-plane contract: each f32 kernel is the f64 kernel plus
        // bounded single-precision rounding.
        for tail in [0usize, 3, 7, 11, 15] {
            let n = base as usize + tail;
            let a = wave::<f32>(n, 0.919, phase);
            let b = wave::<f32>(n, 1.373, phase + 0.4);
            let (wa, wb) = (widen(&a), widen(&b));

            prop_assert!(close_cross(simd::dot(&a, &b), simd::dot(&wa, &wb), n), "dot len {n}");
            prop_assert!(close_cross(simd::sum(&a), simd::sum(&wa), n), "sum len {n}");
            prop_assert!(
                close_cross(simd::sum_squares(&a), simd::sum_squares(&wa), n),
                "sum_squares len {n}"
            );
            prop_assert!(
                close_cross(simd::squared_distance(&a, &b), simd::squared_distance(&wa, &wb), n),
                "squared_distance len {n}"
            );

            // Element-wise: axpy in f32 vs f64, element by element.
            let mut y32 = wave::<f32>(n, 0.611, phase + 2.0);
            let mut y64 = widen(&y32);
            simd::axpy(0.77f32, &a, &mut y32);
            simd::axpy(f64::from(0.77f32), &wa, &mut y64);
            for (v32, v64) in y32.iter().zip(&y64) {
                prop_assert!(
                    (f64::from(*v32) - v64).abs()
                        <= 4.0 * f64::from(f32::EPSILON) * v64.abs().max(1.0),
                    "axpy element diverged: {v32} vs {v64}"
                );
            }
        }
    }

    #[test]
    fn axpy_is_bit_identical_to_scalar_over_all_tail_residues(
        base in 0.0..96.0f64,
        phase in 0.0..6.2f64,
        alpha in -2.5..2.5f64,
    ) {
        prop_assert!(axpy_matches_scalar::<f64>(base, phase, alpha), "f64 axpy diverged");
        prop_assert!(axpy_matches_scalar::<f32>(base, phase, alpha), "f32 axpy diverged");
    }

    #[test]
    fn binary_label_sums_are_exact_for_any_length(base in 0.0..512.0f64, phase in 0.0..6.2f64) {
        // 0/1 sums are exact integers regardless of lane regrouping (in f32
        // too: the counts stay far below 2²⁴, the f32 integer limit).
        prop_assert!(label_sums_are_exact::<f64>(base, phase));
        prop_assert!(label_sums_are_exact::<f32>(base, phase));
    }

    #[test]
    fn narrow_widen_round_trip_preserves_f32_values(
        base in 0.0..64.0f64,
        phase in 0.0..6.2f64,
    ) {
        let n = base as usize + 5;
        let src: Vec<f64> = (0..n).map(|i| ((i as f64 * 0.547 + phase).sin()) * 40.0).collect();
        let mut narrowed = vec![0.0f32; n];
        simd::narrow(&src, &mut narrowed);
        let mut widened = vec![0.0f64; n];
        simd::widen(&narrowed, &mut widened);
        for ((s, nv), w) in src.iter().zip(&narrowed).zip(&widened) {
            prop_assert!((*s as f32) == *nv, "narrow is round-to-nearest");
            prop_assert!(f64::from(*nv) == *w, "widen is exact");
            prop_assert!((w - s).abs() <= s.abs().max(1.0) * f64::from(f32::EPSILON));
        }
    }
}
