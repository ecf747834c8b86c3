//! Hand-rolled lane micro-kernels for the contiguous hot loops, written
//! once for both precision planes.
//!
//! The flat-matrix migration (PR 1) and the arena forests (PR 2) left every
//! numeric hot path streaming contiguous slices: the GP kernel matrix and
//! its Cholesky factorisation, SVM decision dots, scaler transforms, and
//! the per-learner reductions of the iWare-E stack. This module vectorises
//! those loops on **stable** Rust. Each kernel is generic over an
//! [`Element`] — `f64`, the training and default prediction plane, or
//! `f32`, the narrowed prediction plane — and runs on that element's lane
//! vector: [`F64x4`] (four `f64` lanes) or [`F32x8`] (eight `f32` lanes,
//! the same 256-bit register width). A lane vector is a plain array
//! wrapper whose lane-wise operations compile to packed SIMD (SSE2/AVX on
//! x86-64, NEON on aarch64) under LLVM's auto-vectoriser, with an explicit
//! scalar tail for lengths that are not lane multiples. Explicit lanes are
//! used exactly where they change semantics — the reductions, whose
//! accumulator must be split by hand because FP addition is not
//! associative; element-wise kernels are plain zips the compiler already
//! vectorises optimally (see [`axpy`]). Each kernel is monomorphised per
//! element, so both planes run exactly the operations a hand-written copy
//! for that type would.
//!
//! # Numerical contract
//!
//! Two kinds of kernels live here, with different parity guarantees:
//!
//! * **Element-wise kernels** (`add_assign`, `accumulate_sq_diff`,
//!   `div_assign`, `scale`, `standardize`, `axpy`) perform exactly the same
//!   operations per element as their scalar loops — results are
//!   **bit-identical**.
//! * **Reduction kernels** (`dot`, `sum`, `sum_squares`,
//!   `squared_distance`) split the accumulation across the lanes (lane `k`
//!   accumulates elements `k, k + N, k + 2N, …`), combine them pairwise
//!   (`(l0+l1) + (l2+l3)` on four lanes, the same tree on eight), then
//!   fold the scalar tail in sequentially. This reorders floating-point
//!   addition relative to a sequential fold, so results can differ from
//!   the scalar reference in the last few ulps (observed ≲ 1e-15 relative
//!   in f64 on standardised features). The golden parity suite
//!   (`tests/matrix_parity.rs`) pins the end-to-end effect. No FMA
//!   contraction is used — every product is rounded before it is added —
//!   so results are identical across targets with and without hardware
//!   FMA.
//!
//! Scalar references for the reduction kernels are kept as `*_scalar`
//! siblings; the tests in this module and `tests/simd_proptest.rs` check
//! lane-vs-scalar equivalence over every tail residue on both planes, and
//! the f32 kernels against the f64 kernels on widened inputs.
//!
//! # The f64 ↔ f32 boundary
//!
//! Training is always f64. [`narrow`] (round-to-nearest, saturating at
//! ±`f32::MAX`) takes a feature batch into the f32 plane and [`widen`]
//! (exact) brings its results back out; [`Element::into_f64_vec`] and
//! [`Element::to_f64`] are the same widening for generic code, and the
//! identity on f64.
//!
//! The GP's prediction kernel (`paws_ml::gp`) uses [`F64x4`] the other way
//! round: its lanes hold four query rows, and each lane repeats the
//! reduction order of [`dot`], [`squared_distance`] and [`sum_squares`]
//! with its own four partial sums, so a block of rows is bit-identical to
//! scoring each row alone with these kernels.

use std::fmt::Debug;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Sub};

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
    impl Sealed for super::F64x4 {}
    impl Sealed for super::F32x8 {}
}

/// The scalar of a prediction plane: `f64` or `f32` (sealed).
pub trait Element:
    sealed::Sealed
    + Copy
    + Default
    + Debug
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + MulAssign
    + DivAssign
    + Sum
    + for<'a> Sum<&'a Self>
{
    /// The lane vector the reduction kernels accumulate in.
    type Lanes: LaneVector<Elem = Self>;
    /// Positive zero.
    const ZERO: Self;
    /// `n` rounded to the nearest element (`n as Self`).
    fn from_usize(n: usize) -> Self;
    /// `v` rounded to the nearest element (`v as Self`; the identity on
    /// f64). For constants only: feature batches cross the boundary
    /// through [`narrow`].
    fn from_f64(v: f64) -> Self;
    /// Exact widening to f64 (the identity on f64).
    fn to_f64(self) -> f64;
    /// A buffer widened to f64: returned as is on f64, widened in one
    /// pass into a fresh buffer on f32.
    fn into_f64_vec(v: Vec<Self>) -> Vec<f64>;
}

impl Element for f64 {
    type Lanes = F64x4;
    const ZERO: Self = 0.0;
    #[inline(always)]
    fn from_usize(n: usize) -> Self {
        n as f64
    }
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn into_f64_vec(v: Vec<Self>) -> Vec<f64> {
        v
    }
}

impl Element for f32 {
    type Lanes = F32x8;
    const ZERO: Self = 0.0;
    #[inline(always)]
    fn from_usize(n: usize) -> Self {
        n as f32
    }
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    fn into_f64_vec(v: Vec<Self>) -> Vec<f64> {
        let mut out = vec![0.0; v.len()];
        widen(&v, &mut out);
        out
    }
}

/// A fixed-width vector of lanes, operated on element-wise (sealed:
/// [`F64x4`] and [`F32x8`]).
pub trait LaneVector:
    sealed::Sealed
    + Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
{
    /// The lane scalar.
    type Elem: Copy;
    /// Number of lanes.
    const N: usize;
    /// All lanes set to `v`.
    fn splat(v: Self::Elem) -> Self;
    /// Load `N` consecutive values from the head of `s`. The array
    /// conversion compiles to a single unaligned packed load (indexing the
    /// lanes separately leaves per-lane bounds checks that defeat
    /// vectorisation of read-modify-write kernels).
    ///
    /// # Panics
    /// Panics when `s` holds fewer than `N` elements.
    fn load(s: &[Self::Elem]) -> Self;
    /// Store the lanes into the head of `out` (single packed store).
    ///
    /// # Panics
    /// Panics when `out` holds fewer than `N` elements.
    fn store(self, out: &mut [Self::Elem]);
    /// Pairwise horizontal sum: `(l0 + l1) + (l2 + l3)` on four lanes, the
    /// same balanced tree on eight.
    fn horizontal_sum(self) -> Self::Elem;
}

macro_rules! lane_op {
    ($name:ident, $trait:ident, $method:ident, $op:tt, [$($i:literal),+]) => {
        impl std::ops::$trait for $name {
            type Output = $name;
            #[inline(always)]
            fn $method(self, o: $name) -> $name {
                $name([$(self.0[$i] $op o.0[$i]),+])
            }
        }
    };
}

macro_rules! lane_vector {
    ($(#[$doc:meta])* $name:ident: [$t:ty; $n:literal], lanes [$($i:literal),+],
     |$l:ident| $hsum:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        #[repr(transparent)]
        pub struct $name(pub [$t; $n]);

        impl LaneVector for $name {
            type Elem = $t;
            const N: usize = $n;

            #[inline(always)]
            fn splat(v: $t) -> Self {
                Self([v; $n])
            }

            #[inline(always)]
            fn load(s: &[$t]) -> Self {
                let lanes: &[$t; $n] = s[..$n].try_into().expect("lane load needs a full vector");
                Self(*lanes)
            }

            #[inline(always)]
            fn store(self, out: &mut [$t]) {
                let lanes: &mut [$t; $n] = (&mut out[..$n])
                    .try_into()
                    .expect("lane store needs a full vector");
                *lanes = self.0;
            }

            #[inline(always)]
            fn horizontal_sum(self) -> $t {
                let $l = self.0;
                $hsum
            }
        }

        lane_op!($name, Add, add, +, [$($i),+]);
        lane_op!($name, Sub, sub, -, [$($i),+]);
        lane_op!($name, Mul, mul, *, [$($i),+]);
        lane_op!($name, Div, div, /, [$($i),+]);
    };
}

lane_vector!(
    /// Four `f64` lanes, the f64 plane's reduction vector.
    F64x4: [f64; 4], lanes [0, 1, 2, 3],
    |l| (l[0] + l[1]) + (l[2] + l[3])
);

lane_vector!(
    /// Eight `f32` lanes, the f32 plane's reduction vector: one AVX
    /// register, like [`F64x4`], holding twice the lanes.
    F32x8: [f32; 8], lanes [0, 1, 2, 3, 4, 5, 6, 7],
    |l| ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
);

/// Dot product `Σ aᵢ·bᵢ` with lane accumulation.
///
/// # Panics
/// Debug-asserts equal lengths; out-of-bounds panics otherwise.
#[inline]
pub fn dot<T: Element>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    let lanes = T::Lanes::N;
    let mut acc = T::Lanes::splat(T::ZERO);
    let (a_body, a_tail) = a.split_at(a.len() - a.len() % lanes);
    let (b_body, b_tail) = b.split_at(a_body.len());
    for (ca, cb) in a_body.chunks_exact(lanes).zip(b_body.chunks_exact(lanes)) {
        acc = acc + T::Lanes::load(ca) * T::Lanes::load(cb);
    }
    let mut out = acc.horizontal_sum();
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        out += x * y;
    }
    out
}

/// Sequential scalar dot product (parity reference).
#[inline]
pub fn dot_scalar<T: Element>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Sum `Σ aᵢ` with lane accumulation.
#[inline]
pub fn sum<T: Element>(a: &[T]) -> T {
    let lanes = T::Lanes::N;
    let mut acc = T::Lanes::splat(T::ZERO);
    let (body, tail) = a.split_at(a.len() - a.len() % lanes);
    for c in body.chunks_exact(lanes) {
        acc = acc + T::Lanes::load(c);
    }
    let mut out = acc.horizontal_sum();
    for &x in tail {
        out += x;
    }
    out
}

/// Sequential scalar sum (parity reference).
#[inline]
pub fn sum_scalar<T: Element>(a: &[T]) -> T {
    a.iter().sum()
}

/// Sum of squares `Σ aᵢ²` with lane accumulation.
#[inline]
pub fn sum_squares<T: Element>(a: &[T]) -> T {
    let lanes = T::Lanes::N;
    let mut acc = T::Lanes::splat(T::ZERO);
    let (body, tail) = a.split_at(a.len() - a.len() % lanes);
    for c in body.chunks_exact(lanes) {
        let v = T::Lanes::load(c);
        acc = acc + v * v;
    }
    let mut out = acc.horizontal_sum();
    for &x in tail {
        out += x * x;
    }
    out
}

/// Squared Euclidean distance `Σ (aᵢ−bᵢ)²` with lane accumulation.
#[inline]
pub fn squared_distance<T: Element>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len());
    let lanes = T::Lanes::N;
    let mut acc = T::Lanes::splat(T::ZERO);
    let (a_body, a_tail) = a.split_at(a.len() - a.len() % lanes);
    let (b_body, b_tail) = b.split_at(a_body.len());
    for (ca, cb) in a_body.chunks_exact(lanes).zip(b_body.chunks_exact(lanes)) {
        let d = T::Lanes::load(ca) - T::Lanes::load(cb);
        acc = acc + d * d;
    }
    let mut out = acc.horizontal_sum();
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        out += (x - y) * (x - y);
    }
    out
}

/// True when every element is finite. Vectorised `Σ v·0` probe: the
/// product is `+0` for finite `v` and NaN for `±∞`/NaN, and NaN poisons
/// the lane sums — one multiply-add per element with no serial compare
/// chain.
#[inline]
pub fn all_finite<T: Element>(xs: &[T]) -> bool {
    let lanes = T::Lanes::N;
    let mut acc = T::Lanes::splat(T::ZERO);
    let zero = T::Lanes::splat(T::ZERO);
    let (body, tail) = xs.split_at(xs.len() - xs.len() % lanes);
    for c in body.chunks_exact(lanes) {
        acc = acc + T::Lanes::load(c) * zero;
    }
    let mut probe = acc.horizontal_sum();
    for &v in tail {
        probe += v * T::ZERO;
    }
    probe == T::ZERO
}

/// `y ← y + α·x`, element-wise (bit-identical to the scalar loop).
///
/// Element-wise kernels are deliberately written as plain zips: the
/// auto-vectoriser already emits packed code for them, and measured
/// hand-lane variants (struct round-trips or exact-chunk arrays) ran ~2×
/// slower at n = 4096. Explicit lanes are reserved for the reductions
/// above, where splitting the accumulator changes FP semantics and the
/// compiler cannot do it by itself.
#[inline]
pub fn axpy<T: Element>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// Sequential scalar axpy (parity reference). Written as an indexed loop
/// on purpose — independent of [`axpy`]'s zip formulation — so the
/// bit-identity proptest keeps meaning if `axpy` is ever rewritten with
/// explicit lanes.
#[inline]
pub fn axpy_scalar<T: Element>(alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len());
    for i in 0..y.len() {
        y[i] += alpha * x[i];
    }
}

/// `y ← y · α`, element-wise (bit-identical to the scalar loop; see
/// [`axpy`] on why element-wise kernels are plain auto-vectorised zips).
#[inline]
pub fn scale<T: Element>(y: &mut [T], alpha: T) {
    for yv in y.iter_mut() {
        *yv *= alpha;
    }
}

/// `y ← y / α`, element-wise division (bit-identical to `*yᵢ /= α`; unlike
/// multiplying by `1/α`, this keeps the exact scalar rounding).
#[inline]
pub fn div_assign<T: Element>(y: &mut [T], alpha: T) {
    for yv in y.iter_mut() {
        *yv /= alpha;
    }
}

/// `acc ← acc + x`, element-wise (bit-identical to the scalar loop).
#[inline]
pub fn add_assign<T: Element>(acc: &mut [T], x: &[T]) {
    debug_assert_eq!(acc.len(), x.len());
    for (av, &xv) in acc.iter_mut().zip(x) {
        *av += xv;
    }
}

/// `acc ← acc + (x − m)²`, element-wise (bit-identical): the member-spread
/// and scaler-variance accumulation step.
#[inline]
pub fn accumulate_sq_diff<T: Element>(acc: &mut [T], x: &[T], m: &[T]) {
    debug_assert_eq!(acc.len(), x.len());
    debug_assert_eq!(acc.len(), m.len());
    for ((av, &xv), &mv) in acc.iter_mut().zip(x).zip(m) {
        *av += (xv - mv) * (xv - mv);
    }
}

/// `row ← (row − m) / s`, element-wise (bit-identical): the z-score
/// transform of [`crate::StandardScaler`].
#[inline]
pub fn standardize<T: Element>(row: &mut [T], m: &[T], s: &[T]) {
    debug_assert_eq!(row.len(), m.len());
    debug_assert_eq!(row.len(), s.len());
    for ((rv, &mv), &sv) in row.iter_mut().zip(m).zip(s) {
        *rv = (*rv - mv) / sv;
    }
}

/// Narrow an `f64` slice into `out` (round-to-nearest per element,
/// **saturating** at ±`f32::MAX`). The boundary between the f64 training
/// world and the f32 prediction plane.
///
/// Saturation is what keeps the plane's finiteness contract aligned with
/// the f64 plane's: a finite f64 value beyond f32 range (a raw, unscaled
/// feature like 1e40) must stay finite — rounding it to `±inf` would trip
/// the traversal's `all_finite` guard on input the f64 plane accepts. A
/// saturated value still compares correctly against every in-range split
/// threshold, so predictions are unaffected.
#[inline]
pub fn narrow(src: &[f64], out: &mut [f32]) {
    debug_assert_eq!(src.len(), out.len());
    for (o, &v) in out.iter_mut().zip(src) {
        let x = v as f32;
        *o = if x.is_infinite() && v.is_finite() {
            f32::MAX.copysign(x)
        } else {
            x
        };
    }
}

/// Widen an `f32` slice into `out` (exact per element — every f32 is
/// representable in f64). The boundary back out of the prediction plane.
#[inline]
pub fn widen(src: &[f32], out: &mut [f64]) {
    debug_assert_eq!(src.len(), out.len());
    for (o, &v) in out.iter_mut().zip(src) {
        *o = f64::from(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `|a − b| ≤ tol · max(|a|, |b|, 1)`, compared in f64.
    fn close<T: Element>(a: T, b: T, tol: f64) -> bool {
        let (a, b) = (a.to_f64(), b.to_f64());
        (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
    }

    fn ramp<T: Element>(n: usize, phase: f64) -> Vec<T> {
        (0..n)
            .map(|i| T::from_f64(((i as f64 * 0.37 + phase).sin() * 2.5) - 0.3))
            .collect()
    }

    /// Lengths straddling every tail residue of both lane widths (three
    /// full f32 vectors) and a few long buffers.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..24).chain([31, 64, 100, 257])
    }

    fn reduction_kernels_match_scalar<T: Element>(tol: f64) {
        for n in lengths() {
            let a = ramp::<T>(n, 0.1);
            let b = ramp::<T>(n, 1.7);
            assert!(close(dot(&a, &b), dot_scalar(&a, &b), tol), "dot len {n}");
            assert!(close(sum(&a), sum_scalar(&a), tol), "sum len {n}");
            let sq: T = a.iter().map(|&x| x * x).sum();
            assert!(close(sum_squares(&a), sq, tol), "sum_squares len {n}");
            let dist: T = a.iter().zip(&b).map(|(&x, &y)| (x - y) * (x - y)).sum();
            assert!(close(squared_distance(&a, &b), dist, tol), "sqdist len {n}");
        }
    }

    #[test]
    fn reduction_kernels_match_scalar_over_all_tails() {
        reduction_kernels_match_scalar::<f64>(1e-12);
        reduction_kernels_match_scalar::<f32>(1e-4);
    }

    fn binary_label_sums_are_exact<T: Element>() {
        for n in [0usize, 1, 5, 33, 250] {
            let labels: Vec<T> = (0..n)
                .map(|i| T::from_usize(usize::from(i % 3 == 0)))
                .collect();
            assert_eq!(sum(&labels), sum_scalar(&labels));
            assert_eq!(sum(&labels), T::from_usize(n.div_ceil(3)));
        }
    }

    #[test]
    fn sum_of_binary_labels_is_exact_in_any_order() {
        // 0/1 sums are exact integers no matter how the lanes regroup them
        // (in f32 too: the counts stay far below 2²⁴).
        binary_label_sums_are_exact::<f64>();
        binary_label_sums_are_exact::<f32>();
    }

    fn elementwise_kernels_match_scalar<T: Element>() {
        for n in lengths() {
            let x = ramp::<T>(n, 0.4);
            let m = ramp::<T>(n, 2.2);
            let s: Vec<T> = ramp::<f64>(n, 3.0)
                .iter()
                .map(|v| T::from_f64(v.abs() + 0.5))
                .collect();
            let (alpha, factor, divisor) = (T::from_f64(0.77), T::from_f64(1.3), T::from_f64(3.0));

            let mut y_simd = ramp::<T>(n, 5.0);
            let mut y_ref = y_simd.clone();
            axpy(alpha, &x, &mut y_simd);
            axpy_scalar(alpha, &x, &mut y_ref);
            assert_eq!(y_simd, y_ref, "axpy len {n}");

            scale(&mut y_simd, factor);
            for v in y_ref.iter_mut() {
                *v *= factor;
            }
            assert_eq!(y_simd, y_ref, "scale len {n}");

            div_assign(&mut y_simd, divisor);
            for v in y_ref.iter_mut() {
                *v /= divisor;
            }
            assert_eq!(y_simd, y_ref, "div_assign len {n}");

            add_assign(&mut y_simd, &x);
            for (v, &xv) in y_ref.iter_mut().zip(&x) {
                *v += xv;
            }
            assert_eq!(y_simd, y_ref, "add_assign len {n}");

            accumulate_sq_diff(&mut y_simd, &x, &m);
            for ((v, &xv), &mv) in y_ref.iter_mut().zip(&x).zip(&m) {
                *v += (xv - mv) * (xv - mv);
            }
            assert_eq!(y_simd, y_ref, "accumulate_sq_diff len {n}");

            let mut r_simd = ramp::<T>(n, 6.0);
            let mut r_ref = r_simd.clone();
            standardize(&mut r_simd, &m, &s);
            for ((rv, &mv), &sv) in r_ref.iter_mut().zip(&m).zip(&s) {
                *rv = (*rv - mv) / sv;
            }
            assert_eq!(r_simd, r_ref, "standardize len {n}");
        }
    }

    #[test]
    fn elementwise_kernels_are_bit_identical_to_scalar() {
        elementwise_kernels_match_scalar::<f64>();
        elementwise_kernels_match_scalar::<f32>();
    }

    fn all_finite_detects_non_finite<T: Element>(bad: [T; 3]) {
        for n in 1..3 * T::Lanes::N {
            let base = ramp::<T>(n, 0.9);
            assert!(all_finite(&base), "finite len {n}");
            for b in bad {
                for pos in 0..n {
                    let mut xs = base.clone();
                    xs[pos] = b;
                    assert!(!all_finite(&xs), "len {n} pos {pos} {b:?}");
                }
            }
        }
        assert!(all_finite::<T>(&[]));
    }

    #[test]
    fn all_finite_detects_every_non_finite_lane_and_tail_position() {
        all_finite_detects_non_finite([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        all_finite_detects_non_finite([f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
    }

    #[test]
    fn division_kernel_is_not_reciprocal_multiplication() {
        // 1/3 is inexact: dividing must round like the scalar `/=`, not
        // like multiplying by a pre-rounded reciprocal.
        let mut y = vec![0.1, 0.2, 0.3, 0.4, 0.5];
        let reference: Vec<f64> = y.iter().map(|v| v / 3.0).collect();
        div_assign(&mut y, 3.0);
        assert_eq!(y, reference);
    }

    /// `a` against 2 under each lane op, then its horizontal sum.
    fn lane_ops_behave<T: Element>(a: &[T], expected: [&[T]; 4], total: T) {
        let (a, two) = (T::Lanes::load(a), T::Lanes::splat(T::from_f64(2.0)));
        let mut out = vec![T::ZERO; T::Lanes::N];
        for (got, want) in [a + two, a - two, a * two, a / two]
            .into_iter()
            .zip(expected)
        {
            got.store(&mut out);
            assert_eq!(out, want);
        }
        assert_eq!(a.horizontal_sum(), total);
    }

    #[test]
    fn lane_ops_behave_on_both_widths() {
        lane_ops_behave::<f64>(
            &[1.0, 2.0, 3.0, 4.0],
            [
                &[3.0, 4.0, 5.0, 6.0],
                &[-1.0, 0.0, 1.0, 2.0],
                &[2.0, 4.0, 6.0, 8.0],
                &[0.5, 1.0, 1.5, 2.0],
            ],
            10.0,
        );
        lane_ops_behave::<f32>(
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            [
                &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
                &[-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                &[2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0],
                &[0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0],
            ],
            36.0,
        );
    }

    #[test]
    fn widening_is_exact_and_the_identity_on_f64() {
        let wide: Vec<f64> = ramp(19, 0.2);
        let ptr = wide.as_ptr();
        let same = f64::into_f64_vec(wide);
        assert_eq!(same.as_ptr(), ptr, "f64 buffers pass through unchanged");
        let narrow32: Vec<f32> = ramp(19, 0.2);
        let widened = f32::into_f64_vec(narrow32.clone());
        for (w, n) in widened.iter().zip(&narrow32) {
            assert_eq!(*w, f64::from(*n));
            assert_eq!(*w, n.to_f64());
        }
    }

    #[test]
    fn narrow_then_widen_round_trips_within_half_ulp() {
        let src: Vec<f64> = (0..37).map(|i| (i as f64 * 0.731).sin() * 4.0).collect();
        let mut narrow_buf = vec![0.0f32; src.len()];
        narrow(&src, &mut narrow_buf);
        let mut wide_buf = vec![0.0f64; src.len()];
        widen(&narrow_buf, &mut wide_buf);
        for ((w, n), s) in wide_buf.iter().zip(&narrow_buf).zip(&src) {
            // One round-to-nearest narrowing: |w − s| ≤ ulp₃₂(s).
            assert!((w - s).abs() <= s.abs().max(1.0) * f64::from(f32::EPSILON));
            // Widening is exact: the f32 value survives bit-for-bit.
            assert_eq!(*w as f32, *n);
        }
    }

    #[test]
    fn narrow_saturates_out_of_range_finite_values() {
        let src = [
            1e40,
            -1e40,
            f64::MAX,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut out = vec![0.0f32; src.len()];
        narrow(&src, &mut out);
        // Finite-but-huge values clamp to the representable edge…
        assert_eq!(out[0], f32::MAX);
        assert_eq!(out[1], f32::MIN);
        assert_eq!(out[2], f32::MAX);
        assert_eq!(out[3], 1.5);
        // …while genuinely non-finite inputs stay non-finite, so the
        // traversal guard still rejects exactly what the f64 plane rejects.
        assert_eq!(out[4], f32::INFINITY);
        assert_eq!(out[5], f32::NEG_INFINITY);
        assert!(out[6].is_nan());
    }
}
