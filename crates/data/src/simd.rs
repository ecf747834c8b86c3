//! Hand-rolled `f64x4` micro-kernels for the contiguous hot loops.
//!
//! The flat-matrix migration (PR 1) and the arena forests (PR 2) left every
//! numeric hot path streaming contiguous `&[f64]`: the GP kernel matrix and
//! its Cholesky factorisation, SVM decision dots, scaler transforms, and
//! the per-learner reductions of the iWare-E stack. This module vectorises
//! those loops on **stable** Rust: [`F64x4`] is a plain
//! `[f64; 4]` wrapper whose lane-wise operations compile to packed SIMD
//! (SSE2/AVX on x86-64, NEON on aarch64) under LLVM's auto-vectoriser,
//! with an explicit scalar tail for lengths that are not lane multiples.
//! Explicit lanes are used exactly where they change semantics — the
//! reductions, whose accumulator must be split by hand because FP addition
//! is not associative; element-wise kernels are plain zips the compiler
//! already vectorises optimally (see [`axpy`]).
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
//!   `squared_distance`) split the accumulation across four lanes (lane
//!   `k` accumulates elements `k, k+4, k+8, …`), combine as
//!   `(l0+l1) + (l2+l3)`, then fold the scalar tail in sequentially. This
//!   reorders floating-point addition relative to a sequential fold, so
//!   results can differ from the scalar reference in the last few ulps
//!   (observed ≲ 1e-15 relative on standardised features). The golden
//!   parity suite (`tests/matrix_parity.rs`) pins the end-to-end effect to
//!   ≤ 1e-12. No FMA contraction is used — every product is rounded before
//!   it is added — so results are identical across targets with and
//!   without hardware FMA.
//!
//! Scalar references for the reduction kernels are kept as `*_scalar`
//! siblings; the proptest suite in this module checks SIMD-vs-scalar
//! equivalence over randomized lengths, including all tails `0..7`.
//!
//! The GP's prediction kernel (`paws_ml::gp`) uses [`F64x4`] the other way
//! round: its lanes hold four query rows, and each lane repeats the
//! reduction order of [`dot`], [`squared_distance`] and [`sum_squares`]
//! with its own four partial sums, so a block of rows is bit-identical to
//! scoring each row alone with these kernels.

/// Number of lanes per vector.
pub const LANES: usize = 4;

/// Four `f64` lanes, operated on element-wise.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Self([v; 4])
    }

    /// Load four consecutive values from the head of `s`. The array
    /// conversion compiles to a single unaligned packed load (indexing the
    /// lanes separately leaves per-lane bounds checks that defeat
    /// vectorisation of read-modify-write kernels).
    ///
    /// # Panics
    /// Panics when `s` holds fewer than four elements.
    #[inline(always)]
    pub fn load(s: &[f64]) -> Self {
        let lanes: &[f64; 4] = s[..4].try_into().expect("lane load needs 4 values");
        Self(*lanes)
    }

    /// Store the lanes into the head of `out` (single packed store).
    ///
    /// # Panics
    /// Panics when `out` holds fewer than four elements.
    #[inline(always)]
    pub fn store(self, out: &mut [f64]) {
        let lanes: &mut [f64; 4] = (&mut out[..4])
            .try_into()
            .expect("lane store needs 4 slots");
        *lanes = self.0;
    }

    /// Pairwise horizontal sum `(l0 + l1) + (l2 + l3)`.
    #[inline(always)]
    pub fn horizontal_sum(self) -> f64 {
        (self.0[0] + self.0[1]) + (self.0[2] + self.0[3])
    }
}

macro_rules! impl_lane_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl std::ops::$trait for F64x4 {
            type Output = F64x4;
            #[inline(always)]
            fn $method(self, o: F64x4) -> F64x4 {
                F64x4([
                    self.0[0] $op o.0[0],
                    self.0[1] $op o.0[1],
                    self.0[2] $op o.0[2],
                    self.0[3] $op o.0[3],
                ])
            }
        }
    };
}

impl_lane_op!(Add, add, +);
impl_lane_op!(Sub, sub, -);
impl_lane_op!(Mul, mul, *);
impl_lane_op!(Div, div, /);

/// Dot product `Σ aᵢ·bᵢ` with four-lane accumulation.
///
/// # Panics
/// Debug-asserts equal lengths; out-of-bounds panics otherwise.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = F64x4::splat(0.0);
    let (a4, a_tail) = a.split_at(a.len() - a.len() % LANES);
    let (b4, b_tail) = b.split_at(a4.len());
    for (ca, cb) in a4.chunks_exact(LANES).zip(b4.chunks_exact(LANES)) {
        acc = acc + F64x4::load(ca) * F64x4::load(cb);
    }
    let mut out = acc.horizontal_sum();
    for (x, y) in a_tail.iter().zip(b_tail) {
        out += x * y;
    }
    out
}

/// Sequential scalar dot product (parity reference).
#[inline]
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Sum `Σ aᵢ` with four-lane accumulation.
#[inline]
pub fn sum(a: &[f64]) -> f64 {
    let mut acc = F64x4::splat(0.0);
    let (a4, tail) = a.split_at(a.len() - a.len() % LANES);
    for c in a4.chunks_exact(LANES) {
        acc = acc + F64x4::load(c);
    }
    let mut out = acc.horizontal_sum();
    for x in tail {
        out += x;
    }
    out
}

/// Sequential scalar sum (parity reference).
#[inline]
pub fn sum_scalar(a: &[f64]) -> f64 {
    a.iter().sum()
}

/// Sum of squares `Σ aᵢ²` with four-lane accumulation.
#[inline]
pub fn sum_squares(a: &[f64]) -> f64 {
    let mut acc = F64x4::splat(0.0);
    let (a4, tail) = a.split_at(a.len() - a.len() % LANES);
    for c in a4.chunks_exact(LANES) {
        let v = F64x4::load(c);
        acc = acc + v * v;
    }
    let mut out = acc.horizontal_sum();
    for x in tail {
        out += x * x;
    }
    out
}

/// Squared Euclidean distance `Σ (aᵢ−bᵢ)²` with four-lane accumulation.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = F64x4::splat(0.0);
    let (a4, a_tail) = a.split_at(a.len() - a.len() % LANES);
    let (b4, b_tail) = b.split_at(a4.len());
    for (ca, cb) in a4.chunks_exact(LANES).zip(b4.chunks_exact(LANES)) {
        let d = F64x4::load(ca) - F64x4::load(cb);
        acc = acc + d * d;
    }
    let mut out = acc.horizontal_sum();
    for (x, y) in a_tail.iter().zip(b_tail) {
        out += (x - y) * (x - y);
    }
    out
}

/// True when every element is finite. Vectorised `Σ v·0` probe: the
/// product is `+0` for finite `v` and NaN for `±∞`/NaN, and NaN poisons
/// the lane sums — one multiply-add per element with no serial compare
/// chain.
#[inline]
pub fn all_finite(xs: &[f64]) -> bool {
    let mut acc = F64x4::splat(0.0);
    let zero = F64x4::splat(0.0);
    let (x4, tail) = xs.split_at(xs.len() - xs.len() % LANES);
    for c in x4.chunks_exact(LANES) {
        acc = acc + F64x4::load(c) * zero;
    }
    let mut probe = acc.horizontal_sum();
    for v in tail {
        probe += v * 0.0;
    }
    probe == 0.0
}

/// `y ← y + α·x`, element-wise (bit-identical to the scalar loop).
///
/// Element-wise kernels are deliberately written as plain zips: the
/// auto-vectoriser already emits packed code for them, and measured
/// hand-lane variants (struct round-trips or exact-chunk arrays) ran ~2×
/// slower at n = 4096. Explicit `F64x4` lanes are reserved for the
/// reductions above, where splitting the accumulator changes FP semantics
/// and the compiler cannot do it by itself.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// Sequential scalar axpy (parity reference). Written as an indexed loop
/// on purpose — independent of [`axpy`]'s zip formulation — so the
/// bit-identity proptest keeps meaning if `axpy` is ever rewritten with
/// explicit lanes.
#[inline]
pub fn axpy_scalar(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    for i in 0..y.len() {
        y[i] += alpha * x[i];
    }
}

/// `y ← y · α`, element-wise (bit-identical to the scalar loop; see
/// [`axpy`] on why element-wise kernels are plain auto-vectorised zips).
#[inline]
pub fn scale(y: &mut [f64], alpha: f64) {
    for yv in y.iter_mut() {
        *yv *= alpha;
    }
}

/// `y ← y / α`, element-wise division (bit-identical to `*yᵢ /= α`; unlike
/// multiplying by `1/α`, this keeps the exact scalar rounding).
#[inline]
pub fn div_assign(y: &mut [f64], alpha: f64) {
    for yv in y.iter_mut() {
        *yv /= alpha;
    }
}

/// `acc ← acc + x`, element-wise (bit-identical to the scalar loop).
#[inline]
pub fn add_assign(acc: &mut [f64], x: &[f64]) {
    debug_assert_eq!(acc.len(), x.len());
    for (av, xv) in acc.iter_mut().zip(x) {
        *av += xv;
    }
}

/// `acc ← acc + (x − m)²`, element-wise (bit-identical): the member-spread
/// and scaler-variance accumulation step.
#[inline]
pub fn accumulate_sq_diff(acc: &mut [f64], x: &[f64], m: &[f64]) {
    debug_assert_eq!(acc.len(), x.len());
    debug_assert_eq!(acc.len(), m.len());
    for ((av, xv), mv) in acc.iter_mut().zip(x).zip(m) {
        *av += (xv - mv) * (xv - mv);
    }
}

/// `row ← (row − m) / s`, element-wise (bit-identical): the z-score
/// transform of [`crate::StandardScaler`].
#[inline]
pub fn standardize(row: &mut [f64], m: &[f64], s: &[f64]) {
    debug_assert_eq!(row.len(), m.len());
    debug_assert_eq!(row.len(), s.len());
    for ((rv, mv), sv) in row.iter_mut().zip(m).zip(s) {
        *rv = (*rv - mv) / sv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
    }

    fn ramp(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64 * 0.37 + phase).sin() * 2.5) - 0.3)
            .collect()
    }

    #[test]
    fn reduction_kernels_match_scalar_over_all_tails() {
        // Lengths straddling every tail residue 0..7 and a long buffer.
        for n in (0..16).chain([31, 64, 100, 257]) {
            let a = ramp(n, 0.1);
            let b = ramp(n, 1.7);
            assert!(close(dot(&a, &b), dot_scalar(&a, &b)), "dot len {n}");
            assert!(close(sum(&a), sum_scalar(&a)), "sum len {n}");
            assert!(
                close(sum_squares(&a), a.iter().map(|x| x * x).sum()),
                "sum_squares len {n}"
            );
            let sq: f64 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
            assert!(close(squared_distance(&a, &b), sq), "sqdist len {n}");
        }
    }

    #[test]
    fn sum_of_binary_labels_is_exact_in_any_order() {
        // 0/1 sums are exact integers no matter how the lanes regroup
        // them.
        for n in [0, 1, 5, 33, 250] {
            let labels: Vec<f64> = (0..n).map(|i| f64::from(u8::from(i % 3 == 0))).collect();
            assert_eq!(sum(&labels), sum_scalar(&labels));
            assert_eq!(
                sum(&labels),
                labels.iter().filter(|&&l| l == 1.0).count() as f64
            );
        }
    }

    #[test]
    fn elementwise_kernels_are_bit_identical_to_scalar() {
        for n in 0..13 {
            let x = ramp(n, 0.4);
            let m = ramp(n, 2.2);
            let s: Vec<f64> = ramp(n, 3.0).iter().map(|v| v.abs() + 0.5).collect();

            let mut y_simd = ramp(n, 5.0);
            let mut y_ref = y_simd.clone();
            axpy(0.77, &x, &mut y_simd);
            axpy_scalar(0.77, &x, &mut y_ref);
            assert_eq!(y_simd, y_ref, "axpy len {n}");

            scale(&mut y_simd, 1.3);
            for v in y_ref.iter_mut() {
                *v *= 1.3;
            }
            assert_eq!(y_simd, y_ref, "scale len {n}");

            div_assign(&mut y_simd, 3.0);
            for v in y_ref.iter_mut() {
                *v /= 3.0;
            }
            assert_eq!(y_simd, y_ref, "div_assign len {n}");

            add_assign(&mut y_simd, &x);
            for (v, xv) in y_ref.iter_mut().zip(&x) {
                *v += xv;
            }
            assert_eq!(y_simd, y_ref, "add_assign len {n}");

            accumulate_sq_diff(&mut y_simd, &x, &m);
            for ((v, xv), mv) in y_ref.iter_mut().zip(&x).zip(&m) {
                *v += (xv - mv) * (xv - mv);
            }
            assert_eq!(y_simd, y_ref, "accumulate_sq_diff len {n}");

            let mut r_simd = ramp(n, 6.0);
            let mut r_ref = r_simd.clone();
            standardize(&mut r_simd, &m, &s);
            for ((rv, mv), sv) in r_ref.iter_mut().zip(&m).zip(&s) {
                *rv = (*rv - mv) / sv;
            }
            assert_eq!(r_simd, r_ref, "standardize len {n}");
        }
    }

    #[test]
    fn all_finite_detects_every_non_finite_lane_and_tail_position() {
        for n in 1..11 {
            let base = ramp(n, 0.9);
            assert!(all_finite(&base), "finite len {n}");
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for pos in 0..n {
                    let mut xs = base.clone();
                    xs[pos] = bad;
                    assert!(!all_finite(&xs), "len {n} pos {pos} {bad}");
                }
            }
        }
        assert!(all_finite(&[]));
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

    #[test]
    fn lane_ops_behave() {
        let a = F64x4::load(&[1.0, 2.0, 3.0, 4.0]);
        let b = F64x4::splat(2.0);
        assert_eq!((a + b).0, [3.0, 4.0, 5.0, 6.0]);
        assert_eq!((a - b).0, [-1.0, 0.0, 1.0, 2.0]);
        assert_eq!((a * b).0, [2.0, 4.0, 6.0, 8.0]);
        assert_eq!((a / b).0, [0.5, 1.0, 1.5, 2.0]);
        assert_eq!(a.horizontal_sum(), 10.0);
        let mut out = [0.0; 4];
        a.store(&mut out);
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
    }
}
