//! Piecewise-linear approximation of black-box effort-response functions.
//!
//! Sec. VI-B: "piecewise linear (PWL) approximations to these functions g_v
//! are constructed using m × N sampled points", which turns the black-box
//! machine-learning predictions into something the planner can optimise
//! exactly (through each function's concave envelope). The same
//! construction is applied to the uncertainty functions ν_v in Sec. VI-C.

/// Errors from the checked PWL constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PwlError {
    /// No curve: fewer than two breakpoints (including the fully empty
    /// case, where `eval`/`domain` would have hit `xs.last().unwrap()`),
    /// or an empty sampling interval.
    Empty,
    /// Breakpoint coordinate vectors differ in length.
    LengthMismatch,
    /// Breakpoint x values are not strictly ascending.
    NotAscending,
    /// A sampled value is NaN or infinite.
    NonFinite,
}

impl std::fmt::Display for PwlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PwlError::Empty => write!(f, "piecewise-linear curve needs at least two breakpoints"),
            PwlError::LengthMismatch => write!(f, "breakpoint coordinate length mismatch"),
            PwlError::NotAscending => {
                write!(f, "breakpoint x values must be strictly ascending")
            }
            PwlError::NonFinite => write!(f, "sampled values must be finite"),
        }
    }
}

impl std::error::Error for PwlError {}

/// A piecewise-linear function defined by ascending breakpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct PwlFunction {
    /// Breakpoint x-coordinates, strictly ascending.
    xs: Vec<f64>,
    /// Breakpoint y-coordinates.
    ys: Vec<f64>,
}

impl PwlFunction {
    /// Checked construction from breakpoints: an empty (or single-point)
    /// curve is a [`PwlError::Empty`] instead of a later
    /// `xs.last().unwrap()` panic inside `eval`/`domain`.
    pub fn try_new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, PwlError> {
        if xs.len() < 2 {
            return Err(PwlError::Empty);
        }
        if xs.len() != ys.len() {
            return Err(PwlError::LengthMismatch);
        }
        if !xs.windows(2).all(|w| w[1] > w[0]) {
            return Err(PwlError::NotAscending);
        }
        Ok(Self { xs, ys })
    }

    /// Build from breakpoints.
    ///
    /// # Panics
    /// Panics when fewer than two breakpoints are given or the x values are
    /// not strictly ascending; use [`PwlFunction::try_new`] to handle these
    /// as errors.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Self {
        Self::try_new(xs, ys).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sample a black-box function at `segments + 1` evenly spaced points on
    /// `[lo, hi]` and return its PWL approximation. A degenerate request
    /// (zero segments or an empty interval) is a [`PwlError::Empty`], and a
    /// NaN or infinite sample is a [`PwlError::NonFinite`].
    pub fn try_from_samples(
        lo: f64,
        hi: f64,
        segments: usize,
        f: impl Fn(f64) -> f64,
    ) -> Result<Self, PwlError> {
        // `hi > lo` must hold; the negation (rather than `hi <= lo`) also
        // rejects NaN bounds, which are incomparable.
        let interval_ok = hi > lo;
        if segments < 1 || !interval_ok {
            return Err(PwlError::Empty);
        }
        let xs: Vec<f64> = (0..=segments)
            .map(|i| lo + (hi - lo) * i as f64 / segments as f64)
            .collect();
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        if !ys.iter().all(|y| y.is_finite()) {
            return Err(PwlError::NonFinite);
        }
        Self::try_new(xs, ys)
    }

    /// Breakpoint x-coordinates.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Breakpoint y-coordinates.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Number of linear segments.
    pub fn n_segments(&self) -> usize {
        self.xs.len() - 1
    }

    /// Evaluate by linear interpolation; clamps outside the domain.
    pub fn eval(&self, x: f64) -> f64 {
        interpolate(&self.xs, &self.ys, x)
    }

    /// True when the function is concave (segment slopes non-increasing),
    /// in which case the planner maximises it exactly.
    pub fn is_concave(&self, tol: f64) -> bool {
        let slopes: Vec<f64> = self
            .xs
            .windows(2)
            .zip(self.ys.windows(2))
            .map(|(x, y)| (y[1] - y[0]) / (x[1] - x[0]))
            .collect();
        slopes.windows(2).all(|w| w[1] <= w[0] + tol)
    }

    /// The upper concave envelope of the function over its breakpoints: the
    /// tightest concave PWL function that dominates it. The planner
    /// optimises this in place of every non-concave utility, so an
    /// allocation plan is an exact greedy fill and a flow plan a linear
    /// program; the paper's exact SOS2 encoding of the non-concave pieces
    /// is not implemented.
    pub fn concave_envelope(&self) -> PwlFunction {
        // Upper convex hull of the breakpoints (Andrew's monotone chain on
        // the upper side), then re-evaluate at the original x grid.
        let pts: Vec<(f64, f64)> = self
            .xs
            .iter()
            .copied()
            .zip(self.ys.iter().copied())
            .collect();
        let mut hull: Vec<(f64, f64)> = Vec::with_capacity(pts.len());
        for &p in &pts {
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                // Keep b only if it lies strictly above the chord a→p.
                let cross = (b.0 - a.0) * (p.1 - a.1) - (b.1 - a.1) * (p.0 - a.0);
                if cross >= 0.0 {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(p);
        }
        let hull_fn = PwlFunction::new(
            hull.iter().map(|p| p.0).collect(),
            hull.iter().map(|p| p.1).collect(),
        );
        let ys = self.xs.iter().map(|&x| hull_fn.eval(x)).collect();
        PwlFunction::new(self.xs.clone(), ys)
    }

    /// Pointwise combination of two PWL functions sharing the same
    /// breakpoints: `h(x) = f(x) ⊗ g(x)` evaluated at the breakpoints.
    pub fn combine(&self, other: &PwlFunction, op: impl Fn(f64, f64) -> f64) -> PwlFunction {
        assert_eq!(self.xs, other.xs, "combine requires identical breakpoints");
        let ys = self
            .ys
            .iter()
            .zip(&other.ys)
            .map(|(&a, &b)| op(a, b))
            .collect();
        PwlFunction::new(self.xs.clone(), ys)
    }
}

/// Linear interpolation through the breakpoints `(xs, ys)`, clamped to the
/// end values outside `[xs[0], xs[n-1]]`: [`PwlFunction::eval`] on borrowed
/// breakpoints, which must hold at least two strictly ascending `xs` and
/// one `ys` per `xs`.
pub(crate) fn interpolate(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    if x <= xs[0] {
        return ys[0];
    }
    if x >= *xs.last().unwrap() {
        return *ys.last().unwrap();
    }
    // Binary search for the segment containing x.
    let mut lo = 0usize;
    let mut hi = xs.len() - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if xs[mid] <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t = (x - xs[lo]) / (xs[hi] - xs[lo]);
    ys[lo] * (1.0 - t) + ys[hi] * t
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn evaluates_exactly_at_breakpoints() {
        let f = PwlFunction::new(vec![0.0, 1.0, 3.0], vec![0.0, 2.0, 1.0]);
        assert_eq!(f.eval(0.0), 0.0);
        assert_eq!(f.eval(1.0), 2.0);
        assert_eq!(f.eval(3.0), 1.0);
    }

    #[test]
    fn interpolates_linearly_between_breakpoints() {
        let f = PwlFunction::new(vec![0.0, 2.0], vec![0.0, 4.0]);
        assert!((f.eval(0.5) - 1.0).abs() < 1e-12);
        assert!((f.eval(1.5) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn clamps_outside_domain() {
        let f = PwlFunction::new(vec![1.0, 2.0], vec![3.0, 5.0]);
        assert_eq!(f.eval(0.0), 3.0);
        assert_eq!(f.eval(10.0), 5.0);
    }

    #[test]
    fn from_samples_matches_function_at_breakpoints() {
        let f = PwlFunction::try_from_samples(0.0, 4.0, 8, |x| 1.0 - (-x).exp()).unwrap();
        assert_eq!(f.n_segments(), 8);
        for (&x, &y) in f.xs().iter().zip(f.ys()) {
            assert!((y - (1.0 - (-x).exp())).abs() < 1e-12);
        }
    }

    #[test]
    fn concavity_detection() {
        let concave = PwlFunction::try_from_samples(0.0, 4.0, 10, |x| 1.0 - (-x).exp()).unwrap();
        assert!(concave.is_concave(1e-9));
        let non_concave = PwlFunction::new(vec![0.0, 1.0, 2.0], vec![0.0, 0.1, 1.0]);
        assert!(!non_concave.is_concave(1e-9));
    }

    #[test]
    fn combine_multiplies_pointwise() {
        let g = PwlFunction::new(vec![0.0, 1.0, 2.0], vec![0.0, 0.5, 1.0]);
        let v = PwlFunction::new(vec![0.0, 1.0, 2.0], vec![1.0, 0.5, 0.2]);
        let u = g.combine(&v, |a, b| a - 0.5 * a * b);
        assert!((u.eval(2.0) - (1.0 - 0.5 * 1.0 * 0.2)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_non_monotone_breakpoints() {
        PwlFunction::new(vec![0.0, 0.0, 1.0], vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn try_new_reports_empty_curves_instead_of_panicking() {
        // Regression: an empty curve used to surface as an
        // `xs.last().unwrap()` panic inside eval/domain; the checked
        // constructor catches it at the boundary.
        assert_eq!(PwlFunction::try_new(vec![], vec![]), Err(PwlError::Empty));
        assert_eq!(
            PwlFunction::try_new(vec![1.0], vec![2.0]),
            Err(PwlError::Empty)
        );
        assert_eq!(
            PwlFunction::try_new(vec![0.0, 1.0], vec![0.0]),
            Err(PwlError::LengthMismatch)
        );
        assert_eq!(
            PwlFunction::try_new(vec![1.0, 1.0], vec![0.0, 0.0]),
            Err(PwlError::NotAscending)
        );
        let f = PwlFunction::try_new(vec![0.0, 1.0], vec![0.0, 2.0]).unwrap();
        assert_eq!(f.eval(0.5), 1.0);
    }

    #[test]
    fn try_from_samples_rejects_degenerate_requests() {
        assert_eq!(
            PwlFunction::try_from_samples(0.0, 0.0, 4, |x| x).err(),
            Some(PwlError::Empty)
        );
        assert_eq!(
            PwlFunction::try_from_samples(2.0, 1.0, 4, |x| x).err(),
            Some(PwlError::Empty)
        );
        assert_eq!(
            PwlFunction::try_from_samples(0.0, 1.0, 0, |x| x).err(),
            Some(PwlError::Empty)
        );
        assert!(PwlFunction::try_from_samples(0.0, 1.0, 4, |x| x).is_ok());
        assert!(PwlError::Empty.to_string().contains("two breakpoints"));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                PwlFunction::try_from_samples(0.0, 1.0, 4, |x| if x == 0.5 { bad } else { x })
                    .err(),
                Some(PwlError::NonFinite)
            );
        }
    }

    #[test]
    fn concave_envelope_of_concave_function_is_itself() {
        let f = PwlFunction::try_from_samples(0.0, 4.0, 10, |x| 1.0 - (-x).exp()).unwrap();
        let env = f.concave_envelope();
        for (&a, &b) in f.ys().iter().zip(env.ys()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn concave_envelope_dominates_and_is_concave() {
        let f = PwlFunction::new(vec![0.0, 1.0, 2.0, 3.0, 4.0], vec![0.0, 0.1, 0.9, 0.5, 1.0]);
        let env = f.concave_envelope();
        assert!(env.is_concave(1e-9));
        for (&orig, &e) in f.ys().iter().zip(env.ys()) {
            assert!(e >= orig - 1e-12, "envelope must dominate the function");
        }
        // Endpoints are preserved.
        assert_eq!(env.eval(0.0), 0.0);
        assert_eq!(env.eval(4.0), 1.0);
    }

    proptest! {
        #[test]
        fn eval_stays_within_breakpoint_range(x in -10.0..10.0f64) {
            let f = PwlFunction::new(vec![0.0, 1.0, 2.0, 5.0], vec![0.1, 0.9, 0.4, 0.6]);
            let y = f.eval(x);
            prop_assert!((0.1 - 1e-12..=0.9 + 1e-12).contains(&y));
        }

        #[test]
        fn sampled_approximation_is_close_for_smooth_functions(x in 0.0..4.0f64) {
            let f =
                PwlFunction::try_from_samples(0.0, 4.0, 40, |x| 1.0 - (-1.3 * x).exp()).unwrap();
            let truth = 1.0 - (-1.3f64 * x).exp();
            prop_assert!((f.eval(x) - truth).abs() < 0.01);
        }

        #[test]
        fn interpolation_is_monotone_for_monotone_breakpoints(a in 0.0..5.0f64, b in 0.0..5.0f64) {
            let f = PwlFunction::try_from_samples(0.0, 5.0, 10, |x| x / (1.0 + x)).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(f.eval(lo) <= f.eval(hi) + 1e-12);
        }
    }
}
