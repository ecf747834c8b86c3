//! The benchmark's own statistics: medians, quartiles, the tail percentile
//! a sample count supports, and ratios that keep their base.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Arithmetic mean of `values`; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// First quartile, median and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads computed here match the ones computed over a set of runs.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Percentiles the tail is reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile on [`TAIL_LADDER`] that leaves at least ten
/// samples beyond it, with its nearest-rank value. `None` when even the
/// median has fewer than ten samples beyond it (fewer than 20 samples).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    TAIL_LADDER.iter().find_map(|&p| {
        // Nearest rank: the smallest value with at least p% of the samples
        // at or below it (the epsilon absorbs rounding in p·n/100).
        let rank = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, data[rank - 1]))
    })
}

/// The tail a workload reports: [`tail`] when the sample count supports
/// one, otherwise the maximum (labelled percentile 100).
pub fn tail_or_max(values: &[f64]) -> Option<(f64, f64)> {
    tail(values).or_else(|| {
        let data = sorted(values);
        data.last().map(|&max| (100.0, max))
    })
}

/// A ratio that keeps its numerator and base, so a report can say what it
/// was divided by (and an empty base is visible instead of a NaN).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Base (denominator).
    pub base: f64,
}

impl Ratio {
    /// `num / base`.
    pub fn new(num: f64, base: f64) -> Self {
        Self { num, base }
    }

    /// The quotient; `None` when the base is zero or either side is not
    /// finite.
    pub fn value(&self) -> Option<f64> {
        (self.base != 0.0 && self.num.is_finite() && self.base.is_finite())
            .then(|| self.num / self.base)
    }

    /// Add one observation to numerator and base.
    pub fn add(&mut self, num: f64, base: f64) {
        self.num += num;
        self.base += base;
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mean_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[4.0, 1.0, 1.0]), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves one sample beyond it; p99 leaves exactly ten.
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 and p95 leave 1 and 5 beyond; p90 leaves ten.
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        assert_eq!(tail_or_max(&[2.0, 7.0, 3.0]), Some((100.0, 7.0)));
        assert_eq!(tail_or_max(&[]), None);
    }

    #[test]
    fn ratios_keep_their_base() {
        let mut r = Ratio::default();
        assert_eq!(r.value(), None, "an empty base has no quotient");
        r.add(3.0, 4.0);
        r.add(1.0, 4.0);
        assert_eq!((r.num, r.base), (4.0, 8.0));
        assert_eq!(r.value(), Some(0.5));
        assert_eq!(Ratio::new(f64::NAN, 1.0).value(), None);
    }
}
