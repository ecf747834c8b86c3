//! Pearson chi-squared test of independence.
//!
//! Sec. VII: "We use a Pearson's chi-squared test to assess independence of
//! the observations on two variables (# Obs. and Risk group)". The test is
//! applied to the contingency table of (risk group) × (cells with / without
//! detected poaching); the paper reports p-values of 1.05 × 10⁻², 2.3 × 10⁻²
//! and 0.7 × 10⁻² for the MFNP and SWS trials.

/// Result of a chi-squared independence test.
#[derive(Debug, Clone, Copy)]
pub struct ChiSquaredResult {
    /// The chi-squared statistic.
    pub statistic: f64,
    /// Degrees of freedom, (rows − 1)(cols − 1).
    pub dof: usize,
    /// The p-value (upper tail).
    pub p_value: f64,
}

impl ChiSquaredResult {
    /// Whether the association is significant at the given level.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Pearson chi-squared test of independence on an R×C contingency table of
/// observed counts.
///
/// # Panics
/// Panics when the table is not rectangular, has fewer than 2 rows or
/// columns, or a row/column total is zero (expected counts undefined).
pub fn chi_squared_test(table: &[Vec<f64>]) -> ChiSquaredResult {
    assert!(table.len() >= 2, "need at least two rows");
    let cols = table[0].len();
    assert!(cols >= 2, "need at least two columns");
    assert!(
        table.iter().all(|r| r.len() == cols),
        "ragged contingency table"
    );
    assert!(
        table.iter().flatten().all(|&x| x >= 0.0),
        "counts must be non-negative"
    );

    let row_totals: Vec<f64> = table.iter().map(|r| r.iter().sum()).collect();
    let col_totals: Vec<f64> = (0..cols)
        .map(|c| table.iter().map(|r| r[c]).sum())
        .collect();
    let grand: f64 = row_totals.iter().sum();
    assert!(grand > 0.0, "empty contingency table");
    assert!(
        row_totals.iter().all(|&t| t > 0.0) && col_totals.iter().all(|&t| t > 0.0),
        "every row and column must have a positive total"
    );

    let mut statistic = 0.0;
    for (i, row) in table.iter().enumerate() {
        for (j, &obs) in row.iter().enumerate() {
            let expected = row_totals[i] * col_totals[j] / grand;
            statistic += (obs - expected).powi(2) / expected;
        }
    }
    let dof = (table.len() - 1) * (cols - 1);
    ChiSquaredResult {
        statistic,
        dof,
        p_value: chi_squared_sf(statistic, dof as f64),
    }
}

/// Upper-tail probability of the chi-squared distribution:
/// `P(X >= x)` with `k` degrees of freedom.
pub fn chi_squared_sf(x: f64, k: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    1.0 - lower_regularized_gamma(k / 2.0, x / 2.0)
}

/// Lower regularised incomplete gamma function P(a, x), via the series
/// expansion for x < a + 1 and the continued fraction otherwise
/// (Numerical Recipes style).
fn lower_regularized_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "invalid incomplete-gamma arguments");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation.
        let mut sum = 1.0 / a;
        let mut term = sum;
        let mut ap = a;
        for _ in 0..500 {
            ap += 1.0;
            term *= x / ap;
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        (sum * (-x + a * x.ln() - ln_gamma(a)).exp()).clamp(0.0, 1.0)
    } else {
        // Continued fraction for Q(a, x), then P = 1 - Q.
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (-x + a * x.ln() - ln_gamma(a)).exp() * h;
        (1.0 - q).clamp(0.0, 1.0)
    }
}

/// Natural log of the gamma function (Lanczos approximation).
fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 6] = [
        76.180_091_729_471_46,
        -86.505_320_329_416_77,
        24.014_098_240_830_91,
        -1.231_739_572_450_155,
        0.120_865_097_386_617_7e-2,
        -0.539_523_938_495_3e-5,
    ];
    let mut y = x;
    let tmp = x + 5.5;
    let tmp = tmp - (x + 0.5) * tmp.ln();
    let mut ser = 1.000_000_000_190_015;
    for c in COEFFS {
        y += 1.0;
        ser += c / y;
    }
    -tmp + (2.506_628_274_631_000_5 * ser / x).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        assert!((ln_gamma(1.0) - 0.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - (24.0f64).ln()).abs() < 1e-10);
        assert!((ln_gamma(10.0) - (362880.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn chi_squared_sf_known_values() {
        // P(X >= 3.841) with 1 dof ≈ 0.05; P(X >= 5.991) with 2 dof ≈ 0.05.
        assert!((chi_squared_sf(3.841, 1.0) - 0.05).abs() < 1e-3);
        assert!((chi_squared_sf(5.991, 2.0) - 0.05).abs() < 1e-3);
        assert!((chi_squared_sf(9.210, 2.0) - 0.01).abs() < 1e-3);
        assert_eq!(chi_squared_sf(0.0, 3.0), 1.0);
    }

    #[test]
    fn independence_test_on_independent_table_is_not_significant() {
        // Perfectly proportional rows: statistic 0, p = 1.
        let table = vec![vec![10.0, 30.0], vec![20.0, 60.0]];
        let r = chi_squared_test(&table);
        assert!(r.statistic.abs() < 1e-9);
        assert!((r.p_value - 1.0).abs() < 1e-9);
        assert_eq!(r.dof, 1);
        assert!(!r.significant_at(0.05));
    }

    #[test]
    fn independence_test_on_associated_table_is_significant() {
        // Strong association between group and outcome.
        let table = vec![vec![30.0, 10.0], vec![5.0, 40.0]];
        let r = chi_squared_test(&table);
        assert!(r.statistic > 10.0);
        assert!(r.significant_at(0.01));
    }

    #[test]
    fn three_group_table_matches_reference_dof() {
        // 3 risk groups × 2 outcomes -> dof 2 (as in the field tests).
        let table = vec![vec![6.0, 12.0], vec![5.0, 16.0], vec![2.0, 8.0]];
        let r = chi_squared_test(&table);
        assert_eq!(r.dof, 2);
        assert!(r.p_value > 0.0 && r.p_value < 1.0);
    }

    #[test]
    fn hand_computed_statistic() {
        // Table: [[12, 8], [4, 16]]; expected under independence:
        // rows 20/20, cols 16/24, grand 40 -> E = [[8,12],[8,12]].
        // statistic = (4²/8 + 4²/12) * 2 = 2*(2 + 1.333) = 6.667.
        let r = chi_squared_test(&[vec![12.0, 8.0], vec![4.0, 16.0]]);
        assert!((r.statistic - 6.6667).abs() < 1e-3);
        assert!(r.significant_at(0.05));
        assert!(!r.significant_at(0.001));
    }

    #[test]
    #[should_panic(expected = "positive total")]
    fn zero_column_rejected() {
        chi_squared_test(&[vec![0.0, 5.0], vec![0.0, 7.0]]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_table_rejected() {
        chi_squared_test(&[vec![1.0, 2.0], vec![1.0]]);
    }
}
