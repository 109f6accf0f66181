//! Student-t 95% confidence intervals (the error bars of Figure 8).

use serde::{Deserialize, Serialize};

use smrp_metrics::Stats;

/// Two-sided 95% critical values of the t-distribution for small degrees of
/// freedom (`df = 1..=30`). Indexed by `df - 1`.
const T_95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Additional anchors for larger degrees of freedom.
const T_95_LARGE: [(u64, f64); 5] = [
    (40, 2.021),
    (60, 2.000),
    (80, 1.990),
    (120, 1.980),
    (u64::MAX, 1.960),
];

/// Two-sided 95% t critical value for `df` degrees of freedom.
///
/// Exact table values for `df ≤ 30`, interpolated anchors beyond, and the
/// normal limit `1.96` asymptotically. Returns `f64::INFINITY` for
/// `df == 0` (a single observation carries no interval information).
pub(crate) fn t_critical_95(df: u64) -> f64 {
    if df == 0 {
        return f64::INFINITY;
    }
    if df <= 30 {
        return T_95[(df - 1) as usize];
    }
    let mut prev = (30u64, T_95[29]);
    for &(d, t) in &T_95_LARGE {
        if df <= d {
            // Interpolate in 1/df, which is nearly linear in t.
            let x0 = 1.0 / prev.0 as f64;
            let x1 = 1.0 / d as f64;
            let x = 1.0 / df as f64;
            let w = if (x1 - x0).abs() < f64::EPSILON {
                0.0
            } else {
                (x - x0) / (x1 - x0)
            };
            return prev.1 + w * (t - prev.1);
        }
        prev = (d, t);
    }
    1.960
}

/// A symmetric confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the interval (`0.0` when undefined).
    pub half_width: f64,
    /// Number of observations behind the estimate.
    pub count: u64,
}

impl ConfidenceInterval {
    /// Computes the 95% confidence interval of the mean of `stats`.
    ///
    /// With fewer than two observations the half-width is `0.0` (no spread
    /// information), matching how plotting tools treat degenerate error
    /// bars.
    pub fn from_stats(stats: &Stats) -> Self {
        let count = stats.count();
        let half_width = if count < 2 {
            0.0
        } else {
            t_critical_95(count - 1) * stats.standard_error()
        };
        ConfidenceInterval {
            mean: stats.mean(),
            half_width,
            count,
        }
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.mean, self.half_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_df_matches_table() {
        assert_eq!(t_critical_95(1), 12.706);
        assert_eq!(t_critical_95(10), 2.228);
        assert_eq!(t_critical_95(30), 2.042);
    }

    #[test]
    fn large_df_approaches_normal() {
        let t100 = t_critical_95(100);
        assert!(t100 > 1.96 && t100 < 2.0);
        assert!((t_critical_95(1_000_000) - 1.96).abs() < 0.01);
    }

    #[test]
    fn critical_values_decrease_with_df() {
        let mut prev = f64::INFINITY;
        for df in 1..200 {
            let t = t_critical_95(df);
            assert!(t <= prev + 1e-12, "t({df}) = {t} rose above {prev}");
            prev = t;
        }
    }

    #[test]
    fn zero_df_is_infinite() {
        assert!(t_critical_95(0).is_infinite());
    }

    #[test]
    fn interval_brackets_the_mean() {
        let stats: Stats = (0..50).map(|i| (i % 7) as f64).collect();
        let ci = ConfidenceInterval::from_stats(&stats);
        assert!(ci.half_width > 0.0);
        assert_eq!(ci.count, 50);
    }

    #[test]
    fn known_interval_for_small_sample() {
        // Sample 1..5: mean 3, sd sqrt(2.5), se sqrt(0.5), t(4) = 2.776.
        let stats: Stats = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        let ci = ConfidenceInterval::from_stats(&stats);
        let expected = 2.776 * (2.5f64 / 5.0).sqrt();
        assert!((ci.half_width - expected).abs() < 1e-9);
        assert_eq!(ci.mean, 3.0);
    }

    #[test]
    fn degenerate_samples_have_zero_width() {
        let one: Stats = [4.0].into_iter().collect();
        let ci = ConfidenceInterval::from_stats(&one);
        assert_eq!(ci.half_width, 0.0);
        let empty = Stats::new();
        let ci = ConfidenceInterval::from_stats(&empty);
        assert_eq!(ci.half_width, 0.0);
        assert_eq!(ci.mean, 0.0);
    }

    #[test]
    fn display_shows_plus_minus() {
        let stats: Stats = [1.0, 2.0, 3.0].into_iter().collect();
        let ci = ConfidenceInterval::from_stats(&stats);
        assert!(ci.to_string().contains('±'));
    }
}

#[cfg(test)]
mod props {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn ci_narrows_with_replication(
            xs in proptest::collection::vec(-10f64..10.0, 3..40),
            reps in 2usize..6,
        ) {
            let base: Stats = xs.iter().copied().collect();
            let replicated: Stats =
                std::iter::repeat_n(xs.iter().copied(), reps).flatten().collect();
            let ci_base = ConfidenceInterval::from_stats(&base);
            let ci_rep = ConfidenceInterval::from_stats(&replicated);
            // Same mean, tighter (or equal, when variance is 0) interval.
            prop_assert!((ci_base.mean - ci_rep.mean).abs() < 1e-9);
            prop_assert!(ci_rep.half_width <= ci_base.half_width + 1e-12);
        }

        #[test]
        fn t_table_is_monotone(df1 in 1u64..10_000, df2 in 1u64..10_000) {
            let (lo, hi) = if df1 <= df2 { (df1, df2) } else { (df2, df1) };
            prop_assert!(t_critical_95(hi) <= t_critical_95(lo) + 1e-12);
            prop_assert!(t_critical_95(hi) >= 1.959);
        }
    }
}
