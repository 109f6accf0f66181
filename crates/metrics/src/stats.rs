//! Online summary statistics (Welford's algorithm).

use serde::{Deserialize, Serialize};

/// Streaming accumulator for mean, variance, extrema.
///
/// Uses Welford's numerically stable online algorithm; accumulators can be
/// [merged](Stats::merge) (Chan et al.'s parallel formula).
///
/// # Example
///
/// ```
/// use smrp_metrics::Stats;
///
/// let stats: Stats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
/// assert_eq!(stats.count(), 4);
/// assert_eq!(stats.mean(), 2.5);
/// assert!((stats.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Stats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Stats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Stats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Stats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`0.0` with fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub(crate) fn sample_stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean (`0.0` when empty).
    pub fn standard_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sample_stddev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl FromIterator<f64> for Stats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Stats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Stats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_neutral() {
        let s = Stats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.standard_error(), 0.0);
    }

    #[test]
    fn single_observation() {
        let s: Stats = [7.5].into_iter().collect();
        assert_eq!(s.mean(), 7.5);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), Some(7.5));
        assert_eq!(s.max(), Some(7.5));
    }

    #[test]
    fn mean_and_variance_match_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s: Stats = xs.into_iter().collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sum of squared deviations is 32; sample variance 32/7.
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn merge_equals_concatenation() {
        let xs = [1.0, 2.0, 3.5, -1.0, 0.25];
        let ys = [10.0, -3.0, 4.0];
        let mut a: Stats = xs.into_iter().collect();
        let b: Stats = ys.into_iter().collect();
        a.merge(&b);
        let all: Stats = xs.into_iter().chain(ys).collect();
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-12);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: Stats = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&Stats::new());
        assert_eq!(a, before);
        let mut e = Stats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn extend_accumulates() {
        let mut s = Stats::new();
        s.extend([1.0, 2.0]);
        s.extend([3.0]);
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn standard_error_shrinks_with_n() {
        let few: Stats = [1.0, 2.0, 3.0].into_iter().collect();
        let many: Stats = std::iter::repeat_n([1.0, 2.0, 3.0], 100)
            .flatten()
            .collect();
        assert!(many.standard_error() < few.standard_error());
    }
}
