//! Fixed-bin histograms with ASCII rendering.
//!
//! Used by the experiment reports to show *distributions* where a mean
//! would mislead — restoration latencies are bimodal under mixed
//! detection paths (heartbeat vs data starvation), and recovery distances
//! are heavy-tailed.

/// A histogram over `[low, high)` with uniform bins; out-of-range samples
/// are clamped into the edge bins.
#[derive(Debug, Clone)]
pub(crate) struct Histogram {
    low: f64,
    high: f64,
    bins: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` uniform bins over `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or `bins == 0`.
    pub(crate) fn new(low: f64, high: f64, bins: usize) -> Self {
        assert!(low < high, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            low,
            high,
            bins: vec![0; bins],
        }
    }

    /// Adds one sample (clamped into the edge bins when out of range).
    pub(crate) fn push(&mut self, x: f64) {
        let width = (self.high - self.low) / self.bins.len() as f64;
        let idx = ((x - self.low) / width).floor();
        let idx = (idx.max(0.0) as usize).min(self.bins.len() - 1);
        self.bins[idx] += 1;
    }

    /// Renders horizontal bars, one line per bin.
    pub(crate) fn render(&self, width: usize) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let bin_width = (self.high - self.low) / self.bins.len() as f64;
        let mut out = String::new();
        for (i, &c) in self.bins.iter().enumerate() {
            let lo = self.low + i as f64 * bin_width;
            let hi = lo + bin_width;
            let bar_len = (c as usize * width) / max as usize;
            out.push_str(&format!(
                "{lo:>9.1}–{hi:<9.1} |{} {c}\n",
                "#".repeat(bar_len)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_the_right_bins() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.9, 2.0, 5.5, 9.9] {
            h.push(x);
        }
        assert_eq!(h.bins, [2, 1, 1, 0, 1]);
    }

    #[test]
    fn out_of_range_samples_clamp() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.push(-5.0);
        h.push(100.0);
        assert_eq!(h.bins, [1, 1]);
    }

    #[test]
    fn render_shows_bars_and_counts() {
        let mut h = Histogram::new(0.0, 4.0, 2);
        h.push(1.0);
        h.push(1.5);
        h.push(3.0);
        let text = h.render(10);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("##"));
        assert!(text.contains(" 2"));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn inverted_range_panics() {
        let _ = Histogram::new(5.0, 1.0, 3);
    }
}
