//! The harness's own arithmetic: medians, percentiles and the rule for
//! which tail percentile a sample is large enough to support.

/// A percentile is only reported when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even counts);
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`. Nearest-rank
/// returns a sample, never an interpolation, so a sim-time percentile
/// repeats bit-for-bit whenever the samples do.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Percentile `p` only if at least [`MIN_BEYOND`] samples lie beyond it.
pub fn supported_percentile(values: &[f64], p: f64) -> Option<f64> {
    if samples_beyond(values.len(), p) >= MIN_BEYOND {
        percentile(values, p)
    } else {
        None
    }
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_reps() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_a_sample() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(percentile(&v, 100.0), Some(200.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 199 samples leave 9 beyond p95, 200 leave exactly 10.
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(samples_beyond(200, 95.0), 10);
        let short: Vec<f64> = (1..=199).map(f64::from).collect();
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(supported_percentile(&short, 95.0), None);
        assert_eq!(supported_percentile(&enough, 95.0), Some(190.0));
    }
}
