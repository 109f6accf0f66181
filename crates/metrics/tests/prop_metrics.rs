//! Property tests for the Welford accumulator.

use proptest::prelude::*;

use smrp_metrics::Stats;

fn naive_mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn naive_sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = naive_mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn welford_matches_naive(xs in proptest::collection::vec(-1e4f64..1e4, 1..200)) {
        let s: Stats = xs.iter().copied().collect();
        prop_assert_eq!(s.count(), xs.len() as u64);
        prop_assert!((s.mean() - naive_mean(&xs)).abs() < 1e-6);
        prop_assert!((s.sample_variance() - naive_sample_variance(&xs)).abs() < 1e-4);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min(), Some(min));
        prop_assert_eq!(s.max(), Some(max));
    }

    #[test]
    fn merge_is_associative_enough(
        xs in proptest::collection::vec(-100f64..100.0, 1..60),
        ys in proptest::collection::vec(-100f64..100.0, 1..60),
        zs in proptest::collection::vec(-100f64..100.0, 1..60),
    ) {
        let stat = |v: &[f64]| v.iter().copied().collect::<Stats>();
        // (x + y) + z  vs  x + (y + z)
        let mut left = stat(&xs);
        left.merge(&stat(&ys));
        left.merge(&stat(&zs));
        let mut right_tail = stat(&ys);
        right_tail.merge(&stat(&zs));
        let mut right = stat(&xs);
        right.merge(&right_tail);
        prop_assert!((left.mean() - right.mean()).abs() < 1e-9);
        prop_assert!((left.sample_variance() - right.sample_variance()).abs() < 1e-6);
        prop_assert_eq!(left.count(), right.count());
    }
}
