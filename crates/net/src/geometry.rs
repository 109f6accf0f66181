//! Plane geometry used by the topology generators.
//!
//! The Waxman model places nodes uniformly at random in a square and makes
//! the probability of a link between two nodes decay with their Euclidean
//! distance, so the substrate needs a small amount of 2-D geometry.

use serde::{Deserialize, Serialize};

/// A point in the unit-square plane used for node placement.
///
/// ```
/// use smrp_net::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point at `(x, y)`.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(self, other: Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance: [`distance`](Self::distance) before its
    /// `sqrt`.
    #[inline]
    fn distance_squared(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

/// Maximum pairwise distance among a set of points.
///
/// The Waxman edge probability normalizes distances by the network's
/// "diameter" `L`; the original formulation uses the maximum pairwise
/// Euclidean distance.
///
/// Returns `0.0` for fewer than two points. The maximum is taken over
/// squared distances with one `sqrt` at the end: `sqrt` is monotone and
/// correctly rounded, so the result equals the largest per-pair
/// [`Point::distance`] bit for bit.
pub(crate) fn max_pairwise_distance(points: &[Point]) -> f64 {
    let mut max = 0.0f64;
    for (i, a) in points.iter().enumerate() {
        for b in &points[i + 1..] {
            max = max.max(a.distance_squared(*b));
        }
    }
    max.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A point on a coarse 4×4 lattice, so sets repeat points often, or
    /// anywhere in the unit square.
    fn arb_point() -> impl Strategy<Value = Point> {
        prop_oneof![
            (0u32..4, 0u32..4)
                .prop_map(|(x, y)| Point::new(f64::from(x) / 3.0, f64::from(y) / 3.0)),
            (0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y)| Point::new(x, y)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn max_pairwise_distance_is_the_largest_pair_distance(
            points in proptest::collection::vec(arb_point(), 0..40),
        ) {
            let mut want = 0.0f64;
            for (i, a) in points.iter().enumerate() {
                for b in &points[i + 1..] {
                    want = want.max(a.distance(*b));
                }
            }
            prop_assert_eq!(max_pairwise_distance(&points).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 5.5);
        assert!((a.distance(b) - b.distance(a)).abs() < 1e-12);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Point::new(7.0, -2.0);
        assert_eq!(p.distance(p), 0.0);
    }

    #[test]
    fn max_pairwise_distance_of_triangle() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(10.0, 0.0),
        ];
        assert_eq!(max_pairwise_distance(&pts), 10.0);
    }

    #[test]
    fn max_pairwise_distance_degenerate_cases() {
        assert_eq!(max_pairwise_distance(&[]), 0.0);
        assert_eq!(max_pairwise_distance(&[Point::new(1.0, 1.0)]), 0.0);
    }
}
