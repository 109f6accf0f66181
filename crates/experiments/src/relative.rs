//! The relative performance metrics of §4.2.
//!
//! The paper compares SMRP against the SPF baseline per scenario and
//! reports:
//!
//! ```text
//! RD^relative    = (RD^SPF − RD^SMRP) / RD^SPF       (improvement; higher is better)
//! D^relative     = (D^SMRP − D^SPF)   / D^SPF        (delay penalty; lower is better)
//! Cost^relative  = (Cost^SMRP − Cost^SPF) / Cost^SPF (cost penalty; lower is better)
//! ```

/// `RD^relative`: fraction by which SMRP shortens the recovery distance.
///
/// Returns `0.0` when the baseline recovery distance is zero (both
/// strategies recovered instantly; there is no improvement to attribute).
pub(crate) fn rd_relative(rd_spf: f64, rd_smrp: f64) -> f64 {
    if rd_spf == 0.0 {
        0.0
    } else {
        (rd_spf - rd_smrp) / rd_spf
    }
}

/// `D^relative`: relative end-to-end delay penalty of SMRP.
///
/// Returns `0.0` when the baseline delay is zero.
pub(crate) fn delay_relative(d_smrp: f64, d_spf: f64) -> f64 {
    if d_spf == 0.0 {
        0.0
    } else {
        (d_smrp - d_spf) / d_spf
    }
}

/// `Cost^relative`: relative tree-cost penalty of SMRP.
///
/// Returns `0.0` when the baseline cost is zero.
pub(crate) fn cost_relative(cost_smrp: f64, cost_spf: f64) -> f64 {
    if cost_spf == 0.0 {
        0.0
    } else {
        (cost_smrp - cost_spf) / cost_spf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_numbers_of_the_paper() {
        // "the recovery path is reduced by an average of 20% with only 5%
        // performance penalty": RD 10 -> 8, delay 20 -> 21.
        assert!((rd_relative(10.0, 8.0) - 0.20).abs() < 1e-12);
        assert!((delay_relative(21.0, 20.0) - 0.05).abs() < 1e-12);
        assert!((cost_relative(105.0, 100.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn identical_performance_is_zero() {
        assert_eq!(rd_relative(5.0, 5.0), 0.0);
        assert_eq!(delay_relative(5.0, 5.0), 0.0);
        assert_eq!(cost_relative(5.0, 5.0), 0.0);
    }

    #[test]
    fn worse_smrp_recovery_is_negative_improvement() {
        assert!(rd_relative(5.0, 6.0) < 0.0);
    }

    #[test]
    fn zero_baselines_are_guarded() {
        assert_eq!(rd_relative(0.0, 1.0), 0.0);
        assert_eq!(delay_relative(1.0, 0.0), 0.0);
        assert_eq!(cost_relative(1.0, 0.0), 0.0);
    }

    #[test]
    fn improvement_is_bounded_by_one() {
        // SMRP recovering instantly gives 100% improvement, never more.
        assert_eq!(rd_relative(4.0, 0.0), 1.0);
    }
}

#[cfg(test)]
mod props {
    use proptest::prelude::*;

    use crate::relative;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn relative_metrics_identities(spf in 0.001f64..1e4, smrp in 0.0f64..1e4) {
            let rd = relative::rd_relative(spf, smrp);
            prop_assert!(rd <= 1.0 + 1e-12);
            // Identity: rd_relative == -delay_relative with roles swapped.
            let d = relative::delay_relative(smrp, spf);
            prop_assert!((rd + d).abs() < 1e-9);
            // Zero difference means zero metric.
            prop_assert!(relative::cost_relative(spf, spf).abs() < 1e-12);
        }
    }
}
