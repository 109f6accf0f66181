//! Figure 9: the effect of `α` / average node degree (§4.3.3).
//!
//! Setup: `N = 100`, `N_G = 30`, `D_thresh = 0.3`; `α` swept over
//! {0.15, 0.2, 0.25, 0.3} with the average node degree annotated under
//! each point; 100 scenarios per point. The paper's observations:
//!
//! * the improvement diminishes slightly as the node degree grows (denser
//!   graphs give the SPF tree less link concentration to exploit);
//! * even at an average degree around 10, SMRP still shortens recovery
//!   paths by ≈12% for ≈5% penalty — reproduced here as an extra
//!   calibrated point.

use smrp_net::waxman;

use crate::measure::smrp_config;
use crate::scenario::ScenarioConfig;
use crate::sweep::{self, SweepPoint};
use crate::Effort;

/// The `α` values swept by the paper.
pub(crate) const ALPHA_VALUES: [f64; 4] = [0.15, 0.2, 0.25, 0.3];

/// Results of the Figure 9 experiment.
#[derive(Debug, Clone, serde::Serialize)]
pub(crate) struct Fig9Result {
    /// One aggregated point per `α` value (x = α).
    pub points: Vec<SweepPoint>,
    /// The §4.3.3 text claim: a calibrated high-degree point
    /// (`avg degree ≈ 10`), if it was run.
    pub degree10: Option<SweepPoint>,
}

/// Runs the Figure 9 sweep.
pub(crate) fn run(effort: Effort) -> Fig9Result {
    run_with_degree10(effort, matches!(effort, Effort::Paper))
}

/// Runs the sweep, optionally including the calibrated degree-10 point.
pub(crate) fn run_with_degree10(effort: Effort, include_degree10: bool) -> Fig9Result {
    let topologies = effort.scale(10).max(2) as u32;
    let member_sets = effort.scale(10).max(2) as u32;
    let base = ScenarioConfig::default();
    let points: Vec<SweepPoint> = ALPHA_VALUES
        .iter()
        .map(|&alpha| {
            let cfg = ScenarioConfig { alpha, ..base };
            sweep::run_point(alpha, &cfg, smrp_config(0.3), topologies, member_sets)
        })
        .collect();

    let degree10 = include_degree10.then(|| {
        let alpha = waxman::calibrate_alpha(base.nodes, waxman::DEFAULT_BETA, 10.0, base.base_seed);
        let cfg = ScenarioConfig { alpha, ..base };
        sweep::run_point(alpha, &cfg, smrp_config(0.3), topologies, member_sets)
    });

    Fig9Result { points, degree10 }
}

impl Fig9Result {
    /// Paper-style table (α on the x column, degree annotated).
    pub(crate) fn table(&self) -> crate::table::Table {
        let mut points = self.points.clone();
        if let Some(d10) = &self.degree10 {
            points.push(d10.clone());
        }
        sweep::table("alpha", &points)
    }

    /// CSV artifact.
    pub(crate) fn to_csv(&self) -> crate::csvout::Csv {
        let mut points = self.points.clone();
        if let Some(d10) = &self.degree10 {
            points.push(d10.clone());
        }
        sweep::to_csv("alpha", &points)
    }

    /// Textual summary against the paper's claims.
    pub(crate) fn summary(&self) -> String {
        let first = &self.points[0];
        let last = self.points.last().expect("sweep is non-empty");
        let mut s = format!(
            "alpha {:.2} (deg {:.1}): RD_rel {:.1}%; alpha {:.2} (deg {:.1}): RD_rel {:.1}% \
             (paper: improvement diminishes slightly with degree)",
            first.x,
            first.avg_degree,
            first.rd_rel.mean * 100.0,
            last.x,
            last.avg_degree,
            last.rd_rel.mean * 100.0,
        );
        if let Some(d10) = &self.degree10 {
            s.push_str(&format!(
                "; degree-10 point (alpha {:.2}, deg {:.1}): RD_rel {:.1}% for {:.1}% delay \
                 penalty (paper: ~12% for ~5%)",
                d10.x,
                d10.avg_degree,
                d10.rd_rel.mean * 100.0,
                d10.delay_rel.mean * 100.0
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_degrees_grow_with_alpha() {
        let r = run_with_degree10(Effort::Quick, false);
        assert_eq!(r.points.len(), 4);
        // Average degree grows with alpha overall (individual adjacent
        // pairs can be noisy at quick sample sizes).
        assert!(
            r.points.last().unwrap().avg_degree > r.points[0].avg_degree,
            "degree did not grow: {} -> {}",
            r.points[0].avg_degree,
            r.points.last().unwrap().avg_degree
        );
        // Improvement present overall; individual points can dip slightly
        // negative at quick sample sizes (4 scenarios per point).
        let mean: f64 = r.points.iter().map(|p| p.rd_rel.mean).sum::<f64>() / r.points.len() as f64;
        assert!(mean > 0.0, "no overall improvement: {mean:.3}");
        for p in &r.points {
            assert!(
                p.rd_rel.mean > -0.1,
                "large regression at alpha {}: {:.3}",
                p.x,
                p.rd_rel.mean
            );
        }
    }

    #[test]
    fn artifacts_render() {
        let r = run_with_degree10(Effort::Quick, false);
        assert!(r.table().render().contains("alpha"));
        assert_eq!(r.to_csv().render().lines().count(), 5);
        assert!(r.degree10.is_none());
        assert!(r.summary().contains("paper"));
    }
}
