//! Figure 10: the effect of group size `N_G` (§4.3.4).
//!
//! Setup: `N = 100`, `α = 0.2`, `D_thresh = 0.3`; `N_G` swept over
//! {20, 30, 40, 50}; 100 scenarios per point. The paper's observations:
//!
//! * performance is steady across group sizes — ≈20% shorter recovery
//!   paths for ≈5% overhead;
//! * a slight decline of the improvement with larger groups (more members
//!   means everyone already has close neighbors, shrinking SMRP's edge).

use crate::measure::smrp_config;
use crate::scenario::ScenarioConfig;
use crate::sweep::{self, SweepPoint};
use crate::Effort;

/// The `N_G` values swept by the paper.
pub(crate) const GROUP_SIZES: [usize; 4] = [20, 30, 40, 50];

/// Results of the Figure 10 experiment.
#[derive(Debug, Clone, serde::Serialize)]
pub(crate) struct Fig10Result {
    /// One aggregated point per group size (x = `N_G`).
    pub points: Vec<SweepPoint>,
}

/// Runs the Figure 10 sweep.
pub(crate) fn run(effort: Effort) -> Fig10Result {
    let topologies = effort.scale(10).max(2) as u32;
    let member_sets = effort.scale(10).max(2) as u32;
    let base = ScenarioConfig::default();
    let points = GROUP_SIZES
        .iter()
        .map(|&ng| {
            let cfg = ScenarioConfig {
                group_size: ng,
                ..base
            };
            sweep::run_point(ng as f64, &cfg, smrp_config(0.3), topologies, member_sets)
        })
        .collect();
    Fig10Result { points }
}

impl Fig10Result {
    /// Paper-style table.
    pub(crate) fn table(&self) -> crate::table::Table {
        sweep::table("N_G", &self.points)
    }

    /// CSV artifact.
    pub(crate) fn to_csv(&self) -> crate::csvout::Csv {
        sweep::to_csv("n_g", &self.points)
    }

    /// Textual summary against the paper's claims.
    pub(crate) fn summary(&self) -> String {
        let mins = self
            .points
            .iter()
            .map(|p| p.rd_rel.mean)
            .fold(f64::INFINITY, f64::min);
        let maxs = self
            .points
            .iter()
            .map(|p| p.rd_rel.mean)
            .fold(f64::NEG_INFINITY, f64::max);
        format!(
            "RD_rel across N_G in {{20..50}}: {:.1}%..{:.1}% (paper: steady ~20% with a \
             slight decline as the group grows)",
            mins * 100.0,
            maxs * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_steady() {
        let r = run(Effort::Quick);
        assert_eq!(r.points.len(), 4);
        for p in &r.points {
            assert!(
                p.rd_rel.mean > 0.0,
                "no improvement at N_G {}: {:.3}",
                p.x,
                p.rd_rel.mean
            );
            assert!(p.delay_rel.mean < 0.25);
        }
        // Steadiness: the spread across group sizes stays moderate.
        let means: Vec<f64> = r.points.iter().map(|p| p.rd_rel.mean).collect();
        let spread = means.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
            - means.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        assert!(spread < 0.25, "improvement varies too wildly: {spread:.3}");
    }

    #[test]
    fn artifacts_render() {
        let r = run(Effort::Quick);
        assert!(r.table().render().contains("N_G"));
        assert_eq!(r.to_csv().render().lines().count(), 5);
        assert!(r.summary().contains("paper"));
    }
}
