//! Figure 8: the effect of `D_thresh` (§4.3.2).
//!
//! Setup: `N = 100`, `N_G = 30`, `α = 0.2`; `D_thresh` swept over four
//! values; ten topologies × ten member sets = 100 scenarios per point,
//! error bars at 95% confidence. The paper's observations:
//!
//! * at `D_thresh = 0.3`, recovery paths shorten by ≈20% for ≈5% delay and
//!   cost penalties;
//! * the improvement grows roughly linearly with `D_thresh`, as do the
//!   penalties.

use crate::measure::smrp_config;
use crate::scenario::ScenarioConfig;
use crate::sweep::{self, SweepPoint};
use crate::Effort;

/// The `D_thresh` values swept (the paper plots four; 0.0–0.4 covers the
/// interesting range and 0.0 is the degenerate "SPF-delays only" corner).
pub(crate) const D_THRESH_VALUES: [f64; 4] = [0.1, 0.2, 0.3, 0.4];

/// Results of the Figure 8 experiment.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Fig8Result {
    /// One aggregated point per `D_thresh` value.
    pub points: Vec<SweepPoint>,
}

/// Runs the Figure 8 sweep.
///
/// The headline claim is a *comparison of means* (RD improvement vs delay
/// penalty) over scenarios whose per-scenario `RD^relative` spread is large
/// (σ ≈ 19%); below ~25 scenarios per point the two means are statistically
/// indistinguishable, so even `Effort::Quick` keeps a 5×5 scenario floor.
pub fn run(effort: Effort) -> Fig8Result {
    let topologies = effort.scale(10).max(5) as u32;
    let member_sets = effort.scale(10).max(5) as u32;
    let scenario_config = ScenarioConfig::default();
    let points = D_THRESH_VALUES
        .iter()
        .map(|&d| sweep::run_point(d, &scenario_config, smrp_config(d), topologies, member_sets))
        .collect();
    Fig8Result { points }
}

impl Fig8Result {
    /// Paper-style table.
    pub(crate) fn table(&self) -> crate::table::Table {
        sweep::table("D_thresh", &self.points)
    }

    /// CSV artifact.
    pub fn to_csv(&self) -> crate::csvout::Csv {
        sweep::to_csv("d_thresh", &self.points)
    }

    /// The point at `D_thresh = 0.3` (the paper's headline configuration).
    pub fn headline(&self) -> &SweepPoint {
        self.points
            .iter()
            .find(|p| (p.x - 0.3).abs() < 1e-9)
            .expect("0.3 is part of the sweep")
    }

    /// Textual summary against the paper's claims.
    pub(crate) fn summary(&self) -> String {
        let h = self.headline();
        format!(
            "at D_thresh=0.3: RD reduced {:.1}% (paper ~20%), delay penalty {:.1}% \
             (paper ~5%), cost penalty {:.1}% (paper ~5%)",
            h.rd_rel.mean * 100.0,
            h.delay_rel.mean * 100.0,
            h.cost_rel.mean * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_shows_the_tradeoff() {
        let r = run(Effort::Quick);
        assert_eq!(r.points.len(), 4);
        // Improvement exists at the headline point...
        let h = r.headline();
        assert!(
            h.rd_rel.mean > 0.05,
            "RD improvement too small: {:.3}",
            h.rd_rel.mean
        );
        // ...and the penalties stay moderate.
        assert!(
            h.delay_rel.mean < 0.25,
            "delay penalty {:.3}",
            h.delay_rel.mean
        );
        assert!(
            h.cost_rel.mean < 0.25,
            "cost penalty {:.3}",
            h.cost_rel.mean
        );
        // The improvement should not *shrink* drastically as D_thresh
        // grows: the last point is at least as good as the first.
        assert!(r.points[3].rd_rel.mean >= r.points[0].rd_rel.mean - 0.05);
        // Penalties grow (weakly) with D_thresh.
        assert!(r.points[3].delay_rel.mean >= r.points[0].delay_rel.mean - 0.02);
    }

    #[test]
    fn artifacts_render() {
        let r = run(Effort::Quick);
        let table = r.table().render();
        assert!(table.contains("D_thresh"));
        assert!(table.contains('±'));
        assert_eq!(r.to_csv().render().lines().count(), 5);
        assert!(r.summary().contains("paper"));
    }
}
