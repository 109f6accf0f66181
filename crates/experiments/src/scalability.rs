//! Scalability with network size (engineering extension).
//!
//! The paper fixes `N = 100` and answers scalability with the hierarchical
//! architecture (§3.3.3). This experiment measures how the *flat* protocol
//! behaves as `N` grows — both the quality metrics (does the improvement
//! persist?) and the computational cost of the implementation (join-time
//! path selection is one sink-constrained Dijkstra; reshaping clones the
//! tree per evaluation), providing the numbers behind DESIGN.md's "O(N)
//! refresh is never the bottleneck" claim.

use std::time::Instant;

use smrp_metrics::Stats;

use crate::csvout::Csv;
use crate::measure::{measure_scenario, smrp_config};
use crate::scenario::ScenarioConfig;
use crate::table::{percent, Table};
use crate::Effort;

/// Measurements at one network size.
#[derive(Debug, Clone)]
pub(crate) struct SizePoint {
    /// Number of nodes `N`.
    pub nodes: usize,
    /// Members `N_G` (scaled with `N`).
    pub group_size: usize,
    /// Mean `RD^relative`.
    pub rd_rel: Stats,
    /// Mean `D^relative`.
    pub delay_rel: Stats,
    /// Wall-clock milliseconds per full scenario measurement (build both
    /// trees + every member's worst-case recovery, both trees).
    pub ms_per_scenario: Stats,
}

/// Results of the scalability sweep.
#[derive(Debug, Clone)]
pub(crate) struct ScalabilityResult {
    /// One point per network size.
    pub points: Vec<SizePoint>,
}

/// The swept sizes.
pub(crate) const SIZES: [usize; 4] = [50, 100, 200, 400];

/// Runs the sweep; the group size scales with `N` (30% of the nodes) to
/// keep member density comparable across sizes.
pub(crate) fn run(effort: Effort) -> ScalabilityResult {
    let scenarios_per_size = effort.scale(10).max(2) as u32;
    let points = SIZES
        .iter()
        .map(|&n| {
            let group = (n * 3 / 10).max(5);
            let cfg = ScenarioConfig {
                nodes: n,
                group_size: group,
                ..ScenarioConfig::default()
            };
            let mut point = SizePoint {
                nodes: n,
                group_size: group,
                rd_rel: Stats::new(),
                delay_rel: Stats::new(),
                ms_per_scenario: Stats::new(),
            };
            for scenario in cfg
                .scenarios(scenarios_per_size, 1)
                .expect("valid scenario parameters")
            {
                let start = Instant::now();
                let out = measure_scenario(&scenario, smrp_config(0.3)).expect("measures");
                point
                    .ms_per_scenario
                    .push(start.elapsed().as_secs_f64() * 1000.0);
                if let Some(v) = out.mean_rd_relative() {
                    point.rd_rel.push(v);
                }
                if let Some(v) = out.mean_delay_relative() {
                    point.delay_rel.push(v);
                }
            }
            point
        })
        .collect();
    ScalabilityResult { points }
}

impl ScalabilityResult {
    /// Renders the sweep table.
    pub(crate) fn table(&self) -> Table {
        let mut t = Table::new(vec!["N", "N_G", "RD_rel", "D_rel", "ms/scenario"]);
        for p in &self.points {
            t.row(vec![
                format!("{}", p.nodes),
                format!("{}", p.group_size),
                percent(p.rd_rel.mean()),
                percent(p.delay_rel.mean()),
                format!("{:.1}", p.ms_per_scenario.mean()),
            ]);
        }
        t
    }

    /// CSV artifact.
    pub(crate) fn to_csv(&self) -> Csv {
        let mut csv = Csv::new(vec![
            "nodes",
            "group",
            "rd_rel",
            "delay_rel",
            "ms_per_scenario",
        ]);
        for p in &self.points {
            csv.row_f64(&[
                p.nodes as f64,
                p.group_size as f64,
                p.rd_rel.mean(),
                p.delay_rel.mean(),
                p.ms_per_scenario.mean(),
            ]);
        }
        csv
    }

    /// Textual summary.
    pub(crate) fn summary(&self) -> String {
        let first = &self.points[0];
        let last = self.points.last().expect("non-empty sweep");
        format!(
            "RD_rel holds from {:.1}% at N={} to {:.1}% at N={}; a full scenario \
             measurement costs {:.0} ms at N={} — flat SMRP stays practical well \
             beyond the paper's 100 nodes",
            first.rd_rel.mean() * 100.0,
            first.nodes,
            last.rd_rel.mean() * 100.0,
            last.nodes,
            last.ms_per_scenario.mean(),
            last.nodes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_persists_across_sizes() {
        let r = run(Effort::Quick);
        assert_eq!(r.points.len(), 4);
        for p in &r.points {
            assert!(
                p.rd_rel.mean() > -0.05,
                "N={} regressed: {:.3}",
                p.nodes,
                p.rd_rel.mean()
            );
            assert!(p.ms_per_scenario.mean() > 0.0);
        }
        // Bigger networks cost more, but sub-quadratically enough to stay
        // usable; guard only against runaway blowup in CI.
        let small = r.points[0].ms_per_scenario.mean();
        let large = r.points[3].ms_per_scenario.mean();
        assert!(
            large < small * 2_000.0,
            "cost exploded: {small:.1} ms -> {large:.1} ms"
        );
    }

    #[test]
    fn artifacts_render() {
        let r = run(Effort::Quick);
        assert!(r.table().render().contains("ms/scenario"));
        assert_eq!(r.to_csv().render().lines().count(), 5);
        assert!(r.summary().contains("practical"));
    }
}
