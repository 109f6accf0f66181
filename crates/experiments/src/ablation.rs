//! Ablations over SMRP's design choices (DESIGN.md §4, "Ablations").
//!
//! Three axes, all evaluated on the Figure 8 base setup
//! (`N = 100`, `N_G = 30`, `α = 0.2`, `D_thresh = 0.3`):
//!
//! * **Reshaping** (§3.2.3) on vs off — how much of the recovery-distance
//!   improvement is attributable to tree reshaping rather than join-time
//!   selection alone;
//! * **Candidate discovery** — full topology knowledge (§3.2.2) vs the
//!   neighbor-relayed query scheme (§3.3.1), quantifying the paper's
//!   warning that the query scheme "does not guarantee to obtain SHR for
//!   all on-tree nodes and the selected multicast path may not be optimal";
//! * **Condition I threshold** — how aggressive reshaping should be.

use smrp_core::select::SelectionMode;
use smrp_core::SmrpConfig;

use crate::csvout::Csv;
use crate::scenario::ScenarioConfig;
use crate::sweep::{self, SweepPoint};
use crate::table::{percent, Table};
use crate::Effort;

/// One ablation variant and its measurements.
#[derive(Debug, Clone)]
pub(crate) struct Variant {
    /// Human-readable variant name.
    pub name: &'static str,
    /// Aggregated metrics.
    pub point: SweepPoint,
}

/// Results of the ablation study.
#[derive(Debug, Clone)]
pub(crate) struct AblationResult {
    /// All measured variants, first one is the full protocol.
    pub variants: Vec<Variant>,
}

fn config(selection: SelectionMode, auto_reshape: bool, threshold: u32) -> SmrpConfig {
    SmrpConfig {
        d_thresh: 0.3,
        reshape_threshold: threshold,
        auto_reshape,
        selection,
    }
}

/// Runs the ablation grid.
pub(crate) fn run(effort: Effort) -> AblationResult {
    // Like the figure sweeps, variant comparisons are mean-vs-mean over a
    // high-variance per-scenario metric; keep a floor of 5×3 scenarios so
    // `Effort::Quick` stays statistically meaningful.
    let topologies = effort.scale(10).max(5) as u32;
    let member_sets = effort.scale(5).max(3) as u32;
    let base = ScenarioConfig::default();

    let variants = [
        (
            "full protocol",
            config(SelectionMode::FullTopology, true, 1),
        ),
        (
            "no reshaping",
            config(SelectionMode::FullTopology, false, 1),
        ),
        (
            "lazy reshaping (threshold 4)",
            config(SelectionMode::FullTopology, true, 4),
        ),
        (
            "neighbor-query selection",
            config(SelectionMode::NeighborQuery, true, 1),
        ),
        (
            "neighbor-query, no reshaping",
            config(SelectionMode::NeighborQuery, false, 1),
        ),
    ];

    let variants = variants
        .into_iter()
        .enumerate()
        .map(|(i, (name, cfg))| Variant {
            name,
            point: sweep::run_point(i as f64, &base, cfg, topologies, member_sets),
        })
        .collect();
    AblationResult { variants }
}

impl AblationResult {
    /// Renders the comparison table.
    pub(crate) fn table(&self) -> Table {
        let mut t = Table::new(vec!["variant", "RD_rel", "D_rel", "Cost_rel"]);
        for v in &self.variants {
            t.row(vec![
                v.name.to_string(),
                percent(v.point.rd_rel.mean),
                percent(v.point.delay_rel.mean),
                percent(v.point.cost_rel.mean),
            ]);
        }
        t
    }

    /// CSV artifact.
    pub(crate) fn to_csv(&self) -> Csv {
        let mut csv = Csv::new(vec!["variant", "rd_rel", "delay_rel", "cost_rel"]);
        for v in &self.variants {
            csv.row(vec![
                v.name.to_string(),
                format!("{}", v.point.rd_rel.mean),
                format!("{}", v.point.delay_rel.mean),
                format!("{}", v.point.cost_rel.mean),
            ]);
        }
        csv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_improve_over_spf() {
        let r = run(Effort::Quick);
        assert_eq!(r.variants.len(), 5);
        for v in &r.variants {
            assert!(
                v.point.rd_rel.mean > -0.05,
                "variant {} regressed: {:.3}",
                v.name,
                v.point.rd_rel.mean
            );
        }
    }

    #[test]
    fn full_protocol_beats_or_matches_the_query_scheme() {
        let r = run(Effort::Quick);
        let full = r.variants[0].point.rd_rel.mean;
        let query = r
            .variants
            .iter()
            .find(|v| v.name == "neighbor-query selection")
            .expect("variant exists")
            .point
            .rd_rel
            .mean;
        // The paper predicts the query scheme degrades path optimality; at
        // quick sample sizes we only require it not to *beat* the full
        // scheme by a margin.
        assert!(
            query <= full + 0.05,
            "query scheme ({query:.3}) implausibly beats full topology ({full:.3})"
        );
    }

    #[test]
    fn artifacts_render() {
        let r = run(Effort::Quick);
        assert!(r.table().render().contains("variant"));
        assert_eq!(r.to_csv().render().lines().count(), 6);
    }
}
