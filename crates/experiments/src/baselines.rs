//! Three-way baseline comparison: SPF vs cost-minimizing Steiner vs SMRP.
//!
//! §4.2 expects the paper's conclusions to carry over "to the
//! cost-minimizing multicast routing protocols" (Wei & Estrin's trade-off
//! study). This experiment puts all three tree builders on the same
//! scenarios and measures the sharing spectrum end to end: Steiner trees
//! maximize sharing (cheapest, worst recovery), SPF sits in the middle,
//! SMRP deliberately minimizes sharing (best recovery, bounded delay
//! penalty).

use smrp_core::recovery::DetourKind;
use smrp_core::{MulticastTree, SmrpError, SteinerSession};
use smrp_metrics::Stats;

use crate::csvout::Csv;
use crate::measure::{build_smrp_tree, build_spf_tree, smrp_config, worst_case_rd};
use crate::scenario::{Scenario, ScenarioConfig};
use crate::table::Table;
use crate::Effort;

/// Aggregated metrics for one tree-construction protocol.
#[derive(Debug, Clone)]
pub(crate) struct ProtocolRow {
    /// Protocol name.
    pub name: &'static str,
    /// Worst-case local-detour recovery distance over members.
    pub rd: Stats,
    /// End-to-end member delay.
    pub delay: Stats,
    /// Tree cost.
    pub cost: Stats,
}

/// Results of the baseline comparison.
#[derive(Debug, Clone)]
pub(crate) struct BaselinesResult {
    /// One row per protocol: SPF, Steiner, SMRP.
    pub rows: Vec<ProtocolRow>,
}

fn build_steiner_tree(scenario: &Scenario) -> Result<MulticastTree, SmrpError> {
    let mut sess = SteinerSession::new(&scenario.graph, scenario.source)?;
    for &m in &scenario.members {
        sess.join(m)?;
    }
    Ok(sess.into_tree())
}

/// Runs the comparison on the Figure 8 base setup.
pub(crate) fn run(effort: Effort) -> BaselinesResult {
    let config = ScenarioConfig::default();
    let topologies = effort.scale(10).max(2) as u32;
    let member_sets = effort.scale(5).max(1) as u32;
    let scenarios = config
        .scenarios(topologies, member_sets)
        .expect("valid scenario parameters");

    let mut rows: Vec<ProtocolRow> = ["SPF (PIM-style)", "Steiner (cost-min)", "SMRP (0.3)"]
        .into_iter()
        .map(|name| ProtocolRow {
            name,
            rd: Stats::new(),
            delay: Stats::new(),
            cost: Stats::new(),
        })
        .collect();

    for scenario in &scenarios {
        let trees = [
            build_spf_tree(scenario).expect("SPF tree builds"),
            build_steiner_tree(scenario).expect("Steiner tree builds"),
            build_smrp_tree(scenario, smrp_config(0.3)).expect("SMRP tree builds"),
        ];
        for (row, tree) in rows.iter_mut().zip(&trees) {
            row.cost.push(tree.cost(&scenario.graph));
            for &m in &scenario.members {
                if let Some(d) = tree.delay_to(&scenario.graph, m) {
                    row.delay.push(d);
                }
                if let Some(rd) = worst_case_rd(&scenario.graph, tree, m, DetourKind::Local) {
                    row.rd.push(rd);
                }
            }
        }
    }
    BaselinesResult { rows }
}

impl BaselinesResult {
    /// Renders the comparison table.
    pub(crate) fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "protocol",
            "mean worst-case RD",
            "mean delay",
            "mean tree cost",
        ]);
        for row in &self.rows {
            t.row(vec![
                row.name.to_string(),
                format!("{:.2}", row.rd.mean()),
                format!("{:.2}", row.delay.mean()),
                format!("{:.2}", row.cost.mean()),
            ]);
        }
        t
    }

    /// CSV artifact.
    pub(crate) fn to_csv(&self) -> Csv {
        let mut csv = Csv::new(vec!["protocol", "rd_mean", "delay_mean", "cost_mean"]);
        for row in &self.rows {
            csv.row(vec![
                row.name.to_string(),
                format!("{}", row.rd.mean()),
                format!("{}", row.delay.mean()),
                format!("{}", row.cost.mean()),
            ]);
        }
        csv
    }

    /// Row accessors by position: SPF, Steiner, SMRP.
    pub(crate) fn spf(&self) -> &ProtocolRow {
        &self.rows[0]
    }
    /// The cost-minimizing baseline row.
    pub(crate) fn steiner(&self) -> &ProtocolRow {
        &self.rows[1]
    }
    /// The SMRP row.
    pub(crate) fn smrp(&self) -> &ProtocolRow {
        &self.rows[2]
    }

    /// Textual summary of the sharing spectrum.
    pub(crate) fn summary(&self) -> String {
        format!(
            "worst-case RD: Steiner {:.1} ≥ SPF {:.1} ≥ SMRP {:.1}; tree cost: \
             Steiner {:.1} ≤ SPF {:.1} ≤ SMRP {:.1} — recovery speed is bought \
             with sharing, exactly the paper's §4.2 expectation",
            self.steiner().rd.mean(),
            self.spf().rd.mean(),
            self.smrp().rd.mean(),
            self.steiner().cost.mean(),
            self.spf().cost.mean(),
            self.smrp().cost.mean(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_spectrum_orders_protocols() {
        let r = run(Effort::Quick);
        // Cost: Steiner <= SPF (cost-min by construction, heuristically).
        assert!(
            r.steiner().cost.mean() <= r.spf().cost.mean() * 1.05,
            "Steiner ({:.1}) should not cost more than SPF ({:.1})",
            r.steiner().cost.mean(),
            r.spf().cost.mean()
        );
        // Recovery: SMRP < SPF (the paper's core result).
        assert!(
            r.smrp().rd.mean() < r.spf().rd.mean(),
            "SMRP RD ({:.1}) should beat SPF ({:.1})",
            r.smrp().rd.mean(),
            r.spf().rd.mean()
        );
        // Delay: SPF optimal.
        assert!(r.spf().delay.mean() <= r.smrp().delay.mean() + 1e-9);
        assert!(r.spf().delay.mean() <= r.steiner().delay.mean() + 1e-9);
    }

    #[test]
    fn artifacts_render() {
        let r = run(Effort::Quick);
        assert!(r.table().render().contains("Steiner"));
        assert_eq!(r.to_csv().render().lines().count(), 4);
        assert!(r.summary().contains("sharing"));
    }
}
