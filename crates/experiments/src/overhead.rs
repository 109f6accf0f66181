//! Control-plane overhead (§3.3.2 "Protocol Overhead").
//!
//! The paper argues SMRP's extra state maintenance is "fairly small …
//! especially when fast service recovery is required". This experiment
//! quantifies it at the message level: steady-state control traffic
//! (hellos, refreshes) per delivered data packet, per router, for SMRP and
//! SPF trees over the same scenarios — SMRP's extra cost is just the
//! larger tree (more on-tree routers exchanging the same timers).

use smrp_metrics::Stats;
use smrp_proto::{ProtoSession, TreeProtocol};
use smrp_sim::SimTime;

use crate::csvout::Csv;
use crate::measure::smrp_config;
use crate::scenario::ScenarioConfig;
use crate::table::Table;
use crate::Effort;

/// Aggregated overhead for one tree protocol.
#[derive(Debug, Clone)]
pub(crate) struct OverheadRow {
    /// Protocol name.
    pub name: &'static str,
    /// Control messages per delivered data packet.
    pub control_per_delivery: Stats,
    /// Control messages per on-tree router per second.
    pub control_rate: Stats,
    /// On-tree routers (tree size including relays).
    pub tree_size: Stats,
}

/// Results of the overhead experiment.
#[derive(Debug, Clone)]
pub(crate) struct OverheadResult {
    /// SPF and SMRP rows.
    pub rows: Vec<OverheadRow>,
}

/// Runs the steady-state overhead measurement.
pub(crate) fn run(effort: Effort) -> OverheadResult {
    let config = ScenarioConfig {
        nodes: 60,
        group_size: 12,
        ..ScenarioConfig::default()
    };
    let count = effort.scale(10).max(2) as u32;
    let scenarios = config
        .scenarios(count, 1)
        .expect("valid scenario parameters");

    let mut rows: Vec<OverheadRow> = ["SPF (PIM-style)", "SMRP (0.3)"]
        .into_iter()
        .map(|name| OverheadRow {
            name,
            control_per_delivery: Stats::new(),
            control_rate: Stats::new(),
            tree_size: Stats::new(),
        })
        .collect();

    let window = SimTime::from_ms(2000.0);
    for scenario in &scenarios {
        let protocols = [TreeProtocol::Spf, TreeProtocol::Smrp(smrp_config(0.3))];
        for (row, protocol) in rows.iter_mut().zip(protocols) {
            let session = ProtoSession::build(
                &scenario.graph,
                scenario.source,
                &scenario.members,
                protocol,
            )
            .expect("session builds");
            let report = session.run_steady(window);
            if report.control_per_delivery().is_finite() {
                row.control_per_delivery.push(report.control_per_delivery());
            }
            row.control_rate.push(report.control_rate_per_router());
            row.tree_size.push(report.on_tree_nodes as f64);
        }
    }
    OverheadResult { rows }
}

impl OverheadResult {
    /// Renders the comparison table.
    pub(crate) fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "protocol",
            "ctrl msgs / delivery",
            "ctrl msgs / router / s",
            "on-tree routers",
        ]);
        for row in &self.rows {
            t.row(vec![
                row.name.to_string(),
                format!("{:.2}", row.control_per_delivery.mean()),
                format!("{:.1}", row.control_rate.mean()),
                format!("{:.1}", row.tree_size.mean()),
            ]);
        }
        t
    }

    /// CSV artifact.
    pub(crate) fn to_csv(&self) -> Csv {
        let mut csv = Csv::new(vec![
            "protocol",
            "control_per_delivery",
            "control_rate_per_router",
            "tree_size",
        ]);
        for row in &self.rows {
            csv.row(vec![
                row.name.to_string(),
                format!("{}", row.control_per_delivery.mean()),
                format!("{}", row.control_rate.mean()),
                format!("{}", row.tree_size.mean()),
            ]);
        }
        csv
    }

    /// Relative extra control burden of SMRP over SPF.
    pub(crate) fn smrp_extra_fraction(&self) -> f64 {
        let spf = self.rows[0].control_per_delivery.mean();
        let smrp = self.rows[1].control_per_delivery.mean();
        if spf == 0.0 {
            0.0
        } else {
            (smrp - spf) / spf
        }
    }

    /// Textual summary against §3.3.2.
    pub(crate) fn summary(&self) -> String {
        format!(
            "SMRP's control overhead is {:.0}% above SPF's ({:.2} vs {:.2} control \
             messages per delivery) — the paper's \"fairly small overhead\" (§3.3.2)",
            self.smrp_extra_fraction() * 100.0,
            self.rows[1].control_per_delivery.mean(),
            self.rows[0].control_per_delivery.mean(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_fairly_small() {
        let r = run(Effort::Quick);
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            let v = row.control_per_delivery.mean();
            assert!(v.is_finite() && v > 0.0);
            assert!(v < 20.0, "{}: {v:.1} control msgs per delivery", row.name);
        }
        // SMRP trees are at least as large, so its overhead is >= SPF's,
        // but the §3.3.2 claim is that the extra stays moderate.
        let extra = r.smrp_extra_fraction();
        assert!(extra > -0.2, "SMRP implausibly cheaper: {extra:.2}");
        assert!(extra < 1.0, "SMRP overhead more than doubled: {extra:.2}");
    }

    #[test]
    fn artifacts_render() {
        let r = run(Effort::Quick);
        assert!(r.table().render().contains("protocol"));
        assert_eq!(r.to_csv().render().lines().count(), 3);
        assert!(r.summary().contains("overhead"));
    }
}
