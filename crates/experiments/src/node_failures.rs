//! Node-failure extension: the paper's failure model explicitly covers
//! router crashes (§1 footnote 1: "physical breakdown of the node" or
//! "service unavailability under heavy congestion"), but §4 evaluates link
//! cuts only. This experiment repeats the Figure 8 headline measurement
//! with the worst-case *node* failure instead: for each member, the
//! on-tree router adjacent to the source on its path crashes, taking all
//! of its links down at once.

use smrp_core::recovery::{self, DetourKind};
use smrp_core::MulticastTree;
use smrp_metrics::Stats;
use smrp_net::{FailureScenario, Graph, NodeId};

use crate::ci::ConfidenceInterval;
use crate::csvout::Csv;
use crate::measure::{build_smrp_tree, build_spf_tree, smrp_config};
use crate::scenario::ScenarioConfig;
use crate::table::{percent, Table};
use crate::Effort;

/// Results of the node-failure comparison.
#[derive(Debug, Clone)]
pub(crate) struct NodeFailureResult {
    /// `RD^relative` under worst-case node failures.
    pub rd_rel: ConfidenceInterval,
    /// Fraction of (member, failure) cases recoverable on the SPF tree.
    pub spf_recoverable: f64,
    /// Fraction recoverable on the SMRP tree.
    pub smrp_recoverable: f64,
    /// Scenarios measured.
    pub scenarios: usize,
}

/// The worst-case node failure for `member`: the first on-tree router
/// after the source on the member's path. `None` when the member is
/// directly adjacent to the source (there is no intermediate router to
/// crash).
pub(crate) fn worst_case_node_failure(tree: &MulticastTree, member: NodeId) -> Option<NodeId> {
    let path = tree.path_from_source(member)?;
    let nodes = path.nodes();
    // nodes[0] is the source; nodes[1] is the first router. Crashing the
    // member itself is not a recovery scenario.
    let candidate = *nodes.get(1)?;
    (candidate != member).then_some(candidate)
}

fn rd_under_node_failure(graph: &Graph, tree: &MulticastTree, member: NodeId) -> Option<f64> {
    let crash = worst_case_node_failure(tree, member)?;
    let scenario = FailureScenario::node(crash);
    match recovery::recover(graph, tree, &scenario, member, DetourKind::Local) {
        Ok(rec) => Some(rec.recovery_distance()),
        Err(recovery::RecoveryError::NotAffected(_)) => Some(0.0),
        Err(recovery::RecoveryError::Unrecoverable(_)) => None,
    }
}

/// Runs the node-failure experiment on the Figure 8 base setup.
pub(crate) fn run(effort: Effort) -> NodeFailureResult {
    let config = ScenarioConfig::default();
    let topologies = effort.scale(10).max(2) as u32;
    let member_sets = effort.scale(5).max(1) as u32;
    let scenarios = config
        .scenarios(topologies, member_sets)
        .expect("valid scenario parameters");

    let mut rel = Stats::new();
    let mut spf_cases = 0u64;
    let mut spf_ok = 0u64;
    let mut smrp_cases = 0u64;
    let mut smrp_ok = 0u64;

    for scenario in &scenarios {
        let smrp = build_smrp_tree(scenario, smrp_config(0.3)).expect("tree builds");
        let spf = build_spf_tree(scenario).expect("tree builds");
        let graph = &scenario.graph;
        let mut per_scenario = Stats::new();
        for &m in &scenario.members {
            let rd_spf = if worst_case_node_failure(&spf, m).is_some() {
                spf_cases += 1;
                let rd = rd_under_node_failure(graph, &spf, m);
                if rd.is_some() {
                    spf_ok += 1;
                }
                rd
            } else {
                None
            };
            let rd_smrp = if worst_case_node_failure(&smrp, m).is_some() {
                smrp_cases += 1;
                let rd = rd_under_node_failure(graph, &smrp, m);
                if rd.is_some() {
                    smrp_ok += 1;
                }
                rd
            } else {
                None
            };
            if let (Some(spf_rd), Some(smrp_rd)) = (rd_spf, rd_smrp) {
                if spf_rd > 0.0 {
                    per_scenario.push((spf_rd - smrp_rd) / spf_rd);
                }
            }
        }
        if per_scenario.count() > 0 {
            rel.push(per_scenario.mean());
        }
    }

    NodeFailureResult {
        rd_rel: ConfidenceInterval::from_stats(&rel),
        spf_recoverable: if spf_cases == 0 {
            0.0
        } else {
            spf_ok as f64 / spf_cases as f64
        },
        smrp_recoverable: if smrp_cases == 0 {
            0.0
        } else {
            smrp_ok as f64 / smrp_cases as f64
        },
        scenarios: scenarios.len(),
    }
}

impl NodeFailureResult {
    /// Renders the result table.
    pub(crate) fn table(&self) -> Table {
        let mut t = Table::new(vec!["metric", "value"]);
        t.row(vec![
            "RD_rel under worst-case node crash".into(),
            format!(
                "{} ± {}",
                percent(self.rd_rel.mean),
                percent(self.rd_rel.half_width)
            ),
        ]);
        t.row(vec![
            "recoverable cases (SPF tree)".into(),
            percent(self.spf_recoverable),
        ]);
        t.row(vec![
            "recoverable cases (SMRP tree)".into(),
            percent(self.smrp_recoverable),
        ]);
        t.row(vec!["scenarios".into(), format!("{}", self.scenarios)]);
        t
    }

    /// CSV artifact.
    pub(crate) fn to_csv(&self) -> Csv {
        let mut csv = Csv::new(vec![
            "rd_rel_mean",
            "rd_rel_ci",
            "spf_recoverable",
            "smrp_recoverable",
            "scenarios",
        ]);
        csv.row_f64(&[
            self.rd_rel.mean,
            self.rd_rel.half_width,
            self.spf_recoverable,
            self.smrp_recoverable,
            self.scenarios as f64,
        ]);
        csv
    }

    /// Textual summary.
    pub(crate) fn summary(&self) -> String {
        format!(
            "under worst-case router crashes SMRP still shortens recovery paths by \
             {:.1}% and keeps {:.0}% of cases recoverable (SPF: {:.0}%) — the link-cut \
             advantage of §4.3 extends to the paper's full failure model",
            self.rd_rel.mean * 100.0,
            self.smrp_recoverable * 100.0,
            self.spf_recoverable * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_crashes_are_survivable_and_improved() {
        let r = run(Effort::Quick);
        assert!(r.scenarios >= 2);
        // A crash is strictly worse than a cut, but SMRP should still help.
        assert!(
            r.rd_rel.mean > -0.05,
            "node-failure RD_rel regressed: {:.3}",
            r.rd_rel.mean
        );
        assert!(r.spf_recoverable > 0.7);
        assert!(r.smrp_recoverable > 0.7);
    }

    #[test]
    fn worst_case_node_is_the_first_router() {
        use smrp_net::Path;
        let mut g = Graph::with_nodes(4);
        let ids: Vec<_> = g.node_ids().collect();
        g.add_link(ids[0], ids[1], 1.0).unwrap();
        g.add_link(ids[1], ids[2], 1.0).unwrap();
        g.add_link(ids[0], ids[3], 1.0).unwrap();
        let mut t = MulticastTree::new(&g, ids[0]).unwrap();
        t.attach_path(&Path::new(vec![ids[2], ids[1], ids[0]]));
        t.set_member(ids[2], true).unwrap();
        assert_eq!(worst_case_node_failure(&t, ids[2]), Some(ids[1]));
        // A member adjacent to the source has no router to crash.
        t.attach_path(&Path::new(vec![ids[3], ids[0]]));
        t.set_member(ids[3], true).unwrap();
        assert_eq!(worst_case_node_failure(&t, ids[3]), None);
    }

    #[test]
    fn artifacts_render() {
        let r = run(Effort::Quick);
        assert!(r.table().render().contains("node crash"));
        assert_eq!(r.to_csv().render().lines().count(), 2);
        assert!(r.summary().contains("router crashes"));
    }
}
