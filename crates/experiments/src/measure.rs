//! The measurement kernel of §4.2/§4.3.1.
//!
//! For one [`Scenario`]:
//!
//! 1. build the SMRP tree (path-selection + reshaping) and the SPF baseline
//!    tree over the same topology and member set;
//! 2. for every member and each tree, apply the member's **worst-case
//!    failure** — the tree link incident to the source on that member's
//!    path (§4.3.1) — and compute the local-detour recovery distance;
//! 3. record per-member end-to-end delays and per-tree costs;
//! 4. reduce to the relative metrics of §4.2.

use smrp_core::recovery::{self, DetourKind};
use smrp_core::select::SelectionMode;
use smrp_core::{MulticastTree, SmrpConfig, SmrpError, SmrpSession, SpfSession};
use smrp_net::{FailureScenario, Graph, NodeId};

use crate::relative;
use crate::scenario::Scenario;

/// Per-member measurements across both trees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemberOutcome {
    /// The member.
    pub member: NodeId,
    /// Worst-case local-detour recovery distance on the SPF tree
    /// (`None` when the member was unrecoverable there).
    pub rd_spf: Option<f64>,
    /// Worst-case local-detour recovery distance on the SMRP tree.
    pub rd_smrp: Option<f64>,
    /// End-to-end tree delay on the SPF tree.
    pub delay_spf: f64,
    /// End-to-end tree delay on the SMRP tree.
    pub delay_smrp: f64,
}

/// All measurements for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Per-member measurements.
    pub members: Vec<MemberOutcome>,
    /// SPF tree cost.
    pub cost_spf: f64,
    /// SMRP tree cost.
    pub cost_smrp: f64,
}

impl ScenarioOutcome {
    /// Mean `RD^relative` over members measurable on both trees.
    pub fn mean_rd_relative(&self) -> Option<f64> {
        let vals: Vec<f64> = self
            .members
            .iter()
            .filter_map(|m| match (m.rd_spf, m.rd_smrp) {
                (Some(spf), Some(smrp)) if spf > 0.0 => Some(relative::rd_relative(spf, smrp)),
                _ => None,
            })
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Mean `D^relative` (per-member delay penalty) over members.
    pub fn mean_delay_relative(&self) -> Option<f64> {
        let vals: Vec<f64> = self
            .members
            .iter()
            .filter(|m| m.delay_spf > 0.0)
            .map(|m| relative::delay_relative(m.delay_smrp, m.delay_spf))
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// `Cost^relative` of the trees.
    pub(crate) fn cost_relative(&self) -> f64 {
        relative::cost_relative(self.cost_smrp, self.cost_spf)
    }
}

/// Builds the SMRP tree for a scenario.
///
/// # Errors
///
/// Propagates join failures (disconnected members cannot occur on the
/// connected topologies the generators produce).
pub(crate) fn build_smrp_tree(
    scenario: &Scenario,
    config: SmrpConfig,
) -> Result<MulticastTree, SmrpError> {
    let mut sess = SmrpSession::new(&scenario.graph, scenario.source, config)?;
    for &m in &scenario.members {
        sess.join(m)?;
    }
    Ok(sess.into_tree())
}

/// Builds the SPF baseline tree for a scenario.
///
/// # Errors
///
/// Propagates join failures.
pub(crate) fn build_spf_tree(scenario: &Scenario) -> Result<MulticastTree, SmrpError> {
    let mut sess = SpfSession::new(&scenario.graph, scenario.source)?;
    for &m in &scenario.members {
        sess.join(m)?;
    }
    Ok(sess.into_tree())
}

/// Worst-case local-detour recovery distance for `member` on `tree`
/// (§4.3.1): fail the source-incident link of the member's path, recover
/// via the nearest still-connected on-tree node.
///
/// Returns `None` if the member has no failure to recover from (degenerate)
/// or is unrecoverable under the worst-case failure.
pub(crate) fn worst_case_rd(
    graph: &Graph,
    tree: &MulticastTree,
    member: NodeId,
    kind: DetourKind,
) -> Option<f64> {
    let link = recovery::worst_case_failure_for(graph, tree, member)?;
    let scenario = FailureScenario::link(link);
    match recovery::recover(graph, tree, &scenario, member, kind) {
        Ok(rec) => Some(rec.recovery_distance()),
        Err(recovery::RecoveryError::NotAffected(_)) => Some(0.0),
        Err(recovery::RecoveryError::Unrecoverable(_)) => None,
    }
}

/// Runs the full §4.2 measurement kernel on one scenario.
///
/// # Errors
///
/// Propagates tree-construction failures.
pub fn measure_scenario(
    scenario: &Scenario,
    config: SmrpConfig,
) -> Result<ScenarioOutcome, SmrpError> {
    let smrp = build_smrp_tree(scenario, config)?;
    let spf = build_spf_tree(scenario)?;
    let graph = &scenario.graph;

    let members = scenario
        .members
        .iter()
        .map(|&m| MemberOutcome {
            member: m,
            rd_spf: worst_case_rd(graph, &spf, m, DetourKind::Local),
            rd_smrp: worst_case_rd(graph, &smrp, m, DetourKind::Local),
            delay_spf: spf.delay_to(graph, m).expect("member is on the SPF tree"),
            delay_smrp: smrp.delay_to(graph, m).expect("member is on the SMRP tree"),
        })
        .collect();

    Ok(ScenarioOutcome {
        members,
        cost_spf: spf.cost(graph),
        cost_smrp: smrp.cost(graph),
    })
}

/// The default SMRP configuration used by the figure experiments, with the
/// given `D_thresh`.
pub fn smrp_config(d_thresh: f64) -> SmrpConfig {
    SmrpConfig {
        d_thresh,
        selection: SelectionMode::FullTopology,
        ..SmrpConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;

    fn small_scenario() -> Scenario {
        let cfg = ScenarioConfig {
            nodes: 40,
            group_size: 8,
            alpha: 0.3,
            base_seed: 11,
        };
        cfg.scenarios(1, 1).unwrap().into_iter().next().unwrap()
    }

    #[test]
    fn kernel_produces_complete_outcomes() {
        let s = small_scenario();
        let out = measure_scenario(&s, smrp_config(0.3)).unwrap();
        assert_eq!(out.members.len(), 8);
        assert!(out.cost_spf > 0.0);
        assert!(out.cost_smrp > 0.0);
        for m in &out.members {
            assert!(m.delay_spf > 0.0);
            assert!(m.delay_smrp > 0.0);
        }
    }

    #[test]
    fn smrp_delay_bound_holds_at_join_time() {
        // The selection criterion guarantees the D_thresh bound whenever a
        // candidate satisfying it exists (`within_bound`); verify both the
        // flag and the delays it certifies.
        let s = small_scenario();
        let mut sess = SmrpSession::new(&s.graph, s.source, smrp_config(0.3)).unwrap();
        let mut within = 0;
        for &m in &s.members {
            let out = sess.join(m).unwrap();
            if out.within_bound {
                within += 1;
                assert!(
                    out.selected_delay <= 1.3 * out.spf_delay + 1e-6,
                    "member {m}: {} vs bound {}",
                    out.selected_delay,
                    1.3 * out.spf_delay
                );
            }
        }
        // On a connected random topology the bound is satisfiable for the
        // overwhelming majority of joins.
        assert!(
            within >= s.members.len() - 1,
            "only {within} joins in bound"
        );
    }

    #[test]
    fn spf_tree_has_shortest_path_delays() {
        let s = small_scenario();
        let spf = build_spf_tree(&s).unwrap();
        for &m in &s.members {
            let d1 = spf.delay_to(&s.graph, m).unwrap();
            let d2 = smrp_net::dijkstra::distance(&s.graph, s.source, m).unwrap();
            assert!((d1 - d2).abs() < 1e-9, "member {m}: {d1} vs SPF {d2}");
        }
    }

    #[test]
    fn relative_reductions_are_defined() {
        let s = small_scenario();
        let out = measure_scenario(&s, smrp_config(0.3)).unwrap();
        // On a connected random graph the metrics should be measurable.
        assert!(out.mean_rd_relative().is_some());
        assert!(out.mean_delay_relative().is_some());
        // Delay penalty stays small on average (the bound holds per join;
        // reshaped subtrees and rare fallbacks add slack).
        assert!(out.mean_delay_relative().unwrap() <= 0.4);
        // Costs cannot shrink below the SPF tree by much... SMRP trades
        // cost away, so the penalty is usually >= 0; allow small negatives
        // (reshaping can occasionally shorten).
        assert!(out.cost_relative() > -0.5);
    }

    #[test]
    fn worst_case_rd_handles_adjacent_member() {
        // Member adjacent to the source: failing its only link may still be
        // recoverable through another neighbor.
        let mut g = Graph::with_nodes(3);
        let ids: Vec<_> = g.node_ids().collect();
        g.add_link(ids[0], ids[1], 1.0).unwrap();
        g.add_link(ids[1], ids[2], 1.0).unwrap();
        g.add_link(ids[0], ids[2], 1.0).unwrap();
        let mut sess = SpfSession::new(&g, ids[0]).unwrap();
        sess.join(ids[1]).unwrap();
        let rd = worst_case_rd(&g, sess.tree(), ids[1], DetourKind::Local);
        // Detour n1 -> n2 -> n0 reaches the tree at n0 with distance 2.
        assert_eq!(rd, Some(2.0));
    }
}
