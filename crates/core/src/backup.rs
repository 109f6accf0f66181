//! Preplanned backup paths (the proactive alternative from related work).
//!
//! §2 of the paper contrasts SMRP's reactive local detour with Han & Shin's
//! *dependable real-time connections*: a primary channel plus a preplanned
//! backup channel that is activated instantly on failure — no search, but
//! standing resource overhead. This module implements that scheme on top of
//! the multicast tree so the trade-off can be measured:
//!
//! * [`plan_backups`] computes, for every member, a backup path to the
//!   source that is maximally disjoint from the member's primary tree path
//!   (link-disjoint when the topology allows it, falling back to the least
//!   overlapping alternative otherwise);
//! * [`activate`] checks whether a member's backup survives a failure
//!   scenario and returns the activation;
//! * [`standing_overhead`] quantifies the extra resources the backups
//!   reserve while no failure is present.

use smrp_net::dijkstra::{self, Constraints};
use smrp_net::{FailureScenario, Graph, LinkId, NodeId, Path};

use crate::tree::MulticastTree;

/// A member's preplanned backup path.
#[derive(Debug, Clone, PartialEq)]
pub struct BackupPlan {
    /// The protected member.
    pub member: NodeId,
    /// The member's primary on-tree path (source → member).
    pub primary: Path,
    /// The preplanned backup path (member → source).
    pub backup: Path,
    /// Whether the backup is fully link-disjoint from the primary.
    pub link_disjoint: bool,
}

impl BackupPlan {
    /// Links of the backup path that are not part of `tree` — the
    /// resources the plan reserves in advance.
    pub(crate) fn reserved_links(&self, graph: &Graph, tree: &MulticastTree) -> Vec<LinkId> {
        let tree_links = tree.links(graph);
        self.backup
            .links(graph)
            .into_iter()
            .filter(|l| !tree_links.contains(l))
            .collect()
    }
}

/// Computes a backup plan for one member.
///
/// Tries a fully link-disjoint shortest path first (interior nodes of the
/// primary are also avoided when possible, protecting against node
/// failures); if none exists, falls back to the plain post-exclusion
/// shortest path with only the primary's links removed; if even that fails
/// the member is unprotectable and `None` is returned.
pub(crate) fn plan_backup(
    graph: &Graph,
    tree: &MulticastTree,
    member: NodeId,
) -> Option<BackupPlan> {
    let primary = tree.path_from_source(member)?;
    let source = tree.source();
    let primary_links = primary.links(graph);
    // Interior nodes of the primary (everything but the two endpoints).
    let interior: Vec<NodeId> = primary.nodes()[1..primary.nodes().len() - 1].to_vec();

    // Strongest protection first: node- and link-disjoint.
    let strong = dijkstra::shortest_path_constrained(
        graph,
        member,
        source,
        Constraints {
            forbidden_nodes: &interior,
            forbidden_links: &primary_links,
            ..Constraints::default()
        },
    );
    if let Some(backup) = strong {
        return Some(BackupPlan {
            member,
            primary,
            backup,
            link_disjoint: true,
        });
    }
    // Fall back to link-disjoint only.
    let weak = dijkstra::shortest_path_constrained(
        graph,
        member,
        source,
        Constraints {
            forbidden_links: &primary_links,
            ..Constraints::default()
        },
    );
    if let Some(backup) = weak {
        let disjoint = backup
            .links(graph)
            .iter()
            .all(|l| !primary_links.contains(l));
        return Some(BackupPlan {
            member,
            primary,
            backup,
            link_disjoint: disjoint,
        });
    }
    None
}

/// Plans backups for every member of the tree; members with no alternative
/// connectivity are omitted.
///
/// # Example
///
/// ```
/// use smrp_core::{backup, paper};
///
/// let (graph, tree, _) = paper::figure1();
/// let plans = backup::plan_backups(&graph, &tree);
/// assert_eq!(plans.len(), 2);
/// assert!(plans.iter().all(|p| p.link_disjoint));
/// ```
pub fn plan_backups(graph: &Graph, tree: &MulticastTree) -> Vec<BackupPlan> {
    tree.members()
        .filter_map(|m| plan_backup(graph, tree, m))
        .collect()
}

/// Outcome of activating a backup under a failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Activation {
    /// The backup survives the failure and carries traffic immediately.
    Switched {
        /// Delay of the backup path (the member's new end-to-end delay).
        backup_delay: f64,
    },
    /// The failure hit the backup too; reactive recovery is required.
    BackupDead,
    /// The member's primary was not affected; no activation needed.
    NotNeeded,
}

/// Activates `plan` under `scenario`.
pub fn activate(graph: &Graph, plan: &BackupPlan, scenario: &FailureScenario) -> Activation {
    if scenario.path_usable(graph, plan.primary.nodes()) {
        return Activation::NotNeeded;
    }
    if scenario.path_usable(graph, plan.backup.nodes()) {
        Activation::Switched {
            backup_delay: plan.backup.delay(graph),
        }
    } else {
        Activation::BackupDead
    }
}

/// Total cost of the links all `plans` reserve beyond the tree itself —
/// the standing price of proactive protection.
pub fn standing_overhead(graph: &Graph, tree: &MulticastTree, plans: &[BackupPlan]) -> f64 {
    let mut reserved: Vec<LinkId> = plans
        .iter()
        .flat_map(|p| p.reserved_links(graph, tree))
        .collect();
    reserved.sort_unstable();
    reserved.dedup();
    reserved.into_iter().map(|l| graph.link(l).cost()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use smrp_net::Graph;

    #[test]
    fn figure1_members_get_disjoint_backups() {
        let (g, tree, n) = paper::figure1();
        let plans = plan_backups(&g, &tree);
        assert_eq!(plans.len(), 2);
        for plan in &plans {
            assert!(plan.link_disjoint, "{} backup overlaps", plan.member);
            assert_eq!(plan.backup.source(), plan.member);
            assert_eq!(plan.backup.target(), n.s);
            assert!(plan.backup.validate(&g).is_ok());
        }
    }

    #[test]
    fn activation_switches_on_primary_failure() {
        let (g, tree, n) = paper::figure1();
        let plan = plan_backup(&g, &tree, n.d).unwrap();
        let l_ad = g.link_between(n.a, n.d).unwrap();
        let scenario = FailureScenario::link(l_ad);
        match activate(&g, &plan, &scenario) {
            Activation::Switched { backup_delay } => {
                // D's disjoint backup is D->B->S with delay 3.
                assert_eq!(backup_delay, 3.0);
            }
            other => panic!("expected a switch, got {other:?}"),
        }
    }

    #[test]
    fn unaffected_member_needs_no_activation() {
        let (g, tree, n) = paper::figure1();
        let plan = plan_backup(&g, &tree, n.c).unwrap();
        let l_ad = g.link_between(n.a, n.d).unwrap();
        assert_eq!(
            activate(&g, &plan, &FailureScenario::link(l_ad)),
            Activation::NotNeeded
        );
    }

    #[test]
    fn dead_backup_is_reported() {
        let (g, tree, n) = paper::figure1();
        let plan = plan_backup(&g, &tree, n.d).unwrap();
        // Kill both the primary (A-D) and the backup's B node.
        let mut scenario = FailureScenario::link(g.link_between(n.a, n.d).unwrap());
        scenario.fail_node(n.b);
        assert_eq!(activate(&g, &plan, &scenario), Activation::BackupDead);
    }

    #[test]
    fn no_backup_on_a_tree_topology() {
        // A pure tree graph offers no disjoint alternative at all.
        let mut g = Graph::with_nodes(3);
        let ids: Vec<_> = g.node_ids().collect();
        g.add_link(ids[0], ids[1], 1.0).unwrap();
        g.add_link(ids[1], ids[2], 1.0).unwrap();
        let mut tree = crate::MulticastTree::new(&g, ids[0]).unwrap();
        tree.attach_path(&Path::new(vec![ids[2], ids[1], ids[0]]));
        tree.set_member(ids[2], true).unwrap();
        assert!(plan_backup(&g, &tree, ids[2]).is_none());
        assert!(plan_backups(&g, &tree).is_empty());
    }

    #[test]
    fn standing_overhead_counts_reserved_links_once() {
        let (g, tree, _) = paper::figure1();
        let plans = plan_backups(&g, &tree);
        let overhead = standing_overhead(&g, &tree, &plans);
        // C's backup C->D->B->S and D's backup D->B->S share D-B and B-S:
        // reserved links are {C-D (2), D-B (1), B-S (2)} = 5.
        assert_eq!(overhead, 5.0);
    }

    #[test]
    fn off_tree_node_has_no_plan() {
        let (g, tree, n) = paper::figure1();
        assert!(plan_backup(&g, &tree, n.b).is_none());
    }
}
