//! Tree-quality audit: one-call diagnostics over a multicast tree.
//!
//! Reshaping decisions and `D_thresh` tuning need a quick answer to "how
//! healthy is this tree right now?": how much sharing remains, how far
//! members sit from their unicast optimum, and whether any member has
//! drifted past the delay bound (possible when a reshaped ancestor moved a
//! whole subtree, §3.2.3). [`audit`] computes all of it in one pass.

use smrp_net::dijkstra::ShortestPathTree;
use smrp_net::{Graph, NodeId};

use crate::tree::MulticastTree;

/// Snapshot of a tree's quality metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeAudit {
    /// Members (receivers).
    pub member_count: usize,
    /// Forwarding-only on-tree nodes.
    pub relay_count: usize,
    /// Tree links in use.
    pub link_count: usize,
    /// Mean `SHR(S, m)` over members — the protocol's sharing pressure.
    pub mean_member_shr: f64,
    /// Largest `SHR` among members.
    pub max_member_shr: u32,
    /// Mean delay stretch over members: tree delay ÷ unicast shortest
    /// distance (1.0 = SPF-optimal).
    pub mean_delay_stretch: f64,
    /// Members whose stretch exceeds `1 + d_thresh` (drift past the bound),
    /// with their stretch.
    pub bound_violations: Vec<(NodeId, f64)>,
    /// Longest member path in hops.
    pub max_depth: usize,
}

impl TreeAudit {}

impl std::fmt::Display for TreeAudit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} members, {} relays, {} links; mean SHR {:.1} (max {}), mean stretch \
             {:.3}, {} bound violation(s), depth {}",
            self.member_count,
            self.relay_count,
            self.link_count,
            self.mean_member_shr,
            self.max_member_shr,
            self.mean_delay_stretch,
            self.bound_violations.len(),
            self.max_depth
        )
    }
}

/// Audits `tree` against the delay bound `1 + d_thresh`.
///
/// The unicast distances come from [`ShortestPathTree::shared`], so an
/// audit right after a session built from the same source and graph runs
/// no Dijkstra.
///
/// # Example
///
/// ```
/// use smrp_core::{audit, paper};
///
/// let (graph, tree, _) = paper::figure1();
/// let report = audit::audit(&graph, &tree, 0.3);
/// assert_eq!(report.member_count, 2);
/// assert!(report.bound_violations.is_empty());
/// assert_eq!(report.mean_delay_stretch, 1.0); // the SPF tree of Fig. 1(a).
/// ```
pub fn audit(graph: &Graph, tree: &MulticastTree, d_thresh: f64) -> TreeAudit {
    let spt = ShortestPathTree::shared(graph, tree.source());
    let mut member_count = 0;
    let mut shr_total = 0u64;
    let mut max_shr = 0u32;
    let mut stretch_total = 0.0;
    let mut violations = Vec::new();
    let mut max_depth = 0usize;

    for m in tree.members() {
        member_count += 1;
        let shr = tree.shr(m);
        shr_total += u64::from(shr);
        max_shr = max_shr.max(shr);
        let Some(path) = tree.path_from_source(m) else {
            continue;
        };
        max_depth = max_depth.max(path.hop_count());
        let tree_delay = path.delay(graph);
        let spf = spt.distance(m).unwrap_or(f64::INFINITY);
        let stretch = if spf > 0.0 { tree_delay / spf } else { 1.0 };
        stretch_total += stretch;
        if stretch > 1.0 + d_thresh + 1e-9 {
            violations.push((m, stretch));
        }
    }

    let on_tree = tree.on_tree_nodes().count();
    TreeAudit {
        member_count,
        relay_count: on_tree - member_count - 1, // minus the source.
        link_count: tree.links(graph).len(),
        mean_member_shr: if member_count == 0 {
            0.0
        } else {
            shr_total as f64 / member_count as f64
        },
        max_member_shr: max_shr,
        mean_delay_stretch: if member_count == 0 {
            0.0
        } else {
            stretch_total / member_count as f64
        },
        bound_violations: violations,
        max_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper, SmrpConfig, SmrpSession, SpfSession};
    use smrp_net::waxman::WaxmanConfig;

    #[test]
    fn figure1_audit_values() {
        let (g, tree, _) = paper::figure1();
        let a = audit(&g, &tree, 0.3);
        assert_eq!(a.member_count, 2);
        assert_eq!(a.relay_count, 1); // A.
        assert_eq!(a.link_count, 3);
        assert_eq!(a.mean_member_shr, 3.0); // SHR(C) = SHR(D) = 3.
        assert_eq!(a.max_member_shr, 3);
        assert_eq!(a.mean_delay_stretch, 1.0);
        assert!(a.bound_violations.is_empty());
        assert_eq!(a.max_depth, 2);
    }

    #[test]
    fn spf_trees_have_unit_stretch() {
        let g = WaxmanConfig::new(40)
            .alpha(0.3)
            .seed(9)
            .generate()
            .unwrap()
            .into_graph();
        let ids: Vec<_> = g.node_ids().collect();
        let mut sess = SpfSession::new(&g, ids[0]).unwrap();
        for &m in ids.iter().skip(2).step_by(5).take(6) {
            sess.join(m).unwrap();
        }
        let a = audit(&g, sess.tree(), 0.0);
        assert!((a.mean_delay_stretch - 1.0).abs() < 1e-9);
        assert!(a.bound_violations.is_empty());
    }

    #[test]
    fn smrp_trees_trade_stretch_for_sharing() {
        let g = WaxmanConfig::new(60)
            .alpha(0.25)
            .seed(4)
            .generate()
            .unwrap()
            .into_graph();
        let ids: Vec<_> = g.node_ids().collect();
        let mut smrp = SmrpSession::new(&g, ids[0], SmrpConfig::default()).unwrap();
        let mut spf = SpfSession::new(&g, ids[0]).unwrap();
        for &m in ids.iter().skip(1).step_by(4).take(10) {
            smrp.join(m).unwrap();
            spf.join(m).unwrap();
        }
        let a_smrp = audit(&g, smrp.tree(), 0.3);
        let a_spf = audit(&g, spf.tree(), 0.3);
        // SMRP pays stretch to reduce sharing.
        assert!(a_smrp.mean_delay_stretch >= a_spf.mean_delay_stretch - 1e-9);
        assert!(a_smrp.mean_member_shr <= a_spf.mean_member_shr + 1e-9);
        // Stretch stays within the bound up to reshaped-subtree drift.
        assert!(a_smrp.mean_delay_stretch <= 1.3 + 0.1);
    }

    #[test]
    fn empty_tree_audit_is_neutral() {
        let g = smrp_net::Graph::with_nodes(3);
        let tree = crate::MulticastTree::new(&g, smrp_net::NodeId::new(0)).unwrap();
        let a = audit(&g, &tree, 0.3);
        assert_eq!(a.member_count, 0);
        assert_eq!(a.relay_count, 0);
        assert_eq!(a.mean_delay_stretch, 0.0);
        assert!(a.bound_violations.is_empty());
    }

    #[test]
    fn display_is_informative() {
        let (g, tree, _) = paper::figure1();
        let text = audit(&g, &tree, 0.3).to_string();
        assert!(text.contains("2 members"));
        assert!(text.contains("mean SHR"));
    }
}
