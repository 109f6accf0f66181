//! The SPF baseline: shortest-path-first multicast tree construction.
//!
//! Traditional multicast routing protocols (PIM-SM, MOSPF — §1 and §4.2 of
//! the paper) connect each member to the source along the path chosen by
//! the underlying unicast routing protocol, i.e. the shortest path. This
//! module implements that baseline over the same [`MulticastTree`]
//! representation so every metric (`SHR`, delay, cost, recovery distance)
//! is directly comparable with SMRP.
//!
//! Joining walks the member's unicast shortest path toward the source and
//! grafts the suffix beyond the first on-tree node encountered — exactly
//! PIM's `Join` propagation, which stops at the first router that already
//! has state for the group. The paths come from a [`GrowingSpt`], which
//! searches only the blocks between the source and the members asked
//! about, so a small group pays for its tree, not for the graph.

use smrp_net::dijkstra::GrowingSpt;
use smrp_net::{Graph, NodeId, Path};

use crate::error::SmrpError;
use crate::tree::MulticastTree;

/// An SPF-based (PIM-style) multicast session over a fixed topology.
///
/// # Example
///
/// ```
/// use smrp_core::SpfSession;
/// use smrp_net::Graph;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = Graph::with_nodes(3);
/// let ids: Vec<_> = g.node_ids().collect();
/// g.add_link(ids[0], ids[1], 1.0)?;
/// g.add_link(ids[1], ids[2], 1.0)?;
/// let mut sess = SpfSession::new(&g, ids[0])?;
/// sess.join(ids[2])?;
/// assert_eq!(sess.tree().delay_to(&g, ids[2]), Some(2.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SpfSession<'g> {
    graph: &'g Graph,
    tree: MulticastTree,
    /// Shortest-path tree from the source, reused across joins (unicast
    /// routing state is stable absent failures) and grown to each new
    /// member on its join.
    spt: GrowingSpt<'g>,
}

impl<'g> SpfSession<'g> {
    /// Creates an empty SPF session rooted at `source`.
    ///
    /// # Errors
    ///
    /// Fails on an unknown source node.
    pub fn new(graph: &'g Graph, source: NodeId) -> Result<Self, SmrpError> {
        let tree = MulticastTree::new(graph, source)?;
        let spt = GrowingSpt::new(graph, source);
        Ok(SpfSession { graph, tree, spt })
    }

    /// The underlying multicast tree.
    pub fn tree(&self) -> &MulticastTree {
        &self.tree
    }

    /// Ends the session and hands over its tree without copying it.
    pub fn into_tree(self) -> MulticastTree {
        self.tree
    }

    /// Joins `node` along its unicast shortest path to the source.
    ///
    /// Returns the member's resulting multicast path.
    ///
    /// # Errors
    ///
    /// * [`SmrpError::SourceOperation`] — the source cannot join;
    /// * [`SmrpError::AlreadyMember`] — duplicate join;
    /// * [`SmrpError::UnknownNode`] / [`SmrpError::NoFeasiblePath`].
    pub fn join(&mut self, node: NodeId) -> Result<Path, SmrpError> {
        if node == self.tree.source() {
            return Err(SmrpError::SourceOperation(node));
        }
        if !self.graph.contains_node(node) {
            return Err(SmrpError::UnknownNode(node));
        }
        if self.tree.is_member(node) {
            return Err(SmrpError::AlreadyMember(node));
        }
        if !self.tree.is_on_tree(node) {
            let spf_path = self
                .spt
                .path_to(node)
                .ok_or(SmrpError::NoFeasiblePath(node))?;
            // Walk from the member toward the source; stop at the first
            // on-tree node (PIM join semantics). The prefix beyond it is
            // grafted.
            let nodes = spf_path.nodes();
            let mut graft = vec![node];
            for &hop in nodes.iter().rev().skip(1) {
                graft.push(hop);
                if self.tree.is_on_tree(hop) {
                    break;
                }
            }
            self.tree.attach_path(&Path::new(graft));
        }
        self.tree.set_member(node, true)?;
        Ok(self
            .tree
            .path_from_source(node)
            .expect("member was just attached"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 1 graph (same weights as the smrp-net tests).
    fn figure1() -> (Graph, [NodeId; 5]) {
        let mut g = Graph::with_nodes(5);
        let ids: Vec<_> = g.node_ids().collect();
        let [s, a, b, c, d] = [ids[0], ids[1], ids[2], ids[3], ids[4]];
        g.add_link(s, a, 1.0).unwrap();
        g.add_link(a, c, 1.0).unwrap();
        g.add_link(a, d, 1.0).unwrap();
        g.add_link(c, d, 2.0).unwrap();
        g.add_link(d, b, 1.0).unwrap();
        g.add_link(b, s, 2.0).unwrap();
        (g, [s, a, b, c, d])
    }

    #[test]
    fn joins_follow_shortest_paths() {
        let (g, [s, a, _, c, d]) = figure1();
        let mut sess = SpfSession::new(&g, s).unwrap();
        let pc = sess.join(c).unwrap();
        assert_eq!(pc.nodes(), &[s, a, c]);
        let pd = sess.join(d).unwrap();
        assert_eq!(pd.nodes(), &[s, a, d]);
        sess.tree().validate(&g).unwrap();
        // This reconstructs exactly Figure 1(a): SHR(S,C) = 3.
        assert_eq!(sess.tree().shr(c), 3);
    }

    #[test]
    fn second_join_grafts_only_the_suffix() {
        let (g, [s, _a, _, c, d]) = figure1();
        let mut sess = SpfSession::new(&g, s).unwrap();
        sess.join(c).unwrap();
        let before = sess.tree().links(&g).len();
        sess.join(d).unwrap();
        // Only the A-D link is added; S-A is shared.
        assert_eq!(sess.tree().links(&g).len(), before + 1);
    }

    #[test]
    fn every_session_hands_over_the_tree_it_built() {
        let (g, [s, _, b, c, d]) = figure1();
        let mut spf = SpfSession::new(&g, s).unwrap();
        let mut smrp = crate::SmrpSession::new(&g, s, crate::SmrpConfig::default()).unwrap();
        let mut steiner = crate::SteinerSession::new(&g, s).unwrap();
        for m in [c, d, b] {
            spf.join(m).unwrap();
            smrp.join(m).unwrap();
            steiner.join(m).unwrap();
        }
        let built = [
            spf.tree().clone(),
            smrp.tree().clone(),
            steiner.tree().clone(),
        ];
        assert_eq!(
            [spf.into_tree(), smrp.into_tree(), steiner.into_tree()],
            built
        );
    }

    #[test]
    fn error_paths() {
        let (g, [s, _, _, c, _]) = figure1();
        let mut sess = SpfSession::new(&g, s).unwrap();
        assert!(matches!(sess.join(s), Err(SmrpError::SourceOperation(_))));
        sess.join(c).unwrap();
        assert!(matches!(sess.join(c), Err(SmrpError::AlreadyMember(_))));
        assert!(matches!(
            sess.join(NodeId::new(50)),
            Err(SmrpError::UnknownNode(_))
        ));
    }

    #[test]
    fn relay_upgrade_to_member() {
        let (g, [s, a, _, c, _]) = figure1();
        let mut sess = SpfSession::new(&g, s).unwrap();
        sess.join(c).unwrap();
        let p = sess.join(a).unwrap();
        assert_eq!(p.nodes(), &[s, a]);
        assert!(sess.tree().is_member(a));
        sess.tree().validate(&g).unwrap();
    }

    #[test]
    fn disconnected_member_is_rejected() {
        let mut g = Graph::with_nodes(3);
        let ids: Vec<_> = g.node_ids().collect();
        g.add_link(ids[0], ids[1], 1.0).unwrap();
        let mut sess = SpfSession::new(&g, ids[0]).unwrap();
        assert!(matches!(
            sess.join(ids[2]),
            Err(SmrpError::NoFeasiblePath(_))
        ));
    }

    #[test]
    fn member_in_another_component_is_rejected_after_joins() {
        // A triangle with a pendant chain, and a second component 5-6.
        let mut g = Graph::with_nodes(7);
        let ids: Vec<_> = g.node_ids().collect();
        for (a, b) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 6)] {
            g.add_link(ids[a], ids[b], 1.0).unwrap();
        }
        let mut sess = SpfSession::new(&g, ids[3]).unwrap();
        assert_eq!(
            sess.join(ids[1]).unwrap().nodes(),
            &[ids[3], ids[2], ids[1]]
        );
        for m in [ids[5], ids[6]] {
            assert!(matches!(sess.join(m), Err(SmrpError::NoFeasiblePath(_))));
        }
        assert_eq!(sess.join(ids[4]).unwrap().nodes(), &[ids[3], ids[4]]);
        sess.tree().validate(&g).unwrap();
    }
}
