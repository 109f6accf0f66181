//! Cost-minimizing multicast baseline (greedy Steiner heuristic).
//!
//! §4.2 of the paper notes that its conclusions should carry over from
//! SPF-based protocols to *cost-minimizing* multicast routing (citing Wei &
//! Estrin's trade-off study). This module provides that second baseline: an
//! incremental variant of the Takahashi–Matsuyama heuristic, in which each
//! joining member connects to the **nearest node of the current tree** by
//! link cost — maximizing sharing, which is exactly the property SMRP
//! deliberately gives up. Recovery metrics computed against this tree show
//! the other end of the sharing spectrum.

use smrp_net::dijkstra::{self, Constraints};
use smrp_net::{Graph, NodeId, Path};

use crate::error::SmrpError;
use crate::tree::MulticastTree;

/// A cost-minimizing (greedy Steiner) multicast session.
///
/// # Example
///
/// ```
/// use smrp_core::SteinerSession;
/// use smrp_net::Graph;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = Graph::with_nodes(4);
/// let ids: Vec<_> = g.node_ids().collect();
/// g.add_link(ids[0], ids[1], 1.0)?;
/// g.add_link(ids[1], ids[2], 1.0)?;
/// g.add_link(ids[1], ids[3], 1.0)?;
/// let mut sess = SteinerSession::new(&g, ids[0])?;
/// sess.join(ids[2])?;
/// // ids[3] connects to the nearest tree node (ids[1]), not to the source.
/// let p = sess.join(ids[3])?;
/// assert_eq!(p.nodes().last(), Some(&ids[3]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SteinerSession<'g> {
    graph: &'g Graph,
    tree: MulticastTree,
}

impl<'g> SteinerSession<'g> {
    /// Creates an empty session rooted at `source`.
    ///
    /// # Errors
    ///
    /// Fails on an unknown source node.
    pub fn new(graph: &'g Graph, source: NodeId) -> Result<Self, SmrpError> {
        Ok(SteinerSession {
            graph,
            tree: MulticastTree::new(graph, source)?,
        })
    }

    /// The underlying multicast tree.
    pub fn tree(&self) -> &MulticastTree {
        &self.tree
    }

    /// Ends the session and hands over its tree without copying it.
    pub fn into_tree(self) -> MulticastTree {
        self.tree
    }

    /// Joins `node` through the minimum-delay path to the *nearest* node of
    /// the current tree (Takahashi–Matsuyama step).
    ///
    /// Returns the member's resulting multicast path from the source.
    ///
    /// # Errors
    ///
    /// Mirrors [`crate::SpfSession::join`].
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
            let tree = &self.tree;
            let approach = dijkstra::shortest_path_to_any(
                self.graph,
                node,
                Constraints::unrestricted(),
                |n| tree.is_on_tree(n),
            )
            .ok_or(SmrpError::NoFeasiblePath(node))?;
            self.tree.attach_path(&approach);
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

    /// Comb: source at one end, members hanging off a shared spine.
    ///
    /// ```text
    /// S -1- a -1- b -1- c
    ///       |5    |5    |5
    ///       m1    m2    m3     (each m also has a 4-weight link to S)
    /// ```
    fn comb() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::with_nodes(7);
        let ids: Vec<_> = g.node_ids().collect();
        let [s, a, b, c, m1, m2, m3] = [ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6]];
        g.add_link(s, a, 1.0).unwrap();
        g.add_link(a, b, 1.0).unwrap();
        g.add_link(b, c, 1.0).unwrap();
        g.add_link(a, m1, 5.0).unwrap();
        g.add_link(b, m2, 5.0).unwrap();
        g.add_link(c, m3, 5.0).unwrap();
        g.add_link(s, m1, 4.0).unwrap();
        g.add_link(s, m2, 4.0).unwrap();
        g.add_link(s, m3, 4.0).unwrap();
        (g, ids)
    }

    #[test]
    fn steiner_tree_is_cheaper_than_spf_tree() {
        let (g, ids) = comb();
        let members = [ids[4], ids[5], ids[6]];

        let mut steiner = SteinerSession::new(&g, ids[0]).unwrap();
        let mut spf = crate::spf::SpfSession::new(&g, ids[0]).unwrap();
        for &m in &members {
            steiner.join(m).unwrap();
            spf.join(m).unwrap();
        }
        steiner.tree().validate(&g).unwrap();
        spf.tree().validate(&g).unwrap();
        // SPF connects each member by its direct 4-link: cost 12.
        // Steiner shares the cheap spine once members force it on-tree.
        assert!(steiner.tree().cost(&g) <= spf.tree().cost(&g));
    }

    #[test]
    fn second_member_attaches_to_nearest_tree_node() {
        let mut g = Graph::with_nodes(4);
        let ids: Vec<_> = g.node_ids().collect();
        let [s, r, m1, m2] = [ids[0], ids[1], ids[2], ids[3]];
        g.add_link(s, r, 10.0).unwrap();
        g.add_link(r, m1, 1.0).unwrap();
        g.add_link(r, m2, 1.0).unwrap();
        g.add_link(s, m2, 10.5).unwrap();
        let mut sess = SteinerSession::new(&g, s).unwrap();
        sess.join(m1).unwrap();
        let p = sess.join(m2).unwrap();
        // m2 goes through the already-on-tree relay r (cost 1), not the
        // direct 10.5 link.
        assert_eq!(p.nodes(), &[s, r, m2]);
    }

    #[test]
    fn error_paths() {
        let (g, ids) = comb();
        let mut sess = SteinerSession::new(&g, ids[0]).unwrap();
        assert!(matches!(
            sess.join(ids[0]),
            Err(SmrpError::SourceOperation(_))
        ));
        sess.join(ids[4]).unwrap();
        assert!(matches!(
            sess.join(ids[4]),
            Err(SmrpError::AlreadyMember(_))
        ));
        assert!(matches!(
            sess.join(NodeId::new(99)),
            Err(SmrpError::UnknownNode(_))
        ));
    }

    #[test]
    fn relay_upgrade_keeps_structure() {
        let mut g = Graph::with_nodes(3);
        let ids: Vec<_> = g.node_ids().collect();
        let [s, r, m] = [ids[0], ids[1], ids[2]];
        g.add_link(s, r, 10.0).unwrap();
        g.add_link(r, m, 1.0).unwrap();
        let mut sess = SteinerSession::new(&g, s).unwrap();
        sess.join(m).unwrap(); // pulls relay r on-tree.
        let links_before = sess.tree().links(&g).len();
        sess.join(r).unwrap(); // the relay becomes a member in place.
        assert_eq!(sess.tree().links(&g).len(), links_before);
        assert!(sess.tree().is_member(r));
        sess.tree().validate(&g).unwrap();
    }
}
