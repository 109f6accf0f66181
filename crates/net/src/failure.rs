//! Persistent-failure scenarios.
//!
//! The paper studies *persistent* failures — cable cuts, router crashes —
//! that disable a link or node for a long period. A [`FailureScenario`] is a
//! mask over an immutable [`Graph`]: it records which links and nodes are
//! down and answers usability queries for the path-finding routines, so one
//! topology can be evaluated under many failure cases without copying.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::graph::Graph;
use crate::ids::{LinkId, NodeId};

/// A set of simultaneously failed links and nodes.
///
/// A failed node implicitly disables every link incident to it (the paper's
/// footnote 1: node failure covers both physical breakdown and service
/// unavailability).
///
/// # Example
///
/// ```
/// use smrp_net::{Graph, FailureScenario};
///
/// # fn main() -> Result<(), smrp_net::NetError> {
/// let mut g = Graph::with_nodes(3);
/// let ids: Vec<_> = g.node_ids().collect();
/// let l = g.add_link(ids[0], ids[1], 1.0)?;
/// let scenario = FailureScenario::link(l);
/// assert!(!scenario.link_usable(&g, l));
/// assert!(scenario.node_usable(ids[0]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureScenario {
    failed_links: BTreeSet<LinkId>,
    failed_nodes: BTreeSet<NodeId>,
}

/// One timed change to a [`FailureScenario`]: the vocabulary a failure
/// script is written in, whichever runtime (the simulator, a daemon node)
/// applies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Cut a link.
    FailLink(LinkId),
    /// Restore a link.
    RepairLink(LinkId),
    /// Crash a node: it stops processing and sending.
    FailNode(NodeId),
    /// Repair a node: it reboots with empty soft state.
    RepairNode(NodeId),
}

impl FailureScenario {
    /// The empty scenario: nothing has failed.
    pub fn none() -> Self {
        FailureScenario::default()
    }

    /// Scenario with a single failed link.
    pub fn link(link: LinkId) -> Self {
        let mut s = FailureScenario::default();
        s.fail_link(link);
        s
    }

    /// Scenario with a single failed node.
    pub fn node(node: NodeId) -> Self {
        let mut s = FailureScenario::default();
        s.fail_node(node);
        s
    }

    /// Scenario failing every link in `links` (duplicates collapse).
    pub fn links<I: IntoIterator<Item = LinkId>>(links: I) -> Self {
        let mut s = FailureScenario::default();
        for l in links {
            s.fail_link(l);
        }
        s
    }

    /// Scenario failing every node in `nodes` (duplicates collapse).
    pub fn nodes<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        let mut s = FailureScenario::default();
        for n in nodes {
            s.fail_node(n);
        }
        s
    }

    /// Marks `link` as failed. Idempotent: failing an already-failed link
    /// is a no-op (the sets dedupe), so correlated fault generators may
    /// blindly union overlapping failure groups.
    pub fn fail_link(&mut self, link: LinkId) -> &mut Self {
        self.failed_links.insert(link);
        self
    }

    /// Marks `node` (and implicitly all its incident links) as failed.
    /// Idempotent, like [`fail_link`](Self::fail_link).
    pub fn fail_node(&mut self, node: NodeId) -> &mut Self {
        self.failed_nodes.insert(node);
        self
    }

    /// Owned-`self` counterpart of [`fail_link`](Self::fail_link) for
    /// expression-style construction:
    /// `FailureScenario::none().with_link(a).with_link(b)`.
    #[must_use]
    pub fn with_link(mut self, link: LinkId) -> Self {
        self.fail_link(link);
        self
    }

    /// Owned-`self` counterpart of [`fail_node`](Self::fail_node).
    #[must_use]
    pub fn with_node(mut self, node: NodeId) -> Self {
        self.fail_node(node);
        self
    }

    /// Clears a link failure (a repaired cable). Removes only a direct
    /// link failure; links disabled by a node failure stay down until the
    /// node is repaired.
    pub fn repair_link(&mut self, link: LinkId) -> &mut Self {
        self.failed_links.remove(&link);
        self
    }

    /// Clears a node failure (a rebooted router).
    pub fn repair_node(&mut self, node: NodeId) -> &mut Self {
        self.failed_nodes.remove(&node);
        self
    }

    /// Applies one scripted change.
    pub fn apply(&mut self, injection: Injection) -> &mut Self {
        match injection {
            Injection::FailLink(l) => self.fail_link(l),
            Injection::RepairLink(l) => self.repair_link(l),
            Injection::FailNode(n) => self.fail_node(n),
            Injection::RepairNode(n) => self.repair_node(n),
        }
    }

    /// Whether nothing has failed.
    pub fn is_empty(&self) -> bool {
        self.failed_links.is_empty() && self.failed_nodes.is_empty()
    }

    /// Explicitly failed links (not counting links disabled by node
    /// failures).
    pub fn failed_links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.failed_links.iter().copied()
    }

    /// Failed nodes.
    pub fn failed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.failed_nodes.iter().copied()
    }

    /// Whether `node` is still operational.
    #[inline]
    pub fn node_usable(&self, node: NodeId) -> bool {
        !self.failed_nodes.contains(&node)
    }

    /// Whether `link` is still operational in `graph`.
    ///
    /// A link is unusable if it failed directly or if either endpoint
    /// failed.
    #[inline]
    pub fn link_usable(&self, graph: &Graph, link: LinkId) -> bool {
        if self.failed_links.contains(&link) {
            return false;
        }
        let l = graph.link(link);
        self.node_usable(l.a()) && self.node_usable(l.b())
    }

    /// Whether a path (as a node sequence) survives this scenario in
    /// `graph`.
    pub fn path_usable(&self, graph: &Graph, nodes: &[NodeId]) -> bool {
        if nodes.iter().any(|n| !self.node_usable(*n)) {
            return false;
        }
        nodes.windows(2).all(|w| {
            graph
                .link_between(w[0], w[1])
                .is_some_and(|l| self.link_usable(graph, l))
        })
    }

    /// Merges another scenario into this one (set union, so overlapping
    /// failures dedupe). Returns `&mut Self` so merges chain:
    /// `s.merge(&a).merge(&b)`.
    pub(crate) fn merge(&mut self, other: &FailureScenario) -> &mut Self {
        self.failed_links.extend(other.failed_links.iter().copied());
        self.failed_nodes.extend(other.failed_nodes.iter().copied());
        self
    }

    /// Owned-`self` counterpart of `merge`:
    /// `a.merged(&b).merged(&c)` builds the union without a binding.
    #[must_use]
    pub fn merged(mut self, other: &FailureScenario) -> Self {
        self.merge(other);
        self
    }
}

impl std::fmt::Display for FailureScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "no failures");
        }
        let mut first = true;
        for l in &self.failed_links {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{l} down")?;
            first = false;
        }
        for n in &self.failed_nodes {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{n} down")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> (Graph, Vec<NodeId>, Vec<LinkId>) {
        let mut g = Graph::with_nodes(4);
        let ids: Vec<_> = g.node_ids().collect();
        let mut links = Vec::new();
        for w in ids.windows(2) {
            links.push(g.add_link(w[0], w[1], 1.0).unwrap());
        }
        (g, ids, links)
    }

    #[test]
    fn empty_scenario_blocks_nothing() {
        let (g, ids, links) = path_graph();
        let s = FailureScenario::none();
        assert!(s.is_empty());
        assert!(links.iter().all(|&l| s.link_usable(&g, l)));
        assert!(s.path_usable(&g, &ids));
    }

    #[test]
    fn failed_link_blocks_paths_through_it() {
        let (g, ids, links) = path_graph();
        let s = FailureScenario::link(links[1]);
        assert!(!s.link_usable(&g, links[1]));
        assert!(s.link_usable(&g, links[0]));
        assert!(!s.path_usable(&g, &ids));
        assert!(s.path_usable(&g, &ids[..2]));
    }

    #[test]
    fn failed_node_disables_incident_links() {
        let (g, ids, links) = path_graph();
        let s = FailureScenario::node(ids[1]);
        assert!(!s.node_usable(ids[1]));
        assert!(!s.link_usable(&g, links[0]));
        assert!(!s.link_usable(&g, links[1]));
        assert!(s.link_usable(&g, links[2]));
    }

    #[test]
    fn path_with_failed_node_is_unusable() {
        let (g, ids, _) = path_graph();
        let s = FailureScenario::node(ids[2]);
        assert!(!s.path_usable(&g, &ids));
        assert!(s.path_usable(&g, &ids[..2]));
    }

    #[test]
    fn path_with_missing_link_is_unusable() {
        let (g, ids, _) = path_graph();
        let s = FailureScenario::none();
        assert!(!s.path_usable(&g, &[ids[0], ids[2]]));
    }

    #[test]
    fn merge_unions_failures() {
        let (_, ids, links) = path_graph();
        let mut a = FailureScenario::link(links[0]);
        let b = FailureScenario::node(ids[3]);
        a.merge(&b);
        assert_eq!(a.failed_links().count(), 1);
        assert_eq!(a.failed_nodes().count(), 1);
    }

    #[test]
    fn display_lists_failures() {
        let (_, ids, links) = path_graph();
        assert_eq!(FailureScenario::none().to_string(), "no failures");
        let mut s = FailureScenario::link(links[0]);
        s.fail_node(ids[2]);
        let text = s.to_string();
        assert!(text.contains("l0 down"));
        assert!(text.contains("n2 down"));
    }

    #[test]
    fn builder_style_chaining() {
        let mut s = FailureScenario::none();
        s.fail_link(LinkId::new(1)).fail_node(NodeId::new(2));
        assert!(!s.is_empty());
    }

    #[test]
    fn repeated_failures_dedupe() {
        let (_, ids, links) = path_graph();
        let mut s = FailureScenario::none();
        s.fail_link(links[0])
            .fail_link(links[0])
            .fail_link(links[0]);
        s.fail_node(ids[1]).fail_node(ids[1]);
        assert_eq!(s.failed_links().count(), 1);
        assert_eq!(s.failed_nodes().count(), 1);
    }

    #[test]
    fn owned_combinators_match_mut_builders() {
        let (_, ids, links) = path_graph();
        let owned = FailureScenario::none()
            .with_link(links[0])
            .with_link(links[0]) // idempotent here too
            .with_node(ids[2]);
        let mut built = FailureScenario::none();
        built.fail_link(links[0]).fail_node(ids[2]);
        assert_eq!(owned, built);
    }

    #[test]
    fn bulk_constructors_collapse_duplicates() {
        let (_, ids, links) = path_graph();
        let s = FailureScenario::links([links[0], links[1], links[0]]);
        assert_eq!(s.failed_links().count(), 2);
        let s = FailureScenario::nodes([ids[0], ids[0]]);
        assert_eq!(s.failed_nodes().count(), 1);
    }

    #[test]
    fn repair_undoes_direct_failures_only() {
        let (g, ids, links) = path_graph();
        let mut s = FailureScenario::none();
        s.fail_link(links[1]).fail_node(ids[0]);
        assert!(!s.link_usable(&g, links[1]));
        s.repair_link(links[1]);
        assert!(s.link_usable(&g, links[1]));
        // links[0] touches the failed node ids[0]: repairing the link id
        // has no effect while the endpoint is down.
        s.fail_link(links[0]);
        s.repair_link(links[0]);
        assert!(!s.link_usable(&g, links[0]));
        s.repair_node(ids[0]);
        assert!(s.link_usable(&g, links[0]));
        assert!(s.is_empty());
    }

    #[test]
    fn merge_chains_and_merged_builds_unions() {
        let (_, ids, links) = path_graph();
        let a = FailureScenario::link(links[0]);
        let b = FailureScenario::node(ids[3]);
        let c = FailureScenario::link(links[0]); // overlaps a
        let mut chained = FailureScenario::none();
        chained.merge(&a).merge(&b).merge(&c);
        let owned = FailureScenario::none().merged(&a).merged(&b).merged(&c);
        assert_eq!(chained, owned);
        assert_eq!(chained.failed_links().count(), 1);
        assert_eq!(chained.failed_nodes().count(), 1);
    }

    #[test]
    fn merged_scenario_blocks_paths_with_mixed_failures() {
        let (g, ids, links) = path_graph();
        // Link n2-n3 down and node n1 down, merged from two scenarios.
        let s = FailureScenario::link(links[2]).merged(&FailureScenario::node(ids[1]));
        // Whole path crosses both failures.
        assert!(!s.path_usable(&g, &ids));
        // n0-n1 is blocked by the node failure alone.
        assert!(!s.path_usable(&g, &ids[..2]));
        // n1-n2 blocked (endpoint down), n2-n3 blocked (link down).
        assert!(!s.path_usable(&g, &ids[1..3]));
        assert!(!s.path_usable(&g, &ids[2..4]));
        // The single surviving node is still a usable (trivial) path.
        assert!(s.path_usable(&g, &ids[2..3]));
        assert!(s.path_usable(&g, &ids[3..4]));
    }
}
