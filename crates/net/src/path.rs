//! Node-sequence paths through a [`Graph`].

use serde::{Deserialize, Serialize};

use crate::graph::Graph;
use crate::ids::{LinkId, NodeId};

/// A simple path expressed as the sequence of nodes it visits.
///
/// The sequence always contains at least one node; a single-node path has
/// zero delay and crosses no links. Every consecutive pair must be joined by
/// a link in the graph the path is evaluated against ([`Path::validate`]
/// checks this).
///
/// # Example
///
/// ```
/// use smrp_net::{Graph, Path};
///
/// # fn main() -> Result<(), smrp_net::NetError> {
/// let mut g = Graph::with_nodes(3);
/// let ids: Vec<_> = g.node_ids().collect();
/// g.add_link(ids[0], ids[1], 1.0)?;
/// g.add_link(ids[1], ids[2], 2.0)?;
/// let p = Path::new(vec![ids[0], ids[1], ids[2]]);
/// assert_eq!(p.delay(&g), 3.0);
/// assert_eq!(p.hop_count(), 2);
/// assert!(p.validate(&g).is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Path {
    nodes: Vec<NodeId>,
}

impl Path {
    /// Creates a path from a node sequence.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty; a path must visit at least one node.
    pub fn new(nodes: Vec<NodeId>) -> Self {
        assert!(!nodes.is_empty(), "a path must contain at least one node");
        Path { nodes }
    }

    /// The trivial path consisting of a single node.
    pub(crate) fn trivial(node: NodeId) -> Self {
        Path { nodes: vec![node] }
    }

    /// First node of the path.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node of the path.
    #[inline]
    pub fn target(&self) -> NodeId {
        *self.nodes.last().expect("path is non-empty")
    }

    /// The visited nodes in order.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of links crossed (`nodes - 1`).
    #[inline]
    pub fn hop_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Iterator over consecutive node pairs.
    pub(crate) fn hops(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.windows(2).map(|w| (w[0], w[1]))
    }

    /// Resolves the links crossed by this path against `graph`.
    ///
    /// # Panics
    ///
    /// Panics if a hop has no corresponding link; call [`Path::validate`]
    /// first for untrusted paths.
    pub fn links(&self, graph: &Graph) -> Vec<LinkId> {
        self.hops()
            .map(|(a, b)| {
                graph
                    .link_between(a, b)
                    .unwrap_or_else(|| panic!("no link between {a} and {b}"))
            })
            .collect()
    }

    /// Total delay of the path in `graph`.
    ///
    /// # Panics
    ///
    /// Panics if a hop has no corresponding link.
    pub fn delay(&self, graph: &Graph) -> f64 {
        self.hops()
            .map(|(a, b)| {
                let l = graph
                    .link_between(a, b)
                    .unwrap_or_else(|| panic!("no link between {a} and {b}"));
                graph.link(l).delay()
            })
            .sum()
    }

    /// Checks that every hop is a real link and that the path is simple
    /// (visits no node twice).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate(&self, graph: &Graph) -> Result<(), String> {
        for n in &self.nodes {
            if !graph.contains_node(*n) {
                return Err(format!("path visits unknown node {n}"));
            }
        }
        for (a, b) in self.hops() {
            if graph.link_between(a, b).is_none() {
                return Err(format!("path hop {a} -> {b} has no link"));
            }
        }
        let mut seen = vec![false; graph.node_count()];
        for n in &self.nodes {
            if seen[n.index()] {
                return Err(format!("path visits node {n} twice"));
            }
            seen[n.index()] = true;
        }
        Ok(())
    }

    /// Returns the reversed path.
    pub fn reversed(&self) -> Path {
        let mut nodes = self.nodes.clone();
        nodes.reverse();
        Path { nodes }
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::with_nodes(4);
        let ids: Vec<_> = g.node_ids().collect();
        g.add_link(ids[0], ids[1], 1.0).unwrap();
        g.add_link(ids[1], ids[2], 2.0).unwrap();
        g.add_link(ids[2], ids[3], 4.0).unwrap();
        (g, ids)
    }

    #[test]
    fn delay_and_cost_sum_hops() {
        let (g, ids) = chain();
        let p = Path::new(ids.clone());
        assert_eq!(p.delay(&g), 7.0);
        assert_eq!(p.hop_count(), 3);
    }

    #[test]
    fn trivial_path_has_zero_delay() {
        let (g, ids) = chain();
        let p = Path::trivial(ids[0]);
        assert_eq!(p.delay(&g), 0.0);
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.source(), p.target());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_path_panics() {
        let _ = Path::new(vec![]);
    }

    #[test]
    fn validate_rejects_missing_link() {
        let (g, ids) = chain();
        let p = Path::new(vec![ids[0], ids[2]]);
        assert!(p.validate(&g).unwrap_err().contains("no link"));
    }

    #[test]
    fn validate_rejects_repeated_node() {
        let (g, ids) = chain();
        let p = Path::new(vec![ids[0], ids[1], ids[0]]);
        assert!(p.validate(&g).unwrap_err().contains("twice"));
    }

    #[test]
    fn validate_rejects_unknown_node() {
        let (g, _) = chain();
        let p = Path::new(vec![NodeId::new(99)]);
        assert!(p.validate(&g).unwrap_err().contains("unknown"));
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let (_, ids) = chain();
        let p = Path::new(ids.clone());
        let r = p.reversed();
        assert_eq!(r.source(), p.target());
        assert_eq!(r.target(), p.source());
        assert_eq!(r.reversed(), p);
    }

    #[test]
    fn links_resolves_hops() {
        let (g, ids) = chain();
        let p = Path::new(ids.clone());
        let links = p.links(&g);
        assert_eq!(links.len(), 3);
        assert_eq!(g.link(links[0]).endpoints(), (ids[0], ids[1]));
    }

    #[test]
    fn display_renders_arrows() {
        let (_, ids) = chain();
        let p = Path::new(vec![ids[0], ids[1]]);
        assert_eq!(p.to_string(), "n0 -> n1");
    }
}
