//! Breadth-first traversal, connectivity and component queries.

use std::collections::VecDeque;

use crate::dijkstra::Constraints;
use crate::graph::Graph;
use crate::ids::NodeId;

/// Nodes reachable from `start` under `constraints`, in BFS order.
///
/// Returns an empty vector when the start node itself is forbidden.
pub fn reachable_from(graph: &Graph, start: NodeId, constraints: Constraints<'_>) -> Vec<NodeId> {
    let mut visited = vec![false; graph.node_count()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    if !constraints.node_allowed(start) {
        return order;
    }
    visited[start.index()] = true;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &(v, l, _) in graph.arcs(u) {
            if visited[v.index()] || !constraints.node_allowed(v) {
                continue;
            }
            if !constraints.link_allowed(graph, l) {
                continue;
            }
            visited[v.index()] = true;
            queue.push_back(v);
        }
    }
    order
}

/// Whether the whole graph is a single connected component.
///
/// An empty graph counts as connected; a graph with isolated nodes does not.
pub fn is_connected(graph: &Graph) -> bool {
    let n = graph.node_count();
    if n == 0 {
        return true;
    }
    reachable_from(graph, NodeId::new(0), Constraints::unrestricted()).len() == n
}

/// Partition of the graph's nodes into connected components.
///
/// Components are listed in order of their smallest node id, and each
/// component lists nodes in BFS order from that smallest id.
pub fn connected_components(graph: &Graph) -> Vec<Vec<NodeId>> {
    let mut seen = vec![false; graph.node_count()];
    let mut components = Vec::new();
    for start in graph.node_ids() {
        if seen[start.index()] {
            continue;
        }
        let comp = reachable_from(graph, start, Constraints::unrestricted());
        for n in &comp {
            seen[n.index()] = true;
        }
        components.push(comp);
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailureScenario;

    fn two_islands() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::with_nodes(5);
        let ids: Vec<_> = g.node_ids().collect();
        g.add_link(ids[0], ids[1], 1.0).unwrap();
        g.add_link(ids[1], ids[2], 1.0).unwrap();
        g.add_link(ids[3], ids[4], 1.0).unwrap();
        (g, ids)
    }

    #[test]
    fn reachable_respects_components() {
        let (g, ids) = two_islands();
        let r = reachable_from(&g, ids[0], Constraints::unrestricted());
        assert_eq!(r, vec![ids[0], ids[1], ids[2]]);
    }

    #[test]
    fn disconnected_graph_is_not_connected() {
        let (g, _) = two_islands();
        assert!(!is_connected(&g));
    }

    #[test]
    fn empty_and_single_node_graphs_are_connected() {
        assert!(is_connected(&Graph::new()));
        assert!(is_connected(&Graph::with_nodes(1)));
        assert!(!is_connected(&Graph::with_nodes(2)));
    }

    #[test]
    fn components_partition_nodes() {
        let (g, ids) = two_islands();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![ids[0], ids[1], ids[2]]);
        assert_eq!(comps[1], vec![ids[3], ids[4]]);
        let total: usize = comps.iter().map(Vec::len).sum();
        assert_eq!(total, g.node_count());
    }

    #[test]
    fn failure_splits_reachability() {
        let (g, ids) = two_islands();
        let l = g.link_between(ids[1], ids[2]).unwrap();
        let f = FailureScenario::link(l);
        let r = reachable_from(&g, ids[0], Constraints::avoiding_failures(&f));
        assert_eq!(r, vec![ids[0], ids[1]]);
    }

    #[test]
    fn forbidden_start_yields_empty() {
        let (g, ids) = two_islands();
        let forbidden = [ids[0]];
        let r = reachable_from(
            &g,
            ids[0],
            Constraints {
                forbidden_nodes: &forbidden,
                ..Constraints::default()
            },
        );
        assert!(r.is_empty());
    }

    #[test]
    fn failed_node_is_unreachable() {
        let (g, ids) = two_islands();
        let f = FailureScenario::node(ids[1]);
        let r = reachable_from(&g, ids[0], Constraints::avoiding_failures(&f));
        assert_eq!(r, vec![ids[0]]);
    }
}
