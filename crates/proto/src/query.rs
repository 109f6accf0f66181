//! Orchestration helpers for the wire-level §3.3.1 query scheme.
//!
//! The query-based join needs two pieces of ambient state at each router:
//! the unicast next hop toward the source (provided by the routing
//! protocol in a real deployment) and, at on-tree routers, their
//! advertised `SHR`/tree-delay metadata (which §3.3.2 recomputes lazily —
//! "only when a query message from a certain new member is received").
//! These helpers install both from the ground truth.

use smrp_core::MulticastTree;
use smrp_net::dijkstra::ShortestPathTree;
use smrp_net::{GroupId, NodeId};
use smrp_sim::NetSim;

use crate::multi::MultiRouter;

/// Installs unicast routing state (next hop and distance to `source`) on
/// every router's `group` lane, as OSPF convergence would. The tree is the
/// graph's [`ShortestPathTree::shared`] one, usually left there by the
/// session.
pub fn install_unicast_routing(sim: &mut NetSim<'_, MultiRouter>, group: GroupId, source: NodeId) {
    let spt = ShortestPathTree::shared(sim.graph(), source);
    for n in sim.graph().node_ids() {
        // The next hop toward the source is this node's parent in the
        // source-rooted shortest-path tree.
        let next = spt.parent(n);
        let dist = spt.distance(n).unwrap_or(f64::INFINITY);
        sim.with_node(n, |p, _| p.lane_mut(group).set_unicast_routing(next, dist));
    }
}

/// Publishes each on-tree router's `SHR` and tree delay on its `group`
/// lane so queries get accurate answers (the lazily-recomputed state of
/// §3.3.2).
pub fn sync_tree_metadata(sim: &mut NetSim<'_, MultiRouter>, group: GroupId, tree: &MulticastTree) {
    let graph = sim.graph();
    let values: Vec<(NodeId, u32, f64)> = tree
        .on_tree_nodes()
        .map(|n| (n, tree.shr(n), tree.delay_to(graph, n).unwrap_or(0.0)))
        .collect();
    for (n, shr, delay) in values {
        sim.with_node(n, |p, _| p.lane_mut(group).set_tree_metadata(shr, delay));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{Router, RouterConfig};
    use smrp_core::paper;
    use smrp_core::select::{self, SelectionMode};
    use smrp_sim::SimTime;

    /// The one group these tests run.
    const GROUP: GroupId = GroupId::new(0);

    /// One router process per node, each holding an idle lane for [`GROUP`].
    fn processes(n: usize) -> Vec<MultiRouter> {
        (0..n)
            .map(|_| {
                let mut p = MultiRouter::new(RouterConfig::default());
                p.lane_mut(GROUP);
                p
            })
            .collect()
    }

    /// Node `n`'s lane for [`GROUP`].
    fn lane<'s>(sim: &'s NetSim<'_, MultiRouter>, n: NodeId) -> &'s Router {
        sim.node(n)
            .lane(GROUP)
            .expect("every process holds a lane for GROUP")
    }

    /// Wire up the Figure 4 tree state after E has joined, then drive G's
    /// join through real Query/QueryResp messages.
    #[test]
    fn query_join_installs_state_through_messages() {
        let (graph, n) = paper::figure4_graph();
        // Control-plane ground truth: E joined along S-A-D-E.
        let mut tree = smrp_core::MulticastTree::new(&graph, n.s).unwrap();
        tree.attach_path(&smrp_net::Path::new(vec![n.e, n.d, n.a, n.s]));
        tree.set_member(n.e, true).unwrap();

        let mut routers = processes(graph.node_count());
        routers[n.s.index()].lane_mut(GROUP).set_source();
        for node in tree.on_tree_nodes() {
            routers[node.index()].lane_mut(GROUP).load_state(
                tree.parent(node),
                tree.children(node),
                tree.is_member(node),
            );
        }
        let mut sim = NetSim::new(&graph, routers);
        install_unicast_routing(&mut sim, GROUP, n.s);
        sync_tree_metadata(&mut sim, GROUP, &tree);
        for node in tree.on_tree_nodes() {
            sim.with_node(node, |p, ctx| p.lane_mut(GROUP).start_timers(ctx));
        }

        // G joins via the query scheme.
        sim.with_node(n.g, |p, ctx| {
            p.lane_mut(GROUP)
                .start_query_join(ctx, 0.3, SimTime::from_ms(30.0))
        });
        sim.run_until(SimTime::from_ms(400.0));

        // G must be on the tree and receiving data.
        assert!(lane(&sim, n.g).is_on_tree());
        assert!(lane(&sim, n.g).is_member());
        assert!(!lane(&sim, n.g).query_join_pending());
        assert!(
            !lane(&sim, n.g).deliveries().is_empty(),
            "G never received data after its query join"
        );

        // The wire decision matches the algorithmic §3.3.1 selection.
        let spt = ShortestPathTree::compute(&graph, tree.source());
        let algo = select::select_path(
            &graph,
            &tree,
            &spt,
            n.g,
            0.3,
            SelectionMode::NeighborQuery,
            &[],
        )
        .unwrap();
        let wire_upstream = lane(&sim, n.g).upstream().unwrap();
        assert_eq!(
            wire_upstream,
            algo.candidate.approach.nodes()[1],
            "wire picked a different first hop than the algorithmic query scheme"
        );
    }

    #[test]
    fn query_with_no_on_tree_reachable_times_out_silently() {
        // Only the source is on-tree, and the querying node's neighbors
        // have no next hop installed (routing not converged): no response.
        let (graph, n) = paper::figure4_graph();
        let tree = smrp_core::MulticastTree::new(&graph, n.s).unwrap();
        let mut routers = processes(graph.node_count());
        routers[n.s.index()].lane_mut(GROUP).set_source();
        let mut sim = NetSim::new(&graph, routers);
        sync_tree_metadata(&mut sim, GROUP, &tree);
        // Deliberately skip install_unicast_routing.
        sim.with_node(n.g, |p, ctx| {
            p.lane_mut(GROUP)
                .start_query_join(ctx, 0.3, SimTime::from_ms(20.0))
        });
        sim.run_until(SimTime::from_ms(100.0));
        assert!(!lane(&sim, n.g).is_on_tree());
        assert!(!lane(&sim, n.g).query_join_pending());
    }

    #[test]
    fn metadata_sync_reflects_tree_values() {
        let (graph, tree, n) = paper::figure1();
        let routers = processes(graph.node_count());
        let mut sim = NetSim::new(&graph, routers);
        sync_tree_metadata(&mut sim, GROUP, &tree);
        assert_eq!(lane(&sim, n.c).advertised_shr(), 3);
        assert_eq!(lane(&sim, n.a).advertised_shr(), 2);
        assert_eq!(lane(&sim, n.s).advertised_shr(), 0);
    }
}
