//! `NLevelSession::build` allocates in proportion to the topology, not to
//! domains × topology.
//!
//! On the 4-level (4, 2, 8) shape — 2 185 domains, every one active,
//! 17 476 nodes — each domain's set-up must cost what the domain holds: a
//! table sized to the whole graph per domain (an id map, a membership
//! mask) would ask for 2 185 × 17 476 × 8 B ≈ 0.3 GB per table and blow
//! the bound below by two orders of magnitude.

#[path = "../../sim/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocated_bytes, allocations};
use smrp_core::SmrpConfig;
use smrp_net::nlevel::NLevelConfig;
use smrp_net::NodeId;
use smrp_proto::hierarchy::NLevelSession;

/// Bytes `build` may ask for per node plus link of the topology. It asks
/// for about 280 in release and 540 in debug, where the tree audit runs
/// on every join; one graph-sized `u8` table per domain would add about
/// 680 on this shape.
const BYTES_PER_ITEM: u64 = if cfg!(debug_assertions) { 1024 } else { 512 };

#[test]
fn four_level_build_allocates_linearly_in_the_topology() {
    let topo = NLevelConfig::new(4)
        .level(2, 8)
        .level(2, 8)
        .level(2, 8)
        .extra_edge_prob(0.45)
        .redundant_gateway_prob(0.35)
        .population(10_000)
        .seed(0x4_1E7E1)
        .generate()
        .unwrap();
    let graph = topo.graph();
    assert_eq!(graph.node_count(), 17_476);
    assert_eq!(topo.domains().len(), 2185);
    // The source in the first leaf, two members in every other leaf, so
    // every domain runs a session.
    let leaves: Vec<_> = topo.leaf_domains().collect();
    let source = leaves[0].nodes()[0];
    let members: Vec<NodeId> = leaves[1..]
        .iter()
        .flat_map(|l| l.nodes()[..2].iter().copied())
        .collect();

    let before = (allocations(), allocated_bytes());
    let nsess = NLevelSession::build(&topo, source, &members, SmrpConfig::default()).unwrap();
    let (calls, bytes) = (allocations() - before.0, allocated_bytes() - before.1);
    assert_eq!(nsess.active_domains(), 2185);

    let items = (graph.node_count() + graph.link_count()) as u64;
    eprintln!("build: {calls} allocations, {bytes} B over {items} nodes + links");
    assert!(
        bytes <= BYTES_PER_ITEM * items,
        "build asked for {bytes} B, more than {BYTES_PER_ITEM} B per node + link ({items})"
    );
}
