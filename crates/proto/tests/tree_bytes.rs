//! A multicast tree asks for memory in proportion to its on-tree nodes,
//! not to the graph it spans.
//!
//! Each tree may request at most `n / 2` bytes plus [`BYTES_PER_NODE`]
//! per on-tree node, counted as every allocation's size plus every
//! reallocation's new size. One `u32` per node of the graph alone (a
//! dense parent or `N` vector) would ask for `4 n` and fail the bound on
//! both shapes: `multigroup_cut`'s 1 024 eight-member SPF trees
//! (n = 4 000, a few dozen nodes each) and the wire trees
//! `NLevelSession::domain_tree_global` re-expresses on the 4-level
//! (4, 2, 8) hierarchy (n = 17 476, a handful of nodes each).
//!
//! Release only: in debug the stats audit re-derives `N` after every
//! mutation and allocates by design.
#![cfg(not(debug_assertions))]

#[path = "../../sim/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocated_bytes;
use smrp_core::{MulticastTree, SmrpConfig};
use smrp_net::dijkstra::GrowingSpt;
use smrp_net::nlevel::NLevelConfig;
use smrp_net::transit_stub::TransitStubConfig;
use smrp_net::{Graph, NodeId, Path};
use smrp_proto::hierarchy::NLevelSession;
use smrp_proto::{ProtoSession, TreeProtocol};

/// Bytes a tree may ask for per on-tree node, on top of `n / 2`.
const BYTES_PER_NODE: u64 = 128;

/// Asserts `bytes` fits a tree of `on_tree` nodes over `n` graph nodes,
/// and returns the share of the bound it used.
fn assert_within_bound(what: &str, bytes: u64, n: usize, on_tree: usize) -> f64 {
    let bound = n as u64 / 2 + BYTES_PER_NODE * on_tree as u64;
    assert!(
        bytes <= bound,
        "{what}: {bytes} B for {on_tree} on-tree nodes of {n}, bound {bound} B"
    );
    bytes as f64 / bound as f64
}

/// The benchmark harness's SplitMix64 stream derivation (`sub_seed`).
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The harness's `pick_distinct`: `k` distinct indices below `n`.
fn pick_distinct(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut picked = Vec::with_capacity(k);
    let mut stream = 0;
    while picked.len() < k {
        let x = (sub_seed(seed, stream) % n as u64) as usize;
        stream += 1;
        if !picked.contains(&x) {
            picked.push(x);
        }
    }
    picked
}

/// `multigroup_cut`'s graph and its 1 024 eight-member groups for `seed`.
fn multigroup_cut_groups(seed: u64) -> (Graph, Vec<(NodeId, Vec<NodeId>)>) {
    let graph = TransitStubConfig::new()
        .transit_nodes(40)
        .stubs_per_transit_node(9)
        .stub_nodes(11)
        .seed(sub_seed(seed, 1))
        .generate()
        .unwrap()
        .into_graph();
    let groups = (0..1024)
        .map(|g| {
            let mut picked = pick_distinct(4000, 9, sub_seed(seed, 1000 + g))
                .into_iter()
                .map(NodeId::new);
            let source = picked.next().unwrap();
            (source, picked.collect())
        })
        .collect();
    (graph, groups)
}

/// The grafts an SPF join makes for `members` in order: each member's
/// shortest path from the source, cut at the first node already on the
/// tree (empty when the member is on it already).
fn spf_grafts(graph: &Graph, source: NodeId, members: &[NodeId]) -> Vec<Path> {
    let mut spt = GrowingSpt::new(graph, source);
    let mut on_tree = vec![false; graph.node_count()];
    on_tree[source.index()] = true;
    let mut grafts = Vec::new();
    for &m in members {
        let mut graft = vec![m];
        if !on_tree[m.index()] {
            for &hop in spt.path_to(m).unwrap().nodes().iter().rev().skip(1) {
                graft.push(hop);
                if on_tree[hop.index()] {
                    break;
                }
            }
        }
        for &v in &graft {
            on_tree[v.index()] = true;
        }
        grafts.push(Path::new(graft));
    }
    grafts
}

#[test]
fn multigroup_cut_spf_trees_cost_their_nodes() {
    let (graph, groups) = multigroup_cut_groups(20_050_628);
    let n = graph.node_count();
    let mut worst: f64 = 0.0;
    for (g, (source, members)) in groups.iter().enumerate() {
        let grafts = spf_grafts(&graph, *source, members);
        let before = allocated_bytes();
        let mut tree = MulticastTree::new(&graph, *source).unwrap();
        for (path, &m) in grafts.iter().zip(members) {
            tree.attach_path(path);
            tree.set_member(m, true).unwrap();
        }
        let bytes = allocated_bytes() - before;
        let built = ProtoSession::build(&graph, *source, members, TreeProtocol::Spf).unwrap();
        assert_eq!(&tree, built.tree(), "group {g}: not the SPF session's tree");
        let share = assert_within_bound(
            &format!("group {g}"),
            bytes,
            n,
            tree.on_tree_nodes().count(),
        );
        worst = worst.max(share);
    }
    eprintln!(
        "SPF trees: the largest asked for {:.0} % of its bound",
        worst * 100.0
    );
}

#[test]
fn hierarchy_wire_trees_cost_their_nodes() {
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
    let n = topo.graph().node_count();
    assert_eq!(n, 17_476);
    let leaves: Vec<_> = topo.leaf_domains().collect();
    let source = leaves[0].nodes()[0];
    let members: Vec<NodeId> = leaves[1..]
        .iter()
        .flat_map(|l| l.nodes()[..2].iter().copied())
        .collect();
    let nsess = NLevelSession::build(&topo, source, &members, SmrpConfig::default()).unwrap();
    let domains = nsess.active_domain_ids();
    assert_eq!(domains.len(), 2185);
    let mut worst: f64 = 0.0;
    for d in domains {
        let before = allocated_bytes();
        let tree = nsess.domain_tree_global(d).unwrap();
        let bytes = allocated_bytes() - before;
        let share = assert_within_bound(
            &format!("domain {}", d.index()),
            bytes,
            n,
            tree.on_tree_nodes().count(),
        );
        worst = worst.max(share);
    }
    eprintln!(
        "wire trees: the largest asked for {:.0} % of its bound",
        worst * 100.0
    );
}
