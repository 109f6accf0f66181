//! Pinned final trees for `join_scale`-shaped membership scripts.
//!
//! The benchmark's `join_scale` workload runs, per group, 30 joins, 10
//! leave/rejoin pairs and one reshape sweep on a 4000-node transit-stub
//! graph. This is the same script on 400 nodes (so it runs under debug
//! assertions, with the incremental-vs-oracle `N`/`SHR` audit on), with the
//! resulting trees pinned: an optimisation of the join or reshape path
//! must reproduce every parent pointer, child order, `SHR` and cost.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use smrp_core::{SelectionMode, SmrpConfig, SmrpSession};
use smrp_net::transit_stub::TransitStubConfig;
use smrp_net::NodeId;

const GROUPS: u64 = 4;
const GROUP_SIZE: usize = 30;
const LEAVERS: usize = 10;

fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Digest of the trees the script leaves under `selection`, plus how many
/// members Condition I moved along the way.
fn run(selection: SelectionMode) -> (u64, usize) {
    // 8 · (1 + 7 · 7) = 400 nodes.
    let graph = TransitStubConfig::new()
        .transit_nodes(8)
        .stubs_per_transit_node(7)
        .stub_nodes(7)
        .seed(20050628)
        .generate()
        .unwrap()
        .into_graph();
    let n = graph.node_count();
    assert_eq!(n, 400);

    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut moved = 0;
    for group in 0..GROUPS {
        let mut rng = SmallRng::seed_from_u64(7919 + group);
        let mut picked: Vec<NodeId> = Vec::new();
        while picked.len() < GROUP_SIZE + 1 {
            let node = NodeId::new(rng.gen_range(0..n));
            if !picked.contains(&node) {
                picked.push(node);
            }
        }
        let (source, members) = (picked[0], &picked[1..]);

        let config = SmrpConfig {
            selection,
            ..SmrpConfig::default()
        };
        let mut session = SmrpSession::new(&graph, source, config).unwrap();
        for &m in members {
            moved += session.join(m).unwrap().reshaped.len();
        }
        for &m in &members[..LEAVERS] {
            session.leave(m).unwrap();
            moved += session.join(m).unwrap().reshaped.len();
        }
        moved += session.reshape_sweep();

        let tree = session.tree();
        tree.validate(&graph).unwrap();
        for node in graph.node_ids() {
            fnv(
                &mut hash,
                tree.parent(node).map_or(u64::MAX, |p| p.index() as u64),
            );
            fnv(&mut hash, u64::from(tree.shr(node)));
            for &child in tree.children(node) {
                fnv(&mut hash, child.index() as u64);
            }
        }
        fnv(&mut hash, tree.cost(&graph).to_bits());
    }
    (hash, moved)
}

#[test]
fn full_topology_trees_are_pinned() {
    assert_eq!(run(SelectionMode::FullTopology), (0xaa7a_cbce_8d9d_2169, 3));
}

#[test]
fn neighbor_query_trees_are_pinned() {
    assert_eq!(
        run(SelectionMode::NeighborQuery),
        (0x7c0a_d4b6_cadf_aaae, 3)
    );
}
