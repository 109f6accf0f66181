//! Output pin for the SPF baseline's set-up: one FNV-1a digest per shape
//! over every tree `ProtoSession::build(.., TreeProtocol::Spf)` makes.
//!
//! Per group the digest reads the source, then every on-tree node with
//! its parent, membership and weight. The shapes are the ones the
//! benchmark builds SPF trees on: `multigroup_cut`'s 1 024 eight-member
//! groups on the n = 4 000 transit-stub graph, and the campaigns'
//! 30-member groups on the Waxman n = 400 graph. The topologies are
//! pinned by `smrp-net`'s `topology_bytes`, so a digest that moves here
//! means the SPF join changed the trees it builds.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use smrp_core::MulticastTree;
use smrp_net::transit_stub::TransitStubConfig;
use smrp_net::waxman::{WaxmanConfig, DEFAULT_BETA};
use smrp_net::{Graph, NodeId};
use smrp_proto::{ProtoSession, TreeProtocol};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn fnv_tree(hash: &mut u64, tree: &MulticastTree) {
    fnv(hash, tree.source().index() as u64);
    for n in tree.on_tree_nodes() {
        fnv(hash, n.index() as u64);
        fnv(hash, tree.parent(n).map_or(u64::MAX, |p| p.index() as u64));
        fnv(hash, u64::from(tree.is_member(n)));
        fnv(hash, u64::from(tree.member_weight(n)));
    }
    fnv(hash, u64::MAX);
}

/// Digest of the SPF trees of `groups`, built in order on `graph`.
fn digest(graph: &Graph, groups: &[(NodeId, Vec<NodeId>)]) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv(&mut hash, groups.len() as u64);
    for (source, members) in groups {
        let session = ProtoSession::build(graph, *source, members, TreeProtocol::Spf).unwrap();
        fnv_tree(&mut hash, session.tree());
    }
    hash
}

/// The benchmark harness's SplitMix64 stream derivation (`sub_seed`),
/// reproduced so the pinned seeds are the ones its workloads generate.
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
    assert_eq!(graph.node_count(), 4000);
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

/// `faultlab`'s campaign topology (`CampaignConfig::topology`) at n = 400,
/// α = 0.2, and its first `groups` 30-member groups (`draw_members`).
fn campaign_groups(base_seed: u64, groups: usize) -> (Graph, Vec<(NodeId, Vec<NodeId>)>) {
    let graph = WaxmanConfig::new(400)
        .alpha(0.2)
        .beta(DEFAULT_BETA)
        .seed(base_seed ^ 0x9E37_79B9)
        .generate()
        .unwrap()
        .into_graph();
    let groups = (0..groups)
        .map(|g| {
            let seed = base_seed
                .wrapping_add(0xA5A5_A5A5)
                .wrapping_add((g as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut ids: Vec<NodeId> = graph.node_ids().collect();
            ids.shuffle(&mut rng);
            (ids[0], ids[1..=30].to_vec())
        })
        .collect();
    (graph, groups)
}

#[test]
fn multigroup_cut_trees_are_pinned() {
    let got: Vec<u64> = [20050628, 7919]
        .iter()
        .map(|&seed| {
            let (graph, groups) = multigroup_cut_groups(seed);
            digest(&graph, &groups)
        })
        .collect();
    assert_eq!(
        got,
        [0x7fdd_dafa_d592_2d5b, 0x32fd_5132_4302_b575],
        "multigroup_cut SPF digests moved (got {got:#018x?})"
    );
}

#[test]
fn campaign_trees_are_pinned() {
    // The benchmark's campaign seeds and `CampaignConfig`'s default; group
    // 0 is the one-group campaign's tree, the rest reuse the graph.
    let got: Vec<u64> = [sub_seed(20050628, 1), sub_seed(7919, 1), 0x5EED]
        .iter()
        .map(|&base_seed| {
            let (graph, groups) = campaign_groups(base_seed, 64);
            digest(&graph, &groups)
        })
        .collect();
    assert_eq!(
        got,
        [
            0xc905_01d9_3d0e_f952,
            0x01be_77ed_2405_b0df,
            0x430a_dfa1_8373_6588,
        ],
        "campaign SPF digests moved (got {got:#018x?})"
    );
}
