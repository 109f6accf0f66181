//! Output pin for the N-level hierarchy's set-up and planner: one FNV-1a
//! digest per shape over what `NLevelSession::build` produces and what
//! `recover` answers.
//!
//! Per active domain the digest reads the session subgraph's global node
//! list (`domain_session_nodes`) and the wire tree
//! (`domain_tree_global`: parent, membership and weight of every on-tree
//! node). Per link of the graph it reads `recover(l)` whole: owner,
//! affected members and population, restoration paths, recovery distance
//! bits, elections and plans, or the error text.
//!
//! `hierarchy_differential` cannot stand in for this pin: its legacy
//! reference builds its domain subgraphs with the same
//! `Graph::induced_subgraph` the session does, so a change there moves
//! both sides at once. The topologies themselves are pinned by
//! `smrp-net`'s `topology_bytes`, so a digest that moves here means the
//! hierarchy layer changed what it builds or plans.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use smrp_core::{MulticastTree, SmrpConfig};
use smrp_net::nlevel::{NLevelConfig, NLevelTopology};
use smrp_net::transit_stub::TransitStubConfig;
use smrp_net::NodeId;
use smrp_proto::hierarchy::NLevelSession;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn fnv_nodes(hash: &mut u64, nodes: &[NodeId]) {
    fnv(hash, nodes.len() as u64);
    for n in nodes {
        fnv(hash, n.index() as u64);
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

/// Digest of a built hierarchy: every active domain's session nodes and
/// wire tree, then `recover` for every link of the graph.
fn digest(nsess: &NLevelSession) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv(&mut hash, nsess.total_population());
    let domains = nsess.active_domain_ids();
    fnv(&mut hash, domains.len() as u64);
    for d in domains {
        fnv(&mut hash, d.index() as u64);
        fnv_nodes(&mut hash, nsess.domain_session_nodes(d).unwrap());
        fnv_tree(&mut hash, &nsess.domain_tree_global(d).unwrap());
    }
    for l in nsess.topology().graph().link_ids() {
        match nsess.recover(l) {
            Ok(rec) => {
                fnv(&mut hash, 1);
                fnv(&mut hash, rec.owner.index() as u64);
                fnv_nodes(&mut hash, &rec.affected_members);
                fnv(&mut hash, rec.affected_population);
                fnv(&mut hash, rec.restoration_paths.len() as u64);
                for p in &rec.restoration_paths {
                    fnv_nodes(&mut hash, p);
                }
                fnv(&mut hash, rec.recovery_distance.to_bits());
                fnv(&mut hash, rec.domains_involved as u64);
                fnv(&mut hash, rec.elections.len() as u64);
                for e in &rec.elections {
                    fnv(&mut hash, e.domain.index() as u64);
                    fnv(&mut hash, e.old_agent.index() as u64);
                    fnv(&mut hash, e.new_agent.index() as u64);
                    fnv(&mut hash, e.parent_attach.index() as u64);
                }
                fnv(&mut hash, rec.plans.len() as u64);
                for (node, plan) in &rec.plans {
                    fnv(&mut hash, node.index() as u64);
                    fnv_nodes(&mut hash, &plan.path);
                    fnv(&mut hash, plan.wait.as_ns());
                    fnv(&mut hash, plan.path_delay.as_ns());
                }
            }
            Err(e) => {
                fnv(&mut hash, 0);
                for b in e.bytes() {
                    fnv(&mut hash, u64::from(b));
                }
            }
        }
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

/// `faultlab`'s `HierarchyConfig::topology` at its default knobs
/// (chords 0.45, backup gateways 0.35): a 4-node root and `levels - 1`
/// levels of two 8-node domains per node of the level above.
fn hierarchy_topology(levels: usize, population: u64, base_seed: u64) -> NLevelTopology {
    let mut c = NLevelConfig::new(4)
        .extra_edge_prob(0.45)
        .redundant_gateway_prob(0.35)
        .population(population)
        .seed(base_seed ^ 0x9E37_79B9);
    for _ in 1..levels {
        c = c.level(2, 8);
    }
    c.generate().unwrap()
}

/// `faultlab`'s `HierarchyConfig::pick_members` with two members per
/// leaf: the source is the first leaf's first node, the members a seeded
/// draw from every other leaf.
fn pick_members(topo: &NLevelTopology, base_seed: u64) -> (NodeId, Vec<NodeId>) {
    let mut rng = SmallRng::seed_from_u64(base_seed.wrapping_add(0xA5A5_A5A5));
    let leaves: Vec<_> = topo.leaf_domains().collect();
    let source = leaves[0].nodes()[0];
    let mut members = Vec::new();
    for leaf in leaves.iter().skip(1) {
        let mut nodes: Vec<NodeId> = leaf.nodes().to_vec();
        nodes.shuffle(&mut rng);
        members.extend(nodes.into_iter().take(2));
    }
    (source, members)
}

fn build_digest(topo: &NLevelTopology, base_seed: u64) -> u64 {
    let (source, members) = pick_members(topo, base_seed);
    let nsess = NLevelSession::build(topo, source, &members, SmrpConfig::default()).unwrap();
    digest(&nsess)
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: hierarchy digest moved (got {got:#018x})"
    );
}

#[test]
fn three_level_benchmark_shape_is_pinned() {
    // `hierarchy_traced`'s shape (4, 2, 8 at 10⁴ receivers, 1 092 nodes)
    // from the streams its first campaigns draw, on both benchmark seeds,
    // and `HierarchyConfig`'s default seed.
    let seeds = [
        sub_seed(20050628, 10),
        sub_seed(20050628, 11),
        sub_seed(7919, 10),
        0x5EED,
    ];
    let got: Vec<u64> = seeds
        .iter()
        .map(|&base_seed| {
            let topo = hierarchy_topology(3, 10_000, base_seed);
            assert_eq!(topo.graph().node_count(), 1092);
            build_digest(&topo, base_seed)
        })
        .collect();
    assert_eq!(
        got,
        [
            0x1040_177b_235b_d71a,
            0x1884_f151_0931_b5fc,
            0xe6e9_cde7_0e4a_e27c,
            0xfc82_7c0f_c7ed_8864,
        ],
        "3-level digests moved (got {got:#018x?})"
    );
}

#[test]
fn four_level_shape_is_pinned() {
    // One level deeper: 2 185 domains over 17 476 nodes.
    let base_seed = sub_seed(20050628, 10);
    let topo = hierarchy_topology(4, 10_000, base_seed);
    assert_eq!(topo.graph().node_count(), 17_476);
    assert_eq!(topo.domains().len(), 2185);
    check(
        "4-level",
        build_digest(&topo, base_seed),
        0x4d37_81d1_2dc2_79c9,
    );
}

#[test]
fn transit_stub_preset_is_pinned() {
    // The depth-2 preset, no populations: the transit domain is the root.
    let topo = TransitStubConfig::new()
        .transit_nodes(8)
        .stubs_per_transit_node(3)
        .stub_nodes(6)
        .seed(84)
        .generate()
        .unwrap();
    check(
        "transit-stub 8·3·6",
        build_digest(&topo, 84),
        0x98f3_f02b_f44a_0dd3,
    );
}
