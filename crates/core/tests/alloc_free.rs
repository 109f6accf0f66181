//! What membership operations allocate.
//!
//! A reshape attempt that settles without a search (its keeper's adjusted
//! `SHR` is 0) only reads the tree, so it allocates nothing in any
//! profile. A full-topology join ranks its candidates as they settle and
//! builds one approach path, the winner's: what it allocates depends on
//! the path it grafts, not on how many candidates it looked at. The
//! counter is the one `crates/sim/tests/alloc_free.rs` uses.

#[path = "../../sim/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use smrp_core::session::ReshapeStats;
use smrp_core::{ReshapeOutcome, SelectionMode, SmrpConfig, SmrpSession};
use smrp_net::transit_stub::TransitStubConfig;
use smrp_net::{Graph, NodeId};

fn transit_stub(seed: u64, transit: usize, stubs: usize, stub_nodes: usize) -> Graph {
    TransitStubConfig::new()
        .transit_nodes(transit)
        .stubs_per_transit_node(stubs)
        .stub_nodes(stub_nodes)
        .seed(seed)
        .generate()
        .expect("valid generator settings")
        .into_graph()
}

/// Every `step`-th node but the source, as members.
fn members(graph: &Graph, source: NodeId, step: usize) -> Vec<NodeId> {
    graph
        .node_ids()
        .filter(|&v| v != source)
        .step_by(step)
        .collect()
}

/// One `reshape_member(member)` call, measured: whether it settled without
/// a search, and if so that it allocated nothing, wrote nothing and
/// counted one attempt, settled.
fn settles_for_free(sess: &mut SmrpSession<'_>, member: NodeId) -> bool {
    let before = sess.tree().clone();
    let stats = sess.reshape_stats();
    let allocs = allocations();
    let outcome = sess.reshape_member(member).unwrap();
    let allocs = allocations() - allocs;
    let after = sess.reshape_stats();
    if after.settled_without_search == stats.settled_without_search {
        return false;
    }
    assert_eq!(outcome, ReshapeOutcome::Kept, "member {member}");
    assert_eq!(allocs, 0, "member {member}: {allocs} allocations");
    assert_eq!(sess.tree(), &before, "member {member}");
    let once = ReshapeStats {
        attempts: stats.attempts + 1,
        switched: stats.switched,
        settled_without_search: stats.settled_without_search + 1,
    };
    assert_eq!(after, once, "member {member}");
    true
}

#[test]
fn settled_reshape_attempts_allocate_nothing() {
    // s - r1 - r2 - m: m's branch prunes r2 and r1, so its keeper is the
    // pruned r1; and r1, once a member, hangs off the source itself.
    let mut chain = Graph::with_nodes(4);
    let ids: Vec<NodeId> = chain.node_ids().collect();
    for w in ids.windows(2) {
        chain.add_link(w[0], w[1], 1.0).unwrap();
    }
    let config = SmrpConfig {
        auto_reshape: false,
        ..SmrpConfig::default()
    };
    let mut sess = SmrpSession::new(&chain, ids[0], config).unwrap();
    sess.join(ids[3]).unwrap();
    // The first attempt grows the session's relay buffer.
    sess.reshape_member(ids[3]).unwrap();
    assert!(settles_for_free(&mut sess, ids[3]));
    sess.join(ids[1]).unwrap();
    assert!(settles_for_free(&mut sess, ids[1]));

    let graph = transit_stub(11, 6, 3, 5);
    let source = NodeId::new(0);
    for selection in [SelectionMode::FullTopology, SelectionMode::NeighborQuery] {
        let config = SmrpConfig {
            selection,
            ..SmrpConfig::default()
        };
        let mut sess = SmrpSession::new(&graph, source, config).unwrap();
        for m in members(&graph, source, 3) {
            sess.join(m).unwrap();
        }
        // A sweep that switches nobody leaves the tree, and so the next
        // sweep's relay chains, as they were: its buffers fit them all.
        sess.reshape_until_stable(20);
        assert_eq!(sess.reshape_sweep(), 0, "{selection:?} not stable");
        let live: Vec<NodeId> = sess.members().collect();
        let settled = live
            .iter()
            .filter(|&&m| settles_for_free(&mut sess, m))
            .count();
        assert!(settled > 0, "{selection:?}: no attempt settled");
    }
}

/// A join allocates its selected approach path, its returned `S → NR`
/// path and the two vectors `attach_path` recounts the grafted fragment
/// with, plus at most two per child slot it writes on the grafted chain
/// (a new list and its 8-byte slot; the merger's list grows in place):
/// nothing per candidate. The stats audit allocates by design, so the
/// bound holds only without it.
#[cfg(not(any(debug_assertions, feature = "audit-stats")))]
#[test]
fn full_topology_joins_allocate_for_their_path_not_their_candidates() {
    use smrp_core::select;

    // The benchmark's n = 4 000 shape, 30 members.
    let graph = transit_stub(29, 40, 9, 11);
    let source = NodeId::new(3);
    let config = SmrpConfig {
        auto_reshape: false,
        selection: SelectionMode::FullTopology,
        ..SmrpConfig::default()
    };
    let joiners = members(&graph, source, 133);
    let mut sess = SmrpSession::new(&graph, source, config).unwrap();
    // The first round sizes the session's search scratch and heap for
    // every search of the script; after everyone leaves, the tree is bare
    // again and the second round repeats those searches exactly.
    for &m in &joiners {
        sess.join(m).unwrap();
    }
    for &m in &joiners {
        sess.leave(m).unwrap();
    }
    // Joins that looked at more candidates than they may allocate.
    let mut outnumbered = 0;
    for &m in &joiners {
        let on_tree = sess.tree().on_tree_nodes().count();
        let candidates = select::enumerate_candidates(
            &graph,
            sess.tree(),
            sess.spt(),
            m,
            SelectionMode::FullTopology,
            &[],
        )
        .len();
        let allocs = allocations();
        let out = sess.join(m);
        let allocs = allocations() - allocs;
        drop(out.unwrap());
        let grafted = sess.tree().on_tree_nodes().count() - on_tree;
        let bound = 4 + 2 * grafted as u64;
        assert!(
            allocs <= bound,
            "join of {m}: {allocs} allocations for {grafted} grafted nodes and \
             {candidates} candidates (bound {bound})"
        );
        outnumbered += usize::from(candidates as u64 > bound);
    }
    assert!(
        outnumbered >= 10,
        "only {outnumbered} joins saw many candidates"
    );
}
