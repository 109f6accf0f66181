//! Property-based invariants across the workspace.
//!
//! Random topologies and random operation sequences must never break the
//! tree bookkeeping (`N_R`, `SHR`, prune discipline), the shortest-path
//! optimality guarantees, or the local-vs-global recovery ordering.

use proptest::prelude::*;

use smrp_repro::core::recovery::{self, DetourKind};
use smrp_repro::core::{SmrpConfig, SmrpSession};
use smrp_repro::net::dijkstra::{self, Constraints};
use smrp_repro::net::waxman::WaxmanConfig;
use smrp_repro::net::{FailureScenario, Graph, NodeId};

fn waxman(seed: u64, nodes: usize) -> Graph {
    WaxmanConfig::new(nodes)
        .alpha(0.3)
        .seed(seed)
        .generate()
        .expect("valid generator settings")
        .into_graph()
}

/// A joint (join/leave) operation script over member candidates.
#[derive(Debug, Clone)]
enum Op {
    Join(usize),
    Leave(usize),
    Reshape,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..20).prop_map(Op::Join),
        (0usize..20).prop_map(Op::Leave),
        Just(Op::Reshape),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tree_invariants_survive_random_membership_churn(
        seed in 0u64..500,
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let graph = waxman(seed, 24);
        let ids: Vec<NodeId> = graph.node_ids().collect();
        let source = ids[0];
        let candidates = &ids[1..21.min(ids.len())];
        let mut sess = SmrpSession::new(&graph, source, SmrpConfig::default()).unwrap();

        for op in ops {
            match op {
                Op::Join(i) => {
                    let n = candidates[i % candidates.len()];
                    if !sess.tree().is_member(n) {
                        sess.join(n).unwrap();
                    }
                }
                Op::Leave(i) => {
                    let n = candidates[i % candidates.len()];
                    if sess.tree().is_member(n) {
                        sess.leave(n).unwrap();
                    }
                }
                Op::Reshape => {
                    sess.reshape_sweep();
                }
            }
            // Every invariant — parent/child consistency, acyclicity,
            // pruning discipline, N_R recounts and the Eq. 1 == Eq. 2
            // SHR cross-check — must hold after every operation.
            sess.tree().validate(&graph).unwrap();
        }
    }

    #[test]
    fn local_detour_never_exceeds_global(
        seed in 0u64..300,
        member_i in 0usize..8,
    ) {
        let graph = waxman(seed.wrapping_add(5000), 30);
        let ids: Vec<NodeId> = graph.node_ids().collect();
        let source = ids[0];
        let members: Vec<NodeId> = ids.iter().copied().skip(2).step_by(3).take(8).collect();
        let mut sess = SmrpSession::new(&graph, source, SmrpConfig::default()).unwrap();
        for &m in &members {
            sess.join(m).unwrap();
        }
        let member = members[member_i % members.len()];
        let Some(link) = recovery::worst_case_failure_for(&graph, sess.tree(), member) else {
            return Ok(());
        };
        let scenario = FailureScenario::link(link);
        let local = recovery::recover(&graph, sess.tree(), &scenario, member, DetourKind::Local);
        let global = recovery::recover(&graph, sess.tree(), &scenario, member, DetourKind::Global);
        if let (Ok(l), Ok(g)) = (local, global) {
            prop_assert!(l.recovery_distance() <= g.recovery_distance() + 1e-9);
            // Both restoration paths are valid simple paths avoiding the cut.
            prop_assert!(l.restoration_path().validate(&graph).is_ok());
            prop_assert!(g.restoration_path().validate(&graph).is_ok());
            prop_assert!(!l.restoration_path().links(&graph).contains(&link));
        }
    }

    #[test]
    fn constrained_dijkstra_respects_failures(
        seed in 0u64..300,
        link_i in 0usize..60,
    ) {
        let graph = waxman(seed.wrapping_add(9000), 24);
        prop_assume!(graph.link_count() > 0);
        let link = smrp_repro::net::LinkId::new(link_i % graph.link_count());
        let scenario = FailureScenario::link(link);
        let (a, b) = graph.link(link).endpoints();
        if let Some(p) = dijkstra::shortest_path_constrained(
            &graph,
            a,
            b,
            Constraints::avoiding_failures(&scenario),
        ) {
            prop_assert!(!p.links(&graph).contains(&link));
            prop_assert!(p.validate(&graph).is_ok());
            // The detour cannot beat the direct (failed) link... unless a
            // parallel shorter route existed, which `add_link` forbids for
            // the same endpoints; so strictly longer or equal via others.
            prop_assert!(p.delay(&graph) > 0.0);
        }
    }

    #[test]
    fn shr_decreases_or_holds_after_reshaping(
        seed in 0u64..200,
    ) {
        let graph = waxman(seed.wrapping_add(12_000), 30);
        let ids: Vec<NodeId> = graph.node_ids().collect();
        let source = ids[0];
        let members: Vec<NodeId> = ids.iter().copied().skip(1).step_by(3).take(9).collect();
        let mut sess = SmrpSession::new(
            &graph,
            source,
            SmrpConfig { auto_reshape: false, ..SmrpConfig::default() },
        )
        .unwrap();
        for &m in &members {
            sess.join(m).unwrap();
        }
        let total_before: u64 = members.iter().map(|&m| u64::from(sess.tree().shr(m))).sum();
        sess.reshape_until_stable(6);
        sess.tree().validate(&graph).unwrap();
        let total_after: u64 = members.iter().map(|&m| u64::from(sess.tree().shr(m))).sum();
        // Reshaping switches only to strictly-lower adjusted SHR mergers,
        // so the aggregate sharing must not increase.
        prop_assert!(
            total_after <= total_before,
            "sharing grew from {total_before} to {total_after}"
        );
    }
}
