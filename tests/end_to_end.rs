//! Cross-crate integration: topology generation → tree construction →
//! failure → recovery → protocol simulation, all through the public API.

use smrp_repro::core::recovery::{self, DetourKind};
use smrp_repro::core::{SmrpConfig, SmrpSession, SpfSession};
use smrp_repro::net::waxman::WaxmanConfig;
use smrp_repro::net::{FailureScenario, NodeId};
use smrp_repro::proto::{FailureSpec, ProtoSession, RecoveryStrategy, TreeProtocol};
use smrp_repro::sim::SimTime;

fn topology(seed: u64) -> smrp_repro::net::Graph {
    WaxmanConfig::new(60)
        .alpha(0.25)
        .seed(seed)
        .generate()
        .expect("valid generator settings")
        .into_graph()
}

fn pick_members(graph: &smrp_repro::net::Graph, count: usize) -> (NodeId, Vec<NodeId>) {
    let ids: Vec<_> = graph.node_ids().collect();
    (
        ids[0],
        ids.iter().copied().skip(3).step_by(4).take(count).collect(),
    )
}

#[test]
fn full_pipeline_smrp_vs_spf() {
    let graph = topology(1);
    let (source, members) = pick_members(&graph, 10);

    let mut smrp = SmrpSession::new(&graph, source, SmrpConfig::default()).unwrap();
    let mut spf = SpfSession::new(&graph, source).unwrap();
    for &m in &members {
        smrp.join(m).unwrap();
        spf.join(m).unwrap();
    }
    smrp.tree().validate(&graph).unwrap();
    spf.tree().validate(&graph).unwrap();

    // Both trees serve the same members.
    assert_eq!(smrp.tree().member_count(), spf.tree().member_count());

    // SPF delays are optimal; SMRP trades delay away, bounded-ish.
    for &m in &members {
        let spf_delay = spf.tree().delay_to(&graph, m).unwrap();
        let smrp_delay = smrp.tree().delay_to(&graph, m).unwrap();
        assert!(smrp_delay + 1e-9 >= spf_delay);
    }
}

#[test]
fn recovery_after_every_single_tree_link_failure() {
    let graph = topology(2);
    let (source, members) = pick_members(&graph, 8);
    let mut smrp = SmrpSession::new(&graph, source, SmrpConfig::default()).unwrap();
    for &m in &members {
        smrp.join(m).unwrap();
    }
    let tree = smrp.tree();

    for link in tree.links(&graph) {
        let scenario = FailureScenario::link(link);
        for member in recovery::affected_members(&graph, tree, &scenario) {
            let local = recovery::recover(&graph, tree, &scenario, member, DetourKind::Local);
            let global = recovery::recover(&graph, tree, &scenario, member, DetourKind::Global);
            match (local, global) {
                (Ok(l), Ok(g)) => {
                    // The local detour is never longer than the global one.
                    assert!(
                        l.recovery_distance() <= g.recovery_distance() + 1e-9,
                        "link {link:?} member {member}: local {} > global {}",
                        l.recovery_distance(),
                        g.recovery_distance()
                    );
                    // Restoration paths avoid the failed link.
                    assert!(!l.restoration_path().links(&graph).contains(&link));
                    assert!(!g.restoration_path().links(&graph).contains(&link));
                    // Both attach to nodes still connected to the source.
                    let surviving = recovery::surviving_connected(&graph, tree, &scenario);
                    assert!(surviving.contains(&l.attach()));
                    assert!(surviving.contains(&g.attach()));
                }
                (Err(e1), Err(e2)) => {
                    // Either both fail (isolated member) or neither.
                    assert_eq!(format!("{e1:?}"), format!("{e2:?}"));
                }
                (l, g) => panic!("asymmetric recovery outcome: {l:?} vs {g:?}"),
            }
        }
    }
}

#[test]
fn protocol_simulation_matches_algorithmic_affectedness() {
    let graph = topology(3);
    let (source, members) = pick_members(&graph, 6);
    let session = ProtoSession::build(
        &graph,
        source,
        &members,
        TreeProtocol::Smrp(SmrpConfig::default()),
    )
    .unwrap();

    let member = members[0];
    let Some(link) = recovery::worst_case_failure_for(&graph, session.tree(), member) else {
        panic!("member has a worst-case link");
    };
    let scenario = FailureScenario::link(link);
    let report = session
        .run(&FailureSpec::persistent(
            &scenario,
            RecoveryStrategy::LocalDetour,
            SimTime::from_ms(150.0),
            SimTime::from_ms(4000.0),
        ))
        .groups
        .remove(0);
    let affected = recovery::affected_members(&graph, session.tree(), &scenario);
    assert_eq!(report.restorations.len(), affected.len());
    // Everyone the algorithm says is recoverable must actually restore in
    // the message-level simulation.
    for (m, latency) in &report.restorations {
        let fragment_recoverable = report.restorations.iter().any(|_| true);
        let _ = fragment_recoverable;
        assert!(
            latency.is_some(),
            "member {m} did not restore at protocol level"
        );
    }
    // And the unaffected members were indeed never cut off.
    for m in &report.unaffected {
        assert!(!affected.contains(m));
    }
}

#[test]
fn leave_everything_returns_to_bare_source() {
    let graph = topology(4);
    let (source, members) = pick_members(&graph, 10);
    let mut smrp = SmrpSession::new(&graph, source, SmrpConfig::default()).unwrap();
    for &m in &members {
        smrp.join(m).unwrap();
    }
    for &m in &members {
        smrp.leave(m).unwrap();
        smrp.tree().validate(&graph).unwrap();
    }
    assert_eq!(smrp.tree().member_count(), 0);
    assert_eq!(smrp.tree().links(&graph).len(), 0);
    assert_eq!(smrp.tree().on_tree_nodes().count(), 1);
}

#[test]
fn rejoin_after_leave_is_clean() {
    let graph = topology(5);
    let (source, members) = pick_members(&graph, 6);
    let mut smrp = SmrpSession::new(&graph, source, SmrpConfig::default()).unwrap();
    for &m in &members {
        smrp.join(m).unwrap();
    }
    let m = members[2];
    smrp.leave(m).unwrap();
    let out = smrp.join(m).unwrap();
    assert_eq!(out.member, m);
    smrp.tree().validate(&graph).unwrap();
    assert!(smrp.tree().is_member(m));
}
