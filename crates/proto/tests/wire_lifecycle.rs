//! Wire-level lifecycle integration: a realistic session on a random
//! topology driven entirely through protocol messages — joins, churn,
//! reshaping, a persistent failure and its recovery.

use smrp_core::recovery;
use smrp_core::SmrpConfig;
use smrp_net::waxman::WaxmanConfig;
use smrp_net::{FailureScenario, Graph, NodeId};
use smrp_proto::{DynamicSession, FailureSpec, ProtoSession, RecoveryStrategy, TreeProtocol};
use smrp_sim::SimTime;

fn topology(seed: u64) -> Graph {
    WaxmanConfig::new(40)
        .alpha(0.3)
        .seed(seed)
        .generate()
        .expect("valid settings")
        .into_graph()
}

fn config() -> SmrpConfig {
    SmrpConfig {
        auto_reshape: false,
        ..SmrpConfig::default()
    }
}

#[test]
fn full_session_lifecycle_over_the_wire() {
    let graph = topology(3);
    let ids: Vec<NodeId> = graph.node_ids().collect();
    let source = ids[0];
    let mut session = DynamicSession::new(&graph, source, config()).unwrap();

    // Wave 1: five members join at staggered times.
    let wave1: Vec<NodeId> = ids.iter().copied().skip(2).step_by(7).take(5).collect();
    for &m in &wave1 {
        session.join(m).unwrap();
        session.run_for(SimTime::from_ms(40.0));
    }
    session.run_for(SimTime::from_ms(300.0));
    for &m in &wave1 {
        assert!(session.deliveries(m) > 10, "{m} starved after joining");
    }

    // Churn: two leave, two more join.
    session.leave(wave1[0]).unwrap();
    session.leave(wave1[3]).unwrap();
    let wave2: Vec<NodeId> = ids
        .iter()
        .copied()
        .skip(3)
        .step_by(11)
        .filter(|m| !session.control_tree().is_member(*m) && *m != source)
        .take(2)
        .collect();
    for &m in &wave2 {
        session.join(m).unwrap();
    }
    session.run_for(SimTime::from_ms(800.0));

    // Leavers no longer accumulate deliveries; stayers and newcomers do.
    let frozen = session.deliveries(wave1[0]);
    session.run_for(SimTime::from_ms(300.0));
    assert!(
        session.deliveries(wave1[0]) <= frozen + 2,
        "a departed member kept receiving"
    );
    for &m in &wave2 {
        assert!(session.deliveries(m) > 10, "{m} starved after joining late");
    }

    // A reshape sweep keeps the session consistent.
    let _ = session.reshape_sweep().unwrap();
    session.run_for(SimTime::from_ms(500.0));
    session
        .control_tree()
        .validate(&graph)
        .expect("control tree stays valid through the whole lifecycle");
    for m in session.control_tree().members().collect::<Vec<_>>() {
        let before = session.deliveries(m);
        session.run_for(SimTime::from_ms(200.0));
        assert!(
            session.deliveries(m) > before,
            "{m} stopped receiving after the sweep"
        );
    }
}

#[test]
fn recovery_after_failure_on_random_topology_restores_all() {
    // Across several seeds: build, fail the busiest branch, recover
    // everyone that the algorithmic engine says is recoverable.
    for seed in [11u64, 12, 13] {
        let graph = topology(seed);
        let ids: Vec<NodeId> = graph.node_ids().collect();
        let members: Vec<NodeId> = ids.iter().copied().skip(1).step_by(5).take(7).collect();
        let session = ProtoSession::build(
            &graph,
            ids[0],
            &members,
            TreeProtocol::Smrp(SmrpConfig::default()),
        )
        .unwrap();
        // Busiest source-adjacent branch.
        let tree = session.tree();
        let worst = tree
            .children(ids[0])
            .iter()
            .copied()
            .max_by_key(|c| tree.subtree_members(*c))
            .expect("tree has branches");
        let link = graph.link_between(ids[0], worst).unwrap();
        let scenario = FailureScenario::link(link);

        let report = session.run(&FailureSpec::persistent(
            &scenario,
            RecoveryStrategy::LocalDetour,
            SimTime::from_ms(150.0),
            SimTime::from_ms(6000.0),
        ));
        for (m, latency) in &report.groups[0].restorations {
            let algorithmic =
                recovery::recover(&graph, tree, &scenario, *m, recovery::DetourKind::Local);
            match algorithmic {
                Ok(_) => {
                    // The member itself can detour; whether its fragment
                    // root repaired first or it starved and self-recovered,
                    // service must be back.
                    assert!(
                        latency.is_some(),
                        "seed {seed}: member {m} never restored at wire level"
                    );
                }
                Err(_) => {
                    // Physically unrecoverable: the wire cannot do better.
                }
            }
        }
    }
}
