//! Wire-level membership and lifecycle integration: sessions driven
//! entirely through protocol messages on the one run loop — joins, leaves
//! and reshapes scripted by a [`MembershipMirror`] on the paper's figures
//! and on random topologies, then a persistent failure and its recovery.

use smrp_core::{paper, recovery, MulticastTree, SmrpConfig};
use smrp_net::waxman::WaxmanConfig;
use smrp_net::{FailureScenario, Graph, GroupId, NodeId};
use smrp_proto::{
    FailureSpec, MemberChange, MembershipMirror, MultiSession, ProtoSession, RecoveryStrategy,
    Router, TreeProtocol,
};
use smrp_sim::{SimTime, TraceLog};

fn topology(seed: u64) -> Graph {
    WaxmanConfig::new(40)
        .alpha(0.3)
        .seed(seed)
        .generate()
        .expect("valid settings")
        .into_graph()
}

fn ms(t: f64) -> SimTime {
    SimTime::from_ms(t)
}

fn mirror(graph: &Graph, source: NodeId) -> MembershipMirror<'_> {
    let config = SmrpConfig {
        auto_reshape: false,
        ..SmrpConfig::default()
    };
    MembershipMirror::new(graph, source, config, GroupId::new(0)).unwrap()
}

/// Runs `mirror`'s script on the one run loop until `until`, starting
/// from its tree before the script (the bare source); returns every
/// node's final lane, idle where the group never reached.
fn run(graph: &Graph, mirror: &MembershipMirror<'_>, until: f64) -> Vec<Router> {
    let start = MulticastTree::new(graph, mirror.tree().source()).unwrap();
    let multi = MultiSession::from_sessions(vec![ProtoSession::from_tree(graph, start)]);
    let none = FailureScenario::none();
    let spec = FailureSpec {
        membership: mirror.script(),
        ..FailureSpec::persistent(&none, RecoveryStrategy::LocalDetour, ms(0.0), ms(until))
    };
    let mut routers = multi.run(&spec, TraceLog::disabled()).routers;
    routers
        .iter_mut()
        .map(|p| p.lane_mut(GroupId::new(0)).clone())
        .collect()
}

/// Data packets `r` had received by `t` milliseconds.
fn delivered_by(r: &Router, t: f64) -> usize {
    r.deliveries().iter().filter(|d| d.time <= ms(t)).count()
}

#[test]
fn dynamic_join_starts_data_flow() {
    let (graph, n) = paper::figure1_graph();
    let mut s = mirror(&graph, n.s);
    s.join(ms(50.0), n.c).unwrap();
    let routers = run(&graph, &s, 250.0);
    let c = routers[n.c.index()].deliveries().len();
    assert!(c > 10, "C got {c} packets");
    // The wire tree matches the control tree.
    assert_eq!(routers[n.a.index()].downstream(), vec![n.c]);
    assert!(s.tree().is_member(n.c));
}

#[test]
fn staggered_joins_share_state() {
    let (graph, n) = paper::figure1_graph();
    let mut s = mirror(&graph, n.s);
    s.join(ms(0.0), n.c).unwrap();
    s.join(ms(100.0), n.d).unwrap();
    let routers = run(&graph, &s, 300.0);
    assert!(!routers[n.c.index()].deliveries().is_empty());
    assert!(!routers[n.d.index()].deliveries().is_empty());
    // A carries both children, exactly as in Figure 1(a).
    let mut down = routers[n.a.index()].downstream();
    down.sort();
    assert_eq!(down, vec![n.c, n.d]);
}

#[test]
fn leave_prunes_via_soft_state() {
    let (graph, n) = paper::figure1_graph();
    let mut s = mirror(&graph, n.s);
    s.join(ms(0.0), n.c).unwrap();
    s.leave(ms(100.0), n.c).unwrap();
    // Past the holdtime, C and its relay A are gone from the wire tree.
    let routers = run(&graph, &s, 700.0);
    let c = &routers[n.c.index()];
    assert!(!c.is_on_tree());
    assert!(!routers[n.a.index()].is_on_tree());
    assert!(routers[n.s.index()].downstream().is_empty());
    // No deliveries after the prune settled.
    let before = delivered_by(c, 100.0);
    let after = c.deliveries().len();
    assert!(after - before < 60, "C kept receiving long after leaving");
}

#[test]
fn rejoin_after_leave_works() {
    let (graph, n) = paper::figure1_graph();
    let mut s = mirror(&graph, n.s);
    s.join(ms(0.0), n.d).unwrap();
    s.leave(ms(100.0), n.d).unwrap();
    s.join(ms(700.0), n.d).unwrap();
    let routers = run(&graph, &s, 900.0);
    let total = routers[n.d.index()].deliveries().len();
    assert!(total > 20, "D resumed with only {total} packets");
    assert!(s.tree().is_member(n.d));
}

#[test]
fn figure5_reshaping_happens_on_the_wire() {
    // Drive the Figure 4 join sequence (E, G, F) at the message level,
    // then reshape E: the wire tree must converge to Figure 5(d) —
    // E reaches the source via C and A — while data keeps flowing.
    let (graph, n) = paper::figure4_graph();
    let mut s = mirror(&graph, n.s);
    s.join(ms(0.0), n.e).unwrap();
    s.join(ms(60.0), n.g).unwrap();
    s.join(ms(120.0), n.f).unwrap();
    let switched = s.reshape(ms(240.0), n.e).unwrap();
    assert!(switched, "Condition I should move E after F's admission");
    // Let the new branch install and the old one expire.
    let routers = run(&graph, &s, 1040.0);

    let e = &routers[n.e.index()];
    assert_eq!(e.upstream(), Some(n.c));
    assert_eq!(routers[n.c.index()].upstream(), Some(n.a));
    assert!(routers[n.c.index()].is_on_tree());
    // D no longer carries E (only F remains beneath it).
    assert_eq!(routers[n.d.index()].downstream(), vec![n.f]);
    // E kept receiving data across the switch.
    let before = delivered_by(e, 240.0);
    let after = e.deliveries().len();
    assert!(after > before + 50, "E stalled during reshaping");
    // The other members were untouched.
    assert!(!routers[n.f.index()].deliveries().is_empty());
    assert!(!routers[n.g.index()].deliveries().is_empty());
}

#[test]
fn default_config_wire_matches_the_mirror() {
    // Under `SmrpConfig::default()`, F's admission reshapes E inside the
    // join (Condition I, Figure 5(d)): the wire must follow the mirror
    // there too, node for node.
    let (graph, n) = paper::figure4_graph();
    let mut s = MembershipMirror::new(&graph, n.s, SmrpConfig::default(), GroupId::new(0)).unwrap();
    for (at, m) in [(0.0, n.e), (60.0, n.g), (120.0, n.f)] {
        s.join(ms(at), m).unwrap();
    }
    assert_eq!(s.tree().parent(n.e), Some(n.c));
    let routers = run(&graph, &s, 1120.0);
    for v in graph.node_ids() {
        let r = &routers[v.index()];
        assert_eq!(r.is_on_tree(), s.tree().is_on_tree(v), "{v} on-tree");
        assert_eq!(r.upstream(), s.tree().parent(v), "{v} upstream");
    }
}

#[test]
fn quiescent_sweep_switches_nothing() {
    let (graph, n) = paper::figure1_graph();
    let mut s = mirror(&graph, n.s);
    s.join(ms(0.0), n.c).unwrap();
    assert_eq!(s.reshape_sweep(ms(100.0)).unwrap(), 0);
}

#[test]
fn relay_upgrade_join() {
    let (graph, n) = paper::figure1_graph();
    let mut s = mirror(&graph, n.s);
    s.join(ms(0.0), n.c).unwrap(); // path S-A-C puts A on-tree.
    s.join(ms(100.0), n.a).unwrap(); // the relay becomes a member.
    assert_eq!(s.script()[1].3, MemberChange::Promote);
    let routers = run(&graph, &s, 250.0);
    let a = &routers[n.a.index()];
    assert!(!a.deliveries().is_empty(), "relay member receives data");
    assert!(a.is_member());
}

#[test]
fn full_session_lifecycle_over_the_wire() {
    // Seeds 1, 7 and 20 promote a relay while the `Setup` that makes it
    // one is still in flight: promotion must stay local membership.
    for seed in [3u64, 1, 7, 20] {
        lifecycle(seed);
    }
}

fn lifecycle(seed: u64) {
    let graph = topology(seed);
    let ids: Vec<NodeId> = graph.node_ids().collect();
    let source = ids[0];
    let mut session = mirror(&graph, source);

    // Wave 1: five members join at staggered times.
    let wave1: Vec<NodeId> = ids.iter().copied().skip(2).step_by(7).take(5).collect();
    for (k, &m) in wave1.iter().enumerate() {
        session.join(ms(40.0 * k as f64), m).unwrap();
    }
    let settled = 40.0 * wave1.len() as f64 + 300.0;

    // Churn: two leave, two more join.
    session.leave(ms(settled), wave1[0]).unwrap();
    session.leave(ms(settled), wave1[3]).unwrap();
    let wave2: Vec<NodeId> = ids
        .iter()
        .copied()
        .skip(3)
        .step_by(11)
        .filter(|m| !session.tree().is_member(*m) && *m != source)
        .take(2)
        .collect();
    for &m in &wave2 {
        session.join(ms(settled), m).unwrap();
    }
    let frozen_at = settled + 800.0;
    let churned = frozen_at + 300.0;

    // A reshape sweep keeps the session consistent.
    let _ = session.reshape_sweep(ms(churned)).unwrap();
    let swept = churned + 500.0;
    session
        .tree()
        .validate(&graph)
        .expect("control tree stays valid through the whole lifecycle");
    let members: Vec<NodeId> = session.tree().members().collect();
    let until = swept + 200.0 * members.len() as f64;
    let routers = run(&graph, &session, until);
    let delivered = |m: NodeId, t: f64| delivered_by(&routers[m.index()], t);

    // Wave 1's 300 ms settling budget is sized to seed 3's link delays.
    // On seed 7, member 23's branch is 244 ms from the source one way, so
    // no packet can reach it in the 380 ms before it leaves.
    if seed == 3 {
        for &m in &wave1 {
            assert!(delivered(m, settled) > 10, "{m} starved after joining");
        }
    }
    // Leavers no longer accumulate deliveries; stayers and newcomers do.
    assert!(
        delivered(wave1[0], churned) <= delivered(wave1[0], frozen_at) + 2,
        "seed {seed}: a departed member kept receiving"
    );
    for &m in &wave2 {
        assert!(
            delivered(m, churned) > 10,
            "seed {seed}: {m} starved after joining late"
        );
    }
    for (k, &m) in members.iter().enumerate() {
        let from = swept + 200.0 * k as f64;
        assert!(
            delivered(m, from + 200.0) > delivered(m, from),
            "seed {seed}: {m} stopped receiving after the sweep"
        );
        assert!(
            delivered(m, until) > delivered(m, until - 200.0),
            "seed {seed}: {m} receives nothing at the end of the run"
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
