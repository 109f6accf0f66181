//! End-to-end determinism: identical seeds must produce byte-identical
//! artifacts across whole experiment runs — the property EXPERIMENTS.md
//! relies on for reproducibility.

use smrp_repro::experiments::{fig7, fig8, Effort};
use smrp_repro::net::waxman::WaxmanConfig;
use smrp_repro::proto::{FailureSpec, ProtoSession, RecoveryStrategy, TreeProtocol};
use smrp_repro::sim::SimTime;

#[test]
fn figure7_runs_are_byte_identical() {
    let a = fig7::run(Effort::Quick).to_csv().render();
    let b = fig7::run(Effort::Quick).to_csv().render();
    assert_eq!(a, b);
}

#[test]
fn figure8_runs_are_byte_identical() {
    let a = fig8::run(Effort::Quick).to_csv().render();
    let b = fig8::run(Effort::Quick).to_csv().render();
    assert_eq!(a, b);
}

#[test]
fn protocol_simulations_are_replayable() {
    let graph = WaxmanConfig::new(50)
        .alpha(0.25)
        .seed(5)
        .generate()
        .unwrap()
        .into_graph();
    let ids: Vec<_> = graph.node_ids().collect();
    let members: Vec<_> = ids.iter().copied().skip(2).step_by(5).take(8).collect();
    let session = ProtoSession::build(&graph, ids[0], &members, TreeProtocol::Spf).unwrap();
    let link = session.tree().links(&graph)[0];
    let scenario = smrp_repro::net::FailureScenario::link(link);

    let run = || {
        session.run(&FailureSpec::persistent(
            &scenario,
            RecoveryStrategy::LocalDetour,
            SimTime::from_ms(100.0),
            SimTime::from_ms(2000.0),
        ))
    };
    let a = run();
    let b = run();
    let (ra, rb) = (&a.groups[0].restorations, &b.groups[0].restorations);
    assert_eq!(ra.len(), rb.len());
    for ((ma, la), (mb, lb)) in ra.iter().zip(rb) {
        assert_eq!(ma, mb);
        assert_eq!(la.map(SimTime::as_ms), lb.map(SimTime::as_ms));
    }
    assert_eq!(a.messages_delivered, b.messages_delivered);
    assert_eq!(a.messages_dropped, b.messages_dropped);
}
