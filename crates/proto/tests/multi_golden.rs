//! Golden-trace regression test for the canonical Figure 1 experiment
//! under the multi-session engine.
//!
//! The single-group `MultiSession` is contractually the degenerate case
//! of `ProtoSession::run_failure_spec` — same event order, same recovery,
//! same latencies. This test pins that down at the message level: the
//! exact sequence of `Setup` sends after the A–D cut (the local-detour
//! graft propagating hop by hop) must match a golden transcript, and the
//! measured restoration latencies must equal the single-session runner's
//! to the bit. Any change to lane dispatch, timer ordering or reliable
//! sequencing that perturbs the wire behavior shows up here as a diff.

use smrp_core::SmrpConfig;
use smrp_net::FailureScenario;
use smrp_proto::{
    FailureTiming, InjectionTiming, MultiSession, ProtoSession, RecoveryStrategy, TreeProtocol,
};
use smrp_sim::{SimTime, TraceEvent, TraceLog};

/// Every post-failure `Setup` send of the Figure 1 local-detour recovery,
/// exactly as the multi-session engine emits it today, in the typed
/// event's one-line rendering (`group class [reliable] #seq
/// origin=>attach@hop`). The reliable envelope's sequence number and the
/// group tag are part of the pinned surface on purpose: they are the
/// sharding seam this test guards.
/// The whole recovery is one hop: member D (`n4`) detects the cut at
/// 130 ms (one missed hello past the 100 ms failure) and grafts straight
/// to the nearest on-tree node C (`n3`).
const GOLDEN_SETUP_SENDS: &[&str] = &["130.00ms n4->n3 g0 setup reliable #0 n4=>n3@1"];

fn setup_sends(trace: &TraceLog, after: SimTime) -> Vec<String> {
    trace
        .entries()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Sent {
                time,
                from,
                to,
                what,
            } if *time >= after && what.setup.is_some() => {
                Some(format!("{:.2}ms {from}->{to} {what}", time.as_ms()))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn figure1_local_detour_trace_is_golden() {
    let (graph, nodes) = smrp_core::paper::figure1_graph();
    let session = ProtoSession::build(
        &graph,
        nodes.s,
        &[nodes.c, nodes.d],
        TreeProtocol::Smrp(SmrpConfig::default()),
    )
    .unwrap();
    let l_ad = graph.link_between(nodes.a, nodes.d).unwrap();
    let scenario = FailureScenario::link(l_ad);
    let fail_at = SimTime::from_ms(100.0);
    let timing = InjectionTiming::Once(FailureTiming::persistent(fail_at));
    let until = SimTime::from_ms(3000.0);
    let channel = smrp_sim::ChannelSpec::perfect();

    let single = session.run_failure_spec(
        &scenario,
        RecoveryStrategy::LocalDetour,
        timing,
        &channel,
        until,
    );

    let multi = MultiSession::from_sessions(vec![session]);
    let (report, trace) = multi.run_failure_spec_traced(
        &scenario,
        RecoveryStrategy::LocalDetour,
        timing,
        &channel,
        until,
        TraceLog::new(65_536),
    );
    assert_eq!(trace.discarded(), 0, "trace capacity must hold the run");

    // M=1 equivalence: identical restorations, to the bit.
    assert_eq!(report.groups.len(), 1);
    assert_eq!(report.groups[0].restorations, single.restorations);
    assert!(report.all_restored(), "{:?}", report.groups[0].restorations);

    let actual = setup_sends(&trace, fail_at);
    assert!(
        !actual.is_empty(),
        "the local detour must graft via Setup messages"
    );
    let expected: Vec<String> = GOLDEN_SETUP_SENDS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        actual,
        expected,
        "Setup-send trace diverged from the golden transcript.\nactual:\n{}",
        actual.join("\n")
    );
}
