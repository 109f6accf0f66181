//! Golden regression test for the canonical Figure 1 experiment.
//!
//! `MultiSession::run` is the only failure loop; a single session runs as
//! its one-group case. This test pins that case at the message level: the
//! exact sequence of `Setup` sends after the A–D cut (the local-detour
//! graft propagating hop by hop) must match a golden transcript, and the
//! restoration latency and engine message counts must equal what the
//! retired single-`Router` loop produced for the same experiment, to the
//! nanosecond. Any change to lane dispatch, timer ordering or reliable
//! sequencing that perturbs the wire behavior shows up here as a diff.

use smrp_core::SmrpConfig;
use smrp_net::FailureScenario;
use smrp_proto::{FailureSpec, MultiSession, ProtoSession, RecoveryStrategy, TreeProtocol};
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

/// What `ProtoSession::run_failure_spec` — the single-`Router` loop this
/// crate had until `MultiSession::run` became the only one — reported for
/// this experiment at the last commit that carried it: D (`n4`) back in
/// service 34 ms after the cut, C (`n3`) untouched, and the engine's
/// delivered/dropped message totals over the 3 s run.
const GOLDEN_RESTORATION_NS: &[(usize, Option<u64>)] = &[(4, Some(34_000_000))];
const GOLDEN_UNAFFECTED: &[usize] = &[3];
const GOLDEN_MESSAGES_DELIVERED: u64 = 3931;
const GOLDEN_MESSAGES_DROPPED: u64 = 81;

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
    let spec = FailureSpec::persistent(
        &scenario,
        RecoveryStrategy::LocalDetour,
        fail_at,
        SimTime::from_ms(3000.0),
    );

    let multi = MultiSession::from_sessions(vec![session]);
    let run = multi.run(&spec, TraceLog::new(65_536));
    let (report, trace) = (run.report, run.trace);
    assert_eq!(trace.discarded(), 0, "trace capacity must hold the run");

    assert_eq!(report.groups.len(), 1);
    let restorations: Vec<(usize, Option<u64>)> = report.groups[0]
        .restorations
        .iter()
        .map(|(m, l)| (m.index(), l.map(SimTime::as_ns)))
        .collect();
    assert_eq!(restorations, GOLDEN_RESTORATION_NS);
    let unaffected: Vec<usize> = report.groups[0]
        .unaffected
        .iter()
        .map(|m| m.index())
        .collect();
    assert_eq!(unaffected, GOLDEN_UNAFFECTED);
    assert_eq!(report.messages_delivered, GOLDEN_MESSAGES_DELIVERED);
    assert_eq!(report.messages_dropped, GOLDEN_MESSAGES_DROPPED);

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
