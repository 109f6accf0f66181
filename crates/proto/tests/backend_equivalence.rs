//! Differential tests: the production timer wheel vs the reference heap.
//!
//! The engine offers two timer backends (`smrp_sim::TimerBackend`): the
//! hierarchical wheel used everywhere, and a reference implementation
//! where timers ride the binary-heap event queue and cancellations are
//! filtered at fire time. Both share the global insertion-sequence
//! counter, so they are contractually *byte-identical* — not just
//! statistically equivalent. These tests replay the repo's golden
//! protocol scenarios under both backends and diff the full simulator
//! trace and the resulting reports, byte for byte: plain, shared-fate and
//! lossy cuts, a node reboot, a flapping link, a gray link, the SPF
//! baseline's global detour and SRLG-aware protection.
//!
//! The same scenarios and the same diff also hold the two plan sources of
//! a `FailureSpec` to one pipeline: handing `run` the plans
//! `plan_recoveries` computes, as an explicit list, must be
//! indistinguishable from naming the strategy that computes them.

use smrp_core::recovery::DetourKind;
use smrp_core::SmrpConfig;
use smrp_net::{FailureScenario, Graph, GroupId, NodeId};
use smrp_proto::{
    FailureSpec, FailureTiming, InjectionTiming, MultiRecoveryReport, MultiSession, PlanSource,
    ProtoSession, RecoveryPlan, RecoveryStrategy, TreeProtocol,
};
use smrp_sim::{ChannelSpec, SimTime, TimerBackend, TraceLog};

/// The local-detour experiment every test here runs: `scenario` cut for
/// good at 100 ms.
fn local_detour_spec<'s>(
    scenario: &'s FailureScenario,
    channel: &ChannelSpec,
    until: SimTime,
) -> FailureSpec<'s> {
    FailureSpec {
        channel: channel.clone(),
        ..FailureSpec::persistent(
            scenario,
            RecoveryStrategy::LocalDetour,
            SimTime::from_ms(100.0),
            until,
        )
    }
}

/// Runs `spec` over `sessions`, returning the report and the full trace
/// rendered to strings.
fn run_traced(
    multi: &MultiSession<'_>,
    spec: &FailureSpec<'_>,
) -> (MultiRecoveryReport, Vec<String>) {
    let run = multi.run(spec, TraceLog::new(1 << 20));
    assert_eq!(run.trace.discarded(), 0, "trace capacity must hold the run");
    let lines = run
        .trace
        .entries()
        .iter()
        .map(|e| format!("{e:?}"))
        .collect();
    (run.report, lines)
}

/// Runs one multi-session experiment under `backend`.
fn run_with_backend(
    sessions: &[ProtoSession<'_>],
    spec: &FailureSpec<'_>,
    backend: TimerBackend,
) -> (MultiRecoveryReport, Vec<String>) {
    let mut multi = MultiSession::from_sessions(sessions.to_vec());
    multi.set_timer_backend(backend);
    run_traced(&multi, spec)
}

/// Asserts byte-identical traces and reports across the two backends and
/// returns the (shared) report.
fn assert_backends_agree(
    sessions: &[ProtoSession<'_>],
    spec: &FailureSpec<'_>,
) -> MultiRecoveryReport {
    let (wheel_report, wheel_trace) = run_with_backend(sessions, spec, TimerBackend::Wheel);
    let (heap_report, heap_trace) = run_with_backend(sessions, spec, TimerBackend::ReferenceHeap);
    for (i, (w, h)) in wheel_trace.iter().zip(&heap_trace).enumerate() {
        assert_eq!(w, h, "trace diverged at entry {i}");
    }
    assert_eq!(wheel_trace.len(), heap_trace.len(), "trace length diverged");
    assert_eq!(
        format!("{wheel_report:?}"),
        format!("{heap_report:?}"),
        "reports diverged"
    );
    assert!(
        wheel_report.all_restored(),
        "golden cases restore: {:?}",
        wheel_report.groups
    );
    wheel_report
}

/// Figure 1 local detour: member D grafts to C after the A–D cut.
#[test]
fn figure1_detour_is_byte_identical_across_backends() {
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
    assert_backends_agree(
        &[session],
        &local_detour_spec(&scenario, &ChannelSpec::perfect(), SimTime::from_ms(3000.0)),
    );
}

/// Two sources behind one transit spine, two members behind one shared
/// conduit: the shared-fate SRLG topology from the faultlab tests.
fn shared_fate_topology() -> (Graph, [NodeId; 7]) {
    let mut g = Graph::with_nodes(7);
    let n: Vec<NodeId> = g.node_ids().collect();
    let [s0, s1, x, y, m0, m1, d] = [n[0], n[1], n[2], n[3], n[4], n[5], n[6]];
    g.add_link(s0, x, 1.0).unwrap();
    g.add_link(s1, x, 1.0).unwrap();
    g.add_link(x, y, 1.0).unwrap();
    g.add_link(y, m0, 1.0).unwrap();
    g.add_link(y, m1, 1.0).unwrap();
    g.add_link(d, x, 1.0).unwrap();
    g.add_link(d, m0, 2.0).unwrap();
    g.add_link(d, m1, 2.0).unwrap();
    (g, [s0, s1, x, y, m0, m1, d])
}

/// Shared-fate SRLG: one conduit cut severs two groups' trees at once and
/// both detours contend for the same relay — heavy same-instant timer
/// pileups across lanes, the regime where wheel slot ordering matters.
#[test]
fn shared_fate_srlg_is_byte_identical_across_backends() {
    let (graph, [s0, s1, _x, y, m0, m1, _d]) = shared_fate_topology();
    let g0 = ProtoSession::build(&graph, s0, &[m0], TreeProtocol::Spf).unwrap();
    let g1 = ProtoSession::build(&graph, s1, &[m1], TreeProtocol::Spf).unwrap();
    let l_ym0 = graph.link_between(y, m0).unwrap();
    let l_ym1 = graph.link_between(y, m1).unwrap();
    let scenario = FailureScenario::links([l_ym0, l_ym1]);
    assert_backends_agree(
        &[g0, g1],
        &local_detour_spec(&scenario, &ChannelSpec::perfect(), SimTime::from_ms(3000.0)),
    );
}

/// The Figure 1 SPF session in the regimes a clean cut does not reach:
/// 10 % uniform loss under the A–D cut (retransmission timers, every ack
/// cancels one); relay A crashes and reboots (`on_reboot` re-arms its
/// timers mid-run); link A–D flaps three times; a gray link S–A (losing
/// 30 % of its traffic, but up) under the A–D cut; and the
/// SPF baseline's global detour, which waits out unicast reconvergence.
#[test]
fn figure1_spf_regimes_are_byte_identical_across_backends() {
    let (graph, nodes) = smrp_core::paper::figure1_graph();
    let session =
        ProtoSession::build(&graph, nodes.s, &[nodes.c, nodes.d], TreeProtocol::Spf).unwrap();
    let at = SimTime::from_ms;
    let crash = FailureScenario::node(nodes.a);
    let cut = FailureScenario::link(graph.link_between(nodes.a, nodes.d).unwrap());
    let cut_spec = local_detour_spec(&cut, &ChannelSpec::perfect(), at(3000.0));
    let gray = ChannelSpec {
        overrides: vec![(graph.link_between(nodes.s, nodes.a).unwrap(), 0.3)],
        seed: 0x6EA7,
        ..ChannelSpec::perfect()
    };
    let lossy = FailureSpec {
        channel: ChannelSpec::uniform_loss(0.1, 0xFEED),
        ..cut_spec.clone()
    };
    let reboot = FailureSpec {
        timing: InjectionTiming::Once(FailureTiming::transient(at(100.0), at(600.0))),
        ..local_detour_spec(&crash, &ChannelSpec::perfect(), at(3000.0))
    };
    let flap = FailureSpec {
        timing: InjectionTiming::Flapping {
            fail_at: at(100.0),
            down: at(250.0),
            up: at(400.0),
            cycles: 3,
        },
        ..cut_spec.clone()
    };
    let gray_link = FailureSpec {
        channel: gray,
        ..cut_spec.clone()
    };
    let global = FailureSpec {
        plans: PlanSource::Strategy(RecoveryStrategy::GlobalDetour {
            reconvergence: at(500.0),
        }),
        ..cut_spec
    };
    for (name, spec) in [
        ("lossy", lossy),
        ("reboot", reboot),
        ("flap", flap),
        ("gray link", gray_link),
        ("global detour", global),
    ] {
        println!("case: {name}");
        assert_backends_agree(std::slice::from_ref(&session), &spec);
    }
}

/// Protection with SRLG-aware plans on the shared-fate topology: cached
/// plans activate in both groups when the whole conduit fails.
#[test]
fn srlg_protection_is_byte_identical_across_backends() {
    let (graph, [s0, s1, _x, y, m0, m1, _d]) = shared_fate_topology();
    let conduit = vec![
        graph.link_between(y, m0).unwrap(),
        graph.link_between(y, m1).unwrap(),
    ];
    let sessions: Vec<_> = [(s0, m0), (s1, m1)]
        .into_iter()
        .map(|(s, m)| {
            let mut session = ProtoSession::build(&graph, s, &[m], TreeProtocol::Spf).unwrap();
            session.set_srlgs(vec![conduit.clone()]);
            session
        })
        .collect();
    let scenario = FailureScenario::links(conduit.iter().copied());
    let spec = FailureSpec::persistent(
        &scenario,
        RecoveryStrategy::Protection,
        SimTime::from_ms(100.0),
        SimTime::from_ms(3000.0),
    );
    let report = assert_backends_agree(&sessions, &spec);
    for g in &report.groups {
        assert!(g.protection.activations > 0, "group {} activated", g.group);
    }
}

/// `run` on the explicit plan list built from `plan_recoveries` must equal
/// `run` on `RecoveryStrategy::LocalDetour`: same report, same trace.
fn assert_plan_sources_agree(sessions: &[ProtoSession<'_>], scenario: &FailureScenario) {
    let multi = MultiSession::from_sessions(sessions.to_vec());
    let by_strategy =
        local_detour_spec(scenario, &ChannelSpec::perfect(), SimTime::from_ms(3000.0));
    let plans: Vec<(GroupId, NodeId, RecoveryPlan)> = sessions
        .iter()
        .enumerate()
        .flat_map(|(g, session)| {
            let recoveries = session
                .plan_recoveries(scenario, DetourKind::Local)
                .recoveries;
            recoveries.into_iter().map(move |rec| {
                let path = rec.restoration_path();
                let plan = RecoveryPlan {
                    path: path.nodes().to_vec(),
                    wait: SimTime::ZERO,
                    path_delay: SimTime::from_ms(path.delay(session.graph())),
                };
                (GroupId::new(g), rec.member(), plan)
            })
        })
        .collect();
    assert!(!plans.is_empty(), "the cut must need a detour");
    let by_list = FailureSpec {
        plans: PlanSource::Explicit(&plans),
        ..by_strategy.clone()
    };

    let (strategy_report, strategy_trace) = run_traced(&multi, &by_strategy);
    let (list_report, list_trace) = run_traced(&multi, &by_list);
    assert_eq!(strategy_trace, list_trace, "traces diverged");
    assert_eq!(
        format!("{strategy_report:?}"),
        format!("{list_report:?}"),
        "reports diverged"
    );
    assert!(strategy_report.all_restored());
}

#[test]
fn explicit_plans_equal_strategy_plans_on_figure1() {
    let (graph, nodes) = smrp_core::paper::figure1_graph();
    let session =
        ProtoSession::build(&graph, nodes.s, &[nodes.c, nodes.d], TreeProtocol::Spf).unwrap();
    let l_ad = graph.link_between(nodes.a, nodes.d).unwrap();
    assert_plan_sources_agree(&[session], &FailureScenario::link(l_ad));
}

#[test]
fn explicit_plans_equal_strategy_plans_on_shared_fate_srlg() {
    let (graph, [s0, s1, _x, y, m0, m1, _d]) = shared_fate_topology();
    let g0 = ProtoSession::build(&graph, s0, &[m0], TreeProtocol::Spf).unwrap();
    let g1 = ProtoSession::build(&graph, s1, &[m1], TreeProtocol::Spf).unwrap();
    let l_ym0 = graph.link_between(y, m0).unwrap();
    let l_ym1 = graph.link_between(y, m1).unwrap();
    assert_plan_sources_agree(&[g0, g1], &FailureScenario::links([l_ym0, l_ym1]));
}
