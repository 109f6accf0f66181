//! `multigroup_cut`: 1024 eight-member SPF groups on the n = 4000
//! transit-stub topology, one link cut, and every group riding that link
//! recovering at once inside one `MultiSession::run_failure_spec`.
//!
//! The cut is the recoverable link whose rider count is closest to
//! [`TARGET_RIDERS`], so every seed puts about the same number of lanes
//! on each router — the working set is the workload's shape, not an
//! accident of the seed. Building the groups and planning/auditing the
//! detours is set-up; only the simulator run is timed.

use smrp_core::recovery::DetourKind;
use smrp_faultlab::audit_recovery;
use smrp_net::{FailureScenario, Graph, GroupId, LinkId, NodeId};
use smrp_proto::{
    FailureTiming, InjectionTiming, MultiSession, ProtoSession, RecoveryStrategy, TreeProtocol,
};
use smrp_sim::{ChannelSpec, SimTime};

use crate::harness::{gate, sub_seed, timed_region, Ledger, RunResult, SetupClock};
use crate::micro::{self, MicroInput};
use crate::span::{breakdown, Tracer};
use crate::workloads::join_scale::{draw_group, topology};
use crate::workloads::{
    put_restoration, put_setup_rows, put_trace_shares, repeat_gate, Tally, UNIT,
};

const GROUPS: usize = 1024;
const GROUP_SIZE: usize = 8;
/// Riders of the 4000 x 1024 cell of `BENCH_scale.json` (92), rounded.
const TARGET_RIDERS: u32 = 96;
/// Links tried, nearest rider count first, before giving up.
const MAX_CANDIDATES: usize = 256;
const FAIL_AT_MS: f64 = 100.0;
const RUN_UNTIL_MS: f64 = 1500.0;

struct Lab<'g> {
    cut: LinkId,
    multi: MultiSession<'g>,
    /// Source and members of the first affected group.
    probe: (NodeId, Vec<NodeId>),
    violations: usize,
}

fn rides(graph: &Graph, session: &ProtoSession<'_>, link: LinkId) -> bool {
    let (a, b) = graph.link(link).endpoints();
    let tree = session.tree();
    tree.parent(a) == Some(b) || tree.parent(b) == Some(a)
}

fn set_up<'g>(graph: &'g Graph, seed: u64, tr: &mut Tracer) -> Lab<'g> {
    let n = graph.node_count();
    let groups: Vec<(NodeId, Vec<NodeId>)> = (0..GROUPS)
        .map(|g| draw_group(n, GROUP_SIZE, sub_seed(seed, 1000 + g as u64)))
        .collect();
    let mut sessions = Vec::with_capacity(GROUPS);
    let mut riders = vec![0u32; graph.link_count()];
    for (source, members) in &groups {
        let session = tr.call("proto.session_build", || {
            ProtoSession::build(graph, *source, members, TreeProtocol::Spf)
                .expect("SPF session builds on a connected topology")
        });
        for l in session.tree().links(graph) {
            riders[l.index()] += 1;
        }
        sessions.push(session);
    }

    // Nearest rider count first; ties by link id so the choice is a
    // function of the seed alone.
    let mut candidates: Vec<LinkId> = graph.link_ids().filter(|l| riders[l.index()] > 0).collect();
    candidates.sort_by_key(|l| (riders[l.index()].abs_diff(TARGET_RIDERS), l.index()));
    let span = tr.enter("plan_and_audit");
    let mut chosen = None;
    for &link in candidates.iter().take(MAX_CANDIDATES) {
        let scenario = FailureScenario::link(link);
        let mut violations = 0;
        let recoverable = sessions.iter().filter(|s| rides(graph, s, link)).all(|s| {
            let plans = tr.call("proto.plan_recoveries", || {
                s.plan_recoveries(&scenario, DetourKind::Local)
            });
            violations += tr
                .call("faultlab.audit_recovery", || {
                    audit_recovery(graph, s.tree(), &scenario, &plans)
                })
                .len();
            !plans.recoveries.is_empty()
                && plans.cornered_roots.is_empty()
                && plans.unrecoverable.is_empty()
        });
        if recoverable {
            chosen = Some((link, violations));
            break;
        }
    }
    tr.exit(span);
    let (cut, violations) = chosen.expect("a recoverable cut exists among the candidates");

    let mut probe = None;
    let mut affected = Vec::new();
    for (session, group) in sessions.into_iter().zip(groups) {
        if rides(graph, &session, cut) {
            probe.get_or_insert(group);
            affected.push(session);
        }
    }
    Lab {
        cut,
        multi: MultiSession::from_sessions(affected),
        probe: probe.expect("the cut has riders"),
        violations,
    }
}

/// What one simulator run produced; must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct CutResult {
    delivered: u64,
    affected: u32,
    latencies_ms: Vec<f64>,
    tally: Tally,
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> RunResult {
    let traced = tr.is_enabled();
    let topo_seed = sub_seed(seed, 1);

    let mut setup = SetupClock::start();
    let span = tr.enter("setup");
    let graph = tr.call("net.topology_gen", || topology(topo_seed));
    let lab = set_up(&graph, seed, tr);
    tr.exit(span);
    setup.stop();
    // Set-up is an end-to-end metric, so only the untraced run repeats it.
    let set_up_again = || {
        let g = topology(topo_seed);
        std::hint::black_box(set_up(&g, seed, &mut Tracer::new(false)).cut);
    };
    if !traced {
        setup.sample(set_up_again);
    }

    let scenario = FailureScenario::link(lab.cut);
    let timed = timed_region(1, seconds, 1, tr, |_, _, tr| {
        let span = tr.enter(UNIT);
        let report = tr.call("proto.run_failure_spec", || {
            lab.multi.run_failure_spec(
                &scenario,
                RecoveryStrategy::LocalDetour,
                InjectionTiming::Once(FailureTiming::persistent(SimTime::from_ms(FAIL_AT_MS))),
                &ChannelSpec::perfect(),
                SimTime::from_ms(RUN_UNTIL_MS),
            )
        });
        tr.exit(span);
        let control =
            report
                .groups
                .iter()
                .fold(smrp_proto::ControlCounters::default(), |mut acc, g| {
                    acc.merge(&g.control);
                    acc
                });
        CutResult {
            delivered: report.messages_delivered,
            affected: report
                .groups
                .iter()
                .map(|g| g.restorations.len() as u32)
                .sum(),
            latencies_ms: report
                .groups
                .iter()
                .flat_map(|g| g.latencies_ms())
                .collect(),
            tally: Tally::new(
                control,
                &report.health,
                report.groups.iter().map(|g| g.protection.activations).sum(),
            ),
        }
    });
    if !traced {
        setup.sample(set_up_again);
    }

    let r = &timed.first[0];
    let restored = r.latencies_ms.len() as u32;
    let gates = vec![
        gate(
            "all_restored",
            restored == r.affected && r.affected > 0,
            format!("{restored} of {} cut-off members restored", r.affected),
        ),
        gate(
            "audit_violations_zero",
            lab.violations == 0,
            format!("{} detour plans rejected by the auditor", lab.violations),
        ),
        gate(
            "retry_exhaustions_zero",
            r.tally.exhaustions == 0,
            format!(
                "{} reliable envelopes ran out of retries",
                r.tally.exhaustions
            ),
        ),
        repeat_gate(&timed, "simulator runs"),
    ];

    let unit_ops = |_| r.delivered as f64;
    let ops_per_s = timed.median_rate(unit_ops).unwrap_or(0.0);
    let mut ledger = Ledger::new();
    ledger.insert("host.peak_rss_mb", Some(timed.first_pass_rss_mb));
    put_restoration(
        &mut ledger,
        &r.latencies_ms,
        u64::from(r.affected),
        u64::from(restored),
        r.tally.control,
    );
    r.tally.put(&mut ledger);
    ledger.insert("proto.msgs_delivered", Some(r.delivered as f64));
    ledger.insert("host.sim_msgs_per_s", Some(ops_per_s));
    ledger.insert("proto.run_ns_per_msg", Some(1e9 / ops_per_s));

    if traced {
        let b = breakdown(tr.spans(), UNIT);
        put_trace_shares(&mut ledger, &b, timed.trace_overhead());
        put_setup_rows(&mut ledger, tr.spans());
        ledger.insert(
            "proto.plan_recoveries_us",
            breakdown(tr.spans(), "setup")
                .mean_ns("proto.plan_recoveries")
                .map(|ns| ns / 1e3),
        );
        // The one-case rows run the first affected group alone: a trace
        // of all ~96 would cost more than the timed region.
        let single = MultiSession::from_sessions(vec![lab.multi.session(GroupId::new(0)).clone()]);
        micro::run(
            &MicroInput {
                graph: &graph,
                source: lab.probe.0,
                members: &lab.probe.1,
                scenario: &scenario,
                multi: &single,
                run_until_ms: RUN_UNTIL_MS,
                lanes: GROUPS,
                daemon_ops: false,
            },
            &mut ledger,
        );
    }

    RunResult {
        attempted: u64::from(r.affected),
        failed: u64::from(r.affected - restored),
        gates,
        counts: vec![
            ("nodes", graph.node_count() as u64),
            ("groups", GROUPS as u64),
            ("members", GROUP_SIZE as u64),
            ("affected_groups", lab.multi.group_count() as u64),
            ("sim_runs", timed.runs.len() as u64),
        ],
        setup_s: setup.median_s(),
        ops_per_s,
        ledger,
        unit_runs: timed.runs.clone(),
        unit_ops: vec![r.delivered as f64],
    }
}
