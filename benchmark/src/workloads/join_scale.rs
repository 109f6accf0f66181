//! `join_scale`: membership at n = 4000 with no simulator. Each group
//! is 30 joins, 10 leave/rejoin pairs and one reshape sweep, once with
//! full-topology selection and once with neighbor-query selection, and
//! then the same joins as an SPF session. `net` (Dijkstra) and `core`
//! (candidate enumeration, Eq. 2 bookkeeping) do all the work. Leaves
//! and reshapes sit beside the joins so that a shortest-path cache which
//! speeds joins but is thrown away by every leave shows its cost.

use smrp_core::{audit, SelectionMode, SmrpConfig, SmrpSession, SpfSession};
use smrp_net::transit_stub::TransitStubConfig;
use smrp_net::{FailureScenario, Graph, GroupId, NodeId};
use smrp_proto::{MultiSession, ProtoSession, TreeProtocol};

use crate::harness::{gate, pick_distinct, sub_seed, timed_region, Ledger, RunResult, SetupClock};
use crate::micro::{self, MicroInput};
use crate::span::{breakdown, Tracer};
use crate::workloads::{put_setup_rows, put_trace_shares, repeat_gate, UNIT};

const GROUPS: usize = 48;
const GROUP_SIZE: usize = 30;
const LEAVERS: usize = 10;
/// Joins, leave/rejoin pairs and reshape evaluations of one SMRP arm.
const SMRP_ARM_OPS: usize = GROUP_SIZE + 2 * LEAVERS + GROUP_SIZE;
const OPS_PER_GROUP: usize = 2 * SMRP_ARM_OPS + GROUP_SIZE;

/// The 40·(1 + 9·11) = 4000-node transit-stub shape of `BENCH_scale`.
pub fn topology(seed: u64) -> Graph {
    let graph = TransitStubConfig::new()
        .transit_nodes(40)
        .stubs_per_transit_node(9)
        .stub_nodes(11)
        .seed(seed)
        .generate()
        .expect("transit-stub topology generates")
        .into_graph();
    assert_eq!(graph.node_count(), 4000, "shape lands on n = 4000");
    graph
}

/// A source and `size` distinct members drawn from `seed`.
pub fn draw_group(n: usize, size: usize, seed: u64) -> (NodeId, Vec<NodeId>) {
    let mut picked = pick_distinct(n, size + 1, seed)
        .into_iter()
        .map(NodeId::new);
    let source = picked.next().expect("size + 1 >= 1");
    (source, picked.collect())
}

/// What one group's script left behind; must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct GroupResult {
    /// Tree cost after each arm (full, neighbor-query, SPF).
    tree_cost: [f64; 3],
    switched: [usize; 2],
    failed_ops: u64,
    out_of_bound: u64,
}

/// One SMRP arm: joins, churn, sweep, audit. Returns (tree cost,
/// members switched by the sweep, failed operations, bound violations).
fn smrp_arm(
    graph: &Graph,
    source: NodeId,
    members: &[NodeId],
    selection: SelectionMode,
    tr: &mut Tracer,
) -> (f64, usize, u64, u64) {
    let join = match selection {
        SelectionMode::FullTopology => "core.join_full",
        SelectionMode::NeighborQuery => "core.join_nq",
    };
    let config = SmrpConfig {
        selection,
        ..SmrpConfig::default()
    };
    let mut failed = 0;
    let mut session = tr.call("core.session_new", || {
        SmrpSession::new(graph, source, config).expect("source exists")
    });
    // A join fails if it errors or if the path it selected breaks the
    // (1 + D_thresh) delay bound it was selected under.
    for &m in members {
        failed += u64::from(tr.call(join, || session.join(m)).is_err());
    }
    for &m in &members[..LEAVERS] {
        failed += u64::from(tr.call("core.leave", || session.leave(m)).is_err());
        failed += u64::from(tr.call(join, || session.join(m)).is_err());
    }
    let switched = tr.call("core.reshape_sweep", || session.reshape_sweep());
    let report = tr.call("core.audit", || {
        audit::audit(graph, session.tree(), config.d_thresh)
    });
    if session.tree().validate(graph).is_err() || report.member_count != members.len() {
        failed += 1;
    }
    (
        session.tree().cost(graph),
        switched,
        failed,
        report.bound_violations.len() as u64,
    )
}

fn run_group(graph: &Graph, seed: u64, group: usize, tr: &mut Tracer) -> GroupResult {
    let (source, members) = draw_group(
        graph.node_count(),
        GROUP_SIZE,
        sub_seed(seed, 100 + group as u64),
    );
    let span = tr.enter(UNIT);
    let full = smrp_arm(graph, source, &members, SelectionMode::FullTopology, tr);
    let nq = smrp_arm(graph, source, &members, SelectionMode::NeighborQuery, tr);
    let mut failed = full.2 + nq.2;
    let mut spf = tr.call("core.session_new", || {
        SpfSession::new(graph, source).expect("source exists")
    });
    for &m in &members {
        failed += u64::from(tr.call("core.spf_join", || spf.join(m)).is_err());
    }
    tr.exit(span);
    GroupResult {
        tree_cost: [full.0, nq.0, spf.tree().cost(graph)],
        switched: [full.1, nq.1],
        failed_ops: failed,
        out_of_bound: full.3 + nq.3,
    }
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> RunResult {
    let traced = tr.is_enabled();
    let topo_seed = sub_seed(seed, 1);

    let mut setup = SetupClock::start();
    let span = tr.enter("setup");
    let graph = tr.call("net.topology_gen", || topology(topo_seed));
    tr.exit(span);
    setup.stop();
    // Set-up is an end-to-end metric, so only the untraced run repeats it.
    let set_up_again = || {
        std::hint::black_box(topology(topo_seed));
    };
    if !traced {
        setup.sample(set_up_again);
    }

    let timed = timed_region(GROUPS, seconds, 4, tr, |unit, _, tr| {
        run_group(&graph, seed, unit, tr)
    });
    if !traced {
        setup.sample(set_up_again);
    }

    let failed: u64 = timed.first.iter().map(|g| g.failed_ops).sum();
    let out_of_bound: u64 = timed.first.iter().map(|g| g.out_of_bound).sum();
    let gates = vec![
        gate(
            "trees_pass_audit",
            failed == 0,
            format!("{failed} membership operations errored or left an invalid tree"),
        ),
        repeat_gate(&timed, "groups"),
    ];

    let unit_ops = |_| OPS_PER_GROUP as f64;
    let ops_per_s = timed.median_rate(unit_ops).unwrap_or(0.0);
    let mut ledger = Ledger::new();
    ledger.insert("host.peak_rss_mb", Some(timed.first_pass_rss_mb));
    ledger.insert("host.joins_per_s", Some(ops_per_s));

    if traced {
        let b = breakdown(tr.spans(), UNIT);
        put_trace_shares(&mut ledger, &b, timed.trace_overhead());
        put_setup_rows(&mut ledger, tr.spans());
        for (row, span) in [
            ("core.join_full_us", "core.join_full"),
            ("core.join_nq_us", "core.join_nq"),
            ("core.leave_us", "core.leave"),
            ("core.spf_join_us", "core.spf_join"),
            ("core.audit_us", "core.audit"),
        ] {
            ledger.insert(row, b.mean_ns(span).map(|ns| ns / 1e3));
        }
        ledger.insert(
            "core.reshape_us",
            b.mean_ns("core.reshape_sweep")
                .map(|ns| ns / 1e3 / GROUP_SIZE as f64),
        );

        // The remaining rows need a session and a failure: group 0 as an
        // SMRP tree, cut at its first member's upstream link.
        let (source, members) = draw_group(graph.node_count(), GROUP_SIZE, sub_seed(seed, 100));
        let session = ProtoSession::build(
            &graph,
            source,
            &members,
            TreeProtocol::Smrp(SmrpConfig::default()),
        )
        .expect("session builds on a connected topology");
        let tree = session.tree();
        let cut = members
            .iter()
            .find_map(|&m| tree.parent(m).and_then(|p| graph.link_between(m, p)))
            .expect("some member has an upstream link");
        let multi = MultiSession::from_sessions(vec![session]);
        debug_assert_eq!(multi.groups().next(), Some(GroupId::new(0)));
        micro::run(
            &MicroInput {
                graph: &graph,
                source,
                members: &members,
                scenario: &FailureScenario::link(cut),
                multi: &multi,
                run_until_ms: 1500.0,
                lanes: 1,
                daemon_ops: false,
            },
            &mut ledger,
        );
    }

    RunResult {
        attempted: (GROUPS * OPS_PER_GROUP) as u64,
        failed,
        gates,
        counts: vec![
            ("nodes", graph.node_count() as u64),
            ("groups", GROUPS as u64),
            ("members", GROUP_SIZE as u64),
            ("ops_per_group", OPS_PER_GROUP as u64),
            ("group_runs", timed.runs.len() as u64),
            // Members `core::audit` finds past the (1 + D_thresh) bound:
            // selection falls back to the minimum-delay candidate when
            // none fits, and a reshaped ancestor carries its subtree
            // along (§3.2.3). Reported, not a failure.
            ("members_past_d_thresh", out_of_bound),
        ],
        setup_s: setup.median_s(),
        ops_per_s,
        ledger,
        unit_runs: timed.runs.clone(),
        unit_ops: vec![OPS_PER_GROUP as f64; GROUPS],
    }
}
