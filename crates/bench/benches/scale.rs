//! `BENCH_scale`: the engine's perf trajectory across topology and group
//! scale.
//!
//! Sweeps n ∈ {400, 4k, 40k} transit-stub topologies × M ∈ {32, 256,
//! 1024} concurrent multicast groups. Each cell:
//!
//! 1. **builds** M shortest-path-tree sessions (timed → join throughput:
//!    arena-handle tree bookkeeping is the hot path);
//! 2. **cuts** one recoverable on-tree link from group 0's member path,
//!    identifies every group whose tree rides that link, plans each
//!    affected group's local detour and **audits** it against the
//!    faultlab invariants (cleanliness gate #1: zero violations) —
//!    unaffected sessions are dropped immediately so the resident set
//!    stays one tree, not M trees;
//! 3. **runs** the affected groups through the message-level simulator —
//!    integer-nanosecond clock, timer wheel, per-group router lanes —
//!    and checks that every affected member restores service with a
//!    zero-exhaustion reliable layer (cleanliness gates #2 and #3).
//!
//! The grid is reduced unless `SMRP_BENCH_FULL=1` (full sweep, the
//! committed `BENCH_scale.json`) — by default only the n=400 row runs so
//! `cargo bench` stays fast. `SMRP_SCALE_CELL=nxM` (e.g. `400x32`)
//! restricts the sweep to one cell for CI smoke jobs. Results append to
//! `BENCH_scale.json` at the repository root.

use std::hint::black_box;
use std::time::Instant;

use serde::Serialize;
use smrp_bench::header;
use smrp_core::recovery::DetourKind;
use smrp_faultlab::audit_recovery;
use smrp_net::transit_stub::TransitStubConfig;
use smrp_net::{FailureScenario, Graph, LinkId, NodeId};
use smrp_proto::{FailureSpec, MultiSession, ProtoSession, RecoveryStrategy, TreeProtocol};
use smrp_sim::{SimTime, TraceLog};

const GROUP_SIZE: usize = 8;
const FAIL_AT_MS: f64 = 100.0;
const RUN_UNTIL_MS: f64 = 1500.0;

/// Transit-stub shapes sized to land exactly on the sweep's node counts.
/// (Waxman is O(n²) in generation and too dense to sample at 40k.)
fn topology(n: usize) -> Graph {
    let cfg = match n {
        // 8 + 8·7·7
        400 => TransitStubConfig::new()
            .transit_nodes(8)
            .stubs_per_transit_node(7)
            .stub_nodes(7),
        // 40 + 40·9·11
        4_000 => TransitStubConfig::new()
            .transit_nodes(40)
            .stubs_per_transit_node(9)
            .stub_nodes(11),
        // 100 + 100·21·19
        40_000 => TransitStubConfig::new()
            .transit_nodes(100)
            .stubs_per_transit_node(21)
            .stub_nodes(19),
        other => panic!("no transit-stub shape for n={other}"),
    };
    let graph = cfg
        .seed(0x5CA1E + n as u64)
        .generate()
        .unwrap()
        .into_graph();
    assert_eq!(graph.node_count(), n, "shape must land on the target size");
    graph
}

/// Deterministic per-group membership: sources and members stride the id
/// space with a group-dependent offset (Knuth multiplicative hash), so
/// groups overlap on the substrate without coinciding.
fn group_nodes(n: usize, g: usize) -> (NodeId, Vec<NodeId>) {
    let base = (g.wrapping_mul(2_654_435_761)) % n;
    let step = (n / (GROUP_SIZE + 1)).max(1);
    let source = NodeId::new(base);
    let mut members = Vec::with_capacity(GROUP_SIZE);
    let mut idx = base;
    while members.len() < GROUP_SIZE {
        idx = (idx + step) % n;
        let cand = NodeId::new(idx);
        if cand == source || members.contains(&cand) {
            idx += 1;
            continue;
        }
        members.push(cand);
    }
    (source, members)
}

/// Picks the first link on group 0's member path whose cut has a local
/// detour for every fragment (the paper's recoverable-failure regime;
/// cornered and partitioned cuts are faultlab's department).
fn recoverable_cut(graph: &Graph, session: &ProtoSession<'_>, member: NodeId) -> LinkId {
    let path = session
        .tree()
        .path_from_source(member)
        .expect("member is on its own tree");
    for link in path.links(graph) {
        let plans = session.plan_recoveries(&FailureScenario::link(link), DetourKind::Local);
        if !plans.recoveries.is_empty()
            && plans.cornered_roots.is_empty()
            && plans.unrecoverable.is_empty()
        {
            return link;
        }
    }
    panic!("no recoverable link on group 0's member path");
}

#[derive(Serialize)]
struct Cell {
    nodes: usize,
    groups: usize,
    group_size: usize,
    build_ms: f64,
    joins_per_sec: f64,
    affected_groups: usize,
    plan_audit_ms: f64,
    violations: usize,
    sim_ms: f64,
    messages_delivered: u64,
    messages_per_sec: f64,
    affected_members: usize,
    restored_members: usize,
    retry_exhaustions: u64,
    clean: bool,
}

#[derive(Serialize)]
struct Report {
    sweep: String,
    fail_at_ms: f64,
    run_until_ms: f64,
    cells: Vec<Cell>,
}

fn run_cell(n: usize, m: usize) -> Cell {
    let graph = topology(n);

    // Phase 1+2 share one pass so at most one tree is resident per step.
    let mut build_ms = 0.0;
    let mut plan_audit_ms = 0.0;
    let mut violations = 0usize;
    let mut cut: Option<LinkId> = None;
    let mut affected = Vec::new();
    for g in 0..m {
        let (source, members) = group_nodes(n, g);
        let t = Instant::now();
        let session =
            ProtoSession::build(&graph, source, &members, TreeProtocol::Spf).expect("connected");
        build_ms += t.elapsed().as_secs_f64() * 1e3;

        let link = *cut.get_or_insert_with(|| recoverable_cut(&graph, &session, members[0]));
        let (a, b) = graph.link(link).endpoints();
        let tree = session.tree();
        let rides_cut = tree.parent(a) == Some(b) || tree.parent(b) == Some(a);
        if !rides_cut {
            continue; // session (and its tree) dropped here
        }

        let t = Instant::now();
        let scenario = FailureScenario::link(link);
        let plans = session.plan_recoveries(&scenario, DetourKind::Local);
        violations += audit_recovery(&graph, session.tree(), &scenario, &plans).len();
        plan_audit_ms += t.elapsed().as_secs_f64() * 1e3;
        affected.push(session);
    }
    let affected_groups = affected.len();
    assert!(affected_groups >= 1, "group 0 rides its own cut");

    // Phase 3: the affected groups contend in one shared simulator.
    let scenario = FailureScenario::link(cut.unwrap());
    let multi = MultiSession::from_sessions(affected);
    let t = Instant::now();
    let spec = FailureSpec::persistent(
        &scenario,
        RecoveryStrategy::LocalDetour,
        SimTime::from_ms(FAIL_AT_MS),
        SimTime::from_ms(RUN_UNTIL_MS),
    );
    let report = multi.run(&spec, TraceLog::disabled()).report;
    let sim_ms = t.elapsed().as_secs_f64() * 1e3;
    black_box(&report);

    let affected_members: usize = report.groups.iter().map(|g| g.restorations.len()).sum();
    let restored_members: usize = report
        .groups
        .iter()
        .flat_map(|g| &g.restorations)
        .filter(|(_, l)| l.is_some())
        .count();
    Cell {
        nodes: n,
        groups: m,
        group_size: GROUP_SIZE,
        build_ms,
        joins_per_sec: (m * GROUP_SIZE) as f64 / (build_ms / 1e3),
        affected_groups,
        plan_audit_ms,
        violations,
        sim_ms,
        messages_delivered: report.messages_delivered,
        messages_per_sec: report.messages_delivered as f64 / (sim_ms / 1e3),
        affected_members,
        restored_members,
        retry_exhaustions: report.health.retry_exhaustions,
        clean: violations == 0
            && report.all_restored()
            && report.health.retry_exhaustions == 0
            && affected_members == restored_members,
    }
}

fn grid() -> Vec<(usize, usize)> {
    if let Ok(cell) = std::env::var("SMRP_SCALE_CELL") {
        let (n, m) = cell
            .split_once('x')
            .expect("SMRP_SCALE_CELL must look like 400x32");
        return vec![(n.parse().expect("nodes"), m.parse().expect("groups"))];
    }
    let ns: &[usize] = if std::env::var_os("SMRP_BENCH_FULL").is_some() {
        &[400, 4_000, 40_000]
    } else {
        &[400]
    };
    let mut cells = Vec::new();
    for &n in ns {
        for m in [32, 256, 1024] {
            cells.push((n, m));
        }
    }
    cells
}

fn main() {
    header(
        "BENCH_scale: n × M sweep over the integer-time wheel engine",
        "join throughput, detour planning + invariant audit, and shared \
         message-level recovery must stay clean as topology and group \
         count scale",
    );

    let mut report = Report {
        sweep: format!(
            "transit-stub topologies, {GROUP_SIZE}-member SPF groups, one \
             recoverable cut shared by every affected group"
        ),
        fail_at_ms: FAIL_AT_MS,
        run_until_ms: RUN_UNTIL_MS,
        cells: Vec::new(),
    };
    for (n, m) in grid() {
        let cell = run_cell(n, m);
        println!(
            "n={n:<6} M={m:<5} build {build:>9.1} ms ({joins:>9.0} joins/s)   \
             affected {aff:>3}   sim {sim:>8.1} ms ({msgs:>9.0} msg/s)   \
             restored {res}/{affm}   violations {v}   clean={clean}",
            build = cell.build_ms,
            joins = cell.joins_per_sec,
            aff = cell.affected_groups,
            sim = cell.sim_ms,
            msgs = cell.messages_per_sec,
            res = cell.restored_members,
            affm = cell.affected_members,
            v = cell.violations,
            clean = cell.clean,
        );
        assert!(cell.clean, "cell n={n} M={m} is not clean");
        report.cells.push(cell);
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scale.json");
    smrp_experiments::report::write_json(&path, &report).expect("write BENCH_scale.json");
    println!("wrote {}", path.display());
}
