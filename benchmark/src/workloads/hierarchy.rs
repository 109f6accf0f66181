//! `hierarchy_traced`: `smrp_faultlab::run_hierarchy` over 3-level
//! recovery domains (shape 4, 2, 8: 1092 routers, 137 domain groups,
//! 10⁴ aggregated receivers). Every case records its full message trace
//! and audits it against the DomainLocality invariant, so trace
//! formatting in `sim` and the trace walk in `faultlab` dominate both
//! time and memory — nowhere else in the benchmark is tracing on.
//!
//! `run_hierarchy` is one call: it generates its own topology, sessions
//! and cases from the config. A unit of work is therefore one small
//! campaign with its own sub-seed.

use std::time::Instant;

use smrp_core::SmrpConfig;
use smrp_faultlab::{
    run_hierarchy, HierarchyConfig, HierarchyOutcome, HierarchyReport, HierarchyRun,
};
use smrp_net::nlevel::NLevelTopology;
use smrp_net::{FailureScenario, NodeId};
use smrp_proto::hierarchy::NLevelSession;
use smrp_proto::{MultiSession, ProtoSession};

use crate::harness::{gate, sub_seed, timed_region, Ledger, RunResult, SetupClock};
use crate::micro::{self, MicroInput};
use crate::span::{breakdown, Tracer};
use crate::stats;
use crate::workloads::{put_restoration, put_setup_rows, put_trace_shares, repeat_gate, UNIT};

const CAMPAIGNS: usize = 4;
const CASES_PER_CAMPAIGN: usize = 3;
const RUN_UNTIL_MS: f64 = 750.0;

fn config(seed: u64, campaign: usize) -> HierarchyConfig {
    HierarchyConfig {
        levels: 3,
        root_nodes: 4,
        fanout: 2,
        domain_nodes: 8,
        population: 10_000,
        scenarios: CASES_PER_CAMPAIGN,
        run_until_ms: RUN_UNTIL_MS,
        base_seed: sub_seed(seed, 10 + campaign as u64),
        ..HierarchyConfig::default()
    }
}

/// The set-up `run_hierarchy` performs before its first case, rebuilt
/// from the same public calls: topology, member draw, domain sessions.
struct Domains {
    topo: NLevelTopology,
    source: NodeId,
    members: Vec<NodeId>,
}

fn generate(cfg: &HierarchyConfig, tr: &mut Tracer) -> Domains {
    let topo = tr.call("net.topology_gen", || {
        cfg.topology().expect("N-level topology generates")
    });
    let (source, members) = cfg.pick_members(&topo);
    Domains {
        topo,
        source,
        members,
    }
}

fn build_sessions(d: &Domains, tr: &mut Tracer) -> NLevelSession {
    tr.call("proto.nlevel_build", || {
        NLevelSession::build(&d.topo, d.source, &d.members, SmrpConfig::default())
            .expect("hierarchy sessions build on generated topologies")
    })
}

/// One wire session per active domain, as `run_hierarchy` hosts them.
fn domain_multi<'s>(nsess: &'s NLevelSession, tr: &mut Tracer) -> MultiSession<'s> {
    let graph = nsess.topology().graph();
    let sessions = nsess
        .active_domain_ids()
        .into_iter()
        .map(|d| {
            let tree = nsess
                .domain_tree_global(d)
                .expect("active domains have trees");
            tr.call("proto.session_build", || {
                ProtoSession::from_tree(graph, tree)
            })
        })
        .collect();
    MultiSession::from_sessions(sessions)
}

pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> RunResult {
    let traced = tr.is_enabled();
    let cfg0 = config(seed, 0);

    let mut setup = SetupClock::start();
    let span = tr.enter("setup");
    let domains = generate(&cfg0, tr);
    let nsess = build_sessions(&domains, tr);
    let multi = domain_multi(&nsess, tr);
    tr.exit(span);
    setup.stop();
    // Set-up is an end-to-end metric, so only the untraced run repeats it.
    let set_up_again = || {
        let quiet = &mut Tracer::new(false);
        let d = generate(&cfg0, quiet);
        let n = build_sessions(&d, quiet);
        std::hint::black_box(domain_multi(&n, quiet).group_count());
    };
    if !traced {
        setup.sample(set_up_again);
    }

    let mut report_s = Vec::new();
    let timed = timed_region(CAMPAIGNS, seconds, 2, tr, |unit, _, tr| {
        let cfg = config(seed, unit);
        let span = tr.enter(UNIT);
        let run: HierarchyRun = tr.call("faultlab.run_hierarchy", || {
            run_hierarchy(&cfg, 1).expect("hierarchy topology generates")
        });
        let t = Instant::now();
        let report = tr.call("faultlab.hierarchy_report", || {
            let report = HierarchyReport::from_run(&run);
            std::hint::black_box(report.to_json());
            report
        });
        report_s.push(t.elapsed().as_secs_f64());
        tr.exit(span);
        (run, report.is_clean())
    });
    if !traced {
        setup.sample(set_up_again);
    }

    let runs: Vec<&HierarchyRun> = timed.first.iter().map(|(r, _)| r).collect();
    let results = || runs.iter().flat_map(|r| r.results.iter());
    let cases = results().count() as u64;
    let unaudited = results().filter(|c| !c.audited).count() as u64;
    let missed = results()
        .filter(|c| c.outcome == HierarchyOutcome::DetectionMissed)
        .count() as u64;
    let crossings: u64 = results()
        .flat_map(|c| c.domains.iter())
        .map(|d| d.border_crossings)
        .sum();
    let unclean = timed.first.iter().filter(|(_, clean)| !clean).count();
    let gates = vec![
        gate(
            "reports_clean",
            unclean == 0,
            format!(
                "{unclean} of {CAMPAIGNS} campaigns not clean \
                 ({crossings} border crossings, {unaudited} unaudited, {missed} missed)"
            ),
        ),
        gate(
            "shape_matches_set_up",
            runs[0].active_domains == multi.group_count()
                && runs[0].nodes == nsess.topology().graph().node_count(),
            format!(
                "run_hierarchy: {} routers, {} domain groups; set-up: {} groups",
                runs[0].nodes,
                runs[0].active_domains,
                multi.group_count()
            ),
        ),
        repeat_gate(&timed, "campaigns"),
    ];

    let control_of = |run: &HierarchyRun| -> f64 {
        run.results
            .iter()
            .flat_map(|c| c.domains.iter())
            .map(|d| d.control_messages as f64)
            .sum()
    };
    let unit_ops = |unit: usize| control_of(runs[unit]);
    let ops_per_s = timed.median_rate(unit_ops).unwrap_or(0.0);

    let mut ledger = Ledger::new();
    ledger.insert("host.peak_rss_mb", Some(timed.first_pass_rss_mb));
    let latencies: Vec<f64> = results()
        .flat_map(|c| c.latencies_ms.iter().copied())
        .collect();
    put_restoration(
        &mut ledger,
        &latencies,
        results().map(|c| u64::from(c.wire_affected)).sum(),
        results().map(|c| u64::from(c.restored)).sum(),
        runs.iter().map(|r| control_of(r)).sum::<f64>() as u64,
    );
    let simulated = results()
        .filter(|c| c.domains.iter().any(|d| d.control_messages > 0))
        .count();
    ledger.insert(
        "faultlab.simulated_share",
        Some(simulated as f64 / cases as f64),
    );
    ledger.insert("faultlab.cases_unaudited", Some(unaudited as f64));
    let case_rate = timed.median_rate(|unit| runs[unit].results.len() as f64);
    ledger.insert("host.cases_per_s", case_rate);
    ledger.insert("faultlab.hierarchy_ms_per_case", case_rate.map(|r| 1e3 / r));
    ledger.insert(
        "faultlab.hierarchy_report_ms",
        stats::median(&report_s).map(|s| s * 1e3),
    );

    if traced {
        let b = breakdown(tr.spans(), UNIT);
        put_trace_shares(&mut ledger, &b, timed.trace_overhead());
        put_setup_rows(&mut ledger, tr.spans());
        // The one-case rows run all 137 domain groups over campaign 0's
        // first simulated case: the same lanes, links and trace volume a
        // `run_hierarchy` case has.
        let probe = runs[0]
            .results
            .iter()
            .find(|c| c.domains.iter().any(|d| d.control_messages > 0))
            .or(runs[0].results.first())
            .expect("campaigns have cases");
        micro::run(
            &MicroInput {
                graph: nsess.topology().graph(),
                source: domains.source,
                members: &domains.members,
                scenario: &FailureScenario::link(probe.case.link),
                multi: &multi,
                run_until_ms: RUN_UNTIL_MS,
                lanes: multi.group_count(),
                daemon_ops: false,
            },
            &mut ledger,
        );
    }

    RunResult {
        attempted: cases,
        failed: unaudited + missed,
        gates,
        counts: vec![
            ("nodes", runs[0].nodes as u64),
            ("domain_groups", runs[0].active_domains as u64),
            ("campaigns", CAMPAIGNS as u64),
            ("cases", cases),
            ("cases_simulated", simulated as u64),
            ("campaign_runs", timed.runs.len() as u64),
        ],
        setup_s: setup.median_s(),
        ops_per_s,
        ledger,
        unit_runs: timed.runs.clone(),
        unit_ops: runs.iter().map(|r| control_of(r)).collect(),
    }
}
