//! Differential regression gate for the wire-level hierarchy campaigns.
//!
//! The N-level engine at `levels = 2` is the transit-stub shape the
//! repository grew up on; these tests pin its wire behavior down:
//! byte-identical campaign reports across worker counts, and a golden
//! digest of every `Setup` message the restoration cascade puts on the
//! wire for a fixed case, equal under both engine timer backends — so a
//! refactor of the hierarchy layer that silently changes graft traffic
//! fails here, not in production figures.

use smrp_core::SmrpConfig;
use smrp_faultlab::{run_hierarchy, HierarchyConfig, HierarchyReport};
use smrp_net::FailureScenario;
use smrp_proto::hierarchy::NLevelSession;
use smrp_proto::{FailureSpec, MultiSession, PlanSource, ProtoSession};
use smrp_sim::{SimTime, TimerBackend, TraceEvent, TraceLog};

fn levels2_config() -> HierarchyConfig {
    HierarchyConfig {
        levels: 2,
        root_nodes: 4,
        fanout: 3,
        domain_nodes: 6,
        population: 2_000,
        scenarios: 10,
        base_seed: 0x2CAFE,
        run_until_ms: 1200.0,
        ..HierarchyConfig::default()
    }
}

#[test]
fn levels2_reports_are_byte_identical_across_jobs() {
    let cfg = levels2_config();
    let baseline = HierarchyReport::from_run(&run_hierarchy(&cfg, 1).unwrap()).to_json();
    assert!(HierarchyReport::from_run(&run_hierarchy(&cfg, 1).unwrap()).is_clean());
    for jobs in [1usize, 8] {
        let json = HierarchyReport::from_run(&run_hierarchy(&cfg, jobs).unwrap()).to_json();
        assert_eq!(json, baseline, "report diverged at jobs={jobs}");
    }
}

/// FNV-1a over the stable rendering of every Setup send in the trace.
fn setup_digest(trace: &TraceLog) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for ev in trace.entries() {
        let TraceEvent::Sent {
            time,
            from,
            to,
            what,
        } = ev
        else {
            continue;
        };
        if what.setup.is_none() {
            continue;
        }
        for b in format!("{time:?} {from:?}->{to:?} {what}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Runs one fixed levels-2 repair on the wire and digests its Setup sends.
fn run_fixed_case(backend: TimerBackend) -> u64 {
    let cfg = levels2_config();
    let topo = cfg.topology().unwrap();
    let (source, members) = cfg.pick_members(&topo);
    let nsess = NLevelSession::build(&topo, source, &members, SmrpConfig::default()).unwrap();
    let graph = nsess.topology().graph();
    let domains = nsess.active_domain_ids();
    let sessions: Vec<_> = domains
        .iter()
        .map(|&d| ProtoSession::from_tree(graph, nsess.domain_tree_global(d).unwrap()))
        .collect();
    let mut multi = MultiSession::from_sessions(sessions);
    multi.set_timer_backend(backend);

    // First tree link whose failure the hierarchy repairs with a plan —
    // deterministic in the seed, so every backend sees the same case.
    let (link, rec) = domains
        .iter()
        .flat_map(|&d| nsess.domain_tree_global(d).unwrap().links(graph))
        .find_map(|l| match nsess.recover(l) {
            Ok(rec) if !rec.plans.is_empty() => Some((l, rec)),
            _ => None,
        })
        .expect("some repairable tree link exists");

    let owner_group = domains.iter().position(|&d| d == rec.owner).unwrap();
    let group = smrp_net::GroupId::new(owner_group);
    let plans: Vec<_> = rec
        .plans
        .iter()
        .map(|(m, p)| (group, *m, p.clone()))
        .collect();
    let scenario = FailureScenario::link(link);
    let spec = FailureSpec::persistent(
        &scenario,
        PlanSource::Explicit(&plans),
        SimTime::from_ms(100.0),
        SimTime::from_ms(1200.0),
    );
    let run = multi.run(&spec, TraceLog::new(2_000_000));
    assert!(run.report.groups[owner_group].all_restored());
    assert_eq!(run.trace.discarded(), 0);
    setup_digest(&run.trace)
}

#[test]
fn levels2_setup_send_trace_matches_golden() {
    // Pinned on the typed event rendering (`Descriptor`'s `Display`); a
    // change here means the wire-level graft cascade itself changed and
    // the goldens must be re-vetted.
    const GOLDEN: u64 = 0x8865_c498_bb7f_73a0;
    let wheel = run_fixed_case(TimerBackend::Wheel);
    let heap = run_fixed_case(TimerBackend::ReferenceHeap);
    assert_eq!(
        wheel, heap,
        "timer backends produced different Setup traffic"
    );
    assert_eq!(
        wheel, GOLDEN,
        "Setup-send golden diverged (got {wheel:#018x})"
    );
}
