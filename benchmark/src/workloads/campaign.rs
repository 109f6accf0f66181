//! `campaign_lossless` and `campaign_lossy`: the paper's experiment as
//! `smrp-faultlab` runs it — one Waxman topology, one 30-member session
//! built as an SMRP tree and as an SPF tree, and a stream of fault cases
//! cycling the seven families, each evaluated against both protocols in
//! the message-level simulator.
//!
//! The untraced path calls `smrp_faultlab::evaluate_case`, which is what
//! a campaign user runs. The traced path composes the same case from the
//! crates' public pieces (affected set → plan → audit → simulate →
//! classify) with a span around each, and the two must agree case by
//! case.

use std::time::Instant;

use smrp_core::recovery::{self, DetourKind};
use smrp_core::SmrpConfig;
use smrp_faultlab::{
    audit_recovery, evaluate_case, generate_mix, run_campaign, CampaignConfig, CampaignReport,
    CampaignRun, CaseResult, FaultCase, FaultFamily, Outcome, ProtoKind, ProtoOutcome,
};
use smrp_net::{Graph, GroupId, NodeId};
use smrp_proto::{
    FailureTiming, InjectionTiming, MultiSession, ProtoSession, RecoveryStrategy, TreeProtocol,
};
use smrp_sim::{ChannelSpec, SimTime};

use crate::harness::{gate, sub_seed, timed_region, Ledger, RunResult, SetupClock};
use crate::micro::{self, MicroInput};
use crate::span::{breakdown, Tracer};
use crate::stats;
use crate::workloads::{
    put_restoration, put_setup_rows, put_trace_shares, repeat_gate, Tally, UNIT,
};

const NODES: usize = 400;
const ALPHA: f64 = 0.2;
const GROUP_SIZE: usize = 30;
/// Two cases of each of the seven families per unit of work.
const BATCH: usize = 14;
const BATCHES: usize = 20;
const CASES: usize = BATCH * BATCHES;
/// Cases of the `--jobs` determinism gate (lossless only).
const JOBS_GATE_CASES: usize = 35;

fn config(seed: u64, loss: f64, scenarios: usize) -> CampaignConfig {
    CampaignConfig {
        nodes: NODES,
        group_size: GROUP_SIZE,
        groups: 1,
        alpha: ALPHA,
        scenarios,
        base_seed: sub_seed(seed, 1),
        ambient_loss: loss,
        ..CampaignConfig::default()
    }
}

/// One (case, protocol) evaluation, reduced to what both the library's
/// evaluator and the composed path can report.
#[derive(Debug, Clone, PartialEq)]
struct Arm {
    outcome: Outcome,
    affected: u32,
    restored: u32,
    latencies_ms: Vec<f64>,
    tally: Tally,
}

impl Arm {
    fn from_outcome(o: &ProtoOutcome) -> Arm {
        Arm {
            outcome: o.outcome,
            affected: o.affected,
            restored: o.restored,
            latencies_ms: o.latencies_ms.clone(),
            tally: Tally::new(o.groups[0].control, &o.health, o.protection.activations),
        }
    }

    fn undecided(outcome: Outcome, affected: usize) -> Arm {
        Arm {
            outcome,
            affected: affected as u32,
            restored: 0,
            latencies_ms: Vec::new(),
            tally: Tally::default(),
        }
    }

    fn simulated(&self) -> bool {
        self.tally.control > 0
    }
}

#[derive(Debug, Clone, PartialEq)]
struct CaseSummary {
    smrp: Arm,
    spf: Arm,
}

/// Simulator totals only the composed path can see (first pass only, so
/// the delivered count depends on the seed and not on how many repeats
/// the time budget allowed).
#[derive(Default)]
struct SimTotals {
    delivered: u64,
    run_s: f64,
}

struct Lab<'g> {
    graph: &'g Graph,
    cfg: CampaignConfig,
    smrp: MultiSession<'g>,
    spf: MultiSession<'g>,
    cases: Vec<FaultCase>,
}

fn build<'g>(
    graph: &'g Graph,
    source: NodeId,
    members: &[NodeId],
    tr: &mut Tracer,
) -> (MultiSession<'g>, MultiSession<'g>) {
    let smrp = tr.call("proto.session_build", || {
        ProtoSession::build(
            graph,
            source,
            members,
            TreeProtocol::Smrp(SmrpConfig::default()),
        )
        .expect("SMRP session builds on a connected topology")
    });
    let spf = tr.call("proto.session_build", || {
        ProtoSession::build(graph, source, members, TreeProtocol::Spf)
            .expect("SPF session builds on a connected topology")
    });
    (
        MultiSession::from_sessions(vec![smrp]),
        MultiSession::from_sessions(vec![spf]),
    )
}

fn set_up<'g>(graph: &'g Graph, cfg: &CampaignConfig, tr: &mut Tracer) -> Lab<'g> {
    let (source, members) = cfg.pick_members(graph);
    let (smrp, spf) = build(graph, source, &members, tr);
    let cases = tr.call("faultlab.generate_mix", || {
        generate_mix(graph, &cfg.generator, cfg.scenarios, cfg.base_seed)
    });
    Lab {
        graph,
        cfg: cfg.clone(),
        smrp,
        spf,
        cases,
    }
}

/// The composed evaluation of one arm: `faultlab`'s `evaluate_proto` for
/// one hosted group, rebuilt from public calls so each can carry a span.
fn composed_arm(
    lab: &Lab<'_>,
    case: &FaultCase,
    proto: ProtoKind,
    tr: &mut Tracer,
    totals: &mut SimTotals,
) -> Arm {
    let cfg = &lab.cfg;
    let graph = lab.graph;
    let scenario = &case.scenario;
    let (multi, kind, strategy) = match proto {
        ProtoKind::Smrp => (&lab.smrp, DetourKind::Local, RecoveryStrategy::LocalDetour),
        ProtoKind::Spf => (
            &lab.spf,
            DetourKind::Global,
            RecoveryStrategy::GlobalDetour {
                reconvergence: SimTime::from_ms(cfg.reconvergence_ms),
            },
        ),
    };
    let session = multi.session(GroupId::new(0));
    let affected = tr.call("core.affected_members", || {
        recovery::affected_members(graph, session.tree(), scenario)
    });
    if affected.is_empty() {
        return Arm::undecided(Outcome::Unaffected, 0);
    }
    let plans = tr.call("proto.plan_recoveries", || {
        session.plan_recoveries(scenario, kind)
    });
    let violations = tr.call("faultlab.audit_recovery", || {
        audit_recovery(graph, session.tree(), scenario, &plans)
    });
    if !violations.is_empty() {
        return Arm::undecided(Outcome::InvariantViolation, affected.len());
    }
    if !scenario.node_usable(session.source()) {
        return Arm::undecided(Outcome::SourcePartitioned, affected.len());
    }

    let fail_at = SimTime::from_ms(cfg.fail_at_ms);
    let timing = if case.timing.is_flapping() {
        InjectionTiming::Flapping {
            fail_at,
            down: SimTime::from_ms(case.timing.flap_down_ms),
            up: SimTime::from_ms(case.timing.flap_up_ms),
            cycles: case.timing.flap_cycles,
        }
    } else if case.timing.transient {
        InjectionTiming::Once(FailureTiming::transient(
            fail_at,
            SimTime::from_ms(cfg.fail_at_ms + case.timing.repair_after_ms),
        ))
    } else {
        InjectionTiming::Once(FailureTiming::persistent(fail_at))
    };
    let channel = if !case.channel.is_perfect() || cfg.ambient_loss <= 0.0 {
        case.channel.clone()
    } else {
        ChannelSpec::uniform_loss(
            cfg.ambient_loss,
            case.seed.wrapping_mul(0xD6E8_FEB8_6659_FD93),
        )
    };
    let t = Instant::now();
    let report = tr.call("proto.run_failure_spec", || {
        multi.run_failure_spec(
            scenario,
            strategy,
            timing,
            &channel,
            SimTime::from_ms(cfg.run_until_ms),
        )
    });
    totals.run_s += t.elapsed().as_secs_f64();
    totals.delivered += report.messages_delivered;

    let span = tr.enter("classify");
    let slice = &report.groups[0];
    let latencies_ms = slice.latencies_ms();
    let outcome = if slice.all_restored() {
        let clean_local = proto == ProtoKind::Smrp
            && plans.all_root_grafts()
            && plans.unrecoverable.is_empty()
            && !case.timing.heals();
        if slice.protection.stale_discards > 0 {
            Outcome::RestoredAfterReplan
        } else if clean_local {
            Outcome::RestoredLocalDetour
        } else {
            Outcome::FellBackGlobal
        }
    } else {
        let reach = recovery::reachable_from_source(graph, session.source(), scenario);
        let unrestored_partitioned = slice
            .restorations
            .iter()
            .filter(|(_, l)| l.is_none())
            .all(|(m, _)| !scenario.node_usable(*m) || !reach[m.index()]);
        if unrestored_partitioned && !case.timing.heals() {
            Outcome::SourcePartitioned
        } else {
            Outcome::DetectionMissed
        }
    };
    let arm = Arm {
        outcome,
        affected: affected.len() as u32,
        restored: latencies_ms.len() as u32,
        latencies_ms,
        tally: Tally::new(slice.control, &report.health, slice.protection.activations),
    };
    tr.exit(span);
    arm
}

/// Whether `faultlab` would count this arm's retry exhaustions against
/// the clear-channel gate.
fn counts_exhaustions(case: &FaultCase, arm: &Arm) -> bool {
    case.channel.overrides.is_empty() && arm.outcome != Outcome::RestoredAfterReplan
}

pub fn run(lossy: bool, seed: u64, seconds: f64, tr: &mut Tracer) -> RunResult {
    let loss = if lossy { 0.1 } else { 0.0 };
    let cfg = config(seed, loss, CASES);
    let traced = tr.is_enabled();

    // Set-up: topology, both trees, the case list.
    let mut setup = SetupClock::start();
    let span = tr.enter("setup");
    let graph = tr.call("net.topology_gen", || {
        cfg.topology().expect("Waxman topology generates")
    });
    let lab = set_up(&graph, &cfg, tr);
    tr.exit(span);
    setup.stop();
    // Set-up is an end-to-end metric, so only the untraced run repeats it.
    let set_up_again = || {
        let g = cfg.topology().expect("Waxman topology generates");
        std::hint::black_box(set_up(&g, &cfg, &mut Tracer::new(false)));
    };
    if !traced {
        setup.sample(set_up_again);
    }

    // Timed region: batches of cases, closed loop.
    let mut totals = SimTotals::default();
    let mut kept: Vec<CaseResult> = Vec::new();
    let timed = timed_region(BATCHES, seconds, 4, tr, |unit, pass, tr| {
        let mut out = Vec::with_capacity(BATCH);
        let mut discarded = SimTotals::default();
        let sink = if pass == 0 {
            &mut totals
        } else {
            &mut discarded
        };
        for case in &lab.cases[unit * BATCH..(unit + 1) * BATCH] {
            if tr.is_enabled() {
                let span = tr.enter(UNIT);
                let smrp = composed_arm(&lab, case, ProtoKind::Smrp, tr, sink);
                let spf = composed_arm(&lab, case, ProtoKind::Spf, tr, sink);
                tr.exit(span);
                out.push(CaseSummary { smrp, spf });
            } else {
                let r = evaluate_case(lab.graph, &lab.smrp, &lab.spf, &lab.cfg, case);
                out.push(CaseSummary {
                    smrp: Arm::from_outcome(&r.smrp),
                    spf: Arm::from_outcome(&r.spf),
                });
                if pass == 0 {
                    kept.push(r);
                }
            }
        }
        out
    });
    if !traced {
        setup.sample(set_up_again);
    }

    let cases: Vec<(&FaultCase, &CaseSummary)> =
        lab.cases.iter().zip(timed.first.iter().flatten()).collect();
    assert_eq!(cases.len(), CASES);
    let unit_ops = |unit: usize| -> f64 {
        timed.first[unit]
            .iter()
            .map(|c| (c.smrp.tally.control + c.spf.tally.control) as f64)
            .sum()
    };
    let ops_per_s = timed.median_rate(unit_ops).unwrap_or(0.0);

    // Outcomes and gates.
    let mut violations = 0u64;
    let mut missed = 0u64;
    let mut clear_exhaustions = 0u64;
    let mut failed_cases = 0u64;
    for (case, c) in &cases {
        let mut bad = false;
        for arm in [&c.smrp, &c.spf] {
            if arm.outcome == Outcome::InvariantViolation {
                violations += 1;
                bad = true;
            }
            if arm.outcome == Outcome::DetectionMissed {
                missed += 1;
                bad |= !lossy;
            }
            if counts_exhaustions(case, arm) && arm.tally.exhaustions > 0 {
                clear_exhaustions += arm.tally.exhaustions;
                bad |= !lossy;
            }
        }
        failed_cases += u64::from(bad);
    }
    let mut gates = vec![
        gate(
            "total_violations_zero",
            violations == 0,
            format!("{violations} arms rejected by the invariant auditor"),
        ),
        repeat_gate(&timed, "batches"),
    ];
    if !lossy {
        // Under 10% ambient loss a reliable envelope now and then runs out
        // of retries and a member now and then stays cut off: the lossy
        // workload reports both as counts and gates on neither.
        gates.push(gate(
            "exhaustions_without_gray_zero",
            clear_exhaustions == 0,
            format!("{clear_exhaustions} retry exhaustions on clear channels"),
        ));
        gates.push(gate(
            "detection_missed_zero",
            missed == 0,
            format!("{missed} arms left a reachable member unrestored"),
        ));
    }
    // The `CaseResult`s of the first pass, as the campaign runner would
    // hand them to its report.
    let library_run = CampaignRun {
        config: cfg.clone(),
        results: kept,
    };
    if library_run.results.len() == CASES {
        // The untraced run kept every case: let the library's own report
        // confirm the tallies above.
        let report = CampaignReport::from_run(&library_run);
        let lib_missed: u64 = report
            .outcomes
            .iter()
            .map(|o| u64::from(o.detection_missed))
            .sum();
        gates.push(gate(
            "library_report_agrees",
            u64::from(report.total_violations) == violations
                && report.clear_channel_exhaustions() == clear_exhaustions
                && lib_missed == missed,
            format!(
                "CampaignReport: {} violations, {} clear-channel exhaustions, {} missed",
                report.total_violations,
                report.clear_channel_exhaustions(),
                lib_missed
            ),
        ));
    }
    if !lossy {
        // `--jobs` must not change a byte of the report.
        let small = config(seed, loss, JOBS_GATE_CASES);
        let one = CampaignReport::from_run(&run_campaign(&small, 1).expect("campaign runs"));
        let two = CampaignReport::from_run(&run_campaign(&small, 2).expect("campaign runs"));
        gates.push(gate(
            "jobs_2_byte_identical",
            one.to_json() == two.to_json(),
            format!("{JOBS_GATE_CASES}-case campaign at jobs=1 vs jobs=2"),
        ));
    }

    // Sim-clock outcomes of the modelled network (first pass only).
    let mut ledger = Ledger::new();
    ledger.insert("host.peak_rss_mb", Some(timed.first_pass_rss_mb));
    let smrp_lat: Vec<f64> = cases
        .iter()
        .flat_map(|(_, c)| c.smrp.latencies_ms.iter().copied())
        .collect();
    let spf_lat: Vec<f64> = cases
        .iter()
        .flat_map(|(_, c)| c.spf.latencies_ms.iter().copied())
        .collect();
    ledger.insert(
        "model.smrp_vs_spf_latency",
        stats::mean(&smrp_lat)
            .zip(stats::mean(&spf_lat))
            .map(|(a, b)| a / b),
    );
    // A source-partitioned member is nobody's to restore.
    let recoverable = || {
        cases
            .iter()
            .map(|(_, c)| &c.smrp)
            .filter(|a| a.outcome != Outcome::SourcePartitioned)
    };
    put_restoration(
        &mut ledger,
        &smrp_lat,
        recoverable().map(|a| u64::from(a.affected)).sum(),
        recoverable().map(|a| u64::from(a.restored)).sum(),
        cases.iter().map(|(_, c)| c.smrp.tally.control).sum(),
    );
    let mut both_arms = Tally::default();
    for (_, c) in &cases {
        both_arms.add(&c.smrp.tally);
        both_arms.add(&c.spf.tally);
    }
    both_arms.put(&mut ledger);
    let simulated = cases
        .iter()
        .filter(|(_, c)| c.smrp.simulated() || c.spf.simulated())
        .count();
    ledger.insert(
        "faultlab.simulated_share",
        Some(simulated as f64 / CASES as f64),
    );
    let case_rate = timed.median_rate(|_| BATCH as f64);
    ledger.insert("host.cases_per_s", case_rate);
    ledger.insert("faultlab.evaluate_ms_per_case", case_rate.map(|r| 1e3 / r));

    if traced {
        let b = breakdown(tr.spans(), UNIT);
        put_trace_shares(&mut ledger, &b, timed.trace_overhead());
        put_setup_rows(&mut ledger, tr.spans());
        ledger.insert(
            "faultlab.generate_us_per_case",
            breakdown(tr.spans(), "setup")
                .mean_ns("faultlab.generate_mix")
                .map(|ns| ns / 1e3 / CASES as f64),
        );
        ledger.insert(
            "proto.plan_recoveries_us",
            b.mean_ns("proto.plan_recoveries").map(|ns| ns / 1e3),
        );
        ledger.insert("proto.msgs_delivered", Some(totals.delivered as f64));
        if totals.delivered > 0 {
            let per_msg = totals.run_s * 1e9 / totals.delivered as f64;
            ledger.insert("proto.run_ns_per_msg", Some(per_msg));
            ledger.insert("host.sim_msgs_per_s", Some(1e9 / per_msg));
        }
        let t = Instant::now();
        std::hint::black_box(CampaignReport::from_run(&library_run).to_json());
        ledger.insert("faultlab.report_ms", Some(t.elapsed().as_secs_f64() * 1e3));

        // One representative simulated case for the per-op ledger.
        let probe = cases
            .iter()
            .find(|(case, c)| {
                c.smrp.outcome == Outcome::RestoredLocalDetour && case.family == FaultFamily::KLink
            })
            .or_else(|| cases.iter().find(|(_, c)| c.smrp.simulated()))
            .map(|(case, _)| (*case).clone());
        if let Some(case) = probe {
            let (source, members) = cfg.pick_members(&graph);
            micro::run(
                &MicroInput {
                    graph: &graph,
                    source,
                    members: &members,
                    scenario: &case.scenario,
                    multi: &lab.smrp,
                    run_until_ms: cfg.run_until_ms,
                    lanes: 1,
                    daemon_ops: !lossy,
                },
                &mut ledger,
            );
        }
    }

    RunResult {
        attempted: CASES as u64,
        failed: failed_cases,
        gates,
        counts: vec![
            ("nodes", NODES as u64),
            ("members", GROUP_SIZE as u64),
            ("cases", CASES as u64),
            ("batches", BATCHES as u64),
            ("batch_runs", timed.runs.len() as u64),
            ("cases_simulated", simulated as u64),
            ("report_cases", library_run.results.len() as u64),
            ("arms_detection_missed", missed),
            ("clear_channel_exhaustions", clear_exhaustions),
        ],
        setup_s: setup.median_s(),
        ops_per_s,
        ledger,
        unit_runs: timed.runs.clone(),
        unit_ops: (0..BATCHES).map(unit_ops).collect(),
    }
}
