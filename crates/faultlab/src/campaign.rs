//! Parallel Monte-Carlo campaign execution.
//!
//! A campaign draws a seeded topology and one or more member sets (one
//! multicast session per group), generates a mixed stream of correlated
//! fault cases, and evaluates every case against both SMRP (local detour)
//! and the SPF baseline (global detour): recovery plans are computed and
//! audited per group, the message-level simulator runs all groups over
//! the shared substrate and measures restoration latency, and each
//! (case, protocol) pair is classified into one aggregate [`Outcome`]
//! plus one [`GroupOutcome`] per session. The evaluator that does this
//! takes the arm as a [`RecoveryStrategy`], and the protection sweep
//! ([`crate::protect`]) runs its two arms through it too.
//!
//! Evaluation fans out over worker threads (the crate's one ordered
//! parallel map) at (case, protocol) granularity — groups within a
//! scenario share one event queue (they contend for the same links), so
//! the protocol run is the finest unit that can move between threads
//! without changing the physics. Results come back in (case id, protocol)
//! order, so the campaign output is byte-identical for any `--jobs` value.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use smrp_core::recovery::{self, DetourKind};
use smrp_core::SmrpConfig;
use smrp_metrics::{ControlHealth, ProtectionHealth};
use smrp_net::waxman::{WaxmanConfig, DEFAULT_BETA};
use smrp_net::{FailureScenario, Graph, GroupId, NetError, NodeId};
use smrp_proto::{
    ControlCounters, FailureSpec, FailureTiming, GroupRecoveryReport, InjectionTiming,
    MultiSession, PlanSource, ProtoSession, RecoveryPlans, RecoveryStrategy, TreeProtocol,
};
use smrp_sim::{ChannelSpec, SimTime, TraceLog};

use crate::audit::{audit_recovery, Violation};
use crate::generate::{generate_mix, FaultCase, GeneratorConfig};
use crate::par::ordered_par_map;

/// The protocol a case was evaluated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ProtoKind {
    /// SMRP with local-detour recovery.
    Smrp,
    /// Shortest-path-first baseline with global-detour recovery.
    Spf,
}

impl ProtoKind {
    /// Both protocols, in evaluation order.
    pub const ALL: [ProtoKind; 2] = [ProtoKind::Smrp, ProtoKind::Spf];

    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            ProtoKind::Smrp => "smrp",
            ProtoKind::Spf => "spf",
        }
    }
}

impl std::fmt::Display for ProtoKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How one (case, protocol) evaluation ended.
///
/// Variants are declared in ascending *severity*, and the derived `Ord`
/// follows declaration order: multi-group evaluations aggregate per-group
/// outcomes by taking the maximum, so a case reads as its worst group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Outcome {
    /// The failure never touched the session tree; no member lost service.
    Unaffected,
    /// Every affected member restored service, and every graft was a
    /// fragment-root local detour.
    RestoredLocalDetour,
    /// Every affected member restored service, but at least one cached
    /// plan was first discarded as stale (its path crossed a component
    /// presumed dead) and recovery re-planned around it. Full restoration
    /// after a discard is the protection plane working as designed — a
    /// *Restored* class, not a failure — but it is reported separately
    /// because the discard means the precomputed plan did not survive
    /// contact with the actual failure.
    RestoredAfterReplan,
    /// Every affected member restored service, but not through clean root
    /// grafts: cornered roots delegated to per-member recovery, the global
    /// strategy waited out reconvergence, or a transient repair healed the
    /// outage.
    FellBackGlobal,
    /// Some member could not be restored because no usable route to the
    /// source exists (or the source itself failed) — unrecoverable by any
    /// protocol.
    SourcePartitioned,
    /// A reachable member never regained service within the run: the
    /// failure was not detected or the recovery never completed.
    DetectionMissed,
    /// The invariant auditor rejected the recovery (see the attached
    /// violations — these are protocol bugs, not scenario properties).
    InvariantViolation,
}

impl Outcome {
    /// Every outcome class, in report order.
    pub const ALL: [Outcome; 7] = [
        Outcome::Unaffected,
        Outcome::RestoredLocalDetour,
        Outcome::RestoredAfterReplan,
        Outcome::FellBackGlobal,
        Outcome::SourcePartitioned,
        Outcome::DetectionMissed,
        Outcome::InvariantViolation,
    ];

    /// Stable kebab-case name (used as report keys).
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Unaffected => "unaffected",
            Outcome::RestoredLocalDetour => "restored-local-detour",
            Outcome::RestoredAfterReplan => "restored-after-replan",
            Outcome::FellBackGlobal => "fell-back-global",
            Outcome::SourcePartitioned => "source-partitioned",
            Outcome::DetectionMissed => "detection-missed",
            Outcome::InvariantViolation => "invariant-violation",
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Knobs of a whole campaign. Serialized verbatim into the report header
/// (minus anything execution-dependent: job count and wall-clock never
/// enter the report, keeping it byte-stable across machines).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Topology size (Waxman unit-square graph).
    pub nodes: usize,
    /// Multicast group size.
    pub group_size: usize,
    /// Number of concurrent multicast sessions sharing the topology (the
    /// `faultlab --groups` knob). Each group gets its own seeded source
    /// and member set and its own SMRP/SPF tree; every generated failure
    /// is injected once against all of them.
    pub groups: usize,
    /// Waxman `α` (edge-density knob).
    pub alpha: f64,
    /// Number of fault cases to generate and evaluate.
    pub scenarios: usize,
    /// Base RNG seed; topology, member set and every fault case derive
    /// their own sub-seeds from it.
    pub base_seed: u64,
    /// Scenario-generator knobs.
    pub generator: GeneratorConfig,
    /// When the failure is injected, in milliseconds.
    pub fail_at_ms: f64,
    /// Simulation horizon per case, in milliseconds.
    pub run_until_ms: f64,
    /// Unicast reconvergence delay charged to the SPF baseline's global
    /// detour, in milliseconds.
    pub reconvergence_ms: f64,
    /// Ambient control-plane loss applied to every case whose generated
    /// channel is perfect (the `faultlab --loss` knob). `0.0` keeps the
    /// component-failure families lossless; the `UniformLoss`/`GrayLinks`
    /// families always keep their own generated channels.
    pub ambient_loss: f64,
}

impl Default for CampaignConfig {
    /// A paper-scale default: `N = 100`, 30 members, one session, 1000
    /// mixed cases.
    fn default() -> Self {
        CampaignConfig {
            nodes: 100,
            group_size: 30,
            groups: 1,
            alpha: 0.2,
            scenarios: 1000,
            base_seed: 0x5EED,
            generator: GeneratorConfig::default(),
            fail_at_ms: 100.0,
            run_until_ms: 3000.0,
            reconvergence_ms: 800.0,
            ambient_loss: 0.0,
        }
    }
}

impl CampaignConfig {
    /// Generates the campaign topology (same seeded-Waxman idiom as the
    /// repo's experiment scenarios).
    ///
    /// # Errors
    ///
    /// Propagates generator configuration errors.
    pub fn topology(&self) -> Result<Graph, NetError> {
        waxman_topology(self.nodes, self.alpha, DEFAULT_BETA, self.base_seed)
    }

    /// Samples the source and member set of group 0 — kept as the
    /// single-session entry point so old campaign seeds reproduce.
    pub fn pick_members(&self, graph: &Graph) -> (NodeId, Vec<NodeId>) {
        self.pick_group_members(graph, 0)
    }

    /// Samples the source and member set for one group. Group 0 draws
    /// from the same sub-seed `pick_members` always used, so a
    /// `groups = 1` campaign is byte-identical to a pre-multi-session
    /// one; higher groups perturb the seed with a splitmix-style odd
    /// constant for independent draws.
    pub fn pick_group_members(&self, graph: &Graph, group: usize) -> (NodeId, Vec<NodeId>) {
        draw_members(graph, self.base_seed, self.group_size, group)
    }

    /// Runs `case` through one protocol's arm: SMRP recovers by local
    /// detour, the SPF baseline by global detour after reconvergence.
    fn evaluate(
        &self,
        graph: &Graph,
        multi: &MultiSession<'_>,
        case: &FaultCase,
        proto: ProtoKind,
    ) -> ProtoOutcome {
        let strategy = match proto {
            ProtoKind::Smrp => RecoveryStrategy::LocalDetour,
            ProtoKind::Spf => RecoveryStrategy::GlobalDetour {
                reconvergence: SimTime::from_ms(self.reconvergence_ms),
            },
        };
        evaluate_arm(
            graph,
            multi,
            case,
            strategy,
            self.ambient_loss,
            self.fail_at_ms,
            self.run_until_ms,
        )
    }
}

/// The seeded Waxman topology a campaign-style run with base seed `seed`
/// draws.
pub(crate) fn waxman_topology(
    nodes: usize,
    alpha: f64,
    beta: f64,
    seed: u64,
) -> Result<Graph, NetError> {
    Ok(WaxmanConfig::new(nodes)
        .alpha(alpha)
        .beta(beta)
        .seed(seed ^ 0x9E37_79B9)
        .generate()?
        .into_graph())
}

/// Draws the source and `group_size` members of one group (see
/// [`CampaignConfig::pick_group_members`]).
pub(crate) fn draw_members(
    graph: &Graph,
    base_seed: u64,
    group_size: usize,
    group: usize,
) -> (NodeId, Vec<NodeId>) {
    let seed = base_seed
        .wrapping_add(0xA5A5_A5A5)
        .wrapping_add((group as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ids: Vec<NodeId> = graph.node_ids().collect();
    ids.shuffle(&mut rng);
    let take = group_size.min(ids.len() - 1);
    (ids[0], ids[1..=take].to_vec())
}

/// One group's slice of a (case, protocol) evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupOutcome {
    /// The group.
    pub group: GroupId,
    /// This group's classification.
    pub outcome: Outcome,
    /// Members of this group whose tree path the failure broke.
    pub affected: u32,
    /// Affected members of this group that regained service.
    pub restored: u32,
    /// Restoration latencies of this group's restored members, in
    /// milliseconds, in member order.
    pub latencies_ms: Vec<f64>,
    /// Invariant violations the auditor found in this group's recovery.
    pub violations: Vec<Violation>,
    /// Control messages this group's router lanes sent, by type — the
    /// per-group control overhead of sharing the substrate. All-zero when
    /// the case was short-circuited before simulation.
    pub control: ControlCounters,
    /// Protection-plane counters of this group's lanes: plans held,
    /// cached-plan activations, stale discards. All-zero for purely
    /// reactive runs that never touched a plan cache.
    pub protection: ProtectionHealth,
}

/// The evaluation of one case against one protocol — the aggregate over
/// every hosted group plus one [`GroupOutcome`] slice per group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtoOutcome {
    /// The aggregate classification: the worst (maximum-severity) group
    /// outcome. For single-session campaigns this is just the outcome.
    pub outcome: Outcome,
    /// Members whose tree path the failure broke, summed over groups.
    pub affected: u32,
    /// Affected members that regained service within the run, summed
    /// over groups.
    pub restored: u32,
    /// Restoration latency of each restored member, in milliseconds,
    /// in group order then member order.
    pub latencies_ms: Vec<f64>,
    /// Invariant violations the auditor found in any group (normally
    /// empty), in group order.
    pub violations: Vec<Violation>,
    /// Control-plane health during the run: every group's reliable-layer
    /// counters plus channel loss/duplication/reordering tallies (which
    /// are per *link*, so they only exist at this aggregate level).
    /// All-zero for cases short-circuited before simulation.
    pub health: ControlHealth,
    /// Protection-plane counters summed over groups.
    pub protection: ProtectionHealth,
    /// Per-group slices, in group order.
    pub groups: Vec<GroupOutcome>,
}

/// The evaluation of one generated fault case against both protocols.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseResult {
    /// The case that was evaluated (id, family, seed, scenario, timing).
    pub case: FaultCase,
    /// SMRP under local-detour recovery.
    pub smrp: ProtoOutcome,
    /// SPF baseline under global-detour recovery.
    pub spf: ProtoOutcome,
}

impl CaseResult {
    /// The evaluation for `proto`.
    pub fn for_proto(&self, proto: ProtoKind) -> &ProtoOutcome {
        match proto {
            ProtoKind::Smrp => &self.smrp,
            ProtoKind::Spf => &self.spf,
        }
    }

    /// Whether either protocol's auditor flagged this case.
    pub fn has_violations(&self) -> bool {
        !self.smrp.violations.is_empty() || !self.spf.violations.is_empty()
    }
}

/// Pre-simulation triage of one session: affected set, recovery plans,
/// audit verdict, and — when the session cannot possibly need the
/// simulator — its already-decided outcome.
struct Triage {
    affected: Vec<NodeId>,
    /// `None` only when nothing was affected (so nothing was planned).
    plans: Option<RecoveryPlans>,
    violations: Vec<Violation>,
    /// `Unaffected` (the failure misses the tree), `InvariantViolation`
    /// (the auditor rejected the plans) or `SourcePartitioned` (the source
    /// itself died: no protocol can restore it); `None` means simulate.
    fixed: Option<Outcome>,
}

/// Triages `scenario` against one session under detour `kind`. The audit
/// checks the *planner's* output, so arms that differ only in strategy
/// share one verdict.
fn triage(
    graph: &Graph,
    session: &ProtoSession<'_>,
    scenario: &FailureScenario,
    kind: DetourKind,
) -> Triage {
    let affected = recovery::affected_members(graph, session.tree(), scenario);
    if affected.is_empty() {
        return Triage {
            affected,
            plans: None,
            violations: Vec::new(),
            fixed: Some(Outcome::Unaffected),
        };
    }
    let plans = session.plan_recoveries(scenario, kind);
    let violations = audit_recovery(graph, session.tree(), scenario, &plans);
    let fixed = if !violations.is_empty() {
        Some(Outcome::InvariantViolation)
    } else if !scenario.node_usable(session.source()) {
        Some(Outcome::SourcePartitioned)
    } else {
        None
    };
    Triage {
        affected,
        plans: Some(plans),
        violations,
        fixed,
    }
}

/// The one classifier: how a simulated group's affected members came
/// back, given the arm's plans and the kind of detour it plans.
///
/// A fully restored group reads [`Outcome::RestoredAfterReplan`] when a
/// cached plan was discarded as stale (the discard disqualifies "clean"
/// either way, so it takes precedence over the local/global split),
/// [`Outcome::RestoredLocalDetour`] when a local arm's every graft was a
/// clean fragment-root detour and nothing healed, and
/// [`Outcome::FellBackGlobal`] otherwise. A group with unrestored members
/// is partitioned when every one of them is dead or physically cut off
/// from the source and the outage never heals, a detection miss
/// otherwise: an unrestored-but-reachable member under repair is still a
/// miss, and a partitioned member the repair would have reconnected
/// counts only because it stayed unrestored to the end of the run.
fn classify(
    graph: &Graph,
    source: NodeId,
    case: &FaultCase,
    plans: &RecoveryPlans,
    slice: &GroupRecoveryReport,
    kind: DetourKind,
) -> Outcome {
    let scenario = &case.scenario;
    let heals = case.timing.heals();
    if !slice.all_restored() {
        let reach = recovery::reachable_from_source(graph, source, scenario);
        let partitioned = slice
            .restorations
            .iter()
            .filter(|(_, l)| l.is_none())
            .all(|(m, _)| !scenario.node_usable(*m) || !reach[m.index()]);
        if partitioned && !heals {
            Outcome::SourcePartitioned
        } else {
            Outcome::DetectionMissed
        }
    } else if slice.protection.stale_discards > 0 {
        Outcome::RestoredAfterReplan
    } else if kind == DetourKind::Local
        && plans.all_root_grafts()
        && plans.unrecoverable.is_empty()
        && !heals
    {
        Outcome::RestoredLocalDetour
    } else {
        Outcome::FellBackGlobal
    }
}

/// Evaluates one case against one arm — a multi-session and the
/// [`RecoveryStrategy`] all its groups recover with — and classifies it:
/// plans and audits every group, runs the shared simulation once if any
/// group needs it, and classifies each group independently before rolling
/// up the aggregate. This is the one evaluator behind both the campaign
/// (SMRP against SPF) and the protection sweep (protection against
/// reactive search).
///
/// Only the global strategy plans global detours, and only a local arm
/// can restore by a clean local detour. Cases with their own degraded
/// channel keep it; every other case runs under `ambient_loss`.
pub(crate) fn evaluate_arm(
    graph: &Graph,
    multi: &MultiSession<'_>,
    case: &FaultCase,
    strategy: RecoveryStrategy,
    ambient_loss: f64,
    fail_at_ms: f64,
    run_until_ms: f64,
) -> ProtoOutcome {
    let scenario = &case.scenario;
    let kind = match strategy {
        RecoveryStrategy::GlobalDetour { .. } => DetourKind::Global,
        _ => DetourKind::Local,
    };

    let pre: Vec<Triage> = multi
        .groups()
        .map(|g| triage(graph, multi.session(g), scenario, kind))
        .collect();

    // Fast path: when every group's verdict is already decided (missed
    // tree, failed audit, or dead source) there is no data plane worth
    // simulating — the single-session campaign's short circuits, lifted
    // to the aggregate level.
    let report = if pre.iter().any(|p| p.fixed.is_none()) {
        let timing = if case.timing.is_flapping() {
            InjectionTiming::Flapping {
                fail_at: SimTime::from_ms(fail_at_ms),
                down: SimTime::from_ms(case.timing.flap_down_ms),
                up: SimTime::from_ms(case.timing.flap_up_ms),
                cycles: case.timing.flap_cycles,
            }
        } else if case.timing.transient {
            InjectionTiming::Once(FailureTiming::transient(
                SimTime::from_ms(fail_at_ms),
                SimTime::from_ms(fail_at_ms + case.timing.repair_after_ms),
            ))
        } else {
            InjectionTiming::Once(FailureTiming::persistent(SimTime::from_ms(fail_at_ms)))
        };
        // Cases with their own degraded channel (UniformLoss/GrayLinks)
        // keep it; everything else picks up the ambient loss, seeded off
        // the case so no two cases share a loss pattern (and both arms of
        // one case fight the same one).
        let channel = if !case.channel.is_perfect() || ambient_loss <= 0.0 {
            case.channel.clone()
        } else {
            ChannelSpec::uniform_loss(ambient_loss, case.seed.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        };
        let spec = FailureSpec {
            scenario,
            plans: PlanSource::Strategy(strategy),
            timing,
            membership: &[],
            channel,
            until: SimTime::from_ms(run_until_ms),
        };
        Some(multi.run(&spec, TraceLog::disabled()).report)
    } else {
        None
    };

    let groups: Vec<GroupOutcome> = multi
        .groups()
        .zip(pre)
        .map(|(g, p)| {
            let slice = report.as_ref().map(|r| &r.groups[g.index()]);
            let (outcome, latencies_ms) = match p.fixed {
                Some(outcome) => (outcome, Vec::new()),
                None => {
                    let slice = slice.expect("simulation ran for undecided groups");
                    let plans = p.plans.as_ref().expect("affected groups were planned");
                    let source = multi.session(g).source();
                    let outcome = classify(graph, source, case, plans, slice, kind);
                    (outcome, slice.latencies_ms())
                }
            };
            GroupOutcome {
                group: g,
                outcome,
                affected: p.affected.len() as u32,
                restored: latencies_ms.len() as u32,
                latencies_ms,
                // Only a failed audit leaves violations, and it decides
                // the group before simulation.
                violations: p.violations,
                // Lanes of pre-decided groups still ran if any *other*
                // group forced a simulation; report their spend honestly.
                control: slice.map(|s| s.control).unwrap_or_default(),
                protection: slice.map(|s| s.protection).unwrap_or_default(),
            }
        })
        .collect();

    ProtoOutcome {
        // The case reads as its worst group.
        outcome: groups
            .iter()
            .map(|g| g.outcome)
            .max()
            .unwrap_or(Outcome::Unaffected),
        affected: groups.iter().map(|g| g.affected).sum(),
        restored: groups.iter().map(|g| g.restored).sum(),
        latencies_ms: groups
            .iter()
            .flat_map(|g| g.latencies_ms.iter().copied())
            .collect(),
        violations: groups
            .iter()
            .flat_map(|g| g.violations.iter().cloned())
            .collect(),
        health: report.map(|r| r.health).unwrap_or_default(),
        protection: ProtectionHealth::merged(groups.iter().map(|g| &g.protection)),
        groups,
    }
}

/// Evaluates one fault case against both protocols' multi-sessions.
pub fn evaluate_case(
    graph: &Graph,
    smrp: &MultiSession<'_>,
    spf: &MultiSession<'_>,
    cfg: &CampaignConfig,
    case: &FaultCase,
) -> CaseResult {
    CaseResult {
        case: case.clone(),
        smrp: cfg.evaluate(graph, smrp, case, ProtoKind::Smrp),
        spf: cfg.evaluate(graph, spf, case, ProtoKind::Spf),
    }
}

/// The raw output of a campaign run: one [`CaseResult`] per generated
/// case, in case-id order regardless of scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRun {
    /// The evaluated configuration.
    pub config: CampaignConfig,
    /// Per-case results, sorted by case id.
    pub results: Vec<CaseResult>,
}

/// Runs a full campaign on `jobs` worker threads.
///
/// Determinism contract: the result depends only on `cfg` — cases are
/// generated up front from the base seed and evaluated through the
/// crate's ordered parallel map, so any job count (0 is read as 1)
/// produces an identical [`CampaignRun`].
///
/// # Errors
///
/// Propagates topology-generation and tree-construction failures.
///
/// # Panics
///
/// Panics if a worker thread panics (a bug in the evaluator itself).
pub fn run_campaign(cfg: &CampaignConfig, jobs: usize) -> Result<CampaignRun, NetError> {
    let graph = cfg.topology()?;
    // Generated topologies are connected and the member picker only hands
    // out existing nodes, so tree construction cannot fail here.
    let mut smrp_sessions = Vec::with_capacity(cfg.groups.max(1));
    let mut spf_sessions = Vec::with_capacity(cfg.groups.max(1));
    for g in 0..cfg.groups.max(1) {
        let (source, members) = cfg.pick_group_members(&graph, g);
        smrp_sessions.push(
            ProtoSession::build(
                &graph,
                source,
                &members,
                TreeProtocol::Smrp(SmrpConfig::default()),
            )
            .expect("SMRP session builds on a connected topology"),
        );
        spf_sessions.push(
            ProtoSession::build(&graph, source, &members, TreeProtocol::Spf)
                .expect("SPF session builds on a connected topology"),
        );
    }
    let smrp = MultiSession::from_sessions(smrp_sessions);
    let spf = MultiSession::from_sessions(spf_sessions);

    let cases = generate_mix(&graph, &cfg.generator, cfg.scenarios, cfg.base_seed);

    // One work item per (case, protocol): groups inside a case share one
    // event queue so the protocol run is the finest deterministic unit.
    let arms = ProtoKind::ALL.len();
    let evaluated = ordered_par_map(jobs, cases.len() * arms, |i| {
        let proto = ProtoKind::ALL[i % arms];
        let multi = match proto {
            ProtoKind::Smrp => &smrp,
            ProtoKind::Spf => &spf,
        };
        cfg.evaluate(&graph, multi, &cases[i / arms], proto)
    });
    let results = cases
        .into_iter()
        .zip(evaluated.chunks_exact(arms))
        .map(|(case, arm)| CaseResult {
            case,
            smrp: arm[0].clone(),
            spf: arm[1].clone(),
        })
        .collect();
    Ok(CampaignRun {
        config: cfg.clone(),
        results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::FaultFamily;

    fn small_config() -> CampaignConfig {
        CampaignConfig {
            nodes: 30,
            group_size: 8,
            alpha: 0.3,
            scenarios: 24,
            base_seed: 42,
            run_until_ms: 2000.0,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaign_classifies_every_case() {
        let run = run_campaign(&small_config(), 2).unwrap();
        assert_eq!(run.results.len(), 24);
        for (i, r) in run.results.iter().enumerate() {
            assert_eq!(r.case.id as usize, i);
            // Every evaluation lands in exactly one class, and restored
            // counts stay within affected counts.
            for proto in ProtoKind::ALL {
                let o = r.for_proto(proto);
                assert!(o.restored <= o.affected);
                assert_eq!(o.restored as usize, o.latencies_ms.len());
                if o.outcome == Outcome::Unaffected {
                    assert_eq!(o.affected, 0);
                }
                // The aggregate is always consistent with its slices.
                assert_eq!(o.groups.len(), 1);
                assert_eq!(o.groups[0].outcome, o.outcome);
                assert_eq!(o.groups[0].affected, o.affected);
                assert_eq!(o.groups[0].latencies_ms, o.latencies_ms);
            }
        }
    }

    #[test]
    fn multi_group_aggregates_are_consistent() {
        let cfg = CampaignConfig {
            groups: 3,
            scenarios: 12,
            ..small_config()
        };
        let run = run_campaign(&cfg, 2).unwrap();
        assert_eq!(run.results.len(), 12);
        for r in &run.results {
            for proto in ProtoKind::ALL {
                let o = r.for_proto(proto);
                assert_eq!(o.groups.len(), 3);
                assert_eq!(
                    o.outcome,
                    o.groups.iter().map(|g| g.outcome).max().unwrap(),
                    "aggregate outcome is the worst group"
                );
                assert_eq!(o.affected, o.groups.iter().map(|g| g.affected).sum::<u32>());
                assert_eq!(o.restored, o.groups.iter().map(|g| g.restored).sum::<u32>());
                assert_eq!(
                    o.latencies_ms.len(),
                    o.groups.iter().map(|g| g.latencies_ms.len()).sum::<usize>()
                );
            }
        }
    }

    #[test]
    fn groups_draw_distinct_member_sets() {
        let cfg = small_config();
        let graph = cfg.topology().unwrap();
        let (s0, m0) = cfg.pick_group_members(&graph, 0);
        let (s1, m1) = cfg.pick_group_members(&graph, 1);
        // Group 0 must reproduce the legacy single-session draw.
        assert_eq!((s0, m0.clone()), cfg.pick_members(&graph));
        assert!(s0 != s1 || m0 != m1, "groups must not share a seed");
    }

    #[test]
    fn campaign_has_no_invariant_violations() {
        let run = run_campaign(&small_config(), 2).unwrap();
        for r in &run.results {
            assert!(!r.has_violations(), "case {}: {:?}", r.case.id, r);
        }
    }

    #[test]
    fn jobs_do_not_change_results() {
        let cfg = small_config();
        let a = run_campaign(&cfg, 1).unwrap();
        let b = run_campaign(&cfg, 4).unwrap();
        assert_eq!(a, b);
    }

    /// The Figure 1 session (members C and D) under `protocol`.
    fn figure1_multi<'g>(
        graph: &'g Graph,
        nodes: &smrp_core::paper::Figure1Nodes,
        protocol: TreeProtocol,
    ) -> MultiSession<'g> {
        let members = [nodes.c, nodes.d];
        let session = ProtoSession::build(graph, nodes.s, &members, protocol).unwrap();
        MultiSession::from_sessions(vec![session])
    }

    #[test]
    fn single_link_cut_on_figure1_restores_locally() {
        // A campaign over the 5-node paper graph would be noise; instead
        // check the classifier directly on the canonical Figure 1 cut.
        let (graph, nodes) = smrp_core::paper::figure1_graph();
        let smrp = figure1_multi(&graph, &nodes, TreeProtocol::Smrp(SmrpConfig::default()));
        let spf = figure1_multi(&graph, &nodes, TreeProtocol::Spf);
        let l_ad = graph.link_between(nodes.a, nodes.d).unwrap();
        let cfg = CampaignConfig::default();
        let case = FaultCase::directed(FaultFamily::KLink, FailureScenario::link(l_ad));
        let result = evaluate_case(&graph, &smrp, &spf, &cfg, &case);
        assert_eq!(result.smrp.outcome, Outcome::RestoredLocalDetour);
        assert_eq!(result.spf.outcome, Outcome::FellBackGlobal);
        assert!(result.smrp.latencies_ms.iter().all(|&l| l > 0.0));
        // Local detour beats waiting out reconvergence.
        let s_max = result.smrp.latencies_ms.iter().cloned().fold(0.0, f64::max);
        let g_min = result
            .spf
            .latencies_ms
            .iter()
            .cloned()
            .fold(f64::MAX, f64::min);
        assert!(s_max < g_min, "smrp {s_max}ms vs spf {g_min}ms");
    }

    #[test]
    fn source_failure_is_partitioned_for_both_protocols() {
        let (graph, nodes) = smrp_core::paper::figure1_graph();
        let smrp = figure1_multi(&graph, &nodes, TreeProtocol::Smrp(SmrpConfig::default()));
        let spf = figure1_multi(&graph, &nodes, TreeProtocol::Spf);
        let case = FaultCase::directed(FaultFamily::KNode, FailureScenario::node(nodes.s));
        let result = evaluate_case(&graph, &smrp, &spf, &CampaignConfig::default(), &case);
        assert_eq!(result.smrp.outcome, Outcome::SourcePartitioned);
        assert_eq!(result.spf.outcome, Outcome::SourcePartitioned);
    }
}
