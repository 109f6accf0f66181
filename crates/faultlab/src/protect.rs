//! The protection-vs-restoration campaign axis.
//!
//! The base [`crate::campaign`] compares SMRP against the SPF baseline;
//! this module compares SMRP against *itself* in two recovery regimes,
//! over the same seeded scenarios:
//!
//! * **Protection** ([`RecoveryStrategy::Protection`]) — every on-tree
//!   node holds precomputed backup detours for its upstream link, its
//!   upstream node, and (when the topology's geometry yields shared-risk
//!   link groups) the conduit its upstream link belongs to. Restoration
//!   is local plan activation: no on-demand search is charged.
//! * **Reactive** ([`RecoveryStrategy::ReactiveSearch`]) — the honest
//!   on-demand baseline: after detection, the fragment root spends a
//!   modelled search delay (the §3.3.1 query round) before grafting.
//!
//! The axis sweeps three single-event fault families — one link cut, one
//! router crash, one whole shared-risk group — each at every configured
//! ambient control-plane loss point, and reports per-mode restoration
//! latency distributions (the medians are the headline: activation should
//! strictly beat search on the same seeds), control overhead, and the
//! protection plane's standing state (plans held) plus its safety counters
//! (activations, stale discards).
//!
//! Execution follows the campaign's determinism contract: one work item
//! per (case, mode) through the crate's ordered parallel map, and job
//! count never enters the report — any `--jobs` value produces a
//! byte-identical report.

use serde::{Deserialize, Serialize};
use smrp_core::recovery::DetourKind;
use smrp_core::SmrpConfig;
use smrp_metrics::{ControlHealth, ProtectionHealth};
use smrp_net::waxman::WaxmanConfig;
use smrp_net::{Graph, GroupId, NetError, NodeId};
use smrp_proto::{FailureSpec, MultiSession, ProtoSession, RecoveryStrategy, TreeProtocol};
use smrp_sim::{ChannelSpec, SimTime, TraceLog};

use crate::campaign::{triage, unrestored_verdict, Outcome};
use crate::generate::{derive_srlgs, generate_case, FaultCase, FaultFamily, GeneratorConfig};
use crate::par::ordered_par_map;
use crate::report::LatencySummary;

/// The recovery regime one evaluation ran under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ProtectMode {
    /// Precomputed backup detours, locally activated on detection.
    Protection,
    /// On-demand detour search charged after detection.
    Reactive,
}

impl ProtectMode {
    /// Both modes, in evaluation order.
    pub const ALL: [ProtectMode; 2] = [ProtectMode::Protection, ProtectMode::Reactive];

    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            ProtectMode::Protection => "protection",
            ProtectMode::Reactive => "reactive",
        }
    }
}

impl std::fmt::Display for ProtectMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The fault families the axis sweeps: one of each single-event kind the
/// protection plane precomputes contingencies for.
pub const PROTECT_FAMILIES: [FaultFamily; 3] =
    [FaultFamily::KLink, FaultFamily::KNode, FaultFamily::Srlg];

/// Knobs of a protection-axis campaign. Serialized verbatim into the
/// report header; job count and wall-clock never enter it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtectConfig {
    /// Topology size (Waxman unit-square graph).
    pub nodes: usize,
    /// Multicast group size.
    pub group_size: usize,
    /// Waxman `α` (edge-density knob).
    pub alpha: f64,
    /// Waxman `β` (long-edge propensity). The sweep studies restoration,
    /// not partition, so it runs denser than the base campaign: every
    /// protected node needs a node-disjoint alternate for a conservative
    /// plan to exist at all.
    pub beta: f64,
    /// Cases generated per (family × loss point) cell.
    pub scenarios_per_cell: usize,
    /// Base RNG seed; topology, member set and every case derive their
    /// own sub-seeds from it.
    pub base_seed: u64,
    /// Conduit-grid resolution for SRLG derivation (see
    /// [`derive_srlgs`]); also feeds the session's SRLG metadata so
    /// protection plans can cover whole conduits.
    pub srlg_grid: usize,
    /// Modelled on-demand detour-search delay charged to the reactive
    /// arm, in milliseconds.
    pub search_ms: f64,
    /// Ambient control-plane loss probabilities to sweep (each value is
    /// one campaign cell per family; `0.0` means a perfect channel).
    pub loss_points: Vec<f64>,
    /// When the failure is injected, in milliseconds.
    pub fail_at_ms: f64,
    /// Simulation horizon per case, in milliseconds.
    pub run_until_ms: f64,
}

impl Default for ProtectConfig {
    /// A mid-scale default: 60 nodes, 15 members, 25 cases per cell at
    /// 0% and 10% ambient loss, 25 ms reactive search.
    fn default() -> Self {
        ProtectConfig {
            nodes: 60,
            group_size: 15,
            alpha: 0.4,
            beta: 0.6,
            scenarios_per_cell: 25,
            base_seed: 0x5EED,
            srlg_grid: 5,
            search_ms: 25.0,
            loss_points: vec![0.0, 0.1],
            fail_at_ms: 100.0,
            run_until_ms: 3000.0,
        }
    }
}

impl ProtectConfig {
    /// Generates the campaign topology (same seeded-Waxman idiom as the
    /// base campaign).
    ///
    /// # Errors
    ///
    /// Propagates generator configuration errors.
    pub fn topology(&self) -> Result<Graph, NetError> {
        Ok(WaxmanConfig::new(self.nodes)
            .alpha(self.alpha)
            .beta(self.beta)
            .seed(self.base_seed ^ 0x9E37_79B9)
            .generate()?
            .into_graph())
    }

    /// Samples the source and member set (the base campaign's group-0
    /// draw, so a protection sweep and a campaign with the same seed
    /// study the same session).
    pub fn pick_members(&self, graph: &Graph) -> (NodeId, Vec<NodeId>) {
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(self.base_seed.wrapping_add(0xA5A5_A5A5));
        let mut ids: Vec<NodeId> = graph.node_ids().collect();
        ids.shuffle(&mut rng);
        let take = self.group_size.min(ids.len() - 1);
        (ids[0], ids[1..=take].to_vec())
    }

    /// The scenario-generator knobs the axis uses: strictly single-event
    /// families (`k = 1`), always persistent — protection plans answer
    /// "one thing broke", and the two-failure regime is exercised by the
    /// directed stale-plan tests instead of Monte-Carlo noise.
    fn generator(&self) -> GeneratorConfig {
        GeneratorConfig {
            k_link: 1,
            k_node: 1,
            srlg_grid: self.srlg_grid,
            transient_fraction: 0.0,
            ..GeneratorConfig::default()
        }
    }

    /// Generates every case of the sweep: `loss_points × PROTECT_FAMILIES
    /// × scenarios_per_cell`, ids sequential in that order.
    pub fn cases(&self, graph: &Graph) -> Vec<ProtectCase> {
        let gen_cfg = self.generator();
        let mut out = Vec::new();
        let mut id = 0u32;
        for &loss in &self.loss_points {
            for family in PROTECT_FAMILIES {
                for _ in 0..self.scenarios_per_cell {
                    out.push(ProtectCase {
                        case: generate_case(graph, &gen_cfg, family, id, self.base_seed),
                        loss,
                    });
                    id += 1;
                }
            }
        }
        out
    }
}

/// One generated case of the sweep: the fault plus the ambient loss its
/// cell runs under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtectCase {
    /// The generated fault (id, family, seed, scenario, timing).
    pub case: FaultCase,
    /// Ambient per-message control-plane loss of this case's cell.
    pub loss: f64,
}

/// One (case, mode) evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtectEval {
    /// The classification, in the base campaign's taxonomy.
    pub outcome: Outcome,
    /// Members whose tree path the failure broke.
    pub affected: u32,
    /// Affected members that regained service within the run.
    pub restored: u32,
    /// Restoration latencies of restored members, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Control-plane health during the run.
    pub health: ControlHealth,
    /// Protection-plane counters (plans held, activations, discards).
    pub protection: ProtectionHealth,
    /// Control messages the session's lanes sent.
    pub control_messages: u64,
    /// Invariant violations the auditor found (shared by both modes: the
    /// audit checks the planner, not the strategy).
    pub violations: u32,
}

impl ProtectEval {
    fn short_circuit(outcome: Outcome, affected: u32, violations: u32) -> ProtectEval {
        ProtectEval {
            outcome,
            affected,
            restored: 0,
            latencies_ms: Vec::new(),
            health: ControlHealth::default(),
            protection: ProtectionHealth::default(),
            control_messages: 0,
            violations,
        }
    }
}

/// Evaluates one case in one recovery mode against the shared session.
pub fn evaluate_protect(
    graph: &Graph,
    multi: &MultiSession<'_>,
    cfg: &ProtectConfig,
    pc: &ProtectCase,
    mode: ProtectMode,
) -> ProtectEval {
    let scenario = &pc.case.scenario;
    let session = multi.session(GroupId::new(0));
    // The strategy only changes when/where plans come from, so the
    // campaign's triage (and its one audit) covers both arms.
    let pre = triage(graph, session, scenario, DetourKind::Local);
    let affected = pre.affected.len() as u32;
    if let Some(outcome) = pre.fixed {
        return ProtectEval::short_circuit(outcome, affected, pre.violations.len() as u32);
    }

    let strategy = match mode {
        ProtectMode::Protection => RecoveryStrategy::Protection,
        ProtectMode::Reactive => RecoveryStrategy::ReactiveSearch {
            search: SimTime::from_ms(cfg.search_ms),
        },
    };
    // Both modes of a case draw the same channel seed, so they fight the
    // same loss pattern.
    let channel = if pc.loss > 0.0 {
        ChannelSpec::uniform_loss(pc.loss, pc.case.seed.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    } else {
        ChannelSpec::perfect()
    };
    let spec = FailureSpec {
        channel,
        ..FailureSpec::persistent(
            scenario,
            strategy,
            SimTime::from_ms(cfg.fail_at_ms),
            SimTime::from_ms(cfg.run_until_ms),
        )
    };
    let report = multi.run(&spec, TraceLog::disabled()).report;
    let slice = &report.groups[0];
    let protection = slice.protection;
    let latencies_ms = slice.latencies_ms();
    let restored = latencies_ms.len() as u32;
    let outcome = if slice.all_restored() {
        if protection.stale_discards > 0 {
            Outcome::RestoredAfterReplan
        } else {
            Outcome::RestoredLocalDetour
        }
    } else {
        // The sweep injects every case persistently: nothing heals.
        unrestored_verdict(graph, session.source(), scenario, slice, false)
    };
    ProtectEval {
        outcome,
        affected,
        restored,
        latencies_ms,
        health: report.health,
        protection,
        control_messages: slice.control.total(),
        violations: 0,
    }
}

/// One case evaluated in both modes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtectCaseResult {
    /// The case (fault + cell loss).
    pub case: ProtectCase,
    /// The protection-mode evaluation.
    pub protection: ProtectEval,
    /// The reactive-mode evaluation.
    pub reactive: ProtectEval,
}

impl ProtectCaseResult {
    /// The evaluation for `mode`.
    pub fn for_mode(&self, mode: ProtectMode) -> &ProtectEval {
        match mode {
            ProtectMode::Protection => &self.protection,
            ProtectMode::Reactive => &self.reactive,
        }
    }
}

/// The raw output of a protection sweep, in case-id order.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectRun {
    /// The evaluated configuration.
    pub config: ProtectConfig,
    /// Per-case results, sorted by case id.
    pub results: Vec<ProtectCaseResult>,
}

/// Runs a protection-vs-reactive sweep on `jobs` worker threads.
///
/// Determinism contract: identical to [`crate::campaign::run_campaign`] —
/// cases are generated up front and (case, mode) items go through the
/// crate's ordered parallel map, so any job count (0 is read as 1)
/// produces an identical [`ProtectRun`].
///
/// # Errors
///
/// Returns [`NetError::InvalidParameter`] if a loss point lies outside
/// `[0, 1)` or appears twice (the report files each case under one
/// point); otherwise propagates topology-generation failures.
///
/// # Panics
///
/// Panics if a worker thread panics (a bug in the evaluator itself).
pub fn run_protect(cfg: &ProtectConfig, jobs: usize) -> Result<ProtectRun, NetError> {
    let points = &cfg.loss_points;
    let repeated = (1..points.len()).any(|i| points[..i].contains(&points[i]));
    if repeated || !points.iter().all(|p| (0.0..1.0).contains(p)) {
        return Err(NetError::InvalidParameter {
            name: "loss_points",
            reason: "each loss point must lie in [0, 1) and appear once",
        });
    }
    let graph = cfg.topology()?;
    let (source, members) = cfg.pick_members(&graph);
    let mut session = ProtoSession::build(
        &graph,
        source,
        &members,
        TreeProtocol::Smrp(SmrpConfig::default()),
    )
    .expect("SMRP session builds on a connected topology");
    // Feed the geometric conduits into the session so protection plans
    // cover whole shared-risk groups, matching the Srlg fault family.
    session.set_srlgs(derive_srlgs(&graph, cfg.srlg_grid));
    let multi = MultiSession::from_sessions(vec![session]);

    let cases = cfg.cases(&graph);
    let arms = ProtectMode::ALL.len();
    let evaluated = ordered_par_map(jobs, cases.len() * arms, |i| {
        evaluate_protect(
            &graph,
            &multi,
            cfg,
            &cases[i / arms],
            ProtectMode::ALL[i % arms],
        )
    });
    let results = cases
        .into_iter()
        .zip(evaluated.chunks_exact(arms))
        .map(|(case, arm)| ProtectCaseResult {
            case,
            protection: arm[0].clone(),
            reactive: arm[1].clone(),
        })
        .collect();
    Ok(ProtectRun {
        config: cfg.clone(),
        results,
    })
}

/// Aggregate of one mode across the whole sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModeSummary {
    /// The mode.
    pub mode: ProtectMode,
    /// Restored members across all cases.
    pub restored_members: u64,
    /// Mean restoration latency, milliseconds.
    pub mean_ms: f64,
    /// Median restoration latency, milliseconds — the headline number.
    pub p50_ms: f64,
    /// 95th-percentile restoration latency, milliseconds.
    pub p95_ms: f64,
    /// Worst restoration latency, milliseconds.
    pub max_ms: f64,
    /// Control messages sent across all cases — the control overhead of
    /// the mode.
    pub control_messages: u64,
    /// Reliable-layer and channel counters summed over every case.
    pub health: ControlHealth,
    /// Retry-budget exhaustions from perfect-channel cells, excluding
    /// cases classified [`Outcome::RestoredAfterReplan`] (their
    /// exhaustions are the legitimate dead-component probes that
    /// triggered the stale discard). The sweep gates on zero.
    pub exhaustions_without_gray: u64,
    /// Protection-plane counters summed over every case: `plans_held` is
    /// the mode's standing state overhead, zero for the reactive arm.
    pub protection: ProtectionHealth,
}

/// Latency row of one (family × loss × mode) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtectCell {
    /// The fault family.
    pub family: FaultFamily,
    /// The cell's ambient loss.
    pub loss: f64,
    /// The mode.
    pub mode: ProtectMode,
    /// Cases in the cell.
    pub cases: u32,
    /// Restored members across the cell's cases.
    pub restored_members: u64,
    /// Mean restoration latency, milliseconds.
    pub mean_ms: f64,
    /// Median restoration latency, milliseconds.
    pub p50_ms: f64,
    /// Worst restoration latency, milliseconds.
    pub max_ms: f64,
}

/// The headline comparison at one loss point: median restoration latency
/// of activation vs search over the same seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LossPointSummary {
    /// The ambient loss.
    pub loss: f64,
    /// Restored members behind the protection median.
    pub protection_restored: u64,
    /// Protection-mode median restoration latency, milliseconds.
    pub protection_p50_ms: f64,
    /// Restored members behind the reactive median.
    pub reactive_restored: u64,
    /// Reactive-mode median restoration latency, milliseconds.
    pub reactive_p50_ms: f64,
}

/// Outcome tally of one mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModeOutcomeRow {
    /// The mode.
    pub mode: ProtectMode,
    /// The outcome class.
    pub outcome: Outcome,
    /// Cases of the mode that landed in the class.
    pub count: u32,
}

/// The full protection-sweep report, as written to disk. A pure function
/// of the [`ProtectRun`], so byte-identical across machines and `--jobs`
/// values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtectReport {
    /// The configuration the sweep ran with.
    pub config: ProtectConfig,
    /// Cases evaluated (each in both modes).
    pub cases: u32,
    /// Total invariant violations across all cases.
    pub total_violations: u32,
    /// Outcome tallies, modes in [`ProtectMode::ALL`] order, outcomes in
    /// [`Outcome::ALL`] order within a mode.
    pub outcomes: Vec<ModeOutcomeRow>,
    /// Per-mode aggregates, in [`ProtectMode::ALL`] order.
    pub modes: Vec<ModeSummary>,
    /// Per-(family × loss × mode) latency cells, loss points in config
    /// order, families in [`PROTECT_FAMILIES`] order, modes in
    /// [`ProtectMode::ALL`] order.
    pub cells: Vec<ProtectCell>,
    /// The headline medians per loss point, in config order.
    pub loss_points: Vec<LossPointSummary>,
}

impl ProtectReport {
    /// Builds the report from a finished sweep.
    pub fn from_run(run: &ProtectRun) -> Self {
        let mut total_violations = 0u32;
        let mut outcome_counts = vec![0u32; ProtectMode::ALL.len() * Outcome::ALL.len()];
        let mut mode_samples: Vec<Vec<f64>> = vec![Vec::new(); ProtectMode::ALL.len()];
        let mut modes: Vec<ModeSummary> = ProtectMode::ALL
            .iter()
            .map(|&mode| ModeSummary {
                mode,
                restored_members: 0,
                mean_ms: 0.0,
                p50_ms: 0.0,
                p95_ms: 0.0,
                max_ms: 0.0,
                control_messages: 0,
                health: ControlHealth::default(),
                exhaustions_without_gray: 0,
                protection: ProtectionHealth::default(),
            })
            .collect();
        // (loss index, family index, mode index) → latency samples.
        let fam_idx = |f: FaultFamily| {
            PROTECT_FAMILIES
                .iter()
                .position(|&pf| pf == f)
                .expect("sweep cases come from PROTECT_FAMILIES")
        };
        let loss_idx = |loss: f64| {
            run.config
                .loss_points
                .iter()
                .position(|&l| l == loss)
                .expect("sweep cases come from configured loss points")
        };
        let mut cell_samples: Vec<Vec<f64>> =
            vec![
                Vec::new();
                run.config.loss_points.len() * PROTECT_FAMILIES.len() * ProtectMode::ALL.len()
            ];
        let mut cell_cases =
            vec![
                0u32;
                run.config.loss_points.len() * PROTECT_FAMILIES.len() * ProtectMode::ALL.len()
            ];

        for r in &run.results {
            // Both arms audit the same planner, so count violations once.
            total_violations += r.protection.violations;
            for (mi, &mode) in ProtectMode::ALL.iter().enumerate() {
                let e = r.for_mode(mode);
                outcome_counts[mi * Outcome::ALL.len()
                    + Outcome::ALL
                        .iter()
                        .position(|&o| o == e.outcome)
                        .expect("every outcome is in ALL")] += 1;
                mode_samples[mi].extend_from_slice(&e.latencies_ms);
                modes[mi].restored_members += u64::from(e.restored);
                modes[mi].control_messages += e.control_messages;
                modes[mi].health.merge(&e.health);
                modes[mi].protection.merge(&e.protection);
                if r.case.case.channel.overrides.is_empty()
                    && e.outcome != Outcome::RestoredAfterReplan
                {
                    modes[mi].exhaustions_without_gray += e.health.retry_exhaustions;
                }
                let ci = (loss_idx(r.case.loss) * PROTECT_FAMILIES.len()
                    + fam_idx(r.case.case.family))
                    * ProtectMode::ALL.len()
                    + mi;
                cell_samples[ci].extend_from_slice(&e.latencies_ms);
                cell_cases[ci] += 1;
            }
        }

        for (mi, samples) in mode_samples.iter().enumerate() {
            let s = LatencySummary::from_samples(crate::campaign::ProtoKind::Smrp, samples.clone());
            modes[mi].mean_ms = s.mean_ms;
            modes[mi].p50_ms = s.p50_ms;
            modes[mi].p95_ms = s.p95_ms;
            modes[mi].max_ms = s.max_ms;
        }

        let mut cells = Vec::new();
        for (li, &loss) in run.config.loss_points.iter().enumerate() {
            for (fi, &family) in PROTECT_FAMILIES.iter().enumerate() {
                for (mi, &mode) in ProtectMode::ALL.iter().enumerate() {
                    let ci = (li * PROTECT_FAMILIES.len() + fi) * ProtectMode::ALL.len() + mi;
                    let s = LatencySummary::from_samples(
                        crate::campaign::ProtoKind::Smrp,
                        cell_samples[ci].clone(),
                    );
                    cells.push(ProtectCell {
                        family,
                        loss,
                        mode,
                        cases: cell_cases[ci],
                        restored_members: s.count,
                        mean_ms: s.mean_ms,
                        p50_ms: s.p50_ms,
                        max_ms: s.max_ms,
                    });
                }
            }
        }

        let loss_points = run
            .config
            .loss_points
            .iter()
            .map(|&loss| {
                let per_mode: Vec<(u64, f64)> = ProtectMode::ALL
                    .iter()
                    .map(|&mode| {
                        let samples: Vec<f64> = run
                            .results
                            .iter()
                            .filter(|r| r.case.loss == loss)
                            .flat_map(|r| r.for_mode(mode).latencies_ms.iter().copied())
                            .collect();
                        let s =
                            LatencySummary::from_samples(crate::campaign::ProtoKind::Smrp, samples);
                        (s.count, s.p50_ms)
                    })
                    .collect();
                LossPointSummary {
                    loss,
                    protection_restored: per_mode[0].0,
                    protection_p50_ms: per_mode[0].1,
                    reactive_restored: per_mode[1].0,
                    reactive_p50_ms: per_mode[1].1,
                }
            })
            .collect();

        let outcomes = ProtectMode::ALL
            .iter()
            .enumerate()
            .flat_map(|(mi, &mode)| {
                Outcome::ALL
                    .iter()
                    .enumerate()
                    .map(move |(oi, &outcome)| (mode, outcome, mi * Outcome::ALL.len() + oi))
            })
            .map(|(mode, outcome, idx)| ModeOutcomeRow {
                mode,
                outcome,
                count: outcome_counts[idx],
            })
            .collect();

        ProtectReport {
            config: run.config.clone(),
            cases: run.results.len() as u32,
            total_violations,
            outcomes,
            modes,
            cells,
            loss_points,
        }
    }

    /// Whether the sweep is clean (no invariant violations anywhere).
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// Clean *and* no retry exhaustion outside gray-link/replan cases in
    /// either mode: the gate the `faultlab` binary (and CI) fails on.
    pub fn is_healthy(&self) -> bool {
        self.is_clean() && self.modes.iter().all(|m| m.exhaustions_without_gray == 0)
    }

    /// Whether precomputed activation strictly beat on-demand search at
    /// every loss point (the axis's headline claim). A loss point with no
    /// restored members in either arm has no medians to compare and
    /// counts as a loss — a sweep that restored nobody proved nothing.
    pub fn protection_wins(&self) -> bool {
        self.loss_points.iter().all(|lp| {
            lp.protection_restored > 0
                && lp.reactive_restored > 0
                && lp.protection_p50_ms < lp.reactive_p50_ms
        })
    }

    /// Stable pretty-printed JSON form (what the `faultlab` binary
    /// writes).
    ///
    /// # Panics
    ///
    /// Never panics in practice: the report contains no non-serializable
    /// values.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Short human-readable synopsis for terminal output.
    pub fn synopsis(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "protect sweep: {} cases on n={} (seed {:#x}) — {}",
            self.cases,
            self.config.nodes,
            self.config.base_seed,
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} INVARIANT VIOLATIONS", self.total_violations)
            }
        );
        for lp in &self.loss_points {
            let _ = writeln!(
                out,
                "  loss={:.0}%: protection p50={:.2}ms vs reactive p50={:.2}ms",
                lp.loss * 100.0,
                lp.protection_p50_ms,
                lp.reactive_p50_ms,
            );
        }
        for m in &self.modes {
            let _ = writeln!(
                out,
                "  {}: restored={} p50={:.2}ms p95={:.2}ms control-msgs={} plans-held={} activations={} stale-discards={}",
                m.mode,
                m.restored_members,
                m.p50_ms,
                m.p95_ms,
                m.control_messages,
                m.protection.plans_held,
                m.protection.activations,
                m.protection.stale_discards,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::Timing;
    use smrp_net::FailureScenario;

    // Small enough to run fast, dense enough that single cuts actually
    // hit the tree (a 10-member tree on 18 nodes covers most links).
    fn smoke_config() -> ProtectConfig {
        ProtectConfig {
            nodes: 18,
            group_size: 10,
            scenarios_per_cell: 6,
            base_seed: 11,
            run_until_ms: 2000.0,
            ..ProtectConfig::default()
        }
    }

    #[test]
    fn jobs_do_not_change_results() {
        let cfg = smoke_config();
        let a = run_protect(&cfg, 1).unwrap();
        let b = run_protect(&cfg, 4).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            ProtectReport::from_run(&a).to_json(),
            ProtectReport::from_run(&b).to_json()
        );
    }

    #[test]
    fn sweep_is_healthy_and_protection_beats_search() {
        let run = run_protect(&smoke_config(), 2).unwrap();
        let report = ProtectReport::from_run(&run);
        assert!(report.is_clean(), "violations: {}", report.total_violations);
        assert!(report.is_healthy(), "modes: {:#?}", report.modes);
        assert!(
            report.protection_wins(),
            "loss points: {:#?}",
            report.loss_points
        );
        // The protection arm held standing state and used it; the
        // reactive arm held none.
        let prot = &report.modes[0];
        let react = &report.modes[1];
        assert_eq!(prot.mode, ProtectMode::Protection);
        assert!(prot.protection.plans_held > 0, "protection holds plans");
        assert!(prot.protection.activations > 0, "plans actually fired");
        assert_eq!(react.protection.plans_held, 0, "reactive holds no plans");
        // The grid is fully populated.
        assert_eq!(
            report.cells.len(),
            run.config.loss_points.len() * PROTECT_FAMILIES.len() * ProtectMode::ALL.len()
        );
        assert_eq!(
            report.outcomes.len(),
            ProtectMode::ALL.len() * Outcome::ALL.len()
        );
        for mode in ProtectMode::ALL {
            let total: u32 = report
                .outcomes
                .iter()
                .filter(|r| r.mode == mode)
                .map(|r| r.count)
                .sum();
            assert_eq!(total, report.cases, "{mode}: every case lands in one class");
        }
        assert!(report.synopsis().contains("protection p50"));
    }

    #[test]
    fn repeated_or_out_of_range_loss_points_are_rejected() {
        for points in [
            vec![0.0, 0.0],
            vec![0.0, 0.1, 0.1],
            vec![0.0, 1.0],
            vec![-0.1],
        ] {
            let cfg = ProtectConfig {
                loss_points: points.clone(),
                ..smoke_config()
            };
            assert!(
                matches!(
                    run_protect(&cfg, 1),
                    Err(NetError::InvalidParameter {
                        name: "loss_points",
                        ..
                    })
                ),
                "{points:?} must be rejected"
            );
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = ProtectReport::from_run(&run_protect(&smoke_config(), 2).unwrap());
        let back: ProtectReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(report, back);
    }

    /// The directed two-failure regression, at the campaign layer: the
    /// upstream link and the relay of the *primary* (most conservative)
    /// backup plan die together, so the activated plan fails against the
    /// dead relay — caught by whichever signal lands first, the
    /// activation-confirmation window or the relay probe's retry
    /// exhaustion — is discarded as stale, and the next cached plan in
    /// the chain restores through the other relay. That is
    /// [`Outcome::RestoredAfterReplan`] — a success class — and any
    /// exhaustions it produces must not fail the health gate.
    ///
    /// The chain needs two *distinct* paths, so the graph is shaped to
    /// split the contingencies: the node-protecting plan must avoid the
    /// upstream `a` entirely (relay `x`, straight to the source), while
    /// the cheaper link-only plan re-attaches at `a` through relay `b` —
    /// a path the conservative contingency forbids.
    #[test]
    fn stale_plan_discard_classifies_as_restored_after_replan() {
        let mut g = Graph::with_nodes(5);
        let ids: Vec<NodeId> = g.node_ids().collect();
        let (s, a, d, b, x) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        g.add_link(s, a, 0.5).unwrap();
        let l_ad = g.add_link(a, d, 0.5).unwrap();
        // Conservative detour: d-x-s, avoiding a wholesale.
        g.add_link(d, x, 1.0).unwrap();
        g.add_link(x, s, 1.0).unwrap();
        // Cheaper link-only detour: d-b-a, re-attaching at a.
        g.add_link(d, b, 0.6).unwrap();
        g.add_link(b, a, 0.6).unwrap();
        let session =
            ProtoSession::build(&g, s, &[d], TreeProtocol::Smrp(SmrpConfig::default())).unwrap();
        let multi = MultiSession::from_sessions(vec![session]);
        let cfg = ProtectConfig {
            nodes: 5,
            group_size: 1,
            run_until_ms: 3000.0,
            ..ProtectConfig::default()
        };
        // Cut the upstream link and kill the conservative plan's relay.
        let mut scenario = FailureScenario::link(l_ad);
        scenario.fail_node(x);
        let pc = ProtectCase {
            case: FaultCase {
                id: 0,
                family: FaultFamily::KLink,
                seed: 1,
                scenario,
                timing: Timing::persistent(),
                channel: ChannelSpec::perfect(),
            },
            loss: 0.0,
        };
        let prot = evaluate_protect(&g, &multi, &cfg, &pc, ProtectMode::Protection);
        assert_eq!(prot.outcome, Outcome::RestoredAfterReplan, "{prot:#?}");
        assert_eq!(prot.restored, prot.affected);
        assert!(prot.protection.stale_discards >= 1);
        // The reactive arm plans around both failures up front: no
        // discard, clean local restoration.
        let react = evaluate_protect(&g, &multi, &cfg, &pc, ProtectMode::Reactive);
        assert_eq!(react.outcome, Outcome::RestoredLocalDetour, "{react:#?}");
        assert_eq!(react.protection.stale_discards, 0);
        // And the report-side health gate treats the replan exhaustions
        // as legitimate.
        let run = ProtectRun {
            config: cfg,
            results: vec![ProtectCaseResult {
                case: pc,
                protection: prot,
                reactive: react,
            }],
        };
        let report = ProtectReport::from_run(&run);
        assert!(report.is_healthy(), "modes: {:#?}", report.modes);
        assert_eq!(
            report
                .outcomes
                .iter()
                .find(|r| {
                    r.mode == ProtectMode::Protection && r.outcome == Outcome::RestoredAfterReplan
                })
                .unwrap()
                .count,
            1
        );
    }
}
