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
//! The module owns only the sweep's configuration, its case grid (loss
//! points × [`PROTECT_FAMILIES`]) and its report. Each (case, mode) pair
//! is run and classified by the campaign's evaluator (`evaluate_arm`,
//! also behind [`crate::campaign::evaluate_case`]) — the same triage,
//! simulation and [`Outcome`] rule as the base campaign's SMRP arm, with
//! the mode's [`RecoveryStrategy`] — so both axes judge a restoration the
//! same way. Execution follows the campaign's determinism contract: one
//! work item per (case, mode) through the crate's ordered parallel map,
//! and job count never enters the report — any `--jobs` value produces a
//! byte-identical report.

use serde::{Deserialize, Serialize};
use smrp_core::SmrpConfig;
use smrp_metrics::{ControlHealth, ProtectionHealth};
use smrp_net::{Graph, NetError};
use smrp_proto::{MultiSession, ProtoSession, RecoveryStrategy, TreeProtocol};
use smrp_sim::SimTime;

use crate::campaign::{draw_members, evaluate_arm, waxman_topology, Outcome, ProtoOutcome};
use crate::generate::{generate_case, FaultCase, FaultFamily, FaultIndex, GeneratorConfig};
use crate::par::ordered_par_map;
use crate::report::{ArmTally, Quantiles};

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
    pub(crate) const ALL: [ProtectMode; 2] = [ProtectMode::Protection, ProtectMode::Reactive];

    /// Stable lowercase name.
    pub(crate) fn name(&self) -> &'static str {
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
pub(crate) const PROTECT_FAMILIES: [FaultFamily; 3] =
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
    /// Conduit-grid resolution for SRLG derivation. The sweep derives the
    /// conduits once per topology, and the one table feeds both the `Srlg`
    /// fault family and the session's SRLG metadata, so protection plans
    /// cover exactly the conduits that fail.
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

    /// Runs `pc` through one mode's arm of the campaign's evaluator:
    /// protection activates precomputed plans, the reactive arm pays the
    /// modelled search before it grafts.
    fn evaluate(
        &self,
        graph: &Graph,
        multi: &MultiSession<'_>,
        pc: &ProtectCase,
        mode: ProtectMode,
    ) -> ProtoOutcome {
        let strategy = match mode {
            ProtectMode::Protection => RecoveryStrategy::Protection,
            ProtectMode::Reactive => RecoveryStrategy::ReactiveSearch {
                search: SimTime::from_ms(self.search_ms),
            },
        };
        evaluate_arm(
            graph,
            multi,
            &pc.case,
            strategy,
            pc.loss,
            self.fail_at_ms,
            self.run_until_ms,
        )
    }

    /// Generates every case of the sweep from `index`, the sweep
    /// topology's table: `loss_points × PROTECT_FAMILIES ×
    /// scenarios_per_cell`, ids sequential in that order.
    pub(crate) fn cases(&self, index: &FaultIndex<'_>) -> Vec<ProtectCase> {
        let gen_cfg = self.generator();
        let mut out = Vec::new();
        let mut id = 0u32;
        for &loss in &self.loss_points {
            for family in PROTECT_FAMILIES {
                for _ in 0..self.scenarios_per_cell {
                    out.push(ProtectCase {
                        case: generate_case(index, &gen_cfg, family, id, self.base_seed),
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

/// One case evaluated in both modes, each by the campaign's evaluator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtectCaseResult {
    /// The case (fault + cell loss).
    pub case: ProtectCase,
    /// The protection-mode evaluation.
    pub protection: ProtoOutcome,
    /// The reactive-mode evaluation.
    pub reactive: ProtoOutcome,
}

impl ProtectCaseResult {
    /// The evaluation for `mode`.
    pub(crate) fn for_mode(&self, mode: ProtectMode) -> &ProtoOutcome {
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
/// produces an identical `ProtectRun`.
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
    let graph = waxman_topology(cfg.nodes, cfg.alpha, cfg.beta, cfg.base_seed)?;
    // The campaign's group-0 draw: a sweep and a campaign with the same
    // seed study the same session.
    let (source, members) = draw_members(&graph, cfg.base_seed, cfg.group_size, 0);
    let mut session = ProtoSession::build(
        &graph,
        source,
        &members,
        TreeProtocol::Smrp(SmrpConfig::default()),
    )
    .expect("SMRP session builds on a connected topology");
    // Feed the conduits the Srlg fault family draws from into the session,
    // so protection plans cover whole shared-risk groups.
    let index = FaultIndex::new(&graph, cfg.srlg_grid);
    session.set_srlgs(index.srlgs().to_vec());
    let multi = MultiSession::from_sessions(vec![session]);

    let cases = cfg.cases(&index);
    let arms = ProtectMode::ALL.len();
    let evaluated = ordered_par_map(jobs, cases.len() * arms, |i| {
        cfg.evaluate(&graph, &multi, &cases[i / arms], ProtectMode::ALL[i % arms])
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
/// of the `ProtectRun`, so byte-identical across machines and `--jobs`
/// values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtectReport {
    /// The configuration the sweep ran with.
    pub config: ProtectConfig,
    /// Cases evaluated (each in both modes).
    pub cases: u32,
    /// Total invariant violations across all cases.
    pub total_violations: u32,
    /// Outcome tallies, modes in `ProtectMode::ALL` order, outcomes in
    /// `Outcome::ALL` order within a mode.
    pub outcomes: Vec<ModeOutcomeRow>,
    /// Per-mode aggregates, in `ProtectMode::ALL` order.
    pub modes: Vec<ModeSummary>,
    /// Per-(family × loss × mode) latency cells, loss points in config
    /// order, families in `PROTECT_FAMILIES` order, modes in
    /// `ProtectMode::ALL` order.
    pub cells: Vec<ProtectCell>,
    /// The headline medians per loss point, in config order.
    pub loss_points: Vec<LossPointSummary>,
}

impl ProtectReport {
    /// Builds the report from a finished sweep.
    pub fn from_run(run: &ProtectRun) -> Self {
        let mut outcomes: Vec<ModeOutcomeRow> = ProtectMode::ALL
            .iter()
            .flat_map(|&mode| {
                Outcome::ALL.iter().map(move |&outcome| ModeOutcomeRow {
                    mode,
                    outcome,
                    count: 0,
                })
            })
            .collect();
        let mut tallies = ProtectMode::ALL.map(|_| ArmTally::default());
        let mut control_messages = ProtectMode::ALL.map(|_| 0u64);
        let mut total_violations = 0u32;
        for r in &run.results {
            // Both arms audit the same planner, so count violations once.
            total_violations += r.protection.violations.len() as u32;
            for (mi, &mode) in ProtectMode::ALL.iter().enumerate() {
                let o = r.for_mode(mode);
                outcomes
                    .iter_mut()
                    .find(|row| row.mode == mode && row.outcome == o.outcome)
                    .expect("every (mode, outcome) row exists")
                    .count += 1;
                tallies[mi].absorb(&r.case.case, o);
                control_messages[mi] += o.groups[0].control.total();
            }
        }

        // The number of cases `keep` selects, and `mode`'s restoration
        // latencies over them.
        let sample = |mode: ProtectMode, keep: &dyn Fn(&ProtectCase) -> bool| {
            let rows: Vec<&ProtectCaseResult> =
                run.results.iter().filter(|r| keep(&r.case)).collect();
            let latencies = rows
                .iter()
                .flat_map(|r| r.for_mode(mode).latencies_ms.iter().copied());
            (rows.len() as u32, Quantiles::of(latencies.collect()))
        };
        let mut cells = Vec::new();
        for &loss in &run.config.loss_points {
            for family in PROTECT_FAMILIES {
                for mode in ProtectMode::ALL {
                    let (cases, q) = sample(mode, &|c| c.loss == loss && c.case.family == family);
                    cells.push(ProtectCell {
                        family,
                        loss,
                        mode,
                        cases,
                        restored_members: q.count,
                        mean_ms: q.mean_ms,
                        p50_ms: q.p50_ms,
                        max_ms: q.max_ms,
                    });
                }
            }
        }
        let loss_points = run
            .config
            .loss_points
            .iter()
            .map(|&loss| {
                let [(_, protection), (_, reactive)] =
                    ProtectMode::ALL.map(|mode| sample(mode, &|c| c.loss == loss));
                LossPointSummary {
                    loss,
                    protection_restored: protection.count,
                    protection_p50_ms: protection.p50_ms,
                    reactive_restored: reactive.count,
                    reactive_p50_ms: reactive.p50_ms,
                }
            })
            .collect();
        let modes = ProtectMode::ALL
            .into_iter()
            .zip(tallies)
            .zip(control_messages)
            .map(|((mode, t), control_messages)| {
                let q = Quantiles::of(t.latencies_ms);
                ModeSummary {
                    mode,
                    restored_members: q.count,
                    mean_ms: q.mean_ms,
                    p50_ms: q.p50_ms,
                    p95_ms: q.p95_ms,
                    max_ms: q.max_ms,
                    control_messages,
                    health: t.health,
                    exhaustions_without_gray: t.exhaustions_without_gray,
                    protection: t.protection,
                }
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
    pub(crate) fn is_clean(&self) -> bool {
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
    use smrp_net::{FailureScenario, NodeId};

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
            case: FaultCase::directed(FaultFamily::KLink, scenario),
            loss: 0.0,
        };
        let prot = cfg.evaluate(&g, &multi, &pc, ProtectMode::Protection);
        assert_eq!(prot.outcome, Outcome::RestoredAfterReplan, "{prot:#?}");
        assert_eq!(prot.restored, prot.affected);
        assert!(prot.protection.stale_discards >= 1);
        // The reactive arm plans around both failures up front: no
        // discard, clean local restoration.
        let react = cfg.evaluate(&g, &multi, &pc, ProtectMode::Reactive);
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

    /// One classifier for every arm: a cut that isolates a relay
    /// fragment root (`d` loses both its links) leaves member `e` to graft
    /// on its own over `e-s`. Everyone is restored, but not by a clean
    /// fragment-root detour, so the reactive arm reads
    /// [`Outcome::FellBackGlobal`] exactly as the campaign's SMRP arm does;
    /// the protection arm first activates `d`'s cached plan, which crosses
    /// the dead `d-e`, and restores after the discard.
    #[test]
    fn cornered_relay_root_reads_the_same_in_every_local_arm() {
        use crate::campaign::evaluate_arm;
        use smrp_core::MulticastTree;
        use smrp_net::path::Path;
        use smrp_proto::RecoveryStrategy;

        let mut g = Graph::with_nodes(4);
        let ids: Vec<NodeId> = g.node_ids().collect();
        let (s, a, d, e) = (ids[0], ids[1], ids[2], ids[3]);
        g.add_link(s, a, 1.0).unwrap();
        let l_ad = g.add_link(a, d, 1.0).unwrap();
        let l_de = g.add_link(d, e, 1.0).unwrap();
        g.add_link(e, s, 5.0).unwrap();
        let mut tree = MulticastTree::new(&g, s).unwrap();
        tree.attach_path(&Path::new(vec![e, d, a, s]));
        tree.set_member(e, true).unwrap();
        let multi = MultiSession::from_sessions(vec![ProtoSession::from_tree(&g, tree)]);
        let cfg = ProtectConfig {
            nodes: 4,
            group_size: 1,
            ..ProtectConfig::default()
        };
        let pc = ProtectCase {
            case: FaultCase::directed(FaultFamily::Srlg, FailureScenario::links([l_ad, l_de])),
            loss: 0.0,
        };
        let smrp = evaluate_arm(
            &g,
            &multi,
            &pc.case,
            RecoveryStrategy::LocalDetour,
            0.0,
            cfg.fail_at_ms,
            cfg.run_until_ms,
        );
        let react = cfg.evaluate(&g, &multi, &pc, ProtectMode::Reactive);
        let prot = cfg.evaluate(&g, &multi, &pc, ProtectMode::Protection);
        assert_eq!(smrp.outcome, Outcome::FellBackGlobal, "{smrp:#?}");
        assert_eq!(react.outcome, Outcome::FellBackGlobal, "{react:#?}");
        assert_eq!(prot.outcome, Outcome::RestoredAfterReplan, "{prot:#?}");
        for o in [&smrp, &react, &prot] {
            assert_eq!((o.affected, o.restored), (1, 1));
        }
    }
}
