//! Campaign reports: aggregation, reproducers and stable JSON output.
//!
//! The report is a pure function of the [`CampaignRun`] — it echoes the
//! configuration, tabulates outcomes per (family × protocol), summarises
//! the restoration-latency distribution per protocol, and attaches a
//! minimal reproducer (case seed + scenario JSON) for every invariant
//! violation. Job counts and wall-clock never enter the report, so the
//! serialized form is byte-identical across machines and `--jobs` values.

use serde::{Deserialize, Serialize};
use smrp_metrics::{ControlHealth, ProtectionHealth, Stats};
use smrp_net::GroupId;

use crate::audit::Violation;
use crate::campaign::{CampaignConfig, CampaignRun, CaseResult, Outcome, ProtoKind, ProtoOutcome};
use crate::generate::{FaultCase, FaultFamily};

/// Outcome counts of one (family, protocol) cell.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    /// The fault family of this cell.
    pub family: FaultFamily,
    /// The protocol of this cell.
    pub proto: ProtoKind,
    /// Cases whose failure missed the tree.
    pub unaffected: u32,
    /// Cases fully restored through clean fragment-root local detours.
    pub restored_local_detour: u32,
    /// Cases fully restored after at least one stale cached plan was
    /// discarded and recovery re-planned around it.
    pub restored_after_replan: u32,
    /// Cases fully restored some other way (global detour, per-member
    /// fallback, transient repair).
    pub fell_back_global: u32,
    /// Cases with members no protocol could restore.
    pub source_partitioned: u32,
    /// Cases where a reachable member never regained service.
    pub detection_missed: u32,
    /// Cases the invariant auditor rejected.
    pub invariant_violation: u32,
}

impl OutcomeCounts {
    fn new(family: FaultFamily, proto: ProtoKind) -> Self {
        OutcomeCounts {
            family,
            proto,
            unaffected: 0,
            restored_local_detour: 0,
            restored_after_replan: 0,
            fell_back_global: 0,
            source_partitioned: 0,
            detection_missed: 0,
            invariant_violation: 0,
        }
    }

    fn bump(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Unaffected => self.unaffected += 1,
            Outcome::RestoredLocalDetour => self.restored_local_detour += 1,
            Outcome::RestoredAfterReplan => self.restored_after_replan += 1,
            Outcome::FellBackGlobal => self.fell_back_global += 1,
            Outcome::SourcePartitioned => self.source_partitioned += 1,
            Outcome::DetectionMissed => self.detection_missed += 1,
            Outcome::InvariantViolation => self.invariant_violation += 1,
        }
    }

    /// Cases in this cell that landed in `outcome`.
    fn count(&self, outcome: Outcome) -> u32 {
        match outcome {
            Outcome::Unaffected => self.unaffected,
            Outcome::RestoredLocalDetour => self.restored_local_detour,
            Outcome::RestoredAfterReplan => self.restored_after_replan,
            Outcome::FellBackGlobal => self.fell_back_global,
            Outcome::SourcePartitioned => self.source_partitioned,
            Outcome::DetectionMissed => self.detection_missed,
            Outcome::InvariantViolation => self.invariant_violation,
        }
    }
}

/// Five-number summary of one protocol's restoration-latency distribution
/// (milliseconds, restored members only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// The protocol.
    pub proto: ProtoKind,
    /// Restored members across all cases.
    pub count: u64,
    /// Mean latency.
    pub mean_ms: f64,
    /// Median latency.
    pub p50_ms: f64,
    /// 95th-percentile latency.
    pub p95_ms: f64,
    /// Worst restoration.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarises a latency sample (empty samples yield all-zero rows).
    pub(crate) fn from_samples(proto: ProtoKind, samples: Vec<f64>) -> Self {
        let q = Quantiles::of(samples);
        LatencySummary {
            proto,
            count: q.count,
            mean_ms: q.mean_ms,
            p50_ms: q.p50_ms,
            p95_ms: q.p95_ms,
            max_ms: q.max_ms,
        }
    }
}

/// Nearest-rank five-number summary of a latency sample, in milliseconds:
/// the one quantile rule behind every faultlab report's latency columns
/// (and, whole, the hierarchy report's `restoration`). Empty samples
/// yield all zeros.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Quantiles {
    /// Samples summarised.
    pub count: u64,
    /// Mean latency.
    pub mean_ms: f64,
    /// Median latency.
    pub p50_ms: f64,
    /// 95th-percentile latency.
    pub p95_ms: f64,
    /// Worst latency.
    pub max_ms: f64,
}

impl Quantiles {
    /// Summarises `samples`.
    pub fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let mut stats = Stats::new();
        for &s in &samples {
            stats.push(s);
        }
        let q = |p: f64| -> f64 {
            if samples.is_empty() {
                return 0.0;
            }
            let idx = ((samples.len() - 1) as f64 * p).round() as usize;
            samples[idx]
        };
        Quantiles {
            count: stats.count(),
            mean_ms: if stats.count() == 0 {
                0.0
            } else {
                stats.mean()
            },
            p50_ms: q(0.5),
            p95_ms: q(0.95),
            max_ms: samples.last().copied().unwrap_or(0.0),
        }
    }
}

/// What the campaign and protection reports sum per arm over a run:
/// restored members' latencies, control-plane and protection counters,
/// and the clear-channel exhaustion gate.
#[derive(Debug, Default)]
pub(crate) struct ArmTally {
    pub(crate) latencies_ms: Vec<f64>,
    pub(crate) health: ControlHealth,
    pub(crate) exhaustions_without_gray: u64,
    pub(crate) protection: ProtectionHealth,
}

impl ArmTally {
    /// Adds one (case, arm) evaluation.
    pub(crate) fn absorb(&mut self, case: &FaultCase, o: &ProtoOutcome) {
        self.latencies_ms.extend_from_slice(&o.latencies_ms);
        self.health.merge(&o.health);
        self.protection.merge(&o.protection);
        // Stale-plan discards are triggered by exhaustions that correctly
        // gave up on a dead component; once the re-plan restored everyone,
        // those exhaustions are evidence the safety property worked, not a
        // calibration bug.
        if case.channel.overrides.is_empty() && o.outcome != Outcome::RestoredAfterReplan {
            self.exhaustions_without_gray += o.health.retry_exhaustions;
        }
    }
}

/// Aggregate control-plane health of one protocol across the campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthSummary {
    /// The protocol.
    pub proto: ProtoKind,
    /// Reliable-layer and channel counters summed over every case.
    pub health: ControlHealth,
    /// Retry-budget exhaustions from cases *without* gray-link overrides,
    /// excluding cases classified [`Outcome::RestoredAfterReplan`]. Gray
    /// links drop enough that giving up on them is correct behavior, and a
    /// stale-plan discard is *triggered by* a legitimate exhaustion (the
    /// graft probed a component that really was dead) followed by a
    /// successful re-plan; exhaustion under ambient/uniform loss alone
    /// means the retry budget is miscalibrated, so campaigns gate on this
    /// being zero.
    pub exhaustions_without_gray: u64,
    /// Protection-plane counters summed over every case: plans held,
    /// cached-plan activations and stale discards.
    pub protection: ProtectionHealth,
}

/// Restoration-latency summary of one (family × protocol) cell, the table
/// that makes control-plane-loss inflation readable: compare the
/// `uniform-loss` row against the lossless single-cut families.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilyLatency {
    /// The fault family.
    pub family: FaultFamily,
    /// The protocol.
    pub proto: ProtoKind,
    /// Restored members across the family's cases.
    pub count: u64,
    /// Mean restoration latency, milliseconds.
    pub mean_ms: f64,
    /// Worst restoration latency, milliseconds.
    pub max_ms: f64,
}

/// One group's campaign-wide roll-up under one protocol: its own outcome
/// taxonomy, restoration-latency distribution and control-message
/// overhead. Single-session campaigns have exactly one row per protocol,
/// duplicating the aggregate; multi-session campaigns expose how evenly
/// the substrate served its tenants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupSummary {
    /// The group.
    pub group: GroupId,
    /// The protocol.
    pub proto: ProtoKind,
    /// Cases whose failure missed this group's tree.
    pub unaffected: u32,
    /// Cases this group restored through clean fragment-root local
    /// detours.
    pub restored_local_detour: u32,
    /// Cases this group restored after discarding a stale cached plan.
    pub restored_after_replan: u32,
    /// Cases this group restored some other way.
    pub fell_back_global: u32,
    /// Cases with members of this group no protocol could restore.
    pub source_partitioned: u32,
    /// Cases where a reachable member of this group never regained
    /// service.
    pub detection_missed: u32,
    /// Cases the auditor rejected for this group.
    pub invariant_violation: u32,
    /// Restored members of this group across all cases.
    pub restored_members: u64,
    /// Mean restoration latency, milliseconds.
    pub mean_latency_ms: f64,
    /// 95th-percentile restoration latency, milliseconds.
    pub p95_latency_ms: f64,
    /// Worst restoration latency, milliseconds.
    pub max_latency_ms: f64,
    /// Total control messages this group's router lanes sent across the
    /// campaign — the per-group overhead of sharing the substrate.
    pub control_messages: u64,
}

impl GroupSummary {
    fn new(group: GroupId, proto: ProtoKind) -> Self {
        GroupSummary {
            group,
            proto,
            unaffected: 0,
            restored_local_detour: 0,
            restored_after_replan: 0,
            fell_back_global: 0,
            source_partitioned: 0,
            detection_missed: 0,
            invariant_violation: 0,
            restored_members: 0,
            mean_latency_ms: 0.0,
            p95_latency_ms: 0.0,
            max_latency_ms: 0.0,
            control_messages: 0,
        }
    }

    fn bump(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Unaffected => self.unaffected += 1,
            Outcome::RestoredLocalDetour => self.restored_local_detour += 1,
            Outcome::RestoredAfterReplan => self.restored_after_replan += 1,
            Outcome::FellBackGlobal => self.fell_back_global += 1,
            Outcome::SourcePartitioned => self.source_partitioned += 1,
            Outcome::DetectionMissed => self.detection_missed += 1,
            Outcome::InvariantViolation => self.invariant_violation += 1,
        }
    }
}

/// A minimal reproducer for one audited violation: everything needed to
/// re-run the exact case (`faultlab --replay`): the generated case (id,
/// family, per-case seed, concrete scenario, timing), the protocol it
/// failed under, and the violations themselves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reproducer {
    /// The offending case, verbatim.
    pub case: FaultCase,
    /// Which protocol's recovery broke the invariants.
    pub proto: ProtoKind,
    /// What the auditor saw.
    pub violations: Vec<Violation>,
}

/// One compact per-case row: classification and headline numbers only
/// (full latency vectors live in the aggregate summaries).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseRow {
    /// Campaign-local case id.
    pub id: u32,
    /// Fault family.
    pub family: FaultFamily,
    /// Whether the case was transient.
    pub transient: bool,
    /// Failed links in the scenario.
    pub failed_links: u32,
    /// Failed nodes in the scenario.
    pub failed_nodes: u32,
    /// SMRP classification.
    pub smrp: Outcome,
    /// SPF classification.
    pub spf: Outcome,
    /// Members SMRP had to restore.
    pub affected: u32,
}

/// The full campaign report, as written to disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// The configuration the campaign ran with.
    pub config: CampaignConfig,
    /// Cases evaluated.
    pub cases: u32,
    /// Total invariant violations across all cases and protocols.
    pub total_violations: u32,
    /// Outcome counts per (family × protocol) cell, families in
    /// `FaultFamily::ALL` order, protocols in `ProtoKind::ALL` order.
    pub outcomes: Vec<OutcomeCounts>,
    /// Latency distribution per protocol.
    pub latencies: Vec<LatencySummary>,
    /// Latency distribution per (family × protocol) cell — the loss-
    /// inflation readout.
    pub family_latencies: Vec<FamilyLatency>,
    /// Control-plane health per protocol.
    pub health: Vec<HealthSummary>,
    /// Per-group roll-ups, groups ascending, protocols in
    /// `ProtoKind::ALL` order within a group.
    pub group_summaries: Vec<GroupSummary>,
    /// One reproducer per (case, protocol) with violations.
    pub reproducers: Vec<Reproducer>,
    /// Compact per-case classification rows, in case-id order.
    pub case_rows: Vec<CaseRow>,
}

impl CampaignReport {
    /// Builds the report from a finished run.
    pub fn from_run(run: &CampaignRun) -> Self {
        let mut outcomes: Vec<OutcomeCounts> = FaultFamily::ALL
            .iter()
            .flat_map(|&f| {
                ProtoKind::ALL
                    .iter()
                    .map(move |&p| OutcomeCounts::new(f, p))
            })
            .collect();
        let mut tallies: Vec<ArmTally> =
            ProtoKind::ALL.iter().map(|_| ArmTally::default()).collect();
        let mut family_samples: std::collections::BTreeMap<(FaultFamily, ProtoKind), Vec<f64>> =
            FaultFamily::ALL
                .iter()
                .flat_map(|&f| ProtoKind::ALL.iter().map(move |&p| ((f, p), Vec::new())))
                .collect();
        let groups_n = run.config.groups.max(1);
        let mut group_summaries: Vec<GroupSummary> = (0..groups_n)
            .flat_map(|g| {
                ProtoKind::ALL
                    .iter()
                    .map(move |&p| GroupSummary::new(GroupId::new(g), p))
            })
            .collect();
        let mut group_samples: Vec<Vec<f64>> = vec![Vec::new(); group_summaries.len()];
        let mut reproducers = Vec::new();
        let mut case_rows = Vec::with_capacity(run.results.len());
        let mut total_violations = 0u32;

        for r in &run.results {
            for (pi, &proto) in ProtoKind::ALL.iter().enumerate() {
                let o = r.for_proto(proto);
                for go in &o.groups {
                    let gi = go.group.index() * ProtoKind::ALL.len() + pi;
                    group_summaries[gi].bump(go.outcome);
                    group_summaries[gi].restored_members += u64::from(go.restored);
                    group_summaries[gi].control_messages += go.control.total();
                    group_samples[gi].extend_from_slice(&go.latencies_ms);
                }
                let cell = outcomes
                    .iter_mut()
                    .find(|c| c.family == r.case.family && c.proto == proto)
                    .expect("every (family, proto) cell exists");
                cell.bump(o.outcome);
                tallies[pi].absorb(&r.case, o);
                family_samples
                    .get_mut(&(r.case.family, proto))
                    .expect("every (family, proto) sample exists")
                    .extend_from_slice(&o.latencies_ms);
                if !o.violations.is_empty() {
                    total_violations += o.violations.len() as u32;
                    reproducers.push(Reproducer {
                        case: r.case.clone(),
                        proto,
                        violations: o.violations.clone(),
                    });
                }
            }
            case_rows.push(case_row(r));
        }

        let (latencies, health) = ProtoKind::ALL
            .iter()
            .zip(tallies)
            .map(|(&proto, t)| {
                let health = HealthSummary {
                    proto,
                    health: t.health,
                    exhaustions_without_gray: t.exhaustions_without_gray,
                    protection: t.protection,
                };
                (LatencySummary::from_samples(proto, t.latencies_ms), health)
            })
            .unzip();
        let family_latencies = family_samples
            .into_iter()
            .map(|((family, proto), samples)| {
                let s = LatencySummary::from_samples(proto, samples);
                FamilyLatency {
                    family,
                    proto,
                    count: s.count,
                    mean_ms: s.mean_ms,
                    max_ms: s.max_ms,
                }
            })
            .collect();
        for (row, samples) in group_summaries.iter_mut().zip(group_samples) {
            let s = LatencySummary::from_samples(row.proto, samples);
            row.mean_latency_ms = s.mean_ms;
            row.p95_latency_ms = s.p95_ms;
            row.max_latency_ms = s.max_ms;
        }

        CampaignReport {
            config: run.config.clone(),
            cases: run.results.len() as u32,
            total_violations,
            outcomes,
            latencies,
            family_latencies,
            health,
            group_summaries,
            reproducers,
            case_rows,
        }
    }

    /// Whether the campaign is clean (no invariant violations anywhere).
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// Total retry-budget exhaustions outside gray-link cases, summed over
    /// both protocols. Nonzero means the reliable layer gave up on a
    /// neighbor it should have reached — campaigns gate on zero.
    pub fn clear_channel_exhaustions(&self) -> u64 {
        self.health.iter().map(|h| h.exhaustions_without_gray).sum()
    }

    /// Clean *and* no retry exhaustion outside gray-link cases: the gate
    /// the `faultlab` binary (and CI) fails on.
    pub fn is_healthy(&self) -> bool {
        self.is_clean() && self.clear_channel_exhaustions() == 0
    }

    /// Stable pretty-printed JSON form (what the `faultlab` binary writes).
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
            "campaign: {} cases on n={} (seed {:#x}) — {}",
            self.cases,
            self.config.nodes,
            self.config.base_seed,
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} INVARIANT VIOLATIONS", self.total_violations)
            }
        );
        for o in Outcome::ALL {
            let per_proto: Vec<String> = ProtoKind::ALL
                .iter()
                .map(|&p| {
                    let n: u32 = self
                        .outcomes
                        .iter()
                        .filter(|c| c.proto == p)
                        .map(|c| c.count(o))
                        .sum();
                    format!("{p}={n}")
                })
                .collect();
            let _ = writeln!(out, "  {:<22} {}", o.name(), per_proto.join("  "));
        }
        for l in &self.latencies {
            let _ = writeln!(
                out,
                "  latency[{}]: n={} mean={:.2}ms p50={:.2}ms p95={:.2}ms max={:.2}ms",
                l.proto, l.count, l.mean_ms, l.p50_ms, l.p95_ms, l.max_ms
            );
        }
        for h in &self.health {
            if h.health.is_quiet() {
                continue;
            }
            let _ = writeln!(
                out,
                "  health[{}]: lost={} retransmits={} dup-drops={} exhaustions={} (clear-channel={})",
                h.proto,
                h.health.total_lost(),
                h.health.retransmits,
                h.health.dup_drops,
                h.health.retry_exhaustions,
                h.exhaustions_without_gray,
            );
        }
        for h in &self.health {
            if h.protection.is_quiet() {
                continue;
            }
            let _ = writeln!(
                out,
                "  protection[{}]: plans-held={} activations={} stale-discards={}",
                h.proto,
                h.protection.plans_held,
                h.protection.activations,
                h.protection.stale_discards,
            );
        }
        if self.config.groups > 1 {
            for g in &self.group_summaries {
                let _ = writeln!(
                    out,
                    "  group {}[{}]: restored={} mean={:.2}ms p95={:.2}ms control-msgs={}",
                    g.group,
                    g.proto,
                    g.restored_members,
                    g.mean_latency_ms,
                    g.p95_latency_ms,
                    g.control_messages,
                );
            }
        }
        out
    }
}

fn case_row(r: &CaseResult) -> CaseRow {
    CaseRow {
        id: r.case.id,
        family: r.case.family,
        transient: r.case.timing.transient,
        failed_links: r.case.scenario.failed_links().count() as u32,
        failed_nodes: r.case.scenario.failed_nodes().count() as u32,
        smrp: r.smrp.outcome,
        spf: r.spf.outcome,
        affected: r.smrp.affected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;

    fn tiny_run() -> CampaignRun {
        let cfg = CampaignConfig {
            nodes: 25,
            group_size: 6,
            alpha: 0.3,
            scenarios: 16,
            base_seed: 7,
            run_until_ms: 2000.0,
            ..CampaignConfig::default()
        };
        run_campaign(&cfg, 2).unwrap()
    }

    #[test]
    fn report_accounts_for_every_case() {
        let run = tiny_run();
        let report = CampaignReport::from_run(&run);
        assert_eq!(report.cases, 16);
        assert_eq!(report.case_rows.len(), 16);
        for proto in ProtoKind::ALL {
            let total: u32 = report
                .outcomes
                .iter()
                .filter(|c| c.proto == proto)
                .map(|c| Outcome::ALL.iter().map(|&o| c.count(o)).sum::<u32>())
                .sum();
            assert_eq!(total, 16, "{proto}: every case lands in one cell");
        }
        assert!(report.is_clean());
        assert!(report.reproducers.is_empty());
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = CampaignReport::from_run(&tiny_run());
        let text = report.to_json();
        let back: CampaignReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn latency_summary_orders_quantiles() {
        let s = LatencySummary::from_samples(ProtoKind::Smrp, vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.p50_ms, 3.0);
        assert!(s.p50_ms <= s.p95_ms && s.p95_ms <= s.max_ms);
        assert_eq!(s.max_ms, 5.0);
        let empty = LatencySummary::from_samples(ProtoKind::Spf, Vec::new());
        assert_eq!(empty.count, 0);
        assert_eq!(empty.max_ms, 0.0);
    }

    #[test]
    fn quantiles_follow_the_nearest_rank_rule() {
        let zero = Quantiles {
            count: 0,
            mean_ms: 0.0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            max_ms: 0.0,
        };
        assert_eq!(Quantiles::of(Vec::new()), zero);

        let one = Quantiles::of(vec![7.5]);
        assert_eq!(
            (one.count, one.p50_ms, one.p95_ms, one.max_ms),
            (1, 7.5, 7.5, 7.5)
        );
        assert_eq!(one.mean_ms, 7.5);

        // Even n: the median index is round((n - 1) / 2), the upper middle.
        assert_eq!(Quantiles::of(vec![1.0, 2.0, 3.0, 4.0]).p50_ms, 3.0);

        // n = 20: p95 is index round(19 * 0.95) = 18, the 19th sorted value;
        // the input arrives reversed, so the rule must sort it first.
        let samples: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let q = Quantiles::of(samples.clone());
        assert_eq!(q.count, 20);
        assert_eq!(q.p50_ms, 11.0);
        assert_eq!(q.p95_ms, 19.0);
        assert_eq!(q.max_ms, 20.0);

        let mut stats = Stats::new();
        let unsorted = [0.3, 2.7, 0.1, 9.9, 1.4, 0.7];
        for &s in &unsorted {
            stats.push(s);
        }
        let q = Quantiles::of(unsorted.to_vec());
        assert_eq!(q.mean_ms.to_bits(), stats.mean().to_bits());
        assert_eq!((q.p50_ms, q.max_ms), (1.4, 9.9));
    }

    #[test]
    fn lossy_families_populate_health_and_stay_healthy() {
        let run = tiny_run();
        let report = CampaignReport::from_run(&run);
        assert!(report.is_healthy(), "health: {:?}", report.health);
        // The mix includes uniform-loss and gray-link cases, so the
        // channel must have eaten messages and the reliable layer must
        // have recovered them.
        let lost: u64 = report.health.iter().map(|h| h.health.total_lost()).sum();
        let retx: u64 = report.health.iter().map(|h| h.health.retransmits).sum();
        assert!(lost > 0, "lossy families lose control messages");
        assert!(retx > 0, "the reliable layer retransmits what was lost");
        // Family latency rows cover the full (family × proto) grid.
        assert_eq!(
            report.family_latencies.len(),
            FaultFamily::ALL.len() * ProtoKind::ALL.len()
        );
        assert!(report.synopsis().contains("health[smrp]"));
    }

    #[test]
    fn group_summaries_cover_every_group() {
        let cfg = CampaignConfig {
            nodes: 25,
            group_size: 6,
            groups: 2,
            alpha: 0.3,
            scenarios: 10,
            base_seed: 7,
            run_until_ms: 2000.0,
            ..CampaignConfig::default()
        };
        let run = run_campaign(&cfg, 2).unwrap();
        let report = CampaignReport::from_run(&run);
        assert_eq!(report.group_summaries.len(), 2 * ProtoKind::ALL.len());
        for g in &report.group_summaries {
            // Every case lands in exactly one of this group's outcome
            // classes.
            let total = g.unaffected
                + g.restored_local_detour
                + g.restored_after_replan
                + g.fell_back_global
                + g.source_partitioned
                + g.detection_missed
                + g.invariant_violation;
            assert_eq!(total, 10, "group {} {}", g.group, g.proto);
        }
        // Per-group restored members sum to the aggregate latency count.
        for (pi, l) in report.latencies.iter().enumerate() {
            let per_group: u64 = report
                .group_summaries
                .iter()
                .filter(|g| g.proto == ProtoKind::ALL[pi])
                .map(|g| g.restored_members)
                .sum();
            assert_eq!(per_group, l.count);
        }
        assert!(report.synopsis().contains("group g0[smrp]"));
        assert!(report.synopsis().contains("group g1[spf]"));
    }

    #[test]
    fn synopsis_mentions_violations_when_dirty() {
        let mut report = CampaignReport::from_run(&tiny_run());
        assert!(report.synopsis().contains("clean"));
        report.total_violations = 3;
        assert!(report.synopsis().contains("3 INVARIANT VIOLATIONS"));
    }
}
