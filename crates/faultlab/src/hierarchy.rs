//! Wire-level campaigns over N-level recovery domains (§3.3.3
//! generalized), with aggregated member populations and a DomainLocality
//! audit.
//!
//! The analytic hierarchy engine (`smrp_proto::hierarchy::NLevelSession`)
//! attributes each link failure to its owning recovery domain and computes
//! a repair confined to that domain's subgraph. This module puts those
//! repairs on the wire: every active domain's session tree (re-exported to
//! global coordinates, population weights included) becomes one group of a
//! [`MultiSession`], the failure is injected into the shared simulator,
//! and the domain-confined restoration paths are installed verbatim as
//! recovery plans — the planner never sees topology outside the owning
//! domain (`PlanSource::Explicit` is the seam).
//!
//! Each domain's group models that domain's data plane: its root (the real
//! source, or the domain's agent) feeds the domain's members, aggregated
//! populations and child agents. The hierarchical relay between domains is
//! the analytic layer's contract; on the wire the campaign checks the
//! properties the architecture promises per domain:
//!
//! * **DomainLocality** — every control message of a domain's session
//!   stays inside that domain's session node set. For a new-agent
//!   election the owner's corridor through the elected child (the
//!   installed plan path) is the one sanctioned extension. The audit
//!   observes every simulator event as it happens, so a single stray
//!   `Hello` across a border fails the campaign;
//! * **restoration** — every member the failure cut off regains service
//!   within the run, timed from the injection;
//! * **determinism** — reports depend only on the configuration: any
//!   `--jobs` value produces identical runs.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use smrp_core::SmrpConfig;
use smrp_metrics::{DomainRollup, LocalityHealth, Stats};
use smrp_net::nlevel::{NLevelConfig, NLevelTopology};
use smrp_net::transit_stub::DomainId;
use smrp_net::{FailureScenario, GroupId, LinkId, NetError, NodeId};
use smrp_proto::hierarchy::{NLevelSession, WirePlan};
use smrp_proto::{FailureSpec, MultiSession, PlanSource, ProtoSession, RecoveryPlan};
use smrp_sim::{SimTime, TraceEvent, TraceLog};

use crate::par::ordered_par_map;

/// Knobs of a hierarchical campaign. Serialized into the report header;
/// the job count never enters the report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Depth of the domain tree (2 = the paper's transit-stub shape).
    pub levels: u32,
    /// Nodes in the root (top transit) domain.
    pub root_nodes: usize,
    /// Child domains hung off each node of the level above.
    pub fanout: usize,
    /// Nodes per non-root domain.
    pub domain_nodes: usize,
    /// Aggregated receivers spread over the leaf domains (Eq. 2 weights);
    /// 0 disables populations.
    pub population: u64,
    /// Real members sampled per leaf domain (the source's leaf excluded).
    pub members_per_leaf: usize,
    /// Intra-domain extra-edge probability (detour richness).
    pub extra_edge_prob: f64,
    /// Probability that a non-root domain gets a redundant backup gateway
    /// (enables new-agent elections on gateway cuts).
    pub redundant_gateway_prob: f64,
    /// Number of failed-link cases to evaluate (drawn from the union of
    /// all domain-session tree links).
    pub scenarios: usize,
    /// Base RNG seed; topology, members and case sampling derive sub-seeds.
    pub base_seed: u64,
    /// When the failure is injected, in milliseconds.
    pub fail_at_ms: f64,
    /// Simulation horizon per case, in milliseconds.
    pub run_until_ms: f64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            levels: 3,
            root_nodes: 4,
            fanout: 2,
            domain_nodes: 8,
            population: 10_000,
            members_per_leaf: 2,
            extra_edge_prob: 0.45,
            redundant_gateway_prob: 0.35,
            scenarios: 48,
            base_seed: 0x5EED,
            fail_at_ms: 100.0,
            run_until_ms: 1500.0,
        }
    }
}

impl HierarchyConfig {
    /// Generates the campaign's N-level topology.
    ///
    /// # Errors
    ///
    /// Propagates generator parameter validation.
    pub fn topology(&self) -> Result<NLevelTopology, NetError> {
        let mut c = NLevelConfig::new(self.root_nodes)
            .extra_edge_prob(self.extra_edge_prob)
            .redundant_gateway_prob(self.redundant_gateway_prob)
            .population(self.population)
            .seed(self.base_seed ^ 0x9E37_79B9);
        for _ in 1..self.levels {
            c = c.level(self.fanout, self.domain_nodes);
        }
        c.generate()
    }

    /// Samples the source (first leaf domain) and the member set (a few
    /// nodes per remaining leaf), deterministically in the base seed.
    pub fn pick_members(&self, topo: &NLevelTopology) -> (NodeId, Vec<NodeId>) {
        let mut rng = SmallRng::seed_from_u64(self.base_seed.wrapping_add(0xA5A5_A5A5));
        let leaves: Vec<_> = topo.leaf_domains().collect();
        let source = leaves[0].nodes()[0];
        let mut members = Vec::new();
        for leaf in leaves.iter().skip(1) {
            let mut nodes: Vec<NodeId> = leaf.nodes().to_vec();
            nodes.shuffle(&mut rng);
            members.extend(nodes.into_iter().take(self.members_per_leaf));
        }
        if members.is_empty() && leaves[0].nodes().len() > 1 {
            // Degenerate single-leaf shapes still get one member so the
            // session is non-trivial.
            members.push(leaves[0].nodes()[1]);
        }
        (source, members)
    }
}

/// One generated failure case: a link carried by some domain's session
/// tree, attributed to its owning domain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchyCase {
    /// Dense case id (report order).
    pub id: u32,
    /// The failed link.
    pub link: LinkId,
    /// The recovery domain that owns the failure.
    pub owner: DomainId,
    /// Whether the link is a gateway (border) link rather than an
    /// intra-domain one.
    pub gateway: bool,
}

/// How one hierarchy case ended, in ascending severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HierarchyOutcome {
    /// The failed link carried no session traffic.
    Unaffected,
    /// Repaired inside the owning domain; every affected member restored.
    ConfinedRepair,
    /// The primary border attachment died; a new agent was elected over a
    /// backup gateway and every affected member restored.
    EscalatedElection,
    /// No in-domain detour and no usable backup gateway exist.
    Unrepairable,
    /// A plan was installed but some member never regained service.
    DetectionMissed,
}

impl HierarchyOutcome {
    /// Stable kebab-case name (used as report keys).
    pub fn name(&self) -> &'static str {
        match self {
            HierarchyOutcome::Unaffected => "unaffected",
            HierarchyOutcome::ConfinedRepair => "confined-repair",
            HierarchyOutcome::EscalatedElection => "escalated-election",
            HierarchyOutcome::Unrepairable => "unrepairable",
            HierarchyOutcome::DetectionMissed => "detection-missed",
        }
    }
}

/// One domain's slice of a case evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainSlice {
    /// The domain.
    pub domain: DomainId,
    /// Control messages this domain's lanes sent during the run.
    pub control_messages: u64,
    /// Control messages of this domain's session observed outside its
    /// sanctioned node set (must be zero).
    pub border_crossings: u64,
}

/// The evaluation of one hierarchy case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyCaseResult {
    /// The case.
    pub case: HierarchyCase,
    /// The classification.
    pub outcome: HierarchyOutcome,
    /// Real members the analytic layer attributes the outage to
    /// (conservative, per §3.3.3 reporting granularity).
    pub affected_members: u32,
    /// Receivers (members + aggregated populations) behind the outage.
    pub affected_population: u64,
    /// Members of the owner's session tree the failure actually cut off
    /// on the wire.
    pub wire_affected: u32,
    /// Wire-affected members that regained service within the run.
    pub restored: u32,
    /// Restoration latencies in milliseconds, member order.
    pub latencies_ms: Vec<f64>,
    /// New-agent elections performed.
    pub elections: u32,
    /// Domains the repair touched (0 = unaffected, 1 = confined).
    pub domains_involved: u32,
    /// Whether every event of the run was audited. Always `true`: the
    /// audit reads events as they happen, so there is no buffer to
    /// overflow. Kept because reports and the benchmark read it.
    pub audited: bool,
    /// Per-domain control spend and locality verdicts, in group order.
    pub domains: Vec<DomainSlice>,
}

/// The raw output of a hierarchy campaign, in case-id order.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyRun {
    /// The evaluated configuration.
    pub config: HierarchyConfig,
    /// Per-case results, sorted by case id.
    pub results: Vec<HierarchyCaseResult>,
    /// Hierarchy level of each active domain, in group order.
    pub domain_levels: Vec<u32>,
    /// Total nodes in the generated topology.
    pub nodes: usize,
    /// Total receivers (real members + aggregated populations).
    pub total_population: u64,
    /// Active recovery domains (sessions actually built).
    pub active_domains: usize,
}

/// Everything shared by the per-case workers.
struct Lab<'s> {
    cfg: &'s HierarchyConfig,
    nsess: &'s NLevelSession,
    multi: &'s MultiSession<'s>,
    /// Active domain ids, in group order.
    domains: &'s [DomainId],
    /// `allowed[g][node]`: `node` is inside group `g`'s sanctioned set.
    allowed: &'s [Vec<bool>],
}

/// A repair's domain-confined restoration paths as installable wire
/// plans of the owning domain's group.
fn wire_plans(owner_group: usize, plans: &[WirePlan]) -> Vec<(GroupId, NodeId, RecoveryPlan)> {
    plans
        .iter()
        .map(|p| {
            (
                GroupId::new(owner_group),
                p.member,
                RecoveryPlan {
                    path: p.path.clone(),
                    wait: SimTime::ZERO,
                    path_delay: SimTime::from_ms(p.delay_ms),
                },
            )
        })
        .collect()
}

/// The DomainLocality audit of one run: every sent message of group `g`
/// must stay inside `g`'s sanctioned node set. An election extends the
/// *owner's* set by the installed corridor through the elected child
/// domain. Fed one event at a time, it keeps only the per-group counts.
struct LocalityAudit<'a> {
    allowed: &'a [Vec<bool>],
    owner_group: usize,
    owner_allowed: Vec<bool>,
    /// Border crossings seen so far, in group order.
    crossings: Vec<u64>,
}

impl<'a> LocalityAudit<'a> {
    fn new(
        allowed: &'a [Vec<bool>],
        owner_group: usize,
        plans: &[(GroupId, NodeId, RecoveryPlan)],
    ) -> Self {
        let mut owner_allowed = allowed[owner_group].clone();
        for (_, _, plan) in plans {
            for n in &plan.path {
                owner_allowed[n.index()] = true;
            }
        }
        LocalityAudit {
            allowed,
            owner_group,
            owner_allowed,
            crossings: vec![0; allowed.len()],
        }
    }

    fn observe(&mut self, ev: &TraceEvent) {
        let TraceEvent::Sent { from, to, what, .. } = ev else {
            return;
        };
        let Some(g) = what.group.map(GroupId::index) else {
            return;
        };
        let allowed = if g == self.owner_group {
            &self.owner_allowed
        } else {
            &self.allowed[g]
        };
        if !allowed[from.index()] || !allowed[to.index()] {
            self.crossings[g] += 1;
        }
    }
}

fn evaluate_case(lab: &Lab<'_>, case: HierarchyCase) -> HierarchyCaseResult {
    let cfg = lab.cfg;
    let scenario = FailureScenario::link(case.link);
    // A case with no run: nobody affected on the wire, nothing spent,
    // nothing to audit.
    let undecided = |outcome| HierarchyCaseResult {
        case,
        outcome,
        affected_members: 0,
        affected_population: 0,
        wire_affected: 0,
        restored: 0,
        latencies_ms: Vec::new(),
        elections: 0,
        domains_involved: 0,
        audited: true,
        domains: lab
            .domains
            .iter()
            .map(|&d| DomainSlice {
                domain: d,
                control_messages: 0,
                border_crossings: 0,
            })
            .collect(),
    };

    // No in-domain detour and no backup gateway: the architecture has no
    // doctrine to put on the wire.
    let Ok(rec) = lab.nsess.recover(case.link) else {
        return undecided(HierarchyOutcome::Unrepairable);
    };
    if rec.domains_involved == 0 {
        return undecided(HierarchyOutcome::Unaffected);
    }

    let owner_group = lab
        .domains
        .iter()
        .position(|&d| d == rec.owner)
        .expect("owner of an affecting failure runs a session");
    let plans = wire_plans(owner_group, &rec.plans);

    let mut audit = LocalityAudit::new(lab.allowed, owner_group, &plans);
    let spec = FailureSpec::persistent(
        &scenario,
        PlanSource::Explicit(&plans),
        SimTime::from_ms(cfg.fail_at_ms),
        SimTime::from_ms(cfg.run_until_ms),
    );
    let report = lab
        .multi
        .run(&spec, TraceLog::observer(|ev| audit.observe(ev)))
        .report;
    let mut crossings = audit.crossings;
    // A failure leaking into another domain's *data plane* is a
    // confinement violation too: non-owner groups must be untouched.
    for (g, slice) in report.groups.iter().enumerate() {
        if g != owner_group && !slice.restorations.is_empty() {
            crossings[g] += slice.restorations.len() as u64;
        }
    }

    let owner_slice = &report.groups[owner_group];
    let latencies_ms = owner_slice.latencies_ms();
    let restored = latencies_ms.len() as u32;
    let wire_affected = owner_slice.restorations.len() as u32;
    let outcome = if !owner_slice.all_restored() {
        HierarchyOutcome::DetectionMissed
    } else if rec.elections.is_empty() {
        HierarchyOutcome::ConfinedRepair
    } else {
        HierarchyOutcome::EscalatedElection
    };

    let domains = lab
        .domains
        .iter()
        .enumerate()
        .map(|(g, &d)| DomainSlice {
            domain: d,
            control_messages: report.groups[g].control.total(),
            border_crossings: crossings[g],
        })
        .collect();

    HierarchyCaseResult {
        case,
        outcome,
        affected_members: rec.affected_members.len() as u32,
        affected_population: rec.affected_population,
        wire_affected,
        restored,
        latencies_ms,
        elections: rec.elections.len() as u32,
        domains_involved: rec.domains_involved as u32,
        audited: true,
        domains,
    }
}

/// Generates the case list: the union of every domain session's tree
/// links (in link-id order), sampled down to `scenarios` with a seeded
/// shuffle when there are more.
fn generate_cases(
    cfg: &HierarchyConfig,
    nsess: &NLevelSession,
    domains: &[DomainId],
) -> Vec<HierarchyCase> {
    let graph = nsess.topology().graph();
    let mut seen = vec![false; graph.link_count()];
    for &d in domains {
        let tree = nsess
            .domain_tree_global(d)
            .expect("active domains have trees");
        for l in tree.links(graph) {
            seen[l.index()] = true;
        }
    }
    let mut links: Vec<LinkId> = (0..seen.len())
        .filter(|&i| seen[i])
        .map(LinkId::new)
        .collect();
    if links.len() > cfg.scenarios {
        let mut rng = SmallRng::seed_from_u64(cfg.base_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        links.shuffle(&mut rng);
        links.truncate(cfg.scenarios);
        links.sort_by_key(|l| l.index());
    }
    links
        .into_iter()
        .enumerate()
        .map(|(i, link)| {
            let owner = nsess.owning_domain(link);
            let l = graph.link(link);
            let gateway = nsess.topology().domain_of(l.a()) != nsess.topology().domain_of(l.b());
            HierarchyCase {
                id: i as u32,
                link,
                owner,
                gateway,
            }
        })
        .collect()
}

/// Runs a hierarchical campaign on `jobs` worker threads.
///
/// # Errors
///
/// Propagates topology-generation failures.
///
/// # Panics
///
/// Panics if a worker thread panics (a bug in the evaluator itself).
pub fn run_hierarchy(cfg: &HierarchyConfig, jobs: usize) -> Result<HierarchyRun, NetError> {
    let topo = cfg.topology()?;
    let (source, members) = cfg.pick_members(&topo);
    let nsess = NLevelSession::build(&topo, source, &members, SmrpConfig::default())
        .expect("hierarchy sessions build on generated topologies");
    let graph = nsess.topology().graph();
    let domains = nsess.active_domain_ids();

    let mut sessions = Vec::with_capacity(domains.len());
    let mut allowed = Vec::with_capacity(domains.len());
    for &d in &domains {
        let tree = nsess
            .domain_tree_global(d)
            .expect("active domains have trees");
        sessions.push(ProtoSession::from_tree(graph, tree));
        let mut bits = vec![false; graph.node_count()];
        for &n in nsess
            .domain_session_nodes(d)
            .expect("active domains have session nodes")
        {
            bits[n.index()] = true;
        }
        allowed.push(bits);
    }
    let multi = MultiSession::from_sessions(sessions);

    let cases = generate_cases(cfg, &nsess, &domains);
    let lab = Lab {
        cfg,
        nsess: &nsess,
        multi: &multi,
        domains: &domains,
        allowed: &allowed,
    };

    let results = ordered_par_map(jobs, cases.len(), |i| evaluate_case(&lab, cases[i]));
    let domain_levels = domains
        .iter()
        .map(|d| topo.domains()[d.index()].level())
        .collect();
    Ok(HierarchyRun {
        config: cfg.clone(),
        results,
        domain_levels,
        nodes: graph.node_count(),
        total_population: nsess.total_population(),
        active_domains: domains.len(),
    })
}

/// Restoration-latency distribution of a hierarchy campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyLatency {
    /// Restored members across all cases.
    pub count: u64,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Median latency.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// Worst restoration.
    pub max_ms: f64,
}

impl HierarchyLatency {
    fn from_samples(mut samples: Vec<f64>) -> Self {
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
        HierarchyLatency {
            count: samples.len() as u64,
            mean_ms: if samples.is_empty() {
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

/// The stable JSON report of a hierarchy campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyReport {
    /// The evaluated configuration.
    pub config: HierarchyConfig,
    /// Topology size.
    pub nodes: usize,
    /// Total receivers served (real members + aggregated populations).
    pub total_population: u64,
    /// Active recovery domains.
    pub active_domains: usize,
    /// Cases evaluated.
    pub cases: u32,
    /// Outcome histogram, keyed by stable outcome name.
    pub outcomes: BTreeMap<String, u32>,
    /// Campaign-level DomainLocality verdict.
    pub locality: LocalityHealth,
    /// Per-domain rollups, in group order.
    pub domains: Vec<DomainRollup>,
    /// Restoration-latency distribution across every restored member.
    pub restoration: HierarchyLatency,
    /// New-agent elections across the campaign.
    pub elections: u64,
}

impl HierarchyReport {
    /// Builds the report from a run.
    pub fn from_run(run: &HierarchyRun) -> Self {
        let mut outcomes: BTreeMap<String, u32> = BTreeMap::new();
        let mut locality = LocalityHealth::default();
        let mut domains: Vec<DomainRollup> = Vec::new();
        let mut latencies = Vec::new();
        let mut elections = 0u64;
        for r in &run.results {
            *outcomes.entry(r.outcome.name().to_string()).or_insert(0) += 1;
            locality.cases_audited += u64::from(r.audited);
            locality.cases_unaudited += u64::from(!r.audited);
            elections += u64::from(r.elections);
            latencies.extend(r.latencies_ms.iter().copied());
            for s in &r.domains {
                locality.border_crossings += s.border_crossings;
            }
        }
        // Per-domain rollups keyed by group order of the first result (all
        // results share the group order).
        if let Some(first) = run.results.first() {
            for (i, s) in first.domains.iter().enumerate() {
                domains.push(DomainRollup::new(
                    s.domain.index() as u32,
                    run.domain_levels[i],
                ));
            }
        }
        for r in &run.results {
            for (i, s) in r.domains.iter().enumerate() {
                domains[i].control_messages += s.control_messages;
                domains[i].border_crossings += s.border_crossings;
            }
            if let Some(d) = domains
                .iter_mut()
                .find(|d| d.domain == r.case.owner.index() as u32)
            {
                match r.outcome {
                    HierarchyOutcome::Unaffected => {}
                    HierarchyOutcome::Unrepairable => {
                        d.cases_owned += 1;
                        d.unrepairable += 1;
                    }
                    _ => {
                        d.cases_owned += 1;
                        d.affected_members += u64::from(r.affected_members);
                        d.affected_population += r.affected_population;
                        d.restored_members += u64::from(r.restored);
                        d.elections += u64::from(r.elections);
                    }
                }
            }
        }
        HierarchyReport {
            config: run.config.clone(),
            nodes: run.nodes,
            total_population: run.total_population,
            active_domains: run.active_domains,
            cases: run.results.len() as u32,
            outcomes,
            locality,
            domains,
            restoration: HierarchyLatency::from_samples(latencies),
            elections,
        }
    }

    /// Whether the campaign is clean: zero border crossings, every case
    /// audited, and no member left unrestored where doctrine applied.
    pub fn is_clean(&self) -> bool {
        self.locality.is_clean() && self.outcomes.get("detection-missed").copied().unwrap_or(0) == 0
    }

    /// One-paragraph terminal synopsis.
    pub fn synopsis(&self) -> String {
        let mut s = format!(
            "hierarchy: levels={} nodes={} domains={} population={} cases={}\n",
            self.config.levels, self.nodes, self.active_domains, self.total_population, self.cases,
        );
        for (k, v) in &self.outcomes {
            s.push_str(&format!("  {k}: {v}\n"));
        }
        s.push_str(&format!(
            "  restoration: n={} mean={:.2}ms p95={:.2}ms | elections={} | border crossings={} ({} unaudited)\n",
            self.restoration.count,
            self.restoration.mean_ms,
            self.restoration.p95_ms,
            self.elections,
            self.locality.border_crossings,
            self.locality.cases_unaudited,
        ));
        s
    }

    /// Serializes the report as stable pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("hierarchy report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> HierarchyConfig {
        HierarchyConfig {
            levels: 3,
            root_nodes: 3,
            fanout: 2,
            domain_nodes: 6,
            population: 5_000,
            scenarios: 18,
            base_seed: 42,
            run_until_ms: 1200.0,
            ..HierarchyConfig::default()
        }
    }

    #[test]
    fn hierarchy_campaign_is_confined_and_restores() {
        let run = run_hierarchy(&small(), 2).unwrap();
        let report = HierarchyReport::from_run(&run);
        assert_eq!(report.cases as usize, run.results.len());
        assert!(report.cases > 0);
        assert!(
            report.is_clean(),
            "locality or restoration failed:\n{}",
            report.synopsis()
        );
        // The campaign exercised actual repairs, not just unaffected links.
        let repaired = report.outcomes.get("confined-repair").copied().unwrap_or(0)
            + report
                .outcomes
                .get("escalated-election")
                .copied()
                .unwrap_or(0);
        assert!(repaired > 0, "no repairs exercised:\n{}", report.synopsis());
        assert!(report.restoration.count > 0);
        assert!(report.total_population >= 5_000);
    }

    #[test]
    fn jobs_do_not_change_results() {
        let cfg = small();
        let a = run_hierarchy(&cfg, 1).unwrap();
        let b = run_hierarchy(&cfg, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn two_level_config_matches_transit_stub_shape() {
        let cfg = HierarchyConfig {
            levels: 2,
            scenarios: 12,
            population: 0,
            ..small()
        };
        let run = run_hierarchy(&cfg, 2).unwrap();
        let report = HierarchyReport::from_run(&run);
        assert!(report.is_clean(), "{}", report.synopsis());
        assert_eq!(report.config.levels, 2);
    }

    #[test]
    fn streaming_audit_counts_what_a_buffered_trace_holds() {
        let cfg = small();
        let topo = cfg.topology().unwrap();
        let (source, members) = cfg.pick_members(&topo);
        let nsess = NLevelSession::build(&topo, source, &members, SmrpConfig::default()).unwrap();
        let graph = nsess.topology().graph();
        let domains = nsess.active_domain_ids();
        let sessions = domains
            .iter()
            .map(|&d| ProtoSession::from_tree(graph, nsess.domain_tree_global(d).unwrap()))
            .collect();
        let multi = MultiSession::from_sessions(sessions);
        let (link, rec) = domains
            .iter()
            .flat_map(|&d| nsess.domain_tree_global(d).unwrap().links(graph))
            .find_map(|l| match nsess.recover(l) {
                Ok(rec) if !rec.plans.is_empty() => Some((l, rec)),
                _ => None,
            })
            .expect("some repairable tree link exists");
        let owner_group = domains.iter().position(|&d| d == rec.owner).unwrap();
        let plans = wire_plans(owner_group, &rec.plans);
        let scenario = FailureScenario::link(link);
        let spec = FailureSpec::persistent(
            &scenario,
            PlanSource::Explicit(&plans),
            SimTime::from_ms(100.0),
            SimTime::from_ms(cfg.run_until_ms),
        );
        let run = |log| {
            let run = multi.run(&spec, log);
            (run.report, run.trace)
        };

        // Sanction nothing, so that every send of every group is a
        // crossing and the counts are non-trivial.
        let allowed = vec![vec![false; graph.node_count()]; domains.len()];
        let (buffered_report, log) = run(TraceLog::new(2_000_000));
        assert_eq!(log.discarded(), 0, "the buffer must hold the whole run");
        let mut buffered = LocalityAudit::new(&allowed, owner_group, &[]);
        log.entries().iter().for_each(|ev| buffered.observe(ev));
        let sends = log
            .entries()
            .iter()
            .filter(|ev| matches!(ev, TraceEvent::Sent { .. }))
            .count() as u64;
        drop(log);

        let mut streamed = LocalityAudit::new(&allowed, owner_group, &[]);
        let (report, log) = run(TraceLog::observer(|ev| streamed.observe(ev)));
        assert!(log.is_empty(), "an observer retains nothing");
        drop(log);

        assert_eq!(streamed.crossings, buffered.crossings);
        assert!(streamed.crossings.iter().filter(|&&c| c > 0).count() > 1);
        assert_eq!(streamed.crossings.iter().sum::<u64>(), sends);
        assert_eq!(format!("{report:?}"), format!("{buffered_report:?}"));
    }

    #[test]
    fn gateway_cases_are_attributed_to_the_parent_side() {
        let cfg = small();
        let run = run_hierarchy(&cfg, 2).unwrap();
        let topo = cfg.topology().unwrap();
        for r in &run.results {
            if r.case.gateway {
                // A gateway link is owned by the shallower (parent-side)
                // domain, never the child.
                let l = topo.graph().link(r.case.link);
                let da = topo.domain_of(l.a());
                let db = topo.domain_of(l.b());
                let owner_level = topo.domains()[r.case.owner.index()].level();
                let other = if r.case.owner == da { db } else { da };
                assert!(owner_level <= topo.domains()[other.index()].level());
            }
        }
    }
}
