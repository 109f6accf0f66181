//! One multicast session at the protocol level: its tree, its recovery
//! plans, and the vocabulary of a failure experiment.
//!
//! [`ProtoSession`] holds what `smrp-core` built (an SMRP tree or the SPF
//! baseline) and plans its recoveries; it carries no run settings (router
//! timers and the engine backend belong to the run). [`RecoveryStrategy`]
//! and [`InjectionTiming`] say how and when a failure is handled. The
//! experiment itself — load the trees into routers, pump data, inject the
//! failure, measure each member's **service restoration latency** (the
//! motivating quantity of §1: local detours restore service in
//! heartbeat-detection time, while SPF-based recovery waits for unicast
//! routing to reconverge) — has one implementation,
//! [`MultiSession::run`]; [`ProtoSession::run`] is its one-group case and
//! [`ProtoSession::run_steady`] its one-group, failure-free case.

use smrp_core::recovery::{Contingency, DetourKind, Recovery};
use smrp_core::{MulticastTree, SmrpConfig, SmrpError, SmrpSession, SpfSession};
use smrp_net::{FailureScenario, Graph, GroupId, LinkId, NodeId};
use smrp_sim::{SimTime, TraceLog};

use crate::multi::{FailureSpec, MultiRecoveryReport, MultiSession};
use crate::router::{ControlCounters, RecoveryPlan};

/// Which algorithm builds the multicast tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TreeProtocol {
    /// SMRP with the given configuration.
    Smrp(SmrpConfig),
    /// The shortest-path-first baseline (PIM/MOSPF-style).
    Spf,
}

/// How disconnected fragments restore service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryStrategy {
    /// SMRP: graft to the nearest connected on-tree node immediately after
    /// detection.
    LocalDetour,
    /// SMRP with the on-demand restoration search made explicit: after
    /// detection, the fragment root spends `search` locating a detour
    /// (modelling the §3.3.1 query round against the surviving tree)
    /// before the graft fires. [`LocalDetour`](Self::LocalDetour) treats
    /// that search as free; this variant is the honest reactive baseline
    /// that protection mode is measured against.
    ReactiveSearch {
        /// Modelled on-demand detour-search delay between detection and
        /// graft initiation.
        search: SimTime,
    },
    /// Baseline: wait for unicast reconvergence, then re-join along the new
    /// shortest path.
    GlobalDetour {
        /// Modelled unicast (OSPF) reconvergence delay.
        reconvergence: SimTime,
    },
    /// Proactive protection: every on-tree node precomputes backup detours
    /// against its own upstream contingencies *before* any failure (see
    /// `ProtoSession::protection_plans`) and keeps them cached;
    /// restoration is local plan activation with no search delay. Plans
    /// are computed without knowledge of the scenario actually injected —
    /// the fidelity point that separates protection from the
    /// scenario-aware plan installation of the reactive strategies.
    Protection,
}

impl RecoveryStrategy {
    /// The detour this strategy plans: global for
    /// [`GlobalDetour`](Self::GlobalDetour), local for every other.
    pub fn detour_kind(self) -> DetourKind {
        match self {
            RecoveryStrategy::GlobalDetour { .. } => DetourKind::Global,
            _ => DetourKind::Local,
        }
    }
}

/// When a failure is injected and (optionally) repaired during a run.
///
/// The paper studies *persistent* failures; [`transient`](Self::transient)
/// timing models flapping links and maintenance windows, where the faulty
/// component comes back mid-run via the simulator's repair events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureTiming {
    /// When the failure is injected.
    pub fail_at: SimTime,
    /// When the failed components are repaired (`None` = persistent).
    pub repair_at: Option<SimTime>,
}

impl FailureTiming {
    /// A persistent failure injected at `fail_at` that never heals.
    pub fn persistent(fail_at: SimTime) -> Self {
        FailureTiming {
            fail_at,
            repair_at: None,
        }
    }

    /// A transient failure injected at `fail_at` and repaired at
    /// `repair_at`.
    pub fn transient(fail_at: SimTime, repair_at: SimTime) -> Self {
        FailureTiming {
            fail_at,
            repair_at: Some(repair_at),
        }
    }
}

/// How (and how often) a scenario's components fail during a run.
///
/// [`FailureTiming`] covers the paper's persistent cuts and single-repair
/// transients; `Flapping` injects repeated down/up cycles on the same
/// components — the regime that exercises reboot re-arming and
/// `former_upstream` branch re-extension hardest, because soft state and
/// the reliable layer must survive *several* outages in one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectionTiming {
    /// One injection, optionally repaired once.
    Once(FailureTiming),
    /// Repeated cycles: down at `fail_at`, repaired `down` later, failing
    /// again `up` after that, for `cycles` full cycles (the run ends with
    /// the components up).
    Flapping {
        /// Start of the first outage.
        fail_at: SimTime,
        /// Length of each outage window.
        down: SimTime,
        /// Length of each healthy window between outages.
        up: SimTime,
        /// Number of down/up cycles.
        cycles: u32,
    },
}

impl InjectionTiming {
    /// When the first outage begins.
    pub(crate) fn fail_at(&self) -> SimTime {
        match *self {
            InjectionTiming::Once(t) => t.fail_at,
            InjectionTiming::Flapping { fail_at, .. } => fail_at,
        }
    }

    /// Every `(fail, repair)` event pair this timing schedules; a `None`
    /// repair means the outage is permanent.
    pub(crate) fn schedule(&self) -> Vec<(SimTime, Option<SimTime>)> {
        match *self {
            InjectionTiming::Once(t) => vec![(t.fail_at, t.repair_at)],
            InjectionTiming::Flapping {
                fail_at,
                down,
                up,
                cycles,
            } => (0..cycles.max(1))
                .map(|c| {
                    let start =
                        fail_at + SimTime::from_ms((down.as_ms() + up.as_ms()) * f64::from(c));
                    (start, Some(start + down))
                })
                .collect(),
        }
    }
}

/// The recovery plans one failure scenario induces on a session's tree:
/// which nodes will graft, where, and who is beyond help. Produced by
/// [`ProtoSession::plan_recoveries`]; consumed by [`MultiSession::run`] and by
/// external auditors (the faultlab campaign subsystem) that need the exact
/// restoration paths the routers will execute.
#[derive(Debug, Clone)]
pub struct RecoveryPlans {
    /// Members the scenario cut off from the source, in tree member order
    /// ([`Contingency::affected_members`]).
    pub affected: Vec<NodeId>,
    /// Computed restoration paths, one per grafting node: fragment roots
    /// when the root itself can detour, otherwise individual members of the
    /// cornered root's fragment.
    pub recoveries: Vec<Recovery>,
    /// Fragment roots that had no restoration path of their own (their
    /// members recover individually, triggered by data starvation).
    pub cornered_roots: Vec<NodeId>,
    /// Affected members with no restoration path at all — failed nodes or
    /// members physically partitioned from the surviving tree.
    pub unrecoverable: Vec<NodeId>,
}

impl RecoveryPlans {
    /// Whether every plan is a fragment-root local graft (no member had to
    /// fall back to individual, starvation-triggered recovery).
    pub fn all_root_grafts(&self) -> bool {
        self.cornered_roots.is_empty()
    }

    /// The plan each recovery installs in its member's router lane under
    /// `strategy`, in `recoveries` order: the restoration path, the
    /// strategy's wait before the graft (search or reconvergence; none for
    /// a local detour) and the path's delay over `graph`.
    pub fn router_plans<'a>(
        &'a self,
        graph: &'a Graph,
        strategy: RecoveryStrategy,
    ) -> impl Iterator<Item = (NodeId, RecoveryPlan)> + 'a {
        let wait = match strategy {
            RecoveryStrategy::ReactiveSearch { search } => search,
            RecoveryStrategy::GlobalDetour { reconvergence } => reconvergence,
            RecoveryStrategy::LocalDetour | RecoveryStrategy::Protection => SimTime::ZERO,
        };
        self.recoveries.iter().map(move |rec| {
            let plan = RecoveryPlan::new(graph, rec.restoration_path(), wait);
            (rec.member(), plan)
        })
    }
}

/// Steady-state control-plane overhead of a session (§3.3.2).
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// Observation window.
    pub duration: SimTime,
    /// Control messages sent across all routers, by type.
    pub control: ControlCounters,
    /// Data packets delivered to members.
    pub data_delivered: u64,
    /// Data packets forwarded by routers (link crossings).
    pub data_forwarded: u64,
    /// Number of on-tree routers carrying state.
    pub on_tree_nodes: usize,
}

impl OverheadReport {
    /// Control messages per data packet delivered (the §3.3.2 "fairly
    /// small overhead" quantity).
    pub fn control_per_delivery(&self) -> f64 {
        if self.data_delivered == 0 {
            return f64::INFINITY;
        }
        self.control.total() as f64 / self.data_delivered as f64
    }

    /// Control messages per on-tree router per second.
    pub fn control_rate_per_router(&self) -> f64 {
        let secs = self.duration.as_ms() / 1000.0;
        if secs <= 0.0 || self.on_tree_nodes == 0 {
            return 0.0;
        }
        self.control.total() as f64 / self.on_tree_nodes as f64 / secs
    }
}

/// A protocol-level multicast session ready for failure experiments.
#[derive(Debug, Clone)]
pub struct ProtoSession<'g> {
    graph: &'g Graph,
    source: NodeId,
    tree: MulticastTree,
    srlgs: Vec<Vec<LinkId>>,
}

impl<'g> ProtoSession<'g> {
    /// Builds the multicast tree for `members` with the chosen protocol.
    ///
    /// # Errors
    ///
    /// Propagates tree-construction failures from `smrp-core`.
    pub fn build(
        graph: &'g Graph,
        source: NodeId,
        members: &[NodeId],
        protocol: TreeProtocol,
    ) -> Result<Self, SmrpError> {
        let tree = match protocol {
            TreeProtocol::Smrp(config) => {
                let mut sess = SmrpSession::new(graph, source, config)?;
                for &m in members {
                    sess.join(m)?;
                }
                sess.into_tree()
            }
            TreeProtocol::Spf => {
                let mut sess = SpfSession::new(graph, source)?;
                for &m in members {
                    sess.join(m)?;
                }
                sess.into_tree()
            }
        };
        Ok(ProtoSession {
            graph,
            source,
            tree,
            srlgs: Vec::new(),
        })
    }

    /// Wraps an externally built tree — e.g. one recovery domain of a
    /// hierarchical session re-exported to global coordinates — without
    /// running any join protocol. The source is read off the tree itself;
    /// member weights (aggregated populations) travel with it.
    pub fn from_tree(graph: &'g Graph, tree: MulticastTree) -> Self {
        let source = tree.source();
        ProtoSession {
            graph,
            source,
            tree,
            srlgs: Vec::new(),
        }
    }

    /// Declares the shared-risk link groups protection plans must respect:
    /// a node whose upstream link belongs to an SRLG assumes the *whole
    /// group* fails together when precomputing its primary backup detour.
    /// Has no effect on the reactive strategies.
    pub fn set_srlgs(&mut self, srlgs: Vec<Vec<LinkId>>) {
        self.srlgs = srlgs;
    }

    /// The graph this session's tree lives on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The tree the routers will be loaded with.
    pub fn tree(&self) -> &MulticastTree {
        &self.tree
    }

    /// The multicast source.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Runs the session with no failures for `duration` and reports the
    /// control-plane overhead (§3.3.2): how many hellos, refreshes and
    /// setups the tree costs per unit of useful data delivered. This is
    /// the failure-free `M = 1` case of [`MultiSession::run`], read off the
    /// one group's router lanes.
    pub fn run_steady(&self, duration: SimTime) -> OverheadReport {
        let none = FailureScenario::none();
        let spec = FailureSpec::persistent(
            &none,
            RecoveryStrategy::LocalDetour,
            SimTime::ZERO,
            duration,
        );
        let multi = MultiSession::from_sessions(vec![self.clone()]);
        let run = multi.run(&spec, TraceLog::disabled());

        let mut control = ControlCounters::default();
        let mut data_delivered = 0u64;
        let mut data_forwarded = 0u64;
        for r in run.routers.iter().filter_map(|p| p.lane(GroupId::new(0))) {
            control.merge(&r.control_sent());
            data_forwarded += r.forwarded_count();
            if r.is_member() {
                data_delivered += r.deliveries().len() as u64;
            }
        }
        OverheadReport {
            duration,
            control,
            data_delivered,
            data_forwarded,
            on_tree_nodes: self.tree.on_tree_nodes().count(),
        }
    }

    /// Computes the recovery plans `scenario` induces under detour `kind`,
    /// without running the simulator.
    ///
    /// Fragment roots that can reach the surviving tree graft for their
    /// whole subtree; cornered roots delegate to their members, who recover
    /// individually (§3.1: each disconnected member locates its own
    /// restoration path). Members with no non-faulty route at all are
    /// reported as unrecoverable. Every question goes to one
    /// [`Contingency`], so the surviving set is computed once per call.
    pub fn plan_recoveries(&self, scenario: &FailureScenario, kind: DetourKind) -> RecoveryPlans {
        let contingency = Contingency::new(self.graph, &self.tree, scenario);
        let mut plans = RecoveryPlans {
            affected: contingency.affected_members(),
            recoveries: Vec::new(),
            cornered_roots: Vec::new(),
            unrecoverable: Vec::new(),
        };
        for root in contingency.fragment_roots() {
            match contingency.detour(root, kind) {
                Ok(rec) => plans.recoveries.push(rec),
                Err(_) => {
                    // The fragment root itself is cornered (e.g. its only
                    // link is the failed one).
                    plans.cornered_roots.push(root);
                    for n in self.tree.subtree_nodes(root) {
                        if !self.tree.is_member(n) {
                            continue;
                        }
                        match contingency.detour(n, kind) {
                            Ok(rec) => plans.recoveries.push(rec),
                            Err(_) => plans.unrecoverable.push(n),
                        }
                    }
                }
            }
        }
        // Members whose fragment root is the failed node itself (node
        // failures leave no usable root above them) are not below any
        // fragment root; catch them by scanning affected members not
        // already covered.
        let planned: std::collections::HashSet<NodeId> = plans
            .recoveries
            .iter()
            .map(|r| r.member())
            .chain(plans.cornered_roots.iter().copied())
            .collect();
        // Planned itself, or below a planned graft point.
        let covered = |m: NodeId| {
            std::iter::successors(Some(m), |&n| self.tree.parent(n)).any(|n| planned.contains(&n))
        };
        for &m in &plans.affected {
            if covered(m) || plans.unrecoverable.contains(&m) {
                continue;
            }
            match contingency.detour(m, kind) {
                Ok(rec) => plans.recoveries.push(rec),
                Err(_) => plans.unrecoverable.push(m),
            }
        }
        plans
    }

    /// Precomputes the protection plane: for every on-tree node with an
    /// upstream, a fallback chain of backup detours computed against that
    /// node's *hypothetical* upstream contingencies — no knowledge of any
    /// actual failure is used.
    ///
    /// Contingencies per node `v` with upstream `u`, most conservative
    /// first:
    ///
    /// 1. `u`, the link `v–u`, and every link sharing an SRLG with `v–u`
    ///    (only when SRLG metadata was declared via
    ///    [`set_srlgs`](Self::set_srlgs) and covers the link);
    /// 2. `u` and the link `v–u` (upstream node protection);
    /// 3. the link `v–u` alone (upstream link protection).
    ///
    /// A detour computed against a contingency survives any *subset* of
    /// that contingency actually failing, so the primary plan already
    /// covers single-link, single-node and shared-fate SRLG failures; the
    /// relaxed fallbacks only matter when the conservative contingency
    /// disconnects `v` entirely. Each detour is asked of the entry's own
    /// [`Contingency`]: [`detour`](Contingency::detour) targets the nearest
    /// on-tree node still tree-connected to the source under the
    /// contingency, which automatically excludes `v`'s own subtree.
    pub(crate) fn protection_plans(&self) -> Vec<(NodeId, Vec<RecoveryPlan>)> {
        let mut out = Vec::new();
        for v in self.tree.on_tree_nodes() {
            let Some(u) = self.tree.parent(v) else {
                continue;
            };
            let Some(l) = self.graph.link_between(v, u) else {
                continue;
            };
            // The fallback chain, ordered by contingency *robustness*, not
            // by detour optimality: tier by tier — the shared-risk cell of
            // `v–u` when it has one, then the link `v–u` alone — each tier
            // first with `u` failed too, then without, and each of those
            // first towards the nearest surviving target, then anchored.
            // Anchored entries graft straight onto the source — the one
            // target no remote failure can cut off from itself — instead
            // of the nearest on-tree node judged surviving under the
            // contingency (that judgment is only as good as the
            // contingency, so a wider actual failure can leave every
            // nearby target in the same severed fragment and the
            // activation restores nothing).
            //
            // Cell-avoiding entries come first for shared-fate nodes,
            // *including the cell-avoiding source anchors, ahead of the
            // single-link/node fallbacks*: a shared-fate cut fails many
            // links at once and a plan computed against a narrower
            // contingency routinely crosses another link of the same cell
            // — silently. Each silently-failing entry costs one
            // activation-confirmation window before the rotation advances,
            // so fragile entries ahead of robust ones translate directly
            // into restoration latency. Note the cell-only contingency
            // (without `u`): cells are *geographic*, the links sharing
            // `v–u`'s conduit crowd one neighborhood, so avoiding the cell
            // plus `u` often disconnects `v` locally while the cell alone
            // — exactly robust for a shared-fate cut, which leaves `u`
            // itself alive — survives far more topologies.
            let cell: Vec<LinkId> = self
                .srlgs
                .iter()
                .filter(|g| g.contains(&l))
                .flatten()
                .copied()
                .collect();
            let mut tiers = vec![FailureScenario::link(l)];
            if !cell.is_empty() {
                tiers.insert(0, FailureScenario::links(cell));
            }
            let mut plans: Vec<RecoveryPlan> = Vec::new();
            for links in tiers {
                let [with_u, alone] = [links.clone().with_node(u), links];
                for (avoid, anchored) in [
                    (&with_u, false),
                    (&alone, false),
                    (&with_u, true),
                    (&alone, true),
                ] {
                    let contingency = Contingency::new(self.graph, &self.tree, avoid);
                    let path = if anchored {
                        contingency.anchored_detour(v)
                    } else {
                        let rec = contingency.detour(v, DetourKind::Local).ok();
                        rec.map(|rec| rec.restoration_path().clone())
                    };
                    let Some(path) = path else {
                        continue;
                    };
                    // Relaxed contingencies often rediscover the primary
                    // detour; keep the chain free of duplicates.
                    if plans.iter().all(|rp| rp.path != path.nodes()) {
                        plans.push(RecoveryPlan::new(self.graph, &path, SimTime::ZERO));
                    }
                }
            }
            if !plans.is_empty() {
                out.push((v, plans));
            }
        }
        out
    }

    /// Runs one failure experiment on this session alone: the `M = 1` case
    /// of [`MultiSession::run`], untraced. Read the one group's slice at
    /// `report.groups[0]`.
    pub fn run(&self, spec: &FailureSpec<'_>) -> MultiRecoveryReport {
        MultiSession::from_sessions(vec![self.clone()])
            .run(spec, TraceLog::disabled())
            .report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smrp_core::paper;
    use smrp_sim::ChannelSpec;

    #[test]
    fn figure1_protocol_recovery_local_vs_global() {
        let (graph, nodes) = paper::figure1_graph();
        let session =
            ProtoSession::build(&graph, nodes.s, &[nodes.c, nodes.d], TreeProtocol::Spf).unwrap();
        let l_ad = graph.link_between(nodes.a, nodes.d).unwrap();
        let scenario = FailureScenario::link(l_ad);

        let fail_at = SimTime::from_ms(100.0);
        let until = SimTime::from_ms(5000.0);
        let local = session.run(&FailureSpec::persistent(
            &scenario,
            RecoveryStrategy::LocalDetour,
            fail_at,
            until,
        ));
        let global = session.run(&FailureSpec::persistent(
            &scenario,
            RecoveryStrategy::GlobalDetour {
                reconvergence: SimTime::from_ms(1000.0),
            },
            fail_at,
            until,
        ));
        assert!(
            local.all_restored(),
            "local: {:?}",
            local.groups[0].restorations
        );
        assert!(
            global.all_restored(),
            "global: {:?}",
            global.groups[0].restorations
        );
        let l = local.groups[0].mean_latency_ms().unwrap();
        let g = global.groups[0].mean_latency_ms().unwrap();
        assert!(
            l * 5.0 < g,
            "local detour ({l}ms) should be far faster than waiting for \
             reconvergence ({g}ms)"
        );
    }

    #[test]
    fn unaffected_members_keep_receiving() {
        let (graph, nodes) = paper::figure1_graph();
        let session =
            ProtoSession::build(&graph, nodes.s, &[nodes.c, nodes.d], TreeProtocol::Spf).unwrap();
        let l_ad = graph.link_between(nodes.a, nodes.d).unwrap();
        let scenario = FailureScenario::link(l_ad);
        let report = session.run(&FailureSpec::persistent(
            &scenario,
            RecoveryStrategy::LocalDetour,
            SimTime::from_ms(50.0),
            SimTime::from_ms(1000.0),
        ));
        assert_eq!(report.groups[0].unaffected, vec![nodes.c]);
        assert_eq!(report.groups[0].restorations.len(), 1);
        assert_eq!(report.groups[0].restorations[0].0, nodes.d);
    }

    #[test]
    fn fragment_roots_identify_detection_points() {
        let (graph, nodes) = paper::figure1_graph();
        let session =
            ProtoSession::build(&graph, nodes.s, &[nodes.c, nodes.d], TreeProtocol::Spf).unwrap();
        let l_sa = graph.link_between(nodes.s, nodes.a).unwrap();
        let fragment_roots = |scenario: &FailureScenario| {
            Contingency::new(&graph, session.tree(), scenario).fragment_roots()
        };
        let roots = fragment_roots(&FailureScenario::link(l_sa));
        assert_eq!(roots, vec![nodes.a]);
        let mut roots = fragment_roots(&FailureScenario::node(nodes.a));
        roots.sort();
        assert_eq!(roots, vec![nodes.c, nodes.d]);
    }

    #[test]
    fn smrp_tree_protocol_builds_disjoint_paths() {
        let (graph, nodes) = paper::figure1_graph();
        let config = SmrpConfig {
            d_thresh: 0.5,
            ..SmrpConfig::default()
        };
        let session = ProtoSession::build(
            &graph,
            nodes.s,
            &[nodes.c, nodes.d],
            TreeProtocol::Smrp(config),
        )
        .unwrap();
        // As in Figure 2: D hangs off B.
        assert_eq!(
            session.tree().path_from_source(nodes.d).unwrap().nodes(),
            &[nodes.s, nodes.b, nodes.d]
        );
        // Failing L_SA now leaves D untouched, and C recovers quickly.
        let l_sa = graph.link_between(nodes.s, nodes.a).unwrap();
        let report = session.run(&FailureSpec::persistent(
            &FailureScenario::link(l_sa),
            RecoveryStrategy::LocalDetour,
            SimTime::from_ms(50.0),
            SimTime::from_ms(2000.0),
        ));
        assert_eq!(report.groups[0].unaffected, vec![nodes.d]);
        assert!(report.all_restored());
    }

    #[test]
    fn steady_state_overhead_is_bounded() {
        let (graph, nodes) = paper::figure1_graph();
        let session =
            ProtoSession::build(&graph, nodes.s, &[nodes.c, nodes.d], TreeProtocol::Spf).unwrap();
        let report = session.run_steady(SimTime::from_ms(1000.0));
        // The exact Figure 1 counts under the default timers: 4 on-tree
        // routers, 2 members, one second, no joins or grafts.
        assert_eq!(report.control.hellos, 600);
        assert_eq!(report.control.refreshes, 60);
        assert_eq!(report.control.setups, 0, "no joins/grafts at steady state");
        assert_eq!(report.control.leaves, 0);
        assert_eq!(report.data_delivered, 398);
        assert_eq!(report.data_forwarded, 598);
        assert_eq!(report.on_tree_nodes, 4);
        // Hellos dominate but stay within an order of magnitude of the
        // data volume with the default timers.
        let ratio = report.control_per_delivery();
        assert!(ratio.is_finite());
        assert!(ratio < 10.0, "control per delivery too high: {ratio}");
        assert!(report.control_rate_per_router() > 0.0);
    }

    #[test]
    fn plan_recoveries_reports_root_grafts_and_unrecoverables() {
        let (graph, nodes) = paper::figure1_graph();
        let session =
            ProtoSession::build(&graph, nodes.s, &[nodes.c, nodes.d], TreeProtocol::Spf).unwrap();
        // Single link failure: fragment root A grafts for both members.
        let l_sa = graph.link_between(nodes.s, nodes.a).unwrap();
        let plans = session.plan_recoveries(&FailureScenario::link(l_sa), DetourKind::Local);
        assert_eq!(plans.recoveries.len(), 1);
        assert_eq!(plans.recoveries[0].member(), nodes.a);
        assert!(plans.all_root_grafts());
        assert!(plans.unrecoverable.is_empty());
        // Node failure of a member: the member is unrecoverable, the other
        // fragment root still grafts.
        let plans = session.plan_recoveries(&FailureScenario::node(nodes.d), DetourKind::Local);
        assert!(plans.recoveries.is_empty(), "no usable fragment to graft");
        assert_eq!(plans.unrecoverable, vec![nodes.d]);
    }

    #[test]
    fn transient_failure_restores_service_by_repair_alone() {
        // Tree S - A - C where C's only route is through A: no detour
        // exists, so only the repair can restore service.
        let mut g = Graph::with_nodes(3);
        let ids: Vec<_> = g.node_ids().collect();
        let l_sa = g.add_link(ids[0], ids[1], 1.0).unwrap();
        g.add_link(ids[1], ids[2], 1.0).unwrap();
        let session = ProtoSession::build(&g, ids[0], &[ids[2]], TreeProtocol::Spf).unwrap();
        let scenario = FailureScenario::link(l_sa);
        let persistent = session.run(&FailureSpec::persistent(
            &scenario,
            RecoveryStrategy::LocalDetour,
            SimTime::from_ms(50.0),
            SimTime::from_ms(1500.0),
        ));
        assert!(!persistent.all_restored(), "no detour exists");
        let transient = session.run(&FailureSpec {
            timing: InjectionTiming::Once(FailureTiming::transient(
                SimTime::from_ms(50.0),
                SimTime::from_ms(300.0),
            )),
            ..FailureSpec::persistent(
                &scenario,
                RecoveryStrategy::LocalDetour,
                SimTime::from_ms(50.0),
                SimTime::from_ms(1500.0),
            )
        });
        assert!(transient.all_restored(), "repair heals the only path");
        let latency = transient.groups[0].restorations[0].1.unwrap();
        assert!(
            latency >= SimTime::from_ms(250.0),
            "service was out until the repair: {latency:?}"
        );
    }

    #[test]
    fn unrecoverable_member_reports_none() {
        // Tree S - A - C where C's only other connectivity is through A.
        let mut g = Graph::with_nodes(3);
        let ids: Vec<_> = g.node_ids().collect();
        g.add_link(ids[0], ids[1], 1.0).unwrap();
        g.add_link(ids[1], ids[2], 1.0).unwrap();
        let session = ProtoSession::build(&g, ids[0], &[ids[2]], TreeProtocol::Spf).unwrap();
        let scenario = FailureScenario::node(ids[1]);
        let report = session.run(&FailureSpec::persistent(
            &scenario,
            RecoveryStrategy::LocalDetour,
            SimTime::from_ms(50.0),
            SimTime::from_ms(1000.0),
        ));
        assert_eq!(report.groups[0].restorations, vec![(ids[2], None)]);
        assert!(!report.all_restored());
        assert!(report.groups[0].mean_latency_ms().is_none());
    }

    #[test]
    fn slow_graft_onto_pruned_relay_reextends_the_branch() {
        // Chain S - A - B - M plus a costly side link M - A. The SPF tree
        // is S→A→B→M; cutting B-M orphans M, whose global detour attaches
        // at A via the side link. The 800 ms reconvergence wait outlives
        // the branch's soft state: B (then A) prunes itself long before
        // the graft fires, so the setup merges at an off-tree router and
        // must re-extend the branch toward S.
        let mut g = Graph::with_nodes(4);
        let ids: Vec<_> = g.node_ids().collect();
        g.add_link(ids[0], ids[1], 1.0).unwrap();
        g.add_link(ids[1], ids[2], 1.0).unwrap();
        let l_bm = g.add_link(ids[2], ids[3], 1.0).unwrap();
        g.add_link(ids[3], ids[1], 5.0).unwrap();
        let session = ProtoSession::build(&g, ids[0], &[ids[3]], TreeProtocol::Spf).unwrap();
        assert_eq!(
            session.tree().path_from_source(ids[3]).unwrap().nodes(),
            &[ids[0], ids[1], ids[2], ids[3]]
        );
        let report = session.run(&FailureSpec::persistent(
            &FailureScenario::link(l_bm),
            RecoveryStrategy::GlobalDetour {
                reconvergence: SimTime::from_ms(800.0),
            },
            SimTime::from_ms(100.0),
            SimTime::from_ms(3000.0),
        ));
        assert!(
            report.all_restored(),
            "graft must resurrect the pruned branch: {:?}",
            report.groups[0].restorations
        );
        let latency = report.groups[0].restorations[0].1.unwrap();
        assert!(
            latency >= SimTime::from_ms(800.0),
            "restoration waited out reconvergence: {latency:?}"
        );
    }

    #[test]
    fn lossy_channel_run_restores_with_bounded_health_cost() {
        let (graph, nodes) = paper::figure1_graph();
        let session =
            ProtoSession::build(&graph, nodes.s, &[nodes.c, nodes.d], TreeProtocol::Spf).unwrap();
        let l_ad = graph.link_between(nodes.a, nodes.d).unwrap();
        let channel = ChannelSpec::uniform_loss(0.1, 0xC0FFEE);
        let report = session.run(&FailureSpec {
            channel,
            ..FailureSpec::persistent(
                &FailureScenario::link(l_ad),
                RecoveryStrategy::LocalDetour,
                SimTime::from_ms(100.0),
                SimTime::from_ms(3000.0),
            )
        });
        assert!(
            report.all_restored(),
            "10% uniform loss must not defeat restoration: {:?}",
            report.groups[0].restorations
        );
        // The reliable layer worked for its living: losses happened and
        // were covered; nothing ran out of budget.
        assert!(report.health.total_lost() > 0, "channel should lose some");
        assert!(report.health.retransmits > 0, "losses imply retransmits");
        assert_eq!(report.health.retry_exhaustions, 0, "budget must hold");
        assert!(report.health.acks > 0);
    }

    #[test]
    fn lossy_run_is_deterministic_for_a_fixed_spec() {
        let (graph, nodes) = paper::figure1_graph();
        let session =
            ProtoSession::build(&graph, nodes.s, &[nodes.c, nodes.d], TreeProtocol::Spf).unwrap();
        let l_ad = graph.link_between(nodes.a, nodes.d).unwrap();
        let channel = ChannelSpec::uniform_loss(0.1, 42);
        let run = || {
            session.run(&FailureSpec {
                channel: channel.clone(),
                ..FailureSpec::persistent(
                    &FailureScenario::link(l_ad),
                    RecoveryStrategy::LocalDetour,
                    SimTime::from_ms(100.0),
                    SimTime::from_ms(2000.0),
                )
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.groups[0].restorations, b.groups[0].restorations);
        assert_eq!(a.messages_delivered, b.messages_delivered);
        assert_eq!(a.health, b.health);
    }

    #[test]
    fn flapping_link_service_survives_every_cycle() {
        // S - A - C chain, no detour: each down-window starves the member,
        // each up-window must heal it again via soft state alone.
        let mut g = Graph::with_nodes(3);
        let ids: Vec<_> = g.node_ids().collect();
        let l_sa = g.add_link(ids[0], ids[1], 1.0).unwrap();
        g.add_link(ids[1], ids[2], 1.0).unwrap();
        let session = ProtoSession::build(&g, ids[0], &[ids[2]], TreeProtocol::Spf).unwrap();
        let timing = InjectionTiming::Flapping {
            fail_at: SimTime::from_ms(100.0),
            down: SimTime::from_ms(250.0),
            up: SimTime::from_ms(400.0),
            cycles: 3,
        };
        let report = session.run(&FailureSpec {
            timing,
            ..FailureSpec::persistent(
                &FailureScenario::link(l_sa),
                RecoveryStrategy::LocalDetour,
                SimTime::from_ms(100.0),
                SimTime::from_ms(3000.0),
            )
        });
        assert!(
            report.all_restored(),
            "service heals after the flaps: {:?}",
            report.groups[0].restorations
        );
        // The last cycle ends at 100 + 3*650 - 400 = 1650ms (final repair);
        // service must also be alive *after* that point.
        let member = ids[2];
        assert_eq!(report.groups[0].restorations[0].0, member);
    }

    #[test]
    fn protection_plans_cover_every_upstream_bearing_node() {
        let (graph, nodes) = paper::figure1_graph();
        let session =
            ProtoSession::build(&graph, nodes.s, &[nodes.c, nodes.d], TreeProtocol::Spf).unwrap();
        let plans = session.protection_plans();
        // Every on-tree node except the source holds at least one plan...
        let expected: Vec<NodeId> = session
            .tree()
            .on_tree_nodes()
            .filter(|&n| session.tree().parent(n).is_some())
            .collect();
        let planned: Vec<NodeId> = plans.iter().map(|(n, _)| *n).collect();
        assert_eq!(planned, expected);
        // ...every plan starts at its owner and activates with no wait,
        // and the *primary* (most conservative) plan avoids the upstream
        // node outright. Relaxed fallbacks may legitimately route through
        // it — link protection assumes the node survived.
        for (n, chain) in &plans {
            assert!(!chain.is_empty());
            let up = session.tree().parent(*n).unwrap();
            for plan in chain {
                assert_eq!(plan.path[0], *n);
                assert_eq!(plan.wait, SimTime::ZERO);
            }
            // A source child has no node-protection plan (losing the
            // source is unrecoverable), so its primary legitimately
            // re-attaches *at* the upstream; it must still never transit
            // through it.
            let transit = &chain[0].path[..chain[0].path.len() - 1];
            assert!(
                !transit[1..].contains(&up),
                "the primary detour must not transit the upstream it protects against"
            );
        }
    }

    #[test]
    fn protection_restores_faster_than_reactive_search() {
        let (graph, nodes) = paper::figure1_graph();
        let session =
            ProtoSession::build(&graph, nodes.s, &[nodes.c, nodes.d], TreeProtocol::Spf).unwrap();
        let l_ad = graph.link_between(nodes.a, nodes.d).unwrap();
        let scenario = FailureScenario::link(l_ad);
        let fail_at = SimTime::from_ms(100.0);
        let until = SimTime::from_ms(3000.0);

        let reactive = session.run(&FailureSpec::persistent(
            &scenario,
            RecoveryStrategy::ReactiveSearch {
                search: SimTime::from_ms(25.0),
            },
            fail_at,
            until,
        ));
        let protected = session.run(&FailureSpec::persistent(
            &scenario,
            RecoveryStrategy::Protection,
            fail_at,
            until,
        ));
        assert!(
            reactive.all_restored(),
            "{:?}",
            reactive.groups[0].restorations
        );
        assert!(
            protected.all_restored(),
            "{:?}",
            protected.groups[0].restorations
        );
        let r = reactive.groups[0].mean_latency_ms().unwrap();
        let p = protected.groups[0].mean_latency_ms().unwrap();
        assert!(
            p < r,
            "local activation ({p}ms) must beat the on-demand search ({r}ms)"
        );
        assert!(
            protected.groups[0].protection.plans_held > 0,
            "plans stay cached"
        );
        assert!(
            protected.groups[0].protection.activations >= 1,
            "the plan fired"
        );
        assert_eq!(
            protected.groups[0].protection.stale_discards, 0,
            "nothing staled"
        );
        assert_eq!(
            reactive.groups[0].protection.plans_held, 0,
            "reactive runs hold no protection state"
        );
    }

    #[test]
    fn protection_survives_node_failure_via_conservative_contingency() {
        // Node failure of the relay A: both members' plans were computed
        // against the upstream-node contingency, so local activation must
        // restore them without any scenario-specific planning.
        let (graph, nodes) = paper::figure1_graph();
        let session =
            ProtoSession::build(&graph, nodes.s, &[nodes.c, nodes.d], TreeProtocol::Spf).unwrap();
        let report = session.run(&FailureSpec::persistent(
            &FailureScenario::node(nodes.a),
            RecoveryStrategy::Protection,
            SimTime::from_ms(100.0),
            SimTime::from_ms(3000.0),
        ));
        assert!(report.all_restored(), "{:?}", report.groups[0].restorations);
        assert!(report.groups[0].protection.activations >= 1);
        assert_eq!(report.health.retry_exhaustions, 0);
    }

    #[test]
    fn srlg_aware_plan_avoids_the_whole_shared_fate_group() {
        // Square S - A - M, S - B - M plus a third detour M - C - S. Links
        // A-M and B-M share fate: a plan for M that only avoided its
        // upstream link could pick the sibling link and die with it.
        let mut g = Graph::with_nodes(5);
        let ids: Vec<_> = g.node_ids().collect();
        let (s, a, b, m, c) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        g.add_link(s, a, 1.0).unwrap();
        let l_am = g.add_link(a, m, 1.0).unwrap();
        g.add_link(s, b, 1.0).unwrap();
        let l_bm = g.add_link(b, m, 1.0).unwrap();
        g.add_link(s, c, 3.0).unwrap();
        g.add_link(c, m, 3.0).unwrap();
        let mut session = ProtoSession::build(&g, s, &[m], TreeProtocol::Spf).unwrap();
        session.set_srlgs(vec![vec![l_am, l_bm]]);
        let plans = session.protection_plans();
        let (_, chain) = plans.iter().find(|(n, _)| *n == m).unwrap();
        // The primary (most conservative) plan must detour via C, not B.
        assert_eq!(chain[0].path, vec![m, c, s]);
        // And the shared-fate failure itself is survived by activation.
        let report = session.run(&FailureSpec::persistent(
            &FailureScenario::links([l_am, l_bm]),
            RecoveryStrategy::Protection,
            SimTime::from_ms(100.0),
            SimTime::from_ms(3000.0),
        ));
        assert!(report.all_restored(), "{:?}", report.groups[0].restorations);
        assert_eq!(report.health.retry_exhaustions, 0);
    }

    #[test]
    fn rebooted_member_resurrects_pruned_ancestors_by_refresh() {
        // Chain S - A - M. M crashes and reboots; during the outage A (a
        // relay whose only downstream state was M's) prunes itself. The
        // rebooted M has no recovery plan — only its periodic refreshes
        // can re-extend the branch through the pruned A.
        let mut g = Graph::with_nodes(3);
        let ids: Vec<_> = g.node_ids().collect();
        g.add_link(ids[0], ids[1], 1.0).unwrap();
        g.add_link(ids[1], ids[2], 1.0).unwrap();
        let session = ProtoSession::build(&g, ids[0], &[ids[2]], TreeProtocol::Spf).unwrap();
        let report = session.run(&FailureSpec {
            timing: InjectionTiming::Once(FailureTiming::transient(
                SimTime::from_ms(100.0),
                SimTime::from_ms(500.0),
            )),
            ..FailureSpec::persistent(
                &FailureScenario::node(ids[2]),
                RecoveryStrategy::LocalDetour,
                SimTime::from_ms(100.0),
                SimTime::from_ms(2000.0),
            )
        });
        assert!(
            report.all_restored(),
            "refresh must re-extend the pruned branch: {:?}",
            report.groups[0].restorations
        );
        let latency = report.groups[0].restorations[0].1.unwrap();
        assert!(
            latency >= SimTime::from_ms(400.0),
            "service resumed only after the repair: {latency:?}"
        );
    }

    /// The protection plane as it was planned before every chain entry
    /// asked its own `Contingency`: the same chain, one target mask per
    /// request (the source alone for an anchored entry, else the surviving
    /// set under the entry's contingency), every request searched in one
    /// batch, then each node's answers in chain order, relaxed duplicates
    /// dropped.
    fn reference_protection_plans(session: &ProtoSession<'_>) -> Vec<(NodeId, Vec<RecoveryPlan>)> {
        let (graph, tree) = (session.graph, &session.tree);
        let mut requests: Vec<(NodeId, FailureScenario, Vec<bool>)> = Vec::new();
        let mut per_node: Vec<(NodeId, Vec<usize>)> = Vec::new();
        for v in tree.on_tree_nodes() {
            let Some(u) = tree.parent(v) else {
                continue;
            };
            let Some(l) = graph.link_between(v, u) else {
                continue;
            };
            let node_and_link = FailureScenario::link(l).with_node(u);
            let mut conservative = node_and_link.clone();
            let mut group_links = FailureScenario::link(l);
            let groups: Vec<&Vec<LinkId>> =
                session.srlgs.iter().filter(|g| g.contains(&l)).collect();
            for &gl in groups.iter().copied().flatten() {
                conservative.fail_link(gl);
                group_links.fail_link(gl);
            }
            let mut chain = Vec::new();
            if !groups.is_empty() {
                chain.push((conservative.clone(), false));
                chain.push((group_links.clone(), false));
                chain.push((conservative, true));
                chain.push((group_links, true));
            }
            chain.push((node_and_link.clone(), false));
            chain.push((FailureScenario::link(l), false));
            chain.push((node_and_link, true));
            chain.push((FailureScenario::link(l), true));
            let mut ids = Vec::new();
            for (avoid, anchored) in chain {
                let mut mask = vec![false; graph.node_count()];
                if anchored {
                    mask[tree.source().index()] = true;
                } else {
                    for t in smrp_core::recovery::surviving_connected(graph, tree, &avoid) {
                        mask[t.index()] = true;
                    }
                }
                ids.push(requests.len());
                requests.push((v, avoid, mask));
            }
            per_node.push((v, ids));
        }
        let found: Vec<Option<smrp_net::Path>> = requests
            .iter()
            .map(|(v, avoid, mask)| {
                smrp_net::dijkstra::shortest_path_to_any(
                    graph,
                    *v,
                    smrp_net::dijkstra::Constraints::avoiding_failures(avoid),
                    |n| mask[n.index()],
                )
            })
            .collect();
        let mut out = Vec::new();
        for (v, ids) in per_node {
            let mut plans: Vec<RecoveryPlan> = Vec::new();
            for p in ids.into_iter().filter_map(|id| found[id].as_ref()) {
                let path = p.nodes().to_vec();
                if !plans.iter().any(|rp| rp.path == path) {
                    plans.push(RecoveryPlan::new(graph, p, SimTime::ZERO));
                }
            }
            if !plans.is_empty() {
                out.push((v, plans));
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// On random Waxman graphs with SMRP and SPF trees and random
        /// shared-risk groups, every node's protection chain equals the
        /// batched reference, plan by plan and in order.
        #[test]
        fn protection_plans_are_the_batched_reference(seed in 0u64..1_000_000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let nodes = rng.gen_range(10..41);
            let graph = smrp_net::waxman::WaxmanConfig::new(nodes)
                .alpha([0.15, 0.25, 0.4][rng.gen_range(0..3)])
                .seed(seed)
                .generate()
                .expect("valid generator settings")
                .into_graph();
            let ids: Vec<NodeId> = graph.node_ids().collect();
            let mut members: Vec<NodeId> = (0..rng.gen_range(2..12))
                .map(|_| ids[rng.gen_range(1..ids.len())])
                .collect();
            members.sort();
            members.dedup();
            let protocol = if rng.gen_range(0u32..2) == 0 {
                TreeProtocol::Spf
            } else {
                TreeProtocol::Smrp(SmrpConfig::default())
            };
            let mut session = ProtoSession::build(&graph, ids[0], &members, protocol)
                .expect("connected Waxman graph");
            // Shared-risk groups: a random subset of the links at a few
            // random nodes, so some cover tree links and some overlap.
            let srlgs = (0..rng.gen_range(0..4))
                .map(|_| {
                    let at = ids[rng.gen_range(0..ids.len())];
                    graph
                        .arcs(at)
                        .iter()
                        .filter(|_| rng.gen_range(0u32..3) != 0)
                        .map(|&(_, l, _)| l)
                        .collect()
                })
                .collect();
            session.set_srlgs(srlgs);
            proptest::prop_assert_eq!(
                session.protection_plans(),
                reference_protection_plans(&session)
            );
        }
    }
}
