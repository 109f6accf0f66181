//! Multi-session SMRP: many multicast groups sharing one network.
//!
//! The paper evaluates one session at a time; a production deployment
//! serves many concurrent groups whose trees share links, so a single
//! correlated failure (an SRLG, a regional outage) hits several trees at
//! once and their recovery traffic contends on the same substrate. This
//! module shards the protocol by [`GroupId`]:
//!
//! * [`MultiRouter`] — one router *process* per node holding an
//!   independent [`Router`] lane per group. Tree state, SHR bookkeeping,
//!   soft-state timers and reliable-delivery sequence lanes are all
//!   per-group (the reliable lanes are effectively keyed by
//!   `(neighbor, group)`, because each group lane owns its own
//!   endpoint); the links, failure scenario and degraded channel
//!   underneath are shared by every group.
//! * [`MultiSession`] — N [`ProtoSession`] trees loaded into one
//!   simulator: a failure scenario is injected once and every group
//!   detects and recovers concurrently, contending for the same links.
//!
//! [`MultiSession::run`] is the crate's one loop over trees in time,
//! failure or not, and the one place a run is configured. A single-group
//! [`MultiSession`] is how one session runs ([`ProtoSession::run`],
//! [`ProtoSession::run_steady`]): the lane dispatch adds no virtual time
//! and preserves event order, and `tests/multi_golden.rs` pins the Figure
//! 1 numbers the retired single-`Router` loop produced. Joins and leaves
//! ride the same run as [`FailureSpec::membership`] entries, which
//! [`crate::MembershipMirror`] writes.

use smrp_core::recovery::{self, DetourKind};
use smrp_metrics::{ControlHealth, ProtectionHealth};
use smrp_net::{FailureScenario, Graph, GroupId, NodeId};
use smrp_sim::{
    ChannelModel, ChannelSpec, Ctx, Descriptor, NetSim, NodeBehavior, NodeCommand, SimTime,
    TimerBackend, TraceLog,
};

use crate::messages::{GroupMsg, GroupTimer, ProtoMsg, TimerKind};
use crate::router::{ControlCounters, RecoveryPlan, Router, RouterConfig};
use crate::runner::{FailureTiming, InjectionTiming, ProtoSession, RecoveryStrategy};

/// Sentinel for "this group has no lane on this node".
const NO_LANE: u32 = u32::MAX;

/// Where a failure run's recovery plans come from.
#[derive(Debug, Clone, Copy)]
pub enum PlanSource<'p> {
    /// Derived per group from a [`RecoveryStrategy`] over the whole graph
    /// (the classic campaigns).
    Strategy(RecoveryStrategy),
    /// Supplied by an external planner as `(group, member, plan)` triples,
    /// each installed verbatim into that member's lane for that group —
    /// hierarchical recovery, whose detour search is confined to the
    /// failure's owning domain (see
    /// [`crate::hierarchy::NLevelSession::recover`]).
    Explicit(&'p [(GroupId, NodeId, RecoveryPlan)]),
}

impl From<RecoveryStrategy> for PlanSource<'_> {
    fn from(strategy: RecoveryStrategy) -> Self {
        PlanSource::Strategy(strategy)
    }
}

/// What one membership entry of a run does to its member's lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberChange {
    /// The member joins (or re-routes) along this source-routed path,
    /// member first: [`Router::initiate_setup`] installs it hop by hop.
    Setup(Vec<NodeId>),
    /// A relay becomes a member: local state only, no message.
    Promote,
    /// The member leaves; its branch prunes on soft-state expiry.
    Leave,
}

/// Everything one failure experiment needs besides the sessions: what
/// breaks, who planned the detours, when it breaks (and heals), who joins
/// and leaves, what the control channel does, and when the run ends.
#[derive(Debug, Clone)]
pub struct FailureSpec<'s> {
    /// The components that fail.
    pub scenario: &'s FailureScenario,
    /// Where the recovery plans come from.
    pub plans: PlanSource<'s>,
    /// When the scenario is injected and (optionally) repaired.
    pub timing: InjectionTiming,
    /// Timed membership changes `(at, group, member, change)` from an
    /// outside producer such as [`crate::MembershipMirror`], applied as
    /// given: in time order, stable for equal instants, none past `until`.
    pub membership: &'s [(SimTime, GroupId, NodeId, MemberChange)],
    /// The control channel's degradation.
    pub channel: ChannelSpec,
    /// The run horizon.
    pub until: SimTime,
}

impl<'s> FailureSpec<'s> {
    /// The paper's experiment: `scenario` fails for good at `fail_at` over
    /// a perfect channel, with detours from `plans` — a
    /// [`RecoveryStrategy`] or a [`PlanSource::Explicit`] list. Other
    /// timings and channels override the fields
    /// (`FailureSpec { channel, ..spec }`).
    pub fn persistent(
        scenario: &'s FailureScenario,
        plans: impl Into<PlanSource<'s>>,
        fail_at: SimTime,
        until: SimTime,
    ) -> Self {
        FailureSpec {
            scenario,
            plans: plans.into(),
            timing: InjectionTiming::Once(FailureTiming::persistent(fail_at)),
            membership: &[],
            channel: ChannelSpec::perfect(),
            until,
        }
    }
}

/// What [`MultiSession::run`] hands back.
#[derive(Debug)]
pub struct FailureRun<'o> {
    /// Per-group restoration latencies and the substrate-level aggregate.
    pub report: MultiRecoveryReport,
    /// The log the run recorded into (empty for a disabled or observing
    /// log).
    pub trace: TraceLog<'o>,
    /// Every node's final router process, in node-id order — what
    /// [`crate::snapshot::SessionState::capture`] digests for the daemon
    /// conformance harness.
    pub routers: Vec<MultiRouter>,
}

/// One node's multi-session router process: independent per-group
/// [`Router`] lanes over shared links.
///
/// Messages and timers arrive tagged with their [`GroupId`]; the process
/// dispatches each to the owning lane and re-tags everything the lane
/// emits. Lanes never share mutable state, so one group's protocol
/// activity cannot corrupt another's tree — the isolation property the
/// cross-session proptest in `tests/multi_isolation.rs` exercises.
///
/// Lane storage is a dense arena rather than a `BTreeMap<GroupId,
/// Router>`: `slots[group]` holds a `u32` handle into `routers`, so the
/// hot dispatch path (one lookup per delivered message or fired timer) is
/// an array index instead of a tree walk, and a node carrying lanes for a
/// few of `M` groups pays 4 bytes per absent group, not a map node.
#[derive(Debug, Clone)]
pub struct MultiRouter {
    config: RouterConfig,
    /// `slots[g]` is the index into `routers` of group `g`'s lane, or
    /// [`NO_LANE`]. Grows on first touch of a group.
    slots: Vec<u32>,
    /// Dense lane storage, in first-touch order.
    routers: Vec<Router>,
    /// The command buffer lent to each lane call's context in turn.
    lane_commands: Vec<NodeCommand<ProtoMsg, TimerKind>>,
}

impl MultiRouter {
    /// Creates a router process with no lanes yet; lanes appear when
    /// state is loaded ([`MultiRouter::lane_mut`]) or when the first
    /// message or timer of a group arrives (off-tree nodes become relays
    /// lazily, exactly like a fresh single-session [`Router`]).
    pub fn new(config: RouterConfig) -> Self {
        MultiRouter {
            config,
            slots: Vec::new(),
            routers: Vec::new(),
            lane_commands: Vec::new(),
        }
    }

    /// Read access to one group's lane, if it exists.
    pub fn lane(&self, group: GroupId) -> Option<&Router> {
        match self.slots.get(group.index()) {
            Some(&slot) if slot != NO_LANE => Some(&self.routers[slot as usize]),
            _ => None,
        }
    }

    /// Mutable access to one group's lane, creating an idle off-tree lane
    /// on first touch.
    pub fn lane_mut(&mut self, group: GroupId) -> &mut Router {
        let gi = group.index();
        if gi >= self.slots.len() {
            self.slots.resize(gi + 1, NO_LANE);
        }
        if self.slots[gi] == NO_LANE {
            self.slots[gi] = u32::try_from(self.routers.len()).expect("lane arena exhausted");
            self.routers.push(Router::new(self.config));
        }
        &mut self.routers[self.slots[gi] as usize]
    }

    /// The groups this process currently holds state for, ascending.
    pub fn groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != NO_LANE)
            .map(|(g, _)| GroupId::new(g))
    }

    /// Runs `f` against one group's lane with a lane-scoped context, then
    /// re-tags every command the lane issued with the group id and
    /// replays it onto the outer context. This is the sharding seam: the
    /// inner [`Router`] is oblivious to other groups' existence.
    ///
    /// Timer commands are re-issued under the lane's original
    /// [`smrp_sim::TimerToken`], so a lane cancelling one of its timers
    /// later still reaches the engine's entry for it.
    pub fn with_lane(
        &mut self,
        ctx: &mut Ctx<'_, Self>,
        group: GroupId,
        f: impl FnOnce(&mut Router, &mut Ctx<'_, Router>),
    ) {
        let mut inner = ctx.derive_into::<Router>(std::mem::take(&mut self.lane_commands));
        f(self.lane_mut(group), &mut inner);
        let mut commands = inner.into_commands();
        for cmd in commands.drain(..) {
            match cmd {
                NodeCommand::Send { to, msg } => ctx.send(to, GroupMsg { group, inner: msg }),
                NodeCommand::Timer {
                    delay,
                    timer,
                    token,
                } => {
                    ctx.set_timer_with_token(
                        delay,
                        GroupTimer {
                            group,
                            inner: timer,
                        },
                        token,
                    );
                }
                NodeCommand::CancelTimer { token } => ctx.cancel_timer(token),
            }
        }
        self.lane_commands = commands;
    }
}

impl NodeBehavior for MultiRouter {
    type Msg = GroupMsg;
    type Timer = GroupTimer;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: GroupMsg) {
        self.with_lane(ctx, msg.group, |r, ictx| {
            r.on_message(ictx, from, msg.inner)
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: GroupTimer) {
        self.with_lane(ctx, timer.group, |r, ictx| r.on_timer(ictx, timer.inner));
    }

    fn on_reboot(&mut self, ctx: &mut Ctx<'_, Self>) {
        for g in 0..self.slots.len() {
            if self.slots[g] != NO_LANE {
                self.with_lane(ctx, GroupId::new(g), |r, ictx| r.on_reboot(ictx));
            }
        }
    }

    /// Channel loss accounting stays per *protocol* class: envelope group
    /// tags are transparent, so multi-session loss tables line up with
    /// single-session ones.
    fn classify(msg: &GroupMsg) -> &'static str {
        Router::classify(&msg.inner)
    }

    fn describe(msg: &GroupMsg) -> Descriptor {
        Descriptor {
            group: Some(msg.group),
            ..Router::describe(&msg.inner)
        }
    }

    fn describe_timer(timer: &GroupTimer) -> Descriptor {
        Descriptor {
            group: Some(timer.group),
            ..Router::describe_timer(&timer.inner)
        }
    }
}

/// One group's slice of a multi-session failure experiment.
#[derive(Debug, Clone)]
pub struct GroupRecoveryReport {
    /// The group.
    pub group: GroupId,
    /// Per affected member: restoration latency (`None` if service never
    /// resumed within the run), in member order.
    pub restorations: Vec<(NodeId, Option<SimTime>)>,
    /// Members of this group the failure never touched.
    pub unaffected: Vec<NodeId>,
    /// Reliable-layer counters of this group's lanes only. Channel-level
    /// counters (loss, duplication, reordering) are per *link*, not per
    /// group, and live in [`MultiRecoveryReport::health`].
    pub reliability: ControlHealth,
    /// Control messages this group's lanes sent, by type — the per-group
    /// overhead of sharing the substrate.
    pub control: ControlCounters,
    /// Protection-plane counters of this group's lanes (plans held,
    /// activations, stale discards). All-zero unless the run used
    /// [`RecoveryStrategy::Protection`].
    pub protection: ProtectionHealth,
}

impl GroupRecoveryReport {
    /// Whether every affected member of this group restored service.
    pub fn all_restored(&self) -> bool {
        self.restorations.iter().all(|(_, l)| l.is_some())
    }

    /// Restoration latencies of restored members, milliseconds, in member
    /// order.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.restorations
            .iter()
            .filter_map(|(_, l)| l.map(SimTime::as_ms))
            .collect()
    }

    /// Mean restoration latency in milliseconds over restored members
    /// (`None` if nothing restored).
    pub fn mean_latency_ms(&self) -> Option<f64> {
        let restored = self.latencies_ms();
        (!restored.is_empty()).then(|| restored.iter().sum::<f64>() / restored.len() as f64)
    }

    /// Worst restoration latency in milliseconds among restored members.
    pub fn max_latency_ms(&self) -> Option<f64> {
        self.latencies_ms().into_iter().reduce(f64::max)
    }
}

/// Result of one multi-session failure experiment: one shared run, one
/// report slice per group plus the substrate-level aggregate.
#[derive(Debug, Clone)]
pub struct MultiRecoveryReport {
    /// When the failure was injected.
    pub fail_at: SimTime,
    /// Per-group slices, in group order.
    pub groups: Vec<GroupRecoveryReport>,
    /// Aggregate control-plane health: every group's reliable-layer
    /// counters plus what the shared channel did.
    pub health: ControlHealth,
    /// Total messages delivered by the simulator (all groups).
    pub messages_delivered: u64,
    /// Total messages dropped (all groups, all causes).
    pub messages_dropped: u64,
}

impl MultiRecoveryReport {
    /// Whether every affected member of every group restored service.
    pub fn all_restored(&self) -> bool {
        self.groups.iter().all(GroupRecoveryReport::all_restored)
    }
}

/// N concurrent multicast sessions over one topology, ready for shared
/// failure experiments. Group `i` is [`GroupId::new`]`(i)`.
#[derive(Debug, Clone)]
pub struct MultiSession<'g> {
    graph: &'g Graph,
    sessions: Vec<ProtoSession<'g>>,
    timer_backend: TimerBackend,
}

impl<'g> MultiSession<'g> {
    /// Hosts prebuilt sessions together. All sessions must live on the
    /// same graph.
    ///
    /// # Panics
    ///
    /// Panics if `sessions` is empty or if a session was built on a
    /// different graph.
    pub fn from_sessions(sessions: Vec<ProtoSession<'g>>) -> Self {
        assert!(!sessions.is_empty(), "at least one session is required");
        let graph = sessions[0].graph();
        for s in &sessions[1..] {
            assert!(
                std::ptr::eq(s.graph(), graph),
                "all sessions must share one graph"
            );
        }
        MultiSession {
            graph,
            sessions,
            timer_backend: TimerBackend::default(),
        }
    }

    /// Selects the engine timer backend for this experiment's runs.
    /// Defaults to the production timer wheel; the reference heap exists
    /// for differential tests (the two must produce byte-identical
    /// traces).
    pub fn set_timer_backend(&mut self, backend: TimerBackend) {
        self.timer_backend = backend;
    }

    /// The shared topology.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Number of hosted groups.
    pub fn group_count(&self) -> usize {
        self.sessions.len()
    }

    /// The hosted group ids, ascending.
    pub fn groups(&self) -> impl Iterator<Item = GroupId> {
        (0..self.sessions.len()).map(GroupId::new)
    }

    /// One group's session.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn session(&self, group: GroupId) -> &ProtoSession<'g> {
        &self.sessions[group.index()]
    }

    /// Router processes preloaded with every group's tree, under `config`.
    fn processes(&self, config: RouterConfig) -> Vec<MultiRouter> {
        let mut procs: Vec<MultiRouter> = (0..self.graph.node_count())
            .map(|_| MultiRouter::new(config))
            .collect();
        for (gi, sess) in self.sessions.iter().enumerate() {
            let group = GroupId::new(gi);
            let tree = sess.tree();
            for n in tree.on_tree_nodes() {
                let upstream = tree.parent(n);
                let downstream: Vec<NodeId> = tree.children(n).to_vec();
                procs[n.index()].lane_mut(group).load_state(
                    upstream,
                    &downstream,
                    tree.is_member(n),
                );
            }
            procs[sess.source().index()].lane_mut(group).set_source();
        }
        procs
    }

    /// Runs one experiment — the only function in this crate that builds a
    /// simulator. Every group's tree is loaded into one [`NetSim`],
    /// `spec.scenario` is injected once on `spec.timing` (an empty scenario
    /// makes a failure-free run), each `spec.membership` entry is applied
    /// to its member's lane at its instant, and each group detects and
    /// recovers independently while contending for the same links (and,
    /// when `spec.channel` is degraded, the same loss process).
    ///
    /// Routers run [`RouterConfig::default`]. When the channel's *default*
    /// lane is lossy, that config is hardened via
    /// [`RouterConfig::hardened_for_loss`] — uniform loss is
    /// ambient noise every router experiences, so timers must tolerate it.
    /// Gray-link overrides do **not** harden: a single rotten link
    /// *should* look like a failure to the routers behind it.
    ///
    /// `trace` is the typed-event sink: [`TraceLog::disabled`] for plain
    /// runs, [`TraceLog::new`] to get the buffered events back in
    /// [`FailureRun::trace`] (golden tests), [`TraceLog::observer`] to see
    /// every event as it happens (the locality audit).
    pub fn run<'o>(&'o self, spec: &FailureSpec<'_>, trace: TraceLog<'o>) -> FailureRun<'o> {
        let scenario = spec.scenario;
        let fail_at = spec.timing.fail_at();
        let config = RouterConfig::default().hardened_for_loss(spec.channel.default.loss);
        let mut procs = self.processes(config);

        match spec.plans {
            PlanSource::Strategy(RecoveryStrategy::Protection) => {
                // Each group's precomputed plane goes into its own lanes —
                // per-lane caches keep one group's stale-plan discards from
                // touching another group's protection state.
                for (gi, sess) in self.sessions.iter().enumerate() {
                    let group = GroupId::new(gi);
                    for (node, plans) in sess.protection_plans() {
                        procs[node.index()]
                            .lane_mut(group)
                            .install_backup_plans(plans);
                    }
                }
            }
            PlanSource::Strategy(strategy) => {
                let (kind, wait) = match strategy {
                    RecoveryStrategy::LocalDetour => (DetourKind::Local, SimTime::ZERO),
                    RecoveryStrategy::ReactiveSearch { search } => (DetourKind::Local, search),
                    RecoveryStrategy::GlobalDetour { reconvergence } => {
                        (DetourKind::Global, reconvergence)
                    }
                    RecoveryStrategy::Protection => unreachable!(),
                };
                for (gi, sess) in self.sessions.iter().enumerate() {
                    let group = GroupId::new(gi);
                    for rec in sess.plan_recoveries(scenario, kind).recoveries {
                        procs[rec.member().index()]
                            .lane_mut(group)
                            .install_recovery_plan(RecoveryPlan {
                                path: rec.restoration_path().nodes().to_vec(),
                                wait,
                                path_delay: SimTime::from_ms(
                                    rec.restoration_path().delay(self.graph),
                                ),
                            });
                    }
                }
            }
            PlanSource::Explicit(list) => {
                // Installed verbatim: no planner sees the topology at all
                // (hierarchical recovery searches only the owning domain).
                for (group, member, plan) in list {
                    procs[member.index()]
                        .lane_mut(*group)
                        .install_recovery_plan(plan.clone());
                }
            }
        }

        let mut sim = NetSim::new(self.graph, procs);
        sim.set_timer_backend(self.timer_backend);
        sim.set_trace(trace);
        if !spec.channel.is_perfect() {
            sim.set_channel(Some(ChannelModel::new(&spec.channel)));
        }
        for (gi, sess) in self.sessions.iter().enumerate() {
            let group = GroupId::new(gi);
            for n in sess.tree().on_tree_nodes() {
                sim.with_node(n, |p, ctx| {
                    p.with_lane(ctx, group, |r, ictx| r.start_timers(ictx));
                });
            }
        }
        for (down_at, up_at) in spec.timing.schedule() {
            for l in scenario.failed_links() {
                sim.schedule_link_failure(down_at, l);
                if let Some(up_at) = up_at {
                    sim.schedule_link_repair(up_at, l);
                }
            }
            for n in scenario.failed_nodes() {
                sim.schedule_node_failure(down_at, n);
                if let Some(up_at) = up_at {
                    sim.schedule_node_repair(up_at, n);
                }
            }
        }
        let mut changes: Vec<_> = spec
            .membership
            .iter()
            .filter(|c| c.0 <= spec.until)
            .collect();
        changes.sort_by_key(|c| c.0);
        for (at, group, member, change) in changes {
            sim.run_until(*at);
            sim.with_node(*member, |p, ctx| {
                p.with_lane(ctx, *group, |r, ictx| match change {
                    MemberChange::Setup(path) => r.initiate_setup(ictx, path.clone(), true),
                    MemberChange::Promote => r.join_group(),
                    MemberChange::Leave => r.leave_group(),
                });
            });
        }
        sim.run_until(spec.until);

        // Packets in flight when the failure hit don't count as restored
        // service: only packets the source sent after `fail_at` qualify
        // (the source emits seq `s` at `(s + 1) · data_interval`).
        let interval = config.data_interval.as_ms();
        let sent_at = |seq: u64| SimTime::from_ms(interval * (seq as f64 + 1.0));

        let mut groups = Vec::with_capacity(self.sessions.len());
        for (gi, sess) in self.sessions.iter().enumerate() {
            let group = GroupId::new(gi);
            let affected = recovery::affected_members(self.graph, sess.tree(), scenario);
            let restorations: Vec<(NodeId, Option<SimTime>)> = affected
                .iter()
                .map(|&m| {
                    let latency = sim
                        .node(m)
                        .lane(group)
                        .and_then(|lane| {
                            lane.deliveries().iter().find(|d| sent_at(d.seq) > fail_at)
                        })
                        .map(|d| d.time - fail_at);
                    (m, latency)
                })
                .collect();
            let unaffected = sess
                .tree()
                .members()
                .filter(|m| !affected.contains(m))
                .collect();
            let mut reliability = ControlHealth::default();
            let mut control = ControlCounters::default();
            let mut protection = ProtectionHealth::default();
            for n in self.graph.node_ids() {
                if let Some(lane) = sim.node(n).lane(group) {
                    let r = lane.reliability();
                    reliability.absorb_lane(
                        r.retransmits,
                        r.dup_drops,
                        r.retry_exhaustions,
                        r.acks_sent,
                    );
                    control.merge(&lane.control_sent());
                    protection.merge(&lane.protection_counters());
                }
            }
            groups.push(GroupRecoveryReport {
                group,
                restorations,
                unaffected,
                reliability,
                control,
                protection,
            });
        }

        let mut health = ControlHealth::merged(groups.iter().map(|g| &g.reliability));
        if let Some(ch) = sim.channel_stats() {
            health.channel_dupes = ch.duplicated;
            health.channel_reorders = ch.reordered;
            for (&class, &n) in &ch.lost_by_class {
                *health.loss_by_class.entry(class.to_string()).or_insert(0) += n;
            }
        }
        let report = MultiRecoveryReport {
            fail_at,
            groups,
            health,
            messages_delivered: sim.delivered_count(),
            messages_dropped: sim.dropped_count(),
        };
        let trace = sim.take_trace();
        FailureRun {
            report,
            trace,
            routers: sim.into_nodes(),
        }
    }

    /// [`run`](Self::run) with strategy-derived plans and no trace,
    /// returning the report alone. Kept under this name and signature
    /// only because `benchmark/` compiles against it.
    pub fn run_failure_spec(
        &self,
        scenario: &FailureScenario,
        strategy: RecoveryStrategy,
        timing: InjectionTiming,
        channel: &ChannelSpec,
        until: SimTime,
    ) -> MultiRecoveryReport {
        let spec = FailureSpec {
            timing,
            channel: channel.clone(),
            ..FailureSpec::persistent(scenario, strategy, timing.fail_at(), until)
        };
        self.run(&spec, TraceLog::disabled()).report
    }

    /// [`run`](Self::run) with strategy-derived plans, returning the
    /// report and the trace. Kept under this name and signature only
    /// because `benchmark/` compiles against it.
    pub fn run_failure_spec_traced<'o>(
        &'o self,
        scenario: &FailureScenario,
        strategy: RecoveryStrategy,
        timing: InjectionTiming,
        channel: &ChannelSpec,
        until: SimTime,
        trace: TraceLog<'o>,
    ) -> (MultiRecoveryReport, TraceLog<'o>) {
        let spec = FailureSpec {
            timing,
            channel: channel.clone(),
            ..FailureSpec::persistent(scenario, strategy, timing.fail_at(), until)
        };
        let run = self.run(&spec, trace);
        (run.report, run.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::TreeProtocol;
    use smrp_core::paper;

    fn spf_session<'a>(graph: &'a Graph, nodes: &paper::Figure1Nodes) -> ProtoSession<'a> {
        ProtoSession::build(graph, nodes.s, &[nodes.c, nodes.d], TreeProtocol::Spf).unwrap()
    }

    #[test]
    fn two_groups_recover_from_one_shared_cut() {
        // Two independent sessions on the Figure 1 graph — one rooted at
        // S, one rooted at B — both crossing link A–D through their trees'
        // neighborhoods. Cutting A–D must leave each group's recovery
        // intact and independent.
        let (graph, nodes) = paper::figure1_graph();
        let g0 = spf_session(&graph, &nodes);
        let g1 =
            ProtoSession::build(&graph, nodes.b, &[nodes.a, nodes.c], TreeProtocol::Spf).unwrap();
        let multi = MultiSession::from_sessions(vec![g0, g1]);
        assert_eq!(multi.group_count(), 2);

        let l_ad = graph.link_between(nodes.a, nodes.d).unwrap();
        let scenario = FailureScenario::link(l_ad);
        let spec = FailureSpec::persistent(
            &scenario,
            RecoveryStrategy::LocalDetour,
            SimTime::from_ms(100.0),
            SimTime::from_ms(3000.0),
        );
        let report = multi.run(&spec, TraceLog::disabled()).report;
        for g in &report.groups {
            assert!(
                g.all_restored(),
                "group {} must restore: {:?}",
                g.group,
                g.restorations
            );
            assert!(g.control.total() > 0, "group {} sent control", g.group);
        }
    }

    #[test]
    fn lanes_are_independent_per_group() {
        let (graph, nodes) = paper::figure1_graph();
        let g0 = spf_session(&graph, &nodes);
        let g1 = ProtoSession::build(&graph, nodes.b, &[nodes.d], TreeProtocol::Spf).unwrap();
        let multi = MultiSession::from_sessions(vec![g0, g1]);
        let procs = multi.processes(RouterConfig::default());
        // S is the source of group 0 only; B of group 1 only.
        let s = &procs[nodes.s.index()];
        assert!(s.lane(GroupId::new(0)).is_some_and(Router::is_on_tree));
        let b = &procs[nodes.b.index()];
        assert!(b.lane(GroupId::new(1)).is_some_and(Router::is_on_tree));
        // A group only has lanes where its tree runs.
        assert!(procs[nodes.c.index()]
            .lane(GroupId::new(1))
            .is_none_or(|l| !l.is_member()));
    }
}
