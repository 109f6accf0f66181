//! The SMRP router state machine for one group at one node: a lane of the
//! node's [`MultiRouter`] process, running against the process's context.
//!
//! Each router keeps PIM-style *soft state*: an upstream interface toward
//! the source and a set of downstream interfaces, each with an expiry
//! deadline pushed forward by periodic [`ProtoMsg::Refresh`] messages.
//! Data flows strictly from the upstream interface to the downstream ones.
//! Tree neighbors exchange [`ProtoMsg::Hello`] heartbeats; a router that
//! stops hearing its upstream declares a persistent failure and executes
//! its [`RecoveryPlan`] — immediately for a local detour, or after a
//! simulated unicast-reconvergence delay for the global detour baseline.

use smrp_metrics::ProtectionHealth;
use smrp_net::{Graph, GroupId, NodeId, Path};
use smrp_sim::{Ctx, Descriptor, SetupRoute, SimTime, TimerToken};

use crate::messages::{GroupMsg, GroupTimer, ProtoMsg, TimerKind};
use crate::multi::MultiRouter;
use crate::reliable::{ReliabilityCounters, ReliableEndpoint, RetransmitAction, RTO_FLOOR};

/// Interval between heartbeats to tree neighbors.
pub const HELLO_INTERVAL: SimTime = ms(10);
/// Interval between soft-state refreshes sent upstream.
const REFRESH_INTERVAL: SimTime = ms(50);
/// Source-only: interval between multicast data packets.
const DATA_INTERVAL: SimTime = ms(5);
/// Member-side failure detection: a member that receives no data for this
/// long executes its recovery plan even though its own upstream heartbeats
/// are healthy (the failure sits further up the fragment). Comfortably
/// exceeds heartbeat detection plus graft restoration, so healthy members
/// do not graft spuriously.
const STARVATION_LIMIT: SimTime = ms(400);

const fn ms(ms: u64) -> SimTime {
    SimTime::from_ns(ms * 1_000_000)
}

/// The two soft-state timers that depend on the channel: the hello miss
/// limit and the downstream holdtime. Every other timer is a protocol
/// constant (DESIGN.md, "Protocol timing").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// Consecutive missed hello intervals before the upstream is declared
    /// dead.
    miss_limit: u32,
    /// Downstream state lifetime without a refresh.
    holdtime: SimTime,
}

impl Default for RouterConfig {
    /// The lossless timing: a 3-miss limit (≈30 ms detection with 10 ms
    /// hellos) and a 175 ms holdtime (3.5 refresh intervals).
    fn default() -> Self {
        RouterConfig {
            miss_limit: 3,
            holdtime: ms(175),
        }
    }
}

impl RouterConfig {
    /// Loss-aware hardening: adapts the soft-state timers to a channel
    /// with uniform per-transmission loss probability `loss`.
    ///
    /// Two knobs move:
    ///
    /// * **`miss_limit`** — with lossy hellos, `loss^miss_limit` is the
    ///   probability that a healthy upstream looks dead in one check
    ///   window. Campaigns run millions of windows, so the limit is raised
    ///   until that probability drops below 1e-9 (9 misses at 10% loss,
    ///   7 at 5%). Detection slows proportionally — the price of not
    ///   tearing down live branches.
    /// * **`holdtime`** — padded by `1 + 5·loss` so a refresh round that
    ///   needs a few retransmissions cannot brush the expiry deadline.
    ///
    /// A zero (or negative) `loss` returns the config unchanged, so
    /// lossless campaigns keep the paper's original timing.
    pub fn hardened_for_loss(mut self, loss: f64) -> Self {
        if loss <= 0.0 {
            return self;
        }
        assert!(loss < 1.0, "a channel losing everything cannot be hardened");
        let needed = (1e-9f64.ln() / loss.ln()).ceil() as u32;
        self.miss_limit = self.miss_limit.max(needed);
        self.holdtime = SimTime::from_ms(self.holdtime.as_ms() * (1.0 + 5.0 * loss));
        self
    }

    /// Heartbeat detection horizon in milliseconds: `miss_limit` hello
    /// intervals of silence.
    fn detection_ms(&self) -> f64 {
        HELLO_INTERVAL.as_ms() * self.miss_limit as f64
    }
}

/// What a router should do once it detects that its upstream died.
///
/// Plans are installed by the session orchestrator, standing in for the
/// router's own path computation (the paper assumes topology knowledge;
/// §3.3.1's query scheme is modelled at the algorithmic level in
/// `smrp-core`).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPlan {
    /// Restoration path from this router to the attach point.
    pub path: Vec<NodeId>,
    /// Delay before the plan can execute (zero for a local detour; the
    /// unicast reconvergence time for a global detour).
    pub wait: SimTime,
    /// Estimated one-way propagation delay of `path`, as computed by the
    /// planner. Pads the activation-confirmation window
    /// ([`TimerKind::PlanConfirm`]): the graft cascade must traverse the
    /// path hop-by-hop and the first data packets must travel back, so a
    /// long detour legitimately needs longer before "no data yet" means
    /// "the plan failed silently". `ZERO` is always safe — the window
    /// never shrinks below twice the detection horizon.
    pub path_delay: SimTime,
}

impl RecoveryPlan {
    /// The plan that walks `path` after `wait`, its `path_delay` summed
    /// hop by hop over `graph` ([`Path::delay`]). Every planner builds its
    /// plans here.
    pub fn new(graph: &Graph, path: &Path, wait: SimTime) -> Self {
        RecoveryPlan {
            path: path.nodes().to_vec(),
            wait,
            path_delay: SimTime::from_ms(path.delay(graph)),
        }
    }
}

/// A [`RecoveryPlan`] in the router's plan cache, stamped with the
/// topology epoch it was last validated at.
///
/// The cache is an ordered preference list: the first *valid* entry wins.
/// Entries are never silently executed against a topology they were not
/// validated for — activation requires `epoch == topology_epoch`, and the
/// epoch is bumped (with eager revalidation against the dead-neighbor
/// set) on every event that can stale a plan: a neighbor newly presumed
/// dead, a neighbor heard again after being presumed dead, an upstream
/// repoint, a reboot, and each protection maintenance sweep.
///
/// Invalidated entries stay cached rather than being dropped: deadness is
/// an inference from retry exhaustion, and a neighbor declared dead by
/// mistake un-deads itself the moment it is heard again, which restores
/// the plan's validity. The `stale_discards` counter records each
/// valid→invalid transition (the plan was abandoned as unusable).
#[derive(Debug, Clone)]
struct CachedPlan {
    plan: RecoveryPlan,
    epoch: u64,
    valid: bool,
}

/// Downstream interface set in struct-of-arrays layout: the soft state
/// toward `nodes[i]` expires at `expires[i]`. The data fan-out loop — the
/// hottest per-packet path in a session — touches only `nodes`; the
/// expiry sweep touches only `expires`. Insertion order is preserved so
/// forwarding order stays deterministic.
#[derive(Debug, Clone, Default)]
struct DownstreamSet {
    nodes: Vec<NodeId>,
    expires: Vec<SimTime>,
}

impl DownstreamSet {
    /// Installs `node` (or pushes its deadline forward).
    fn refresh(&mut self, node: NodeId, expires: SimTime) {
        match self.nodes.iter().position(|&n| n == node) {
            Some(i) => self.expires[i] = expires,
            None => {
                self.nodes.push(node);
                self.expires.push(expires);
            }
        }
    }

    fn remove(&mut self, node: NodeId) {
        if let Some(i) = self.nodes.iter().position(|&n| n == node) {
            self.nodes.remove(i);
            self.expires.remove(i);
        }
    }

    /// Drops every entry whose deadline has passed at `now`, returning the
    /// pruned nodes (their reliable lanes get garbage-collected: an
    /// expired downstream is a presumed-dead neighbor).
    fn expire(&mut self, now: SimTime) -> Vec<NodeId> {
        let mut pruned = Vec::new();
        let mut i = 0;
        while i < self.nodes.len() {
            if self.expires[i] > now {
                i += 1;
            } else {
                pruned.push(self.nodes.remove(i));
                self.expires.remove(i);
            }
        }
        pruned
    }

    fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// One delivered data packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// Arrival time.
    pub time: SimTime,
    /// Sequence number stamped by the source.
    pub seq: u64,
}

/// One group's SMRP router: a lane of its node's [`MultiRouter`] process.
///
/// Its handlers run against the process's context. Every send and timer
/// goes through two private emitters, `send` and `set_timer`, which tag
/// it with the lane's group; they are the lane's only way out, so one
/// group's traffic can never reach another group's lane.
#[derive(Debug, Clone)]
pub struct Router {
    config: RouterConfig,
    /// The group this lane serves, stamped on everything it emits.
    group: GroupId,
    is_source: bool,
    is_member: bool,
    on_tree: bool,
    upstream: Option<NodeId>,
    downstream: DownstreamSet,
    last_upstream_heard: SimTime,
    /// Whether the current upstream has been heard *helloing* since it was
    /// installed. A freshly grafted upstream only starts heartbeating once
    /// the `Setup` reaches it and is applied, so during that handshake
    /// silence is not evidence of death — see the `UpstreamCheck` handler.
    /// Acks are deliberately not enough: a neighbor acks (and buffers)
    /// envelopes it has not applied yet.
    upstream_heard: bool,
    /// The reliable `(peer, seq)` of the graft `Setup` sent to a freshly
    /// repointed upstream, if any. While this exact envelope is pending,
    /// the upstream check defers the death call: the retry budget — not
    /// hello silence — is the authoritative reachability signal for an
    /// upstream that cannot heartbeat us before the graft lands.
    pending_graft: Option<(NodeId, u64)>,
    last_data_heard: SimTime,
    /// Path of the most recently executed plan plus the count of
    /// consecutive executions it has had with no data arriving in
    /// between. An activated plan can fail *silently*: its graft cascade
    /// may land on a branch a wider failure severed from the source, or
    /// hang at a relay whose own exhaustion never feeds back here. The
    /// starvation check uses this count to rotate past such a plan (see
    /// [`Router::rotate_starved_plan`]); any data delivery clears it.
    activated_path: Option<(Vec<NodeId>, u32)>,
    /// Ordered preference list of recovery plans (see [`CachedPlan`]).
    /// Reactive restoration installs a single plan; protection mode
    /// installs a precomputed fallback chain via
    /// [`Router::install_backup_plans`].
    plan_cache: Vec<CachedPlan>,
    /// Monotone counter of plan-staling events. Cached plans carry the
    /// epoch they were last validated at; only current-epoch plans
    /// execute.
    topology_epoch: u64,
    /// Neighbors presumed dead: fed by retry-budget exhaustion (the only
    /// local evidence that a path into a second failure is hopeless),
    /// cleared per neighbor the moment that neighbor is heard again, and
    /// wholesale on reboot.
    dead_neighbors: Vec<NodeId>,
    /// Whether this router runs in protection mode (a backup-plan cache
    /// was installed); gates the plan-sweep maintenance chain.
    protection: bool,
    activations: u64,
    stale_discards: u64,
    recovering: bool,
    /// The upstream this router had when soft-state expiry pruned it off
    /// the tree. A graft that merges here while the router is off-tree
    /// re-extends the branch toward this node, PIM-graft style (see the
    /// `Setup` final-hop handling).
    former_upstream: Option<NodeId>,
    next_seq: u64,
    deliveries: Vec<Delivery>,
    forwarded: u64,
    /// Engine tokens of the live periodic timer chains, one per class.
    /// `None` means the chain is not running. Storing tokens (rather than
    /// boolean "armed" flags) lets prune and reboot *cancel* a chain in
    /// the engine's timer wheel instead of letting stale links fire into
    /// filtering checks — a chain armed before an outage would otherwise
    /// survive the reboot and run duplicated alongside the re-armed one.
    hello_token: Option<TimerToken>,
    refresh_token: Option<TimerToken>,
    expiry_token: Option<TimerToken>,
    upstream_check_token: Option<TimerToken>,
    starvation_token: Option<TimerToken>,
    data_token: Option<TimerToken>,
    plan_sweep_token: Option<TimerToken>,
    control_sent: ControlCounters,
    reliable: ReliableEndpoint,
    /// Unicast routing state (installed from the routing protocol): next
    /// hop and distance toward the multicast source.
    next_hop_to_source: Option<NodeId>,
    spf_dist_to_source: f64,
    /// Advertised tree metadata used to answer §3.3.1 queries.
    shr_value: u32,
    tree_delay_value: f64,
    pending_join: Option<PendingJoin>,
}

/// State of an in-flight §3.3.1 query-based join at the joining node.
#[derive(Debug, Clone)]
struct PendingJoin {
    d_thresh: f64,
    responses: Vec<QueryAnswer>,
}

#[derive(Debug, Clone)]
struct QueryAnswer {
    approach: Vec<NodeId>,
    approach_delay: f64,
    shr: u32,
    tree_delay: f64,
}

/// Control-plane messages emitted by a router, by type (§3.3.2's protocol
/// overhead discussion). Serializable so multi-session campaign reports
/// can record per-group control overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ControlCounters {
    /// Heartbeats sent to tree neighbors.
    pub hellos: u64,
    /// Soft-state refreshes sent upstream.
    pub refreshes: u64,
    /// Setup (join/graft) messages initiated or forwarded.
    pub setups: u64,
    /// Explicit leave messages sent upstream.
    pub leaves: u64,
}

impl ControlCounters {
    /// Total control messages.
    pub fn total(&self) -> u64 {
        self.hellos + self.refreshes + self.setups + self.leaves
    }

    /// Accumulates `other` into `self` (per-router counters roll up into
    /// per-group and per-run totals).
    pub fn merge(&mut self, other: &ControlCounters) {
        self.hellos += other.hellos;
        self.refreshes += other.refreshes;
        self.setups += other.setups;
        self.leaves += other.leaves;
    }
}

impl Router {
    /// Creates an idle, off-tree lane for `group`.
    pub(crate) fn new(config: RouterConfig, group: GroupId) -> Self {
        Router {
            config,
            group,
            is_source: false,
            is_member: false,
            on_tree: false,
            upstream: None,
            downstream: DownstreamSet::default(),
            last_upstream_heard: SimTime::ZERO,
            upstream_heard: true,
            pending_graft: None,
            last_data_heard: SimTime::ZERO,
            activated_path: None,
            plan_cache: Vec::new(),
            topology_epoch: 0,
            dead_neighbors: Vec::new(),
            protection: false,
            activations: 0,
            stale_discards: 0,
            recovering: false,
            former_upstream: None,
            next_seq: 0,
            deliveries: Vec::new(),
            forwarded: 0,
            hello_token: None,
            refresh_token: None,
            expiry_token: None,
            upstream_check_token: None,
            starvation_token: None,
            data_token: None,
            plan_sweep_token: None,
            control_sent: ControlCounters::default(),
            reliable: ReliableEndpoint::default(),
            next_hop_to_source: None,
            spf_dist_to_source: f64::INFINITY,
            shr_value: 0,
            tree_delay_value: 0.0,
            pending_join: None,
        }
    }

    /// Marks this router as the multicast source.
    pub fn set_source(&mut self) {
        self.is_source = true;
        self.on_tree = true;
    }

    /// Preloads tree state (used when a session loads a core-built tree
    /// instead of running message-level joins).
    pub fn load_state(&mut self, upstream: Option<NodeId>, downstream: &[NodeId], member: bool) {
        self.on_tree = true;
        self.upstream = upstream;
        // Preloaded state or not, no hello has actually crossed the link
        // yet: the first one is sent a full hello interval after boot and
        // needs a propagation delay on top. `upstream_heard` stays false
        // so the upstream check pads its deadline with that one-way delay
        // (see the cold-start rule in the `UpstreamCheck` handler) —
        // otherwise every long link in the topology boots straight into a
        // false failure detection.
        self.upstream_heard = false;
        self.downstream = DownstreamSet::default();
        for &d in downstream {
            self.downstream.refresh(d, self.config.holdtime);
        }
        self.is_member = member;
    }

    /// Installs the action to take when the upstream dies, replacing any
    /// cached plans.
    pub fn install_recovery_plan(&mut self, plan: RecoveryPlan) {
        self.plan_cache = vec![CachedPlan {
            plan,
            epoch: self.topology_epoch,
            valid: true,
        }];
    }

    /// Installs a precomputed backup-plan fallback chain (protection
    /// mode): the first valid plan activates on failure detection without
    /// any on-demand search; later entries are progressively less
    /// conservative fallbacks. Enables the plan-sweep maintenance chain
    /// the next time timers are (re)armed.
    pub(crate) fn install_backup_plans(&mut self, plans: Vec<RecoveryPlan>) {
        self.protection = true;
        self.plan_cache = plans
            .into_iter()
            .map(|plan| CachedPlan {
                plan,
                epoch: self.topology_epoch,
                valid: true,
            })
            .collect();
    }

    /// Protection-plane accounting: plans currently held (valid cache
    /// entries, the standing state overhead of protection mode — reactive
    /// routers report zero even while a scenario-installed plan is
    /// cached), cached-plan activations, and stale-plan discards. The
    /// latter two count in every mode: reactive recovery flows through the
    /// same cache and staleness machinery.
    pub(crate) fn protection_counters(&self) -> ProtectionHealth {
        let held = if self.protection {
            self.plan_cache.iter().filter(|cp| cp.valid).count() as u64
        } else {
            0
        };
        ProtectionHealth {
            plans_held: held,
            activations: self.activations,
            stale_discards: self.stale_discards,
        }
    }

    /// Bumps the topology epoch and eagerly revalidates every cached plan
    /// against the dead-neighbor set. This is the single choke point for
    /// plan invalidation: after it returns, every cache entry is stamped
    /// with the current epoch and its `valid` bit reflects whether its
    /// path crosses a neighbor presumed dead. Each valid→invalid
    /// transition counts one stale-plan discard.
    fn bump_epoch_and_revalidate(&mut self) {
        self.topology_epoch += 1;
        let dead = &self.dead_neighbors;
        for cp in &mut self.plan_cache {
            let viable = !cp.plan.path.iter().any(|n| dead.contains(n));
            if cp.valid && !viable {
                self.stale_discards += 1;
            }
            cp.valid = viable;
            cp.epoch = self.topology_epoch;
        }
    }

    /// Records `node` as presumed dead (retry budget toward it ran out)
    /// and invalidates cached plans crossing it.
    fn note_neighbor_dead(&mut self, node: NodeId) {
        if self.dead_neighbors.contains(&node) {
            return;
        }
        self.dead_neighbors.push(node);
        self.bump_epoch_and_revalidate();
    }

    /// Clears a mistaken death verdict: any message from `node` proves it
    /// reachable again, which restores the validity of plans through it.
    /// If that un-blocks a recovery that had stalled with every plan
    /// discarded, retry immediately — the starvation re-push is gated off
    /// while `recovering` is latched, so this is the only path back.
    fn neighbor_heard(&mut self, ctx: &mut Ctx<'_, MultiRouter>, node: NodeId) {
        if let Some(i) = self.dead_neighbors.iter().position(|&n| n == node) {
            self.dead_neighbors.swap_remove(i);
            self.bump_epoch_and_revalidate();
            if self.recovering && self.on_tree && self.has_viable_plan() {
                self.recovering = false;
                self.detect_upstream_failure(ctx);
            }
        }
    }

    /// First cached plan that is valid *and* validated at the current
    /// topology epoch — the only plans allowed to execute.
    fn first_viable_plan(&self) -> Option<&RecoveryPlan> {
        self.plan_cache
            .iter()
            .find(|cp| cp.valid && cp.epoch == self.topology_epoch)
            .map(|cp| &cp.plan)
    }

    /// Whether any cached plan could currently execute.
    fn has_viable_plan(&self) -> bool {
        self.first_viable_plan().is_some()
    }

    /// Whether this router currently has tree state.
    pub fn is_on_tree(&self) -> bool {
        self.on_tree
    }

    /// Whether this router is a member (receiver).
    pub fn is_member(&self) -> bool {
        self.is_member
    }

    /// Current upstream interface.
    pub fn upstream(&self) -> Option<NodeId> {
        self.upstream
    }

    /// Current downstream interfaces.
    pub fn downstream(&self) -> Vec<NodeId> {
        self.downstream.nodes().to_vec()
    }

    /// Number of reliable-delivery lanes currently holding state (see
    /// `ReliableEndpoint::lane_count`). Campaign audits use this to
    /// verify that lanes toward dead neighbors are reclaimed.
    pub fn reliable_lane_count(&self) -> usize {
        self.reliable.lane_count()
    }

    /// Data packets delivered to this (member) router.
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// When service resumed after a failure at `fail_at`: the arrival of
    /// the first packet the source *sent* after `fail_at` (packets in
    /// flight when the failure hit do not count). The source emits
    /// sequence `s` at `(s + 1) · data_interval`.
    pub fn restored_at(&self, fail_at: SimTime) -> Option<SimTime> {
        let interval = DATA_INTERVAL.as_ms();
        self.deliveries
            .iter()
            .find(|d| SimTime::from_ms(interval * (d.seq as f64 + 1.0)) > fail_at)
            .map(|d| d.time)
    }

    /// Packets forwarded downstream by this router.
    pub(crate) fn forwarded_count(&self) -> u64 {
        self.forwarded
    }

    /// Control messages this router has sent, by type.
    pub fn control_sent(&self) -> ControlCounters {
        self.control_sent
    }

    /// Reliable-layer counters (retransmits, dup drops, exhaustions, ...).
    pub fn reliability(&self) -> ReliabilityCounters {
        self.reliable.counters()
    }

    /// Whether this router detected an upstream failure and initiated (or
    /// is waiting to initiate) recovery.
    pub fn is_recovering(&self) -> bool {
        self.recovering
    }

    /// Leaves the multicast group: membership is dropped immediately; if no
    /// downstream routers depend on this node, the next expiry check prunes
    /// it off the tree and propagates `Leave_Req` upstream (the §3.2.2
    /// departure procedure over soft state).
    pub(crate) fn leave_group(&mut self) {
        self.is_member = false;
    }

    /// Joins the multicast group in place, the inverse of
    /// [`leave_group`](Self::leave_group): membership is local state, so
    /// tree state and timers stay as they are. A relay promoted while the
    /// `Setup` that makes it one is still in flight is grafted by that
    /// `Setup` and starts receiving when it lands.
    pub(crate) fn join_group(&mut self) {
        self.is_member = true;
    }

    /// Installs unicast routing state: the next hop and distance toward the
    /// multicast source, as the underlying routing protocol would provide.
    pub fn set_unicast_routing(&mut self, next_hop: Option<NodeId>, distance: f64) {
        self.next_hop_to_source = next_hop;
        self.spf_dist_to_source = distance;
    }

    /// Updates the tree metadata this router advertises to §3.3.1 queries
    /// (its `SHR(S, R)` and on-tree delay). §3.3.2's deferred
    /// recalculation: values only need to be fresh when a query arrives.
    pub fn set_tree_metadata(&mut self, shr: u32, tree_delay: f64) {
        self.shr_value = shr;
        self.tree_delay_value = tree_delay;
    }

    /// The currently advertised `SHR` value.
    pub fn advertised_shr(&self) -> u32 {
        self.shr_value
    }

    /// Starts a §3.3.1 query-based join: one query per neighbor, each
    /// relayed along that neighbor's unicast shortest path to the source
    /// until an on-tree router answers; after `timeout`, the best response
    /// wins and a `Setup` is issued along its approach path.
    pub fn start_query_join(
        &mut self,
        ctx: &mut Ctx<'_, MultiRouter>,
        d_thresh: f64,
        timeout: SimTime,
    ) {
        self.pending_join = Some(PendingJoin {
            d_thresh,
            responses: Vec::new(),
        });
        let me = ctx.me();
        let neighbors: Vec<NodeId> = ctx.graph().neighbors(me).collect();
        for nb in neighbors {
            self.control_sent.setups += 1;
            self.send(
                ctx,
                nb,
                ProtoMsg::Query {
                    origin: me,
                    path: vec![me],
                    delay: 0.0,
                },
            );
        }
        self.set_timer(ctx, timeout, TimerKind::QueryTimeout);
    }

    /// Whether a query-based join is still waiting for its timeout.
    pub fn query_join_pending(&self) -> bool {
        self.pending_join.is_some()
    }

    /// First delivery strictly after `t`, if any.
    pub fn first_delivery_after(&self, t: SimTime) -> Option<Delivery> {
        self.deliveries.iter().copied().find(|d| d.time > t)
    }

    /// Arms the periodic timers; the session calls this once per on-tree
    /// node at start-up (the source also starts the data pump). Safe to
    /// call again — timers are only armed once.
    pub fn start_timers(&mut self, ctx: &mut Ctx<'_, MultiRouter>) {
        self.last_upstream_heard = ctx.now();
        self.last_data_heard = ctx.now();
        self.activated_path = None;
        self.ensure_periodic_timers(ctx);
        self.ensure_upstream_check(ctx);
        if self.is_member && !self.is_source && self.starvation_token.is_none() {
            self.starvation_token =
                Some(self.set_timer(ctx, STARVATION_LIMIT, TimerKind::StarvationCheck));
        }
        if self.is_source && self.data_token.is_none() {
            self.data_token = Some(self.set_timer(ctx, DATA_INTERVAL, TimerKind::DataTick));
        }
        if self.protection && !self.plan_cache.is_empty() && self.plan_sweep_token.is_none() {
            self.plan_sweep_token =
                Some(self.set_timer(ctx, self.config.holdtime, TimerKind::PlanSweep));
        }
    }

    fn ensure_periodic_timers(&mut self, ctx: &mut Ctx<'_, MultiRouter>) {
        if self.hello_token.is_some() {
            return;
        }
        self.hello_token = Some(self.set_timer(ctx, HELLO_INTERVAL, TimerKind::HelloTick));
        self.refresh_token = Some(self.set_timer(ctx, REFRESH_INTERVAL, TimerKind::RefreshTick));
        self.expiry_token = Some(self.set_timer(ctx, self.config.holdtime, TimerKind::ExpiryCheck));
    }

    fn ensure_upstream_check(&mut self, ctx: &mut Ctx<'_, MultiRouter>) {
        if self.upstream.is_none() || self.upstream_check_token.is_some() {
            return;
        }
        self.upstream_check_token =
            Some(self.set_timer(ctx, HELLO_INTERVAL, TimerKind::UpstreamCheck));
    }

    /// Cancels every live timer chain and forgets the tokens. Used on
    /// reboot (pending chain links died conceptually with the node, but
    /// their wheel entries would survive a quick repair and duplicate the
    /// re-armed chains) and when a pruned router leaves the tree.
    fn cancel_periodic_timers(&mut self, ctx: &mut Ctx<'_, MultiRouter>) {
        for token in [
            self.hello_token.take(),
            self.refresh_token.take(),
            self.expiry_token.take(),
            self.upstream_check_token.take(),
            self.starvation_token.take(),
            self.data_token.take(),
            self.plan_sweep_token.take(),
        ]
        .into_iter()
        .flatten()
        {
            ctx.cancel_timer(token);
        }
    }

    /// Queues `inner` to the adjacent node `to`, tagged with this lane's
    /// group.
    fn send(&self, ctx: &mut Ctx<'_, MultiRouter>, to: NodeId, inner: ProtoMsg) {
        let group = self.group;
        ctx.send(to, GroupMsg { group, inner });
    }

    /// Arms timer `inner` to fire `delay` from now, tagged with this lane's
    /// group. The token comes from the node's one counter, which every
    /// lane shares.
    fn set_timer(
        &self,
        ctx: &mut Ctx<'_, MultiRouter>,
        delay: SimTime,
        inner: TimerKind,
    ) -> TimerToken {
        let group = self.group;
        ctx.set_timer(delay, GroupTimer { group, inner })
    }

    /// The retransmission timeout toward `to`: 4× the one-way link delay,
    /// floored at [`RTO_FLOOR`], so slow Waxman links do not
    /// retransmit spuriously while short links retry promptly.
    fn rto_for(&self, ctx: &Ctx<'_, MultiRouter>, to: NodeId) -> SimTime {
        let one_way = ctx.graph().delay_between(ctx.me(), to).unwrap_or(0.0);
        SimTime::from_ms((4.0 * one_way).max(RTO_FLOOR.as_ms()))
    }

    /// Sends a tree-mutating message through the reliable layer: assigns a
    /// per-neighbor sequence number, wraps it in an envelope and arms the
    /// first retransmission timer. Returns the assigned sequence number.
    fn send_reliable(&mut self, ctx: &mut Ctx<'_, MultiRouter>, to: NodeId, msg: ProtoMsg) -> u64 {
        let seq = self.reliable.register(to, msg.clone());
        self.send(
            ctx,
            to,
            ProtoMsg::Reliable {
                seq,
                base: self.reliable.base_for(to),
                inner: Box::new(msg),
            },
        );
        let rto = self.rto_for(ctx, to);
        let token = self.set_timer(ctx, rto, TimerKind::Retransmit { to, seq });
        self.reliable.set_retransmit_token(to, seq, token);
        seq
    }

    /// Sends a graft `Setup` toward the (freshly repointed) upstream `to`
    /// and remembers its envelope so the upstream check can tell an
    /// in-flight handshake from a dead upstream.
    fn send_graft(&mut self, ctx: &mut Ctx<'_, MultiRouter>, to: NodeId, msg: ProtoMsg) {
        self.control_sent.setups += 1;
        let seq = self.send_reliable(ctx, to, msg);
        self.pending_graft = Some((to, seq));
    }

    /// Repoints the upstream interface at `new_up`, abandoning any
    /// reliable traffic still pending toward the old upstream (retrying
    /// into a dead or bypassed branch is pointless and would otherwise be
    /// miscounted as retry exhaustion).
    fn repoint_upstream(&mut self, ctx: &mut Ctx<'_, MultiRouter>, new_up: NodeId) {
        if let Some(old) = self.upstream {
            if old != new_up {
                for token in self.reliable.abandon(old) {
                    ctx.cancel_timer(token);
                }
            }
        }
        if self.upstream != Some(new_up) {
            self.upstream = Some(new_up);
            self.last_upstream_heard = ctx.now();
            self.upstream_heard = false;
            // A graft through this router repairs whatever failure it was
            // recovering from: re-enable failure detection on the new
            // upstream instead of staying latched on the dead one.
            self.recovering = false;
            // A repoint is a tree event that can stale cached plans (a
            // protection plan's contingency was built for the previous
            // upstream). Bump the epoch so no plan executes without
            // passing revalidation first — the revalidation is eager, so
            // plans that remain safe (including the one whose graft
            // caused this repoint) stay executable for starvation
            // re-pushes.
            self.bump_epoch_and_revalidate();
        }
    }

    /// Initiates a source-routed state installation along `path`
    /// (`path[0]` must be this router). Used for joins and grafts.
    pub fn initiate_setup(
        &mut self,
        ctx: &mut Ctx<'_, MultiRouter>,
        path: Vec<NodeId>,
        member: bool,
    ) {
        debug_assert!(path.len() >= 2, "setup path needs at least two hops");
        debug_assert_eq!(path[0], ctx.me(), "setup path starts at the initiator");
        self.on_tree = true;
        if member {
            self.is_member = true;
        }
        self.repoint_upstream(ctx, path[1]);
        self.last_upstream_heard = ctx.now();
        let next = path[1];
        self.send_graft(ctx, next, ProtoMsg::Setup { path, idx: 1 });
        self.ensure_periodic_timers(ctx);
        self.ensure_upstream_check(ctx);
    }

    fn install_downstream(&mut self, ctx: &Ctx<'_, MultiRouter>, node: NodeId) {
        self.downstream
            .refresh(node, ctx.now() + self.config.holdtime);
    }

    /// Re-extends a pruned branch: rejoin toward the upstream this router
    /// had when soft-state expiry pruned it, forwarding a one-hop graft
    /// that cascades until it merges with live tree state (PIM-graft
    /// style). Returns `false` when there is nothing to re-extend to (the
    /// router was never on the tree).
    fn rejoin_former_upstream(&mut self, ctx: &mut Ctx<'_, MultiRouter>) -> bool {
        let Some(up) = self.former_upstream else {
            return false;
        };
        self.on_tree = true;
        self.upstream = Some(up);
        self.last_upstream_heard = ctx.now();
        self.upstream_heard = false; // it pruned us — no heartbeats yet.
        self.ensure_periodic_timers(ctx);
        self.ensure_upstream_check(ctx);
        let me = ctx.me();
        self.send_graft(
            ctx,
            up,
            ProtoMsg::Setup {
                path: vec![me, up],
                idx: 1,
            },
        );
        true
    }

    fn detect_upstream_failure(&mut self, ctx: &mut Ctx<'_, MultiRouter>) {
        self.recovering = true;
        // The upstream is presumed dead: keeping envelopes in flight
        // toward it would only burn the retry budget, and its reliable
        // lanes are reclaimed wholesale (the transmit sequence counter
        // survives inside the endpoint in case the neighbor was declared
        // dead by mistake).
        if let Some(up) = self.upstream {
            for token in self.reliable.gc_peer(up) {
                ctx.cancel_timer(token);
            }
        }
        let Some(wait) = self.first_viable_plan().map(|p| p.wait) else {
            return; // nothing can be done (modelled as unrecoverable).
        };
        if wait == SimTime::ZERO {
            self.execute_recovery(ctx);
        } else {
            self.set_timer(ctx, wait, TimerKind::ReconvergenceDone);
        }
    }

    fn execute_recovery(&mut self, ctx: &mut Ctx<'_, MultiRouter>) {
        // The plan is cloned, not consumed: under a lossy control plane a
        // graft can stall mid-cascade — a forwarding hop's upstream-failure
        // detection may abandon the pending Setup before a retransmission
        // lands, severing the chain at a detour-only node that no refresh
        // can resurrect. Keeping the plan lets the starvation check
        // re-execute it for as long as the member keeps starving; the
        // reliable layer's dedup makes repeated grafts idempotent.
        //
        // The cache lookup enforces the protection-plane safety property:
        // only a plan validated at the current topology epoch (and
        // crossing no neighbor presumed dead) may execute. A plan that
        // went stale between detection and execution — a second failure
        // killed the planned detour while a reconvergence timer was
        // pending, say — is skipped here rather than grafted into the
        // dead topology.
        let Some(plan) = self.first_viable_plan().cloned() else {
            return;
        };
        debug_assert!(
            !plan.path.iter().any(|n| self.dead_neighbors.contains(n)),
            "a plan through a presumed-dead neighbor must never execute"
        );
        if plan.path.len() < 2 {
            return;
        }
        self.activations += 1;
        match &mut self.activated_path {
            Some((path, pushes)) if *path == plan.path => *pushes += 1,
            slot => *slot = Some((plan.path.clone(), 1)),
        }
        self.initiate_setup(ctx, plan.path, self.is_member);
        self.recovering = false;
        // Activation is confirmed by data actually arriving. A graft can
        // succeed hop-by-hop yet restore nothing — the target may sit in
        // a fragment a wider failure severed from the source, or a relay
        // deep in the path may be dead, its retry exhaustion feeding back
        // only to its own cache, never to this node's. The confirm timer
        // is how such silent failures advance the fallback chain instead
        // of churning forever (see [`TimerKind::PlanConfirm`]). Twice the
        // detection horizon leaves room for the cascade to complete and
        // the first data packets to travel back; twice the plan's own
        // path delay on top covers long detours, whose cascade + data
        // round trip is dominated by propagation, not by timer grain.
        let confirm =
            SimTime::from_ms(2.0 * self.config.detection_ms() + 2.0 * plan.path_delay.as_ms());
        self.set_timer(ctx, confirm, TimerKind::PlanConfirm);
    }

    /// Removes the cached plan with `path` — presumed to have failed
    /// silently — provided a *different* viable plan exists to advance
    /// to. A lone plan is kept and re-pushed instead: discarding it would
    /// turn a lossy stall into a permanent outage, and for single-plan
    /// (reactive) caches the starvation re-push is the recovery path.
    /// Returns whether a discard happened.
    fn discard_silent_plan(&mut self, path: &[NodeId]) -> bool {
        let has_alternative = self
            .plan_cache
            .iter()
            .any(|cp| cp.valid && cp.epoch == self.topology_epoch && cp.plan.path != path);
        if !has_alternative {
            return false;
        }
        self.plan_cache.retain(|cp| cp.plan.path != path);
        self.stale_discards += 1;
        self.activated_path = None;
        true
    }

    /// Starvation-side rotation: once the same path has been pushed twice
    /// with no data heard in between (the first re-push is kept — under a
    /// lossy channel a stalled cascade usually completes on the second
    /// push), the plan is presumed silently useless and the chain
    /// advances. The safety net behind [`TimerKind::PlanConfirm`] for
    /// members whose confirm windows raced a slow cascade.
    fn rotate_starved_plan(&mut self) {
        let Some((path, pushes)) = &self.activated_path else {
            return;
        };
        if *pushes < 2 {
            return;
        }
        let path = path.clone();
        self.discard_silent_plan(&path);
    }

    /// Re-arms this lane after its node's repair (see
    /// [`smrp_sim::NodeBehavior::on_reboot`]).
    pub(crate) fn on_reboot(&mut self, ctx: &mut Ctx<'_, MultiRouter>) {
        // The periodic chains must be rebuilt from scratch — and the old
        // chains *cancelled*, not merely forgotten: a tick armed before
        // the outage survives in the timer wheel, and if the repair lands
        // before it fires it would run duplicated alongside the re-armed
        // chain (double hello rate, double refresh traffic). Cancelling by
        // token makes the stale links unreachable regardless of timing.
        // `start_timers` also resets the upstream/data silence clocks: the
        // reboot must not mistake its own outage window for an upstream
        // failure.
        self.cancel_periodic_timers(ctx);
        // Death verdicts predate the outage and may be obsolete (the
        // repair that brought this node back can have brought others
        // back too). Forget them and revalidate the plan cache; real
        // deadness re-learns itself through retry exhaustion.
        self.dead_neighbors.clear();
        self.bump_epoch_and_revalidate();
        if self.on_tree || self.is_source {
            self.start_timers(ctx);
        }
        // Retransmission timers need the same treatment: re-arm one per
        // still-pending envelope so unacked control traffic resumes, and
        // cancel whatever the old timer chain left in the wheel.
        for (to, seq) in self.reliable.pending_keys() {
            let rto = self.rto_for(ctx, to);
            let token = self.set_timer(ctx, rto, TimerKind::Retransmit { to, seq });
            if let Some(old) = self.reliable.set_retransmit_token(to, seq, token) {
                ctx.cancel_timer(old);
            }
        }
    }

    /// The loss class of `msg` (see [`smrp_sim::NodeBehavior::classify`]).
    pub(crate) fn classify(msg: &ProtoMsg) -> &'static str {
        match msg {
            ProtoMsg::Setup { .. } => "setup",
            ProtoMsg::LeaveReq => "leave",
            ProtoMsg::Refresh => "refresh",
            ProtoMsg::Hello => "hello",
            ProtoMsg::Data { .. } => "data",
            ProtoMsg::Query { .. } | ProtoMsg::QueryResp { .. } => "query",
            // Count envelope losses under the wrapped message's class.
            ProtoMsg::Reliable { inner, .. } => Self::classify(inner),
            ProtoMsg::Ack { .. } => "ack",
        }
    }

    /// The trace descriptor of `msg` (see
    /// [`smrp_sim::NodeBehavior::describe`]).
    pub(crate) fn describe(msg: &ProtoMsg) -> Descriptor {
        let plain = Descriptor::of_class(Self::classify(msg));
        match msg {
            // An envelope is described as the control message it carries,
            // marked reliable and numbered by the envelope.
            ProtoMsg::Reliable { seq, inner, .. } => Descriptor {
                reliable: true,
                seq: Some(*seq),
                ..Self::describe(inner)
            },
            ProtoMsg::Data { seq } | ProtoMsg::Ack { seq } => Descriptor {
                seq: Some(*seq),
                ..plain
            },
            ProtoMsg::Setup { path, idx } => Descriptor {
                setup: path
                    .first()
                    .zip(path.last())
                    .map(|(&origin, &attach)| SetupRoute {
                        origin,
                        attach,
                        hop: *idx as u32,
                    }),
                ..plain
            },
            // `classify` lumps the two directions of a query under one
            // loss class; a trace must tell a request from its answer.
            ProtoMsg::QueryResp { .. } => Descriptor::of_class("query-resp"),
            _ => plain,
        }
    }

    /// The trace descriptor of a fired `timer`.
    pub(crate) fn describe_timer(timer: &TimerKind) -> Descriptor {
        let class = match timer {
            TimerKind::HelloTick => "hello-tick",
            TimerKind::UpstreamCheck => "upstream-check",
            TimerKind::RefreshTick => "refresh-tick",
            TimerKind::ExpiryCheck => "expiry-check",
            TimerKind::DataTick => "data-tick",
            TimerKind::StarvationCheck => "starvation-check",
            TimerKind::QueryTimeout => "query-timeout",
            TimerKind::ReconvergenceDone => "reconvergence-done",
            TimerKind::PlanSweep => "plan-sweep",
            TimerKind::PlanConfirm => "plan-confirm",
            TimerKind::Retransmit { .. } => "retransmit",
        };
        let seq = match timer {
            TimerKind::Retransmit { seq, .. } => Some(*seq),
            _ => None,
        };
        Descriptor {
            seq,
            ..Descriptor::of_class(class)
        }
    }

    /// Handles a message from neighbor `from`.
    pub(crate) fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, MultiRouter>,
        from: NodeId,
        msg: ProtoMsg,
    ) {
        // Hearing anything from a neighbor disproves its presumed death
        // and restores the validity of cached plans through it.
        self.neighbor_heard(ctx, from);
        match msg {
            ProtoMsg::Ack { seq } => {
                // An ack from the upstream proves it is alive, so it feeds
                // the silence clock — but not `upstream_heard`: a neighbor
                // acks (and buffers) envelopes it has not applied yet, and
                // only an applied graft makes it heartbeat us.
                if self.upstream == Some(from) {
                    self.last_upstream_heard = ctx.now();
                }
                // The ack retires the envelope; its retransmission timer
                // is cancelled in the wheel rather than left to fire into
                // a "still pending?" check.
                if let Some(token) = self.reliable.on_ack(from, seq) {
                    ctx.cancel_timer(token);
                }
            }
            ProtoMsg::Reliable { seq, base, inner } => {
                // Ack every copy — the sender's copy of the ack may have
                // been lost even if the payload was already processed.
                self.reliable.note_ack_sent();
                self.send(ctx, from, ProtoMsg::Ack { seq });
                for released in self.reliable.on_receive(from, seq, base, *inner) {
                    self.apply_control(ctx, from, released);
                }
            }
            other => self.apply_control(ctx, from, other),
        }
    }

    /// Applies one control message to the soft-state machine. Reliable
    /// payloads arrive here deduplicated and in per-neighbor sequence
    /// order; raw messages (`Hello`, `Data`, queries) arrive as the
    /// channel delivered them.
    fn apply_control(&mut self, ctx: &mut Ctx<'_, MultiRouter>, from: NodeId, msg: ProtoMsg) {
        match msg {
            ProtoMsg::Hello => {
                if self.upstream == Some(from) {
                    self.last_upstream_heard = ctx.now();
                    self.upstream_heard = true;
                }
            }
            ProtoMsg::Refresh => {
                if self.on_tree {
                    self.install_downstream(ctx, from);
                } else if self.rejoin_former_upstream(ctx) {
                    // A downstream neighbor still refreshes this pruned
                    // branch — e.g. a rebooted router whose subtree
                    // survived a transient outage. Soft-state joins
                    // re-extend the branch toward the tree.
                    self.install_downstream(ctx, from);
                }
            }
            ProtoMsg::Setup { path, idx } => {
                debug_assert_eq!(path.get(idx), Some(&ctx.me()));
                self.install_downstream(ctx, from);
                if idx + 1 < path.len() {
                    // A relay that is *live* on the tree — data flowed
                    // through it within the failure-detection horizon —
                    // terminates the cascade here, PIM-merge style: the
                    // graft's downstream leg was installed above, and the
                    // relay keeps its own (working) upstream. Repointing a
                    // live relay is how a scenario-blind protection plan
                    // corrupts the tree: the plan's path was computed
                    // against a hypothetical contingency, and when several
                    // fragment roots activate simultaneously, their
                    // cascades can repoint relays on each other's feed
                    // paths into a cycle no soft-state refresh dissolves.
                    // A merge at the first live relay is always at least
                    // as good as the planned attach point.
                    let horizon = SimTime::from_ms(self.config.detection_ms());
                    let live = self.is_source
                        || (self.on_tree
                            && !self.recovering
                            && ctx.now() - self.last_data_heard <= horizon);
                    if live {
                        return;
                    }
                    // Interior hop of an explicit (source-routed) setup:
                    // (re)orient the upstream along the path and forward.
                    // Join paths never cross on-tree interiors (the
                    // selection is sink-constrained), so replacement only
                    // happens for restoration paths routed through a
                    // disconnected fragment — where the stale upstream is
                    // exactly what must be overridden.
                    self.on_tree = true;
                    let next = path[idx + 1];
                    self.repoint_upstream(ctx, next);
                    self.ensure_periodic_timers(ctx);
                    self.ensure_upstream_check(ctx);
                    self.send_graft(ctx, next, ProtoMsg::Setup { path, idx: idx + 1 });
                } else if !self.on_tree {
                    // Final hop, but the merger pruned itself while the
                    // graft was in flight: the restoration path was
                    // computed against the tree at failure time, and a
                    // slow detour (global reconvergence, starvation-
                    // triggered member recovery) can outlive the branch's
                    // soft state. Re-extend the branch hop-by-hop toward
                    // the remembered upstream until it merges with live
                    // tree state. Pruned relays on the surviving tree
                    // always remember a usable upstream, so the cascade
                    // terminates at the first on-tree router.
                    self.rejoin_former_upstream(ctx);
                }
                // Final hop on a live merger: the downstream was installed
                // above, nothing to forward (PIM merge semantics).
            }
            ProtoMsg::LeaveReq => {
                self.downstream.remove(from);
            }
            ProtoMsg::Data { seq } => {
                if self.upstream != Some(from) && !self.is_source {
                    return; // only accept data from the upstream interface.
                }
                self.last_data_heard = ctx.now();
                // Service is flowing again: whatever plan got us here is
                // vindicated, so the silent-failure rotation count resets.
                self.activated_path = None;
                if self.is_member {
                    self.deliveries.push(Delivery {
                        time: ctx.now(),
                        seq,
                    });
                }
                for &d in self.downstream.nodes() {
                    self.send(ctx, d, ProtoMsg::Data { seq });
                    self.forwarded += 1;
                }
            }
            ProtoMsg::Query {
                origin,
                mut path,
                delay,
            } => {
                let me = ctx.me();
                let hop_delay = ctx
                    .graph()
                    .delay_between(from, me)
                    .expect("messages arrive over real links");
                let delay = delay + hop_delay;
                path.push(me);
                if self.on_tree {
                    // First on-tree router: answer with the advertised
                    // SHR and tree delay, retracing the query path.
                    let idx = path.len() - 2;
                    let back = path[idx];
                    self.send(
                        ctx,
                        back,
                        ProtoMsg::QueryResp {
                            approach: path,
                            approach_delay: delay,
                            shr: self.shr_value,
                            tree_delay: self.tree_delay_value,
                            idx,
                        },
                    );
                } else if let Some(next) = self.next_hop_to_source {
                    // Relay along this node's unicast path to the source,
                    // unless that would loop.
                    if !path.contains(&next) {
                        self.send(
                            ctx,
                            next,
                            ProtoMsg::Query {
                                origin,
                                path,
                                delay,
                            },
                        );
                    }
                }
            }
            ProtoMsg::QueryResp {
                approach,
                approach_delay,
                shr,
                tree_delay,
                idx,
            } => {
                if idx == 0 {
                    if let Some(pending) = self.pending_join.as_mut() {
                        pending.responses.push(QueryAnswer {
                            approach,
                            approach_delay,
                            shr,
                            tree_delay,
                        });
                    }
                } else {
                    let back = approach[idx - 1];
                    self.send(
                        ctx,
                        back,
                        ProtoMsg::QueryResp {
                            approach,
                            approach_delay,
                            shr,
                            tree_delay,
                            idx: idx - 1,
                        },
                    );
                }
            }
            // Envelopes and acks are unwrapped in `on_message` before
            // reaching this point; nested ones would be a layering bug.
            ProtoMsg::Reliable { .. } | ProtoMsg::Ack { .. } => {
                debug_assert!(false, "reliable envelope leaked into apply_control");
            }
        }
    }

    /// Handles one of this lane's timers firing.
    pub(crate) fn on_timer(&mut self, ctx: &mut Ctx<'_, MultiRouter>, timer: TimerKind) {
        match timer {
            TimerKind::HelloTick => {
                if self.on_tree {
                    if let Some(up) = self.upstream {
                        self.control_sent.hellos += 1;
                        self.send(ctx, up, ProtoMsg::Hello);
                    }
                    for &d in self.downstream.nodes() {
                        self.control_sent.hellos += 1;
                        self.send(ctx, d, ProtoMsg::Hello);
                    }
                }
                self.hello_token = Some(self.set_timer(ctx, HELLO_INTERVAL, TimerKind::HelloTick));
            }
            TimerKind::UpstreamCheck => {
                if let Some(up) = self.upstream.filter(|_| self.on_tree && !self.recovering) {
                    let silence = ctx.now() - self.last_upstream_heard;
                    // Cold-start rule: until the upstream has been heard
                    // at least once, the silence clock includes the time
                    // its very first hello legitimately spends in flight —
                    // one propagation delay of the shared link (a local
                    // link property, the moral equivalent of a configured
                    // BFD interval). Established neighbors keep the plain
                    // miss-limit rule: steady-state hello *inter-arrival*
                    // equals the hello interval no matter how long the
                    // link is.
                    let cold_start = if self.upstream_heard {
                        0.0
                    } else {
                        ctx.graph().delay_between(ctx.me(), up).unwrap_or(0.0)
                    };
                    let deadline = SimTime::from_ms(self.config.detection_ms() + cold_start);
                    // An upstream that has never helloed us is still
                    // mid-handshake: it only starts heartbeating once the
                    // graft's `Setup` reaches it and is applied, and a few
                    // lost copies on a long-RTO link can outlast the miss
                    // window. While that exact envelope is still retrying,
                    // silence is not evidence of death — the retry budget
                    // (which survives 10% loss with 1e-9 failure odds) is
                    // the authoritative signal, and its exhaustion or
                    // abandonment bounds the deferral. An established
                    // upstream keeps the fast miss-limit rule.
                    let handshaking = !self.upstream_heard
                        && self
                            .pending_graft
                            .is_some_and(|(to, seq)| to == up && self.reliable.is_pending(to, seq));
                    if silence > deadline && !handshaking {
                        self.detect_upstream_failure(ctx);
                    }
                }
                if self.upstream.is_some() {
                    self.upstream_check_token =
                        Some(self.set_timer(ctx, HELLO_INTERVAL, TimerKind::UpstreamCheck));
                } else {
                    self.upstream_check_token = None;
                }
            }
            TimerKind::RefreshTick => {
                if self.on_tree {
                    if let Some(up) = self.upstream {
                        self.control_sent.refreshes += 1;
                        if self.recovering {
                            // The upstream is presumed dead. Soft state
                            // heals by repetition — keep probing with raw
                            // refreshes so a repaired upstream re-learns
                            // this branch, but don't burn retry budget
                            // retransmitting into the outage.
                            self.send(ctx, up, ProtoMsg::Refresh);
                        } else {
                            self.send_reliable(ctx, up, ProtoMsg::Refresh);
                        }
                    }
                }
                self.refresh_token =
                    Some(self.set_timer(ctx, REFRESH_INTERVAL, TimerKind::RefreshTick));
            }
            TimerKind::ExpiryCheck => {
                let now = ctx.now();
                // Expired downstream neighbors are presumed dead (or gone
                // for good): reclaim their reliable lanes so long churny
                // campaigns don't accumulate state for corpses, and cancel
                // any retransmission timers aimed at them.
                for dead in self.downstream.expire(now) {
                    for token in self.reliable.gc_peer(dead) {
                        ctx.cancel_timer(token);
                    }
                }
                if self.on_tree && !self.is_source && !self.is_member && self.downstream.is_empty()
                {
                    // A relay with no remaining downstream state leaves the
                    // tree (the soft-state analogue of pruning). Remember
                    // the branch direction: a later graft that merges here
                    // must be able to re-extend toward the tree.
                    if let Some(up) = self.upstream.take() {
                        self.former_upstream = Some(up);
                        if self.recovering {
                            // The upstream is already presumed dead; a
                            // leave toward it would only retransmit into
                            // the void until the budget ran out.
                            for token in self.reliable.gc_peer(up) {
                                ctx.cancel_timer(token);
                            }
                        } else {
                            self.control_sent.leaves += 1;
                            self.send_reliable(ctx, up, ProtoMsg::LeaveReq);
                        }
                    }
                    self.on_tree = false;
                }
                self.expiry_token =
                    Some(self.set_timer(ctx, self.config.holdtime, TimerKind::ExpiryCheck));
            }
            TimerKind::DataTick => {
                if self.is_source {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    if self.is_member {
                        self.deliveries.push(Delivery {
                            time: ctx.now(),
                            seq,
                        });
                    }
                    for &d in self.downstream.nodes() {
                        self.send(ctx, d, ProtoMsg::Data { seq });
                        self.forwarded += 1;
                    }
                    self.data_token = Some(self.set_timer(ctx, DATA_INTERVAL, TimerKind::DataTick));
                } else {
                    self.data_token = None;
                }
            }
            TimerKind::StarvationCheck => {
                // While this node's own graft envelope is still unacked,
                // re-detecting would abandon it (`detect_upstream_failure`
                // reclaims the upstream's reliable lanes) and replace it
                // with a fresh copy every starvation period — so the retry
                // budget would never run out and a graft aimed at a dead
                // detour would loop forever instead of exhausting and
                // invalidating the plan. The in-flight envelope already
                // retransmits on its own backoff; let its budget deliver
                // the reachability verdict.
                let graft_in_flight = self
                    .pending_graft
                    .is_some_and(|(to, seq)| self.reliable.is_pending(to, seq));
                if self.is_member
                    && self.on_tree
                    && !self.recovering
                    && !graft_in_flight
                    && self.has_viable_plan()
                    && ctx.now() - self.last_data_heard > STARVATION_LIMIT
                {
                    // The stream died but this node's own upstream is alive:
                    // the failure sits higher in a fragment whose root could
                    // not repair it. Recover independently (§3.1: each
                    // disconnected member locates a restoration path). The
                    // plan survives execution, so this also re-pushes a
                    // graft whose cascade stalled on a lossy channel — the
                    // member retries every starvation period until data
                    // actually flows. A plan that keeps being re-pushed
                    // without ever yielding data is presumed silently
                    // useless and rotated out of the fallback chain first.
                    self.rotate_starved_plan();
                    self.detect_upstream_failure(ctx);
                }
                self.starvation_token = if self.is_member {
                    Some(self.set_timer(ctx, STARVATION_LIMIT, TimerKind::StarvationCheck))
                } else {
                    None
                };
            }
            TimerKind::QueryTimeout => {
                let Some(pending) = self.pending_join.take() else {
                    return;
                };
                // Apply the §3.2.2 criterion over the responses: minimum
                // SHR within the delay bound, ties by total delay; fall
                // back to the shortest response when nothing fits.
                let bound = (1.0 + pending.d_thresh) * self.spf_dist_to_source;
                let total = |a: &QueryAnswer| a.tree_delay + a.approach_delay;
                let best = pending
                    .responses
                    .iter()
                    .filter(|a| total(a) <= bound + 1e-9)
                    .min_by(|x, y| x.shr.cmp(&y.shr).then(total(x).total_cmp(&total(y))))
                    .or_else(|| {
                        pending
                            .responses
                            .iter()
                            .min_by(|x, y| total(x).total_cmp(&total(y)))
                    });
                if let Some(best) = best {
                    self.initiate_setup(ctx, best.approach.clone(), true);
                }
            }
            TimerKind::ReconvergenceDone => {
                self.execute_recovery(ctx);
            }
            TimerKind::PlanConfirm => {
                // Data arrival clears `activated_path`, so a surviving
                // entry means the activation it timed is still
                // unconfirmed: the plan failed silently. Advance the
                // chain if it has anywhere to advance to, and execute
                // the successor immediately — restoration speed is the
                // whole point of a precomputed fallback chain.
                let Some((path, _)) = self.activated_path.clone() else {
                    return;
                };
                if self.discard_silent_plan(&path) {
                    self.recovering = false;
                    self.detect_upstream_failure(ctx);
                }
            }
            TimerKind::Retransmit { to, seq } => {
                let rto = self.rto_for(ctx, to);
                match self.reliable.on_retransmit_timer(to, seq, rto) {
                    RetransmitAction::Retry { msg, delay } => {
                        // Recompute the base per copy: it is how news of
                        // abandoned lower sequence numbers reaches the
                        // receiver, letting a wedged lane skip the gap.
                        self.send(
                            ctx,
                            to,
                            ProtoMsg::Reliable {
                                seq,
                                base: self.reliable.base_for(to),
                                inner: Box::new(msg),
                            },
                        );
                        let token = self.set_timer(ctx, delay, TimerKind::Retransmit { to, seq });
                        self.reliable.set_retransmit_token(to, seq, token);
                    }
                    RetransmitAction::Exhausted => {
                        // The retry budget toward `to` ran out: as far as
                        // this router can tell, `to` is gone. Record the
                        // verdict and invalidate every cached plan whose
                        // path crosses it — the stale-plan fix: a plan
                        // computed before a second failure must be
                        // discarded, not re-grafted into the dead
                        // topology by the next starvation check. (The
                        // exhaustion itself is already counted by the
                        // endpoint and surfaced through health
                        // reporting.)
                        self.note_neighbor_dead(to);
                        if self.pending_graft.is_some_and(|(p, s)| p == to && s == seq) {
                            self.pending_graft = None;
                        }
                        // If the dead neighbor is the upstream this
                        // router was grafting toward, the recovery
                        // attempt failed: fall back to the next viable
                        // cached plan (protection fallback chain), or
                        // stay latched in `recovering` with no plan —
                        // which also stops the starvation re-push loop.
                        if self.upstream == Some(to) && self.on_tree {
                            self.recovering = false;
                            self.detect_upstream_failure(ctx);
                        }
                    }
                    // Acked/abandoned entries need nothing.
                    RetransmitAction::Done => {}
                }
            }
            TimerKind::PlanSweep => {
                // Protection maintenance: re-stamp the cache against the
                // current dead-neighbor set so a plan staled between
                // failures is caught even while no activation is in
                // flight. The chain re-arms only while protection mode
                // holds plans, and its token lives in
                // `cancel_periodic_timers` like every other chain.
                if self.protection && !self.plan_cache.is_empty() {
                    self.bump_epoch_and_revalidate();
                    self.plan_sweep_token =
                        Some(self.set_timer(ctx, self.config.holdtime, TimerKind::PlanSweep));
                } else {
                    self.plan_sweep_token = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smrp_net::{Graph, Injection};
    use smrp_sim::NetSim;

    /// The one group these tests run.
    const G: GroupId = GroupId::new(0);

    /// `n` router processes, each holding an idle lane for [`G`].
    fn processes(n: usize) -> Vec<MultiRouter> {
        (0..n)
            .map(|_| {
                let mut p = MultiRouter::new(RouterConfig::default());
                p.lane_mut(G);
                p
            })
            .collect()
    }

    /// Node `n`'s lane for [`G`].
    fn lane<'s>(sim: &'s NetSim<'_, MultiRouter>, n: NodeId) -> &'s Router {
        sim.node(n)
            .lane(G)
            .expect("every process holds a lane for G")
    }

    /// Node `n`'s lane for [`G`] while the processes are being loaded.
    fn lane_of(routers: &mut [MultiRouter], n: NodeId) -> &mut Router {
        routers[n.index()].lane_mut(G)
    }

    /// `msg` as group [`G`]'s wire message.
    fn tagged(msg: ProtoMsg) -> GroupMsg {
        GroupMsg {
            group: G,
            inner: msg,
        }
    }

    /// Line: S - R - M.
    fn line() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::with_nodes(3);
        let ids: Vec<_> = g.node_ids().collect();
        g.add_link(ids[0], ids[1], 1.0).unwrap();
        g.add_link(ids[1], ids[2], 1.0).unwrap();
        (g, ids)
    }

    fn loaded_line_sim<'a>(g: &'a Graph, ids: &[NodeId]) -> NetSim<'a, MultiRouter> {
        let mut routers = processes(g.node_count());
        lane_of(&mut routers, ids[0]).set_source();
        lane_of(&mut routers, ids[0]).load_state(None, &[ids[1]], false);
        lane_of(&mut routers, ids[1]).load_state(Some(ids[0]), &[ids[2]], false);
        lane_of(&mut routers, ids[2]).load_state(Some(ids[1]), &[], true);
        let mut sim = NetSim::new(g, routers);
        for &n in ids {
            sim.with_node(n, |p, ctx| p.lane_mut(G).start_timers(ctx));
        }
        sim
    }

    #[test]
    fn data_flows_down_the_tree() {
        let (g, ids) = line();
        let mut sim = loaded_line_sim(&g, &ids);
        sim.run_until(SimTime::from_ms(100.0));
        let member = lane(&sim, ids[2]);
        assert!(
            member.deliveries().len() >= 15,
            "got {}",
            member.deliveries().len()
        );
        // Sequence numbers arrive in order without duplication.
        let seqs: Vec<u64> = member.deliveries().iter().map(|d| d.seq).collect();
        for w in seqs.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn soft_state_survives_refreshes() {
        let (g, ids) = line();
        let mut sim = loaded_line_sim(&g, &ids);
        // Far beyond the holdtime: refreshes must keep state alive.
        sim.run_until(SimTime::from_ms(1000.0));
        assert!(lane(&sim, ids[1]).is_on_tree());
        assert_eq!(lane(&sim, ids[1]).downstream(), vec![ids[2]]);
        assert!(lane(&sim, ids[2])
            .first_delivery_after(SimTime::from_ms(900.0))
            .is_some());
    }

    #[test]
    fn member_silence_expires_branch_state() {
        let (g, ids) = line();
        let mut sim = loaded_line_sim(&g, &ids);
        sim.run_until(SimTime::from_ms(50.0));
        // Kill the member: its refreshes stop; R must eventually prune
        // itself off the tree.
        sim.fail_node_now(ids[2]);
        sim.run_until(SimTime::from_ms(800.0));
        assert!(!lane(&sim, ids[1]).is_on_tree(), "relay should have pruned");
        assert!(lane(&sim, ids[0]).downstream().is_empty());
    }

    #[test]
    fn upstream_failure_triggers_local_detour() {
        // Square: S - R - M plus a detour M - X - S.
        let mut g = Graph::with_nodes(4);
        let ids: Vec<_> = g.node_ids().collect();
        let [s, r, m, x] = [ids[0], ids[1], ids[2], ids[3]];
        g.add_link(s, r, 1.0).unwrap();
        g.add_link(r, m, 1.0).unwrap();
        g.add_link(m, x, 1.0).unwrap();
        g.add_link(x, s, 1.0).unwrap();
        let mut routers = processes(4);
        lane_of(&mut routers, s).set_source();
        lane_of(&mut routers, s).load_state(None, &[r], false);
        lane_of(&mut routers, r).load_state(Some(s), &[m], false);
        lane_of(&mut routers, m).load_state(Some(r), &[], true);
        lane_of(&mut routers, m).install_recovery_plan(RecoveryPlan {
            path: vec![m, x, s],
            wait: SimTime::ZERO,
            path_delay: SimTime::ZERO,
        });
        let mut sim = NetSim::new(&g, routers);
        for &n in &ids {
            sim.with_node(n, |p, ctx| p.lane_mut(G).start_timers(ctx));
        }
        sim.run_until(SimTime::from_ms(60.0));
        let fail_at = sim.now();
        sim.fail_node_now(r);
        sim.run_until(SimTime::from_ms(400.0));
        let member = lane(&sim, m);
        let resumed = member
            .first_delivery_after(fail_at + SimTime::from_ms(1.0))
            .expect("service must restore through the detour");
        // Detection takes ~3 hello intervals; setup + data another few ms.
        let latency = (resumed.time - fail_at).as_ms();
        assert!(latency > 20.0 && latency < 120.0, "latency {latency}ms");
        assert_eq!(member.upstream(), Some(x));
        assert!(lane(&sim, x).is_on_tree());
    }

    #[test]
    fn global_detour_waits_for_reconvergence() {
        let mut g = Graph::with_nodes(4);
        let ids: Vec<_> = g.node_ids().collect();
        let [s, r, m, x] = [ids[0], ids[1], ids[2], ids[3]];
        g.add_link(s, r, 1.0).unwrap();
        g.add_link(r, m, 1.0).unwrap();
        g.add_link(m, x, 1.0).unwrap();
        g.add_link(x, s, 1.0).unwrap();
        let mut routers = processes(4);
        lane_of(&mut routers, s).set_source();
        lane_of(&mut routers, s).load_state(None, &[r], false);
        lane_of(&mut routers, r).load_state(Some(s), &[m], false);
        lane_of(&mut routers, m).load_state(Some(r), &[], true);
        let reconvergence = SimTime::from_ms(500.0);
        lane_of(&mut routers, m).install_recovery_plan(RecoveryPlan {
            path: vec![m, x, s],
            wait: reconvergence,
            path_delay: SimTime::ZERO,
        });
        let mut sim = NetSim::new(&g, routers);
        for &n in &ids {
            sim.with_node(n, |p, ctx| p.lane_mut(G).start_timers(ctx));
        }
        sim.run_until(SimTime::from_ms(60.0));
        let fail_at = sim.now();
        sim.fail_node_now(r);
        sim.run_until(SimTime::from_ms(2000.0));
        let resumed = lane(&sim, m)
            .first_delivery_after(fail_at + SimTime::from_ms(1.0))
            .expect("service restores after reconvergence");
        let latency = (resumed.time - fail_at).as_ms();
        assert!(
            latency > 500.0,
            "global detour cannot beat the reconvergence delay ({latency}ms)"
        );
    }

    #[test]
    fn message_level_join_builds_state() {
        let (g, ids) = line();
        let mut routers = processes(3);
        lane_of(&mut routers, ids[0]).set_source();
        let mut sim = NetSim::new(&g, routers);
        sim.with_node(ids[0], |p, ctx| p.lane_mut(G).start_timers(ctx));
        // M joins via R toward S with an explicit Setup.
        sim.with_node(ids[2], |p, ctx| {
            p.lane_mut(G)
                .initiate_setup(ctx, vec![ids[2], ids[1], ids[0]], true)
        });
        sim.run_until(SimTime::from_ms(100.0));
        assert!(lane(&sim, ids[1]).is_on_tree());
        assert_eq!(lane(&sim, ids[1]).upstream(), Some(ids[0]));
        assert_eq!(lane(&sim, ids[0]).downstream(), vec![ids[1]]);
        assert!(
            !lane(&sim, ids[2]).deliveries().is_empty(),
            "member receives data after joining"
        );
    }

    #[test]
    fn leave_req_removes_downstream() {
        let (g, ids) = line();
        let mut sim = loaded_line_sim(&g, &ids);
        sim.with_node(ids[1], |_, ctx| {
            ctx.send(ids[0], tagged(ProtoMsg::LeaveReq))
        });
        sim.run_until(SimTime::from_ms(5.0));
        assert!(lane(&sim, ids[0]).downstream().is_empty());
    }

    #[test]
    fn unrecoverable_without_a_plan() {
        let (g, ids) = line();
        let mut sim = loaded_line_sim(&g, &ids);
        sim.run_until(SimTime::from_ms(50.0));
        let fail_at = sim.now();
        sim.fail_node_now(ids[1]);
        sim.run_until(SimTime::from_ms(500.0));
        assert!(lane(&sim, ids[2]).is_recovering());
        assert!(lane(&sim, ids[2])
            .first_delivery_after(fail_at + SimTime::from_ms(1.0))
            .is_none());
    }

    #[test]
    fn data_from_non_upstream_is_ignored() {
        let (g, ids) = line();
        let mut sim = loaded_line_sim(&g, &ids);
        // Forge a data packet from the member up to the relay.
        sim.with_node(ids[2], |_, ctx| {
            ctx.send(ids[1], tagged(ProtoMsg::Data { seq: 999 }))
        });
        sim.run_until(SimTime::from_ms(3.0));
        // The relay must not have forwarded seq 999 back down.
        assert!(lane(&sim, ids[2]).deliveries().iter().all(|d| d.seq != 999));
    }

    /// A 2-node graph whose single link is slower than the hello miss
    /// window (lossless timing: 3 × 10 ms), so a grafted upstream cannot
    /// possibly heartbeat the grafting node before the window elapses.
    fn slow_pair() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::with_nodes(2);
        let ids: Vec<_> = g.node_ids().collect();
        g.add_link(ids[0], ids[1], 40.0).unwrap();
        (g, ids)
    }

    #[test]
    fn graft_handshake_outlives_miss_window_without_false_detection() {
        // The member grafts onto the source across a 40 ms link: the
        // Setup needs 40 ms to arrive and the first hello another 40 ms
        // back, so hello silence exceeds the 30 ms miss window long
        // before the upstream *can* heartbeat. The upstream check must
        // not declare the new upstream dead while the graft envelope is
        // still in flight — the retry budget, not hello silence, is the
        // reachability signal during the handshake.
        let (g, ids) = slow_pair();
        let [s, m] = [ids[0], ids[1]];
        let mut routers = processes(2);
        lane_of(&mut routers, s).set_source();
        let mut sim = NetSim::new(&g, routers);
        sim.with_node(s, |p, ctx| p.lane_mut(G).start_timers(ctx));
        sim.with_node(m, |p, ctx| {
            p.lane_mut(G).initiate_setup(ctx, vec![m, s], true)
        });
        sim.run_until(SimTime::from_ms(300.0));
        let member = lane(&sim, m);
        assert!(
            !member.is_recovering(),
            "handshake silence must not be mistaken for upstream death"
        );
        assert_eq!(member.upstream(), Some(s));
        assert_eq!(lane(&sim, s).downstream(), vec![m]);
        assert!(
            member
                .first_delivery_after(SimTime::from_ms(80.0))
                .is_some(),
            "data must flow once the graft lands"
        );
    }

    /// Square S-R-M-X plus a second detour M-Y-S, for two-failure tests.
    fn pentagon() -> (Graph, [NodeId; 5]) {
        let mut g = Graph::with_nodes(5);
        let ids: Vec<_> = g.node_ids().collect();
        let [s, r, m, x, y] = [ids[0], ids[1], ids[2], ids[3], ids[4]];
        g.add_link(s, r, 1.0).unwrap();
        g.add_link(r, m, 1.0).unwrap();
        g.add_link(m, x, 1.0).unwrap();
        g.add_link(x, s, 1.0).unwrap();
        g.add_link(m, y, 1.0).unwrap();
        g.add_link(y, s, 1.0).unwrap();
        (g, [s, r, m, x, y])
    }

    fn loaded_pentagon(g: &Graph, nodes: &[NodeId; 5]) -> Vec<MultiRouter> {
        let [s, r, m, _, _] = *nodes;
        let mut routers = processes(5);
        lane_of(&mut routers, s).set_source();
        lane_of(&mut routers, s).load_state(None, &[r], false);
        lane_of(&mut routers, r).load_state(Some(s), &[m], false);
        lane_of(&mut routers, m).load_state(Some(r), &[], true);
        let _ = g;
        routers
    }

    #[test]
    fn stale_plan_is_discarded_after_second_failure() {
        // Two-failure regression (reactive mode): M's plan routes through
        // X with a reconvergence wait; X dies before the plan fires. The
        // plan must be discarded once the graft's retry budget proves X
        // dead — not re-executed against the dead topology by every
        // starvation check forever.
        let (g, nodes) = pentagon();
        let [s, r, m, x, _] = nodes;
        let mut routers = loaded_pentagon(&g, &nodes);
        lane_of(&mut routers, m).install_recovery_plan(RecoveryPlan {
            path: vec![m, x, s],
            wait: SimTime::from_ms(500.0),
            path_delay: SimTime::ZERO,
        });
        let mut sim = NetSim::new(&g, routers);
        for &n in &nodes {
            sim.with_node(n, |p, ctx| p.lane_mut(G).start_timers(ctx));
        }
        sim.run_until(SimTime::from_ms(60.0));
        let fail_at = sim.now();
        sim.fail_node_now(r);
        // The planned detour dies before the reconvergence timer fires.
        sim.schedule_injection(SimTime::from_ms(100.0), Injection::FailNode(x));
        sim.run_until(SimTime::from_ms(4000.0));
        let setups_then = lane(&sim, m).control_sent().setups;
        sim.run_until(SimTime::from_ms(8000.0));
        let member = lane(&sim, m);
        // Both paths to S are gone: nothing can restore service — but the
        // stale plan must not keep grafting into dead X either.
        assert!(member
            .first_delivery_after(fail_at + SimTime::from_ms(1.0))
            .is_none());
        assert!(member.is_recovering(), "stays latched with no viable plan");
        assert_eq!(
            member.control_sent().setups,
            setups_then,
            "grafts into the dead detour must stop once the plan is discarded"
        );
        assert_eq!(member.protection_counters().stale_discards, 1);
    }

    #[test]
    fn protection_fallback_restores_after_second_failure() {
        // Two-failure regression (protection mode): M holds a precomputed
        // fallback chain [via X, via Y]. X dies before R does, so the
        // primary plan is stale at activation time; the graft toward X
        // exhausts, X is marked dead, the primary is discarded and the
        // fallback through Y restores service.
        let (g, nodes) = pentagon();
        let [s, r, m, x, y] = nodes;
        let mut routers = loaded_pentagon(&g, &nodes);
        lane_of(&mut routers, m).install_backup_plans(vec![
            RecoveryPlan {
                path: vec![m, x, s],
                wait: SimTime::ZERO,
                path_delay: SimTime::ZERO,
            },
            RecoveryPlan {
                path: vec![m, y, s],
                wait: SimTime::ZERO,
                path_delay: SimTime::ZERO,
            },
        ]);
        let mut sim = NetSim::new(&g, routers);
        for &n in &nodes {
            sim.with_node(n, |p, ctx| p.lane_mut(G).start_timers(ctx));
        }
        sim.run_until(SimTime::from_ms(40.0));
        sim.fail_node_now(x); // second-failure-to-be, before detection
        sim.run_until(SimTime::from_ms(60.0));
        let fail_at = sim.now();
        sim.fail_node_now(r);
        sim.run_until(SimTime::from_ms(4000.0));
        let member = lane(&sim, m);
        let resumed = member
            .first_delivery_after(fail_at + SimTime::from_ms(1.0))
            .expect("the fallback plan must restore service");
        assert_eq!(member.upstream(), Some(y));
        let counters = member.protection_counters();
        assert_eq!(counters.stale_discards, 1, "the plan through X staled");
        assert!(counters.activations >= 2, "primary then fallback executed");
        assert_eq!(counters.plans_held, 1, "only the plan through Y survives");
        // Restoration = detection (~30 ms) + retry budget toward X
        // (~1.1 s) + graft through Y.
        let latency = (resumed.time - fail_at).as_ms();
        assert!(latency < 2000.0, "latency {latency}ms");
    }

    #[test]
    fn mistaken_death_verdict_clears_on_contact() {
        // A neighbor marked dead by retry exhaustion comes back (the
        // failure was transient): hearing from it must clear the verdict
        // and restore the cached plan, and the starvation re-push must
        // then restore service through it.
        let (g, nodes) = pentagon();
        let [s, r, m, x, _] = nodes;
        let mut routers = loaded_pentagon(&g, &nodes);
        lane_of(&mut routers, m).install_recovery_plan(RecoveryPlan {
            path: vec![m, x, s],
            wait: SimTime::ZERO,
            path_delay: SimTime::ZERO,
        });
        let mut sim = NetSim::new(&g, routers);
        for &n in &nodes {
            sim.with_node(n, |p, ctx| p.lane_mut(G).start_timers(ctx));
        }
        sim.run_until(SimTime::from_ms(40.0));
        sim.fail_node_now(x);
        sim.run_until(SimTime::from_ms(60.0));
        let fail_at = sim.now();
        sim.fail_node_now(r);
        // X repairs well after the graft toward it has exhausted its
        // retry budget and the plan has been discarded.
        sim.schedule_injection(SimTime::from_ms(4000.0), Injection::RepairNode(x));
        sim.run_until(SimTime::from_ms(3900.0));
        assert_eq!(lane(&sim, m).protection_counters().stale_discards, 1);
        assert!(lane(&sim, m)
            .first_delivery_after(fail_at + SimTime::from_ms(1.0))
            .is_none());
        // The repaired X announces itself to its former peer (an off-tree
        // node arms no timers, so the contact is injected explicitly).
        sim.run_until(SimTime::from_ms(4500.0));
        sim.with_node(x, |_, ctx| ctx.send(m, tagged(ProtoMsg::Hello)));
        sim.run_until(SimTime::from_ms(10_000.0));
        let member = lane(&sim, m);
        assert!(
            member
                .first_delivery_after(SimTime::from_ms(4000.0))
                .is_some(),
            "service must restore through the repaired detour"
        );
        assert_eq!(member.upstream(), Some(x));
    }

    #[test]
    fn graft_handshake_deferral_is_bounded_by_retry_budget() {
        // Same slow pair, but the link dies right after the graft is
        // sent: every Setup copy is dropped, so the envelope eventually
        // exhausts its retry budget — at which point the deferral ends
        // and the upstream check declares the failure. The handshake
        // grace must not defer forever.
        let (g, ids) = slow_pair();
        let [s, m] = [ids[0], ids[1]];
        let link = g.link_between(s, m).unwrap();
        let mut routers = processes(2);
        lane_of(&mut routers, s).set_source();
        let mut sim = NetSim::new(&g, routers);
        sim.with_node(s, |p, ctx| p.lane_mut(G).start_timers(ctx));
        sim.with_node(m, |p, ctx| {
            p.lane_mut(G).initiate_setup(ctx, vec![m, s], true)
        });
        sim.schedule_injection(SimTime::from_ms(1.0), Injection::FailLink(link));
        // RTO is 4 × 40 ms; ×1.5 backoff over 8 retries exhausts the
        // budget within ~12 s of simulated time.
        sim.run_until(SimTime::from_ms(13_000.0));
        assert!(
            lane(&sim, m).is_recovering(),
            "exhaustion must end the handshake grace and surface the failure"
        );
    }

    /// `MultiSession::preload` hardens the timers for the channel's
    /// default (uniform) loss only; a gray link alone leaves them as on a
    /// perfect channel.
    #[test]
    fn preload_hardens_only_for_uniform_loss() {
        use crate::multi::{FailureSpec, MultiSession};
        use crate::runner::{ProtoSession, RecoveryStrategy, TreeProtocol};
        use smrp_core::paper;
        use smrp_net::FailureScenario;
        use smrp_sim::ChannelSpec;

        let (graph, nodes) = paper::figure1_graph();
        let session =
            ProtoSession::build(&graph, nodes.s, &[nodes.c, nodes.d], TreeProtocol::Spf).unwrap();
        let multi = MultiSession::from_sessions(vec![session]);
        let scenario = FailureScenario::none();
        let timing = |channel: ChannelSpec| {
            let spec = FailureSpec {
                channel,
                ..FailureSpec::persistent(
                    &scenario,
                    RecoveryStrategy::LocalDetour,
                    SimTime::ZERO,
                    SimTime::ZERO,
                )
            };
            let mut configs: Vec<(u32, SimTime)> = multi
                .preload(&spec)
                .iter()
                .filter_map(|p| p.lane(G))
                .map(|lane| (lane.config.miss_limit, lane.config.holdtime))
                .collect();
            configs.dedup();
            assert_eq!(configs.len(), 1, "every lane runs one timing");
            configs[0]
        };
        let ms = SimTime::from_ms;
        assert_eq!(timing(ChannelSpec::perfect()), (3, ms(175.0)));
        let gray = ChannelSpec {
            overrides: vec![(graph.link_between(nodes.a, nodes.d).unwrap(), 0.5)],
            ..ChannelSpec::perfect()
        };
        assert_eq!(timing(gray), (3, ms(175.0)));
        assert_eq!(timing(ChannelSpec::uniform_loss(0.05, 1)), (7, ms(218.75)));
        assert_eq!(timing(ChannelSpec::uniform_loss(0.10, 1)), (9, ms(262.5)));
    }
}
