//! The simulation engine: nodes, message delivery, timers, failures.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use smrp_net::{FailureScenario, Graph, LinkId, NodeId};

use crate::channel::{ChannelModel, ChannelStats, Transmit};
use crate::event::EventQueue;
use crate::time::SimTime;
use crate::trace::{Descriptor, DropReason, TraceEvent, TraceLog};
use crate::wheel::{TimerHandle, TimerWheel};

/// An engine-issued identity for one armed timer.
///
/// Every [`Ctx::set_timer`] call allocates a fresh token; the token can
/// later be passed to [`Ctx::cancel_timer`] to revoke the timer before it
/// fires. Tokens are never reused within a simulation, so cancelling an
/// already-fired (or already-cancelled) timer is a harmless no-op — the
/// stale token no longer matches anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(u64);

impl TimerToken {
    /// Rebuilds a token from its raw counter value.
    ///
    /// For harnesses that mirror the engine's token bookkeeping outside
    /// the simulator (the daemon's wall-clock timer driver); inside a
    /// simulation, tokens should only ever come from [`Ctx::set_timer`].
    pub fn from_raw(raw: u64) -> Self {
        TimerToken(raw)
    }
}

/// Hasher for the token → wheel-handle map. Tokens are a private dense
/// counter, never outside input, so one multiply spreads them as well as
/// SipHash at a fraction of the cost.
#[derive(Default)]
struct TokenHasher(u64);

impl Hasher for TokenHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("token keys hash through write_u64");
    }

    fn write_u64(&mut self, token: u64) {
        self.0 = token.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Which structure carries the simulator's events — all of them:
/// deliveries, timers, scheduled failures and repairs.
///
/// The default [`TimerBackend::Wheel`] parks every event in one
/// hierarchical [`TimerWheel`] with O(1) schedule/cancel and no sifting of
/// fat entries. [`TimerBackend::ReferenceHeap`] keeps every event in one
/// binary-heap [`EventQueue`] (the pre-wheel engine layout) and realizes
/// timer cancellation by filtering tokens at fire time; it exists so
/// differential tests can assert that both engines pop the same
/// `(time, seq)` order and produce byte-identical traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimerBackend {
    /// Hierarchical event wheel (the production path).
    #[default]
    Wheel,
    /// Everything rides the binary-heap event queue; timer cancellations
    /// are filtered at fire time. Reference semantics for differential
    /// tests.
    ReferenceHeap,
}

/// Protocol logic of one node.
///
/// A behavior reacts to message arrivals and timer firings through a
/// [`Ctx`], which lets it send messages to *adjacent* nodes (the simulator
/// enforces hop-by-hop communication) and arm node-local timers.
pub trait NodeBehavior: Sized {
    /// Message type exchanged between nodes.
    type Msg: Clone + std::fmt::Debug;
    /// Timer tag type.
    type Timer: Clone + std::fmt::Debug;

    /// Called when a message from neighbor `from` arrives.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Self::Msg);

    /// Called when a previously armed timer fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: Self::Timer);

    /// Called when the node comes back up after a scheduled repair (see
    /// [`NetSim::schedule_node_repair`]). Timer events that elapsed while
    /// the node was down were silently dropped, so any periodic timer
    /// chain is dead by now — protocols should re-arm their timers here.
    /// The default is a no-op (a rebooted node stays passive).
    fn on_reboot(&mut self, _ctx: &mut Ctx<'_, Self>) {}

    /// Classifies a message for the degraded channel's per-class loss
    /// accounting (see [`ChannelStats::lost_by_class`]). Purely
    /// observational: the channel treats every class identically. The
    /// default lumps everything under `"message"`.
    fn classify(_msg: &Self::Msg) -> &'static str {
        "message"
    }

    /// Describes a message for the trace (see [`Descriptor`]). Called
    /// once per send and once per delivery, only while a trace is
    /// installed; must not allocate. The default carries the
    /// [`classify`](Self::classify) class alone.
    fn describe(msg: &Self::Msg) -> Descriptor {
        Descriptor::of_class(Self::classify(msg))
    }

    /// Describes a fired timer for the trace, under the same rules as
    /// [`describe`](Self::describe). The default says only `"timer"`.
    fn describe_timer(_timer: &Self::Timer) -> Descriptor {
        Descriptor::of_class("timer")
    }
}

/// One queued output of a behavior handler, captured by a [`Ctx`].
///
/// Normally the engine applies commands internally and protocols never see
/// this type. It is public for *multiplexing* behaviors — e.g. a router
/// process hosting independent per-group protocol lanes — which run an
/// inner behavior's handler against a [`Ctx::derive_into`] context, then
/// translate the inner commands (tagging messages and timers with the lane
/// id) back onto their own context. See `smrp-proto`'s multi-session
/// router for the canonical use.
#[derive(Debug, Clone)]
pub enum NodeCommand<M, T> {
    /// Send `msg` to the adjacent node `to`.
    Send {
        /// Receiving neighbor.
        to: NodeId,
        /// The message.
        msg: M,
    },
    /// Arm a node-local timer `delay` from now.
    Timer {
        /// Delay from the current virtual time.
        delay: SimTime,
        /// The timer tag.
        timer: T,
        /// The engine-issued identity of this timer (see [`TimerToken`]).
        /// Multiplexers re-issuing an inner lane's timer must preserve it
        /// via [`Ctx::set_timer_with_token`], so the lane's later
        /// [`Ctx::cancel_timer`] still targets the right entry.
        token: TimerToken,
    },
    /// Revoke a previously armed timer before it fires.
    CancelTimer {
        /// Token returned by the [`Ctx::set_timer`] that armed it.
        token: TimerToken,
    },
}

/// Handler-side view of the simulation.
///
/// Collects the handler's outputs (sends, timers) and exposes read-only
/// simulation state; the engine applies the outputs after the handler
/// returns.
pub struct Ctx<'a, N: NodeBehavior> {
    now: SimTime,
    me: NodeId,
    graph: &'a Graph,
    failures: &'a FailureScenario,
    commands: Vec<NodeCommand<N::Msg, N::Timer>>,
    next_token: &'a Cell<u64>,
}

impl<'a, N: NodeBehavior> Ctx<'a, N> {
    /// Builds a context outside the simulator, for hosts that drive a
    /// [`NodeBehavior`] themselves — the `smrpd` daemon runs each router's
    /// handlers against a standalone context and interprets the resulting
    /// [`NodeCommand`]s over a real transport and a real timer driver.
    ///
    /// `failures` is the host's *local view* of the failure state (it backs
    /// [`Ctx::link_up`]), and `next_token` is the host's node-wide timer
    /// token counter: it must be the same cell across every context built
    /// for one node so [`TimerToken`]s stay unique for the node's lifetime,
    /// exactly as the engine guarantees within a simulation.
    pub fn standalone(
        now: SimTime,
        me: NodeId,
        graph: &'a Graph,
        failures: &'a FailureScenario,
        next_token: &'a Cell<u64>,
    ) -> Self {
        Ctx {
            now,
            me,
            graph,
            failures,
            commands: Vec::new(),
            next_token,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this handler runs on.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The topology.
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// Whether the link from this node to `neighbor` is currently usable
    /// (adjacent and not failed). Protocols must *not* use this as an
    /// oracle — failure detection is the protocol's job — but it is handy
    /// for modelling layer-2 loss-of-light notifications.
    pub fn link_up(&self, neighbor: NodeId) -> bool {
        self.graph
            .link_between(self.me, neighbor)
            .is_some_and(|l| self.failures.link_usable(self.graph, l))
    }

    /// Queues a message to an adjacent node. Delivery happens after the
    /// link's propagation delay; messages over failed links are silently
    /// lost, as on a real cut cable.
    pub fn send(&mut self, to: NodeId, msg: N::Msg) {
        self.commands.push(NodeCommand::Send { to, msg });
    }

    /// Arms a timer on this node `delay` from now. The returned token can
    /// be passed to [`Ctx::cancel_timer`] (possibly from a later handler
    /// invocation) to revoke the timer before it fires.
    pub fn set_timer(&mut self, delay: SimTime, timer: N::Timer) -> TimerToken {
        let token = TimerToken(self.next_token.get());
        self.next_token.set(token.0 + 1);
        self.commands.push(NodeCommand::Timer {
            delay,
            timer,
            token,
        });
        token
    }

    /// Arms a timer under a caller-supplied token instead of allocating a
    /// fresh one. This is for multiplexing behaviors translating an inner
    /// lane's [`NodeCommand::Timer`] onto the outer context: re-issuing
    /// under the *original* token keeps the lane's handle valid, so its
    /// later cancellation still reaches the engine entry.
    pub fn set_timer_with_token(&mut self, delay: SimTime, timer: N::Timer, token: TimerToken) {
        self.commands.push(NodeCommand::Timer {
            delay,
            timer,
            token,
        });
    }

    /// Revokes a previously armed timer. Cancelling a timer that already
    /// fired (or was already cancelled) is a no-op: tokens are unique for
    /// the lifetime of the simulation, so a stale token matches nothing.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.commands.push(NodeCommand::CancelTimer { token });
    }

    /// Derives a context for an *inner* behavior `N2` sharing this node's
    /// view of the simulation (same time, node, topology and failure
    /// state) but collecting its own commands into `buffer` (cleared
    /// first; pass `Vec::new()` when there is none to reuse).
    ///
    /// This is the hook for multiplexing behaviors: run the inner
    /// behavior's handler against the derived context, then drain its
    /// commands with [`Ctx::into_commands`] and re-issue them through the
    /// outer context, tagging messages and timers with the lane they
    /// belong to. A multiplexer dispatching many handler calls keeps one
    /// buffer's capacity by passing the drained vector to the next call.
    pub fn derive_into<N2: NodeBehavior>(
        &self,
        mut buffer: Vec<NodeCommand<N2::Msg, N2::Timer>>,
    ) -> Ctx<'a, N2> {
        buffer.clear();
        Ctx {
            now: self.now,
            me: self.me,
            graph: self.graph,
            failures: self.failures,
            commands: buffer,
            // The token counter is shared: tokens allocated by inner
            // lanes stay globally unique, so re-issuing them on the outer
            // context cannot collide.
            next_token: self.next_token,
        }
    }

    /// Consumes the context, yielding the commands its handler queued, in
    /// issue order. Only useful on [`Ctx::derive_into`] contexts — contexts
    /// handed out by the engine are applied by the engine itself.
    pub fn into_commands(self) -> Vec<NodeCommand<N::Msg, N::Timer>> {
        self.commands
    }
}

/// Messages dropped so far, broken down by cause.
///
/// `total()` preserves the old single-counter view; the per-reason fields
/// let campaigns distinguish "the topology was cut" from "the channel ate
/// it".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropCounts {
    /// Dropped because the carrying link had failed.
    pub link_down: u64,
    /// Dropped because the receiving node had failed.
    pub node_down: u64,
    /// Dropped because the sending node had failed.
    pub sender_down: u64,
    /// Dropped because sender and receiver are not adjacent.
    pub not_adjacent: u64,
    /// Dropped by the degraded channel.
    pub channel_loss: u64,
}

impl DropCounts {
    fn record(&mut self, reason: DropReason) {
        match reason {
            DropReason::LinkDown => self.link_down += 1,
            DropReason::NodeDown => self.node_down += 1,
            DropReason::SenderDown => self.sender_down += 1,
            DropReason::NotAdjacent => self.not_adjacent += 1,
            DropReason::ChannelLoss => self.channel_loss += 1,
        }
    }

    /// Total drops across all causes.
    pub fn total(&self) -> u64 {
        self.link_down + self.node_down + self.sender_down + self.not_adjacent + self.channel_loss
    }
}

/// A channel's extra delay as [`SimTime`]. Zero — every copy on a perfect
/// or merely lossy channel — skips the float conversion it would round
/// to anyway.
fn extra_delay(ms: f64) -> SimTime {
    if ms == 0.0 {
        SimTime::ZERO
    } else {
        SimTime::from_ms(ms)
    }
}

enum SimEvent<M, T> {
    Deliver {
        from: NodeId,
        to: NodeId,
        link: LinkId,
        msg: M,
    },
    Timer {
        node: NodeId,
        timer: T,
        token: TimerToken,
    },
    FailLink(LinkId),
    FailNode(NodeId),
    RepairLink(LinkId),
    RepairNode(NodeId),
}

/// The network simulator: a [`Graph`], one [`NodeBehavior`] per node, an
/// event queue and a failure mask.
///
/// # Example
///
/// ```
/// use smrp_net::{Graph, NodeId};
/// use smrp_sim::{Ctx, NetSim, NodeBehavior, SimTime};
///
/// struct Echo { got: Option<String> }
/// impl NodeBehavior for Echo {
///     type Msg = String;
///     type Timer = ();
///     fn on_message(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, msg: String) {
///         self.got = Some(msg);
///     }
///     fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self>, _t: ()) {}
/// }
///
/// # fn main() -> Result<(), smrp_net::NetError> {
/// let mut g = Graph::with_nodes(2);
/// let ids: Vec<_> = g.node_ids().collect();
/// g.add_link(ids[0], ids[1], 5.0)?;
/// let nodes = (0..2).map(|_| Echo { got: None }).collect();
/// let mut sim = NetSim::new(&g, nodes);
/// sim.with_node(ids[0], |_n, ctx| ctx.send(ids[1], "hello".to_string()));
/// sim.run_to_completion(100);
/// assert_eq!(sim.node(ids[1]).got.as_deref(), Some("hello"));
/// assert_eq!(sim.now(), SimTime::from_ms(5.0));
/// # Ok(())
/// # }
/// ```
pub struct NetSim<'g, N: NodeBehavior> {
    graph: &'g Graph,
    nodes: Vec<N>,
    /// Every pending event under [`TimerBackend::Wheel`]; empty otherwise.
    wheel: TimerWheel<SimEvent<N::Msg, N::Timer>>,
    /// Every pending event under [`TimerBackend::ReferenceHeap`]; empty
    /// otherwise.
    queue: EventQueue<SimEvent<N::Msg, N::Timer>>,
    backend: TimerBackend,
    /// Global scheduling sequence: the tie-break among same-instant
    /// events, allocated in the same order under either backend.
    seq: u64,
    /// Node `i`'s neighbors as `(neighbor, link, propagation delay)` in
    /// `hops[hop_rows[i]..hop_rows[i + 1]]`: what a send needs to know
    /// about its link, looked up and converted to [`SimTime`] once.
    hops: Vec<(NodeId, LinkId, SimTime)>,
    hop_rows: Vec<usize>,
    /// Timer-token allocator, shared with every [`Ctx`] handed out.
    next_token: Cell<u64>,
    /// Wheel backend: token → wheel handle, for cancellation. Entries are
    /// removed when the timer fires or is cancelled.
    timer_handles: HashMap<u64, TimerHandle, BuildHasherDefault<TokenHasher>>,
    /// Reference backend: tokens cancelled before firing; the heap entry
    /// is filtered when it surfaces.
    cancelled_tokens: HashSet<u64>,
    now: SimTime,
    failures: FailureScenario,
    trace: TraceLog<'g>,
    channel: Option<ChannelModel>,
    delivered: u64,
    dropped: DropCounts,
    /// The command buffer lent to each handler's [`Ctx`] in turn, so a
    /// handler call costs no allocation once it has grown.
    commands: Vec<NodeCommand<N::Msg, N::Timer>>,
}

impl<'g, N: NodeBehavior> NetSim<'g, N> {
    /// Creates a simulator with one behavior per graph node (in node-id
    /// order) and a 4096-entry trace.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the graph's node count.
    pub fn new(graph: &'g Graph, nodes: Vec<N>) -> Self {
        assert_eq!(
            nodes.len(),
            graph.node_count(),
            "one behavior per graph node is required"
        );
        let mut hops = Vec::with_capacity(2 * graph.link_count());
        let mut hop_rows = Vec::with_capacity(nodes.len() + 1);
        hop_rows.push(0);
        for node in graph.node_ids() {
            hops.extend(
                graph
                    .adjacency(node)
                    .iter()
                    .map(|&(n, l)| (n, l, SimTime::from_ms(graph.link(l).delay()))),
            );
            hop_rows.push(hops.len());
        }
        NetSim {
            graph,
            nodes,
            wheel: TimerWheel::new(),
            queue: EventQueue::new(),
            backend: TimerBackend::default(),
            seq: 0,
            hops,
            hop_rows,
            next_token: Cell::new(0),
            timer_handles: HashMap::default(),
            cancelled_tokens: HashSet::new(),
            now: SimTime::ZERO,
            failures: FailureScenario::none(),
            trace: TraceLog::new(4096),
            channel: None,
            delivered: 0,
            dropped: DropCounts::default(),
            commands: Vec::new(),
        }
    }

    /// Selects the event backend. Must be called before anything is
    /// scheduled — a timer, a send, a failure or a repair: each backend
    /// pops from its own structure only, so an event scheduled before the
    /// switch would be stranded in the other one.
    ///
    /// # Panics
    ///
    /// Panics if an event of any kind is pending or a timer token was
    /// ever issued.
    pub fn set_timer_backend(&mut self, backend: TimerBackend) {
        assert!(
            self.wheel.is_empty() && self.queue.is_empty() && self.next_token.get() == 0,
            "timer backend must be chosen before timers are armed or events scheduled"
        );
        self.backend = backend;
    }

    /// Parks `event` at `at` in the backend's structure under the next
    /// global sequence number. Returns the wheel's handle, which only a
    /// cancellable event (a timer) keeps.
    fn schedule(&mut self, at: SimTime, event: SimEvent<N::Msg, N::Timer>) -> Option<TimerHandle> {
        let seq = self.seq;
        self.seq += 1;
        match self.backend {
            TimerBackend::Wheel => Some(self.wheel.schedule(at, seq, event)),
            TimerBackend::ReferenceHeap => {
                self.queue.schedule_keyed(at, seq, event);
                None
            }
        }
    }

    /// Replaces the trace log (e.g. [`TraceLog::disabled`] for long
    /// runs, [`TraceLog::observer`] to consume events as they happen).
    pub fn set_trace(&mut self, trace: TraceLog<'g>) {
        self.trace = trace;
    }

    /// Takes the trace log out of the simulator, leaving a disabled one.
    pub fn take_trace(&mut self) -> TraceLog<'g> {
        std::mem::replace(&mut self.trace, TraceLog::disabled())
    }

    /// Installs a degraded channel; subsequent sends pass through it.
    /// `None` restores the default perfect channel.
    pub fn set_channel(&mut self, channel: Option<ChannelModel>) {
        self.channel = channel;
    }

    /// Channel statistics, if a degraded channel is installed.
    pub fn channel_stats(&self) -> Option<&ChannelStats> {
        self.channel.as_ref().map(ChannelModel::stats)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Read access to a node's behavior state.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Consumes the simulator, yielding every node's final behavior state
    /// in node-id order. This is the capture hook for conformance digests:
    /// a finished run's protocol state can be snapshotted and compared
    /// against the same scenario replayed on a real transport.
    pub fn into_nodes(self) -> Vec<N> {
        self.nodes
    }

    /// The current failure scenario.
    pub fn failures(&self) -> &FailureScenario {
        &self.failures
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &TraceLog<'g> {
        &self.trace
    }

    /// Messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Messages dropped so far (all causes).
    pub fn dropped_count(&self) -> u64 {
        self.dropped.total()
    }

    /// Drop counters broken down by cause.
    pub fn drops(&self) -> &DropCounts {
        &self.dropped
    }

    /// Fails a link immediately.
    pub fn fail_link_now(&mut self, link: LinkId) {
        self.failures.fail_link(link);
    }

    /// Fails a node immediately.
    pub fn fail_node_now(&mut self, node: NodeId) {
        self.failures.fail_node(node);
    }

    /// Schedules a link failure at absolute time `at`.
    pub fn schedule_link_failure(&mut self, at: SimTime, link: LinkId) {
        self.schedule(at, SimEvent::FailLink(link));
    }

    /// Schedules a node failure at absolute time `at`.
    pub fn schedule_node_failure(&mut self, at: SimTime, node: NodeId) {
        self.schedule(at, SimEvent::FailNode(node));
    }

    /// Schedules a link repair at absolute time `at` — models *transient*
    /// failures (flapping interfaces, maintenance windows) as opposed to
    /// the paper's persistent cuts. Messages sent while the link was down
    /// stay lost; traffic sent after the repair flows normally.
    pub fn schedule_link_repair(&mut self, at: SimTime, link: LinkId) {
        self.schedule(at, SimEvent::RepairLink(link));
    }

    /// Schedules a node repair at absolute time `at`. The node resumes
    /// forwarding on the next message it receives; timers that elapsed
    /// while it was down are gone (a rebooted router restarts cold).
    pub fn schedule_node_repair(&mut self, at: SimTime, node: NodeId) {
        self.schedule(at, SimEvent::RepairNode(node));
    }

    /// Runs `f` against a node with a live [`Ctx`], applying any sends and
    /// timers it issues. This is how simulations are bootstrapped (initial
    /// joins, first timers).
    pub fn with_node<F: FnOnce(&mut N, &mut Ctx<'_, N>)>(&mut self, id: NodeId, f: F) {
        let mut ctx = Ctx {
            now: self.now,
            me: id,
            graph: self.graph,
            failures: &self.failures,
            commands: std::mem::take(&mut self.commands),
            next_token: &self.next_token,
        };
        f(&mut self.nodes[id.index()], &mut ctx);
        let mut commands = ctx.commands;
        self.apply(id, &mut commands);
        self.commands = commands;
    }

    /// The single drop site: counts the drop under its cause and traces it.
    fn drop_msg(&mut self, time: SimTime, from: NodeId, to: NodeId, reason: DropReason) {
        self.dropped.record(reason);
        if self.trace.is_enabled() {
            self.trace.push(TraceEvent::Dropped {
                time,
                from,
                to,
                reason,
            });
        }
    }

    /// Applies and empties `commands`, in issue order.
    fn apply(&mut self, from: NodeId, commands: &mut Vec<NodeCommand<N::Msg, N::Timer>>) {
        for c in commands.drain(..) {
            match c {
                NodeCommand::Send { to, msg } => {
                    if !self.failures.node_usable(from) {
                        self.drop_msg(self.now, from, to, DropReason::SenderDown);
                        continue;
                    }
                    let Some((link, propagation)) = self.hop(from, to) else {
                        self.drop_msg(self.now, from, to, DropReason::NotAdjacent);
                        continue;
                    };
                    if self.trace.is_enabled() {
                        self.trace.push(TraceEvent::Sent {
                            time: self.now,
                            from,
                            to,
                            what: N::describe(&msg),
                        });
                    }
                    // The degraded channel may lose the message, duplicate
                    // it, or stretch its delay; a perfect channel delivers
                    // exactly one copy with no extra delay.
                    let transmit = match &mut self.channel {
                        Some(ch) => ch.transmit(link, N::classify(&msg)),
                        None => Transmit::PERFECT,
                    };
                    let Some((&last, duplicates)) = transmit.delays_ms().split_last() else {
                        self.drop_msg(self.now, from, to, DropReason::ChannelLoss);
                        continue;
                    };
                    let base = self.now + propagation;
                    // Only a duplicate costs a clone; the message itself
                    // moves into the last copy's event.
                    for &extra in duplicates {
                        let msg = msg.clone();
                        self.schedule_delivery(base + extra_delay(extra), from, to, link, msg);
                    }
                    self.schedule_delivery(base + extra_delay(last), from, to, link, msg);
                }
                NodeCommand::Timer {
                    delay,
                    timer,
                    token,
                } => {
                    let event = SimEvent::Timer {
                        node: from,
                        timer,
                        token,
                    };
                    if let Some(handle) = self.schedule(self.now + delay, event) {
                        self.timer_handles.insert(token.0, handle);
                    }
                }
                NodeCommand::CancelTimer { token } => match self.backend {
                    TimerBackend::Wheel => {
                        if let Some(handle) = self.timer_handles.remove(&token.0) {
                            self.wheel.cancel(handle);
                        }
                    }
                    TimerBackend::ReferenceHeap => {
                        self.cancelled_tokens.insert(token.0);
                    }
                },
            }
        }
    }

    /// The link from `from` to its neighbor `to` and its propagation
    /// delay, or `None` if they are not adjacent.
    fn hop(&self, from: NodeId, to: NodeId) -> Option<(LinkId, SimTime)> {
        let row = self.hop_rows[from.index()]..self.hop_rows[from.index() + 1];
        self.hops[row]
            .iter()
            .find(|&&(n, ..)| n == to)
            .map(|&(_, link, delay)| (link, delay))
    }

    fn schedule_delivery(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        link: LinkId,
        msg: N::Msg,
    ) {
        self.schedule(
            at,
            SimEvent::Deliver {
                from,
                to,
                link,
                msg,
            },
        );
    }

    /// `(time, seq)` of the earliest pending event.
    fn peek_next_key(&mut self) -> Option<(SimTime, u64)> {
        match self.backend {
            TimerBackend::Wheel => self.wheel.peek_key(),
            TimerBackend::ReferenceHeap => self.queue.peek_key(),
        }
    }

    /// Fires a timer on `node`, unless the node is down (dead nodes do
    /// not tick).
    fn fire_timer(&mut self, time: SimTime, node: NodeId, timer: N::Timer) {
        if !self.failures.node_usable(node) {
            return;
        }
        if self.trace.is_enabled() {
            self.trace.push(TraceEvent::TimerFired {
                time,
                node,
                what: N::describe_timer(&timer),
            });
        }
        self.with_node(node, |n, ctx| n.on_timer(ctx, timer));
    }

    /// Processes one event. Returns `false` when none is pending.
    ///
    /// Each backend holds every pending event in one structure ordered by
    /// `(time, seq)`, so there is nothing to merge: pop and dispatch.
    pub fn step(&mut self) -> bool {
        let next = match self.backend {
            TimerBackend::Wheel => self.wheel.pop().map(|(time, _seq, event)| (time, event)),
            TimerBackend::ReferenceHeap => self.queue.pop(),
        };
        let Some((time, event)) = next else {
            return false;
        };
        self.now = time;
        match event {
            SimEvent::Deliver {
                from,
                to,
                link,
                msg,
            } => {
                if !self.failures.link_usable(self.graph, link) {
                    self.drop_msg(time, from, to, DropReason::LinkDown);
                    return true;
                }
                if !self.failures.node_usable(to) {
                    self.drop_msg(time, from, to, DropReason::NodeDown);
                    return true;
                }
                self.delivered += 1;
                if self.trace.is_enabled() {
                    self.trace.push(TraceEvent::Delivered {
                        time,
                        from,
                        to,
                        what: N::describe(&msg),
                    });
                }
                self.with_node(to, |n, ctx| n.on_message(ctx, from, msg));
            }
            SimEvent::Timer { node, timer, token } => {
                // The wheel never surfaces a cancelled timer; the heap
                // cannot remove one, so its token is filtered here.
                let cancelled = match self.backend {
                    TimerBackend::Wheel => {
                        self.timer_handles.remove(&token.0);
                        false
                    }
                    TimerBackend::ReferenceHeap => self.cancelled_tokens.remove(&token.0),
                };
                if !cancelled {
                    self.fire_timer(time, node, timer);
                }
            }
            SimEvent::FailLink(link) => {
                self.failures.fail_link(link);
            }
            SimEvent::FailNode(node) => {
                self.failures.fail_node(node);
            }
            SimEvent::RepairLink(link) => {
                self.failures.repair_link(link);
            }
            SimEvent::RepairNode(node) => {
                self.failures.repair_node(node);
                self.with_node(node, |n, ctx| n.on_reboot(ctx));
            }
        }
        true
    }

    /// Processes all events up to and including `limit`, then sets the
    /// clock to `limit`.
    pub fn run_until(&mut self, limit: SimTime) {
        while let Some((t, _)) = self.peek_next_key() {
            if t > limit {
                break;
            }
            self.step();
        }
        self.now = self.now.max(limit);
    }

    /// Runs until the queue drains or `max_events` were processed; returns
    /// the number processed.
    pub fn run_to_completion(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }
}

impl<'g, N: NodeBehavior> std::fmt::Debug for NetSim<'g, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetSim")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &(self.queue.len() + self.wheel.len()))
            .field("delivered", &self.delivered)
            .field("dropped", &self.dropped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts received pings and echoes them back once.
    #[derive(Default)]
    struct PingPong {
        received: u32,
        echoed: bool,
    }

    #[derive(Debug, Clone)]
    enum Msg {
        Ping,
        Pong,
    }

    impl NodeBehavior for PingPong {
        type Msg = Msg;
        type Timer = u8;
        fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Msg) {
            self.received += 1;
            if matches!(msg, Msg::Ping) && !self.echoed {
                self.echoed = true;
                ctx.send(from, Msg::Pong);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: u8) {
            if timer == 1 {
                // Re-arm once to exercise chained timers.
                ctx.set_timer(SimTime::from_ms(1.0), 2);
            }
            self.received += 100;
        }
        // Traces must tell Ping from Pong and one timer tag from another,
        // or the ordering tests below compare indistinguishable entries.
        fn describe(msg: &Msg) -> Descriptor {
            Descriptor::of_class(match msg {
                Msg::Ping => "ping",
                Msg::Pong => "pong",
            })
        }
        fn describe_timer(timer: &u8) -> Descriptor {
            Descriptor {
                seq: Some(u64::from(*timer)),
                ..Descriptor::of_class("timer")
            }
        }
    }

    fn line_graph() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::with_nodes(3);
        let ids: Vec<_> = g.node_ids().collect();
        g.add_link(ids[0], ids[1], 2.0).unwrap();
        g.add_link(ids[1], ids[2], 3.0).unwrap();
        (g, ids)
    }

    fn fresh(g: &Graph) -> Vec<PingPong> {
        (0..g.node_count()).map(|_| PingPong::default()).collect()
    }

    #[test]
    fn ping_pong_round_trip() {
        let (g, ids) = line_graph();
        let mut sim = NetSim::new(&g, fresh(&g));
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.run_to_completion(10);
        assert_eq!(sim.node(ids[1]).received, 1);
        assert_eq!(sim.node(ids[0]).received, 1); // the pong.
        assert_eq!(sim.now(), SimTime::from_ms(4.0));
        assert_eq!(sim.delivered_count(), 2);
    }

    #[test]
    fn non_adjacent_send_is_dropped() {
        let (g, ids) = line_graph();
        let mut sim = NetSim::new(&g, fresh(&g));
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[2], Msg::Ping));
        sim.run_to_completion(10);
        assert_eq!(sim.node(ids[2]).received, 0);
        assert_eq!(sim.dropped_count(), 1);
        assert!(matches!(
            sim.trace().entries().last(),
            Some(TraceEvent::Dropped {
                reason: DropReason::NotAdjacent,
                ..
            })
        ));
    }

    #[test]
    fn failed_link_loses_in_flight_messages() {
        let (g, ids) = line_graph();
        let link = g.link_between(ids[0], ids[1]).unwrap();
        let mut sim = NetSim::new(&g, fresh(&g));
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        // Cut the cable while the packet is in flight.
        sim.schedule_link_failure(SimTime::from_ms(1.0), link);
        sim.run_to_completion(10);
        assert_eq!(sim.node(ids[1]).received, 0);
        assert_eq!(sim.dropped_count(), 1);
    }

    #[test]
    fn failed_node_neither_receives_nor_ticks() {
        let (g, ids) = line_graph();
        let mut sim = NetSim::new(&g, fresh(&g));
        sim.with_node(ids[1], |_, ctx| {
            ctx.set_timer(SimTime::from_ms(5.0), 9);
        });
        sim.fail_node_now(ids[1]);
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.run_to_completion(10);
        assert_eq!(sim.node(ids[1]).received, 0);
    }

    #[test]
    fn failed_sender_emits_nothing() {
        let (g, ids) = line_graph();
        let mut sim = NetSim::new(&g, fresh(&g));
        sim.fail_node_now(ids[0]);
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.run_to_completion(10);
        assert_eq!(sim.node(ids[1]).received, 0);
        assert!(matches!(
            sim.trace().entries().last(),
            Some(TraceEvent::Dropped {
                reason: DropReason::SenderDown,
                ..
            })
        ));
    }

    #[test]
    fn timers_fire_and_chain() {
        let (g, ids) = line_graph();
        let mut sim = NetSim::new(&g, fresh(&g));
        sim.with_node(ids[2], |_, ctx| {
            ctx.set_timer(SimTime::from_ms(1.0), 1);
        });
        sim.run_to_completion(10);
        // Timer 1 fires (+100) and chains timer 2 (+100).
        assert_eq!(sim.node(ids[2]).received, 200);
        assert_eq!(sim.now(), SimTime::from_ms(2.0));
    }

    #[test]
    fn run_until_stops_at_the_limit() {
        let (g, ids) = line_graph();
        let mut sim = NetSim::new(&g, fresh(&g));
        sim.with_node(ids[0], |_, ctx| {
            ctx.set_timer(SimTime::from_ms(1.0), 3);
            ctx.set_timer(SimTime::from_ms(10.0), 3);
        });
        sim.run_until(SimTime::from_ms(5.0));
        assert_eq!(sim.node(ids[0]).received, 100);
        assert_eq!(sim.now(), SimTime::from_ms(5.0));
        sim.run_until(SimTime::from_ms(20.0));
        assert_eq!(sim.node(ids[0]).received, 200);
    }

    #[test]
    fn ctx_link_up_reflects_failures() {
        let (g, ids) = line_graph();
        let link = g.link_between(ids[0], ids[1]).unwrap();
        let mut sim = NetSim::new(&g, fresh(&g));
        let mut up_before = false;
        let mut up_unrelated = false;
        sim.with_node(ids[0], |_, ctx| {
            up_before = ctx.link_up(ids[1]);
            // Non-adjacent nodes are never "up".
            up_unrelated = ctx.link_up(ids[2]);
        });
        assert!(up_before);
        assert!(!up_unrelated);
        sim.fail_link_now(link);
        let mut up_after = true;
        sim.with_node(ids[0], |_, ctx| up_after = ctx.link_up(ids[1]));
        assert!(!up_after);
    }

    #[test]
    fn counters_and_debug_output() {
        let (g, ids) = line_graph();
        let mut sim = NetSim::new(&g, fresh(&g));
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.run_to_completion(10);
        let text = format!("{sim:?}");
        assert!(text.contains("NetSim"));
        assert!(text.contains("delivered"));
        assert_eq!(sim.delivered_count(), 2); // ping + pong.
        assert_eq!(sim.dropped_count(), 0);
        assert!(sim.trace().len() >= 4); // 2 sends + 2 deliveries.
    }

    #[test]
    fn scheduled_node_failure_takes_effect_at_time() {
        let (g, ids) = line_graph();
        let mut sim = NetSim::new(&g, fresh(&g));
        sim.schedule_node_failure(SimTime::from_ms(3.0), ids[1]);
        // A ping sent at t=0 arrives at t=2, before the failure.
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.run_until(SimTime::from_ms(10.0));
        assert_eq!(sim.node(ids[1]).received, 1);
        // After the scheduled failure, nothing more is delivered.
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.run_until(SimTime::from_ms(20.0));
        assert_eq!(sim.node(ids[1]).received, 1);
        assert!(sim.failures().failed_nodes().any(|n| n == ids[1]));
    }

    #[test]
    #[should_panic(expected = "one behavior per graph node")]
    fn node_count_mismatch_panics() {
        let (g, _) = line_graph();
        let _ = NetSim::new(&g, vec![PingPong::default()]);
    }

    #[test]
    fn cancelled_timer_never_fires_on_either_backend() {
        for backend in [TimerBackend::Wheel, TimerBackend::ReferenceHeap] {
            let (g, ids) = line_graph();
            let mut sim = NetSim::new(&g, fresh(&g));
            sim.set_timer_backend(backend);
            let mut token = None;
            sim.with_node(ids[0], |_, ctx| {
                token = Some(ctx.set_timer(SimTime::from_ms(1.0), 3));
                ctx.set_timer(SimTime::from_ms(2.0), 3);
            });
            sim.with_node(ids[0], |_, ctx| ctx.cancel_timer(token.unwrap()));
            sim.run_to_completion(10);
            // Only the uncancelled timer fired.
            assert_eq!(sim.node(ids[0]).received, 100, "{backend:?}");
            assert_eq!(sim.now(), SimTime::from_ms(2.0), "{backend:?}");
        }
    }

    #[test]
    fn cancelling_a_fired_timer_is_a_noop() {
        for backend in [TimerBackend::Wheel, TimerBackend::ReferenceHeap] {
            let (g, ids) = line_graph();
            let mut sim = NetSim::new(&g, fresh(&g));
            sim.set_timer_backend(backend);
            let mut token = None;
            sim.with_node(ids[0], |_, ctx| {
                token = Some(ctx.set_timer(SimTime::from_ms(1.0), 3));
            });
            sim.run_to_completion(10);
            assert_eq!(sim.node(ids[0]).received, 100, "{backend:?}");
            // The timer is gone; cancelling its stale token changes nothing.
            sim.with_node(ids[0], |_, ctx| ctx.cancel_timer(token.unwrap()));
            sim.with_node(ids[0], |_, ctx| {
                ctx.set_timer(SimTime::from_ms(1.0), 3);
            });
            sim.run_to_completion(10);
            assert_eq!(sim.node(ids[0]).received, 200, "{backend:?}");
        }
    }

    #[test]
    fn wheel_and_reference_heap_produce_identical_traces() {
        let run = |backend: TimerBackend| -> Vec<String> {
            let (g, ids) = line_graph();
            let mut sim = NetSim::new(&g, fresh(&g));
            sim.set_timer_backend(backend);
            sim.with_node(ids[0], |_, ctx| {
                ctx.send(ids[1], Msg::Ping);
                // Deliberate same-instant pileup at t=2.0: the delivery
                // and three timers must come out in scheduling order.
                ctx.set_timer(SimTime::from_ms(2.0), 1);
                ctx.set_timer(SimTime::from_ms(2.0), 3);
            });
            sim.with_node(ids[2], |_, ctx| {
                ctx.set_timer(SimTime::from_ms(2.0), 4);
            });
            sim.run_to_completion(100);
            sim.trace()
                .entries()
                .iter()
                .map(|e| format!("{e:?}"))
                .collect()
        };
        let wheel = run(TimerBackend::Wheel);
        let reference = run(TimerBackend::ReferenceHeap);
        assert_eq!(wheel, reference);
    }

    #[test]
    #[should_panic(expected = "before timers are armed")]
    fn backend_switch_after_arming_panics() {
        let (g, ids) = line_graph();
        let mut sim = NetSim::new(&g, fresh(&g));
        sim.with_node(ids[0], |_, ctx| {
            ctx.set_timer(SimTime::from_ms(1.0), 1);
        });
        sim.set_timer_backend(TimerBackend::ReferenceHeap);
    }

    #[test]
    #[should_panic(expected = "before timers are armed or events scheduled")]
    fn backend_switch_after_scheduling_a_failure_panics() {
        let (g, ids) = line_graph();
        let link = g.link_between(ids[0], ids[1]).unwrap();
        let mut sim = NetSim::new(&g, fresh(&g));
        // No timer was ever armed, but the failure already waits in the
        // wheel, where the heap backend would never look.
        sim.schedule_link_failure(SimTime::from_ms(1.0), link);
        sim.set_timer_backend(TimerBackend::ReferenceHeap);
    }

    #[test]
    fn each_backend_keeps_every_event_in_its_one_structure() {
        for backend in [TimerBackend::Wheel, TimerBackend::ReferenceHeap] {
            let (g, ids) = line_graph();
            let link = g.link_between(ids[0], ids[1]).unwrap();
            let mut sim = NetSim::new(&g, fresh(&g));
            sim.set_timer_backend(backend);
            // One event of every kind: a flap, a reboot, a timer chain, a
            // cancelled timer and deliveries both lost and echoed.
            sim.schedule_link_failure(SimTime::from_ms(1.0), link);
            sim.schedule_link_repair(SimTime::from_ms(5.0), link);
            sim.schedule_node_failure(SimTime::from_ms(6.0), ids[2]);
            sim.schedule_node_repair(SimTime::from_ms(9.0), ids[2]);
            let mut token = None;
            sim.with_node(ids[0], |_, ctx| {
                ctx.send(ids[1], Msg::Ping);
                ctx.set_timer(SimTime::from_ms(7.0), 1);
                token = Some(ctx.set_timer(SimTime::from_ms(8.0), 3));
            });
            sim.with_node(ids[0], |_, ctx| ctx.cancel_timer(token.unwrap()));
            let mut steps = 0;
            loop {
                let (in_wheel, in_heap) = (sim.wheel.len(), sim.queue.len());
                match backend {
                    TimerBackend::Wheel => assert_eq!(in_heap, 0, "step {steps}"),
                    TimerBackend::ReferenceHeap => assert_eq!(in_wheel, 0, "step {steps}"),
                }
                if sim.now() == SimTime::from_ms(5.0) {
                    sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
                }
                if !sim.step() {
                    break;
                }
                steps += 1;
            }
            assert!(steps >= 8, "{backend:?}: only {steps} events ran");
            assert_eq!(sim.drops().link_down, 1, "{backend:?}");
            assert_eq!(sim.delivered_count(), 2, "{backend:?}"); // ping + pong.
            assert_eq!(sim.node(ids[0]).received, 201, "{backend:?}"); // pong + 2 timers.
        }
    }

    #[test]
    fn sub_tick_delivery_merges_into_the_ready_batch_in_key_order() {
        /// Timer 1 greets the neighbor and arms a same-delay timer; every
        /// other event is only traced.
        struct Greeter(NodeId);
        impl NodeBehavior for Greeter {
            type Msg = ();
            type Timer = u8;
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: u8) {
                if timer == 1 {
                    ctx.send(self.0, ());
                    ctx.set_timer(SimTime::from_ms(0.1), 5);
                }
            }
            fn describe_timer(timer: &u8) -> Descriptor {
                Descriptor {
                    seq: Some(u64::from(*timer)),
                    ..Descriptor::of_class("timer")
                }
            }
        }
        let run = |backend: TimerBackend| -> Vec<String> {
            let mut g = Graph::with_nodes(2);
            let ids: Vec<_> = g.node_ids().collect();
            // 0.1 ms: a fifth of a 0.524 ms wheel tick.
            g.add_link(ids[0], ids[1], 0.1).unwrap();
            let mut sim = NetSim::new(&g, vec![Greeter(ids[1]), Greeter(ids[0])]);
            sim.set_timer_backend(backend);
            // All inside the tick [1.049 ms, 1.573 ms): when timer 1 fires
            // at 1.10 ms the tick is drained and timers 2–4 wait in the
            // ready batch, so the 1.20 ms delivery must be merged between
            // them, after timer 3 (same instant, armed earlier) and before
            // timer 5 (same instant, armed later).
            sim.with_node(ids[1], |_, ctx| {
                ctx.set_timer(SimTime::from_ms(1.15), 2);
                ctx.set_timer(SimTime::from_ms(1.20), 3);
                ctx.set_timer(SimTime::from_ms(1.25), 4);
            });
            sim.with_node(ids[0], |_, ctx| {
                ctx.set_timer(SimTime::from_ms(1.10), 1);
            });
            sim.run_to_completion(100);
            sim.trace()
                .entries()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::TimerFired { what, .. } => Some(format!("timer {}", what.seq?)),
                    TraceEvent::Delivered { time, .. } => Some(format!("delivery at {time}")),
                    _ => None,
                })
                .collect()
        };
        let expected = [
            "timer 1",
            "timer 2",
            "timer 3",
            "delivery at 1.200ms",
            "timer 5",
            "timer 4",
        ];
        assert_eq!(run(TimerBackend::Wheel), expected);
        assert_eq!(run(TimerBackend::ReferenceHeap), expected);
    }

    #[test]
    fn transient_link_failure_heals_after_repair() {
        let (g, ids) = line_graph();
        let link = g.link_between(ids[0], ids[1]).unwrap();
        let mut sim = NetSim::new(&g, fresh(&g));
        sim.schedule_link_failure(SimTime::from_ms(1.0), link);
        sim.schedule_link_repair(SimTime::from_ms(5.0), link);
        // Sent at t=0, in flight when the cut happens at t=1: lost.
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.run_until(SimTime::from_ms(4.0));
        assert_eq!(sim.node(ids[1]).received, 0);
        // Sent at t=4, still down on arrival at t=6? No: repair at t=5,
        // arrival at t=6 — delivered.
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.run_until(SimTime::from_ms(10.0));
        assert_eq!(sim.node(ids[1]).received, 1);
        assert!(sim.failures().is_empty());
    }

    #[test]
    fn channel_loss_drops_and_counts_by_cause() {
        use crate::channel::{ChannelModel, ChannelSpec};
        let (g, ids) = line_graph();
        let mut sim = NetSim::new(&g, fresh(&g));
        // A channel that loses everything.
        sim.set_channel(Some(ChannelModel::new(&ChannelSpec::uniform_loss(1.0, 1))));
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.run_to_completion(10);
        assert_eq!(sim.node(ids[1]).received, 0);
        assert_eq!(sim.drops().channel_loss, 1);
        assert_eq!(sim.dropped_count(), 1);
        assert_eq!(sim.channel_stats().unwrap().lost(), 1);
        assert!(matches!(
            sim.trace().entries().last(),
            Some(TraceEvent::Dropped {
                reason: DropReason::ChannelLoss,
                ..
            })
        ));
        // Restore the perfect channel: traffic flows again.
        sim.set_channel(None);
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.run_to_completion(10);
        assert_eq!(sim.node(ids[1]).received, 1);
    }

    #[test]
    fn channel_duplication_delivers_twice() {
        use crate::channel::{ChannelModel, ChannelParams, ChannelSpec};
        let (g, ids) = line_graph();
        let mut sim = NetSim::new(&g, fresh(&g));
        let spec = ChannelSpec {
            default: ChannelParams {
                duplicate: 1.0,
                ..ChannelParams::PERFECT
            },
            overrides: Vec::new(),
            seed: 5,
        };
        sim.set_channel(Some(ChannelModel::new(&spec)));
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.run_to_completion(10);
        assert_eq!(sim.node(ids[1]).received, 2, "duplicate arrives too");
        // The ping and the echoed pong each picked up one duplicate.
        assert_eq!(sim.channel_stats().unwrap().duplicated, 2);
    }

    #[test]
    fn drop_counts_split_by_reason() {
        let (g, ids) = line_graph();
        let link = g.link_between(ids[0], ids[1]).unwrap();
        let mut sim = NetSim::new(&g, fresh(&g));
        // Non-adjacent.
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[2], Msg::Ping));
        // In flight when the link dies.
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.schedule_link_failure(SimTime::from_ms(1.0), link);
        sim.run_to_completion(10);
        let d = *sim.drops();
        assert_eq!(d.not_adjacent, 1);
        assert_eq!(d.link_down, 1);
        assert_eq!(d.channel_loss, 0);
        assert_eq!(d.total(), sim.dropped_count());
    }

    #[test]
    fn repaired_node_resumes_receiving() {
        let (g, ids) = line_graph();
        let mut sim = NetSim::new(&g, fresh(&g));
        sim.schedule_node_failure(SimTime::from_ms(1.0), ids[1]);
        sim.schedule_node_repair(SimTime::from_ms(5.0), ids[1]);
        // Sent at t=0, arrives t=2 while the node is down: dropped.
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.run_until(SimTime::from_ms(4.0));
        assert_eq!(sim.node(ids[1]).received, 0, "dead node receives nothing");
        // Sent at t=4, arrives t=6 after the t=5 reboot: delivered.
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.run_until(SimTime::from_ms(10.0));
        assert_eq!(sim.node(ids[1]).received, 1, "repaired node receives");
    }
}
