//! The simulation engine: nodes, message delivery, timers, failures.
//!
//! Each handler call gets one [`Ctx`]: it queues sends, timer arms and
//! cancels into a buffer the engine lends it, and the engine applies them
//! in issue order once the handler returns. Timer tokens come from one
//! counter per simulation. Hosts outside the engine build the same
//! context with [`Ctx::standalone`] and apply its [`NodeCommand`]s
//! themselves.

use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use smrp_net::{FailureScenario, Graph, Injection, LinkId, NodeId};

use crate::channel::ChannelModel;
use crate::event::EventQueue;
use crate::time::SimTime;
use crate::trace::{Descriptor, DropReason, TraceEvent, TraceLog};
use crate::wheel::TimerWheel;

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

/// Hasher for the cancelled-token set. Tokens are a private dense
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
/// hierarchical [`TimerWheel`] with O(1) schedule and no sifting of fat
/// entries. [`TimerBackend::ReferenceHeap`] keeps every event in one
/// binary-heap [`EventQueue`] (the pre-wheel engine layout); it exists so
/// differential tests can assert that both engines pop the same
/// `(time, seq)` order and produce byte-identical traces. Both cancel a
/// timer the same way: the token is remembered, and the timer is skipped
/// when it pops at its due instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimerBackend {
    /// Hierarchical event wheel (the production path).
    #[default]
    Wheel,
    /// Everything rides the binary-heap event queue. Reference semantics
    /// for differential tests.
    ReferenceHeap,
}

/// Protocol logic of one node.
///
/// A behavior reacts to message arrivals and timer firings through a
/// [`Ctx`], which lets it send messages to *adjacent* nodes (the simulator
/// enforces hop-by-hop communication) and arm node-local timers.
pub trait NodeBehavior: Sized {
    /// Message type exchanged between nodes.
    type Msg: std::fmt::Debug;
    /// Timer tag type.
    type Timer: Clone + std::fmt::Debug;

    /// Called when a message from neighbor `from` arrives.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Self::Msg);

    /// Called when a previously armed timer fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: Self::Timer);

    /// Called when the node comes back up after a scheduled
    /// [`Injection::RepairNode`] (see [`NetSim::schedule_injection`]).
    /// Timer events that elapsed while the node was down were silently
    /// dropped, so any periodic timer chain is dead by now — protocols
    /// should re-arm their timers here.
    /// The default is a no-op (a rebooted node stays passive).
    fn on_reboot(&mut self, _ctx: &mut Ctx<'_, Self>) {}

    /// Classifies a message for the degraded channel's per-class loss
    /// accounting (see [`NetSim::channel_losses`]). Purely
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
/// this type. It is public for hosts that run handlers against a
/// [`Ctx::standalone`] context and apply the commands themselves (the
/// `smrpd` daemon over a real transport and timer driver).
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
    commands: Vec<NodeCommand<N::Msg, N::Timer>>,
    next_token: &'a Cell<u64>,
}

impl<'a, N: NodeBehavior> Ctx<'a, N> {
    /// Builds a context outside the simulator, for hosts that drive a
    /// [`NodeBehavior`] themselves — the `smrpd` daemon runs each router's
    /// handlers against a standalone context and interprets the resulting
    /// [`NodeCommand`]s over a real transport and a real timer driver.
    ///
    /// The host's view of the failure state is taken but not consulted:
    /// like the engine, the host gates deliveries and timers on failures
    /// itself. `next_token` is the host's node-wide timer token counter: it
    /// must be the same cell across every context built for one node so
    /// [`TimerToken`]s stay unique for the node's lifetime, exactly as the
    /// engine guarantees within a simulation.
    pub fn standalone(
        now: SimTime,
        me: NodeId,
        graph: &'a Graph,
        _failures: &'a FailureScenario,
        next_token: &'a Cell<u64>,
    ) -> Self {
        Ctx {
            now,
            me,
            graph,
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

    /// Revokes a previously armed timer. Cancelling a timer that already
    /// fired (or was already cancelled) is a no-op: tokens are unique for
    /// the lifetime of the simulation, so a stale token matches nothing.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.commands.push(NodeCommand::CancelTimer { token });
    }

    /// Consumes the context, yielding the commands its handler queued, in
    /// issue order. Only useful on [`Ctx::standalone`] contexts — contexts
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
    pub(crate) fn total(&self) -> u64 {
        self.link_down + self.node_down + self.sender_down + self.not_adjacent + self.channel_loss
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
    Inject(Injection),
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
    /// Cancelled tokens; a timer pops at its due instant and is skipped if
    /// its token is here. A cancel of a timer already fired or discarded
    /// stays until the simulation ends.
    cancelled_tokens: HashSet<u64, BuildHasherDefault<TokenHasher>>,
    now: SimTime,
    /// The failure mask, by node and by link index. A link whose endpoint
    /// is down carries nothing, whatever its own flag says.
    node_down: Vec<bool>,
    link_down: Vec<bool>,
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
            cancelled_tokens: HashSet::default(),
            now: SimTime::ZERO,
            node_down: vec![false; graph.node_count()],
            link_down: vec![false; graph.link_count()],
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
    /// global sequence number.
    fn schedule(&mut self, at: SimTime, event: SimEvent<N::Msg, N::Timer>) {
        let seq = self.seq;
        self.seq += 1;
        match self.backend {
            TimerBackend::Wheel => {
                self.wheel.schedule(at, seq, event);
            }
            TimerBackend::ReferenceHeap => self.queue.schedule_keyed(at, seq, event),
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

    /// Messages the degraded channel lost, keyed by
    /// [`NodeBehavior::classify`] class, if a channel is installed.
    pub fn channel_losses(&self) -> Option<&BTreeMap<&'static str, u64>> {
        self.channel.as_ref().map(ChannelModel::lost_by_class)
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

    /// Fails a node immediately.
    pub fn fail_node_now(&mut self, node: NodeId) {
        self.node_down[node.index()] = true;
    }

    /// Schedules one scripted change to the failure mask at absolute time
    /// `at`. A failed link or node drops what crosses or reaches it from
    /// then on, including messages already in flight; a repair only
    /// affects traffic from then on (what was lost stays lost). A repaired
    /// node reboots ([`NodeBehavior::on_reboot`]): timers that elapsed
    /// while it was down are gone, so it restarts cold. Events at one
    /// instant apply in the order they were scheduled.
    pub fn schedule_injection(&mut self, at: SimTime, injection: Injection) {
        self.schedule(at, SimEvent::Inject(injection));
    }

    /// Runs `f` against a node with a live [`Ctx`], applying any sends and
    /// timers it issues. This is how simulations are bootstrapped (initial
    /// joins, first timers).
    pub fn with_node<F: FnOnce(&mut N, &mut Ctx<'_, N>)>(&mut self, id: NodeId, f: F) {
        let mut ctx = Ctx {
            now: self.now,
            me: id,
            graph: self.graph,
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
                    if self.node_down[from.index()] {
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
                    // The degraded channel may lose the message; whatever
                    // survives arrives once, after the link's propagation
                    // delay, and the message moves into its event.
                    if let Some(ch) = &mut self.channel {
                        if !ch.transmit(link, N::classify(&msg)) {
                            self.drop_msg(self.now, from, to, DropReason::ChannelLoss);
                            continue;
                        }
                    }
                    self.schedule_delivery(self.now + propagation, from, to, link, msg);
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
                    self.schedule(self.now + delay, event);
                }
                NodeCommand::CancelTimer { token } => {
                    self.cancelled_tokens.insert(token.0);
                }
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
        if self.node_down[node.index()] {
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
    pub(crate) fn step(&mut self) -> bool {
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
                if self.link_down[link.index()]
                    || self.node_down[from.index()]
                    || self.node_down[to.index()]
                {
                    self.drop_msg(time, from, to, DropReason::LinkDown);
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
                if self.cancelled_tokens.is_empty() || !self.cancelled_tokens.remove(&token.0) {
                    self.fire_timer(time, node, timer);
                }
            }
            SimEvent::Inject(injection) => match injection {
                Injection::FailLink(link) => self.link_down[link.index()] = true,
                Injection::RepairLink(link) => self.link_down[link.index()] = false,
                Injection::FailNode(node) => self.node_down[node.index()] = true,
                Injection::RepairNode(node) => {
                    self.node_down[node.index()] = false;
                    self.with_node(node, |n, ctx| n.on_reboot(ctx));
                }
            },
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
    /// the number processed. A cancelled timer still pops at its due
    /// instant: it counts as processed, and the clock may stop there.
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
        sim.schedule_injection(SimTime::from_ms(1.0), Injection::FailLink(link));
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
        sim.schedule_injection(SimTime::from_ms(3.0), Injection::FailNode(ids[1]));
        // A ping sent at t=0 arrives at t=2, before the failure.
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.run_until(SimTime::from_ms(10.0));
        assert_eq!(sim.node(ids[1]).received, 1);
        // After the scheduled failure, nothing more is delivered.
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.run_until(SimTime::from_ms(20.0));
        assert_eq!(sim.node(ids[1]).received, 1);
        assert!(sim.node_down[ids[1].index()]);
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
    fn stale_cancel_after_a_reboot_is_a_noop() {
        for backend in [TimerBackend::Wheel, TimerBackend::ReferenceHeap] {
            let (g, ids) = line_graph();
            let mut sim = NetSim::new(&g, fresh(&g));
            sim.set_timer_backend(backend);
            let mut token = None;
            sim.with_node(ids[1], |_, ctx| {
                token = Some(ctx.set_timer(SimTime::from_ms(5.0), 3));
            });
            // The timer comes due while its node is down and is discarded.
            sim.schedule_injection(SimTime::from_ms(1.0), Injection::FailNode(ids[1]));
            sim.schedule_injection(SimTime::from_ms(8.0), Injection::RepairNode(ids[1]));
            sim.run_until(SimTime::from_ms(8.0));
            // The rebooted node cancels the dead timer and arms new ones.
            sim.with_node(ids[1], |_, ctx| {
                ctx.cancel_timer(token.unwrap());
                ctx.set_timer(SimTime::from_ms(1.0), 3);
                ctx.set_timer(SimTime::from_ms(2.0), 3);
            });
            sim.run_to_completion(10);
            assert_eq!(sim.node(ids[1]).received, 200, "{backend:?}");
            let fired: Vec<SimTime> = sim
                .trace()
                .entries()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::TimerFired { time, .. } => Some(*time),
                    _ => None,
                })
                .collect();
            let ms = SimTime::from_ms;
            assert_eq!(fired, [ms(9.0), ms(10.0)], "{backend:?}");
            // The stale token stays in the set: its timer will never pop.
            assert_eq!(sim.cancelled_tokens.len(), 1, "{backend:?}");
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
        sim.schedule_injection(SimTime::from_ms(1.0), Injection::FailLink(link));
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
            sim.schedule_injection(SimTime::from_ms(1.0), Injection::FailLink(link));
            sim.schedule_injection(SimTime::from_ms(5.0), Injection::RepairLink(link));
            sim.schedule_injection(SimTime::from_ms(6.0), Injection::FailNode(ids[2]));
            sim.schedule_injection(SimTime::from_ms(9.0), Injection::RepairNode(ids[2]));
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
        sim.schedule_injection(SimTime::from_ms(1.0), Injection::FailLink(link));
        sim.schedule_injection(SimTime::from_ms(5.0), Injection::RepairLink(link));
        // Sent at t=0, in flight when the cut happens at t=1: lost.
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.run_until(SimTime::from_ms(4.0));
        assert_eq!(sim.node(ids[1]).received, 0);
        // Sent at t=4, still down on arrival at t=6? No: repair at t=5,
        // arrival at t=6 — delivered.
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.run_until(SimTime::from_ms(10.0));
        assert_eq!(sim.node(ids[1]).received, 1);
        assert!(!sim.node_down.contains(&true) && !sim.link_down.contains(&true));
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
        assert_eq!(sim.channel_losses().unwrap().values().sum::<u64>(), 1);
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
    fn drop_counts_split_by_reason() {
        let (g, ids) = line_graph();
        let link = g.link_between(ids[0], ids[1]).unwrap();
        let mut sim = NetSim::new(&g, fresh(&g));
        // Non-adjacent.
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[2], Msg::Ping));
        // In flight when the link dies.
        sim.with_node(ids[0], |_, ctx| ctx.send(ids[1], Msg::Ping));
        sim.schedule_injection(SimTime::from_ms(1.0), Injection::FailLink(link));
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
        sim.schedule_injection(SimTime::from_ms(1.0), Injection::FailNode(ids[1]));
        sim.schedule_injection(SimTime::from_ms(5.0), Injection::RepairNode(ids[1]));
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
