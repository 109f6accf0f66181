//! Per-node runtime: one thread owning one [`MultiRouter`], driven by
//! real time and a [`Transport`].
//!
//! The runtime is the daemon-side mirror of the simulator's event loop
//! for a single node. The router code is *identical* — the same
//! [`MultiRouter`] the simulator schedules is dispatched here through
//! [`Ctx::standalone`], and its lanes write their group-tagged commands
//! into that context exactly as they do in the simulator, so the protocol
//! cannot diverge by construction; only the surrounding machinery
//! differs:
//!
//! * **Clock** — a [`MonotonicClock`] maps wall time onto protocol
//!   [`SimTime`], optionally sped up, all nodes anchored to one shared
//!   origin instant.
//! * **Timers** — [`TimerDriver`] parks timers on the engine's own
//!   wheel with its token semantics (never-reused tokens, O(1) cancel).
//! * **Failures** — each node holds the run's own injection list
//!   ([`smrp_proto::FailureSpec::injections`], sorted stably by time) and
//!   applies each [`Injection`] to a local [`FailureScenario`] view as its
//!   clock passes it, mirroring the simulator's global oracle: frames
//!   over failed links are dropped on both send and receive, a down node
//!   neither dispatches timers nor processes frames (due timers elapsing
//!   while down are *discarded*, ones due after repair still fire), and
//!   its own repair triggers `on_reboot`.
//! * **Loss** — each node owns a simulator [`ChannelModel`] over uniform
//!   loss, seeded per node, and every transmitted frame takes its one
//!   draw, as a message does in the simulator.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use smrp_net::{FailureScenario, Graph, Injection, NodeId};
use smrp_proto::wire;
use smrp_proto::{GroupMsg, GroupTimer, MultiRouter};
use smrp_sim::{
    ChannelModel, ChannelSpec, Ctx, MonotonicClock, NodeBehavior, NodeCommand, SimTime,
};

use crate::status::{NodeStatus, StatusBoard};
use crate::timer::TimerDriver;
use crate::transport::Transport;

/// Everything needed to run one node; [`run`](NodeRuntime::run)
/// consumes it and returns the final router state.
pub(crate) struct NodeRuntime {
    me: NodeId,
    graph: Arc<Graph>,
    router: MultiRouter,
    transport: Box<dyn Transport>,
    clock: MonotonicClock,
    horizon: SimTime,
    timers: TimerDriver<GroupTimer>,
    tokens: Cell<u64>,
    failures: FailureScenario,
    schedule: Vec<(SimTime, Injection)>,
    next_injection: usize,
    channel: ChannelModel,
    board: Arc<StatusBoard>,
    status_interval: SimTime,
    next_status_at: SimTime,
    frames_sent: u64,
    frames_dropped: u64,
}

impl NodeRuntime {
    /// Builds a runtime for `me`.
    ///
    /// `schedule` must be sorted by time (it is shared verbatim by all
    /// nodes, mirroring the simulator's single failure oracle). A
    /// positive `loss` enables seeded per-frame drops; the seed is
    /// decorrelated per node so parallel nodes don't drop in lockstep.
    ///
    /// # Panics
    ///
    /// Panics if `loss` lies outside `[0, 1]`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        me: NodeId,
        graph: Arc<Graph>,
        router: MultiRouter,
        transport: Box<dyn Transport>,
        clock: MonotonicClock,
        horizon: SimTime,
        schedule: Vec<(SimTime, Injection)>,
        loss: f64,
        loss_seed: u64,
        board: Arc<StatusBoard>,
    ) -> NodeRuntime {
        debug_assert!(schedule.windows(2).all(|w| w[0].0 <= w[1].0));
        let seed = loss_seed ^ (me.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let channel = ChannelModel::new(&ChannelSpec::uniform_loss(loss, seed));
        NodeRuntime {
            me,
            graph,
            router,
            transport,
            clock,
            horizon,
            timers: TimerDriver::new(),
            tokens: Cell::new(0),
            failures: FailureScenario::none(),
            schedule,
            next_injection: 0,
            channel,
            board,
            status_interval: SimTime::from_ms(25.0),
            next_status_at: SimTime::ZERO,
            frames_sent: 0,
            frames_dropped: 0,
        }
    }

    /// Runs the node until its clock passes the horizon; returns the
    /// final router state for snapshotting.
    pub(crate) fn run(mut self) -> MultiRouter {
        // Arm the protocol's periodic timers exactly as the simulator
        // does before injecting anything.
        let now = self.clock.now();
        self.dispatch(now, |router, ctx| {
            let groups: Vec<_> = router.groups().collect();
            for g in groups {
                router.lane_mut(g).start_timers(ctx);
            }
        });

        loop {
            let now = self.clock.now();
            if now >= self.horizon {
                break;
            }
            self.apply_injections(now);
            self.fire_due_timers(now);
            if now >= self.next_status_at {
                self.publish_status(now);
                self.next_status_at = now + self.status_interval;
            }

            let mut next = self.horizon;
            if let Some(d) = self.timers.next_deadline() {
                next = next.min(d);
            }
            if let Some(&(at, _)) = self.schedule.get(self.next_injection) {
                next = next.min(at);
            }
            next = next.min(self.next_status_at);
            // `Sub` on SimTime saturates, so a deadline already behind
            // `now` degrades to a minimal poll, not a panic.
            let wall = self.clock.to_wall(next - now);
            match self
                .transport
                .recv_timeout(wall.max(Duration::from_micros(20)))
            {
                Ok(Some(frame)) => self.handle_frame(frame),
                Ok(None) => {}
                // Transport faults (not timeouts) end the run early;
                // final state will show as divergence in conformance.
                Err(_) => break,
            }
        }

        let now = self.clock.now();
        self.publish_status(now);
        self.router
    }

    /// Whether this node is down under its current failure view.
    fn down(&self) -> bool {
        !self.failures.node_usable(self.me)
    }

    fn publish_status(&self, now: SimTime) {
        self.board
            .publish(NodeStatus::capture(self.me, self.down(), now, &self.router));
    }

    /// Applies every scripted injection whose deadline has passed; this
    /// node's own repair reboots it with whatever durable state the
    /// router kept, mirroring the engine's repair path.
    fn apply_injections(&mut self, now: SimTime) {
        while let Some(&(at, injection)) = self.schedule.get(self.next_injection) {
            if at > now {
                break;
            }
            self.next_injection += 1;
            self.failures.apply(injection);
            if injection == Injection::RepairNode(self.me) {
                self.dispatch(now, |router, ctx| router.on_reboot(ctx));
            }
        }
    }

    /// Pops and dispatches every due timer; timers coming due while the
    /// node is down are discarded, matching the engine (the node was
    /// not running when they elapsed).
    fn fire_due_timers(&mut self, now: SimTime) {
        while let Some((_token, timer)) = self.timers.pop_due(now) {
            if self.down() {
                continue;
            }
            self.dispatch(now, |router, ctx| router.on_timer(ctx, timer));
        }
    }

    /// Decodes and dispatches one inbound frame, applying the same
    /// delivery gates as the simulator: down receivers and unusable
    /// links eat the frame.
    fn handle_frame(&mut self, frame: Vec<u8>) {
        if self.down() {
            return;
        }
        let Ok((from, msg)) = wire::decode_datagram(&frame) else {
            return; // Malformed or foreign-version frame: drop.
        };
        let Some(link) = self.graph.link_between(from, self.me) else {
            return; // Not a neighbor in this topology.
        };
        if !self.failures.link_usable(&self.graph, link) {
            return;
        }
        let now = self.clock.now();
        self.dispatch(now, |router, ctx| router.on_message(ctx, from, msg));
    }

    /// Runs `f` over the router with a standalone engine context, then
    /// applies the commands it produced (sends, timer arms, cancels).
    fn dispatch(
        &mut self,
        now: SimTime,
        f: impl FnOnce(&mut MultiRouter, &mut Ctx<'_, MultiRouter>),
    ) {
        let commands = {
            let mut ctx = Ctx::standalone(now, self.me, &self.graph, &self.failures, &self.tokens);
            f(&mut self.router, &mut ctx);
            ctx.into_commands()
        };
        for cmd in commands {
            match cmd {
                NodeCommand::Send { to, msg } => self.send_frame(to, msg),
                NodeCommand::Timer {
                    delay,
                    timer,
                    token,
                } => self.timers.schedule(now + delay, token, timer),
                NodeCommand::CancelTimer { token } => self.timers.cancel(token),
            }
        }
    }

    /// Encodes and transmits one protocol message, subject to the
    /// failure view (frames onto failed links vanish, as in the sim's
    /// delivery check) and the node's channel.
    fn send_frame(&mut self, to: NodeId, msg: GroupMsg) {
        let Some(link) = self.graph.link_between(self.me, to) else {
            return;
        };
        if !self.failures.link_usable(&self.graph, link) {
            self.frames_dropped += 1;
            return;
        }
        if !self.channel.transmit(link, MultiRouter::classify(&msg)) {
            self.frames_dropped += 1;
            return;
        }
        let bytes = wire::encode_datagram(self.me, &msg);
        self.frames_sent += 1;
        let _ = self.transport.send(to, &bytes);
    }
}
