//! Daemon assembly: spawn one `NodeRuntime` thread per router, wire a
//! transport fabric, and (for replays) check the final state against a
//! golden simulator digest.
//!
//! Two entry modes:
//!
//! * [`replay`] — conformance mode. A [`GoldenTrace`] (dumped by
//!   `faultlab --dump-trace`) carries the topology, preloaded trees,
//!   recovery plans, failure schedule, and the simulator's expected
//!   post-recovery state. The daemon turns it back into the simulator's
//!   own run input — sessions plus a [`FailureSpec`] — so the routers
//!   are preloaded ([`MultiSession::preload`]), failed
//!   ([`FailureSpec::injections`]) and judged
//!   ([`FailureSpec::down_at_horizon`], [`SessionState::capture`]) by the
//!   same `smrp-proto` code as in the simulator, then re-runs the
//!   scenario on real threads and real (or in-process) datagrams;
//!   [`ReplayOutcome::matches`] is the conformance verdict.
//! * [`launch_demo`] — a free-running multicast session over a
//!   synthetic topology, for poking at the introspection API.
//!
//! All node clocks are anchored to one origin [`Instant`] slightly in
//! the future, so every thread observes protocol time 0 simultaneously
//! regardless of spawn order ([`MonotonicClock`] saturates to zero
//! before its anchor).

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use smrp_faultlab::GoldenTrace;
use smrp_net::{FailureScenario, Graph, Injection, NodeId};
use smrp_proto::snapshot::SessionState;
use smrp_proto::{
    FailureSpec, MultiRouter, MultiSession, ProtoSession, RecoveryStrategy, TreeProtocol,
};
use smrp_sim::{MonotonicClock, SimTime};

use crate::introspect::{self, Introspector};
use crate::node::NodeRuntime;
use crate::status::StatusBoard;
use crate::transport::{ChannelTransport, Transport, UdpTransport};

/// Which datagram fabric carries protocol traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process `mpsc` channels.
    Channel,
    /// Loopback UDP sockets — frames leave the process.
    Udp,
}

/// Tunables for a conformance replay.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Fabric to run over.
    pub transport: TransportKind,
    /// Protocol-time acceleration: `speed` protocol seconds per wall
    /// second. 5× turns the standard 3 s scenario horizon into 600 ms
    /// of wall time while keeping a 10 ms hello tick a comfortable 2 ms
    /// apart on the wire.
    pub speed: f64,
    /// Bind address for the HTTP introspection server, if wanted.
    pub introspect: Option<SocketAddr>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            transport: TransportKind::Channel,
            speed: 5.0,
            introspect: None,
        }
    }
}

/// A daemon with its node threads in flight.
pub struct RunningDaemon {
    board: Arc<StatusBoard>,
    handles: Vec<JoinHandle<MultiRouter>>,
    introspector: Option<Introspector>,
}

impl RunningDaemon {
    /// The live status board (shared with the node threads).
    pub fn board(&self) -> Arc<StatusBoard> {
        Arc::clone(&self.board)
    }

    /// Where the introspection server is listening, if it was enabled.
    pub fn introspect_addr(&self) -> Option<SocketAddr> {
        self.introspector.as_ref().map(|i| i.addr())
    }

    /// Waits for every node to pass its horizon; returns final router
    /// states in node-id order and stops the introspection server.
    pub fn join(self) -> io::Result<Vec<MultiRouter>> {
        let mut routers = Vec::with_capacity(self.handles.len());
        for h in self.handles {
            routers.push(
                h.join()
                    .map_err(|_| io::Error::other("a node runtime panicked"))?,
            );
        }
        if let Some(i) = self.introspector {
            i.stop();
        }
        Ok(routers)
    }
}

/// The verdict of a conformance replay.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The daemon's final per-group state.
    pub state: SessionState,
    /// Digest of `state`.
    pub digest: String,
    /// The simulator digest committed in the trace.
    pub expected_digest: String,
}

impl ReplayOutcome {
    /// Whether the daemon reproduced the simulator's outcome exactly.
    pub fn matches(&self) -> bool {
        self.digest == self.expected_digest
    }
}

fn boxed_fabric(kind: TransportKind, n: usize) -> io::Result<Vec<Box<dyn Transport>>> {
    Ok(match kind {
        TransportKind::Channel => ChannelTransport::fabric(n)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect(),
        TransportKind::Udp => UdpTransport::fabric(n)?
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect(),
    })
}

/// Starts one node thread per router of `procs` (node-id order) over a
/// fresh `transport` fabric, every node applying `schedule` (sorted by
/// time) and, for a positive `loss`, seeded per-frame drops.
#[allow(clippy::too_many_arguments)]
fn launch(
    graph: Graph,
    procs: Vec<MultiRouter>,
    schedule: &[(SimTime, Injection)],
    horizon: SimTime,
    speed: f64,
    transport: TransportKind,
    introspect: Option<SocketAddr>,
    loss: f64,
    loss_seed: u64,
) -> io::Result<RunningDaemon> {
    let n = graph.node_count();
    let graph = Arc::new(graph);
    let transports = boxed_fabric(transport, n)?;
    let board = Arc::new(StatusBoard::new(n));
    let introspector = match introspect {
        Some(bind) => Some(introspect::serve(board.clone(), bind)?),
        None => None,
    };
    // Anchor far enough out that every thread is parked in its event
    // loop before protocol time starts moving.
    let origin = Instant::now() + Duration::from_millis(50);
    let handles = procs
        .into_iter()
        .zip(transports)
        .enumerate()
        .map(|(i, (router, transport))| {
            let rt = NodeRuntime::new(
                NodeId::new(i),
                Arc::clone(&graph),
                router,
                transport,
                MonotonicClock::anchored_at(origin, speed),
                horizon,
                schedule.to_vec(),
                loss,
                loss_seed,
                Arc::clone(&board),
            );
            thread::Builder::new()
                .name(format!("smrpd-node-{i}"))
                .spawn(move || rt.run())
        })
        .collect::<io::Result<_>>()?;
    Ok(RunningDaemon {
        board,
        handles,
        introspector,
    })
}

/// Runs a conformance replay of `trace` to completion and captures the
/// verdict.
pub fn replay(trace: &GoldenTrace, opts: &ReplayOptions) -> io::Result<ReplayOutcome> {
    let input = trace.run_input();
    let spec = input.spec();
    let graph = trace.graph();
    let procs = trace.sessions(&graph).preload(&spec);
    // Every node applies the simulator's injection list by time; the
    // stable sort keeps the engine's order among simultaneous ones.
    let mut schedule = spec.injections();
    schedule.sort_by_key(|&(at, _)| at);
    let routers = launch(
        graph,
        procs,
        &schedule,
        spec.until,
        opts.speed,
        opts.transport,
        opts.introspect,
        trace.channel.loss,
        trace.channel.seed,
    )?
    .join()?;
    let state = SessionState::capture(
        &routers,
        &trace.affected(),
        &spec.down_at_horizon(),
        SimTime::from_ns(trace.failure.fail_at_ns),
    );
    let digest = state.digest();
    Ok(ReplayOutcome {
        state,
        digest,
        expected_digest: trace.expected_digest.clone(),
    })
}

/// Synthetic topology shapes for demo mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// A cycle: node `i` links to `i + 1 (mod n)`.
    Ring,
    /// A path: node `i` links to `i + 1`.
    Line,
    /// A hub: node 0 links to every other node.
    Star,
}

impl Topology {
    /// Builds the shape over `n` nodes with unit link delays.
    pub(crate) fn build(self, n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        let ids: Vec<NodeId> = g.node_ids().collect();
        match self {
            Topology::Ring => {
                for i in 0..n {
                    g.add_link(ids[i], ids[(i + 1) % n], 1.0)
                        .expect("ring links are simple");
                }
            }
            Topology::Line => {
                for i in 0..n.saturating_sub(1) {
                    g.add_link(ids[i], ids[i + 1], 1.0)
                        .expect("line links are simple");
                }
            }
            Topology::Star => {
                for i in 1..n {
                    g.add_link(ids[0], ids[i], 1.0)
                        .expect("star links are simple");
                }
            }
        }
        g
    }
}

/// Tunables for a free-running demo daemon.
#[derive(Debug, Clone)]
pub struct DemoOptions {
    /// Router count.
    pub nodes: usize,
    /// Topology shape.
    pub topology: Topology,
    /// Number of concurrent multicast groups.
    pub groups: usize,
    /// How long (protocol time) the daemon runs.
    pub duration: SimTime,
    /// Protocol-time acceleration (see [`ReplayOptions::speed`]).
    pub speed: f64,
    /// Fabric to run over.
    pub transport: TransportKind,
    /// Bind address for the HTTP introspection server.
    pub introspect: Option<SocketAddr>,
}

impl Default for DemoOptions {
    fn default() -> Self {
        DemoOptions {
            nodes: 8,
            topology: Topology::Ring,
            groups: 2,
            duration: SimTime::from_ms(1000.0),
            speed: 1.0,
            transport: TransportKind::Channel,
            introspect: None,
        }
    }
}

/// Starts a demo daemon: `groups` SPF multicast sessions over a
/// synthetic topology, each group sourced at node `g mod nodes` with
/// three members spread around the topology.
pub fn launch_demo(opts: &DemoOptions) -> io::Result<RunningDaemon> {
    let n = opts.nodes;
    if n < 2 || opts.groups == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "demo needs at least 2 nodes and 1 group",
        ));
    }
    let graph = opts.topology.build(n);
    let ids: Vec<NodeId> = graph.node_ids().collect();
    let sessions = (0..opts.groups)
        .map(|gi| {
            let source = ids[gi % n];
            let members: Vec<NodeId> = (1..=3.min(n - 1))
                .map(|k| ids[(gi + k * (n / 3).max(1)) % n])
                .filter(|&m| m != source)
                .collect();
            ProtoSession::build(&graph, source, &members, TreeProtocol::Spf)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{e:?}")))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let multi = MultiSession::from_sessions(sessions);
    let no_failure = FailureScenario::none();
    let spec = FailureSpec::persistent(
        &no_failure,
        RecoveryStrategy::LocalDetour,
        SimTime::ZERO,
        opts.duration,
    );
    let mut procs = multi.preload(&spec);
    for group in multi.groups() {
        let tree = multi.session(group).tree();
        for node in tree.on_tree_nodes() {
            procs[node.index()]
                .lane_mut(group)
                .set_tree_metadata(tree.shr(node), 0.0);
        }
    }

    launch(
        graph,
        procs,
        &[],
        opts.duration,
        opts.speed,
        opts.transport,
        opts.introspect,
        0.0,
        0,
    )
}
