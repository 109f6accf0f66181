//! Daemon assembly: spawn one `NodeRuntime` thread per router, wire a
//! transport fabric, and (for replays) check the final state against a
//! golden simulator digest.
//!
//! Two entry modes:
//!
//! * [`replay`] / `launch_replay` — conformance mode. A
//!   [`GoldenTrace`] (dumped by `faultlab --dump-trace`) carries the
//!   topology, preloaded trees, recovery plans, failure schedule, and
//!   the simulator's expected post-recovery state. The daemon re-runs
//!   the scenario on real threads and real (or in-process) datagrams;
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
use smrp_net::{Graph, NodeId};
use smrp_proto::snapshot::SessionState;
use smrp_proto::{MultiRouter, ProtoSession, RecoveryPlan, RouterConfig, TreeProtocol};
use smrp_sim::{MonotonicClock, SimTime};

use crate::introspect::{self, Introspector};
use crate::node::{Injection, NodeRuntime, ScheduledInjection};
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

/// Builds the per-node router processes a trace describes: tree state
/// loaded lane by lane, sources marked, recovery plans installed —
/// exactly the preload the simulator run started from.
fn preload_processes(trace: &GoldenTrace, config: RouterConfig) -> Vec<MultiRouter> {
    let mut procs: Vec<MultiRouter> = (0..trace.nodes as usize)
        .map(|_| MultiRouter::new(config))
        .collect();
    for g in &trace.groups {
        let group = smrp_net::GroupId::new(g.group as usize);
        for ns in &g.nodes {
            let downstream: Vec<NodeId> = ns
                .downstream
                .iter()
                .map(|&d| NodeId::new(d as usize))
                .collect();
            procs[ns.node as usize].lane_mut(group).load_state(
                ns.upstream.map(|u| NodeId::new(u as usize)),
                &downstream,
                ns.member,
            );
        }
        procs[g.source as usize].lane_mut(group).set_source();
        for plan in &g.plans {
            procs[plan.member as usize]
                .lane_mut(group)
                .install_recovery_plan(RecoveryPlan {
                    path: plan.path.iter().map(|&n| NodeId::new(n as usize)).collect(),
                    wait: SimTime::from_ns(plan.wait_ns),
                    path_delay: SimTime::from_ns(plan.path_delay_ns),
                });
        }
    }
    procs
}

/// The scripted injection schedule shared verbatim by every node.
fn injection_schedule(trace: &GoldenTrace) -> Vec<ScheduledInjection> {
    let fail_at = SimTime::from_ns(trace.failure.fail_at_ns);
    let mut schedule = Vec::new();
    for &l in &trace.failure.links {
        schedule.push(ScheduledInjection {
            at: fail_at,
            what: Injection::FailLink(smrp_net::LinkId::new(l as usize)),
        });
    }
    for &n in &trace.failure.nodes {
        schedule.push(ScheduledInjection {
            at: fail_at,
            what: Injection::FailNode(NodeId::new(n as usize)),
        });
    }
    if let Some(up_ns) = trace.failure.repair_at_ns {
        let up_at = SimTime::from_ns(up_ns);
        for &l in &trace.failure.links {
            schedule.push(ScheduledInjection {
                at: up_at,
                what: Injection::RepairLink(smrp_net::LinkId::new(l as usize)),
            });
        }
        for &n in &trace.failure.nodes {
            schedule.push(ScheduledInjection {
                at: up_at,
                what: Injection::RepairNode(NodeId::new(n as usize)),
            });
        }
    }
    schedule.sort_by_key(|s| s.at);
    schedule
}

#[allow(clippy::too_many_arguments)]
fn spawn_nodes(
    graph: Arc<Graph>,
    procs: Vec<MultiRouter>,
    transports: Vec<Box<dyn Transport>>,
    schedule: &[ScheduledInjection],
    horizon: SimTime,
    speed: f64,
    loss: f64,
    loss_seed: u64,
    board: &Arc<StatusBoard>,
) -> io::Result<Vec<JoinHandle<MultiRouter>>> {
    // Anchor far enough out that every thread is parked in its event
    // loop before protocol time starts moving.
    let origin = Instant::now() + Duration::from_millis(50);
    procs
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
                Arc::clone(board),
            );
            thread::Builder::new()
                .name(format!("smrpd-node-{i}"))
                .spawn(move || rt.run())
        })
        .collect()
}

/// Starts a conformance replay of `trace`; returns with the node
/// threads running.
pub(crate) fn launch_replay(
    trace: &GoldenTrace,
    opts: &ReplayOptions,
) -> io::Result<RunningDaemon> {
    let graph = Arc::new(trace.graph());
    let n = graph.node_count();
    // The simulator hardened its router config against the scripted
    // channel loss; the daemon must run the identical config or its
    // soft-state timing diverges from the digest's provenance.
    let config = RouterConfig::default().hardened_for_loss(trace.channel.loss);
    let procs = preload_processes(trace, config);
    let schedule = injection_schedule(trace);
    let transports = boxed_fabric(opts.transport, n)?;
    let board = Arc::new(StatusBoard::new(n));
    let introspector = match opts.introspect {
        Some(bind) => Some(introspect::serve(board.clone(), bind)?),
        None => None,
    };
    let handles = spawn_nodes(
        graph,
        procs,
        transports,
        &schedule,
        SimTime::from_ns(trace.horizon_ns),
        opts.speed,
        trace.channel.loss,
        trace.channel.seed,
        &board,
    )?;
    Ok(RunningDaemon {
        board,
        handles,
        introspector,
    })
}

/// Runs a conformance replay to completion and captures the verdict.
pub fn replay(trace: &GoldenTrace, opts: &ReplayOptions) -> io::Result<ReplayOutcome> {
    let routers = launch_replay(trace, opts)?.join()?;
    let state = SessionState::capture(
        &routers,
        &trace.affected(),
        &trace.down_nodes(),
        SimTime::from_ns(trace.failure.fail_at_ns),
        // Restoration is judged on the *paper* data cadence, matching
        // the simulator's report (hardening never touches it).
        RouterConfig::default().data_interval,
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
    if n < 2 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "demo needs at least 2 nodes",
        ));
    }
    let graph = opts.topology.build(n);
    let ids: Vec<NodeId> = graph.node_ids().collect();
    let config = RouterConfig::default();
    let mut procs: Vec<MultiRouter> = (0..n).map(|_| MultiRouter::new(config)).collect();
    for gi in 0..opts.groups {
        let group = smrp_net::GroupId::new(gi);
        let source = ids[gi % n];
        let members: Vec<NodeId> = (1..=3.min(n - 1))
            .map(|k| ids[(gi + k * (n / 3).max(1)) % n])
            .filter(|&m| m != source)
            .collect();
        let session = ProtoSession::build(&graph, source, &members, TreeProtocol::Spf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{e:?}")))?;
        let tree = session.tree();
        for node in tree.on_tree_nodes() {
            let lane = procs[node.index()].lane_mut(group);
            lane.load_state(tree.parent(node), tree.children(node), tree.is_member(node));
            lane.set_tree_metadata(tree.shr(node), 0.0);
        }
        procs[source.index()].lane_mut(group).set_source();
    }

    let graph = Arc::new(graph);
    let transports = boxed_fabric(opts.transport, n)?;
    let board = Arc::new(StatusBoard::new(n));
    let introspector = match opts.introspect {
        Some(bind) => Some(introspect::serve(board.clone(), bind)?),
        None => None,
    };
    let handles = spawn_nodes(
        graph,
        procs,
        transports,
        &[],
        opts.duration,
        opts.speed,
        0.0,
        0,
        &board,
    )?;
    Ok(RunningDaemon {
        board,
        handles,
        introspector,
    })
}
