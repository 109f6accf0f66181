//! The per-layer ledger: host time per call into each crate's public
//! functions, measured from outside on the workload's own topology,
//! group and failure. A row the workload already measured from its own
//! spans is left alone.

use std::cell::Cell;
use std::hint::black_box;
use std::time::{Duration, Instant};

use smrp_core::recovery::{self, DetourKind};
use smrp_core::select::enumerate_candidates;
use smrp_core::{audit, SelectionMode, SmrpConfig, SmrpSession, SpfSession};
use smrp_faultlab::{audit_recovery, rebuild_after_recovery};
use smrp_net::backup::{BackupPlanner, DetourRequest};
use smrp_net::dijkstra::{shortest_path_to_any, Constraints, ShortestPathTree};
use smrp_net::{FailureScenario, Graph, GroupId, LinkId, NodeId};
use smrp_proto::reliable::ReliableEndpoint;
use smrp_proto::wire::{decode_datagram, encode_datagram};
use smrp_proto::{
    FailureTiming, GroupMsg, GroupTimer, InjectionTiming, MultiRouter, MultiSession, ProtoMsg,
    ProtoSession, RecoveryStrategy, RouterConfig, TimerKind, TreeProtocol,
};
use smrp_sim::{
    ChannelModel, ChannelSpec, Ctx, NetSim, NodeBehavior, SimTime, TimerToken, TimerWheel,
    TraceEvent, TraceLog,
};
use smrpd::{ChannelTransport, TimerDriver, Transport, UdpTransport};

use crate::harness::{bench_ns, Ledger};
use crate::stats;

/// Time spent sampling one cheap operation.
const BUDGET: Duration = Duration::from_millis(20);
/// Timers per round of the wheel and timer-driver rows.
const TIMERS: usize = 4096;

pub struct MicroInput<'a, 'g> {
    pub graph: &'g Graph,
    pub source: NodeId,
    pub members: &'a [NodeId],
    /// A failure that cuts members of `multi`'s first session off.
    pub scenario: &'a FailureScenario,
    /// The sessions the simulator-level rows run.
    pub multi: &'a MultiSession<'g>,
    /// Simulated horizon of the one-case rows, in milliseconds.
    pub run_until_ms: f64,
    /// Lanes preloaded into the router the dispatch rows drive.
    pub lanes: usize,
    /// Whether to record the `smrpd` rows (one workload carries them).
    pub daemon_ops: bool,
}

/// Fills every ledger row this workload has not measured itself.
pub fn run(input: &MicroInput<'_, '_>, ledger: &mut Ledger) {
    let mut put = |name: &'static str, value: &mut dyn FnMut() -> Option<f64>| {
        if !ledger.contains_key(name) {
            let v = value();
            ledger.insert(name, v);
        }
    };
    net_rows(input, &mut put);
    core_rows(input, &mut put);
    sim_rows(input, &mut put);
    proto_rows(input, &mut put);
    if input.daemon_ops {
        daemon_rows(&mut put);
    }
}

type Put<'p> = dyn FnMut(&'static str, &mut dyn FnMut() -> Option<f64>) + 'p;

fn us(ns: f64) -> Option<f64> {
    Some(ns / 1e3)
}

/// Median over rounds of seconds-per-item, as nanoseconds.
fn median_ns(per_item_s: &[f64]) -> Option<f64> {
    stats::median(per_item_s).map(|s| s * 1e9)
}

fn net_rows(input: &MicroInput<'_, '_>, put: &mut Put<'_>) {
    let MicroInput {
        graph,
        source,
        scenario,
        ..
    } = *input;
    let tree = input.multi.session(GroupId::new(0)).tree();
    put("net.dijkstra_us", &mut || {
        us(bench_ns(BUDGET, || {
            black_box(ShortestPathTree::compute(graph, source));
        }))
    });
    put("net.dijkstra_constrained_us", &mut || {
        us(bench_ns(BUDGET, || {
            black_box(ShortestPathTree::compute_constrained(
                graph,
                source,
                Constraints::avoiding_failures(scenario),
            ));
        }))
    });
    put("net.path_to_any_us", &mut || {
        let mut connected = vec![false; graph.node_count()];
        for n in recovery::surviving_connected(graph, tree, scenario) {
            connected[n.index()] = true;
        }
        let cut_off = recovery::affected_members(graph, tree, scenario);
        let from = *cut_off.iter().find(|m| scenario.node_usable(**m))?;
        us(bench_ns(BUDGET, || {
            black_box(shortest_path_to_any(
                graph,
                from,
                Constraints::avoiding_failures(scenario),
                |n| connected[n.index()],
            ));
        }))
    });
    put("net.detour_refresh_us_per_req", &mut || {
        // One request per member: survive the loss of its own upstream link.
        let mut planner = BackupPlanner::new();
        let mut froms = Vec::new();
        for m in tree.members() {
            let Some(link) = tree.parent(m).and_then(|p| graph.link_between(m, p)) else {
                continue;
            };
            planner.insert(DetourRequest {
                from: m,
                avoid: FailureScenario::link(link),
            });
            froms.push(m);
        }
        if froms.is_empty() {
            return None;
        }
        let per_batch = bench_ns(BUDGET, || {
            planner.mark_all_dirty();
            black_box(planner.refresh(graph, |id, n| tree.is_on_tree(n) && n != froms[id]));
        });
        us(per_batch / froms.len() as f64)
    });
}

/// Builds a session by joining `members` in order; returns it with the
/// mean seconds per join.
fn timed_joins<'g>(
    graph: &'g Graph,
    source: NodeId,
    members: &[NodeId],
    selection: SelectionMode,
) -> (SmrpSession<'g>, f64) {
    let config = SmrpConfig {
        selection,
        ..SmrpConfig::default()
    };
    let mut session = SmrpSession::new(graph, source, config).expect("source exists");
    let t = Instant::now();
    for &m in members {
        black_box(session.join(m).expect("members are reachable"));
    }
    let per_join = t.elapsed().as_secs_f64() / members.len() as f64;
    (session, per_join)
}

/// Repeats `round` until the budget is spent (at least twice) and returns
/// the median of its per-item seconds as nanoseconds.
fn rounds_ns(mut round: impl FnMut() -> f64) -> Option<f64> {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 2 || (start.elapsed() < 2 * BUDGET && samples.len() < 256) {
        samples.push(round());
    }
    median_ns(&samples)
}

fn core_rows(input: &MicroInput<'_, '_>, put: &mut Put<'_>) {
    let MicroInput {
        graph,
        source,
        members,
        scenario,
        ..
    } = *input;
    put("core.join_full_us", &mut || {
        rounds_ns(|| timed_joins(graph, source, members, SelectionMode::FullTopology).1)
            .and_then(us)
    });
    put("core.join_nq_us", &mut || {
        rounds_ns(|| timed_joins(graph, source, members, SelectionMode::NeighborQuery).1)
            .and_then(us)
    });
    put("core.spf_join_us", &mut || {
        rounds_ns(|| {
            let mut session = SpfSession::new(graph, source).expect("source exists");
            let t = Instant::now();
            for &m in members {
                black_box(session.join(m).expect("members are reachable"));
            }
            t.elapsed().as_secs_f64() / members.len() as f64
        })
        .and_then(us)
    });

    let (mut session, _) = timed_joins(graph, source, members, SelectionMode::FullTopology);
    put("core.leave_us", &mut || {
        let leavers = &members[..members.len().min(10)];
        rounds_ns(|| {
            let mut spent = Duration::ZERO;
            for &m in leavers {
                let t = Instant::now();
                session.leave(m).expect("member leaves");
                spent += t.elapsed();
                session.join(m).expect("member rejoins");
            }
            spent.as_secs_f64() / leavers.len() as f64
        })
        .and_then(us)
    });
    put("core.reshape_us", &mut || {
        rounds_ns(|| {
            let t = Instant::now();
            for &m in members {
                black_box(session.reshape_member(m).expect("member reshapes"));
            }
            t.elapsed().as_secs_f64() / members.len() as f64
        })
        .and_then(us)
    });

    // Candidate enumeration against a half-built tree, for the members
    // still off it.
    let (half, _) = timed_joins(
        graph,
        source,
        &members[..members.len() / 2],
        SelectionMode::FullTopology,
    );
    let joiners: Vec<NodeId> = members[members.len() / 2..]
        .iter()
        .copied()
        .filter(|&m| !half.tree().is_on_tree(m))
        .collect();
    let enumerate = |nr: NodeId| {
        enumerate_candidates(
            graph,
            half.tree(),
            half.spt(),
            nr,
            SelectionMode::FullTopology,
            &[],
        )
    };
    put("core.enumerate_candidates_us", &mut || {
        if joiners.is_empty() {
            return None;
        }
        rounds_ns(|| {
            let t = Instant::now();
            for &nr in &joiners {
                black_box(enumerate(nr));
            }
            t.elapsed().as_secs_f64() / joiners.len() as f64
        })
        .and_then(us)
    });
    put("core.candidates_per_join", &mut || {
        let counts: Vec<f64> = joiners
            .iter()
            .map(|&nr| enumerate(nr).len() as f64)
            .collect();
        stats::mean(&counts)
    });

    let tree = input.multi.session(GroupId::new(0)).tree();
    put("core.recover_us", &mut || {
        let cut_off: Vec<NodeId> = recovery::affected_members(graph, tree, scenario)
            .into_iter()
            .filter(|m| scenario.node_usable(*m))
            .collect();
        if cut_off.is_empty() {
            return None;
        }
        rounds_ns(|| {
            let t = Instant::now();
            for &m in &cut_off {
                black_box(recovery::recover(graph, tree, scenario, m, DetourKind::Local).ok());
            }
            t.elapsed().as_secs_f64() / cut_off.len() as f64
        })
        .and_then(us)
    });
    put("core.audit_us", &mut || {
        us(bench_ns(BUDGET, || {
            black_box(audit::audit(graph, tree, SmrpConfig::default().d_thresh));
        }))
    });
}

/// The engine without a protocol: every node ticks, greets each
/// neighbor, and ignores what it hears.
struct Beacon {
    ticks: u64,
}

impl NodeBehavior for Beacon {
    type Msg = u32;
    type Timer = ();

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, msg: u32) {
        black_box(msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, _timer: ()) {
        self.ticks += 1;
        let me = ctx.me();
        for (n, _) in ctx.graph().adjacency(me) {
            ctx.send(*n, self.ticks as u32);
        }
        ctx.set_timer(SimTime::from_ms(10.0), ());
    }
}

/// One message of every wire variant.
fn one_of_each(group: GroupId, a: NodeId, b: NodeId) -> Vec<GroupMsg> {
    [
        ProtoMsg::Setup {
            path: vec![a, b],
            idx: 1,
        },
        ProtoMsg::LeaveReq,
        ProtoMsg::Refresh,
        ProtoMsg::Hello,
        ProtoMsg::Data { seq: 7 },
        ProtoMsg::Query {
            origin: a,
            path: vec![a, b],
            delay: 1.5,
        },
        ProtoMsg::QueryResp {
            approach: vec![a, b],
            approach_delay: 1.5,
            shr: 3,
            tree_delay: 4.5,
            idx: 1,
        },
        ProtoMsg::Reliable {
            seq: 9,
            base: 8,
            inner: Box::new(ProtoMsg::Refresh),
        },
        ProtoMsg::Ack { seq: 9 },
    ]
    .into_iter()
    .map(|inner| GroupMsg { group, inner })
    .collect()
}

fn run_once(input: &MicroInput<'_, '_>, trace: Option<TraceLog>) -> (f64, u64) {
    let MicroInput {
        multi, scenario, ..
    } = *input;
    let timing = InjectionTiming::Once(FailureTiming::persistent(SimTime::from_ms(100.0)));
    let until = SimTime::from_ms(input.run_until_ms);
    let channel = ChannelSpec::perfect();
    let strategy = RecoveryStrategy::LocalDetour;
    let t = Instant::now();
    let delivered = match trace {
        None => {
            multi
                .run_failure_spec(scenario, strategy, timing, &channel, until)
                .messages_delivered
        }
        Some(log) => {
            let (report, log) =
                multi.run_failure_spec_traced(scenario, strategy, timing, &channel, until, log);
            black_box(log.len());
            report.messages_delivered
        }
    };
    (t.elapsed().as_secs_f64(), delivered)
}

fn sim_rows(input: &MicroInput<'_, '_>, put: &mut Put<'_>) {
    let graph = input.graph;

    // Wheel: arm a batch, cancel half, drain the rest — per round.
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let mut now_ms = 0.0;
    let (mut arm, mut cancel, mut pop) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while arm.len() < 3 || start.elapsed() < BUDGET {
        let t0 = Instant::now();
        let handles: Vec<_> = (0..TIMERS)
            .map(|i| {
                let delay = ((i * 7919) % 200_000) as f64 / 1000.0;
                wheel.schedule(SimTime::from_ms(now_ms + delay), i as u64, i as u32)
            })
            .collect();
        let t1 = Instant::now();
        for h in handles.iter().step_by(2) {
            black_box(wheel.cancel(*h));
        }
        let t2 = Instant::now();
        while let Some(e) = wheel.pop() {
            black_box(e);
        }
        let t3 = Instant::now();
        arm.push((t1 - t0).as_secs_f64() / TIMERS as f64);
        cancel.push((t2 - t1).as_secs_f64() / (TIMERS / 2) as f64);
        pop.push((t3 - t2).as_secs_f64() / (TIMERS / 2) as f64);
        now_ms += 250.0;
    }
    put("sim.wheel_schedule_ns", &mut || median_ns(&arm));
    put("sim.wheel_cancel_ns", &mut || median_ns(&cancel));
    put("sim.wheel_pop_ns", &mut || median_ns(&pop));

    put("sim.engine_ns_per_event", &mut || {
        rounds_ns(|| {
            let nodes = graph.node_ids().map(|_| Beacon { ticks: 0 }).collect();
            let mut sim = NetSim::new(graph, nodes);
            for n in graph.node_ids() {
                sim.with_node(n, |_, ctx| {
                    ctx.set_timer(SimTime::from_ms(10.0), ());
                });
            }
            let t = Instant::now();
            sim.run_until(SimTime::from_ms(55.0));
            let wall = t.elapsed().as_secs_f64();
            let ticks: u64 = graph.node_ids().map(|n| sim.node(n).ticks).sum();
            wall / (sim.delivered_count() + ticks) as f64
        })
    });
    put("sim.channel_transmit_ns", &mut || {
        let mut channel = ChannelModel::new(&ChannelSpec::uniform_loss(0.1, 0xC4A2));
        let links = graph.link_count();
        let mut i = 0;
        Some(bench_ns(BUDGET, || {
            i = (i + 1) % links;
            black_box(channel.transmit(LinkId::new(i), "hello"));
        }))
    });
    let (a, b) = graph.link(LinkId::new(0)).endpoints();
    let messages = one_of_each(GroupId::new(3), a, b);
    put("sim.trace_format_ns", &mut || {
        let per_set = bench_ns(BUDGET, || {
            for m in &messages {
                black_box(format!("{m:?}"));
            }
        });
        Some(per_set / messages.len() as f64)
    });
    put("sim.trace_push_ns", &mut || {
        const CAP: usize = 1 << 16;
        let mut log = TraceLog::new(CAP);
        Some(bench_ns(BUDGET, || {
            if log.len() == CAP {
                log = TraceLog::new(CAP);
            }
            log.push(TraceEvent::TimerFired {
                time: SimTime::ZERO,
                node: a,
                what: String::new(),
            });
        }))
    });

    // One identical case with the trace off and on.
    let (first_plain_s, delivered) = run_once(input, None);
    let pairs = if first_plain_s > 0.2 { 1 } else { 3 };
    let mut plain = vec![first_plain_s];
    let mut traced = Vec::new();
    for i in 0..pairs {
        traced.push(run_once(input, Some(TraceLog::new(2_000_000))).0);
        if i + 1 < pairs {
            plain.push(run_once(input, None).0);
        }
    }
    let plain_s = stats::median(&plain).expect("non-empty");
    put("sim.traced_slowdown", &mut || {
        stats::median(&traced).map(|t| t / plain_s)
    });
    put("proto.run_ns_per_msg", &mut || {
        (delivered > 0).then(|| plain_s * 1e9 / delivered as f64)
    });
    // Workloads that cannot see the simulator's delivery counter report
    // this one case's.
    put("proto.msgs_delivered", &mut || Some(delivered as f64));
}

/// A relay router with `lanes` preloaded lanes, driven the way `smrpd`
/// drives it: one standalone context per handler call, groups in
/// rotation so the lane working set is the workload's.
struct Relay<'g> {
    graph: &'g Graph,
    router: MultiRouter,
    lanes: usize,
    me: NodeId,
    up: NodeId,
    down: Vec<NodeId>,
    failures: FailureScenario,
    tokens: Cell<u64>,
}

impl<'g> Relay<'g> {
    fn new(graph: &'g Graph, lanes: usize) -> Self {
        let me = graph
            .node_ids()
            .max_by_key(|&n| (graph.degree(n), std::cmp::Reverse(n.index())))
            .expect("graph has nodes");
        let nbrs: Vec<NodeId> = graph.neighbors(me).collect();
        let up = nbrs[0];
        let down = if nbrs.len() > 1 {
            nbrs[1..nbrs.len().min(3)].to_vec()
        } else {
            nbrs.clone()
        };
        let mut router = MultiRouter::new(RouterConfig::default());
        for g in 0..lanes {
            router
                .lane_mut(GroupId::new(g))
                .load_state(Some(up), &down, false);
        }
        Relay {
            graph,
            router,
            lanes,
            me,
            up,
            down,
            failures: FailureScenario::none(),
            tokens: Cell::new(0),
        }
    }

    fn now() -> SimTime {
        SimTime::from_ms(1000.0)
    }

    /// Nanoseconds per `on_message`; `make(i)` builds the `i`-th message
    /// each lane receives.
    fn message_ns(&mut self, from: NodeId, make: &dyn Fn(u64) -> ProtoMsg) -> f64 {
        let mut calls = 0usize;
        bench_ns(BUDGET, || {
            let group = GroupId::new(calls % self.lanes);
            let inner = make((calls / self.lanes) as u64);
            calls += 1;
            let mut ctx = Ctx::standalone(
                Self::now(),
                self.me,
                self.graph,
                &self.failures,
                &self.tokens,
            );
            self.router
                .on_message(&mut ctx, from, GroupMsg { group, inner });
            black_box(ctx.into_commands());
        })
    }

    /// Nanoseconds per `on_timer` of a hello tick.
    fn timer_ns(&mut self) -> f64 {
        let mut calls = 0usize;
        bench_ns(BUDGET, || {
            let group = GroupId::new(calls % self.lanes);
            calls += 1;
            let mut ctx = Ctx::standalone(
                Self::now(),
                self.me,
                self.graph,
                &self.failures,
                &self.tokens,
            );
            self.router.on_timer(
                &mut ctx,
                GroupTimer {
                    group,
                    inner: TimerKind::HelloTick,
                },
            );
            black_box(ctx.into_commands());
        })
    }
}

fn proto_rows(input: &MicroInput<'_, '_>, put: &mut Put<'_>) {
    let MicroInput {
        graph,
        scenario,
        multi,
        lanes,
        ..
    } = *input;
    let session = multi.session(GroupId::new(0));
    put("proto.session_build_ms", &mut || {
        rounds_ns(|| {
            let t = Instant::now();
            black_box(
                ProtoSession::build(
                    graph,
                    input.source,
                    input.members,
                    TreeProtocol::Smrp(SmrpConfig::default()),
                )
                .expect("session builds on a connected topology"),
            );
            t.elapsed().as_secs_f64()
        })
        .map(|ns| ns / 1e6)
    });
    put("proto.plan_recoveries_us", &mut || {
        us(bench_ns(BUDGET, || {
            black_box(session.plan_recoveries(scenario, DetourKind::Local));
        }))
    });
    put("faultlab.audit_us_per_case", &mut || {
        let plans = session.plan_recoveries(scenario, DetourKind::Local);
        us(bench_ns(BUDGET, || {
            black_box(audit_recovery(graph, session.tree(), scenario, &plans));
            black_box(rebuild_after_recovery(
                graph,
                session.tree(),
                scenario,
                &plans.recoveries,
            ));
        }))
    });

    let mut relay = Relay::new(graph, lanes);
    let (up, d1, d2) = (relay.up, relay.down[0], relay.down[relay.down.len() - 1]);
    let me = relay.me;
    put("proto.router_hello_ns", &mut || {
        Some(relay.message_ns(up, &|_| ProtoMsg::Hello))
    });
    put("proto.router_data_ns", &mut || {
        Some(relay.message_ns(up, &|seq| ProtoMsg::Data { seq }))
    });
    // Reliable envelopes are sequenced per (neighbor, lane), so the two
    // enveloped rows arrive from different neighbors and each starts its
    // lanes at zero.
    put("proto.router_refresh_ns", &mut || {
        Some(relay.message_ns(d1, &|seq| ProtoMsg::Reliable {
            seq,
            base: seq,
            inner: Box::new(ProtoMsg::Refresh),
        }))
    });
    put("proto.router_setup_ns", &mut || {
        let from = if d2 == d1 { up } else { d2 };
        Some(relay.message_ns(from, &|seq| ProtoMsg::Reliable {
            seq,
            base: seq,
            inner: Box::new(ProtoMsg::Setup {
                path: vec![from, me],
                idx: 1,
            }),
        }))
    });
    put("proto.router_timer_ns", &mut || Some(relay.timer_ns()));

    put("proto.reliable_send_ack_ns", &mut || {
        let mut endpoint = ReliableEndpoint::default();
        Some(bench_ns(BUDGET, || {
            let seq = endpoint.register(up, ProtoMsg::Refresh);
            black_box(endpoint.on_ack(up, seq));
        }))
    });
    put("proto.reliable_receive_ns", &mut || {
        let mut endpoint = ReliableEndpoint::default();
        let mut seq = 0;
        Some(bench_ns(BUDGET, || {
            black_box(endpoint.on_receive(up, seq, seq, ProtoMsg::Refresh));
            seq += 1;
        }))
    });
    let messages = one_of_each(GroupId::new(3), me, up);
    put("proto.wire_encode_ns", &mut || {
        let per_set = bench_ns(BUDGET, || {
            for m in &messages {
                black_box(encode_datagram(me, m));
            }
        });
        Some(per_set / messages.len() as f64)
    });
    put("proto.wire_decode_ns", &mut || {
        let frames: Vec<Vec<u8>> = messages.iter().map(|m| encode_datagram(me, m)).collect();
        let per_set = bench_ns(BUDGET, || {
            for f in &frames {
                black_box(decode_datagram(f).expect("own encoding decodes"));
            }
        });
        Some(per_set / frames.len() as f64)
    });
}

/// One thread, two endpoints, loopback: a floor for the daemon's timer
/// and transport cost, not a loaded daemon.
fn daemon_rows(put: &mut Put<'_>) {
    let mut driver: TimerDriver<u32> = TimerDriver::new();
    let (mut arm, mut cancel, mut pop) = (Vec::new(), Vec::new(), Vec::new());
    let mut next_token = 0u64;
    let start = Instant::now();
    while arm.len() < 3 || start.elapsed() < BUDGET {
        let first = next_token;
        let t0 = Instant::now();
        for i in 0..TIMERS {
            let delay = ((i * 7919) % 200_000) as f64 / 1000.0;
            driver.schedule(
                SimTime::from_ms(delay),
                TimerToken::from_raw(next_token),
                i as u32,
            );
            next_token += 1;
        }
        let t1 = Instant::now();
        for t in (first..next_token).step_by(2) {
            driver.cancel(TimerToken::from_raw(t));
        }
        let t2 = Instant::now();
        while let Some(e) = driver.pop_due(SimTime::from_ms(1e6)) {
            black_box(e);
        }
        let t3 = Instant::now();
        arm.push((t1 - t0).as_secs_f64() / TIMERS as f64);
        cancel.push((t2 - t1).as_secs_f64() / (TIMERS / 2) as f64);
        pop.push((t3 - t2).as_secs_f64() / (TIMERS / 2) as f64);
    }
    put("smrpd.timer_schedule_ns", &mut || median_ns(&arm));
    put("smrpd.timer_cancel_ns", &mut || median_ns(&cancel));
    put("smrpd.timer_pop_due_ns", &mut || median_ns(&pop));

    let (a, b) = (NodeId::new(0), NodeId::new(1));
    let frame = encode_datagram(
        a,
        &GroupMsg {
            group: GroupId::new(0),
            inner: ProtoMsg::Hello,
        },
    );
    let wait = Duration::from_secs(1);
    put("smrpd.chan_send_recv_ns", &mut || {
        let mut fabric = ChannelTransport::fabric(2);
        let mut rx = fabric.pop().expect("two endpoints");
        let tx = fabric.pop().expect("two endpoints");
        Some(bench_ns(BUDGET, || {
            tx.send(b, &frame).expect("peer exists");
            black_box(rx.recv_timeout(wait).expect("channel receives"));
        }))
    });
    put("smrpd.udp_send_recv_us", &mut || {
        // No loopback networking in this sandbox means no row, not a failure.
        let mut fabric = UdpTransport::fabric(2).ok()?;
        let mut rx = fabric.pop()?;
        let tx = fabric.pop()?;
        let mut ok = true;
        let ns = bench_ns(BUDGET, || {
            ok &= tx.send(b, &frame).is_ok();
            ok &= matches!(rx.recv_timeout(wait), Ok(Some(_)));
        });
        ok.then_some(ns / 1e3)
    });
}
