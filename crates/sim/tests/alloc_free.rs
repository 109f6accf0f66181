//! The event path allocates nothing.
//!
//! Once its buffers have grown (command buffer, event-wheel slab, slots
//! and ready batch, cancelled-token set), handling one more simulated
//! event — a timer that greets every neighbor and re-arms, and each
//! greeting's delivery, or a tick that arms a timeout and cancels the one
//! before — must not touch the heap, with the trace off and with an
//! observer reading every event.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use smrp_net::{Graph, NodeId};
use smrp_sim::{Ctx, NetSim, NodeBehavior, SimTime, TimerToken, TraceEvent, TraceLog};

/// Every node ticks, greets each neighbor, and ignores what it hears.
struct Beacon {
    ticks: u64,
    heard: u64,
}

impl NodeBehavior for Beacon {
    type Msg = u32;
    type Timer = ();

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: u32) {
        self.heard += 1;
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

/// Every tick arms a 35 ms timeout and cancels the one armed the tick
/// before, as a sender whose every segment is acknowledged within a tick:
/// each cancelled token waits in the engine until its timer's instant.
struct Acked {
    ticks: u64,
    pending: Option<TimerToken>,
}

#[derive(Debug, Clone)]
enum AckTimer {
    Tick,
    Timeout,
}

impl NodeBehavior for Acked {
    type Msg = ();
    type Timer = AckTimer;

    fn on_message(&mut self, _ctx: &mut Ctx<'_, Self>, _from: NodeId, _msg: ()) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: AckTimer) {
        match timer {
            AckTimer::Tick => {
                self.ticks += 1;
                if let Some(token) = self.pending.take() {
                    ctx.cancel_timer(token);
                }
                self.pending = Some(ctx.set_timer(SimTime::from_ms(35.0), AckTimer::Timeout));
                ctx.set_timer(SimTime::from_ms(10.0), AckTimer::Tick);
            }
            AckTimer::Timeout => panic!("a cancelled timeout fired"),
        }
    }
}

/// A ring with chords: degree 4, link delays spread over 1–7 ms.
fn topology() -> Graph {
    const N: usize = 16;
    let mut g = Graph::with_nodes(N);
    let ids: Vec<NodeId> = g.node_ids().collect();
    for i in 0..N {
        g.add_link(ids[i], ids[(i + 1) % N], 1.0 + (i % 7) as f64)
            .unwrap();
        g.add_link(ids[i], ids[(i + 5) % N], 2.5 + (i % 3) as f64)
            .unwrap();
    }
    g
}

/// Runs a network of `make()` nodes, each started by a `first` timer 10 ms
/// out, through `warm_up`, then returns the events handled (as `handled`
/// counts them per node) and the allocations made over two more simulated
/// seconds.
fn steady_state<N: NodeBehavior>(
    graph: &Graph,
    trace: TraceLog<'_>,
    warm_up: SimTime,
    make: impl Fn() -> N,
    first: N::Timer,
    handled: impl Fn(&N) -> u64,
) -> (u64, u64) {
    let nodes = graph.node_ids().map(|_| make()).collect();
    let mut sim = NetSim::new(graph, nodes);
    sim.set_trace(trace);
    for n in graph.node_ids() {
        sim.with_node(n, |_, ctx| {
            ctx.set_timer(SimTime::from_ms(10.0), first.clone());
        });
    }
    let handled =
        |sim: &NetSim<'_, N>| -> u64 { graph.node_ids().map(|n| handled(sim.node(n))).sum() };
    sim.run_until(warm_up);
    let (events_before, allocs_before) = (handled(&sim), allocations());
    sim.run_until(warm_up + SimTime::from_ms(2_000.0));
    let allocs = allocations() - allocs_before;
    (handled(&sim) - events_before, allocs)
}

/// The beacon network: every node ticks and greets its neighbors.
fn beacons(graph: &Graph, trace: TraceLog<'_>) -> (u64, u64) {
    // Deliveries park in the wheel's 64 level-0 slots, and a slot's buffer
    // only stops growing once it has held its fullest tick. The 10 ms
    // period is not a multiple of the 0.524 ms tick, so which arrivals
    // share a tick drifts from period to period and the fullest
    // coincidences visit each slot rarely: the last slot buffer grows in
    // the 20th second (and none in the 380 s after it). 4000 periods
    // leave that well behind.
    let warm_up = SimTime::from_ms(40_000.0);
    let make = || Beacon { ticks: 0, heard: 0 };
    steady_state(graph, trace, warm_up, make, (), |b| b.ticks + b.heard)
}

#[test]
fn steady_state_events_allocate_nothing() {
    let graph = topology();

    let (events, allocs) = beacons(&graph, TraceLog::disabled());
    assert!(events > 10_000, "only {events} events ran");
    assert_eq!(
        allocs, 0,
        "untraced: {allocs} allocations in {events} events"
    );

    let mut observed = 0u64;
    let (events, allocs) = beacons(
        &graph,
        TraceLog::observer(|ev| {
            if !matches!(ev, TraceEvent::Dropped { .. }) {
                observed += 1;
            }
        }),
    );
    assert_eq!(
        allocs, 0,
        "observed: {allocs} allocations in {events} events"
    );
    // Each send, delivery and timer firing reached the observer: the
    // measured window alone accounts for `events` deliveries and timers.
    assert!(observed > events, "observer saw {observed} of {events}");
}

#[test]
fn cancelled_timeouts_allocate_nothing() {
    let graph = topology();
    let make = || Acked {
        ticks: 0,
        pending: None,
    };
    // The 35 ms timeouts park in the wheel's level-1 slots, whose buffers
    // have all been used once after one 2.1 s lap. A set that kept every
    // cancelled token past its timer's instant would hold 4 800 at the end
    // of three seconds and 8 000 two seconds later, so it would have to
    // reallocate.
    let warm_up = SimTime::from_ms(3_000.0);
    let (ticks, allocs) = steady_state(
        &graph,
        TraceLog::disabled(),
        warm_up,
        make,
        AckTimer::Tick,
        |a| a.ticks,
    );
    assert_eq!(ticks, 16 * 200, "16 nodes tick 200 times in two seconds");
    assert_eq!(allocs, 0, "{allocs} allocations in {ticks} ticks");
}
