//! Property tests for the discrete-event simulator.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::rc::Rc;

use proptest::prelude::*;

use smrp_net::{Graph, NodeId};
use smrp_sim::{
    Ctx, Descriptor, EventQueue, NetSim, NodeBehavior, NodeCommand, SimTime, TimerBackend,
    TimerToken, TimerWheel, TraceEvent, TraceLog,
};

#[derive(Default, Clone)]
struct Recorder {
    received: Vec<(u64, NodeId)>,
}

#[derive(Debug, Clone)]
struct Tag(u64);

impl NodeBehavior for Recorder {
    type Msg = Tag;
    type Timer = u64;
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Tag) {
        let _ = ctx;
        self.received.push((msg.0, from));
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self>, t: u64) {
        self.received.push((t, NodeId::new(usize::MAX >> 8)));
    }
}

fn ring(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        let a = NodeId::new(i);
        let b = NodeId::new((i + 1) % n);
        if g.link_between(a, b).is_none() {
            g.add_link(a, b, 1.0 + (i % 3) as f64).unwrap();
        }
    }
    g
}

/// One wheel tick (2^19 ns), the unit the delay classes below are cut in.
const TICK_NS: u64 = 1 << 19;

/// A delay for the wheel differential, by class: the same instant, the
/// rest of the current tick (an already-drained one right after a pop),
/// level 0, a level-1 cascade, a level-2 or level-3 cascade, and past the
/// 64^4-tick coverage into the overflow list.
fn wheel_delay(class: u8, r: u64) -> u64 {
    match class {
        0 => 0,
        1 => r % TICK_NS,
        2 => r % (64 * TICK_NS),
        3 => (64 + r % (64 * 64)) * TICK_NS + r % TICK_NS,
        4 => (64 * 64 + r % 64u64.pow(4)) * TICK_NS,
        _ => (64u64.pow(4) + r % 1000) * TICK_NS,
    }
}

/// The earliest key of the reference heap. It cannot cancel, so cancelled
/// keys are skipped when they surface, as the engine's reference backend
/// skips cancelled tokens.
fn heap_next(
    heap: &mut BinaryHeap<Reverse<(SimTime, u64)>>,
    cancelled: &mut HashSet<u64>,
    take: bool,
) -> Option<(SimTime, u64)> {
    while let Some(&Reverse(key)) = heap.peek() {
        if !cancelled.remove(&key.1) {
            if take {
                heap.pop();
            }
            return Some(key);
        }
        heap.pop();
    }
    None
}

/// A node that answers every event with a choice drawn from its own
/// seeded generator: forward to a neighbor, arm a timer (same instant,
/// sub-tick, a few ticks, past a level-0 lap), cancel the pending one and
/// re-arm, or arm one the way a multiplexed lane does. `budget` bounds the
/// run.
struct Chatter {
    rng: u64,
    budget: u32,
    pending: Option<TimerToken>,
}

impl Chatter {
    fn draw(&mut self) -> u64 {
        // SplitMix64: deterministic, and independent of the engine.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn act(&mut self, ctx: &mut Ctx<'_, Self>, tag: u32) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        let r = self.draw();
        let adjacency = ctx.graph().adjacency(ctx.me());
        let (neighbor, _) = adjacency[(r >> 8) as usize % adjacency.len()];
        const DELAYS_NS: [u64; 6] = [0, 50_000, 300_000, 1_000_000, 7_000_000, 40_000_000];
        let delay = SimTime::from_ns(DELAYS_NS[(r >> 16) as usize % DELAYS_NS.len()]);
        match r % 6 {
            0 | 1 => ctx.send(neighbor, tag + 1),
            2 => {
                ctx.send(neighbor, tag + 1);
                self.pending = Some(ctx.set_timer(delay, tag));
            }
            3 => {
                if let Some(token) = self.pending.take() {
                    ctx.cancel_timer(token);
                }
                self.pending = Some(ctx.set_timer(delay, tag));
            }
            4 => {
                // The lane path every protocol timer takes: the token comes
                // from a derived context, the timer is re-armed on this one
                // under that token, and a later handler may cancel it.
                let mut lane = ctx.derive_into::<Self>(Vec::new());
                let token = lane.set_timer(delay, tag);
                for cmd in lane.into_commands() {
                    if let NodeCommand::Timer {
                        delay,
                        timer,
                        token,
                    } = cmd
                    {
                        ctx.set_timer_with_token(delay, timer, token);
                    }
                }
                self.pending = Some(token);
            }
            _ => {
                // Fan out: several deliveries scheduled in one handler.
                for &(n, _) in adjacency {
                    ctx.send(n, tag + 1);
                }
            }
        }
    }
}

impl NodeBehavior for Chatter {
    type Msg = u32;
    type Timer = u32;
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, _from: NodeId, msg: u32) {
        self.act(ctx, msg);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self>, timer: u32) {
        self.act(ctx, timer);
    }
    fn on_reboot(&mut self, ctx: &mut Ctx<'_, Self>) {
        self.pending = Some(ctx.set_timer(SimTime::from_ms(1.0), 0));
    }
    fn describe(msg: &u32) -> Descriptor {
        Descriptor {
            seq: Some(u64::from(*msg)),
            ..Descriptor::of_class("chat")
        }
    }
    fn describe_timer(timer: &u32) -> Descriptor {
        Descriptor {
            seq: Some(u64::from(*timer)),
            ..Descriptor::of_class("timer")
        }
    }
}

/// [`ring`] plus chords `i — i + stride`, with link 0 shortened to 0.1 ms:
/// a delivery over it lands inside the tick being consumed.
fn ring_with_chords(n: usize, stride: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    g.add_link(NodeId::new(0), NodeId::new(1), 0.1).unwrap();
    for i in 1..n {
        let (a, b) = (NodeId::new(i), NodeId::new((i + 1) % n));
        g.add_link(a, b, 0.4 + (i % 4) as f64 * 1.3).unwrap();
    }
    for i in 0..n {
        let (a, b) = (NodeId::new(i), NodeId::new((i + stride) % n));
        if g.link_between(a, b).is_none() {
            g.add_link(a, b, 2.5 + (i % 3) as f64).unwrap();
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The wheel is a `(time, seq)` priority queue: under any interleaving
    /// of schedule, cancel, peek and pop it returns what a binary heap
    /// keyed by `(time, seq)` returns, and it drops a cancelled payload at
    /// once.
    #[test]
    fn wheel_pops_what_a_time_seq_heap_pops(
        ops in proptest::collection::vec((0u8..10, 0u8..6, 0u64..u64::MAX), 1..400),
    ) {
        let mut wheel: TimerWheel<Rc<u64>> = TimerWheel::new();
        let mut heap: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut cancelled: HashSet<u64> = HashSet::new();
        let mut handles = Vec::new();
        let mut alive: HashSet<u64> = HashSet::new();
        let mut now = SimTime::ZERO;
        for (seq, &(op, class, r)) in ops.iter().enumerate() {
            let seq = seq as u64;
            match op {
                0..=4 => {
                    let at = now + SimTime::from_ns(wheel_delay(class, r));
                    let payload = Rc::new(seq);
                    handles.push((wheel.schedule(at, seq, Rc::clone(&payload)), payload));
                    heap.push(Reverse((at, seq)));
                    alive.insert(seq);
                }
                // Any handle ever issued, stale ones included.
                5 | 6 if !handles.is_empty() => {
                    let (handle, payload) = &handles[r as usize % handles.len()];
                    let was_live = alive.remove(&**payload);
                    prop_assert_eq!(wheel.cancel(*handle), was_live);
                    prop_assert_eq!(Rc::strong_count(payload), 1, "cancel drops the payload");
                    if was_live {
                        cancelled.insert(**payload);
                    }
                }
                7 => {
                    prop_assert_eq!(wheel.peek_key(), heap_next(&mut heap, &mut cancelled, false));
                }
                _ => {
                    let expected = heap_next(&mut heap, &mut cancelled, true);
                    let popped = wheel.pop();
                    prop_assert_eq!(popped.as_ref().map(|(t, s, _)| (*t, *s)), expected);
                    if let Some((time, seq, payload)) = popped {
                        prop_assert_eq!(*payload, seq);
                        alive.remove(&seq);
                        now = time;
                    }
                }
            }
            prop_assert_eq!(wheel.len(), alive.len());
        }
        while let Some(expected) = heap_next(&mut heap, &mut cancelled, true) {
            let (time, seq, _) = wheel.pop().expect("wheel holds what the heap holds");
            prop_assert_eq!((time, seq), expected);
        }
        prop_assert!(wheel.pop().is_none());
        prop_assert!(handles.iter().all(|(_, p)| Rc::strong_count(p) == 1));
    }

    /// Both backends carry every event kind, so a run that sends, arms,
    /// cancels and re-arms across a link flap and a node reboot must be
    /// the same run under either: same trace, same counters.
    #[test]
    fn wheel_and_reference_heap_run_the_same_simulation(
        n in 4usize..10,
        stride in 2usize..4,
        seed in 0u64..u64::MAX,
        kicks in proptest::collection::vec((0usize..10, 0u32..5), 1..6),
        faults in (0usize..64, 0usize..10, 1u32..40, 1u32..40),
    ) {
        let g = ring_with_chords(n, stride);
        let (flap, victim, fail_at, outage) = faults;
        let flap = smrp_net::LinkId::new(flap % g.link_count());
        let victim = NodeId::new(victim % n);
        let (fail_at, outage) = (f64::from(fail_at) * 0.7, f64::from(outage) * 0.9);
        let run = |backend: TimerBackend| {
            let nodes = (0..n as u64)
                .map(|i| Chatter { rng: seed ^ i, budget: 60, pending: None })
                .collect();
            let mut sim = NetSim::new(&g, nodes);
            sim.set_timer_backend(backend);
            sim.set_trace(TraceLog::new(1 << 16));
            sim.schedule_link_failure(SimTime::from_ms(fail_at), flap);
            sim.schedule_link_repair(SimTime::from_ms(fail_at + outage), flap);
            sim.schedule_node_failure(SimTime::from_ms(outage), victim);
            sim.schedule_node_repair(SimTime::from_ms(outage + fail_at), victim);
            for &(who, tag) in &kicks {
                sim.with_node(NodeId::new(who % n), |node, ctx| node.act(ctx, tag));
            }
            sim.run_until(SimTime::from_ms(500.0));
            let trace: Vec<TraceEvent> = sim.trace().entries().to_vec();
            (trace, sim.trace().discarded(), sim.delivered_count(), *sim.drops())
        };
        let wheel = run(TimerBackend::Wheel);
        let reference = run(TimerBackend::ReferenceHeap);
        prop_assert_eq!(wheel.1, 0, "trace buffer overflowed");
        prop_assert!(wheel.0.len() > kicks.len(), "nothing ran");
        prop_assert_eq!(wheel.0.len(), reference.0.len());
        for (w, r) in wheel.0.iter().zip(&reference.0) {
            prop_assert_eq!(w, r);
        }
        prop_assert_eq!((wheel.2, wheel.3), (reference.2, reference.3));
    }

    #[test]
    fn event_queue_pops_sorted_and_fifo(
        times in proptest::collection::vec(0u32..1000, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ms(t as f64), (t, i));
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((time, (_t, i))) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(time >= lt);
                if time == lt {
                    prop_assert!(i > li, "FIFO violated on equal timestamps");
                }
            }
            last = Some((time, i));
        }
    }

    #[test]
    fn simulation_is_deterministic(
        n in 3usize..8,
        sends in proptest::collection::vec((0usize..8, 0u64..100), 1..20),
    ) {
        let g = ring(n);
        let run = || {
            let nodes = (0..n).map(|_| Recorder::default()).collect();
            let mut sim = NetSim::new(&g, nodes);
            for &(who, tag) in &sends {
                let who = NodeId::new(who % n);
                let next = NodeId::new((who.index() + 1) % n);
                sim.with_node(who, |_, ctx| {
                    ctx.send(next, Tag(tag));
                    ctx.set_timer(SimTime::from_ms(tag as f64), tag);
                });
            }
            sim.run_to_completion(10_000);
            (0..n)
                .map(|i| sim.node(NodeId::new(i)).received.clone())
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.len(), y.len());
            for (p, q) in x.iter().zip(y) {
                prop_assert_eq!(p.0, q.0);
                prop_assert_eq!(p.1, q.1);
            }
        }
    }

    #[test]
    fn delivered_plus_dropped_accounts_for_all_sends(
        n in 3usize..8,
        sends in proptest::collection::vec(0usize..8, 1..30),
        fail_node in 0usize..8,
    ) {
        let g = ring(n);
        let nodes = (0..n).map(|_| Recorder::default()).collect();
        let mut sim = NetSim::new(&g, nodes);
        sim.fail_node_now(NodeId::new(fail_node % n));
        for &who in &sends {
            let who = NodeId::new(who % n);
            let next = NodeId::new((who.index() + 1) % n);
            sim.with_node(who, |_, ctx| ctx.send(next, Tag(1)));
        }
        sim.run_to_completion(10_000);
        prop_assert_eq!(
            (sim.delivered_count() + sim.dropped_count()) as usize,
            sends.len()
        );
    }

    #[test]
    fn run_until_never_rewinds_the_clock(
        limits in proptest::collection::vec(0u32..500, 1..20),
    ) {
        let g = ring(4);
        let nodes = (0..4).map(|_| Recorder::default()).collect();
        let mut sim = NetSim::new(&g, nodes);
        sim.with_node(NodeId::new(0), |_, ctx| {
            for i in 0..10 {
                ctx.set_timer(SimTime::from_ms(i as f64 * 37.0), i);
            }
        });
        let mut prev = SimTime::ZERO;
        for &l in &limits {
            let limit = SimTime::from_ms(l as f64);
            sim.run_until(limit);
            prop_assert!(sim.now() >= prev);
            prop_assert!(sim.now() >= limit.min(sim.now()));
            prev = sim.now();
        }
    }
}
