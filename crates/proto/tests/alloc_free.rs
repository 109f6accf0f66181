//! A relay's `HelloTick` through its `MultiRouter` lane allocates
//! nothing.
//!
//! A star of router processes: the hub relays several groups (one
//! upstream, two downstream neighbors each) and only its hello chains
//! run. Once buffers have grown, each tick — lane dispatch, three hellos
//! the lane writes group-tagged into the node's context, the re-arm, and
//! the three deliveries into the neighbors' lanes — must not touch the
//! heap. The sim-side counterpart is `crates/sim/tests/alloc_free.rs`.

#[path = "../../sim/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use smrp_net::{Graph, GroupId, NodeId};
use smrp_proto::{GroupTimer, MultiRouter, RouterConfig, TimerKind, HELLO_INTERVAL};
use smrp_sim::{NetSim, NodeBehavior, SimTime, TraceLog};

const GROUPS: usize = 8;

#[test]
fn relay_hello_ticks_allocate_nothing() {
    let mut graph = Graph::with_nodes(4);
    let ids: Vec<NodeId> = graph.node_ids().collect();
    let (hub, up, down) = (ids[0], ids[1], [ids[2], ids[3]]);
    for (i, &n) in ids[1..].iter().enumerate() {
        graph.add_link(hub, n, 1.0 + i as f64).unwrap();
    }

    let mut procs: Vec<MultiRouter> = ids
        .iter()
        .map(|_| MultiRouter::new(RouterConfig::default()))
        .collect();
    for g in 0..GROUPS {
        procs[hub.index()]
            .lane_mut(GroupId::new(g))
            .load_state(Some(up), &down, false);
    }
    // Traced, so describing a `GroupMsg` is on the measured path too.
    let mut observed = 0u64;
    let mut sim = NetSim::new(&graph, procs);
    sim.set_trace(TraceLog::observer(|_| observed += 1));
    sim.with_node(hub, |p, ctx| {
        for g in 0..GROUPS {
            let tick = GroupTimer {
                group: GroupId::new(g),
                inner: TimerKind::HelloTick,
            };
            p.on_timer(ctx, tick);
        }
    });

    let period = HELLO_INTERVAL.as_ms();
    sim.run_until(SimTime::from_ms(400.0 * period));
    let delivered_before = sim.delivered_count();
    let before = allocations();
    sim.run_until(SimTime::from_ms(600.0 * period));
    let allocs = allocations() - before;
    let hellos = sim.delivered_count() - delivered_before;

    assert!(hellos >= 200 * 3 * GROUPS as u64 - 3 * GROUPS as u64);
    assert_eq!(allocs, 0, "{allocs} allocations over {hellos} hellos");
    drop(sim);
    assert!(observed > 2 * hellos, "observer saw {observed} events");
}
