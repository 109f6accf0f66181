//! Timer-hygiene regression tests for the token/cancel engine.
//!
//! Before generation-stamped timer tokens, cancelled timers were merely
//! *filtered*: a periodic tick armed before a node failure still sat in
//! the queue, and because the engine checks node usability at fire time,
//! a quick repair let it fire after `on_reboot` had already re-armed a
//! fresh chain — two concurrent hello/refresh chains per outage,
//! compounding on every flap. These tests pin the fixed behavior: a
//! cancelled-then-refired timer cannot mutate router state, and reliable
//! lanes are garbage-collected when a neighbor is declared dead.

use smrp_net::{Graph, GroupId, Injection, NodeId};
use smrp_proto::{MultiRouter, Router, RouterConfig};
use smrp_sim::{NetSim, SimTime};

/// The one group these tests run.
const G: GroupId = GroupId::new(0);

/// Three router processes, each holding an idle lane for [`G`].
fn processes() -> Vec<MultiRouter> {
    (0..3)
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

/// Line topology: S — R — M.
fn line() -> (Graph, [NodeId; 3]) {
    let mut g = Graph::with_nodes(3);
    let ids: Vec<NodeId> = g.node_ids().collect();
    g.add_link(ids[0], ids[1], 1.0).unwrap();
    g.add_link(ids[1], ids[2], 1.0).unwrap();
    (g, [ids[0], ids[1], ids[2]])
}

/// Pre-loaded S—R—M session with all periodic chains running.
fn loaded_line_sim<'a>(g: &'a Graph, [s, r, m]: [NodeId; 3]) -> NetSim<'a, MultiRouter> {
    let mut routers = processes();
    routers[s.index()].lane_mut(G).set_source();
    routers[s.index()].lane_mut(G).load_state(None, &[r], false);
    routers[r.index()]
        .lane_mut(G)
        .load_state(Some(s), &[m], false);
    routers[m.index()]
        .lane_mut(G)
        .load_state(Some(r), &[], true);
    let mut sim = NetSim::new(g, routers);
    for &n in &[s, r, m] {
        sim.with_node(n, |p, ctx| p.lane_mut(G).start_timers(ctx));
    }
    sim
}

/// A repair faster than the hello miss window must not leave the relay
/// running doubled periodic chains.
///
/// The outage (100 ms → 102 ms) is shorter than the 10 ms hello
/// interval, so the chain link armed before the failure is still
/// in-flight at repair time. `on_reboot` re-arms every chain; if the
/// pre-failure links were only filtered rather than cancelled, the relay
/// would tick two interleaved chains for the rest of the run and its
/// hello count would come out near 2× the unfailed baseline.
#[test]
fn quick_repair_does_not_duplicate_periodic_chains() {
    let until = SimTime::from_ms(1100.0);

    let (g, ids) = line();
    let mut baseline = loaded_line_sim(&g, ids);
    baseline.run_until(until);
    let baseline_hellos = lane(&baseline, ids[1]).control_sent().hellos;
    assert!(
        baseline_hellos > 50,
        "sanity: chains ran ({baseline_hellos})"
    );

    let mut sim = loaded_line_sim(&g, ids);
    sim.run_until(SimTime::from_ms(100.0));
    sim.schedule_injection(SimTime::from_ms(102.0), Injection::RepairNode(ids[1]));
    sim.fail_node_now(ids[1]);
    sim.run_until(until);
    let repaired_hellos = lane(&sim, ids[1]).control_sent().hellos;

    let ratio = repaired_hellos as f64 / baseline_hellos as f64;
    assert!(
        ratio < 1.2,
        "stale chain survived the reboot: {repaired_hellos} hellos vs \
         baseline {baseline_hellos} ({ratio:.2}x)"
    );
    assert!(
        ratio > 0.8,
        "chains did not restart after repair: {repaired_hellos} hellos vs \
         baseline {baseline_hellos} ({ratio:.2}x)"
    );

    // And the repaired relay still behaves: on tree, serving its member.
    assert!(lane(&sim, ids[1]).is_on_tree());
    assert!(lane(&sim, ids[2])
        .first_delivery_after(SimTime::from_ms(1000.0))
        .is_some());
}

/// Reliable lanes must return to baseline once a neighbor is declared
/// dead — by downstream expiry at the parent, and by upstream failure
/// detection at the child.
///
/// The session is built through message-level joins so real reliable
/// traffic (Setup envelopes) opens lanes on every hop. Killing the relay
/// silences its refreshes: the source expires the relay's downstream
/// state and garbage-collects the lane, while the member's failure
/// detector reclaims its upstream lane. Neither keeps per-peer buffers
/// for a dead node.
#[test]
fn lane_count_returns_to_baseline_after_node_death() {
    let (g, [s, r, m]) = line();
    let mut routers = processes();
    routers[s.index()].lane_mut(G).set_source();
    let mut sim = NetSim::new(&g, routers);

    assert_eq!(lane(&sim, s).reliable_lane_count(), 0, "pre-join baseline");
    assert_eq!(lane(&sim, m).reliable_lane_count(), 0, "pre-join baseline");

    sim.with_node(s, |p, ctx| p.lane_mut(G).start_timers(ctx));
    sim.with_node(m, |p, ctx| {
        p.lane_mut(G).initiate_setup(ctx, vec![m, r, s], true)
    });
    sim.run_until(SimTime::from_ms(200.0));

    // The join's reliable envelopes opened lanes along the path.
    assert!(lane(&sim, m).deliveries().len() > 10, "join must take");
    assert!(
        lane(&sim, s).reliable_lane_count() >= 1,
        "the relay's Setup opened a lane at the source"
    );
    assert!(
        lane(&sim, r).reliable_lane_count() >= 1,
        "the member's Setup opened a lane at the relay"
    );

    // Kill the relay for good. Its refreshes stop: the source's soft
    // state for it expires after the holdtime; the member detects the
    // dead upstream via hello silence (no plan installed, so it just
    // enters recovery).
    sim.fail_node_now(r);
    sim.run_until(SimTime::from_ms(1000.0));

    assert!(
        lane(&sim, s).downstream().is_empty(),
        "source must expire the dead relay's branch"
    );
    assert_eq!(
        lane(&sim, s).reliable_lane_count(),
        0,
        "downstream expiry must reclaim the dead relay's lane"
    );
    assert!(lane(&sim, m).is_recovering());
    assert_eq!(
        lane(&sim, m).reliable_lane_count(),
        0,
        "upstream-failure detection must reclaim the dead relay's lane"
    );
}
