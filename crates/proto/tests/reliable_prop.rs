//! Property test for the reliable-delivery layer (see `smrp_proto::reliable`):
//! duplicated and out-of-order delivery of tree-mutating control envelopes
//! must leave every router's soft state identical to a single in-order
//! delivery of the same script.
//!
//! The harness puppets neighbor `A` on a 3-node line `A — B — C`: a random
//! script of `Setup`/`Refresh`/`LeaveReq` messages is wrapped in reliable
//! envelopes and injected into `B` twice — once in sequence order, once in
//! a seeded shuffle where each envelope may arrive up to three times. The
//! reliable layer must ack, dedup and re-order so that the released
//! control sequence (and therefore the resulting tree state, including the
//! cascade `B` forwards to `C`) cannot tell the difference.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use smrp_net::{Graph, GroupId, NodeId};
use smrp_proto::{GroupMsg, MultiRouter, ProtoMsg, RouterConfig, HELLO_INTERVAL};
use smrp_sim::{NetSim, NodeBehavior, SimTime};

/// The one group the script runs in.
const G: GroupId = GroupId::new(0);

/// One node's structural soft state; the property compares these.
type Digest = (bool, bool, Option<NodeId>, Vec<NodeId>, bool, u32);

fn line3() -> Graph {
    let mut g = Graph::with_nodes(3);
    g.add_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
    g.add_link(NodeId::new(1), NodeId::new(2), 1.0).unwrap();
    g
}

/// Spacing between scripted arrivals. The longest script (6 messages
/// plus 6 duplicates) lands within 3 ms, its `B → C` cascade and acks
/// within 4 more link delays, and the run stops at the first hello
/// interval — before any timer armed by the first arrival can fire. The
/// property is about message handling, so soft-state expiry, heartbeat
/// checks, refresh ticks and retransmissions must not entangle timing
/// with structure.
const ARRIVAL_STEP_MS: f64 = 0.25;

fn script_msg(choice: u8) -> ProtoMsg {
    match choice % 3 {
        0 => ProtoMsg::Setup {
            path: vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
            idx: 1,
        },
        1 => ProtoMsg::Refresh,
        _ => ProtoMsg::LeaveReq,
    }
}

/// Delivers the scripted envelopes to `B` in the given arrival order
/// (indices into `script`, possibly repeated) and returns the structural
/// digest of all three routers after the dust settles.
fn run_delivery(script: &[ProtoMsg], arrivals: &[usize]) -> Vec<Digest> {
    let graph = line3();
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    let routers: Vec<MultiRouter> = (0..3)
        .map(|_| {
            let mut p = MultiRouter::new(RouterConfig::default());
            p.lane_mut(G);
            p
        })
        .collect();
    let mut sim = NetSim::new(&graph, routers);

    for (k, &i) in arrivals.iter().enumerate() {
        sim.run_until(SimTime::from_ms(ARRIVAL_STEP_MS * (k as f64 + 1.0)));
        let envelope = GroupMsg {
            group: G,
            inner: ProtoMsg::Reliable {
                seq: i as u64,
                base: 0,
                inner: Box::new(script[i].clone()),
            },
        };
        sim.with_node(b, |p, ctx| p.on_message(ctx, a, envelope));
    }
    // Every timer was armed at or after the first arrival, so none is due
    // yet; the B → C cascade (reliable hops + acks) has long finished.
    sim.run_until(HELLO_INTERVAL);

    (0..3)
        .map(|i| {
            let r = sim
                .node(NodeId::new(i))
                .lane(G)
                .expect("every node has a lane");
            let (sent, reliability) = (r.control_sent(), r.reliability());
            assert_eq!(
                (sent.hellos, sent.refreshes, reliability.retransmits),
                (0, 0, 0),
                "a periodic or retransmission timer fired before the script settled"
            );
            (
                r.is_on_tree(),
                r.is_member(),
                r.upstream(),
                {
                    let mut d = r.downstream();
                    d.sort();
                    d
                },
                r.is_recovering(),
                r.advertised_shr(),
            )
        })
        .collect()
}

/// Arrival order for the perturbed run: every script index once, plus
/// `dups` extra copies, shuffled by a seeded Fisher–Yates.
fn perturbed_arrivals(len: usize, dups: &[usize], shuffle_seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    order.extend(dups.iter().map(|d| d % len));
    let mut rng = SmallRng::seed_from_u64(shuffle_seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shuffled_duplicated_delivery_matches_in_order_once(
        choices in proptest::collection::vec(0u8..3, 1..7),
        dups in proptest::collection::vec(0usize..16, 0..7),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let script: Vec<ProtoMsg> = choices.iter().map(|&c| script_msg(c)).collect();

        let in_order: Vec<usize> = (0..script.len()).collect();
        let reference = run_delivery(&script, &in_order);

        let perturbed = perturbed_arrivals(script.len(), &dups, shuffle_seed);
        let shuffled = run_delivery(&script, &perturbed);

        prop_assert_eq!(reference, shuffled);
    }
}
