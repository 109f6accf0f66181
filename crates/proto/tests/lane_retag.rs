//! Direct unit tests for the multiplexing seam: `Ctx::derive_into`,
//! `into_commands`, and `MultiRouter::with_lane` re-tagging.
//!
//! Before this suite, token preservation across the lane seam was only
//! covered *indirectly* — a bug would surface as a byte-level divergence
//! in the backend-equivalence suites, far from its cause. These tests
//! drive the seam in isolation through `Ctx::standalone` (the same entry
//! point the `smrpd` daemon uses) and assert the exact contract:
//!
//! * tokens allocated by derived contexts stay globally unique per node;
//! * `with_lane` re-tags lane sends as [`GroupMsg`] and re-issues lane
//!   timers under their *original* token, so a lane's later cancel still
//!   reaches the engine entry it armed;
//! * lane cancels pass through untouched.

use std::cell::Cell;

use smrp_net::{FailureScenario, Graph, GroupId, NodeId};
use smrp_proto::{GroupMsg, GroupTimer, MultiRouter, ProtoMsg, Router, RouterConfig, TimerKind};
use smrp_sim::{Ctx, NodeCommand, SimTime, TimerToken};

fn two_node_world() -> (Graph, NodeId, NodeId) {
    let mut g = Graph::with_nodes(2);
    let ids: Vec<NodeId> = g.node_ids().collect();
    g.add_link(ids[0], ids[1], 1.0).unwrap();
    (g, ids[0], ids[1])
}

#[test]
fn derived_contexts_share_one_token_counter() {
    let (graph, me, _) = two_node_world();
    let failures = FailureScenario::none();
    let counter = Cell::new(0);
    let mut outer: Ctx<'_, MultiRouter> =
        Ctx::standalone(SimTime::ZERO, me, &graph, &failures, &counter);

    let mut inner_a = outer.derive_into::<Router>(Vec::new());
    let t0 = inner_a.set_timer(SimTime::from_ms(1.0), TimerKind::HelloTick);
    let mut inner_b = outer.derive_into::<Router>(Vec::new());
    let t1 = inner_b.set_timer(SimTime::from_ms(2.0), TimerKind::RefreshTick);
    let t2 = outer.set_timer(
        SimTime::from_ms(3.0),
        GroupTimer {
            group: GroupId::new(0),
            inner: TimerKind::ExpiryCheck,
        },
    );

    assert_ne!(t0, t1, "sibling derived contexts must not collide");
    assert_ne!(t1, t2, "outer allocation must see inner allocations");
    assert_ne!(t0, t2);
    assert_eq!(counter.get(), 3, "three allocations, three tokens");
}

#[test]
fn with_lane_retags_sends_and_preserves_timer_tokens() {
    let (graph, me, peer) = two_node_world();
    let failures = FailureScenario::none();
    let counter = Cell::new(0);
    let group = GroupId::new(5);
    let mut process = MultiRouter::new(RouterConfig::default());
    let mut ctx: Ctx<'_, MultiRouter> =
        Ctx::standalone(SimTime::ZERO, me, &graph, &failures, &counter);

    let mut armed: Option<TimerToken> = None;
    process.with_lane(&mut ctx, group, |_lane, ictx| {
        ictx.send(peer, ProtoMsg::Hello);
        armed = Some(ictx.set_timer(SimTime::from_ms(10.0), TimerKind::HelloTick));
    });
    let armed = armed.expect("closure ran");

    let commands = ctx.into_commands();
    assert_eq!(commands.len(), 2);
    match &commands[0] {
        NodeCommand::Send { to, msg } => {
            assert_eq!(*to, peer);
            assert_eq!(
                *msg,
                GroupMsg {
                    group,
                    inner: ProtoMsg::Hello
                },
                "lane sends must come out tagged with the lane's group"
            );
        }
        other => panic!("expected Send first, got {other:?}"),
    }
    match &commands[1] {
        NodeCommand::Timer {
            delay,
            timer,
            token,
        } => {
            assert_eq!(*delay, SimTime::from_ms(10.0));
            assert_eq!(
                *timer,
                GroupTimer {
                    group,
                    inner: TimerKind::HelloTick
                }
            );
            assert_eq!(
                *token, armed,
                "the outer Timer command must carry the token the lane saw, \
                 or the lane's later cancel targets a timer that never existed"
            );
        }
        other => panic!("expected Timer second, got {other:?}"),
    }
}

#[test]
fn with_lane_passes_cancels_through_unchanged() {
    let (graph, me, _) = two_node_world();
    let failures = FailureScenario::none();
    let counter = Cell::new(0);
    let group = GroupId::new(0);
    let mut process = MultiRouter::new(RouterConfig::default());

    // First handler turn: the lane arms a timer.
    let mut ctx: Ctx<'_, MultiRouter> =
        Ctx::standalone(SimTime::ZERO, me, &graph, &failures, &counter);
    let mut armed: Option<TimerToken> = None;
    process.with_lane(&mut ctx, group, |_lane, ictx| {
        armed = Some(ictx.set_timer(SimTime::from_ms(50.0), TimerKind::StarvationCheck));
    });
    let armed = armed.unwrap();
    drop(ctx.into_commands());

    // A later handler turn: the lane cancels using the token it kept.
    let mut ctx: Ctx<'_, MultiRouter> =
        Ctx::standalone(SimTime::from_ms(5.0), me, &graph, &failures, &counter);
    process.with_lane(&mut ctx, group, |_lane, ictx| {
        ictx.cancel_timer(armed);
    });
    let commands = ctx.into_commands();
    assert_eq!(commands.len(), 1);
    match &commands[0] {
        NodeCommand::CancelTimer { token } => assert_eq!(*token, armed),
        other => panic!("expected CancelTimer, got {other:?}"),
    }
}

#[test]
fn interleaved_lanes_keep_distinct_tokens() {
    let (graph, me, peer) = two_node_world();
    let failures = FailureScenario::none();
    let counter = Cell::new(0);
    let mut process = MultiRouter::new(RouterConfig::default());
    let mut ctx: Ctx<'_, MultiRouter> =
        Ctx::standalone(SimTime::ZERO, me, &graph, &failures, &counter);

    let mut tokens = Vec::new();
    for g in 0..4 {
        process.with_lane(&mut ctx, GroupId::new(g), |_lane, ictx| {
            tokens.push(ictx.set_timer(SimTime::from_ms(1.0), TimerKind::HelloTick));
            ictx.send(peer, ProtoMsg::Refresh);
        });
    }
    for (i, a) in tokens.iter().enumerate() {
        for b in &tokens[i + 1..] {
            assert_ne!(a, b, "tokens leaked across lanes");
        }
    }

    // Each lane's timer came out tagged with its own group, same token.
    let timer_cmds: Vec<_> = ctx
        .into_commands()
        .into_iter()
        .filter_map(|c| match c {
            NodeCommand::Timer { timer, token, .. } => Some((timer.group, token)),
            _ => None,
        })
        .collect();
    assert_eq!(timer_cmds.len(), 4);
    for (i, (group, token)) in timer_cmds.iter().enumerate() {
        assert_eq!(*group, GroupId::new(i));
        assert_eq!(*token, tokens[i]);
    }
}
