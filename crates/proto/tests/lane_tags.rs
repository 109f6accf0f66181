//! The lane contract: a `Router` lane writes straight into its node's
//! `MultiRouter` context, and everything it emits carries its own group.
//!
//! The lane's two emitters are the only way its sends and timers reach
//! the process, so these tests drive lanes through `Ctx::standalone` (the
//! entry point the `smrpd` daemon uses) and read the commands back:
//!
//! * sends and timers come out tagged with the lane's `GroupId`, in issue
//!   order, and timer tokens come from the node's one counter, shared by
//!   every lane;
//! * a lane's cancel passes through unchanged;
//! * `MultiRouter::on_reboot` re-arms lanes in ascending `GroupId`, not in
//!   the order the node first touched them.

use std::cell::Cell;

use smrp_net::{FailureScenario, Graph, GroupId, NodeId};
use smrp_proto::{
    GroupMsg, GroupTimer, MultiRouter, ProtoMsg, RouterConfig, TimerKind, HELLO_INTERVAL,
};
use smrp_sim::{Ctx, NodeBehavior, NodeCommand, SimTime, TimerToken};

type Command = NodeCommand<GroupMsg, GroupTimer>;

/// Line `up — me — down`.
fn line() -> (Graph, [NodeId; 3]) {
    let mut g = Graph::with_nodes(3);
    let ids: Vec<NodeId> = g.node_ids().collect();
    g.add_link(ids[0], ids[1], 1.0).unwrap();
    g.add_link(ids[1], ids[2], 1.0).unwrap();
    (g, [ids[0], ids[1], ids[2]])
}

/// Runs one handler turn of `process` on `me` at `now` and returns what
/// it queued, in issue order.
fn turn(
    graph: &Graph,
    me: NodeId,
    now: SimTime,
    counter: &Cell<u64>,
    f: impl FnOnce(&mut Ctx<'_, MultiRouter>),
) -> Vec<Command> {
    let failures = FailureScenario::none();
    let mut ctx = Ctx::standalone(now, me, graph, &failures, counter);
    f(&mut ctx);
    ctx.into_commands()
}

/// The `(group, kind, token)` of a timer command.
fn timer(cmd: &Command) -> (GroupId, TimerKind, TimerToken) {
    match cmd {
        NodeCommand::Timer { timer, token, .. } => (timer.group, timer.inner, *token),
        other => panic!("expected a timer, got {other:?}"),
    }
}

#[test]
fn lane_output_carries_its_group_in_issue_order_with_node_tokens() {
    let (graph, [up, me, _]) = line();
    let g5 = GroupId::new(5);
    let g1 = GroupId::new(1);
    let mut process = MultiRouter::new(RouterConfig::default());
    // The node's counter is already past some other handler's timers.
    let counter = Cell::new(7);

    let joined = turn(&graph, me, SimTime::ZERO, &counter, |ctx| {
        process.lane_mut(g5).initiate_setup(ctx, vec![me, up], true)
    });
    assert_eq!(joined.len(), 6, "{joined:?}");
    match &joined[0] {
        NodeCommand::Send { to, msg } => {
            assert_eq!(*to, up);
            assert_eq!(msg.group, g5, "the graft is tagged with its lane");
            assert!(
                matches!(&msg.inner, ProtoMsg::Reliable { inner, .. }
                    if matches!(**inner, ProtoMsg::Setup { idx: 1, .. })),
                "{msg:?}"
            );
        }
        other => panic!("expected the graft first, got {other:?}"),
    }
    let kinds = [
        TimerKind::Retransmit { to: up, seq: 0 },
        TimerKind::HelloTick,
        TimerKind::RefreshTick,
        TimerKind::ExpiryCheck,
        TimerKind::UpstreamCheck,
    ];
    for (i, (cmd, kind)) in joined[1..].iter().zip(kinds).enumerate() {
        assert_eq!(
            timer(cmd),
            (g5, kind, TimerToken::from_raw(7 + i as u64)),
            "timer {i} of the join"
        );
    }
    assert_eq!(counter.get(), 12, "five timers, five tokens");

    // Another lane of the same node draws from the same counter.
    process.lane_mut(g1).load_state(Some(up), &[], false);
    let ticked = turn(&graph, me, SimTime::ZERO, &counter, |ctx| {
        process.on_timer(
            ctx,
            GroupTimer {
                group: g1,
                inner: TimerKind::HelloTick,
            },
        )
    });
    assert_eq!(ticked.len(), 2, "{ticked:?}");
    match &ticked[0] {
        NodeCommand::Send { to, msg } => {
            assert_eq!(*to, up);
            assert_eq!(
                *msg,
                GroupMsg {
                    group: g1,
                    inner: ProtoMsg::Hello
                }
            );
        }
        other => panic!("expected the hello first, got {other:?}"),
    }
    assert_eq!(
        timer(&ticked[1]),
        (g1, TimerKind::HelloTick, TimerToken::from_raw(12))
    );
    match &ticked[1] {
        NodeCommand::Timer { delay, .. } => assert_eq!(*delay, HELLO_INTERVAL),
        _ => unreachable!(),
    }
}

#[test]
fn lane_cancel_passes_through_unchanged() {
    let (graph, [up, me, _]) = line();
    let group = GroupId::new(2);
    let mut process = MultiRouter::new(RouterConfig::default());
    let counter = Cell::new(0);

    let joined = turn(&graph, me, SimTime::ZERO, &counter, |ctx| {
        process
            .lane_mut(group)
            .initiate_setup(ctx, vec![me, up], true)
    });
    let (seq, retransmit) = match (&joined[0], &joined[1]) {
        (
            NodeCommand::Send { msg, .. },
            NodeCommand::Timer {
                timer:
                    GroupTimer {
                        inner: TimerKind::Retransmit { seq, .. },
                        ..
                    },
                token,
                ..
            },
        ) => match msg.inner {
            ProtoMsg::Reliable { seq: sent, .. } => {
                assert_eq!(sent, *seq);
                (sent, *token)
            }
            ref other => panic!("expected a reliable graft, got {other:?}"),
        },
        other => panic!("expected the graft and its retransmit timer, got {other:?}"),
    };

    // The upstream acks the graft in a later turn: the lane revokes the
    // retransmit timer under the token it was armed with.
    let acked = turn(&graph, me, SimTime::from_ms(2.0), &counter, |ctx| {
        process.on_message(
            ctx,
            up,
            GroupMsg {
                group,
                inner: ProtoMsg::Ack { seq },
            },
        )
    });
    assert_eq!(acked.len(), 1, "{acked:?}");
    match &acked[0] {
        NodeCommand::CancelTimer { token } => assert_eq!(*token, retransmit),
        other => panic!("expected CancelTimer, got {other:?}"),
    }
}

#[test]
fn reboot_rearms_lanes_in_ascending_group_order() {
    let (graph, [up, me, down]) = line();
    let (g1, g3) = (GroupId::new(1), GroupId::new(3));
    let mut process = MultiRouter::new(RouterConfig::default());
    // First touch is group 3, so the lane arena holds it before group 1.
    process.lane_mut(g3).load_state(Some(up), &[down], false);
    process.lane_mut(g1).load_state(Some(up), &[down], false);
    let counter = Cell::new(0);

    let rebooted = turn(&graph, me, SimTime::from_ms(50.0), &counter, |ctx| {
        process.on_reboot(ctx)
    });
    let timers: Vec<_> = rebooted.iter().map(timer).collect();
    let chain = [
        TimerKind::HelloTick,
        TimerKind::RefreshTick,
        TimerKind::ExpiryCheck,
        TimerKind::UpstreamCheck,
    ];
    let expected: Vec<_> = [g1, g3]
        .into_iter()
        .flat_map(|g| chain.iter().map(move |&k| (g, k)))
        .enumerate()
        .map(|(i, (g, k))| (g, k, TimerToken::from_raw(i as u64)))
        .collect();
    assert_eq!(timers, expected);
}
