//! Cross-session isolation property for the multi-session router.
//!
//! Two groups share the Figure 1 substrate. Each group gets its own
//! random stream of membership events (leaves and re-grafts), the
//! substrate gets a shared schedule of link failures and repairs, and
//! the streams interleave in time. The property: running both groups
//! together must leave each group's final lane state — tree structure,
//! membership, advertised SHR, data deliveries and control spend —
//! identical to running that group's stream *alone* over the same
//! substrate schedule. One group's protocol activity (its grafts, its
//! prunes, its recovery traffic) must be invisible to the other's lanes.
//!
//! The channel is lossless here on purpose: a shared lossy channel
//! consumes one RNG stream across all groups, so adding a tenant shifts
//! which messages the other tenant loses — contention through the
//! substrate is expected and measured, lane corruption is not (see
//! DESIGN.md §10).

use proptest::prelude::*;
use smrp_core::paper;
use smrp_net::{FailureScenario, GroupId, LinkId, NodeId};
use smrp_proto::{
    FailureSpec, FailureTiming, InjectionTiming, MemberChange, MultiSession, PlanSource,
    ProtoSession, TreeProtocol,
};
use smrp_sim::{ChannelSpec, SimTime, TraceLog};

/// One lane's structural end state: on-tree, member, upstream,
/// downstream (sorted), advertised SHR, deliveries, control spend.
type LaneDigest = (bool, bool, Option<NodeId>, Vec<NodeId>, u32, usize, u64);

/// One membership entry of a group, before the run tags it with the group.
type Change = (SimTime, NodeId, MemberChange);

/// One group's membership stream: op `k` fires at `first + 300·k` ms on
/// member `m % members.len()` and leaves (`kind` 0) or re-grafts along
/// the member's path on the original tree (1). Other kinds are deliberate
/// no-ops, so the generator also produces sparse streams.
fn stream(
    session: &ProtoSession<'_>,
    members: &[NodeId],
    ops: &[(u8, u8)],
    first: f64,
) -> Vec<Change> {
    let tree = session.tree();
    let mut out = Vec::new();
    for (k, &(m, kind)) in ops.iter().enumerate() {
        let member = members[usize::from(m) % members.len()];
        let change = match kind {
            0 => MemberChange::Leave,
            1 => {
                let path = tree
                    .path_from_source(member)
                    .expect("members are on the tree");
                MemberChange::Setup(path.reversed().nodes().to_vec())
            }
            _ => continue,
        };
        out.push((SimTime::from_ms(first + 300.0 * k as f64), member, change));
    }
    out
}

/// Runs `groups` (one or both, each a session and its stream) over the
/// shared substrate on the one run loop and returns, per hosted group,
/// the digest of every node's lane. Group `i` of the run is `groups[i]`:
/// lanes never read their group id, so a group's solo run and its slot in
/// the shared run are comparable.
fn run_groups(
    groups: &[(&ProtoSession<'_>, &[Change])],
    scenario: &FailureScenario,
    timing: InjectionTiming,
) -> Vec<Vec<LaneDigest>> {
    // Every op fires at the same instant whether or not the other group
    // runs; the run interleaves the groups' entries in time order.
    let mut membership = Vec::new();
    for (gi, (_, ops)) in groups.iter().enumerate() {
        for (at, member, change) in ops.iter() {
            membership.push((*at, GroupId::new(gi), *member, change.clone()));
        }
    }
    let multi = MultiSession::from_sessions(groups.iter().map(|(s, _)| (*s).clone()).collect());
    let spec = FailureSpec {
        scenario,
        plans: PlanSource::Explicit(&[]),
        timing,
        membership: &membership,
        channel: ChannelSpec::perfect(),
        until: SimTime::from_ms(3000.0),
    };
    let routers = multi.run(&spec, TraceLog::disabled()).routers;

    multi
        .groups()
        .map(|group| {
            routers
                .iter()
                .map(|p| {
                    p.lane(group)
                        .map_or((false, false, None, Vec::new(), 0, 0, 0), |r| {
                            let mut down = r.downstream();
                            down.sort();
                            (
                                r.is_on_tree(),
                                r.is_member(),
                                r.upstream(),
                                down,
                                r.advertised_shr(),
                                r.deliveries().len(),
                                r.control_sent().total(),
                            )
                        })
                })
                .collect()
        })
        .collect()
}

/// The shared link's failures, by `kind`: none, a persistent cut at
/// 350 ms, a 350–750 ms outage, or two 400 ms outages 400 ms apart.
fn substrate(kind: usize, link: LinkId) -> (FailureScenario, InjectionTiming) {
    let at = SimTime::from_ms;
    let timing = match kind {
        0 | 1 => InjectionTiming::Once(FailureTiming::persistent(at(350.0))),
        2 => InjectionTiming::Once(FailureTiming::transient(at(350.0), at(750.0))),
        _ => InjectionTiming::Flapping {
            fail_at: at(350.0),
            down: at(400.0),
            up: at(400.0),
            cycles: 2,
        },
    };
    let scenario = if kind == 0 {
        FailureScenario::none()
    } else {
        FailureScenario::link(link)
    };
    (scenario, timing)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn groups_are_isolated_under_interleaved_streams(
        raw0 in proptest::collection::vec((0u8..4, 0u8..4), 0..5),
        raw1 in proptest::collection::vec((0u8..4, 0u8..4), 0..5),
        outage in 0usize..4,
    ) {
        let (graph, nodes) = paper::figure1_graph();
        let s0 =
            ProtoSession::build(&graph, nodes.s, &[nodes.c, nodes.d], TreeProtocol::Spf).unwrap();
        let s1 =
            ProtoSession::build(&graph, nodes.b, &[nodes.a, nodes.c], TreeProtocol::Spf).unwrap();

        let ops0 = stream(&s0, &[nodes.c, nodes.d], &raw0, 200.0);
        let ops1 = stream(&s1, &[nodes.a, nodes.c], &raw1, 350.0);
        let link = graph.link_between(nodes.a, nodes.d).unwrap();
        let (scenario, timing) = substrate(outage, link);

        let together = run_groups(&[(&s0, &ops0), (&s1, &ops1)], &scenario, timing);
        let alone0 = run_groups(&[(&s0, &ops0)], &scenario, timing);
        let alone1 = run_groups(&[(&s1, &ops1)], &scenario, timing);

        prop_assert_eq!(&together[0], &alone0[0], "group 0 saw its neighbor");
        prop_assert_eq!(&together[1], &alone1[0], "group 1 saw its neighbor");
    }
}
