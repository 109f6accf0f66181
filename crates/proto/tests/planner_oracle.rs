//! Oracle for the reactive planner. `ProtoSession::plan_recoveries` asks
//! every question of one `recovery::Contingency` per scenario; the
//! reference below is the per-node loop it replaced — its own copy of the
//! fragment-root rule and one public `recovery::recover` call per fragment
//! root, per member of a cornered root and per uncovered affected member,
//! each recomputing the surviving set. On random Waxman graphs with SMRP
//! and SPF trees, under link, node, shared-fate and cornering cuts, the two
//! must agree field by field and in order.

use std::collections::HashSet;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use smrp_core::recovery::{self, Contingency, DetourKind, Recovery};
use smrp_core::{MulticastTree, SmrpConfig};
use smrp_net::waxman::WaxmanConfig;
use smrp_net::{FailureScenario, Graph, NodeId};
use smrp_proto::{ProtoSession, RecoveryPlans, TreeProtocol};

/// The planner's output as the reference loop builds it.
#[derive(Debug, PartialEq)]
struct Planned {
    recoveries: Vec<Recovery>,
    cornered_roots: Vec<NodeId>,
    unrecoverable: Vec<NodeId>,
}

impl From<RecoveryPlans> for Planned {
    fn from(p: RecoveryPlans) -> Self {
        Planned {
            recoveries: p.recoveries,
            cornered_roots: p.cornered_roots,
            unrecoverable: p.unrecoverable,
        }
    }
}

/// Usable on-tree nodes whose upstream link the scenario broke, in
/// on-tree order.
fn reference_fragment_roots(
    graph: &Graph,
    tree: &MulticastTree,
    scenario: &FailureScenario,
) -> Vec<NodeId> {
    let mut roots = Vec::new();
    for n in tree.on_tree_nodes() {
        if !scenario.node_usable(n) {
            continue;
        }
        let Some(p) = tree.parent(n) else {
            continue;
        };
        let Some(l) = graph.link_between(n, p) else {
            continue;
        };
        if !scenario.link_usable(graph, l) {
            roots.push(n);
        }
    }
    roots
}

/// The planner as it was: one `recover` call per question.
fn reference_plans(
    graph: &Graph,
    tree: &MulticastTree,
    scenario: &FailureScenario,
    kind: DetourKind,
) -> Planned {
    let mut plans = Planned {
        recoveries: Vec::new(),
        cornered_roots: Vec::new(),
        unrecoverable: Vec::new(),
    };
    for root in reference_fragment_roots(graph, tree, scenario) {
        match recovery::recover(graph, tree, scenario, root, kind) {
            Ok(rec) => plans.recoveries.push(rec),
            Err(_) => {
                plans.cornered_roots.push(root);
                for n in tree.subtree_nodes(root) {
                    if !tree.is_member(n) {
                        continue;
                    }
                    match recovery::recover(graph, tree, scenario, n, kind) {
                        Ok(rec) => plans.recoveries.push(rec),
                        Err(_) => plans.unrecoverable.push(n),
                    }
                }
            }
        }
    }
    let planned: HashSet<NodeId> = plans
        .recoveries
        .iter()
        .map(|r| r.member())
        .chain(plans.cornered_roots.iter().copied())
        .collect();
    let covered = |m: NodeId| {
        if planned.contains(&m) {
            return true;
        }
        let mut cur = m;
        while let Some(p) = tree.parent(cur) {
            if planned.contains(&p) {
                return true;
            }
            cur = p;
        }
        false
    };
    for m in recovery::affected_members(graph, tree, scenario) {
        if covered(m) || plans.unrecoverable.contains(&m) {
            continue;
        }
        match recovery::recover(graph, tree, scenario, m, kind) {
            Ok(rec) => plans.recoveries.push(rec),
            Err(_) => plans.unrecoverable.push(m),
        }
    }
    plans
}

fn topology(seed: u64, nodes: usize, alpha: f64) -> Graph {
    WaxmanConfig::new(nodes)
        .alpha(alpha)
        .seed(seed)
        .generate()
        .expect("valid generator settings")
        .into_graph()
}

/// A session from node 0 to a random member set, SMRP or SPF.
fn session<'g>(graph: &'g Graph, rng: &mut SmallRng) -> ProtoSession<'g> {
    let ids: Vec<NodeId> = graph.node_ids().collect();
    let count = rng.gen_range(2..ids.len().min(16));
    let mut members: Vec<NodeId> = Vec::new();
    while members.len() < count {
        let m = ids[rng.gen_range(1..ids.len())];
        if !members.contains(&m) {
            members.push(m);
        }
    }
    let protocol = if rng.gen_range(0u32..2) == 0 {
        TreeProtocol::Spf
    } else {
        TreeProtocol::Smrp(SmrpConfig::default())
    };
    ProtoSession::build(graph, ids[0], &members, protocol).expect("connected Waxman graph")
}

/// The cut families the planner distinguishes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cut {
    /// One tree link.
    Link,
    /// One on-tree node other than the source (a member, a relay, or
    /// both): its children become fragment roots, or it is a member with
    /// no usable root above it.
    Node,
    /// A shared-fate cell: a random subset of the links at one node,
    /// always including a tree link.
    Srlg,
    /// An on-tree node's upstream link plus every off-tree link it has:
    /// the fragment root can leave only through its own subtree, and is
    /// cornered whenever that subtree has no other exit.
    Corner,
}

const CUTS: [Cut; 4] = [Cut::Link, Cut::Node, Cut::Srlg, Cut::Corner];

fn scenario(graph: &Graph, tree: &MulticastTree, cut: Cut, rng: &mut SmallRng) -> FailureScenario {
    let relays: Vec<NodeId> = tree
        .on_tree_nodes()
        .filter(|&n| tree.parent(n).is_some())
        .collect();
    let v = relays[rng.gen_range(0..relays.len())];
    let up = tree.parent(v).expect("non-source node");
    let upstream = graph.link_between(v, up).expect("tree link");
    match cut {
        Cut::Link => FailureScenario::link(upstream),
        Cut::Node => FailureScenario::node(v),
        Cut::Srlg => {
            let mut s = FailureScenario::link(upstream);
            for &(_, l, _) in graph.arcs(up) {
                if rng.gen_range(0u32..2) == 0 {
                    s.fail_link(l);
                }
            }
            s
        }
        Cut::Corner => {
            let mut s = FailureScenario::link(upstream);
            for &(w, l, _) in graph.arcs(v) {
                if tree.parent(w) != Some(v) {
                    s.fail_link(l);
                }
            }
            s
        }
    }
}

/// Builds case `seed`: a graph, a session, a cut and a detour kind.
fn with_case<T>(
    seed: u64,
    f: impl FnOnce(&ProtoSession<'_>, &FailureScenario, DetourKind) -> T,
) -> T {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nodes = rng.gen_range(10..41);
    let alpha = [0.15, 0.25, 0.4][rng.gen_range(0..3)];
    let graph = topology(seed, nodes, alpha);
    let session = session(&graph, &mut rng);
    let cut = CUTS[rng.gen_range(0..CUTS.len())];
    let scenario = scenario(&graph, session.tree(), cut, &mut rng);
    let kind = if rng.gen_range(0u32..4) == 0 {
        DetourKind::Global
    } else {
        DetourKind::Local
    };
    f(&session, &scenario, kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plan_recoveries_is_the_per_node_recover_loop(seed in 0u64..1_000_000) {
        with_case(seed, |session, scenario, kind| {
            let graph = session.graph();
            let tree = session.tree();
            let expected = reference_plans(graph, tree, scenario, kind);
            let got = Planned::from(session.plan_recoveries(scenario, kind));
            prop_assert_eq!(got, expected, "scenario {} kind {:?}", scenario, kind);
            let contingency = Contingency::new(graph, tree, scenario);
            prop_assert_eq!(
                contingency.fragment_roots(),
                reference_fragment_roots(graph, tree, scenario)
            );
            Ok(())
        })?;
    }
}

/// The generator reaches every branch the planner has: several fragment
/// roots at once, cornered roots, members of a cornered root that detour
/// on their own, and affected members with no usable fragment root above
/// them — so the proptest compares more than the single-graft path.
#[test]
fn cases_reach_every_planner_branch() {
    let (mut multi_root, mut cornered, mut member_detour, mut rootless) = (0, 0, 0, 0);
    for seed in 0..400 {
        with_case(seed, |session, scenario, kind| {
            let graph = session.graph();
            let tree = session.tree();
            let roots = reference_fragment_roots(graph, tree, scenario);
            let plans = session.plan_recoveries(scenario, kind);
            multi_root += usize::from(roots.len() > 1);
            cornered += usize::from(!plans.cornered_roots.is_empty());
            member_detour += usize::from(
                plans
                    .recoveries
                    .iter()
                    .any(|r| !roots.contains(&r.member())),
            );
            rootless += usize::from(roots.is_empty() && !plans.unrecoverable.is_empty());
        });
    }
    assert!(multi_root > 0, "no case with several fragment roots");
    assert!(cornered > 0, "no case with a cornered root");
    assert!(member_detour > 0, "no member detoured on its own");
    assert!(rootless > 0, "no affected member without a fragment root");
}
