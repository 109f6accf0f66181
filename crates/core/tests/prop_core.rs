//! Property tests for the SMRP core algorithms.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use smrp_core::recovery::{self, DetourKind};
use smrp_core::select::{self, SelectionMode};
use smrp_core::session::ReshapeStats;
use smrp_core::{
    MulticastTree, ReshapeOutcome, SmrpConfig, SmrpSession, SpfSession, SteinerSession,
};
use smrp_net::dijkstra::ShortestPathTree;
use smrp_net::transit_stub::TransitStubConfig;
use smrp_net::waxman::WaxmanConfig;
use smrp_net::{FailureScenario, Graph, LinkId, NodeId};

fn waxman(seed: u64, nodes: usize) -> Graph {
    WaxmanConfig::new(nodes)
        .alpha(0.3)
        .seed(seed)
        .generate()
        .expect("valid generator settings")
        .into_graph()
}

/// A transit-stub graph of `transit · (1 + stubs · stub_nodes)` nodes.
fn transit_stub(seed: u64, transit: usize, stubs: usize, stub_nodes: usize) -> Graph {
    TransitStubConfig::new()
        .transit_nodes(transit)
        .stubs_per_transit_node(stubs)
        .stub_nodes(stub_nodes)
        .seed(seed)
        .generate()
        .expect("valid generator settings")
        .into_graph()
}

/// Either topology family, ~40 nodes.
fn either_graph(seed: u64) -> Graph {
    if seed.is_multiple_of(2) {
        waxman(seed, 40)
    } else {
        transit_stub(seed, 4, 3, 3)
    }
}

/// A session over `graph` driven through a random join/leave script, so
/// the tree is partially built and (with `auto_reshape` off) not yet
/// reshaped.
fn churned_session<'g>(
    graph: &'g Graph,
    config: SmrpConfig,
    rng: &mut SmallRng,
    steps: usize,
) -> SmrpSession<'g> {
    let ids: Vec<NodeId> = graph.node_ids().collect();
    let mut sess = SmrpSession::new(graph, ids[0], config).unwrap();
    for _ in 0..steps {
        let node = ids[rng.gen_range(1..ids.len())];
        if rng.gen_range(0u32..4) == 0 {
            drop(sess.leave(node));
        } else {
            drop(sess.join(node));
        }
    }
    sess
}

/// The clone-and-search reshape attempt that `SmrpSession::reshape_member`
/// used to run, kept as its oracle: reduce a *copy* of the tree by the
/// member's branch, enumerate every candidate against it, apply the
/// criterion, and move the branch only for a strictly smaller adjusted
/// `SHR` inside the bound. Returns the tree the attempt should leave, its
/// outcome, and what it adds to `reshape_stats()`: one attempt, settled
/// without a search exactly when the reduced `SHR` of the old merger is 0.
fn reference_reshape(
    graph: &Graph,
    tree: &MulticastTree,
    spt: &ShortestPathTree,
    config: &SmrpConfig,
    member: NodeId,
) -> (MulticastTree, ReshapeOutcome, ReshapeStats) {
    let mut reduced = tree.clone();
    let old_merger = reduced.detach_subtree(member).unwrap();
    let settled = reduced.shr(old_merger) == 0;
    let delta = |switched: bool| ReshapeStats {
        attempts: 1,
        switched: u64::from(switched),
        settled_without_search: u64::from(settled),
    };
    let mut excluded = reduced.subtree_nodes(member);
    excluded.retain(|&n| n != member);
    let candidates =
        select::enumerate_candidates(graph, &reduced, spt, member, config.selection, &excluded);
    let spf_delay = spt.distance(member).unwrap();
    match select::apply_criterion(candidates, spf_delay, config.d_thresh, member) {
        Ok(sel)
            if sel.within_bound && reduced.shr(sel.candidate.merger) < reduced.shr(old_merger) =>
        {
            reduced.attach_path(&sel.candidate.approach);
            let new_merger = sel.candidate.merger;
            (
                reduced,
                ReshapeOutcome::Switched {
                    old_merger,
                    new_merger,
                },
                delta(true),
            )
        }
        _ => (tree.clone(), ReshapeOutcome::Kept, delta(false)),
    }
}

/// Asserts `N` matches a from-scratch recount and `shr()` the Eq. 1
/// definition on every source-connected node: `SHR(S,R)` is the sum, over
/// the links of `R`'s tree path, of the (weighted) members whose own paths
/// load that link. Independent of the Eq. 2 recurrence `shr()` reads.
fn assert_stats_match_definitions(graph: &Graph, tree: &MulticastTree) -> TestCaseResult {
    let mut oracle = tree.clone();
    oracle.recompute_stats();
    let mut load: HashMap<LinkId, u32> = HashMap::new();
    for m in tree.members() {
        for l in tree.path_from_source(m).unwrap().links(graph) {
            *load.entry(l).or_default() += tree.member_weight(m);
        }
    }
    for u in tree.source_connected_nodes() {
        prop_assert_eq!(
            tree.subtree_members(u),
            oracle.subtree_members(u),
            "incremental N diverged at {}",
            u
        );
        let eq1: u32 = tree
            .path_from_source(u)
            .unwrap()
            .links(graph)
            .iter()
            .map(|l| load.get(l).copied().unwrap_or(0))
            .sum();
        prop_assert_eq!(tree.shr(u), eq1, "SHR({}) is not Eq. 1", u);
    }
    Ok(())
}

const D_THRESHOLDS: [f64; 4] = [0.0, 0.1, 0.3, 1.0];

fn pick(graph: &Graph, count: usize) -> (NodeId, Vec<NodeId>) {
    let ids: Vec<NodeId> = graph.node_ids().collect();
    (
        ids[0],
        ids.iter().copied().skip(1).step_by(2).take(count).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn candidates_are_sound(seed in 0u64..400, joiner in 2usize..20) {
        let graph = waxman(seed, 20);
        let (source, members) = pick(&graph, 4);
        let mut sess = SmrpSession::new(&graph, source, SmrpConfig::default()).unwrap();
        for &m in &members {
            sess.join(m).unwrap();
        }
        let nr = NodeId::new(joiner % graph.node_count());
        prop_assume!(!sess.tree().is_on_tree(nr));
        let cands = select::enumerate_candidates(
            &graph, sess.tree(), sess.spt(), nr, SelectionMode::FullTopology, &[]);
        let mut seen = Vec::new();
        for c in &cands {
            // Unique mergers.
            prop_assert!(!seen.contains(&c.merger));
            seen.push(c.merger);
            // Approach runs from the joiner to an on-tree merger, with
            // strictly off-tree interiors.
            prop_assert_eq!(c.approach.source(), nr);
            prop_assert_eq!(c.approach.target(), c.merger);
            prop_assert!(sess.tree().is_on_tree(c.merger));
            prop_assert!(c.approach.validate(&graph).is_ok());
            for &hop in &c.approach.nodes()[1..c.approach.nodes().len() - 1] {
                prop_assert!(!sess.tree().is_on_tree(hop));
            }
            // Total delay decomposes into tree delay + approach delay.
            let tree_delay = sess.tree().delay_to(&graph, c.merger).unwrap();
            prop_assert!((c.total_delay - tree_delay - c.approach.delay(&graph)).abs() < 1e-9);
            // The SHR snapshot matches the tree.
            prop_assert_eq!(c.shr, sess.tree().shr(c.merger));
        }
        // The neighbor-query scheme never invents mergers the full scheme
        // cannot reach.
        let query = select::enumerate_candidates(
            &graph, sess.tree(), sess.spt(), nr, SelectionMode::NeighborQuery, &[]);
        for c in &query {
            prop_assert!(sess.tree().is_on_tree(c.merger));
            prop_assert!(c.approach.validate(&graph).is_ok());
            prop_assert_eq!(c.approach.source(), nr);
            prop_assert_eq!(c.approach.target(), c.merger);
            // Summed hop by hop from the joiner, as the approach path sums.
            let tree_delay = sess.tree().delay_to(&graph, c.merger).unwrap();
            prop_assert_eq!(c.total_delay.to_bits(), (tree_delay + c.approach.delay(&graph)).to_bits());
        }
    }

    #[test]
    fn join_bound_certificate_is_honest(seed in 0u64..400) {
        let graph = waxman(seed.wrapping_add(700), 24);
        let (source, members) = pick(&graph, 8);
        let mut sess = SmrpSession::new(
            &graph,
            source,
            SmrpConfig { d_thresh: 0.25, auto_reshape: false, ..SmrpConfig::default() },
        ).unwrap();
        for &m in &members {
            let out = sess.join(m).unwrap();
            if out.within_bound {
                prop_assert!(out.selected_delay <= 1.25 * out.spf_delay + 1e-6);
            }
            prop_assert!((out.path.delay(&graph) - out.selected_delay).abs() < 1e-9);
            prop_assert_eq!(out.path.target(), m);
            prop_assert_eq!(out.path.source(), source);
        }
    }

    #[test]
    fn spf_and_steiner_trees_always_validate(seed in 0u64..400) {
        let graph = waxman(seed.wrapping_add(1500), 24);
        let (source, members) = pick(&graph, 8);
        let mut spf = SpfSession::new(&graph, source).unwrap();
        let mut steiner = SteinerSession::new(&graph, source).unwrap();
        for &m in &members {
            spf.join(m).unwrap();
            steiner.join(m).unwrap();
        }
        spf.tree().validate(&graph).unwrap();
        steiner.tree().validate(&graph).unwrap();
        // Steiner trees never cost more than SPF trees on the same member
        // set... is NOT a theorem (greedy), but delays are: SPF is optimal.
        for &m in &members {
            let d_spf = spf.tree().delay_to(&graph, m).unwrap();
            let d_st = steiner.tree().delay_to(&graph, m).unwrap();
            prop_assert!(d_spf <= d_st + 1e-9);
        }
    }

    #[test]
    fn recovery_attach_points_are_connected_and_paths_fresh(
        seed in 0u64..300,
        which in 0usize..16,
    ) {
        let graph = waxman(seed.wrapping_add(2500), 24);
        let (source, members) = pick(&graph, 6);
        let mut sess = SmrpSession::new(&graph, source, SmrpConfig::default()).unwrap();
        for &m in &members {
            sess.join(m).unwrap();
        }
        let tree = sess.tree();
        let links = tree.links(&graph);
        prop_assume!(!links.is_empty());
        let link = links[which % links.len()];
        let scenario = FailureScenario::link(link);
        let surviving = recovery::surviving_connected(&graph, tree, &scenario);
        for member in recovery::affected_members(&graph, tree, &scenario) {
            for kind in [DetourKind::Local, DetourKind::Global] {
                if let Ok(rec) = recovery::recover(&graph, tree, &scenario, member, kind) {
                    prop_assert!(surviving.contains(&rec.attach()));
                    prop_assert!(!surviving.contains(&rec.member()));
                    prop_assert_eq!(rec.restoration_path().source(), member);
                    prop_assert_eq!(rec.restoration_path().target(), rec.attach());
                    prop_assert!(rec.recovery_distance() >= 0.0);
                    prop_assert!(rec.new_end_to_end_delay() >= rec.recovery_distance());
                }
            }
        }
    }

    #[test]
    fn physical_reachability_is_the_adjacency_walk(
        seed in 0u64..300,
        kill_links in proptest::collection::vec(0usize..1000, 0..6),
        kill_node in 0usize..40,
    ) {
        let graph = either_graph(seed);
        let ids: Vec<NodeId> = graph.node_ids().collect();
        let mut scenario = FailureScenario::node(ids[kill_node % ids.len()]);
        for l in kill_links {
            scenario.fail_link(LinkId::new(l % graph.link_count()));
        }
        for &source in ids.iter().step_by(7) {
            // The walk as it read `adjacency()` before the arc view.
            let mut want = vec![false; graph.node_count()];
            let mut stack = Vec::new();
            if scenario.node_usable(source) {
                want[source.index()] = true;
                stack.push(source);
            }
            while let Some(u) = stack.pop() {
                for &(v, l) in graph.adjacency(u) {
                    if !want[v.index()] && scenario.node_usable(v) && scenario.link_usable(&graph, l) {
                        want[v.index()] = true;
                        stack.push(v);
                    }
                }
            }
            prop_assert_eq!(recovery::reachable_from_source(&graph, source, &scenario), want);
        }
    }

    #[test]
    fn incremental_stats_match_oracle_under_churn(seed in 0u64..200, nodes in 16usize..40) {
        // Drive a session through a random join/leave/reshape churn and,
        // after every step, compare the incrementally maintained N_R against
        // a from-scratch recount and the on-demand SHR against Eq. 1.
        let graph = waxman(seed.wrapping_add(6000), nodes);
        let ids: Vec<NodeId> = graph.node_ids().collect();
        let source = ids[0];
        let mut sess = SmrpSession::new(&graph, source, SmrpConfig::default()).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        for _ in 0..40 {
            let node = ids[rng.gen_range(1..ids.len())];
            // Ops may legitimately fail (joining a member, leaving a
            // non-member, unreachable node); only the bookkeeping after
            // whatever did happen matters here.
            match rng.gen_range(0u32..4) {
                0 | 1 => drop(sess.join(node)),
                2 => drop(sess.leave(node)),
                _ => drop(sess.reshape_member(node)),
            }
            assert_stats_match_definitions(&graph, sess.tree())?;
            sess.tree().validate(&graph).unwrap();
        }
    }

    #[test]
    fn weighted_population_stats_match_oracle_under_churn(
        seed in 0u64..200,
        nodes in 16usize..40,
    ) {
        // Same churn as above, but memberships carry aggregated population
        // weights (up to tens of thousands of receivers behind one node):
        // weighted joins, re-weighting of live members, and leaves that
        // drop whole populations. The incrementally maintained weighted
        // N_R and the on-demand SHR must match their definitions after
        // every step.
        let graph = waxman(seed.wrapping_add(7000), nodes);
        let ids: Vec<NodeId> = graph.node_ids().collect();
        let source = ids[0];
        let mut sess = SmrpSession::new(&graph, source, SmrpConfig::default()).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x517C_C1B7));
        for _ in 0..40 {
            let node = ids[rng.gen_range(1..ids.len())];
            match rng.gen_range(0u32..5) {
                0 | 1 => {
                    let w = rng.gen_range(1u32..20_000);
                    drop(sess.join_weighted(node, w));
                }
                2 => {
                    // Re-weight a live member in place (population churn
                    // behind one attachment point).
                    let w = rng.gen_range(1u32..20_000);
                    if sess.tree().is_member(node) {
                        let mut tree = sess.tree().clone();
                        tree.set_member_weight(node, w).unwrap();
                        // Round-trip through the session is not exposed for
                        // raw trees; verify the delta math directly.
                        assert_stats_match_definitions(&graph, &tree)?;
                    }
                }
                3 => drop(sess.leave(node)),
                _ => drop(sess.reshape_member(node)),
            }
            assert_stats_match_definitions(&graph, sess.tree())?;
            sess.tree().validate(&graph).unwrap();
            prop_assert_eq!(
                sess.tree().population(),
                sess.tree().members()
                    .map(|m| u64::from(sess.tree().member_weight(m)))
                    .sum::<u64>()
            );
        }
    }

    #[test]
    fn backup_plans_are_disjoint_when_claimed(seed in 0u64..300) {
        let graph = waxman(seed.wrapping_add(4000), 24);
        let (source, members) = pick(&graph, 6);
        let mut sess = SmrpSession::new(&graph, source, SmrpConfig::default()).unwrap();
        for &m in &members {
            sess.join(m).unwrap();
        }
        for plan in smrp_core::backup::plan_backups(&graph, sess.tree()) {
            prop_assert_eq!(plan.backup.source(), plan.member);
            prop_assert_eq!(plan.backup.target(), source);
            prop_assert!(plan.backup.validate(&graph).is_ok());
            if plan.link_disjoint {
                let primary_links = plan.primary.links(&graph);
                for l in plan.backup.links(&graph) {
                    prop_assert!(!primary_links.contains(&l));
                }
            }
        }
    }
}

proptest! {
    // Cheap cases, rare events (a reshape that switches, a join nothing
    // fits): run more of them.
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn bounded_selection_equals_criterion_over_all_candidates(
        seed in 0u64..2000,
        mode in prop_oneof![Just(SelectionMode::FullTopology), Just(SelectionMode::NeighborQuery)],
    ) {
        // `select_path` confines its search to what the delay bound can
        // admit; the answer must be the one the criterion gives over the
        // full candidate set, whatever the tree, the exclusions and the
        // threshold — including when nothing fits and it has to fall back.
        let graph = either_graph(seed);
        let ids: Vec<NodeId> = graph.node_ids().collect();
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x2545_F491));
        let config = SmrpConfig { auto_reshape: false, selection: mode, ..SmrpConfig::default() };
        let steps = rng.gen_range(1..14);
        let sess = churned_session(&graph, config, &mut rng, steps);
        let (tree, spt) = (sess.tree(), sess.spt());
        for _ in 0..6 {
            let nr = ids[rng.gen_range(1..ids.len())];
            if tree.is_on_tree(nr) {
                continue;
            }
            let drawn: Vec<NodeId> = (0..rng.gen_range(0..4))
                .map(|_| ids[rng.gen_range(0..ids.len())])
                .collect();
            let spf_delay = spt.distance(nr).unwrap();
            for d_thresh in D_THRESHOLDS {
                // Keep excluding whatever fits the bound until nothing does.
                let mut excluded = drawn.clone();
                loop {
                    let all = select::enumerate_candidates(&graph, tree, spt, nr, mode, &excluded);
                    let want = select::apply_criterion(all, spf_delay, d_thresh, nr);
                    let got = select::select_path(&graph, tree, spt, nr, d_thresh, mode, &excluded);
                    prop_assert_eq!(&got, &want, "nr {} d_thresh {} excluded {:?}", nr, d_thresh, excluded);
                    match want {
                        Ok(sel) if sel.within_bound => excluded.push(sel.candidate.merger),
                        _ => break,
                    }
                }
            }
        }
    }

    #[test]
    fn reshape_attempt_matches_clone_and_search_reference(
        seed in 0u64..2000,
        mode in prop_oneof![Just(SelectionMode::FullTopology), Just(SelectionMode::NeighborQuery)],
        d_thresh in prop_oneof![Just(0.0), Just(0.1), Just(0.3), Just(1.0)],
        auto_reshape in prop_oneof![Just(false), Just(true)],
    ) {
        // `reshape_member` works on the live tree: a `Kept` attempt must
        // leave it exactly as it was, a `Switched` one exactly as the
        // reference (which works on a copy) builds it, and each must count
        // as the reference says.
        let graph = either_graph(seed.wrapping_add(5000));
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x6C07_8965));
        let config = SmrpConfig { auto_reshape, selection: mode, d_thresh, ..SmrpConfig::default() };
        let mut sess = churned_session(&graph, config, &mut rng, 28);
        // Departures are what open better paths for those who stay.
        let leavers: Vec<NodeId> = sess.members().step_by(2).collect();
        for m in leavers {
            sess.leave(m).unwrap();
        }
        let members: Vec<NodeId> = sess.members().collect();
        for m in members {
            let before = sess.tree().clone();
            let (want_tree, want, want_delta) =
                reference_reshape(&graph, &before, sess.spt(), &config, m);
            let stats = sess.reshape_stats();
            let got = sess.reshape_member(m).unwrap();
            let after = sess.reshape_stats();
            let got_delta = ReshapeStats {
                attempts: after.attempts - stats.attempts,
                switched: after.switched - stats.switched,
                settled_without_search: after.settled_without_search - stats.settled_without_search,
            };
            prop_assert_eq!(got, want, "member {}", m);
            prop_assert_eq!(sess.tree(), &want_tree, "member {}", m);
            prop_assert_eq!(got_delta, want_delta, "member {}", m);
        }
    }
}

/// The tree as dense per-node vectors, driven through the same operations
/// in their plainest form: the reference every layout must read like.
#[derive(Debug, Clone)]
struct DenseTree {
    source: NodeId,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    on_tree: Vec<bool>,
    member: Vec<bool>,
    weight: Vec<u32>,
    /// Whether a weight was ever set.
    weighted: bool,
}

impl DenseTree {
    fn new(nodes: usize, source: NodeId) -> Self {
        let mut on_tree = vec![false; nodes];
        on_tree[source.index()] = true;
        DenseTree {
            source,
            parent: vec![None; nodes],
            children: vec![Vec::new(); nodes],
            on_tree,
            member: vec![false; nodes],
            weight: vec![1; nodes],
            weighted: false,
        }
    }

    fn attach(&mut self, path: &[NodeId]) {
        for w in path.windows(2) {
            self.parent[w[0].index()] = Some(w[1]);
            self.on_tree[w[0].index()] = true;
            self.children[w[1].index()].push(w[0]);
        }
    }

    fn set_member(&mut self, v: NodeId, member: bool) {
        self.member[v.index()] = member;
        self.weight[v.index()] = 1;
    }

    fn prune(&mut self, mut v: NodeId) {
        while self.on_tree[v.index()]
            && v != self.source
            && !self.member[v.index()]
            && self.children[v.index()].is_empty()
        {
            self.on_tree[v.index()] = false;
            let Some(p) = self.parent[v.index()].take() else {
                break;
            };
            self.children[p.index()].retain(|&c| c != v);
            v = p;
        }
    }

    fn detach(&mut self, v: NodeId) {
        let p = self.parent[v.index()].take().unwrap();
        self.children[p.index()].retain(|&c| c != v);
        self.prune(p);
    }

    /// `N` recounted over the child lists.
    fn n(&self, v: NodeId) -> u32 {
        let below: u32 = self.children[v.index()].iter().map(|&c| self.n(c)).sum();
        let own = if self.member[v.index()] {
            self.weight[v.index()]
        } else {
            0
        };
        own + below
    }

    /// `SHR` summed up the parent pointers.
    fn shr(&self, v: NodeId) -> u32 {
        let mut shr = 0;
        let mut cur = v;
        while self.on_tree[v.index()] {
            let Some(p) = self.parent[cur.index()] else {
                break;
            };
            shr += self.n(cur);
            cur = p;
        }
        shr
    }

    /// A tree of this shape built fresh: every edge attached once, in
    /// child order, then the members marked and weighed.
    fn rebuilt(&self, graph: &Graph) -> MulticastTree {
        let mut t = MulticastTree::new(graph, self.source).unwrap();
        let mut queue = std::collections::VecDeque::from([self.source]);
        while let Some(u) = queue.pop_front() {
            for &c in &self.children[u.index()] {
                t.attach_path(&smrp_net::Path::new(vec![c, u]));
                queue.push_back(c);
            }
        }
        if self.weighted {
            // A weight written once, through the source, leaves no trace
            // but the flag.
            t.set_member(self.source, true).unwrap();
            t.set_member_weight(self.source, 1).unwrap();
            t.set_member(self.source, false).unwrap();
        }
        for (i, &m) in self.member.iter().enumerate() {
            let v = NodeId::new(i);
            if m {
                t.set_member(v, true).unwrap();
                if self.weight[i] != 1 {
                    t.set_member_weight(v, self.weight[i]).unwrap();
                }
            }
        }
        t
    }
}

/// Every accessor of `t` against the dense reference, plus a clone and the
/// serde round trip.
fn reads_like_dense(t: &MulticastTree, dense: &DenseTree) -> Result<(), String> {
    use serde::{Deserialize, Serialize};

    let ids = (0..dense.parent.len()).map(NodeId::new);
    for v in ids.clone() {
        let i = v.index();
        let n = if dense.on_tree[i] { dense.n(v) } else { 0 };
        let weight = if dense.member[i] { dense.weight[i] } else { 0 };
        let got = (
            t.parent(v),
            t.children(v),
            t.is_on_tree(v),
            t.is_member(v),
            t.subtree_members(v),
            t.shr(v),
            t.member_weight(v),
        );
        let want = (
            dense.parent[i],
            &dense.children[i][..],
            dense.on_tree[i],
            dense.member[i],
            n,
            dense.shr(v),
            weight,
        );
        if got != want {
            return Err(format!(
                "{v}: (parent, children, on-tree, member, N, SHR, weight) {got:?}, \
                 reference {want:?}"
            ));
        }
    }
    let members: Vec<NodeId> = ids.clone().filter(|v| dense.member[v.index()]).collect();
    let on_tree: Vec<NodeId> = ids.filter(|v| dense.on_tree[v.index()]).collect();
    let population: u64 = members
        .iter()
        .map(|m| u64::from(dense.weight[m.index()]))
        .sum();
    if t.members().collect::<Vec<_>>() != members
        || t.on_tree_nodes().collect::<Vec<_>>() != on_tree
        || t.member_count() != members.len()
        || t.population() != population
    {
        return Err(format!(
            "members or on-tree nodes differ from {members:?}, {on_tree:?}"
        ));
    }
    let back = MulticastTree::deserialize(&t.serialize()).map_err(|e| e.0)?;
    if back != *t || t.clone() != *t {
        return Err("serde round trip or clone differs".into());
    }
    Ok(())
}

/// `value` with `field` rewritten by `edit`.
fn with_field(
    value: &serde::Value,
    field: &str,
    edit: impl FnOnce(&mut serde::Value),
) -> serde::Value {
    let mut value = value.clone();
    let serde::Value::Map(fields) = &mut value else {
        panic!("a tree serializes to a map");
    };
    let (_, slot) = fields.iter_mut().find(|(name, _)| name == field).unwrap();
    edit(slot);
    value
}

/// The inputs `Deserialize` rejects: a missing field, lists of another
/// length, ids out of range, and an off-tree node that is not blank.
fn rejected_corruptions(t: &MulticastTree, nodes: usize) -> Result<(), String> {
    use serde::{Deserialize, Serialize};

    let value = t.serialize();
    let seq = |v: &mut serde::Value| match v {
        serde::Value::Seq(items) => std::mem::take(items),
        other => panic!("expected a list, got {other:?}"),
    };
    let off_tree = (0..nodes).find(|&i| !t.is_on_tree(NodeId::new(i)));
    let on_tree = t.source().index();
    let mut corrupt: Vec<(&str, serde::Value)> = vec![
        ("missing n", {
            let mut v = value.clone();
            if let serde::Value::Map(fields) = &mut v {
                fields.retain(|(name, _)| name != "n");
            }
            v
        }),
        (
            "short on_tree",
            with_field(&value, "on_tree", |v| {
                let mut items = seq(v);
                items.pop();
                *v = serde::Value::Seq(items);
            }),
        ),
        (
            "short weight",
            with_field(&value, "weight", |v| {
                *v = serde::Value::Seq(vec![serde::Value::U64(1); nodes - 1]);
            }),
        ),
        (
            "source out of range",
            with_field(&value, "source", |v| {
                *v = serde::Value::U64(nodes as u64);
            }),
        ),
        (
            "child out of range",
            with_field(&value, "children", |v| {
                let mut items = seq(v);
                items[on_tree] = serde::Value::Seq(vec![serde::Value::U64(nodes as u64)]);
                *v = serde::Value::Seq(items);
            }),
        ),
    ];
    if let Some(i) = off_tree {
        corrupt.push((
            "off-tree node with a parent",
            with_field(&value, "parent", |v| {
                let mut items = seq(v);
                items[i] = serde::Value::U64(on_tree as u64);
                *v = serde::Value::Seq(items);
            }),
        ));
        corrupt.push((
            "off-tree node with N",
            with_field(&value, "n", |v| {
                let mut items = seq(v);
                items[i] = serde::Value::U64(1);
                *v = serde::Value::Seq(items);
            }),
        ));
    }
    for (what, v) in corrupt {
        if MulticastTree::deserialize(&v).is_ok() {
            return Err(format!("{what}: accepted"));
        }
    }
    Ok(())
}

/// A ring of `n` nodes with chords.
fn ring_with_chords(n: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        let _ = g.add_link(NodeId::new(i), NodeId::new((i + 1) % n), 1.0);
    }
    for _ in 0..n {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let _ = g.add_link(NodeId::new(a), NodeId::new(b), rng.gen_range(1..5) as f64);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tree_reads_like_the_dense_reference_whatever_its_history(
        n in 2usize..130,
        seed in 0u64..1 << 32,
        ops in proptest::collection::vec((0u8..6, 0usize..130), 1..48),
    ) {
        use serde::Serialize;
        use smrp_net::dijkstra::{shortest_path_to_any, Constraints};

        let graph = ring_with_chords(n, seed);
        let source = NodeId::new(seed as usize % n);
        let mut t = MulticastTree::new(&graph, source).unwrap();
        let mut dense = DenseTree::new(n, source);
        for (op, pick) in ops {
            let v = NodeId::new(pick % n);
            match op {
                // Join: graft `v` along its shortest path to the tree.
                0 if !t.is_on_tree(v) => {
                    let path = shortest_path_to_any(
                        &graph, v, Constraints::unrestricted(), |x| t.is_on_tree(x),
                    ).unwrap();
                    t.attach_path(&path);
                    dense.attach(path.nodes());
                    t.set_member(v, true).unwrap();
                    dense.set_member(v, true);
                }
                // Leave, pruning.
                1 if t.is_member(v) => {
                    t.set_member(v, false).unwrap();
                    t.prune_from(v);
                    dense.set_member(v, false);
                    dense.prune(v);
                }
                // Leave without pruning: a relay leaf for `prune_from`.
                2 if t.is_member(v) => {
                    t.set_member(v, false).unwrap();
                    dense.set_member(v, false);
                }
                3 => {
                    t.prune_from(v);
                    dense.prune(v);
                }
                4 if t.is_member(v) => {
                    let w = 1 + (pick / n) as u32 % 4;
                    t.set_member_weight(v, w).unwrap();
                    dense.weight[v.index()] = w;
                    dense.weighted = true;
                }
                // Detach, check the fragment, and graft it back along its
                // old route up to the first node still on the tree (last
                // among that node's children now).
                5 if t.parent(v).is_some() => {
                    let old = t.path_from_source(v).unwrap();
                    t.detach_subtree(v).unwrap();
                    dense.detach(v);
                    let detached = reads_like_dense(&t, &dense);
                    prop_assert!(detached.is_ok(), "detached {}: {}", v, detached.unwrap_err());
                    let mut back = vec![v];
                    for &u in old.nodes().iter().rev().skip(1) {
                        back.push(u);
                        if t.is_on_tree(u) {
                            break;
                        }
                    }
                    t.attach_path(&smrp_net::Path::new(back.clone()));
                    dense.attach(&back);
                }
                _ => continue,
            }
            let checked = reads_like_dense(&t, &dense);
            prop_assert!(checked.is_ok(), "after op {} on {}: {}", op, v, checked.unwrap_err());
            let fresh = dense.rebuilt(&graph);
            prop_assert_eq!(&fresh, &t, "same shape, other history");
            prop_assert!(fresh.serialize() == t.serialize(), "same shape, other bytes");
            let rejected = rejected_corruptions(&t, n);
            prop_assert!(rejected.is_ok(), "{}", rejected.unwrap_err());
        }
    }
}
