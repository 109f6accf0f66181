//! Property tests for the network substrate.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use smrp_net::dijkstra::{self, Constraints, GrowingSpt, ShortestPathTree};
use smrp_net::nlevel::{DomainId, NLevelConfig, NLevelTopology};
use smrp_net::transit_stub::TransitStubConfig;
use smrp_net::traversal::{connected_components, is_connected, reachable_from};
use smrp_net::waxman::WaxmanConfig;
use smrp_net::{FailureScenario, Graph, LinkId, NodeId, Point};

/// A small random graph built edge-by-edge from arbitrary pairs.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..12,
        proptest::collection::vec((0usize..12, 0usize..12, 1u32..50), 0..40),
    )
        .prop_map(|(n, edges)| {
            let mut g = Graph::with_nodes(n);
            for (a, b, w) in edges {
                let (a, b) = (a % n, b % n);
                if a == b {
                    continue;
                }
                let _ = g.add_link(NodeId::new(a), NodeId::new(b), w as f64);
            }
            g
        })
}

/// Floyd–Warshall oracle for all-pairs shortest distances.
fn floyd_warshall(g: &Graph) -> Vec<Vec<f64>> {
    let n = g.node_count();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for l in g.link_ids() {
        let link = g.link(l);
        let (a, b) = (link.a().index(), link.b().index());
        d[a][b] = d[a][b].min(link.delay());
        d[b][a] = d[b][a].min(link.delay());
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dijkstra_matches_floyd_warshall(g in arb_graph()) {
        let oracle = floyd_warshall(&g);
        for src in g.node_ids() {
            let spt = ShortestPathTree::compute(&g, src);
            for dst in g.node_ids() {
                let expected = oracle[src.index()][dst.index()];
                match spt.distance(dst) {
                    Some(d) => prop_assert!((d - expected).abs() < 1e-9),
                    None => prop_assert!(expected.is_infinite()),
                }
                if let Some(p) = spt.path_to(dst) {
                    prop_assert!(p.validate(&g).is_ok());
                    prop_assert!((p.delay(&g) - expected).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn failures_never_shorten_paths(g in arb_graph(), kill in 0usize..30) {
        prop_assume!(g.link_count() > 0);
        let link = LinkId::new(kill % g.link_count());
        let scenario = FailureScenario::link(link);
        let src = NodeId::new(0);
        let before = ShortestPathTree::compute(&g, src);
        let after = ShortestPathTree::compute_constrained(
            &g, src, Constraints::avoiding_failures(&scenario));
        for dst in g.node_ids() {
            match (before.distance(dst), after.distance(dst)) {
                (Some(b), Some(a)) => prop_assert!(a + 1e-9 >= b),
                (None, Some(_)) => prop_assert!(false, "failure created a path"),
                _ => {}
            }
        }
    }

    #[test]
    fn components_partition_and_are_closed(g in arb_graph()) {
        let comps = connected_components(&g);
        let total: usize = comps.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.node_count());
        // Closure: no link crosses two components.
        let mut comp_of = vec![usize::MAX; g.node_count()];
        for (ci, comp) in comps.iter().enumerate() {
            for n in comp {
                comp_of[n.index()] = ci;
            }
        }
        for l in g.link_ids() {
            let link = g.link(l);
            prop_assert_eq!(comp_of[link.a().index()], comp_of[link.b().index()]);
        }
        prop_assert_eq!(is_connected(&g), comps.len() <= 1);
    }

    #[test]
    fn reachability_is_symmetric_on_undirected_graphs(
        g in arb_graph(),
        a in 0usize..12,
        b in 0usize..12,
    ) {
        let a = NodeId::new(a % g.node_count());
        let b = NodeId::new(b % g.node_count());
        let from_a = reachable_from(&g, a, Constraints::unrestricted());
        let from_b = reachable_from(&g, b, Constraints::unrestricted());
        prop_assert_eq!(from_a.contains(&b), from_b.contains(&a));
    }

    #[test]
    fn waxman_generation_is_seed_deterministic(seed in 0u64..5000) {
        let a = WaxmanConfig::new(30).alpha(0.25).seed(seed).generate().unwrap();
        let b = WaxmanConfig::new(30).alpha(0.25).seed(seed).generate().unwrap();
        prop_assert_eq!(a.graph().link_count(), b.graph().link_count());
        prop_assert!(is_connected(a.graph()));
    }

    #[test]
    fn multi_target_agrees_with_per_target_minimum(
        g in arb_graph(),
        src_i in 0usize..12,
        t1 in 0usize..12,
        t2 in 0usize..12,
    ) {
        let n = g.node_count();
        let src = NodeId::new(src_i % n);
        let targets = [NodeId::new(t1 % n), NodeId::new(t2 % n)];
        prop_assume!(!targets.contains(&src));
        let joint = dijkstra::shortest_path_to_any(
            &g, src, Constraints::unrestricted(), |x| targets.contains(&x));
        let spt = ShortestPathTree::compute(&g, src);
        let best: Option<f64> = targets
            .iter()
            .filter_map(|&t| spt.distance(t))
            .fold(None, |acc, d| Some(acc.map_or(d, |a: f64| a.min(d))));
        match (joint, best) {
            (Some(p), Some(d)) => prop_assert!((p.delay(&g) - d).abs() < 1e-9),
            (None, None) => {}
            (p, d) => prop_assert!(false, "mismatch: {p:?} vs {d:?}"),
        }
    }
}

/// Heap entry ordered for a min-heap over (distance, node id).
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The binary-heap Dijkstra `ShortestPathTree` ran before its bucket
/// queue, kept as the bit-identity oracle: `(dist, parent)` per node.
fn heap_spt(g: &Graph, source: NodeId, c: Constraints<'_>) -> (Vec<f64>, Vec<Option<NodeId>>) {
    let node_allowed =
        |n: NodeId| c.failures.is_none_or(|f| f.node_usable(n)) && !c.forbidden_nodes.contains(&n);
    let link_allowed = |l: LinkId| {
        c.failures.is_none_or(|f| f.link_usable(g, l)) && !c.forbidden_links.contains(&l)
    };
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    if node_allowed(source) {
        dist[source.index()] = 0.0;
        heap.push(HeapEntry {
            dist: 0.0,
            node: source,
        });
    }
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if done[u.index()] {
            continue;
        }
        done[u.index()] = true;
        for &(v, l) in g.adjacency(u) {
            if done[v.index()] || !node_allowed(v) || !link_allowed(l) {
                continue;
            }
            let nd = d + g.link(l).delay();
            let slot = &mut dist[v.index()];
            if nd < *slot || (nd == *slot && parent[v.index()].is_some_and(|p| u < p)) {
                *slot = nd;
                parent[v.index()] = Some(u);
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
    (dist, parent)
}

/// Compares the tree from `source` with the oracle's, distance bits and
/// parent of every node.
fn same_as_heap(g: &Graph, source: NodeId, c: Constraints<'_>) -> Result<(), String> {
    let spt = ShortestPathTree::compute_constrained(g, source, c);
    let (dist, parent) = heap_spt(g, source, c);
    for v in g.node_ids() {
        let want = dist[v.index()];
        let want = want.is_finite().then_some(want.to_bits());
        let got = spt.distance(v).map(f64::to_bits);
        if got != want || spt.parent(v) != parent[v.index()] {
            return Err(format!(
                "{source}->{v}: dist {got:?} parent {:?}, heap says {want:?} {:?}",
                spt.parent(v),
                parent[v.index()]
            ));
        }
    }
    Ok(())
}

/// A link delay from one of five families: small integers (exact ties),
/// `k/7` (sums that round), `10^[-6,6]` and `10^[-20,20]` (ratios past the
/// bucket ring's cap, and sums that absorb a delay), and small integers
/// with one link in eight at `10^5` (ties inside the widened buckets, where
/// the drain order decides which tied parent is seen first).
fn draw_delay(family: usize, rng: &mut SmallRng) -> f64 {
    match family {
        0 => f64::from(rng.gen_range(1u32..4)),
        1 => f64::from(rng.gen_range(1u32..30)) / 7.0,
        2 => 10f64.powf(rng.gen_range(-6.0..6.0)),
        3 => 10f64.powf(rng.gen_range(-20.0..20.0)),
        _ if rng.gen_range(0..8) == 0 => 1e5,
        _ => f64::from(rng.gen_range(1u32..4)),
    }
}

/// `n` nodes and about `degree·n/2` random links with `family` delays.
fn random_graph(family: usize, n: usize, degree: usize, rng: &mut SmallRng) -> Graph {
    let mut g = Graph::with_nodes(n);
    for _ in 0..degree * n / 2 {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            let _ = g.add_link(NodeId::new(a), NodeId::new(b), draw_delay(family, rng));
        }
    }
    g
}

/// A few failed links and nodes plus a few forbidden ones.
fn random_restrictions(
    g: &Graph,
    rng: &mut SmallRng,
) -> (FailureScenario, Vec<NodeId>, Vec<LinkId>) {
    let (n, m) = (g.node_count(), g.link_count().max(1));
    let mut failures = FailureScenario::none();
    for _ in 0..m / 10 + 1 {
        failures.fail_link(LinkId::new(rng.gen_range(0..m)));
    }
    failures.fail_node(NodeId::new(rng.gen_range(0..n)));
    let forbidden_nodes = (0..n / 20 + 1)
        .map(|_| NodeId::new(rng.gen_range(0..n)))
        .collect();
    let forbidden_links = (0..m / 20 + 1)
        .map(|_| LinkId::new(rng.gen_range(0..m)))
        .collect();
    (failures, forbidden_nodes, forbidden_links)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bucketed_tree_is_the_heap_tree_bit_for_bit(
        family in 0usize..5,
        n in 2usize..80,
        degree in 1usize..7,
        seed in 0u64..1 << 40,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(family, n, degree, &mut rng);
        let (failures, forbidden_nodes, forbidden_links) = random_restrictions(&g, &mut rng);
        let restricted = Constraints {
            failures: Some(&failures),
            forbidden_nodes: &forbidden_nodes,
            forbidden_links: &forbidden_links,
        };
        for src in g.node_ids() {
            let unrestricted = same_as_heap(&g, src, Constraints::unrestricted());
            prop_assert!(unrestricted.is_ok(), "{}", unrestricted.unwrap_err());
            let constrained = same_as_heap(&g, src, restricted);
            prop_assert!(constrained.is_ok(), "{}", constrained.unwrap_err());
        }
    }
}

#[test]
fn bucketed_tree_is_the_heap_tree_on_waxman_from_every_source() {
    let g = WaxmanConfig::new(400)
        .alpha(0.2)
        .seed(7919)
        .generate()
        .unwrap()
        .into_graph();
    let mut rng = SmallRng::seed_from_u64(7919);
    let (failures, forbidden_nodes, forbidden_links) = random_restrictions(&g, &mut rng);
    let restricted = Constraints {
        failures: Some(&failures),
        forbidden_nodes: &forbidden_nodes,
        forbidden_links: &forbidden_links,
    };
    for src in g.node_ids() {
        same_as_heap(&g, src, Constraints::unrestricted()).unwrap();
        same_as_heap(&g, src, restricted).unwrap();
    }
}

#[test]
fn bucketed_tree_is_the_heap_tree_on_transit_stub() {
    let g = TransitStubConfig::new()
        .transit_nodes(40)
        .stubs_per_transit_node(9)
        .stub_nodes(11)
        .seed(20050628)
        .generate()
        .unwrap()
        .into_graph();
    let mut rng = SmallRng::seed_from_u64(1);
    let (failures, forbidden_nodes, forbidden_links) = random_restrictions(&g, &mut rng);
    let restricted = Constraints {
        failures: Some(&failures),
        forbidden_nodes: &forbidden_nodes,
        forbidden_links: &forbidden_links,
    };
    for src in g.node_ids().step_by(127) {
        same_as_heap(&g, src, Constraints::unrestricted()).unwrap();
        same_as_heap(&g, src, restricted).unwrap();
    }
}

/// A random core of `core` nodes and about `degree·core/2` links, with
/// `parts` pieces hung off random nodes so that cut vertices are common:
/// pendant chains of one to four links and cycles of three to six nodes
/// through one existing node. One piece in eight hangs off nothing and
/// starts another component. Delays are `family`'s.
fn cactus_graph(
    family: usize,
    core: usize,
    degree: usize,
    parts: usize,
    rng: &mut SmallRng,
) -> Graph {
    let mut links = Vec::new();
    for _ in 0..degree * core / 2 {
        links.push((rng.gen_range(0..core), rng.gen_range(0..core)));
    }
    let mut n = core;
    for _ in 0..parts {
        let len = rng.gen_range(1..5);
        let cycle = rng.gen_bool(0.5);
        let start = if rng.gen_range(0..8) == 0 {
            n += 1;
            n - 1
        } else {
            rng.gen_range(0..n)
        };
        let mut prev = start;
        for _ in 0..len + usize::from(cycle) {
            links.push((prev, n));
            prev = n;
            n += 1;
        }
        if cycle {
            links.push((prev, start));
        }
    }
    let mut g = Graph::with_nodes(n);
    for (a, b) in links {
        if a != b {
            let _ = g.add_link(NodeId::new(a), NodeId::new(b), draw_delay(family, rng));
        }
    }
    g
}

/// Asks a growing tree from `source` for `targets` in order; every answer
/// must be the full tree's, path and distance bits. With `slot_filled`
/// the graph's shared slot holds the source's tree when the growing tree
/// starts, which then starts complete; without, the slot is empty.
fn growing_matches_full(
    g: &Graph,
    source: NodeId,
    targets: &[NodeId],
    slot_filled: bool,
) -> Result<(), String> {
    // A clone starts with an empty slot.
    let g = &g.clone();
    if slot_filled {
        ShortestPathTree::shared(g, source);
    }
    let full = ShortestPathTree::compute(g, source);
    let mut tree = GrowingSpt::new(g, source);
    for &t in targets {
        let (got, want) = (tree.path_to(t), full.path_to(t));
        if got != want {
            return Err(format!(
                "{source}->{t}: path {got:?}, full tree says {want:?}"
            ));
        }
        let (got, want) = (
            tree.distance(t).map(f64::to_bits),
            full.distance(t).map(f64::to_bits),
        );
        if got != want {
            return Err(format!(
                "{source}->{t}: dist {got:?}, full tree says {want:?}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn growing_tree_is_the_full_tree_bit_for_bit(
        family in 0usize..5,
        core in 1usize..30,
        degree in 1usize..5,
        parts in 0usize..24,
        seed in 0u64..1 << 40,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = cactus_graph(family, core, degree, parts, &mut rng);
        let n = g.node_count();
        for _ in 0..4 {
            let source = NodeId::new(rng.gen_range(0..n));
            let count = rng.gen_range(1..16);
            let targets: Vec<NodeId> =
                (0..count).map(|_| NodeId::new(rng.gen_range(0..n))).collect();
            // A `cactus_graph` can have several components, so some
            // targets are unreachable in either arm.
            for slot_filled in [false, true] {
                let checked = growing_matches_full(&g, source, &targets, slot_filled);
                prop_assert!(checked.is_ok(), "slot filled {}: {}", slot_filled, checked.unwrap_err());
            }
        }
    }
}

#[test]
fn growing_tree_is_the_full_tree_on_transit_stub() {
    // The n = 4000 shape of `multigroup_cut`: a 40-node core and hundreds
    // of small stub blocks.
    let g = TransitStubConfig::new()
        .transit_nodes(40)
        .stubs_per_transit_node(9)
        .stub_nodes(11)
        .seed(20050628)
        .generate()
        .unwrap()
        .into_graph();
    let mut rng = SmallRng::seed_from_u64(7);
    for src in g.node_ids().step_by(97) {
        let targets: Vec<NodeId> = (0..24)
            .map(|_| NodeId::new(rng.gen_range(0..4000)))
            .collect();
        growing_matches_full(&g, src, &targets, false).unwrap();
        growing_matches_full(&g, src, &targets, true).unwrap();
    }
}

/// `shortest_path_to_any` as it read `adjacency()` and `link().delay()`
/// before the arc view: the path to the first target it settles.
fn heap_path_to_any(
    g: &Graph,
    src: NodeId,
    c: Constraints<'_>,
    is_target: impl Fn(NodeId) -> bool,
) -> Option<Vec<NodeId>> {
    let node_allowed =
        |n: NodeId| c.failures.is_none_or(|f| f.node_usable(n)) && !c.forbidden_nodes.contains(&n);
    let link_allowed = |l: LinkId| {
        c.failures.is_none_or(|f| f.link_usable(g, l)) && !c.forbidden_links.contains(&l)
    };
    if !node_allowed(src) {
        return None;
    }
    if is_target(src) {
        return Some(vec![src]);
    }
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if done[u.index()] {
            continue;
        }
        done[u.index()] = true;
        if u != src && is_target(u) {
            let mut nodes = vec![u];
            while let Some(p) = parent[nodes.last().unwrap().index()] {
                nodes.push(p);
            }
            nodes.reverse();
            return Some(nodes);
        }
        for &(v, l) in g.adjacency(u) {
            if done[v.index()] || !node_allowed(v) || !link_allowed(l) {
                continue;
            }
            let nd = d + g.link(l).delay();
            if nd < dist[v.index()]
                || (nd == dist[v.index()] && parent[v.index()].is_some_and(|p| u < p))
            {
                dist[v.index()] = nd;
                parent[v.index()] = Some(u);
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
    None
}

/// `reachable_from` as it read `adjacency()`: BFS order.
fn bfs_reachable(g: &Graph, start: NodeId, c: Constraints<'_>) -> Vec<NodeId> {
    let node_allowed =
        |n: NodeId| c.failures.is_none_or(|f| f.node_usable(n)) && !c.forbidden_nodes.contains(&n);
    let link_allowed = |l: LinkId| {
        c.failures.is_none_or(|f| f.link_usable(g, l)) && !c.forbidden_links.contains(&l)
    };
    let mut order = Vec::new();
    if !node_allowed(start) {
        return order;
    }
    let mut seen = vec![false; g.node_count()];
    seen[start.index()] = true;
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &(v, l) in g.adjacency(u) {
            if !seen[v.index()] && node_allowed(v) && link_allowed(l) {
                seen[v.index()] = true;
                queue.push_back(v);
            }
        }
    }
    order
}

/// The arc view holds each node's `adjacency()` in order with every
/// link's delay, and each search that reads it — the source SPT, the
/// nearest-target search and BFS reachability — answers what its
/// adjacency-loop reference answers, from every source, unrestricted and
/// under `restricted`.
fn arc_searches_match_adjacency_loops(
    g: &Graph,
    restricted: Constraints<'_>,
    targets: &[NodeId],
) -> Result<(), String> {
    for u in g.node_ids() {
        let want: Vec<_> = g
            .adjacency(u)
            .iter()
            .map(|&(v, l)| (v, l, g.link(l).delay().to_bits()))
            .collect();
        let got: Vec<_> = g
            .arcs(u)
            .iter()
            .map(|&(v, l, w)| (v, l, w.to_bits()))
            .collect();
        if got != want {
            return Err(format!("arcs of {u}: {got:?}, adjacency says {want:?}"));
        }
    }
    for src in g.node_ids() {
        for c in [Constraints::unrestricted(), restricted] {
            same_as_heap(g, src, c)?;
            let is_target = |x: NodeId| targets.contains(&x);
            let got =
                dijkstra::shortest_path_to_any(g, src, c, is_target).map(|p| p.nodes().to_vec());
            let want = heap_path_to_any(g, src, c, is_target);
            if got != want {
                return Err(format!(
                    "{src} to any of {targets:?}: {got:?}, want {want:?}"
                ));
            }
            let (got, want) = (reachable_from(g, src, c), bfs_reachable(g, src, c));
            if got != want {
                return Err(format!("reachable from {src}: {got:?}, want {want:?}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arc_view_searches_are_the_adjacency_searches(
        family in 0usize..5,
        n in 2usize..60,
        degree in 1usize..7,
        seed in 0u64..1 << 40,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(family, n, degree, &mut rng);
        let (failures, forbidden_nodes, forbidden_links) = random_restrictions(&g, &mut rng);
        let restricted = Constraints {
            failures: Some(&failures),
            forbidden_nodes: &forbidden_nodes,
            forbidden_links: &forbidden_links,
        };
        let targets: Vec<NodeId> = (0..3).map(|_| NodeId::new(rng.gen_range(0..n))).collect();
        let checked = arc_searches_match_adjacency_loops(&g, restricted, &targets);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

#[test]
fn arc_view_searches_match_on_ordered_drain_graphs() {
    // A ring with chords: delay ratio 10⁵ widens the bucket ring, and
    // 10⁻²⁰ next to 10²⁰ lets a path sum absorb a delay. Both drain each
    // bucket in order, where ties between absorbed sums decide parents.
    for (small, large) in [(1.0, 1e5), (1e-20, 1e20)] {
        let n = 48;
        let mut g = Graph::with_nodes(n);
        for i in 0..n {
            let w = if i % 3 == 0 { large } else { small };
            g.add_link(NodeId::new(i), NodeId::new((i + 1) % n), w)
                .unwrap();
        }
        for i in (0..n).step_by(5) {
            let _ = g.add_link(NodeId::new(i), NodeId::new((i + n / 2) % n), small);
        }
        let failures = FailureScenario::link(LinkId::new(7));
        let forbidden_nodes = [NodeId::new(11)];
        let restricted = Constraints {
            failures: Some(&failures),
            forbidden_nodes: &forbidden_nodes,
            forbidden_links: &[],
        };
        let targets = [NodeId::new(3), NodeId::new(30)];
        arc_searches_match_adjacency_loops(&g, restricted, &targets).unwrap();
    }
}

/// A subgraph read back as plain data: the new-to-old mapping, every new
/// node's position and adjacency, and every link `(a, b, delay, cost)` in
/// id order.
type Induced = (
    Vec<NodeId>,
    Vec<Option<Point>>,
    Vec<Vec<(NodeId, LinkId)>>,
    Vec<(NodeId, NodeId, f64, f64)>,
);

fn read_back(sub: &Graph, mapping: Vec<NodeId>) -> Induced {
    let positions = sub.node_ids().map(|n| sub.position(n)).collect();
    let adjacency = sub.node_ids().map(|n| sub.adjacency(n).to_vec()).collect();
    let links = sub
        .link_ids()
        .map(|l| {
            let k = sub.link(l);
            (k.a(), k.b(), k.delay(), k.cost())
        })
        .collect();
    (mapping, positions, adjacency, links)
}

/// The induced subgraph as `Graph::induced_subgraph` first computed it,
/// kept as the oracle: a graph-sized old-to-new table, then one scan over
/// every link of `g`, appending each link with both endpoints kept.
fn whole_link_scan(g: &Graph, nodes: &[NodeId]) -> Induced {
    let mut old_to_new: Vec<Option<NodeId>> = vec![None; g.node_count()];
    let mut mapping = Vec::new();
    for &old in nodes {
        if old_to_new[old.index()].is_none() {
            old_to_new[old.index()] = Some(NodeId::new(mapping.len()));
            mapping.push(old);
        }
    }
    let positions = mapping.iter().map(|&n| g.position(n)).collect();
    let mut adjacency = vec![Vec::new(); mapping.len()];
    let mut links = Vec::new();
    for l in g.link_ids() {
        let link = g.link(l);
        let (Some(a), Some(b)) = (old_to_new[link.a().index()], old_to_new[link.b().index()])
        else {
            continue;
        };
        let id = LinkId::new(links.len());
        adjacency[a.index()].push((b, id));
        adjacency[b.index()].push((a, id));
        links.push((a.min(b), a.max(b), link.delay(), link.cost()));
    }
    (mapping, positions, adjacency, links)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn induced_subgraph_is_the_whole_link_scan(
        placed in 0usize..3,
        n in 2usize..40,
        alpha in 0.05f64..1.0,
        seed in 0u64..1 << 40,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Two in three graphs carry plane positions (Waxman); the rest
        // are unplaced random graphs over five delay families.
        let g = if placed < 2 {
            WaxmanConfig::new(n).alpha(alpha).seed(seed).generate().unwrap().into_graph()
        } else {
            random_graph(rng.gen_range(0..5), n, rng.gen_range(1..7), &mut rng)
        };
        // Any order, duplicates included, possibly empty.
        let nodes: Vec<NodeId> = (0..rng.gen_range(0..2 * n + 1))
            .map(|_| NodeId::new(rng.gen_range(0..n)))
            .collect();
        let (sub, mapping) = g.induced_subgraph(&nodes);
        prop_assert_eq!(read_back(&sub, mapping), whole_link_scan(&g, &nodes));
    }
}

/// Every node sits in exactly one domain roster, and `domain_of` names
/// that domain: so "`domain_of(n) == d`" and "`d`'s roster holds `n`"
/// are one fact, and a caller may bucket nodes by `domain_of` instead of
/// searching rosters.
fn rosters_partition_the_nodes(topo: &NLevelTopology) -> Result<(), String> {
    let mut roster_of: Vec<Option<DomainId>> = vec![None; topo.graph().node_count()];
    for d in topo.domains() {
        for &n in d.nodes() {
            if let Some(first) = roster_of[n.index()].replace(d.id()) {
                return Err(format!(
                    "{n} is in the rosters of {first:?} and {:?}",
                    d.id()
                ));
            }
        }
    }
    for n in topo.graph().node_ids() {
        match roster_of[n.index()] {
            None => return Err(format!("{n} is in no roster")),
            Some(d) if d != topo.domain_of(n) => {
                return Err(format!(
                    "{n} is in {d:?}'s roster, domain_of says {:?}",
                    topo.domain_of(n)
                ));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nlevel_rosters_partition_the_nodes(
        root in 2usize..6,
        levels in proptest::collection::vec((1usize..3, 1usize..4), 0..4),
        backups in 0.0f64..1.0,
        population in 0u64..50,
        seed in 0u64..1 << 40,
    ) {
        let mut c = NLevelConfig::new(root)
            .redundant_gateway_prob(backups)
            .population(population)
            .seed(seed);
        for (per_node, nodes) in levels {
            c = c.level(per_node, nodes);
        }
        let checked = rosters_partition_the_nodes(&c.generate().unwrap());
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    #[test]
    fn transit_stub_rosters_partition_the_nodes(
        transit in 2usize..10,
        stubs in 0usize..4,
        stub_nodes in 1usize..7,
        seed in 0u64..1 << 40,
    ) {
        let topo = TransitStubConfig::new()
            .transit_nodes(transit)
            .stubs_per_transit_node(stubs)
            .stub_nodes(stub_nodes)
            .seed(seed)
            .generate()
            .unwrap();
        let checked = rosters_partition_the_nodes(&topo);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}
