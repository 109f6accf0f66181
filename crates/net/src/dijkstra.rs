//! Dijkstra shortest-path machinery.
//!
//! Three query styles are provided, matching what the SMRP algorithms need:
//!
//! * [`shortest_path_constrained`] — point-to-point shortest path by
//!   delay, optionally under a [`FailureScenario`] and
//!   forbidden-node/link sets (used for detour paths that must avoid the
//!   faulty component, and for merger-candidate paths that must not cross
//!   other on-tree nodes);
//! * [`ShortestPathTree`] — full single-source tree with path extraction
//!   (used by the neighbor-query scheme and the audits);
//! * [`GrowingSpt`] — the same tree, searched one block at a time as far
//!   as the nodes asked about (used by the SPF baseline protocol);
//! * [`shortest_path_to_any`] — shortest path from a source to the nearest
//!   member of a target set (used by local-detour recovery: "connect to the
//!   nearest still-connected on-tree node").
//!
//! All ties are broken deterministically (lower node id wins), so results
//! are stable across runs for a fixed topology.
//!
//! # Bucketed search
//!
//! [`ShortestPathTree`] settles nodes a bucket at a time instead of popping
//! a binary heap. Buckets are `min/2` wide, where `min` is the graph's
//! smallest link delay (`Graph::delay_range`), and sit in a ring that
//! spans the largest delay. Every relaxation then moves at least one bucket
//! forward, so every node in the lowest non-empty bucket is final and the
//! bucket drains in any order (Dinitz 1978, "Dial with real weights"). The
//! result does not depend on that order: `D(v)` is the minimum of
//! `fl(D(u) + w)` over its neighbours, and `parent(v)` the lowest-id `u`
//! achieving it, because every achiever settled in an earlier bucket.
//!
//! Two kinds of graph fall back to an ordered drain, where each bucket is
//! sorted by `(distance bits, node)` as it becomes current and pushes into
//! it are inserted in place, so nodes settle in exactly the heap's order:
//! a delay ratio the 4 096-slot ring can only span with wider buckets, and
//! a delay small enough to vanish in the rounding of a path sum
//! (`min < 2⁻⁴⁰·n·max`). The mode is derived from the graph, not
//! configured. [`shortest_path_to_any`] keeps its heap: its callers read
//! the first target it settles.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::failure::FailureScenario;
use crate::graph::Graph;
use crate::ids::{LinkId, NodeId};
use crate::path::Path;

/// Search-space restrictions for a constrained shortest-path query.
///
/// A node listed in `forbidden_nodes` may not appear anywhere on the path
/// (not even as an endpoint — strip endpoints before calling if they should
/// be allowed). A link in `forbidden_links` may not be crossed. A failure
/// scenario removes its failed components entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct Constraints<'a> {
    /// Failure scenario masking out broken components.
    pub failures: Option<&'a FailureScenario>,
    /// Nodes the path must not visit.
    pub forbidden_nodes: &'a [NodeId],
    /// Links the path must not cross.
    pub forbidden_links: &'a [LinkId],
}

impl<'a> Constraints<'a> {
    /// No restrictions.
    pub fn unrestricted() -> Self {
        Constraints::default()
    }

    /// Restrict only by a failure scenario.
    pub fn avoiding_failures(failures: &'a FailureScenario) -> Self {
        Constraints {
            failures: Some(failures),
            ..Constraints::default()
        }
    }

    pub(crate) fn node_allowed(&self, node: NodeId) -> bool {
        if let Some(f) = self.failures {
            if !f.node_usable(node) {
                return false;
            }
        }
        !self.forbidden_nodes.contains(&node)
    }

    pub(crate) fn link_allowed(&self, graph: &Graph, link: LinkId) -> bool {
        if let Some(f) = self.failures {
            if !f.link_usable(graph, link) {
                return false;
            }
        }
        !self.forbidden_links.contains(&link)
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
        // Reverse on distance for a min-heap; lower node id wins ties so
        // exploration order (and therefore tie-broken paths) is
        // deterministic.
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

/// Ring size cap. A graph whose delay ratio needs more slots gets wider
/// buckets, and with them the ordered drain.
const MAX_BUCKETS: u64 = 4096;

/// `min < ABSORPTION·n·max` means a delay could vanish in the rounding of
/// a path sum (`fl(d + w) == d`). Above it a sum of at most `n` delays is
/// off by less than `min·2⁻¹²`, far inside the one-bucket margin the
/// unordered drain needs.
const ABSORPTION: f64 = 1.0 / (1u64 << 40) as f64;

/// The end of a bucket list.
const NIL: u32 = u32::MAX;

/// How the bucket queue covers one graph's delays.
#[derive(Debug, Clone, Copy)]
struct Buckets {
    /// Reciprocal of the bucket width.
    inv_width: f64,
    /// Ring size minus one; the ring size is a power of two.
    mask: u64,
    /// Drain each bucket in `(distance bits, node)` order.
    ordered: bool,
}

impl Buckets {
    fn for_graph(graph: &Graph) -> Self {
        let (min, max) = graph.delay_range();
        Self::plan(min, max, graph.node_count())
    }

    /// Buckets `min/2` wide in a ring of the next power of two at least
    /// `max/width + 2` slots, or as wide as [`MAX_BUCKETS`] slots require.
    /// A push lands at most `ceil(max/width) + 1` buckets ahead of the one
    /// draining, so the ring never wraps onto a live bucket.
    fn plan(min: f64, max: f64, nodes: usize) -> Self {
        let span = |inv_width: f64| ((max * inv_width).ceil() as u64).saturating_add(2);
        let mut inv_width = 2.0 / min;
        let widened = span(inv_width) > MAX_BUCKETS;
        if widened {
            inv_width = (MAX_BUCKETS - 3) as f64 / max;
        }
        if !inv_width.is_finite() {
            // Subnormal delays: one sorted bucket, a plain priority queue.
            return Buckets {
                inv_width: 0.0,
                mask: 1,
                ordered: true,
            };
        }
        let slots = span(inv_width).next_power_of_two();
        assert!(slots <= MAX_BUCKETS, "ring of {slots} slots");
        Buckets {
            inv_width,
            mask: slots - 1,
            ordered: widened || min < ABSORPTION * nodes as f64 * max,
        }
    }

    /// The absolute bucket of `dist` (a saturating cast).
    #[inline]
    fn bucket(&self, dist: f64) -> u64 {
        (dist * self.inv_width) as u64
    }

    #[inline]
    fn slot(&self, bucket: u64) -> usize {
        (bucket & self.mask) as usize
    }
}

/// A queued `(dist, node)`, threaded onto its bucket's list through `next`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    dist: f64,
    node: NodeId,
    next: u32,
}

/// The sort key of the ordered drain, which is the heap's order.
fn drain_key(&(dist, node): &(f64, NodeId)) -> (u64, NodeId) {
    (dist.to_bits(), node)
}

/// A min-distance bucket queue over one graph's delay range.
///
/// Each ring slot holds an intrusive list in one `entries` vector, so a
/// search allocates a few vectors, not one per bucket. A drained queue can
/// be seeded again, so a tree that searches in steps allocates them once.
#[derive(Debug, Clone)]
struct BucketQueue {
    buckets: Buckets,
    /// Absolute index of the bucket being drained.
    current: u64,
    /// First entry of each ring slot's list, or [`NIL`].
    heads: Vec<u32>,
    entries: Vec<Entry>,
    /// Pushed and not yet popped.
    queued: usize,
    /// Ordered drain only: the current bucket, sorted so the next pop is
    /// the last element.
    draining: Vec<(f64, NodeId)>,
}

impl BucketQueue {
    /// An empty queue over `graph`'s delays, with room for `capacity`
    /// pushes.
    fn new(graph: &Graph, capacity: usize) -> Self {
        let buckets = Buckets::for_graph(graph);
        BucketQueue {
            buckets,
            current: 0,
            heads: vec![NIL; buckets.mask as usize + 1],
            entries: Vec::with_capacity(capacity),
            queued: 0,
            draining: Vec::new(),
        }
    }

    /// Starts a search from `node` at `dist`. The queue must be drained,
    /// which leaves every list empty.
    fn seed(&mut self, node: NodeId, dist: f64) {
        assert_eq!(self.queued, 0, "seeding a queue that is not drained");
        self.entries.clear();
        self.current = self.buckets.bucket(dist);
        self.queued = 1;
        if self.buckets.ordered {
            self.draining.push((dist, node));
        } else {
            self.link(self.current, dist, node);
        }
    }

    fn link(&mut self, bucket: u64, dist: f64, node: NodeId) {
        let head = &mut self.heads[self.buckets.slot(bucket)];
        self.entries.push(Entry {
            dist,
            node,
            next: *head,
        });
        *head = (self.entries.len() - 1) as u32;
    }

    fn push(&mut self, dist: f64, node: NodeId) {
        let bucket = self.buckets.bucket(dist);
        let ahead = bucket.wrapping_sub(self.current);
        assert!(ahead <= self.buckets.mask, "push beyond the ring's span");
        self.queued += 1;
        if ahead > 0 {
            self.link(bucket, dist, node);
            return;
        }
        // Every delay is two bucket widths unless the buckets were widened
        // or a delay can be absorbed, and then the drain is ordered.
        assert!(
            self.buckets.ordered,
            "push into the unordered bucket being drained"
        );
        let key = drain_key(&(dist, node));
        let at = self.draining.partition_point(|e| drain_key(e) > key);
        self.draining.insert(at, (dist, node));
    }

    fn pop(&mut self) -> Option<(f64, NodeId)> {
        loop {
            let next = if self.buckets.ordered {
                self.draining.pop()
            } else {
                let head = &mut self.heads[self.buckets.slot(self.current)];
                (*head != NIL).then(|| {
                    let e = self.entries[*head as usize];
                    *head = e.next;
                    (e.dist, e.node)
                })
            };
            if next.is_some() {
                self.queued -= 1;
                return next;
            }
            if self.queued == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// Moves to the next non-empty bucket; under the ordered drain its list
    /// becomes the sorted `draining` vector.
    fn advance(&mut self) {
        loop {
            self.current += 1;
            if self.heads[self.buckets.slot(self.current)] != NIL {
                break;
            }
        }
        if self.buckets.ordered {
            let head = &mut self.heads[self.buckets.slot(self.current)];
            let mut i = std::mem::replace(head, NIL);
            while i != NIL {
                let e = self.entries[i as usize];
                self.draining.push((e.dist, e.node));
                i = e.next;
            }
            self.draining
                .sort_unstable_by_key(|e| Reverse(drain_key(e)));
        }
    }
}

/// A single-source shortest-path tree by link delay.
///
/// Produced by [`ShortestPathTree::compute`]; answers distance and path
/// queries to every reachable node.
///
/// # Example
///
/// ```
/// use smrp_net::{Graph, dijkstra::ShortestPathTree};
///
/// # fn main() -> Result<(), smrp_net::NetError> {
/// let mut g = Graph::with_nodes(3);
/// let ids: Vec<_> = g.node_ids().collect();
/// g.add_link(ids[0], ids[1], 1.0)?;
/// g.add_link(ids[1], ids[2], 1.0)?;
/// let spt = ShortestPathTree::compute(&g, ids[0]);
/// assert_eq!(spt.distance(ids[2]), Some(2.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    source: NodeId,
    dist: Vec<f64>,
    parent: Vec<Option<NodeId>>,
    /// Whether the last computation ran under no restrictions at all.
    unrestricted: bool,
}

impl ShortestPathTree {
    /// Runs Dijkstra from `source` with no restrictions.
    pub fn compute(graph: &Graph, source: NodeId) -> Self {
        Self::compute_constrained(graph, source, Constraints::unrestricted())
    }

    /// [`compute`](Self::compute), shared through `graph`.
    ///
    /// The graph keeps the last tree this returned in one slot, so every
    /// session, audit and routing install from one source over an unchanged
    /// graph runs Dijkstra once. A miss computes without holding the lock
    /// and replaces the slot. Any `&mut Graph` method empties it, and a
    /// clone or deserialized graph starts empty. The tree is unrestricted;
    /// a caller that constrains it takes its own copy with
    /// [`Arc::make_mut`].
    pub fn shared(graph: &Graph, source: NodeId) -> Arc<Self> {
        if let Some(spt) = graph.cached_spt(source) {
            return spt;
        }
        let spt = Arc::new(Self::compute(graph, source));
        graph.cache_spt(Arc::clone(&spt));
        spt
    }

    /// Runs Dijkstra from `source` under `constraints`.
    ///
    /// If the source itself is forbidden the resulting tree reaches nothing.
    pub fn compute_constrained(
        graph: &Graph,
        source: NodeId,
        constraints: Constraints<'_>,
    ) -> Self {
        let n = graph.node_count();
        let mut spt = ShortestPathTree {
            source,
            dist: vec![f64::INFINITY; n],
            parent: vec![None; n],
            unrestricted: false,
        };
        spt.search_constrained(graph, constraints);
        spt
    }

    /// Re-runs Dijkstra from the same source, reusing this tree's buffers.
    ///
    /// This is the refresh half of the caching contract used by the session
    /// types: callers cache one source SPT, answer distance/path queries
    /// from it, and call this (typically via their `refresh_spt` hook) when
    /// the set of usable links/nodes changes — e.g. when a
    /// [`FailureScenario`] strikes — so no stale routing state survives.
    pub fn recompute_constrained(&mut self, graph: &Graph, constraints: Constraints<'_>) {
        assert_eq!(
            graph.node_count(),
            self.dist.len(),
            "graph size changed under the SPT"
        );
        self.dist.fill(f64::INFINITY);
        self.parent.fill(None);
        self.search_constrained(graph, constraints);
    }

    /// Runs the search under `constraints` into `dist`/`parent`, which must
    /// read unreached everywhere (infinite, no parent).
    fn search_constrained(&mut self, graph: &Graph, constraints: Constraints<'_>) {
        self.unrestricted = constraints.failures.is_none()
            && constraints.forbidden_nodes.is_empty()
            && constraints.forbidden_links.is_empty();
        if !constraints.node_allowed(self.source) {
            return;
        }
        let source = self.source;
        self.dist[source.index()] = 0.0;
        let queue = &mut BucketQueue::new(graph, graph.node_count());
        if self.unrestricted {
            self.search(graph, queue, source, |_, _| true);
        } else {
            self.search(graph, queue, source, |v, l| {
                constraints.node_allowed(v) && constraints.link_allowed(graph, l)
            });
        }
    }

    /// The bucketed search (see the [module docs](self)) from `seed`, whose
    /// `dist` is final, over the arcs `usable` admits, through `queue`.
    ///
    /// From the source this is Dijkstra. From a settled cut vertex, with
    /// `usable` admitting only blocks beyond it, it is the same search's
    /// continuation into those blocks ([`GrowingSpt`]): every path into
    /// them passes the seed, and the seed settles before anything it
    /// reaches, so distance bits and tie-broken parents come out as the
    /// full search's.
    fn search(
        &mut self,
        graph: &Graph,
        queue: &mut BucketQueue,
        seed: NodeId,
        usable: impl Fn(NodeId, LinkId) -> bool,
    ) {
        queue.seed(seed, self.dist[seed.index()]);
        // Only the ordered drain can tie a settled node, so only it tracks
        // them: under the unordered one every relaxation lands at least two
        // buckets ahead, so `nd > dist[v]` for any settled `v`.
        let ordered = queue.buckets.ordered;
        let mut settled = vec![false; if ordered { graph.node_count() } else { 0 }];
        while let Some((d, u)) = queue.pop() {
            // A node is pushed once per strictly shorter distance, so only
            // its last entry carries `dist[u]`.
            if d > self.dist[u.index()] {
                continue;
            }
            if ordered {
                settled[u.index()] = true;
            }
            for &(v, l, w) in graph.arcs(u) {
                if !usable(v, l) {
                    continue;
                }
                let nd = d + w;
                let slot = &mut self.dist[v.index()];
                if nd < *slot {
                    *slot = nd;
                    self.parent[v.index()] = Some(u);
                    queue.push(nd, v);
                } else if nd == *slot
                    && !(ordered && settled[v.index()])
                    && self.parent[v.index()].is_some_and(|p| u < p)
                {
                    // Deterministic tie-break: on equal distance keep the
                    // parent with the lower node id. A settled node can only
                    // tie when a delay was absorbed (ordered drain); the heap
                    // never revisited it, so neither does this.
                    self.parent[v.index()] = Some(u);
                }
            }
        }
    }

    /// The source node this tree was computed from.
    pub(crate) fn source(&self) -> NodeId {
        self.source
    }

    /// Whether this tree was last computed under
    /// [`Constraints::unrestricted`], i.e. its distances are the true
    /// shortest delays of the whole graph. Only then is `distance(v)` a
    /// lower bound on the delay of *every* `source → v` walk, which is what
    /// callers pruning a search with it rely on; a failure-constrained tree
    /// over-estimates relative to the full graph.
    pub fn is_unrestricted(&self) -> bool {
        self.unrestricted
    }

    /// Shortest distance to `node`, or `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        let d = self.dist[node.index()];
        d.is_finite().then_some(d)
    }

    /// Parent of `node` in the shortest-path tree.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// Extracts the source→`node` path, or `None` if unreachable.
    pub fn path_to(&self, node: NodeId) -> Option<Path> {
        if !self.dist[node.index()].is_finite() {
            return None;
        }
        let mut nodes = vec![node];
        let mut cur = node;
        while let Some(p) = self.parent[cur.index()] {
            nodes.push(p);
            cur = p;
            assert!(nodes.len() <= self.parent.len(), "parent cycle at {cur}");
        }
        if cur != self.source {
            return None;
        }
        nodes.reverse();
        Some(Path::new(nodes))
    }
}

/// A [`ShortestPathTree`] from one source that searches a block at a
/// time, only as far as the targets asked about.
///
/// [`path_to`](Self::path_to) and [`distance`](Self::distance) answer
/// bit for bit what `ShortestPathTree::compute(graph, source)` answers.
/// The first query for a node climbs the graph's block-cut forest from it
/// to the blocks already searched, which it meets at a settled cut vertex
/// `a`, and continues the bucketed search from `(a, D(a))` over the links
/// of the blocks in between only. A simple path between two nodes uses
/// links of exactly the blocks on the block-cut path between them, so a
/// shortest path never leaves those blocks, and every equal-distance
/// predecessor of a node beyond `a` lies in its own blocks or is `a`.
/// A group whose members sit in a few small blocks thus settles those
/// blocks and the ones between them and the source, not the graph.
///
/// # Example
///
/// ```
/// use smrp_net::{Graph, dijkstra::{GrowingSpt, ShortestPathTree}};
///
/// # fn main() -> Result<(), smrp_net::NetError> {
/// let mut g = Graph::with_nodes(4);
/// let ids: Vec<_> = g.node_ids().collect();
/// g.add_link(ids[0], ids[1], 1.0)?;
/// g.add_link(ids[1], ids[2], 1.0)?;
/// g.add_link(ids[2], ids[0], 3.0)?;
/// g.add_link(ids[2], ids[3], 1.0)?;
/// let mut tree = GrowingSpt::new(&g, ids[0]);
/// let full = ShortestPathTree::compute(&g, ids[0]);
/// assert_eq!(tree.path_to(ids[3]), full.path_to(ids[3]));
/// assert_eq!(tree.distance(ids[3]), Some(3.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GrowingSpt<'g> {
    graph: &'g Graph,
    /// Final distances and parents of the nodes settled so far; the rest
    /// read unreached.
    spt: ShortestPathTree,
    /// The settled node nearest its component's block-cut root. Every
    /// block above it is unsearched.
    top: NodeId,
    /// The growth that searched each block; a growth numbers itself
    /// `round` and admits the links of its blocks only.
    grown_in: Vec<u32>,
    round: u32,
    /// Blocks above `top` on the climb to the meeting node.
    climbed: Vec<usize>,
    /// Drained between growths and seeded again by the next.
    queue: BucketQueue,
}

impl<'g> GrowingSpt<'g> {
    /// A tree from `source` that has settled only the source.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a node of `graph`.
    pub fn new(graph: &'g Graph, source: NodeId) -> Self {
        let n = graph.node_count();
        let mut spt = ShortestPathTree {
            source,
            dist: vec![f64::INFINITY; n],
            parent: vec![None; n],
            unrestricted: true,
        };
        spt.dist[source.index()] = 0.0;
        GrowingSpt {
            graph,
            spt,
            top: source,
            grown_in: vec![0; graph.blocks().count()],
            round: 0,
            climbed: Vec::new(),
            queue: BucketQueue::new(graph, 0),
        }
    }

    /// The source→`node` path of [`ShortestPathTree::path_to`], or `None`
    /// if `node` is in another component.
    pub fn path_to(&mut self, node: NodeId) -> Option<Path> {
        self.grow_to(node);
        self.spt.path_to(node)
    }

    /// Shortest distance to `node`, or `None` if unreachable.
    pub fn distance(&mut self, node: NodeId) -> Option<f64> {
        self.grow_to(node);
        self.spt.distance(node)
    }

    fn settled(&self, node: NodeId) -> bool {
        self.spt.dist[node.index()].is_finite()
    }

    /// Searches the blocks between `target` and the settled ones, unless
    /// `target` is settled or in another component.
    fn grow_to(&mut self, target: NodeId) {
        if self.settled(target) {
            return;
        }
        let graph = self.graph;
        let blocks = graph.blocks();
        self.round += 1;
        let round = self.round;
        // Climb from the target and from `top`, deeper side first, until
        // the target's side meets a settled node (a cut vertex below
        // `top`'s blocks, or `top`) or the two sides meet above `top`.
        let (mut x, mut y) = (target, self.top);
        self.climbed.clear();
        let seed = loop {
            if self.settled(x) {
                break x;
            }
            if x == y {
                for &b in &self.climbed {
                    self.grown_in[b] = round;
                }
                break std::mem::replace(&mut self.top, x);
            }
            if blocks.depth(x) >= blocks.depth(y) {
                // Two roots: `target` is in another component.
                let Some((b, up)) = blocks.parent(x) else {
                    return;
                };
                self.grown_in[b] = round;
                x = up;
            } else {
                let (b, up) = blocks.parent(y).expect("only a root has depth 0");
                self.climbed.push(b);
                y = up;
            }
        };
        let grown_in = &self.grown_in;
        self.spt.search(graph, &mut self.queue, seed, |_, l| {
            grown_in[blocks.of_link(l)] == round
        });
    }
}

/// Point-to-point shortest path under constraints.
///
/// Returns `None` when `dst` is unreachable under the constraints.
pub fn shortest_path_constrained(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    constraints: Constraints<'_>,
) -> Option<Path> {
    if src == dst {
        return constraints.node_allowed(src).then(|| Path::trivial(src));
    }
    ShortestPathTree::compute_constrained(graph, src, constraints).path_to(dst)
}

/// Shortest distance between two nodes, or `None` if disconnected.
pub fn distance(graph: &Graph, src: NodeId, dst: NodeId) -> Option<f64> {
    ShortestPathTree::compute(graph, src).distance(dst)
}

/// Shortest path from `src` to the nearest node for which `is_target`
/// returns `true`, under `constraints`.
///
/// The source itself is a valid target: if `is_target(src)` the trivial path
/// is returned. Used by local-detour recovery to reach the nearest
/// still-connected on-tree node.
pub fn shortest_path_to_any<F>(
    graph: &Graph,
    src: NodeId,
    constraints: Constraints<'_>,
    mut is_target: F,
) -> Option<Path>
where
    F: FnMut(NodeId) -> bool,
{
    if !constraints.node_allowed(src) {
        return None;
    }
    if is_target(src) {
        return Some(Path::trivial(src));
    }
    let n = graph.node_count();
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
            // Settled order is by distance, so the first settled target is
            // the nearest one.
            let mut nodes = vec![u];
            let mut cur = u;
            while let Some(p) = parent[cur.index()] {
                nodes.push(p);
                cur = p;
            }
            nodes.reverse();
            return Some(Path::new(nodes));
        }
        for &(v, l, w) in graph.arcs(u) {
            if done[v.index()]
                || !constraints.node_allowed(v)
                || !constraints.link_allowed(graph, l)
            {
                continue;
            }
            let nd = d + w;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 1 graph of the paper: S, A, B, C, D with delays chosen so
    /// that D's shortest path runs through A, the post-failure SPF detour is
    /// D->B->S, and the local detour D->C has length 2.
    fn figure1_graph() -> (Graph, [NodeId; 5]) {
        let mut g = Graph::with_nodes(5);
        let ids: Vec<_> = g.node_ids().collect();
        let [s, a, b, c, d] = [ids[0], ids[1], ids[2], ids[3], ids[4]];
        g.add_link(s, a, 1.0).unwrap();
        g.add_link(a, c, 1.0).unwrap();
        g.add_link(a, d, 1.0).unwrap();
        g.add_link(c, d, 2.0).unwrap();
        g.add_link(d, b, 1.0).unwrap();
        g.add_link(b, s, 2.0).unwrap();
        (g, [s, a, b, c, d])
    }

    #[test]
    fn shortest_path_prefers_low_delay() {
        let (g, [s, a, _, _, d]) = figure1_graph();
        let p = shortest_path_constrained(&g, s, d, Constraints::unrestricted()).unwrap();
        assert_eq!(p.nodes(), &[s, a, d]);
        assert_eq!(p.delay(&g), 2.0);
    }

    #[test]
    fn constrained_path_avoids_failed_link() {
        let (g, [s, a, b, _, d]) = figure1_graph();
        let l_ad = g.link_between(a, d).unwrap();
        let failures = FailureScenario::link(l_ad);
        let p =
            shortest_path_constrained(&g, d, s, Constraints::avoiding_failures(&failures)).unwrap();
        // Global detour from Figure 1(b): D -> B -> S with delay 3.
        assert_eq!(p.nodes(), &[d, b, s]);
        assert_eq!(p.delay(&g), 3.0);
    }

    #[test]
    fn constrained_path_avoids_forbidden_nodes() {
        let (g, [s, a, b, _, d]) = figure1_graph();
        let forbidden = [a];
        let p = shortest_path_constrained(
            &g,
            d,
            s,
            Constraints {
                forbidden_nodes: &forbidden,
                ..Constraints::default()
            },
        )
        .unwrap();
        assert_eq!(p.nodes(), &[d, b, s]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = Graph::with_nodes(2);
        let ids: Vec<_> = g.node_ids().collect();
        assert!(
            shortest_path_constrained(&g, ids[0], ids[1], Constraints::unrestricted()).is_none()
        );
        assert_eq!(distance(&g, ids[0], ids[1]), None);
        let _ = &mut g;
    }

    #[test]
    fn same_node_is_trivial_path() {
        let (g, [s, ..]) = figure1_graph();
        let p = shortest_path_constrained(&g, s, s, Constraints::unrestricted()).unwrap();
        assert_eq!(p.hop_count(), 0);
    }

    #[test]
    fn forbidden_source_means_no_path() {
        let (g, [s, _, _, _, d]) = figure1_graph();
        let forbidden = [d];
        assert!(shortest_path_constrained(
            &g,
            d,
            s,
            Constraints {
                forbidden_nodes: &forbidden,
                ..Constraints::default()
            }
        )
        .is_none());
    }

    #[test]
    fn tree_distances_match_point_queries() {
        let (g, nodes) = figure1_graph();
        let spt = ShortestPathTree::compute(&g, nodes[0]);
        for &n in &nodes {
            let d1 = spt.distance(n);
            let d2 = distance(&g, nodes[0], n);
            assert_eq!(d1, d2);
            if let Some(p) = spt.path_to(n) {
                assert_eq!(p.delay(&g), d1.unwrap());
                assert!(p.validate(&g).is_ok());
            }
        }
    }

    #[test]
    fn multi_target_finds_nearest() {
        let (g, [s, a, _b, c, d]) = figure1_graph();
        let l_ad = g.link_between(a, d).unwrap();
        let failures = FailureScenario::link(l_ad);
        // On-tree connected nodes after L_AD fails: S, A, C.
        let targets = [s, a, c];
        let p = shortest_path_to_any(&g, d, Constraints::avoiding_failures(&failures), |n| {
            targets.contains(&n)
        })
        .unwrap();
        // Local detour from Figure 1: D -> C with recovery distance 2
        // (beats D -> B -> S whose first on-tree touch is S at delay 3).
        assert_eq!(p.nodes(), &[d, c]);
        assert_eq!(p.delay(&g), 2.0);
    }

    #[test]
    fn multi_target_source_is_target() {
        let (g, [s, ..]) = figure1_graph();
        let p = shortest_path_to_any(&g, s, Constraints::unrestricted(), |n| n == s).unwrap();
        assert_eq!(p.hop_count(), 0);
    }

    #[test]
    fn multi_target_no_target_reachable() {
        let (g, [s, _, _, _, d]) = figure1_graph();
        let p = shortest_path_to_any(&g, d, Constraints::unrestricted(), |_| false);
        assert!(p.is_none());
        let _ = (s, g);
    }

    #[test]
    fn forbidden_link_is_respected() {
        let (g, [s, a, _, _, d]) = figure1_graph();
        let l_sa = g.link_between(s, a).unwrap();
        let forbidden = [l_sa];
        let p = shortest_path_constrained(
            &g,
            s,
            d,
            Constraints {
                forbidden_links: &forbidden,
                ..Constraints::default()
            },
        )
        .unwrap();
        assert!(!p.links(&g).contains(&l_sa));
    }

    #[test]
    fn tree_remembers_whether_it_was_restricted() {
        let (g, [s, a, ..]) = figure1_graph();
        let mut spt = ShortestPathTree::compute(&g, s);
        assert!(spt.is_unrestricted());
        let failures = FailureScenario::node(a);
        spt.recompute_constrained(&g, Constraints::avoiding_failures(&failures));
        assert!(!spt.is_unrestricted());
        let forbidden = [a];
        let constraints = Constraints {
            forbidden_nodes: &forbidden,
            ..Constraints::default()
        };
        assert!(!ShortestPathTree::compute_constrained(&g, s, constraints).is_unrestricted());
        spt.recompute_constrained(&g, Constraints::unrestricted());
        assert!(spt.is_unrestricted());
    }

    /// Asserts two trees agree bit for bit on every node.
    fn assert_same_tree(g: &Graph, a: &ShortestPathTree, b: &ShortestPathTree) {
        assert_eq!(a.source(), b.source());
        assert_eq!(a.is_unrestricted(), b.is_unrestricted());
        for n in g.node_ids() {
            assert_eq!(
                a.distance(n).map(f64::to_bits),
                b.distance(n).map(f64::to_bits)
            );
            assert_eq!(a.parent(n), b.parent(n));
        }
    }

    #[test]
    fn shared_tree_is_the_computed_tree() {
        let (g, nodes) = figure1_graph();
        for &s in &nodes {
            let shared = ShortestPathTree::shared(&g, s);
            assert_same_tree(&g, &shared, &ShortestPathTree::compute(&g, s));
        }
    }

    #[test]
    fn shared_slot_hits_on_one_source_and_is_replaced_by_another() {
        let (g, [s, a, ..]) = figure1_graph();
        let first = ShortestPathTree::shared(&g, s);
        assert!(Arc::ptr_eq(&first, &ShortestPathTree::shared(&g, s)));
        let other = ShortestPathTree::shared(&g, a);
        assert_eq!(other.source(), a);
        assert!(Arc::ptr_eq(&other, &ShortestPathTree::shared(&g, a)));
        let again = ShortestPathTree::shared(&g, s);
        assert!(!Arc::ptr_eq(&first, &again), "one slot: `a` replaced `s`");
        assert_same_tree(&g, &first, &again);
    }

    #[test]
    fn graph_mutators_and_clones_empty_the_shared_slot() {
        let (mut g, [s, _, _, c, _]) = figure1_graph();
        let before = ShortestPathTree::shared(&g, s);
        let copy = g.clone();
        assert!(!Arc::ptr_eq(&before, &ShortestPathTree::shared(&copy, s)));

        let e = g.add_node();
        let after_node = ShortestPathTree::shared(&g, s);
        assert!(!Arc::ptr_eq(&before, &after_node));
        assert_eq!(after_node.distance(e), None);

        g.add_link(c, e, 0.5).unwrap();
        let after_link = ShortestPathTree::shared(&g, s);
        assert!(!Arc::ptr_eq(&after_node, &after_link));
        assert_eq!(after_link.distance(e), Some(2.5));
        assert_same_tree(&g, &after_link, &ShortestPathTree::compute(&g, s));
    }

    #[test]
    fn serialized_graph_is_only_its_topology() {
        let (g, [s, ..]) = figure1_graph();
        let shared = ShortestPathTree::shared(&g, s);
        let value = serde::Serialize::serialize(&g);
        let keys: Vec<&str> = value
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["nodes", "links"]);
        let back: Graph = serde::Deserialize::deserialize(&value).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.link_count(), g.link_count());
        let fresh = ShortestPathTree::shared(&back, s);
        assert!(!Arc::ptr_eq(&shared, &fresh));
        assert_same_tree(&g, &shared, &fresh);
    }

    #[test]
    fn generated_topologies_drain_unordered() {
        use crate::transit_stub::TransitStubConfig;
        use crate::waxman::WaxmanConfig;
        for seed in [1, 7919, 20050628] {
            // The n = 4000 shape of the join and multi-group benchmarks.
            let ts = TransitStubConfig::new()
                .transit_nodes(40)
                .stubs_per_transit_node(9)
                .stub_nodes(11)
                .seed(seed)
                .generate()
                .unwrap()
                .into_graph();
            assert_eq!(ts.node_count(), 4000);
            let plan = Buckets::for_graph(&ts);
            assert!(!plan.ordered, "transit-stub seed {seed}: {plan:?}");
            // The fault campaign's Waxman graph.
            let wax = WaxmanConfig::new(400)
                .alpha(0.2)
                .seed(seed)
                .generate()
                .unwrap()
                .into_graph();
            let plan = Buckets::for_graph(&wax);
            assert!(!plan.ordered, "Waxman seed {seed}: {plan:?}");
        }
    }

    #[test]
    fn wide_or_absorbable_delays_drain_ordered() {
        // Ratio 1000: 2002 buckets of width 0.5 fit the ring.
        let fits = Buckets::plan(1.0, 1000.0, 4000);
        assert_eq!(
            (fits.inv_width, fits.mask, fits.ordered),
            (2.0, 2047, false)
        );
        // Ratio 10⁴ needs 20 002 buckets: the cap widens them.
        let wide = Buckets::plan(1.0, 1e4, 4000);
        assert!(wide.ordered);
        assert_eq!(wide.mask + 1, MAX_BUCKETS);
        assert!(wide.inv_width < 2.0);
        // Equal delays, but 2⁴¹ of them could absorb one.
        assert!(!Buckets::plan(1.0, 1.0, 1 << 20).ordered);
        assert!(Buckets::plan(1.0, 1.0, 1 << 41).ordered);
        // No links: one trivial bucket; subnormal delays: one sorted bucket.
        assert!(!Buckets::plan(f64::INFINITY, 0.0, 3).ordered);
        assert!(Buckets::plan(5e-324, 1e-323, 3).ordered);
    }

    #[test]
    fn chain_spanning_eighteen_decades_matches_its_prefix_sums() {
        // Delays 10^k for k in -9..=9, visited in a scrambled order, so sums
        // absorb the small delays next to the large ones.
        let n = 4000;
        let mut g = Graph::with_nodes(n);
        for i in 0..n - 1 {
            let k = (i * 7 % 19) as i32 - 9;
            g.add_link(NodeId::new(i), NodeId::new(i + 1), 10f64.powi(k))
                .unwrap();
        }
        assert_eq!(g.delay_range(), (1e-9, 1e9));
        assert!(Buckets::for_graph(&g).ordered);
        for src in [0, 1234, n - 1] {
            let spt = ShortestPathTree::compute(&g, NodeId::new(src));
            let mut expect = vec![(0.0, None); n];
            for i in src + 1..n {
                let w = g.delay_between(NodeId::new(i - 1), NodeId::new(i)).unwrap();
                expect[i] = (expect[i - 1].0 + w, Some(NodeId::new(i - 1)));
            }
            for i in (0..src).rev() {
                let w = g.delay_between(NodeId::new(i), NodeId::new(i + 1)).unwrap();
                expect[i] = (expect[i + 1].0 + w, Some(NodeId::new(i + 1)));
            }
            for (i, &(d, p)) in expect.iter().enumerate() {
                let v = NodeId::new(i);
                assert_eq!(spt.distance(v).map(f64::to_bits), Some(d.to_bits()));
                assert_eq!(spt.parent(v), p);
            }
        }
    }

    #[test]
    fn graphs_without_links_or_with_subnormal_delays_still_search() {
        let mut g = Graph::with_nodes(3);
        let ids: Vec<_> = g.node_ids().collect();
        let spt = ShortestPathTree::compute(&g, ids[1]);
        let reach: Vec<_> = ids.iter().filter(|&&n| spt.distance(n).is_some()).collect();
        assert_eq!(reach, vec![&ids[1]]);
        assert_eq!(spt.distance(ids[1]), Some(0.0));

        // 1/w overflows here; the tie at c keeps the lower-id parent.
        let tiny = f64::from_bits(1);
        g.add_link(ids[0], ids[1], tiny).unwrap();
        g.add_link(ids[1], ids[2], tiny).unwrap();
        g.add_link(ids[0], ids[2], 2.0 * tiny).unwrap();
        let spt = ShortestPathTree::compute(&g, ids[0]);
        assert_eq!(spt.distance(ids[2]), Some(2.0 * tiny));
        assert_eq!(spt.parent(ids[2]), Some(ids[0]));
        assert_eq!(spt.parent(ids[1]), Some(ids[0]));
    }

    /// Asks `source`'s growing tree for `targets` in order, then for every
    /// node. After each query every settled node's distance bits and parent
    /// must be the full tree's; returns the nodes `targets` settled.
    fn grow_and_compare(g: &Graph, source: NodeId, targets: &[NodeId]) -> Vec<NodeId> {
        let full = ShortestPathTree::compute(g, source);
        let mut tree = GrowingSpt::new(g, source);
        let check = |tree: &mut GrowingSpt<'_>, t: NodeId| {
            assert_eq!(tree.path_to(t), full.path_to(t), "{source}->{t}");
            for v in g.node_ids().filter(|&v| tree.settled(v)) {
                assert_eq!(
                    tree.spt.distance(v).map(f64::to_bits),
                    full.distance(v).map(f64::to_bits),
                    "{source}->{v} after {t}"
                );
                assert_eq!(tree.spt.parent(v), full.parent(v), "{source}->{v}");
            }
        };
        for &t in targets {
            check(&mut tree, t);
        }
        let settled = g.node_ids().filter(|&v| tree.settled(v)).collect();
        for t in g.node_ids() {
            check(&mut tree, t);
        }
        settled
    }

    fn chain(delays: &[f64]) -> Graph {
        let mut g = Graph::with_nodes(delays.len() + 1);
        for (i, &w) in delays.iter().enumerate() {
            g.add_link(NodeId::new(i), NodeId::new(i + 1), w).unwrap();
        }
        g
    }

    #[test]
    fn growing_tree_on_one_block_searches_it_whole() {
        let (g, [s, a, b, c, d]) = figure1_graph();
        for src in [s, a, b, c, d] {
            let settled = grow_and_compare(&g, src, &[d, c]);
            assert_eq!(settled.len(), 5);
        }
    }

    #[test]
    fn growing_tree_on_a_bridge_chain_stops_at_the_target() {
        let g = chain(&[1.0, 2.0, 0.5, 4.0, 1.0]);
        let id = NodeId::new;
        // From the middle: each side grows only as far as asked.
        let settled = grow_and_compare(&g, id(2), &[id(3)]);
        assert_eq!(settled, [id(2), id(3)]);
        let settled = grow_and_compare(&g, id(2), &[id(3), id(0), id(5)]);
        assert_eq!(settled.len(), 6);
        // From a leaf, a far query climbs past the DFS root (node 0).
        let settled = grow_and_compare(&g, id(5), &[id(3)]);
        assert_eq!(settled, [id(3), id(4), id(5)]);
        grow_and_compare(&g, id(5), &[id(1), id(4), id(0)]);
    }

    #[test]
    fn growing_tree_from_a_cut_vertex_and_across_a_star() {
        // Triangles 0-1-2 and 2-3-4 share node 2; node 5 hangs off 4.
        let mut g = Graph::with_nodes(6);
        let id = NodeId::new;
        for (a, b, w) in [
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 0, 1.0),
            (2, 3, 2.0),
            (3, 4, 1.0),
            (4, 2, 3.0),
            (4, 5, 1.0),
        ] {
            g.add_link(id(a), id(b), w).unwrap();
        }
        let settled = grow_and_compare(&g, id(2), &[id(1)]);
        assert_eq!(settled, [id(0), id(1), id(2)]);
        let settled = grow_and_compare(&g, id(2), &[id(5)]);
        assert_eq!(settled, [id(2), id(3), id(4), id(5)]);
        for src in g.node_ids() {
            grow_and_compare(&g, src, &[id(5), id(0), id(3)]);
        }
        // A star: from one leaf, a second leaf settles only the hub.
        let mut star = Graph::with_nodes(5);
        for leaf in 1..5 {
            star.add_link(id(0), id(leaf), leaf as f64).unwrap();
        }
        let settled = grow_and_compare(&star, id(3), &[id(1)]);
        assert_eq!(settled, [id(0), id(1), id(3)]);
        grow_and_compare(&star, id(0), &[id(4), id(2)]);
    }

    #[test]
    fn growing_tree_never_reaches_another_component() {
        // Nodes 0-1-2 in a triangle, 3-4 linked, 5 isolated.
        let mut g = Graph::with_nodes(6);
        let id = NodeId::new;
        for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4)] {
            g.add_link(id(a), id(b), 1.0).unwrap();
        }
        let settled = grow_and_compare(&g, id(1), &[id(4), id(5), id(2), id(3)]);
        assert_eq!(settled, [id(0), id(1), id(2)]);
        let settled = grow_and_compare(&g, id(5), &[id(0), id(5)]);
        assert_eq!(settled, [id(5)]);
        let mut isolated = GrowingSpt::new(&g, id(5));
        assert_eq!(isolated.path_to(id(5)).map(|p| p.hop_count()), Some(0));
        assert_eq!(isolated.path_to(id(4)), None);
        assert_eq!(isolated.distance(id(4)), None);
    }

    #[test]
    fn growing_tree_continues_an_ordered_drain() {
        // Delays across eighteen decades on a chain of triangles: sums
        // absorb the small delays, so the ordered drain decides ties.
        let mut g = Graph::with_nodes(41);
        let id = NodeId::new;
        for i in 0..20 {
            let k = |j: usize| 10f64.powi(((i * 7 + j) % 19) as i32 - 9);
            g.add_link(id(2 * i), id(2 * i + 1), k(0)).unwrap();
            g.add_link(id(2 * i + 1), id(2 * i + 2), k(3)).unwrap();
            g.add_link(id(2 * i), id(2 * i + 2), k(5)).unwrap();
        }
        assert!(Buckets::for_graph(&g).ordered);
        for src in [0, 7, 20, 40] {
            grow_and_compare(&g, id(src), &[id(40), id(0), id(13)]);
            grow_and_compare(&g, id(src), &[id(21), id(3)]);
        }
    }

    #[test]
    fn failed_node_blocks_paths() {
        let (g, [s, a, b, _, d]) = figure1_graph();
        let mut failures = FailureScenario::node(a);
        failures.fail_node(b);
        let p = shortest_path_constrained(&g, s, d, Constraints::avoiding_failures(&failures));
        assert!(p.is_none());
    }
}
