//! The undirected weighted graph at the heart of the substrate.
//!
//! Nodes and links live in arenas and are addressed through [`NodeId`] and
//! [`LinkId`]. Each link carries two weights, mirroring the paper's
//! evaluation metrics:
//!
//! * **delay** — used for path lengths, end-to-end delay `D_{S,R}` and the
//!   recovery distance `RD_R`;
//! * **cost** — summed over tree links to produce the tree cost `Cost_T`.
//!
//! The paper's figures annotate links with a single number acting as both,
//! so generators default to `cost == delay`, but the two are kept separate so
//! unit-cost experiments ("tree cost as link count") remain expressible.

use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use serde::{Deserialize, Serialize};

use crate::blocks::Blocks;
use crate::dijkstra::ShortestPathTree;
use crate::error::NetError;
use crate::geometry::Point;
use crate::ids::{LinkId, NodeId};

/// Weights attached to a link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkWeights {
    /// Propagation delay of the link (the paper's per-link number).
    pub delay: f64,
    /// Cost of including the link in a multicast tree.
    pub cost: f64,
}

impl LinkWeights {
    /// Creates weights with identical delay and cost, the paper's default.
    #[inline]
    pub(crate) fn symmetric(value: f64) -> Self {
        LinkWeights {
            delay: value,
            cost: value,
        }
    }
}

/// An undirected link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    a: NodeId,
    b: NodeId,
    weights: LinkWeights,
}

impl Link {
    /// One endpoint of the link (the lower node id).
    #[inline]
    pub fn a(&self) -> NodeId {
        self.a
    }

    /// The other endpoint of the link (the higher node id).
    #[inline]
    pub fn b(&self) -> NodeId {
        self.b
    }

    /// Both endpoints as a pair `(a, b)` with `a < b`.
    #[inline]
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }

    /// Propagation delay of the link.
    #[inline]
    pub fn delay(&self) -> f64 {
        self.weights.delay
    }

    /// Tree-cost contribution of the link.
    #[inline]
    pub fn cost(&self) -> f64 {
        self.weights.cost
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct NodeRecord {
    position: Option<Point>,
    /// Adjacency: (neighbor, connecting link).
    adjacency: Vec<(NodeId, LinkId)>,
}

/// An undirected weighted graph.
///
/// Construction is additive only: experiments never remove nodes or links
/// from a topology; persistent failures are expressed with a
/// [`crate::FailureScenario`] mask layered on top instead, so that one graph
/// can be shared by many failure cases.
///
/// # Example
///
/// ```
/// use smrp_net::Graph;
///
/// # fn main() -> Result<(), smrp_net::NetError> {
/// let mut g = Graph::with_nodes(2);
/// let (a, b) = (g.node_ids().next().unwrap(), g.node_ids().last().unwrap());
/// let l = g.add_link(a, b, 2.5)?;
/// assert_eq!(g.link(l).endpoints(), (a, b));
/// assert_eq!(g.degree(a), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    nodes: Vec<NodeRecord>,
    links: Vec<Link>,
    /// `(min, max)` link delay, `(INF, 0)` without links. Kept up to date by
    /// [`Graph::add_link_weighted`], which is sound because links are never
    /// removed; the bucketed shortest-path search sizes its buckets by it.
    delay_range: (f64, f64),
    /// The last unrestricted tree [`ShortestPathTree::shared`] computed
    /// over this graph. Not part of the topology: every `&mut self` method
    /// empties it, and a clone or a deserialized graph starts without one.
    spt: SptSlot,
    /// Every node's arcs in one array, built by the first
    /// [`Graph::arcs`] call. Derived like `spt`, with the same lifecycle.
    arcs: Derived<ArcView>,
    /// The biconnected blocks and block-cut forest, built by the first
    /// `Graph::blocks` call, with the same lifecycle.
    blocks: Derived<Blocks>,
}

/// At most one shared source SPT, behind a lock so `&Graph` can fill it.
/// A poisoned lock is recovered: every update is one assignment, so the
/// slot always holds either nothing or a complete tree.
#[derive(Default)]
struct SptSlot(Mutex<Option<Arc<ShortestPathTree>>>);

impl SptSlot {
    fn clear(&mut self) {
        *self.0.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

impl Clone for SptSlot {
    fn clone(&self) -> Self {
        SptSlot::default()
    }
}

impl fmt::Debug for SptSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SptSlot")
    }
}

/// The graph's arcs in one flat array: node `i`'s are
/// `arcs[offsets[i]..offsets[i + 1]]`, as `(neighbor, link, delay)` in
/// adjacency order, so a search reads each arc's delay without a second
/// lookup in the link table.
struct ArcView {
    offsets: Vec<u32>,
    arcs: Vec<(NodeId, LinkId, f64)>,
}

impl ArcView {
    fn build(nodes: &[NodeRecord], links: &[Link]) -> Self {
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        let mut arcs = Vec::with_capacity(2 * links.len());
        offsets.push(0);
        for node in nodes {
            arcs.extend(
                node.adjacency
                    .iter()
                    .map(|&(v, l)| (v, l, links[l.index()].delay())),
            );
            offsets.push(arcs.len() as u32);
        }
        ArcView { offsets, arcs }
    }
}

/// At most one `T` derived from the topology, filled on first read
/// through `&Graph`. A clone starts without one.
struct Derived<T>(OnceLock<T>);

impl<T> Default for Derived<T> {
    fn default() -> Self {
        Derived(OnceLock::new())
    }
}

impl<T> Clone for Derived<T> {
    fn clone(&self) -> Self {
        Derived::default()
    }
}

impl<T> fmt::Debug for Derived<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Derived")
    }
}

// Written out because the offline serde derive has no `#[serde(skip)]`:
// the serialized form is the topology, `nodes` and `links`, and nothing else.
impl Serialize for Graph {
    fn serialize(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("nodes".to_string(), self.nodes.serialize()),
            ("links".to_string(), self.links.serialize()),
        ])
    }
}

impl Deserialize for Graph {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let nodes = Deserialize::deserialize(serde::field(value, "nodes")?)?;
        let links: Vec<Link> = Deserialize::deserialize(serde::field(value, "links")?)?;
        let delay_range = links.iter().map(Link::delay).fold(NO_DELAYS, widen);
        Ok(Graph {
            nodes,
            links,
            delay_range,
            spt: SptSlot::default(),
            arcs: Derived::default(),
            blocks: Derived::default(),
        })
    }
}

/// The delay range of a graph without links.
const NO_DELAYS: (f64, f64) = (f64::INFINITY, 0.0);

/// `range` widened to cover `delay`.
fn widen((min, max): (f64, f64), delay: f64) -> (f64, f64) {
    (min.min(delay), max.max(delay))
}

impl Default for Graph {
    fn default() -> Self {
        Graph {
            nodes: Vec::new(),
            links: Vec::new(),
            delay_range: NO_DELAYS,
            spt: SptSlot::default(),
            arcs: Derived::default(),
            blocks: Derived::default(),
        }
    }
}

impl Graph {
    /// Creates an empty graph.
    pub(crate) fn new() -> Self {
        Graph::default()
    }

    /// Creates a graph with `n` isolated nodes and no positions.
    pub fn with_nodes(n: usize) -> Self {
        let mut g = Graph::new();
        for _ in 0..n {
            g.add_node();
        }
        g
    }

    /// Adds a node without a plane position and returns its id.
    pub(crate) fn add_node(&mut self) -> NodeId {
        self.clear_derived();
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(NodeRecord {
            position: None,
            adjacency: Vec::new(),
        });
        id
    }

    /// Adds a node placed at `position` and returns its id.
    pub(crate) fn add_node_at(&mut self, position: Point) -> NodeId {
        let id = self.add_node();
        self.nodes[id.index()].position = Some(position);
        id
    }

    /// Adds an undirected link with symmetric delay/cost `weight`.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is unknown, the endpoints are
    /// equal (self-loop), a link between them already exists, or the weight
    /// is not finite and positive.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, weight: f64) -> Result<LinkId, NetError> {
        self.add_link_weighted(a, b, LinkWeights::symmetric(weight))
    }

    /// Adds an undirected link with explicit delay and cost.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Graph::add_link`].
    pub fn add_link_weighted(
        &mut self,
        a: NodeId,
        b: NodeId,
        weights: LinkWeights,
    ) -> Result<LinkId, NetError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(NetError::SelfLoop(a));
        }
        for w in [weights.delay, weights.cost] {
            if !w.is_finite() || w <= 0.0 {
                return Err(NetError::InvalidWeight(w));
            }
        }
        if self.link_between(a, b).is_some() {
            return Err(NetError::DuplicateLink(a, b));
        }
        self.clear_derived();
        self.delay_range = widen(self.delay_range, weights.delay);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let id = LinkId::new(self.links.len());
        self.links.push(Link {
            a: lo,
            b: hi,
            weights,
        });
        self.nodes[a.index()].adjacency.push((b, id));
        self.nodes[b.index()].adjacency.push((a, id));
        Ok(id)
    }

    /// The tree in the shared-SPT slot if it is rooted at `source`, or
    /// else `None`.
    pub(crate) fn cached_spt(&self, source: NodeId) -> Option<Arc<ShortestPathTree>> {
        let slot = self.spt.0.lock().unwrap_or_else(PoisonError::into_inner);
        slot.as_ref().filter(|spt| spt.source() == source).cloned()
    }

    /// Puts `spt`, an unrestricted tree over this graph, in the
    /// shared-SPT slot. The tree it replaces is dropped.
    pub(crate) fn cache_spt(&self, spt: Arc<ShortestPathTree>) {
        *self.spt.0.lock().unwrap_or_else(PoisonError::into_inner) = Some(spt);
    }

    /// Empties the shared-SPT slot, the arc view and the blocks: all
    /// describe the topology as it was.
    fn clear_derived(&mut self) {
        self.spt.clear();
        self.arcs.0.take();
        self.blocks.0.take();
    }

    fn check_node(&self, n: NodeId) -> Result<(), NetError> {
        if n.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(NetError::UnknownNode(n))
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Whether the graph contains `node`.
    #[inline]
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.nodes.len()
    }

    /// Iterator over all node ids in index order.
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// Iterator over all link ids in index order.
    pub fn link_ids(&self) -> impl DoubleEndedIterator<Item = LinkId> + ExactSizeIterator {
        (0..self.links.len()).map(LinkId::new)
    }

    /// Returns the link record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Plane position of `node`, if it was placed with
    /// `Graph::add_node_at`.
    #[inline]
    pub fn position(&self, node: NodeId) -> Option<Point> {
        self.nodes[node.index()].position
    }

    /// Adjacency list of `node` as `(neighbor, link)` pairs in insertion
    /// order.
    #[inline]
    pub fn adjacency(&self, node: NodeId) -> &[(NodeId, LinkId)] {
        &self.nodes[node.index()].adjacency
    }

    /// `node`'s arcs as `(neighbor, link, delay)` triples in
    /// [`adjacency`](Self::adjacency) order, the delay being
    /// `link(link).delay()`.
    ///
    /// Every arc of the graph sits in one array that the first call builds
    /// and every `&mut self` method empties, so a search reads one
    /// contiguous run per node. A clone or a deserialized graph builds its
    /// own.
    #[inline]
    pub fn arcs(&self, node: NodeId) -> &[(NodeId, LinkId, f64)] {
        let view = self
            .arcs
            .0
            .get_or_init(|| ArcView::build(&self.nodes, &self.links));
        let i = node.index();
        &view.arcs[view.offsets[i] as usize..view.offsets[i + 1] as usize]
    }

    /// The graph's biconnected blocks and block-cut forest, built by the
    /// first call and emptied by every `&mut self` method, like
    /// [`arcs`](Self::arcs).
    pub(crate) fn blocks(&self) -> &Blocks {
        self.blocks.0.get_or_init(|| Blocks::build(self))
    }

    /// Iterator over the neighbors of `node`.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency(node).iter().map(|&(n, _)| n)
    }

    /// Degree (number of incident links) of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency(node).len()
    }

    /// The link connecting `a` and `b`, if any.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        if !self.contains_node(a) || !self.contains_node(b) {
            return None;
        }
        // Scan the smaller adjacency list.
        let (probe, target) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.adjacency(probe)
            .iter()
            .find(|&&(n, _)| n == target)
            .map(|&(_, l)| l)
    }

    /// Delay of the link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownLink`] if no such link exists (reported
    /// with a placeholder id since no id exists).
    pub fn delay_between(&self, a: NodeId, b: NodeId) -> Result<f64, NetError> {
        self.link_between(a, b)
            .map(|l| self.link(l).delay())
            .ok_or(NetError::UnknownLink(LinkId::new(usize::MAX >> 8)))
    }

    /// Average node degree `2·|E| / |V|`.
    ///
    /// Figure 9 of the paper annotates each `α` value with this quantity.
    pub fn average_degree(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        2.0 * self.links.len() as f64 / self.nodes.len() as f64
    }

    /// Smallest and largest link delay, `(f64::INFINITY, 0.0)` for a graph
    /// without links.
    #[inline]
    pub(crate) fn delay_range(&self) -> (f64, f64) {
        self.delay_range
    }

    /// Extracts the subgraph induced by `nodes`, preserving positions and
    /// weights.
    ///
    /// Returns the new graph plus the mapping from new node ids to the
    /// original ids (`mapping[new.index()] == old`). Nodes are renumbered
    /// densely in the order given; duplicate entries are ignored after the
    /// first occurrence. Links keep their relative order (ascending id in
    /// `self`).
    ///
    /// Costs O(k log k + Σ deg · log k) for the k distinct nodes: induced
    /// links are found from the kept nodes' own adjacency lists, and
    /// membership is a search in a table of those k nodes, so nothing is
    /// sized to `self`.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        // `(old, position of its first occurrence)`, sorted by old id.
        let mut to_new: Vec<(NodeId, usize)> =
            nodes.iter().enumerate().map(|(i, &old)| (old, i)).collect();
        to_new.sort_unstable();
        to_new.dedup_by_key(|e| e.0);
        // New ids follow first occurrences; rewrite positions into them.
        let mut firsts: Vec<usize> = to_new.iter().map(|e| e.1).collect();
        firsts.sort_unstable();
        for e in &mut to_new {
            e.1 = firsts.binary_search(&e.1).expect("a kept first occurrence");
        }
        let new_id = |old: NodeId| {
            to_new
                .binary_search_by_key(&old, |e| e.0)
                .ok()
                .map(|i| NodeId::new(to_new[i].1))
        };

        let mut sub = Graph::new();
        let mapping: Vec<NodeId> = firsts.iter().map(|&i| nodes[i]).collect();
        let mut induced = Vec::new();
        for &old in &mapping {
            let a = match self.position(old) {
                Some(p) => sub.add_node_at(p),
                None => sub.add_node(),
            };
            for &(v, l) in self.adjacency(old) {
                // Each link once, from its lower endpoint.
                if old < v {
                    if let Some(b) = new_id(v) {
                        induced.push((l, a, b));
                    }
                }
            }
        }
        induced.sort_unstable_by_key(|e| e.0);
        for (l, a, b) in induced {
            sub.add_link_weighted(a, b, self.links[l.index()].weights)
                .expect("induced links are fresh and valid");
        }
        (sub, mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph, [NodeId; 3], [LinkId; 3]) {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let ab = g.add_link(a, b, 1.0).unwrap();
        let bc = g.add_link(b, c, 2.0).unwrap();
        let ca = g.add_link(c, a, 3.0).unwrap();
        (g, [a, b, c], [ab, bc, ca])
    }

    #[test]
    fn counts_and_ids_are_dense() {
        let (g, nodes, links) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 3);
        assert_eq!(g.node_ids().collect::<Vec<_>>(), nodes.to_vec());
        assert_eq!(g.link_ids().collect::<Vec<_>>(), links.to_vec());
    }

    #[test]
    fn adjacency_is_symmetric() {
        let (g, [a, b, c], _) = triangle();
        assert!(g.neighbors(a).any(|n| n == b));
        assert!(g.neighbors(b).any(|n| n == a));
        assert_eq!(g.degree(c), 2);
    }

    #[test]
    fn link_between_finds_either_direction() {
        let (g, [a, b, _], [ab, ..]) = triangle();
        assert_eq!(g.link_between(a, b), Some(ab));
        assert_eq!(g.link_between(b, a), Some(ab));
    }

    #[test]
    fn link_between_missing_is_none() {
        let mut g = Graph::with_nodes(3);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert_eq!(g.link_between(a, b), None);
        g.add_link(a, b, 1.0).unwrap();
        assert_eq!(g.link_between(a, NodeId::new(2)), None);
        assert_eq!(g.link_between(NodeId::new(9), a), None);
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut g = Graph::with_nodes(1);
        let a = NodeId::new(0);
        assert_eq!(g.add_link(a, a, 1.0), Err(NetError::SelfLoop(a)));
    }

    #[test]
    fn duplicate_links_are_rejected() {
        let mut g = Graph::with_nodes(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        g.add_link(a, b, 1.0).unwrap();
        assert!(matches!(
            g.add_link(b, a, 2.0),
            Err(NetError::DuplicateLink(_, _))
        ));
    }

    #[test]
    fn nonpositive_and_nonfinite_weights_are_rejected() {
        let mut g = Graph::with_nodes(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                g.add_link(a, b, bad),
                Err(NetError::InvalidWeight(_))
            ));
        }
    }

    #[test]
    fn unknown_endpoints_are_rejected() {
        let mut g = Graph::with_nodes(1);
        let a = NodeId::new(0);
        let ghost = NodeId::new(42);
        assert_eq!(g.add_link(a, ghost, 1.0), Err(NetError::UnknownNode(ghost)));
    }

    #[test]
    fn endpoints_are_ordered() {
        let mut g = Graph::with_nodes(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let l = g.add_link(b, a, 1.0).unwrap();
        assert_eq!(g.link(l).endpoints(), (a, b));
    }

    #[test]
    fn average_degree_of_triangle_is_two() {
        let (g, _, _) = triangle();
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        assert_eq!(Graph::new().average_degree(), 0.0);
    }

    #[test]
    fn asymmetric_weights_are_kept() {
        let mut g = Graph::with_nodes(2);
        let l = g
            .add_link_weighted(
                NodeId::new(0),
                NodeId::new(1),
                LinkWeights {
                    delay: 1.0,
                    cost: 7.0,
                },
            )
            .unwrap();
        assert_eq!(g.link(l).delay(), 1.0);
        assert_eq!(g.link(l).cost(), 7.0);
    }

    #[test]
    fn positions_round_trip() {
        let mut g = Graph::new();
        let p = Point::new(0.25, 0.75);
        let n = g.add_node_at(p);
        assert_eq!(g.position(n), Some(p));
        let m = g.add_node();
        assert_eq!(g.position(m), None);
    }

    #[test]
    fn induced_subgraph_keeps_internal_links() {
        let (g, [a, b, c], _) = triangle();
        let (sub, mapping) = g.induced_subgraph(&[a, c]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.link_count(), 1); // only the C-A link survives.
        assert_eq!(mapping, vec![a, c]);
        let l = sub.link(sub.link_ids().next().unwrap());
        assert_eq!(l.delay(), 3.0);
        let _ = b;
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let (g, [a, b, _], _) = triangle();
        let (sub, mapping) = g.induced_subgraph(&[a, b, a]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(mapping, vec![a, b]);
    }

    #[test]
    fn delay_range_follows_links_clones_and_deserialization() {
        assert_eq!(Graph::new().delay_range(), (f64::INFINITY, 0.0));
        assert_eq!(Graph::with_nodes(3).delay_range(), (f64::INFINITY, 0.0));

        let (mut g, [a, b, c], _) = triangle();
        assert_eq!(g.delay_range(), (1.0, 3.0));
        let d = g.add_node();
        assert_eq!(g.delay_range(), (1.0, 3.0));
        g.add_link_weighted(
            a,
            d,
            LinkWeights {
                delay: 0.25,
                cost: 9.0,
            },
        )
        .unwrap();
        assert_eq!(g.delay_range(), (0.25, 3.0), "cost does not count");
        // A rejected link leaves the range alone.
        assert!(g.add_link(b, c, 100.0).is_err());
        assert!(g.add_link(b, d, f64::NAN).is_err());
        assert_eq!(g.delay_range(), (0.25, 3.0));
        g.add_link(c, d, 7.5).unwrap();
        assert_eq!(g.delay_range(), (0.25, 7.5));

        assert_eq!(g.clone().delay_range(), (0.25, 7.5));
        let back: Graph = Deserialize::deserialize(&g.serialize()).unwrap();
        assert_eq!(back.delay_range(), (0.25, 7.5));
        let empty: Graph = Deserialize::deserialize(&Graph::with_nodes(2).serialize()).unwrap();
        assert_eq!(empty.delay_range(), (f64::INFINITY, 0.0));
    }

    /// `g.arcs(u)` for every node, delays as bits.
    fn all_arcs(g: &Graph) -> Vec<Vec<(NodeId, LinkId, u64)>> {
        g.node_ids()
            .map(|u| {
                g.arcs(u)
                    .iter()
                    .map(|&(v, l, w)| (v, l, w.to_bits()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn blocks_follow_mutation_clones_and_deserialization() {
        let (mut g, [a, ..], [ab, ..]) = triangle();
        assert_eq!(g.blocks().count(), 1);
        assert!(g.clone().blocks.0.get().is_none());
        let back: Graph = Deserialize::deserialize(&g.serialize()).unwrap();
        assert!(back.blocks.0.get().is_none());
        assert_eq!(back.blocks().of_link(ab), 0);

        // A pendant node is a block of its own once linked.
        let d = g.add_node();
        assert!(g.blocks.0.get().is_none());
        assert_eq!(g.blocks().count(), 1);
        let ad = g.add_link(a, d, 0.5).unwrap();
        assert!(g.blocks.0.get().is_none());
        let blocks = g.blocks();
        assert_eq!(blocks.count(), 2);
        assert_ne!(blocks.of_link(ad), blocks.of_link(ab));
    }

    #[test]
    fn arc_view_follows_mutation_clones_and_deserialization() {
        use crate::dijkstra::ShortestPathTree;

        let (mut g, [a, b, c], [ab, bc, ca]) = triangle();
        assert_eq!(g.arcs(a), &[(b, ab, 1.0), (c, ca, 3.0)]);
        assert_eq!(ShortestPathTree::compute(&g, a).distance(c), Some(3.0));

        // A search built the view; a new link must not be missed by the next.
        let d = g.add_node();
        assert_eq!(g.arcs(d), &[]);
        let weights = LinkWeights {
            delay: 0.5,
            cost: 4.0,
        };
        let ad = g.add_link_weighted(a, d, weights).unwrap();
        let dc = g.add_link(d, c, 0.25).unwrap();
        assert_eq!(g.arcs(a), &[(b, ab, 1.0), (c, ca, 3.0), (d, ad, 0.5)]);
        assert_eq!(g.arcs(c), &[(b, bc, 2.0), (a, ca, 3.0), (d, dc, 0.25)]);
        let spt = ShortestPathTree::compute(&g, a);
        assert_eq!(spt.distance(c), Some(0.75));
        assert_eq!(spt.parent(c), Some(d));

        // A clone and a deserialized copy build views equal to the original,
        // and a mutation of the original reaches neither.
        let copy = g.clone();
        let back: Graph = Deserialize::deserialize(&g.serialize()).unwrap();
        assert_eq!(all_arcs(&copy), all_arcs(&g));
        assert_eq!(all_arcs(&back), all_arcs(&g));
        g.add_link(b, d, 9.0).unwrap();
        assert_eq!(g.degree(d), 3);
        assert_eq!(copy.arcs(d).len(), 2);
        assert_eq!(back.arcs(d).len(), 2);
        let want: Vec<Vec<_>> = g
            .node_ids()
            .map(|u| {
                g.adjacency(u)
                    .iter()
                    .map(|&(v, l)| (v, l, g.link(l).delay().to_bits()))
                    .collect()
            })
            .collect();
        assert_eq!(all_arcs(&g), want);
    }

    #[test]
    fn delay_between_connected_and_missing() {
        let (g, [a, b, c], _) = triangle();
        assert_eq!(g.delay_between(a, b).unwrap(), 1.0);
        assert_eq!(g.delay_between(b, c).unwrap(), 2.0);
        let mut g2 = Graph::with_nodes(2);
        g2.add_link(NodeId::new(0), NodeId::new(1), 5.0).unwrap();
        assert!(g2.delay_between(NodeId::new(0), NodeId::new(1)).is_ok());
        let (g3, _, _) = triangle();
        let mut g4 = g3.clone();
        let d = g4.add_node();
        assert!(g4.delay_between(a, d).is_err());
    }
}
