//! The multicast tree shared by SMRP and the SPF baseline.
//!
//! A [`MulticastTree`] is a Steiner tree over the nodes of a
//! [`smrp_net::Graph`], rooted at the multicast source. On-tree nodes are
//! either *members* (receivers) or *relays* (forwarding-only). Every on-tree
//! node `R` carries the state the paper's Figure 3 prescribes:
//!
//! * `N_R` — the number of members in the subtree rooted at `R`
//!   (equivalently `N_L` for the upstream link `L(R, R_u)`, since everyone
//!   in the subtree receives through that link);
//! * `SHR(S,R)` — the sharing metric of Eq. 1, read through the recurrence
//!   of Eq. 2: `SHR(S,R) = SHR(S,R_u) + N_R`, `SHR(S,S)=0`.
//!
//! The per-downstream-interface counts `N_R^i` of the paper are simply the
//! `N` values of `R`'s children, exposed by [`MulticastTree::downstream_counts`].
//!
//! Mutation happens through a small set of operations —
//! [`MulticastTree::attach_path`], [`MulticastTree::set_member`],
//! [`MulticastTree::prune_from`], [`MulticastTree::detach_subtree`] — out of which the
//! join/leave/reshape procedures of [`crate::session`] are composed.
//!
//! # What a membership operation costs
//!
//! A join or reshape pays for its tree path, not for the whole tree:
//!
//! * **`N` is incremental.** A mutation that changes the member count of
//!   the subtree below a pivot node `P` by `δ` adds `δ` to `N_R` of every
//!   node on the tree path `S → P`, and to nothing else: O(depth). Pruning
//!   a relay chain needs no propagation at all, because prunable relays
//!   carry `N_R = 0` by definition.
//! * **`SHR` is read when asked.** §3.3.2 recomputes `SHR` "only when a
//!   query needs it", and the join (§3.2.2) and Condition I/II reshaping
//!   (§3.2.3) ask for it only at candidate mergers and members.
//!   [`shr`](MulticastTree::shr) is therefore not stored: it is Eq. 2
//!   unrolled, the sum of `N` up the parent chain, O(depth) per read. An
//!   off-tree node reads 0.
//! * **The source SPT is shared.** The other per-source input, the unicast
//!   shortest-path tree behind `D_SPF` and the neighbor-query relay routes,
//!   comes from [`ShortestPathTree::shared`](smrp_net::dijkstra::ShortestPathTree::shared):
//!   one slot on the graph keeps the last unrestricted tree. On the
//!   benchmark's `join_scale` workload (two SMRP arms, their audits and an
//!   SPF arm per group, all from one source) it answers 4 of the 5 calls
//!   per group; on `multigroup_cut`, where every group has its own source,
//!   it almost never hits.
//!
//! # What a tree costs to hold
//!
//! A session's tree spans a few dozen nodes of a graph of thousands, so
//! it keeps the per-node state of Figure 3 — parent, `N`, weight and the
//! child list — only for on-tree nodes, one 28-byte record each. What
//! stays graph-sized is two bits per node, the `on_tree` and `member`
//! bitsets. A hash map from node id to record finds an on-tree node's
//! record in O(1). Records do not move while their node is on the tree,
//! so each keeps its parent's place and a walk toward the source reads
//! records only; a node that joins takes over the record of one that
//! left, if any. Child lists sit in one vector per tree, each in a block
//! with room to grow: a full block moves to the end with twice the room,
//! and the gaps close once they are half the vector. [`MulticastTree::new`]
//! thus asks for n/4 bytes and the source's record and map entries
//! (≈ 1.2 KB at n = 4 000, where the per-node vectors it replaced asked
//! for ≈ 65 KB). Equality compares shapes, not where records and blocks
//! happen to sit, so two trees of one shape compare equal whatever their
//! history.
//!
//! [`recompute_stats`](MulticastTree::recompute_stats) retains the
//! from-scratch evaluation of `N` and serves as the oracle: under
//! `debug_assertions` (or the `audit-stats` feature) every mutating
//! operation re-derives `N` from scratch afterwards and asserts the
//! incremental state matches; [`validate`](MulticastTree::validate)
//! additionally re-checks [`shr`](MulticastTree::shr) against the Eq. 1
//! link-sharing definition, independent of the Eq. 2 recurrence.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};
use smrp_net::{Graph, LinkId, NodeId, Path};

use crate::error::SmrpError;

/// A rooted multicast (Steiner) tree with SMRP bookkeeping.
///
/// See the module documentation for the maintained state and its layout.
#[derive(Debug, Clone)]
pub struct MulticastTree {
    source: NodeId,
    /// Nodes of the graph.
    nodes: usize,
    on_tree: NodeSet,
    member: NodeSet,
    /// Where each on-tree node's record is in `records`.
    index: HashMap<NodeId, u32, BuildHasherDefault<NodeHasher>>,
    /// The records; those of nodes that left the tree stay behind, listed
    /// in `free`, until a node that joins takes one over.
    records: Vec<Record>,
    free: Vec<u32>,
    /// The child lists of every on-tree node, each in a block of this
    /// vector its record points to.
    children: Vec<NodeId>,
    /// Entries of `children` in no record's block.
    spare: usize,
    member_count: usize,
    /// Whether a weight was ever set: only then does the serialized form
    /// list every node's weight, which keeps unweighted trees
    /// byte-compatible.
    weighted: bool,
}

/// What the tree holds for an on-tree node.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// Upstream node `R_u` as its index plus one; 0 for the source and for
    /// a temporarily detached fragment root.
    parent: u32,
    /// Where the parent's record is, plus one (0 with `parent`): records
    /// stay where they are while their node is on the tree, so a walk up
    /// the tree reads records only.
    up: u32,
    /// `N_R`: members in the subtree rooted here, each weighted by its
    /// aggregated population (see [`set_member_weight`]).
    ///
    /// [`set_member_weight`]: MulticastTree::set_member_weight
    n: u32,
    /// Aggregated receiver population behind a member (1 = a plain
    /// receiver, and for every non-member).
    weight: u32,
    /// The block of `MulticastTree::children` holding the downstream
    /// interfaces, in the order they were attached: `len` of them from
    /// `start`, room for `cap`.
    start: u32,
    len: u32,
    cap: u32,
}

impl Record {
    /// A record without parent, children or members.
    fn new() -> Self {
        Record {
            parent: 0,
            up: 0,
            n: 0,
            weight: 1,
            start: 0,
            len: 0,
            cap: 0,
        }
    }

    #[inline]
    fn parent(&self) -> Option<NodeId> {
        self.parent.checked_sub(1).map(|i| NodeId::new(i as usize))
    }

    /// Index of the parent's record.
    #[inline]
    fn up(&self) -> Option<usize> {
        self.up.checked_sub(1).map(|at| at as usize)
    }

    #[inline]
    fn children(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Equal shapes, whatever their history: where records and child lists
/// are kept, and the room left around them, are not compared.
impl PartialEq for MulticastTree {
    fn eq(&self, other: &Self) -> bool {
        let same_record = |a: usize, b: usize| {
            let (a, b) = (&self.records[a], &other.records[b]);
            (a.parent, a.n, a.weight) == (b.parent, b.n, b.weight)
                && self.children[a.children()] == other.children[b.children()]
        };
        (self.source, self.nodes, self.member_count, self.weighted)
            == (
                other.source,
                other.nodes,
                other.member_count,
                other.weighted,
            )
            && self.on_tree == other.on_tree
            && self.member == other.member
            && self
                .on_tree
                .iter()
                .all(|v| same_record(self.slot_of(v), other.slot_of(v)))
    }
}

/// A set of node ids, one bit per node of the graph.
#[derive(Debug, Clone, PartialEq)]
struct NodeSet(Vec<u64>);

impl NodeSet {
    fn empty(nodes: usize) -> Self {
        NodeSet(vec![0; nodes.div_ceil(64)])
    }

    #[inline]
    fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    #[inline]
    fn insert(&mut self, node: NodeId) {
        let i = node.index();
        self.0[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn remove(&mut self, node: NodeId) {
        let i = node.index();
        self.0[i / 64] &= !(1 << (i % 64));
    }

    /// The members in ascending id order.
    fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.0.iter().enumerate().flat_map(|(word, &bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    NodeId::new(word * 64 + bit)
                })
            })
        })
    }
}

/// Hashes a node id with one multiplication (Fibonacci hashing): ids are
/// small dense integers, and the table takes its bucket from the low bits
/// and its tag from the high ones.
#[derive(Default)]
struct NodeHasher(u64);

impl Hasher for NodeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("node ids hash through write_u32");
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// What a detach removes (planned by [`MulticastTree::plan_detach`],
/// done by [`MulticastTree::detach_planned`]): enough to restore the tree
/// exactly with [`MulticastTree::reattach`].
#[derive(Debug, PartialEq)]
pub(crate) struct Detached {
    /// Root of the detached fragment.
    node: NodeId,
    /// First surviving ancestor of the fragment.
    anchor: NodeId,
    /// What [`MulticastTree::detach_subtree`] reports as the node the
    /// fragment hung off (see the defect noted there).
    keeper: NodeId,
    /// Relays pruned between `node` and `anchor`, bottom-up (`node`'s old
    /// parent first). Each had the chain below it as its only child.
    relays: Vec<NodeId>,
    /// Index among `anchor`'s children that the top of the removed chain
    /// (`node` itself when no relay was pruned) occupied.
    slot: usize,
    /// `N` of the fragment at detach time.
    removed: u32,
}

impl Detached {
    /// The node the fragment is reported to have hung off.
    pub(crate) fn keeper(&self) -> NodeId {
        self.keeper
    }

    /// Hands back the relay list's buffer for the next
    /// [`plan_detach`](MulticastTree::plan_detach).
    pub(crate) fn into_relays(self) -> Vec<NodeId> {
        self.relays
    }
}

// Written out because the form is not the layout: dense per-node lists,
// node by node in id order (an off-tree node reads no parent, no children,
// `N = 0` and weight 1), and `weight` empty until a weight is set.
impl Serialize for MulticastTree {
    fn serialize(&self) -> serde::Value {
        let nodes = || (0..self.nodes).map(NodeId::new);
        let parent: Vec<Option<NodeId>> = nodes().map(|v| self.parent(v)).collect();
        let children: Vec<&[NodeId]> = nodes().map(|v| self.children(v)).collect();
        let on_tree: Vec<bool> = nodes().map(|v| self.is_on_tree(v)).collect();
        let member: Vec<bool> = nodes().map(|v| self.is_member(v)).collect();
        let n: Vec<u32> = nodes().map(|v| self.subtree_members(v)).collect();
        let weight: Vec<u32> = if self.weighted {
            nodes().map(|v| self.weight_of(v)).collect()
        } else {
            Vec::new()
        };
        serde::Value::Map(vec![
            ("source".to_string(), self.source.serialize()),
            ("parent".to_string(), parent.serialize()),
            ("children".to_string(), children.serialize()),
            ("on_tree".to_string(), on_tree.serialize()),
            ("member".to_string(), member.serialize()),
            ("n".to_string(), n.serialize()),
            ("member_count".to_string(), self.member_count.serialize()),
            ("weight".to_string(), weight.serialize()),
        ])
    }
}

impl Deserialize for MulticastTree {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let read = |name| serde::field(value, name);
        let parent: Vec<Option<NodeId>> = Deserialize::deserialize(read("parent")?)?;
        let children: Vec<Vec<NodeId>> = Deserialize::deserialize(read("children")?)?;
        let on_tree: Vec<bool> = Deserialize::deserialize(read("on_tree")?)?;
        let member: Vec<bool> = Deserialize::deserialize(read("member")?)?;
        let n: Vec<u32> = Deserialize::deserialize(read("n")?)?;
        let weight: Vec<u32> = Deserialize::deserialize(read("weight")?)?;
        let source: NodeId = Deserialize::deserialize(read("source")?)?;
        let nodes = parent.len();
        let in_range = |v: &NodeId| v.index() < nodes;
        let off_tree_blank = |i: usize| {
            on_tree[i]
                || (parent[i].is_none()
                    && children[i].is_empty()
                    && n[i] == 0
                    && weight.get(i).is_none_or(|&w| w == 1))
        };
        if [children.len(), on_tree.len(), member.len(), n.len()] != [nodes; 4]
            || !(weight.is_empty() || weight.len() == nodes)
            || !in_range(&source)
            || !parent
                .iter()
                .flatten()
                .chain(children.iter().flatten())
                .all(in_range)
            || !(0..nodes).all(off_tree_blank)
            || !parent.iter().flatten().all(|p| on_tree[p.index()])
        {
            return Err(serde::Error::custom("inconsistent per-node tree state"));
        }
        let mut tree = MulticastTree::bare(source, nodes);
        for (i, list) in children.into_iter().enumerate() {
            let v = NodeId::new(i);
            if on_tree[i] {
                tree.on_tree.insert(v);
                tree.index.insert(v, tree.records.len() as u32);
                let (start, len) = (tree.children.len() as u32, list.len() as u32);
                tree.children.extend(list);
                tree.records.push(Record {
                    n: n[i],
                    weight: weight.get(i).copied().unwrap_or(1),
                    start,
                    len,
                    cap: len,
                    ..Record::new()
                });
            }
            if member[i] {
                tree.member.insert(v);
            }
        }
        for (at, v) in (0..nodes).filter(|&i| on_tree[i]).enumerate() {
            let up = parent[v].map(|p| (p, tree.slot(p).expect("checked on the tree")));
            tree.link(at, up);
        }

        tree.member_count = Deserialize::deserialize(read("member_count")?)?;
        tree.weighted = !weight.is_empty();
        Ok(tree)
    }
}

impl MulticastTree {
    /// Creates a tree containing only the source.
    ///
    /// # Errors
    ///
    /// Returns [`SmrpError::UnknownNode`] if `source` is not in `graph`.
    pub fn new(graph: &Graph, source: NodeId) -> Result<Self, SmrpError> {
        if !graph.contains_node(source) {
            return Err(SmrpError::UnknownNode(source));
        }
        let mut tree = MulticastTree::bare(source, graph.node_count());
        tree.insert_record(source, None);
        Ok(tree)
    }

    /// A tree over `nodes` nodes with nothing on it, not even `source`.
    fn bare(source: NodeId, nodes: usize) -> Self {
        MulticastTree {
            source,
            nodes,
            on_tree: NodeSet::empty(nodes),
            member: NodeSet::empty(nodes),
            index: HashMap::default(),
            records: Vec::new(),
            free: Vec::new(),
            children: Vec::new(),
            spare: 0,
            member_count: 0,
            weighted: false,
        }
    }

    /// Where `node`'s record is, if it is on the tree.
    #[inline]
    fn slot(&self, node: NodeId) -> Option<usize> {
        self.on_tree
            .contains(node)
            .then(|| self.index[&node] as usize)
    }

    #[inline]
    fn record(&self, node: NodeId) -> Option<&Record> {
        self.slot(node).map(|at| &self.records[at])
    }

    /// Where the record of `node`, which must be on the tree, is.
    #[inline]
    fn slot_of(&self, node: NodeId) -> usize {
        self.slot(node).expect("node is on the tree")
    }

    /// Puts an off-tree `node` on the tree below `parent` (with where its
    /// record is), with no children and `N = 0`, and returns where the
    /// node's record is.
    fn insert_record(&mut self, node: NodeId, parent: Option<(NodeId, usize)>) -> usize {
        debug_assert!(!self.is_on_tree(node), "{node} is on the tree already");
        self.on_tree.insert(node);
        let at = match self.free.pop() {
            Some(at) => {
                self.records[at as usize] = Record::new();
                at
            }
            None => {
                self.records.push(Record::new());
                self.records.len() as u32 - 1
            }
        };
        self.index.insert(node, at);
        self.link(at as usize, parent);
        at as usize
    }

    /// Takes an on-tree, childless `node` off the tree and returns its
    /// record.
    fn remove_record(&mut self, node: NodeId) -> Record {
        debug_assert!(self.children(node).is_empty(), "{node} has children");
        debug_assert!(self.is_on_tree(node), "{node} is not on the tree");
        let at = self.index.remove(&node).expect("node is on the tree");
        self.on_tree.remove(node);
        self.free.push(at);
        let removed = self.records[at as usize];
        self.spare += removed.cap as usize;
        removed
    }

    /// The parent of the node whose record is at `at`, and where the
    /// parent's record is.
    #[inline]
    fn step_up(&self, at: usize) -> Option<(NodeId, usize)> {
        let record = &self.records[at];
        Some((record.parent()?, record.up()?))
    }

    /// Sets the parent of the node whose record is at `at`: a node on the
    /// tree and where its record is.
    #[inline]
    fn link(&mut self, at: usize, parent: Option<(NodeId, usize)>) {
        let record = &mut self.records[at];
        record.parent = parent.map_or(0, |(p, _)| p.index() as u32 + 1);
        record.up = parent.map_or(0, |(_, up)| up as u32 + 1);
    }

    /// Inserts `child` into the child list of the record at `slot`, at
    /// `at` or last. A full block moves to the end of `children` with
    /// twice the room; once half of `children` is spare, every block moves
    /// up to close the gaps.
    fn insert_child(&mut self, slot: usize, at: Option<usize>, child: NodeId) {
        let mut record = self.records[slot];
        if record.len == record.cap {
            let start = self.children.len();
            self.children.extend_from_within(record.children());
            self.children
                .resize(start + (record.cap as usize * 2).max(1), child);
            self.spare += record.cap as usize;
            record.start = start as u32;
            record.cap = (record.cap * 2).max(1);
        }
        let at = at.unwrap_or(record.len as usize);
        record.len += 1;
        let list = &mut self.children[record.children()];
        list.copy_within(at..list.len() - 1, at + 1);
        list[at] = child;
        self.records[slot] = record;
        if self.spare * 2 > self.children.len() {
            self.close_gaps();
        }
    }

    /// Removes the child at `at` from the child list of the record at
    /// `slot`; its block keeps the room.
    fn remove_child(&mut self, slot: usize, at: usize) {
        let record = &mut self.records[slot];
        let list = &mut self.children[record.children()];
        list.copy_within(at + 1.., at);
        record.len -= 1;
    }

    /// Packs the child blocks, each keeping its room.
    fn close_gaps(&mut self) {
        let mut packed = Vec::with_capacity(self.children.len() - self.spare);
        for &at in self.index.values() {
            let record = &mut self.records[at as usize];
            let start = packed.len();
            packed
                .extend_from_slice(&self.children[record.start as usize..][..record.cap as usize]);
            record.start = start as u32;
        }
        self.children = packed;
        self.spare = 0;
    }

    /// The multicast source (tree root).
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Whether `node` is on the tree (member or relay).
    #[inline]
    pub fn is_on_tree(&self, node: NodeId) -> bool {
        self.on_tree.contains(node)
    }

    /// Whether `node` is a member (receiver).
    #[inline]
    pub fn is_member(&self, node: NodeId) -> bool {
        self.member.contains(node)
    }

    /// Upstream node `R_u` of `node`, if any.
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.record(node).and_then(Record::parent)
    }

    /// Children (downstream interfaces) of `node`.
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        self.record(node)
            .map_or(&[], |r| &self.children[r.children()])
    }

    /// `N_R`: number of members in the subtree rooted at `node`.
    #[inline]
    pub fn subtree_members(&self, node: NodeId) -> u32 {
        self.record(node).map_or(0, |r| r.n)
    }

    /// `SHR(S, node)` — the sharing metric of Eq. 1, read per §3.3.2 when
    /// asked: Eq. 2 unrolled, the sum of `N` over the tree path `S → node`
    /// without the source. 0 for the source and for an off-tree node.
    pub fn shr(&self, node: NodeId) -> u32 {
        let Some(mut at) = self.slot(node) else {
            return 0;
        };
        let mut shr = 0;
        while let Some(up) = self.records[at].up() {
            shr += self.records[at].n;
            at = up;
        }
        shr
    }

    /// Number of members (attachment points; aggregated populations count
    /// once — see [`population`](Self::population) for receiver totals).
    #[inline]
    pub fn member_count(&self) -> usize {
        self.member_count
    }

    /// Aggregated receiver population behind `node`'s membership: 1 for a
    /// plain member, the configured weight for an aggregated attachment
    /// point, 0 for a non-member.
    #[inline]
    pub fn member_weight(&self, node: NodeId) -> u32 {
        if self.is_member(node) {
            self.weight_of(node)
        } else {
            0
        }
    }

    /// Total receiver population over all members (sum of member weights).
    pub fn population(&self) -> u64 {
        self.members().map(|m| u64::from(self.weight_of(m))).sum()
    }

    /// `node`'s weight: 1 for an off-tree node.
    #[inline]
    fn weight_of(&self, node: NodeId) -> u32 {
        self.record(node).map_or(1, |r| r.weight)
    }

    /// Iterator over members in node-id order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.member.iter()
    }

    /// Iterator over all on-tree nodes in node-id order.
    pub fn on_tree_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.on_tree.iter()
    }

    /// On-tree nodes reachable from the source through parent/child links —
    /// excludes any temporarily detached fragment.
    pub fn source_connected_nodes(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![self.source];
        while let Some(u) = stack.pop() {
            out.push(u);
            stack.extend_from_slice(self.children(u));
        }
        out
    }

    /// The on-tree path from the source to `node` (`P_T(S, R)` in the
    /// paper), or `None` if `node` is off-tree or detached.
    pub fn path_from_source(&self, node: NodeId) -> Option<Path> {
        let first = self.slot(node)?;
        let (mut hops, mut cur, mut at) = (0, node, first);
        while cur != self.source {
            (cur, at) = self.step_up(at)?;
            hops += 1;
        }
        // Filled from the member end, so the one allocation is exact.
        let mut nodes = vec![node; hops + 1];
        let mut at = first;
        for i in (0..hops).rev() {
            (nodes[i], at) = self.step_up(at).expect("walked above");
        }
        Some(Path::new(nodes))
    }

    /// End-to-end tree delay `D_{S,R}` from the source to `node`.
    ///
    /// Returns `None` for off-tree or detached nodes.
    pub fn delay_to(&self, graph: &Graph, node: NodeId) -> Option<f64> {
        if !self.is_on_tree(node) {
            return None;
        }
        // Upstream-link delays, collected walking up and summed source-first
        // so the result is bit-identical to `path_from_source(..).delay(..)`:
        // the first `NEAR` on the stack, any deeper ones in `far`.
        const NEAR: usize = 32;
        let mut near = [0.0; NEAR];
        let mut far = Vec::new();
        let mut hops = 0;
        let mut cur = node;
        let mut at = self.slot(node)?;
        while cur != self.source {
            let p;
            (p, at) = self.step_up(at)?;
            let delay = graph
                .delay_between(cur, p)
                .expect("tree edges correspond to graph links");
            match near.get_mut(hops) {
                Some(slot) => *slot = delay,
                None => far.push(delay),
            }
            hops += 1;
            cur = p;
        }
        let near = &near[..hops.min(NEAR)];
        Some(far.iter().rev().chain(near.iter().rev()).sum())
    }

    /// All tree links (the upstream link of every non-root connected node).
    pub fn links(&self, graph: &Graph) -> Vec<LinkId> {
        let mut links = Vec::new();
        let mut stack = vec![self.source];
        while let Some(p) = stack.pop() {
            for &u in self.children(p) {
                let l = graph
                    .link_between(u, p)
                    .expect("tree edges correspond to graph links");
                links.push(l);
                stack.push(u);
            }
        }
        links.sort_unstable();
        links
    }

    /// Total tree cost `Cost_T`: sum of link costs over all tree links.
    pub fn cost(&self, graph: &Graph) -> f64 {
        self.links(graph)
            .into_iter()
            .map(|l| graph.link(l).cost())
            .sum()
    }

    /// Average end-to-end delay over all members.
    ///
    /// Returns `0.0` for an empty membership.
    pub fn average_member_delay(&self, graph: &Graph) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for m in self.members() {
            if let Some(d) = self.delay_to(graph, m) {
                total += d;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Attaches a path to the tree.
    ///
    /// `path` runs from the node being attached toward the tree:
    /// `[new_root, v_1, …, merger]`, where `merger` is on-tree and connected,
    /// every interior `v_i` is off-tree, and `new_root` is either off-tree
    /// or the root of a fragment previously detached with
    /// [`detach_subtree`](Self::detach_subtree).
    ///
    /// Updates `N` incrementally (see the module documentation):
    /// the grafted chain carries the fragment's member count, and so does
    /// every node of the `S → merger` path.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if the contract above is violated; callers
    /// inside this crate construct paths that satisfy it by construction.
    pub fn attach_path(&mut self, path: &Path) {
        let nodes = path.nodes();
        let merger = *nodes.last().expect("paths are non-empty");
        debug_assert!(self.is_on_tree(merger), "merger {merger} must be on-tree");
        if nodes.len() == 1 {
            // Trivial: attaching a node that is already the merger.
            return;
        }
        let new_root = nodes[0];
        debug_assert!(
            self.parent(new_root).is_none(),
            "attached root {new_root} must not already have a parent"
        );
        // Members carried in by the graft: a reattached fragment keeps its
        // internal `N` values, and a fresh node carries none.
        let delta = self.subtree_members(new_root);
        let merger_at = self.slot_of(merger);
        // Merger first, so each link hangs below a node already on the tree.
        let mut up_at = merger_at;
        for w in nodes.windows(2).rev() {
            let (child, up) = (w[0], w[1]);
            let at = match self.slot(child) {
                Some(at) if child == new_root => {
                    self.link(at, Some((up, up_at)));
                    at
                }
                _ => {
                    debug_assert!(
                        !self.is_on_tree(child),
                        "interior node {child} must be off-tree"
                    );
                    let at = self.insert_record(child, Some((up, up_at)));
                    // Every chain node's subtree is exactly the grafted
                    // fragment.
                    self.records[at].n = delta;
                    at
                }
            };
            self.insert_child(up_at, None, child);
            up_at = at;
        }
        self.propagate_member_delta(merger_at, i64::from(delta));
        self.audit_stats();
    }

    /// Propagates a change of `delta` members in the subtree hanging below
    /// the pivot whose record is at `at`: `N` gains `delta` along the whole
    /// `S → pivot` path (see the [module documentation](self)).
    fn propagate_member_delta(&mut self, mut at: usize, delta: i64) {
        if delta == 0 {
            return;
        }
        loop {
            let record = &mut self.records[at];
            record.n = (i64::from(record.n) + delta) as u32;
            match record.up() {
                Some(up) => at = up,
                None => break,
            }
        }
        debug_assert_eq!(
            Some(at),
            self.slot(self.source),
            "pivot must be source-connected"
        );
    }

    /// Asserts the incremental `N` equals a from-scratch
    /// [`recompute_stats`](Self::recompute_stats) evaluation (the oracle).
    ///
    /// Compiled in under `debug_assertions` or the `audit-stats` feature;
    /// a no-op in plain release builds.
    #[cfg(any(debug_assertions, feature = "audit-stats"))]
    fn audit_stats(&mut self) {
        let connected = self.source_connected_nodes();
        let n_inc: Vec<u32> = connected.iter().map(|&u| self.subtree_members(u)).collect();
        self.recompute_stats();
        for (&u, n) in connected.iter().zip(n_inc) {
            assert_eq!(
                n,
                self.subtree_members(u),
                "incremental N_{u} diverged from the from-scratch oracle"
            );
        }
    }

    #[cfg(not(any(debug_assertions, feature = "audit-stats")))]
    #[inline]
    fn audit_stats(&mut self) {}

    /// Marks an on-tree node as a member, or clears membership.
    ///
    /// Clearing membership does *not* prune relay chains; call
    /// [`prune_from`](Self::prune_from) afterwards (the leave procedure in
    /// [`crate::session`] does).
    ///
    /// # Errors
    ///
    /// Returns [`SmrpError::NotMember`] when clearing a non-member and an
    /// error when setting membership on an off-tree node.
    pub fn set_member(&mut self, node: NodeId, is_member: bool) -> Result<(), SmrpError> {
        if is_member {
            if !self.is_on_tree(node) {
                return Err(SmrpError::UnknownNode(node));
            }
            if !self.is_member(node) {
                self.member.insert(node);
                self.member_count += 1;
                // A fresh membership always starts at weight 1; aggregated
                // populations are declared afterwards via
                // `set_member_weight`.
                let at = self.slot_of(node);
                self.records[at].weight = 1;
                self.propagate_member_delta(at, 1);
                self.audit_stats();
            }
        } else {
            if !self.is_member(node) {
                return Err(SmrpError::NotMember(node));
            }
            let at = self.slot_of(node);
            let removed = i64::from(self.records[at].weight);
            self.member.remove(node);
            self.member_count -= 1;
            self.records[at].weight = 1;
            self.propagate_member_delta(at, -removed);
            self.audit_stats();
        }
        Ok(())
    }

    /// Declares `node`'s membership as an aggregated attachment point
    /// serving `weight` receivers (§3.3.3 at scale: a leaf-domain agent
    /// fronting thousands of users). The weight enters the Eq. 2
    /// maintenance exactly like `weight` individual members behind one
    /// node: `N` along the source path moves by the weight delta.
    ///
    /// # Errors
    ///
    /// Returns [`SmrpError::NotMember`] if `node` is not a member and
    /// [`SmrpError::InvalidConfig`] for a zero weight (leaving is
    /// [`set_member`](Self::set_member)`(node, false)`).
    pub fn set_member_weight(&mut self, node: NodeId, weight: u32) -> Result<(), SmrpError> {
        if weight == 0 {
            return Err(SmrpError::InvalidConfig {
                name: "weight",
                reason: "aggregated populations must serve at least one receiver",
            });
        }
        if !self.is_member(node) {
            return Err(SmrpError::NotMember(node));
        }
        let at = self.slot_of(node);
        let delta = i64::from(weight) - i64::from(self.records[at].weight);
        self.records[at].weight = weight;
        self.weighted = true;
        self.propagate_member_delta(at, delta);
        self.audit_stats();
        Ok(())
    }

    /// Removes useless relays starting at `node` and walking upstream.
    ///
    /// A node is useless if it is on-tree, not the source, not a member and
    /// has no children. This is the upstream walk of the paper's
    /// `Leave_Req`: state is cleared hop by hop until a router with a
    /// non-null member set underneath is reached.
    pub fn prune_from(&mut self, node: NodeId) {
        // Pruned relays carry `N_R = 0` (childless non-members), so removing
        // them changes no other node's `N` — no propagation needed.
        let mut cur = node;
        while let Some(at) = self.slot(cur) {
            if cur == self.source || self.is_member(cur) || self.records[at].len != 0 {
                break;
            }
            let record = self.remove_record(cur);
            let (Some(p), Some(up)) = (record.parent(), record.up()) else {
                break;
            };
            self.remove_child(up, self.position(up, cur));
            cur = p;
        }
        self.audit_stats();
    }

    /// Detaches the subtree rooted at `node` from its parent, pruning any
    /// relay chain left behind, and returns the node the fragment used to
    /// hang off (the first surviving ancestor — the paper's "current merger"
    /// for reshaping comparisons).
    ///
    /// Known defect, kept because every recorded tree depends on it: when
    /// the branch leaves *two or more* relays childless, the node returned
    /// is the old parent's parent — itself pruned, so its `SHR` reads 0 and
    /// a reshape comparing against it never switches. Returning the true
    /// survivor changes which members reshape (see ROADMAP). The rule is
    /// one line of the crate-private `plan_detach`, which every detach
    /// and every reshape attempt reads.
    ///
    /// The fragment keeps its internal structure; its nodes remain marked
    /// on-tree but are no longer connected to the source. Reattach with
    /// [`attach_path`](Self::attach_path) promptly.
    ///
    /// # Errors
    ///
    /// Fails if `node` is the source, off-tree, or already detached.
    pub fn detach_subtree(&mut self, node: NodeId) -> Result<NodeId, SmrpError> {
        self.detach_recorded(node).map(|d| d.keeper)
    }

    /// [`detach_subtree`](Self::detach_subtree) that also returns what it
    /// removed, so [`reattach`](Self::reattach) can put it back exactly.
    pub(crate) fn detach_recorded(&mut self, node: NodeId) -> Result<Detached, SmrpError> {
        let (plan, _) = self.plan_detach(node, Vec::new())?;
        self.detach_planned(&plan);
        Ok(plan)
    }

    /// What detaching `node` would remove, and the `SHR` its keeper would
    /// read afterwards, without touching the tree: one walk up the relay
    /// chain and one up the anchor's source path, O(depth) reads.
    ///
    /// The keeper's `SHR` is 0 when it is a relay the detach prunes (the
    /// defect noted on [`detach_subtree`](Self::detach_subtree)); otherwise
    /// it is the anchor's, less the fragment's `N` on each of its
    /// `depth(anchor)` source-path nodes. `relays` is the buffer the chain
    /// is recorded in (cleared first); [`Detached::into_relays`] returns it.
    ///
    /// # Errors
    ///
    /// Fails if `node` is the source, off-tree, or already detached.
    pub(crate) fn plan_detach(
        &self,
        node: NodeId,
        mut relays: Vec<NodeId>,
    ) -> Result<(Detached, u32), SmrpError> {
        if node == self.source {
            return Err(SmrpError::SourceOperation(node));
        }
        let Some(record) = self.record(node) else {
            return Err(SmrpError::UnknownNode(node));
        };
        let (Some(old_parent), Some(mut at)) = (record.parent(), record.up()) else {
            return Err(SmrpError::UnknownNode(node));
        };
        let removed = record.n;
        // The relays the detach prunes, bottom-up: non-members left
        // childless, each the only child of the next. The walk reads
        // records by index: `at` is `anchor`'s.
        relays.clear();
        let mut slot = self.position(at, node);
        let mut anchor = old_parent;
        while anchor != self.source && !self.is_member(anchor) && self.records[at].len == 1 {
            let record = &self.records[at];
            let up = record.parent().expect("connected chain reaches the source");
            at = record.up().expect("parent is on the tree");
            slot = self.position(at, anchor);
            relays.push(anchor);
            anchor = up;
        }
        let keeper = relays.get(1).copied().unwrap_or(anchor);
        let keeper_shr = if keeper == anchor {
            let (mut shr, mut depth) = (0, 0);
            while let Some(up) = self.records[at].up() {
                shr += self.records[at].n;
                depth += 1;
                at = up;
            }
            shr - removed * depth
        } else {
            0
        };
        let plan = Detached {
            node,
            anchor,
            keeper,
            relays,
            slot,
            removed,
        };
        Ok((plan, keeper_shr))
    }

    /// Detaches as `plan` says: `plan` must come from
    /// [`plan_detach`](Self::plan_detach) on the tree as it is now.
    pub(crate) fn detach_planned(&mut self, plan: &Detached) {
        let at = self.slot_of(plan.node);
        // The old parent's record, then each pruned relay's parent's.
        let mut up = self.records[at].up().expect("a planned node has a parent");
        self.link(at, None);
        // The fragment keeps its internal `N` values (its subtrees did not
        // change); upstream, the surviving path loses `removed` members and
        // each pruned relay, which carried only the fragment, reaches 0.
        self.propagate_member_delta(up, -i64::from(plan.removed));
        for &relay in &plan.relays {
            // Its one child is the chain below it.
            self.remove_child(up, 0);
            let record = self.remove_record(relay);
            debug_assert_eq!(record.n, 0, "relay {relay} carried more");
            up = record.up().expect("a pruned relay has a parent");
        }
        self.remove_child(up, plan.slot);
        self.audit_stats();
    }

    /// Undoes a detach while the fragment is still detached and nothing
    /// else has changed: parent links, child positions, the pruned relay
    /// chain and every `N` return to their pre-detach values, so the tree
    /// compares equal to its earlier self.
    pub(crate) fn reattach(&mut self, detached: &Detached) {
        let Detached {
            node,
            anchor,
            ref relays,
            slot,
            removed,
            ..
        } = *detached;
        // Relays re-enter as an empty chain below `anchor` (N = 0); the
        // propagation below then restores the fragment's weight along the
        // whole source path.
        let anchor_at = self.slot_of(anchor);
        let (mut below, mut below_at) = (node, self.slot_of(node));
        let mut old_parent = anchor_at;
        for (i, &relay) in relays.iter().enumerate() {
            let at = self.insert_record(relay, None);
            self.insert_child(at, None, below);
            self.link(below_at, Some((relay, at)));
            if i == 0 {
                old_parent = at;
            }
            (below, below_at) = (relay, at);
        }
        self.link(below_at, Some((anchor, anchor_at)));
        self.insert_child(anchor_at, Some(slot), below);
        self.propagate_member_delta(old_parent, i64::from(removed));
        self.audit_stats();
    }

    /// Position of `child` in the child list of the record at `at`.
    fn position(&self, at: usize, child: NodeId) -> usize {
        self.children[self.records[at].children()]
            .iter()
            .position(|&c| c == child)
            .expect("child is listed under its parent")
    }

    /// Nodes of the subtree rooted at `node` (including `node`), in DFS
    /// order.
    pub fn subtree_nodes(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(u) = stack.pop() {
            out.push(u);
            stack.extend_from_slice(self.children(u));
        }
        out
    }

    /// Replaces `out` with the nodes of the subtree rooted at `node`,
    /// `node` first and then breadth-first: [`subtree_nodes`] without a
    /// stack, in a buffer the caller keeps.
    ///
    /// [`subtree_nodes`]: Self::subtree_nodes
    pub(crate) fn collect_subtree(&self, node: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.push(node);
        let mut next = 0;
        while let Some(&u) = out.get(next) {
            out.extend_from_slice(self.children(u));
            next += 1;
        }
    }

    /// Recomputes `N_R` for the source-connected component from scratch
    /// (`SHR` is derived from it on every read).
    ///
    /// The mutating operations maintain `N` incrementally; this
    /// from-scratch evaluation is the *oracle* they are audited against
    /// (under `debug_assertions` or the `audit-stats` feature) and remains
    /// public so advanced callers composing raw mutations can refresh
    /// state, or benchmarks can emulate the non-incremental scheme.
    pub fn recompute_stats(&mut self) {
        // Post-order accumulation: children before parents.
        for u in self.source_connected_nodes().into_iter().rev() {
            let below: u32 = self
                .children(u)
                .iter()
                .map(|&c| self.subtree_members(c))
                .sum();
            let at = self.slot_of(u);
            self.records[at].n = self.member_weight(u) + below;
        }
    }

    /// Verifies every structural and bookkeeping invariant against `graph`.
    ///
    /// Checked invariants:
    /// 1. parent/child cross-consistency and acyclicity;
    /// 2. every tree edge is a real graph link;
    /// 3. every member is on-tree and connected to the source;
    /// 4. no detached fragments exist;
    /// 5. leaf relays do not exist (every leaf is a member), except the
    ///    bare source;
    /// 6. `N_R` equals the recount of subtree members;
    /// 7. [`shr`](Self::shr) matches a from-scratch evaluation of Eq. 1
    ///    (link-sharing definition), independently of the Eq. 2 recurrence
    ///    it reads through.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self, graph: &Graph) -> Result<(), String> {
        // (1) parent/child consistency.
        for u in self.on_tree_nodes() {
            if let Some(p) = self.parent(u) {
                if !self.is_on_tree(p) {
                    return Err(format!("parent {p} of {u} is off-tree"));
                }
                if !self.children(p).contains(&u) {
                    return Err(format!("{u} missing from children of {p}"));
                }
                // (2) edges are graph links.
                if graph.link_between(u, p).is_none() {
                    return Err(format!("tree edge {u}-{p} is not a graph link"));
                }
            }
        }
        for u in self.on_tree_nodes() {
            for &c in self.children(u) {
                if self.parent(c) != Some(u) {
                    return Err(format!("child {c} of {u} has wrong parent"));
                }
            }
        }
        // (3)+(4): connectivity and no fragments.
        let connected = self.source_connected_nodes();
        let on_tree_count = self.on_tree_nodes().count();
        if connected.len() != on_tree_count {
            return Err(format!(
                "{} on-tree nodes but only {} connected to the source",
                on_tree_count,
                connected.len()
            ));
        }
        for m in self.members() {
            if self.path_from_source(m).is_none() {
                return Err(format!("member {m} has no path from the source"));
            }
        }
        // (5) no relay leaves.
        for u in self.on_tree_nodes() {
            if u != self.source && self.children(u).is_empty() && !self.is_member(u) {
                return Err(format!("leaf {u} is a relay, tree was not pruned"));
            }
        }
        // (6) N recount (weighted: an aggregated population counts its
        // full receiver population, per Eq. 2 with weighted deltas).
        for &u in &connected {
            let mut recount = 0u32;
            for v in self.subtree_nodes(u) {
                recount += self.member_weight(v);
            }
            if recount != self.subtree_members(u) {
                return Err(format!(
                    "N_{u} is {} but recount gives {recount}",
                    self.subtree_members(u)
                ));
            }
        }
        // (7) SHR from the Eq. 1 definition: per-link member loads.
        let mut link_load: std::collections::HashMap<LinkId, u32> =
            std::collections::HashMap::new();
        for m in self.members() {
            let p = self.path_from_source(m).expect("validated above");
            for l in p.links(graph) {
                // Each of the `weight` receivers behind `m` loads every
                // link of `m`'s source path once (Eq. 1, weighted).
                *link_load.entry(l).or_insert(0) += self.member_weight(m);
            }
        }
        for &u in &connected {
            let Some(p) = self.path_from_source(u) else {
                continue;
            };
            let expected: u32 = p
                .links(graph)
                .iter()
                .map(|l| link_load.get(l).copied().unwrap_or(0))
                .sum();
            if expected != self.shr(u) {
                return Err(format!(
                    "SHR({u}) is {} but Eq. 1 gives {expected}",
                    self.shr(u)
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Figure 1(a) of the paper: tree S -> A -> {C, D}, members C and D.
    fn figure1_tree() -> (Graph, MulticastTree, [NodeId; 5]) {
        let mut g = Graph::with_nodes(5);
        let ids: Vec<_> = g.node_ids().collect();
        let [s, a, b, c, d] = [ids[0], ids[1], ids[2], ids[3], ids[4]];
        g.add_link(s, a, 1.0).unwrap();
        g.add_link(a, c, 1.0).unwrap();
        g.add_link(a, d, 1.0).unwrap();
        g.add_link(c, d, 2.0).unwrap();
        g.add_link(d, b, 1.0).unwrap();
        g.add_link(b, s, 2.0).unwrap();

        let mut t = MulticastTree::new(&g, s).unwrap();
        t.attach_path(&Path::new(vec![c, a, s]));
        t.set_member(c, true).unwrap();
        t.attach_path(&Path::new(vec![d, a]));
        t.set_member(d, true).unwrap();
        (g, t, [s, a, b, c, d])
    }

    #[test]
    fn figure1_shr_values_match_paper() {
        let (g, t, [s, a, _, c, d]) = figure1_tree();
        // Paper §3.1: SHR(S,C) = N_{L(S,A)} + N_{L(A,C)} = 2 + 1 = 3.
        assert_eq!(t.shr(c), 3);
        assert_eq!(t.shr(d), 3);
        assert_eq!(t.shr(a), 2);
        assert_eq!(t.shr(s), 0);
        assert_eq!(t.subtree_members(a), 2);
        t.validate(&g).unwrap();
    }

    #[test]
    fn membership_and_counts() {
        let (_, t, [s, a, b, c, d]) = figure1_tree();
        assert_eq!(t.member_count(), 2);
        assert!(t.is_member(c) && t.is_member(d));
        assert!(t.is_on_tree(a) && !t.is_member(a));
        assert!(!t.is_on_tree(b));
        assert_eq!(t.members().collect::<Vec<_>>(), vec![c, d]);
        assert_eq!(t.source(), s);
    }

    #[test]
    fn paths_and_delays() {
        let (g, t, [s, a, _, c, d]) = figure1_tree();
        let p = t.path_from_source(d).unwrap();
        assert_eq!(p.nodes(), &[s, a, d]);
        assert_eq!(t.delay_to(&g, d), Some(2.0));
        assert_eq!(t.delay_to(&g, c), Some(2.0));
        assert_eq!(t.average_member_delay(&g), 2.0);
        assert_eq!(t.cost(&g), 3.0); // links S-A, A-C, A-D.
    }

    #[test]
    fn leave_with_prune_removes_relay_chain() {
        let (g, mut t, [s, a, _, c, d]) = figure1_tree();
        t.set_member(c, false).unwrap();
        t.prune_from(c);
        assert!(!t.is_on_tree(c));
        assert!(t.is_on_tree(a)); // still relays to D.
        t.validate(&g).unwrap();

        t.set_member(d, false).unwrap();
        t.prune_from(d);
        assert!(!t.is_on_tree(d));
        assert!(!t.is_on_tree(a)); // relay chain fully pruned.
        assert!(t.is_on_tree(s));
        t.validate(&g).unwrap();
        assert_eq!(t.member_count(), 0);
    }

    #[test]
    fn member_relay_is_kept_when_downstream_leaves() {
        let (g, mut t, [_, a, _, c, d]) = figure1_tree();
        // Make A a member too; pruning C must keep A.
        t.set_member(a, true).unwrap();
        t.set_member(c, false).unwrap();
        t.prune_from(c);
        assert!(t.is_on_tree(a) && t.is_member(a));
        assert!(t.is_on_tree(d));
        t.validate(&g).unwrap();
    }

    #[test]
    fn set_member_errors() {
        let (_, mut t, [s, _, b, c, _]) = figure1_tree();
        assert!(matches!(
            t.set_member(b, true),
            Err(SmrpError::UnknownNode(_))
        ));
        assert!(matches!(
            t.set_member(s, false),
            Err(SmrpError::NotMember(_))
        ));
        t.set_member(c, false).unwrap();
        assert!(matches!(
            t.set_member(c, false),
            Err(SmrpError::NotMember(_))
        ));
    }

    #[test]
    fn double_join_is_idempotent_on_counts() {
        let (_, mut t, [_, _, _, c, _]) = figure1_tree();
        t.set_member(c, true).unwrap();
        assert_eq!(t.member_count(), 2);
    }

    #[test]
    fn detach_subtree_returns_keeper_and_prunes() {
        let (g, mut t, [s, a, _, c, d]) = figure1_tree();
        // Detach C: keeper should be A (still has D beneath).
        let keeper = t.detach_subtree(c).unwrap();
        assert_eq!(keeper, a);
        assert!(t.is_on_tree(c)); // fragment root stays marked.
        assert!(t.parent(c).is_none());
        // Reattach C directly under S via B? No link C-S; reattach via A.
        t.attach_path(&Path::new(vec![c, a]));
        t.validate(&g).unwrap();
        assert_eq!(t.shr(c), 3);

        // Detach D when it is A's only remaining load bearer:
        t.set_member(c, false).unwrap();
        t.prune_from(c);
        let keeper = t.detach_subtree(d).unwrap();
        assert_eq!(keeper, s); // relay A pruned, chain ends at the source.
        assert!(!t.is_on_tree(a));
        let _ = keeper;
    }

    #[test]
    fn delay_to_sums_like_the_source_path() {
        // Delays whose sum depends on the order of addition:
        // (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1.
        let mut g = Graph::with_nodes(5);
        let ids: Vec<_> = g.node_ids().collect();
        for (w, d) in ids.windows(2).zip([0.1, 0.2, 0.3, 0.4]) {
            g.add_link(w[0], w[1], d).unwrap();
        }
        let mut t = MulticastTree::new(&g, ids[0]).unwrap();
        t.attach_path(&Path::new(ids.iter().rev().copied().collect()));
        t.set_member(ids[4], true).unwrap();
        for &u in &ids {
            let by_path = t.path_from_source(u).unwrap().delay(&g);
            assert_eq!(t.delay_to(&g, u).unwrap().to_bits(), by_path.to_bits());
        }
        t.detach_subtree(ids[4]).unwrap();
        assert_eq!(t.delay_to(&g, ids[4]), None, "detached fragment");
        assert_eq!(t.delay_to(&g, ids[2]), None, "pruned relay");
    }

    #[test]
    fn reattach_restores_the_tree_exactly() {
        // S - r1 - r2 - {m, x}, plus y under S ahead of r1 in child order.
        let mut g = Graph::with_nodes(6);
        let ids: Vec<_> = g.node_ids().collect();
        let [s, r1, r2, m, x, y] = [ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]];
        g.add_link(s, r1, 1.0).unwrap();
        g.add_link(r1, r2, 1.0).unwrap();
        g.add_link(r2, m, 1.0).unwrap();
        g.add_link(r2, x, 1.0).unwrap();
        g.add_link(s, y, 1.0).unwrap();
        let mut t = MulticastTree::new(&g, s).unwrap();
        for (leaf, path) in [(y, vec![y, s]), (m, vec![m, r2, r1, s]), (x, vec![x, r2])] {
            t.attach_path(&Path::new(path));
            t.set_member(leaf, true).unwrap();
        }
        t.set_member_weight(m, 7).unwrap();

        // No relay pruned: x keeps r2 alive.
        let before = t.clone();
        let d = t.detach_recorded(m).unwrap();
        assert_eq!(d.keeper(), r2);
        assert_ne!(t, before);
        t.reattach(&d);
        assert_eq!(t, before);

        t.set_member(x, false).unwrap();
        t.prune_from(x);
        let before = t.clone();
        // Two relays pruned: the reported keeper is r1, itself gone (the
        // defect `detach_subtree` documents), yet the undo is exact.
        let d = t.detach_recorded(m).unwrap();
        assert_eq!(d.keeper(), r1);
        assert!(!t.is_on_tree(r1) && !t.is_on_tree(r2));
        assert_eq!(t.shr(d.keeper()), 0);
        t.reattach(&d);
        assert_eq!(t, before);
        t.validate(&g).unwrap();
    }

    #[test]
    fn reattach_restores_child_order() {
        let (g, mut t, [_, a, _, c, d]) = figure1_tree();
        assert_eq!(t.children(a), &[c, d]);
        let before = t.clone();
        let rec = t.detach_recorded(c).unwrap();
        assert_eq!(t.children(a), &[d]);
        t.reattach(&rec);
        assert_eq!(t, before);
        t.validate(&g).unwrap();
    }

    #[test]
    fn detach_errors() {
        let (_, mut t, [s, _, b, c, _]) = figure1_tree();
        assert!(matches!(
            t.detach_subtree(s),
            Err(SmrpError::SourceOperation(_))
        ));
        assert!(matches!(
            t.detach_subtree(b),
            Err(SmrpError::UnknownNode(_))
        ));
        t.detach_subtree(c).unwrap();
        assert!(matches!(
            t.detach_subtree(c),
            Err(SmrpError::UnknownNode(_))
        ));
    }

    #[test]
    fn subtree_nodes_lists_descendants() {
        let (_, t, [s, a, _, c, d]) = figure1_tree();
        let mut sub = t.subtree_nodes(a);
        sub.sort();
        assert_eq!(sub, vec![a, c, d]);
        assert_eq!(t.subtree_nodes(c), vec![c]);
        let all = t.subtree_nodes(s);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn validate_catches_leaf_relay() {
        let (g, mut t, [_, _, _, c, _]) = figure1_tree();
        // Clear membership without pruning: C becomes a relay leaf.
        t.set_member(c, false).unwrap();
        let err = t.validate(&g).unwrap_err();
        assert!(err.contains("relay"), "unexpected error: {err}");
    }

    #[test]
    fn links_are_tree_edges() {
        let (g, t, [s, a, _, c, d]) = figure1_tree();
        let links = t.links(&g);
        assert_eq!(links.len(), 3);
        let expected: Vec<LinkId> = [
            g.link_between(s, a).unwrap(),
            g.link_between(a, c).unwrap(),
            g.link_between(a, d).unwrap(),
        ]
        .into_iter()
        .collect();
        let mut expected = expected;
        expected.sort_unstable();
        assert_eq!(links, expected);
    }

    #[test]
    fn empty_tree_metrics_are_zero() {
        let g = Graph::with_nodes(3);
        let s = NodeId::new(0);
        let t = MulticastTree::new(&g, s).unwrap();
        assert_eq!(t.cost(&g), 0.0);
        assert_eq!(t.average_member_delay(&g), 0.0);
        assert_eq!(t.member_count(), 0);
        assert_eq!(t.shr(s), 0);
        t.validate(&g).unwrap();
    }

    #[test]
    fn unknown_source_is_rejected() {
        let g = Graph::with_nodes(2);
        assert!(matches!(
            MulticastTree::new(&g, NodeId::new(7)),
            Err(SmrpError::UnknownNode(_))
        ));
    }

    #[test]
    fn weighted_members_scale_n_and_shr() {
        let (g, mut t, [s, a, _, c, d]) = figure1_tree();
        // C fronts 1000 receivers: N along S→C gains 999, D's SHR gains
        // one updated link's worth (the shared S–A link).
        t.set_member_weight(c, 1000).unwrap();
        assert_eq!(t.member_weight(c), 1000);
        assert_eq!(t.member_weight(d), 1);
        assert_eq!(t.population(), 1001);
        assert_eq!(t.member_count(), 2);
        assert_eq!(t.subtree_members(a), 1001);
        assert_eq!(t.subtree_members(c), 1000);
        // SHR(S,C) = N_{L(S,A)} + N_{L(A,C)} = 1001 + 1000.
        assert_eq!(t.shr(c), 2001);
        // SHR(S,D) = 1001 + 1.
        assert_eq!(t.shr(d), 1002);
        assert_eq!(t.shr(s), 0);
        t.validate(&g).unwrap();

        // Shrinking the population propagates the negative delta.
        t.set_member_weight(c, 10).unwrap();
        assert_eq!(t.subtree_members(a), 11);
        assert_eq!(t.shr(d), 12);
        t.validate(&g).unwrap();
    }

    #[test]
    fn leaving_drops_the_whole_population_and_rejoin_resets_weight() {
        let (g, mut t, [_, a, _, c, d]) = figure1_tree();
        t.set_member_weight(d, 500).unwrap();
        assert_eq!(t.subtree_members(a), 501);
        t.set_member(d, false).unwrap();
        assert_eq!(t.subtree_members(a), 1);
        assert_eq!(t.population(), 1);
        // Rejoining starts back at weight 1, not the stale 500.
        t.set_member(d, true).unwrap();
        assert_eq!(t.member_weight(d), 1);
        assert_eq!(t.subtree_members(a), 2);
        t.validate(&g).unwrap();
        let _ = c;
    }

    #[test]
    fn weighted_fragment_detach_and_reattach_carry_population() {
        let (g, mut t, [_, a, _, c, _]) = figure1_tree();
        t.set_member_weight(c, 77).unwrap();
        let keeper = t.detach_subtree(c).unwrap();
        assert_eq!(keeper, a);
        assert_eq!(t.subtree_members(a), 1); // only D remains upstream.
        t.attach_path(&Path::new(vec![c, a]));
        assert_eq!(t.subtree_members(a), 78);
        assert_eq!(t.member_weight(c), 77);
        t.validate(&g).unwrap();
    }

    #[test]
    fn weight_errors() {
        let (_, mut t, [_, a, _, c, _]) = figure1_tree();
        assert!(matches!(
            t.set_member_weight(a, 5),
            Err(SmrpError::NotMember(_))
        ));
        assert!(matches!(
            t.set_member_weight(c, 0),
            Err(SmrpError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn shr_recurrence_matches_definition_on_deeper_tree() {
        // Chain S - x - y - z with members at x, y, z; SHR should be
        // 3, 3+2, 3+2+1.
        let mut g = Graph::with_nodes(4);
        let ids: Vec<_> = g.node_ids().collect();
        g.add_link(ids[0], ids[1], 1.0).unwrap();
        g.add_link(ids[1], ids[2], 1.0).unwrap();
        g.add_link(ids[2], ids[3], 1.0).unwrap();
        let mut t = MulticastTree::new(&g, ids[0]).unwrap();
        t.attach_path(&Path::new(vec![ids[3], ids[2], ids[1], ids[0]]));
        for &m in &ids[1..] {
            t.set_member(m, true).unwrap();
        }
        assert_eq!(t.shr(ids[1]), 3);
        assert_eq!(t.shr(ids[2]), 5);
        assert_eq!(t.shr(ids[3]), 6);
        t.validate(&g).unwrap();
    }

    /// The tree as dense per-node vectors, driven through the same
    /// operations in their plainest form: the layout oracle.
    #[derive(Debug, Clone)]
    struct Dense {
        source: NodeId,
        parent: Vec<Option<NodeId>>,
        children: Vec<Vec<NodeId>>,
        on_tree: Vec<bool>,
        member: Vec<bool>,
    }

    impl Dense {
        fn new(nodes: usize, source: NodeId) -> Self {
            let mut on_tree = vec![false; nodes];
            on_tree[source.index()] = true;
            Dense {
                source,
                parent: vec![None; nodes],
                children: vec![Vec::new(); nodes],
                on_tree,
                member: vec![false; nodes],
            }
        }

        fn attach(&mut self, path: &[NodeId]) {
            for w in path.windows(2) {
                self.parent[w[0].index()] = Some(w[1]);
                self.on_tree[w[0].index()] = true;
                self.children[w[1].index()].push(w[0]);
            }
        }

        fn prune(&mut self, mut v: NodeId) {
            let i = |v: NodeId| v.index();
            while self.on_tree[i(v)]
                && v != self.source
                && !self.member[i(v)]
                && self.children[i(v)].is_empty()
            {
                self.on_tree[i(v)] = false;
                let Some(p) = self.parent[i(v)].take() else {
                    break;
                };
                self.children[i(p)].retain(|&c| c != v);
                v = p;
            }
        }

        fn detach(&mut self, v: NodeId) {
            let p = self.parent[v.index()].take().unwrap();
            self.children[p.index()].retain(|&c| c != v);
            self.prune(p);
        }

        /// `N` recounted over the children lists.
        fn n(&self, v: NodeId) -> u32 {
            let below: u32 = self.children[v.index()].iter().map(|&c| self.n(c)).sum();
            u32::from(self.member[v.index()]) + below
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
        /// child order, then the members marked.
        fn rebuilt(&self, graph: &Graph) -> MulticastTree {
            let mut t = MulticastTree::new(graph, self.source).unwrap();
            let mut queue = std::collections::VecDeque::from([self.source]);
            while let Some(u) = queue.pop_front() {
                for &c in &self.children[u.index()] {
                    t.attach_path(&Path::new(vec![c, u]));
                    queue.push_back(c);
                }
            }
            for (i, &m) in self.member.iter().enumerate() {
                if m {
                    t.set_member(NodeId::new(i), true).unwrap();
                }
            }
            t
        }
    }

    /// Every accessor of `t` against the oracle, plus the serde round trip
    /// and a clone.
    fn same_as_dense(t: &MulticastTree, dense: &Dense) -> Result<(), String> {
        let ids = (0..dense.parent.len()).map(NodeId::new);
        for v in ids.clone() {
            let i = v.index();
            let n = if dense.on_tree[i] { dense.n(v) } else { 0 };
            let got = (t.parent(v), t.children(v), t.is_on_tree(v), t.is_member(v));
            let want = (
                dense.parent[i],
                &dense.children[i][..],
                dense.on_tree[i],
                dense.member[i],
            );
            if got != want || t.subtree_members(v) != n || t.shr(v) != dense.shr(v) {
                return Err(format!(
                    "{v}: (parent, children, on-tree, member) {got:?}, N {}, SHR {}; \
                     oracle {want:?}, N {n}, SHR {}",
                    t.subtree_members(v),
                    t.shr(v),
                    dense.shr(v)
                ));
            }
        }
        let members: Vec<NodeId> = ids.clone().filter(|v| dense.member[v.index()]).collect();
        let on_tree: Vec<NodeId> = ids.filter(|v| dense.on_tree[v.index()]).collect();
        if t.members().collect::<Vec<_>>() != members
            || t.on_tree_nodes().collect::<Vec<_>>() != on_tree
            || t.member_count() != members.len()
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

    /// A ring of `n` nodes with chords.
    fn ring_with_chords(n: usize, seed: u64) -> Graph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
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
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn layout_matches_dense_oracle_through_random_histories(
            n in 2usize..61,
            seed in 0u64..1 << 32,
            ops in proptest::collection::vec((0u8..5, 0usize..60), 1..40),
        ) {
            use smrp_net::dijkstra::{shortest_path_to_any, Constraints};

            let graph = ring_with_chords(n, seed);
            let source = NodeId::new(seed as usize % n);
            let mut t = MulticastTree::new(&graph, source).unwrap();
            let mut dense = Dense::new(n, source);
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
                        dense.member[v.index()] = true;
                    }
                    // Leave, pruning.
                    1 if t.is_member(v) => {
                        t.set_member(v, false).unwrap();
                        t.prune_from(v);
                        dense.member[v.index()] = false;
                        dense.prune(v);
                    }
                    // Leave without pruning: a relay leaf for `prune_from`.
                    2 if t.is_member(v) => {
                        t.set_member(v, false).unwrap();
                        dense.member[v.index()] = false;
                    }
                    3 => {
                        t.prune_from(v);
                        dense.prune(v);
                    }
                    // Detach, check the fragment state, and undo.
                    4 if t.parent(v).is_some() => {
                        let before = (t.clone(), dense.clone());
                        let record = t.detach_recorded(v).unwrap();
                        dense.detach(v);
                        let detached = same_as_dense(&t, &dense);
                        prop_assert!(detached.is_ok(), "detached {v}: {}", detached.unwrap_err());
                        t.reattach(&record);
                        dense = before.1;
                        prop_assert_eq!(&t, &before.0);
                    }
                    _ => continue,
                }
                let checked = same_as_dense(&t, &dense);
                prop_assert!(checked.is_ok(), "after op {op} on {v}: {}", checked.unwrap_err());
                prop_assert_eq!(&dense.rebuilt(&graph), &t, "same shape, other history");
            }
        }

        #[test]
        fn planned_detach_is_the_detach_and_reads_the_keepers_shr(
            n in 2usize..61,
            seed in 0u64..1 << 32,
            ops in proptest::collection::vec((0u8..4, 0usize..60), 1..40),
        ) {
            use smrp_net::dijkstra::{shortest_path_to_any, Constraints};

            let graph = ring_with_chords(n, seed);
            let source = NodeId::new(seed as usize % n);
            let mut t = MulticastTree::new(&graph, source).unwrap();
            for (op, pick) in ops {
                let v = NodeId::new(pick % n);
                match op {
                    0 if !t.is_on_tree(v) => {
                        let path = shortest_path_to_any(
                            &graph, v, Constraints::unrestricted(), |x| t.is_on_tree(x),
                        ).unwrap();
                        t.attach_path(&path);
                        t.set_member(v, true).unwrap();
                    }
                    1 if t.is_member(v) => {
                        t.set_member(v, false).unwrap();
                        t.prune_from(v);
                    }
                    // Weights make `N` differ from the member count.
                    2 if t.is_member(v) => t.set_member_weight(v, 1 + pick as u32 % 5).unwrap(),
                    3 => t.prune_from(v),
                    _ => continue,
                }
                let nodes: Vec<NodeId> = t.on_tree_nodes().filter(|&u| u != source).collect();
                for u in nodes {
                    let before = t.clone();
                    let (plan, keeper_shr) = t.plan_detach(u, Vec::new()).unwrap();
                    prop_assert_eq!(&t, &before, "planning {} wrote to the tree", u);

                    // The detach as it was before plans: unlink, then let
                    // `prune_from` find the relay chain on its own.
                    let mut pruned = before.clone();
                    let old_parent = pruned.parent(u).unwrap();
                    let (at, up) = (pruned.slot_of(u), pruned.slot_of(old_parent));
                    pruned.link(at, None);
                    pruned.remove_child(up, pruned.position(up, u));
                    pruned.propagate_member_delta(up, -i64::from(pruned.subtree_members(u)));
                    pruned.prune_from(old_parent);

                    let record = t.detach_recorded(u).unwrap();
                    prop_assert_eq!(&record, &plan, "detaching {}", u);
                    prop_assert_eq!(&t, &pruned, "detaching {}", u);
                    prop_assert_eq!(t.shr(record.keeper()), keeper_shr, "keeper of {}", u);
                    t.reattach(&record);
                    prop_assert_eq!(&t, &before, "undoing {}", u);
                }
            }
        }
    }
}
