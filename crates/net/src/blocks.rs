//! Biconnected blocks and the block-cut tree of a [`Graph`].
//!
//! A block is a maximal set of links in which any two lie on a common
//! simple cycle (a bridge is a block of its own). Every link lies in
//! exactly one block; two blocks share at most one node, a cut vertex.
//! Joining each block to its nodes gives a forest, one tree per connected
//! component, and a simple path between two nodes uses links of exactly
//! the blocks on the tree path between them, entering and leaving each
//! at the cut vertices on that path.
//!
//! The tree is kept rooted at each component's depth-first root, as
//! parent pointers only: a node's parent is the block holding the DFS
//! tree link into it, and a block's parent is its top, the block's node
//! the search reached first. Non-cut nodes are leaves under their one
//! block. One iterative Hopcroft–Tarjan search over
//! [`Graph::adjacency`](crate::Graph::adjacency) yields both.

use crate::graph::Graph;
use crate::ids::{LinkId, NodeId};

/// No block or link: a root's parent block and DFS tree link.
const NONE: u32 = u32::MAX;

/// The block of every link and the rooted block-cut forest.
#[derive(Debug)]
pub(crate) struct Blocks {
    /// Each link's block.
    link_block: Vec<u32>,
    /// Each block's top: its node nearest the component's root.
    top: Vec<NodeId>,
    /// Each node's parent block, [`NONE`] at a component's root.
    up: Vec<u32>,
    /// Each node's depth counted in nodes: 0 at a root, one more than
    /// its parent block's top elsewhere.
    depth: Vec<u32>,
}

impl Blocks {
    pub(crate) fn build(graph: &Graph) -> Self {
        let (n, m) = (graph.node_count(), graph.link_count());
        // Discovery index + 1, 0 while unvisited.
        let mut disc = vec![0u32; n];
        let mut low = vec![0u32; n];
        let mut tree_link = vec![NONE; n];
        let mut link_block = vec![NONE; m];
        let mut top = Vec::new();
        let mut order = Vec::with_capacity(n);
        // Links of the blocks still open, and the DFS path with each
        // node's next adjacency index.
        let mut open: Vec<LinkId> = Vec::new();
        let mut path: Vec<(NodeId, usize)> = Vec::new();
        for root in graph.node_ids() {
            if disc[root.index()] != 0 {
                continue;
            }
            order.push(root);
            disc[root.index()] = order.len() as u32;
            low[root.index()] = order.len() as u32;
            path.push((root, 0));
            while let Some(&mut (u, ref mut next)) = path.last_mut() {
                if let Some(&(w, l)) = graph.adjacency(u).get(*next) {
                    *next += 1;
                    if l.index() as u32 == tree_link[u.index()] {
                        continue;
                    }
                    if disc[w.index()] == 0 {
                        open.push(l);
                        tree_link[w.index()] = l.index() as u32;
                        order.push(w);
                        disc[w.index()] = order.len() as u32;
                        low[w.index()] = order.len() as u32;
                        path.push((w, 0));
                    } else if disc[w.index()] < disc[u.index()] {
                        // A back link to an ancestor; seen from that
                        // ancestor later, it is skipped.
                        open.push(l);
                        low[u.index()] = low[u.index()].min(disc[w.index()]);
                    }
                    continue;
                }
                path.pop();
                let Some(&(p, _)) = path.last() else { break };
                low[p.index()] = low[p.index()].min(low[u.index()]);
                if low[u.index()] >= disc[p.index()] {
                    // Nothing below `u` reaches above `p`: the open links
                    // down to the tree link `p`–`u` are one block, topped
                    // by `p`.
                    let b = top.len() as u32;
                    let last = tree_link[u.index()];
                    loop {
                        let l = open.pop().expect("the tree link is open");
                        link_block[l.index()] = b;
                        if l.index() as u32 == last {
                            break;
                        }
                    }
                    top.push(p);
                }
            }
        }
        // A block's top is discovered before every other node of it, so
        // discovery order sees each parent's depth first.
        let mut up = vec![NONE; n];
        let mut depth = vec![0u32; n];
        for &v in &order {
            let l = tree_link[v.index()];
            if l != NONE {
                let b = link_block[l as usize];
                up[v.index()] = b;
                depth[v.index()] = depth[top[b as usize].index()] + 1;
            }
        }
        Blocks {
            link_block,
            top,
            up,
            depth,
        }
    }

    /// Number of blocks.
    pub(crate) fn count(&self) -> usize {
        self.top.len()
    }

    /// The block `link` lies in.
    #[inline]
    pub(crate) fn of_link(&self, link: LinkId) -> usize {
        self.link_block[link.index()] as usize
    }

    /// `node`'s parent block and that block's top, or `None` at the root
    /// of `node`'s component.
    #[inline]
    pub(crate) fn parent(&self, node: NodeId) -> Option<(usize, NodeId)> {
        let b = self.up[node.index()];
        (b != NONE).then(|| (b as usize, self.top[b as usize]))
    }

    /// `node`'s depth in the block-cut forest, counted in nodes.
    #[inline]
    pub(crate) fn depth(&self, node: NodeId) -> u32 {
        self.depth[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, links: &[(usize, usize)]) -> Graph {
        let mut g = Graph::with_nodes(n);
        for &(a, b) in links {
            g.add_link(NodeId::new(a), NodeId::new(b), 1.0).unwrap();
        }
        g
    }

    /// The links of each block, as endpoint pairs, blocks sorted.
    fn partition(g: &Graph) -> Vec<Vec<(usize, usize)>> {
        let blocks = g.blocks();
        let mut parts = vec![Vec::new(); blocks.count()];
        for l in g.link_ids() {
            let (a, b) = g.link(l).endpoints();
            parts[blocks.of_link(l)].push((a.index(), b.index()));
        }
        parts.sort();
        parts
    }

    #[test]
    fn a_cycle_is_one_block() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        assert_eq!(partition(&g).len(), 1);
        let blocks = g.blocks();
        assert_eq!(blocks.parent(NodeId::new(0)), None);
        for v in 1..4 {
            assert_eq!(blocks.parent(NodeId::new(v)), Some((0, NodeId::new(0))));
            assert_eq!(blocks.depth(NodeId::new(v)), 1);
        }
    }

    #[test]
    fn every_bridge_of_a_chain_is_a_block() {
        let g = graph(4, &[(2, 3), (0, 1), (1, 2)]);
        assert_eq!(partition(&g), [[(0, 1)], [(1, 2)], [(2, 3)]]);
        let blocks = g.blocks();
        let depths: Vec<u32> = g.node_ids().map(|v| blocks.depth(v)).collect();
        assert_eq!(depths, [0, 1, 2, 3]);
        let (_, top) = blocks.parent(NodeId::new(3)).unwrap();
        assert_eq!(top, NodeId::new(2));
    }

    #[test]
    fn cycles_joined_at_a_cut_vertex_and_a_pendant_link() {
        // Triangles 0-1-2 and 2-3-4 share node 2; node 5 hangs off 4.
        let g = graph(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 5)]);
        assert_eq!(
            partition(&g),
            [
                vec![(0, 1), (1, 2), (0, 2)],
                vec![(2, 3), (3, 4), (2, 4)],
                vec![(4, 5)],
            ]
        );
        let blocks = g.blocks();
        let top_of = |v: usize| blocks.parent(NodeId::new(v)).map(|(_, t)| t.index());
        assert_eq!(top_of(3), Some(2));
        assert_eq!(top_of(4), Some(2));
        assert_eq!(top_of(5), Some(4));
        assert_eq!(blocks.depth(NodeId::new(5)), 3);
    }

    #[test]
    fn a_star_is_one_block_per_spoke_and_isolated_nodes_have_none() {
        let g = graph(6, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(partition(&g).len(), 4);
        let blocks = g.blocks();
        for v in 1..5 {
            assert_eq!(blocks.parent(NodeId::new(v)).unwrap().1, NodeId::new(0));
        }
        assert_eq!(blocks.parent(NodeId::new(5)), None);
        assert_eq!(blocks.depth(NodeId::new(5)), 0);
    }

    #[test]
    fn each_component_has_its_own_root() {
        let g = graph(5, &[(0, 1), (2, 3), (3, 4), (4, 2)]);
        assert_eq!(partition(&g).len(), 2);
        let blocks = g.blocks();
        assert_eq!(blocks.parent(NodeId::new(2)), None);
        assert_eq!(blocks.parent(NodeId::new(4)).unwrap().1, NodeId::new(2));
    }
}
