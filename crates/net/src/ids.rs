//! Typed handles for graph entities.
//!
//! Using newtypes instead of bare `usize` indices prevents accidentally
//! indexing the link table with a node id (and vice versa) anywhere in the
//! workspace.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a node within a [`crate::Graph`].
///
/// Node ids are dense indices assigned in insertion order; they are only
/// meaningful relative to the graph that issued them.
///
/// ```
/// use smrp_net::NodeId;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(n.to_string(), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    #[inline]
    pub fn new(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// Returns the raw dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId::new(index)
    }
}

/// Identifier of an undirected link within a [`crate::Graph`].
///
/// ```
/// use smrp_net::LinkId;
/// let l = LinkId::new(7);
/// assert_eq!(l.index(), 7);
/// assert_eq!(l.to_string(), "l7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(u32);

impl LinkId {
    /// Creates a link id from a raw index.
    #[inline]
    pub fn new(index: usize) -> Self {
        LinkId(index as u32)
    }

    /// Returns the raw dense index of this link.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl From<usize> for LinkId {
    fn from(index: usize) -> Self {
        LinkId::new(index)
    }
}

/// Identifier of a multicast session (group) sharing one topology.
///
/// Multi-session runs key per-group protocol state — tree, SHR table,
/// soft-state timers, reliable-delivery lanes — by `GroupId`, while the
/// links, failure scenario and degraded channel underneath are shared by
/// every group. Like node and link ids, group ids are dense indices
/// assigned by whoever hosts the sessions.
///
/// ```
/// use smrp_net::GroupId;
/// let g = GroupId::new(2);
/// assert_eq!(g.index(), 2);
/// assert_eq!(g.to_string(), "g2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GroupId(u32);

impl GroupId {
    /// Creates a group id from a raw index.
    #[inline]
    pub const fn new(index: usize) -> Self {
        GroupId(index as u32)
    }

    /// Returns the raw dense index of this group.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl From<usize> for GroupId {
    fn from(index: usize) -> Self {
        GroupId::new(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_index() {
        for i in [0usize, 1, 99, 100_000] {
            assert_eq!(NodeId::new(i).index(), i);
        }
    }

    #[test]
    fn link_id_round_trips_index() {
        for i in [0usize, 1, 99, 100_000] {
            assert_eq!(LinkId::new(i).index(), i);
        }
    }

    #[test]
    fn ids_order_by_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(LinkId::new(0) < LinkId::new(10));
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(NodeId::new(12).to_string(), "n12");
        assert_eq!(LinkId::new(0).to_string(), "l0");
        assert_eq!(GroupId::new(3).to_string(), "g3");
    }

    #[test]
    fn from_usize_matches_new() {
        assert_eq!(NodeId::from(5), NodeId::new(5));
        assert_eq!(LinkId::from(5), LinkId::new(5));
        assert_eq!(GroupId::from(5), GroupId::new(5));
    }

    #[test]
    fn group_id_round_trips_index_and_orders() {
        for i in [0usize, 1, 99, 100_000] {
            assert_eq!(GroupId::new(i).index(), i);
        }
        assert!(GroupId::new(0) < GroupId::new(7));
    }
}
