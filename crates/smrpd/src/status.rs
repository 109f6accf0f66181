//! Shared introspection state.
//!
//! Each node runtime periodically publishes a [`NodeStatus`] snapshot of
//! its router state into the [`StatusBoard`]; the HTTP introspection
//! server (see [`crate::introspect`]) reads the board without ever
//! touching live router state, so observation can never perturb the
//! protocol.

use std::sync::Mutex;

use serde::{Deserialize, Serialize};
use smrp_metrics::ControlHealth;
use smrp_net::NodeId;
use smrp_proto::MultiRouter;
use smrp_sim::SimTime;

/// One group lane's tree state as seen by one router.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupStatus {
    /// Group id.
    pub group: u32,
    /// Whether this node currently forwards for the group.
    pub on_tree: bool,
    /// Whether this node is a subscribed member.
    pub member: bool,
    /// Upstream (parent) node, if any.
    pub upstream: Option<u32>,
    /// Downstream (children) nodes, sorted.
    pub downstream: Vec<u32>,
    /// The Sub-tree Height Rank this node advertises in query replies.
    pub shr: u32,
    /// Whether a local-detour recovery is in flight.
    pub recovering: bool,
    /// Multicast data packets delivered to the member application.
    pub deliveries: u64,
}

/// One node's published state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeStatus {
    /// Node id.
    pub node: u32,
    /// Whether the node is currently failed (crashed).
    pub down: bool,
    /// The node's protocol clock when the snapshot was taken, in ns.
    pub now_ns: u64,
    /// Per-group lane state.
    pub groups: Vec<GroupStatus>,
    /// Reliable-lane health aggregated over all lanes.
    pub health: ControlHealth,
}

impl NodeStatus {
    /// Snapshots `router` as seen at `now`.
    pub(crate) fn capture(
        me: NodeId,
        down: bool,
        now: SimTime,
        router: &MultiRouter,
    ) -> NodeStatus {
        let mut groups = Vec::new();
        let mut health = ControlHealth::default();
        for g in router.groups() {
            let lane = router.lane(g).expect("groups() yields live lanes");
            let mut downstream: Vec<u32> =
                lane.downstream().iter().map(|n| n.index() as u32).collect();
            downstream.sort_unstable();
            groups.push(GroupStatus {
                group: g.index() as u32,
                on_tree: lane.is_on_tree(),
                member: lane.is_member(),
                upstream: lane.upstream().map(|n| n.index() as u32),
                downstream,
                shr: lane.advertised_shr(),
                recovering: lane.is_recovering(),
                deliveries: lane.deliveries().len() as u64,
            });
            let r = lane.reliability();
            health.absorb_lane(r.retransmits, r.dup_drops, r.retry_exhaustions, r.acks_sent);
        }
        NodeStatus {
            node: me.index() as u32,
            down,
            now_ns: now.as_ns(),
            groups,
            health,
        }
    }
}

/// Lock-per-slot bulletin board: node `i` writes slot `i`, readers take
/// a point-in-time copy.
#[derive(Debug)]
pub struct StatusBoard {
    slots: Vec<Mutex<Option<NodeStatus>>>,
}

/// Locks a slot, recovering from poison: a publisher that panicked
/// mid-write leaves at worst a stale-but-structurally-intact snapshot
/// (the slot holds an `Option` that is replaced wholesale, never edited
/// in place), so introspection must keep serving rather than cascade the
/// panic into every `/health` probe.
fn lock_slot(slot: &Mutex<Option<NodeStatus>>) -> std::sync::MutexGuard<'_, Option<NodeStatus>> {
    slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl StatusBoard {
    /// A board with `n` empty slots.
    pub(crate) fn new(n: usize) -> StatusBoard {
        StatusBoard {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Publishes `status` into its node's slot.
    pub(crate) fn publish(&self, status: NodeStatus) {
        let idx = status.node as usize;
        if let Some(slot) = self.slots.get(idx) {
            *lock_slot(slot) = Some(status);
        }
    }

    /// Copies every slot. `None` entries are nodes that have not
    /// published yet.
    pub fn snapshot(&self) -> Vec<Option<NodeStatus>> {
        self.slots.iter().map(|s| lock_slot(s).clone()).collect()
    }

    /// Copies one node's slot.
    pub(crate) fn node(&self, idx: usize) -> Option<NodeStatus> {
        self.slots.get(idx).and_then(|s| lock_slot(s).clone())
    }

    /// Test hook: poisons slot `idx` by panicking while holding its lock,
    /// simulating a publisher that died mid-write.
    #[cfg(test)]
    pub(crate) fn poison_slot_for_test(&self, idx: usize) {
        std::thread::scope(|s| {
            let _ = s
                .spawn(|| {
                    let _guard = self.slots[idx].lock().unwrap();
                    panic!("poison the slot on purpose");
                })
                .join();
        });
        assert!(self.slots[idx].is_poisoned(), "setup must actually poison");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(node: u32) -> NodeStatus {
        NodeStatus {
            node,
            down: false,
            now_ns: 1,
            groups: Vec::new(),
            health: ControlHealth::default(),
        }
    }

    #[test]
    fn poisoned_slot_still_publishes_and_reads() {
        let board = StatusBoard::new(2);
        board.publish(status(0));
        board.poison_slot_for_test(0);
        // The board keeps serving: reads see the pre-poison snapshot,
        // writes land, and whole-board snapshots include the slot.
        assert_eq!(board.node(0).unwrap().now_ns, 1);
        let mut updated = status(0);
        updated.now_ns = 2;
        board.publish(updated);
        assert_eq!(board.node(0).unwrap().now_ns, 2);
        let snap = board.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].as_ref().unwrap().now_ns, 2);
        assert!(snap[1].is_none());
    }
}
