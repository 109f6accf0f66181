//! Final-state snapshots and conformance digests.
//!
//! The sim and the `smrpd` daemon run the *same* router code over
//! different substrates (virtual events vs. real sockets and threads).
//! Their step-by-step schedules necessarily differ — wall-clock jitter
//! reorders independent events — so conformance is asserted on what both
//! must agree on once a scenario's horizon passes: the converged tree
//! shape of every group and the set of affected members whose service was
//! restored. [`SessionState::capture`] extracts exactly that, excluding
//! everything timing-dependent (delivery timestamps, counters, in-flight
//! recovery flags), and [`SessionState::digest`] folds it into a stable
//! 64-bit FNV-1a hex digest that golden traces embed and CI compares.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};
use smrp_net::{GroupId, NodeId};
use smrp_sim::SimTime;

use crate::multi::MultiRouter;

/// One node's tree state within one group, as captured for a digest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeTreeState {
    /// The node.
    pub node: u32,
    /// Whether the node was down (failed, unrepaired) at capture time.
    /// A crashed router's frozen RAM is not part of the protocol's
    /// observable outcome, so no tree fields are recorded for it.
    pub down: bool,
    /// Whether the node is on the group's tree.
    pub on_tree: bool,
    /// Whether the node is a member (receiver) of the group.
    pub member: bool,
    /// Upstream (parent) interface, if any.
    pub upstream: Option<u32>,
    /// Downstream (child) interfaces, ascending.
    pub downstream: Vec<u32>,
}

/// One group's converged outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupState {
    /// The group.
    pub group: u32,
    /// Per-node tree state; only nodes holding a lane for this group
    /// appear, ascending by node id.
    pub nodes: Vec<NodeTreeState>,
    /// Affected members whose service was restored — they received a data
    /// packet the source sent *after* the failure hit — ascending.
    pub restored: Vec<u32>,
    /// Affected members still without post-failure service at capture.
    pub stranded: Vec<u32>,
}

/// The digestible final state of a whole multi-session run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionState {
    /// Per-group outcomes, ascending by group id.
    pub groups: Vec<GroupState>,
}

/// Which members a failure cut off, per group — the denominator of the
/// restored/stranded verdict. Produced by the scenario planner (the sim
/// side) and carried inside golden traces so the daemon applies the same
/// denominator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AffectedGroup {
    /// The group.
    pub group: u32,
    /// Members the failure disconnected from the source.
    pub affected: Vec<u32>,
}

impl SessionState {
    /// Captures the digestible state of every router process after a run.
    ///
    /// `procs` is the per-node router state in node-id order (from
    /// [`smrp_sim::NetSim::into_nodes`] or the daemon's joined node
    /// runtimes); `affected` names each group's failure-affected members;
    /// `down_nodes` are the nodes down at the horizon
    /// ([`crate::FailureSpec::down_at_horizon`]); an affected member is
    /// restored when [`crate::Router::restored_at`] finds service after
    /// `fail_at`.
    pub fn capture(
        procs: &[MultiRouter],
        affected: &[AffectedGroup],
        down_nodes: &BTreeSet<NodeId>,
        fail_at: SimTime,
    ) -> Self {
        let mut group_ids = BTreeSet::new();
        for p in procs {
            group_ids.extend(p.groups());
        }
        for a in affected {
            group_ids.insert(GroupId::new(a.group as usize));
        }

        let mut groups = Vec::with_capacity(group_ids.len());
        for group in group_ids {
            let mut nodes = Vec::new();
            for (ni, proc_) in procs.iter().enumerate() {
                let node = NodeId::new(ni);
                let down = down_nodes.contains(&node);
                let Some(lane) = proc_.lane(group) else {
                    continue;
                };
                if down {
                    nodes.push(NodeTreeState {
                        node: ni as u32,
                        down: true,
                        on_tree: false,
                        member: false,
                        upstream: None,
                        downstream: Vec::new(),
                    });
                    continue;
                }
                let mut downstream: Vec<u32> =
                    lane.downstream().iter().map(|d| d.index() as u32).collect();
                downstream.sort_unstable();
                nodes.push(NodeTreeState {
                    node: ni as u32,
                    down: false,
                    on_tree: lane.is_on_tree(),
                    member: lane.is_member(),
                    upstream: lane.upstream().map(|u| u.index() as u32),
                    downstream,
                });
            }

            let empty = Vec::new();
            let affected_members = affected
                .iter()
                .find(|a| a.group as usize == group.index())
                .map(|a| &a.affected)
                .unwrap_or(&empty);
            let mut restored = Vec::new();
            let mut stranded = Vec::new();
            for &m in affected_members {
                let served = procs
                    .get(m as usize)
                    .and_then(|p| p.lane(group))
                    .is_some_and(|lane| lane.restored_at(fail_at).is_some());
                if served {
                    restored.push(m);
                } else {
                    stranded.push(m);
                }
            }
            restored.sort_unstable();
            stranded.sort_unstable();

            groups.push(GroupState {
                group: group.index() as u32,
                nodes,
                restored,
                stranded,
            });
        }
        SessionState { groups }
    }

    /// Folds the state into a stable 16-hex-digit digest (64-bit FNV-1a
    /// over a canonical byte serialization). Two runs agree on the digest
    /// iff they agree on every captured field.
    pub fn digest(&self) -> String {
        let mut h = Fnv1a::new();
        h.put_u32(self.groups.len() as u32);
        for g in &self.groups {
            h.put_u32(g.group);
            h.put_u32(g.nodes.len() as u32);
            for n in &g.nodes {
                h.put_u32(n.node);
                h.put_u8(u8::from(n.down) | (u8::from(n.on_tree) << 1) | (u8::from(n.member) << 2));
                match n.upstream {
                    Some(u) => {
                        h.put_u8(1);
                        h.put_u32(u);
                    }
                    None => h.put_u8(0),
                }
                h.put_u32(n.downstream.len() as u32);
                for &d in &n.downstream {
                    h.put_u32(d);
                }
            }
            for list in [&g.restored, &g.stranded] {
                h.put_u32(list.len() as u32);
                for &m in list {
                    h.put_u32(m);
                }
            }
        }
        format!("{:016x}", h.finish())
    }
}

/// 64-bit FNV-1a. Not cryptographic — the digest detects divergence, it
/// does not authenticate anything.
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    fn put_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
    }

    fn put_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.put_u8(b);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterConfig;

    fn small_state() -> SessionState {
        let mut p0 = MultiRouter::new(RouterConfig::default());
        p0.lane_mut(GroupId::new(0))
            .load_state(None, &[NodeId::new(1)], false);
        p0.lane_mut(GroupId::new(0)).set_source();
        let mut p1 = MultiRouter::new(RouterConfig::default());
        p1.lane_mut(GroupId::new(0))
            .load_state(Some(NodeId::new(0)), &[], true);
        SessionState::capture(
            &[p0, p1],
            &[AffectedGroup {
                group: 0,
                affected: vec![1],
            }],
            &BTreeSet::new(),
            SimTime::from_ms(100.0),
        )
    }

    #[test]
    fn capture_reads_tree_shape_and_strands_unserved_members() {
        let state = small_state();
        assert_eq!(state.groups.len(), 1);
        let g = &state.groups[0];
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.nodes[0].downstream, vec![1]);
        assert_eq!(g.nodes[1].upstream, Some(0));
        assert!(g.nodes[1].member);
        // No deliveries were recorded, so the affected member is stranded.
        assert_eq!(g.restored, Vec::<u32>::new());
        assert_eq!(g.stranded, vec![1]);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let state = small_state();
        let d = state.digest();
        assert_eq!(d, state.clone().digest(), "digest must be deterministic");
        let mut mutated = state;
        mutated.groups[0].nodes[1].member = false;
        assert_ne!(d, mutated.digest(), "digest must see field changes");
    }
}
