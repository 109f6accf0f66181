//! The SMRP session: incremental membership and tree reshaping (§3.2).
//!
//! [`SmrpSession`] drives a [`MulticastTree`] through explicit member joins
//! and departures using the path selection of [`crate::select`], and
//! implements the tree-reshaping procedure of §3.2.3:
//!
//! * **Condition I** — every member records the `SHR` of its path when it
//!   (re)joins; when later joins push the current value more than
//!   `reshape_threshold` above that baseline, the member re-runs path
//!   selection.
//! * **Condition II** — a periodic sweep ([`SmrpSession::reshape_sweep`])
//!   re-evaluates every member regardless of baselines, catching
//!   improvements enabled by departures.
//!
//! During re-evaluation the member's own branch is removed from the
//! candidate tree so `SHR` values are *adjusted* exactly as §3.2.3 requires
//! ("since the current path still exists when the new path is located, the
//! value of SHR may be inaccurate and should be adjusted before the path
//! comparison is made").

use std::sync::Arc;

use smrp_net::dijkstra::{Constraints, ShortestPathTree};
use smrp_net::{Graph, NodeId, Path};

use crate::error::SmrpError;
use crate::select::{self, SearchScratch, SelectionMode};
use crate::tree::{Detached, MulticastTree};

/// Tunable parameters of the protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmrpConfig {
    /// `D_thresh`: relative slack over the unicast shortest-path delay a
    /// member's multicast path may consume (paper default 0.3).
    pub d_thresh: f64,
    /// Condition I trigger: reshape a member once its `SHR` exceeds its
    /// baseline by more than this.
    pub reshape_threshold: u32,
    /// Whether joins automatically trigger Condition I reshaping.
    pub auto_reshape: bool,
    /// Candidate discovery mode (full topology vs §3.3.1 neighbor query).
    pub selection: SelectionMode,
}

impl Default for SmrpConfig {
    /// Paper defaults: `D_thresh = 0.3` (the headline configuration of
    /// §4.3.2), a Condition I threshold of 1 shared link — so the `+2`
    /// growth of `SHR(S,D)` in the Figure 5 example triggers reshaping —
    /// and automatic reshaping on.
    fn default() -> Self {
        SmrpConfig {
            d_thresh: 0.3,
            reshape_threshold: 1,
            auto_reshape: true,
            selection: SelectionMode::FullTopology,
        }
    }
}

impl SmrpConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// [`SmrpError::InvalidConfig`] if `d_thresh` is negative or not
    /// finite.
    pub(crate) fn validate(&self) -> Result<(), SmrpError> {
        if !self.d_thresh.is_finite() || self.d_thresh < 0.0 {
            return Err(SmrpError::InvalidConfig {
                name: "d_thresh",
                reason: "must be finite and non-negative",
            });
        }
        Ok(())
    }
}

/// Outcome of a successful join.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinOutcome {
    /// The node that joined.
    pub member: NodeId,
    /// The on-tree merger node selected by the criterion.
    pub merger: NodeId,
    /// The member's full multicast path `S → member`.
    pub path: Path,
    /// Unicast shortest-path delay used for the bound.
    pub spf_delay: f64,
    /// Delay of the selected multicast path.
    pub selected_delay: f64,
    /// Whether the selected path satisfied the `D_thresh` bound.
    pub within_bound: bool,
    /// Members reshaped by the automatic Condition I pass, if enabled.
    pub reshaped: Vec<NodeId>,
}

/// Outcome of a reshape attempt for one member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReshapeOutcome {
    /// The member switched to a better path.
    Switched {
        /// Merger node of the abandoned path (in the reduced tree).
        old_merger: NodeId,
        /// Merger node of the new path.
        new_merger: NodeId,
    },
    /// The current path is still the best available; nothing changed.
    Kept,
}

/// How often reshaping was asked and how often it changed anything.
///
/// Condition I re-asks a member at every later join for as long as its
/// `SHR` stays above the baseline, and a `Kept` verdict leaves the baseline
/// where it was, so `attempts` can exceed `switched` by orders of
/// magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReshapeStats {
    /// Reshape attempts made by [`SmrpSession::reshape_member`] (from
    /// either condition).
    pub attempts: u64,
    /// Attempts that ended [`ReshapeOutcome::Switched`].
    pub switched: u64,
    /// Attempts that ended `Kept` without a candidate search, because the
    /// current merger's adjusted `SHR` was 0 and no candidate can beat it:
    /// the merger is the source, or a pruned relay (the keeper defect
    /// documented on [`MulticastTree::detach_subtree`]).
    pub settled_without_search: u64,
}

/// An SMRP multicast session over a fixed topology.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct SmrpSession<'g> {
    graph: &'g Graph,
    tree: MulticastTree,
    config: SmrpConfig,
    /// Condition I baseline per member (`SHR` at last join/reshape).
    shr_baseline: Vec<u32>,
    /// Cached unicast shortest-path tree from the source (the routers'
    /// steady-state routing table). Taken from
    /// [`ShortestPathTree::shared`] at construction and reused by every
    /// join/reshape for `D_SPF` lookups and neighbor-query relay routes;
    /// refreshed explicitly via [`SmrpSession::refresh_spt`] when the
    /// usable topology changes (e.g. a failure scenario strikes).
    spt: Arc<ShortestPathTree>,
    /// Working memory of the candidate searches, reused across joins and
    /// reshape attempts.
    scratch: SearchScratch,
    /// Buffers a reshape attempt lends and takes back, so one that settles
    /// allocates nothing and one that searches nothing of its own: the
    /// members a Condition I pass or sweep walks, the moving branch, and
    /// the relay chain a detach records.
    members: Vec<NodeId>,
    branch: Vec<NodeId>,
    relays: Vec<NodeId>,
    reshape_stats: ReshapeStats,
}

impl<'g> SmrpSession<'g> {
    /// Creates an empty session rooted at `source`.
    ///
    /// # Errors
    ///
    /// Fails on an unknown source node or invalid configuration.
    pub fn new(graph: &'g Graph, source: NodeId, config: SmrpConfig) -> Result<Self, SmrpError> {
        config.validate()?;
        let tree = MulticastTree::new(graph, source)?;
        let spt = ShortestPathTree::shared(graph, source);
        Ok(SmrpSession {
            graph,
            tree,
            config,
            shr_baseline: vec![0; graph.node_count()],
            spt,
            scratch: SearchScratch::default(),
            members: Vec::new(),
            branch: Vec::new(),
            relays: Vec::new(),
            reshape_stats: ReshapeStats::default(),
        })
    }

    /// The underlying multicast tree.
    pub fn tree(&self) -> &MulticastTree {
        &self.tree
    }

    /// Ends the session and hands over its tree without copying it.
    pub fn into_tree(self) -> MulticastTree {
        self.tree
    }

    /// The cached unicast shortest-path tree from the source.
    ///
    /// This is the `D_SPF` oracle used by the join bound and, under
    /// [`SelectionMode::NeighborQuery`], the unicast routes along which
    /// neighbors relay join queries. It reflects the constraints passed to
    /// the most recent [`SmrpSession::refresh_spt`] call (initially: the
    /// unrestricted topology).
    pub fn spt(&self) -> &ShortestPathTree {
        &self.spt
    }

    /// Recomputes the cached source SPT under `constraints`. The session
    /// takes its own copy first if the tree is shared (with the graph's
    /// slot or a cloned session), so nobody else sees the constrained tree.
    ///
    /// **Invalidation contract:** the session never detects topology
    /// changes on its own — whoever injects a [`smrp_net::FailureScenario`]
    /// (or repairs one) must call this before driving further joins or
    /// reshapes through the session, typically with
    /// [`Constraints::avoiding_failures`]. Recovery itself
    /// ([`crate::recovery`]) deliberately does *not* read this cache: its
    /// detours are per-scenario constrained searches, so a recovery pass
    /// can never consume a stale SPT even if the caller forgets to refresh.
    pub fn refresh_spt(&mut self, constraints: Constraints<'_>) {
        Arc::make_mut(&mut self.spt).recompute_constrained(self.graph, constraints);
    }

    /// Reshape attempts made and switches taken since the session began.
    pub fn reshape_stats(&self) -> ReshapeStats {
        self.reshape_stats
    }

    /// Iterator over current members.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.tree.members()
    }

    /// Joins `node` to the session using the SMRP path selection criterion.
    ///
    /// # Example
    ///
    /// ```
    /// use smrp_core::{SmrpConfig, SmrpSession};
    /// use smrp_net::Graph;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut g = Graph::with_nodes(3);
    /// let ids: Vec<_> = g.node_ids().collect();
    /// g.add_link(ids[0], ids[1], 1.0)?;
    /// g.add_link(ids[1], ids[2], 1.0)?;
    /// let mut sess = SmrpSession::new(&g, ids[0], SmrpConfig::default())?;
    /// let out = sess.join(ids[2])?;
    /// assert!(out.within_bound);
    /// assert_eq!(out.path.nodes(), &[ids[0], ids[1], ids[2]]);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// * [`SmrpError::SourceOperation`] — the source cannot join itself;
    /// * [`SmrpError::AlreadyMember`] — duplicate join;
    /// * [`SmrpError::UnknownNode`] / [`SmrpError::NoFeasiblePath`] — the
    ///   node does not exist or cannot reach the tree.
    pub fn join(&mut self, node: NodeId) -> Result<JoinOutcome, SmrpError> {
        if node == self.tree.source() {
            return Err(SmrpError::SourceOperation(node));
        }
        if !self.graph.contains_node(node) {
            return Err(SmrpError::UnknownNode(node));
        }
        if self.tree.is_member(node) {
            return Err(SmrpError::AlreadyMember(node));
        }

        let (merger, spf_delay, within_bound) = if self.tree.is_on_tree(node) {
            // Already a relay: becoming a member needs no new links.
            let spf = self
                .spt
                .distance(node)
                .ok_or(SmrpError::NoFeasiblePath(node))?;
            (node, spf, true)
        } else {
            let sel = select::select_path_in(
                &mut self.scratch,
                self.graph,
                &self.tree,
                &self.spt,
                node,
                self.config.d_thresh,
                self.config.selection,
                &[],
            )?;
            self.tree.attach_path(&sel.candidate.approach);
            (sel.candidate.merger, sel.spf_delay, sel.within_bound)
        };
        self.tree.set_member(node, true)?;
        self.shr_baseline[node.index()] = self.tree.shr(node);

        let reshaped = if self.config.auto_reshape {
            self.condition_i_pass(node)
        } else {
            Vec::new()
        };

        let path = self
            .tree
            .path_from_source(node)
            .expect("member was just attached");
        let selected_delay = path.delay(self.graph);
        Ok(JoinOutcome {
            member: node,
            merger,
            path,
            spf_delay,
            selected_delay,
            within_bound,
            reshaped,
        })
    }

    /// Joins `node` as an aggregated attachment point serving `weight`
    /// receivers (§3.3.3 at scale): path selection is identical to
    /// [`join`](Self::join), but the membership enters the Eq. 2 `SHR`/`N`
    /// maintenance with the full population weight.
    ///
    /// # Errors
    ///
    /// The [`join`](Self::join) errors, plus
    /// [`SmrpError::InvalidConfig`] for a zero weight.
    pub fn join_weighted(&mut self, node: NodeId, weight: u32) -> Result<JoinOutcome, SmrpError> {
        if weight == 0 {
            return Err(SmrpError::InvalidConfig {
                name: "weight",
                reason: "aggregated populations must serve at least one receiver",
            });
        }
        let out = self.join(node)?;
        if weight != 1 {
            self.tree.set_member_weight(node, weight)?;
            self.shr_baseline[node.index()] = self.tree.shr(node);
        }
        Ok(out)
    }

    /// Removes `node` from the session, pruning the released branch.
    ///
    /// # Errors
    ///
    /// [`SmrpError::NotMember`] if the node is not a member.
    pub fn leave(&mut self, node: NodeId) -> Result<(), SmrpError> {
        if !self.tree.is_member(node) {
            return Err(SmrpError::NotMember(node));
        }
        self.tree.set_member(node, false)?;
        self.tree.prune_from(node);
        self.shr_baseline[node.index()] = 0;
        Ok(())
    }

    /// Condition I: after `joined` was admitted, re-evaluate members whose
    /// `SHR` grew beyond their baseline. Returns the members that actually
    /// switched paths.
    fn condition_i_pass(&mut self, joined: NodeId) -> Vec<NodeId> {
        let mut switched = Vec::new();
        let mut members = self.take_members();
        for &m in &members {
            if m == joined {
                continue;
            }
            let current = self.tree.shr(m);
            let baseline = self.shr_baseline[m.index()];
            if current.saturating_sub(baseline) > self.config.reshape_threshold {
                if let Ok(ReshapeOutcome::Switched { .. }) = self.reshape_member(m) {
                    switched.push(m);
                }
            }
        }
        members.clear();
        self.members = members;
        switched
    }

    /// The current members, in the session's buffer (hand it back to
    /// `self.members` when done).
    fn take_members(&mut self) -> Vec<NodeId> {
        let mut members = std::mem::take(&mut self.members);
        members.extend(self.tree.members());
        members
    }

    /// Attempts to reshape `member` (both conditions funnel here).
    ///
    /// The comparison is against the tree reduced by the member's branch,
    /// which yields *adjusted* `SHR` values. The detach is planned first,
    /// reading the tree only: a current merger whose adjusted `SHR` is 0
    /// cannot be beaten, so then the attempt settles as `Kept` without
    /// writing anything. Otherwise the branch is detached, candidates are
    /// searched against the reduced tree, and the best one is compared
    /// with the current merger. The switch happens only when the new
    /// merger's adjusted `SHR` is strictly smaller, the new path respects
    /// the `D_thresh` bound, and the approach path can actually carry the
    /// subtree (no interior node of the new path belongs to the subtree);
    /// otherwise the subtree is put back exactly where it was.
    ///
    /// # Errors
    ///
    /// [`SmrpError::NotMember`] for non-members;
    /// [`SmrpError::NoFeasiblePath`] when the cached SPT does not reach the
    /// member.
    pub fn reshape_member(&mut self, member: NodeId) -> Result<ReshapeOutcome, SmrpError> {
        if !self.tree.is_member(member) {
            return Err(SmrpError::NotMember(member));
        }
        if self.tree.parent(member).is_none() {
            // The member sits directly at the source-adjacent root spot or
            // is the source itself; nothing to reshape.
            return Ok(ReshapeOutcome::Kept);
        }
        if self.spt.distance(member).is_none() {
            return Err(SmrpError::NoFeasiblePath(member));
        }
        self.reshape_stats.attempts += 1;

        let (plan, old_shr) = self
            .tree
            .plan_detach(member, std::mem::take(&mut self.relays))?;
        let outcome = if old_shr == 0 {
            self.reshape_stats.settled_without_search += 1;
            ReshapeOutcome::Kept
        } else {
            self.search_and_move(member, &plan, old_shr)
        };
        self.relays = plan.into_relays();
        Ok(outcome)
    }

    /// The searching half of [`reshape_member`](Self::reshape_member):
    /// detach by `plan`, look for a merger with `SHR` below `old_shr`, and
    /// either move the branch there or put it back.
    fn search_and_move(&mut self, member: NodeId, plan: &Detached, old_shr: u32) -> ReshapeOutcome {
        self.tree.detach_planned(plan);
        // Candidates against the reduced tree; the moving subtree may be
        // neither merger nor relay.
        let mut branch = std::mem::take(&mut self.branch);
        self.tree.collect_subtree(member, &mut branch);
        let selection = select::select_within_bound(
            &mut self.scratch,
            self.graph,
            &self.tree,
            &self.spt,
            member,
            self.config.d_thresh,
            self.config.selection,
            &branch[1..],
        );
        // Adjusted comparison: candidate merger vs current merger, both in
        // the reduced tree.
        let outcome = match selection.filter(|win| win.shr < old_shr) {
            None => {
                self.tree.reattach(plan);
                ReshapeOutcome::Kept
            }
            Some(win) => {
                // Commit: the branch is already detached; reattach it along
                // the new path.
                let approach = win.approach(&self.scratch, &self.spt, member);
                self.tree.attach_path(&approach);
                // The move changed SHR for *every* member carried along in
                // the subtree, not just the reshaped one; all of their
                // Condition I baselines restart from the post-move values.
                // Refreshing only the moved member would leave the others
                // comparing against SHR values of a path that no longer
                // exists.
                for &n in &branch {
                    if self.tree.is_member(n) {
                        self.shr_baseline[n.index()] = self.tree.shr(n);
                    }
                }
                self.reshape_stats.switched += 1;
                ReshapeOutcome::Switched {
                    old_merger: plan.keeper(),
                    new_merger: win.merger,
                }
            }
        };
        self.branch = branch;
        outcome
    }

    /// Condition II: one periodic sweep re-evaluating every member (in
    /// node-id order). Returns how many members switched paths.
    pub fn reshape_sweep(&mut self) -> usize {
        let mut members = self.take_members();
        let mut switched = 0;
        for &m in &members {
            if matches!(self.reshape_member(m), Ok(ReshapeOutcome::Switched { .. })) {
                switched += 1;
            }
        }
        members.clear();
        self.members = members;
        switched
    }

    /// Runs Condition II sweeps until quiescent (or `max_rounds`). Returns
    /// total switches.
    pub fn reshape_until_stable(&mut self, max_rounds: usize) -> usize {
        let mut total = 0;
        for _ in 0..max_rounds {
            let n = self.reshape_sweep();
            total += n;
            if n == 0 {
                break;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ladder graph where sharing is avoidable: S connects to two rails.
    fn ladder() -> (Graph, Vec<NodeId>) {
        // s - a1 - a2
        //  \  b1 - b2   with rungs a1-b1, a2-b2.
        let mut g = Graph::with_nodes(5);
        let ids: Vec<_> = g.node_ids().collect();
        let [s, a1, a2, b1, b2] = [ids[0], ids[1], ids[2], ids[3], ids[4]];
        g.add_link(s, a1, 1.0).unwrap();
        g.add_link(a1, a2, 1.0).unwrap();
        g.add_link(s, b1, 1.0).unwrap();
        g.add_link(b1, b2, 1.0).unwrap();
        g.add_link(a1, b1, 1.0).unwrap();
        g.add_link(a2, b2, 1.0).unwrap();
        (g, ids)
    }

    #[test]
    fn joins_spread_over_disjoint_paths() {
        let (g, ids) = ladder();
        let [s, _, a2, _, b2] = [ids[0], ids[1], ids[2], ids[3], ids[4]];
        let mut sess = SmrpSession::new(&g, s, SmrpConfig::default()).unwrap();
        sess.join(a2).unwrap();
        let out = sess.join(b2).unwrap();
        // b2 should avoid a2's rail entirely: path S -> b1 -> b2.
        assert_eq!(out.path.nodes(), &[s, ids[3], b2]);
        sess.tree().validate(&g).unwrap();
        // The two member paths share no link.
        let pa = sess.tree().path_from_source(a2).unwrap();
        let pb = sess.tree().path_from_source(b2).unwrap();
        let la = pa.links(&g);
        assert!(pb.links(&g).iter().all(|l| !la.contains(l)));
    }

    #[test]
    fn join_errors() {
        let (g, ids) = ladder();
        let s = ids[0];
        let mut sess = SmrpSession::new(&g, s, SmrpConfig::default()).unwrap();
        assert!(matches!(sess.join(s), Err(SmrpError::SourceOperation(_))));
        sess.join(ids[2]).unwrap();
        assert!(matches!(
            sess.join(ids[2]),
            Err(SmrpError::AlreadyMember(_))
        ));
        assert!(matches!(
            sess.join(NodeId::new(77)),
            Err(SmrpError::UnknownNode(_))
        ));
    }

    #[test]
    fn relay_can_become_member_without_new_links() {
        let (g, ids) = ladder();
        let [s, a1, a2, ..] = [ids[0], ids[1], ids[2], ids[3], ids[4]];
        let mut sess = SmrpSession::new(&g, s, SmrpConfig::default()).unwrap();
        sess.join(a2).unwrap();
        let links_before = sess.tree().links(&g).len();
        let out = sess.join(a1).unwrap();
        assert_eq!(out.merger, a1);
        assert_eq!(sess.tree().links(&g).len(), links_before);
        assert!(sess.tree().is_member(a1));
        sess.tree().validate(&g).unwrap();
    }

    #[test]
    fn leave_prunes_branch() {
        let (g, ids) = ladder();
        let [s, _, a2, _, b2] = [ids[0], ids[1], ids[2], ids[3], ids[4]];
        let mut sess = SmrpSession::new(&g, s, SmrpConfig::default()).unwrap();
        sess.join(a2).unwrap();
        sess.join(b2).unwrap();
        sess.leave(a2).unwrap();
        assert!(!sess.tree().is_on_tree(a2));
        assert!(!sess.tree().is_on_tree(ids[1]));
        assert!(sess.tree().is_member(b2));
        sess.tree().validate(&g).unwrap();
        assert!(matches!(sess.leave(a2), Err(SmrpError::NotMember(_))));
    }

    #[test]
    fn reshape_kept_when_tree_is_already_good() {
        let (g, ids) = ladder();
        let [s, _, a2, _, b2] = [ids[0], ids[1], ids[2], ids[3], ids[4]];
        let mut sess = SmrpSession::new(&g, s, SmrpConfig::default()).unwrap();
        sess.join(a2).unwrap();
        sess.join(b2).unwrap();
        assert_eq!(sess.reshape_sweep(), 0);
    }

    #[test]
    fn reshape_moves_member_off_crowded_path() {
        // Chain sharing: with auto_reshape off, force both members onto one
        // rail by a tight bound? Instead build the sharing directly, then
        // let the sweep fix it.
        let (g, ids) = ladder();
        let [s, a1, a2, b1, b2] = [ids[0], ids[1], ids[2], ids[3], ids[4]];
        let mut sess = SmrpSession::new(
            &g,
            s,
            SmrpConfig {
                auto_reshape: false,
                ..SmrpConfig::default()
            },
        )
        .unwrap();
        sess.join(a2).unwrap();
        sess.join(b2).unwrap();
        // Manually sabotage: detach b2 and hang it under a2's rail via the
        // rung, creating heavy sharing on S-a1.
        sess.tree.detach_subtree(b2).unwrap();
        sess.tree.attach_path(&smrp_net::Path::new(vec![b2, a2]));
        sess.tree.validate(&g).unwrap();
        assert_eq!(sess.tree().shr(b2), 5); // N_a1=2 + N_a2=2 + N_b2=1.
        let switched = sess.reshape_sweep();
        assert!(switched >= 1);
        sess.tree().validate(&g).unwrap();
        // b2 must be back on its own rail (merger S, SHR adjusted 0).
        let pb = sess.tree().path_from_source(b2).unwrap();
        assert_eq!(pb.nodes(), &[s, b1, b2]);
        let _ = a1;
    }

    #[test]
    fn reshape_until_stable_terminates() {
        let (g, ids) = ladder();
        let mut sess = SmrpSession::new(&g, ids[0], SmrpConfig::default()).unwrap();
        sess.join(ids[2]).unwrap();
        sess.join(ids[4]).unwrap();
        assert_eq!(sess.reshape_until_stable(10), 0);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (g, ids) = ladder();
        let bad = SmrpConfig {
            d_thresh: -0.5,
            ..SmrpConfig::default()
        };
        assert!(matches!(
            SmrpSession::new(&g, ids[0], bad),
            Err(SmrpError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn reshape_of_non_member_errors() {
        let (g, ids) = ladder();
        let mut sess = SmrpSession::new(&g, ids[0], SmrpConfig::default()).unwrap();
        assert!(matches!(
            sess.reshape_member(ids[1]),
            Err(SmrpError::NotMember(_))
        ));
    }

    #[test]
    fn reshape_refreshes_baselines_of_all_carried_members() {
        // Regression test: when a reshape moves a whole branch, every
        // member riding along gets a fresh Condition I baseline, not just
        // the member that initiated the move.
        let (g, ids) = ladder();
        let [s, a1, a2, b1, b2] = [ids[0], ids[1], ids[2], ids[3], ids[4]];
        let mut sess = SmrpSession::new(
            &g,
            s,
            SmrpConfig {
                auto_reshape: false,
                ..SmrpConfig::default()
            },
        )
        .unwrap();
        sess.join(a2).unwrap();
        sess.join(b1).unwrap();
        sess.join(b2).unwrap();
        // Sabotage: hang the b-rail branch (members b1 and b2) under a1 via
        // the rung, crowding S-a1.
        sess.tree.detach_subtree(b1).unwrap();
        sess.tree.attach_path(&smrp_net::Path::new(vec![b1, a1]));
        sess.tree.validate(&g).unwrap();
        let stale_b2 = sess.shr_baseline[b2.index()];
        assert_ne!(stale_b2, sess.tree().shr(b2), "sabotage must stale b2");

        let out = sess.reshape_member(b1).unwrap();
        assert!(matches!(out, ReshapeOutcome::Switched { .. }));
        sess.tree().validate(&g).unwrap();
        // b1 is back on its own rail and carried b2 with it; both baselines
        // must match the post-move SHR values.
        assert_eq!(
            sess.tree().path_from_source(b2).unwrap().nodes(),
            &[s, b1, b2]
        );
        for m in [b1, b2] {
            assert_eq!(
                sess.shr_baseline[m.index()],
                sess.tree().shr(m),
                "carried member's baseline not refreshed"
            );
        }
    }

    #[test]
    fn refresh_spt_tracks_failure_scenarios() {
        let (g, ids) = ladder();
        let [s, a1, a2, ..] = [ids[0], ids[1], ids[2], ids[3], ids[4]];
        let mut sess = SmrpSession::new(&g, s, SmrpConfig::default()).unwrap();
        // Steady state: a2 is two hops away along its rail.
        assert_eq!(sess.spt().distance(a2), Some(2.0));
        // a1 fails: until the caller refreshes, the cache is stale by
        // design; after the refresh the detour via the other rail shows up.
        let scenario = smrp_net::FailureScenario::node(a1);
        sess.refresh_spt(Constraints::avoiding_failures(&scenario));
        assert_eq!(sess.spt().distance(a2), Some(3.0)); // s-b1-b2-a2.
        assert_eq!(sess.spt().distance(a1), None);
        // Repair: back to the unrestricted table.
        sess.refresh_spt(Constraints::unrestricted());
        assert_eq!(sess.spt().distance(a2), Some(2.0));
    }

    #[test]
    fn constrained_refresh_leaves_siblings_and_the_shared_slot_alone() {
        let (g, ids) = ladder();
        let [s, a1, a2, ..] = [ids[0], ids[1], ids[2], ids[3], ids[4]];
        let mut hurt = SmrpSession::new(&g, s, SmrpConfig::default()).unwrap();
        let sibling = SmrpSession::new(&g, s, SmrpConfig::default()).unwrap();
        let slot = ShortestPathTree::shared(&g, s);
        assert!(std::ptr::eq(hurt.spt(), &*slot) && std::ptr::eq(sibling.spt(), &*slot));

        let scenario = smrp_net::FailureScenario::node(a1);
        hurt.refresh_spt(Constraints::avoiding_failures(&scenario));
        assert_eq!(hurt.spt().distance(a2), Some(3.0));
        assert!(Arc::ptr_eq(&slot, &ShortestPathTree::shared(&g, s)));
        for spt in [sibling.spt(), &*slot] {
            assert!(spt.is_unrestricted());
            assert_eq!(spt.distance(a2), Some(2.0));
            assert_eq!(spt.distance(a1), Some(1.0));
        }
    }

    #[test]
    fn keeper_with_zero_shr_settles_without_a_search() {
        // Chain s - r1 - r2 - m.
        let mut g = Graph::with_nodes(4);
        let ids: Vec<_> = g.node_ids().collect();
        let [s, r1, r2, m] = [ids[0], ids[1], ids[2], ids[3]];
        g.add_link(s, r1, 1.0).unwrap();
        g.add_link(r1, r2, 1.0).unwrap();
        g.add_link(r2, m, 1.0).unwrap();
        let config = SmrpConfig {
            auto_reshape: false,
            ..SmrpConfig::default()
        };
        let mut sess = SmrpSession::new(&g, s, config).unwrap();
        sess.join(m).unwrap();
        let mut expect = ReshapeStats::default();
        let mut attempt = |sess: &mut SmrpSession<'_>, member, searched: bool| {
            let before = sess.tree.clone();
            assert_eq!(sess.reshape_member(member).unwrap(), ReshapeOutcome::Kept);
            assert_eq!(sess.tree, before);
            expect.attempts += 1;
            expect.settled_without_search += u64::from(!searched);
            assert_eq!(sess.reshape_stats(), expect);
        };
        // m's branch leaves r2 and r1 childless: the reported keeper is the
        // pruned r1 (the `detach_subtree` defect), whose SHR reads 0.
        attempt(&mut sess, m, false);
        sess.join(r1).unwrap();
        // Now the keeper is the member r1 with SHR 1: a real search.
        attempt(&mut sess, m, true);
        // r1's branch hangs off the source itself.
        attempt(&mut sess, r1, false);
    }

    #[test]
    fn constrained_spt_disables_the_delay_bounded_search() {
        // Regression test: the bounded search prunes with D_SPF(S,v) read
        // off the cached SPT, which is a lower bound only while that SPT
        // is unrestricted. Here the tree link S-A fails, so the refreshed
        // SPT reaches V the long way round (5.0 instead of 2.0) and the
        // ellipse 1.0 + 5.0 > 1.3 * 4.0 would cut V — and with it the
        // winning merger A — out of NR's search.
        let mut g = Graph::with_nodes(5);
        let ids: Vec<_> = g.node_ids().collect();
        let [s, a, v, nr, y] = [ids[0], ids[1], ids[2], ids[3], ids[4]];
        let l_sa = g.add_link(s, a, 1.0).unwrap();
        g.add_link(a, v, 1.0).unwrap();
        g.add_link(v, nr, 1.0).unwrap();
        g.add_link(s, y, 2.0).unwrap();
        g.add_link(y, nr, 2.0).unwrap();
        let config = SmrpConfig {
            auto_reshape: false,
            ..SmrpConfig::default()
        };
        let mut sess = SmrpSession::new(&g, s, config).unwrap();
        sess.join(a).unwrap();
        sess.join(y).unwrap();
        let scenario = smrp_net::FailureScenario::link(l_sa);
        sess.refresh_spt(Constraints::avoiding_failures(&scenario));
        assert_eq!(sess.spt().distance(v), Some(5.0));

        // The unbounded search: every candidate, then the criterion.
        let candidates = select::enumerate_candidates(
            &g,
            sess.tree(),
            sess.spt(),
            nr,
            SelectionMode::FullTopology,
            &[],
        );
        let spf_delay = sess.spt().distance(nr).unwrap();
        let expected = select::apply_criterion(candidates, spf_delay, config.d_thresh, nr).unwrap();
        assert_eq!(expected.candidate.merger, a);

        let out = sess.join(nr).unwrap();
        assert_eq!(
            out,
            JoinOutcome {
                member: nr,
                merger: a,
                path: Path::new(vec![s, a, v, nr]),
                spf_delay: 4.0,
                selected_delay: expected.candidate.total_delay,
                within_bound: true,
                reshaped: Vec::new(),
            }
        );
    }

    #[test]
    fn kept_attempts_leave_tree_and_baselines_untouched() {
        use smrp_net::waxman::WaxmanConfig;
        let mut kept = 0;
        for seed in 0..12 {
            let graph = WaxmanConfig::new(40)
                .alpha(0.3)
                .seed(seed)
                .generate()
                .unwrap()
                .into_graph();
            let ids: Vec<_> = graph.node_ids().collect();
            for selection in [SelectionMode::FullTopology, SelectionMode::NeighborQuery] {
                let config = SmrpConfig {
                    selection,
                    ..SmrpConfig::default()
                };
                let mut sess = SmrpSession::new(&graph, ids[0], config).unwrap();
                for &m in ids.iter().skip(1).step_by(3) {
                    sess.join(m).unwrap();
                }
                let members: Vec<_> = sess.members().collect();
                for m in members {
                    let tree = sess.tree.clone();
                    let baselines = sess.shr_baseline.clone();
                    if sess.reshape_member(m).unwrap() == ReshapeOutcome::Kept {
                        kept += 1;
                        assert_eq!(sess.tree, tree);
                        assert_eq!(sess.shr_baseline, baselines);
                    }
                }
            }
        }
        assert!(kept > 100, "only {kept} attempts ended Kept");
    }

    #[test]
    fn condition_i_triggers_on_shr_growth() {
        // Line topology where later joins crowd an early member's path and
        // an alternative rail exists.
        let (g, ids) = ladder();
        let [s, a1, a2, b1, b2] = [ids[0], ids[1], ids[2], ids[3], ids[4]];
        let mut sess = SmrpSession::new(
            &g,
            s,
            SmrpConfig {
                reshape_threshold: 0,
                ..SmrpConfig::default()
            },
        )
        .unwrap();
        sess.join(a2).unwrap();
        sess.join(b2).unwrap();
        // Join a1 and b1 as members: each sits on an existing rail and
        // raises SHR of the rail's leaf; with threshold 0, Condition I
        // re-evaluates a2/b2, which should keep (no better option).
        let out = sess.join(a1).unwrap();
        sess.tree().validate(&g).unwrap();
        // a2's SHR grew from 2 to 4; reshape was attempted. Whether it
        // switches depends on alternatives; the tree must stay valid and
        // members connected either way.
        assert!(sess.tree().is_member(a2));
        let _ = (out, b1);
    }
}
