//! Failure recovery: local vs global detours and the recovery distance.
//!
//! When a persistent failure disconnects part of the multicast tree, each
//! disconnected member restores service by locating a restoration path
//! around the faulty component (§3.1, §4.2):
//!
//! * **Local detour** — the SMRP recovery strategy: connect to the
//!   *nearest* on-tree node that is still connected to the source, over any
//!   non-faulty route. The recovery distance `RD_R` is the delay of that
//!   member-to-attach-point segment ("the distance between the disconnected
//!   member R and its local recovery on-tree node", §4.2; Figure 1's
//!   `RD_D = 2` for restoration path `D → C`).
//! * **Global detour** — what SPF-based protocols do after unicast routing
//!   reconverges: re-join along the new shortest path to the source. The
//!   restoration path is the prefix of that new path up to the first
//!   still-connected on-tree node (PIM join propagation stops there), and
//!   `RD_R` is its delay.
//!
//! The worst-case failure model of §4.3.1 — "the link closest to the source
//! node on R's multicast path" — is provided by [`worst_case_failure_for`].
//!
//! Every recovery planner — reactive plans, protection chains and
//! hierarchical domains — asks its questions of one [`Contingency`], which
//! computes the surviving tree-connected set once per scenario.

use std::cell::OnceCell;

use smrp_net::dijkstra::{self, Constraints};
use smrp_net::{FailureScenario, Graph, LinkId, NodeId, Path};

use crate::tree::MulticastTree;

/// Which restoration strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetourKind {
    /// Connect to the nearest still-connected on-tree node (SMRP).
    Local,
    /// Re-join along the post-reconvergence unicast shortest path
    /// (PIM/MOSPF baseline).
    Global,
}

/// Why a recovery attempt produced no restoration path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// The member's service was never disrupted by this scenario.
    NotAffected(NodeId),
    /// The member itself failed, or no non-faulty route to the surviving
    /// tree exists.
    Unrecoverable(NodeId),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NotAffected(n) => {
                write!(f, "member {n} is not affected by the failure")
            }
            RecoveryError::Unrecoverable(n) => {
                write!(
                    f,
                    "member {n} has no non-faulty route to the surviving tree"
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// A computed restoration path for one disconnected member.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    member: NodeId,
    restoration_path: Path,
    recovery_distance: f64,
    new_end_to_end_delay: f64,
}

impl Recovery {
    /// The recovered member.
    pub fn member(&self) -> NodeId {
        self.member
    }

    /// The restoration path from the member to its recovery on-tree node.
    pub fn restoration_path(&self) -> &Path {
        &self.restoration_path
    }

    /// The still-connected on-tree node the member re-attaches to.
    pub fn attach(&self) -> NodeId {
        self.restoration_path.target()
    }

    /// `RD_R`: delay of the restoration path (§4.2).
    pub fn recovery_distance(&self) -> f64 {
        self.recovery_distance
    }

    /// The member's end-to-end delay after re-attachment (tree delay to the
    /// attach point plus the restoration path).
    pub fn new_end_to_end_delay(&self) -> f64 {
        self.new_end_to_end_delay
    }
}

/// One contingency — a failure scenario laid over one tree — and the
/// questions every recovery planner asks of it (§3.1): which members it
/// cuts off, which on-tree nodes detect it, and where each cut-off node
/// detours to.
///
/// The surviving tree-connected set ([`surviving_connected`]) is computed
/// once, by the first question that needs it, and read by every later
/// one; [`fragment_roots`](Self::fragment_roots) and
/// [`anchored_detour`](Self::anchored_detour) never compute it.
#[derive(Debug)]
pub struct Contingency<'a> {
    graph: &'a Graph,
    tree: &'a MulticastTree,
    scenario: &'a FailureScenario,
    /// Per-node mask of [`surviving_connected`], filled on first use.
    connected: OnceCell<Vec<bool>>,
}

impl<'a> Contingency<'a> {
    /// `scenario` laid over `tree` on `graph`. Computes nothing yet.
    pub fn new(graph: &'a Graph, tree: &'a MulticastTree, scenario: &'a FailureScenario) -> Self {
        Contingency {
            graph,
            tree,
            scenario,
            connected: OnceCell::new(),
        }
    }

    fn connected(&self) -> &[bool] {
        self.connected.get_or_init(|| {
            let mut mask = vec![false; self.graph.node_count()];
            for n in surviving_connected(self.graph, self.tree, self.scenario) {
                mask[n.index()] = true;
            }
            mask
        })
    }

    /// Members whose tree path to the source the scenario broke (members
    /// that failed themselves included), in [`MulticastTree::members`]
    /// order.
    pub fn affected_members(&self) -> Vec<NodeId> {
        let connected = self.connected();
        self.tree
            .members()
            .filter(|m| !connected[m.index()])
            .collect()
    }

    /// Fragment roots: usable on-tree nodes whose upstream link the
    /// scenario broke, in [`MulticastTree::on_tree_nodes`] order. These
    /// are the nodes that detect the failure and recover for their
    /// subtree.
    pub fn fragment_roots(&self) -> Vec<NodeId> {
        let (graph, tree, scenario) = (self.graph, self.tree, self.scenario);
        let broken = |n: NodeId| {
            let upstream = tree.parent(n).and_then(|p| graph.link_between(n, p));
            upstream.is_some_and(|l| !scenario.link_usable(graph, l))
        };
        tree.on_tree_nodes()
            .filter(|&n| scenario.node_usable(n) && broken(n))
            .collect()
    }

    /// The restoration path of `kind` from the cut-off node `from`.
    ///
    /// # Errors
    ///
    /// * [`RecoveryError::NotAffected`] — `from` is still connected;
    /// * [`RecoveryError::Unrecoverable`] — `from` failed or no non-faulty
    ///   route to the surviving tree exists.
    pub fn detour(&self, from: NodeId, kind: DetourKind) -> Result<Recovery, RecoveryError> {
        let (graph, tree, scenario) = (self.graph, self.tree, self.scenario);
        let unrecoverable = RecoveryError::Unrecoverable(from);
        if !scenario.node_usable(from) {
            return Err(unrecoverable);
        }
        let connected = self.connected();
        if connected[from.index()] {
            return Err(RecoveryError::NotAffected(from));
        }

        let constraints = Constraints::avoiding_failures(scenario);
        let restoration = match kind {
            DetourKind::Local => {
                dijkstra::shortest_path_to_any(graph, from, constraints, |n| connected[n.index()])
                    .ok_or(unrecoverable)?
            }
            DetourKind::Global => {
                let spf =
                    dijkstra::shortest_path_constrained(graph, from, tree.source(), constraints)
                        .ok_or(unrecoverable)?;
                // PIM join propagation stops at the first still-connected
                // on-tree router along the new unicast path.
                let nodes = spf.nodes();
                let cut = nodes
                    .iter()
                    .position(|n| connected[n.index()])
                    .expect("path ends at the source, which is connected");
                Path::new(nodes[..=cut].to_vec())
            }
        };

        let recovery_distance = restoration.delay(graph);
        let attach_delay = tree
            .delay_to(graph, restoration.target())
            .expect("attach point is connected to the source");
        Ok(Recovery {
            member: from,
            restoration_path: restoration,
            recovery_distance,
            new_end_to_end_delay: attach_delay + recovery_distance,
        })
    }

    /// The shortest non-faulty path from `from` to the source itself,
    /// treating no other on-tree node as a target — the one attach point
    /// no failure outside the scenario can cut off. `None` when the
    /// scenario disconnects `from` from the source.
    pub fn anchored_detour(&self, from: NodeId) -> Option<Path> {
        let (source, constraints) = (
            self.tree.source(),
            Constraints::avoiding_failures(self.scenario),
        );
        dijkstra::shortest_path_to_any(self.graph, from, constraints, |n| n == source)
    }
}

/// On-tree nodes still connected to the source through surviving tree
/// links, in DFS order from the source.
///
/// Returns an empty vector if the source itself failed.
pub fn surviving_connected(
    graph: &Graph,
    tree: &MulticastTree,
    scenario: &FailureScenario,
) -> Vec<NodeId> {
    let mut out = Vec::new();
    if !scenario.node_usable(tree.source()) {
        return out;
    }
    let mut stack = vec![tree.source()];
    while let Some(u) = stack.pop() {
        out.push(u);
        for &c in tree.children(u) {
            let link = graph.link_between(u, c);
            if scenario.node_usable(c) && link.is_some_and(|l| scenario.link_usable(graph, l)) {
                stack.push(c);
            }
        }
    }
    out
}

/// Per-node mask of *physical* reachability from `source` under
/// `scenario`: `true` when any route of usable links and nodes connects the
/// node to the source, on-tree or not.
///
/// This is the recoverability oracle: an affected member with a `false`
/// entry is partitioned from the source and no protocol can restore it; a
/// usable member with a `true` entry must be restorable by some detour.
pub fn reachable_from_source(
    graph: &Graph,
    source: NodeId,
    scenario: &FailureScenario,
) -> Vec<bool> {
    let mut mask = vec![false; graph.node_count()];
    if !scenario.node_usable(source) {
        return mask;
    }
    mask[source.index()] = true;
    let mut stack = vec![source];
    while let Some(u) = stack.pop() {
        for &(v, l, _) in graph.arcs(u) {
            if mask[v.index()] || !scenario.node_usable(v) || !scenario.link_usable(graph, l) {
                continue;
            }
            mask[v.index()] = true;
            stack.push(v);
        }
    }
    mask
}

/// Members whose tree path to the source was broken by `scenario` (the
/// member node itself may also have failed; such members are included).
/// [`Contingency::affected_members`] on a one-question contingency.
pub fn affected_members(
    graph: &Graph,
    tree: &MulticastTree,
    scenario: &FailureScenario,
) -> Vec<NodeId> {
    Contingency::new(graph, tree, scenario).affected_members()
}

/// The worst-case failure for `member` (§4.3.1): the tree link incident to
/// the source on the member's multicast path, whose loss disables the
/// largest portion of the member's path.
///
/// Returns `None` for off-tree nodes or a member sitting directly at the
/// source.
pub fn worst_case_failure_for(
    graph: &Graph,
    tree: &MulticastTree,
    member: NodeId,
) -> Option<LinkId> {
    let path = tree.path_from_source(member)?;
    let nodes = path.nodes();
    if nodes.len() < 2 {
        return None;
    }
    graph.link_between(nodes[0], nodes[1])
}

/// Computes a restoration path for `member` under `scenario`:
/// [`Contingency::detour`] on a one-question contingency. Planners that
/// ask about several nodes under one scenario build the [`Contingency`]
/// once instead.
///
/// # Errors
///
/// * [`RecoveryError::NotAffected`] — the member is still connected;
/// * [`RecoveryError::Unrecoverable`] — the member failed or no non-faulty
///   route to the surviving tree exists.
///
/// # Example
///
/// Figure 1 of the paper: when `L_AD` fails, member `D`'s local detour is
/// `D → C` with recovery distance 2.
///
/// ```
/// use smrp_core::paper;
/// use smrp_core::recovery::{self, DetourKind};
/// use smrp_net::FailureScenario;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (graph, tree, n) = paper::figure1();
/// let failed = graph.link_between(n.a, n.d).expect("figure link");
/// let scenario = FailureScenario::link(failed);
/// let rec = recovery::recover(&graph, &tree, &scenario, n.d, DetourKind::Local)?;
/// assert_eq!(rec.attach(), n.c);
/// assert_eq!(rec.recovery_distance(), 2.0);
/// # Ok(())
/// # }
/// ```
pub fn recover(
    graph: &Graph,
    tree: &MulticastTree,
    scenario: &FailureScenario,
    member: NodeId,
    kind: DetourKind,
) -> Result<Recovery, RecoveryError> {
    Contingency::new(graph, tree, scenario).detour(member, kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smrp_net::Path as NetPath;

    /// Figure 1(a): tree S-A-{C,D}, members C and D.
    fn figure1() -> (Graph, MulticastTree, [NodeId; 5]) {
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
        t.attach_path(&NetPath::new(vec![c, a, s]));
        t.set_member(c, true).unwrap();
        t.attach_path(&NetPath::new(vec![d, a]));
        t.set_member(d, true).unwrap();
        (g, t, [s, a, b, c, d])
    }

    #[test]
    fn figure1_local_detour_rd_is_two() {
        let (g, t, [_, a, _, c, d]) = figure1();
        let l_ad = g.link_between(a, d).unwrap();
        let scenario = FailureScenario::link(l_ad);
        let rec = recover(&g, &t, &scenario, d, DetourKind::Local).unwrap();
        assert_eq!(rec.attach(), c);
        assert_eq!(rec.recovery_distance(), 2.0);
        assert_eq!(rec.restoration_path().nodes(), &[d, c]);
        // New end-to-end delay: S->A->C (2) + C->D (2).
        assert_eq!(rec.new_end_to_end_delay(), 4.0);
    }

    #[test]
    fn figure1_contingency_answers_every_question() {
        let (g, t, [s, a, _, c, d]) = figure1();
        let l_ad = g.link_between(a, d).unwrap();
        let scenario = FailureScenario::link(l_ad);
        let contingency = Contingency::new(&g, &t, &scenario);
        assert_eq!(contingency.fragment_roots(), vec![d]);
        assert_eq!(contingency.affected_members(), vec![d]);
        let rec = contingency.detour(d, DetourKind::Local).unwrap();
        assert_eq!(
            rec,
            recover(&g, &t, &scenario, d, DetourKind::Local).unwrap()
        );
        assert_eq!(rec.attach(), c);
        // Anchored at the source: D -> B -> S, never the nearer C.
        let anchored = contingency.anchored_detour(d).unwrap();
        assert_eq!(anchored.nodes(), &[d, NodeId::new(2), s]);
        assert_eq!(
            contingency.detour(c, DetourKind::Local),
            Err(RecoveryError::NotAffected(c))
        );
    }

    #[test]
    fn figure1_global_detour_rd_is_three() {
        let (g, t, [s, a, b, _, d]) = figure1();
        let l_ad = g.link_between(a, d).unwrap();
        let scenario = FailureScenario::link(l_ad);
        let rec = recover(&g, &t, &scenario, d, DetourKind::Global).unwrap();
        // New SPF path is D -> B -> S (delay 3); no on-tree node before S.
        assert_eq!(rec.restoration_path().nodes(), &[d, b, s]);
        assert_eq!(rec.attach(), s);
        assert_eq!(rec.recovery_distance(), 3.0);
    }

    #[test]
    fn local_beats_or_ties_global_here() {
        let (g, t, [_, a, _, _, d]) = figure1();
        let l_ad = g.link_between(a, d).unwrap();
        let scenario = FailureScenario::link(l_ad);
        let local = recover(&g, &t, &scenario, d, DetourKind::Local).unwrap();
        let global = recover(&g, &t, &scenario, d, DetourKind::Global).unwrap();
        assert!(local.recovery_distance() <= global.recovery_distance());
    }

    #[test]
    fn source_link_failure_affects_both_members() {
        let (g, t, [s, a, _, c, d]) = figure1();
        let l_sa = g.link_between(s, a).unwrap();
        let scenario = FailureScenario::link(l_sa);
        let mut affected = affected_members(&g, &t, &scenario);
        affected.sort();
        assert_eq!(affected, vec![c, d]);
        let surviving = surviving_connected(&g, &t, &scenario);
        assert_eq!(surviving, vec![s]);
    }

    #[test]
    fn not_affected_member_is_reported() {
        let (g, t, [_, a, _, c, d]) = figure1();
        let l_ad = g.link_between(a, d).unwrap();
        let scenario = FailureScenario::link(l_ad);
        assert_eq!(
            recover(&g, &t, &scenario, c, DetourKind::Local),
            Err(RecoveryError::NotAffected(c))
        );
    }

    #[test]
    fn failed_member_is_unrecoverable() {
        let (g, t, [_, _, _, _, d]) = figure1();
        let scenario = FailureScenario::node(d);
        assert_eq!(
            recover(&g, &t, &scenario, d, DetourKind::Local),
            Err(RecoveryError::Unrecoverable(d))
        );
    }

    #[test]
    fn isolated_member_is_unrecoverable() {
        let (g, t, [_, a, b, _, d]) = figure1();
        // Cut every route out of D: links A-D, C-D, B-D.
        let mut scenario = FailureScenario::link(g.link_between(a, d).unwrap());
        scenario.fail_link(g.link_between(NodeId::new(3), d).unwrap());
        scenario.fail_link(g.link_between(d, b).unwrap());
        assert_eq!(
            recover(&g, &t, &scenario, d, DetourKind::Local),
            Err(RecoveryError::Unrecoverable(d))
        );
        assert_eq!(
            recover(&g, &t, &scenario, d, DetourKind::Global),
            Err(RecoveryError::Unrecoverable(d))
        );
    }

    #[test]
    fn node_failure_disconnects_subtree() {
        let (g, t, [s, a, _, c, d]) = figure1();
        let scenario = FailureScenario::node(a);
        let mut affected = affected_members(&g, &t, &scenario);
        affected.sort();
        assert_eq!(affected, vec![c, d]);
        // C recovers via D? C's options avoiding A: C-D (2). D is on tree
        // but disconnected, so C must reach S: C-D-B-S prefix stops at S.
        let rec = recover(&g, &t, &scenario, c, DetourKind::Local).unwrap();
        assert_eq!(rec.attach(), s);
        let _ = rec;
    }

    #[test]
    fn worst_case_failure_is_source_incident_link() {
        let (g, t, [s, a, _, c, _]) = figure1();
        let l = worst_case_failure_for(&g, &t, c).unwrap();
        assert_eq!(l, g.link_between(s, a).unwrap());
    }

    #[test]
    fn worst_case_failure_for_off_tree_node_is_none() {
        let (g, t, [_, _, b, _, _]) = figure1();
        assert_eq!(worst_case_failure_for(&g, &t, b), None);
    }

    #[test]
    fn source_failure_leaves_nothing_connected() {
        let (g, t, [s, _, _, _, _]) = figure1();
        let scenario = FailureScenario::node(s);
        assert!(surviving_connected(&g, &t, &scenario).is_empty());
    }

    #[test]
    fn simultaneous_node_and_link_failure_still_recovers_locally() {
        // Fail node A *and* link C-D at once: C and D are both cut off,
        // and the C-D shortcut they would otherwise detour over is gone.
        // Both must route around through B independently.
        let (g, t, [s, a, b, c, d]) = figure1();
        let scenario = FailureScenario::node(a).with_link(g.link_between(c, d).unwrap());
        let mut affected = affected_members(&g, &t, &scenario);
        affected.sort();
        assert_eq!(affected, vec![c, d]);
        // C has no usable route at all: C's links are C-A (node down) and
        // C-D (link down).
        assert_eq!(
            recover(&g, &t, &scenario, c, DetourKind::Local),
            Err(RecoveryError::Unrecoverable(c))
        );
        // D still reaches the surviving tree {S} via B.
        let rec = recover(&g, &t, &scenario, d, DetourKind::Local).unwrap();
        assert_eq!(rec.restoration_path().nodes(), &[d, b, s]);
        assert_eq!(rec.attach(), s);
        assert_eq!(rec.recovery_distance(), 3.0);
        // The reachability oracle agrees member-by-member.
        let reach = reachable_from_source(&g, s, &scenario);
        assert!(!reach[c.index()]);
        assert!(reach[d.index()]);
        assert!(!reach[a.index()], "failed nodes are unreachable");
    }

    #[test]
    fn mixed_failure_merged_from_parts_equals_direct_construction() {
        let (g, t, [_, a, _, c, d]) = figure1();
        let l_ad = g.link_between(a, d).unwrap();
        let direct = FailureScenario::link(l_ad).with_node(c);
        let merged = FailureScenario::link(l_ad).merged(&FailureScenario::node(c));
        assert_eq!(direct, merged);
        // D's local detour must now avoid both the failed link and the
        // failed node C (which blocks the D->C shortcut of Figure 1).
        let rec = recover(&g, &t, &merged, d, DetourKind::Local).unwrap();
        assert!(rec.restoration_path().nodes().iter().all(|&n| n != c));
        assert!(!rec.restoration_path().nodes().contains(&a) || rec.attach() == a);
    }

    #[test]
    fn reachability_oracle_matches_recover_outcomes() {
        // Every affected, usable member: reachable ⇔ recoverable.
        let (g, t, [s, a, _, _, d]) = figure1();
        for scenario in [
            FailureScenario::node(a),
            FailureScenario::node(a).with_node(d),
            FailureScenario::link(g.link_between(s, a).unwrap())
                .with_link(g.link_between(d, NodeId::new(2)).unwrap()),
        ] {
            let reach = reachable_from_source(&g, s, &scenario);
            for m in affected_members(&g, &t, &scenario) {
                if !scenario.node_usable(m) {
                    assert!(!reach[m.index()], "failed member {m} cannot be reachable");
                    continue;
                }
                let recovered = recover(&g, &t, &scenario, m, DetourKind::Local).is_ok();
                assert_eq!(
                    reach[m.index()],
                    recovered,
                    "oracle and recover() disagree on {m} under {scenario}"
                );
            }
        }
    }

    #[test]
    fn global_detour_stops_at_first_connected_on_tree_node() {
        // Make the post-failure SPF path for the member pass through a
        // still-connected on-tree relay: the restoration path must stop
        // there instead of running to the source.
        let mut g = Graph::with_nodes(5);
        let ids: Vec<_> = g.node_ids().collect();
        let [s, r, m, x, y] = [ids[0], ids[1], ids[2], ids[3], ids[4]];
        g.add_link(s, r, 1.0).unwrap(); // tree: S-R-M
        g.add_link(r, m, 1.0).unwrap();
        g.add_link(m, x, 1.0).unwrap(); // detour M-X-R
        g.add_link(x, r, 1.0).unwrap();
        g.add_link(x, y, 5.0).unwrap();
        g.add_link(y, s, 5.0).unwrap();
        let mut t = MulticastTree::new(&g, s).unwrap();
        t.attach_path(&NetPath::new(vec![m, r, s]));
        t.set_member(m, true).unwrap();
        t.set_member(r, true).unwrap();
        let l_rm = g.link_between(r, m).unwrap();
        let scenario = FailureScenario::link(l_rm);
        let rec = recover(&g, &t, &scenario, m, DetourKind::Global).unwrap();
        assert_eq!(rec.restoration_path().nodes(), &[m, x, r]);
        assert_eq!(rec.attach(), r);
        assert_eq!(rec.recovery_distance(), 2.0);
    }
}
