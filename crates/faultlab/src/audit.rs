//! Post-recovery invariant auditing.
//!
//! After every recovery the campaign reconstructs the tree the routers
//! converge to — the surviving source-connected component plus every
//! planned graft and its re-attached fragment — and checks it against the
//! protocol's safety invariants. Any violation is captured with enough
//! detail to serve as a minimal reproducer (the [`FaultCase`] carries the
//! seed and the exact scenario).
//!
//! [`FaultCase`]: crate::generate::FaultCase

use serde::{Deserialize, Serialize};
use smrp_core::recovery::{self, Recovery};
use smrp_core::MulticastTree;
use smrp_net::{FailureScenario, Graph, NodeId, Path};
use smrp_proto::RecoveryPlans;

/// The audited invariant classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Invariant {
    /// The post-recovery tree is a valid tree: acyclic, parent/child
    /// consistent, fully source-connected, relay-pruned, and its
    /// incremental `SHR`/`N` bookkeeping matches the from-scratch oracle
    /// (`MulticastTree::validate`, invariants 1–7).
    TreeStructure,
    /// Every pre-failure member that survived and is physically reachable
    /// from the source is attached to the post-recovery tree.
    MembersAttached,
    /// No post-recovery tree link, and no restoration-path link, crosses a
    /// failed component — data is never delivered over a failed link.
    NoFailedLinks,
    /// Every restoration path attaches to a node of the *surviving*
    /// source-connected component, never to another orphaned fragment.
    AttachOnSurvivingTree,
}

impl Invariant {}

/// One violated invariant with a human-readable detail line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: Invariant,
    /// What exactly went wrong.
    pub detail: String,
}

/// Grafts `nodes` (a path from a new node toward the tree) onto `tree`,
/// cutting the path at the first node that is already on-tree. Returns
/// whether the head of the path ends up attached — `false` when the path
/// never reaches the tree (a malformed plan), which the caller surfaces as
/// a members-attached violation rather than a panic.
fn graft(tree: &mut MulticastTree, nodes: &[NodeId]) -> bool {
    let Some(&head) = nodes.first() else {
        return false;
    };
    if tree.is_on_tree(head) {
        return true;
    }
    let Some(cut) = nodes.iter().position(|&n| tree.is_on_tree(n)) else {
        return false;
    };
    tree.attach_path(&Path::new(nodes[..=cut].to_vec()));
    true
}

/// Reconstructs the tree the routers converge to after executing `plans`
/// under `scenario`: the surviving component keeps its structure, each
/// restoration path is grafted, re-attached fragments keep their usable
/// internal edges, and dead relay chains are pruned.
///
/// Returns `None` when the source itself failed (no tree survives).
pub fn rebuild_after_recovery(
    graph: &Graph,
    tree: &MulticastTree,
    scenario: &FailureScenario,
    recoveries: &[Recovery],
) -> Option<MulticastTree> {
    let source = tree.source();
    if !scenario.node_usable(source) {
        return None;
    }
    let mut post = MulticastTree::new(graph, source).expect("source exists in graph");

    // Surviving component, parents before children (DFS from the source).
    let surviving = recovery::surviving_connected(graph, tree, scenario);
    for &u in &surviving {
        if u == source {
            continue;
        }
        let p = tree
            .parent(u)
            .expect("non-root surviving node has a parent");
        graft(&mut post, &[u, p]);
    }

    for rec in recoveries {
        // The restoration path runs from the grafting node to its attach
        // point, which for well-formed plans is already on the post tree
        // (surviving component or an earlier graft). A plan whose path
        // never reaches the tree leaves its fragment detached, and the
        // members-attached audit reports it.
        if !graft(&mut post, rec.restoration_path().nodes()) {
            continue;
        }
        // Re-attach the usable part of the fragment hanging below the
        // grafting node, walking old-tree edges parents-first.
        let mut stack = vec![rec.member()];
        while let Some(u) = stack.pop() {
            for &c in tree.children(u) {
                if !scenario.node_usable(c) {
                    continue;
                }
                let Some(l) = graph.link_between(u, c) else {
                    continue;
                };
                if !scenario.link_usable(graph, l) {
                    continue;
                }
                graft(&mut post, &[c, u]);
                stack.push(c);
            }
        }
    }

    // Membership: every usable old member that made it onto the post tree.
    for m in tree.members() {
        if scenario.node_usable(m) && post.is_on_tree(m) {
            post.set_member(m, true).expect("node is on the post tree");
        }
    }

    // Routers along detours that serve nobody time out and prune (soft
    // state): drop relay leaves.
    let leaves: Vec<NodeId> = post
        .on_tree_nodes()
        .filter(|&n| n != source && post.children(n).is_empty() && !post.is_member(n))
        .collect();
    for leaf in leaves {
        post.prune_from(leaf);
    }
    Some(post)
}

/// Audits the outcome of one recovery: reconstructs the post-recovery tree
/// and checks every invariant. An empty result means the recovery is safe.
///
/// `plans` must be the plans computed for `scenario` on `tree` (see
/// [`smrp_proto::ProtoSession::plan_recoveries`]).
pub fn audit_recovery(
    graph: &Graph,
    tree: &MulticastTree,
    scenario: &FailureScenario,
    plans: &RecoveryPlans,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let source = tree.source();
    if !scenario.node_usable(source) {
        // No surviving tree to audit; the classifier reports the scenario
        // as source-partitioned.
        return violations;
    }

    let surviving = recovery::surviving_connected(graph, tree, scenario);
    let mut surviving_mask = vec![false; graph.node_count()];
    for &n in &surviving {
        surviving_mask[n.index()] = true;
    }

    // (4) every detour lands on the surviving component.
    for rec in &plans.recoveries {
        if !surviving_mask[rec.attach().index()] {
            violations.push(Violation {
                invariant: Invariant::AttachOnSurvivingTree,
                detail: format!(
                    "member {} attaches at {}, which is not connected to the source",
                    rec.member(),
                    rec.attach()
                ),
            });
        }
        // (3a) restoration paths avoid failed components.
        if !scenario.path_usable(graph, rec.restoration_path().nodes()) {
            violations.push(Violation {
                invariant: Invariant::NoFailedLinks,
                detail: format!(
                    "restoration path of {} crosses a failed component: {:?}",
                    rec.member(),
                    rec.restoration_path().nodes()
                ),
            });
        }
    }

    let Some(post) = rebuild_after_recovery(graph, tree, scenario, &plans.recoveries) else {
        return violations;
    };

    // (1) structural + SHR/N-oracle validity.
    if let Err(e) = post.validate(graph) {
        violations.push(Violation {
            invariant: Invariant::TreeStructure,
            detail: e,
        });
    }

    // (2) all reachable members attached. Physical reachability is a walk
    // over the whole graph, so it is taken only once a member is missing.
    let mut reach = None;
    for m in tree.members() {
        if post.is_member(m) && post.path_from_source(m).is_some() {
            continue;
        }
        let reach =
            reach.get_or_insert_with(|| recovery::reachable_from_source(graph, source, scenario));
        if scenario.node_usable(m) && reach[m.index()] {
            // Dead or partitioned members are skipped: nothing any
            // protocol can do for them.
            violations.push(Violation {
                invariant: Invariant::MembersAttached,
                detail: format!("reachable member {m} is not attached after recovery"),
            });
        }
    }

    // (3b) the converged tree carries data over live links only.
    for l in post.links(graph) {
        if !scenario.link_usable(graph, l) {
            violations.push(Violation {
                invariant: Invariant::NoFailedLinks,
                detail: format!("post-recovery tree uses failed link {l}"),
            });
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use smrp_core::paper;
    use smrp_core::recovery::DetourKind;
    use smrp_proto::{ProtoSession, TreeProtocol};

    fn figure1_session() -> (Graph, paper::Figure1Nodes, ProtoSession<'static>) {
        // Leak the graph to get a 'static session for test brevity.
        let (graph, nodes) = paper::figure1_graph();
        let graph: &'static Graph = Box::leak(Box::new(graph));
        let session =
            ProtoSession::build(graph, nodes.s, &[nodes.c, nodes.d], TreeProtocol::Spf).unwrap();
        (graph.clone(), nodes, session)
    }

    #[test]
    fn clean_recovery_passes_every_invariant() {
        let (graph, nodes, session) = figure1_session();
        let l_ad = graph.link_between(nodes.a, nodes.d).unwrap();
        let scenario = FailureScenario::link(l_ad);
        let plans = session.plan_recoveries(&scenario, DetourKind::Local);
        let violations = audit_recovery(&graph, session.tree(), &scenario, &plans);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn rebuilt_tree_contains_recovered_member() {
        let (graph, nodes, session) = figure1_session();
        let l_ad = graph.link_between(nodes.a, nodes.d).unwrap();
        let scenario = FailureScenario::link(l_ad);
        let plans = session.plan_recoveries(&scenario, DetourKind::Local);
        let post =
            rebuild_after_recovery(&graph, session.tree(), &scenario, &plans.recoveries).unwrap();
        assert!(post.is_member(nodes.d));
        assert!(post.is_member(nodes.c));
        assert!(post.validate(&graph).is_ok());
        // D now hangs off C over the C-D shortcut.
        assert_eq!(post.parent(nodes.d), Some(nodes.c));
    }

    #[test]
    fn source_failure_yields_no_tree_and_no_violations() {
        let (graph, nodes, session) = figure1_session();
        let scenario = FailureScenario::node(nodes.s);
        let plans = session.plan_recoveries(&scenario, DetourKind::Local);
        assert!(
            rebuild_after_recovery(&graph, session.tree(), &scenario, &plans.recoveries).is_none()
        );
        assert!(audit_recovery(&graph, session.tree(), &scenario, &plans).is_empty());
    }

    #[test]
    fn tampered_plan_is_flagged() {
        let (graph, nodes, session) = figure1_session();
        // Plans computed for the WRONG scenario (link A-D) audited against
        // a node-A failure: A's restoration detour D->C no longer exists…
        let l_ad = graph.link_between(nodes.a, nodes.d).unwrap();
        let stale = session.plan_recoveries(&FailureScenario::link(l_ad), DetourKind::Local);
        let actual = FailureScenario::node(nodes.a);
        let violations = audit_recovery(&graph, session.tree(), &actual, &stale);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == Invariant::MembersAttached
                    || v.invariant == Invariant::NoFailedLinks
                    || v.invariant == Invariant::AttachOnSurvivingTree),
            "stale plans must violate something: {violations:?}"
        );
    }

    #[test]
    fn only_reachable_members_left_off_the_tree_are_flagged() {
        let (graph, nodes, session) = figure1_session();
        let no_plans = RecoveryPlans {
            affected: Vec::new(),
            recoveries: Vec::new(),
            cornered_roots: Vec::new(),
            unrecoverable: Vec::new(),
        };
        let missing = |scenario: &FailureScenario| -> Vec<String> {
            audit_recovery(&graph, session.tree(), scenario, &no_plans)
                .into_iter()
                .filter(|v| v.invariant == Invariant::MembersAttached)
                .map(|v| v.detail)
                .collect()
        };
        // Cut above A with no detour planned: C and D still reach S via B.
        let l_sa = graph.link_between(nodes.s, nodes.a).unwrap();
        assert_eq!(missing(&FailureScenario::link(l_sa)).len(), 2);
        // C loses both its links: partitioned, so no protocol could attach it.
        let mut isolated = FailureScenario::link(graph.link_between(nodes.a, nodes.c).unwrap());
        isolated.fail_link(graph.link_between(nodes.c, nodes.d).unwrap());
        assert_eq!(missing(&isolated), Vec::<String>::new());
    }

    #[test]
    fn violation_serializes_for_reproducers() {
        let v = Violation {
            invariant: Invariant::NoFailedLinks,
            detail: "post-recovery tree uses failed link l3".into(),
        };
        let text = serde_json::to_string(&v).unwrap();
        let back: Violation = serde_json::from_str(&text).unwrap();
        assert_eq!(v, back);
    }
}
