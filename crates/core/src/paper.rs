//! Executable versions of the paper's worked examples.
//!
//! The paper illustrates SMRP with small concrete topologies (Figures 1, 2,
//! 4 and 5). This module reconstructs them with link delays chosen to
//! satisfy every constraint stated in the text, so the narrative becomes a
//! machine-checked specification:
//!
//! * [`figure1`] — the 5-node motivation example: after `L_AD` fails,
//!   member `D`'s global detour is `D→B→S` (delay 3) while the local detour
//!   `D→C` has recovery distance 2.
//! * [`figure2_smrp_tree`] — the disjoint-tree variant: with a relaxed
//!   `D_thresh`, SMRP routes `D` via `B`, so a failure of `L_SA` leaves `D`
//!   connected and `C` recovers through its neighbor `D`.
//! * [`figure4`] — the 8-node join walkthrough: `E` joins trivially along
//!   its shortest path, `G` prefers the unshared `G→B→S` over the shorter
//!   `G→F→D→A→S`, and `F` falls back to `F→D→A→S` because both low-sharing
//!   alternatives violate the `D_thresh = 0.3` bound.
//! * Figure 5 (reshaping) follows from [`figure4`]: `F`'s admission raises
//!   `SHR(S,D)` from 2 to 4 and triggers `E`'s re-selection onto
//!   `E→C→A→S` (merger `A`). Covered by tests and the
//!   `paper_walkthrough` example.
//!
//! All functions panic only on internal inconsistencies — the topologies
//! are fixed constants.

use smrp_net::{Graph, NodeId, Path};

use crate::session::{SmrpConfig, SmrpSession};
use crate::tree::MulticastTree;

/// Node handles for the Figure 1/2 topology.
#[derive(Debug, Clone, Copy)]
pub struct Figure1Nodes {
    /// Multicast source.
    pub s: NodeId,
    /// Relay adjacent to the source.
    pub a: NodeId,
    /// Off-tree node on the global detour.
    pub b: NodeId,
    /// Member C.
    pub c: NodeId,
    /// Member D.
    pub d: NodeId,
}

/// Builds the Figure 1 graph.
///
/// Delays: `S-A = 1`, `A-C = 1`, `A-D = 1`, `C-D = 2`, `D-B = 1`,
/// `B-S = 2`. These satisfy the paper's narrative: the SPF tree reaches
/// both members through `A`; after `L_AD` fails the new shortest path for
/// `D` is `D→B→S` (delay 3) and the local detour `D→C` has `RD_D = 2`.
pub fn figure1_graph() -> (Graph, Figure1Nodes) {
    let mut g = Graph::with_nodes(5);
    let ids: Vec<_> = g.node_ids().collect();
    let n = Figure1Nodes {
        s: ids[0],
        a: ids[1],
        b: ids[2],
        c: ids[3],
        d: ids[4],
    };
    g.add_link(n.s, n.a, 1.0).expect("fresh link");
    g.add_link(n.a, n.c, 1.0).expect("fresh link");
    g.add_link(n.a, n.d, 1.0).expect("fresh link");
    g.add_link(n.c, n.d, 2.0).expect("fresh link");
    g.add_link(n.d, n.b, 1.0).expect("fresh link");
    g.add_link(n.b, n.s, 2.0).expect("fresh link");
    (g, n)
}

/// Builds Figure 1(a): the SPF multicast tree `S→A→{C,D}` with members
/// `C` and `D`.
pub fn figure1() -> (Graph, MulticastTree, Figure1Nodes) {
    let (g, n) = figure1_graph();
    let mut t = MulticastTree::new(&g, n.s).expect("source exists");
    t.attach_path(&Path::new(vec![n.c, n.a, n.s]));
    t.set_member(n.c, true).expect("C is on-tree");
    t.attach_path(&Path::new(vec![n.d, n.a]));
    t.set_member(n.d, true).expect("D is on-tree");
    (g, t, n)
}

/// Builds the Figure 2(a) tree by running SMRP with a relaxed delay bound
/// (`D_thresh = 0.5`) on the Figure 1 graph: `C` joins via `A`, then `D`
/// prefers the fully disjoint `D→B→S` (merger `S`, `SHR = 0`).
///
/// Returns the session so callers can exercise recovery on it.
pub fn figure2_smrp_tree(graph: &Graph, nodes: Figure1Nodes) -> SmrpSession<'_> {
    let config = SmrpConfig {
        d_thresh: 0.5,
        ..SmrpConfig::default()
    };
    let mut sess = SmrpSession::new(graph, nodes.s, config).expect("valid config");
    sess.join(nodes.c).expect("C can join");
    sess.join(nodes.d).expect("D can join");
    sess
}

/// Node handles for the Figure 4/5 topology.
#[derive(Debug, Clone, Copy)]
pub struct Figure4Nodes {
    /// Multicast source.
    pub s: NodeId,
    /// Relay between the source and `D`/`C`.
    pub a: NodeId,
    /// Relay on `G`'s unshared path.
    pub b: NodeId,
    /// Relay used by `E`'s reshaped path.
    pub c: NodeId,
    /// Relay carrying `E` and later `F`.
    pub d: NodeId,
    /// First member to join.
    pub e: NodeId,
    /// Third member to join.
    pub f: NodeId,
    /// Second member to join.
    pub g: NodeId,
}

/// Builds the Figure 4 graph.
///
/// Delays: `S-A = 1`, `A-D = 1`, `D-E = 1`, `A-C = 1`, `C-E = 1.5`,
/// `G-F = 1`, `F-D = 1`, `G-B = 2.2`, `B-S = 2.5`, `F-B = 3`.
///
/// These reproduce the walkthrough with `D_thresh = 0.3`:
///
/// * `E`'s shortest path is `E→D→A→S` (3.0) and, joining an empty tree, it
///   takes it — giving `SHR(S,D) = 2` as annotated in Figure 4(a);
/// * `G`'s shortest path is `G→F→D→A→S` (4.0) but it selects `G→B→S`
///   (4.7 ≤ 1.3·4.0), merging at `S` with `SHR = 0`;
/// * `F`'s shortest path is `F→D→A→S` (3.0); the lower-sharing candidates
///   `F→B→S` (5.5) and `F→G→B→S` (5.7) both exceed `1.3·3.0 = 3.9`, so `F`
///   merges at `D` — raising `SHR(S,D)` to 4 as in Figure 4(d);
/// * `E`'s reshaped path `E→C→A→S` (3.5 ≤ 3.9) then merges at `A`, whose
///   adjusted `SHR` beats `D`'s — Figure 5.
pub fn figure4_graph() -> (Graph, Figure4Nodes) {
    let mut gr = Graph::with_nodes(8);
    let ids: Vec<_> = gr.node_ids().collect();
    let n = Figure4Nodes {
        s: ids[0],
        a: ids[1],
        b: ids[2],
        c: ids[3],
        d: ids[4],
        e: ids[5],
        f: ids[6],
        g: ids[7],
    };
    gr.add_link(n.s, n.a, 1.0).expect("fresh link");
    gr.add_link(n.a, n.d, 1.0).expect("fresh link");
    gr.add_link(n.d, n.e, 1.0).expect("fresh link");
    gr.add_link(n.a, n.c, 1.0).expect("fresh link");
    gr.add_link(n.c, n.e, 1.5).expect("fresh link");
    gr.add_link(n.g, n.f, 1.0).expect("fresh link");
    gr.add_link(n.f, n.d, 1.0).expect("fresh link");
    gr.add_link(n.g, n.b, 2.2).expect("fresh link");
    gr.add_link(n.b, n.s, 2.5).expect("fresh link");
    gr.add_link(n.f, n.b, 3.0).expect("fresh link");
    (gr, n)
}

/// Runs the Figure 4 join sequence (`E`, then `G`, then `F`) with
/// `D_thresh = 0.3` and reshaping disabled, returning the session in the
/// state of Figure 4(d).
pub fn figure4() -> (Graph, Figure4Nodes, SmrpSession<'static>) {
    // The graph is leaked to give the session a 'static borrow; the worked
    // examples are tiny constants used by tests/examples, so the one-off
    // allocation is intentional.
    let (graph, nodes) = figure4_graph();
    let graph: &'static Graph = Box::leak(Box::new(graph));
    let config = SmrpConfig {
        d_thresh: 0.3,
        auto_reshape: false,
        ..SmrpConfig::default()
    };
    let mut sess = SmrpSession::new(graph, nodes.s, config).expect("valid config");
    sess.join(nodes.e).expect("E joins");
    sess.join(nodes.g).expect("G joins");
    sess.join(nodes.f).expect("F joins");
    (graph.clone(), nodes, sess)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{self, DetourKind};
    use crate::select::SelectionMode;
    use smrp_net::FailureScenario;

    #[test]
    fn figure1_narrative_holds() {
        let (g, t, n) = figure1();
        t.validate(&g).unwrap();
        assert_eq!(t.shr(n.c), 3, "SHR(S,C) = 2 + 1 as computed in §3.1");
        let l_ad = g.link_between(n.a, n.d).unwrap();
        let scenario = FailureScenario::link(l_ad);
        let local = recovery::recover(&g, &t, &scenario, n.d, DetourKind::Local).unwrap();
        let global = recovery::recover(&g, &t, &scenario, n.d, DetourKind::Global).unwrap();
        assert_eq!(local.recovery_distance(), 2.0, "RD_D = 2 via D->C");
        assert_eq!(global.restoration_path().nodes(), &[n.d, n.b, n.s]);
        assert_eq!(global.recovery_distance(), 3.0);
    }

    #[test]
    fn figure2_disjoint_tree_and_neighbor_recovery() {
        let (g, n) = figure1_graph();
        let sess = figure2_smrp_tree(&g, n);
        let t = sess.tree();
        t.validate(&g).unwrap();
        // D's path is S->B->D: fully disjoint from C's S->A->C.
        assert_eq!(t.path_from_source(n.d).unwrap().nodes(), &[n.s, n.b, n.d]);
        let pc = t.path_from_source(n.c).unwrap();
        let pd = t.path_from_source(n.d).unwrap();
        let lc = pc.links(&g);
        assert!(pd.links(&g).iter().all(|l| !lc.contains(l)));

        // Figure 2(b): when L_SA fails only C is disconnected, and it
        // recovers by connecting to its neighbor D.
        let l_sa = g.link_between(n.s, n.a).unwrap();
        let scenario = FailureScenario::link(l_sa);
        let affected = recovery::affected_members(&g, t, &scenario);
        assert_eq!(affected, vec![n.c], "at most one member is disrupted");
        let rec = recovery::recover(&g, t, &scenario, n.c, DetourKind::Local).unwrap();
        assert_eq!(rec.attach(), n.d);
        assert_eq!(rec.recovery_distance(), 2.0);
    }

    #[test]
    fn figure4_join_sequence_matches_paper() {
        let (g, n, sess) = figure4();
        let t = sess.tree();
        t.validate(&g).unwrap();

        // E joined along its shortest path E->D->A->S.
        assert_eq!(
            t.path_from_source(n.e).unwrap().nodes(),
            &[n.s, n.a, n.d, n.e]
        );
        // G selected G->B->S (merger S) over the shorter G->F->D->A->S.
        assert_eq!(t.path_from_source(n.g).unwrap().nodes(), &[n.s, n.b, n.g]);
        // F selected F->D->A->S (merger D).
        assert_eq!(
            t.path_from_source(n.f).unwrap().nodes(),
            &[n.s, n.a, n.d, n.f]
        );
        // Figure 4(d): SHR(S,D) rose from 2 to 4 after F's admission.
        assert_eq!(t.shr(n.d), 4);
    }

    #[test]
    fn figure4_intermediate_shr_annotation() {
        // After E alone, SHR(S,D) = 2 as printed next to D in Figure 4(a).
        let (g, n) = figure4_graph();
        let config = SmrpConfig {
            auto_reshape: false,
            ..SmrpConfig::default()
        };
        let mut sess = SmrpSession::new(&g, n.s, config).unwrap();
        sess.join(n.e).unwrap();
        assert_eq!(sess.tree().shr(n.d), 2);
        // And G's candidate table: merging at D would cost total 4.0 while
        // the chosen S merger costs 4.7.
        let cands = crate::select::enumerate_candidates(
            &g,
            sess.tree(),
            sess.spt(),
            n.g,
            SelectionMode::FullTopology,
            &[],
        );
        let via_d = cands.iter().find(|c| c.merger == n.d).unwrap();
        assert!((via_d.total_delay - 4.0).abs() < 1e-9);
        let via_s = cands.iter().find(|c| c.merger == n.s).unwrap();
        assert!((via_s.total_delay - 4.7).abs() < 1e-9);
    }

    #[test]
    fn figure5_reshape_moves_e_to_merger_a() {
        let (g, n, mut sess) = figure4();
        // Condition I at E: its SHR grew from 3 (at join) to 5 after F.
        assert_eq!(sess.tree().shr(n.e), 5);
        let outcome = sess.reshape_member(n.e).unwrap();
        match outcome {
            crate::session::ReshapeOutcome::Switched {
                old_merger,
                new_merger,
            } => {
                assert_eq!(old_merger, n.d);
                assert_eq!(new_merger, n.a);
            }
            other => panic!("expected a switch, got {other:?}"),
        }
        // Figure 5(d): E now reaches the source via C and A.
        assert_eq!(
            sess.tree().path_from_source(n.e).unwrap().nodes(),
            &[n.s, n.a, n.c, n.e]
        );
        sess.tree().validate(&g).unwrap();
        // And the tree is quiescent afterwards.
        assert_eq!(sess.reshape_sweep(), 0);
    }

    #[test]
    fn figure5_reshape_stats_count_attempts_and_switches() {
        use crate::session::ReshapeStats;
        let (_, n, mut sess) = figure4();
        // Reshaping was off during the Figure 4 joins: nothing was asked.
        assert_eq!(sess.reshape_stats(), ReshapeStats::default());
        sess.reshape_member(n.e).unwrap();
        let moved = ReshapeStats {
            attempts: 1,
            switched: 1,
            settled_without_search: 0,
        };
        assert_eq!(sess.reshape_stats(), moved);
        // The quiescent sweep asks E, G and F once each and moves nobody.
        // G's branch S-B-G hangs off the source, whose SHR of 0 no
        // candidate can beat, so G's attempt needs no search.
        assert_eq!(sess.reshape_sweep(), 0);
        let swept = ReshapeStats {
            attempts: 4,
            switched: 1,
            settled_without_search: 1,
        };
        assert_eq!(sess.reshape_stats(), swept);
        // A refused request is not an attempt.
        assert!(sess.reshape_member(n.a).is_err());
        assert_eq!(sess.reshape_stats(), swept);
    }

    #[test]
    fn figure5_triggers_automatically_with_auto_reshape() {
        let (g, n) = figure4_graph();
        let config = SmrpConfig {
            d_thresh: 0.3,
            reshape_threshold: 1,
            auto_reshape: true,
            selection: SelectionMode::FullTopology,
        };
        let mut sess = SmrpSession::new(&g, n.s, config).unwrap();
        sess.join(n.e).unwrap();
        sess.join(n.g).unwrap();
        let out = sess.join(n.f).unwrap();
        assert_eq!(out.reshaped, vec![n.e], "F's admission reshapes E");
        // Condition I asked exactly once over the three joins.
        let stats = sess.reshape_stats();
        assert_eq!((stats.attempts, stats.switched), (1, 1));
        assert_eq!(
            sess.tree().path_from_source(n.e).unwrap().nodes(),
            &[n.s, n.a, n.c, n.e]
        );
    }

    #[test]
    fn figure4_spf_distances_are_as_designed() {
        let (g, n) = figure4_graph();
        let d = |x, y| smrp_net::dijkstra::distance(&g, x, y).unwrap();
        assert!((d(n.s, n.e) - 3.0).abs() < 1e-9);
        assert!((d(n.s, n.g) - 4.0).abs() < 1e-9);
        assert!((d(n.s, n.f) - 3.0).abs() < 1e-9);
    }
}
