//! Batch precomputation of backup detours (protection planes).
//!
//! Reactive restoration searches for a detour *after* a failure is
//! detected; protection computes the detour *ahead of time* against a
//! hypothetical contingency and keeps it warm, so activation is a local
//! table lookup. This module batches such searches: a
//! [`BackupPlanner`] holds one [`DetourRequest`] per protected node —
//! "starting at `from`, assuming the components in `avoid` are already
//! gone, reach the nearest acceptable target" — and batch-computes the
//! answers with the same forbidden-set Dijkstra that reactive recovery
//! uses ([`crate::dijkstra::shortest_path_to_any`]).
//!
//! Requests are dirty-tracked: inserting a request marks it dirty, and a
//! change whose blast radius is unknown marks every request dirty again
//! ([`BackupPlanner::mark_all_dirty`]); [`BackupPlanner::refresh`] then
//! recomputes only the dirty subset, so registering one new request does
//! not pay for the whole session's plans.

use crate::dijkstra::{self, Constraints};
use crate::failure::FailureScenario;
use crate::graph::Graph;
use crate::ids::NodeId;
use crate::path::Path;

/// One protection request: a detour for `from` computed as if the
/// components in `avoid` had already failed.
///
/// The target set is not part of the request — it depends on tree state
/// the caller owns — so it is supplied per refresh as a predicate (see
/// [`BackupPlanner::refresh`]).
#[derive(Debug, Clone)]
pub struct DetourRequest {
    /// The protected node the detour starts from.
    pub from: NodeId,
    /// The contingency the detour must survive: every component in this
    /// scenario is treated as already failed.
    pub avoid: FailureScenario,
}

/// Batch detour precomputation with incremental refresh.
///
/// # Example
///
/// ```
/// use smrp_net::backup::{BackupPlanner, DetourRequest};
/// use smrp_net::{FailureScenario, Graph};
///
/// # fn main() -> Result<(), smrp_net::NetError> {
/// // Square: a - b - c - d - a. Protect c against the loss of b.
/// let mut g = Graph::with_nodes(4);
/// let ids: Vec<_> = g.node_ids().collect();
/// let (a, b, c, d) = (ids[0], ids[1], ids[2], ids[3]);
/// g.add_link(a, b, 1.0)?;
/// g.add_link(b, c, 1.0)?;
/// g.add_link(c, d, 1.0)?;
/// g.add_link(d, a, 1.0)?;
/// let mut planner = BackupPlanner::new();
/// let id = planner.insert(DetourRequest { from: c, avoid: FailureScenario::node(b) });
/// planner.refresh(&g, |_, n| n == a);
/// assert_eq!(planner.plan(id).unwrap().nodes(), &[c, d, a]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BackupPlanner {
    requests: Vec<DetourRequest>,
    plans: Vec<Option<Path>>,
    dirty: Vec<bool>,
}

impl BackupPlanner {
    /// An empty planner.
    pub fn new() -> Self {
        BackupPlanner::default()
    }

    /// Registers a request and returns its id. The request starts dirty:
    /// it has no plan until the next [`refresh`](Self::refresh).
    pub fn insert(&mut self, request: DetourRequest) -> usize {
        self.requests.push(request);
        self.plans.push(None);
        self.dirty.push(true);
        self.requests.len() - 1
    }

    /// Marks every request dirty — used after a change whose blast radius
    /// is unknown (topology import, bulk metric update).
    pub fn mark_all_dirty(&mut self) {
        self.dirty.iter_mut().for_each(|d| *d = true);
    }

    /// The current plan for `id`: the shortest detour found by the last
    /// refresh, or `None` when the contingency disconnects `from` from
    /// every target (or the request has never been refreshed).
    pub fn plan(&self, id: usize) -> Option<&Path> {
        self.plans[id].as_ref()
    }

    /// Recomputes every dirty request against `graph`, using
    /// `targets(id, node)` as the per-request attach predicate, and
    /// returns how many plans were recomputed. Clean requests are not
    /// touched — this is the incremental-refresh half of the API.
    pub fn refresh<F>(&mut self, graph: &Graph, mut targets: F) -> usize
    where
        F: FnMut(usize, NodeId) -> bool,
    {
        let mut recomputed = 0;
        for id in 0..self.requests.len() {
            if !self.dirty[id] {
                continue;
            }
            let req = &self.requests[id];
            self.plans[id] = dijkstra::shortest_path_to_any(
                graph,
                req.from,
                Constraints::avoiding_failures(&req.avoid),
                |n| targets(id, n),
            );
            self.dirty[id] = false;
            recomputed += 1;
        }
        recomputed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Square a-b-c-d-a plus a chord b-d.
    fn square() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::with_nodes(4);
        let ids: Vec<_> = g.node_ids().collect();
        g.add_link(ids[0], ids[1], 1.0).unwrap();
        g.add_link(ids[1], ids[2], 1.0).unwrap();
        g.add_link(ids[2], ids[3], 1.0).unwrap();
        g.add_link(ids[3], ids[0], 1.0).unwrap();
        (g, ids)
    }

    #[test]
    fn batch_refresh_computes_all_requests() {
        let (g, ids) = square();
        let (a, b, c, d) = (ids[0], ids[1], ids[2], ids[3]);
        let mut planner = BackupPlanner::new();
        let r1 = planner.insert(DetourRequest {
            from: c,
            avoid: FailureScenario::node(b),
        });
        let r2 = planner.insert(DetourRequest {
            from: b,
            avoid: FailureScenario::node(a),
        });
        let recomputed = planner.refresh(&g, |_, n| n == a || n == d);
        assert_eq!(recomputed, 2);
        assert_eq!(planner.plan(r1).unwrap().nodes(), &[c, d]);
        assert_eq!(planner.plan(r2).unwrap().nodes(), &[b, c, d]);
        assert_eq!(planner.refresh(&g, |_, n| n == a || n == d), 0);
    }

    #[test]
    fn refresh_skips_clean_requests() {
        let (g, ids) = square();
        let (a, b, c, _) = (ids[0], ids[1], ids[2], ids[3]);
        let mut planner = BackupPlanner::new();
        let r1 = planner.insert(DetourRequest {
            from: c,
            avoid: FailureScenario::node(b),
        });
        planner.refresh(&g, |_, n| n == a);
        let r2 = planner.insert(DetourRequest {
            from: b,
            avoid: FailureScenario::none(),
        });
        // Only the new request is dirty; the first plan is not recomputed.
        assert_eq!(planner.refresh(&g, |_, n| n == a), 1);
        assert!(planner.plan(r1).is_some());
        assert!(planner.plan(r2).is_some());
    }

    #[test]
    fn disconnected_contingency_yields_no_plan() {
        let (g, ids) = square();
        let (a, b, c, d) = (ids[0], ids[1], ids[2], ids[3]);
        let mut planner = BackupPlanner::new();
        let id = planner.insert(DetourRequest {
            from: c,
            // Both of c's neighbors gone: no detour can exist.
            avoid: FailureScenario::nodes([b, d]),
        });
        planner.refresh(&g, |_, n| n == a);
        assert!(planner.plan(id).is_none());
    }

    #[test]
    fn mark_all_dirty_recomputes_everything() {
        let (g, ids) = square();
        let (a, b, c, d) = (ids[0], ids[1], ids[2], ids[3]);
        let mut planner = BackupPlanner::new();
        for from in [b, c, d] {
            planner.insert(DetourRequest {
                from,
                avoid: FailureScenario::none(),
            });
        }
        planner.refresh(&g, |_, n| n == a);
        planner.mark_all_dirty();
        assert_eq!(planner.refresh(&g, |_, n| n == a), 3);
    }
}
