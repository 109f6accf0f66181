//! The hierarchical recovery architecture of §3.3.3, generalized to
//! arbitrary N-level domain trees.
//!
//! Every *active* domain — one hosting the source, members, aggregated
//! populations, or lying on an ancestry chain between them — runs its own
//! SMRP session over the domain's induced subgraph: rooted at the real
//! source in the source's domain, at the upward-relaying agent on the
//! source's ancestry chain, and at the domain's border agent everywhere
//! else. Child-domain agents appear as members of their parent domain's
//! session, weighted by the total receiver population they serve, so the
//! parent's Eq. 2 `SHR`/`N` state aggregates entire subtrees of domains.
//!
//! The payoff is failure *confinement*: a broken component is attributed to
//! the recovery domain that owns it (the common domain of a link's
//! endpoints, or the parent side of a gateway link) and the repair — a
//! local detour computed inside that domain's subgraph — never touches the
//! rest of the tree. When a domain's primary border attachment itself dies
//! and the domain has a redundant gateway, the parent *elects* a new agent
//! through the backup attachment instead of giving up; only then does a
//! second domain participate.
//!
//! The 2-level transit-stub instantiation the paper evaluates is
//! [`NLevelSession`] on a `TransitStubConfig` topology, a depth-2
//! [`NLevelTopology`] (the transit domain is the root, so "owner == root"
//! is the paper's transit scope);
//! the `hierarchy_differential` test proves it reproduces the original
//! 2-level engine case-for-case.

use smrp_core::recovery::{Contingency, DetourKind};
use smrp_core::{MulticastTree, SmrpConfig, SmrpError, SmrpSession};
use smrp_net::dijkstra::{self, Constraints};
use smrp_net::nlevel::{AggregatedPopulation, DomainId, NLevelTopology};
use smrp_net::{FailureScenario, Graph, LinkId, NodeId, Path};
use smrp_sim::SimTime;

use crate::RecoveryPlan;

/// One per-domain session: a tree over a domain subgraph.
#[derive(Debug, Clone)]
struct DomainSession {
    /// Induced subgraph of the domain (plus the borders of its active
    /// children, whose gateway links are induced automatically).
    graph: Graph,
    /// Local-to-global node id mapping.
    to_global: Vec<NodeId>,
    /// `(global, local)` for every session node, sorted by global id: a
    /// table sized to the domain, read through [`DomainSession::to_local`].
    by_global: Vec<(NodeId, NodeId)>,
    /// The multicast tree within the domain, rooted at the agent.
    tree: MulticastTree,
}

/// The local id of global node `g` in a `(global, local)` table sorted by
/// global id, or `None` when `g` is not a session node.
fn local_id(by_global: &[(NodeId, NodeId)], g: NodeId) -> Option<NodeId> {
    by_global
        .binary_search_by_key(&g, |e| e.0)
        .ok()
        .map(|i| by_global[i].1)
}

impl DomainSession {
    fn build(
        parent: &Graph,
        nodes: &[NodeId],
        source_global: NodeId,
        members_global: &[(NodeId, u32)],
        config: SmrpConfig,
    ) -> Result<Self, SmrpError> {
        let (graph, to_global) = parent.induced_subgraph(nodes);
        let mut by_global: Vec<(NodeId, NodeId)> = to_global
            .iter()
            .enumerate()
            .map(|(local, &global)| (global, NodeId::new(local)))
            .collect();
        by_global.sort_unstable();
        let source =
            local_id(&by_global, source_global).ok_or(SmrpError::UnknownNode(source_global))?;
        let mut sess = SmrpSession::new(&graph, source, config)?;
        for &(m, w) in members_global {
            let local = local_id(&by_global, m).ok_or(SmrpError::UnknownNode(m))?;
            if local != source {
                sess.join_weighted(local, w)?;
            }
        }
        let tree = sess.into_tree();
        Ok(DomainSession {
            graph,
            to_global,
            by_global,
            tree,
        })
    }

    /// The local id of global node `g`, if it is a session node.
    fn to_local(&self, g: NodeId) -> Option<NodeId> {
        local_id(&self.by_global, g)
    }

    /// `path`'s nodes in global ids.
    fn to_global_nodes(&self, path: &Path) -> Vec<NodeId> {
        path.nodes()
            .iter()
            .map(|n| self.to_global[n.index()])
            .collect()
    }

    fn localize_scenario(&self, parent: &Graph, scenario: &FailureScenario) -> FailureScenario {
        let mut local = FailureScenario::none();
        for n in scenario.failed_nodes() {
            if let Some(l) = self.to_local(n) {
                local.fail_node(l);
            }
        }
        for lk in scenario.failed_links() {
            let link = parent.link(lk);
            let (Some(a), Some(b)) = (self.to_local(link.a()), self.to_local(link.b())) else {
                continue;
            };
            if let Some(local_link) = self.graph.link_between(a, b) {
                local.fail_link(local_link);
            }
        }
        local
    }
}

/// A new-agent election performed when a domain's primary border
/// attachment died and a redundant backup gateway could take over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentElection {
    /// The child domain whose attachment was lost.
    pub domain: DomainId,
    /// The dead primary agent (the old border node).
    pub old_agent: NodeId,
    /// The newly elected agent (the backup border node).
    pub new_agent: NodeId,
    /// The parent-domain node the backup gateway attaches through.
    pub parent_attach: NodeId,
}

/// Outcome of an N-level domain-confined recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainRecovery {
    /// The domain that owned and repaired the failure.
    pub owner: DomainId,
    /// Real members (global ids) that lost service, conservatively: when
    /// the owner's tree was hit, every member it serves directly plus every
    /// member under each affected child agent's domain subtree.
    pub affected_members: Vec<NodeId>,
    /// Total receivers that lost service: one per affected member plus the
    /// aggregated populations under affected domains.
    pub affected_population: u64,
    /// Restoration paths in global node ids, one per disconnected fragment
    /// root inside the owning domain.
    pub restoration_paths: Vec<Vec<NodeId>>,
    /// Total recovery distance (sum over restoration paths).
    pub recovery_distance: f64,
    /// Number of domains whose state was touched by the repair: 0 when
    /// nothing was affected, 1 for a confined repair, `1 + elected` when
    /// border attachments died and new agents were elected.
    pub domains_involved: usize,
    /// New-agent elections performed (empty for a confined repair).
    pub elections: Vec<AgentElection>,
    /// Wire-installable plans, one per disconnected fragment root, keyed
    /// by the fragment root (global id) that installs them — the seam
    /// into [`crate::PlanSource::Explicit`].
    ///
    /// For a confined repair the path is exactly the analytic restoration
    /// path (fragment root → in-domain attach). For a new-agent election
    /// it runs from the orphaned child border through the child domain to
    /// the backup border, across the backup gateway, and up the owner
    /// domain toward the session root — the graft cascade merges at the
    /// first live on-tree relay it meets, so the tail past the merge
    /// point is unused.
    pub plans: Vec<(NodeId, RecoveryPlan)>,
}

/// An N-level hierarchical SMRP session (§3.3.3's generalization) over an
/// [`NLevelTopology`].
///
/// Owns a clone of the topology so campaign drivers can hold sessions
/// without self-referential lifetimes. Aggregated populations declared on
/// the topology join their leaf-domain sessions weighted by receiver
/// count, and child agents join parent sessions weighted by the total
/// population they serve (aggregated Eq. 2).
#[derive(Debug, Clone)]
pub struct NLevelSession {
    topo: NLevelTopology,
    sessions: Vec<Option<DomainSession>>,
    members: Vec<NodeId>,
    populations: Vec<AggregatedPopulation>,
}

/// Appends `(node, w)` to a weighted member list, merging weights when the
/// node is already present (e.g. a population attached at a member node).
fn push_weighted(list: &mut Vec<(NodeId, u32)>, node: NodeId, w: u32) {
    if let Some(entry) = list.iter_mut().find(|e| e.0 == node) {
        entry.1 = entry.1.saturating_add(w);
    } else {
        list.push((node, w));
    }
}

/// Items grouped by a dense key, each group in input order, so reading a
/// group costs its own length.
struct Buckets<T> {
    /// Group `k` is `items[start[k]..start[k + 1]]`.
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T> Buckets<T> {
    fn new(keys: usize, keyed: impl Iterator<Item = (usize, T)>) -> Self {
        let mut keyed: Vec<(usize, T)> = keyed.collect();
        // Stable, so each group keeps input order.
        keyed.sort_by_key(|e| e.0);
        let mut start = vec![0; keys + 1];
        for &(k, _) in &keyed {
            start[k + 1] += 1;
        }
        for k in 0..keys {
            start[k + 1] += start[k];
        }
        let items = keyed.into_iter().map(|e| e.1).collect();
        Buckets { start, items }
    }

    fn of(&self, key: usize) -> &[T] {
        &self.items[self.start[key]..self.start[key + 1]]
    }
}

impl NLevelSession {
    /// Builds the hierarchy of per-domain sessions, using the aggregated
    /// populations declared on the topology.
    ///
    /// # Errors
    ///
    /// Fails if tree construction fails inside any active domain.
    pub fn build(
        topo: &NLevelTopology,
        source: NodeId,
        members: &[NodeId],
        config: SmrpConfig,
    ) -> Result<Self, SmrpError> {
        Self::build_weighted(topo, source, members, topo.populations(), config)
    }

    /// Builds the hierarchy with an explicit population list (overriding
    /// whatever the topology declares).
    ///
    /// # Errors
    ///
    /// Fails if tree construction fails inside any active domain.
    pub(crate) fn build_weighted(
        topo: &NLevelTopology,
        source: NodeId,
        members: &[NodeId],
        populations: &[AggregatedPopulation],
        config: SmrpConfig,
    ) -> Result<Self, SmrpError> {
        let graph = topo.graph();
        let n_domains = topo.domains().len();

        // Mark active domains: hosts of the source/members/populations plus
        // all their ancestors (traffic transits through them).
        let mut active = vec![false; n_domains];
        let mark = |active: &mut Vec<bool>, d: DomainId| {
            for a in topo.ancestry(d) {
                active[a.index()] = true;
            }
        };
        mark(&mut active, topo.domain_of(source));
        for &m in members {
            mark(&mut active, topo.domain_of(m));
        }
        for p in populations {
            mark(&mut active, p.domain);
        }

        // Receivers served under each domain's subtree: real members count
        // one, populations count their receivers. Child agents join parent
        // sessions with this weight so Eq. 2 aggregates whole subtrees.
        let mut served = vec![0u64; n_domains];
        let credit = |served: &mut Vec<u64>, d: DomainId, w: u64| {
            for a in topo.ancestry(d) {
                served[a.index()] += w;
            }
        };
        for &m in members {
            credit(&mut served, topo.domain_of(m), 1);
        }
        for p in populations {
            credit(&mut served, p.domain, u64::from(p.receivers));
        }

        // The source's ancestry chain (domain ids), for root selection.
        let source_chain = topo.ancestry(topo.domain_of(source));

        // Each domain's children, and the members then populations it
        // hosts, bucketed in one pass each and in input order, so no
        // domain scans the domain list or the member list.
        let children = Buckets::new(
            n_domains,
            topo.domains()
                .iter()
                .filter_map(|c| Some((c.parent()?.index(), c))),
        );
        let hosted = Buckets::new(
            n_domains,
            members
                .iter()
                .map(|&m| (topo.domain_of(m).index(), (m, 1)))
                .chain(
                    populations
                        .iter()
                        .map(|p| (p.domain.index(), (p.node, p.receivers))),
                ),
        );

        let mut sessions: Vec<Option<DomainSession>> = vec![None; n_domains];
        for domain in topo.domains() {
            if !active[domain.id().index()] {
                continue;
            }
            let on_source_chain = source_chain.contains(&domain.id());

            // Subgraph: the domain's nodes plus the borders of its active
            // children (their gateway links are induced automatically).
            let mut nodes: Vec<NodeId> = domain.nodes().to_vec();
            let mut child_agents: Vec<(NodeId, u32)> = Vec::new();
            let mut source_child_agent = None;
            for child in children.of(domain.id().index()) {
                if !active[child.id().index()] {
                    continue;
                }
                let (border, _) = child.attachment().expect("children have attachments");
                nodes.push(border);
                if source_chain.contains(&child.id()) {
                    source_child_agent = Some(border);
                } else {
                    let w = u32::try_from(served[child.id().index()].max(1)).unwrap_or(u32::MAX);
                    child_agents.push((border, w));
                }
            }

            // Local root: the real source, the agent relaying it upward,
            // or this domain's border.
            let local_root = if topo.domain_of(source) == domain.id() {
                source
            } else if let Some(agent) = source_child_agent {
                agent
            } else {
                domain
                    .attachment()
                    .map(|(border, _)| border)
                    .expect("non-root domains have borders")
            };

            // Local members: real members here, this domain's aggregated
            // populations, active child agents (population-weighted), and —
            // on the source chain below the root domain — this domain's own
            // border so data keeps flowing upward.
            let mut local_members: Vec<(NodeId, u32)> = Vec::new();
            for &(node, w) in hosted.of(domain.id().index()) {
                push_weighted(&mut local_members, node, w);
            }
            for (agent, w) in child_agents {
                push_weighted(&mut local_members, agent, w);
            }
            if on_source_chain && domain.parent().is_some() {
                let (border, _) = domain.attachment().expect("non-root domain");
                if border != local_root && !local_members.iter().any(|e| e.0 == border) {
                    local_members.push((border, 1));
                }
            }
            local_members.retain(|&(m, _)| m != local_root);

            sessions[domain.id().index()] = Some(DomainSession::build(
                graph,
                &nodes,
                local_root,
                &local_members,
                config,
            )?);
        }

        Ok(NLevelSession {
            topo: topo.clone(),
            sessions,
            members: members.to_vec(),
            populations: populations.to_vec(),
        })
    }

    /// Total receivers served: one per real member plus every aggregated
    /// population.
    pub fn total_population(&self) -> u64 {
        self.members.len() as u64
            + self
                .populations
                .iter()
                .map(|p| u64::from(p.receivers))
                .sum::<u64>()
    }

    /// The topology this session runs over.
    pub fn topology(&self) -> &NLevelTopology {
        &self.topo
    }

    /// Number of domains running a session.
    pub fn active_domains(&self) -> usize {
        self.sessions.iter().flatten().count()
    }

    /// Ids of the domains running a session, in domain order.
    pub fn active_domain_ids(&self) -> Vec<DomainId> {
        self.sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| DomainId::new(i))
            .collect()
    }

    /// The global node set of a domain's session subgraph (the domain's
    /// nodes plus its active children's borders), or `None` for an
    /// inactive domain. Control messages of a domain-confined repair stay
    /// inside this set — the `DomainLocality` audit's ground truth.
    pub fn domain_session_nodes(&self, domain: DomainId) -> Option<&[NodeId]> {
        self.sessions[domain.index()]
            .as_ref()
            .map(|s| s.to_global.as_slice())
    }

    /// Re-expresses an active domain's session tree in global node ids
    /// over the full topology graph, so wire-level drivers can run one
    /// protocol lane per domain on the shared graph.
    pub fn domain_tree_global(&self, domain: DomainId) -> Option<MulticastTree> {
        let s = self.sessions[domain.index()].as_ref()?;
        let graph = self.topo.graph();
        let root = s.to_global[s.tree.source().index()];
        let mut tree = MulticastTree::new(graph, root).ok()?;
        for m in s.tree.members() {
            // Chain from the member back toward the root, trimmed at the
            // first node already on the global tree (the merger).
            let mut chain = Vec::new();
            let mut cur = Some(m);
            while let Some(u) = cur {
                let g = s.to_global[u.index()];
                chain.push(g);
                if tree.is_on_tree(g) {
                    break;
                }
                cur = s.tree.parent(u);
            }
            if chain.len() > 1 {
                tree.attach_path(&Path::new(chain));
            }
            let m_global = s.to_global[m.index()];
            tree.set_member(m_global, true).ok()?;
            let w = s.tree.member_weight(m);
            if w != 1 {
                tree.set_member_weight(m_global, w).ok()?;
            }
        }
        Some(tree)
    }

    /// Attributes a link failure to the domain that owns it: the common
    /// domain of its endpoints, or — for a gateway link — the parent-side
    /// domain.
    pub fn owning_domain(&self, link: LinkId) -> DomainId {
        self.topo.owning_domain_of_link(link)
    }

    /// Recovers from a single link failure inside its owning domain,
    /// electing new agents through backup gateways when a child's primary
    /// attachment died.
    ///
    /// # Errors
    ///
    /// Returns a message when the owning domain's subgraph offers no
    /// detour and no backup attachment can take over.
    pub fn recover(&self, link: LinkId) -> Result<DomainRecovery, String> {
        let owner = self.owning_domain(link);
        let graph = self.topo.graph();
        let scenario = FailureScenario::link(link);
        let empty = |owner| DomainRecovery {
            owner,
            affected_members: Vec::new(),
            affected_population: 0,
            restoration_paths: Vec::new(),
            recovery_distance: 0.0,
            domains_involved: 0,
            elections: Vec::new(),
            plans: Vec::new(),
        };
        let Some(session) = self.sessions[owner.index()].as_ref() else {
            // The failure landed in a domain with no session state: nobody
            // is affected and nothing needs repair.
            return Ok(empty(owner));
        };
        let local_scenario = session.localize_scenario(graph, &scenario);
        if local_scenario.is_empty() {
            // The failed component is not part of this domain's subgraph:
            // nothing on the tree is affected.
            return Ok(empty(owner));
        }
        let contingency = Contingency::new(&session.graph, &session.tree, &local_scenario);
        let mut paths = Vec::new();
        let mut plans = Vec::new();
        let mut total_rd = 0.0;
        let mut any_affected = false;
        let mut elections: Vec<AgentElection> = Vec::new();
        for n in contingency.fragment_roots() {
            any_affected = true;
            match contingency.detour(n, DetourKind::Local) {
                Ok(rec) => {
                    total_rd += rec.recovery_distance();
                    let global = Path::new(session.to_global_nodes(rec.restoration_path()));
                    let plan = RecoveryPlan::new(graph, &global, SimTime::ZERO);
                    plans.push((global.source(), plan));
                    paths.push(global.nodes().to_vec());
                }
                Err(e) => {
                    // No in-domain detour. If the fragment root is a child
                    // agent whose attachment died, elect a new agent over a
                    // backup gateway; otherwise the failure is fatal here.
                    match self.try_elect(owner, session, &scenario, &local_scenario, n) {
                        Some((election, path, dist, plan)) => {
                            total_rd += dist;
                            paths.push(path);
                            plans.push((election.old_agent, plan));
                            elections.push(election);
                        }
                        None => {
                            return Err(format!(
                                "fragment at {n} cannot recover inside domain {owner}: {e}"
                            ));
                        }
                    }
                }
            }
        }

        // Affected members, conservatively (the reporting granularity of
        // the paper's campaign): when the owner's tree was hit, every real
        // member the owner serves directly, plus — for each affected child
        // agent — every member and population under that child's domain
        // subtree.
        let mut affected = Vec::new();
        let mut affected_population = 0u64;
        if any_affected {
            for &m in &self.members {
                if self.topo.domain_of(m) == owner {
                    affected.push(m);
                    affected_population += 1;
                }
            }
            for p in &self.populations {
                if p.domain == owner {
                    affected_population += u64::from(p.receivers);
                }
            }
            for a in contingency.affected_members() {
                let g = session.to_global[a.index()];
                let agent_domain = self.topo.domain_of(g);
                if agent_domain == owner {
                    continue;
                }
                for &m in &self.members {
                    if self
                        .topo
                        .ancestry(self.topo.domain_of(m))
                        .contains(&agent_domain)
                        && !affected.contains(&m)
                    {
                        affected.push(m);
                        affected_population += 1;
                    }
                }
                for p in &self.populations {
                    if self.topo.ancestry(p.domain).contains(&agent_domain) {
                        affected_population += u64::from(p.receivers);
                    }
                }
            }
        }

        let domains_involved = if any_affected {
            let mut elected: Vec<DomainId> = elections.iter().map(|e| e.domain).collect();
            elected.dedup();
            1 + elected.len()
        } else {
            0
        };
        Ok(DomainRecovery {
            owner,
            affected_members: affected,
            affected_population,
            restoration_paths: paths,
            recovery_distance: total_rd,
            domains_involved,
            elections,
            plans,
        })
    }

    /// Attempts a new-agent election for a fragment rooted at `n` (local to
    /// `session`): if `n` is an active child's primary border and the child
    /// has a scenario-usable backup gateway, returns the election, the
    /// restoration path (owner-domain path to the backup's parent
    /// attachment, then across the backup gateway to the new agent), its
    /// delay, and the wire plan the orphaned agent installs (the same
    /// corridor walked from its own side: through the child domain to the
    /// backup border, across the backup gateway, up the owner domain).
    fn try_elect(
        &self,
        owner: DomainId,
        session: &DomainSession,
        scenario: &FailureScenario,
        local_scenario: &FailureScenario,
        n: NodeId,
    ) -> Option<(AgentElection, Vec<NodeId>, f64, RecoveryPlan)> {
        let graph = self.topo.graph();
        let g = session.to_global[n.index()];
        let child = self.topo.children_of(owner).find(|c| {
            self.sessions[c.id().index()].is_some() && c.attachment().map(|(b, _)| b) == Some(g)
        })?;
        for &(b2, up2) in child.backup_attachments() {
            let l = graph.link_between(b2, up2)?;
            if !scenario.link_usable(graph, l)
                || !scenario.node_usable(b2)
                || !scenario.node_usable(up2)
            {
                continue;
            }
            // Reach the backup's parent attachment from the owner session's
            // root without touching the failed component.
            let up2_local = session.to_local(up2)?;
            let path = dijkstra::shortest_path_constrained(
                &session.graph,
                session.tree.source(),
                up2_local,
                Constraints::avoiding_failures(local_scenario),
            )?;
            // The dead agent's wire plan walks the corridor from its own
            // side: child-domain leg to the backup border, the backup
            // gateway, then the owner-domain leg reversed (up2 → root). The
            // graft merges at the first live on-tree relay, so detour
            // search still never left the two involved domains.
            let child_session = self.sessions[child.id().index()].as_ref()?;
            let child_scenario = child_session.localize_scenario(graph, scenario);
            let child_leg = dijkstra::shortest_path_constrained(
                &child_session.graph,
                child_session.to_local(g)?,
                child_session.to_local(b2)?,
                Constraints::avoiding_failures(&child_scenario),
            )?;
            let mut global_path = session.to_global_nodes(&path);
            let mut wire_path = child_session.to_global_nodes(&child_leg);
            wire_path.extend(global_path.iter().rev());
            let dist = path.delay(&session.graph) + graph.link(l).delay();
            global_path.push(b2);
            return Some((
                AgentElection {
                    domain: child.id(),
                    old_agent: g,
                    new_agent: b2,
                    parent_attach: up2,
                },
                global_path,
                dist,
                RecoveryPlan::new(graph, &Path::new(wire_path), SimTime::ZERO),
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    mod nlevel {
        use super::super::*;
        use smrp_net::nlevel::NLevelConfig;

        fn topo() -> NLevelTopology {
            NLevelConfig::new(3)
                .level(2, 5)
                .level(2, 4)
                .extra_edge_prob(0.5)
                .seed(21)
                .generate()
                .unwrap()
        }

        /// Picks a source and members spread over leaf domains with
        /// *distinct* level-1 parents, so traffic must cross the core.
        fn pick(t: &NLevelTopology) -> (NodeId, Vec<NodeId>) {
            let leaves: Vec<_> = t.leaf_domains().collect();
            let source = leaves[0].nodes()[0];
            let source_parent = leaves[0].parent();
            let far: Vec<_> = leaves
                .iter()
                .filter(|l| l.parent() != source_parent)
                .take(2)
                .collect();
            let members = vec![
                leaves[0].nodes()[2],
                far[0].nodes()[1],
                far[1].nodes()[0],
                far[1].nodes()[3],
            ];
            (source, members)
        }

        #[test]
        fn builds_sessions_along_active_chains_only() {
            let t = topo();
            let (source, members) = pick(&t);
            let h = NLevelSession::build(&t, source, &members, SmrpConfig::default()).unwrap();
            // Active: the three leaf domains, their distinct parents and
            // the root — and nothing else.
            let mut expected: Vec<DomainId> = Vec::new();
            for &n in members.iter().chain([source].iter()) {
                for a in t.ancestry(t.domain_of(n)) {
                    if !expected.contains(&a) {
                        expected.push(a);
                    }
                }
            }
            assert_eq!(h.active_domains(), expected.len());
            assert_eq!(h.active_domain_ids().len(), expected.len());
        }

        #[test]
        fn every_link_has_an_owner_and_recovery_is_confined() {
            let t = topo();
            let (source, members) = pick(&t);
            let h = NLevelSession::build(&t, source, &members, SmrpConfig::default()).unwrap();
            let mut repaired = 0;
            let mut confined = 0;
            for link in t.graph().link_ids() {
                let owner = h.owning_domain(link);
                // Owner must contain at least one endpoint.
                let l = t.graph().link(link);
                let dom = &t.domains()[owner.index()];
                assert!(dom.contains(l.a()) || dom.contains(l.b()));
                if let Ok(rec) = h.recover(link) {
                    if rec.domains_involved > 0 {
                        repaired += 1;
                        confined += usize::from(rec.domains_involved == 1);
                        // Restoration paths stay inside the owning domain's
                        // subgraph: every hop is a domain node or an
                        // attached child agent.
                        for path in &rec.restoration_paths {
                            for n in path {
                                let nd = t.domain_of(*n);
                                let ok =
                                    nd == owner || t.domains()[nd.index()].parent() == Some(owner);
                                assert!(ok, "restoration hop {n} escaped domain {owner}");
                            }
                        }
                    }
                }
            }
            assert!(repaired > 0, "no failures were repairable");
            assert_eq!(repaired, confined, "a repair crossed domain boundaries");
        }

        #[test]
        fn source_domain_session_is_rooted_at_the_real_source() {
            let t = topo();
            let (source, members) = pick(&t);
            let h = NLevelSession::build(&t, source, &members, SmrpConfig::default()).unwrap();
            let sd = t.domain_of(source);
            assert_eq!(h.domain_tree_global(sd).unwrap().source(), source);
        }

        #[test]
        fn three_levels_are_wired_through_agents() {
            let t = topo();
            let (source, members) = pick(&t);
            let h = NLevelSession::build(&t, source, &members, SmrpConfig::default()).unwrap();
            // The root domain's session must include at least one agent
            // member (a level-1 border) so traffic crosses the core.
            let root = t.root().id();
            let sess = h.sessions[root.index()].as_ref().unwrap();
            assert!(sess.tree.member_count() >= 1);
        }

        #[test]
        fn populations_weight_agents_up_the_chain() {
            let t = NLevelConfig::new(3)
                .level(2, 5)
                .level(2, 4)
                .extra_edge_prob(0.5)
                .seed(21)
                .population(100_000)
                .generate()
                .unwrap();
            let (source, members) = pick(&t);
            let h = NLevelSession::build(&t, source, &members, SmrpConfig::default()).unwrap();
            assert_eq!(
                h.total_population(),
                members.len() as u64 + t.total_population()
            );
            // The root session's agents carry the populations below them:
            // the sum of member weights at the root equals every receiver
            // served outside the source's level-1 branch... at minimum, the
            // root tree's population is far larger than its member count.
            let root = t.root().id();
            let tree = h.domain_tree_global(root).unwrap();
            let total: u64 = tree
                .members()
                .map(|m| u64::from(tree.member_weight(m)))
                .sum();
            assert!(
                total > 10_000,
                "root agents carry aggregated populations, got {total}"
            );
            // And a leaf session carries its own population directly.
            let p = &t.populations()[0];
            if let Some(leaf) = h.domain_tree_global(p.domain) {
                if leaf.is_member(p.node) {
                    assert!(leaf.member_weight(p.node) >= p.receivers);
                }
            }
        }

        #[test]
        fn domain_trees_reexport_to_global_coordinates() {
            let t = topo();
            let (source, members) = pick(&t);
            let h = NLevelSession::build(&t, source, &members, SmrpConfig::default()).unwrap();
            for d in h.active_domain_ids() {
                let tree = h.domain_tree_global(d).expect("active domain exports");
                tree.validate(t.graph()).expect("exported tree validates");
                let s = h.sessions[d.index()].as_ref().unwrap();
                assert_eq!(tree.source(), s.to_global[s.tree.source().index()]);
                for m in s.tree.members() {
                    let global = s.to_global[m.index()];
                    assert!(tree.is_member(global));
                    assert_eq!(tree.member_weight(global), s.tree.member_weight(m));
                }
            }
        }

        #[test]
        fn gateway_cut_elects_backup_agent_when_available() {
            let t = NLevelConfig::new(3)
                .level(2, 5)
                .level(2, 4)
                .extra_edge_prob(0.5)
                .seed(21)
                .redundant_gateway_prob(1.0)
                .generate()
                .unwrap();
            let (source, members) = pick(&t);
            let h = NLevelSession::build(&t, source, &members, SmrpConfig::default()).unwrap();
            // Cut the primary gateway of a member-hosting leaf off the
            // source chain.
            let md = t.domain_of(members[1]);
            let dom = &t.domains()[md.index()];
            let (border, up) = dom.attachment().unwrap();
            let link = t.graph().link_between(border, up).unwrap();
            let owner = h.owning_domain(link);
            assert_eq!(Some(owner), dom.parent());
            let rec = h.recover(link).expect("backup gateway saves the day");
            assert_eq!(rec.owner, owner);
            assert_eq!(rec.elections.len(), 1, "exactly one election");
            let e = rec.elections[0];
            assert_eq!(e.domain, md);
            assert_eq!(e.old_agent, border);
            let backups = dom.backup_attachments();
            assert!(backups.contains(&(e.new_agent, e.parent_attach)));
            assert_eq!(rec.domains_involved, 2);
            // The restoration path ends at the new agent via the parent
            // attachment.
            let last = rec.restoration_paths.last().unwrap();
            assert_eq!(*last.last().unwrap(), e.new_agent);
            assert_eq!(last[last.len() - 2], e.parent_attach);
            assert!(!rec.affected_members.is_empty());
        }

        #[test]
        fn gateway_cut_without_backup_stays_an_error() {
            let t = topo(); // no redundant gateways
            let (source, members) = pick(&t);
            let h = NLevelSession::build(&t, source, &members, SmrpConfig::default()).unwrap();
            let md = t.domain_of(members[1]);
            let dom = &t.domains()[md.index()];
            let (border, up) = dom.attachment().unwrap();
            let link = t.graph().link_between(border, up).unwrap();
            let err = h.recover(link).unwrap_err();
            assert!(err.contains("cannot recover"), "{err}");
        }

        #[test]
        fn affected_population_counts_receivers_under_failed_subtrees() {
            let t = NLevelConfig::new(3)
                .level(2, 5)
                .level(2, 4)
                .extra_edge_prob(0.5)
                .seed(21)
                .population(480_000)
                .redundant_gateway_prob(1.0)
                .generate()
                .unwrap();
            let (source, members) = pick(&t);
            let h = NLevelSession::build(&t, source, &members, SmrpConfig::default()).unwrap();
            // Cut a leaf's gateway: the leaf's whole population (plus its
            // real members) loses service until the election completes.
            let md = t.domain_of(members[1]);
            let dom = &t.domains()[md.index()];
            let (border, up) = dom.attachment().unwrap();
            let link = t.graph().link_between(border, up).unwrap();
            let rec = h.recover(link).expect("backup gateway repairs");
            let pop_under: u64 = t
                .populations()
                .iter()
                .filter(|p| t.ancestry(p.domain).contains(&md))
                .map(|p| u64::from(p.receivers))
                .sum();
            assert!(pop_under > 0, "leaf has an aggregated population");
            assert!(
                rec.affected_population >= pop_under,
                "affected population {} must cover the subtree's {} receivers",
                rec.affected_population,
                pop_under
            );
        }
    }
}
