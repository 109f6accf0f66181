//! N-level hierarchical topologies (§3.3.3's generalization).
//!
//! The paper presents a 2-level transit-stub instantiation of its recovery
//! architecture and notes that it "can be easily generalized into an
//! N-level architecture". This module generates the topologies for that
//! generalization: a root domain at level 0, and at each deeper level a
//! configurable number of child domains hanging off every node of the
//! level above, each attached through a single border (gateway) link.
//! Intra-domain link delays shrink with depth, mirroring how regional and
//! campus networks sit under wide-area backbones.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::graph::Graph;
use crate::ids::{LinkId, NodeId};

/// Identifier of a recovery domain inside an [`NLevelTopology`]: its index
/// in [`NLevelTopology::domains`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DomainId(u32);

impl DomainId {
    /// Creates a domain id from a raw index.
    pub fn new(index: usize) -> Self {
        DomainId(index as u32)
    }

    /// Raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for DomainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// An aggregated member population: thousands of receivers served through
/// one attachment node of a leaf domain. Campaigns weight this node's
/// membership by `receivers` in the Eq. 2 `SHR`/`N` maintenance instead of
/// instantiating one event-queue actor per user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AggregatedPopulation {
    /// The leaf domain serving this population.
    pub domain: DomainId,
    /// The attachment node the receivers sit behind.
    pub node: NodeId,
    /// Number of receivers aggregated behind `node`.
    pub receivers: u32,
}

/// One recovery domain in an N-level hierarchy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LevelDomain {
    id: DomainId,
    level: u32,
    parent: Option<DomainId>,
    nodes: Vec<NodeId>,
    /// `(border_in_this_domain, node_in_parent_domain)`; `None` for the
    /// root.
    attachment: Option<(NodeId, NodeId)>,
    /// Redundant `(backup_border, node_in_parent_domain)` attachments the
    /// domain can elect a new agent through when the primary border
    /// attachment dies. Empty unless the generator was configured with
    /// [`NLevelConfig::redundant_gateway_prob`].
    backups: Vec<(NodeId, NodeId)>,
}

impl LevelDomain {
    /// Domain id.
    pub fn id(&self) -> DomainId {
        self.id
    }

    /// Depth in the hierarchy (0 = root).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Parent domain, if any.
    pub fn parent(&self) -> Option<DomainId> {
        self.parent
    }

    /// Nodes belonging to this domain.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// `(border, parent_attachment)` for non-root domains.
    pub fn attachment(&self) -> Option<(NodeId, NodeId)> {
        self.attachment
    }

    /// Redundant `(backup_border, parent_node)` attachments for agent
    /// election when the primary attachment dies.
    pub fn backup_attachments(&self) -> &[(NodeId, NodeId)] {
        &self.backups
    }

    /// Whether `node` belongs to this domain.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }
}

/// Configuration for N-level hierarchy generation.
///
/// # Example
///
/// ```
/// use smrp_net::nlevel::NLevelConfig;
///
/// # fn main() -> Result<(), smrp_net::NetError> {
/// // 3 levels: a 4-node core, 2 regional domains of 5 nodes per core
/// // node, 2 campus domains of 4 nodes per regional node.
/// let topo = NLevelConfig::new(4)
///     .level(2, 5)
///     .level(2, 4)
///     .seed(1)
///     .generate()?;
/// assert_eq!(topo.leaf_domains().count(), 4 * 2 * 5 * 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NLevelConfig {
    root_nodes: usize,
    fanout: Vec<(usize, usize)>,
    extra_edge_prob: f64,
    base_delay: (f64, f64),
    seed: u64,
    population: u64,
    redundant_gateway_prob: f64,
}

impl NLevelConfig {
    /// Starts a configuration with a `root_nodes`-node root domain and no
    /// deeper levels yet.
    pub fn new(root_nodes: usize) -> Self {
        NLevelConfig {
            root_nodes,
            fanout: Vec::new(),
            extra_edge_prob: 0.4,
            base_delay: (20.0, 50.0),
            seed: 0,
            population: 0,
            redundant_gateway_prob: 0.0,
        }
    }

    /// Appends one level: `domains_per_node` child domains under every node
    /// of the previous level, each with `nodes_per_domain` nodes.
    pub fn level(mut self, domains_per_node: usize, nodes_per_domain: usize) -> Self {
        self.fanout.push((domains_per_node, nodes_per_domain));
        self
    }

    /// Probability of each extra intra-domain chord beyond the spanning
    /// tree.
    pub fn extra_edge_prob(mut self, p: f64) -> Self {
        self.extra_edge_prob = p;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Total aggregated receiver population, spread evenly over the leaf
    /// domains as [`AggregatedPopulation`] attachment points (remainder
    /// receivers land on the earliest leaves). `0` (the default) generates
    /// no populations.
    pub fn population(mut self, receivers: u64) -> Self {
        self.population = receivers;
        self
    }

    /// Probability that a non-root domain (with at least two nodes) grows
    /// one redundant backup gateway into its parent domain, enabling agent
    /// election when the primary border attachment dies. `0.0` (the
    /// default) draws nothing and leaves existing seeds byte-identical.
    pub fn redundant_gateway_prob(mut self, p: f64) -> Self {
        self.redundant_gateway_prob = p;
        self
    }

    fn validate(&self) -> Result<(), NetError> {
        if self.root_nodes < 2 {
            return Err(NetError::InvalidParameter {
                name: "root_nodes",
                reason: "the root domain needs at least two nodes",
            });
        }
        for &(d, n) in &self.fanout {
            if d == 0 || n == 0 {
                return Err(NetError::InvalidParameter {
                    name: "fanout",
                    reason: "levels need at least one domain and one node per domain",
                });
            }
        }
        if !(0.0..=1.0).contains(&self.extra_edge_prob) {
            return Err(NetError::InvalidParameter {
                name: "extra_edge_prob",
                reason: "must lie in [0, 1]",
            });
        }
        if !(0.0..=1.0).contains(&self.redundant_gateway_prob) {
            return Err(NetError::InvalidParameter {
                name: "redundant_gateway_prob",
                reason: "must lie in [0, 1]",
            });
        }
        Ok(())
    }

    /// Generates the hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] for out-of-range settings.
    pub fn generate(&self) -> Result<NLevelTopology, NetError> {
        self.validate()?;
        // Delays shrink with depth; gateways sit between the scales.
        let levels: Vec<Level> = (1..)
            .zip(&self.fanout)
            .map(|(level, &(per_node, nodes))| {
                let scale = 0.5f64.powi(level);
                let delay = (self.base_delay.0 * scale, self.base_delay.1 * scale);
                Level {
                    per_node,
                    nodes,
                    delay,
                    gateway: (delay.1, self.base_delay.0 * 0.5f64.powi(level - 1)),
                }
            })
            .collect();
        let (mut topo, mut rng) = grow(
            self.seed,
            self.root_nodes,
            self.base_delay,
            self.extra_edge_prob,
            &levels,
        );

        // Optional redundant backup gateways: the RNG is only consulted
        // when the knob is set, so existing seeds stay byte-identical.
        if self.redundant_gateway_prob > 0.0 {
            for di in 1..topo.domains.len() {
                let domain = &topo.domains[di];
                if domain.nodes.len() < 2 {
                    continue;
                }
                if rng.gen::<f64>() >= self.redundant_gateway_prob {
                    continue;
                }
                let (border, _) = domain.attachment.expect("non-root has attachment");
                let parent = domain.parent.expect("non-root has a parent");
                let candidates: Vec<NodeId> = domain
                    .nodes
                    .iter()
                    .copied()
                    .filter(|&n| n != border)
                    .collect();
                let b2 = candidates[rng.gen_range(0..candidates.len())];
                let parent_nodes = &topo.domains[parent.index()].nodes;
                let up2 = parent_nodes[rng.gen_range(0..parent_nodes.len())];
                let gw = draw(levels[domain.level as usize - 1].gateway, &mut rng);
                if topo.graph.link_between(b2, up2).is_none() {
                    topo.graph
                        .add_link(b2, up2, gw)
                        .expect("fresh backup gateway");
                }
                topo.domains[di].backups.push((b2, up2));
            }
        }

        // Spread the aggregated receiver population evenly over the leaf
        // domains; remainder receivers land on the earliest leaves. The
        // attachment point is the first non-border node so intra-domain
        // repairs exercise real subtree structure.
        if self.population > 0 {
            let leaves: Vec<&LevelDomain> = topo.leaf_domains().collect();
            let per = self.population / leaves.len() as u64;
            let rem = (self.population % leaves.len() as u64) as usize;
            let mut populations = Vec::new();
            for (i, d) in leaves.into_iter().enumerate() {
                let receivers = per + u64::from(i < rem);
                if receivers == 0 {
                    continue;
                }
                let receivers = u32::try_from(receivers).unwrap_or(u32::MAX);
                let border = d.attachment.map(|(b, _)| b);
                let node = d
                    .nodes
                    .iter()
                    .copied()
                    .find(|&n| Some(n) != border)
                    .unwrap_or(d.nodes[0]);
                populations.push(AggregatedPopulation {
                    domain: d.id,
                    node,
                    receivers,
                });
            }
            topo.populations = populations;
        }
        Ok(topo)
    }
}

/// One level under the root, as plain data: `per_node` child domains of
/// `nodes` nodes hang off every node of the level above, their internal
/// links draw delays from `delay` and each one's gateway link from
/// `gateway`.
pub(crate) struct Level {
    pub(crate) per_node: usize,
    pub(crate) nodes: usize,
    pub(crate) delay: (f64, f64),
    pub(crate) gateway: (f64, f64),
}

/// Grows a domain hierarchy from `seed`: a `root_nodes`-node root domain
/// with delays in `root_delay`, then each of `levels` in turn, breadth
/// first. Every
/// domain is a random connected subgraph whose border is one random node
/// linked to its parent-level node. Returns the topology (no backups, no
/// populations) and the RNG, positioned after the last draw, for callers
/// that draw more.
pub(crate) fn grow(
    seed: u64,
    root_nodes: usize,
    root_delay: (f64, f64),
    extra_edge_prob: f64,
    levels: &[Level],
) -> (NLevelTopology, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut graph = Graph::new();
    let root_nodes: Vec<NodeId> = (0..root_nodes).map(|_| graph.add_node()).collect();
    connect_domain(
        &mut graph,
        &root_nodes,
        root_delay,
        extra_edge_prob,
        &mut rng,
    );
    let mut domains = vec![LevelDomain {
        id: DomainId::new(0),
        level: 0,
        parent: None,
        nodes: root_nodes,
        attachment: None,
        backups: Vec::new(),
    }];

    // The domains whose nodes receive the next level's children.
    let mut frontier = 0..1;
    for (level, spec) in (1..).zip(levels) {
        let next = domains.len();
        for di in frontier {
            let parent = domains[di].id;
            for k in 0..domains[di].nodes.len() {
                let up = domains[di].nodes[k];
                for _ in 0..spec.per_node {
                    let nodes: Vec<NodeId> = (0..spec.nodes).map(|_| graph.add_node()).collect();
                    connect_domain(&mut graph, &nodes, spec.delay, extra_edge_prob, &mut rng);
                    let border = nodes[rng.gen_range(0..nodes.len())];
                    let gw = draw(spec.gateway, &mut rng);
                    graph
                        .add_link(border, up, gw)
                        .expect("gateway endpoints are distinct and fresh");
                    domains.push(LevelDomain {
                        id: DomainId::new(domains.len()),
                        level,
                        parent: Some(parent),
                        nodes,
                        attachment: Some((border, up)),
                        backups: Vec::new(),
                    });
                }
            }
        }
        frontier = next..domains.len();
    }

    let mut node_domain = vec![DomainId::new(0); graph.node_count()];
    for d in &domains {
        for &n in &d.nodes {
            node_domain[n.index()] = d.id;
        }
    }
    let topo = NLevelTopology {
        graph,
        domains,
        node_domain,
        depth: levels.len() as u32 + 1,
        populations: Vec::new(),
    };
    (topo, rng)
}

/// A delay drawn uniformly from `range`, or its low end when the range
/// is empty (no draw then).
fn draw(range: (f64, f64), rng: &mut SmallRng) -> f64 {
    if range.0 < range.1 {
        rng.gen_range(range.0..range.1)
    } else {
        range.0
    }
}

/// Connects `nodes` into a random connected subgraph: a random spanning
/// tree (each node attached to a random earlier one) plus chords drawn
/// with `extra_edge_prob`.
fn connect_domain(
    graph: &mut Graph,
    nodes: &[NodeId],
    delay: (f64, f64),
    extra_edge_prob: f64,
    rng: &mut SmallRng,
) {
    for (i, &n) in nodes.iter().enumerate().skip(1) {
        let parent = nodes[rng.gen_range(0..i)];
        let d = draw(delay, rng);
        graph.add_link(n, parent, d).expect("fresh spanning edge");
    }
    for i in 0..nodes.len() {
        for j in (i + 1)..nodes.len() {
            if graph.link_between(nodes[i], nodes[j]).is_some() {
                continue;
            }
            if rng.gen::<f64>() < extra_edge_prob {
                let d = draw(delay, rng);
                graph.add_link(nodes[i], nodes[j], d).expect("fresh chord");
            }
        }
    }
}

/// A generated N-level hierarchy.
#[derive(Debug, Clone)]
pub struct NLevelTopology {
    graph: Graph,
    domains: Vec<LevelDomain>,
    node_domain: Vec<DomainId>,
    depth: u32,
    populations: Vec<AggregatedPopulation>,
}

impl NLevelTopology {
    /// The underlying flat graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// All domains; index 0 is the root.
    pub fn domains(&self) -> &[LevelDomain] {
        &self.domains
    }

    /// The root (level-0) domain.
    pub fn root(&self) -> &LevelDomain {
        &self.domains[0]
    }

    /// The domain a node belongs to.
    pub fn domain_of(&self, node: NodeId) -> DomainId {
        self.node_domain[node.index()]
    }

    /// Domains at the deepest level.
    pub fn leaf_domains(&self) -> impl Iterator<Item = &LevelDomain> {
        let max = self.depth - 1;
        self.domains.iter().filter(move |d| d.level == max)
    }

    /// Child domains of `parent`.
    pub fn children_of(&self, parent: DomainId) -> impl Iterator<Item = &LevelDomain> {
        self.domains
            .iter()
            .filter(move |d| d.parent == Some(parent))
    }

    /// Chain of domains from `domain` up to the root (inclusive).
    pub fn ancestry(&self, domain: DomainId) -> Vec<DomainId> {
        let mut out = vec![domain];
        let mut cur = domain;
        while let Some(p) = self.domains[cur.index()].parent {
            out.push(p);
            cur = p;
        }
        out
    }

    /// Consumes the topology, returning the graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Aggregated receiver populations attached to leaf domains.
    pub fn populations(&self) -> &[AggregatedPopulation] {
        &self.populations
    }

    /// Total aggregated receivers across all attachment points.
    pub fn total_population(&self) -> u64 {
        self.populations
            .iter()
            .map(|p| u64::from(p.receivers))
            .sum()
    }

    /// The domain responsible for repairing a failure of `link`.
    ///
    /// An intra-domain link is owned by the domain both endpoints belong
    /// to. A gateway link (child border ↔ parent node) is owned by the
    /// **parent** side: the child cannot repair the loss of its own
    /// attachment, so the failure escalates one level up.
    pub fn owning_domain_of_link(&self, link: LinkId) -> DomainId {
        let (a, b) = self.graph.link(link).endpoints();
        let da = self.domain_of(a);
        let db = self.domain_of(b);
        if da == db {
            return da;
        }
        if self.domains[da.index()].parent == Some(db) {
            return db;
        }
        if self.domains[db.index()].parent == Some(da) {
            return da;
        }
        // Cross-branch link (not produced by the generator, but tolerated
        // in hand-built topologies): the shallower domain owns it.
        if self.domains[da.index()].level <= self.domains[db.index()].level {
            da
        } else {
            db
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;

    fn three_level() -> NLevelTopology {
        NLevelConfig::new(3)
            .level(1, 4)
            .level(2, 3)
            .seed(5)
            .generate()
            .unwrap()
    }

    #[test]
    fn shape_and_connectivity() {
        let t = three_level();
        assert!(is_connected(t.graph()));
        assert_eq!(t.depth, 3);
        // 1 root + 3 level-1 domains + (3*4 nodes)*2 level-2 domains.
        assert_eq!(t.domains().len(), 1 + 3 + 24);
        assert_eq!(t.graph().node_count(), 3 + 3 * 4 + 24 * 3);
    }

    #[test]
    fn domains_partition_nodes() {
        let t = three_level();
        for n in t.graph().node_ids() {
            let d = t.domain_of(n);
            assert!(t.domains()[d.index()].contains(n));
        }
        let total: usize = t.domains().iter().map(|d| d.nodes().len()).sum();
        assert_eq!(total, t.graph().node_count());
    }

    #[test]
    fn attachments_link_child_to_parent() {
        let t = three_level();
        for d in t.domains().iter().skip(1) {
            let (border, up) = d.attachment().unwrap();
            assert!(d.contains(border));
            let parent = d.parent().unwrap();
            assert!(t.domains()[parent.index()].contains(up));
            assert!(t.graph().link_between(border, up).is_some());
        }
    }

    #[test]
    fn ancestry_walks_to_root() {
        let t = three_level();
        let leaf = t.leaf_domains().next().unwrap();
        let chain = t.ancestry(leaf.id());
        assert_eq!(chain.len(), 3);
        assert_eq!(*chain.last().unwrap(), t.root().id());
        assert_eq!(t.ancestry(t.root().id()), vec![t.root().id()]);
    }

    #[test]
    fn delays_shrink_with_depth() {
        let t = three_level();
        let g = t.graph();
        let mut max_by_level = [0.0f64; 3];
        for d in t.domains() {
            for &a in d.nodes() {
                for &b in d.nodes() {
                    if a < b {
                        if let Some(l) = g.link_between(a, b) {
                            let lvl = d.level() as usize;
                            max_by_level[lvl] = max_by_level[lvl].max(g.link(l).delay());
                        }
                    }
                }
            }
        }
        assert!(max_by_level[0] > max_by_level[1]);
        assert!(max_by_level[1] > max_by_level[2]);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(NLevelConfig::new(1).generate().is_err());
        assert!(NLevelConfig::new(3).level(0, 4).generate().is_err());
        assert!(NLevelConfig::new(3).level(1, 0).generate().is_err());
        assert!(NLevelConfig::new(3)
            .extra_edge_prob(2.0)
            .generate()
            .is_err());
    }

    #[test]
    fn two_level_config_matches_transit_stub_shape() {
        let t = NLevelConfig::new(4).level(2, 6).seed(9).generate().unwrap();
        assert_eq!(t.depth, 2);
        assert_eq!(t.leaf_domains().count(), 8);
        assert!(is_connected(t.graph()));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = three_level();
        let b = three_level();
        assert_eq!(a.graph().link_count(), b.graph().link_count());
    }

    /// Byte-level determinism: the same seed reproduces the identical
    /// topology — every link tuple, domain roster, backup, and population.
    #[test]
    fn same_seed_reproduces_identical_topology_bytes() {
        let build = || {
            NLevelConfig::new(4)
                .level(2, 3)
                .level(2, 2)
                .seed(42)
                .redundant_gateway_prob(0.5)
                .population(123_457)
                .generate()
                .unwrap()
        };
        let a = build();
        let b = build();
        let links = |t: &NLevelTopology| -> Vec<(NodeId, NodeId, u64, u64)> {
            t.graph()
                .link_ids()
                .map(|l| {
                    let link = t.graph().link(l);
                    (
                        link.a(),
                        link.b(),
                        link.delay().to_bits(),
                        link.cost().to_bits(),
                    )
                })
                .collect()
        };
        assert_eq!(links(&a), links(&b));
        for (da, db) in a.domains().iter().zip(b.domains()) {
            assert_eq!(da.nodes(), db.nodes());
            assert_eq!(da.attachment(), db.attachment());
            assert_eq!(da.backup_attachments(), db.backup_attachments());
        }
        assert_eq!(a.populations(), b.populations());
        // And a different seed actually changes something.
        let c = NLevelConfig::new(4)
            .level(2, 3)
            .level(2, 2)
            .seed(43)
            .redundant_gateway_prob(0.5)
            .population(123_457)
            .generate()
            .unwrap();
        assert_ne!(links(&a), links(&c));
    }

    /// Single-node child domains are legal: the lone node doubles as the
    /// border, the domain has no chords, and no backup gateway can be
    /// drawn for it (a backup border must differ from the primary).
    #[test]
    fn single_node_domains_are_borders_without_backups() {
        let t = NLevelConfig::new(3)
            .level(2, 1)
            .seed(11)
            .redundant_gateway_prob(1.0)
            .generate()
            .unwrap();
        assert!(is_connected(t.graph()));
        for d in t.leaf_domains() {
            assert_eq!(d.nodes().len(), 1);
            let (border, up) = d.attachment().unwrap();
            assert_eq!(border, d.nodes()[0]);
            assert!(t.root().contains(up));
            assert!(d.backup_attachments().is_empty());
        }
    }

    /// A depth-1 configuration degenerates to a flat single-domain graph.
    #[test]
    fn depth_one_tree_is_flat() {
        let t = NLevelConfig::new(6).seed(3).generate().unwrap();
        assert_eq!(t.depth, 1);
        assert_eq!(t.domains().len(), 1);
        assert!(t.root().attachment().is_none());
        assert_eq!(t.leaf_domains().count(), 1);
        assert_eq!(t.root().nodes().len(), t.graph().node_count());
        assert!(is_connected(t.graph()));
        for n in t.graph().node_ids() {
            assert_eq!(t.domain_of(n), t.root().id());
        }
        // Every link is intra-root.
        for l in t.graph().link_ids() {
            assert_eq!(t.owning_domain_of_link(l), t.root().id());
        }
    }

    #[test]
    fn error_paths_return_invalid_parameter() {
        for bad in [
            NLevelConfig::new(1),
            NLevelConfig::new(3).level(0, 4),
            NLevelConfig::new(3).level(1, 0),
            NLevelConfig::new(3).extra_edge_prob(-0.1),
            NLevelConfig::new(3).redundant_gateway_prob(1.5),
            NLevelConfig::new(3).redundant_gateway_prob(-0.5),
        ] {
            match bad.generate() {
                Err(NetError::InvalidParameter { .. }) => {}
                other => panic!("expected InvalidParameter, got {other:?}"),
            }
        }
    }

    #[test]
    fn backup_gateways_land_in_parent_and_avoid_primary_border() {
        let t = NLevelConfig::new(3)
            .level(2, 4)
            .level(2, 3)
            .seed(17)
            .redundant_gateway_prob(1.0)
            .generate()
            .unwrap();
        let mut seen = 0;
        for d in t.domains().iter().skip(1) {
            assert_eq!(d.backup_attachments().len(), 1);
            let (border, _) = d.attachment().unwrap();
            for &(b2, up2) in d.backup_attachments() {
                seen += 1;
                assert!(d.contains(b2));
                assert_ne!(b2, border);
                let parent = d.parent().unwrap();
                assert!(t.domains()[parent.index()].contains(up2));
                assert!(t.graph().link_between(b2, up2).is_some());
            }
        }
        assert!(seen > 0);
    }

    #[test]
    fn zero_gateway_prob_leaves_seed_output_unchanged() {
        let plain = three_level();
        let knob = NLevelConfig::new(3)
            .level(1, 4)
            .level(2, 3)
            .seed(5)
            .redundant_gateway_prob(0.0)
            .generate()
            .unwrap();
        assert_eq!(plain.graph().link_count(), knob.graph().link_count());
        assert!(knob
            .domains()
            .iter()
            .all(|d| d.backup_attachments().is_empty()));
        assert!(knob.populations().is_empty());
    }

    #[test]
    fn population_spreads_evenly_with_remainder_on_earliest_leaves() {
        let t = NLevelConfig::new(3)
            .level(1, 4)
            .level(2, 3)
            .seed(5)
            .population(1_000_003)
            .generate()
            .unwrap();
        let leaves: Vec<_> = t.leaf_domains().collect();
        assert_eq!(t.populations().len(), leaves.len());
        assert_eq!(t.total_population(), 1_000_003);
        let per = 1_000_003u64 / leaves.len() as u64;
        for (i, p) in t.populations().iter().enumerate() {
            let expect = per + u64::from(i < (1_000_003 % leaves.len() as u64) as usize);
            assert_eq!(u64::from(p.receivers), expect);
            let d = &t.domains()[p.domain.index()];
            assert_eq!(d.id(), leaves[i].id());
            assert!(d.contains(p.node));
            // Multi-node leaves attach the population off the border.
            if d.nodes().len() > 1 {
                assert_ne!(Some(p.node), d.attachment().map(|(b, _)| b));
            }
        }
    }

    #[test]
    fn tiny_population_lands_on_earliest_leaves_only() {
        let t = NLevelConfig::new(3)
            .level(2, 2)
            .seed(8)
            .population(2)
            .generate()
            .unwrap();
        assert!(t.leaf_domains().count() > 2);
        assert_eq!(t.populations().len(), 2);
        assert_eq!(t.total_population(), 2);
        assert!(t.populations().iter().all(|p| p.receivers == 1));
    }

    #[test]
    fn link_ownership_is_intra_domain_or_parent_side() {
        let t = three_level();
        for l in t.graph().link_ids() {
            let (a, b) = t.graph().link(l).endpoints();
            let owner = t.owning_domain_of_link(l);
            let (da, db) = (t.domain_of(a), t.domain_of(b));
            if da == db {
                assert_eq!(owner, da);
            } else {
                // Gateway: owner is the shallower (parent) side.
                let (od, other) = if owner == da { (da, db) } else { (db, da) };
                assert_eq!(owner, od);
                assert_eq!(t.domains()[other.index()].parent(), Some(owner));
            }
        }
    }
}
