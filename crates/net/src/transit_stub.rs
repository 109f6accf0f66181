//! Two-level transit-stub topology generator.
//!
//! §3.3.3 of the paper maps the hierarchical recovery architecture onto the
//! "current transit-stub Internet structure": a top-level *transit* domain
//! interconnects several *stub* domains, each of which clusters multicast
//! members by proximity. This module generates such topologies and exposes
//! the domain structure so the hierarchical protocol can confine failures to
//! a single recovery domain.
//!
//! The generator builds each domain as a random connected subgraph (random
//! spanning tree plus extra chords) with intra-domain delays much smaller
//! than the inter-domain (transit) link delays, matching the proximity
//! clustering assumption.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::graph::Graph;
use crate::ids::NodeId;

/// Identifier of a recovery domain inside a [`TransitStubTopology`].
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

/// Role of a domain in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum DomainKind {
    /// Top-level domain interconnecting stub gateways.
    Transit,
    /// Leaf domain containing multicast members.
    Stub,
}

/// One recovery domain: its nodes and its gateway into the parent level.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Domain {
    id: DomainId,
    kind: DomainKind,
    nodes: Vec<NodeId>,
    /// For a stub domain: the stub-side border node, and the transit node it
    /// attaches to. `None` for the transit domain itself.
    attachment: Option<(NodeId, NodeId)>,
}

impl Domain {
    /// Domain id.
    pub fn id(&self) -> DomainId {
        self.id
    }

    /// Whether this is the transit domain or a stub.
    pub(crate) fn kind(&self) -> DomainKind {
        self.kind
    }

    /// Nodes belonging to this domain.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// `(stub_border, transit_attachment)` for stub domains.
    pub fn attachment(&self) -> Option<(NodeId, NodeId)> {
        self.attachment
    }
}

/// Configuration for transit-stub generation.
///
/// # Example
///
/// ```
/// use smrp_net::transit_stub::TransitStubConfig;
///
/// # fn main() -> Result<(), smrp_net::NetError> {
/// let topo = TransitStubConfig::new()
///     .transit_nodes(4)
///     .stubs_per_transit_node(2)
///     .stub_nodes(8)
///     .seed(5)
///     .generate()?;
/// assert_eq!(topo.domains().len(), 1 + 4 * 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransitStubConfig {
    transit_nodes: usize,
    stubs_per_transit_node: usize,
    stub_nodes: usize,
    extra_edge_prob: f64,
    transit_delay: (f64, f64),
    stub_delay: (f64, f64),
    gateway_delay: (f64, f64),
    seed: u64,
}

impl Default for TransitStubConfig {
    fn default() -> Self {
        TransitStubConfig {
            transit_nodes: 4,
            stubs_per_transit_node: 2,
            stub_nodes: 8,
            extra_edge_prob: 0.3,
            transit_delay: (20.0, 50.0),
            stub_delay: (1.0, 5.0),
            gateway_delay: (5.0, 15.0),
            seed: 0,
        }
    }
}

impl TransitStubConfig {
    /// Starts from the default configuration (4 transit nodes × 2 stubs of
    /// 8 nodes).
    pub fn new() -> Self {
        TransitStubConfig::default()
    }

    /// Number of nodes in the transit domain.
    pub fn transit_nodes(mut self, n: usize) -> Self {
        self.transit_nodes = n;
        self
    }

    /// Number of stub domains attached to each transit node.
    pub fn stubs_per_transit_node(mut self, n: usize) -> Self {
        self.stubs_per_transit_node = n;
        self
    }

    /// Number of nodes per stub domain.
    pub fn stub_nodes(mut self, n: usize) -> Self {
        self.stub_nodes = n;
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

    fn validate(&self) -> Result<(), NetError> {
        if self.transit_nodes < 2 {
            return Err(NetError::InvalidParameter {
                name: "transit_nodes",
                reason: "at least two transit nodes are required",
            });
        }
        if self.stub_nodes < 1 {
            return Err(NetError::InvalidParameter {
                name: "stub_nodes",
                reason: "stub domains must contain at least one node",
            });
        }
        if !(0.0..=1.0).contains(&self.extra_edge_prob) {
            return Err(NetError::InvalidParameter {
                name: "extra_edge_prob",
                reason: "must lie in [0, 1]",
            });
        }
        Ok(())
    }

    /// Generates the topology.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] for out-of-range settings.
    pub fn generate(&self) -> Result<TransitStubTopology, NetError> {
        self.validate()?;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut graph = Graph::new();
        let mut domains = Vec::new();

        // Transit domain.
        let transit_nodes: Vec<NodeId> =
            (0..self.transit_nodes).map(|_| graph.add_node()).collect();
        connect_domain(
            &mut graph,
            &transit_nodes,
            self.transit_delay,
            self.extra_edge_prob,
            &mut rng,
        );
        domains.push(Domain {
            id: DomainId::new(0),
            kind: DomainKind::Transit,
            nodes: transit_nodes.clone(),
            attachment: None,
        });

        // Stub domains.
        for &t in &transit_nodes {
            for _ in 0..self.stubs_per_transit_node {
                let stub: Vec<NodeId> = (0..self.stub_nodes).map(|_| graph.add_node()).collect();
                connect_domain(
                    &mut graph,
                    &stub,
                    self.stub_delay,
                    self.extra_edge_prob,
                    &mut rng,
                );
                let border = stub[rng.gen_range(0..stub.len())];
                let delay = sample_delay(self.gateway_delay, &mut rng);
                graph
                    .add_link(border, t, delay)
                    .expect("gateway endpoints are distinct and fresh");
                domains.push(Domain {
                    id: DomainId::new(domains.len()),
                    kind: DomainKind::Stub,
                    nodes: stub,
                    attachment: Some((border, t)),
                });
            }
        }

        let mut node_domain = vec![DomainId::new(0); graph.node_count()];
        for d in &domains {
            for &n in &d.nodes {
                node_domain[n.index()] = d.id;
            }
        }

        Ok(TransitStubTopology {
            graph,
            domains,
            node_domain,
        })
    }
}

fn sample_delay(range: (f64, f64), rng: &mut SmallRng) -> f64 {
    if range.0 >= range.1 {
        range.0
    } else {
        rng.gen_range(range.0..range.1)
    }
}

/// Connects `nodes` into a random connected subgraph: a random spanning tree
/// plus chords drawn with `extra_edge_prob`.
fn connect_domain(
    graph: &mut Graph,
    nodes: &[NodeId],
    delay: (f64, f64),
    extra_edge_prob: f64,
    rng: &mut SmallRng,
) {
    // Random spanning tree: attach each node to a random earlier node.
    for (i, &n) in nodes.iter().enumerate().skip(1) {
        let parent = nodes[rng.gen_range(0..i)];
        let d = sample_delay(delay, rng);
        graph
            .add_link(n, parent, d)
            .expect("spanning-tree edges are fresh");
    }
    // Extra chords.
    for i in 0..nodes.len() {
        for j in (i + 1)..nodes.len() {
            if graph.link_between(nodes[i], nodes[j]).is_some() {
                continue;
            }
            if rng.gen::<f64>() < extra_edge_prob {
                let d = sample_delay(delay, rng);
                graph
                    .add_link(nodes[i], nodes[j], d)
                    .expect("chord endpoints are distinct and unlinked");
            }
        }
    }
}

/// A generated transit-stub topology with its domain structure.
#[derive(Debug, Clone)]
pub struct TransitStubTopology {
    graph: Graph,
    domains: Vec<Domain>,
    node_domain: Vec<DomainId>,
}

impl TransitStubTopology {
    /// The underlying flat graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// All domains; index 0 is always the transit domain.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// The transit domain.
    pub fn transit_domain(&self) -> &Domain {
        &self.domains[0]
    }

    /// Stub domains only.
    pub fn stub_domains(&self) -> impl Iterator<Item = &Domain> {
        self.domains.iter().filter(|d| d.kind == DomainKind::Stub)
    }

    /// The domain a node belongs to.
    pub fn domain_of(&self, node: NodeId) -> DomainId {
        self.node_domain[node.index()]
    }

    /// Consumes the topology, returning the graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;

    fn sample() -> TransitStubTopology {
        TransitStubConfig::new()
            .transit_nodes(4)
            .stubs_per_transit_node(2)
            .stub_nodes(6)
            .seed(42)
            .generate()
            .unwrap()
    }

    #[test]
    fn topology_is_connected() {
        let t = sample();
        assert!(is_connected(t.graph()));
        assert_eq!(t.graph().node_count(), 4 + 4 * 2 * 6);
    }

    #[test]
    fn domain_zero_is_transit() {
        let t = sample();
        assert_eq!(t.transit_domain().kind(), DomainKind::Transit);
        assert_eq!(t.stub_domains().count(), 8);
    }

    #[test]
    fn every_node_has_a_domain() {
        let t = sample();
        for n in t.graph().node_ids() {
            let d = t.domain_of(n);
            assert!(t.domains()[d.index()].nodes().contains(&n));
        }
    }

    #[test]
    fn stub_attachments_link_to_transit() {
        let t = sample();
        for stub in t.stub_domains() {
            let (border, attach) = stub.attachment().unwrap();
            assert!(stub.nodes().contains(&border));
            assert!(t.transit_domain().nodes().contains(&attach));
            assert!(t.graph().link_between(border, attach).is_some());
        }
    }

    #[test]
    fn stub_delays_are_smaller_than_transit_delays() {
        let t = sample();
        let g = t.graph();
        let transit = t.transit_domain();
        let mut max_stub: f64 = 0.0;
        let mut min_transit = f64::INFINITY;
        for l in g.link_ids() {
            let (a, b) = g.link(l).endpoints();
            let intra_transit = transit.nodes().contains(&a) && transit.nodes().contains(&b);
            let same_stub = t.domain_of(a) == t.domain_of(b) && !intra_transit;
            if intra_transit {
                min_transit = min_transit.min(g.link(l).delay());
            } else if same_stub {
                max_stub = max_stub.max(g.link(l).delay());
            }
        }
        assert!(
            max_stub < min_transit,
            "stub delays ({max_stub}) should stay below transit delays ({min_transit})"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = sample();
        let b = sample();
        assert_eq!(a.graph().link_count(), b.graph().link_count());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(TransitStubConfig::new()
            .transit_nodes(1)
            .generate()
            .is_err());
        assert!(TransitStubConfig::new().stub_nodes(0).generate().is_err());
        assert!(TransitStubConfig::new()
            .extra_edge_prob(1.5)
            .generate()
            .is_err());
    }

    #[test]
    fn single_node_stubs_are_allowed() {
        let t = TransitStubConfig::new()
            .transit_nodes(2)
            .stubs_per_transit_node(1)
            .stub_nodes(1)
            .seed(3)
            .generate()
            .unwrap();
        assert!(is_connected(t.graph()));
    }
}
