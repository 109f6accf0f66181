//! Two-level transit-stub topologies: the [`nlevel`](crate::nlevel)
//! generator's depth-2 preset.
//!
//! §3.3.3 of the paper maps the hierarchical recovery architecture onto the
//! "current transit-stub Internet structure": a top-level *transit* domain
//! interconnects several *stub* domains, each of which clusters multicast
//! members by proximity. [`TransitStubConfig`] generates such a topology as
//! an [`NLevelTopology`] of depth 2: the transit domain is the level-0
//! root, the stubs its level-1 children, so the hierarchical protocol can
//! confine failures to a single recovery domain.
//!
//! Each domain is a random connected subgraph (random spanning tree plus
//! extra chords). Delays are fixed ranges rather than the N-level
//! generator's depth-scaled ones: transit links 20–50, stub links 1–5 and
//! gateways 5–15, so intra-stub delays sit well below transit delays,
//! matching the proximity clustering assumption.

use crate::error::NetError;
use crate::nlevel::{grow, Level, NLevelTopology};

const TRANSIT_DELAY: (f64, f64) = (20.0, 50.0);
const STUB_DELAY: (f64, f64) = (1.0, 5.0);
const GATEWAY_DELAY: (f64, f64) = (5.0, 15.0);

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
    seed: u64,
}

impl Default for TransitStubConfig {
    fn default() -> Self {
        TransitStubConfig {
            transit_nodes: 4,
            stubs_per_transit_node: 2,
            stub_nodes: 8,
            extra_edge_prob: 0.3,
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

    /// Generates the topology: an [`NLevelTopology`] of depth 2 whose
    /// root (domain 0) is the transit domain and whose leaves are the stubs,
    /// `stubs_per_transit_node` per transit node in transit-node order.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] for out-of-range settings.
    pub fn generate(&self) -> Result<NLevelTopology, NetError> {
        self.validate()?;
        let stubs = Level {
            per_node: self.stubs_per_transit_node,
            nodes: self.stub_nodes,
            delay: STUB_DELAY,
            gateway: GATEWAY_DELAY,
        };
        let (topo, _) = grow(
            self.seed,
            self.transit_nodes,
            TRANSIT_DELAY,
            self.extra_edge_prob,
            &[stubs],
        );
        Ok(topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;

    fn sample() -> NLevelTopology {
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
        assert_eq!(t.root().id().index(), 0);
        assert_eq!(t.root().level(), 0);
        assert_eq!(t.root().nodes().len(), 4);
        assert_eq!(t.leaf_domains().count(), 8);
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
        for stub in t.leaf_domains() {
            let (border, attach) = stub.attachment().unwrap();
            assert!(stub.nodes().contains(&border));
            assert!(t.root().nodes().contains(&attach));
            assert!(t.graph().link_between(border, attach).is_some());
        }
    }

    #[test]
    fn stub_delays_are_smaller_than_transit_delays() {
        let t = sample();
        let g = t.graph();
        let transit = t.root();
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
