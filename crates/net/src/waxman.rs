//! Waxman random topology generator.
//!
//! The paper generates its flat topologies with GT-ITM's "pure random"
//! Waxman model: `N` nodes placed uniformly at random in a plane, with an
//! edge between `u` and `v` drawn with probability
//!
//! ```text
//! P(u,v) = α · exp(−d(u,v) / (β · L))
//! ```
//!
//! where `d` is Euclidean distance and `L` the maximum pairwise distance.
//! Following the paper (§4.1), `β` is held fixed and `α` is swept to tune
//! the average node degree (Zegura et al. showed a target degree is
//! attainable through different (α, β) combinations).
//!
//! GT-ITM discards disconnected samples; [`WaxmanConfig::generate`] does the
//! same up to a retry budget, then falls back to patching the largest gaps
//! with minimum-distance inter-component links so that low-`α` settings
//! (sparse graphs) still terminate. Patching adds at most
//! `components − 1` links.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::NetError;
use crate::geometry::{max_pairwise_distance, Point};
use crate::graph::{Graph, LinkWeights};
use crate::ids::NodeId;
use crate::traversal::{connected_components, is_connected};

/// Default fixed `β` (the paper fixes β and sweeps α).
pub const DEFAULT_BETA: f64 = 0.2;

/// Default multiplier converting unit-square Euclidean distance into link
/// delay, giving delays in the "tens of milliseconds" range.
const DELAY_SCALE: f64 = 100.0;

/// Configuration/builder for Waxman topology generation.
///
/// # Example
///
/// ```
/// use smrp_net::waxman::WaxmanConfig;
///
/// # fn main() -> Result<(), smrp_net::NetError> {
/// let topo = WaxmanConfig::new(100).alpha(0.2).seed(7).generate()?;
/// assert_eq!(topo.graph().node_count(), 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WaxmanConfig {
    nodes: usize,
    alpha: f64,
    beta: f64,
    seed: u64,
    max_attempts: u32,
}

impl WaxmanConfig {
    /// Starts a configuration for `nodes` nodes with the paper's defaults
    /// (`α = 0.2`, fixed `β`).
    pub fn new(nodes: usize) -> Self {
        WaxmanConfig {
            nodes,
            alpha: 0.2,
            beta: DEFAULT_BETA,
            seed: 0,
            max_attempts: 200,
        }
    }

    /// Sets the edge-density parameter `α` (0 < α ≤ 1).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the locality parameter `β` (0 < β ≤ 1).
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the RNG seed; identical configurations produce identical
    /// topologies.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) -> Result<(), NetError> {
        if self.nodes < 2 {
            return Err(NetError::InvalidParameter {
                name: "nodes",
                reason: "at least two nodes are required",
            });
        }
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(NetError::InvalidParameter {
                name: "alpha",
                reason: "must satisfy 0 < alpha <= 1",
            });
        }
        if !(self.beta > 0.0 && self.beta <= 1.0) {
            return Err(NetError::InvalidParameter {
                name: "beta",
                reason: "must satisfy 0 < beta <= 1",
            });
        }
        Ok(())
    }

    /// Generates a connected topology.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidParameter`] for out-of-range settings.
    /// Never fails on connectivity: after `max_attempts` redraws the last
    /// sample is patched into connectivity.
    pub fn generate(&self) -> Result<GeneratedTopology, NetError> {
        self.validate()?;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let (graph, points) = self.sample(&mut rng);
            if is_connected(&graph) {
                return Ok(GeneratedTopology { graph });
            }
            if attempts >= self.max_attempts {
                let graph = self.patch(graph, &points);
                return Ok(GeneratedTopology { graph });
            }
        }
    }

    /// Draws one (possibly disconnected) Waxman sample.
    fn sample(&self, rng: &mut SmallRng) -> (Graph, Vec<Point>) {
        let mut graph = Graph::new();
        let mut points = Vec::with_capacity(self.nodes);
        for _ in 0..self.nodes {
            let p = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
            points.push(p);
            graph.add_node_at(p);
        }
        let l = max_pairwise_distance(&points).max(f64::MIN_POSITIVE);
        for i in 0..self.nodes {
            for j in (i + 1)..self.nodes {
                // Draw first, one draw per pair in pair order. A draw
                // `r >= α` decides the pair on its own, and exactly:
                // `validate` keeps α and β in (0, 1], so the exponent is
                // ≤ 0, `exp` is ≤ 1 and the rounded `α · exp(…)` is
                // ≤ α ≤ r. Only `r < α` pays for the distance and the `exp`.
                let r = rng.gen::<f64>();
                if r >= self.alpha {
                    continue;
                }
                let d = points[i].distance(points[j]);
                let p_edge = self.alpha * (-d / (self.beta * l)).exp();
                if r < p_edge {
                    graph
                        .add_link_weighted(NodeId::new(i), NodeId::new(j), self.link_weights(d))
                        .expect("generator produces valid links");
                }
            }
        }
        (graph, points)
    }

    fn link_delay(&self, euclidean: f64) -> f64 {
        // Coincident points would yield a zero-delay link, which the graph
        // rejects; clamp to a tiny positive floor.
        (euclidean * DELAY_SCALE).max(1e-6)
    }

    /// Every link costs one, so the tree cost `Cost_T` counts links — the
    /// GT-ITM convention the paper's setup inherits.
    fn link_weights(&self, euclidean: f64) -> LinkWeights {
        LinkWeights {
            delay: self.link_delay(euclidean),
            cost: 1.0,
        }
    }

    /// Connects a disconnected sample by repeatedly adding the
    /// minimum-Euclidean-distance link between the first component and the
    /// nearest other component.
    fn patch(&self, mut graph: Graph, points: &[Point]) -> Graph {
        loop {
            let comps = connected_components(&graph);
            if comps.len() <= 1 {
                break;
            }
            let base = &comps[0];
            let mut best: Option<(f64, NodeId, NodeId)> = None;
            for comp in &comps[1..] {
                for &u in base {
                    for &v in comp {
                        let d = points[u.index()].distance(points[v.index()]);
                        if best.is_none_or(|(bd, _, _)| d < bd) {
                            best = Some((d, u, v));
                        }
                    }
                }
            }
            let (d, u, v) = best.expect("more than one component implies a candidate");
            graph
                .add_link_weighted(u, v, self.link_weights(d))
                .expect("patch endpoints are distinct and unlinked");
        }
        graph
    }
}

/// A generated connected topology.
#[derive(Debug, Clone)]
pub struct GeneratedTopology {
    graph: Graph,
}

impl GeneratedTopology {
    /// The generated connected graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes the wrapper, returning the graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Average node degree (convenience passthrough, annotated under each α
    /// in the paper's Figure 9).
    pub(crate) fn average_degree(&self) -> f64 {
        self.graph.average_degree()
    }
}

impl From<GeneratedTopology> for Graph {
    fn from(t: GeneratedTopology) -> Graph {
        t.graph
    }
}

/// Estimates the average node degree produced by `(alpha, beta)` at size
/// `nodes` by averaging over `samples` seeded draws.
pub(crate) fn estimate_average_degree(
    nodes: usize,
    alpha: f64,
    beta: f64,
    samples: u32,
    seed: u64,
) -> f64 {
    let mut total = 0.0;
    for i in 0..samples {
        let topo = WaxmanConfig::new(nodes)
            .alpha(alpha)
            .beta(beta)
            .seed(seed.wrapping_add(i as u64))
            .generate()
            .expect("valid parameters");
        total += topo.average_degree();
    }
    total / samples.max(1) as f64
}

/// Finds an `α` whose expected average degree is close to `target_degree`
/// (used for the paper's "even when average node degree goes up to 10"
/// claim in §4.3.3).
///
/// Binary-searches `α ∈ (0, 1]`; the returned `α` is accurate to about
/// ±0.005 in `α`, not in degree.
pub fn calibrate_alpha(nodes: usize, beta: f64, target_degree: f64, seed: u64) -> f64 {
    let mut lo = 0.01;
    let mut hi = 1.0;
    for _ in 0..12 {
        let mid = 0.5 * (lo + hi);
        let deg = estimate_average_degree(nodes, mid, beta, 3, seed);
        if deg < target_degree {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sampler in its textbook order: distance, then `exp`, then the
    /// draw, for every pair, with `L` the largest per-pair distance.
    fn reference_sample(cfg: &WaxmanConfig, rng: &mut SmallRng) -> (Graph, Vec<Point>) {
        let mut graph = Graph::new();
        let mut points = Vec::with_capacity(cfg.nodes);
        for _ in 0..cfg.nodes {
            let p = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
            points.push(p);
            graph.add_node_at(p);
        }
        let mut l = 0.0f64;
        for (i, a) in points.iter().enumerate() {
            for b in &points[i + 1..] {
                l = l.max(a.distance(*b));
            }
        }
        let l = l.max(f64::MIN_POSITIVE);
        for i in 0..cfg.nodes {
            for j in (i + 1)..cfg.nodes {
                let d = points[i].distance(points[j]);
                let p_edge = cfg.alpha * (-d / (cfg.beta * l)).exp();
                if rng.gen::<f64>() < p_edge {
                    graph
                        .add_link_weighted(NodeId::new(i), NodeId::new(j), cfg.link_weights(d))
                        .unwrap();
                }
            }
        }
        (graph, points)
    }

    /// [`WaxmanConfig::generate`]'s retry-then-patch loop over
    /// [`reference_sample`].
    fn reference_generate(cfg: &WaxmanConfig) -> Graph {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        for attempt in 1.. {
            let (graph, points) = reference_sample(cfg, &mut rng);
            if is_connected(&graph) {
                return graph;
            }
            if attempt >= cfg.max_attempts {
                return cfg.patch(graph, &points);
            }
        }
        unreachable!()
    }

    /// `α` or `β` in (0, 1], with the bound itself drawn often.
    fn unit_parameter() -> impl Strategy<Value = f64> {
        prop_oneof![Just(1.0), 1e-3f64..1.0]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn drawing_first_generates_the_reference_topology(
            nodes in 2usize..121,
            alpha in unit_parameter(),
            beta in unit_parameter(),
            seed in 0u64..u64::MAX,
            max_attempts in 1u32..6,
        ) {
            let cfg = WaxmanConfig {
                max_attempts,
                ..WaxmanConfig::new(nodes).alpha(alpha).beta(beta).seed(seed)
            };
            let got = cfg.generate().unwrap().into_graph();
            let want = reference_generate(&cfg);
            prop_assert_eq!(got.link_count(), want.link_count());
            for (a, b) in got.link_ids().zip(want.link_ids()) {
                let (a, b) = (got.link(a), want.link(b));
                prop_assert_eq!(a.endpoints(), b.endpoints());
                prop_assert_eq!(a.delay().to_bits(), b.delay().to_bits());
            }
        }
    }

    #[test]
    fn generated_graph_is_connected_and_sized() {
        let topo = WaxmanConfig::new(100)
            .alpha(0.2)
            .seed(1)
            .generate()
            .unwrap();
        assert_eq!(topo.graph().node_count(), 100);
        assert!(is_connected(topo.graph()));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = WaxmanConfig::new(50)
            .alpha(0.25)
            .seed(9)
            .generate()
            .unwrap();
        let b = WaxmanConfig::new(50)
            .alpha(0.25)
            .seed(9)
            .generate()
            .unwrap();
        assert_eq!(a.graph().link_count(), b.graph().link_count());
        for (la, lb) in a.graph().link_ids().zip(b.graph().link_ids()) {
            assert_eq!(
                a.graph().link(la).endpoints(),
                b.graph().link(lb).endpoints()
            );
            assert_eq!(a.graph().link(la).delay(), b.graph().link(lb).delay());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WaxmanConfig::new(50)
            .alpha(0.25)
            .seed(1)
            .generate()
            .unwrap();
        let b = WaxmanConfig::new(50)
            .alpha(0.25)
            .seed(2)
            .generate()
            .unwrap();
        // Overwhelmingly likely to differ in link count; if equal, check
        // endpoints.
        let same = a.graph().link_count() == b.graph().link_count()
            && a.graph()
                .link_ids()
                .zip(b.graph().link_ids())
                .all(|(la, lb)| a.graph().link(la).endpoints() == b.graph().link(lb).endpoints());
        assert!(!same);
    }

    #[test]
    fn higher_alpha_means_denser_graph() {
        let sparse = estimate_average_degree(80, 0.15, DEFAULT_BETA, 3, 5);
        let dense = estimate_average_degree(80, 0.4, DEFAULT_BETA, 3, 5);
        assert!(
            dense > sparse,
            "expected density to grow with alpha: {sparse} vs {dense}"
        );
    }

    #[test]
    fn delays_reflect_euclidean_distance() {
        let topo = WaxmanConfig::new(40).alpha(0.3).seed(3).generate().unwrap();
        let g = topo.graph();
        for l in g.link_ids() {
            let link = g.link(l);
            let pa = g.position(link.a()).unwrap();
            let pb = g.position(link.b()).unwrap();
            let expected = (pa.distance(pb) * DELAY_SCALE).max(1e-6);
            assert!((link.delay() - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(WaxmanConfig::new(1).generate().is_err());
        assert!(WaxmanConfig::new(10).alpha(0.0).generate().is_err());
        assert!(WaxmanConfig::new(10).alpha(1.5).generate().is_err());
        assert!(WaxmanConfig::new(10).beta(0.0).generate().is_err());
    }

    #[test]
    fn patching_connects_sparse_graphs() {
        // Tiny alpha at small attempt budget forces the patch path.
        let topo = WaxmanConfig {
            max_attempts: 2,
            ..WaxmanConfig::new(30).alpha(0.02).seed(11)
        }
        .generate()
        .unwrap();
        assert!(is_connected(topo.graph()));
    }

    #[test]
    fn calibrate_alpha_reaches_target_degree() {
        let alpha = calibrate_alpha(60, DEFAULT_BETA, 6.0, 17);
        let deg = estimate_average_degree(60, alpha, DEFAULT_BETA, 4, 23);
        assert!(
            (deg - 6.0).abs() < 2.0,
            "calibrated alpha {alpha} gives degree {deg}, wanted about 6"
        );
    }

    #[test]
    fn paper_alphas_give_moderate_degrees() {
        // Sanity check that the paper's swept alphas (0.15..0.3) land in a
        // plausible average-degree band with the fixed beta.
        for &alpha in &[0.15, 0.2, 0.25, 0.3] {
            let deg = estimate_average_degree(100, alpha, DEFAULT_BETA, 2, 31);
            assert!(
                (1.5..9.0).contains(&deg),
                "alpha {alpha} gave implausible degree {deg}"
            );
        }
    }
}
