//! Scenario generation: seeded topologies and member sets (§4.1).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use smrp_net::waxman::WaxmanConfig;
use smrp_net::{Graph, NetError, NodeId};

/// Parameters of one simulation scenario family, mirroring §4.1's knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// `N`: number of nodes in the network.
    pub nodes: usize,
    /// `N_G`: number of multicast members.
    pub group_size: usize,
    /// `α`: Waxman edge-density parameter (average node degree knob).
    pub alpha: f64,
    /// Base RNG seed; every scenario derives its own sub-seed.
    pub base_seed: u64,
}

impl Default for ScenarioConfig {
    /// The paper's base configuration: `N = 100`, `N_G = 30`, `α = 0.2`.
    fn default() -> Self {
        ScenarioConfig {
            nodes: 100,
            group_size: 30,
            alpha: 0.2,
            base_seed: 0x5EED,
        }
    }
}

/// One concrete scenario: a topology, a source and a member set.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The network topology.
    pub graph: Graph,
    /// The multicast source.
    pub source: NodeId,
    /// The multicast members (distinct, never the source).
    pub members: Vec<NodeId>,
    /// Which (topology, member-set) indices produced this scenario.
    pub provenance: (u32, u32),
}

impl ScenarioConfig {
    /// Generates the topology for topology index `t`.
    ///
    /// # Errors
    ///
    /// Propagates generator configuration errors.
    pub(crate) fn topology(&self, t: u32) -> Result<Graph, NetError> {
        Ok(WaxmanConfig::new(self.nodes)
            .alpha(self.alpha)
            .seed(self.base_seed ^ (0x9E3779B9u64.wrapping_mul(u64::from(t) + 1)))
            .generate()?
            .into_graph())
    }

    /// Samples the source and member set `m` for a given topology.
    pub(crate) fn pick_members(&self, graph: &Graph, t: u32, m: u32) -> (NodeId, Vec<NodeId>) {
        let seed = self
            .base_seed
            .wrapping_add(0xA5A5_A5A5u64.wrapping_mul(u64::from(t) + 3))
            .wrapping_add(0x1234_5678u64.wrapping_mul(u64::from(m) + 7));
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ids: Vec<NodeId> = graph.node_ids().collect();
        ids.shuffle(&mut rng);
        let take = self.group_size.min(ids.len() - 1);
        let source = ids[0];
        let members = ids[1..=take].to_vec();
        (source, members)
    }

    /// Generates `topologies × member_sets` scenarios.
    ///
    /// # Errors
    ///
    /// Propagates topology-generation errors.
    pub fn scenarios(&self, topologies: u32, member_sets: u32) -> Result<Vec<Scenario>, NetError> {
        let mut out = Vec::with_capacity((topologies * member_sets) as usize);
        for t in 0..topologies {
            let graph = self.topology(t)?;
            for m in 0..member_sets {
                let (source, members) = self.pick_members(&graph, t, m);
                out.push(Scenario {
                    graph: graph.clone(),
                    source,
                    members,
                    provenance: (t, m),
                });
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_counts_and_shapes() {
        let cfg = ScenarioConfig {
            nodes: 40,
            group_size: 10,
            ..ScenarioConfig::default()
        };
        let scenarios = cfg.scenarios(2, 3).unwrap();
        assert_eq!(scenarios.len(), 6);
        for s in &scenarios {
            assert_eq!(s.graph.node_count(), 40);
            assert_eq!(s.members.len(), 10);
            assert!(!s.members.contains(&s.source));
            // Members are distinct.
            let mut m = s.members.clone();
            m.sort();
            m.dedup();
            assert_eq!(m.len(), 10);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = ScenarioConfig {
            nodes: 30,
            group_size: 5,
            ..ScenarioConfig::default()
        };
        let a = cfg.scenarios(1, 2).unwrap();
        let b = cfg.scenarios(1, 2).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.source, y.source);
            assert_eq!(x.members, y.members);
            assert_eq!(x.graph.link_count(), y.graph.link_count());
        }
    }

    #[test]
    fn different_member_sets_differ() {
        let cfg = ScenarioConfig {
            nodes: 50,
            group_size: 10,
            ..ScenarioConfig::default()
        };
        let s = cfg.scenarios(1, 2).unwrap();
        assert_ne!(s[0].members, s[1].members);
    }

    #[test]
    fn group_size_is_capped_by_node_count() {
        let cfg = ScenarioConfig {
            nodes: 8,
            group_size: 100,
            alpha: 0.9,
            ..ScenarioConfig::default()
        };
        let s = cfg.scenarios(1, 1).unwrap();
        assert_eq!(s[0].members.len(), 7);
    }
}
