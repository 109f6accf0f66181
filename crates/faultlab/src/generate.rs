//! Deterministic, seeded generation of correlated fault scenarios.
//!
//! The repo's hand-built [`FailureScenario`]s exercise one link or one node
//! at a time (the paper's Figure 1 regime). Real outages are often multiple
//! and correlated — a conduit cut takes every fiber in it, a power event
//! takes every router in a region — so the generator produces *families* of
//! failures:
//!
//! * [`FaultFamily::KLink`] — `k` independent random link cuts;
//! * [`FaultFamily::KNode`] — `k` independent random router crashes;
//! * [`FaultFamily::Srlg`] — a shared-risk link group: links whose
//!   geometric midpoints share a conduit cell all fail together;
//! * [`FaultFamily::Regional`] — every node within radius `r` of a random
//!   epicenter fails (a regional outage).
//!
//! Beyond hard component failures, three families degrade the *control
//! plane* itself (the channel carrying Hello/Refresh/Setup):
//!
//! * [`FaultFamily::UniformLoss`] — a link cut under ambient uniform
//!   message loss on every link (a congested or noisy network);
//! * [`FaultFamily::GrayLinks`] — a link cut plus a few "gray" links that
//!   stay up but drop a large fraction of messages (the classic
//!   gray-failure regime: neither healthy nor detectably dead);
//! * [`FaultFamily::Flapping`] — one component cycling down/up several
//!   times, the regime that punishes soft state hardest (every cycle
//!   re-runs detection, recovery, reboot re-arming and `former_upstream`
//!   branch re-extension).
//!
//! Every case derives its own RNG seed from `(base_seed, case id)`, so a
//! campaign is reproducible from its base seed alone and any single case is
//! reproducible from its serialized [`FaultCase`].
//!
//! What a case draws from depends only on the topology, so it is tabled
//! once per topology: a `FaultIndex` holds the link ids, the node ids and
//! the shared-risk conduits of one `(graph, srlg_grid)`, and every case of
//! a campaign or protection sweep reads that one table.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use smrp_net::{FailureScenario, Graph, LinkId, NodeId};
use smrp_sim::ChannelSpec;

/// The family a generated scenario belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultFamily {
    /// `k` uniformly random link failures.
    KLink,
    /// `k` uniformly random node failures.
    KNode,
    /// One shared-risk link group (conduit) fails wholesale.
    Srlg,
    /// All nodes within a radius of a random epicenter fail.
    Regional,
    /// A link cut under ambient uniform control-plane loss on every link.
    UniformLoss,
    /// A link cut plus several "gray" links: up, but dropping heavily.
    GrayLinks,
    /// One component flapping through repeated down/up cycles.
    Flapping,
}

impl FaultFamily {
    /// All families, in the round-robin order the mixed generator uses.
    pub(crate) const ALL: [FaultFamily; 7] = [
        FaultFamily::KLink,
        FaultFamily::KNode,
        FaultFamily::Srlg,
        FaultFamily::Regional,
        FaultFamily::UniformLoss,
        FaultFamily::GrayLinks,
        FaultFamily::Flapping,
    ];

    /// Stable lowercase name (used in reports and tables).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            FaultFamily::KLink => "k-link",
            FaultFamily::KNode => "k-node",
            FaultFamily::Srlg => "srlg",
            FaultFamily::Regional => "regional",
            FaultFamily::UniformLoss => "uniform-loss",
            FaultFamily::GrayLinks => "gray-links",
            FaultFamily::Flapping => "flapping",
        }
    }
}

impl std::fmt::Display for FaultFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether the failure persists, heals once, or flaps repeatedly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Timing {
    /// `true`: the failure is repaired `repair_after_ms` after injection
    /// (a maintenance window); `false`: the paper's persistent regime.
    pub transient: bool,
    /// Outage duration for transient cases (ignored when persistent).
    pub repair_after_ms: f64,
    /// Down/up cycles for flapping cases (`0` = not flapping; the single
    /// `transient`/persistent regimes above apply instead).
    pub flap_cycles: u32,
    /// Outage length of each flap cycle, in milliseconds.
    pub flap_down_ms: f64,
    /// Healthy window between flap outages, in milliseconds.
    pub flap_up_ms: f64,
}

impl Timing {
    /// The paper's persistent regime.
    pub fn persistent() -> Self {
        Timing {
            transient: false,
            repair_after_ms: 0.0,
            flap_cycles: 0,
            flap_down_ms: 0.0,
            flap_up_ms: 0.0,
        }
    }

    /// A single-repair transient outage.
    pub(crate) fn transient(repair_after_ms: f64) -> Self {
        Timing {
            transient: true,
            repair_after_ms,
            ..Timing::persistent()
        }
    }

    /// Repeated down/up cycles; the run ends with the component repaired.
    pub(crate) fn flapping(cycles: u32, down_ms: f64, up_ms: f64) -> Self {
        Timing {
            transient: false,
            repair_after_ms: 0.0,
            flap_cycles: cycles.max(1),
            flap_down_ms: down_ms,
            flap_up_ms: up_ms,
        }
    }

    /// Whether this timing cycles the components down and up repeatedly.
    pub fn is_flapping(&self) -> bool {
        self.flap_cycles > 0
    }

    /// Whether the outage is repaired by the end of the run (transient or
    /// flapping), as opposed to the persistent regime.
    pub fn heals(&self) -> bool {
        self.transient || self.is_flapping()
    }
}

/// Knobs of the scenario generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Links cut per `KLink` case.
    pub k_link: usize,
    /// Nodes crashed per `KNode` case.
    pub k_node: usize,
    /// Conduit-grid resolution for SRLG derivation: the unit square is cut
    /// into `srlg_grid × srlg_grid` cells and links whose midpoints share a
    /// cell share fate.
    pub srlg_grid: usize,
    /// Epicenter radius for regional failures, in the topology's coordinate
    /// units (the Waxman unit square).
    pub regional_radius: f64,
    /// Fraction of cases drawn as transient instead of persistent.
    pub transient_fraction: f64,
    /// Outage duration of transient cases, in milliseconds.
    pub repair_after_ms: f64,
    /// Ambient per-message loss probability of `UniformLoss` cases.
    pub uniform_loss: f64,
    /// Per-message loss probability of each gray link in `GrayLinks` cases.
    pub gray_loss: f64,
    /// Number of gray links degraded per `GrayLinks` case.
    pub gray_links: usize,
    /// Down/up cycles per `Flapping` case.
    pub flap_cycles: u32,
    /// Outage length of each flap cycle, in milliseconds. The default
    /// exceeds the routers' holdtime so every cycle expires soft state and
    /// forces a real `former_upstream` re-extension, not just a refresh.
    pub flap_down_ms: f64,
    /// Healthy window between flap outages, in milliseconds.
    pub flap_up_ms: f64,
}

impl Default for GeneratorConfig {
    /// Two-failure correlation by default (`k = 2`), a 5×5 conduit grid, a
    /// 0.15-radius region and a 20% transient share with 250 ms outages.
    /// Control-plane degradation defaults: 10% ambient loss, three 40%-loss
    /// gray links, and three 250 ms-down / 400 ms-up flap cycles.
    fn default() -> Self {
        GeneratorConfig {
            k_link: 2,
            k_node: 2,
            srlg_grid: 5,
            regional_radius: 0.15,
            transient_fraction: 0.2,
            repair_after_ms: 250.0,
            uniform_loss: 0.1,
            gray_loss: 0.4,
            gray_links: 3,
            flap_cycles: 3,
            flap_down_ms: 250.0,
            flap_up_ms: 400.0,
        }
    }
}

/// One generated fault case: the minimal reproducer for anything it breaks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultCase {
    /// Campaign-local case index.
    pub id: u32,
    /// The family this case was drawn from.
    pub family: FaultFamily,
    /// The exact RNG seed the case was generated with.
    pub seed: u64,
    /// The concrete failed links/nodes.
    pub scenario: FailureScenario,
    /// Persistent, transient or flapping injection.
    pub timing: Timing,
    /// The control-plane channel the case runs over (perfect for the pure
    /// component-failure families).
    pub channel: ChannelSpec,
}

#[cfg(test)]
impl FaultCase {
    /// Case 0 of `family`: `scenario` injected persistently over a perfect
    /// channel — the shape directed tests build by hand.
    pub(crate) fn directed(family: FaultFamily, scenario: FailureScenario) -> Self {
        FaultCase {
            id: 0,
            family,
            seed: 1,
            scenario,
            timing: Timing::persistent(),
            channel: ChannelSpec::perfect(),
        }
    }
}

/// Derives the shared-risk link groups of `graph` from its geometry: links
/// whose midpoints fall in the same cell of a `grid × grid` partition of
/// the unit square are assumed to share a physical conduit. Groups of at
/// least two links qualify; returned in deterministic cell order.
///
/// Graphs without node positions (imported topologies) fall back to
/// node-incidence conduits: every node of degree ≥ 2 forms a group of its
/// incident links, modelling a site whose cable tray fails as one.
pub(crate) fn derive_srlgs(graph: &Graph, grid: usize) -> Vec<Vec<LinkId>> {
    let grid = grid.max(1);
    let has_positions = graph.node_ids().all(|n| graph.position(n).is_some());
    if has_positions {
        let mut cells: std::collections::BTreeMap<(u64, u64), Vec<LinkId>> = Default::default();
        for l in graph.link_ids() {
            let link = graph.link(l);
            let pa = graph.position(link.a()).expect("checked above");
            let pb = graph.position(link.b()).expect("checked above");
            let mid_x = (pa.x + pb.x) / 2.0;
            let mid_y = (pa.y + pb.y) / 2.0;
            let clamp = |v: f64| ((v * grid as f64) as u64).min(grid as u64 - 1);
            cells
                .entry((clamp(mid_x), clamp(mid_y)))
                .or_default()
                .push(l);
        }
        cells.into_values().filter(|g| g.len() >= 2).collect()
    } else {
        graph
            .node_ids()
            .filter(|&n| graph.degree(n) >= 2)
            .map(|n| graph.adjacency(n).iter().map(|&(_, l)| l).collect())
            .collect()
    }
}

/// The per-topology table every generated case draws from: the link ids
/// and node ids of `graph` in id order, and its [`derive_srlgs`] conduits.
/// Built once per `(graph, srlg_grid)`; a case reads it and never writes.
pub(crate) struct FaultIndex<'g> {
    graph: &'g Graph,
    links: Vec<LinkId>,
    nodes: Vec<NodeId>,
    srlgs: Vec<Vec<LinkId>>,
}

impl<'g> FaultIndex<'g> {
    /// Tables `graph` for cases whose conduit grid is `srlg_grid`.
    pub(crate) fn new(graph: &'g Graph, srlg_grid: usize) -> Self {
        FaultIndex {
            graph,
            links: graph.link_ids().collect(),
            nodes: graph.node_ids().collect(),
            srlgs: derive_srlgs(graph, srlg_grid),
        }
    }

    /// The shared-risk link groups, in [`derive_srlgs`] order.
    pub(crate) fn srlgs(&self) -> &[Vec<LinkId>] {
        &self.srlgs
    }
}

/// Picks, from `srlgs`, the indices of the shared-risk groups whose
/// failure would break *more than one* of the given trees — the
/// shared-fate conduits of a multi-session deployment. `tree_links[g]`
/// is the link set of group `g`'s tree; an SRLG qualifies when it
/// intersects at least two of them. Indices come back ascending, so the
/// selection is deterministic.
pub fn shared_fate_srlgs(srlgs: &[Vec<LinkId>], tree_links: &[Vec<LinkId>]) -> Vec<usize> {
    srlgs
        .iter()
        .enumerate()
        .filter(|(_, srlg)| {
            let hit = tree_links
                .iter()
                .filter(|tree| tree.iter().any(|l| srlg.contains(l)))
                .count();
            hit >= 2
        })
        .map(|(i, _)| i)
        .collect()
}

/// Samples `k` distinct elements of `0..n` (as indices).
fn sample_distinct(rng: &mut SmallRng, n: usize, k: usize) -> Vec<usize> {
    let k = k.min(n);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < k {
        picked.insert(rng.gen_range(0..n));
    }
    picked.into_iter().collect()
}

/// Generates the case with index `id` of `family`, seeded from
/// `base_seed`. Identical arguments always produce identical cases.
/// `index` must table the graph at `cfg.srlg_grid`.
pub(crate) fn generate_case(
    index: &FaultIndex<'_>,
    cfg: &GeneratorConfig,
    family: FaultFamily,
    id: u32,
    base_seed: u64,
) -> FaultCase {
    // splitmix-style sub-seed derivation, matching the repo's convention of
    // per-index seeds off one base seed.
    let seed = base_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(id).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    // The channel draws its own seed off the case seed so degraded-channel
    // randomness is independent of how many draws scenario sampling used.
    let channel_seed = seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
    let mut channel = ChannelSpec::perfect();
    let mut flapping = false;
    let (graph, links, nodes) = (index.graph, &index.links, &index.nodes);

    let scenario = match family {
        FaultFamily::KLink => FailureScenario::links(
            sample_distinct(&mut rng, links.len(), cfg.k_link)
                .into_iter()
                .map(|i| links[i]),
        ),
        FaultFamily::KNode => FailureScenario::nodes(
            sample_distinct(&mut rng, nodes.len(), cfg.k_node)
                .into_iter()
                .map(|i| nodes[i]),
        ),
        FaultFamily::Srlg => {
            let groups = &index.srlgs;
            if groups.is_empty() {
                // Degenerate topology with no shared conduits: fall back to
                // a correlated double link cut.
                FailureScenario::links(
                    sample_distinct(&mut rng, links.len(), 2)
                        .into_iter()
                        .map(|i| links[i]),
                )
            } else {
                let g = rng.gen_range(0..groups.len());
                FailureScenario::links(groups[g].iter().copied())
            }
        }
        FaultFamily::Regional => {
            let epicenter = nodes[rng.gen_range(0..nodes.len())];
            match graph.position(epicenter) {
                Some(center) => FailureScenario::nodes(
                    nodes
                        .iter()
                        .copied()
                        .filter(|&n| {
                            graph
                                .position(n)
                                .is_some_and(|p| p.distance(center) <= cfg.regional_radius)
                        })
                        .collect::<Vec<_>>(),
                ),
                // No geometry: a "region" is the epicenter plus its
                // immediate neighborhood.
                None => {
                    let mut s = FailureScenario::node(epicenter);
                    for n in graph.neighbors(epicenter) {
                        s.fail_node(n);
                    }
                    s
                }
            }
        }
        FaultFamily::UniformLoss => {
            channel = ChannelSpec::uniform_loss(cfg.uniform_loss, channel_seed);
            FailureScenario::link(links[rng.gen_range(0..links.len())])
        }
        FaultFamily::GrayLinks => {
            // One hard cut, plus `gray_links` distinct links that stay up
            // but drop `gray_loss` of everything crossing them. Which of
            // the sampled links is the cut is drawn separately so the
            // sorted sampling order doesn't bias the cut toward low ids.
            let picks = sample_distinct(&mut rng, links.len(), 1 + cfg.gray_links);
            let cut_at = rng.gen_range(0..picks.len());
            let overrides = picks
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != cut_at)
                .map(|(_, &i)| (links[i], cfg.gray_loss))
                .collect();
            channel = ChannelSpec {
                overrides,
                seed: channel_seed,
                ..ChannelSpec::perfect()
            };
            FailureScenario::link(links[picks[cut_at]])
        }
        FaultFamily::Flapping => {
            flapping = true;
            // Two thirds link flaps; one third node flaps, which exercise
            // the reboot path (`on_reboot` re-arms timers and pending
            // retransmissions) on every up-edge.
            if rng.gen_bool(2.0 / 3.0) {
                FailureScenario::link(links[rng.gen_range(0..links.len())])
            } else {
                FailureScenario::node(nodes[rng.gen_range(0..nodes.len())])
            }
        }
    };

    let timing = if flapping {
        Timing::flapping(cfg.flap_cycles, cfg.flap_down_ms, cfg.flap_up_ms)
    } else if cfg.transient_fraction > 0.0 && rng.gen_bool(cfg.transient_fraction) {
        Timing::transient(cfg.repair_after_ms)
    } else {
        Timing::persistent()
    };
    FaultCase {
        id,
        family,
        seed,
        scenario,
        timing,
        channel,
    }
}

/// Generates `count` cases cycling round-robin through all seven families.
pub fn generate_mix(
    graph: &Graph,
    cfg: &GeneratorConfig,
    count: usize,
    base_seed: u64,
) -> Vec<FaultCase> {
    let index = FaultIndex::new(graph, cfg.srlg_grid);
    (0..count)
        .map(|i| {
            let family = FaultFamily::ALL[i % FaultFamily::ALL.len()];
            generate_case(&index, cfg, family, i as u32, base_seed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smrp_net::waxman::WaxmanConfig;

    fn waxman(n: usize, seed: u64) -> Graph {
        WaxmanConfig::new(n)
            .alpha(0.25)
            .seed(seed)
            .generate()
            .unwrap()
            .into_graph()
    }

    /// The generator without a table: every case collects the ids it
    /// needs and derives the conduit grid itself. Draws must match
    /// [`generate_case`] one for one.
    fn per_case_reference(
        graph: &Graph,
        cfg: &GeneratorConfig,
        family: FaultFamily,
        id: u32,
        base_seed: u64,
    ) -> FaultCase {
        let seed = base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(id).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let channel_seed = seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let mut channel = ChannelSpec::perfect();
        let links = || graph.link_ids().collect::<Vec<LinkId>>();
        let nodes = || graph.node_ids().collect::<Vec<NodeId>>();
        let scenario = match family {
            FaultFamily::KLink => {
                let links = links();
                FailureScenario::links(
                    sample_distinct(&mut rng, links.len(), cfg.k_link)
                        .into_iter()
                        .map(|i| links[i]),
                )
            }
            FaultFamily::KNode => {
                let nodes = nodes();
                FailureScenario::nodes(
                    sample_distinct(&mut rng, nodes.len(), cfg.k_node)
                        .into_iter()
                        .map(|i| nodes[i]),
                )
            }
            FaultFamily::Srlg => {
                let groups = derive_srlgs(graph, cfg.srlg_grid);
                if groups.is_empty() {
                    let links = links();
                    FailureScenario::links(
                        sample_distinct(&mut rng, links.len(), 2)
                            .into_iter()
                            .map(|i| links[i]),
                    )
                } else {
                    let g = rng.gen_range(0..groups.len());
                    FailureScenario::links(groups[g].iter().copied())
                }
            }
            FaultFamily::Regional => {
                let nodes = nodes();
                let epicenter = nodes[rng.gen_range(0..nodes.len())];
                match graph.position(epicenter) {
                    Some(center) => FailureScenario::nodes(
                        nodes
                            .iter()
                            .copied()
                            .filter(|&n| {
                                graph
                                    .position(n)
                                    .is_some_and(|p| p.distance(center) <= cfg.regional_radius)
                            })
                            .collect::<Vec<_>>(),
                    ),
                    None => {
                        let mut s = FailureScenario::node(epicenter);
                        for n in graph.neighbors(epicenter) {
                            s.fail_node(n);
                        }
                        s
                    }
                }
            }
            FaultFamily::UniformLoss => {
                channel = ChannelSpec::uniform_loss(cfg.uniform_loss, channel_seed);
                let links = links();
                FailureScenario::link(links[rng.gen_range(0..links.len())])
            }
            FaultFamily::GrayLinks => {
                let links = links();
                let picks = sample_distinct(&mut rng, links.len(), 1 + cfg.gray_links);
                let cut_at = rng.gen_range(0..picks.len());
                let overrides = picks
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != cut_at)
                    .map(|(_, &i)| (links[i], cfg.gray_loss))
                    .collect();
                channel = ChannelSpec {
                    overrides,
                    seed: channel_seed,
                    ..ChannelSpec::perfect()
                };
                FailureScenario::link(links[picks[cut_at]])
            }
            FaultFamily::Flapping => {
                if rng.gen_bool(2.0 / 3.0) {
                    let links = links();
                    FailureScenario::link(links[rng.gen_range(0..links.len())])
                } else {
                    let nodes = nodes();
                    FailureScenario::node(nodes[rng.gen_range(0..nodes.len())])
                }
            }
        };
        let timing = if family == FaultFamily::Flapping {
            Timing::flapping(cfg.flap_cycles, cfg.flap_down_ms, cfg.flap_up_ms)
        } else if cfg.transient_fraction > 0.0 && rng.gen_bool(cfg.transient_fraction) {
            Timing::transient(cfg.repair_after_ms)
        } else {
            Timing::persistent()
        };
        FaultCase {
            id,
            family,
            seed,
            scenario,
            timing,
            channel,
        }
    }

    /// `graph`'s nodes and links without positions, so conduits fall back
    /// to node incidence and regions to neighbourhoods.
    fn without_positions(graph: &Graph) -> Graph {
        let mut g = Graph::with_nodes(graph.node_count());
        for l in graph.link_ids() {
            let link = graph.link(l);
            g.add_link(link.a(), link.b(), link.delay()).unwrap();
        }
        g
    }

    #[test]
    fn one_table_generates_what_per_case_derivation_generates() {
        let positioned = waxman(80, 13);
        let positionless = without_positions(&waxman(60, 21));
        // One link: no conduit qualifies, so `Srlg` takes its fallback.
        let mut bare = Graph::with_nodes(2);
        bare.add_link(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        let protect_like = GeneratorConfig {
            k_link: 1,
            k_node: 1,
            srlg_grid: 3,
            transient_fraction: 0.0,
            ..GeneratorConfig::default()
        };
        for graph in [&positioned, &positionless, &bare] {
            for cfg in [GeneratorConfig::default(), protect_like] {
                for base_seed in [1, 7919, 20050628] {
                    let count = 10 * FaultFamily::ALL.len();
                    let reference: Vec<FaultCase> = (0..count)
                        .map(|i| {
                            let family = FaultFamily::ALL[i % FaultFamily::ALL.len()];
                            per_case_reference(graph, &cfg, family, i as u32, base_seed)
                        })
                        .collect();
                    assert_eq!(generate_mix(graph, &cfg, count, base_seed), reference);
                }
            }
        }
        // Grid conduits, node-incidence conduits and none at all.
        assert!(!derive_srlgs(&positioned, 5).is_empty());
        assert!(!derive_srlgs(&positionless, 5).is_empty());
        assert!(derive_srlgs(&bare, 5).is_empty());
    }

    #[test]
    fn identical_seeds_generate_identical_cases() {
        let g = waxman(50, 7);
        let cfg = GeneratorConfig::default();
        let a = generate_mix(&g, &cfg, 40, 99);
        let b = generate_mix(&g, &cfg, 40, 99);
        assert_eq!(a, b);
        let c = generate_mix(&g, &cfg, 40, 100);
        assert_ne!(a, c, "different base seed changes the cases");
    }

    #[test]
    fn families_produce_their_shapes() {
        let g = waxman(50, 7);
        let cfg = GeneratorConfig::default();
        for (i, case) in generate_mix(&g, &cfg, 40, 3).iter().enumerate() {
            assert_eq!(case.id as usize, i);
            match case.family {
                FaultFamily::KLink => {
                    assert_eq!(case.scenario.failed_links().count(), cfg.k_link);
                    assert_eq!(case.scenario.failed_nodes().count(), 0);
                }
                FaultFamily::KNode => {
                    assert_eq!(case.scenario.failed_nodes().count(), cfg.k_node);
                    assert_eq!(case.scenario.failed_links().count(), 0);
                }
                FaultFamily::Srlg => {
                    assert!(case.scenario.failed_links().count() >= 2);
                }
                FaultFamily::Regional => {
                    // The epicenter itself always falls in the region.
                    assert!(case.scenario.failed_nodes().count() >= 1);
                }
                FaultFamily::UniformLoss => {
                    assert_eq!(case.scenario.failed_links().count(), 1);
                    assert_eq!(case.channel.loss, cfg.uniform_loss);
                    assert!(case.channel.overrides.is_empty());
                }
                FaultFamily::GrayLinks => {
                    assert_eq!(case.scenario.failed_links().count(), 1);
                    assert_eq!(case.channel.overrides.len(), cfg.gray_links);
                    let cut = case.scenario.failed_links().next().unwrap();
                    for &(link, loss) in &case.channel.overrides {
                        assert_ne!(link, cut, "gray links stay up");
                        assert_eq!(loss, cfg.gray_loss);
                    }
                }
                FaultFamily::Flapping => {
                    assert!(case.timing.is_flapping());
                    assert_eq!(case.timing.flap_cycles, cfg.flap_cycles);
                    assert_eq!(
                        case.scenario.failed_links().count() + case.scenario.failed_nodes().count(),
                        1,
                        "exactly one component flaps"
                    );
                }
            }
            if case.family != FaultFamily::UniformLoss && case.family != FaultFamily::GrayLinks {
                assert!(case.channel.is_perfect());
            }
            if case.family != FaultFamily::Flapping {
                assert!(!case.timing.is_flapping());
            }
        }
    }

    #[test]
    fn srlg_groups_share_conduit_cells() {
        let g = waxman(60, 11);
        let groups = derive_srlgs(&g, 5);
        assert!(!groups.is_empty(), "a 60-node Waxman graph has conduits");
        for group in &groups {
            assert!(group.len() >= 2);
            // All midpoints in one cell: pairwise midpoint distance is
            // bounded by the cell diagonal.
            let mids: Vec<_> = group
                .iter()
                .map(|&l| {
                    let link = g.link(l);
                    let a = g.position(link.a()).unwrap();
                    let b = g.position(link.b()).unwrap();
                    smrp_net::Point::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
                })
                .collect();
            let diag = (2.0f64).sqrt() / 5.0 + 1e-9;
            for i in 0..mids.len() {
                for j in i + 1..mids.len() {
                    assert!(mids[i].distance(mids[j]) <= diag);
                }
            }
        }
    }

    #[test]
    fn shared_fate_selects_srlgs_crossing_multiple_trees() {
        let mut g = Graph::with_nodes(5);
        let ids: Vec<_> = g.node_ids().collect();
        let l01 = g.add_link(ids[0], ids[1], 1.0).unwrap();
        let l12 = g.add_link(ids[1], ids[2], 1.0).unwrap();
        let l23 = g.add_link(ids[2], ids[3], 1.0).unwrap();
        let l34 = g.add_link(ids[3], ids[4], 1.0).unwrap();
        let srlgs = vec![vec![l01, l12], vec![l23, l34], vec![l12, l23]];
        // Tree 0 uses the left links, tree 1 the right ones; only the
        // middle conduit straddles both.
        let trees = vec![vec![l01, l12], vec![l23, l34]];
        assert_eq!(shared_fate_srlgs(&srlgs, &trees), vec![2]);
        // A single tree can never share fate with itself.
        assert!(shared_fate_srlgs(&srlgs, &trees[..1]).is_empty());
    }

    #[test]
    fn srlg_fallback_without_positions_groups_by_node() {
        let mut g = Graph::with_nodes(4);
        let ids: Vec<_> = g.node_ids().collect();
        g.add_link(ids[0], ids[1], 1.0).unwrap();
        g.add_link(ids[0], ids[2], 1.0).unwrap();
        g.add_link(ids[0], ids[3], 1.0).unwrap();
        let groups = derive_srlgs(&g, 5);
        assert_eq!(groups.len(), 1, "only the hub has degree >= 2");
        assert_eq!(groups[0].len(), 3);
    }

    #[test]
    fn regional_cases_fail_a_geometric_ball() {
        let g = waxman(80, 5);
        let cfg = GeneratorConfig {
            regional_radius: 0.2,
            ..GeneratorConfig::default()
        };
        let index = FaultIndex::new(&g, cfg.srlg_grid);
        let case = generate_case(&index, &cfg, FaultFamily::Regional, 3, 1);
        let failed: Vec<NodeId> = case.scenario.failed_nodes().collect();
        assert!(!failed.is_empty());
        // Every failed pair sits within one diameter of each other.
        for &a in &failed {
            for &b in &failed {
                let pa = g.position(a).unwrap();
                let pb = g.position(b).unwrap();
                assert!(pa.distance(pb) <= 2.0 * cfg.regional_radius + 1e-9);
            }
        }
    }

    #[test]
    fn transient_fraction_is_respected_roughly() {
        let g = waxman(50, 7);
        let cfg = GeneratorConfig {
            transient_fraction: 0.5,
            ..GeneratorConfig::default()
        };
        let cases = generate_mix(&g, &cfg, 200, 17);
        let transient = cases.iter().filter(|c| c.timing.transient).count();
        assert!((50..150).contains(&transient), "got {transient} of 200");
        let cfg = GeneratorConfig {
            transient_fraction: 0.0,
            ..cfg
        };
        assert!(generate_mix(&g, &cfg, 50, 17)
            .iter()
            .all(|c| !c.timing.transient));
    }

    #[test]
    fn cases_round_trip_through_json() {
        let g = waxman(40, 2);
        let cfg = GeneratorConfig::default();
        let index = FaultIndex::new(&g, cfg.srlg_grid);
        let case = generate_case(&index, &cfg, FaultFamily::Srlg, 9, 4);
        let text = serde_json::to_string(&case).unwrap();
        let back: FaultCase = serde_json::from_str(&text).unwrap();
        assert_eq!(case, back);
    }
}
