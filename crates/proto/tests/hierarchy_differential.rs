//! Differential regression gate for the N-level hierarchy rewrite.
//!
//! The original 2-level transit-stub recovery engine is vendored below,
//! verbatim in behavior, as `legacy`. The gate drives it and the new
//! N-level engine (`NLevelSession` on the same `TransitStubConfig`
//! topology, i.e. `levels = 2`) through every single-link failure on a
//! battery of seeded transit-stub topologies — including the `hierarchy.csv` experiment's exact
//! parameters — and demands *identical* outcomes case by case, plus an
//! FNV-1a digest over the full outcome stream that must match bit for
//! bit. Only because this gate is green was the legacy engine allowed to
//! be deleted from `src/hierarchy.rs`.

use smrp_core::SmrpConfig;
use smrp_net::nlevel::{DomainId, NLevelTopology};
use smrp_net::transit_stub::TransitStubConfig;
use smrp_net::NodeId;
use smrp_proto::hierarchy::{DomainRecovery, NLevelSession};

/// The 2-level engine exactly as it shipped before the N-level rewrite.
mod legacy {
    use smrp_core::recovery::{self, DetourKind};
    use smrp_core::{MulticastTree, SmrpConfig, SmrpError, SmrpSession};
    use smrp_net::nlevel::{DomainId, NLevelTopology};
    use smrp_net::{FailureScenario, Graph, LinkId, NodeId};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FailureScope {
        Stub(DomainId),
        Transit,
    }

    #[derive(Debug, Clone)]
    struct DomainSession {
        graph: Graph,
        to_global: Vec<NodeId>,
        to_local: Vec<Option<NodeId>>,
        tree: MulticastTree,
    }

    impl DomainSession {
        fn build(
            parent: &Graph,
            nodes: &[NodeId],
            source_global: NodeId,
            members_global: &[NodeId],
            config: SmrpConfig,
        ) -> Result<Self, SmrpError> {
            let (graph, to_global) = parent.induced_subgraph(nodes);
            let mut to_local = vec![None; parent.node_count()];
            for (local_idx, &global) in to_global.iter().enumerate() {
                to_local[global.index()] = Some(NodeId::new(local_idx));
            }
            let source =
                to_local[source_global.index()].ok_or(SmrpError::UnknownNode(source_global))?;
            let mut sess = SmrpSession::new(&graph, source, config)?;
            for &m in members_global {
                let local = to_local[m.index()].ok_or(SmrpError::UnknownNode(m))?;
                if local != source {
                    sess.join(local)?;
                }
            }
            let tree = sess.tree().clone();
            Ok(DomainSession {
                graph,
                to_global,
                to_local,
                tree,
            })
        }

        fn localize_scenario(&self, parent: &Graph, scenario: &FailureScenario) -> FailureScenario {
            let mut local = FailureScenario::none();
            for n in scenario.failed_nodes() {
                if let Some(l) = self.to_local[n.index()] {
                    local.fail_node(l);
                }
            }
            for lk in scenario.failed_links() {
                let link = parent.link(lk);
                let (Some(a), Some(b)) = (
                    self.to_local[link.a().index()],
                    self.to_local[link.b().index()],
                ) else {
                    continue;
                };
                if let Some(local_link) = self.graph.link_between(a, b) {
                    local.fail_link(local_link);
                }
            }
            local
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    pub struct HierarchicalRecovery {
        pub scope: FailureScope,
        pub affected_members: Vec<NodeId>,
        pub restoration_paths: Vec<Vec<NodeId>>,
        pub recovery_distance: f64,
        pub domains_involved: usize,
    }

    #[derive(Debug, Clone)]
    pub struct HierarchicalSession<'t> {
        topo: &'t NLevelTopology,
        stubs: Vec<Option<DomainSession>>,
        transit: DomainSession,
        members: Vec<NodeId>,
    }

    impl<'t> HierarchicalSession<'t> {
        pub fn build(
            topo: &'t NLevelTopology,
            source: NodeId,
            members: &[NodeId],
            config: SmrpConfig,
        ) -> Result<Self, SmrpError> {
            let graph = topo.graph();
            let source_domain = topo.domain_of(source);
            if source_domain == topo.root().id() {
                return Err(SmrpError::InvalidConfig {
                    name: "source",
                    reason: "the source must live in a stub domain",
                });
            }

            let mut stubs: Vec<Option<DomainSession>> = vec![None; topo.domains().len()];
            let mut active_agents: Vec<(DomainId, NodeId)> = Vec::new();

            for stub in topo.leaf_domains() {
                let mut domain_members: Vec<NodeId> = members
                    .iter()
                    .copied()
                    .filter(|m| topo.domain_of(*m) == stub.id())
                    .collect();
                let hosts_source = stub.id() == source_domain;
                if domain_members.is_empty() && !hosts_source {
                    continue;
                }
                let (border, _) = stub.attachment().expect("stub domains have attachments");
                if hosts_source {
                    if !domain_members.contains(&border) && border != source {
                        domain_members.push(border);
                    }
                    let sess =
                        DomainSession::build(graph, stub.nodes(), source, &domain_members, config)?;
                    stubs[stub.id().index()] = Some(sess);
                } else {
                    let sess =
                        DomainSession::build(graph, stub.nodes(), border, &domain_members, config)?;
                    stubs[stub.id().index()] = Some(sess);
                }
                active_agents.push((stub.id(), border));
            }

            let (source_agent, _) = topo.domains()[source_domain.index()]
                .attachment()
                .expect("source domain is a stub");
            let mut transit_nodes: Vec<NodeId> = topo.root().nodes().to_vec();
            for &(_, agent) in &active_agents {
                transit_nodes.push(agent);
            }
            let transit_members: Vec<NodeId> = active_agents
                .iter()
                .map(|&(_, a)| a)
                .filter(|&a| a != source_agent)
                .collect();
            let transit = DomainSession::build(
                graph,
                &transit_nodes,
                source_agent,
                &transit_members,
                config,
            )?;

            Ok(HierarchicalSession {
                topo,
                stubs,
                transit,
                members: members.to_vec(),
            })
        }

        pub fn domain_of_link(&self, link: LinkId) -> FailureScope {
            let l = self.topo.graph().link(link);
            let da = self.topo.domain_of(l.a());
            let db = self.topo.domain_of(l.b());
            let transit_id = self.topo.root().id();
            if da == db && da != transit_id {
                FailureScope::Stub(da)
            } else {
                FailureScope::Transit
            }
        }

        fn members_in_stub(&self, domain: DomainId) -> Vec<NodeId> {
            self.members
                .iter()
                .copied()
                .filter(|m| self.topo.domain_of(*m) == domain)
                .collect()
        }

        pub fn recover(&self, link: LinkId) -> Result<HierarchicalRecovery, String> {
            let scope = self.domain_of_link(link);
            let graph = self.topo.graph();
            let scenario = FailureScenario::link(link);

            let (session, affected_members) = match scope {
                FailureScope::Stub(d) => {
                    let Some(sess) = self.stubs[d.index()].as_ref() else {
                        return Ok(HierarchicalRecovery {
                            scope,
                            affected_members: Vec::new(),
                            restoration_paths: Vec::new(),
                            recovery_distance: 0.0,
                            domains_involved: 0,
                        });
                    };
                    (sess, self.members_in_stub(d))
                }
                FailureScope::Transit => (&self.transit, Vec::new()),
            };

            let local_scenario = session.localize_scenario(graph, &scenario);
            if local_scenario.is_empty() {
                return Ok(HierarchicalRecovery {
                    scope,
                    affected_members: Vec::new(),
                    restoration_paths: Vec::new(),
                    recovery_distance: 0.0,
                    domains_involved: 0,
                });
            }

            let mut paths = Vec::new();
            let mut total_rd = 0.0;
            let mut any_affected = false;
            for n in session.tree.on_tree_nodes() {
                let Some(p) = session.tree.parent(n) else {
                    continue;
                };
                let Some(l) = session.graph.link_between(n, p) else {
                    continue;
                };
                if local_scenario.link_usable(&session.graph, l) {
                    continue;
                }
                any_affected = true;
                let rec = recovery::recover(
                    &session.graph,
                    &session.tree,
                    &local_scenario,
                    n,
                    DetourKind::Local,
                )
                .map_err(|e| format!("fragment at {n} cannot recover inside its domain: {e}"))?;
                total_rd += rec.recovery_distance();
                paths.push(
                    rec.restoration_path()
                        .nodes()
                        .iter()
                        .map(|ln| session.to_global[ln.index()])
                        .collect::<Vec<NodeId>>(),
                );
            }

            let affected = if any_affected {
                match scope {
                    FailureScope::Stub(_) => affected_members,
                    FailureScope::Transit => {
                        let mut out = Vec::new();
                        let local = &self.transit;
                        let affected_local =
                            recovery::affected_members(&local.graph, &local.tree, &local_scenario);
                        for a in affected_local {
                            let agent_global = local.to_global[a.index()];
                            let d = self.topo.domain_of(agent_global);
                            out.extend(self.members_in_stub(d));
                        }
                        out
                    }
                }
            } else {
                Vec::new()
            };

            Ok(HierarchicalRecovery {
                scope,
                affected_members: affected,
                restoration_paths: paths,
                recovery_distance: total_rd,
                domains_involved: usize::from(any_affected),
            })
        }
    }
}

/// FNV-1a over a byte stream; the differential digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Canonical digest fields of one recovery outcome (engine-agnostic).
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    is_transit: bool,
    stub: Option<usize>,
    affected: Vec<NodeId>,
    paths: Vec<Vec<NodeId>>,
    rd_bits: u64,
    domains: usize,
    failed: bool,
}

impl Outcome {
    fn digest_into(&self, h: &mut Fnv) {
        h.u64(u64::from(self.failed));
        if self.failed {
            return;
        }
        h.u64(u64::from(self.is_transit));
        h.u64(self.stub.map_or(u64::MAX, |s| s as u64));
        h.u64(self.affected.len() as u64);
        for m in &self.affected {
            h.u64(m.index() as u64);
        }
        h.u64(self.paths.len() as u64);
        for p in &self.paths {
            h.u64(p.len() as u64);
            for n in p {
                h.u64(n.index() as u64);
            }
        }
        h.u64(self.rd_bits);
        h.u64(self.domains as u64);
    }
}

fn legacy_outcome(r: Result<legacy::HierarchicalRecovery, String>) -> Outcome {
    match r {
        Ok(rec) => Outcome {
            is_transit: matches!(rec.scope, legacy::FailureScope::Transit),
            stub: match rec.scope {
                legacy::FailureScope::Stub(d) => Some(d.index()),
                legacy::FailureScope::Transit => None,
            },
            affected: rec.affected_members,
            paths: rec.restoration_paths,
            rd_bits: rec.recovery_distance.to_bits(),
            domains: rec.domains_involved,
            failed: false,
        },
        Err(_) => Outcome {
            is_transit: false,
            stub: None,
            affected: Vec::new(),
            paths: Vec::new(),
            rd_bits: 0,
            domains: 0,
            failed: true,
        },
    }
}

/// The N-level engine's outcome in the 2-level vocabulary: the root of a
/// transit-stub hierarchy is the transit domain, every other owner a stub.
fn new_outcome(r: Result<DomainRecovery, String>, transit: DomainId) -> Outcome {
    match r {
        Ok(rec) => Outcome {
            is_transit: rec.owner == transit,
            stub: (rec.owner != transit).then(|| rec.owner.index()),
            affected: rec.affected_members,
            paths: rec.restoration_paths,
            rd_bits: rec.recovery_distance.to_bits(),
            domains: rec.domains_involved,
            failed: false,
        },
        Err(_) => Outcome {
            is_transit: false,
            stub: None,
            affected: Vec::new(),
            paths: Vec::new(),
            rd_bits: 0,
            domains: 0,
            failed: true,
        },
    }
}

/// One differential case: a topology plus source/member picks.
struct Case {
    name: &'static str,
    topo: NLevelTopology,
    source: NodeId,
    members: Vec<NodeId>,
}

impl Case {
    fn legacy(&self) -> legacy::HierarchicalSession<'_> {
        legacy::HierarchicalSession::build(
            &self.topo,
            self.source,
            &self.members,
            SmrpConfig::default(),
        )
        .expect("legacy builds")
    }

    /// The N-level engine at `levels = 2`. The 2-level engine silently
    /// ignored members living in the transit domain; the comparison keeps
    /// that contract by not handing them over.
    fn nlevel(&self) -> NLevelSession {
        let transit = self.topo.root().id();
        let stub_members: Vec<NodeId> = self
            .members
            .iter()
            .copied()
            .filter(|&m| self.topo.domain_of(m) != transit)
            .collect();
        NLevelSession::build(
            &self.topo,
            self.source,
            &stub_members,
            SmrpConfig::default(),
        )
        .expect("N-level builds")
    }
}

/// The `hierarchy.csv` experiment's exact member-selection scheme.
fn experiment_pick(topo: &NLevelTopology) -> (NodeId, Vec<NodeId>) {
    let stubs: Vec<_> = topo.leaf_domains().collect();
    let source = stubs[0].nodes()[0];
    let members: Vec<_> = stubs
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .flat_map(|(_, s)| s.nodes().iter().copied().skip(2).take(2))
        .filter(|&m| m != source)
        .collect();
    (source, members)
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    // The hierarchy.csv experiment's five seeded topologies, with its
    // exact generation parameters and member picks.
    for seed in 0..5u64 {
        let topo = TransitStubConfig::new()
            .transit_nodes(4)
            .stubs_per_transit_node(2)
            .stub_nodes(8)
            .extra_edge_prob(0.45)
            .seed(seed * 71 + 13)
            .generate()
            .unwrap();
        let (source, members) = experiment_pick(&topo);
        out.push(Case {
            name: "hierarchy_csv",
            topo,
            source,
            members,
        });
    }
    // Denser and sparser shapes to stress attribution and confinement.
    for (name, tn, spt, sn, p, seed) in [
        ("dense", 3usize, 3usize, 6usize, 0.6f64, 101u64),
        ("sparse", 5, 1, 4, 0.1, 202),
        ("wide", 6, 2, 10, 0.4, 303),
    ] {
        let topo = TransitStubConfig::new()
            .transit_nodes(tn)
            .stubs_per_transit_node(spt)
            .stub_nodes(sn)
            .extra_edge_prob(p)
            .seed(seed)
            .generate()
            .unwrap();
        let (source, members) = experiment_pick(&topo);
        out.push(Case {
            name,
            topo,
            source,
            members,
        });
    }
    out
}

/// Every single-link failure must produce an identical outcome under the
/// legacy 2-level engine and the N-level engine at levels = 2.
#[test]
fn nlevel_at_two_levels_matches_legacy_case_for_case() {
    for case in cases() {
        let (old, new) = (case.legacy(), case.nlevel());
        let transit = case.topo.root().id();
        for link in case.topo.graph().link_ids() {
            let a = legacy_outcome(old.recover(link));
            let b = new_outcome(new.recover(link), transit);
            assert_eq!(
                a, b,
                "case {} link {link}: legacy and N-level outcomes diverge",
                case.name
            );
        }
    }
}

/// The full outcome stream digests identically — the bit-for-bit gate the
/// legacy removal was conditioned on.
#[test]
fn differential_digest_is_identical() {
    let mut old_h = Fnv::new();
    let mut new_h = Fnv::new();
    for case in cases() {
        let (old, new) = (case.legacy(), case.nlevel());
        let transit = case.topo.root().id();
        for link in case.topo.graph().link_ids() {
            legacy_outcome(old.recover(link)).digest_into(&mut old_h);
            new_outcome(new.recover(link), transit).digest_into(&mut new_h);
        }
    }
    assert_eq!(
        format!("{:016x}", old_h.0),
        format!("{:016x}", new_h.0),
        "differential digest diverged"
    );
}

/// Link attribution (the routing-visible domain metadata) agrees on every
/// link of every case.
#[test]
fn attribution_matches_legacy_on_every_link() {
    for case in cases() {
        let (old, new) = (case.legacy(), case.nlevel());
        let transit = case.topo.root().id();
        for link in case.topo.graph().link_ids() {
            let owner = new.owning_domain(link);
            let same = match old.domain_of_link(link) {
                legacy::FailureScope::Transit => owner == transit,
                legacy::FailureScope::Stub(d) => owner == d,
            };
            assert!(same, "case {}: attribution diverged on {link}", case.name);
        }
    }
}
