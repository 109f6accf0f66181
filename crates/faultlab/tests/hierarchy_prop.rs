//! Property tests for N-level hierarchical recovery.
//!
//! Two invariants the architecture promises on *random* domain trees
//! (levels ≤ 4, all seeded):
//!
//! * **DomainLocality on the wire** — an intra-domain link failure is
//!   repaired without a single control message crossing the owning
//!   domain's border, and without an election. The check runs the repair
//!   through the message-level simulator and audits the full trace; the
//!   restoration paths themselves must also stay inside the owning
//!   domain's node set (plus its session members), so a whitelisted
//!   detour can't hide a leak.
//! * **Population-weighted SHR bookkeeping** — after arbitrary
//!   `set_member_weight` perturbations, every domain tree's incremental
//!   `N_u` / `SHR(u)` values match the from-scratch
//!   [`recompute_stats`](smrp_core::MulticastTree) oracle (Eq. 2 vs
//!   Eq. 1).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use smrp_core::SmrpConfig;
use smrp_faultlab::HierarchyConfig;
use smrp_net::nlevel::NLevelTopology;
use smrp_net::{FailureScenario, GroupId, LinkId};
use smrp_proto::hierarchy::NLevelSession;
use smrp_proto::{FailureSpec, MultiSession, PlanSource, ProtoSession};
use smrp_sim::{SimTime, TraceEvent, TraceLog};

fn config(seed: u64, levels: u32) -> HierarchyConfig {
    // Deep trees multiply domains (hence groups and data traffic); keep
    // the per-level dimensions small enough that a full wire trace fits
    // its buffer even at levels = 4.
    let deep = levels >= 4;
    HierarchyConfig {
        levels,
        root_nodes: if deep { 2 } else { 3 },
        fanout: if deep { 1 } else { 2 },
        domain_nodes: if deep { 4 } else { 5 },
        population: 1_000,
        members_per_leaf: 1,
        scenarios: 4,
        base_seed: seed,
        run_until_ms: 1000.0,
        ..HierarchyConfig::default()
    }
}

fn build(cfg: &HierarchyConfig) -> (NLevelTopology, NLevelSession) {
    let topo = cfg.topology().expect("generator settings are valid");
    let (source, members) = cfg.pick_members(&topo);
    let nsess = NLevelSession::build(&topo, source, &members, SmrpConfig::default())
        .expect("session builds");
    (topo, nsess)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn intra_domain_failures_stay_confined_on_the_wire(
        seed in 0u64..200,
        levels in 2u32..5,
        pick in 0usize..64,
    ) {
        let cfg = config(seed, levels);
        let (topo, nsess) = build(&cfg);
        let graph = nsess.topology().graph();
        let domains = nsess.active_domain_ids();

        // Intra-domain tree links with a confined repair available.
        let mut candidates: Vec<(LinkId, _)> = Vec::new();
        for &d in &domains {
            for l in nsess.domain_tree_global(d).unwrap().links(graph) {
                let link = graph.link(l);
                if topo.domain_of(link.a()) != topo.domain_of(link.b()) {
                    continue;
                }
                if let Ok(rec) = nsess.recover(l) {
                    if rec.domains_involved == 1 && !rec.plans.is_empty() {
                        candidates.push((l, rec));
                    }
                }
            }
        }
        prop_assume!(!candidates.is_empty());
        let (link, rec) = candidates.swap_remove(pick % candidates.len());

        // An intra-domain failure never escalates, and its restoration
        // paths never leave the owning domain's world: every hop is a
        // node of the owner domain or one of the owner session's members
        // (child agents live in child domains by construction).
        prop_assert!(rec.elections.is_empty());
        let owner_nodes = nsess.domain_session_nodes(rec.owner).unwrap();
        for (_, plan) in &rec.plans {
            for &n in &plan.path {
                prop_assert!(
                    topo.domain_of(n) == rec.owner || owner_nodes.contains(&n),
                    "restoration path leaves domain {:?} at {n:?}",
                    rec.owner
                );
            }
        }

        // Put the repair on the wire and audit the whole trace.
        let sessions: Vec<_> = domains
            .iter()
            .map(|&d| ProtoSession::from_tree(graph, nsess.domain_tree_global(d).unwrap()))
            .collect();
        let multi = MultiSession::from_sessions(sessions);
        let owner_group = domains.iter().position(|&d| d == rec.owner).unwrap();
        let group = GroupId::new(owner_group);
        let plans: Vec<_> = rec.plans.iter().map(|(m, p)| (group, *m, p.clone())).collect();
        let scenario = FailureScenario::link(link);
        let spec = FailureSpec::persistent(
            &scenario,
            PlanSource::Explicit(&plans),
            SimTime::from_ms(100.0),
            SimTime::from_ms(cfg.run_until_ms),
        );
        let run = multi.run(&spec, TraceLog::new(2_000_000));
        let trace = &run.trace;
        prop_assert!(run.report.groups[owner_group].all_restored());
        prop_assert_eq!(trace.discarded(), 0, "trace overflowed; audit incomplete");
        for ev in trace.entries() {
            let TraceEvent::Sent { from, to, what, .. } = ev else { continue };
            let Some(g) = what.group.map(GroupId::index) else { continue };
            let allowed = nsess.domain_session_nodes(domains[g]).unwrap();
            let inside = |n: smrp_net::NodeId| {
                allowed.contains(&n)
                    || (g == owner_group && topo.domain_of(n) == rec.owner)
            };
            prop_assert!(
                inside(*from) && inside(*to),
                "control message crossed a border: {what} on {from:?}->{to:?}"
            );
        }
    }

    #[test]
    fn weighted_shr_matches_from_scratch_oracle(
        seed in 0u64..500,
        levels in 2u32..5,
        rounds in 1usize..12,
    ) {
        let cfg = config(seed, levels);
        let (_topo, nsess) = build(&cfg);
        let graph = nsess.topology().graph();
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        for d in nsess.active_domain_ids() {
            let mut tree = nsess.domain_tree_global(d).unwrap();
            // The exported tree's incremental stats already match Eq. 1.
            prop_assert!(tree.validate(graph).is_ok());
            let members: Vec<_> = tree.members().collect();
            prop_assume!(!members.is_empty());
            for _ in 0..rounds {
                let m = members[rng.gen_range(0..members.len())];
                let w = rng.gen_range(1..10_000u32);
                tree.set_member_weight(m, w).expect("members take weights");
                // Incremental Eq. 2 maintenance vs the from-scratch oracle.
                prop_assert!(
                    tree.validate(graph).is_ok(),
                    "weighted SHR diverged from oracle after setting {m:?} to {w}"
                );
                let mut oracle = tree.clone();
                oracle.recompute_stats();
                for &n in &members {
                    prop_assert_eq!(tree.shr(n), oracle.shr(n));
                    prop_assert_eq!(tree.subtree_members(n), oracle.subtree_members(n));
                }
            }
        }
    }
}
