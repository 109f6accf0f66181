//! SMRP on real backbone topologies (the paper's future work: "evaluate
//! SMRP's applicability to real networks").
//!
//! Runs the §4.2 measurement kernel on the bundled Abilene and GÉANT-like
//! backbones with several member sets per topology, and adds a
//! protocol-level restoration-latency spot check on Abilene.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use smrp_core::recovery;
use smrp_metrics::Stats;
use smrp_net::{import, FailureScenario, Graph, NodeId};
use smrp_proto::{FailureSpec, ProtoSession, RecoveryStrategy, TreeProtocol};
use smrp_sim::SimTime;

use crate::csvout::Csv;
use crate::measure::{measure_scenario, smrp_config};
use crate::scenario::Scenario;
use crate::table::{percent, Table};
use crate::Effort;

/// Per-backbone aggregated results.
#[derive(Debug, Clone)]
pub(crate) struct BackboneRow {
    /// Backbone name.
    pub name: &'static str,
    /// Nodes in the backbone.
    pub nodes: usize,
    /// Mean `RD^relative` across member sets.
    pub rd_rel: Stats,
    /// Mean `D^relative`.
    pub delay_rel: Stats,
    /// Mean `Cost^relative`.
    pub cost_rel: Stats,
    /// Protocol-level local-detour restoration latency (ms), if measured.
    pub local_latency_ms: Option<f64>,
}

/// Results over all bundled backbones.
#[derive(Debug, Clone)]
pub(crate) struct RealnetResult {
    /// One row per backbone.
    pub rows: Vec<BackboneRow>,
}

fn member_sets(graph: &Graph, group: usize, sets: u32, seed: u64) -> Vec<(NodeId, Vec<NodeId>)> {
    (0..sets)
        .map(|i| {
            let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(i as u64 * 977));
            let mut ids: Vec<NodeId> = graph.node_ids().collect();
            ids.shuffle(&mut rng);
            let take = group.min(ids.len() - 1);
            (ids[0], ids[1..=take].to_vec())
        })
        .collect()
}

fn run_backbone(
    name: &'static str,
    graph: Graph,
    group: usize,
    sets: u32,
    with_latency: bool,
) -> BackboneRow {
    let mut row = BackboneRow {
        name,
        nodes: graph.node_count(),
        rd_rel: Stats::new(),
        delay_rel: Stats::new(),
        cost_rel: Stats::new(),
        local_latency_ms: None,
    };
    for (i, (source, members)) in member_sets(&graph, group, sets, 0xBEEF)
        .into_iter()
        .enumerate()
    {
        let scenario = Scenario {
            graph: graph.clone(),
            source,
            members: members.clone(),
            provenance: (0, i as u32),
        };
        let out = measure_scenario(&scenario, smrp_config(0.3)).expect("backbone measures");
        if let Some(v) = out.mean_rd_relative() {
            row.rd_rel.push(v);
        }
        if let Some(v) = out.mean_delay_relative() {
            row.delay_rel.push(v);
        }
        row.cost_rel.push(out.cost_relative());

        if with_latency && i == 0 {
            let session = ProtoSession::build(
                &graph,
                source,
                &members,
                TreeProtocol::Smrp(smrp_config(0.3)),
            )
            .expect("session builds");
            if let Some(link) = recovery::worst_case_failure_for(&graph, session.tree(), members[0])
            {
                let report = session.run(&FailureSpec::persistent(
                    &FailureScenario::link(link),
                    RecoveryStrategy::LocalDetour,
                    SimTime::from_ms(150.0),
                    SimTime::from_ms(3000.0),
                ));
                row.local_latency_ms = report.groups[0].mean_latency_ms();
            }
        }
    }
    row
}

/// Runs the real-topology evaluation.
pub(crate) fn run(effort: Effort) -> RealnetResult {
    // Fixed backbones leave member placement as the only randomness; keep
    // enough sets under `Effort::Quick` for the mean comparison to settle.
    let sets = effort.scale(10).max(6) as u32;
    RealnetResult {
        rows: vec![
            run_backbone("Abilene (Internet2)", import::abilene(), 5, sets, true),
            run_backbone("GEANT-like (Europe)", import::geant(), 8, sets, true),
        ],
    }
}

impl RealnetResult {
    /// Renders the comparison table.
    pub(crate) fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "backbone",
            "nodes",
            "RD_rel",
            "D_rel",
            "Cost_rel",
            "local restore (ms)",
        ]);
        for row in &self.rows {
            t.row(vec![
                row.name.to_string(),
                format!("{}", row.nodes),
                percent(row.rd_rel.mean()),
                percent(row.delay_rel.mean()),
                percent(row.cost_rel.mean()),
                row.local_latency_ms
                    .map_or("-".to_string(), |v| format!("{v:.1}")),
            ]);
        }
        t
    }

    /// CSV artifact.
    pub(crate) fn to_csv(&self) -> Csv {
        let mut csv = Csv::new(vec![
            "backbone",
            "nodes",
            "rd_rel",
            "delay_rel",
            "cost_rel",
            "local_latency_ms",
        ]);
        for row in &self.rows {
            csv.row(vec![
                row.name.to_string(),
                format!("{}", row.nodes),
                format!("{}", row.rd_rel.mean()),
                format!("{}", row.delay_rel.mean()),
                format!("{}", row.cost_rel.mean()),
                format!("{}", row.local_latency_ms.unwrap_or(f64::NAN)),
            ]);
        }
        csv
    }

    /// Textual summary: the advantage carries over only if SMRP shortens
    /// recovery paths (RD_rel above 0) on every backbone.
    pub(crate) fn summary(&self) -> String {
        let parts: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("{}: RD_rel {:.1}%", r.name, r.rd_rel.mean() * 100.0))
            .collect();
        let behind: Vec<&str> = self
            .rows
            .iter()
            .filter(|r| r.rd_rel.mean() <= 0.0)
            .map(|r| r.name)
            .collect();
        let claim = if behind.is_empty() {
            "SMRP's local-recovery advantage carries over to real backbone structure".to_string()
        } else {
            format!(
                "SMRP does not shorten recovery paths on the {} backbone{}, so its \
                 local-recovery advantage does not carry over to every real backbone",
                behind.join(" and "),
                if behind.len() == 1 { "" } else { "s" }
            )
        };
        format!("{} — {claim} (paper future work)", parts.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backbones_benefit_from_smrp() {
        let r = run(Effort::Quick);
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            // Small dense backbones offer fewer disjoint options than
            // 100-node Waxman graphs, so require non-regression rather
            // than a large win.
            assert!(
                row.rd_rel.mean() > -0.05,
                "{} regressed: {:.3}",
                row.name,
                row.rd_rel.mean()
            );
            assert!(row.delay_rel.mean() < 0.35);
        }
        // The protocol-level spot check restored service.
        assert!(r.rows[0].local_latency_ms.is_some());
    }

    fn rows(rd_rel: &[(&'static str, f64)]) -> RealnetResult {
        let stats = |x: f64| {
            let mut s = Stats::new();
            s.push(x);
            s
        };
        RealnetResult {
            rows: rd_rel
                .iter()
                .map(|&(name, rd)| BackboneRow {
                    name,
                    nodes: 10,
                    rd_rel: stats(rd),
                    delay_rel: stats(0.01),
                    cost_rel: stats(0.02),
                    local_latency_ms: None,
                })
                .collect(),
        }
    }

    #[test]
    fn summary_claims_the_advantage_only_when_every_backbone_gains() {
        let all = rows(&[("A", 0.104), ("B", 0.136)]).summary();
        assert_eq!(
            all,
            "A: RD_rel 10.4%; B: RD_rel 13.6% — SMRP's local-recovery advantage \
             carries over to real backbone structure (paper future work)"
        );
        let one = rows(&[("A", -0.016), ("B", 0.035)]).summary();
        assert!(one.contains("does not shorten recovery paths on the A backbone,"));
        assert!(!one.contains("carries over"));
        let none = rows(&[("A", 0.0), ("B", -0.2)]).summary();
        assert!(none.contains("on the A and B backbones,"));
    }

    #[test]
    fn artifacts_render() {
        let r = run(Effort::Quick);
        assert!(r.table().render().contains("Abilene"));
        assert_eq!(r.to_csv().render().lines().count(), 3);
        assert!(r.summary().contains("backbone"));
    }
}
