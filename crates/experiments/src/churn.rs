//! Membership churn and the value of tree reshaping over time (§3.2.3).
//!
//! The paper motivates reshaping with exactly this scenario: "after a
//! series of join and departure events, the multicast tree may become
//! skewed and undesirable to certain receivers for fast failure recovery".
//! This experiment drives a long, seeded join/leave churn over one
//! topology and tracks tree quality over time under three policies:
//!
//! * no reshaping at all;
//! * Condition I only (join-triggered);
//! * Condition I + periodic Condition II sweeps.
//!
//! Quality is measured as the members' mean worst-case local-detour
//! recovery distance (lower = better prepared for failures), alongside the
//! end-to-end delay penalty that reshaping pays.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smrp_core::recovery::DetourKind;
use smrp_core::{SmrpConfig, SmrpSession};
use smrp_metrics::Stats;
use smrp_net::NodeId;

use crate::csvout::Csv;
use crate::measure::worst_case_rd;
use crate::scenario::ScenarioConfig;
use crate::table::Table;
use crate::Effort;

/// One reshaping policy under churn.
#[derive(Debug, Clone)]
pub(crate) struct PolicyRow {
    /// Policy name.
    pub name: &'static str,
    /// Mean worst-case recovery distance across sampled instants.
    pub rd: Stats,
    /// Mean member delay across sampled instants.
    pub delay: Stats,
    /// Total path switches performed by reshaping.
    pub switches: usize,
    /// Reshape attempts those switches cost.
    pub attempts: u64,
    /// Attempts settled `Kept` without a candidate search (the current
    /// merger's `SHR` was 0, so nothing could beat it).
    pub settled_without_search: u64,
}

/// Results of the churn experiment.
#[derive(Debug, Clone)]
pub(crate) struct ChurnResult {
    /// One row per policy.
    pub rows: Vec<PolicyRow>,
    /// Join/leave events driven per policy.
    pub events: usize,
}

#[derive(Debug, Clone, Copy)]
enum Policy {
    NoReshaping,
    ConditionI,
    Full,
}

fn run_policy(policy: Policy, effort: Effort) -> PolicyRow {
    let scenario_config = ScenarioConfig {
        nodes: 80,
        group_size: 0, // membership is driven by the churn itself.
        ..ScenarioConfig::default()
    };
    let graph = scenario_config.topology(0).expect("topology generates");
    let ids: Vec<NodeId> = graph.node_ids().collect();
    let source = ids[0];
    let pool: Vec<NodeId> = ids[1..].to_vec();

    let config = match policy {
        Policy::NoReshaping => SmrpConfig {
            auto_reshape: false,
            ..SmrpConfig::default()
        },
        Policy::ConditionI | Policy::Full => SmrpConfig::default(),
    };
    let mut sess = SmrpSession::new(&graph, source, config).expect("session builds");
    let mut rng = SmallRng::seed_from_u64(0xC4A2);
    let events = effort.scale(400).max(60);

    let mut row = PolicyRow {
        name: match policy {
            Policy::NoReshaping => "no reshaping",
            Policy::ConditionI => "Condition I only",
            Policy::Full => "Condition I + periodic sweep",
        },
        rd: Stats::new(),
        delay: Stats::new(),
        switches: 0,
        attempts: 0,
        settled_without_search: 0,
    };

    for step in 0..events {
        // Join-biased churn warms the group up to ~25 members, then mixes.
        let member_count = sess.tree().member_count();
        let join = member_count < 8 || (member_count < 30 && rng.gen_bool(0.55));
        if join {
            let candidate = pool[rng.gen_range(0..pool.len())];
            if !sess.tree().is_member(candidate) {
                drop(sess.join(candidate));
            }
        } else {
            let members: Vec<NodeId> = sess.members().collect();
            let leaver = members[rng.gen_range(0..members.len())];
            sess.leave(leaver).expect("member leaves");
        }
        if matches!(policy, Policy::Full) && step % 20 == 19 {
            sess.reshape_sweep();
        }
        // Sample tree quality periodically.
        if step % 10 == 9 {
            let mut rd = Stats::new();
            let mut delay = Stats::new();
            for m in sess.members().collect::<Vec<_>>() {
                if let Some(v) = worst_case_rd(&graph, sess.tree(), m, DetourKind::Local) {
                    rd.push(v);
                }
                if let Some(d) = sess.tree().delay_to(&graph, m) {
                    delay.push(d);
                }
            }
            if rd.count() > 0 {
                row.rd.push(rd.mean());
            }
            if delay.count() > 0 {
                row.delay.push(delay.mean());
            }
        }
        debug_assert!(sess.tree().validate(&graph).is_ok());
    }
    let stats = sess.reshape_stats();
    row.switches = stats.switched as usize;
    row.attempts = stats.attempts;
    row.settled_without_search = stats.settled_without_search;
    row
}

/// Runs the churn experiment for all three policies.
pub(crate) fn run(effort: Effort) -> ChurnResult {
    let rows = vec![
        run_policy(Policy::NoReshaping, effort),
        run_policy(Policy::ConditionI, effort),
        run_policy(Policy::Full, effort),
    ];
    ChurnResult {
        rows,
        events: effort.scale(400).max(60),
    }
}

impl ChurnResult {
    /// Renders the comparison table.
    pub(crate) fn table(&self) -> Table {
        let mut t = Table::new(vec![
            "policy",
            "mean worst-case RD",
            "mean member delay",
            "path switches",
            "reshape attempts",
            "settled without search",
            "switched / attempts",
        ]);
        for row in &self.rows {
            t.row(vec![
                row.name.to_string(),
                format!("{:.2}", row.rd.mean()),
                format!("{:.2}", row.delay.mean()),
                format!("{}", row.switches),
                format!("{}", row.attempts),
                format!("{}", row.settled_without_search),
                if row.attempts == 0 {
                    "-".to_string()
                } else {
                    format!("{:.4}", row.switches as f64 / row.attempts as f64)
                },
            ]);
        }
        t
    }

    /// CSV artifact.
    pub(crate) fn to_csv(&self) -> Csv {
        let mut csv = Csv::new(vec![
            "policy",
            "rd_mean",
            "delay_mean",
            "switches",
            "attempts",
            "settled_without_search",
        ]);
        for row in &self.rows {
            csv.row(vec![
                row.name.to_string(),
                format!("{}", row.rd.mean()),
                format!("{}", row.delay.mean()),
                format!("{}", row.switches),
                format!("{}", row.attempts),
                format!("{}", row.settled_without_search),
            ]);
        }
        csv
    }

    /// Textual summary. It claims §3.2.3's skew repair only when no
    /// reshaping policy leaves the mean worst-case recovery distance above
    /// the no-reshaping row, and names every policy that does.
    pub(crate) fn summary(&self) -> String {
        let none = &self.rows[0];
        let full = &self.rows[2];
        let worse: Vec<String> = self.rows[1..]
            .iter()
            .filter(|r| r.rd.mean() > none.rd.mean())
            .map(|r| format!("{} ({:.2})", r.name, r.rd.mean()))
            .collect();
        let claim = match worse.len() {
            0 => " — §3.2.3's skew-repair in action".to_string(),
            n => format!(
                ", but {} {} worse than no reshaping ({:.2}) — §3.2.3's skew-repair \
                 does not hold for every policy",
                worse.join(" and "),
                if n == 1 { "is" } else { "are" },
                none.rd.mean(),
            ),
        };
        format!(
            "over {} churn events, reshaping keeps the mean worst-case recovery \
             distance at {:.1} vs {:.1} without it ({} path switches out of {} \
             reshape attempts){claim}",
            self.events,
            full.rd.mean(),
            none.rd.mean(),
            full.switches,
            full.attempts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshaping_does_not_hurt_recovery_under_churn() {
        let r = run(Effort::Quick);
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            assert!(row.rd.count() > 0, "{} sampled nothing", row.name);
            assert!(row.rd.mean() > 0.0);
        }
        // The full policy must not be materially worse than no reshaping,
        // and it must actually be doing work.
        let none = &r.rows[0];
        let full = &r.rows[2];
        assert!(
            full.rd.mean() <= none.rd.mean() * 1.15,
            "reshaping degraded recovery: {:.2} vs {:.2}",
            full.rd.mean(),
            none.rd.mean()
        );
        assert!(full.switches > 0, "the sweeps never switched a path");
        assert!(full.attempts >= full.switches as u64 + full.settled_without_search);
        assert_eq!(none.attempts, 0, "reshaping was off");
    }

    /// Three policy rows with the given mean worst-case RDs.
    fn result(rd: [f64; 3]) -> ChurnResult {
        let names = [
            "no reshaping",
            "Condition I only",
            "Condition I + periodic sweep",
        ];
        let rows = names
            .into_iter()
            .zip(rd)
            .map(|(name, rd)| PolicyRow {
                name,
                rd: [rd].into_iter().collect(),
                delay: [70.0].into_iter().collect(),
                switches: 49,
                attempts: 776,
                settled_without_search: 227,
            })
            .collect();
        ChurnResult { rows, events: 400 }
    }

    #[test]
    fn summary_claims_the_repair_only_when_no_policy_is_worse() {
        assert_eq!(
            result([40.21, 39.9, 39.58]).summary(),
            "over 400 churn events, reshaping keeps the mean worst-case recovery \
             distance at 39.6 vs 40.2 without it (49 path switches out of 776 reshape \
             attempts) — §3.2.3's skew-repair in action"
        );
        assert_eq!(
            result([40.21, 40.64, 39.58]).summary(),
            "over 400 churn events, reshaping keeps the mean worst-case recovery \
             distance at 39.6 vs 40.2 without it (49 path switches out of 776 reshape \
             attempts), but Condition I only (40.64) is worse than no reshaping \
             (40.21) — §3.2.3's skew-repair does not hold for every policy"
        );
        let both = result([40.21, 40.64, 40.3]).summary();
        assert!(both.contains(
            "Condition I only (40.64) and Condition I + periodic sweep (40.30) are worse"
        ));
        assert!(!both.contains("in action"));
    }

    #[test]
    fn artifacts_render() {
        let r = run(Effort::Quick);
        assert!(r.table().render().contains("policy"));
        assert_eq!(r.to_csv().render().lines().count(), 4);
        assert!(r.summary().contains("churn"));
    }
}
