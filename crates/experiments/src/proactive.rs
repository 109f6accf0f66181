//! Reactive local detours vs preplanned backup paths (§2 related work).
//!
//! Han & Shin's dependable connections pre-establish a disjoint backup per
//! receiver: activation is instant, but the backup reserves resources the
//! whole time and protects only against failures it happens to dodge. This
//! experiment measures the trade-off on the Figure 8 base setup, under each
//! member's worst-case failure:
//!
//! * coverage — how many members even *have* a disjoint backup;
//! * survival — how often the preplanned backup dodges the actual failure
//!   (vs the reactive detour, which adapts after the fact);
//! * standing overhead — reserved off-tree capacity, vs zero for reactive;
//! * path quality — the backup's end-to-end delay vs the reactive detour's
//!   post-recovery delay.

use smrp_core::backup::{self, Activation};
use smrp_core::recovery::{self, DetourKind};
use smrp_metrics::Stats;
use smrp_net::FailureScenario;

use crate::csvout::Csv;
use crate::measure::{build_smrp_tree, smrp_config};
use crate::scenario::ScenarioConfig;
use crate::table::{percent, Table};
use crate::Effort;

/// Results of the proactive-vs-reactive comparison.
#[derive(Debug, Clone)]
pub(crate) struct ProactiveResult {
    /// Members examined (across scenarios).
    pub members: usize,
    /// Members with a plannable backup path.
    pub protectable: usize,
    /// Worst-case failures survived by the preplanned backup.
    pub backup_survived: usize,
    /// Worst-case failures recovered by the reactive local detour.
    pub reactive_recovered: usize,
    /// End-to-end delay after switching to the backup.
    pub backup_delay: Stats,
    /// End-to-end delay after the reactive local detour.
    pub reactive_delay: Stats,
    /// Standing reserved capacity (cost units) per scenario.
    pub standing_overhead: Stats,
    /// Tree cost per scenario, for scale.
    pub tree_cost: Stats,
}

/// Runs the comparison.
pub(crate) fn run(effort: Effort) -> ProactiveResult {
    let config = ScenarioConfig::default();
    let topologies = effort.scale(10).max(2) as u32;
    let member_sets = effort.scale(5).max(1) as u32;
    let scenarios = config
        .scenarios(topologies, member_sets)
        .expect("valid scenario parameters");

    let mut result = ProactiveResult {
        members: 0,
        protectable: 0,
        backup_survived: 0,
        reactive_recovered: 0,
        backup_delay: Stats::new(),
        reactive_delay: Stats::new(),
        standing_overhead: Stats::new(),
        tree_cost: Stats::new(),
    };

    for scenario in &scenarios {
        let tree = build_smrp_tree(scenario, smrp_config(0.3)).expect("tree builds");
        let graph = &scenario.graph;
        let plans = backup::plan_backups(graph, &tree);
        result
            .standing_overhead
            .push(backup::standing_overhead(graph, &tree, &plans));
        result.tree_cost.push(tree.cost(graph));

        for &member in &scenario.members {
            result.members += 1;
            let Some(link) = recovery::worst_case_failure_for(graph, &tree, member) else {
                continue;
            };
            let fail = FailureScenario::link(link);

            // Reactive local detour.
            if let Ok(rec) = recovery::recover(graph, &tree, &fail, member, DetourKind::Local) {
                result.reactive_recovered += 1;
                result.reactive_delay.push(rec.new_end_to_end_delay());
            }

            // Preplanned backup.
            let Some(plan) = plans.iter().find(|p| p.member == member) else {
                continue;
            };
            result.protectable += 1;
            match backup::activate(graph, plan, &fail) {
                Activation::Switched { backup_delay } => {
                    result.backup_survived += 1;
                    result.backup_delay.push(backup_delay);
                }
                Activation::NotNeeded => {
                    // The worst-case failure did not touch this member's
                    // primary (possible when another branch absorbed it);
                    // count as survived since service never stopped.
                    result.backup_survived += 1;
                }
                Activation::BackupDead => {}
            }
        }
    }
    result
}

impl ProactiveResult {
    /// Renders the comparison table.
    pub(crate) fn table(&self) -> Table {
        let mut t = Table::new(vec!["metric", "preplanned backup", "reactive local detour"]);
        t.row(vec![
            "members protectable / recovering".into(),
            format!("{}/{}", self.protectable, self.members),
            format!("{}/{}", self.reactive_recovered, self.members),
        ]);
        t.row(vec![
            "worst-case failures survived".into(),
            percent(self.backup_survived as f64 / self.protectable.max(1) as f64),
            percent(self.reactive_recovered as f64 / self.members.max(1) as f64),
        ]);
        t.row(vec![
            "post-recovery delay (mean)".into(),
            format!("{:.1}", self.backup_delay.mean()),
            format!("{:.1}", self.reactive_delay.mean()),
        ]);
        t.row(vec![
            "standing overhead vs tree cost".into(),
            format!(
                "{:.1} ({:.0}% of tree)",
                self.standing_overhead.mean(),
                100.0 * self.standing_overhead.mean() / self.tree_cost.mean().max(1e-9)
            ),
            "0".into(),
        ]);
        t
    }

    /// CSV artifact.
    pub(crate) fn to_csv(&self) -> Csv {
        let mut csv = Csv::new(vec![
            "members",
            "protectable",
            "backup_survived",
            "reactive_recovered",
            "backup_delay_mean",
            "reactive_delay_mean",
            "standing_overhead_mean",
            "tree_cost_mean",
        ]);
        csv.row_f64(&[
            self.members as f64,
            self.protectable as f64,
            self.backup_survived as f64,
            self.reactive_recovered as f64,
            self.backup_delay.mean(),
            self.reactive_delay.mean(),
            self.standing_overhead.mean(),
            self.tree_cost.mean(),
        ]);
        csv
    }

    /// Textual summary.
    pub(crate) fn summary(&self) -> String {
        format!(
            "preplanned backups protect {}/{} members at a standing cost of \
             {:.0}% of the tree; the reactive local detour recovers {}/{} with \
             zero standing cost — the trade-off §2 describes",
            self.backup_survived,
            self.members,
            100.0 * self.standing_overhead.mean() / self.tree_cost.mean().max(1e-9),
            self.reactive_recovered,
            self.members,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_schemes_recover_most_members() {
        let r = run(Effort::Quick);
        assert!(r.members > 20);
        let reactive_rate = r.reactive_recovered as f64 / r.members as f64;
        assert!(
            reactive_rate > 0.8,
            "reactive recovery rate only {reactive_rate:.2}"
        );
        // On connected Waxman graphs nearly every member has an
        // alternative path, so backups are plannable for most.
        let coverage = r.protectable as f64 / r.members as f64;
        assert!(coverage > 0.7, "backup coverage only {coverage:.2}");
        // Proactive protection pays a real standing cost.
        assert!(r.standing_overhead.mean() > 0.0);
    }

    #[test]
    fn artifacts_render() {
        let r = run(Effort::Quick);
        assert!(r.table().render().contains("standing overhead"));
        assert_eq!(r.to_csv().render().lines().count(), 2);
        assert!(r.summary().contains("trade-off"));
    }
}
