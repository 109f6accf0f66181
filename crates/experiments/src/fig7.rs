//! Figure 7: recovery distance, local detour vs global detour (§4.3.1).
//!
//! Setup (from the paper): `N = 100`, `N_G = 30`, `α = 0.2`,
//! `D_thresh = 0.3`; five random topologies, one random member set each.
//! For every member the worst-case failure — the source-incident link of
//! its multicast path — is applied, and the recovery distance is computed
//! via the global detour (x-axis) and the local detour (y-axis). The
//! paper observes most points below `y = x` and an average reduction of
//! about 33%.

use serde::Serialize;
use smrp_core::recovery::{self, DetourKind};
use smrp_metrics::Stats;
use smrp_net::FailureScenario;

use crate::csvout::Csv;
use crate::measure::{build_smrp_tree, smrp_config};
use crate::scatter::ScatterPlot;
use crate::scenario::ScenarioConfig;
use crate::Effort;

/// One scatter point: a member's recovery distances under both detours.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DetourPoint {
    /// Recovery distance via global detour (post-reconvergence SPF
    /// re-join).
    pub global: f64,
    /// Recovery distance via local detour (nearest connected on-tree
    /// node).
    pub local: f64,
}

/// Results of the Figure 7 experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Result {
    /// All member points across topologies.
    pub points: Vec<DetourPoint>,
    /// Fraction of points with `local < global`.
    pub below_diagonal: f64,
    /// Mean relative reduction `(global − local) / global`.
    pub mean_reduction: f64,
}

/// Runs the Figure 7 experiment.
///
/// # Panics
///
/// Panics only on internal errors (topology generation with validated
/// parameters).
pub fn run(effort: Effort) -> Fig7Result {
    let config = ScenarioConfig::default(); // N=100, N_G=30, alpha=0.2.
    let topologies = effort.scale(5).max(2) as u32;
    let scenarios = config
        .scenarios(topologies, 1)
        .expect("valid scenario parameters");

    let mut points = Vec::new();
    let mut reduction = Stats::new();
    for scenario in &scenarios {
        let tree = build_smrp_tree(scenario, smrp_config(0.3)).expect("tree builds");
        for &member in &scenario.members {
            let Some(link) = recovery::worst_case_failure_for(&scenario.graph, &tree, member)
            else {
                continue;
            };
            let fail = FailureScenario::link(link);
            let local = recovery::recover(&scenario.graph, &tree, &fail, member, DetourKind::Local);
            let global =
                recovery::recover(&scenario.graph, &tree, &fail, member, DetourKind::Global);
            let (Ok(local), Ok(global)) = (local, global) else {
                continue; // unaffected or unrecoverable members carry no point.
            };
            let p = DetourPoint {
                global: global.recovery_distance(),
                local: local.recovery_distance(),
            };
            if p.global > 0.0 {
                reduction.push((p.global - p.local) / p.global);
            }
            points.push(p);
        }
    }

    let below = points.iter().filter(|p| p.local < p.global).count();
    let below_diagonal = if points.is_empty() {
        0.0
    } else {
        below as f64 / points.len() as f64
    };
    Fig7Result {
        points,
        below_diagonal,
        mean_reduction: reduction.mean(),
    }
}

impl Fig7Result {
    /// Renders the paper-style scatter plot.
    pub(crate) fn plot(&self) -> String {
        let mut plot = ScatterPlot::new(
            "Figure 7: recovery distance, local vs global detour (worst-case failures)",
        )
        .labels("RD via global detour", "RD via local detour")
        .with_diagonal()
        .size(64, 26);
        plot.extend(self.points.iter().map(|p| (p.global, p.local)));
        plot.render()
    }

    /// CSV artifact with one row per member point.
    pub fn to_csv(&self) -> Csv {
        let mut csv = Csv::new(vec!["global_rd", "local_rd"]);
        for p in &self.points {
            csv.row_f64(&[p.global, p.local]);
        }
        csv
    }

    /// One-paragraph textual summary comparing against the paper's claims.
    pub(crate) fn summary(&self) -> String {
        format!(
            "{} member recovery points; {:.0}% below y = x (paper: \"most\"); \
             mean local-detour reduction {:.1}% (paper: ~33%)",
            self.points.len(),
            self.below_diagonal * 100.0,
            self.mean_reduction * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_the_shape() {
        let result = run(Effort::Quick);
        assert!(
            result.points.len() >= 30,
            "too few points: {}",
            result.points.len()
        );
        // The paper's headline shape: local detours are shorter for the
        // majority of members, with a substantial mean reduction.
        assert!(
            result.below_diagonal > 0.5,
            "only {:.0}% below the diagonal",
            result.below_diagonal * 100.0
        );
        assert!(
            result.mean_reduction > 0.1,
            "mean reduction only {:.1}%",
            result.mean_reduction * 100.0
        );
        // Local detour can never exceed the global one by definition of
        // "nearest connected on-tree node" vs "prefix of the new SPF path".
        for p in &result.points {
            assert!(p.local <= p.global + 1e-9);
        }
    }

    #[test]
    fn artifacts_render() {
        let result = run(Effort::Quick);
        assert!(result.plot().contains('*'));
        assert!(result.to_csv().render().starts_with("global_rd,local_rd\n"));
        assert!(result.summary().contains("paper"));
    }
}
