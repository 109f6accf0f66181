//! Shared parameter-sweep machinery for Figures 8–10.
//!
//! Each figure varies one knob (`D_thresh`, `α`, `N_G`) while holding the
//! rest at the paper's base configuration, runs `topologies × member_sets`
//! scenarios per point (10 × 10 = 100 in the paper), and reports the three
//! relative metrics with 95% confidence intervals.

use serde::Serialize;
use smrp_core::SmrpConfig;
use smrp_metrics::Stats;

use crate::ci::ConfidenceInterval;
use crate::csvout::Csv;
use crate::measure::measure_scenario;
use crate::scenario::ScenarioConfig;
use crate::table::{percent, Table};

/// Aggregated metrics for one sweep point.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// The swept parameter's value at this point.
    pub x: f64,
    /// `RD^relative` (recovery-distance improvement) with CI.
    pub rd_rel: ConfidenceInterval,
    /// `D^relative` (delay penalty) with CI.
    pub delay_rel: ConfidenceInterval,
    /// `Cost^relative` (tree-cost penalty) with CI.
    pub cost_rel: ConfidenceInterval,
    /// Scenarios measured.
    pub scenarios: usize,
    /// Mean average node degree across the point's topologies.
    pub avg_degree: f64,
}

/// Runs the measurement kernel over `topologies × member_sets` scenarios
/// for one parameter point.
///
/// # Panics
///
/// Panics on scenario-generation or tree-construction failures, which
/// cannot occur with validated parameters on connected topologies.
pub(crate) fn run_point(
    x: f64,
    scenario_config: &ScenarioConfig,
    smrp_config: SmrpConfig,
    topologies: u32,
    member_sets: u32,
) -> SweepPoint {
    let scenarios = scenario_config
        .scenarios(topologies, member_sets)
        .expect("valid scenario parameters");
    let mut rd = Stats::new();
    let mut delay = Stats::new();
    let mut cost = Stats::new();
    let mut degree = Stats::new();
    for s in &scenarios {
        if s.provenance.1 == 0 {
            degree.push(s.graph.average_degree());
        }
        let out = measure_scenario(s, smrp_config).expect("scenario measures");
        if let Some(v) = out.mean_rd_relative() {
            rd.push(v);
        }
        if let Some(v) = out.mean_delay_relative() {
            delay.push(v);
        }
        cost.push(out.cost_relative());
    }
    SweepPoint {
        x,
        rd_rel: ConfidenceInterval::from_stats(&rd),
        delay_rel: ConfidenceInterval::from_stats(&delay),
        cost_rel: ConfidenceInterval::from_stats(&cost),
        scenarios: scenarios.len(),
        avg_degree: degree.mean(),
    }
}

/// Renders sweep points as a paper-style table.
pub(crate) fn table(x_name: &str, points: &[SweepPoint]) -> Table {
    let mut t = Table::new(vec![
        x_name,
        "avg_degree",
        "RD_rel (95% CI)",
        "D_rel (95% CI)",
        "Cost_rel (95% CI)",
        "scenarios",
    ]);
    for p in points {
        t.row(vec![
            format!("{}", p.x),
            format!("{:.2}", p.avg_degree),
            format!(
                "{} ± {}",
                percent(p.rd_rel.mean),
                percent(p.rd_rel.half_width)
            ),
            format!(
                "{} ± {}",
                percent(p.delay_rel.mean),
                percent(p.delay_rel.half_width)
            ),
            format!(
                "{} ± {}",
                percent(p.cost_rel.mean),
                percent(p.cost_rel.half_width)
            ),
            format!("{}", p.scenarios),
        ]);
    }
    t
}

/// CSV artifact with one row per sweep point.
pub(crate) fn to_csv(x_name: &str, points: &[SweepPoint]) -> Csv {
    let mut csv = Csv::new(vec![
        x_name,
        "avg_degree",
        "rd_rel_mean",
        "rd_rel_ci",
        "delay_rel_mean",
        "delay_rel_ci",
        "cost_rel_mean",
        "cost_rel_ci",
        "scenarios",
    ]);
    for p in points {
        csv.row_f64(&[
            p.x,
            p.avg_degree,
            p.rd_rel.mean,
            p.rd_rel.half_width,
            p.delay_rel.mean,
            p.delay_rel.half_width,
            p.cost_rel.mean,
            p.cost_rel.half_width,
            p.scenarios as f64,
        ]);
    }
    csv
}
