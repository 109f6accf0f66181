//! Restoration-latency experiment (the §1 motivation, protocol level).
//!
//! The paper's opening argument: PIM-based recovery is dominated by the
//! underlying unicast (OSPF) reconvergence — measured in the tens of
//! seconds by Wang et al. (ICNP 2000) — while a local detour only pays
//! heartbeat detection plus graft signalling. This experiment runs both
//! strategies through the message-level protocol on the same trees and
//! failures and reports wall-clock (simulated) restoration latencies.

use smrp_core::recovery;
use smrp_faultlab::Quantiles;
use smrp_metrics::Stats;
use smrp_net::FailureScenario;
use smrp_proto::{FailureSpec, ProtoSession, RecoveryStrategy, TreeProtocol};
use smrp_sim::SimTime;

use crate::csvout::Csv;
use crate::histogram::Histogram;
use crate::measure::smrp_config;
use crate::scenario::ScenarioConfig;
use crate::table::Table;
use crate::Effort;

/// Modelled OSPF reconvergence delay (milliseconds). Wang et al. report
/// PIM-over-OSPF recovery in the tens of seconds; 30 s is the
/// conservative middle of their range.
pub(crate) const RECONVERGENCE_MS: f64 = 30_000.0;

/// Results of the restoration-latency experiment.
#[derive(Debug, Clone)]
pub(crate) struct LatencyResult {
    /// Every restored member's local-detour latency (ms), in run order.
    pub local_latencies_ms: Vec<f64>,
    /// Per-failure mean latency (ms) via local detour.
    pub local_ms: Stats,
    /// Per-failure mean latency (ms) via global detour.
    pub global_ms: Stats,
    /// Number of failure cases run.
    pub cases: usize,
}

/// Runs the experiment: for several scenarios, apply the worst-case
/// failure of a sampled member and measure both strategies.
pub(crate) fn run(effort: Effort) -> LatencyResult {
    let scenario_config = ScenarioConfig {
        nodes: 60,
        group_size: 12,
        ..ScenarioConfig::default()
    };
    // Some scenarios draw a physically unrecoverable worst case (degree-1
    // source) and are skipped, so oversample relative to the target count.
    let cases = effort.scale(20).max(6) as u32;
    let scenarios = scenario_config
        .scenarios(cases, 1)
        .expect("valid scenario parameters");

    let mut local_ms = Stats::new();
    let mut global_ms = Stats::new();
    let mut local_latencies_ms = Vec::new();
    let mut ran = 0;

    for scenario in &scenarios {
        let session = ProtoSession::build(
            &scenario.graph,
            scenario.source,
            &scenario.members,
            TreeProtocol::Smrp(smrp_config(0.3)),
        )
        .expect("session builds");
        // Worst-case failure of the first member.
        let member = scenario.members[0];
        let Some(link) = recovery::worst_case_failure_for(&scenario.graph, session.tree(), member)
        else {
            continue;
        };
        let fail = FailureScenario::link(link);
        // Skip physically unrecoverable cases (e.g. the failed link was the
        // source's only link): no strategy can restore them and the paper's
        // metric is undefined there.
        if recovery::recover(
            &scenario.graph,
            session.tree(),
            &fail,
            member,
            recovery::DetourKind::Local,
        )
        .is_err()
        {
            continue;
        }
        let fail_at = SimTime::from_ms(200.0);
        let until = SimTime::from_ms(RECONVERGENCE_MS + 5_000.0);

        let run = |strategy| {
            let spec = FailureSpec::persistent(&fail, strategy, fail_at, until);
            session.run(&spec).groups.remove(0)
        };
        let local = run(RecoveryStrategy::LocalDetour);
        let global = run(RecoveryStrategy::GlobalDetour {
            reconvergence: SimTime::from_ms(RECONVERGENCE_MS),
        });
        ran += 1;
        local_latencies_ms.extend(
            local
                .restorations
                .iter()
                .flat_map(|(_, t)| t.map(|t| t.as_ms())),
        );
        if let Some(ms) = local.mean_latency_ms().filter(|_| local.all_restored()) {
            local_ms.push(ms);
        }
        if let Some(ms) = global.mean_latency_ms().filter(|_| global.all_restored()) {
            global_ms.push(ms);
        }
    }

    LatencyResult {
        local_latencies_ms,
        local_ms,
        global_ms,
        cases: ran,
    }
}

impl LatencyResult {
    /// Mean speedup of the local detour over the global detour.
    pub(crate) fn speedup(&self) -> Option<f64> {
        if self.local_ms.count() == 0 || self.global_ms.count() == 0 {
            return None;
        }
        Some(self.global_ms.mean() / self.local_ms.mean())
    }

    /// Renders the comparison table.
    pub(crate) fn table(&self) -> Table {
        let mut t = Table::new(vec!["strategy", "mean latency (ms)", "restored cases"]);
        t.row(vec![
            "local detour (SMRP)".into(),
            format!("{:.1}", self.local_ms.mean()),
            format!("{}/{}", self.local_ms.count(), self.cases),
        ]);
        t.row(vec![
            "global detour (PIM over OSPF)".into(),
            format!("{:.1}", self.global_ms.mean()),
            format!("{}/{}", self.global_ms.count(), self.cases),
        ]);
        t
    }

    /// CSV artifact.
    pub(crate) fn to_csv(&self) -> Csv {
        let mut csv = Csv::new(vec!["strategy", "mean_latency_ms", "restored", "cases"]);
        csv.row(vec![
            "local".into(),
            format!("{}", self.local_ms.mean()),
            format!("{}", self.local_ms.count()),
            format!("{}", self.cases),
        ]);
        csv.row(vec![
            "global".into(),
            format!("{}", self.global_ms.mean()),
            format!("{}", self.global_ms.count()),
            format!("{}", self.cases),
        ]);
        csv
    }

    /// Renders the local-latency distribution.
    pub(crate) fn histogram_text(&self) -> String {
        let mut out = String::from("local-detour restoration latency distribution (ms):\n");
        let mut histogram = Histogram::new(0.0, 1_000.0, 20);
        for &ms in &self.local_latencies_ms {
            histogram.push(ms);
        }
        out.push_str(&histogram.render(40));
        if !self.local_latencies_ms.is_empty() {
            let p95 = Quantiles::of(self.local_latencies_ms.clone()).p95_ms;
            out.push_str(&format!("p95 ~= {p95:.0} ms\n"));
        }
        out
    }

    /// Textual summary against the paper's motivation.
    pub(crate) fn summary(&self) -> String {
        match self.speedup() {
            Some(s) => format!(
                "local detour restores in {:.0} ms vs {:.0} ms for the global detour — \
                 {s:.0}× faster (paper §1: recovery is dominated by OSPF reconvergence)",
                self.local_ms.mean(),
                self.global_ms.mean()
            ),
            None => "insufficient restored cases to compare".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_detour_is_orders_of_magnitude_faster() {
        let r = run(Effort::Quick);
        assert!(r.cases >= 1, "every sampled case was unrecoverable");
        let speedup = r.speedup().expect("both strategies restored some cases");
        assert!(
            speedup > 20.0,
            "expected a large speedup, got {speedup:.1}x \
             (local {:.1} ms, global {:.1} ms)",
            r.local_ms.mean(),
            r.global_ms.mean()
        );
        // Local restoration is sub-second: detection (~30 ms) + signalling.
        assert!(r.local_ms.mean() < 1_000.0);
        // Global restoration cannot beat the reconvergence delay.
        assert!(r.global_ms.mean() >= RECONVERGENCE_MS);
    }

    #[test]
    fn artifacts_render() {
        let r = run(Effort::Quick);
        assert!(r.table().render().contains("local detour"));
        assert_eq!(r.to_csv().render().lines().count(), 3);
        assert!(r.summary().contains("faster"));
    }
}
