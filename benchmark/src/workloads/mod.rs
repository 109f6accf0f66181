//! The five workloads. Each is one function: set up from the seed, run
//! the closed-loop timed region, check the outputs, fill the ledger.

pub mod campaign;
pub mod hierarchy;
pub mod join_scale;
pub mod multigroup;

use smrp_metrics::ControlHealth;
use smrp_proto::ControlCounters;

use crate::harness::{gate, Gate, Ledger, RunResult, Timed};
use crate::span::{breakdown, Breakdown, Span, Tracer, HARNESS, LAYERS};
use crate::stats;

/// Name of the root span around one unit of work in the timed region:
/// a fault case, a group's membership script, a simulator run.
pub const UNIT: &str = "unit";

/// Runs `workload` (a name from the catalogue).
pub fn run(workload: &str, seed: u64, seconds: f64, tracer: &mut Tracer) -> Option<RunResult> {
    Some(match workload {
        "campaign_lossless" => campaign::run(false, seed, seconds, tracer),
        "campaign_lossy" => campaign::run(true, seed, seconds, tracer),
        "join_scale" => join_scale::run(seed, seconds, tracer),
        "multigroup_cut" => multigroup::run(seed, seconds, tracer),
        "hierarchy_traced" => hierarchy::run(seed, seconds, tracer),
        _ => return None,
    })
}

/// Files what the traced timed region adds up to: how much of each unit
/// its child spans cover, what tracing cost, and each layer's share of
/// the self time.
fn put_trace_shares(ledger: &mut Ledger, b: &Breakdown, overhead: Option<f64>) {
    ledger.insert("trace.coverage", Some(b.coverage));
    ledger.insert("trace.overhead", overhead);
    const KEYS: [&str; 6] = [
        "trace.share_net",
        "trace.share_core",
        "trace.share_sim",
        "trace.share_proto",
        "trace.share_faultlab",
        "trace.share_smrpd",
    ];
    for (key, layer) in KEYS.into_iter().zip(LAYERS) {
        ledger.insert(key, Some(b.share(layer)));
    }
    ledger.insert("trace.share_harness", Some(b.share(HARNESS)));
}

/// Control-plane tallies of one simulator run, or of several summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Hellos, refreshes, setups and leaves sent by router lanes.
    pub control: u64,
    /// The tree-mutating share of those, which travels reliably.
    pub reliable_sends: u64,
    pub retransmits: u64,
    pub acks: u64,
    pub dup_drops: u64,
    pub exhaustions: u64,
    pub activations: u64,
}

impl Tally {
    pub fn new(control: ControlCounters, health: &ControlHealth, activations: u64) -> Self {
        Tally {
            control: control.total(),
            reliable_sends: control.refreshes + control.setups + control.leaves,
            retransmits: health.retransmits,
            acks: health.acks,
            dup_drops: health.dup_drops,
            exhaustions: health.retry_exhaustions,
            activations,
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.control += other.control;
        self.reliable_sends += other.reliable_sends;
        self.retransmits += other.retransmits;
        self.acks += other.acks;
        self.dup_drops += other.dup_drops;
        self.exhaustions += other.exhaustions;
        self.activations += other.activations;
    }

    /// Files the `proto.*` counts.
    pub fn put(&self, ledger: &mut Ledger) {
        ledger.insert("proto.acks", Some(self.acks as f64));
        ledger.insert("proto.retransmits", Some(self.retransmits as f64));
        ledger.insert("proto.dup_drops", Some(self.dup_drops as f64));
        ledger.insert("proto.retry_exhaustions", Some(self.exhaustions as f64));
        ledger.insert("proto.plan_activations", Some(self.activations as f64));
        ledger.insert(
            "proto.retransmit_share",
            (self.reliable_sends > 0).then(|| self.retransmits as f64 / self.reliable_sends as f64),
        );
    }
}

/// Files the sim-clock restoration outcomes: `latencies_ms` holds one
/// sample per restored member; `restored` of `affected` members count
/// toward the share; `control` messages were spent restoring them.
fn put_restoration(
    ledger: &mut Ledger,
    latencies_ms: &[f64],
    affected: u64,
    restored: u64,
    control: u64,
) {
    ledger.insert(
        "model.restore_p50_ms",
        stats::percentile(latencies_ms, 50.0),
    );
    ledger.insert(
        "model.restore_p95_ms",
        stats::supported_percentile(latencies_ms, 95.0),
    );
    ledger.insert("model.restore_samples", Some(latencies_ms.len() as f64));
    ledger.insert(
        "model.restored_share",
        (affected > 0).then(|| restored as f64 / affected as f64),
    );
    ledger.insert(
        "model.ctrl_msgs_per_restore",
        (!latencies_ms.is_empty()).then(|| control as f64 / latencies_ms.len() as f64),
    );
}

/// Files the set-up rows the `setup` spans carry. A row without spans is
/// left for the per-op ledger to fill.
fn put_setup_rows(ledger: &mut Ledger, spans: &[Span]) {
    let setup = breakdown(spans, "setup");
    for (row, span) in [
        ("net.topology_gen_ms", "net.topology_gen"),
        ("proto.session_build_ms", "proto.session_build"),
    ] {
        if let Some(ns) = setup.mean_ns(span) {
            ledger.insert(row, Some(ns / 1e6));
        }
    }
}

/// The determinism gate: every repeated or paired execution of a unit
/// (`what`, plural) reproduced the unit's first result.
fn repeat_gate<R>(timed: &Timed<R>, what: &str) -> Gate {
    gate(
        "results_repeat",
        timed.mismatches == 0,
        format!(
            "{} of {} repeated or paired {what} differed from their first run",
            timed.mismatches, timed.repeats
        ),
    )
}
