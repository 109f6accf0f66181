//! The benchmark's catalogue: workloads, end-to-end metrics with their
//! regression bounds, and the per-layer ledger. `BENCHMARK.json` at the
//! repository root is this table rendered by [`benchmark_json`]; a unit
//! test keeps the two identical.

use serde_json::Value;

use crate::json::{obj, text};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_050_628;
/// A seed never used while writing a change; claims must also hold here.
pub const HELD_OUT_SEED: u64 = 7_919;
/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 18;

/// Which clock a number was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of this code on this machine: noisy, compared by bound.
    Host,
    /// Integer-nanosecond simulated time: repeats bit-for-bit per seed.
    Sim,
    /// A count made by the program: repeats exactly per seed.
    Count,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// What one operation of `ops_per_s` is on this workload.
    pub op: &'static str,
    /// The layers doing the work in the timed region.
    pub dominant: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "campaign_lossless",
        why: "the paper's experiment: Waxman n=400, 30 members, 280 mixed fault cases, 0% loss; \
              sim engine and proto router fast path work, net/core only plan, reliable lanes idle",
        op: "control message sent by a simulated router lane (SMRP and SPF arm)",
        dominant: "sim + proto",
    },
    WorkloadSpec {
        name: "campaign_lossy",
        why: "same generator and seed at 10% ambient loss: channel draws on every hop and \
              reliable-lane retransmits, so a fast-path gain that costs the retry path shows here",
        op: "control message sent by a simulated router lane (SMRP and SPF arm)",
        dominant: "sim + proto (channel, reliable)",
    },
    WorkloadSpec {
        name: "join_scale",
        why: "transit-stub n=4000, 48 groups of 30 joins + 10 leave/rejoin + reshape sweep, \
              full-topology, neighbor-query and SPF; net Dijkstra and core selection only, no simulator",
        op: "membership operation (join, leave or reshape)",
        dominant: "net + core",
    },
    WorkloadSpec {
        name: "multigroup_cut",
        why: "transit-stub n=4000 x 1024 eight-member groups, one link cut shared by ~96 groups in one \
              simulator: per-message MultiRouter lane dispatch and event queue; net/core are set-up only",
        op: "message delivered by the simulator",
        dominant: "proto + sim",
    },
    WorkloadSpec {
        name: "hierarchy_traced",
        why: "3-level recovery domains, 1092 routers x 137 groups, every case fully traced and audited: \
              the only workload where trace formatting and the locality audit dominate time and memory",
        op: "control message sent by a simulated router lane",
        dominant: "sim (trace) + faultlab (audit)",
    },
];

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Share of the baseline by which the metric may worsen. Every
    /// end-to-end metric has one (the driver enforces it across seeds);
    /// a ledger metric with one is held to it by `--compare` only, where
    /// both sides ran the same seed.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        clock: Clock::Host,
        bound: Some(bound),
    }
}

/// Metrics every workload produces, gated by the driver.
pub const END_TO_END: [MetricSpec; 2] = [
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        clock: Clock::Host,
        bound: None,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        clock: Clock::Sim,
        bound: None,
    }
}

const fn count(name: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit: "count",
        better,
        clock: Clock::Count,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The ledger printed by a traced run. `model.*` are sim-clock outcomes
/// of the modelled network and `host.*` the workload-specific
/// throughputs: both are end-to-end in nature but not produced by every
/// workload, so they live here rather than in [`END_TO_END`].
pub const PER_LAYER: [MetricSpec; 73] = [
    sim("model.restore_p50_ms", "ms", Lower),
    sim("model.restore_p95_ms", "ms", Lower),
    count("model.restore_samples", Higher),
    sim("model.smrp_vs_spf_latency", "ratio", Lower),
    sim("model.restored_share", "ratio", Higher),
    sim("model.ctrl_msgs_per_restore", "count", Lower),
    host("host.cases_per_s", "1/s", Higher),
    host("host.sim_msgs_per_s", "1/s", Higher),
    host("host.joins_per_s", "1/s", Higher),
    // At a fixed seed the peak repeats within a percent; across seeds the
    // traced workload's peak is its largest single case and moves by 20 %,
    // so the driver cannot gate it and `--compare` does.
    MetricSpec {
        name: "host.peak_rss_mb",
        unit: "MB",
        better: Lower,
        clock: Clock::Host,
        bound: Some(0.05),
    },
    host("net.topology_gen_ms", "ms", Lower),
    host("net.dijkstra_us", "us", Lower),
    host("net.dijkstra_constrained_us", "us", Lower),
    host("net.path_to_any_us", "us", Lower),
    host("net.detour_refresh_us_per_req", "us", Lower),
    host("core.join_full_us", "us", Lower),
    host("core.join_nq_us", "us", Lower),
    host("core.leave_us", "us", Lower),
    host("core.reshape_us", "us", Lower),
    host("core.spf_join_us", "us", Lower),
    host("core.enumerate_candidates_us", "us", Lower),
    count("core.candidates_per_join", Lower),
    host("core.recover_us", "us", Lower),
    host("core.audit_us", "us", Lower),
    host("sim.wheel_schedule_ns", "ns", Lower),
    host("sim.wheel_cancel_ns", "ns", Lower),
    host("sim.wheel_pop_ns", "ns", Lower),
    host("sim.engine_ns_per_event", "ns", Lower),
    host("sim.channel_transmit_ns", "ns", Lower),
    host("sim.trace_format_ns", "ns", Lower),
    host("sim.trace_push_ns", "ns", Lower),
    host("sim.traced_slowdown", "ratio", Lower),
    host("proto.session_build_ms", "ms", Lower),
    host("proto.plan_recoveries_us", "us", Lower),
    host("proto.run_ns_per_msg", "ns", Lower),
    host("proto.router_hello_ns", "ns", Lower),
    host("proto.router_data_ns", "ns", Lower),
    host("proto.router_refresh_ns", "ns", Lower),
    host("proto.router_setup_ns", "ns", Lower),
    host("proto.router_timer_ns", "ns", Lower),
    host("proto.reliable_send_ack_ns", "ns", Lower),
    host("proto.reliable_receive_ns", "ns", Lower),
    host("proto.wire_encode_ns", "ns", Lower),
    host("proto.wire_decode_ns", "ns", Lower),
    count("proto.msgs_delivered", Lower),
    count("proto.acks", Lower),
    count("proto.retransmits", Lower),
    count("proto.dup_drops", Lower),
    count("proto.retry_exhaustions", Lower),
    count("proto.plan_activations", Lower),
    sim("proto.retransmit_share", "ratio", Lower),
    host("faultlab.generate_us_per_case", "us", Lower),
    host("faultlab.evaluate_ms_per_case", "ms", Lower),
    host("faultlab.audit_us_per_case", "us", Lower),
    host("faultlab.report_ms", "ms", Lower),
    sim("faultlab.simulated_share", "ratio", Higher),
    host("faultlab.hierarchy_ms_per_case", "ms", Lower),
    host("faultlab.hierarchy_report_ms", "ms", Lower),
    count("faultlab.cases_unaudited", Lower),
    host("smrpd.timer_schedule_ns", "ns", Lower),
    host("smrpd.timer_cancel_ns", "ns", Lower),
    host("smrpd.timer_pop_due_ns", "ns", Lower),
    host("smrpd.chan_send_recv_ns", "ns", Lower),
    host("smrpd.udp_send_recv_us", "us", Lower),
    host("trace.coverage", "ratio", Higher),
    host("trace.overhead", "ratio", Lower),
    host("trace.share_net", "ratio", Lower),
    host("trace.share_core", "ratio", Lower),
    host("trace.share_sim", "ratio", Lower),
    host("trace.share_proto", "ratio", Lower),
    host("trace.share_faultlab", "ratio", Lower),
    host("trace.share_smrpd", "ratio", Lower),
    host("trace.share_harness", "ratio", Lower),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let doc = obj(vec![
        (
            "command",
            Value::Seq(command.iter().map(|c| text(c)).collect()),
        ),
        ("paths", Value::Seq(vec![text("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.name())),
                            ("bound", Value::F64(m.bound.expect("end-to-end bound"))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Seq(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut text = serde_json::to_string_pretty(&doc).expect("value renders");
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn is_name(s: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(is_name(w.name, 64), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(is_name(m.name, 64), "{}", m.name);
            assert!(is_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        for m in PER_LAYER.iter().filter(|m| m.bound.is_some()) {
            assert_eq!(
                m.clock,
                Clock::Host,
                "{}: exact metrics need no bound",
                m.name
            );
        }
        let setup = metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }

    #[test]
    fn benchmark_json_at_the_root_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json exists at the root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: smrp-benchmark --spec > BENCHMARK.json"
        );
        assert!(on_disk.len() <= 64 * 1024);
        let doc: Value = serde_json::from_str(&on_disk).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_map()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
