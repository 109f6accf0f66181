//! Output of one run: the contract's one-line JSON for the driver, the
//! human-readable table, and the full document written by `--out`.

use serde_json::Value;

use crate::harness::RunResult;
use crate::json::{obj, text};
use crate::spec::{self, MetricSpec, END_TO_END, PER_LAYER};

pub const SCHEMA: &str = "smrp-benchmark/1";

pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

fn end_to_end(result: &RunResult, name: &str) -> f64 {
    match name {
        "ops_per_s" => result.ops_per_s,
        "setup_s" => result.setup_s,
        other => unreachable!("no end-to-end metric named {other}"),
    }
}

/// The metrics a run reports, in catalogue order: the end-to-end set for
/// an untraced run, the ledger for a traced one.
fn reported(result: &RunResult, traced: bool) -> Vec<(&'static MetricSpec, Option<f64>)> {
    if traced {
        PER_LAYER
            .iter()
            .map(|m| (m, result.ledger.get(m.name).copied().flatten()))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m, Some(end_to_end(result, m.name))))
            .collect()
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`. A ledger row the workload does not produce
/// reads 0 here (the driver takes numbers only); `--out` keeps it `null`.
pub fn contract_line(result: &RunResult, traced: bool) -> String {
    let metrics = reported(result, traced)
        .into_iter()
        .map(|(m, v)| {
            (
                m.name.to_string(),
                obj(vec![
                    ("value", Value::F64(v.unwrap_or(0.0))),
                    ("unit", text(m.unit)),
                ]),
            )
        })
        .collect();
    let doc = obj(vec![
        ("correct", Value::Bool(result.correct())),
        ("attempted", Value::U64(result.attempted)),
        ("failed", Value::U64(result.failed)),
        ("metrics", Value::Map(metrics)),
    ]);
    serde_json::to_string(&doc).expect("value renders")
}

/// Every metric by name with its value, unit and clock, then the gates.
pub fn table(info: &RunInfo<'_>, result: &RunResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} seed {} seconds {} traced {}",
        info.workload, info.seed, info.seconds, info.traced
    );
    if let Some(w) = spec::workload(info.workload) {
        let _ = writeln!(out, "  one op = {}; work done by {}", w.op, w.dominant);
    }
    for (m, v) in reported(result, info.traced) {
        let value = v.map_or("-".to_string(), |v| format!("{v:.6}"));
        let _ = writeln!(
            out,
            "  {:<34} {:>18} {:<6} [{}]",
            m.name,
            value,
            m.unit,
            m.clock.name()
        );
    }
    for (name, n) in &result.counts {
        let _ = writeln!(out, "  count {name} = {n}");
    }
    for g in &result.gates {
        let verdict = if g.pass { "PASS" } else { "FAIL" };
        let _ = writeln!(out, "  gate {verdict} {}: {}", g.name, g.detail);
    }
    let _ = writeln!(
        out,
        "  ops attempted {} failed {} (failed_share {})",
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted.max(1) as f64
    );
    out
}

fn metric_value(m: &MetricSpec, v: Option<f64>) -> Value {
    obj(vec![
        ("value", v.map_or(Value::Null, Value::F64)),
        ("unit", text(m.unit)),
        ("clock", text(m.clock.name())),
    ])
}

/// The full record of one run (everything but the environment stamp).
pub fn run_doc(info: &RunInfo<'_>, result: &RunResult) -> Value {
    // Sim-clock outcomes and counts are known to every run; the host
    // rows of the ledger only to a traced one.
    let ledger = PER_LAYER
        .iter()
        .filter_map(|m| {
            let v = result.ledger.get(m.name)?;
            Some((m.name.to_string(), metric_value(m, *v)))
        })
        .collect();
    let e2e = if info.traced {
        // End-to-end metrics always come from the untraced run.
        Value::Null
    } else {
        Value::Map(
            END_TO_END
                .iter()
                .map(|m| {
                    let v = Some(end_to_end(result, m.name));
                    (m.name.to_string(), metric_value(m, v))
                })
                .collect(),
        )
    };
    obj(vec![
        ("workload", text(info.workload)),
        ("seed", Value::U64(info.seed)),
        ("seconds", Value::U64(info.seconds)),
        ("traced", Value::Bool(info.traced)),
        (
            "counts",
            Value::Map(
                result
                    .counts
                    .iter()
                    .map(|(k, n)| (k.to_string(), Value::U64(*n)))
                    .collect(),
            ),
        ),
        ("correct", Value::Bool(result.correct())),
        ("ops_attempted", Value::U64(result.attempted)),
        ("ops_failed", Value::U64(result.failed)),
        (
            "gates",
            Value::Seq(
                result
                    .gates
                    .iter()
                    .map(|g| {
                        obj(vec![
                            ("name", text(g.name)),
                            ("pass", Value::Bool(g.pass)),
                            ("detail", text(&g.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", e2e),
        ("ledger", Value::Map(ledger)),
        (
            "unit_ops",
            Value::Seq(result.unit_ops.iter().map(|o| Value::F64(*o)).collect()),
        ),
        (
            "unit_runs",
            Value::Seq(
                result
                    .unit_runs
                    .iter()
                    .map(|r| {
                        obj(vec![
                            ("unit", Value::U64(r.unit as u64)),
                            ("traced", Value::Bool(r.traced)),
                            ("wall_s", Value::F64(r.wall_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// An output file: schema, no claim, the environment stamp, the runs.
pub fn file_doc(env: Value, runs: Vec<Value>) -> String {
    let doc = obj(vec![
        ("schema", text(SCHEMA)),
        ("claim", Value::Null),
        ("env", env),
        ("runs", Value::Seq(runs)),
    ]);
    let mut s = serde_json::to_string_pretty(&doc).expect("value renders");
    s.push('\n');
    s
}
