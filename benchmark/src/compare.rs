//! `--compare A.json B.json`: is B no worse than A?
//!
//! Host-time end-to-end metrics pass while B's value is not worse than
//! A's by more than the metric's bound (or by less than its floor, for
//! metrics small enough that a relative bound is all noise). Sim-time
//! metrics and counts must be equal: a change meant only to make the
//! code faster may not move them.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::spec::{self, Better, Clock, MetricSpec, END_TO_END};
use crate::stats;

/// Absolute worsening that is never a regression: several workloads set
/// up in a few milliseconds and peak at a few megabytes, where a relative
/// bound is all noise.
fn floor_of(metric: &MetricSpec) -> f64 {
    match metric.name {
        "setup_s" => 0.05,
        "host.peak_rss_mb" => 1.0,
        _ => 0.0,
    }
}

/// Share of `a` by which `b` is worse (negative when better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Whether `b` passes against `a` for a host-time metric with a bound.
pub fn within_bound(metric: &MetricSpec, a: f64, b: f64) -> bool {
    let bound = metric.bound.expect("only bounded metrics are judged");
    worsening(metric.better, a, b) <= bound || (b - a).abs() <= floor_of(metric)
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Option<f64>,
    pub b: Option<f64>,
    pub pass: bool,
    pub note: String,
}

/// Runs of one output file by (workload, traced). A file may hold
/// several runs of the same workload and mode (`--all --reps N`).
fn grouped(doc: &Value) -> Result<BTreeMap<(String, bool), Vec<&Value>>, String> {
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| "not a smrp-benchmark output file: no `runs`".to_string())?;
    let mut groups: BTreeMap<(String, bool), Vec<&Value>> = BTreeMap::new();
    for run in runs {
        let workload = run.get("workload").and_then(Value::as_str).unwrap_or("?");
        let traced = matches!(run.get("traced"), Some(Value::Bool(true)));
        groups
            .entry((workload.to_string(), traced))
            .or_default()
            .push(run);
    }
    Ok(groups)
}

fn values_of(runs: &[&Value], section: &str, metric: &str) -> Vec<Option<f64>> {
    runs.iter()
        .map(|run| run.get(section)?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Median over the runs that report the metric.
fn median_of(values: &[Option<f64>]) -> Option<f64> {
    let present: Vec<f64> = values.iter().flatten().copied().collect();
    stats::median(&present)
}

/// A host-time metric with a bound: B's median against A's.
fn bounded_row(m: &MetricSpec, label: &str, a: &[Option<f64>], b: &[Option<f64>]) -> Row {
    let (va, vb) = (median_of(a), median_of(b));
    let (pass, note) = match (va, vb) {
        (Some(x), Some(y)) => (
            within_bound(m, x, y),
            format!(
                "{:+.1}% worse, bound {:.0}%",
                100.0 * worsening(m.better, x, y),
                100.0 * m.bound.expect("only bounded metrics are judged")
            ),
        ),
        _ => (false, "missing".to_string()),
    };
    Row {
        workload: label.to_string(),
        metric: m.name.to_string(),
        a: va,
        b: vb,
        pass,
        note,
    }
}

/// Compares the runs of `a` with the runs of `b` for the same workload
/// and mode: medians where a file holds several.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let b_groups = grouped(b)?;
    for ((workload, traced), ra) in grouped(a)? {
        let label = if traced {
            format!("{workload} (traced)")
        } else {
            workload.clone()
        };
        let mut fail = |metric: &str, note: String| {
            rows.push(Row {
                workload: label.clone(),
                metric: metric.to_string(),
                a: None,
                b: None,
                pass: false,
                note,
            });
        };
        let Some(rb) = b_groups.get(&(workload.clone(), traced)) else {
            fail("-", "run missing from B".to_string());
            continue;
        };
        for (side, run) in ra
            .iter()
            .map(|r| ("A", r))
            .chain(rb.iter().map(|r| ("B", r)))
        {
            let failed = run.get("ops_failed").and_then(Value::as_u64).unwrap_or(0);
            let correct = matches!(run.get("correct"), Some(Value::Bool(true)));
            if !correct || failed > 0 {
                fail(
                    "correct",
                    format!("{side}: correct={correct}, ops_failed={failed}"),
                );
            }
        }
        if !traced {
            for m in &END_TO_END {
                rows.push(bounded_row(
                    m,
                    &label,
                    &values_of(&ra, "end_to_end", m.name),
                    &values_of(rb, "end_to_end", m.name),
                ));
            }
        }
        // Ledger: sim-clock values and counts are equal in every run of
        // both sides or fail; a host row is judged only if it carries a
        // bound. Both sides list the same catalogue, so walking A's
        // ledger covers B's.
        let ledger = ra[0].get("ledger").and_then(Value::as_map);
        for (name, _) in ledger.into_iter().flatten() {
            let Some(m) = spec::metric(name) else {
                continue;
            };
            let (va, vb) = (
                values_of(&ra, "ledger", name),
                values_of(rb, "ledger", name),
            );
            match (m.clock, m.bound) {
                (Clock::Host, None) => {}
                (Clock::Host, Some(_)) => rows.push(bounded_row(m, &label, &va, &vb)),
                _ => rows.push(Row {
                    workload: label.clone(),
                    metric: name.clone(),
                    a: va[0],
                    b: vb[0],
                    pass: va.iter().chain(&vb).all(|v| *v == va[0]),
                    note: "must be equal".to_string(),
                }),
            }
        }
    }
    Ok(rows)
}

/// Prints the rows (equal sim-time rows summarised) and returns whether
/// everything passed.
pub fn print(rows: &[Row]) -> bool {
    let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
    let mut equal = 0;
    for r in rows {
        if r.pass && r.note == "must be equal" {
            equal += 1;
            continue;
        }
        println!(
            "{} {:<28} {:<30} A={:<16} B={:<16} {}",
            if r.pass { "PASS" } else { "FAIL" },
            r.workload,
            r.metric,
            show(r.a),
            show(r.b),
            r.note
        );
    }
    let failed = rows.iter().filter(|r| !r.pass).count();
    println!("{equal} sim-time metrics and counts equal; {failed} FAIL");
    failed == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn metric(name: &str) -> &'static MetricSpec {
        spec::metric(name).expect("catalogued")
    }

    #[test]
    fn bound_is_relative_to_a_and_direction_aware() {
        let ops = metric("ops_per_s"); // higher is better, 25%
        assert!(within_bound(ops, 100.0, 76.0));
        assert!(!within_bound(ops, 100.0, 74.0));
        assert!(within_bound(ops, 100.0, 500.0), "better never fails");
        let rss = metric("host.peak_rss_mb"); // lower is better, 5%
        assert!(within_bound(rss, 100.0, 104.0));
        assert!(!within_bound(rss, 100.0, 106.0));
        assert!(within_bound(rss, 100.0, 10.0));
    }

    #[test]
    fn setup_floor_forgives_small_absolute_changes_only() {
        let setup = metric("setup_s");
        // 10 ms → 40 ms is 300% worse but under the 50 ms floor.
        assert!(within_bound(setup, 0.010, 0.040));
        // 1 s → 1.2 s is inside the bound; 1 s → 1.4 s is outside both.
        assert!(within_bound(setup, 1.0, 1.2));
        assert!(!within_bound(setup, 1.0, 1.4));
        // Memory has a 1 MB floor, throughput none.
        assert!(within_bound(metric("host.peak_rss_mb"), 4.4, 4.9));
        assert!(!within_bound(metric("host.peak_rss_mb"), 100.0, 106.0));
        assert!(!within_bound(metric("ops_per_s"), 1.0, 0.5));
    }

    fn run(workload: &str, ops: f64, p50: f64, correct: bool) -> Value {
        let m = |v: f64| obj(vec![("value", Value::F64(v))]);
        obj(vec![
            ("workload", Value::Str(workload.to_string())),
            ("traced", Value::Bool(false)),
            ("correct", Value::Bool(correct)),
            ("ops_failed", Value::U64(0)),
            (
                "end_to_end",
                obj(vec![("ops_per_s", m(ops)), ("setup_s", m(0.01))]),
            ),
            (
                "ledger",
                obj(vec![
                    ("model.restore_p50_ms", m(p50)),
                    ("host.cases_per_s", m(ops / 1000.0)),
                    ("host.peak_rss_mb", m(50.0)),
                ]),
            ),
        ])
    }

    fn file(runs: Vec<Value>) -> Value {
        obj(vec![("runs", Value::Seq(runs))])
    }

    #[test]
    fn sim_time_must_be_equal_host_time_within_bound() {
        let a = file(vec![run("campaign_lossless", 1000.0, 96.5, true)]);
        let same = compare(&a, &file(vec![run("campaign_lossless", 900.0, 96.5, true)])).unwrap();
        assert!(same.iter().all(|r| r.pass));
        // Unbounded host ledger rows are not judged; the sim row and the
        // bounded memory row are.
        assert_eq!(same.len(), 4);
        let moved = compare(
            &a,
            &file(vec![run("campaign_lossless", 1000.0, 96.6, true)]),
        )
        .unwrap();
        let failing: Vec<&str> = moved
            .iter()
            .filter(|r| !r.pass)
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(failing, ["model.restore_p50_ms"]);
        let slow = compare(&a, &file(vec![run("campaign_lossless", 700.0, 96.5, true)])).unwrap();
        assert!(slow.iter().any(|r| !r.pass && r.metric == "ops_per_s"));
    }

    #[test]
    fn several_runs_per_side_compare_by_median() {
        let w = "multigroup_cut";
        let a = file(vec![
            run(w, 1000.0, 5.0, true),
            run(w, 1100.0, 5.0, true),
            run(w, 400.0, 5.0, true),
        ]);
        // One slow run on each side does not decide the verdict.
        let b = file(vec![
            run(w, 950.0, 5.0, true),
            run(w, 300.0, 5.0, true),
            run(w, 1050.0, 5.0, true),
        ]);
        let rows = compare(&a, &b).unwrap();
        let ops = rows.iter().find(|r| r.metric == "ops_per_s").unwrap();
        assert_eq!((ops.a, ops.b, ops.pass), (Some(1000.0), Some(950.0), true));
        // A sim-time value that moves in any one run fails.
        let c = file(vec![run(w, 950.0, 5.0, true), run(w, 950.0, 5.5, true)]);
        assert!(compare(&a, &c)
            .unwrap()
            .iter()
            .any(|r| !r.pass && r.metric == "model.restore_p50_ms"));
    }

    #[test]
    fn incorrect_or_missing_runs_fail() {
        let a = file(vec![run("join_scale", 10.0, 1.0, true)]);
        let wrong = compare(&a, &file(vec![run("join_scale", 10.0, 1.0, false)])).unwrap();
        assert!(wrong.iter().any(|r| !r.pass && r.metric == "correct"));
        let missing = compare(&a, &file(vec![])).unwrap();
        assert!(missing.iter().any(|r| !r.pass));
        assert!(compare(&Value::Null, &a).is_err());
    }
}
