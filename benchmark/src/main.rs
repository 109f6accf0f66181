//! `smrp-benchmark`: one workload per process, single-threaded, closed
//! loop. See `benchmark/README.md`.

mod compare;
mod env;
mod harness;
mod json;
mod micro;
mod report;
mod span;
mod spec;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};

use serde_json::Value;

use crate::report::RunInfo;
use crate::span::Tracer;

const USAGE: &str = "\
usage:
  smrp-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
                 [--out <file>] [--spans <file>]
  smrp-benchmark --all [--reps <n>] [--seed <u64>] [--seconds <n>] --out <file>
  smrp-benchmark --compare <A.json> <B.json>
  smrp-benchmark --spec";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
    all: bool,
    reps: Option<u32>,
    compare: Option<(String, String)>,
    spec: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                let v = value(&mut it, flag)?;
                args.seed = Some(v.parse().map_err(|_| format!("--seed {v}: not a u64"))?);
            }
            "--seconds" => {
                let v = value(&mut it, flag)?;
                let s: u64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds {s}: must be 1 to 60"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: must be 0 or 1")),
                }
            }
            "--out" => args.out = Some(value(&mut it, flag)?),
            "--spans" => args.spans = Some(value(&mut it, flag)?),
            "--all" => args.all = true,
            "--reps" => {
                let v = value(&mut it, flag)?;
                let n: u32 = v.parse().map_err(|_| format!("--reps {v}: not a number"))?;
                if !(1..=9).contains(&n) {
                    return Err(format!("--reps {n}: must be 1 to 9"));
                }
                args.reps = Some(n);
            }
            "--compare" => args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            "--spec" => args.spec = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("write {path}: {e}"))
}

fn read_doc(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Runs one workload in this process. Returns whether it was correct.
fn run_one(args: &Args, workload: &str) -> Result<bool, String> {
    let info = RunInfo {
        workload,
        seed: args.seed.unwrap_or(spec::DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(spec::RUN_SECONDS),
        traced: args.trace,
    };
    let mut tracer = Tracer::new(info.traced);
    let result =
        workloads::run(workload, info.seed, info.seconds as f64, &mut tracer).ok_or_else(|| {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {workload}; one of {}", names.join(", "))
        })?;
    if let Some(path) = &args.spans {
        let mut buf = Vec::new();
        tracer
            .write_jsonl(workload, &mut buf)
            .map_err(|e| format!("render spans: {e}"))?;
        std::fs::write(path, buf).map_err(|e| format!("write {path}: {e}"))?;
    }
    if let Some(path) = &args.out {
        let doc = report::file_doc(env::stamp(), vec![report::run_doc(&info, &result)]);
        write_file(path, &doc)?;
    }
    print!("{}", report::table(&info, &result));
    println!("{}", report::contract_line(&result, info.traced));
    Ok(result.correct())
}

/// Runs every workload untraced (`--reps` times) and traced (once), each
/// in a child process, and merges their output files.
fn run_all(args: &Args) -> Result<bool, String> {
    let out = args.out.as_deref().ok_or("--all needs --out <file>")?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let part = format!("{out}.part");
    let mut runs = Vec::new();
    let mut all_correct = true;
    let untraced = std::iter::repeat_n("0", args.reps.unwrap_or(1) as usize);
    for w in &spec::WORKLOADS {
        for trace in untraced.clone().chain(["1"]) {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--trace", trace, "--out", &part]);
            if let Some(seed) = args.seed {
                cmd.args(["--seed", &seed.to_string()]);
            }
            if let Some(seconds) = args.seconds {
                cmd.args(["--seconds", &seconds.to_string()]);
            }
            let status = cmd.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
            all_correct &= status.success();
            let doc = read_doc(&part)?;
            let run = doc
                .get("runs")
                .and_then(Value::as_array)
                .and_then(|r| r.first())
                .ok_or_else(|| format!("{part}: no run recorded"))?;
            runs.push(run.clone());
        }
    }
    // Best effort: a stale part file is harmless.
    let _ = std::fs::remove_file(&part);
    write_file(out, &report::file_doc(env::stamp(), runs))?;
    println!("wrote {out}");
    Ok(all_correct)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv)?;
    if args.spec {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        let rows = compare::compare(&read_doc(a)?, &read_doc(b)?)?;
        return Ok(compare::print(&rows));
    }
    if args.all {
        return run_all(&args);
    }
    match &args.workload {
        Some(w) => run_one(&args, w),
        None => Err(format!(
            "{USAGE}\ndefault seed {}, held-out seed {}",
            spec::DEFAULT_SEED,
            spec::HELD_OUT_SEED
        )),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        // Outputs were printed, but a gate failed or a comparison did.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
