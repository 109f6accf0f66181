//! Correlated fault-injection campaigns (the `smrp-faultlab` subsystem).
//!
//! Evaluates thousands of seeded correlated-failure scenarios against both
//! SMRP (local detour) and the SPF baseline (global detour), audits every
//! recovery against the protocol's safety invariants, and writes a stable
//! JSON campaign report. Exits non-zero if any invariant is violated, so
//! CI can gate on it.
//!
//! Usage:
//! `cargo run -p smrp-experiments --release --bin faultlab -- [options]`
//!
//! * `--smoke` — small CI campaign (n=100, 240 scenarios);
//! * `--smoke-lossy` — small CI campaign under 5% ambient control-plane
//!   loss (n=100, 203 scenarios — a multiple of the 7 fault families);
//! * `--smoke-multi` — small CI campaign with 8 concurrent sessions
//!   sharing the topology (n=60, 28 scenarios);
//! * `--protect` — the protection-vs-restoration axis on its own: SMRP
//!   with precomputed backup detours against SMRP with on-demand search,
//!   swept over single-link, single-node and shared-risk-group failures
//!   at each ambient-loss point. Exits non-zero unless the sweep is
//!   healthy *and* activation strictly beats search at every loss point;
//! * `--protect-smoke` — small CI protection sweep (n=18, 36 cases),
//!   byte-identical for any `--jobs`;
//! * `--hierarchy` — wire-level N-level recovery-domain campaign: every
//!   active domain's session runs as one group over the shared topology,
//!   repairs stay confined to the owning domain, and the full message
//!   trace of every case is audited against the DomainLocality invariant.
//!   Exits non-zero unless the campaign is clean (zero border crossings,
//!   full audit coverage, every member restored);
//! * `--levels N` — depth of the `--hierarchy` domain tree (default 3,
//!   minimum 2 — the paper's transit-stub shape);
//! * `--population N` — aggregated receivers spread over the hierarchy's
//!   leaf domains, weighted into `SHR/N` per Eq. 2 (default 10000);
//! * `--dump-trace DIR` — instead of a campaign, emit the golden scripted
//!   scenario files (`figure1`, `shared_fate_srlg`, `figure1_lossy`,
//!   `figure1_node_transient`) into DIR: self-contained JSON traces with the sim's converged outcome and
//!   its digest embedded, replayable through the `smrpd` daemon and handy
//!   standalone as minimal reproducers. Byte-identical for any `--jobs`;
//! * `--loss P` — ambient control-plane loss probability applied to every
//!   case that doesn't carry its own degraded channel (default 0); a
//!   protection sweep runs at 0 and, if `P > 0`, at `P`;
//! * `--scenarios N` — number of fault cases (default 1000);
//! * `--nodes N` — topology size (default 400);
//! * `--group N` — multicast group size (default 30);
//! * `--groups M` — concurrent multicast sessions over one topology
//!   (default 1); every fault case is injected once against all of them;
//! * `--seed S` — base seed (default 0x5EED);
//! * `--jobs N` — worker threads (default: available parallelism);
//! * `--out PATH` — report path (default `results/faultlab.json`; not
//!   read by `--dump-trace`).
//!
//! Each mode reads only its own flags: `--loss`, `--nodes` and `--group`
//! go with a campaign or a protection sweep, `--scenarios` and `--seed`
//! with any of the three, `--groups` and the `--smoke*` presets with a
//! campaign only, and `--dump-trace` with `--jobs` only. Two modes at
//! once, or a flag the chosen mode would ignore, exits 2 naming the flag.
//!
//! The report depends only on the configuration — never on `--jobs`, the
//! machine, or wall-clock — so identical seeds yield byte-identical files.
//! The exit code gates on *health*, not just invariants: any invariant
//! violation or any retry-budget exhaustion outside gray-link cases fails
//! the run.

use std::process::ExitCode;

use smrp_experiments::results_dir;
use smrp_faultlab::{
    run_campaign, run_hierarchy, run_protect, CampaignConfig, CampaignReport, HierarchyConfig,
    HierarchyReport, ProtectConfig, ProtectReport,
};

struct Args {
    config: CampaignConfig,
    protect_config: ProtectConfig,
    hierarchy_config: HierarchyConfig,
    jobs: usize,
    protect: bool,
    hierarchy: bool,
    dump_trace: Option<std::path::PathBuf>,
    out: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut config = CampaignConfig {
        nodes: 400,
        group_size: 30,
        scenarios: 1000,
        ..CampaignConfig::default()
    };
    let mut protect_config = ProtectConfig::default();
    let mut hierarchy_config = HierarchyConfig::default();
    let mut jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let mut protect = false;
    let mut hierarchy = false;
    let mut dump_trace: Option<std::path::PathBuf> = None;
    let mut out: Option<std::path::PathBuf> = None;
    let mut seen: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--smoke" => {
                config.nodes = 100;
                config.scenarios = 240;
            }
            "--smoke-lossy" => {
                config.nodes = 100;
                config.scenarios = 203;
                config.ambient_loss = 0.05;
            }
            "--smoke-multi" => {
                config.nodes = 60;
                config.group_size = 10;
                config.scenarios = 28;
                config.groups = 8;
            }
            "--protect" => {
                protect = true;
            }
            "--hierarchy" => {
                hierarchy = true;
            }
            "--levels" => {
                hierarchy_config.levels = value("--levels")?
                    .parse()
                    .map_err(|e| format!("--levels: {e}"))?;
                if hierarchy_config.levels < 2 {
                    return Err("--levels expects a depth of at least 2".into());
                }
            }
            "--population" => {
                hierarchy_config.population = value("--population")?
                    .parse()
                    .map_err(|e| format!("--population: {e}"))?;
            }
            "--protect-smoke" => {
                protect = true;
                protect_config.nodes = 18;
                protect_config.group_size = 10;
                protect_config.scenarios_per_cell = 6;
                protect_config.base_seed = 11;
                protect_config.run_until_ms = 2000.0;
            }
            "--dump-trace" => {
                dump_trace = Some(value("--dump-trace")?.into());
            }
            "--loss" => {
                config.ambient_loss = value("--loss")?
                    .parse()
                    .map_err(|e| format!("--loss: {e}"))?;
                if !(0.0..1.0).contains(&config.ambient_loss) {
                    return Err("--loss expects a probability in [0, 1)".into());
                }
                // The protection sweep always keeps the lossless baseline
                // point; a non-zero `--loss` moves its degraded point.
                protect_config.loss_points = vec![0.0];
                if config.ambient_loss > 0.0 {
                    protect_config.loss_points.push(config.ambient_loss);
                }
            }
            "--scenarios" => {
                config.scenarios = value("--scenarios")?
                    .parse()
                    .map_err(|e| format!("--scenarios: {e}"))?;
                protect_config.scenarios_per_cell = config.scenarios;
                hierarchy_config.scenarios = config.scenarios;
            }
            "--nodes" => {
                config.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?;
                protect_config.nodes = config.nodes;
            }
            "--group" => {
                config.group_size = value("--group")?
                    .parse()
                    .map_err(|e| format!("--group: {e}"))?;
                protect_config.group_size = config.group_size;
            }
            "--groups" => {
                config.groups = value("--groups")?
                    .parse()
                    .map_err(|e| format!("--groups: {e}"))?;
                if config.groups == 0 {
                    return Err("--groups expects at least 1 session".into());
                }
            }
            "--seed" => {
                let raw = value("--seed")?;
                config.base_seed = raw
                    .strip_prefix("0x")
                    .map_or_else(|| raw.parse(), |hex| u64::from_str_radix(hex, 16))
                    .map_err(|e| format!("--seed: {e}"))?;
                protect_config.base_seed = config.base_seed;
                hierarchy_config.base_seed = config.base_seed;
            }
            "--jobs" => {
                jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--out" => {
                out = Some(value("--out")?.into());
            }
            other => return Err(format!("unknown argument {other}")),
        }
        seen.push(arg);
    }
    check_mode(&seen)?;
    Ok(Args {
        config,
        protect_config,
        hierarchy_config,
        jobs,
        protect,
        hierarchy,
        dump_trace,
        out: out.unwrap_or_else(|| {
            results_dir().join(if protect {
                "faultlab-protect.json"
            } else if hierarchy {
                "faultlab-hierarchy.json"
            } else {
                "faultlab.json"
            })
        }),
    })
}

/// The flags that pick a mode other than the default campaign.
const MODE_FLAGS: [&str; 4] = [
    "--protect",
    "--protect-smoke",
    "--hierarchy",
    "--dump-trace",
];

/// The flags `mode` reads (`None` is the default campaign).
fn flags_read_by(mode: Option<&str>) -> &'static [&'static str] {
    match mode {
        None => &[
            "--smoke",
            "--smoke-lossy",
            "--smoke-multi",
            "--loss",
            "--scenarios",
            "--nodes",
            "--group",
            "--groups",
            "--seed",
            "--jobs",
            "--out",
        ],
        Some("--protect" | "--protect-smoke") => &[
            "--protect",
            "--protect-smoke",
            "--loss",
            "--scenarios",
            "--nodes",
            "--group",
            "--seed",
            "--jobs",
            "--out",
        ],
        Some("--hierarchy") => &[
            "--hierarchy",
            "--levels",
            "--population",
            "--scenarios",
            "--seed",
            "--jobs",
            "--out",
        ],
        Some(_) => &["--dump-trace", "--jobs"],
    }
}

/// Rejects a second mode and any flag the chosen mode would silently
/// ignore, naming the first such flag.
fn check_mode(seen: &[String]) -> Result<(), String> {
    let mode = seen
        .iter()
        .map(String::as_str)
        .find(|f| MODE_FLAGS.contains(f));
    let reads = flags_read_by(mode);
    match (seen.iter().find(|f| !reads.contains(&f.as_str())), mode) {
        (None, _) => Ok(()),
        (Some(flag), Some(mode)) if MODE_FLAGS.contains(&flag.as_str()) => Err(format!(
            "{flag} and {mode} select different modes; pick one"
        )),
        (Some(flag), Some(mode)) => Err(format!("{flag} has no effect with {mode}")),
        (Some(flag), None) => Err(format!("{flag} has no effect on a campaign run")),
    }
}

fn write_out(out: &std::path::Path, json: String) -> Result<(), ExitCode> {
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("faultlab: could not create {}: {e}", dir.display());
                return Err(ExitCode::from(2));
            }
        }
    }
    if let Err(e) = std::fs::write(out, json + "\n") {
        eprintln!("faultlab: could not write {}: {e}", out.display());
        return Err(ExitCode::from(2));
    }
    println!("wrote {}", out.display());
    Ok(())
}

fn report_failures(report: &CampaignReport, out: &std::path::Path) {
    for repro in &report.reproducers {
        eprintln!(
            "violation: case {} ({}, seed {:#x}) under {}: {:?}",
            repro.case.id, repro.case.family, repro.case.seed, repro.proto, repro.violations
        );
    }
    if !report.is_clean() {
        eprintln!(
            "faultlab: {} invariant violations — reproducers are in {}",
            report.total_violations,
            out.display()
        );
    }
    if report.clear_channel_exhaustions() > 0 {
        eprintln!(
            "faultlab: {} retry-budget exhaustions outside gray-link cases — \
             the reliable layer gave up on reachable neighbors",
            report.clear_channel_exhaustions()
        );
    }
}

/// Runs the protection-vs-restoration sweep and prints its synopsis.
fn protect_report(args: &Args) -> Result<ProtectReport, ExitCode> {
    let started = std::time::Instant::now();
    let run = match run_protect(&args.protect_config, args.jobs) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("faultlab: protection sweep failed: {e}");
            return Err(ExitCode::from(2));
        }
    };
    let report = ProtectReport::from_run(&run);
    print!("{}", report.synopsis());
    println!(
        "  ({:.2}s on {} jobs)",
        started.elapsed().as_secs_f64(),
        args.jobs
    );
    Ok(report)
}

/// The `--protect` gate: the sweep must be healthy *and* activation must
/// strictly beat search at every loss point.
fn protect_gate(report: &ProtectReport) -> bool {
    if !report.is_healthy() {
        eprintln!("faultlab: protection sweep is unhealthy");
        return false;
    }
    if !report.protection_wins() {
        eprintln!(
            "faultlab: precomputed activation did not strictly beat on-demand \
             search at every loss point"
        );
        return false;
    }
    true
}

/// The `--protect` path: the protection sweep alone, written as its own
/// artifact.
fn run_protect_cli(args: &Args) -> ExitCode {
    let report = match protect_report(args) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let json = report.to_json();
    if let Err(code) = write_out(&args.out, json) {
        return code;
    }
    if protect_gate(&report) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--hierarchy` path: one wire-level N-level campaign, gated on the
/// DomainLocality verdict.
fn run_hierarchy_cli(args: &Args) -> ExitCode {
    let started = std::time::Instant::now();
    let run = match run_hierarchy(&args.hierarchy_config, args.jobs) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("faultlab: hierarchy campaign failed: {e}");
            return ExitCode::from(2);
        }
    };
    let report = HierarchyReport::from_run(&run);
    print!("{}", report.synopsis());
    println!(
        "  ({:.2}s on {} jobs)",
        started.elapsed().as_secs_f64(),
        args.jobs
    );
    if let Err(code) = write_out(&args.out, report.to_json()) {
        return code;
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "faultlab: hierarchy campaign is not clean — {} border crossings, \
             {} unaudited cases, {} members never restored",
            report.locality.border_crossings,
            report.locality.cases_unaudited,
            report
                .outcomes
                .get("detection-missed")
                .copied()
                .unwrap_or(0),
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("faultlab: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(dir) = &args.dump_trace {
        return match smrp_faultlab::dump_traces(dir, args.jobs) {
            Ok(paths) => {
                for p in &paths {
                    println!("wrote {}", p.display());
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("faultlab: trace dump failed: {e}");
                ExitCode::from(2)
            }
        };
    }
    if args.protect {
        return run_protect_cli(&args);
    }
    if args.hierarchy {
        return run_hierarchy_cli(&args);
    }

    let started = std::time::Instant::now();
    let run = match run_campaign(&args.config, args.jobs) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("faultlab: campaign failed: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed();
    let report = CampaignReport::from_run(&run);

    // Timing goes to the terminal only; the report file stays byte-stable.
    print!("{}", report.synopsis());
    println!(
        "  {} cases in {:.2}s on {} jobs ({:.1} cases/s)",
        report.cases,
        elapsed.as_secs_f64(),
        args.jobs,
        f64::from(report.cases) / elapsed.as_secs_f64().max(1e-9)
    );

    if let Err(code) = write_out(&args.out, report.to_json()) {
        return code;
    }

    if report.is_healthy() {
        ExitCode::SUCCESS
    } else {
        report_failures(&report, &args.out);
        ExitCode::FAILURE
    }
}
