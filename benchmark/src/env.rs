//! The environment stamp written into every output file: which code,
//! which compiler, which machine, when.

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use serde_json::Value;

use crate::json::obj;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn or_unknown(value: Option<String>) -> Value {
    Value::Str(value.unwrap_or_else(|| "unknown".to_string()))
}

/// Git revision and dirty flag, compiler, cores, CPU model, start time.
/// Outside a git checkout the revision reads "unknown".
pub fn stamp() -> Value {
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    obj(vec![
        (
            "git_rev",
            or_unknown(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("git_dirty", dirty.map_or(Value::Null, Value::Bool)),
        ("rustc", or_unknown(command_line("rustc", &["--version"]))),
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu_model", or_unknown(cpu_model())),
        (
            "start_unix_s",
            Value::U64(
                SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map_or(0, |d| d.as_secs()),
            ),
        ),
    ])
}
