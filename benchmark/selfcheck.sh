#!/usr/bin/env bash
# The "two sets of runs agree" gate: runs every workload (three times
# untraced, once traced) twice on one build and compares the two sets.
# Medians of host-time end-to-end metrics must agree within their bounds,
# sim-time metrics and counts must be identical in every run, and no
# operation may fail. Takes about 17 minutes.
#
# usage: benchmark/selfcheck.sh [output-dir]   (from anywhere in the repo)
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
out="${1:-$target/selfcheck}"
mkdir -p "$out"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="$target/release/smrp-benchmark"
"$bin" --all --reps 3 --out "$out/a.json"
"$bin" --all --reps 3 --out "$out/b.json"
"$bin" --compare "$out/a.json" "$out/b.json"
