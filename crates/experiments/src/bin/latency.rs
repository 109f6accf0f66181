//! Runs the protocol-level restoration-latency comparison (§1 motivation).
//!
//! Usage: `cargo run -p smrp-experiments --release --bin latency [--quick]`

use smrp_experiments::{cli, Effort};

fn main() {
    cli::latency(Effort::from_args());
}
