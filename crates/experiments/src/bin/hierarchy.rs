//! Runs the hierarchical recovery confinement experiment (§3.3.3).
//!
//! Usage: `cargo run -p smrp-experiments --release --bin hierarchy [--quick]`

use smrp_experiments::{cli, Effort};

fn main() {
    cli::hierarchy(Effort::from_args());
}
