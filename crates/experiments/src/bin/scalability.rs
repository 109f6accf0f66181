//! Runs the network-size scalability sweep.
//!
//! Usage: `cargo run -p smrp-experiments --release --bin scalability [--quick]`

use smrp_experiments::{cli, Effort};

fn main() {
    cli::scalability(Effort::from_args());
}
