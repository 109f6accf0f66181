//! Runs the node-failure (router crash) extension experiment.
//!
//! Usage: `cargo run -p smrp-experiments --release --bin node_failures [--quick]`

use smrp_experiments::{cli, Effort};

fn main() {
    cli::node_failures(Effort::from_args());
}
