//! Runs the `proactive` extension experiment.
//!
//! Usage: `cargo run -p smrp-experiments --release --bin proactive [--quick]`

use smrp_experiments::{cli, Effort};

fn main() {
    cli::proactive(Effort::from_args());
}
