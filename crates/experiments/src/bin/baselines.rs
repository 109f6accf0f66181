//! Runs the `baselines` extension experiment.
//!
//! Usage: `cargo run -p smrp-experiments --release --bin baselines [--quick]`

use smrp_experiments::{cli, Effort};

fn main() {
    cli::baselines(Effort::from_args());
}
