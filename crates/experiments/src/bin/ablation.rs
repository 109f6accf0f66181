//! Runs the design-choice ablations (reshaping, query scheme, thresholds).
//!
//! Usage: `cargo run -p smrp-experiments --release --bin ablation [--quick]`

use smrp_experiments::{cli, Effort};

fn main() {
    cli::ablation(Effort::from_args());
}
