//! Runs the `realnet` extension experiment.
//!
//! Usage: `cargo run -p smrp-experiments --release --bin realnet [--quick]`

use smrp_experiments::{cli, Effort};

fn main() {
    cli::realnet(Effort::from_args());
}
