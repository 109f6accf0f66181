//! Runs the `overhead` extension experiment.
//!
//! Usage: `cargo run -p smrp-experiments --release --bin overhead [--quick]`

use smrp_experiments::{cli, Effort};

fn main() {
    cli::overhead(Effort::from_args());
}
