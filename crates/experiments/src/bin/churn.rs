//! Runs the membership-churn / reshaping-value experiment (§3.2.3).
//!
//! Usage: `cargo run -p smrp-experiments --release --bin churn [--quick]`

use smrp_experiments::{cli, Effort};

fn main() {
    cli::churn(Effort::from_args());
}
