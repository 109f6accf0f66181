//! Regenerates Figure 10: the effect of group size `N_G`.
//!
//! Usage: `cargo run -p smrp-experiments --release --bin fig10 [--quick]`

use smrp_experiments::{cli, Effort};

fn main() {
    cli::fig10(Effort::from_args());
}
