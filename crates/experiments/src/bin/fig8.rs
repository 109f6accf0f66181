//! Regenerates Figure 8: the effect of `D_thresh`.
//!
//! Usage: `cargo run -p smrp-experiments --release --bin fig8 [--quick]`

use smrp_experiments::{cli, Effort};

fn main() {
    cli::fig8(Effort::from_args());
}
