//! Regenerates Figure 7: local vs global detour recovery-distance scatter.
//!
//! Usage: `cargo run -p smrp-experiments --release --bin fig7 [--quick]`

use smrp_experiments::{cli, Effort};

fn main() {
    cli::fig7(Effort::from_args());
}
