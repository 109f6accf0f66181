//! Regenerates Figure 9: the effect of `α` (average node degree), plus the
//! §4.3.3 degree-10 text claim.
//!
//! Usage: `cargo run -p smrp-experiments --release --bin fig9 [--quick]`

use smrp_experiments::{cli, Effort};

fn main() {
    cli::fig9(Effort::from_args());
}
