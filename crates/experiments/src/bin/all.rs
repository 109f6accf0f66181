//! Runs every experiment in sequence (the full evaluation of the paper):
//! the same blocks and artifacts as the 14 figure binaries, in order.
//!
//! Usage: `cargo run -p smrp-experiments --release --bin all [--quick]`

use smrp_experiments::{cli, Effort};

fn main() {
    let effort = Effort::from_args();
    for (i, experiment) in cli::ALL.iter().enumerate() {
        if i > 0 {
            println!();
        }
        experiment(effort);
    }
}
