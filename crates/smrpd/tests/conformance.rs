//! Golden-trace conformance: the daemon must reproduce the simulator.
//!
//! Each committed trace under `tests/golden/` carries the final
//! tree/outcome state (and its digest) that the deterministic simulator
//! produced for a scripted scenario. Replaying the scenario through the
//! daemon — real threads, wall-clock timers, actual datagrams — must
//! converge to a digest-identical state over *both* transports. The
//! digest is deliberately timing-free (tree shape + restored/stranded
//! sets), so thread scheduling and wire jitter cannot excuse a
//! divergence: a mismatch means the daemon's protocol behavior drifted
//! from the engine's.

use std::path::{Path, PathBuf};

use smrp_faultlab::GoldenTrace;
use smrpd::daemon::{replay, ReplayOptions, TransportKind};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn load(name: &str) -> GoldenTrace {
    let path = golden_dir().join(format!("{name}.json"));
    GoldenTrace::load(&path).unwrap_or_else(|e| {
        panic!(
            "loading {}: {e} — regenerate with \
             `cargo run --bin faultlab -- --dump-trace crates/smrpd/tests/golden`",
            path.display()
        )
    })
}

fn assert_conformant(name: &str, transport: TransportKind) {
    let trace = load(name);
    let outcome = replay(
        &trace,
        &ReplayOptions {
            transport,
            ..ReplayOptions::default()
        },
    )
    .expect("replay runs");
    assert!(
        outcome.matches(),
        "{name} over {transport:?} diverged from the simulator:\n\
         daemon digest   {}\n\
         sim digest      {}\n\
         daemon state: {:#?}",
        outcome.digest,
        outcome.expected_digest,
        outcome.state,
    );
}

#[test]
fn figure1_over_channels_matches_the_sim() {
    assert_conformant("figure1", TransportKind::Channel);
}

#[test]
fn figure1_over_udp_matches_the_sim() {
    assert_conformant("figure1", TransportKind::Udp);
}

#[test]
fn shared_fate_srlg_over_channels_matches_the_sim() {
    assert_conformant("shared_fate_srlg", TransportKind::Channel);
}

#[test]
fn shared_fate_srlg_over_udp_matches_the_sim() {
    assert_conformant("shared_fate_srlg", TransportKind::Udp);
}

#[test]
fn lossy_figure1_over_channels_matches_the_sim() {
    assert_conformant("figure1_lossy", TransportKind::Channel);
}

#[test]
fn lossy_figure1_over_udp_matches_the_sim() {
    assert_conformant("figure1_lossy", TransportKind::Udp);
}

#[test]
fn transient_node_figure1_over_channels_matches_the_sim() {
    assert_conformant("figure1_node_transient", TransportKind::Channel);
}

#[test]
fn transient_node_figure1_over_udp_matches_the_sim() {
    assert_conformant("figure1_node_transient", TransportKind::Udp);
}

#[test]
fn divergence_is_actually_detectable() {
    // Sanity for the harness itself: a tampered expectation must fail,
    // otherwise "8 conformant replays" proves nothing.
    let mut trace = load("figure1");
    trace.expected_digest = "0000000000000000".into();
    let outcome = replay(&trace, &ReplayOptions::default()).expect("replay runs");
    assert!(!outcome.matches());
}
