//! Message-level protocol trace: watch the soft-state machinery, the
//! heartbeat failure detection and the local-detour graft happen packet by
//! packet on the Figure 1 topology.
//!
//! Run with: `cargo run --example protocol_trace`

use smrp_repro::core::paper;
use smrp_repro::net::FailureScenario;
use smrp_repro::proto::{FailureSpec, ProtoSession, RecoveryStrategy, TreeProtocol};
use smrp_repro::sim::SimTime;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (graph, nodes) = paper::figure1_graph();
    let session = ProtoSession::build(&graph, nodes.s, &[nodes.c, nodes.d], TreeProtocol::Spf)
        .map_err(|e| format!("session failed to build: {e}"))?;

    println!("Figure 1 topology; tree S->A->{{C,D}}, members C (n3) and D (n4).");
    println!("failing L_AD at t = 100 ms; SMRP recovers D through C.\n");

    let l_ad = graph.link_between(nodes.a, nodes.d).expect("figure link");
    let scenario = FailureScenario::link(l_ad);

    let report = session.run(&FailureSpec::persistent(
        &scenario,
        RecoveryStrategy::LocalDetour,
        SimTime::from_ms(100.0),
        SimTime::from_ms(400.0),
    ));
    // One session is one group of the run.
    let local = &report.groups[0];

    for (member, latency) in &local.restorations {
        match latency {
            Some(t) => println!(
                "member {member}: service restored {:.1} ms after the cut",
                t.as_ms()
            ),
            None => println!("member {member}: service NOT restored"),
        }
    }
    println!("unaffected members kept receiving: {:?}", local.unaffected);
    println!(
        "{} messages delivered, {} dropped on the failed component",
        report.messages_delivered, report.messages_dropped
    );

    // Same failure, baseline recovery: the re-join must wait out OSPF
    // reconvergence (30 s modelled), so the session stalls for ~300x longer.
    let baseline = session.run(&FailureSpec::persistent(
        &scenario,
        RecoveryStrategy::GlobalDetour {
            reconvergence: SimTime::from_ms(30_000.0),
        },
        SimTime::from_ms(100.0),
        SimTime::from_ms(40_000.0),
    ));
    if let Some((member, Some(t))) = baseline.groups[0].restorations.first() {
        println!(
            "\nbaseline (PIM over OSPF): member {member} waits {:.0} ms — \
             the local detour was {:.0}x faster",
            t.as_ms(),
            t.as_ms()
                / local.restorations[0]
                    .1
                    .map(|l| l.as_ms())
                    .unwrap_or(f64::INFINITY)
        );
    }
    Ok(())
}
