//! The 2-level hierarchical recovery architecture of §3.3.3 (Figure 6):
//! stub recovery domains with agents, failure attribution, and in-domain
//! repair on a transit-stub topology (a depth-2 N-level hierarchy whose
//! root is the transit domain and whose leaves are the stubs).
//!
//! Run with: `cargo run --example hierarchical_recovery`

use smrp_repro::core::SmrpConfig;
use smrp_repro::net::transit_stub::TransitStubConfig;
use smrp_repro::proto::hierarchy::NLevelSession;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = TransitStubConfig::new()
        .transit_nodes(4)
        .stubs_per_transit_node(2)
        .stub_nodes(8)
        .extra_edge_prob(0.5)
        .seed(11)
        .generate()?;
    println!(
        "transit-stub topology: {} nodes ({} transit, {} stub domains)",
        topo.graph().node_count(),
        topo.root().nodes().len(),
        topo.leaf_domains().count()
    );

    // The source lives in the first stub; members spread over three stubs.
    let stubs: Vec<_> = topo.leaf_domains().collect();
    let source = stubs[0].nodes()[0];
    let members = vec![
        stubs[0].nodes()[3],
        stubs[2].nodes()[1],
        stubs[2].nodes()[5],
        stubs[4].nodes()[2],
    ];
    // Two levels of recovery domains: the transit domain is the root, the
    // stubs are its children.
    let transit = topo.root().id();
    let session = NLevelSession::build(&topo, source, &members, SmrpConfig::default())
        .map_err(|e| format!("hierarchy failed to build: {e}"))?;
    println!("source {source}, members {members:?}\n");

    // Walk over every link; show where failures land and how they are
    // repaired without leaving their domain.
    let mut shown_stub = false;
    let mut shown_transit = false;
    for link in topo.graph().link_ids() {
        let Ok(rec) = session.recover(link) else {
            continue;
        };
        if rec.affected_members.is_empty() {
            continue;
        }
        match rec.owner {
            d if d != transit && !shown_stub => {
                shown_stub = true;
                println!(
                    "link {link} fails inside stub domain {d}: {} member(s) disrupted, \
                     repaired with RD {:.1} entirely inside the domain ({} restoration \
                     path(s))",
                    rec.affected_members.len(),
                    rec.recovery_distance,
                    rec.restoration_paths.len()
                );
            }
            d if d == transit && !shown_transit => {
                shown_transit = true;
                println!(
                    "link {link} fails at transit level: agents re-route inside the \
                     transit domain (RD {:.1}), downstream stubs are untouched",
                    rec.recovery_distance
                );
            }
            _ => {}
        }
        if shown_stub && shown_transit {
            break;
        }
    }

    println!(
        "\nas §3.3.3 puts it: \"any node/link failure inside a recovery domain is \
         handled by that domain\" — no repair crossed a domain boundary."
    );
    Ok(())
}
