//! Serialization round-trips for the data-structure types (C-SERDE).
//!
//! Graphs, trees, failure scenarios and statistics all derive
//! `Serialize`/`Deserialize` so experiment state can be archived; these
//! tests pin the round-trip behavior.

use smrp_repro::core::{MulticastTree, SmrpConfig, SmrpSession};
use smrp_repro::experiments::ConfidenceInterval;
use smrp_repro::metrics::Stats;
use smrp_repro::net::waxman::WaxmanConfig;
use smrp_repro::net::{FailureScenario, Graph};

fn sample_graph() -> Graph {
    WaxmanConfig::new(30)
        .alpha(0.3)
        .seed(77)
        .generate()
        .expect("valid settings")
        .into_graph()
}

#[test]
fn graph_round_trips_through_json() {
    let g = sample_graph();
    let text = serde_json::to_string(&g).unwrap();
    let back: Graph = serde_json::from_str(&text).unwrap();
    assert_eq!(back.node_count(), g.node_count());
    assert_eq!(back.link_count(), g.link_count());
    for l in g.link_ids() {
        assert_eq!(back.link(l).endpoints(), g.link(l).endpoints());
        assert_eq!(back.link(l).delay(), g.link(l).delay());
        assert_eq!(back.link(l).cost(), g.link(l).cost());
    }
    for n in g.node_ids() {
        assert_eq!(back.position(n), g.position(n));
        assert_eq!(back.degree(n), g.degree(n));
    }
}

#[test]
fn tree_round_trips_and_still_validates() {
    let g = sample_graph();
    let source = g.node_ids().next().unwrap();
    let mut sess = SmrpSession::new(&g, source, SmrpConfig::default()).unwrap();
    for m in g.node_ids().skip(3).step_by(4).take(6) {
        sess.join(m).unwrap();
    }
    let tree = sess.tree();
    let text = serde_json::to_string(tree).unwrap();
    let back: MulticastTree = serde_json::from_str(&text).unwrap();
    assert_eq!(back, *tree);
    back.validate(&g).unwrap();
    assert_eq!(back.member_count(), tree.member_count());
    for m in tree.members() {
        assert_eq!(back.shr(m), tree.shr(m));
    }
}

#[test]
fn failure_scenario_round_trips() {
    let g = sample_graph();
    let mut s = FailureScenario::none();
    s.fail_link(g.link_ids().next().unwrap());
    s.fail_node(g.node_ids().nth(3).unwrap());
    let text = serde_json::to_string(&s).unwrap();
    let back: FailureScenario = serde_json::from_str(&text).unwrap();
    assert_eq!(back, s);
}

#[test]
fn stats_and_ci_round_trip() {
    let stats: Stats = (0..40).map(|i| (i % 9) as f64).collect();
    let text = serde_json::to_string(&stats).unwrap();
    let back: Stats = serde_json::from_str(&text).unwrap();
    assert_eq!(back, stats);

    let ci = ConfidenceInterval::from_stats(&stats);
    let text = serde_json::to_string(&ci).unwrap();
    let back: ConfidenceInterval = serde_json::from_str(&text).unwrap();
    assert_eq!(back, ci);
}
