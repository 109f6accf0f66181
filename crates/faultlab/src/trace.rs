//! Golden scenario traces: scripted failure experiments exported as
//! self-contained JSON files, with the sim's converged outcome embedded.
//!
//! A golden trace captures everything a *different host* of the protocol
//! needs to replay one scenario — topology, per-group preloaded tree
//! state, installed recovery plans, the failure schedule, the channel's
//! loss parameters and the run horizon — plus the digest of the final
//! state the simulator converged to. The `smrpd` daemon replays traces
//! over real transports and asserts digest identity
//! ([`smrp_proto::SessionState`]), making the sim the model checker for
//! the deployable artifact. The files are also handy standalone: a
//! minimal, human-readable reproducer of one scripted experiment.
//!
//! Determinism matters: `faultlab --dump-trace <dir>` must emit
//! byte-identical files regardless of `--jobs`, so trace generation goes
//! through the same ordered parallel map as the campaign runners.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use smrp_core::paper;
use smrp_core::recovery::{self, DetourKind};
use smrp_net::{FailureScenario, Graph, LinkWeights, NodeId};
use smrp_proto::snapshot::{AffectedGroup, SessionState};
use smrp_proto::{
    FailureSpec, MultiSession, ProtoSession, RecoveryStrategy, RouterConfig, TreeProtocol,
};
use smrp_sim::{ChannelSpec, SimTime, TraceLog};

use crate::par::ordered_par_map;

/// Version of the trace file format.
///
/// History: v1 had no per-plan `path_delay_ns`; v2 carries it so a
/// replaying host can restore the full `PlanConfirm` window instead of
/// falling back to the detection-horizon floor. v1 files still load,
/// with the delay defaulting to zero.
pub const TRACE_VERSION: u32 = 2;

/// One link of the trace's topology. Link ids are implicit: the link at
/// list index `i` is `LinkId(i)` of the rebuilt graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceLink {
    /// Lower endpoint.
    pub a: u32,
    /// Higher endpoint.
    pub b: u32,
    /// Propagation delay.
    pub delay: f64,
    /// Tree-construction cost.
    pub cost: f64,
}

/// One node's preloaded tree state within a group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceNodeState {
    /// The node.
    pub node: u32,
    /// Upstream (parent) interface, `None` at the source.
    pub upstream: Option<u32>,
    /// Downstream (child) interfaces.
    pub downstream: Vec<u32>,
    /// Whether the node is a member (receiver).
    pub member: bool,
    /// The node's `SHR(S, R)` on the initial tree, for introspection and
    /// query-join responses.
    pub shr: u32,
}

/// One member's precomputed recovery plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracePlan {
    /// The disconnected member the plan belongs to.
    pub member: u32,
    /// Restoration path, member first, attach point last.
    pub path: Vec<u32>,
    /// Delay before pushing the graft (zero for local detour).
    pub wait_ns: u64,
    /// One-way propagation delay of the restoration path. Sizes the
    /// replaying host's `PlanConfirm` window exactly as the simulator's
    /// (`2 × detection horizon + 2 × path delay`); zero — the v1 reading —
    /// shrinks the window to its detection-horizon floor.
    pub path_delay_ns: u64,
}

/// One multicast group of the scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceGroup {
    /// The group id.
    pub group: u32,
    /// The source node.
    pub source: u32,
    /// The member set.
    pub members: Vec<u32>,
    /// Initial tree state, one entry per on-tree node, ascending.
    pub nodes: Vec<TraceNodeState>,
    /// Recovery plans to install before the run.
    pub plans: Vec<TracePlan>,
    /// Members the scripted failure disconnects (the restoration
    /// denominator).
    pub affected: Vec<u32>,
}

/// The scripted failure: what breaks, when, and whether it heals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceFailure {
    /// Indices into [`GoldenTrace::links`] of links that fail.
    pub links: Vec<u32>,
    /// Nodes that fail.
    pub nodes: Vec<u32>,
    /// Injection instant, nanoseconds on the protocol timeline.
    pub fail_at_ns: u64,
    /// Repair instant; `None` means the failure is persistent.
    pub repair_at_ns: Option<u64>,
}

/// The control channel's degradation parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceChannel {
    /// Uniform per-transmission loss probability (0 = perfect).
    pub loss: f64,
    /// Seed of the loss process.
    pub seed: u64,
}

/// A complete golden scenario: scripted inputs plus the sim's expected
/// outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenTrace {
    /// Trace format version ([`TRACE_VERSION`]).
    pub version: u32,
    /// Scenario name (doubles as the dump's file stem).
    pub name: String,
    /// Node count of the topology.
    pub nodes: u32,
    /// Topology links; index = link id.
    pub links: Vec<TraceLink>,
    /// The hosted groups.
    pub groups: Vec<TraceGroup>,
    /// The failure schedule.
    pub failure: TraceFailure,
    /// The channel's degradation parameters.
    pub channel: TraceChannel,
    /// Run horizon, nanoseconds: capture happens here.
    pub horizon_ns: u64,
    /// The simulator's converged final state.
    pub expected: SessionState,
    /// Digest of `expected` — what a conforming replay must reproduce.
    pub expected_digest: String,
}

impl GoldenTrace {
    /// Rebuilds the topology. Link ids come out equal to list indices.
    ///
    /// # Panics
    ///
    /// Panics if the trace's link list is not a valid graph (self loops,
    /// duplicate links, out-of-range endpoints).
    pub fn graph(&self) -> Graph {
        let mut g = Graph::with_nodes(self.nodes as usize);
        for l in &self.links {
            g.add_link_weighted(
                NodeId::new(l.a as usize),
                NodeId::new(l.b as usize),
                LinkWeights {
                    delay: l.delay,
                    cost: l.cost,
                },
            )
            .expect("golden trace carries a valid topology");
        }
        g
    }

    /// The failure scenario in `smrp-net` terms.
    pub fn scenario(&self) -> FailureScenario {
        let mut s = FailureScenario::none();
        for &l in &self.failure.links {
            s.fail_link(smrp_net::LinkId::new(l as usize));
        }
        for &n in &self.failure.nodes {
            s.fail_node(NodeId::new(n as usize));
        }
        s
    }

    /// The per-group affected-member lists in snapshot terms.
    pub fn affected(&self) -> Vec<AffectedGroup> {
        self.groups
            .iter()
            .map(|g| AffectedGroup {
                group: g.group,
                affected: g.affected.clone(),
            })
            .collect()
    }

    /// Nodes that fail and never heal — excluded from state capture.
    pub fn down_nodes(&self) -> BTreeSet<NodeId> {
        if self.failure.repair_at_ns.is_some() {
            BTreeSet::new()
        } else {
            self.failure
                .nodes
                .iter()
                .map(|&n| NodeId::new(n as usize))
                .collect()
        }
    }

    /// Serializes to the canonical JSON representation (stable field
    /// order, so equal traces are byte-equal).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("trace serializes");
        s.push('\n');
        s
    }

    /// Parses a trace from JSON, rejecting unknown format versions.
    ///
    /// Older versions are upgraded in place: a v1 file loads with every
    /// plan's `path_delay_ns` defaulting to zero, and the returned trace
    /// reports the current [`TRACE_VERSION`].
    ///
    /// # Errors
    ///
    /// Returns an error string for malformed JSON or a version newer than
    /// this reader.
    pub fn from_json(json: &str) -> Result<GoldenTrace, String> {
        let mut value: serde::Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let version = value
            .get("version")
            .and_then(serde::Value::as_u64)
            .unwrap_or(0) as u32;
        if version == 0 || version > TRACE_VERSION {
            return Err(format!(
                "unsupported trace version {version} (expected 1..={TRACE_VERSION})"
            ));
        }
        if version < 2 {
            upgrade_v1_plans(&mut value);
        }
        let mut trace = GoldenTrace::deserialize(&value).map_err(|e| e.to_string())?;
        trace.version = TRACE_VERSION;
        Ok(trace)
    }

    /// Reads a trace file.
    ///
    /// # Errors
    ///
    /// I/O errors pass through; parse failures surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> io::Result<GoldenTrace> {
        let json = std::fs::read_to_string(path)?;
        GoldenTrace::from_json(&json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// In-place v1 → v2 upgrade: every plan map gains `path_delay_ns: 0`
/// (v1 writers never knew the path delay, so the detection-horizon floor
/// is the only faithful reading).
fn upgrade_v1_plans(value: &mut serde::Value) {
    use serde::Value;
    fn entry_mut<'v>(v: &'v mut Value, key: &str) -> Option<&'v mut Value> {
        match v {
            Value::Map(entries) => entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    let Some(Value::Seq(groups)) = entry_mut(value, "groups") else {
        return;
    };
    for group in groups {
        let Some(Value::Seq(plans)) = entry_mut(group, "plans") else {
            continue;
        };
        for plan in plans {
            if let Value::Map(entries) = plan {
                if !entries.iter().any(|(k, _)| k == "path_delay_ns") {
                    entries.push(("path_delay_ns".to_string(), Value::U64(0)));
                }
            }
        }
    }
}

/// A scripted scenario: the inputs [`build_trace`] turns into a
/// [`GoldenTrace`] by running the simulator.
struct Script {
    name: &'static str,
    graph: Graph,
    /// `(source, members)` per group.
    sessions: Vec<(NodeId, Vec<NodeId>)>,
    scenario: FailureScenario,
    channel: TraceChannel,
    fail_at: SimTime,
    horizon: SimTime,
}

/// The committed golden scenario scripts, in dump order.
fn scripts() -> Vec<Script> {
    let mut out = Vec::new();

    // 1. The paper's Figure 1: SPF tree S → {C, D}, cut A–D, local-detour
    // recovery in tens of milliseconds.
    {
        let (graph, nodes) = paper::figure1_graph();
        let scenario =
            FailureScenario::link(graph.link_between(nodes.a, nodes.d).expect("A–D exists"));
        out.push(Script {
            name: "figure1",
            graph,
            sessions: vec![(nodes.s, vec![nodes.c, nodes.d])],
            scenario,
            channel: TraceChannel { loss: 0.0, seed: 0 },
            fail_at: SimTime::from_ms(100.0),
            horizon: SimTime::from_ms(3000.0),
        });
    }

    // 2. Shared-fate SRLG: two sessions whose trees ride one conduit; the
    // conduit fails wholesale and both groups detour through the same
    // surviving relay (the topology of `tests/shared_fate.rs`).
    {
        let mut g = Graph::with_nodes(7);
        let n: Vec<NodeId> = g.node_ids().collect();
        let [s0, s1, x, y, m0, m1, d] = [n[0], n[1], n[2], n[3], n[4], n[5], n[6]];
        g.add_link(s0, x, 1.0).unwrap();
        g.add_link(s1, x, 1.0).unwrap();
        g.add_link(x, y, 1.0).unwrap();
        g.add_link(y, m0, 1.0).unwrap();
        g.add_link(y, m1, 1.0).unwrap();
        g.add_link(d, x, 1.0).unwrap();
        g.add_link(d, m0, 2.0).unwrap();
        g.add_link(d, m1, 2.0).unwrap();
        let srlg = [
            g.link_between(y, m0).unwrap(),
            g.link_between(y, m1).unwrap(),
        ];
        out.push(Script {
            name: "shared_fate_srlg",
            graph: g,
            sessions: vec![(s0, vec![m0]), (s1, vec![m1])],
            scenario: FailureScenario::links(srlg),
            channel: TraceChannel { loss: 0.0, seed: 0 },
            fail_at: SimTime::from_ms(100.0),
            horizon: SimTime::from_ms(3000.0),
        });
    }

    // 3. Figure 1 under a lossy control channel: same cut, 10% uniform
    // loss; the reliable layer must carry the recovery anyway.
    {
        let (graph, nodes) = paper::figure1_graph();
        let scenario =
            FailureScenario::link(graph.link_between(nodes.a, nodes.d).expect("A–D exists"));
        out.push(Script {
            name: "figure1_lossy",
            graph,
            sessions: vec![(nodes.s, vec![nodes.c, nodes.d])],
            scenario,
            channel: TraceChannel {
                loss: 0.10,
                seed: 0xC0FFEE,
            },
            fail_at: SimTime::from_ms(100.0),
            horizon: SimTime::from_ms(3000.0),
        });
    }

    out
}

/// Runs one script through the simulator and packages the result.
fn build_trace(script: &Script) -> GoldenTrace {
    let Script {
        name,
        graph,
        sessions,
        scenario,
        channel,
        fail_at,
        horizon,
    } = script;

    let multi = MultiSession::from_sessions(
        sessions
            .iter()
            .map(|(source, members)| {
                ProtoSession::build(graph, *source, members, TreeProtocol::Spf)
                    .expect("scripted session builds")
            })
            .collect(),
    );

    let spec = FailureSpec {
        channel: if channel.loss > 0.0 {
            ChannelSpec::uniform_loss(channel.loss, channel.seed)
        } else {
            ChannelSpec::perfect()
        },
        ..FailureSpec::persistent(scenario, RecoveryStrategy::LocalDetour, *fail_at, *horizon)
    };
    let run = multi.run(&spec, TraceLog::disabled());

    let mut groups = Vec::with_capacity(multi.group_count());
    for g in multi.groups() {
        let sess = multi.session(g);
        let tree = sess.tree();
        let mut nodes: Vec<TraceNodeState> = tree
            .on_tree_nodes()
            .map(|n| {
                let mut downstream: Vec<u32> =
                    tree.children(n).iter().map(|c| c.index() as u32).collect();
                downstream.sort_unstable();
                TraceNodeState {
                    node: n.index() as u32,
                    upstream: tree.parent(n).map(|p| p.index() as u32),
                    downstream,
                    member: tree.is_member(n),
                    shr: tree.shr(n),
                }
            })
            .collect();
        nodes.sort_unstable_by_key(|s| s.node);

        let plans: Vec<TracePlan> = sess
            .plan_recoveries(scenario, DetourKind::Local)
            .recoveries
            .iter()
            .map(|rec| TracePlan {
                member: rec.member().index() as u32,
                path: rec
                    .restoration_path()
                    .nodes()
                    .iter()
                    .map(|n| n.index() as u32)
                    .collect(),
                wait_ns: 0,
                path_delay_ns: SimTime::from_ms(rec.restoration_path().delay(graph)).as_ns(),
            })
            .collect();

        let mut affected: Vec<u32> = recovery::affected_members(graph, tree, scenario)
            .iter()
            .map(|m| m.index() as u32)
            .collect();
        affected.sort_unstable();

        groups.push(TraceGroup {
            group: g.index() as u32,
            source: sess.source().index() as u32,
            members: tree.members().map(|m| m.index() as u32).collect(),
            nodes,
            plans,
            affected,
        });
    }

    let affected: Vec<AffectedGroup> = groups
        .iter()
        .map(|g| AffectedGroup {
            group: g.group,
            affected: g.affected.clone(),
        })
        .collect();
    let down: BTreeSet<NodeId> = scenario.failed_nodes().collect();
    let data_interval = RouterConfig::default().data_interval;
    let expected = SessionState::capture(
        &run.routers,
        &affected,
        &down,
        run.report.fail_at,
        data_interval,
    );
    let expected_digest = expected.digest();

    GoldenTrace {
        version: TRACE_VERSION,
        name: (*name).to_string(),
        nodes: graph.node_count() as u32,
        links: graph
            .link_ids()
            .map(|l| {
                let link = graph.link(l);
                TraceLink {
                    a: link.a().index() as u32,
                    b: link.b().index() as u32,
                    delay: link.delay(),
                    cost: link.cost(),
                }
            })
            .collect(),
        groups,
        failure: TraceFailure {
            links: scenario.failed_links().map(|l| l.index() as u32).collect(),
            nodes: scenario.failed_nodes().map(|n| n.index() as u32).collect(),
            fail_at_ns: fail_at.as_ns(),
            repair_at_ns: None,
        },
        channel: channel.clone(),
        horizon_ns: horizon.as_ns(),
        expected,
        expected_digest,
    }
}

/// Generates every golden scenario, in dump order. Deterministic: same
/// code, same traces, byte for byte.
pub fn golden_scenarios() -> Vec<GoldenTrace> {
    scripts().iter().map(build_trace).collect()
}

/// Generates every golden scenario using up to `jobs` worker threads and
/// writes one `<name>.json` per scenario into `dir` (created if absent).
///
/// Output is byte-identical regardless of `jobs` (0 is read as 1):
/// scripts run through the crate's ordered parallel map and files are
/// written sequentially, in script order.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn dump_traces(dir: &Path, jobs: usize) -> io::Result<Vec<PathBuf>> {
    let scripts = scripts();
    let traces = ordered_par_map(jobs, scripts.len(), |i| build_trace(&scripts[i]));

    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(traces.len());
    for trace in traces {
        let path = dir.join(format!("{}.json", trace.name));
        std::fs::write(&path, trace.to_json())?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_trace_round_trips_through_json() {
        let traces = golden_scenarios();
        assert_eq!(traces.len(), 3);
        let fig1 = &traces[0];
        assert_eq!(fig1.name, "figure1");
        assert_eq!(fig1.version, TRACE_VERSION);
        assert!(!fig1.expected_digest.is_empty());
        // Round trip.
        let back = GoldenTrace::from_json(&fig1.to_json()).unwrap();
        assert_eq!(&back, fig1);
        // The rebuilt graph matches the original link count, and the
        // scenario targets real links.
        let g = fig1.graph();
        assert_eq!(g.link_count(), fig1.links.len());
        assert!(!fig1.scenario().is_empty());
    }

    #[test]
    fn unknown_trace_version_is_rejected() {
        let mut trace = golden_scenarios().remove(0);
        trace.version = TRACE_VERSION + 1;
        let err = GoldenTrace::from_json(&trace.to_json()).unwrap_err();
        assert!(err.contains("unsupported trace version"), "{err}");
    }

    #[test]
    fn plans_carry_their_path_delay() {
        let traces = golden_scenarios();
        let delays: Vec<u64> = traces
            .iter()
            .flat_map(|t| &t.groups)
            .flat_map(|g| &g.plans)
            .map(|p| p.path_delay_ns)
            .collect();
        assert!(!delays.is_empty());
        // Every scripted restoration detour has real propagation delay.
        assert!(delays.iter().all(|&d| d > 0), "{delays:?}");
        // And it round-trips exactly.
        let back = GoldenTrace::from_json(&traces[0].to_json()).unwrap();
        assert_eq!(back, traces[0]);
    }

    #[test]
    fn v1_traces_load_with_zero_path_delay() {
        let trace = golden_scenarios().remove(0);
        // Render a v1 file: version 1, no `path_delay_ns` keys anywhere.
        use serde::Value;
        fn strip(v: &mut Value) {
            match v {
                Value::Map(entries) => {
                    entries.retain(|(k, _)| k != "path_delay_ns");
                    for (k, v) in entries {
                        if k == "version" {
                            *v = Value::U64(1);
                        }
                        strip(v);
                    }
                }
                Value::Seq(items) => items.iter_mut().for_each(strip),
                _ => {}
            }
        }
        let mut value = trace.serialize();
        strip(&mut value);
        let v1 = serde_json::to_string_pretty(&value).unwrap();

        let back = GoldenTrace::from_json(&v1).expect("v1 traces still load");
        assert_eq!(back.version, TRACE_VERSION);
        assert!(back
            .groups
            .iter()
            .flat_map(|g| &g.plans)
            .all(|p| p.path_delay_ns == 0));
        // Everything else survives the upgrade untouched.
        assert_eq!(back.expected_digest, trace.expected_digest);
        assert_eq!(back.groups.len(), trace.groups.len());
    }

    #[test]
    fn every_golden_scenario_restores_in_the_sim() {
        for trace in golden_scenarios() {
            for g in &trace.expected.groups {
                assert!(
                    g.stranded.is_empty(),
                    "{}: group {} stranded {:?}",
                    trace.name,
                    g.group,
                    g.stranded
                );
                assert!(!g.restored.is_empty() || g.nodes.is_empty());
            }
        }
    }
}
