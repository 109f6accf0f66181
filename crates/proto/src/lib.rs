#![warn(missing_docs)]

//! Message-level SMRP: the protocol machinery of §3.2–§3.3 running on the
//! discrete-event simulator.
//!
//! `smrp-core` implements SMRP's *algorithms* (path selection, reshaping,
//! detour computation); this crate implements SMRP as a *protocol*:
//!
//! * [`router`] — the per-node state machine: soft-state multicast routing
//!   entries refreshed by periodic `Refresh` messages (and expired when
//!   refreshes stop), hop-by-hop `Setup` propagation for joins and grafts,
//!   data forwarding down the tree, and heartbeat (`Hello`) exchange with
//!   the upstream neighbor for failure detection;
//! * [`runner`] — [`ProtoSession`]: one session's tree (built with
//!   `smrp-core`, SMRP or the SPF baseline), its recovery planners
//!   (scenario-aware detours, the precomputed protection plane) and the
//!   experiment vocabulary: [`RecoveryStrategy::LocalDetour`] (SMRP:
//!   graft to the nearest connected on-tree node as soon as the failure
//!   is detected), [`RecoveryStrategy::GlobalDetour`] (PIM/MOSPF: wait
//!   out unicast reconvergence — tens of seconds per Wang et al.'s ICNP
//!   2000 measurements cited by the paper — then re-join along the new
//!   shortest path), reactive search and protection, and
//!   [`InjectionTiming`] (persistent, transient, flapping);
//! * [`multi`] — multi-session sharding: one [`MultiRouter`] process per
//!   node hosting independent per-group [`Router`] lanes (tree, SHR,
//!   soft state and reliable-delivery sequence lanes all keyed by
//!   [`smrp_net::GroupId`]) over shared links, and [`MultiSession`],
//!   which runs N concurrent groups through one failure experiment;
//! * [`hierarchy`] — the N-level recovery architecture of §3.3.3
//!   ([`hierarchy::NLevelSession`]; the paper's 2-level transit-stub
//!   shape is `NLevelTopology::from_transit_stub`): per-domain SMRP
//!   sessions with border *agents*, failure attribution to a domain,
//!   and confinement metrics;
//! * [`wire`] — the versioned binary codec that puts [`GroupMsg`] values
//!   on a real transport (the `smrpd` daemon's UDP datagrams and framed
//!   streams);
//! * [`snapshot`] — timing-insensitive final-state capture and the
//!   conformance digest that ties daemon replays back to sim runs.
//!
//! # Running a failure
//!
//! There is one way: describe the experiment in a [`FailureSpec`] — the
//! scenario, a [`PlanSource`] (a [`RecoveryStrategy`], or an explicit
//! `(group, member, plan)` list from an external planner), an
//! [`InjectionTiming`], timed [`MemberChange`]s, a channel and a horizon;
//! [`FailureSpec::persistent`] covers the paper's case — and hand it to
//! [`MultiSession::run`] with a [`smrp_sim::TraceLog`] (disabled,
//! buffering, or an observer). It loads every group's tree into one
//! simulator, pumps data, injects the failure, applies the membership
//! changes and returns a [`FailureRun`]: each member's **service
//! restoration latency** per group, the trace, and the final routers.
//! [`ProtoSession::run`] is the same call for one session and
//! [`ProtoSession::run_steady`] the same call with no failure: one loop,
//! configured on the run (routers load [`RouterConfig::default`];
//! [`MultiSession::set_timer_backend`] is the one backend switch).
//! [`MembershipMirror`] writes joins, leaves and reshapes from an
//! `smrp-core` mirror. `MultiSession::run_failure_spec` and
//! `run_failure_spec_traced` are one-expression shims over `run`, kept
//! only because the repository benchmark compiles against them.

pub mod hierarchy;
pub mod membership;
pub mod messages;
pub mod multi;
pub mod query;
pub mod reliable;
pub mod router;
pub mod runner;
pub mod snapshot;
pub mod wire;

pub use membership::MembershipMirror;
pub use messages::{GroupMsg, GroupTimer, ProtoMsg, TimerKind};
pub use multi::{
    FailureRun, FailureSpec, GroupRecoveryReport, MemberChange, MultiRecoveryReport, MultiRouter,
    MultiSession, PlanSource,
};
pub use reliable::{ReliabilityCounters, ReliableConfig};
pub use router::{ControlCounters, RecoveryPlan, Router, RouterConfig};
pub use runner::{
    FailureTiming, InjectionTiming, OverheadReport, ProtoSession, RecoveryPlans, RecoveryStrategy,
    TreeProtocol,
};
pub use snapshot::{AffectedGroup, GroupState, NodeTreeState, SessionState};
pub use wire::{WireError, WIRE_VERSION};
