#![warn(missing_docs)]

//! Correlated fault-injection campaigns for the SMRP reproduction.
//!
//! The paper (§4) evaluates SMRP under single persistent failures. This
//! crate stress-tests the whole stack far beyond that regime with seeded
//! Monte-Carlo campaigns of *correlated* failures, and audits every
//! recovery against the protocol's safety invariants:
//!
//! * `generate` — deterministic scenario generation: `k`-random-link,
//!   `k`-random-node, shared-risk link groups derived from the topology's
//!   geometry (links sharing a conduit cell fail together), regional
//!   outages (all nodes within a radius of an epicenter), each drawn
//!   persistent or transient — plus three control-plane-degradation
//!   families: cuts under ambient uniform message loss, gray links that
//!   stay up but drop heavily, and components flapping through repeated
//!   down/up cycles;
//! * `campaign` — the parallel Monte-Carlo runner: every case is
//!   evaluated against both SMRP (local detour) and the SPF baseline
//!   (global detour), classified into an [`Outcome`], and timed through
//!   the message-level simulator. Campaigns host one or many concurrent
//!   multicast sessions (`CampaignConfig::groups`): every failure is
//!   injected once against all groups sharing the substrate, each group
//!   is classified independently, and the aggregate reads as the worst
//!   group. Results are deterministic in the base seed and independent
//!   of the worker-thread count;
//! * `audit` — the invariant auditor: reconstructs the post-recovery
//!   tree and checks structure (acyclicity + SHR/N bookkeeping via the
//!   `MulticastTree::validate` oracle), member coverage against the
//!   physical-reachability oracle, absence of failed links, and that
//!   every detour lands on the surviving tree. Violations become minimal
//!   reproducers (case seed + scenario JSON);
//! * `report` — stable JSON campaign reports with per-family×protocol
//!   outcome tables, restoration-latency distributions and control-plane
//!   health summaries (loss, retransmissions, retry-budget exhaustions);
//! * `hierarchy` — wire-level campaigns over N-level recovery domains
//!   with aggregated member populations: every active domain's session
//!   runs as one group of a shared-substrate `MultiSession`, repairs are
//!   installed via the explicit-plan seam, and every case's full message
//!   trace is audited against the DomainLocality confinement invariant;
//! * `protect` — the protection-vs-restoration axis: SMRP with
//!   precomputed, locally-activated backup detours against SMRP with
//!   on-demand detour search, swept over single-link, single-node and
//!   shared-risk-group failures at multiple ambient-loss points, with
//!   restoration-latency medians, control overhead and protection-plane
//!   state/safety counters per mode. Both arms run through the
//!   campaign's one evaluator (`campaign::evaluate_arm`, the arm named by
//!   its `RecoveryStrategy`), so a case is classified by one rule
//!   whichever axis runs it.
//!
//! ```
//! use smrp_faultlab::{run_campaign, CampaignConfig, CampaignReport};
//!
//! let cfg = CampaignConfig {
//!     nodes: 30,
//!     group_size: 8,
//!     scenarios: 8,
//!     ..CampaignConfig::default()
//! };
//! let run = run_campaign(&cfg, 2).expect("topology generates");
//! let report = CampaignReport::from_run(&run);
//! assert!(report.is_clean());
//! ```

mod audit;
mod campaign;
mod generate;
mod hierarchy;
mod locality;
mod par;
mod protect;
mod report;
mod trace;

pub use audit::{audit_recovery, rebuild_after_recovery};
pub use campaign::{
    evaluate_case, run_campaign, CampaignConfig, CampaignRun, CaseResult, Outcome, ProtoKind,
    ProtoOutcome,
};
pub use generate::{generate_mix, shared_fate_srlgs, FaultCase, FaultFamily, Timing};
pub use hierarchy::{
    run_hierarchy, HierarchyConfig, HierarchyOutcome, HierarchyReport, HierarchyRun,
};
pub use protect::{run_protect, ProtectConfig, ProtectReport};
pub use report::{CampaignReport, Quantiles};
pub use trace::{dump_traces, golden_scenarios, GoldenTrace, RunInput};
