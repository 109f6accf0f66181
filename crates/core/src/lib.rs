#![warn(missing_docs)]

//! SMRP — the Survivable Multicast Routing Protocol (Wu & Shin, DSN 2005).
//!
//! This crate implements the paper's core contribution: a multicast
//! tree-construction algorithm that deliberately *reduces path sharing*
//! among members so that, when a persistent failure disconnects a receiver,
//! a short **local detour** to a still-connected on-tree neighbor restores
//! service quickly — instead of waiting for unicast routing to reconverge
//! and re-joining along a brand-new shortest path (the **global detour** of
//! SPF-based protocols such as PIM/MOSPF).
//!
//! # Components
//!
//! * `tree` — the shared multicast tree representation with the paper's
//!   per-node state: subtree member counts `N_R` and the sharing metric
//!   `SHR(S,R)` (Eqs. 1–2).
//! * [`select`] — the join path-selection criterion of §3.2.2
//!   (min-`SHR` merger node subject to the `D_thresh` delay bound), in both
//!   full-topology and neighbor-query (§3.3.1) modes.
//! * [`session`] — [`SmrpSession`]: incremental join/leave plus the
//!   tree-reshaping procedure of §3.2.3 (Conditions I and II).
//! * `spf` — the SPF baseline ([`SpfSession`]): joins along unicast
//!   shortest paths, exactly what PIM-style protocols build.
//! * [`recovery`] — the failure/recovery engine of §4: local-detour and
//!   global-detour restoration paths and the recovery-distance metric
//!   `RD_R`, including the worst-case failure model of §4.3.1.
//! * [`paper`] — executable versions of the paper's worked examples
//!   (Figures 1, 4 and 5), reused by tests, examples and documentation.
//!
//! # Quick start
//!
//! ```
//! use smrp_core::{SmrpConfig, SmrpSession};
//! use smrp_core::recovery::{self, DetourKind};
//! use smrp_net::waxman::WaxmanConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = WaxmanConfig::new(60).alpha(0.25).seed(1).generate()?.into_graph();
//! let source = graph.node_ids().next().unwrap();
//! let mut session = SmrpSession::new(&graph, source, SmrpConfig::default())?;
//!
//! // Join a few receivers; SMRP picks low-sharing merger nodes.
//! for n in graph.node_ids().skip(10).take(5) {
//!     session.join(n)?;
//! }
//!
//! // Fail the worst-case link for one member and recover locally.
//! let member = session.members().next().unwrap();
//! let failed = recovery::worst_case_failure_for(&graph, session.tree(), member).unwrap();
//! let scenario = smrp_net::FailureScenario::link(failed);
//! let rec = recovery::recover(&graph, session.tree(), &scenario, member, DetourKind::Local)
//!     .expect("member has a local detour");
//! assert!(rec.recovery_distance() >= 0.0);
//! # Ok(())
//! # }
//! ```

pub mod audit;
pub mod backup;
mod error;
pub mod paper;
pub mod recovery;
pub mod select;
pub mod session;
mod spf;
mod steiner;
mod tree;
pub mod viz;

pub use error::SmrpError;
pub use select::SelectionMode;
pub use session::{ReshapeOutcome, SmrpConfig, SmrpSession};
pub use spf::SpfSession;
pub use steiner::SteinerSession;
pub use tree::MulticastTree;
