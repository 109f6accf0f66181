#![warn(missing_docs)]

//! `smrpd` — the SMRP control plane as a real daemon.
//!
//! The rest of the workspace proves the protocol inside a deterministic
//! discrete-event simulator. This crate runs the *same* router code
//! ([`smrp_proto::MultiRouter`], unmodified) outside the simulator: one
//! thread per router, wall-clock timers, and actual datagrams — either
//! in-process channels or loopback UDP. The point is conformance, not a
//! parallel implementation:
//!
//! * `transport` — the [`Transport`] seam with [`ChannelTransport`]
//!   and [`UdpTransport`] backends;
//! * `timer` — a wall-clock [`TimerDriver`] mirroring the engine's
//!   [`smrp_sim::TimerToken`] semantics;
//! * `node` — the per-node event loop, dispatching the router through
//!   [`smrp_sim::Ctx::standalone`] exactly as the engine would;
//! * [`daemon`] — assembly plus the conformance entry point
//!   `replay`: re-run a golden trace dumped by
//!   `faultlab --dump-trace` and compare final-state digests against
//!   the simulator;
//! * `status` / `introspect` — a live HTTP view (per-group tree,
//!   SHR, reliable-lane health) of a running daemon.
//!
//! ```no_run
//! use smrp_faultlab::golden_scenarios;
//! use smrpd::daemon::{replay, ReplayOptions, TransportKind};
//!
//! let trace = golden_scenarios().remove(0);
//! let outcome = replay(
//!     &trace,
//!     &ReplayOptions {
//!         transport: TransportKind::Udp,
//!         ..ReplayOptions::default()
//!     },
//! )
//! .unwrap();
//! assert!(outcome.matches(), "daemon diverged from the simulator");
//! ```

pub mod daemon;
mod introspect;
mod node;
mod status;
mod timer;
mod transport;

pub use introspect::{HealthView, StatusView, TreeView};
pub use status::NodeStatus;
pub use timer::TimerDriver;
pub use transport::{ChannelTransport, Transport, UdpTransport};
