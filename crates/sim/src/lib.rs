#![warn(missing_docs)]

//! Deterministic discrete-event network simulator.
//!
//! The paper evaluates SMRP in ns2; this crate is the substitution
//! documented in `DESIGN.md`: an event-ordered, link-delay-accurate
//! message-passing simulator. Nothing below the routing layer (TCP/IP
//! framing, queuing) affects the paper's metrics, so the simulator models
//! exactly what matters:
//!
//! * integer-nanosecond virtual time ([`SimTime`]) and one deterministic
//!   event structure ordered by `(time, insertion sequence)`: every event
//!   — delivery, timer, scheduled failure or repair — rides a
//!   hierarchical [`TimerWheel`] with O(1) schedule, and a cancelled
//!   [`TimerToken`] is skipped when its timer pops; a binary-heap
//!   [`EventQueue`] carries the same events under
//!   [`TimerBackend::ReferenceHeap`] as the reference the differential
//!   tests compare against;
//! * hop-by-hop message delivery over the links of a
//!   [`smrp_net::Graph`], honoring per-link propagation delay;
//! * node-local timers;
//! * failures and repairs as timed [`smrp_net::Injection`]s
//!   ([`NetSim::schedule_injection`]) applied to per-node and per-link
//!   down flags under [`smrp_net::FailureScenario`]'s rules: messages
//!   crossing a failed link or addressed to a failed node are dropped,
//!   failed nodes neither process nor send, and a repaired node reboots;
//! * an optional degraded channel ([`ChannelModel`]) losing messages
//!   with a seeded per-link probability (it never duplicates, reorders
//!   or delays one);
//! * a typed event stream of everything that happened ([`TraceEvent`]
//!   with a `Copy` [`Descriptor`], no formatting and no allocation per
//!   event), delivered to a [`TraceLog`]: a bounded buffer for tests and
//!   golden transcripts, or an observer closure that audits events as
//!   they pass and retains none.
//!
//! Protocol logic plugs in through the [`NodeBehavior`] trait; see
//! `smrp-proto` for the SMRP router implementation.

mod channel;
mod clock;
mod engine;
mod event;
mod time;
mod trace;
mod wheel;

pub use channel::{ChannelModel, ChannelSpec};
pub use clock::MonotonicClock;
pub use engine::{Ctx, NetSim, NodeBehavior, NodeCommand, TimerBackend, TimerToken};
pub use event::EventQueue;
pub use time::SimTime;
pub use trace::{Descriptor, SetupRoute, TraceEvent, TraceLog};
pub use wheel::{TimerHandle, TimerWheel};
