#![warn(missing_docs)]

//! The counters and the one accumulator that cross crate lines.
//!
//! * `stats` — Welford online mean/variance accumulation, shared by the
//!   experiment reports and the fault-injection campaign reports;
//! * `health` / `protection` — control-plane and protection-plane
//!   counter aggregates that the protocol's routers fill and the campaign
//!   reports, the daemon and the benchmark read.
//!
//! Everything else the reports need lives with its one user: confidence
//! intervals, tables, CSV, scatter plots, histograms and the relative
//! metrics in `smrp-experiments`, the recovery-domain rollups in
//! `smrp-faultlab`.

mod health;
mod protection;
mod stats;

pub use health::ControlHealth;
pub use protection::ProtectionHealth;
pub use stats::Stats;
