#![warn(missing_docs)]

//! Network substrate for the SMRP reproduction.
//!
//! This crate provides everything the SMRP protocol (`smrp-core`) and the
//! discrete-event protocol simulation (`smrp-sim`/`smrp-proto`) need from
//! the network layer:
//!
//! * an arena-style undirected weighted [`Graph`] with typed [`NodeId`] /
//!   [`LinkId`] handles,
//! * shortest-path machinery ([`dijkstra`]): plain, avoid-set constrained and
//!   multi-target Dijkstra, and a source tree that searches the graph's
//!   biconnected blocks one at a time, only as far as it is asked,
//! * random topology generators matching the paper's simulation setup:
//!   the Waxman model ([`waxman`], GT-ITM's "pure random" model) and one
//!   domain-hierarchy generator ([`nlevel`]) for the hierarchical
//!   recovery architecture of §3.3.3, whose 2-level transit-stub preset
//!   is [`transit_stub`],
//! * persistent-failure scenarios (`failure`) that mask out links/nodes
//!   without mutating the underlying graph, and the [`Injection`]s that
//!   change one over time,
//! * batch backup-detour precomputation with incremental refresh
//!   ([`backup`]). No planner uses it: protection chains are planned
//!   through `smrp_core::recovery::Contingency`, and it stays only for the
//!   benchmark's `net.detour_refresh_us_per_req` row until that row is
//!   retired.
//!
//! All randomness is funneled through seeded [`rand::rngs::SmallRng`] values
//! so every topology and experiment in this repository is reproducible.
//!
//! # Example
//!
//! ```
//! use smrp_net::dijkstra::{self, Constraints};
//! use smrp_net::waxman::WaxmanConfig;
//!
//! # fn main() -> Result<(), smrp_net::NetError> {
//! let graph = WaxmanConfig::new(100).alpha(0.2).seed(42).generate()?.into_graph();
//! let src = graph.node_ids().next().unwrap();
//! let dst = graph.node_ids().last().unwrap();
//! let path = dijkstra::shortest_path_constrained(&graph, src, dst, Constraints::unrestricted())
//!     .expect("connected");
//! assert!(path.delay(&graph) > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod backup;
mod blocks;
pub mod dijkstra;
mod failure;
mod geometry;
mod graph;
mod ids;
pub mod import;
pub mod nlevel;
pub mod path;
pub mod transit_stub;
pub mod traversal;
pub mod waxman;

mod error;

pub use error::NetError;
pub use failure::{FailureScenario, Injection};
pub use geometry::Point;
pub use graph::{Graph, LinkWeights};
pub use ids::{GroupId, LinkId, NodeId};
pub use path::Path;
