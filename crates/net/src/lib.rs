//! Wide-area network substrate for geo-replication experiments.
//!
//! The paper evaluates its placement technique on an event-based simulator
//! that "emulates communications between nodes based on real network traffic
//! data collected from 226 PlanetLab nodes". That dataset is no longer
//! available, so this crate provides:
//!
//! * [`rtt`] — dense round-trip-time matrices with loaders, validators and
//!   distribution statistics;
//! * [`geo`] — great-circle geometry used to synthesize realistic latencies;
//! * [`topology`] — a configurable generator of Internet-like topologies
//!   (regional clusters, routing inflation, last-mile penalties, jitter and
//!   triangle-inequality violations);
//! * [`planetlab`] — a deterministic 226-node "PlanetLab-like" snapshot with
//!   node shares per region that mirror the historical PlanetLab deployment;
//! * [`sim`] — a discrete-event simulation engine that delivers messages
//!   with latencies drawn from an [`rtt::RttMatrix`];
//! * [`hash`] — the SplitMix64 and FNV-1a helpers every crate's seeded
//!   draws and fingerprints share.
//!
//! # Example
//!
//! ```
//! use georep_net::planetlab::planetlab_226;
//!
//! let m = planetlab_226();
//! assert_eq!(m.len(), 226);
//! let stats = m.stats();
//! // Wide-area latencies: intra-region tens of ms, trans-continental
//! // hundreds of ms.
//! assert!(stats.median_ms > 20.0 && stats.max_ms < 2_000.0);
//! ```

pub mod geo;
pub mod hash;
pub mod planetlab;
pub mod rtt;
pub mod sim;
pub mod topology;

pub use rtt::RttMatrix;
pub use topology::{Topology, TopologyConfig};
