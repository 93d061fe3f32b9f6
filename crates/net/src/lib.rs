//! Simulated rack network fabric.
//!
//! MIND's prototype connects compute and memory blades through a single
//! programmable top-of-rack switch over 100 Gbps RDMA links. This crate
//! models that fabric: node identities ([`node::NodeId`]), packets carrying
//! RDMA verbs and coherence messages ([`packet`]), links with propagation
//! latency plus bandwidth-derived serialization and queueing ([`link`]), the
//! star topology with native multicast and sharer-list egress pruning
//! ([`fabric`]), and the ACK/timeout/retransmit reliability layer from paper
//! §4.4 ([`reliability`]).
//!
//! Latencies are calibrated against the paper's §7.2 measurements via
//! [`link::LatencyConfig`]: a one-sided RDMA 4 KB page fetch through the
//! switch lands at ≈9 µs end-to-end and a sequential invalidate-then-fetch
//! at ≈18 µs, matching Figure 7 (left).

#![forbid(unsafe_code)]

pub mod fabric;
pub mod link;
pub mod node;
pub mod packet;
pub mod reliability;

pub use fabric::{Fabric, MulticastGroup};
pub use link::{LatencyConfig, Link};
pub use node::NodeId;
pub use packet::{Packet, PacketKind};
