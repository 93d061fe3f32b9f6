//! `mind_service` — a multi-tenant memory-serving front-end over the MIND
//! rack.
//!
//! The paper builds the mechanism (in-network translation, protection
//! domains, coherence); this crate builds the *operator* that a
//! disaggregated rack actually runs under: many tenants arriving and
//! departing (open-loop Poisson churn), each isolated in its own
//! protection domain, contending for a fixed dispatch capacity under
//! QoS-weighted round-robin, admitted or refused against memory pressure,
//! and elastically spread across compute blades as their offered load
//! moves. Every run is a pure function of its [`ServiceConfig`], so the
//! harness can fan service scenarios across worker threads with
//! byte-identical output.
//!
//! - [`qos`]: the Gold / Silver / BestEffort class lattice (dispatch
//!   weights, admission ceilings);
//! - [`tenant`]: per-tenant state — protection domain, vma, forked-RNG
//!   request generator (reusing [`mind_workloads::trace::Workload`]),
//!   queue, latency histogram, and the [`TenantSlo`] record;
//! - [`admission`]: the admission decision and the weighted round-robin
//!   slot planner, as pure functions;
//! - [`elastic`]: measured-throughput blade-count targeting;
//! - [`service`]: the deterministic event loop tying it together, and the
//!   [`ServiceReport`] (per-class and per-tenant p50/p99/p99.9,
//!   throughput, rejects) the figure suite serializes.

//!
//! [`shard`] additionally packages large static tenant populations as
//! symmetric partitions for the deterministic sharded replay in
//! `mind_workloads::shard`.

#![forbid(unsafe_code)]

pub mod admission;
pub mod elastic;
pub mod qos;
pub mod service;
pub mod shard;
pub mod tenant;

pub use admission::AdmitError;
pub use qos::QosClass;
pub use service::{ClassReport, MemoryService, ServiceConfig, ServiceReport};
pub use shard::{population_spec, tenant_partitions, TenantGroup, TenantGroupConfig};
pub use tenant::{AccessPattern, Tenant, TenantId, TenantSlo, TenantWorkload};
