//! `mind_harness` — the declarative experiment engine behind the
//! evaluation stack.
//!
//! The paper's evaluation (§7–§8) replays identical traces against
//! MIND/GAM/FastSwap while sweeping blades, threads, directory sizes, and
//! protocols. This crate turns each such experiment point into *data*:
//!
//! - [`spec`]: [`SystemSpec`]/[`WorkloadSpec`] — `Copy` factory
//!   descriptions of what to build (system kind + config, workload +
//!   config);
//! - [`scenario`]: a [`Scenario`] is a named spec triple (system,
//!   workload, [`RunConfig`]) or a custom deterministic measurement; a
//!   `Vec<Scenario>` is a scenario table;
//! - [`engine`]: the [`Engine`] fans a table across `std::thread` workers
//!   (default `available_parallelism`, override with `MIND_THREADS`),
//!   collecting results by scenario index so parallel output is
//!   byte-identical to a serial run;
//! - [`json`]/[`report`]: a hand-rolled JSON writer emitting per-scenario
//!   metrics and latency breakdowns to `BENCH_<suite>.json`.
//!
//! ```
//! use mind_core::system::ConsistencyModel;
//! use mind_harness::{Engine, Scenario, SystemSpec, WorkloadSpec};
//! use mind_workloads::runner::RunConfig;
//!
//! let workload = WorkloadSpec::real("TF", 4);
//! let regions = workload.regions();
//! let table = vec![Scenario::replay(
//!     "demo/TF/MIND",
//!     SystemSpec::mind_scaled(&regions, 2, ConsistencyModel::Tso),
//!     workload,
//!     RunConfig { ops_per_thread: 500, threads_per_blade: 2, ..Default::default() },
//! )];
//! let results = Engine::from_env().run(table);
//! assert!(results[0].report().total_ops > 0);
//! ```
//!
//! [`RunConfig`]: mind_workloads::runner::RunConfig

#![forbid(unsafe_code)]

pub mod engine;
pub mod json;
pub mod report;
pub mod scenario;
pub mod spec;

pub use engine::Engine;
pub use json::Json;
pub use scenario::{ReplaySpec, Scenario, ScenarioKind, ScenarioOutput, ScenarioResult};
pub use spec::{footprint_pages, ServiceSpec, SystemSpec, WorkloadSpec, REAL_WORKLOADS};
