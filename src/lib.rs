//! Umbrella crate for the MIND (SOSP 2021) reproduction workspace.
//!
//! This crate carries no logic of its own; it exists so the workspace-level
//! integration tests in `tests/` and the runnable examples in `examples/`
//! have a package to hang off, and it re-exports every sub-crate under one
//! roof for downstream convenience:
//!
//! | Re-export | Paper section | Contents |
//! |-----------|---------------|----------|
//! | [`sim`] | §7 methodology | deterministic event loop, RNG, stats |
//! | [`obs`] | §7 methodology | deterministic tracing, windowed telemetry, wall-clock profiling |
//! | [`net`] | §2, §4.4 | rack fabric, links, multicast, loss injection |
//! | [`switch`] | §2.1, §6.3 | TCAM, SRAM slots |
//! | [`blade`] | §6.1, §6.2 | compute-blade cache, memory blade |
//! | [`core`] | §4–§6 | translation, protection, coherence (with §4.4 retransmit and reset), splitting, the control program and switch failover |
//! | [`baselines`] | §7 | GAM and FastSwap comparison systems |
//! | [`workloads`] | §7.1 | TF / GC / MA / MC generators, trace runner |
//! | [`service`] | beyond the paper | multi-tenant serving: churn, QoS classes, elastic blades, per-tenant SLOs |
//! | [`harness`] | §7–§8 | declarative experiment engine: scenario tables, parallel execution, JSON reports |
//! | [`bench`] | §7 | figure scenario tables and binaries |

pub use mind_baselines as baselines;
pub use mind_bench as bench;
pub use mind_harness as harness;
pub use mind_blade as blade;
pub use mind_core as core;
pub use mind_net as net;
pub use mind_obs as obs;
pub use mind_service as service;
pub use mind_sim as sim;
pub use mind_switch as switch;
pub use mind_workloads as workloads;
