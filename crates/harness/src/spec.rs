//! Pure-data descriptions of the systems and workloads a scenario runs.
//!
//! A spec is everything needed to *build* a system or workload, but holds
//! no simulation state itself — specs are `Copy`, `Send`, and cheap, so a
//! scenario table is plain data that can be fanned out across threads and
//! rebuilt identically in any order (the engine's determinism rests on
//! this: construction happens inside the worker, from the spec alone).

use mind_baselines::{FastSwapConfig, FastSwapSystem, GamConfig, GamSystem};
use mind_core::cluster::{MindCluster, MindConfig};
use mind_core::system::{ConsistencyModel, MemorySystem};
use mind_service::{MemoryService, ServiceConfig, ServiceReport};
use mind_workloads::gc::{GcConfig, GcWorkload};
use mind_workloads::kvs::{KvsConfig, KvsWorkload};
use mind_workloads::memcached::{MemcachedConfig, MemcachedWorkload};
use mind_workloads::micro::{MicroConfig, MicroWorkload};
use mind_workloads::tf::{TfConfig, TfWorkload};
use mind_workloads::trace::Workload;

/// The four real-world workloads of the paper's §7.1, by paper name.
pub const REAL_WORKLOADS: [&str; 4] = ["TF", "GC", "MA", "MC"];

/// Footprint in pages of a workload's region list.
pub fn footprint_pages(regions: &[u64]) -> u64 {
    regions.iter().map(|len| len.div_ceil(4096)).sum()
}

/// Which system a scenario replays against, as configuration data.
#[derive(Debug, Clone, Copy)]
pub enum SystemSpec {
    /// A MIND rack.
    Mind(MindConfig),
    /// The GAM software-DSM baseline.
    Gam(GamConfig),
    /// The FastSwap swap-based baseline.
    FastSwap(FastSwapConfig),
}

impl SystemSpec {
    /// A MIND rack scaled for `regions` (see [`MindConfig::scaled_to`])
    /// under the given consistency model.
    pub fn mind_scaled(regions: &[u64], n_compute: u16, model: ConsistencyModel) -> Self {
        SystemSpec::Mind(MindConfig::scaled_to(footprint_pages(regions), n_compute).consistency(model))
    }

    /// A GAM system scaled for `regions`.
    pub fn gam_scaled(regions: &[u64], n_compute: u16, threads_per_blade: u16) -> Self {
        SystemSpec::Gam(GamConfig::scaled_to(
            footprint_pages(regions),
            n_compute,
            threads_per_blade,
        ))
    }

    /// A FastSwap system scaled for `regions` (single blade).
    pub fn fastswap_scaled(regions: &[u64]) -> Self {
        SystemSpec::FastSwap(FastSwapConfig::scaled_to(footprint_pages(regions)))
    }

    /// Display label: "MIND" / "MIND-PSO" / "MIND-PSO+" / "GAM" /
    /// "FastSwap".
    pub fn label(&self) -> &'static str {
        match self {
            SystemSpec::Mind(cfg) => match cfg.coherence.consistency {
                ConsistencyModel::Tso => "MIND",
                ConsistencyModel::Pso => "MIND-PSO",
                ConsistencyModel::PsoPlus => "MIND-PSO+",
            },
            SystemSpec::Gam(_) => "GAM",
            SystemSpec::FastSwap(_) => "FastSwap",
        }
    }

    /// This spec with a run's trace configuration applied: a pinned mode
    /// (`Off`/`On`) overrides the system's own trace config, while
    /// the default `Env` mode leaves the spec untouched. Baselines don't
    /// trace, so only MIND configs change.
    pub fn with_trace(self, trace: mind_obs::TraceConfig) -> Self {
        match (self, trace.mode) {
            (spec, mind_obs::TraceMode::Env) => spec,
            (SystemSpec::Mind(mut cfg), _) => {
                cfg.trace = trace;
                SystemSpec::Mind(cfg)
            }
            (spec, _) => spec,
        }
    }

    /// Builds the system. Called inside engine workers.
    pub fn build(&self) -> Box<dyn MemorySystem> {
        match *self {
            SystemSpec::Mind(cfg) => Box::new(MindCluster::new(cfg)),
            SystemSpec::Gam(cfg) => Box::new(GamSystem::new(cfg)),
            SystemSpec::FastSwap(cfg) => Box::new(FastSwapSystem::new(cfg)),
        }
    }
}

/// A multi-tenant serving scenario, as configuration data: the whole
/// churn × QoS × elasticity axis of `mind_service`, fanned out by the
/// engine like any other scenario (a service run is a pure function of
/// its config, so workers rebuild it identically).
#[derive(Debug, Clone, Copy)]
pub struct ServiceSpec {
    /// Full service configuration (rack + churn + QoS + load model).
    pub cfg: ServiceConfig,
}

impl ServiceSpec {
    /// Wraps a service configuration.
    pub fn new(cfg: ServiceConfig) -> Self {
        ServiceSpec { cfg }
    }

    /// Builds and runs the service. Called inside engine workers.
    pub fn run(&self) -> ServiceReport {
        MemoryService::new(self.cfg).run()
    }
}

/// Which workload a scenario replays, as configuration data.
#[derive(Debug, Clone, Copy)]
pub enum WorkloadSpec {
    /// TensorFlow/ResNet-50 ("TF").
    Tf(TfConfig),
    /// GraphChi/PageRank ("GC").
    Gc(GcConfig),
    /// Memcached under YCSB ("MA"/"MC").
    Memcached(MemcachedConfig),
    /// The partitioned Native-KVS store.
    Kvs(KvsConfig),
    /// The §7.2 microbenchmark.
    Micro(MicroConfig),
}

impl WorkloadSpec {
    /// A real-world workload by paper name ("TF", "GC", "MA", "MC") for
    /// `n_threads`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name.
    pub fn real(name: &str, n_threads: u16) -> Self {
        match name {
            "TF" => WorkloadSpec::Tf(TfConfig {
                n_threads,
                ..Default::default()
            }),
            "GC" => WorkloadSpec::Gc(GcConfig {
                n_threads,
                ..Default::default()
            }),
            "MA" => WorkloadSpec::Memcached(MemcachedConfig {
                n_threads,
                ..MemcachedConfig::workload_a()
            }),
            "MC" => WorkloadSpec::Memcached(MemcachedConfig {
                n_threads,
                ..MemcachedConfig::workload_c()
            }),
            other => panic!("unknown workload {other}"),
        }
    }

    /// Builds the workload generator. Called inside engine workers.
    pub fn build(&self) -> Box<dyn Workload> {
        match *self {
            WorkloadSpec::Tf(cfg) => Box::new(TfWorkload::new(cfg)),
            WorkloadSpec::Gc(cfg) => Box::new(GcWorkload::new(cfg)),
            WorkloadSpec::Memcached(cfg) => Box::new(MemcachedWorkload::new(cfg)),
            WorkloadSpec::Kvs(cfg) => Box::new(KvsWorkload::new(cfg)),
            WorkloadSpec::Micro(cfg) => Box::new(MicroWorkload::new(cfg)),
        }
    }

    /// Region sizes of the described workload (builds a throwaway
    /// generator; generators are cheap to construct).
    pub fn regions(&self) -> Vec<u64> {
        self.build().regions()
    }

    /// Thread count of the described workload.
    pub fn n_threads(&self) -> u16 {
        match *self {
            WorkloadSpec::Tf(cfg) => cfg.n_threads,
            WorkloadSpec::Gc(cfg) => cfg.n_threads,
            WorkloadSpec::Memcached(cfg) => cfg.n_threads,
            WorkloadSpec::Kvs(cfg) => cfg.n_threads,
            WorkloadSpec::Micro(cfg) => cfg.n_threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_sums_page_counts() {
        assert_eq!(footprint_pages(&[4096 * 100, 4096 * 300]), 400);
        assert_eq!(footprint_pages(&[1, 4097]), 3, "partial pages round up");
    }

    #[test]
    fn real_workload_specs_build() {
        for name in REAL_WORKLOADS {
            let spec = WorkloadSpec::real(name, 4);
            assert_eq!(spec.n_threads(), 4);
            assert!(!spec.regions().is_empty());
            let mut wl = spec.build();
            let op = wl.next_op(0);
            assert!((op.region as usize) < spec.regions().len());
        }
    }

    #[test]
    fn service_spec_runs_deterministically() {
        let cfg = ServiceConfig {
            duration: mind_sim::SimTime::from_millis(10),
            ..Default::default()
        };
        let a = ServiceSpec::new(cfg).run();
        let b = ServiceSpec::new(cfg).run();
        assert!(a.tenants_admitted > 0);
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn system_specs_build_and_label() {
        let regions = vec![1 << 24];
        let mind = SystemSpec::mind_scaled(&regions, 2, ConsistencyModel::Tso);
        assert_eq!(mind.label(), "MIND");
        assert_eq!(mind.build().n_compute(), 2);
        let pso = SystemSpec::mind_scaled(&regions, 2, ConsistencyModel::Pso);
        assert_eq!(pso.label(), "MIND-PSO");
        let gam = SystemSpec::gam_scaled(&regions, 2, 10);
        assert_eq!(gam.label(), "GAM");
        assert_eq!(gam.build().n_compute(), 2);
        let fs = SystemSpec::fastswap_scaled(&regions);
        assert_eq!(fs.label(), "FastSwap");
        assert_eq!(fs.build().n_compute(), 1);
    }
}
