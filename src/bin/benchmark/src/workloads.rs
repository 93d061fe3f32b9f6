//! The six benchmark workloads: what each builds, how one repetition of it
//! runs through the program's public functions, and what that repetition
//! produced (simulated results, a digest of them, and conservation checks).
//!
//! A repetition is always the whole path a user pays: build the system,
//! build the workload, run, take the report. `--seed` reaches every
//! generator seed; the program sees only generated inputs.

use std::hash::Hasher;
use std::hint::black_box;

use mind::core::system::ConsistencyModel;
use mind::harness::{report, Engine, Scenario, SystemSpec, WorkloadSpec, REAL_WORKLOADS};
use mind::obs::{TraceConfig, TraceData, TraceMode};
use mind::service::{
    population_spec, tenant_partitions, AccessPattern, MemoryService, ServiceConfig, ServiceReport,
    TenantGroupConfig,
};
use mind::sim::hash::FastHasher;
use mind::sim::stats::{Histogram, Metrics};
use mind::sim::SimTime;
use mind::workloads::micro::MicroConfig;
use mind::workloads::runner::{self, Concurrency, RunConfig, RunReport};
use mind::workloads::{run_sharded_threads, ShardSpec};

use crate::spans::Spans;

/// Workload names, in run order. They are the contract with
/// `BENCHMARK.json`.
pub const NAMES: [&str; 6] = [
    "apps_scalar",
    "remote_faults",
    "resident_hits",
    "contended_writes",
    "tenant_shards",
    "service_churn",
];

/// Think time between a simulated thread's operations (closed loop).
const THINK_TIME: SimTime = SimTime::from_nanos(100);

/// Event capacity of a traced repetition: twice the library's default,
/// which covers a full-size repetition of every workload but the two with
/// the most events per op. Holding all of those too (8 M events, 340 MB of
/// freshly faulted pages per repetition) made a traced repetition fifteen
/// times slower than an untraced one on the sandbox; counts read off the
/// events are therefore taken per *recorded* op, and
/// `obs.trace_events_dropped` says how much of the run they miss.
const TRACE_CAPACITY: usize = 1 << 21;

pub fn trace_config(mode: TraceMode) -> TraceConfig {
    TraceConfig {
        capacity: TRACE_CAPACITY,
        ..TraceConfig::with_mode(mode)
    }
}

/// A micro-benchmark stream and the rack it replays on.
#[derive(Debug, Clone, Copy)]
pub struct MicroShape {
    pub n_threads: u16,
    pub n_compute: u16,
    pub shared_pages: u64,
    pub private_pages: u64,
    pub read_ratio: f64,
    pub sharing_ratio: f64,
    pub ops_per_thread: u64,
    pub warmup_per_thread: u64,
}

impl MicroShape {
    pub fn micro(&self, seed: u64) -> MicroConfig {
        MicroConfig {
            n_threads: self.n_threads,
            read_ratio: self.read_ratio,
            sharing_ratio: self.sharing_ratio,
            shared_pages: self.shared_pages,
            private_pages: self.private_pages,
            seed,
        }
    }

    /// Batch 64, window 16, cluster-wide issue engine: the windowed
    /// datapath the three micro workloads share.
    pub fn run_config(&self, trace: TraceMode) -> RunConfig {
        RunConfig {
            ops_per_thread: self.ops_per_thread,
            warmup_ops_per_thread: self.warmup_per_thread,
            threads_per_blade: self.n_threads / self.n_compute,
            think_time: THINK_TIME,
            ..Default::default()
        }
        .with_batch_ops(64)
        .with_window(16)
        .with_concurrency(Concurrency::Cluster)
        .with_trace(trace_config(trace))
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// TF, GC, MA, MC as a scenario table through the harness engine, at
    /// the scalar run configuration every figure scenario uses.
    Apps {
        threads: u16,
        blades: u16,
        ops_per_thread: u64,
        warmup_per_thread: u64,
    },
    Micro(MicroShape),
    /// A sharded replay of single-threaded tenants, one protection domain
    /// each.
    Shards {
        partitions: u16,
        tenants_per_group: u16,
        pages_per_tenant: u64,
    },
    /// The multi-tenant service under Poisson churn (open loop).
    Service {
        duration: SimTime,
        load: f64,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
}

impl Workload {
    /// The measured sizes. A repetition is sized to a few hundred
    /// milliseconds of host time so that one run holds enough of them for
    /// a steady median.
    pub fn full(name: &str) -> Option<Workload> {
        let (name, shape) = match name {
            "apps_scalar" => (
                NAMES[0],
                Shape::Apps {
                    threads: 40,
                    blades: 4,
                    ops_per_thread: 4_800,
                    warmup_per_thread: 1_200,
                },
            ),
            "remote_faults" => (
                NAMES[1],
                Shape::Micro(MicroShape {
                    n_threads: 4,
                    n_compute: 2,
                    shared_pages: 40_000,
                    private_pages: 2_000,
                    read_ratio: 0.5,
                    sharing_ratio: 1.0,
                    ops_per_thread: 40_000,
                    warmup_per_thread: 10_000,
                }),
            ),
            "resident_hits" => (
                NAMES[2],
                Shape::Micro(MicroShape {
                    n_threads: 8,
                    n_compute: 4,
                    shared_pages: 64,
                    private_pages: 64,
                    read_ratio: 0.9,
                    sharing_ratio: 0.2,
                    ops_per_thread: 200_000,
                    warmup_per_thread: 50_000,
                }),
            ),
            "contended_writes" => (
                NAMES[3],
                Shape::Micro(MicroShape {
                    n_threads: 8,
                    n_compute: 4,
                    shared_pages: 64,
                    private_pages: 32,
                    read_ratio: 0.3,
                    sharing_ratio: 1.0,
                    ops_per_thread: 40_000,
                    warmup_per_thread: 10_000,
                }),
            ),
            "tenant_shards" => (
                NAMES[4],
                Shape::Shards {
                    partitions: 16,
                    tenants_per_group: 8_192,
                    pages_per_tenant: 16,
                },
            ),
            "service_churn" => (
                NAMES[5],
                Shape::Service {
                    duration: SimTime::from_millis(2_500),
                    load: 0.75,
                },
            ),
            _ => return None,
        };
        Some(Workload { name, shape })
    }

    /// The same shapes at a few hundred operations, for the unit tests.
    #[cfg(test)]
    pub fn tiny(name: &str) -> Option<Workload> {
        let mut w = Workload::full(name)?;
        match &mut w.shape {
            Shape::Apps {
                threads,
                ops_per_thread,
                warmup_per_thread,
                ..
            } => {
                *threads = 8;
                *ops_per_thread = 60;
                *warmup_per_thread = 20;
            }
            Shape::Micro(m) => {
                m.shared_pages = m.shared_pages.min(256);
                m.private_pages = m.private_pages.min(32);
                m.ops_per_thread = 192;
                m.warmup_per_thread = 64;
            }
            Shape::Shards {
                partitions,
                tenants_per_group,
                ..
            } => {
                *partitions = 4;
                *tenants_per_group = 16;
            }
            Shape::Service { duration, .. } => *duration = SimTime::from_millis(20),
        }
        Some(w)
    }

    /// The sizes one repetition runs at, for the result file.
    pub fn sizes(&self) -> Vec<(&'static str, f64)> {
        match self.shape {
            Shape::Apps {
                threads,
                blades,
                ops_per_thread,
                warmup_per_thread,
            } => vec![
                ("scenarios", REAL_WORKLOADS.len() as f64),
                ("threads", threads as f64),
                ("blades", blades as f64),
                ("ops_per_thread", ops_per_thread as f64),
                ("warmup_per_thread", warmup_per_thread as f64),
            ],
            Shape::Micro(m) => vec![
                ("threads", m.n_threads as f64),
                ("blades", m.n_compute as f64),
                ("shared_pages", m.shared_pages as f64),
                ("private_pages", m.private_pages as f64),
                ("ops_per_thread", m.ops_per_thread as f64),
                ("warmup_per_thread", m.warmup_per_thread as f64),
            ],
            Shape::Shards {
                partitions,
                tenants_per_group,
                pages_per_tenant,
            } => vec![
                ("partitions", partitions as f64),
                ("tenants", partitions as f64 * tenants_per_group as f64),
                ("pages_per_tenant", pages_per_tenant as f64),
            ],
            Shape::Service { duration, load } => {
                vec![("simulated_ms", duration.as_millis_f64()), ("load", load)]
            }
        }
    }

    pub fn service_config(&self, seed: u64, trace: TraceMode) -> Option<ServiceConfig> {
        let Shape::Service { duration, load } = self.shape else {
            return None;
        };
        let mut cfg = ServiceConfig {
            seed,
            duration,
            class_patterns: [
                AccessPattern::Zipfian(0.99),
                AccessPattern::Uniform,
                AccessPattern::Scan,
            ],
            ..Default::default()
        }
        .load_scaled(load);
        cfg.rack.trace = trace_config(trace);
        Some(cfg)
    }

    pub fn shard_spec(
        &self,
        seed: u64,
        trace: TraceMode,
    ) -> Option<(ShardSpec, TenantGroupConfig)> {
        let Shape::Shards {
            partitions,
            tenants_per_group,
            pages_per_tenant,
        } = self.shape
        else {
            return None;
        };
        let population = TenantGroupConfig {
            tenants_per_group,
            pages_per_tenant,
            read_ratio: 0.7,
            seed,
        };
        let mut spec = population_spec(self.name, partitions, population);
        let trace = trace_config(trace);
        spec.base.trace = trace;
        spec.run = spec.run.with_trace(trace);
        Some((spec, population))
    }

    /// The four application scenarios, seeded.
    pub fn app_table(&self, seed: u64, trace: TraceMode) -> Option<Vec<Scenario>> {
        let Shape::Apps {
            threads,
            blades,
            ops_per_thread,
            warmup_per_thread,
        } = self.shape
        else {
            return None;
        };
        let run = RunConfig {
            ops_per_thread,
            warmup_ops_per_thread: warmup_per_thread,
            threads_per_blade: threads / blades,
            think_time: THINK_TIME,
            ..Default::default()
        }
        .with_trace(trace_config(trace));
        Some(
            REAL_WORKLOADS
                .iter()
                .map(|app| {
                    let workload = seeded(WorkloadSpec::real(app, threads), seed);
                    let system =
                        SystemSpec::mind_scaled(&workload.regions(), blades, ConsistencyModel::Tso);
                    Scenario::replay(format!("{}/{app}", self.name), system, workload, run)
                })
                .collect(),
        )
    }

    /// `(measured, warm-up)` operations one repetition replays when nothing
    /// is refused. `None` for the service, whose count depends on its
    /// random arrivals and is read from its report.
    pub fn replay_ops(&self) -> Option<(u64, u64)> {
        match self.shape {
            Shape::Apps {
                threads,
                ops_per_thread,
                warmup_per_thread,
                ..
            } => {
                let threads = REAL_WORKLOADS.len() as u64 * threads as u64;
                Some((threads * ops_per_thread, threads * warmup_per_thread))
            }
            Shape::Micro(m) => {
                let threads = m.n_threads as u64;
                Some((threads * m.ops_per_thread, threads * m.warmup_per_thread))
            }
            Shape::Shards {
                partitions,
                tenants_per_group,
                ..
            } => Some((partitions as u64 * tenants_per_group as u64 * 8, 0)),
            Shape::Service { .. } => None,
        }
    }

    /// The digest of the sharded replay driven by `lanes` worker threads;
    /// `None` for a workload that is not sharded. The lane count must not
    /// show in the output.
    pub fn sharded_digest(&self, seed: u64, lanes: usize) -> Option<u64> {
        let (spec, population) = self.shard_spec(seed, TraceMode::Off)?;
        Some(Output::Replay(vec![run_shards(&spec, population, lanes)]).digest())
    }

    /// One repetition: build system, build workload, run, take report.
    /// Spans are recorded around each call the benchmark makes itself;
    /// where the program builds internally (the harness engine, the shard
    /// driver, the service) only `run` is visible from outside.
    pub fn repetition(&self, seed: u64, trace: TraceMode, spans: &mut Spans) -> Output {
        match self.shape {
            Shape::Apps { .. } => {
                let table = spans.scope("workload_build", |_| {
                    self.app_table(seed, trace).expect("apps shape")
                });
                let results = spans.scope("run", |_| Engine::new(1).run(table));
                spans.scope("report", |_| {
                    black_box(report::suite_json(self.name, &results).render().len());
                    Output::Replay(
                        results
                            .into_iter()
                            .map(|r| r.output.report.expect("replay scenario"))
                            .collect(),
                    )
                })
            }
            Shape::Micro(m) => {
                let workload = WorkloadSpec::Micro(m.micro(seed));
                let run = m.run_config(trace);
                let mut sys = spans.scope("system_build", |_| {
                    SystemSpec::mind_scaled(&workload.regions(), m.n_compute, ConsistencyModel::Tso)
                        .with_trace(run.trace)
                        .build()
                });
                let mut wl = spans.scope("workload_build", |_| workload.build());
                let report = spans.scope("run", |_| runner::run(sys.as_mut(), wl.as_mut(), run));
                spans.scope("report", |_| Output::Replay(vec![report]))
            }
            Shape::Shards { .. } => {
                let (spec, population) = spans.scope("workload_build", |_| {
                    self.shard_spec(seed, trace).expect("shards shape")
                });
                let report = spans.scope("run", |_| run_shards(&spec, population, 1));
                spans.scope("report", |_| Output::Replay(vec![report]))
            }
            Shape::Service { .. } => {
                let cfg = self.service_config(seed, trace).expect("service shape");
                let service = spans.scope("system_build", |_| MemoryService::new(cfg));
                let report = spans.scope("run", |_| service.run());
                spans.scope("report", |_| Output::Service(Box::new(report)))
            }
        }
    }
}

/// One shard per partition, streamed through `lanes` worker threads.
fn run_shards(spec: &ShardSpec, population: TenantGroupConfig, lanes: usize) -> RunReport {
    run_sharded_threads(spec, spec.partitions, lanes, &tenant_partitions(population))
        .expect("confined population")
}

/// `spec` with its generator seed replaced.
fn seeded(spec: WorkloadSpec, seed: u64) -> WorkloadSpec {
    match spec {
        WorkloadSpec::Tf(mut c) => {
            c.seed = seed;
            WorkloadSpec::Tf(c)
        }
        WorkloadSpec::Gc(mut c) => {
            c.seed = seed;
            WorkloadSpec::Gc(c)
        }
        WorkloadSpec::Memcached(mut c) => {
            c.seed = seed;
            WorkloadSpec::Memcached(c)
        }
        WorkloadSpec::Kvs(mut c) => {
            c.seed = seed;
            WorkloadSpec::Kvs(c)
        }
        WorkloadSpec::Micro(mut c) => {
            c.seed = seed;
            WorkloadSpec::Micro(c)
        }
    }
}

/// What one repetition produced.
pub enum Output {
    Replay(Vec<RunReport>),
    Service(Box<ServiceReport>),
}

impl Output {
    /// Operations pushed through the simulator: measured replay ops plus
    /// `warmup_ops` (which the reports exclude), or every request the
    /// service took in.
    pub fn executed_ops(&self, warmup_ops: u64) -> u64 {
        match self {
            Output::Replay(reports) => {
                reports.iter().map(|r| r.total_ops).sum::<u64>() + warmup_ops
            }
            Output::Service(s) => s.total_ops + s.rejected_requests,
        }
    }

    /// Measured-window ops over simulated runtime, in million ops per
    /// simulated second.
    pub fn sim_mops(&self) -> f64 {
        match self {
            Output::Replay(reports) => {
                let ops: u64 = reports.iter().map(|r| r.total_ops).sum();
                let measured_ns: u64 = reports
                    .iter()
                    .map(|r| r.runtime.saturating_sub(r.warmup_end).as_nanos())
                    .sum();
                ops as f64 * 1e3 / measured_ns.max(1) as f64
            }
            Output::Service(s) => s.total_ops as f64 * 1e3 / s.duration.as_nanos().max(1) as f64,
        }
    }

    /// p99 of per-op latency; for the service the Gold class's, the SLO an
    /// operator owes.
    pub fn sim_p99_ns(&self) -> u64 {
        match self {
            Output::Replay(reports) => {
                let mut all = Histogram::new();
                for r in reports {
                    all.merge(&r.latency);
                }
                all.quantile(0.99)
            }
            Output::Service(s) => s.classes[0].p99_ns,
        }
    }

    /// Hash of everything the repetition simulated. Equal digests on two
    /// commits mean simulated behaviour did not change.
    pub fn digest(&self) -> u64 {
        let mut h = FastHasher::default();
        let metrics = |h: &mut FastHasher, m: &Metrics| {
            for (k, v) in m.iter() {
                h.write(k.as_bytes());
                h.write_u64(v);
            }
        };
        match self {
            Output::Replay(reports) => {
                for r in reports {
                    for v in [
                        r.runtime.as_nanos(),
                        r.warmup_end.as_nanos(),
                        r.total_ops,
                        r.remote_ops,
                        r.invalidations,
                        r.flushed_pages,
                        r.latency.count(),
                        r.latency.quantile(0.5),
                        r.latency.quantile(0.99),
                        r.latency.quantile(0.999),
                        r.latency.max(),
                        r.mops.to_bits(),
                    ] {
                        h.write_u64(v);
                    }
                    h.write_u128(r.sum_remote_lat_ns);
                    h.write_u128(r.sum_network_ns);
                    metrics(&mut h, &r.metrics);
                    metrics(&mut h, &r.window_metrics);
                }
            }
            Output::Service(s) => {
                for v in [
                    s.duration.as_nanos(),
                    s.tenants_admitted,
                    s.tenants_rejected,
                    s.tenants_departed,
                    s.tenants_live,
                    s.peak_live_tenants,
                    s.total_ops,
                    s.rejected_requests,
                    s.match_action_rules as u64,
                ] {
                    h.write_u64(v);
                }
                for c in &s.classes {
                    for v in [c.ops, c.rejected_requests, c.p50_ns, c.p99_ns, c.p999_ns] {
                        h.write_u64(v);
                    }
                    h.write_u64(c.mean_ns.to_bits());
                }
                metrics(&mut h, &s.metrics);
            }
        }
        h.finish()
    }

    /// Accounting identities the reports must satisfy whatever the model
    /// does; `measured_ops` is the first half of [`Workload::replay_ops`].
    pub fn conservation(&self, measured_ops: Option<u64>) -> Result<(), String> {
        match self {
            Output::Replay(reports) => {
                let total: u64 = reports.iter().map(|r| r.total_ops).sum();
                if let Some(want) = measured_ops {
                    if total != want {
                        return Err(format!("total_ops {total} != threads x ops/thread {want}"));
                    }
                }
                for r in reports {
                    if r.remote_ops > r.total_ops {
                        return Err(format!(
                            "{}: remote_ops {} > total_ops {}",
                            r.name, r.remote_ops, r.total_ops
                        ));
                    }
                    if r.latency.count() != r.total_ops {
                        return Err(format!(
                            "{}: {} latency samples for {} ops",
                            r.name,
                            r.latency.count(),
                            r.total_ops
                        ));
                    }
                }
            }
            Output::Service(s) => {
                if s.tenants_admitted != s.tenants_departed + s.tenants_live {
                    return Err(format!(
                        "admitted {} != departed {} + live {}",
                        s.tenants_admitted, s.tenants_departed, s.tenants_live
                    ));
                }
                let by_class: u64 = s.classes.iter().map(|c| c.ops).sum();
                let by_tenant: u64 = s.tenants.iter().map(|t| t.ops).sum();
                if by_class != s.total_ops || by_tenant != s.total_ops {
                    return Err(format!(
                        "served {} != per-class {by_class} or per-tenant {by_tenant}",
                        s.total_ops
                    ));
                }
                let rejected_by_class: u64 = s.classes.iter().map(|c| c.rejected_requests).sum();
                let rejected_by_tenant: u64 = s.tenants.iter().map(|t| t.rejected).sum();
                if rejected_by_class != s.rejected_requests
                    || rejected_by_tenant != s.rejected_requests
                {
                    return Err(format!(
                        "rejected {} != per-class {rejected_by_class} or per-tenant {rejected_by_tenant}",
                        s.rejected_requests
                    ));
                }
            }
        }
        Ok(())
    }

    pub fn take_trace(&mut self) -> Vec<TraceData> {
        match self {
            Output::Replay(reports) => reports.iter_mut().filter_map(|r| r.trace.take()).collect(),
            Output::Service(s) => s.trace.take().into_iter().collect(),
        }
    }
}

/// A write on one blade must be read back unchanged on another, through
/// the coherence protocol. The one check here on data rather than counts.
pub fn round_trip_check(seed: u64) -> Result<(), String> {
    use mind::core::cluster::{MindCluster, MindConfig};
    let mut rng = mind::sim::SimRng::new(seed);
    let payload: Vec<u8> = (0..256).map(|_| rng.next_u64() as u8).collect();
    let mut cluster = MindCluster::new(MindConfig::small());
    let pid = cluster.exec().map_err(|e| format!("exec: {e:?}"))?;
    let vaddr = cluster
        .mmap(pid, 1 << 20)
        .map_err(|e| format!("mmap: {e:?}"))?;
    let at = vaddr + 4096 * (seed % 64);
    cluster
        .write_bytes(SimTime::ZERO, 0, pid, at, &payload)
        .map_err(|e| format!("write_bytes: {e:?}"))?;
    let back = cluster
        .read_bytes(SimTime::from_micros(50), 1, pid, at, payload.len())
        .map_err(|e| format!("read_bytes: {e:?}"))?;
    if back == payload {
        Ok(())
    } else {
        Err("cross-blade read returned other bytes than were written".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(name: &str, seed: u64) -> u64 {
        let w = Workload::tiny(name).unwrap();
        let out = w.repetition(seed, TraceMode::Off, &mut Spans::disabled());
        out.conservation(w.replay_ops().map(|(measured, _)| measured))
            .unwrap();
        out.digest()
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for name in NAMES {
            assert_eq!(digest(name, 1), digest(name, 1), "{name}");
            assert_ne!(digest(name, 1), digest(name, 2), "{name}");
        }
    }

    #[test]
    fn every_name_has_both_sizes() {
        for name in NAMES {
            assert_eq!(Workload::full(name).unwrap().name, name);
            assert!(Workload::tiny(name).is_some());
        }
        assert!(Workload::full("nope").is_none());
    }

    #[test]
    fn round_trip_holds_for_several_seeds() {
        for seed in 0..4 {
            round_trip_check(seed).unwrap();
        }
    }
}
