//! The workload's own operation stream, captured for the host probes.
//!
//! A probe times one layer's public function in isolation, and what it
//! is fed decides what it measures: addresses, read/write mix, locality and
//! the number of protection domains all come from the workload's generator
//! for the run's seed, never from a synthetic pattern. A stream is cut into
//! segments, one per rack the workload builds (the four application racks;
//! one shard sub-cluster; the service rack).

use std::time::Instant;

use mind::core::cluster::{MindCluster, MindConfig};
use mind::core::system::{AccessKind, ConsistencyModel, MemOp, MemorySystem};
use mind::harness::{SystemSpec, WorkloadSpec};
use mind::obs::TraceMode;
use mind::service::{AccessPattern, TenantGroup, TenantWorkload};
use mind::sim::{SimRng, SimTime};
use mind::workloads::{TraceOp, Workload as Generator};

use crate::workloads::{trace_config, Shape, Workload};

/// Operations captured per workload, over all its segments.
pub const STREAM_OPS: usize = 32_768;
/// Protection domains a tenant segment admits: enough that per-domain
/// tables are past their small-size fast paths, few enough to build in
/// milliseconds.
const SHARD_TENANTS: u16 = 1_024;
const SERVICE_TENANTS: usize = 32;

/// An operation before it is bound to a live rack's addresses.
#[derive(Debug, Clone, Copy)]
pub struct RawOp {
    pub thread: u16,
    /// Index into the segment's ranges.
    pub range: u32,
    pub offset: u64,
    pub kind: AccessKind,
}

pub struct Segment {
    pub cfg: MindConfig,
    /// Length of every address range the operations touch.
    pub ranges: Vec<u64>,
    /// Whether each range belongs to its own protection domain (a tenant)
    /// or all of them to the one replay process.
    pub per_tenant: bool,
    pub threads_per_blade: u16,
    /// Consecutive operations a thread issues per turn in this workload.
    pub burst: usize,
    pub ops: Vec<RawOp>,
}

/// A segment bound to a freshly built rack.
pub struct Live {
    pub cluster: MindCluster,
    pub ops: Vec<MemOp>,
    /// `(domain, base, length)` of every range, for probes that fill a
    /// table of their own with the workload's grants.
    pub grants: Vec<(u64, u64, u64)>,
}

impl Segment {
    pub fn instantiate(&self) -> Live {
        let mut cluster = MindCluster::new(self.cfg);
        let mut bound: Vec<(Option<u64>, u64, Option<u16>)> = Vec::with_capacity(self.ranges.len());
        for &len in &self.ranges {
            if self.per_tenant {
                let pid = cluster.exec().expect("exec");
                let base = cluster.mmap(pid, len).expect("tenant range fits the rack");
                let blade = cluster.place_thread(pid).expect("fresh pid");
                bound.push((Some(pid), base, Some(blade)));
            } else {
                bound.push((None, MemorySystem::alloc(&mut cluster, len), None));
            }
        }
        let ops = self
            .ops
            .iter()
            .map(|op| {
                let (pdid, base, blade) = bound[op.range as usize];
                MemOp {
                    at: SimTime::ZERO,
                    blade: blade.unwrap_or(op.thread / self.threads_per_blade),
                    pdid,
                    vaddr: base + op.offset,
                    kind: op.kind,
                }
            })
            .collect();
        let grants = bound
            .iter()
            .zip(&self.ranges)
            .map(|(&(pdid, base, _), &len)| (pdid.unwrap_or(1), base, len))
            .collect();
        Live {
            cluster,
            ops,
            grants,
        }
    }
}

/// A generator and where its threads and regions sit in the segment.
struct Source {
    generator: Box<dyn Generator>,
    first_thread: u16,
    first_range: u32,
}

/// Draws `total` operations from `sources`, `burst` at a time per thread in
/// round-robin order, timing only the generator calls. Returns the
/// operations and the generator's nanoseconds per operation.
fn draw(sources: &mut [Source], total: usize, burst: usize) -> (Vec<RawOp>, f64) {
    let mut ops = Vec::with_capacity(total + burst);
    let mut buf: Vec<TraceOp> = Vec::with_capacity(burst);
    let mut spent_ns = 0u128;
    'fill: loop {
        for source in sources.iter_mut() {
            for thread in 0..source.generator.n_threads() {
                buf.clear();
                let start = Instant::now();
                source.generator.fill_ops(thread, burst, &mut buf);
                spent_ns += start.elapsed().as_nanos();
                ops.extend(buf.iter().map(|op| RawOp {
                    thread: source.first_thread + thread,
                    range: source.first_range + op.region as u32,
                    offset: op.offset,
                    kind: op.kind,
                }));
                if ops.len() >= total {
                    break 'fill;
                }
            }
        }
    }
    let per_op = spent_ns as f64 / ops.len() as f64;
    (ops, per_op)
}

fn untraced(mut cfg: MindConfig) -> MindConfig {
    cfg.trace = trace_config(TraceMode::Off);
    cfg
}

/// Captures `total_ops` operations of the workload's stream for `seed`.
/// Returns the segments and the generator cost, `workloads.fill_ops_ns`.
pub fn capture(w: &Workload, seed: u64, total_ops: usize) -> (Vec<Segment>, f64) {
    let mut segments = Vec::new();
    let mut fill_ns = Vec::new();
    let mut single =
        |cfg: MindConfig, generator: Box<dyn Generator>, tpb: u16, per_tenant, burst, total| {
            let ranges = generator.regions();
            let mut sources = [Source {
                generator,
                first_thread: 0,
                first_range: 0,
            }];
            let (ops, ns) = draw(&mut sources, total, burst);
            fill_ns.push(ns);
            segments.push(Segment {
                cfg: untraced(cfg),
                ranges,
                per_tenant,
                threads_per_blade: tpb,
                burst,
                ops,
            });
        };
    match w.shape {
        Shape::Apps {
            threads, blades, ..
        } => {
            let table = w.app_table(seed, TraceMode::Off).expect("apps shape");
            let per_app = total_ops / table.len();
            for scenario in table {
                let mind::harness::ScenarioKind::Replay(spec) = scenario.kind else {
                    unreachable!("the app table holds replay scenarios")
                };
                let SystemSpec::Mind(cfg) = spec.system else {
                    unreachable!("the app table runs on MIND racks")
                };
                single(
                    cfg,
                    spec.workload.build(),
                    threads / blades,
                    false,
                    1,
                    per_app,
                );
            }
        }
        Shape::Micro(m) => {
            let workload = WorkloadSpec::Micro(m.micro(seed));
            let SystemSpec::Mind(cfg) =
                SystemSpec::mind_scaled(&workload.regions(), m.n_compute, ConsistencyModel::Tso)
            else {
                unreachable!("mind_scaled builds a MIND rack")
            };
            single(
                cfg,
                workload.build(),
                m.n_threads / m.n_compute,
                false,
                64,
                total_ops,
            );
        }
        Shape::Shards { partitions, .. } => {
            let (spec, mut population) = w.shard_spec(seed, TraceMode::Off).expect("shards shape");
            // One partition's sub-cluster, with as many of its tenants as
            // a probe can afford to admit.
            population.tenants_per_group = population.tenants_per_group.min(SHARD_TENANTS);
            let generator = Box::new(TenantGroup::new(&population, 0));
            let burst = spec.run.batch_ops as usize;
            single(
                spec.base.partition(partitions),
                generator,
                population.tenants_per_group,
                true,
                burst,
                total_ops,
            );
        }
        Shape::Service { .. } => {
            let cfg = w
                .service_config(seed, TraceMode::Off)
                .expect("service shape");
            let mut rng = SimRng::new(seed);
            let mut ranges = Vec::new();
            let mut sources: Vec<Source> = (0..SERVICE_TENANTS)
                .map(|i| {
                    let pages = rng.gen_range(cfg.min_pages, cfg.max_pages + 1);
                    let pattern: AccessPattern = cfg.class_patterns[i % cfg.class_patterns.len()];
                    ranges.push(pages << 12);
                    Source {
                        generator: Box::new(TenantWorkload::with_pattern(
                            pages,
                            cfg.read_ratio,
                            pattern,
                            rng.fork(),
                        )),
                        first_thread: i as u16,
                        first_range: i as u32,
                    }
                })
                .collect();
            let (ops, ns) = draw(&mut sources, total_ops, 1);
            fill_ns.push(ns);
            segments.push(Segment {
                cfg: untraced(cfg.rack),
                ranges,
                per_tenant: true,
                threads_per_blade: 1,
                burst: cfg.slots_per_quantum as usize,
                ops,
            });
        }
    }
    let mean = fill_ns.iter().sum::<f64>() / fill_ns.len() as f64;
    (segments, mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    const TEST_OPS: usize = 2_048;

    #[test]
    fn every_workload_yields_a_stream_that_binds_to_its_rack() {
        for name in NAMES {
            let w = Workload::tiny(name).unwrap();
            let (segments, fill_ns) = capture(&w, 1, TEST_OPS);
            assert!(fill_ns > 0.0, "{name}");
            let total: usize = segments.iter().map(|s| s.ops.len()).sum();
            assert!(total >= TEST_OPS, "{name}: {total}");
            for segment in &segments {
                let live = segment.instantiate();
                assert_eq!(live.ops.len(), segment.ops.len());
                assert_eq!(live.grants.len(), segment.ranges.len());
                for (op, raw) in live.ops.iter().zip(&segment.ops) {
                    let (_, base, len) = live.grants[raw.range as usize];
                    assert!((base..base + len).contains(&op.vaddr), "{name}");
                    assert!(op.blade < segment.cfg.n_compute, "{name}");
                }
            }
        }
    }

    #[test]
    fn the_stream_follows_the_seed() {
        let w = Workload::tiny("resident_hits").unwrap();
        let offsets = |seed| {
            capture(&w, seed, TEST_OPS).0[0]
                .ops
                .iter()
                .map(|o| o.offset)
                .collect::<Vec<_>>()
        };
        assert_eq!(offsets(1), offsets(1));
        assert_ne!(offsets(1), offsets(2));
    }
}
