//! Deterministic sharded simulation of partitioned scenarios.
//!
//! Big multi-tenant scenarios decompose into *partitions* — symmetric
//! tenant groups confined to disjoint blade slices (see
//! [`mind_core::shard`]). This module replays such a scenario one way:
//! [`run_sharded_threads`] splits the partitions across `shards`
//! sub-clusters, worker lanes replay each shard to completion on its own
//! ([`run_shard`]), and each finished report is folded into one report
//! with [`RunReport::merge`]. The one-shard run,
//! `run_sharded_threads(spec, 1, 1, ..)`, is the fused rack — every
//! partition on one cluster, replayed straight through — and the reference
//! sharded runs are checked against.
//!
//! ## Multi-core, constant-memory execution
//!
//! Shards share nothing: what a shard does depends only on its own state,
//! so nothing ever synchronizes them. Lanes — the calling thread plus
//! `lanes − 1` scoped threads ([`mind_sim::pool::run_lanes`]) — *claim*
//! shard indices from a shared cursor; each lane **builds one rack at its
//! first claim and rebuilds it for every later one** ([`MindCluster::reset`]
//! runs the constructor in the old rack's storage), fills it with the
//! claimed shard, replays it to completion, and folds its report into the
//! one running report before claiming the next index. Each lane holds one
//! rack and nothing else, so peak memory is O(lanes × one shard), not
//! O(all shards): the property that makes 10⁶-tenant scenarios affordable.
//!
//! Lanes fold reports **in completion order**, and that order is free:
//! every fold is a sum, a max or a bucket-wise add, so it commutes, and
//! the one vector whose order follows the fold — the trace events — is
//! canonicalized ([`mind_obs::TraceData::canonicalize`]) before any trace
//! is rendered. The merged report therefore renders the same bytes
//! whatever the lane count or completion schedule (proptested in
//! `tests/equivalence.rs`). The lane count is the caller's argument and a
//! scheduling decision only, never a semantic one.
//!
//! ## Determinism contract
//!
//! The one-shard run is the fused rack: its shard hosts every partition,
//! and a merge of one report is the identity. For `shards > 1` the merged
//! report is byte-identical to the one-shard run whenever the scenario is
//! *confined*:
//!
//! 1. partitions are structurally symmetric (same thread count and region
//!    list shape), so [`MindConfig::partition`] gives every shard the
//!    per-partition resource share the fused rack gives it;
//! 2. each partition's threads run on its compute slice and its regions
//!    are placed with `mmap_in` on its memory slice — both enforced here —
//!    so caches and per-blade fabric links never carry another
//!    partition's traffic;
//! 3. no invalidations occur (read-only sharing, or writes only from a
//!    single blade): Bounded Splitting's epoch threshold sums counters
//!    over *all* regions, so any invalidation couples partitions through
//!    the global total;
//! 4. directory utilization stays at or below 1/2 (the epoch merge phase
//!    is gated on `utilization > 0.5`, again a global quantity).
//!
//! Under 1–4 every quantity feeding an op's latency is partition-local,
//! so per-op timings — and therefore the merged integer report — match
//! the fused run exactly. Scenarios that break the contract still run and
//! merge, but approximate the fused result instead of reproducing it.
//!
//! Structural violations of the contract (asymmetric partitions, slices
//! that do not fit, initial directory utilization past the ½ ceiling) are
//! rejected up front with a typed [`ShardError`] naming the invariant,
//! instead of aborting mid-replay. Whether a scenario runs does not depend
//! on its shard count: every partition's slice comes from
//! [`MindConfig::try_partition`], which checks blade counts and switch
//! capacities alike.

use std::fmt::{self, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mind_core::cluster::{MindCluster, MindConfig};
use mind_core::shard::PartitionError;
use mind_sim::spare::reuse;

use crate::runner::{Replay, RunConfig, RunReport, Source};
use crate::trace::Workload;

/// Why a partitioned scenario cannot be (de)composed: each variant names
/// the confinement invariant that failed, so callers see *what* to fix
/// instead of a panic mid-setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardError {
    /// The rack itself does not divide into symmetric slices (blade
    /// counts or switch-resource capacities uneven).
    Partition(PartitionError),
    /// `run.interleave` was set; interleaved thread placement is not
    /// partition-confined.
    InterleavedPlacement,
    /// `run.threads_per_blade` was zero; no thread can be placed on a
    /// compute blade.
    ZeroThreadsPerBlade,
    /// A partition's thread count differs from the first partition's —
    /// partitions must be structurally symmetric.
    AsymmetricThreads {
        /// Global index of the offending partition.
        partition: u16,
        /// Its thread count.
        threads: u16,
        /// The thread count every partition must share.
        expected: u16,
    },
    /// `domain_per_thread` requires exactly one region per thread.
    RegionPerThread {
        /// Global index of the offending partition.
        partition: u16,
        /// Regions it exposes.
        regions: usize,
        /// Threads (= required regions) it runs.
        threads: u16,
    },
    /// A partition's threads need more compute blades than its slice has.
    ComputeSliceOverflow {
        /// Blades the partition's threads need under `threads_per_blade`.
        needed: u16,
        /// Blades its compute slice holds.
        available: u16,
    },
    /// A partition region does not fit its memory-blade slice.
    MemorySliceOverflow {
        /// Global index of the offending partition.
        partition: u16,
        /// Size of the region that failed to place, in bytes.
        region_bytes: u64,
    },
    /// The shard count does not evenly divide the partitions.
    UnevenShards {
        /// Partitions in the scenario.
        partitions: u16,
        /// Requested shard count.
        shards: u16,
    },
    /// [`run_shard`] was asked for a shard the split does not have.
    ShardOutOfRange {
        /// The requested shard index.
        shard: u16,
        /// Shards in the split.
        shards: u16,
    },
    /// Initial directory utilization exceeds the determinism contract's
    /// ½ ceiling (the epoch merge phase would engage, a global coupling).
    DirectoryOverUtilized {
        /// Initial directory population (at least one entry per mmap'd
        /// region materializes on first touch).
        entries: usize,
        /// The cluster's directory capacity.
        capacity: usize,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ShardError::Partition(e) => write!(f, "{e}"),
            ShardError::InterleavedPlacement => {
                write!(f, "interleaved placement is not partition-confined")
            }
            ShardError::ZeroThreadsPerBlade => write!(f, "threads_per_blade must be at least 1"),
            ShardError::AsymmetricThreads { partition, threads, expected } => write!(
                f,
                "partition {partition} runs {threads} threads, expected {expected}: \
                 partitions must be symmetric in thread count"
            ),
            ShardError::RegionPerThread { partition, regions, threads } => write!(
                f,
                "partition {partition} exposes {regions} regions for {threads} threads: \
                 per-thread domains need exactly one region per thread"
            ),
            ShardError::ComputeSliceOverflow { needed, available } => write!(
                f,
                "partition threads need {needed} compute blades, slice has {available}"
            ),
            ShardError::MemorySliceOverflow { partition, region_bytes } => write!(
                f,
                "partition {partition} region of {region_bytes} bytes does not fit \
                 its memory-blade slice"
            ),
            ShardError::UnevenShards { partitions, shards } => write!(
                f,
                "{partitions} partitions do not divide into {shards} shards"
            ),
            ShardError::ShardOutOfRange { shard, shards } => {
                write!(f, "shard {shard} is out of range for {shards} shards")
            }
            ShardError::DirectoryOverUtilized { entries, capacity } => write!(
                f,
                "initial directory utilization {entries}/{capacity} exceeds the \
                 determinism contract's 1/2 ceiling"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<PartitionError> for ShardError {
    fn from(e: PartitionError) -> Self {
        ShardError::Partition(e)
    }
}

/// A partitioned scenario: `partitions` symmetric tenant groups over a
/// fused rack `base`, replayed by [`run_sharded_threads`].
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Scenario name carried into the merged report.
    pub name: String,
    /// The fused rack hosting all partitions.
    pub base: MindConfig,
    /// Number of partitions; must divide the rack per
    /// [`MindConfig::try_partition`].
    pub partitions: u16,
    /// Per-thread replay parameters (shared by every partition).
    pub run: RunConfig,
    /// `false` (the default shape): one process — one protection domain —
    /// per partition. `true`: one process *per thread*, for multi-tenant
    /// populations where every tenant is its own protection domain (the
    /// `mind_service` isolation model); the partition workload must then
    /// expose exactly one region per thread, with thread `t` owning
    /// region `t`. Per-tenant domains never coalesce in the switch's
    /// protection TCAM, so fused admission cost grows with the *rack's*
    /// tenant count while each shard only pays for its own slice — the
    /// effect the large-scenario scaling point measures.
    pub domain_per_thread: bool,
}

/// Builds the workload of one partition, keyed by its *global* partition
/// index so a partition generates the identical op stream whichever shard
/// (or the fused rack) hosts it. `Sync` because worker lanes construct
/// their shards lazily and concurrently; a factory must derive a
/// partition's workload from the index alone (shared captures are fine,
/// per-call mutation is not — which is also what index-keyed determinism
/// already demanded).
pub type PartitionFactory<'a> = dyn Fn(u16) -> Box<dyn Workload> + Sync + 'a;

/// A worker lane's rack, replay, workload list and report, kept between
/// the shards it claims: each shard after the first is built, replayed and
/// reported in the storage the one before it used, so a lane holds one
/// shard's state.
struct Lane {
    cluster: MindCluster,
    replay: Replay,
    workloads: Vec<Box<dyn Workload>>,
    report: RunReport,
}

impl Lane {
    /// A lane for shards on racks of `cfg` replayed under `run`, in a
    /// spare's storage (its rack [`MindCluster::reset`]) when there is one.
    fn build(cfg: MindConfig, run: RunConfig, spare: Option<Lane>) -> Lane {
        let (cluster, replay, workloads, report) = match spare {
            Some(l) => (
                l.cluster.reset(),
                l.replay,
                Some(l.workloads),
                Some(l.report),
            ),
            None => (MindCluster::new(cfg), Replay::new(run), None, None),
        };
        Lane {
            cluster,
            replay,
            workloads: reuse(workloads),
            report: RunReport::build(run.trace, report),
        }
    }
}

/// Partition `p`'s compute and memory blades when every partition is a
/// `slice`-sized sub-rack (a [`MindConfig::try_partition`] of its rack).
fn blades_of(slice: &MindConfig, p: u16) -> (Range<u16>, Range<u16>) {
    let (c, m) = (slice.n_compute, slice.n_memory);
    (p * c..(p + 1) * c, p * m..(p + 1) * m)
}

/// Replays one shard of `spec`'s partitions co-hosted on one cluster (the
/// whole scenario when there is one shard) to completion: fills a rack of
/// `cfg` with the global partitions `first..first + partitions` (per
/// partition, one process, threads pinned to its compute slice, regions
/// `mmap_in`-confined to its memory slice), checks confinement, and hands
/// rack and partition workloads to a [`Replay`]. Everything is built in
/// `lane`, rebuilt from the lane's last shard when it has one; the report,
/// named `name`, is the lane's. Its trace, if any, carries this group's
/// *local* lane indices.
///
/// # Errors
///
/// As [`run_shard`], less the checks of the shard split itself.
fn replay_group<'l>(
    spec: &ShardSpec,
    name: fmt::Arguments,
    cfg: MindConfig,
    lane: &'l mut Option<Lane>,
    first: u16,
    partitions: u16,
    factory: &PartitionFactory,
) -> Result<&'l mut RunReport, ShardError> {
    let (run, domain_per_thread) = (spec.run, spec.domain_per_thread);
    let lane = {
        let _t = mind_obs::profile::scope("shard.build");
        if run.interleave {
            return Err(ShardError::InterleavedPlacement);
        }
        if run.threads_per_blade == 0 {
            return Err(ShardError::ZeroThreadsPerBlade);
        }
        let slice = cfg.try_partition(partitions)?;
        let next = Lane::build(cfg, run, lane.take());
        let lane = lane.insert(next);
        lane.report.name.write_fmt(name).expect("a String takes any text");
        let cluster = &mut lane.cluster;
        let (sources, all_bases) = lane.replay.layout(partitions as usize);
        let mut threads_per_partition = None;
        let mut total_regions = 0usize;
        for (lp, bases) in (0..partitions).zip(all_bases) {
            let workload = factory(first + lp);
            let nt = workload.n_threads();
            let expected = *threads_per_partition.get_or_insert(nt);
            if nt != expected {
                return Err(ShardError::AsymmetricThreads {
                    partition: first + lp,
                    threads: nt,
                    expected,
                });
            }
            let regions = workload.regions();
            if domain_per_thread && regions.len() != nt as usize {
                return Err(ShardError::RegionPerThread {
                    partition: first + lp,
                    regions: regions.len(),
                    threads: nt,
                });
            }
            // Thread `t` runs on the partition's compute slice, in its own
            // domain or the partition's one; region `r` is thread `r`'s
            // domain's or the partition's.
            let (compute, memory) = blades_of(&slice, lp);
            let shared = (!domain_per_thread).then(|| cluster.exec().expect("exec cannot fail"));
            let own = sources.len();
            sources.extend((0..nt).map(|t| Source {
                part: lp as u32,
                thread: t,
                blade: compute.start + t / run.threads_per_blade,
                pdid: Some(shared.unwrap_or_else(|| cluster.exec().expect("exec cannot fail"))),
            }));
            total_regions += regions.len();
            for (r, len) in regions.into_iter().enumerate() {
                let owner = sources[own + if domain_per_thread { r } else { 0 }].pdid;
                let pid = owner.expect("every source has a domain");
                let base = cluster.mmap_in(pid, len, memory.clone()).map_err(|_| {
                    ShardError::MemorySliceOverflow {
                        partition: first + lp,
                        region_bytes: len,
                    }
                })?;
                bases.push(base);
            }
            lane.workloads.push(workload);
        }
        let tpp = threads_per_partition.expect("at least one partition");
        let blades_needed = tpp.div_ceil(run.threads_per_blade);
        if blades_needed > slice.n_compute {
            return Err(ShardError::ComputeSliceOverflow {
                needed: blades_needed,
                available: slice.n_compute,
            });
        }
        // Contract condition 4, checked where it is cheap and actionable:
        // the initial region population must leave the epoch merge phase
        // gated (it engages above ½ utilization, a globally-coupled
        // quantity). Directory entries materialize on first touch — one
        // per mmap'd region at minimum — so a directory too small to hold
        // the region population at ≤ ½ utilization is over-committed from
        // the start, and that is the misconfiguration signal worth naming.
        let entries = total_regions.max(cluster.directory_entries());
        if entries * 2 > cfg.dir_capacity {
            return Err(ShardError::DirectoryOverUtilized {
                entries,
                capacity: cfg.dir_capacity,
            });
        }

        lane.replay.arm(&lane.cluster, tpp as u32);
        lane
    };
    let _t = mind_obs::profile::scope("shard.advance");
    let Lane {
        cluster,
        replay,
        workloads,
        report,
    } = lane;
    replay.run(cluster, workloads, report);
    Ok(report)
}

/// The sub-rack one of `shards` shards runs on and the partitions it
/// hosts.
fn shard_rack(spec: &ShardSpec, shards: u16) -> Result<(MindConfig, u16), ShardError> {
    if shards == 0 || !spec.partitions.is_multiple_of(shards) {
        return Err(ShardError::UnevenShards {
            partitions: spec.partitions,
            shards,
        });
    }
    Ok((spec.base.try_partition(shards)?, spec.partitions / shards))
}

/// Shard `s` of the scenario split `shards` ways, built, replayed to
/// completion and reported on its own: what one worker lane of
/// [`run_sharded_threads`] does per claimed index. Trace lanes are rebased
/// onto the fused rack's global blade indices (shard `s` owns the compute
/// blades [`MindConfig::try_partition`] gives its slice, so the merged
/// trace is grouping-invariant); merging every shard's report
/// ([`RunReport::merge`]) is the sharded result.
///
/// # Errors
///
/// Returns the [`ShardError`] naming the violated invariant: an uneven
/// shard split, a shard index `s` not below `shards`, an asymmetric rack
/// partition, partitions that are not symmetric or do not fit their
/// compute or memory slices, interleaved thread placement (not
/// partition-confined), zero `threads_per_blade`, `domain_per_thread`
/// without exactly one region per thread, or an initial directory
/// utilization past the contract's ½ ceiling.
pub fn run_shard(
    spec: &ShardSpec,
    shards: u16,
    s: u16,
    factory: &PartitionFactory,
) -> Result<RunReport, ShardError> {
    let mut lane = None;
    run_shard_on(spec, shards, s, factory, &mut lane)?;
    Ok(lane.expect("the shard ran on the lane").report)
}

/// [`run_shard`] in `lane`'s storage; the report is the lane's.
fn run_shard_on<'l>(
    spec: &ShardSpec,
    shards: u16,
    s: u16,
    factory: &PartitionFactory,
    lane: &'l mut Option<Lane>,
) -> Result<&'l mut RunReport, ShardError> {
    let (sub, per_shard) = shard_rack(spec, shards)?;
    if s >= shards {
        return Err(ShardError::ShardOutOfRange { shard: s, shards });
    }
    let name = format_args!("{}/shard{s}", spec.name);
    let report = replay_group(spec, name, sub, lane, s * per_shard, per_shard, factory)?;
    if let Some(t) = &mut report.trace {
        t.rebase_lanes(blades_of(&sub, s).0.start as u32);
    }
    Ok(report)
}

/// Replays the scenario as `shards` independent sub-clusters on `lanes`
/// lanes (clamped to `1..=shards`) and merges the per-shard reports. The
/// lanes are the calling thread and `lanes − 1` scoped threads, so one
/// lane runs on the caller alone. One shard is the fused rack; see the
/// module docs for when more shards reproduce it byte for byte. The
/// result renders the same bytes at every lane count.
///
/// Lanes claim shard indices from a shared cursor. A lane builds one rack
/// at its first claim and rebuilds it for every later one, fills it with
/// the claimed shard, runs it to completion, and folds the finished
/// report into the one merged report as soon as it finishes — so peak
/// memory is O(lanes × one shard), never O(shards), and no
/// `Vec<RunReport>` ever materializes. Lanes share no simulation state — a
/// reset rack is a new rack — so preemption and completion order cannot
/// influence any simulated quantity. On a construction error the lowest
/// failing shard index wins (shard construction is deterministic per
/// index, so the reported error is too) and lanes stop claiming.
///
/// # Errors
///
/// As [`run_shard`], for the lowest shard index that fails.
pub fn run_sharded_threads(
    spec: &ShardSpec,
    shards: u16,
    lanes: usize,
    factory: &PartitionFactory,
) -> Result<RunReport, ShardError> {
    // A split no shard can run on fails here, before any lane starts.
    shard_rack(spec, shards)?;
    let lanes = lanes.clamp(1, shards as usize);

    let merged = Mutex::new(RunReport {
        name: spec.name.clone(),
        ..RunReport::default()
    });
    let cursor = AtomicUsize::new(0);
    let failed: Mutex<Option<(u16, ShardError)>> = Mutex::new(None);
    mind_sim::pool::run_lanes(lanes, || {
        let mut lane = None;
        while failed.lock().expect("no panic holds the error slot").is_none() {
            let s = cursor.fetch_add(1, Ordering::Relaxed);
            if s >= shards as usize {
                break;
            }
            match run_shard_on(spec, shards, s as u16, factory, &mut lane) {
                Ok(report) => {
                    let _t = mind_obs::profile::scope("shard.merge");
                    let mut merged = merged.lock().expect("no panic holds the merged report");
                    merged.merge(report);
                }
                Err(e) => {
                    let mut slot = failed.lock().expect("no panic holds the error slot");
                    if slot.is_none_or(|(lowest, _)| (s as u16) < lowest) {
                        *slot = Some((s as u16, e));
                    }
                }
            }
        }
    });

    if let Some((_, e)) = failed.into_inner().expect("workers joined") {
        return Err(e);
    }
    Ok(merged.into_inner().expect("workers joined"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceOp;
    use mind_core::system::AccessKind;
    use mind_sim::{SimRng, SimTime};
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    /// A single-threaded tenant touching its own pages; writes stay on
    /// one blade, so the confinement contract holds.
    struct Tenant {
        pages: u64,
        rng: SimRng,
    }

    impl Workload for Tenant {
        fn name(&self) -> String {
            "tenant".to_string()
        }
        fn regions(&self) -> Vec<u64> {
            vec![self.pages << 12]
        }
        fn n_threads(&self) -> u16 {
            1
        }
        fn next_op(&mut self, _thread: u16) -> TraceOp {
            TraceOp {
                region: 0,
                offset: self.rng.gen_below(self.pages) << 12,
                kind: if self.rng.gen_bool(0.3) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            }
        }
    }

    fn spec(partitions: u16) -> ShardSpec {
        ShardSpec {
            name: "shard-test".to_string(),
            base: MindConfig {
                n_compute: partitions,
                n_memory: partitions,
                cache_pages: 512,
                blade_span: 1 << 26,
                memory_blade_bytes: 1 << 26,
                dir_capacity: 4096,
                rule_capacity: 4096,
                ..MindConfig::default()
            },
            partitions,
            run: RunConfig {
                ops_per_thread: 200,
                warmup_ops_per_thread: 40,
                ..Default::default()
            },
            domain_per_thread: false,
        }
    }

    fn factory(p: u16) -> Box<dyn Workload> {
        Box::new(Tenant {
            pages: 32,
            rng: SimRng::new(1000 + p as u64),
        })
    }

    fn key(r: &RunReport) -> (SimTime, SimTime, u64, u64, u64, u64, u128, u128, u64) {
        (
            r.runtime,
            r.warmup_end,
            r.total_ops,
            r.remote_ops,
            r.invalidations,
            r.flushed_pages,
            r.sum_network_ns,
            r.sum_remote_lat_ns,
            r.latency.quantile(0.999),
        )
    }

    /// Asserts `got` reproduces `want` bit for bit.
    fn assert_same(want: &RunReport, got: &RunReport, what: &str) {
        assert_eq!(key(want), key(got), "{what}");
        assert_eq!(want.metrics, got.metrics, "{what}");
        assert_eq!(want.window_metrics, got.window_metrics, "{what}");
        assert_eq!(want.mops.to_bits(), got.mops.to_bits(), "{what}");
    }

    #[test]
    fn one_shard_matches_serialized_reference_exactly() {
        // The one-shard run is the whole rack's own report, merged alone.
        let s = spec(4);
        let whole = run_shard(&s, 1, 0, &factory).expect("confined scenario");
        let fused = run_sharded_threads(&s, 1, 1, &factory).expect("confined scenario");
        assert_same(&whole, &fused, "one shard");
    }

    /// The threads that built each shard's one partition when `lanes`
    /// lanes replay two shards; with `meet`, a lane that built one waits
    /// until the other shard is built too, so two lanes must hold a shard
    /// each at once.
    fn shard_threads(lanes: usize, meet: Option<&Barrier>) -> Vec<ThreadId> {
        let threads = Mutex::new(Vec::new());
        let factory = |p| {
            threads.lock().unwrap().push(thread::current().id());
            if let Some(barrier) = meet {
                barrier.wait();
            }
            factory(p)
        };
        run_sharded_threads(&spec(2), 2, lanes, &factory).expect("confined scenario");
        threads.into_inner().unwrap()
    }

    #[test]
    fn the_caller_is_one_of_the_lanes() {
        let caller = thread::current().id();
        let two = shard_threads(2, Some(&Barrier::new(2)));
        assert_eq!(two.len(), 2);
        assert_eq!(two.iter().filter(|&&t| t == caller).count(), 1, "{two:?}");
        assert!(shard_threads(1, None).iter().all(|&t| t == caller));
    }

    #[test]
    fn per_thread_domains_require_region_per_thread() {
        struct TwoRegions;
        impl Workload for TwoRegions {
            fn name(&self) -> String {
                "two-regions".to_string()
            }
            fn regions(&self) -> Vec<u64> {
                vec![1 << 16, 1 << 16]
            }
            fn n_threads(&self) -> u16 {
                1
            }
            fn next_op(&mut self, _thread: u16) -> TraceOp {
                TraceOp {
                    region: 0,
                    offset: 0,
                    kind: AccessKind::Read,
                }
            }
        }
        let mut s = spec(2);
        s.domain_per_thread = true;
        let err = run_sharded_threads(&s, 1, 1, &|_| Box::new(TwoRegions)).unwrap_err();
        assert_eq!(
            err,
            ShardError::RegionPerThread {
                partition: 0,
                regions: 2,
                threads: 1
            }
        );
        assert!(err.to_string().contains("one region per thread"), "{err}");
    }

    #[test]
    fn interleaved_placement_rejected() {
        let mut s = spec(2);
        s.run.interleave = true;
        let err = run_sharded_threads(&s, 1, 1, &factory).unwrap_err();
        assert_eq!(err, ShardError::InterleavedPlacement);
        assert!(err.to_string().contains("not partition-confined"), "{err}");
    }

    #[test]
    fn uneven_shard_split_rejected() {
        let s = spec(4);
        let err = run_sharded_threads(&s, 3, 1, &factory).unwrap_err();
        assert_eq!(
            err,
            ShardError::UnevenShards {
                partitions: 4,
                shards: 3
            }
        );
        assert!(err.to_string().contains("do not divide"), "{err}");
    }

    #[test]
    fn out_of_range_shard_rejected() {
        let err = run_shard(&spec(4), 2, 2, &factory).unwrap_err();
        assert_eq!(err, ShardError::ShardOutOfRange { shard: 2, shards: 2 });
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn zero_threads_per_blade_rejected() {
        let mut s = spec(2);
        s.run.threads_per_blade = 0;
        assert_eq!(run_sharded_threads(&s, 1, 1, &factory).unwrap_err(), ShardError::ZeroThreadsPerBlade);
        assert_eq!(run_sharded_threads(&s, 2, 1, &factory).unwrap_err(), ShardError::ZeroThreadsPerBlade);
        let err = run_sharded_threads(&s, 2, 2, &factory).unwrap_err();
        assert_eq!(err, ShardError::ZeroThreadsPerBlade);
        assert!(err.to_string().contains("threads_per_blade"), "{err}");
    }

    #[test]
    fn asymmetric_rack_surfaces_partition_error() {
        let mut s = spec(4);
        s.base.n_compute = 3;
        let err = run_sharded_threads(&s, 2, 1, &factory).unwrap_err();
        assert!(
            matches!(err, ShardError::Partition(PartitionError::UnevenCompute { .. })),
            "{err:?}"
        );
        s.base.n_compute = 4;
        s.partitions = 0;
        let err = run_sharded_threads(&s, 1, 1, &factory).unwrap_err();
        assert_eq!(err, ShardError::Partition(PartitionError::ZeroPartitions));
    }

    /// Whether a spec runs must not depend on its shard count: a switch
    /// capacity the partitions do not divide is refused at every count.
    fn assert_refused_at_every_shard_count(s: &ShardSpec, want: fn(PartitionError) -> bool) {
        for shards in [1u16, 2, 4] {
            let err = run_sharded_threads(s, shards, 1, &factory).unwrap_err();
            assert!(matches!(err, ShardError::Partition(e) if want(e)), "{shards}: {err:?}");
        }
    }

    #[test]
    fn uneven_dir_capacity_is_refused_at_every_shard_count() {
        let mut s = spec(4);
        s.base.dir_capacity = 4_098;
        assert_refused_at_every_shard_count(&s, |e| {
            matches!(e, PartitionError::UnevenDirCapacity { .. })
        });
    }

    #[test]
    fn uneven_rule_capacity_is_refused_at_every_shard_count() {
        let mut s = spec(4);
        s.base.rule_capacity = 4_098;
        assert_refused_at_every_shard_count(&s, |e| {
            matches!(e, PartitionError::UnevenRuleCapacity { .. })
        });
    }

    #[test]
    fn slices_tile_the_rack_disjointly() {
        let base = MindConfig { n_compute: 8, n_memory: 4, ..spec(4).base };
        let slice = base.try_partition(4).expect("8 and 4 divide by 4");
        let (mut compute, mut memory) = (Vec::new(), Vec::new());
        for p in 0..4 {
            let (c, m) = blades_of(&slice, p);
            compute.extend(c);
            memory.extend(m);
        }
        assert_eq!(compute, (0..8).collect::<Vec<u16>>());
        assert_eq!(memory, (0..4).collect::<Vec<u16>>());
    }

    /// One tenant replayed by the plain runner on a rack of its own.
    fn direct(seed: u64, ops: u64) -> RunReport {
        let mut sys = MindCluster::new(MindConfig::small());
        let mut wl = Tenant { pages: 32, rng: SimRng::new(seed) };
        let cfg = RunConfig { ops_per_thread: ops, warmup_ops_per_thread: 20, ..Default::default() };
        crate::runner::run(&mut sys, &mut wl, cfg)
    }

    fn merged(name: &str, reports: Vec<RunReport>) -> RunReport {
        let mut merged = RunReport {
            name: name.to_string(),
            ..RunReport::default()
        };
        for mut r in reports {
            merged.merge(&mut r);
        }
        merged
    }

    #[test]
    fn merge_of_one_report_is_identity() {
        let a = direct(5, 300);
        let m = merged(&a.name, vec![a.clone()]);
        assert_same(&a, &m, "floats recomputed bit-identically");
        assert_eq!(m.mean_remote_ns.to_bits(), a.mean_remote_ns.to_bits());
        assert_eq!(m.remote_per_op.to_bits(), a.remote_per_op.to_bits());
    }

    #[test]
    fn merge_sums_integers_and_spans_windows() {
        let (a, b) = (direct(1, 200), direct(2, 300));
        let m = merged("merged", vec![a.clone(), b.clone()]);
        assert_eq!(m.name, "merged");
        assert_eq!(m.total_ops, a.total_ops + b.total_ops);
        assert_eq!(m.remote_ops, a.remote_ops + b.remote_ops);
        assert_eq!(m.invalidations, a.invalidations + b.invalidations);
        assert_eq!(m.latency.count(), a.latency.count() + b.latency.count());
        assert_eq!(m.warmup_end, a.warmup_end.max(b.warmup_end));
        assert_eq!(
            m.warmup_end + m.runtime,
            (a.warmup_end + a.runtime).max(b.warmup_end + b.runtime),
            "merged window ends at the latest partition end"
        );
        assert_eq!(
            m.metrics.get("accesses"),
            a.metrics.get("accesses") + b.metrics.get("accesses")
        );
    }

    #[test]
    fn over_utilized_directory_rejected() {
        // One tenant spanning many pages against a directory too small to
        // hold the initial regions at ≤ ½ utilization.
        let mut s = spec(2);
        s.base.dir_capacity = 2;
        s.base.rule_capacity = 2;
        let err = run_sharded_threads(&s, 1, 1, &factory).unwrap_err();
        assert!(
            matches!(err, ShardError::DirectoryOverUtilized { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("1/2 ceiling"), "{err}");
    }
}
