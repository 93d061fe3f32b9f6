//! Deterministic sharded simulation of partitioned scenarios.
//!
//! Big multi-tenant scenarios decompose into *partitions* — symmetric
//! tenant groups confined to disjoint blade slices (see
//! [`mind_core::shard`]). This module replays such scenarios two ways:
//!
//! - [`run_group`]: the **serialized reference** — every partition on one
//!   fused rack, replayed straight through;
//! - [`run_sharded`]: the same partitions split across `shards`
//!   sub-clusters, each replayed to completion on its own ([`run_shard`])
//!   and streamed through [`StreamedMerge`] into one report in
//!   shard-index order, byte-identical to an in-memory
//!   [`crate::runner::merge_reports`] over the same per-shard reports.
//!
//! ## Multi-core, constant-memory execution
//!
//! Shards share nothing: what a shard does depends only on its own state,
//! so nothing ever synchronizes them. Scoped worker threads *claim* shard
//! indices from a shared cursor; each worker **builds its shard lazily,
//! replays it to completion, and streams its report into a running
//! accumulator** ([`StreamedMerge`]) before claiming the next index. At
//! no point does more than one sub-cluster (plus a bounded reorder buffer
//! of finished reports) live per worker lane. Peak memory is therefore
//! O(lanes × one shard), not O(all shards): the property that makes
//! 10⁶-tenant scenarios affordable.
//!
//! The merge folds per-shard reports **in shard-index order, never
//! completion order**: [`StreamedMerge`] buffers any report that arrives
//! ahead of a lower-index shard and folds it the moment the gap closes,
//! so the merged report is byte-identical whatever the thread count or
//! completion schedule (proptested in `tests/streamed_merge.rs`). The
//! driver picks its thread count from the process-wide
//! [`mind_sim::threads`] budget (override with [`SHARD_THREADS_ENV`], or
//! call [`run_sharded_threads`] for an exact count), degrading to the
//! sequential single-lane path when the budget is spent — a scheduling
//! decision only, never a semantic one.
//!
//! ## Determinism contract
//!
//! `run_sharded(spec, 1, ..)` is byte-identical to `run_group(spec, ..)`:
//! the one shard is the fused rack, and a merge of one report is the
//! identity. For `shards > 1` the merged report is byte-identical to
//! the fused reference whenever the scenario is *confined*:
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
//! instead of aborting mid-replay.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mind_core::cluster::{MindCluster, MindConfig};
use mind_core::controller::Pid;
use mind_core::shard::{PartitionError, PartitionLayout};
use mind_sim::threads;

use crate::runner::{Replay, ReportMerger, RunConfig, RunReport, Source};
use crate::trace::Workload;

/// Environment variable overriding the shard-thread count [`run_sharded`]
/// uses (exact, like an explicit [`run_sharded_threads`] call). Unset,
/// the driver asks the process-wide [`mind_sim::threads`] budget for one
/// thread per shard and runs with whatever is granted. Parsed by
/// [`mind_sim::env::shard_threads`].
pub const SHARD_THREADS_ENV: &str = mind_sim::env::SHARD_THREADS_ENV;

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
/// fused rack `base`, replayable fused ([`run_group`]) or sharded
/// ([`run_sharded`]).
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Scenario name carried into the merged report.
    pub name: String,
    /// The fused rack hosting all partitions.
    pub base: MindConfig,
    /// Number of partitions; must divide the rack per
    /// [`PartitionLayout`].
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

/// Replays one group of `spec`'s partitions co-hosted on one cluster —
/// the whole scenario (the fused reference) or one shard of it — to
/// completion: assembles a cluster of `cfg` hosting the global partitions
/// `first..first + partitions` (per partition, one process, threads
/// pinned to its compute slice, regions `mmap_in`-confined to its memory
/// slice), checks confinement, and hands cluster and partition workloads
/// to a [`Replay`]. The report's trace, if any, carries this group's
/// *local* lane indices.
///
/// # Errors
///
/// Returns the [`ShardError`] naming the violated invariant if the
/// partitions are not symmetric, do not fit their compute or memory
/// slices, `run.interleave` is set (interleaved thread placement is
/// not partition-confined), `run.threads_per_blade` is zero,
/// `domain_per_thread` is set and a partition does not expose exactly
/// one region per thread, or the initial directory utilization exceeds
/// the contract's ½ ceiling.
fn replay_group(
    spec: &ShardSpec,
    name: String,
    cfg: MindConfig,
    first: u16,
    partitions: u16,
    factory: &PartitionFactory,
) -> Result<RunReport, ShardError> {
    let (run, domain_per_thread) = (spec.run, spec.domain_per_thread);
    let (mut cluster, mut workloads, replay) = {
        let _t = mind_obs::profile::scope("shard.build");
        if run.interleave {
            return Err(ShardError::InterleavedPlacement);
        }
        if run.threads_per_blade == 0 {
            return Err(ShardError::ZeroThreadsPerBlade);
        }
        let layout = PartitionLayout::try_new(&cfg, partitions)?;
        let dir_capacity = cfg.dir_capacity;
        let mut cluster = MindCluster::new(cfg);
        let mut workloads = Vec::with_capacity(partitions as usize);
        let mut sources = Vec::new();
        let mut all_bases = Vec::with_capacity(partitions as usize);
        let mut threads_per_partition = None;
        let mut total_regions = 0usize;
        for lp in 0..partitions {
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
            let pids: Vec<Pid> = if domain_per_thread {
                if regions.len() != nt as usize {
                    return Err(ShardError::RegionPerThread {
                        partition: first + lp,
                        regions: regions.len(),
                        threads: nt,
                    });
                }
                (0..nt)
                    .map(|_| cluster.exec().expect("exec cannot fail"))
                    .collect()
            } else {
                vec![cluster.exec().expect("exec cannot fail")]
            };
            let slice = layout.memory_slice(lp);
            total_regions += regions.len();
            let mut bases = Vec::with_capacity(regions.len());
            for (r, len) in regions.into_iter().enumerate() {
                let pid = pids[if domain_per_thread { r } else { 0 }];
                let base = cluster.mmap_in(pid, len, slice.clone()).map_err(|_| {
                    ShardError::MemorySliceOverflow {
                        partition: first + lp,
                        region_bytes: len,
                    }
                })?;
                bases.push(base);
            }
            // Thread `t` runs on the partition's compute slice, in its own
            // domain or the partition's one.
            let compute_lo = layout.compute_slice(lp).start;
            sources.extend((0..nt).map(|t| Source {
                part: lp as u32,
                thread: t,
                blade: compute_lo + t / run.threads_per_blade,
                pdid: Some(pids[if domain_per_thread { t as usize } else { 0 }]),
            }));
            workloads.push(workload);
            all_bases.push(bases);
        }
        let tpp = threads_per_partition.expect("at least one partition");
        let blades_needed = tpp.div_ceil(run.threads_per_blade);
        if blades_needed > layout.compute_per_partition {
            return Err(ShardError::ComputeSliceOverflow {
                needed: blades_needed,
                available: layout.compute_per_partition,
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
        if entries * 2 > dir_capacity {
            return Err(ShardError::DirectoryOverUtilized {
                entries,
                capacity: dir_capacity,
            });
        }

        let replay = Replay::new(&cluster, run, sources, tpp as u32, all_bases);
        (cluster, workloads, replay)
    };
    let _t = mind_obs::profile::scope("shard.advance");
    Ok(replay.run(&mut cluster, &mut workloads, name))
}

/// The serialized reference: every partition fused on one rack, replayed
/// straight through in a single pass.
///
/// # Errors
///
/// Returns the [`ShardError`] naming the violated confinement invariant
/// (see [`run_shard`]).
pub fn run_group(spec: &ShardSpec, factory: &PartitionFactory) -> Result<RunReport, ShardError> {
    replay_group(spec, spec.name.clone(), spec.base, 0, spec.partitions, factory)
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
/// [`run_sharded`] does per claimed index. Trace lanes are rebased onto
/// the fused rack's global blade indices (shard `s` owns blades starting
/// at `s × sub.n_compute`, so the merged trace is grouping-invariant);
/// merging every shard's report in index order
/// ([`crate::runner::merge_reports`]) is the sharded result.
///
/// # Errors
///
/// Returns the [`ShardError`] naming the violated invariant: an uneven
/// shard split, an asymmetric rack partition, partitions that are not
/// symmetric or do not fit their compute or memory slices, interleaved
/// thread placement (not partition-confined), zero `threads_per_blade`,
/// `domain_per_thread` without exactly one region per thread, or an
/// initial directory utilization past the contract's ½ ceiling.
///
/// # Panics
///
/// Panics if `s` is not below `shards`.
pub fn run_shard(
    spec: &ShardSpec,
    shards: u16,
    s: u16,
    factory: &PartitionFactory,
) -> Result<RunReport, ShardError> {
    let (sub, per_shard) = shard_rack(spec, shards)?;
    assert!(s < shards, "shard {s} out of range {shards}");
    let name = format!("{}/shard{s}", spec.name);
    let mut report = replay_group(spec, name, sub, s * per_shard, per_shard, factory)?;
    if let Some(t) = &mut report.trace {
        t.rebase_lanes(s as u32 * sub.n_compute as u32);
    }
    Ok(report)
}

/// Replays the scenario as `shards` independent sub-clusters — in
/// parallel on OS threads when the process-wide thread budget has
/// headroom — and merges the per-shard reports in shard-index order. See
/// the module docs for when the result is byte-identical to
/// [`run_group`]; it is *always* byte-identical across thread counts.
///
/// The thread count is [`SHARD_THREADS_ENV`] when set, otherwise one
/// thread per shard capped by what [`mind_sim::threads::budget`] has left
/// (an engine already saturating the machine degrades this to the
/// sequential path). For an explicit count use [`run_sharded_threads`].
///
/// # Errors
///
/// As [`run_shard`], for the lowest shard index that fails.
pub fn run_sharded(
    spec: &ShardSpec,
    shards: u16,
    factory: &PartitionFactory,
) -> Result<RunReport, ShardError> {
    match mind_sim::env::shard_threads() {
        Some(n) => run_sharded_threads(spec, shards, n, factory),
        None => {
            let grant = threads::budget().reserve((shards as usize).saturating_sub(1));
            run_sharded_inner(spec, shards, grant.lanes(), factory)
        }
    }
}

/// [`run_sharded`] with an explicit thread count (clamped to the shard
/// count; 1 runs the sequential reference path). The count is honoured
/// verbatim — it is *claimed* from the process-wide budget rather than
/// negotiated, so concurrent polite consumers back off instead.
///
/// # Errors
///
/// As [`run_sharded`].
pub fn run_sharded_threads(
    spec: &ShardSpec,
    shards: u16,
    threads_wanted: usize,
    factory: &PartitionFactory,
) -> Result<RunReport, ShardError> {
    let lanes = threads_wanted.max(1).min(shards.max(1) as usize);
    let _claim = threads::budget().claim(lanes - 1);
    run_sharded_inner(spec, shards, lanes, factory)
}

/// The shard-index-order streaming merge: per-shard reports are folded
/// into a running [`ReportMerger`] the moment every lower-index shard has
/// been folded, whatever order they *arrive* in. Reports that complete
/// ahead of a lower-index shard wait in a reorder buffer bounded by the
/// number of concurrently-running lanes — never by the shard count — so
/// merging `n` shards holds one accumulator plus O(lanes) buffered
/// reports instead of all `n`.
///
/// Fold order is the whole point: integer, histogram, and timeseries
/// folds are order-independent by construction, but trace merge extends
/// event vectors, so only an index-order fold reproduces the in-memory
/// [`crate::runner::merge_reports`] bytes. The reorder buffer makes the
/// fold order a function of shard *indices* alone; completion order,
/// thread count, and OS scheduling cannot reach it (proptested in
/// `tests/streamed_merge.rs`).
pub struct StreamedMerge {
    merger: ReportMerger,
    /// Reports that arrived ahead of a lower-index shard, keyed by shard.
    pending: BTreeMap<usize, RunReport>,
    /// The next shard index the merger will fold.
    next: usize,
    /// Total shards this merge expects.
    total: usize,
}

impl StreamedMerge {
    /// An empty merge expecting `total` shards for the report named
    /// `name`.
    pub fn new(name: impl Into<String>, total: usize) -> Self {
        StreamedMerge {
            merger: ReportMerger::new(name),
            pending: BTreeMap::new(),
            next: 0,
            total,
        }
    }

    /// Offers shard `shard`'s finished report: folds it immediately if
    /// every lower-index shard is already folded (then drains any
    /// now-contiguous buffered successors), otherwise buffers it.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or was already offered.
    pub fn offer(&mut self, shard: usize, report: RunReport) {
        assert!(shard < self.total, "shard {shard} out of range {}", self.total);
        assert!(
            shard >= self.next && !self.pending.contains_key(&shard),
            "shard {shard} offered twice"
        );
        if shard != self.next {
            self.pending.insert(shard, report);
            return;
        }
        self.merger.fold(report);
        self.next += 1;
        while let Some(r) = self.pending.remove(&self.next) {
            self.merger.fold(r);
            self.next += 1;
        }
    }

    /// Shards folded into the accumulator so far (buffered ones excluded).
    pub fn folded(&self) -> usize {
        self.merger.folded()
    }

    /// Reports currently waiting in the reorder buffer.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Finishes the merge into the fused report.
    ///
    /// # Panics
    ///
    /// Panics unless every expected shard was offered.
    pub fn finish(self) -> RunReport {
        assert_eq!(
            self.merger.folded(),
            self.total,
            "streamed merge finished before every shard was offered"
        );
        self.merger.finish()
    }
}

/// The shard driver behind both public entry points: `lanes` worker
/// threads claim shard indices from a shared cursor, each building its
/// shard lazily, running it to completion, and streaming the finished
/// report into a [`StreamedMerge`] — so peak memory is O(lanes) live
/// sub-clusters, never O(shards), and no `Vec<RunReport>` ever
/// materializes.
///
/// Workers share no simulation state whatsoever — each shard is built,
/// run, and freed by exactly one worker — so preemption and
/// completion order cannot influence any simulated quantity, and the
/// index-ordered fold keeps the merged bytes thread-count-invariant.
/// On a construction error the lowest failing shard index wins (shard
/// construction is deterministic per index, so the reported error is
/// too) and workers stop claiming.
fn run_sharded_inner(
    spec: &ShardSpec,
    shards: u16,
    lanes: usize,
    factory: &PartitionFactory,
) -> Result<RunReport, ShardError> {
    // A split no shard can run on fails here, before any lane starts.
    shard_rack(spec, shards)?;
    let lanes = lanes.clamp(1, shards as usize);

    let merge = Mutex::new(StreamedMerge::new(spec.name.clone(), shards as usize));
    let cursor = AtomicUsize::new(0);
    let failed: Mutex<Option<(u16, ShardError)>> = Mutex::new(None);
    let run_lane = || loop {
        if failed.lock().expect("no panic holds the error slot").is_some() {
            break;
        }
        let s = cursor.fetch_add(1, Ordering::Relaxed);
        if s >= shards as usize {
            break;
        }
        match run_shard(spec, shards, s as u16, factory) {
            Ok(report) => {
                let _t = mind_obs::profile::scope("shard.merge");
                merge
                    .lock()
                    .expect("no panic holds the streamed merge")
                    .offer(s, report);
            }
            Err(e) => {
                let mut slot = failed.lock().expect("no panic holds the error slot");
                if slot.is_none_or(|(lowest, _)| (s as u16) < lowest) {
                    *slot = Some((s as u16, e));
                }
                break;
            }
        }
    };
    if lanes == 1 {
        run_lane();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..lanes {
                scope.spawn(run_lane);
            }
        });
    }

    if let Some((_, e)) = failed.into_inner().expect("workers joined") {
        return Err(e);
    }
    Ok(merge
        .into_inner()
        .expect("workers joined")
        .finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceOp;
    use mind_core::system::AccessKind;
    use mind_sim::{SimRng, SimTime};

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

    #[test]
    fn one_shard_matches_serialized_reference_exactly() {
        let s = spec(4);
        let fused = run_group(&s, &factory).expect("confined scenario");
        let sharded = run_sharded(&s, 1, &factory).expect("confined scenario");
        assert_eq!(key(&fused), key(&sharded));
        assert_eq!(fused.mops.to_bits(), sharded.mops.to_bits());
        assert_eq!(fused.metrics, sharded.metrics);
        assert_eq!(fused.window_metrics, sharded.window_metrics);
    }

    #[test]
    fn sharded_partitions_reproduce_the_fused_run() {
        let s = spec(4);
        let fused = run_group(&s, &factory).expect("confined scenario");
        assert_eq!(fused.invalidations, 0, "scenario must be confined");
        for shards in [2u16, 4] {
            let sharded = run_sharded(&s, shards, &factory).expect("confined scenario");
            assert_eq!(key(&fused), key(&sharded), "shards = {shards}");
            assert_eq!(fused.metrics, sharded.metrics, "shards = {shards}");
            assert_eq!(fused.window_metrics, sharded.window_metrics);
            assert_eq!(fused.mops.to_bits(), sharded.mops.to_bits());
        }
    }

    #[test]
    fn per_thread_domains_reproduce_the_fused_run() {
        // Same scenario, but every tenant in its own protection domain
        // (the multi-tenant isolation shape). Pid values differ between
        // the fused and sharded runs; nothing timing-visible does.
        let mut s = spec(4);
        s.domain_per_thread = true;
        let fused = run_group(&s, &factory).expect("confined scenario");
        assert_eq!(fused.invalidations, 0, "scenario must be confined");
        for shards in [2u16, 4] {
            let sharded = run_sharded(&s, shards, &factory).expect("confined scenario");
            assert_eq!(key(&fused), key(&sharded), "shards = {shards}");
            assert_eq!(fused.metrics, sharded.metrics, "shards = {shards}");
            assert_eq!(fused.window_metrics, sharded.window_metrics);
            assert_eq!(fused.mops.to_bits(), sharded.mops.to_bits());
        }
    }

    #[test]
    fn thread_count_never_changes_the_result() {
        // The multi-core contract: byte-identical reports across thread
        // counts, including counts that do not divide the shard count and
        // counts past it (clamped).
        let s = spec(4);
        let reference = run_sharded_threads(&s, 4, 1, &factory).expect("confined scenario");
        for threads in [2usize, 3, 4, 16] {
            let got = run_sharded_threads(&s, 4, threads, &factory).expect("confined scenario");
            assert_eq!(key(&reference), key(&got), "threads = {threads}");
            assert_eq!(reference.metrics, got.metrics, "threads = {threads}");
            assert_eq!(reference.window_metrics, got.window_metrics);
            assert_eq!(reference.mops.to_bits(), got.mops.to_bits());
        }
    }

    #[test]
    fn cluster_mode_sharded_partitions_reproduce_the_fused_run() {
        // The engine arbitrates per partition, so confined scenarios keep
        // the fused ≡ sharded contract in cluster mode too.
        let mut s = spec(4);
        s.run = s
            .run
            .with_batch_ops(8)
            .with_window(4)
            .with_concurrency(crate::runner::Concurrency::Cluster);
        let fused = run_group(&s, &factory).expect("confined scenario");
        assert_eq!(fused.invalidations, 0, "scenario must be confined");
        assert!(fused.total_ops > 0);
        for shards in [2u16, 4] {
            let sharded = run_sharded(&s, shards, &factory).expect("confined scenario");
            assert_eq!(key(&fused), key(&sharded), "shards = {shards}");
            assert_eq!(fused.metrics, sharded.metrics, "shards = {shards}");
            assert_eq!(fused.window_metrics, sharded.window_metrics);
            assert_eq!(fused.mops.to_bits(), sharded.mops.to_bits());
        }
    }

    #[test]
    fn cluster_mode_thread_count_never_changes_the_result() {
        let mut s = spec(4);
        s.run = s
            .run
            .with_batch_ops(8)
            .with_window(4)
            .with_concurrency(crate::runner::Concurrency::Cluster);
        let reference = run_sharded_threads(&s, 4, 1, &factory).expect("confined scenario");
        for threads in [2usize, 4] {
            let got = run_sharded_threads(&s, 4, threads, &factory).expect("confined scenario");
            assert_eq!(key(&reference), key(&got), "threads = {threads}");
            assert_eq!(reference.metrics, got.metrics, "threads = {threads}");
            assert_eq!(reference.mops.to_bits(), got.mops.to_bits());
        }
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
        let err = run_group(&s, &|_| Box::new(TwoRegions)).unwrap_err();
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
        let err = run_group(&s, &factory).unwrap_err();
        assert_eq!(err, ShardError::InterleavedPlacement);
        assert!(err.to_string().contains("not partition-confined"), "{err}");
    }

    #[test]
    fn uneven_shard_split_rejected() {
        let s = spec(4);
        let err = run_sharded(&s, 3, &factory).unwrap_err();
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
    fn zero_threads_per_blade_rejected() {
        let mut s = spec(2);
        s.run.threads_per_blade = 0;
        assert_eq!(run_group(&s, &factory).unwrap_err(), ShardError::ZeroThreadsPerBlade);
        assert_eq!(run_sharded(&s, 2, &factory).unwrap_err(), ShardError::ZeroThreadsPerBlade);
        let err = run_sharded_threads(&s, 2, 2, &factory).unwrap_err();
        assert_eq!(err, ShardError::ZeroThreadsPerBlade);
        assert!(err.to_string().contains("threads_per_blade"), "{err}");
    }

    #[test]
    fn asymmetric_rack_surfaces_partition_error() {
        let mut s = spec(4);
        s.base.n_compute = 3;
        let err = run_sharded(&s, 2, &factory).unwrap_err();
        assert!(
            matches!(err, ShardError::Partition(PartitionError::UnevenCompute { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn over_utilized_directory_rejected() {
        // One tenant spanning many pages against a directory too small to
        // hold the initial regions at ≤ ½ utilization.
        let mut s = spec(2);
        s.base.dir_capacity = 2;
        s.base.rule_capacity = 2;
        let err = run_group(&s, &factory).unwrap_err();
        assert!(
            matches!(err, ShardError::DirectoryOverUtilized { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("1/2 ceiling"), "{err}");
    }
}
