//! The trace-replay runner.
//!
//! Replays a [`Workload`] against a [`MemorySystem`], maintaining one
//! virtual clock per thread: at each step the thread with the earliest
//! clock takes its *turn* — its next [`RunConfig::batch_ops`] operations,
//! handed to [`MemorySystem::execute_batch`] as one chained schedule — and
//! its clock advances by the chained access latencies plus a small per-op
//! compute gap. Every op takes the same path through the system whatever
//! the turn size: `batch_ops` decides only how long a thread runs before
//! the next-earliest thread gets its turn. The run's *runtime* is the
//! maximum thread clock — the quantity Figure 5 reports (as inverse,
//! normalized performance).
//!
//! One piece of schedule state, [`Replay`], carries every replay in the
//! crate, and a replay is a straight line: warm up until every source has
//! drained, snapshot the baseline metrics, measure until every source has
//! drained, report. The turn and the op-fill routine exist once. [`run`] is
//! its one-partition case; the sharded executor puts partition validation
//! in front of the same state.

use std::ops::DerefMut;

use mind_core::engine::{ClusterEngine, ClusterStep};
use mind_core::protect::Pdid;
use mind_core::system::{AccessOutcome, MemOp, MemorySystem, OpBatch};
use mind_obs::{TraceConfig, TraceData, WindowSeries};
use mind_sim::stats::{Histogram, Metrics};
use mind_sim::{EventQueue, SimTime};

use crate::trace::{TraceOp, Workload};

/// How concurrently-running threads' operations interleave. Both
/// disciplines put every op of a `window > 1` replay through the same
/// issue gate (`MindCluster::issue_clustered`: slot pool, same-region
/// serialization, per-NIC depth); they differ in one thing only, whether a
/// turn ends in a drain barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Concurrency {
    /// Scheduling turns with a drain barrier: the earliest thread issues
    /// its next [`RunConfig::batch_ops`] ops through a pool of `window`
    /// slots of its own and takes its next turn only when every one of
    /// them has completed, so in-flight overlap forms only *within* one
    /// thread's turn. The default.
    #[default]
    Turnwise,
    /// No barrier: every thread is a continuous issue stream over one
    /// pool of `window × threads` slots per partition, so faults overlap
    /// across turns and threads, same-region transitions serialize
    /// cluster-wide, and each blade's RNIC depth gates its threads
    /// together. Takes effect when `window > 1` *and* the system has an
    /// issue gate; otherwise the run stays turnwise (one op in flight per
    /// thread *is* the turnwise schedule). One thread replayed in a single
    /// turn without warm-up is the same schedule under either discipline.
    Cluster,
}

/// Runner parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Operations each thread executes in the measured phase.
    pub ops_per_thread: u64,
    /// Untimed operations each thread executes first, to populate caches
    /// and let bounded splitting stabilize (excluded from every reported
    /// number).
    pub warmup_ops_per_thread: u64,
    /// Threads co-located per compute blade (the paper uses 10 for
    /// inter-blade scaling); thread `t` runs on blade `t / threads_per_blade`.
    pub threads_per_blade: u16,
    /// Non-memory compute time between operations.
    pub think_time: SimTime,
    /// Thread→blade mapping: `false` groups consecutive threads per blade
    /// (`t / threads_per_blade`, the paper's round-robin process
    /// placement); `true` interleaves (`t % n_blades`) — used by the §8
    /// thread-placement ablation to co-locate or separate sharers.
    pub interleave: bool,
    /// Consecutive operations a thread issues per scheduling turn, handed
    /// to the system as one chained [`OpBatch`]. Scheduling granularity
    /// only: `1` (the default) re-picks the earliest thread after every
    /// op, larger values let a thread run ahead of the others for a whole
    /// turn. A single thread's replay is the same at every value.
    pub batch_ops: u64,
    /// In-flight window depth per thread (memory-level parallelism): how
    /// many independent faults a thread keeps in flight at once. `1` (the
    /// default) is the serialized issue discipline — every RTT completes
    /// before the next op issues. Larger values overlap fabric round trips
    /// on systems with an issue gate (MIND); systems without one run
    /// serialized regardless.
    pub window: u32,
    /// Observability: whether to record the windowed telemetry series
    /// (and its bucket width). Defaults to resolving `MIND_TRACE`, so an
    /// untraced run carries no series and its report is unchanged.
    pub trace: TraceConfig,
    /// Cross-thread scheduling discipline; see [`Concurrency`].
    pub concurrency: Concurrency,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            ops_per_thread: 10_000,
            warmup_ops_per_thread: 0,
            threads_per_blade: 1,
            think_time: SimTime::from_nanos(100),
            interleave: false,
            batch_ops: 1,
            window: 1,
            trace: TraceConfig::default(),
            concurrency: Concurrency::Turnwise,
        }
    }
}

impl RunConfig {
    /// This configuration with the given batch size (builder-style, for
    /// sweep tables).
    pub fn with_batch_ops(mut self, batch_ops: u64) -> Self {
        self.batch_ops = batch_ops;
        self
    }

    /// This configuration with the given in-flight window depth
    /// (builder-style, for sweep tables).
    pub fn with_window(mut self, window: u32) -> Self {
        self.window = window;
        self
    }

    /// This configuration with the given trace settings (builder-style;
    /// tests pin a [`mind_obs::TraceMode`] to override the environment).
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// This configuration with the given cross-thread scheduling
    /// discipline (builder-style).
    pub fn with_concurrency(mut self, concurrency: Concurrency) -> Self {
        self.concurrency = concurrency;
        self
    }
}

/// Aggregated results of one replay.
///
/// All rates and means are derived from the integer fields below by
/// [`merge_reports`]' shared arithmetic, so reports over disjoint
/// partitions merge exactly: integers add, histograms and metrics merge
/// bucket-wise, and the floats are recomputed from the sums.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name; owned so swept scenarios carry their parameters.
    pub name: String,
    /// Max thread clock at completion.
    pub runtime: SimTime,
    /// When the warmup phase ended (absolute sim time); the measured
    /// window is `[warmup_end, warmup_end + runtime]`.
    pub warmup_end: SimTime,
    /// Total operations executed.
    pub total_ops: u64,
    /// Measured operations that went remote (page faults).
    pub remote_ops: u64,
    /// Invalidation messages during the measured window.
    pub invalidations: u64,
    /// Pages flushed during the measured window.
    pub flushed_pages: u64,
    /// Total latency of remote accesses (ns); `mean_remote_ns`'s numerator.
    pub sum_remote_lat_ns: u128,
    /// Million operations per second (aggregate).
    pub mops: f64,
    /// Remote accesses (page faults) per operation.
    pub remote_per_op: f64,
    /// Invalidation messages per operation.
    pub invalidations_per_op: f64,
    /// Pages flushed per operation.
    pub flushed_per_op: f64,
    /// Sum of per-access latency components, for breakdown reporting (ns).
    pub sum_fault_ns: u128,
    /// Network component total (ns).
    pub sum_network_ns: u128,
    /// Invalidation queueing component total (ns).
    pub sum_inv_queue_ns: u128,
    /// TLB shootdown component total (ns).
    pub sum_inv_tlb_ns: u128,
    /// Software (library) component total (ns).
    pub sum_software_ns: u128,
    /// Fabric time hidden by intra-batch RTT overlap (ns); zero whenever
    /// [`RunConfig::window`] is 1.
    pub sum_overlapped_ns: u128,
    /// Mean latency of *remote* accesses only (ns).
    pub mean_remote_ns: f64,
    /// Per-operation latency distribution over the measured window; tail
    /// SLOs (p99, p99.9) are cut from it in the perf reports.
    pub latency: Histogram,
    /// System metrics snapshot at completion (lifetime, includes warmup).
    pub metrics: Metrics,
    /// Metrics accumulated during the measured window only.
    pub window_metrics: Metrics,
    /// Windowed telemetry over the measured phase, bucketed by virtual
    /// completion time; `None` when tracing is off (so untraced reports
    /// are unchanged by this field's existence).
    pub timeseries: Option<WindowSeries>,
    /// The system's deterministic event trace (shard-local lanes already
    /// rebased to global blade indices); `None` when tracing is off.
    pub trace: Option<TraceData>,
}

/// The thread→blade mapping under the configured placement.
fn blade_of(thread: u16, cfg: RunConfig, n_blades: u16) -> u16 {
    if cfg.interleave {
        thread % n_blades
    } else {
        thread / cfg.threads_per_blade
    }
}

/// Integer accumulators for one measured window — the exact state two
/// partitioned runs merge by addition.
#[derive(Debug)]
pub(crate) struct Accum {
    pub(crate) total_ops: u64,
    pub(crate) remote: u64,
    pub(crate) invals: u64,
    pub(crate) flushed: u64,
    pub(crate) sum_fault: u128,
    pub(crate) sum_network: u128,
    pub(crate) sum_inv_queue: u128,
    pub(crate) sum_inv_tlb: u128,
    pub(crate) sum_software: u128,
    pub(crate) sum_overlapped: u128,
    pub(crate) sum_remote_lat: u128,
    pub(crate) latency: Histogram,
    /// Windowed telemetry, present only when the run traces.
    pub(crate) series: Option<WindowSeries>,
}

impl Accum {
    pub(crate) fn new() -> Self {
        Accum {
            total_ops: 0,
            remote: 0,
            invals: 0,
            flushed: 0,
            sum_fault: 0,
            sum_network: 0,
            sum_inv_queue: 0,
            sum_inv_tlb: 0,
            sum_software: 0,
            sum_overlapped: 0,
            sum_remote_lat: 0,
            latency: Histogram::new(),
            series: None,
        }
    }

    /// Accumulators that additionally record the windowed telemetry
    /// series when `trace` is enabled.
    pub(crate) fn with_trace(trace: TraceConfig) -> Self {
        let mut acc = Accum::new();
        if trace.enabled() {
            acc.series = Some(WindowSeries::new(trace.interval));
        }
        acc
    }

    /// Folds one executed batch into the accumulators, in op order.
    ///
    /// # Panics
    ///
    /// Panics if any op of the batch failed (callers reject failures
    /// before accounting).
    pub(crate) fn record_batch(&mut self, batch: &OpBatch) {
        for (i, result) in batch.results().iter().enumerate() {
            let outcome = result.as_ref().expect("callers reject failures");
            self.record_op(outcome, batch.completion(i));
        }
    }

    /// Folds one completed operation into the accumulators — the per-op
    /// half of [`record_batch`](Self::record_batch), used directly by the
    /// cluster engine's driver where ops complete stream-wise rather than
    /// batch-wise.
    pub(crate) fn record_op(&mut self, outcome: &AccessOutcome, complete_at: SimTime) {
        let total_ns = outcome.latency.total().as_nanos();
        self.total_ops += 1;
        if outcome.remote {
            self.remote += 1;
            self.sum_remote_lat += total_ns as u128;
        }
        self.latency.record(total_ns);
        self.invals += outcome.invalidations as u64;
        self.flushed += outcome.flushed_pages as u64;
        self.sum_fault += outcome.latency.fault.as_nanos() as u128;
        self.sum_network += outcome.latency.network.as_nanos() as u128;
        self.sum_inv_queue += outcome.latency.inv_queue.as_nanos() as u128;
        self.sum_inv_tlb += outcome.latency.inv_tlb.as_nanos() as u128;
        self.sum_software += outcome.latency.software.as_nanos() as u128;
        self.sum_overlapped += outcome.latency.overlapped.as_nanos() as u128;
        if let Some(series) = &mut self.series {
            // Bucket by virtual completion time (identical across
            // execution cells); stall = the directory-busy share.
            let stall = outcome.latency.inv_queue + outcome.latency.inv_tlb;
            series.record(
                complete_at,
                total_ns,
                outcome.remote,
                outcome.invalidations,
                stall.as_nanos(),
            );
        }
    }

    /// Records nanoseconds an issue waited on its blade's RNIC queue into
    /// the telemetry series (no-op when the run is untraced).
    pub(crate) fn record_nic_stall(&mut self, at: SimTime, stall: SimTime) {
        if let Some(series) = &mut self.series {
            series.record_nic_stall(at, stall.as_nanos());
        }
    }
}

/// Builds the report from accumulated integers — the single place the
/// derived floats are computed, shared by [`run`], the sharded executor,
/// and [`merge_reports`] so a merge of one report reproduces it exactly.
pub(crate) fn finish_report(
    name: String,
    warmup_end: SimTime,
    end_clock: SimTime,
    acc: Accum,
    metrics: Metrics,
    window_metrics: Metrics,
) -> RunReport {
    let runtime = end_clock.saturating_sub(warmup_end);
    let secs = runtime.as_secs_f64().max(1e-12);
    // A window without ops (or without remote ops) reports zero, not 0/0.
    let per = |sum: f64, of: u64| if of > 0 { sum / of as f64 } else { 0.0 };
    let mut acc = acc;
    let timeseries = acc.series.take();
    RunReport {
        name,
        runtime,
        warmup_end,
        total_ops: acc.total_ops,
        remote_ops: acc.remote,
        invalidations: acc.invals,
        flushed_pages: acc.flushed,
        sum_remote_lat_ns: acc.sum_remote_lat,
        mops: acc.total_ops as f64 / secs / 1e6,
        remote_per_op: per(acc.remote as f64, acc.total_ops),
        invalidations_per_op: per(acc.invals as f64, acc.total_ops),
        flushed_per_op: per(acc.flushed as f64, acc.total_ops),
        sum_fault_ns: acc.sum_fault,
        sum_network_ns: acc.sum_network,
        sum_inv_queue_ns: acc.sum_inv_queue,
        sum_inv_tlb_ns: acc.sum_inv_tlb,
        sum_software_ns: acc.sum_software,
        sum_overlapped_ns: acc.sum_overlapped,
        mean_remote_ns: per(acc.sum_remote_lat as f64, acc.remote),
        latency: acc.latency,
        metrics,
        window_metrics,
        timeseries,
        trace: None,
    }
}

/// Streaming accumulator behind [`merge_reports`]: reports from disjoint
/// partitions fold in one at a time and are *consumed*, so a caller
/// merging `n` partitions holds one accumulator plus at most one
/// in-flight report instead of all `n` — the constant-memory half of the
/// sharded executor's streamed merge.
///
/// The fold arithmetic is the byte-identity contract: integers and
/// histograms add, the measured window spans `[max warmup_end, max
/// end-of-run]` (max is commutative and associative, so fold order never
/// changes it), timeseries buckets add, and every derived rate is
/// recomputed from the folded integers by [`finish_report`]'s shared
/// arithmetic only at [`finish`](Self::finish). Trace merge *extends*
/// event vectors, so trace bytes depend on fold order — callers that
/// carry traces must fold in partition-index order (the sharded
/// executor's reorder buffer, `mind_workloads::shard::StreamedMerge`,
/// exists to guarantee exactly that).
#[derive(Debug)]
pub struct ReportMerger {
    name: String,
    folded: usize,
    warmup_end: SimTime,
    end_clock: SimTime,
    acc: Accum,
    metrics: Metrics,
    window_metrics: Metrics,
    trace: Option<TraceData>,
}

impl ReportMerger {
    /// An empty accumulator for the merged report named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ReportMerger {
            name: name.into(),
            folded: 0,
            warmup_end: SimTime::ZERO,
            end_clock: SimTime::ZERO,
            acc: Accum::new(),
            metrics: Metrics::new(),
            window_metrics: Metrics::new(),
            trace: None,
        }
    }

    /// Folds one partition's report into the accumulator, consuming it
    /// (the report's buffers — histogram, timeseries, trace — are either
    /// absorbed or freed here, never retained whole).
    pub fn fold(&mut self, r: RunReport) {
        self.warmup_end = self.warmup_end.max(r.warmup_end);
        self.end_clock = self.end_clock.max(r.warmup_end + r.runtime);
        self.acc.total_ops += r.total_ops;
        self.acc.remote += r.remote_ops;
        self.acc.invals += r.invalidations;
        self.acc.flushed += r.flushed_pages;
        self.acc.sum_fault += r.sum_fault_ns;
        self.acc.sum_network += r.sum_network_ns;
        self.acc.sum_inv_queue += r.sum_inv_queue_ns;
        self.acc.sum_inv_tlb += r.sum_inv_tlb_ns;
        self.acc.sum_software += r.sum_software_ns;
        self.acc.sum_overlapped += r.sum_overlapped_ns;
        self.acc.sum_remote_lat += r.sum_remote_lat_ns;
        self.acc.latency.merge(&r.latency);
        self.metrics.merge(&r.metrics);
        self.window_metrics.merge(&r.window_metrics);
        if let Some(series) = r.timeseries {
            match &mut self.acc.series {
                Some(mine) => mine.merge(&series),
                None => self.acc.series = Some(series),
            }
        }
        if let Some(t) = r.trace {
            match &mut self.trace {
                Some(mine) => mine.merge(t),
                None => self.trace = Some(t),
            }
        }
        self.folded += 1;
    }

    /// How many reports have been folded so far.
    pub fn folded(&self) -> usize {
        self.folded
    }

    /// Finishes the merge: recomputes every derived float from the folded
    /// integers through [`finish_report`]'s shared arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if nothing was folded.
    pub fn finish(self) -> RunReport {
        assert!(self.folded > 0, "nothing to merge");
        let mut merged = finish_report(
            self.name,
            self.warmup_end,
            self.end_clock,
            self.acc,
            self.metrics,
            self.window_metrics,
        );
        merged.trace = self.trace;
        merged
    }
}

/// Merges reports from disjoint partitions into the report the fused run
/// over their union would produce: integers and histograms add, the
/// measured window spans `[max warmup_end, max end-of-run]`, and every
/// derived rate is recomputed from the merged integers through the same
/// arithmetic as a direct run. Merging a single report reproduces it
/// exactly — the `shards = 1` identity the sharded executor is checked
/// against.
///
/// This is the in-memory reference form of [`ReportMerger`]: it folds the
/// slice element-by-element through the identical streaming arithmetic,
/// so the streamed and in-memory merges agree byte-for-byte by shared
/// code, not by parallel implementations.
///
/// # Panics
///
/// Panics if `reports` is empty.
pub fn merge_reports(name: impl Into<String>, reports: &[RunReport]) -> RunReport {
    assert!(!reports.is_empty(), "nothing to merge");
    let mut merger = ReportMerger::new(name);
    for r in reports {
        merger.fold(r.clone());
    }
    merger.finish()
}

/// Drives a set of issue streams (threads) through a system's
/// [`ClusterEngine`] — what a cluster-mode [`Replay`] schedules with
/// instead of turns.
///
/// Each source is a continuous stream: its next op becomes ungated-ready
/// `think_time` after its previous *issue* (the issue pipeline's per-op
/// cost, the chaining rule of a windowed turnwise batch — but with no
/// per-turn drain barrier, which is exactly the cross-turn overlap this
/// discipline adds). Ops are generated `batch_ops` at a time into per-source buffers
/// through a caller-supplied `fill` closure, so workload generation order
/// per source is identical to the turnwise runner's.
///
/// The driver holds only what is the engine's: the [`Replay`] owns the
/// phase protocol, the ops each source still owes and the phase clocks.
/// Each source resumes the measured phase think time after its last
/// warmup issue — the same accounting boundaries as turnwise, with
/// in-flight window state (and the overlap frontier) persisting across the
/// phase line.
pub(crate) struct ClusterDriver {
    eng: ClusterEngine,
    bufs: Vec<Vec<MemOp>>,
    pos: Vec<usize>,
    /// Per-source resume time for the measured phase: last warmup issue
    /// plus think time ([`SimTime::ZERO`] for sources without warmup).
    resume: Vec<SimTime>,
}

impl ClusterDriver {
    /// A driver over `sources` streams, seeded for the warmup phase when
    /// there is one.
    fn new(mut eng: ClusterEngine, sources: u32, warmup: bool) -> Self {
        if warmup {
            for src in 0..sources {
                eng.seed(SimTime::ZERO, src);
            }
        }
        let n = sources as usize;
        ClusterDriver {
            eng,
            bufs: vec![Vec::new(); n],
            pos: vec![0; n],
            resume: vec![SimTime::ZERO; n],
        }
    }

    /// Seeds the measured phase (unless it is empty): every source resumes
    /// think time after its last warmup issue, on a fresh event queue
    /// (resume times may precede the warmup queue's final pop).
    fn start_measured(&mut self, seed: bool) {
        for buf in &mut self.bufs {
            buf.clear();
        }
        self.pos.fill(0);
        self.eng.begin_phase();
        if seed {
            for src in 0..self.eng.sources() {
                self.eng.seed(self.resume[src as usize], src);
            }
        }
    }

    /// The event loop of one phase: pops ready sources in deterministic
    /// order, offers each source's next op to the system's gates, defers
    /// gated sources to their release times, and streams issued ops until
    /// every source has issued the `left` it owes. Returns the latest
    /// completion plus think time ([`SimTime::ZERO`] when nothing issued).
    /// `acc: None` is the warmup phase (nothing is recorded); `Some` is
    /// measured.
    ///
    /// # Panics
    ///
    /// Panics when the system refuses an access: trace replay treats any
    /// refusal as fatal.
    fn pump<S: MemorySystem + ?Sized>(
        &mut self,
        system: &mut S,
        cfg: &RunConfig,
        left: &mut [u64],
        fill: &mut dyn FnMut(u32, usize, &mut Vec<MemOp>),
        mut acc: Option<&mut Accum>,
    ) -> SimTime {
        let (batch_ops, gap) = (cfg.batch_ops.max(1), cfg.think_time);
        let mut latest = SimTime::ZERO;
        while let Some((now, src)) = self.eng.next_ready() {
            let s = src as usize;
            if self.pos[s] == self.bufs[s].len() {
                let n = batch_ops.min(left[s]) as usize;
                debug_assert!(n > 0, "exhausted source popped");
                self.bufs[s].clear();
                fill(src, n, &mut self.bufs[s]);
                debug_assert_eq!(self.bufs[s].len(), n, "fill produced {n} ops");
                self.pos[s] = 0;
            }
            let op = self.bufs[s][self.pos[s]];
            let ready0 = self.eng.ready0(src);
            // Read in place: moving the step out of the `Option` copies
            // its hundred bytes with wide loads that stall on the narrow
            // stores the system just wrote them with.
            let step = system.cluster_issue(&mut self.eng, now, ready0, &op);
            match *step
                .as_ref()
                .expect("cluster support probed via cluster_engine")
            {
                ClusterStep::Gated { until, nic_stall } => {
                    if nic_stall > SimTime::ZERO {
                        if let Some(acc) = acc.as_deref_mut() {
                            acc.record_nic_stall(now, nic_stall);
                        }
                    }
                    self.eng.defer(until, src);
                }
                ClusterStep::Refused(e) => {
                    panic!("clustered access failed at {:#x}: {e}", op.vaddr)
                }
                ClusterStep::Issued {
                    ref outcome,
                    complete_at,
                    region: _,
                } => {
                    self.pos[s] += 1;
                    left[s] -= 1;
                    if let Some(acc) = acc.as_deref_mut() {
                        acc.record_op(outcome, complete_at);
                    }
                    latest = latest.max(complete_at + gap);
                    let next = now + gap;
                    if left[s] > 0 {
                        self.eng.seed(next, src);
                    } else {
                        self.resume[s] = next;
                    }
                }
            }
        }
        latest
    }
}

/// One issue stream: which thread of which partition's workload it is,
/// the compute blade it runs on, and the protection domain it issues under
/// (`None`: the system's default replay domain). A table row rather than
/// arithmetic on the source index, which would put a division on every
/// turn.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Source {
    pub(crate) part: u32,
    pub(crate) thread: u16,
    pub(crate) blade: u16,
    pub(crate) pdid: Option<Pdid>,
}

/// The op streams of a replay: `partitions × threads_per_part` sources in
/// partition-major order, each partition a workload with its own region
/// bases.
struct Streams {
    sources: Vec<Source>,
    threads_per_part: u32,
    /// Per partition, the system address of each workload region.
    bases: Vec<Vec<u64>>,
    ops_buf: Vec<TraceOp>,
}

impl Streams {
    /// Appends source `s`'s next `n` operations to `out`, resolved to its
    /// blade, its domain and its partition's addresses.
    fn fill<P: DerefMut<Target: Workload>>(
        &mut self,
        workloads: &mut [P],
        s: u32,
        n: usize,
        out: &mut impl Extend<MemOp>,
    ) {
        let src = self.sources[s as usize];
        self.ops_buf.clear();
        workloads[src.part as usize].fill_ops(src.thread, n, &mut self.ops_buf);
        let bases = &self.bases[src.part as usize];
        out.extend(self.ops_buf.iter().map(|op| MemOp {
            at: SimTime::ZERO,
            blade: src.blade,
            pdid: src.pdid,
            vaddr: bases[op.region as usize] + op.offset,
            kind: op.kind,
        }));
    }
}

/// The schedule state of one replay. It owns who issues next, what each
/// source still owes and what has been accounted; the system and the
/// workloads are handed to [`Replay::run`], so one value drives [`run`]'s
/// generic system and the sharded executor's sub-cluster alike.
pub(crate) struct Replay {
    cfg: RunConfig,
    streams: Streams,
    /// Turnwise: the current phase's ready sources by thread clock.
    queue: EventQueue<u32>,
    /// Turnwise: sources that finished warmup, at their post-warmup
    /// clocks in completion order — the measured phase's queue.
    resume: EventQueue<u32>,
    /// Ops each source still owes the current phase.
    left: Vec<u64>,
    /// Cluster mode ([`Concurrency::Cluster`], `window > 1`, a system with
    /// an issue gate): one event-driven issue engine *per partition*, so the gates a partition's threads share — its slot
    /// pool, its blades' NICs, its region serialization — are identical
    /// whether the partition runs fused or sharded. Empty in turnwise
    /// mode.
    drivers: Vec<ClusterDriver>,
    batch: OpBatch,
    acc: Accum,
}

impl Replay {
    /// A replay of `sources` (see [`Streams`] for their order) on
    /// `system`, all sources ready at time zero.
    pub(crate) fn new<S: MemorySystem + ?Sized>(
        system: &S,
        cfg: RunConfig,
        sources: Vec<Source>,
        threads_per_part: u32,
        bases: Vec<Vec<u64>>,
    ) -> Self {
        let warmup = cfg.warmup_ops_per_thread;
        let mut drivers = Vec::new();
        if cfg.concurrency == Concurrency::Cluster && cfg.window > 1 {
            // A system without an issue engine stays turnwise.
            drivers.extend((0..bases.len()).filter_map(|_| {
                let eng = system.cluster_engine(cfg.window, threads_per_part)?;
                Some(ClusterDriver::new(eng, threads_per_part, warmup > 0))
            }));
        }
        let (mut queue, mut resume) = (EventQueue::new(), EventQueue::new());
        if drivers.is_empty() {
            // Without warmup the seeds are the measured phase's.
            let first = if warmup > 0 { &mut queue } else { &mut resume };
            for s in 0..sources.len() as u32 {
                first.schedule(SimTime::ZERO, s);
            }
        }
        Replay {
            cfg,
            left: vec![warmup; sources.len()],
            streams: Streams {
                sources,
                threads_per_part,
                bases,
                ops_buf: Vec::new(),
            },
            queue,
            resume,
            drivers,
            batch: OpBatch::chained(cfg.think_time).with_window(cfg.window),
            acc: Accum::with_trace(cfg.trace),
        }
    }

    /// Replays to completion and reports the measured window: warm up
    /// until every source has drained, snapshot the baseline metrics at
    /// that barrier, re-seed the sources at their post-warmup clocks and
    /// measure until every source has drained again. `system` and
    /// `workloads` must be the ones the replay was built for.
    pub(crate) fn run<S: MemorySystem + ?Sized, P: DerefMut<Target: Workload>>(
        mut self,
        system: &mut S,
        workloads: &mut [P],
        name: String,
    ) -> RunReport {
        let warmup_end = self.drain_phase(system, workloads, false);
        let baseline = system.metrics();
        let measured = self.cfg.ops_per_thread;
        self.left.fill(measured);
        // A zero-op measured phase seeds nobody: the drained warmup queue
        // stays the phase's queue.
        if measured > 0 {
            std::mem::swap(&mut self.queue, &mut self.resume);
        }
        for driver in &mut self.drivers {
            driver.start_measured(measured > 0);
        }
        let end_clock = warmup_end.max(self.drain_phase(system, workloads, true));
        let metrics = system.metrics();
        let window_metrics = metrics.diff(&baseline);
        let mut report = finish_report(
            name,
            warmup_end,
            end_clock,
            self.acc,
            metrics,
            window_metrics,
        );
        report.trace = system.take_trace();
        report
    }

    /// Runs the current phase until no source owes it an op, in timestamp
    /// order (ties by schedule order), accounting only when `measuring`.
    /// Returns the latest source clock the phase reached — a completion
    /// plus think time — or [`SimTime::ZERO`] if nothing ran.
    fn drain_phase<S: MemorySystem + ?Sized, P: DerefMut<Target: Workload>>(
        &mut self,
        system: &mut S,
        workloads: &mut [P],
        measuring: bool,
    ) -> SimTime {
        let mut latest = SimTime::ZERO;
        if self.drivers.is_empty() {
            // Turnwise: the earliest source takes its turn.
            let batch_ops = self.cfg.batch_ops.max(1);
            while let Some(due) = self.queue.pop() {
                let s = due.event;
                let n = batch_ops.min(self.left[s as usize]);
                let next = self.turn(system, workloads, due.at, s, n as usize);
                if measuring {
                    // One accounting flush per turn, in op order.
                    self.acc.record_batch(&self.batch);
                }
                latest = latest.max(next);
                self.left[s as usize] -= n;
                if self.left[s as usize] > 0 {
                    self.queue.schedule(next, s);
                } else if !measuring {
                    self.resume.schedule(next, s);
                }
            }
            return latest;
        }
        // Cluster mode: each partition's engine driver in turn.
        let streams = &mut self.streams;
        let tpp = streams.threads_per_part;
        for (part, driver) in self.drivers.iter_mut().enumerate() {
            let first = part as u32 * tpp;
            let left = &mut self.left[first as usize..(first + tpp) as usize];
            let mut fill = |src: u32, n: usize, out: &mut Vec<MemOp>| {
                streams.fill(workloads, first + src, n, out)
            };
            let acc = measuring.then_some(&mut self.acc);
            latest = latest.max(driver.pump(system, &self.cfg, left, &mut fill, acc));
        }
        latest
    }

    /// One scheduling turn: source `s`'s next `n` ops as a single chained
    /// batch starting at `clock`. Returns the source's clock after its
    /// last completion plus think time.
    fn turn<S: MemorySystem + ?Sized, P: DerefMut<Target: Workload>>(
        &mut self,
        system: &mut S,
        workloads: &mut [P],
        clock: SimTime,
        s: u32,
        n: usize,
    ) -> SimTime {
        self.batch.clear();
        self.streams.fill(workloads, s, n, &mut self.batch);
        system.execute_batch(clock, &mut self.batch);
        // Trace replay treats any refusal as fatal, whichever op of the
        // turn it hit (warmup included).
        for (op, result) in self.batch.ops().iter().zip(self.batch.results()) {
            if let Err(e) = result {
                panic!("batched access failed at {:#x}: {e}", op.vaddr);
            }
        }
        // The source resumes when its whole turn has completed. Under the
        // serialized window the last op completes last (issue times
        // chain); under overlap the in-flight tail may finish out of order
        // and the *latest* completion gates the next turn.
        let turn_done = (0..self.batch.len())
            .map(|i| self.batch.completion(i))
            .max()
            .expect("turns are non-empty");
        turn_done + self.cfg.think_time
    }
}

/// Replays `ops_per_thread × n_threads` operations of `workload` against
/// `system`.
///
/// # Panics
///
/// Panics if the workload's threads do not fit on the system's compute
/// blades under `threads_per_blade`, or if the system refuses an access.
pub fn run<S: MemorySystem + ?Sized, W: Workload + ?Sized>(
    system: &mut S,
    mut workload: &mut W,
    cfg: RunConfig,
) -> RunReport {
    let n_threads = workload.n_threads();
    let blades_needed = n_threads.div_ceil(cfg.threads_per_blade);
    assert!(
        blades_needed <= system.n_compute(),
        "workload needs {blades_needed} blades, system has {}",
        system.n_compute()
    );

    // Resolve workload regions to system addresses.
    let bases: Vec<u64> = workload
        .regions()
        .into_iter()
        .map(|len| system.alloc(len))
        .collect();
    let sources = (0..n_threads)
        .map(|thread| Source {
            part: 0,
            thread,
            blade: blade_of(thread, cfg, blades_needed),
            pdid: None,
        })
        .collect();

    let name = workload.name();
    Replay::new(system, cfg, sources, n_threads as u32, vec![bases]).run(
        system,
        std::slice::from_mut(&mut workload),
        name,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_core::cluster::{MindCluster, MindConfig};
    use mind_core::system::AccessKind;
    use mind_sim::SimRng;

    use crate::trace::TraceOp;

    /// A trivially deterministic workload for runner tests.
    struct PingPong {
        threads: u16,
        rng: SimRng,
    }

    impl Workload for PingPong {
        fn name(&self) -> String {
            "pingpong".to_string()
        }
        fn regions(&self) -> Vec<u64> {
            vec![1 << 20]
        }
        fn n_threads(&self) -> u16 {
            self.threads
        }
        fn next_op(&mut self, _thread: u16) -> TraceOp {
            let page = self.rng.gen_below(4);
            TraceOp {
                region: 0,
                offset: page << 12,
                kind: if self.rng.gen_bool(0.5) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            }
        }
    }

    #[test]
    fn runner_executes_all_ops() {
        let mut sys = MindCluster::new(MindConfig::small());
        let mut wl = PingPong {
            threads: 2,
            rng: SimRng::new(1),
        };
        let report = run(
            &mut sys,
            &mut wl,
            RunConfig {
                ops_per_thread: 500,
                warmup_ops_per_thread: 100,
                threads_per_blade: 1,
                think_time: SimTime::from_nanos(100),
                interleave: false,
                batch_ops: 1,
                window: 1,
                ..Default::default()
            },
        );
        assert_eq!(report.total_ops, 1000);
        assert!(report.runtime > SimTime::ZERO);
        assert!(report.mops > 0.0);
        assert!(report.remote_per_op > 0.0, "ping-pong faults");
        assert!(
            report.invalidations_per_op > 0.0,
            "write contention invalidates"
        );
        assert_eq!(
            report.latency.count(),
            report.total_ops,
            "one latency sample per measured op"
        );
        let (p50, p99, p999) = (
            report.latency.quantile(0.5),
            report.latency.quantile(0.99),
            report.latency.quantile(0.999),
        );
        assert!(p50 <= p99 && p99 <= p999, "percentiles ordered");
        assert!(p999 > 0);
    }

    #[test]
    fn batched_run_executes_all_ops_with_partial_batches() {
        // 500 ops per thread at batch 64: the last turn per thread is a
        // partial batch of 500 % 64 = 52 ops; warmup (100) ends with 36.
        let mut sys = MindCluster::new(MindConfig::small());
        let mut wl = PingPong {
            threads: 2,
            rng: SimRng::new(1),
        };
        let report = run(
            &mut sys,
            &mut wl,
            RunConfig {
                ops_per_thread: 500,
                warmup_ops_per_thread: 100,
                ..Default::default()
            }
            .with_batch_ops(64),
        );
        assert_eq!(report.total_ops, 1000);
        assert_eq!(report.latency.count(), 1000, "one sample per measured op");
        assert!(report.runtime > SimTime::ZERO);
    }

    /// A wide-footprint workload whose consecutive ops hit distinct
    /// directory regions — the independent faults an in-flight window can
    /// overlap.
    struct Strided {
        threads: u16,
        pages: u64,
        cursor: u64,
    }

    impl Workload for Strided {
        fn name(&self) -> String {
            "strided".to_string()
        }
        fn regions(&self) -> Vec<u64> {
            vec![self.pages << 12]
        }
        fn n_threads(&self) -> u16 {
            self.threads
        }
        fn next_op(&mut self, _thread: u16) -> TraceOp {
            // Stride by 8 pages (two 16 KB initial regions) so successive
            // faults land in different regions.
            let page = (self.cursor * 8) % self.pages;
            self.cursor += 1;
            TraceOp {
                region: 0,
                offset: page << 12,
                kind: AccessKind::Read,
            }
        }
    }

    #[test]
    fn windowed_run_overlaps_fabric_time_and_never_slows() {
        let mk = |window: u32| {
            let mut sys = MindCluster::new(MindConfig::small());
            let mut wl = Strided {
                threads: 1,
                pages: 4096,
                cursor: 0,
            };
            run(
                &mut sys,
                &mut wl,
                RunConfig {
                    ops_per_thread: 512,
                    ..Default::default()
                }
                .with_batch_ops(32)
                .with_window(window),
            )
        };
        let serialized = mk(1);
        let overlapped = mk(8);
        assert_eq!(serialized.sum_overlapped_ns, 0, "window 1 hides nothing");
        assert_eq!(overlapped.total_ops, serialized.total_ops);
        assert!(
            overlapped.sum_overlapped_ns > 0,
            "independent faults overlapped their RTTs"
        );
        assert!(
            overlapped.runtime < serialized.runtime,
            "overlap hides latency: {} vs {}",
            overlapped.runtime.as_nanos(),
            serialized.runtime.as_nanos()
        );
        // The same accesses fault either way: the window changes timing,
        // not what the protocol does.
        assert_eq!(
            overlapped.metrics.get("remote_accesses"),
            serialized.metrics.get("remote_accesses")
        );
    }

    #[test]
    fn cluster_mode_overlaps_across_threads_and_never_loses_work() {
        // Four threads of independent strided faults: the turnwise
        // discipline drains each thread's batch before its next turn,
        // the cluster engine streams all four continuously.
        let mk = |concurrency: Concurrency| {
            let mut sys = MindCluster::new(MindConfig::small());
            let mut wl = Strided {
                threads: 2,
                pages: 4096,
                cursor: 0,
            };
            run(
                &mut sys,
                &mut wl,
                RunConfig {
                    ops_per_thread: 512,
                    warmup_ops_per_thread: 64,
                    threads_per_blade: 1,
                    ..Default::default()
                }
                .with_batch_ops(32)
                .with_window(8)
                .with_concurrency(concurrency),
            )
        };
        let turnwise = mk(Concurrency::Turnwise);
        let cluster = mk(Concurrency::Cluster);
        assert_eq!(cluster.total_ops, turnwise.total_ops, "no op lost");
        assert_eq!(
            cluster.latency.count(),
            cluster.total_ops,
            "one sample per measured op"
        );
        assert!(cluster.sum_overlapped_ns > 0, "fabric time hidden");
        assert!(
            cluster.runtime < turnwise.runtime,
            "cross-turn overlap beats per-batch windows on independent \
             faults: {} vs {}",
            cluster.runtime.as_nanos(),
            turnwise.runtime.as_nanos()
        );
    }

    #[test]
    fn cluster_mode_at_window_one_is_the_turnwise_reference() {
        // The degenerate contract: window <= 1 keeps the turnwise path,
        // so a serialized cluster run is byte-identical to the reference.
        let mk = |concurrency: Concurrency| {
            let mut sys = MindCluster::new(MindConfig::small());
            let mut wl = PingPong {
                threads: 2,
                rng: SimRng::new(9),
            };
            run(
                &mut sys,
                &mut wl,
                RunConfig {
                    ops_per_thread: 400,
                    warmup_ops_per_thread: 50,
                    ..Default::default()
                }
                .with_batch_ops(16)
                .with_concurrency(concurrency),
            )
        };
        let a = mk(Concurrency::Turnwise);
        let b = mk(Concurrency::Cluster);
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.warmup_end, b.warmup_end);
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.window_metrics, b.window_metrics);
        assert_eq!(a.mops.to_bits(), b.mops.to_bits());
        assert_eq!(a.latency.quantile(0.999), b.latency.quantile(0.999));
    }

    /// A measured phase of zero ops seeds nobody under either discipline:
    /// the report is empty, with or without a warm-up before it.
    #[test]
    fn a_zero_op_measured_phase_reports_nothing_under_both_disciplines() {
        for concurrency in [Concurrency::Turnwise, Concurrency::Cluster] {
            for (warmup, window) in [(0, 1), (0, 4), (40, 1), (40, 4)] {
                let mut sys = MindCluster::new(MindConfig::small());
                let mut wl = PingPong {
                    threads: 2,
                    rng: SimRng::new(3),
                };
                let cfg = RunConfig {
                    ops_per_thread: 0,
                    warmup_ops_per_thread: warmup,
                    ..Default::default()
                }
                .with_batch_ops(16)
                .with_window(window)
                .with_concurrency(concurrency);
                let report = run(&mut sys, &mut wl, cfg);
                let ctx = format!("{concurrency:?} warmup {warmup} window {window}");
                assert_eq!(report.total_ops, 0, "{ctx}");
                assert_eq!(report.latency.count(), 0, "{ctx}");
                assert_eq!(report.runtime, SimTime::ZERO, "{ctx}");
                assert_eq!(report.remote_per_op, 0.0, "{ctx}");
                assert_eq!(report.invalidations_per_op, 0.0, "{ctx}");
                assert_eq!(report.flushed_per_op, 0.0, "{ctx}");
                assert_eq!(report.metrics.get("accesses"), 2 * warmup, "{ctx}");
                assert_eq!(report.window_metrics.get("accesses"), 0, "{ctx}");
            }
        }
    }

    #[test]
    fn cluster_mode_is_deterministic() {
        let mk = || {
            let mut sys = MindCluster::new(MindConfig::small());
            let mut wl = PingPong {
                threads: 2,
                rng: SimRng::new(7),
            };
            run(
                &mut sys,
                &mut wl,
                RunConfig {
                    warmup_ops_per_thread: 100,
                    ..Default::default()
                }
                .with_batch_ops(16)
                .with_window(4)
                .with_concurrency(Concurrency::Cluster),
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.warmup_end, b.warmup_end);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.sum_overlapped_ns, b.sum_overlapped_ns);
        assert_eq!(a.mops.to_bits(), b.mops.to_bits());
    }

    #[test]
    fn nic_depth_bounds_cluster_throughput() {
        // With every thread on one blade, a NIC depth of 1 serializes the
        // blade's fabric traffic: deeper NICs must be strictly faster on
        // independent faults, and unbounded (0) at least as fast as any.
        let mk = |nic_depth: u32| {
            let mut sys = MindCluster::new(MindConfig {
                nic_depth,
                ..MindConfig::small()
            });
            let mut wl = Strided {
                threads: 2,
                pages: 4096,
                cursor: 0,
            };
            run(
                &mut sys,
                &mut wl,
                RunConfig {
                    ops_per_thread: 512,
                    threads_per_blade: 2,
                    ..Default::default()
                }
                .with_batch_ops(32)
                .with_window(8)
                .with_concurrency(Concurrency::Cluster),
            )
        };
        let choked = mk(1);
        let deep = mk(8);
        let unbounded = mk(0);
        assert_eq!(choked.total_ops, deep.total_ops);
        assert!(
            choked.runtime > deep.runtime,
            "a depth-1 RNIC serializes the blade: {} vs {}",
            choked.runtime.as_nanos(),
            deep.runtime.as_nanos()
        );
        assert!(unbounded.runtime <= deep.runtime, "depth 0 never gates");
    }

    #[test]
    fn windowed_run_is_deterministic() {
        let mk = || {
            let mut sys = MindCluster::new(MindConfig::small());
            let mut wl = PingPong {
                threads: 2,
                rng: SimRng::new(7),
            };
            run(
                &mut sys,
                &mut wl,
                RunConfig::default().with_batch_ops(16).with_window(4),
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.sum_overlapped_ns, b.sum_overlapped_ns);
    }

    #[test]
    fn runner_is_deterministic() {
        let mk = || {
            let mut sys = MindCluster::new(MindConfig::small());
            let mut wl = PingPong {
                threads: 2,
                rng: SimRng::new(7),
            };
            run(&mut sys, &mut wl, RunConfig::default())
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.runtime, b.runtime);
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(
            a.metrics.get("invalidation_requests"),
            b.metrics.get("invalidation_requests")
        );
    }

    #[test]
    #[should_panic(expected = "blades")]
    fn too_many_threads_rejected() {
        let mut sys = MindCluster::new(MindConfig::small()); // 2 blades.
        let mut wl = PingPong {
            threads: 6,
            rng: SimRng::new(1),
        };
        run(
            &mut sys,
            &mut wl,
            RunConfig {
                threads_per_blade: 1,
                ..Default::default()
            },
        );
    }

    #[test]
    fn merge_of_one_report_is_identity() {
        let mut sys = MindCluster::new(MindConfig::small());
        let mut wl = PingPong {
            threads: 2,
            rng: SimRng::new(5),
        };
        let cfg = RunConfig {
            ops_per_thread: 300,
            warmup_ops_per_thread: 50,
            ..Default::default()
        };
        let a = run(&mut sys, &mut wl, cfg);
        let m = merge_reports(a.name.clone(), std::slice::from_ref(&a));
        assert_eq!(m.runtime, a.runtime);
        assert_eq!(m.warmup_end, a.warmup_end);
        assert_eq!(m.total_ops, a.total_ops);
        assert_eq!(m.remote_ops, a.remote_ops);
        assert_eq!(m.mops.to_bits(), a.mops.to_bits(), "floats recomputed bit-identically");
        assert_eq!(m.mean_remote_ns.to_bits(), a.mean_remote_ns.to_bits());
        assert_eq!(m.remote_per_op.to_bits(), a.remote_per_op.to_bits());
        assert_eq!(m.latency.quantile(0.999), a.latency.quantile(0.999));
        assert_eq!(m.metrics, a.metrics);
        assert_eq!(m.window_metrics, a.window_metrics);
    }

    #[test]
    fn merge_sums_integers_and_spans_windows() {
        let mk = |seed: u64, ops: u64| {
            let mut sys = MindCluster::new(MindConfig::small());
            let mut wl = PingPong {
                threads: 1,
                rng: SimRng::new(seed),
            };
            run(
                &mut sys,
                &mut wl,
                RunConfig {
                    ops_per_thread: ops,
                    warmup_ops_per_thread: 20,
                    ..Default::default()
                },
            )
        };
        let a = mk(1, 200);
        let b = mk(2, 300);
        let m = merge_reports("merged", [a.clone(), b.clone()].as_slice());
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
}
