//! The trace-replay runner.
//!
//! Replays a [`Workload`] against a [`MemorySystem`], maintaining one
//! virtual clock per thread: at each step the thread with the earliest
//! clock issues its next *run* of operations at that time — a batch of up
//! to [`RunConfig::batch_ops`] consecutive ops pushed through
//! [`MemorySystem::execute_batch`] — and its clock advances by the chained
//! access latencies plus a small per-op compute gap. At `batch_ops: 1`
//! (the default) this is exactly the scalar op-at-a-time discipline; larger
//! batches issue each thread's ops in quanta, letting a batched datapath
//! amortize per-op table walks. The run's *runtime* is the maximum thread
//! clock — the quantity Figure 5 reports (as inverse, normalized
//! performance).

use mind_core::engine::{ClusterEngine, ClusterStep};
use mind_core::system::{AccessOutcome, MemOp, MemorySystem, OpBatch};
use mind_obs::{TraceConfig, TraceData, WindowSeries};
use mind_sim::stats::{Histogram, Metrics};
use mind_sim::{EventQueue, SimTime};

use crate::trace::{TraceOp, Workload};

/// How concurrently-running threads' operations interleave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Concurrency {
    /// Lockstep scheduling turns: the earliest thread issues its next
    /// batch and drains it before its next turn, so in-flight overlap
    /// forms only *within* one thread's batch. The default, and the
    /// byte-identical reference discipline.
    #[default]
    Turnwise,
    /// The cluster-wide event-driven engine (`mind_core::engine`): every
    /// thread is a continuous issue stream, faults from different threads
    /// overlap each other's fabric RTTs, same-region transitions
    /// serialize cluster-wide, and each blade's RNIC issue bandwidth
    /// gates its threads. Takes effect when `window > 1` *and* the system
    /// has an issue/complete datapath; otherwise the run stays turnwise
    /// (so a `window <= 1` cluster run replays the serialized reference
    /// byte-identically).
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
    /// Consecutive operations a thread issues per scheduling turn, pushed
    /// through the system as one [`OpBatch`]. `1` (the default) preserves
    /// the scalar op-at-a-time semantics exactly; larger values trade
    /// scheduling granularity for datapath amortization. For any fixed
    /// value, scalar and batched datapaths produce identical reports.
    pub batch_ops: u64,
    /// In-flight window depth per batch (memory-level parallelism): how
    /// many independent faults a thread's blade keeps in flight at once.
    /// `1` (the default) is the serialized issue discipline — every RTT
    /// completes before the next op issues — and reproduces the
    /// pre-window reports byte-identically. Larger values overlap fabric
    /// round trips on systems with an issue/complete datapath (MIND);
    /// systems without one run serialized regardless.
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

impl RunReport {
    /// Performance as inverse runtime, normalized against `baseline`
    /// (Figure 5's y-axis).
    pub fn normalized_perf(&self, baseline: &RunReport) -> f64 {
        baseline.runtime.as_nanos() as f64 / self.runtime.as_nanos() as f64
    }
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
        remote_per_op: acc.remote as f64 / acc.total_ops as f64,
        invalidations_per_op: acc.invals as f64 / acc.total_ops as f64,
        flushed_per_op: acc.flushed as f64 / acc.total_ops as f64,
        sum_fault_ns: acc.sum_fault,
        sum_network_ns: acc.sum_network,
        sum_inv_queue_ns: acc.sum_inv_queue,
        sum_inv_tlb_ns: acc.sum_inv_tlb,
        sum_software_ns: acc.sum_software,
        sum_overlapped_ns: acc.sum_overlapped,
        mean_remote_ns: if acc.remote > 0 {
            acc.sum_remote_lat as f64 / acc.remote as f64
        } else {
            0.0
        },
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
/// [`ClusterEngine`] — the cluster-mode counterpart of the turnwise
/// scheduling loops, shared by [`run`] and the sharded executor.
///
/// Each source is a continuous stream: its next op becomes ungated-ready
/// `think_time` after its previous *issue* (the issue pipeline's per-op
/// cost, same chaining rule as a turnwise batch — but with no per-turn
/// drain barrier, which is exactly the cross-turn overlap this engine
/// adds). Ops are generated `batch_ops` at a time into per-source buffers
/// through a caller-supplied `fill` closure, so workload generation order
/// per source is identical to the turnwise runner's.
///
/// The caller owns the phase protocol: pump [`advance_warmup`] to
/// completion, snapshot its baseline metrics, then [`start_measured`] and
/// pump [`advance_measured`]. Warmup ends at the latest warmup completion
/// (plus gap) and each source resumes the measured phase `gap` after its
/// last warmup issue — the same accounting boundaries as turnwise, with
/// in-flight window state (and the overlap frontier) persisting across
/// the phase line.
///
/// [`advance_warmup`]: ClusterDriver::advance_warmup
/// [`start_measured`]: ClusterDriver::start_measured
/// [`advance_measured`]: ClusterDriver::advance_measured
pub(crate) struct ClusterDriver {
    eng: ClusterEngine,
    bufs: Vec<Vec<MemOp>>,
    pos: Vec<usize>,
    /// Ops left to issue in the current phase, per source (buffered ops
    /// included — they decrement at issue).
    left: Vec<u64>,
    /// Per-source resume time for the measured phase: last warmup issue
    /// plus gap ([`SimTime::ZERO`] for sources without warmup).
    resume: Vec<SimTime>,
    measured_ops: u64,
    batch_ops: u64,
    gap: SimTime,
    measured_started: bool,
    /// Latest warmup completion + gap across sources.
    pub(crate) warmup_end: SimTime,
    /// Latest measured completion + gap across sources (primed to
    /// `warmup_end` by [`ClusterDriver::start_measured`]).
    pub(crate) end_clock: SimTime,
}

impl ClusterDriver {
    /// A driver over `sources` streams. Starts in the warmup phase (which
    /// is trivially complete when `warmup_ops_per_thread` is 0).
    pub(crate) fn new(eng: ClusterEngine, sources: u32, cfg: RunConfig) -> Self {
        let n = sources as usize;
        let mut driver = ClusterDriver {
            eng,
            bufs: vec![Vec::new(); n],
            pos: vec![0; n],
            left: vec![cfg.warmup_ops_per_thread; n],
            resume: vec![SimTime::ZERO; n],
            measured_ops: cfg.ops_per_thread,
            batch_ops: cfg.batch_ops.max(1),
            gap: cfg.think_time,
            measured_started: false,
            warmup_end: SimTime::ZERO,
            end_clock: SimTime::ZERO,
        };
        if cfg.warmup_ops_per_thread > 0 {
            for src in 0..sources {
                driver.eng.seed(SimTime::ZERO, src);
            }
        }
        driver
    }

    /// Pumps warmup events up to `horizon`; returns whether the warmup
    /// phase has fully drained (idempotently true thereafter).
    pub(crate) fn advance_warmup<S: MemorySystem + ?Sized>(
        &mut self,
        system: &mut S,
        horizon: SimTime,
        fill: &mut dyn FnMut(u32, usize, &mut Vec<MemOp>),
    ) -> bool {
        debug_assert!(!self.measured_started, "warmup after start_measured");
        self.pump(system, horizon, fill, None)
    }

    /// Seeds the measured phase: every source resumes `gap` after its
    /// last warmup issue, on a fresh event queue (resume times may
    /// precede the warmup queue's final pop). Call exactly once, after
    /// [`ClusterDriver::advance_warmup`] returns `true` and the caller
    /// snapshotted its baseline metrics.
    pub(crate) fn start_measured(&mut self) {
        debug_assert!(!self.measured_started, "start_measured called twice");
        self.measured_started = true;
        self.end_clock = self.warmup_end;
        self.left.fill(self.measured_ops);
        for buf in &mut self.bufs {
            buf.clear();
        }
        self.pos.fill(0);
        self.eng.begin_phase();
        if self.measured_ops > 0 {
            for src in 0..self.eng.sources() {
                self.eng.seed(self.resume[src as usize], src);
            }
        }
    }

    /// Pumps measured events up to `horizon`, accounting completed ops
    /// (and NIC stalls) into `acc`; returns whether the run is complete.
    pub(crate) fn advance_measured<S: MemorySystem + ?Sized>(
        &mut self,
        system: &mut S,
        horizon: SimTime,
        fill: &mut dyn FnMut(u32, usize, &mut Vec<MemOp>),
        acc: &mut Accum,
    ) -> bool {
        debug_assert!(self.measured_started, "measure before start_measured");
        self.pump(system, horizon, fill, Some(acc))
    }

    /// The event loop: pops ready sources in deterministic order, offers
    /// each source's next op to the system's gates, defers gated sources
    /// to their release times, and streams issued ops. `acc: None` is the
    /// warmup phase (completions advance `warmup_end`, nothing is
    /// recorded); `Some` is measured.
    fn pump<S: MemorySystem + ?Sized>(
        &mut self,
        system: &mut S,
        horizon: SimTime,
        fill: &mut dyn FnMut(u32, usize, &mut Vec<MemOp>),
        mut acc: Option<&mut Accum>,
    ) -> bool {
        while let Some(at) = self.eng.peek_time() {
            if at > horizon {
                return false;
            }
            let (now, src) = self.eng.next_ready().expect("peeked event exists");
            let s = src as usize;
            if self.pos[s] == self.bufs[s].len() {
                let n = self.batch_ops.min(self.left[s]) as usize;
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
                ClusterStep::Issued {
                    ref outcome,
                    complete_at,
                    region: _,
                } => {
                    self.pos[s] += 1;
                    self.left[s] -= 1;
                    let done = complete_at + self.gap;
                    match acc.as_deref_mut() {
                        Some(acc) => {
                            acc.record_op(outcome, complete_at);
                            self.end_clock = self.end_clock.max(done);
                        }
                        None => self.warmup_end = self.warmup_end.max(done),
                    }
                    let next = now + self.gap;
                    if self.left[s] > 0 {
                        self.eng.seed(next, src);
                    } else {
                        self.resume[s] = next;
                    }
                }
            }
        }
        true
    }
}

/// Replays `ops_per_thread × n_threads` operations of `workload` against
/// `system`.
///
/// # Panics
///
/// Panics if the workload's threads do not fit on the system's compute
/// blades under `threads_per_blade`.
pub fn run<S: MemorySystem + ?Sized, W: Workload + ?Sized>(
    system: &mut S,
    workload: &mut W,
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

    // Cluster mode: hand the whole thread set to the system's
    // event-driven issue engine, when it has one and the window actually
    // admits overlap. At `window <= 1` (or on engine-less systems) the
    // turnwise discipline below *is* the cluster semantics — one op in
    // flight per thread, serialized — so the reference replay stays
    // byte-identical.
    if cfg.concurrency == Concurrency::Cluster && cfg.window > 1 {
        if let Some(eng) = system.cluster_engine(cfg.window, n_threads as u32) {
            return run_cluster(system, workload, cfg, eng, &bases, n_threads, blades_needed);
        }
    }

    // Discrete-event schedule over threads: the earliest thread issues
    // next; ties resolve in scheduling order (insertion seq).
    let mut queue: EventQueue<u16> = EventQueue::new();
    for t in 0..n_threads {
        queue.schedule(SimTime::ZERO, t);
    }

    // One reusable batch (and generator scratch) for the whole run.
    let batch_ops = cfg.batch_ops.max(1);
    let mut batch = OpBatch::chained(cfg.think_time).with_window(cfg.window);
    let mut ops_buf: Vec<TraceOp> = Vec::new();

    // Fills and executes one scheduling turn for `thread`: up to
    // `batch_ops` consecutive ops as a single chained batch starting at
    // `clock`. Returns the thread's clock after its last completion.
    let mut issue_turn = |system: &mut S,
                          workload: &mut W,
                          batch: &mut OpBatch,
                          clock: SimTime,
                          thread: u16,
                          n: usize|
     -> SimTime {
        let blade = blade_of(thread, cfg, blades_needed);
        ops_buf.clear();
        workload.fill_ops(thread, n, &mut ops_buf);
        batch.clear();
        for op in &ops_buf {
            batch.push(MemOp {
                at: SimTime::ZERO,
                blade,
                pdid: None,
                vaddr: bases[op.region as usize] + op.offset,
                kind: op.kind,
            });
        }
        system.execute_batch(clock, batch);
        // Trace replay treats any refusal as fatal, whichever op of the
        // batch it hit — same visibility as the scalar loop, which panics
        // inside `access` on the first error (warmup included).
        for (op, result) in batch.ops().iter().zip(batch.results()) {
            if let Err(e) = result {
                panic!("batched access failed at {:#x}: {e}", op.vaddr);
            }
        }
        // The thread resumes when its whole turn has completed. Under the
        // serialized window the last op completes last (issue times
        // chain), so this is exactly the old last-op arithmetic; under
        // overlap the in-flight tail may finish out of order and the
        // *latest* completion gates the next turn.
        let turn_done = (0..batch.len())
            .map(|i| batch.completion(i))
            .max()
            .expect("turns are non-empty");
        turn_done + cfg.think_time
    };

    // Warmup phase: populate caches, stabilize regions; untimed. Threads
    // finishing warmup seed the measured queue at their post-warmup
    // clocks, in completion order.
    let mut warmup_end = SimTime::ZERO;
    let mut measured: EventQueue<u16> = EventQueue::new();
    if cfg.warmup_ops_per_thread > 0 {
        let mut left: Vec<u64> = vec![cfg.warmup_ops_per_thread; n_threads as usize];
        while let Some(ev) = queue.pop() {
            let (clock, thread) = (ev.at, ev.event);
            let n = batch_ops.min(left[thread as usize]);
            let next = issue_turn(system, workload, &mut batch, clock, thread, n as usize);
            warmup_end = warmup_end.max(next);
            left[thread as usize] -= n;
            if left[thread as usize] > 0 {
                queue.schedule(next, thread);
            } else {
                measured.schedule(next, thread);
            }
        }
    } else {
        measured = queue;
    }
    let baseline_metrics = system.metrics();

    let mut remaining: Vec<u64> = vec![cfg.ops_per_thread; n_threads as usize];
    let mut acc = Accum::with_trace(cfg.trace);
    let mut end_clock = warmup_end;

    while let Some(ev) = measured.pop() {
        let (clock, thread) = (ev.at, ev.event);
        let n = batch_ops.min(remaining[thread as usize]);
        let next_clock = issue_turn(system, workload, &mut batch, clock, thread, n as usize);

        // One accounting flush per batch, in op order (issue_turn already
        // rejected any failed op).
        acc.record_batch(&batch);

        end_clock = end_clock.max(next_clock);
        remaining[thread as usize] -= n;
        if remaining[thread as usize] > 0 {
            measured.schedule(next_clock, thread);
        }
    }

    // Report the measured window only.
    let window_metrics = system.metrics().diff(&baseline_metrics);
    let mut report = finish_report(
        workload.name(),
        warmup_end,
        end_clock,
        acc,
        system.metrics(),
        window_metrics,
    );
    report.trace = system.take_trace();
    report
}

/// The cluster-mode body of [`run`]: same workload schedule per thread,
/// same warmup/measured accounting boundaries, but issue arbitration runs
/// through the system's [`ClusterEngine`] so independent threads' fabric
/// RTTs overlap cluster-wide.
fn run_cluster<S: MemorySystem + ?Sized, W: Workload + ?Sized>(
    system: &mut S,
    workload: &mut W,
    cfg: RunConfig,
    eng: ClusterEngine,
    bases: &[u64],
    n_threads: u16,
    n_blades: u16,
) -> RunReport {
    let mut driver = ClusterDriver::new(eng, n_threads as u32, cfg);
    let mut ops_buf: Vec<TraceOp> = Vec::new();
    let mut fill = |src: u32, n: usize, out: &mut Vec<MemOp>| {
        let thread = src as u16;
        let blade = blade_of(thread, cfg, n_blades);
        ops_buf.clear();
        workload.fill_ops(thread, n, &mut ops_buf);
        for op in &ops_buf {
            out.push(MemOp {
                at: SimTime::ZERO,
                blade,
                pdid: None,
                vaddr: bases[op.region as usize] + op.offset,
                kind: op.kind,
            });
        }
    };

    let drained = driver.advance_warmup(system, SimTime::MAX, &mut fill);
    debug_assert!(drained, "an unbounded horizon drains warmup");
    let baseline_metrics = system.metrics();
    driver.start_measured();
    let mut acc = Accum::with_trace(cfg.trace);
    let done = driver.advance_measured(system, SimTime::MAX, &mut fill, &mut acc);
    debug_assert!(done, "an unbounded horizon completes the run");

    let window_metrics = system.metrics().diff(&baseline_metrics);
    let mut report = finish_report(
        workload.name(),
        driver.warmup_end,
        driver.end_clock,
        acc,
        system.metrics(),
        window_metrics,
    );
    report.trace = system.take_trace();
    report
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

    use mind_core::system::ScalarLoop;

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

    #[test]
    fn batched_datapath_matches_scalar_loop_at_every_batch_size() {
        // The equivalence guarantee at runner level: for each batch size,
        // MIND's batched execute_batch produces a report identical to the
        // trait's default scalar loop over the same schedule.
        for batch_ops in [1u64, 8, 64] {
            let cfg = RunConfig {
                ops_per_thread: 400,
                warmup_ops_per_thread: 50,
                ..Default::default()
            }
            .with_batch_ops(batch_ops);
            let batched = {
                let mut sys = MindCluster::new(MindConfig::small());
                let mut wl = PingPong {
                    threads: 2,
                    rng: SimRng::new(11),
                };
                run(&mut sys, &mut wl, cfg)
            };
            let scalar = {
                let mut sys = ScalarLoop(MindCluster::new(MindConfig::small()));
                let mut wl = PingPong {
                    threads: 2,
                    rng: SimRng::new(11),
                };
                run(&mut sys, &mut wl, cfg)
            };
            assert_eq!(batched.runtime, scalar.runtime, "batch_ops {batch_ops}");
            assert_eq!(batched.total_ops, scalar.total_ops);
            assert_eq!(batched.metrics, scalar.metrics, "batch_ops {batch_ops}");
            assert_eq!(batched.window_metrics, scalar.window_metrics);
            assert_eq!(
                batched.latency.quantile(0.999),
                scalar.latency.quantile(0.999)
            );
            assert_eq!(batched.sum_network_ns, scalar.sum_network_ns);
            assert_eq!(batched.sum_inv_queue_ns, scalar.sum_inv_queue_ns);
        }
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

    #[test]
    fn normalized_perf_is_relative_runtime() {
        let mut sys = MindCluster::new(MindConfig::small());
        let mut wl = PingPong {
            threads: 1,
            rng: SimRng::new(3),
        };
        let a = run(&mut sys, &mut wl, RunConfig::default());
        let mut b = a.clone();
        b.runtime = a.runtime / 2;
        assert!((b.normalized_perf(&a) - 2.0).abs() < 1e-9);
    }
}
