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
//! drained, report. The replay owns each source's op stream: it generates
//! up to [`CHUNK`] ops ahead per source, never past what the source owes
//! the phase, and both the turn and the cluster engine's driver read from
//! that one buffer. By the [`Workload`] contract a thread's stream depends
//! on neither chunk sizes nor the order threads are asked in, so generating
//! ahead changes nothing simulated. [`run`] is the one-partition case; the
//! sharded executor puts partition validation in front of the same state.

use std::ops::{DerefMut, Range};

use mind_core::engine::{ClusterEngine, ClusterStep};
use mind_core::protect::Pdid;
use mind_core::system::{AccessKind, AccessOutcome, MemOp, MemorySystem, OpBatch};
use mind_obs::{TraceConfig, TraceData, WindowSeries};
use mind_sim::spare::reuse;
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
/// one shared arithmetic (`RunReport::finish`), so reports over disjoint
/// partitions merge exactly: integers add, histograms and metrics merge
/// bucket-wise, and the floats are recomputed from the sums.
#[derive(Debug, Clone, Default)]
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

impl RunReport {
    /// A report with nothing recorded yet, in a spare's name (emptied, for
    /// the caller to write), histogram and metric sets when there is one.
    /// It also records the windowed telemetry series when `trace` is
    /// enabled.
    pub(crate) fn build(trace: TraceConfig, spare: Option<RunReport>) -> Self {
        let (name, latency, metrics, window_metrics) = match spare {
            Some(r) => (
                Some(r.name),
                Some(r.latency),
                Some(r.metrics),
                Some(r.window_metrics),
            ),
            None => (None, None, None, None),
        };
        RunReport {
            name: reuse(name),
            runtime: SimTime::ZERO,
            warmup_end: SimTime::ZERO,
            total_ops: 0,
            remote_ops: 0,
            invalidations: 0,
            flushed_pages: 0,
            sum_remote_lat_ns: 0,
            mops: 0.0,
            remote_per_op: 0.0,
            invalidations_per_op: 0.0,
            flushed_per_op: 0.0,
            sum_fault_ns: 0,
            sum_network_ns: 0,
            sum_inv_queue_ns: 0,
            sum_inv_tlb_ns: 0,
            sum_software_ns: 0,
            sum_overlapped_ns: 0,
            mean_remote_ns: 0.0,
            latency: reuse(latency),
            metrics: reuse(metrics),
            window_metrics: reuse(window_metrics),
            timeseries: trace.enabled().then(|| WindowSeries::new(trace.interval)),
            trace: None,
        }
    }

    /// Records one executed batch, in op order.
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

    /// Records one completed operation — the per-op half of
    /// [`record_batch`](Self::record_batch), used directly by the cluster
    /// engine's driver where ops complete stream-wise rather than
    /// batch-wise.
    pub(crate) fn record_op(&mut self, outcome: &AccessOutcome, complete_at: SimTime) {
        let total_ns = outcome.latency.total().as_nanos();
        self.total_ops += 1;
        if outcome.remote {
            self.remote_ops += 1;
            self.sum_remote_lat_ns += total_ns as u128;
        }
        self.latency.record(total_ns);
        self.invalidations += outcome.invalidations as u64;
        self.flushed_pages += outcome.flushed_pages as u64;
        self.sum_fault_ns += outcome.latency.fault.as_nanos() as u128;
        self.sum_network_ns += outcome.latency.network.as_nanos() as u128;
        self.sum_inv_queue_ns += outcome.latency.inv_queue.as_nanos() as u128;
        self.sum_inv_tlb_ns += outcome.latency.inv_tlb.as_nanos() as u128;
        self.sum_software_ns += outcome.latency.software.as_nanos() as u128;
        self.sum_overlapped_ns += outcome.latency.overlapped.as_nanos() as u128;
        if let Some(series) = &mut self.timeseries {
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
        if let Some(series) = &mut self.timeseries {
            series.record_nic_stall(at, stall.as_nanos());
        }
    }

    /// Folds the finished report of a disjoint partition into this one,
    /// leaving a finished report: integers add, histograms, metrics and
    /// timeseries merge bucket-wise, traces extend, and the measured
    /// window spans `[max warmup_end, max(warmup_end + runtime)]`. The
    /// derived floats are recomputed from the folded integers, so folding
    /// one report into an empty one gives that report back, and every
    /// fold order gives the same report up to the order of trace events
    /// (which every renderer canonicalizes). Only `other`'s trace and
    /// telemetry series are taken, so the rest of its storage stays with it.
    pub fn merge(&mut self, other: &mut RunReport) {
        let end_clock = (self.warmup_end + self.runtime).max(other.warmup_end + other.runtime);
        self.warmup_end = self.warmup_end.max(other.warmup_end);
        self.total_ops += other.total_ops;
        self.remote_ops += other.remote_ops;
        self.invalidations += other.invalidations;
        self.flushed_pages += other.flushed_pages;
        self.sum_remote_lat_ns += other.sum_remote_lat_ns;
        self.sum_fault_ns += other.sum_fault_ns;
        self.sum_network_ns += other.sum_network_ns;
        self.sum_inv_queue_ns += other.sum_inv_queue_ns;
        self.sum_inv_tlb_ns += other.sum_inv_tlb_ns;
        self.sum_software_ns += other.sum_software_ns;
        self.sum_overlapped_ns += other.sum_overlapped_ns;
        self.latency.merge(&other.latency);
        self.metrics.merge(&other.metrics);
        self.window_metrics.merge(&other.window_metrics);
        if let Some(series) = other.timeseries.take() {
            match &mut self.timeseries {
                Some(mine) => mine.merge(&series),
                None => self.timeseries = Some(series),
            }
        }
        if let Some(t) = other.trace.take() {
            match &mut self.trace {
                Some(mine) => mine.merge(t),
                None => self.trace = Some(t),
            }
        }
        self.finish(end_clock);
    }

    /// Ends the measured window at `end_clock` — the single place the
    /// runtime and the derived floats are computed, shared by [`run`] and
    /// [`merge`](Self::merge), so a merge of one report reproduces it
    /// exactly.
    fn finish(&mut self, end_clock: SimTime) {
        self.runtime = end_clock.saturating_sub(self.warmup_end);
        let secs = self.runtime.as_secs_f64().max(1e-12);
        // A window without ops (or without remote ops) reports zero, not 0/0.
        let per = |sum: f64, of: u64| if of > 0 { sum / of as f64 } else { 0.0 };
        let ops = self.total_ops;
        self.mops = ops as f64 / secs / 1e6;
        self.remote_per_op = per(self.remote_ops as f64, ops);
        self.invalidations_per_op = per(self.invalidations as f64, ops);
        self.flushed_per_op = per(self.flushed_pages as f64, ops);
        self.mean_remote_ns = per(self.sum_remote_lat_ns as f64, self.remote_ops);
    }
}

/// Drives a set of issue streams (threads) through a system's
/// [`ClusterEngine`] — what a cluster-mode [`Replay`] schedules with
/// instead of turns.
///
/// Each source is a continuous stream: its next op becomes ungated-ready
/// `think_time` after its previous *issue* (the issue pipeline's per-op
/// cost, the chaining rule of a windowed turnwise batch — but with no
/// per-turn drain barrier, which is exactly the cross-turn overlap this
/// discipline adds).
///
/// The driver holds only what is the engine's: the [`Replay`] owns the
/// phase protocol, the ops each source still owes, their streams and the
/// phase clocks. Each source resumes the measured phase think time after
/// its last warmup issue — the same accounting boundaries as turnwise, with
/// in-flight window state (and the overlap frontier) persisting across the
/// phase line.
pub(crate) struct ClusterDriver {
    eng: ClusterEngine,
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
        ClusterDriver { eng, resume: vec![SimTime::ZERO; sources as usize] }
    }

    /// Seeds the measured phase (unless it is empty): every source resumes
    /// think time after its last warmup issue, on a fresh event queue
    /// (resume times may precede the warmup queue's final pop).
    fn start_measured(&mut self, seed: bool) {
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
    /// every source has issued what it owes. The engine's source `src` is
    /// source `first + src` of `streams`. Returns the latest completion
    /// plus think time ([`SimTime::ZERO`] when nothing issued). `report:
    /// None` is the warmup phase (nothing is recorded); `Some` is measured.
    ///
    /// # Panics
    ///
    /// Panics when the system refuses an access: trace replay treats any
    /// refusal as fatal.
    fn pump<S: MemorySystem + ?Sized, P: DerefMut<Target: Workload>>(
        &mut self,
        system: &mut S,
        gap: SimTime,
        streams: &mut Streams,
        workloads: &mut [P],
        first: u32,
        mut report: Option<&mut RunReport>,
    ) -> SimTime {
        let mut latest = SimTime::ZERO;
        while let Some((now, src)) = self.eng.next_ready() {
            let s = (first + src) as usize;
            let op = streams.peek(workloads, s);
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
                        if let Some(report) = report.as_deref_mut() {
                            report.record_nic_stall(now, nic_stall);
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
                } => {
                    streams.advance(s);
                    if let Some(report) = report.as_deref_mut() {
                        report.record_op(outcome, complete_at);
                    }
                    latest = latest.max(complete_at + gap);
                    let next = now + gap;
                    if streams.cursors[s].owed > 0 {
                        self.eng.seed(next, src);
                    } else {
                        self.resume[src as usize] = next;
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

impl Source {
    /// `op` as this source issues it: on its blade, in its domain, at its
    /// partition's region `bases`.
    fn resolve(&self, bases: &[u64], op: &TraceOp) -> MemOp {
        MemOp {
            at: SimTime::ZERO,
            blade: self.blade,
            pdid: self.pdid,
            vaddr: bases[op.region as usize] + op.offset,
            kind: op.kind,
        }
    }
}

/// The most ops one [`Workload::fill_ops`] call generates ahead for a
/// source.
const CHUNK: usize = 64;

/// Where a source stands in the current phase.
#[derive(Clone, Default)]
struct Cursor {
    /// Ops the source still owes the phase, generated or not.
    owed: u64,
    /// The slots of the flat buffer it generated and has not yet taken.
    held: Range<u32>,
}

/// The op streams of a replay: `partitions × threads_per_part` sources in
/// partition-major order, each partition a workload with its own region
/// bases, and where each source stands in the current phase.
///
/// A source's next ops are generated ahead, a chunk at a time, into its
/// [`CHUNK`] slots of one flat buffer, already resolved. A refill never
/// generates past what the source owes, so the buffer is empty at every
/// phase line. A turn that takes a whole chunk or all its source owes
/// fills its batch directly, so a replay of only such turns never
/// allocates the buffer.
#[derive(Default)]
struct Streams {
    sources: Vec<Source>,
    threads_per_part: u32,
    /// Per partition, the system address of each workload region.
    bases: Vec<Vec<u64>>,
    cursors: Vec<Cursor>,
    /// [`CHUNK`] slots per source, sized by the first refill a run needs.
    ahead: Vec<MemOp>,
    ops_buf: Vec<TraceOp>,
}

impl Streams {
    /// Readies the sources, each owing `owed`, over the storage earlier runs
    /// grew.
    fn arm(&mut self, per_part: u32, owed: u64) {
        self.cursors.clear();
        self.cursors.resize(self.sources.len(), Cursor::default());
        self.threads_per_part = per_part;
        self.owe(owed);
    }

    /// Starts a phase in which every source owes `owed` ops.
    fn owe(&mut self, owed: u64) {
        for cursor in &mut self.cursors {
            debug_assert!(cursor.held.is_empty(), "generated past the phase line");
            cursor.owed = owed;
        }
    }

    /// Generates source `s`'s next `n` operations into `ops_buf`.
    fn generate<P: DerefMut<Target: Workload>>(
        &mut self,
        workloads: &mut [P],
        s: usize,
        n: usize,
    ) -> Source {
        let src = self.sources[s];
        self.ops_buf.clear();
        workloads[src.part as usize].fill_ops(src.thread, n, &mut self.ops_buf);
        src
    }

    /// Refills source `s`, which holds nothing, with its next chunk.
    fn refill<P: DerefMut<Target: Workload>>(&mut self, workloads: &mut [P], s: usize) {
        let n = self.cursors[s].owed.min(CHUNK as u64) as usize;
        let src = self.generate(workloads, s, n);
        let slots = self.sources.len() * CHUNK;
        if self.ahead.len() < slots {
            let kind = AccessKind::Read;
            let unused = MemOp { at: SimTime::ZERO, blade: 0, pdid: None, vaddr: 0, kind };
            self.ahead.resize(slots, unused);
        }
        let (bases, at) = (&self.bases[src.part as usize], s * CHUNK);
        for (slot, op) in self.ahead[at..at + n].iter_mut().zip(&self.ops_buf) {
            *slot = src.resolve(bases, op);
        }
        self.cursors[s].held = at as u32..(at + n) as u32;
    }

    /// Source `s`'s next operation, which stays next until
    /// [`Streams::advance`] takes it.
    fn peek<P: DerefMut<Target: Workload>>(&mut self, workloads: &mut [P], s: usize) -> MemOp {
        if self.cursors[s].held.is_empty() {
            self.refill(workloads, s);
        }
        self.ahead[self.cursors[s].held.start as usize]
    }

    /// Takes source `s`'s next operation.
    fn advance(&mut self, s: usize) {
        let cursor = &mut self.cursors[s];
        cursor.held.start += 1;
        cursor.owed -= 1;
    }

    /// Takes source `s`'s next `n` operations (at most what it owes) into
    /// `batch`.
    fn take<P: DerefMut<Target: Workload>>(
        &mut self,
        workloads: &mut [P],
        s: usize,
        n: usize,
        batch: &mut OpBatch,
    ) {
        let rest = n - self.take_held(s, n, batch);
        if rest == 0 {
            return;
        }
        if rest as u64 >= self.cursors[s].owed.min(CHUNK as u64) {
            // A whole chunk or all the source owes: straight into the batch.
            let src = self.generate(workloads, s, rest);
            let bases = &self.bases[src.part as usize];
            batch.extend(self.ops_buf.iter().map(|op| src.resolve(bases, op)));
            self.cursors[s].owed -= rest as u64;
        } else {
            self.refill(workloads, s);
            self.take_held(s, rest, batch);
        }
    }

    /// Takes up to `n` of the ops source `s` holds into `batch`; returns
    /// how many.
    fn take_held(&mut self, s: usize, n: usize, batch: &mut OpBatch) -> usize {
        let cursor = &mut self.cursors[s];
        let k = cursor.held.len().min(n);
        batch.extend(self.ahead[cursor.held.start as usize..][..k].iter().copied());
        cursor.held.start += k as u32;
        cursor.owed -= k as u64;
        k
    }
}

/// The schedule state of a replay. It owns who issues next and each
/// source's stream, what the source still owes included; the system, the
/// workloads and the report are handed to [`Replay::run`], so one value
/// drives [`run`]'s generic system and the sharded executor's sub-clusters
/// alike, run after run, in the storage the first run grew.
pub(crate) struct Replay {
    cfg: RunConfig,
    streams: Streams,
    /// The system's metrics at the end of warmup.
    baseline: Metrics,
    /// Turnwise: the current phase's ready sources by thread clock.
    queue: EventQueue<u32>,
    /// Turnwise: sources that finished warmup, at their post-warmup
    /// clocks in completion order — the measured phase's queue.
    resume: EventQueue<u32>,
    /// Cluster mode ([`Concurrency::Cluster`], `window > 1`, a system with
    /// an issue gate): one event-driven issue engine *per partition*, so the gates a partition's threads share — its slot
    /// pool, its blades' NICs, its region serialization — are identical
    /// whether the partition runs fused or sharded. Empty in turnwise
    /// mode.
    drivers: Vec<ClusterDriver>,
    batch: OpBatch,
}

impl Replay {
    /// A replay under `cfg` with no sources yet: [`Replay::arm`] gives it
    /// some.
    pub(crate) fn new(cfg: RunConfig) -> Self {
        Replay {
            cfg,
            streams: Streams::default(),
            baseline: Metrics::new(),
            queue: EventQueue::new(),
            resume: EventQueue::new(),
            drivers: Vec::new(),
            batch: OpBatch::chained(cfg.think_time).with_window(cfg.window),
        }
    }

    /// The next run's sources and, per partition, region bases, emptied
    /// in their storage for the caller to fill (see [`Streams`] for their
    /// order) before [`Replay::arm`].
    pub(crate) fn layout(&mut self, partitions: usize) -> (&mut Vec<Source>, &mut [Vec<u64>]) {
        let streams = &mut self.streams;
        streams.sources.clear();
        streams.bases.resize_with(partitions, Vec::new);
        streams.bases.iter_mut().for_each(Vec::clear);
        (&mut streams.sources, &mut streams.bases)
    }

    /// Readies a run of the [`Replay::layout`] just filled on `system`, all
    /// sources ready at time zero, over the storage earlier runs grew.
    pub(crate) fn arm<S: MemorySystem + ?Sized>(&mut self, system: &S, threads_per_part: u32) {
        let (cfg, warmup) = (self.cfg, self.cfg.warmup_ops_per_thread);
        self.streams.arm(threads_per_part, warmup);
        self.drivers.clear();
        if cfg.concurrency == Concurrency::Cluster && cfg.window > 1 {
            // A system without an issue engine stays turnwise.
            self.drivers.extend((0..self.streams.bases.len()).filter_map(|_| {
                let eng = system.cluster_engine(cfg.window, threads_per_part)?;
                Some(ClusterDriver::new(eng, threads_per_part, warmup > 0))
            }));
        }
        let n = self.streams.sources.len();
        self.queue.clear();
        self.resume.clear();
        if self.drivers.is_empty() {
            // A source is pending in each queue at most once.
            self.queue.reserve(n);
            self.resume.reserve(n);
            // Without warmup the seeds are the measured phase's.
            let first = if warmup > 0 { &mut self.queue } else { &mut self.resume };
            for s in 0..n as u32 {
                first.schedule(SimTime::ZERO, s);
            }
        }
    }

    /// Replays to completion and reports the measured window into
    /// `report`, a new one ([`RunReport::build`]): warm up until every
    /// source has drained, snapshot the baseline metrics at that barrier,
    /// re-seed the sources at their post-warmup clocks and measure until
    /// every source has drained again. `system` and `workloads` must be the
    /// ones the replay was armed for.
    pub(crate) fn run<S: MemorySystem + ?Sized, P: DerefMut<Target: Workload>>(
        &mut self,
        system: &mut S,
        workloads: &mut [P],
        report: &mut RunReport,
    ) {
        report.warmup_end = self.drain_phase(system, workloads, None);
        system.metrics_into(&mut self.baseline);
        let measured = self.cfg.ops_per_thread;
        self.streams.owe(measured);
        // A zero-op measured phase seeds nobody: the drained warmup queue
        // stays the phase's queue.
        if measured > 0 {
            std::mem::swap(&mut self.queue, &mut self.resume);
        }
        for driver in &mut self.drivers {
            driver.start_measured(measured > 0);
        }
        let measured_end = self.drain_phase(system, workloads, Some(report));
        system.metrics_into(&mut report.metrics);
        report.window_metrics.clone_from(&report.metrics);
        report.window_metrics.subtract(&self.baseline);
        report.trace = system.take_trace();
        report.finish(report.warmup_end.max(measured_end));
    }

    /// Runs the current phase until no source owes it an op, in timestamp
    /// order (ties by schedule order), recording into `report` when measuring
    /// (`None` is the warmup). Returns the latest source clock the phase
    /// reached — a completion plus think time — or [`SimTime::ZERO`] if
    /// nothing ran.
    fn drain_phase<S: MemorySystem + ?Sized, P: DerefMut<Target: Workload>>(
        &mut self,
        system: &mut S,
        workloads: &mut [P],
        mut report: Option<&mut RunReport>,
    ) -> SimTime {
        let mut latest = SimTime::ZERO;
        if self.drivers.is_empty() {
            // Turnwise: the earliest source takes its turn.
            let batch_ops = self.cfg.batch_ops.max(1);
            while let Some(due) = self.queue.pop() {
                let s = due.event;
                let next = self.turn(system, workloads, due.at, s as usize, batch_ops);
                if let Some(report) = report.as_deref_mut() {
                    // One accounting flush per turn, in op order.
                    report.record_batch(&self.batch);
                }
                latest = latest.max(next);
                if self.streams.cursors[s as usize].owed > 0 {
                    self.queue.schedule(next, s);
                } else if report.is_none() {
                    self.resume.schedule(next, s);
                }
            }
            return latest;
        }
        // Cluster mode: each partition's engine driver in turn.
        let (gap, tpp) = (self.cfg.think_time, self.streams.threads_per_part);
        for (part, driver) in self.drivers.iter_mut().enumerate() {
            let first = part as u32 * tpp;
            let report = report.as_deref_mut();
            latest =
                latest.max(driver.pump(system, gap, &mut self.streams, workloads, first, report));
        }
        latest
    }

    /// One scheduling turn: source `s`'s next `batch_ops` ops (fewer if it
    /// owes fewer) as a single chained batch starting at `clock`. Returns
    /// the source's clock after its last completion plus think time.
    fn turn<S: MemorySystem + ?Sized, P: DerefMut<Target: Workload>>(
        &mut self,
        system: &mut S,
        workloads: &mut [P],
        clock: SimTime,
        s: usize,
        batch_ops: u64,
    ) -> SimTime {
        let n = batch_ops.min(self.streams.cursors[s].owed) as usize;
        self.batch.clear();
        self.streams.take(workloads, s, n, &mut self.batch);
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
/// Panics if `threads_per_blade` is zero, if the workload's threads do not
/// fit on the system's compute blades under `threads_per_blade`, or if the
/// system refuses an access.
pub fn run<S: MemorySystem + ?Sized, W: Workload + ?Sized>(
    system: &mut S,
    mut workload: &mut W,
    cfg: RunConfig,
) -> RunReport {
    assert!(cfg.threads_per_blade > 0, "threads_per_blade must be at least 1");
    let n_threads = workload.n_threads();
    let blades_needed = n_threads.div_ceil(cfg.threads_per_blade);
    assert!(
        blades_needed <= system.n_compute(),
        "workload needs {blades_needed} blades, system has {}",
        system.n_compute()
    );

    let mut replay = Replay::new(cfg);
    let (sources, bases) = replay.layout(1);
    // Resolve workload regions to system addresses.
    bases[0].extend(workload.regions().into_iter().map(|len| system.alloc(len)));
    sources.extend((0..n_threads).map(|thread| Source {
        part: 0,
        thread,
        blade: blade_of(thread, cfg, blades_needed),
        pdid: None,
    }));
    replay.arm(system, n_threads as u32);
    let mut report = RunReport::build(cfg.trace, None);
    report.name = workload.name();
    replay.run(system, std::slice::from_mut(&mut workload), &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_core::cluster::{MindCluster, MindConfig};
    use mind_sim::SimRng;

    /// A trivially deterministic workload for runner tests: every thread
    /// reads and writes the same four pages, from its own RNG fork.
    struct PingPong {
        rngs: Vec<SimRng>,
    }

    impl PingPong {
        fn new(threads: u16, seed: u64) -> Self {
            let mut root = SimRng::new(seed);
            PingPong { rngs: (0..threads).map(|_| root.fork()).collect() }
        }
    }

    impl Workload for PingPong {
        fn name(&self) -> String {
            "pingpong".to_string()
        }
        fn regions(&self) -> Vec<u64> {
            vec![1 << 20]
        }
        fn n_threads(&self) -> u16 {
            self.rngs.len() as u16
        }
        fn next_op(&mut self, thread: u16) -> TraceOp {
            let rng = &mut self.rngs[thread as usize];
            let page = rng.gen_below(4);
            TraceOp {
                region: 0,
                offset: page << 12,
                kind: if rng.gen_bool(0.5) {
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
        let mut wl = PingPong::new(2, 1);
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
        let mut wl = PingPong::new(2, 1);
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
    /// overlap. Each thread walks its own residue class of the strides, so
    /// no two threads touch the same page.
    struct Strided {
        pages: u64,
        cursors: Vec<u64>,
    }

    impl Strided {
        fn new(threads: u16, pages: u64) -> Self {
            Strided { pages, cursors: vec![0; threads as usize] }
        }
    }

    impl Workload for Strided {
        fn name(&self) -> String {
            "strided".to_string()
        }
        fn regions(&self) -> Vec<u64> {
            vec![self.pages << 12]
        }
        fn n_threads(&self) -> u16 {
            self.cursors.len() as u16
        }
        fn next_op(&mut self, thread: u16) -> TraceOp {
            // Stride by 8 pages (two 16 KB initial regions) so successive
            // faults land in different regions.
            let threads = self.cursors.len() as u64;
            let cursor = &mut self.cursors[thread as usize];
            let page = ((*cursor * threads + thread as u64) * 8) % self.pages;
            *cursor += 1;
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
            let mut wl = Strided::new(1, 4096);
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
            let mut wl = Strided::new(2, 4096);
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
            let mut wl = PingPong::new(2, 9);
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
                let mut wl = PingPong::new(2, 3);
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
            let mut wl = PingPong::new(2, 7);
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
            let mut wl = Strided::new(2, 4096);
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
            let mut wl = PingPong::new(2, 7);
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
            let mut wl = PingPong::new(2, 7);
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
        let mut wl = PingPong::new(6, 1);
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
    #[should_panic(expected = "threads_per_blade")]
    fn zero_threads_per_blade_panics_naming_the_field() {
        let mut sys = MindCluster::new(MindConfig::small());
        let mut wl = PingPong::new(2, 1);
        run(&mut sys, &mut wl, RunConfig { threads_per_blade: 0, ..Default::default() });
    }

    /// Each source is pending in a queue at most once, so arming reserves
    /// a slot per source in both the warmup and the measured queue.
    #[test]
    fn arming_reserves_a_queue_slot_per_source() {
        let sys = MindCluster::new(MindConfig::small());
        let n = 37u16;
        let mut replay = Replay::new(RunConfig::default());
        let (sources, bases) = replay.layout(1);
        let source = |thread| Source {
            part: 0,
            thread,
            blade: thread % 2,
            pdid: None,
        };
        sources.extend((0..n).map(source));
        bases[0].push(0);
        replay.arm(&sys, n as u32);
        assert!(replay.queue.capacity() >= n as usize, "warmup queue");
        assert!(replay.resume.capacity() >= n as usize, "measured queue");
    }
}
