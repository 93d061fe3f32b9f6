//! The common interface evaluated systems implement.
//!
//! MIND, GAM, and FastSwap are compared by replaying identical memory-access
//! traces against each (the paper captures accesses with Intel PIN and
//! replays them through an emulator, §7). [`MemorySystem`] is that replay
//! interface: an access at a simulated time returns a latency breakdown the
//! harness uses to advance per-thread clocks. An [`OpBatch`] hands a system
//! a schedule of accesses at once; its one serialized schedule,
//! [`OpBatch::run_serialized`], is every system's window-1 executor.

use mind_sim::stats::Metrics;
use mind_sim::SimTime;

use crate::coherence::AccessError;
use crate::engine::{ClusterEngine, ClusterStep};
use crate::protect::Pdid;

/// The type of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A LOAD.
    Read,
    /// A STORE.
    Write,
}

impl AccessKind {
    /// Whether this is a write.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// Memory consistency model in force at the compute blades (paper §6.1, §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsistencyModel {
    /// Total Store Order — MIND's default. The page-fault implementation on
    /// x86 forces every write miss to block the thread.
    #[default]
    Tso,
    /// Process Store Order — writes propagate asynchronously (simulated as
    /// in the paper's MIND-PSO configuration).
    Pso,
    /// PSO plus an effectively infinite switch directory (MIND-PSO+),
    /// eliminating capacity-forced false invalidations.
    PsoPlus,
}

impl ConsistencyModel {
    /// Whether writes may complete asynchronously.
    pub fn async_writes(self) -> bool {
        !matches!(self, ConsistencyModel::Tso)
    }

    /// Whether the directory is modelled as unbounded.
    pub fn infinite_directory(self) -> bool {
        matches!(self, ConsistencyModel::PsoPlus)
    }
}

/// Where the cycles of one access went (Figure 7 right's breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Page-fault handler entry/exit and PTE setup.
    pub fault: SimTime,
    /// Network transfer + switch pipeline + memory-blade service.
    pub network: SimTime,
    /// Waiting for invalidation handlers at other blades (queueing).
    pub inv_queue: SimTime,
    /// Synchronous TLB shootdowns at invalidated blades.
    pub inv_tlb: SimTime,
    /// Local DRAM access.
    pub dram: SimTime,
    /// Software overhead (GAM's per-access user-level library checks).
    pub software: SimTime,
    /// Fabric time hidden behind earlier in-flight operations of the same
    /// slot pool (memory-level parallelism under the issue gate). Window 1
    /// always reports zero; under overlap the hidden share of `network`
    /// moves here, so the visible components still sum to the op's
    /// issue→complete latency and breakdowns stay additive in the BENCH
    /// reports.
    pub overlapped: SimTime,
}

impl LatencyBreakdown {
    /// Total latency of the access — the sum of every visible component
    /// (including [`LatencyBreakdown::overlapped`], which is carved *out
    /// of* `network`, never added on top).
    pub fn total(&self) -> SimTime {
        self.fault
            + self.network
            + self.inv_queue
            + self.inv_tlb
            + self.dram
            + self.software
            + self.overlapped
    }

    /// A pure local-DRAM hit.
    pub fn local(dram: SimTime) -> Self {
        LatencyBreakdown {
            dram,
            ..Default::default()
        }
    }
}

/// Result of one memory access against a [`MemorySystem`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AccessOutcome {
    /// Latency attribution; `latency.total()` advances the thread clock.
    pub latency: LatencyBreakdown,
    /// Whether the access left the blade (page fault to remote memory).
    pub remote: bool,
    /// Invalidation requests this access triggered at other blades.
    pub invalidations: u32,
    /// Dirty pages flushed at other blades because of this access.
    pub flushed_pages: u32,
    /// Of those, pages invalidated *falsely* — dirty pages sharing the
    /// directory region but not actually requested (§4.3.1).
    pub false_invalidations: u32,
}

/// One operation of an [`OpBatch`].
///
/// The operation addresses the system exactly like a
/// [`MemorySystem::access`] call; `pdid` optionally names the protection
/// domain (tenant) issuing it — `None` means the system's default replay
/// domain.
#[derive(Debug, Clone, Copy)]
pub struct MemOp {
    /// Issue time. For *fixed* batches the caller sets the time the op is
    /// ready; for *chained* batches the executor works it out as the batch
    /// runs. Either way the executor records the actual issue time here.
    pub at: SimTime,
    /// Compute blade issuing the operation.
    pub blade: u16,
    /// Protection domain, or `None` for the system's default domain.
    pub pdid: Option<Pdid>,
    /// Global virtual address.
    pub vaddr: u64,
    /// LOAD or STORE.
    pub kind: AccessKind,
}

/// A schedule of memory operations handed to a system in one call.
///
/// Every op of a batch takes the same path through the system that a lone
/// [`MemorySystem::access`] takes; the batch only says *when* each issues.
/// How many ops a caller puts in one batch is therefore scheduling
/// granularity — how long one issuer runs before another gets a turn —
/// and nothing else. Two issue disciplines cover the callers in this repo:
///
/// - **chained** (trace replay): ops belong to one issuing thread, in
///   program order, separated by a fixed inter-op `gap` (think time).
/// - **fixed** (serving quanta): every op is independent and ready at its
///   preset [`MemOp::at`] — the discipline of a dispatcher draining queues
///   at a quantum boundary.
///
/// Outcomes land in a parallel result vector, and each op's actual issue
/// time is recorded back into [`MemOp::at`]; a batch is reusable across
/// rounds via [`OpBatch::clear`], which keeps the allocations.
///
/// The **in-flight window** (`window`, default 1) is how many of the
/// batch's operations may be in flight at once. At 1 a chained op issues
/// when its predecessor has completed, plus the gap, and a fixed op at its
/// preset time. At `W > 1`, a system with an issue gate (MIND) keeps up to
/// `W` of them in flight — a chained op is then ready `gap` after its
/// predecessor *issued*, a fixed op still at its preset time, and each
/// issues as soon as a slot, its blade's RNIC and its directory region
/// allow, so a fixed batch issues in ready order, not op order; systems
/// without one (GAM, FastSwap) ignore the window and run serialized.
#[derive(Debug, Default)]
pub struct OpBatch {
    ops: Vec<MemOp>,
    results: Vec<Result<AccessOutcome, AccessError>>,
    gap: SimTime,
    chained: bool,
    window: u32,
}

impl OpBatch {
    /// A chained batch: each op issues when its predecessor completes,
    /// plus `gap` (the runner's per-op think time).
    pub fn chained(gap: SimTime) -> Self {
        OpBatch {
            gap,
            chained: true,
            ..Default::default()
        }
    }

    /// A fixed batch: each op issues at its preset [`MemOp::at`].
    pub fn fixed() -> Self {
        OpBatch::default()
    }

    /// Whether this batch chains issue times.
    pub fn is_chained(&self) -> bool {
        self.chained
    }

    /// The inter-op gap of a chained batch.
    pub fn gap(&self) -> SimTime {
        self.gap
    }

    /// Sets the in-flight window depth (builder-style). `0` and `1` both
    /// mean the serialized semantics.
    pub fn with_window(mut self, window: u32) -> Self {
        self.window = window;
        self
    }

    /// The in-flight window depth (at least 1).
    pub fn window(&self) -> u32 {
        self.window.max(1)
    }

    /// Appends an operation.
    pub fn push(&mut self, op: MemOp) {
        self.ops.push(op);
    }

    /// Drops all ops and results, keeping the allocations (and the issue
    /// mode and window depth).
    pub fn clear(&mut self) {
        self.ops.clear();
        self.results.clear();
    }

    /// Operations queued.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The `i`-th operation (with its recorded issue time, once executed).
    pub fn op(&self, i: usize) -> MemOp {
        self.ops[i]
    }

    /// All operations (with recorded issue times, once executed).
    pub fn ops(&self) -> &[MemOp] {
        &self.ops
    }

    /// All recorded results, in op order (empty until executed).
    pub fn results(&self) -> &[Result<AccessOutcome, AccessError>] {
        &self.results
    }

    /// The serialized schedule: issues every op through `issue(at, op)`,
    /// one at a time and in op order — a chained op when its predecessor
    /// completes plus the gap, a fixed op at its preset time — recording
    /// each op's issue time and result. A refused chained op contributes
    /// no service time: the next op issues after the gap alone. Every
    /// system's `window <= 1` batch runs through here.
    pub fn run_serialized(
        &mut self,
        now: SimTime,
        mut issue: impl FnMut(SimTime, &MemOp) -> Result<AccessOutcome, AccessError>,
    ) {
        let mut t = now;
        for i in 0..self.ops.len() {
            let op = self.ops[i];
            let at = if self.chained { t } else { op.at };
            let result = issue(at, &op);
            // (Read in place: `result` is a hundred bytes just written.)
            let service = result.as_ref().map_or(SimTime::ZERO, |o| o.latency.total());
            t = at + service + self.gap;
            self.record(i, at, result);
        }
    }

    /// Records the `i`-th op's issue time and result, exactly once each.
    /// The serialized schedule records in op order; the windowed executor
    /// issues a fixed batch in ready order, so an op recorded ahead of a
    /// lower one gives every op a placeholder record first.
    pub(crate) fn record(
        &mut self,
        i: usize,
        at: SimTime,
        result: Result<AccessOutcome, AccessError>,
    ) {
        self.ops[i].at = at;
        if i == self.results.len() {
            self.results.push(result);
        } else {
            self.results.resize(self.ops.len(), Ok(AccessOutcome::default()));
            self.results[i] = result;
        }
    }

    /// The `i`-th op's completion time: its recorded issue time plus its
    /// latency.
    ///
    /// # Panics
    ///
    /// Panics if the op failed or was not executed (see
    /// [`OpBatch::outcome`]).
    pub fn completion(&self, i: usize) -> SimTime {
        self.ops[i].at + self.outcome(i).latency.total()
    }

    /// The `i`-th result.
    ///
    /// # Panics
    ///
    /// Panics if the batch has not been executed through op `i`.
    pub fn result(&self, i: usize) -> &Result<AccessOutcome, AccessError> {
        &self.results[i]
    }

    /// The `i`-th outcome, for callers that treat refusals as fatal (the
    /// trace-replay contract of [`MemorySystem::access`]).
    ///
    /// # Panics
    ///
    /// Panics if the op failed or was not executed.
    pub fn outcome(&self, i: usize) -> AccessOutcome {
        match &self.results[i] {
            Ok(outcome) => *outcome,
            Err(e) => panic!("batched access failed at {:#x}: {e}", self.ops[i].vaddr),
        }
    }
}

impl Extend<MemOp> for OpBatch {
    fn extend<I: IntoIterator<Item = MemOp>>(&mut self, ops: I) {
        self.ops.extend(ops);
    }
}

/// A system that can replay a memory-access trace.
///
/// Implementations: `MindCluster` (this crate), `GamSystem` and
/// `FastSwapSystem` (the `mind-baselines` crate).
pub trait MemorySystem {
    /// Performs one access by `thread` running on `blade` at time `now`.
    ///
    /// `now` is the issuing thread's clock; implementations may use it for
    /// queueing decisions. Returns the outcome whose latency the caller adds
    /// to the thread clock.
    fn access(&mut self, now: SimTime, blade: u16, vaddr: u64, kind: AccessKind) -> AccessOutcome;

    /// Number of compute blades in the rack.
    fn n_compute(&self) -> u16;

    /// Snapshot of system-wide metrics (invalidations, remote accesses,
    /// flushed pages, directory occupancy, ...).
    fn metrics(&self) -> Metrics;

    /// Allocates a shared region of `len` bytes and returns its base
    /// virtual address. Used by the trace runner so every compared system
    /// replays the same addresses (the paper's PIN-trace methodology, §7).
    fn alloc(&mut self, len: u64) -> u64;

    /// Drains the system's deterministic trace, if it records one.
    ///
    /// `None` means tracing is off (or unsupported — the default); the
    /// baselines never trace, so comparisons stay cheap.
    fn take_trace(&mut self) -> Option<mind_obs::TraceData> {
        None
    }

    /// Executes a batch of operations starting at `now`, recording each
    /// op's issue time and outcome into the batch.
    ///
    /// The default implementation is the schedule and nothing more:
    /// [`OpBatch::run_serialized`] over [`access`], so GAM and FastSwap
    /// work unmodified. It runs serialized whatever the batch's in-flight
    /// window (overlap needs an issue gate). MIND's override runs the same
    /// schedule over its per-op protection domains and typed refusals at
    /// `window <= 1`; at a deeper window it returns once every op has
    /// issued, with completions in the batch records.
    ///
    /// [`access`]: MemorySystem::access
    fn execute_batch(&mut self, now: SimTime, batch: &mut OpBatch) {
        batch.run_serialized(now, |at, op| {
            Ok(self.access(at, op.blade, op.vaddr, op.kind))
        });
    }

    /// Builds the system's issue engine for `sources` concurrent streams
    /// with a per-source window of `window`, pooled (see
    /// [`crate::engine`]), injecting the system's own per-NIC queue depth.
    ///
    /// `None` — the default — means the system has no issue gate to
    /// arbitrate (the baselines); the runner then keeps the turnwise
    /// discipline even when cluster mode is requested.
    fn cluster_engine(&self, window: u32, sources: u32) -> Option<ClusterEngine> {
        let _ = (window, sources);
        None
    }

    /// One engine step: offers `op` — a source's next operation, ready
    /// ungated since `ready0` — to the issue gates at popped time `now`,
    /// either issuing it or reporting when to re-offer. `None` mirrors
    /// [`cluster_engine`](MemorySystem::cluster_engine)'s "no engine".
    fn cluster_issue(
        &mut self,
        eng: &mut ClusterEngine,
        now: SimTime,
        ready0: SimTime,
        op: &MemOp,
    ) -> Option<ClusterStep> {
        let _ = (eng, now, ready0, op);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_write_flag() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }

    #[test]
    fn consistency_model_flags() {
        assert!(!ConsistencyModel::Tso.async_writes());
        assert!(ConsistencyModel::Pso.async_writes());
        assert!(ConsistencyModel::PsoPlus.async_writes());
        assert!(ConsistencyModel::PsoPlus.infinite_directory());
        assert!(!ConsistencyModel::Pso.infinite_directory());
        assert_eq!(ConsistencyModel::default(), ConsistencyModel::Tso);
    }

    #[test]
    fn breakdown_totals() {
        let b = LatencyBreakdown {
            fault: SimTime::from_nanos(500),
            network: SimTime::from_micros(8),
            inv_queue: SimTime::from_micros(2),
            inv_tlb: SimTime::from_micros(4),
            dram: SimTime::from_nanos(80),
            software: SimTime::ZERO,
            overlapped: SimTime::ZERO,
        };
        assert_eq!(b.total().as_nanos(), 500 + 8_000 + 2_000 + 4_000 + 80);
    }

    /// The additivity contract behind the BENCH breakdowns: `total()` is
    /// exactly the sum of every visible component, `overlapped` included —
    /// moving fabric time from `network` into `overlapped` (what the
    /// in-flight window does) never changes the total.
    #[test]
    fn breakdown_stays_additive_with_overlap() {
        let mut b = LatencyBreakdown {
            fault: SimTime::from_nanos(1),
            network: SimTime::from_nanos(2),
            inv_queue: SimTime::from_nanos(4),
            inv_tlb: SimTime::from_nanos(8),
            dram: SimTime::from_nanos(16),
            software: SimTime::from_nanos(32),
            overlapped: SimTime::from_nanos(64),
        };
        assert_eq!(
            b.total(),
            b.fault + b.network + b.inv_queue + b.inv_tlb + b.dram + b.software + b.overlapped,
            "total is the sum of all visible components"
        );
        let before = b.total();
        // Hide half the remaining network time behind earlier in-flight ops.
        let hidden = SimTime::from_nanos(1);
        b.network = b.network.saturating_sub(hidden);
        b.overlapped += hidden;
        assert_eq!(b.total(), before, "overlap attribution preserves the total");
    }

    #[test]
    fn local_breakdown_is_dram_only() {
        let b = LatencyBreakdown::local(SimTime::from_nanos(80));
        assert_eq!(b.total(), SimTime::from_nanos(80));
        assert_eq!(b.network, SimTime::ZERO);
    }

    fn op(vaddr: u64) -> MemOp {
        MemOp {
            at: SimTime::ZERO,
            blade: 0,
            pdid: None,
            vaddr,
            kind: AccessKind::Read,
        }
    }

    #[test]
    fn op_batch_clear_keeps_mode() {
        let mut b = OpBatch::chained(SimTime::from_nanos(100));
        assert!(b.is_chained());
        assert_eq!(b.gap(), SimTime::from_nanos(100));
        b.push(op(0x1000));
        b.record(0, SimTime::from_nanos(5), Ok(AccessOutcome::default()));
        assert_eq!(b.op(0).at, SimTime::from_nanos(5), "issue time recorded");
        b.clear();
        assert!(b.is_empty());
        assert!(b.is_chained(), "mode survives clear");
        assert!(!OpBatch::fixed().is_chained());
    }

    #[test]
    fn op_batch_window_defaults_serialized_and_survives_clear() {
        let mut b = OpBatch::chained(SimTime::ZERO);
        assert_eq!(b.window(), 1, "default is the serialized semantics");
        b = b.with_window(0);
        assert_eq!(b.window(), 1, "0 means serialized too");
        b = b.with_window(16);
        assert_eq!(b.window(), 16);
        b.push(op(0x1000));
        b.record(0, SimTime::ZERO, Ok(AccessOutcome::default()));
        assert_eq!(b.completion(0), SimTime::ZERO);
        b.clear();
        assert_eq!(b.window(), 16, "window survives clear");
    }

    #[test]
    fn op_batch_outcome_unwraps() {
        let mut b = OpBatch::fixed();
        b.push(op(0x2000));
        let outcome = AccessOutcome {
            remote: true,
            ..Default::default()
        };
        b.record(0, SimTime::ZERO, Ok(outcome));
        assert!(b.outcome(0).remote);
        assert!(b.result(0).is_ok());
    }

    #[test]
    #[should_panic(expected = "batched access failed at 0x3000")]
    fn op_batch_outcome_panics_on_error() {
        let mut b = OpBatch::fixed();
        b.push(op(0x3000));
        b.record(0, SimTime::ZERO, Err(AccessError::PermissionDenied));
        b.outcome(0);
    }
}
