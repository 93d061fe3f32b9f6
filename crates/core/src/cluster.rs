//! `MindCluster`: the public face of the reproduction.
//!
//! Assembles the simulated rack — compute blades, memory blades, the
//! programmable switch with MIND's in-network tables — behind a small API:
//! process/memory system calls, byte-granularity reads/writes (functional
//! shared memory), trace-replay access (the [`MemorySystem`] trait used by
//! the evaluation harness), and metric/series accessors for the figures.
//!
//! A batch runs one of two ways: at window 1 the serialized schedule every
//! system shares ([`OpBatch::run_serialized`]), and at a deeper window as
//! issue streams through [`MindCluster::issue_clustered`], the one gate
//! over the [`ClusterEngine`]'s pool.

use mind_blade::{page_base, PAGE_SIZE};
use mind_net::link::LatencyConfig;
use mind_sim::stats::{Metrics, TimeSeries};
use mind_sim::SimTime;

use crate::addr::Vma;
use crate::coherence::{AccessError, CoherenceConfig, CoherenceEngine};
use crate::engine::{ClusterEngine, ClusterStep};
use crate::controller::{Controller, Pid, SysError};
use crate::failure::{switch_failover, FailoverError, FailoverReport};
use crate::protect::PermClass;
use crate::split::{BoundedSplitting, SplitConfig};
use crate::system::{AccessKind, AccessOutcome, ConsistencyModel, MemorySystem, OpBatch};
use crate::translate::OutlierTarget;

/// Fraction of a workload footprint held in the compute-blade cache when
/// scaling a rack down (the paper's 512 MB cache / ~2 GB footprint, §7).
pub const CACHE_FRACTION: f64 = 0.25;

/// Directory entries per footprint page when scaling a rack down (the
/// paper's 30 k entries / ~500 k pages, Figure 8 left).
pub const DIR_ENTRIES_PER_PAGE: f64 = 0.06;

/// Compute-blade cache size (pages) for a workload of `footprint_pages`,
/// holding [`CACHE_FRACTION`] and floored so tiny workloads still have a
/// working cache. Huge footprints saturate at `u32::MAX`: Rust's
/// float→int `as` cast already clamps (it never wraps), and the explicit
/// `.min` + regression test pin that behavior down as a contract rather
/// than an implementation accident.
pub fn scaled_cache_pages(footprint_pages: u64) -> u32 {
    let scaled = (footprint_pages as f64 * CACHE_FRACTION).min(u32::MAX as f64) as u32;
    scaled.max(256)
}

/// Switch-directory capacity for a workload of `footprint_pages`, holding
/// [`DIR_ENTRIES_PER_PAGE`] with a floor; saturates like
/// [`scaled_cache_pages`].
pub fn scaled_dir_capacity(footprint_pages: u64) -> usize {
    let scaled = (footprint_pages as f64 * DIR_ENTRIES_PER_PAGE).min(usize::MAX as f64) as usize;
    scaled.max(512)
}

/// ConnectX-5 outstanding-read limit (`max_qp_rd_atom`): the paper's
/// testbed blades reach memory over one-sided RDMA through CX-5 adapters,
/// which bound in-flight RDMA reads per queue pair at 16. The default
/// [`MindConfig::nic_depth`].
pub const CX5_NIC_DEPTH: u32 = 16;

/// Configuration of a simulated MIND rack.
#[derive(Debug, Clone, Copy)]
pub struct MindConfig {
    /// Compute blades (the paper evaluates up to 8).
    pub n_compute: u16,
    /// Memory blades.
    pub n_memory: u16,
    /// Compute-blade local DRAM cache, in pages (512 MB = 131 072 pages in
    /// the paper's setup, ≈25 % of workload footprint).
    pub cache_pages: u32,
    /// Virtual address span per memory blade (power of two).
    pub blade_span: u64,
    /// Physical capacity per memory blade in bytes.
    pub memory_blade_bytes: u64,
    /// Switch SRAM directory capacity (30 k entries, Figure 8 left).
    pub dir_capacity: usize,
    /// Switch match-action rule capacity (45 k entries, Figure 8 center).
    pub rule_capacity: usize,
    /// Bounded-splitting parameters (§5).
    pub split: SplitConfig,
    /// Coherence engine parameters.
    pub coherence: CoherenceConfig,
    /// Calibrated network/blade latencies.
    pub latency: LatencyConfig,
    /// Per-blade RNIC issue queue depth: how many remote operations one
    /// compute blade's NIC keeps in flight at once — the third gate of
    /// [`MindCluster::issue_clustered`] (after the slot pool and
    /// same-region serialization). `0` models an unbounded queue.
    ///
    /// The default is [`CX5_NIC_DEPTH`] (16), calibrated to the paper's
    /// testbed NIC: MIND's compute blades talk to memory blades over
    /// one-sided RDMA reads/writes through ConnectX-5 adapters, whose
    /// `max_qp_rd_atom` limit caps outstanding RDMA reads per queue pair
    /// at 16. The gate binds when a blade's share of the slot pool can
    /// exceed 16: never for one windowed batch or service quantum of
    /// `window` ≤ 16 (its pool is `window` slots in all), but as soon as
    /// a cluster-mode replay, which pools `window × threads` slots, has
    /// one blade's threads together offer more than 16 ops — two threads
    /// at window 16 already do — which is the saturation the real adapter
    /// would impose.
    pub nic_depth: u32,
    /// Deterministic tracing (defaults to resolving `MIND_TRACE`;
    /// propagated unchanged into shard sub-clusters by
    /// [`MindConfig::try_partition`]).
    pub trace: mind_obs::TraceConfig,
}

impl Default for MindConfig {
    /// The paper's evaluation rack: 8 compute blades × 512 MB cache, 8
    /// memory blades, 30 k directory entries, 45 k rules, TSO.
    fn default() -> Self {
        MindConfig {
            n_compute: 8,
            n_memory: 8,
            cache_pages: 131_072,
            blade_span: 1 << 34, // 16 GB of VA per memory blade.
            memory_blade_bytes: 1 << 34,
            dir_capacity: 30_000,
            rule_capacity: 45_000,
            split: SplitConfig::default(),
            coherence: CoherenceConfig::default(),
            latency: LatencyConfig::default(),
            nic_depth: CX5_NIC_DEPTH,
            trace: mind_obs::TraceConfig::default(),
        }
    }
}

impl MindConfig {
    /// A small functional rack (2+2 blades, data-carrying) for examples and
    /// tests.
    pub fn small() -> Self {
        MindConfig {
            n_compute: 2,
            n_memory: 2,
            cache_pages: 1024,
            blade_span: 1 << 26,
            memory_blade_bytes: 1 << 26,
            dir_capacity: 2_000,
            rule_capacity: 2_000,
            coherence: CoherenceConfig {
                carry_data: true,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// A rack scaled for a workload of `footprint_pages` with `n_compute`
    /// compute blades, holding the paper's testbed *ratios* fixed rather
    /// than its absolute sizes: cache = 25 % of footprint, directory ≈ 6 %
    /// of footprint pages, and the bounded-splitting epoch scaled from the
    /// testbed's 100 ms to 2 ms (harness runs simulate ~0.1–1 s of rack
    /// time instead of 60–300 s, and the algorithm needs tens of epochs to
    /// stabilize region sizes, §5). Shapes — who wins, by what factor,
    /// where scaling breaks — are preserved; absolute seconds are not.
    pub fn scaled_to(footprint_pages: u64, n_compute: u16) -> Self {
        let mut cfg = MindConfig {
            n_compute,
            cache_pages: scaled_cache_pages(footprint_pages),
            dir_capacity: scaled_dir_capacity(footprint_pages),
            ..Default::default()
        };
        cfg.split.epoch_len = SimTime::from_millis(2);
        cfg
    }

    /// Sets the consistency model (MIND / MIND-PSO / MIND-PSO+, §7.1).
    pub fn consistency(mut self, model: ConsistencyModel) -> Self {
        self.coherence.consistency = model;
        self
    }

    /// Sets the coherence protocol (MSI default; MESI/MOESI are §8's
    /// proposed extensions).
    pub fn protocol(mut self, protocol: crate::stt::Protocol) -> Self {
        self.coherence.protocol = protocol;
        self
    }

    /// Sets the compute-blade cache size in pages.
    pub fn cache(mut self, pages: u32) -> Self {
        self.cache_pages = pages;
        self
    }
}

/// A simulated MIND rack.
#[derive(Debug)]
pub struct MindCluster {
    cfg: MindConfig,
    engine: CoherenceEngine,
    controller: Controller,
    splitter: BoundedSplitting,
    default_pid: Option<Pid>,
    /// The issue streams of the windowed batch in progress, reset for each
    /// one ([`MemorySystem::execute_batch`] at `window > 1`); built by the
    /// first.
    batch_engine: Option<ClusterEngine>,
}

impl MindCluster {
    /// Builds the rack.
    pub fn new(cfg: MindConfig) -> Self {
        Self::build(cfg, None)
    }

    /// The rack `MindCluster::new(*self.config())` builds, built in this
    /// rack's storage.
    pub fn reset(self) -> Self {
        Self::build(self.cfg, Some(self))
    }

    /// The one body that builds a rack, in the storage of a spare built
    /// from the same `cfg`.
    fn build(cfg: MindConfig, spare: Option<Self>) -> Self {
        let (engine, rest) = spare
            .map(|c| (c.engine, (c.controller, c.splitter)))
            .unzip();
        let (controller, splitter) = rest.unzip();
        MindCluster {
            engine: CoherenceEngine::build(&cfg, engine),
            controller: Controller::build(cfg.n_compute, cfg.n_memory, cfg.blade_span, controller),
            splitter: BoundedSplitting::build(cfg.split, splitter),
            cfg,
            default_pid: None,
            batch_engine: None,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MindConfig {
        &self.cfg
    }

    // ----- System calls (§6.1) -----

    /// `exec`: starts a process. The first process becomes the default for
    /// the trace-replay [`MemorySystem`] interface.
    pub fn exec(&mut self) -> Result<Pid, SysError> {
        let pid = self.controller.exec();
        if self.default_pid.is_none() {
            self.default_pid = Some(pid);
        }
        Ok(pid)
    }

    /// `mmap` with read-write permissions.
    pub fn mmap(&mut self, pid: Pid, len: u64) -> Result<u64, SysError> {
        self.mmap_with(pid, len, PermClass::ReadWrite)
            .map(|v| v.base)
    }

    /// `mmap` with an explicit permission class; returns the vma.
    pub fn mmap_with(&mut self, pid: Pid, len: u64, pc: PermClass) -> Result<Vma, SysError> {
        self.controller.mmap(&mut self.engine, pid, len, pc)
    }

    /// `mmap` (read-write) with placement confined to the memory blades in
    /// `blades` — region ownership for partitioned runs (see
    /// [`crate::shard`]): each partition's vmas stay on its own blade
    /// slice, so its fabric traffic never shares a memory-blade link with
    /// another partition's.
    pub fn mmap_in(
        &mut self,
        pid: Pid,
        len: u64,
        blades: std::ops::Range<u16>,
    ) -> Result<u64, SysError> {
        self.controller
            .mmap_in(&mut self.engine, pid, len, PermClass::ReadWrite, blades)
            .map(|v| v.base)
    }

    /// `munmap`.
    pub fn munmap(&mut self, now: SimTime, pid: Pid, base: u64) -> Result<(), SysError> {
        self.controller.munmap(&mut self.engine, now, pid, base)
    }

    /// `mprotect`.
    pub fn mprotect(
        &mut self,
        now: SimTime,
        pid: Pid,
        base: u64,
        pc: PermClass,
    ) -> Result<(), SysError> {
        self.controller
            .mprotect(&mut self.engine, now, pid, base, pc)
    }

    /// `exit`.
    pub fn exit(&mut self, now: SimTime, pid: Pid) -> Result<(), SysError> {
        if self.default_pid == Some(pid) {
            self.default_pid = None;
        }
        self.controller.exit(&mut self.engine, now, pid)
    }

    /// Places a thread of `pid` on a compute blade (round-robin, §6.1).
    pub fn place_thread(&mut self, pid: Pid) -> Result<u16, SysError> {
        self.controller.place_thread(pid)
    }

    /// Retires one thread of `pid` from `blade` (elastic shrink).
    pub fn unplace_thread(&mut self, pid: Pid, blade: u16) -> Result<bool, SysError> {
        self.controller.unplace_thread(pid, blade)
    }

    /// The control program (process/thread roster inspection).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    // ----- Memory access -----

    /// One LOAD/STORE by a thread of `pid` on `blade` at time `now`.
    pub fn access_as(
        &mut self,
        now: SimTime,
        blade: u16,
        pid: Pid,
        vaddr: u64,
        kind: AccessKind,
    ) -> Result<AccessOutcome, AccessError> {
        self.tick(now);
        self.engine.access(now, blade, pid, vaddr, kind)
    }

    /// [`MemorySystem::execute_batch`] at `batch.window() > 1`: the batch
    /// as issue streams through the one gate,
    /// [`MindCluster::issue_clustered`], over a pool of exactly
    /// `batch.window()` slots; the call returns when the last op has
    /// *issued* (completions are in the batch records). A chained batch is
    /// one stream — its next op is ready `gap` after the previous *issue*
    /// (the issue pipeline's per-op cost), the rule the replay runner's
    /// cluster mode uses; a fixed batch is one stream per op, ready at its
    /// preset [`MemOp::at`](crate::system::MemOp::at), so its ops issue in
    /// ready order and a gated op holds back nobody but itself. A refused
    /// op occupies no slot, and a chained stream moves on from its issue
    /// time.
    // Out of line: inlined beside the serialized loop, it slowed the
    // window-1 replays that never take this branch.
    #[inline(never)]
    fn execute_windowed(&mut self, now: SimTime, batch: &mut OpBatch) {
        let (chained, gap, n) = (batch.is_chained(), batch.gap(), batch.len());
        let mut eng = self
            .batch_engine
            .take()
            .unwrap_or_else(|| ClusterEngine::new(1, self.cfg.nic_depth, 1));
        let sources = if chained { n.min(1) } else { n } as u32;
        eng.reset(batch.window(), sources);
        for src in 0..sources {
            eng.seed(if chained { now } else { batch.op(src as usize).at }, src);
        }
        // The chained stream's next op.
        let mut head = 0;
        while let Some((at, src)) = eng.next_ready() {
            let i = if chained { head } else { src as usize };
            let ready0 = eng.ready0(src);
            let result = match self.issue_clustered(&mut eng, at, ready0, &batch.op(i)) {
                ClusterStep::Gated { until, .. } => {
                    eng.defer(until, src);
                    continue;
                }
                ClusterStep::Issued { outcome, .. } => Ok(outcome),
                ClusterStep::Refused(e) => Err(e),
            };
            batch.record(i, at, result);
            if chained {
                head += 1;
                if head < n {
                    eng.seed(at + gap, src);
                }
            }
        }
        self.batch_engine = Some(eng);
    }

    /// Reads `len` bytes at `vaddr` through `blade`'s cache (functional
    /// mode: `carry_data` must be on).
    pub fn read_bytes(
        &mut self,
        now: SimTime,
        blade: u16,
        pid: Pid,
        vaddr: u64,
        len: usize,
    ) -> Result<Vec<u8>, AccessError> {
        assert!(
            self.cfg.coherence.carry_data,
            "read_bytes requires MindConfig with carry_data"
        );
        let mut out = vec![0u8; len];
        let mut done = 0usize;
        let mut t = now;
        while done < len {
            let addr = vaddr + done as u64;
            let page = page_base(addr);
            let offset = (addr - page) as usize;
            let chunk = ((PAGE_SIZE as usize) - offset).min(len - done);
            let outcome = self.access_as(t, blade, pid, addr, AccessKind::Read)?;
            t += outcome.latency.total();
            let ok = self
                .engine
                .cache(blade)
                .read_data(page, offset, &mut out[done..done + chunk]);
            debug_assert!(ok, "page present after successful access");
            done += chunk;
        }
        Ok(out)
    }

    /// Writes `bytes` at `vaddr` through `blade`'s cache (functional mode).
    pub fn write_bytes(
        &mut self,
        now: SimTime,
        blade: u16,
        pid: Pid,
        vaddr: u64,
        bytes: &[u8],
    ) -> Result<(), AccessError> {
        assert!(
            self.cfg.coherence.carry_data,
            "write_bytes requires MindConfig with carry_data"
        );
        let mut done = 0usize;
        let mut t = now;
        while done < bytes.len() {
            let addr = vaddr + done as u64;
            let page = page_base(addr);
            let offset = (addr - page) as usize;
            let chunk = ((PAGE_SIZE as usize) - offset).min(bytes.len() - done);
            let outcome = self.access_as(t, blade, pid, addr, AccessKind::Write)?;
            t += outcome.latency.total();
            let ok =
                self.engine
                    .cache_mut(blade)
                    .write_data(page, offset, &bytes[done..done + chunk]);
            debug_assert!(ok, "page present and writable after write access");
            done += chunk;
        }
        Ok(())
    }

    // ----- Periodic work & failure hooks -----

    /// Runs the bounded-splitting epochs due by `now` (none for a past `now`).
    fn tick(&mut self, now: SimTime) {
        self.splitter.advance_to(now, self.engine.directory_mut());
    }

    /// Injects packet loss into the fabric (exercises the §4.4 ACK timeout,
    /// retransmission and reset).
    pub fn inject_loss(&mut self, rate: f64, seed: u64) {
        self.engine.fabric_mut().set_loss(rate, seed);
    }

    /// Runs the §4.4 reset protocol on a directory region: every live
    /// blade flushes its dirty pages for `[base, base + 2^k)` and the
    /// entry is removed. Returns when the flushes complete.
    pub fn reset_region(&mut self, now: SimTime, base: u64, k: u8) -> SimTime {
        self.engine.reset_region(now, base, k).0
    }

    /// Fails a compute blade (it stops ACKing invalidations; cache lost).
    pub fn fail_blade(&mut self, blade: u16) {
        self.engine.fail_blade(blade);
    }

    /// Fails over to the backup switch (§4.4): cold-starts coherence and
    /// builds the backup's tables from the control plane's state; see
    /// [`switch_failover`] for the error.
    pub fn switch_failover(&mut self, now: SimTime) -> Result<FailoverReport, FailoverError> {
        switch_failover(&self.controller, &mut self.engine, &self.cfg, now)
    }

    /// Migrates a previously mmapped vma to a different memory blade,
    /// installing outlier translation entries (§4.1 "Transparency via
    /// outlier entries"). `pa_base` is the destination physical offset.
    pub fn migrate(
        &mut self,
        now: SimTime,
        base: u64,
        len: u64,
        blade: u16,
        pa_base: u64,
    ) -> Result<usize, SysError> {
        let (range, to) = (Vma::new(base, len), OutlierTarget { blade, pa_base });
        self.controller.migrate(&mut self.engine, now, range, to)
    }

    // ----- Reporting -----

    /// Engine + controller metrics.
    pub fn metrics_snapshot(&self) -> Metrics {
        MemorySystem::metrics(self)
    }

    /// Per-epoch directory-entry counts (Figure 8 left).
    pub fn directory_series(&self) -> &TimeSeries {
        self.splitter.entries_series()
    }

    /// Current directory entry count.
    pub fn directory_entries(&self) -> usize {
        self.engine.directory().entries()
    }

    /// Total match-action rules installed (translation + protection).
    pub fn match_action_rules(&self) -> usize {
        self.engine.rule_count()
    }

    /// Fraction of the rack's disaggregated memory currently allocated,
    /// in `[0, 1]` — the pressure signal a serving layer's admission
    /// control reads before admitting a tenant.
    pub fn memory_utilization(&self) -> f64 {
        let capacity = self.cfg.n_memory as u64 * self.cfg.memory_blade_bytes;
        self.controller.allocator().allocated() as f64 / capacity as f64
    }

    /// Protection TCAM entries installed for one protection domain
    /// (tenant-isolation accounting: must return to zero after the
    /// domain's owner exits).
    pub fn protection_entries_for(&self, pdid: crate::protect::Pdid) -> usize {
        self.engine.protection_entries_for(pdid)
    }

    /// The bounded-splitting driver (reporting).
    pub fn splitter(&self) -> &BoundedSplitting {
        &self.splitter
    }

    /// The coherence engine (advanced inspection in tests/benches).
    ///
    /// Read-only by design: mutation goes through the purpose-built
    /// operations ([`MindCluster::inject_loss`],
    /// [`MindCluster::fail_blade`], [`MindCluster::reset_region`],
    /// [`MindCluster::switch_failover`], [`MindCluster::migrate`]) so the
    /// cluster's invariants cannot be bypassed from outside.
    pub fn engine(&self) -> &CoherenceEngine {
        &self.engine
    }

    /// The deterministic event sink (live when the config enables
    /// tracing). Callers above the datapath — the serving layer, the
    /// shard executor — record their control-plane events here so one
    /// buffer per (sub-)cluster carries the whole story.
    pub fn trace(&mut self) -> &mut mind_obs::TraceBuf {
        &mut self.engine.trace
    }

    /// Extracts the recorded trace (`None` when tracing is disabled).
    pub fn take_trace(&mut self) -> Option<mind_obs::TraceData> {
        self.engine.take_trace()
    }

    /// One step of the cluster-wide event-driven engine
    /// ([`crate::engine`]): offers `op` — the next operation of a source
    /// that became ungated-ready at `ready0` — to the three issue gates at
    /// virtual time `now` (the source's pop time).
    ///
    /// If the slot pool, the per-NIC queue, or a same-region in-flight
    /// transition holds the op — or the op would miss (or upgrade) into a
    /// directory region still mid-transition (`busy_until`, §4.4) —
    /// returns [`ClusterStep::Gated`] with the exact release time (a
    /// completion of an already-admitted op or the directory entry's
    /// release, so re-offering there makes progress); the NIC's *extra*
    /// share of the wait is reported (and traced) separately so NIC
    /// pressure is attributable. Otherwise the op issues at `now`: the full datapath
    /// runs, fabric time below the pool's overlap frontier moves into
    /// `latency.overlapped` (totals unchanged), the op is admitted, and
    /// any `ready0 → now` wait is traced as a `WindowStall` span. An
    /// access the rack refuses comes back as [`ClusterStep::Refused`] and
    /// occupies no slot.
    pub fn issue_clustered(
        &mut self,
        eng: &mut ClusterEngine,
        now: SimTime,
        ready0: SimTime,
        op: &crate::system::MemOp,
    ) -> ClusterStep {
        // Nothing below touches a blade cache before `issue_probed`: the
        // gates read the engine, the directory and the fabric, and `tick`
        // is handed the directory alone.
        let probe = self.engine.probe_cache(op.blade, op.vaddr);
        let consults = probe.would_fault(op.kind.is_write());
        let gates = eng.sweep(now, op.blade, consults.then(|| page_base(op.vaddr)));
        let slot = gates.slot_free_at;
        let mut region = SimTime::ZERO;
        let mut nic = gates.nic_free_at;
        // Event-driven admission. Only an op that will consult the switch
        // (cache miss or write upgrade) starts a directory transition or
        // uses the RNIC — a local hit does neither, so it passes these
        // gates untouched. A consulting op is held back while it could
        // not make progress anyway; otherwise it occupies a pool slot for
        // the whole wait and convoys the cluster behind one hot spot.
        if consults {
            // Same-region serialization: directory transitions on one
            // region serialize cluster-wide — behind in-flight
            // transitions (the pool's region gate) and behind an entry
            // still mid-transition from earlier rounds (`busy_until`,
            // §4.4; deferring beats queueing at `admit_transition`).
            region = gates
                .region_release
                .max(self.engine.region_busy_until(op.vaddr));
            // NIC TX deferral: the blade's RNIC cannot put the request on
            // the wire while its up-link is booked (e.g. behind a bulk
            // dirty flush); defer to the backlog's drain so the slot goes
            // to a source that can actually issue.
            nic = nic.max(self.engine.nic_tx_release(op.blade));
        }
        let others = now.max(slot).max(region);
        let until = others.max(nic);
        if until > now {
            let nic_stall = until.saturating_sub(others);
            if nic_stall > SimTime::ZERO && self.engine.trace.enabled() {
                self.engine.trace.record(
                    others,
                    op.blade as u32,
                    mind_obs::EventKind::NicStall,
                    nic_stall,
                    eng.nic_depth() as u64,
                    gates.nic_in_flight as u64,
                );
            }
            return ClusterStep::Gated { until, nic_stall };
        }
        if self.engine.trace.enabled() {
            let stall = now.saturating_sub(ready0);
            if stall > SimTime::ZERO {
                self.engine.trace.record(
                    ready0,
                    op.blade as u32,
                    mind_obs::EventKind::WindowStall,
                    stall,
                    eng.in_flight() as u64,
                    0,
                );
            }
        }
        self.tick(now);
        let pdid = op
            .pdid
            .or(self.default_pid)
            .expect("exec a process before replay");
        match self
            .engine
            .issue_probed(now, op.blade, pdid, op.kind, probe)
        {
            Ok(issued) => {
                let mut outcome = issued.outcome;
                let hidden = eng
                    .frontier()
                    .min(issued.complete_at)
                    .saturating_sub(now)
                    .min(outcome.latency.network);
                outcome.latency.network = outcome.latency.network.saturating_sub(hidden);
                outcome.latency.overlapped = hidden;
                eng.admit(issued.complete_at, issued.region, op.blade);
                self.engine.trace.record(
                    now,
                    op.blade as u32,
                    mind_obs::EventKind::WindowAdmit,
                    SimTime::ZERO,
                    eng.in_flight() as u64,
                    0,
                );
                ClusterStep::Issued {
                    outcome,
                    complete_at: issued.complete_at,
                }
            }
            Err(e) => ClusterStep::Refused(e),
        }
    }
}

impl MemorySystem for MindCluster {
    fn access(&mut self, now: SimTime, blade: u16, vaddr: u64, kind: AccessKind) -> AccessOutcome {
        let pid = self.default_pid.expect("exec a process before replay");
        match self.access_as(now, blade, pid, vaddr, kind) {
            Ok(outcome) => outcome,
            Err(e) => panic!("trace access failed at {vaddr:#x}: {e}"),
        }
    }

    fn n_compute(&self) -> u16 {
        self.cfg.n_compute
    }

    fn metrics_into(&self, m: &mut Metrics) {
        m.clear();
        self.engine.add_metrics(m);
        m.extend([
            ("syscalls", self.controller.syscalls),
            ("rules_installed", self.controller.rules_installed),
            ("match_action_rules", self.engine.rule_count() as u64),
        ]);
    }

    fn alloc(&mut self, len: u64) -> u64 {
        if self.default_pid.is_none() {
            self.exec().expect("exec cannot fail");
        }
        let pid = self.default_pid.expect("just ensured");
        self.mmap(pid, len).expect("trace allocation fits the rack")
    }

    /// Executes an [`OpBatch`]: a schedule — which ops, ready when — not a
    /// second way to execute them. The service dispatcher grants each
    /// quantum through here too.
    ///
    /// At `batch.window() <= 1` this is the default's serialized schedule
    /// ([`OpBatch::run_serialized`]) over [`MindCluster::access_as`], with
    /// per-op protection domains (`None`: the default replay process) and
    /// typed refusals. A deeper window keeps up to `window` ops of the
    /// batch in flight through [`MindCluster::issue_clustered`], the gate
    /// cluster-mode replay uses, over a pool of `window` slots, and
    /// returns once the last op has issued.
    ///
    /// # Panics
    ///
    /// Panics if an op has no protection domain and no process has been
    /// `exec`ed.
    fn execute_batch(&mut self, now: SimTime, batch: &mut OpBatch) {
        if batch.window() > 1 {
            return self.execute_windowed(now, batch);
        }
        batch.run_serialized(now, |at, op| {
            let pdid = op
                .pdid
                .or(self.default_pid)
                .expect("exec a process before replay");
            self.access_as(at, op.blade, pdid, op.vaddr, op.kind)
        });
    }

    fn take_trace(&mut self) -> Option<mind_obs::TraceData> {
        MindCluster::take_trace(self)
    }

    /// MIND has an issue/complete datapath, so it supports cluster-wide
    /// event-driven issue; the rack's [`MindConfig::nic_depth`] supplies
    /// the per-NIC gate.
    fn cluster_engine(&self, window: u32, sources: u32) -> Option<ClusterEngine> {
        Some(ClusterEngine::new(window, self.cfg.nic_depth, sources))
    }

    fn cluster_issue(
        &mut self,
        eng: &mut ClusterEngine,
        now: SimTime,
        ready0: SimTime,
        op: &crate::system::MemOp,
    ) -> Option<ClusterStep> {
        Some(self.issue_clustered(eng, now, ready0, op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_to_holds_testbed_ratios() {
        assert_eq!(scaled_cache_pages(100_000), 25_000);
        assert_eq!(scaled_dir_capacity(100_000), 6_000);
        assert_eq!(scaled_cache_pages(400), 256, "floored");
        assert_eq!(scaled_dir_capacity(400), 512, "floored");
        let cfg = MindConfig::scaled_to(100_000, 4);
        assert_eq!(cfg.n_compute, 4);
        assert_eq!(cfg.cache_pages, 25_000);
        assert_eq!(cfg.dir_capacity, 6_000);
        assert_eq!(cfg.split.epoch_len, SimTime::from_millis(2));
    }

    #[test]
    fn scaled_sizes_saturate_on_huge_footprints() {
        // A footprint beyond any 32-bit page count must clamp to the type
        // maximum, never wrap around to a tiny cache/directory.
        assert_eq!(scaled_cache_pages(u64::MAX), u32::MAX);
        assert_eq!(scaled_cache_pages((u32::MAX as u64 + 1) * 8), u32::MAX);
        assert!(scaled_dir_capacity(u64::MAX) >= scaled_dir_capacity(1 << 40));
        // Monotonic across the u32 boundary: growing the footprint never
        // shrinks the scaled sizes.
        let footprints = [1u64 << 20, 1 << 32, 1 << 40, 1 << 50, u64::MAX];
        for pair in footprints.windows(2) {
            assert!(scaled_cache_pages(pair[1]) >= scaled_cache_pages(pair[0]));
            assert!(scaled_dir_capacity(pair[1]) >= scaled_dir_capacity(pair[0]));
        }
    }

    /// The review probe that caught the fixed-batch slot-gate regression:
    /// warm local hits complete at identical times, so one gated op's
    /// issue retires several slots at once — the next op must not issue
    /// back at its preset time with more than `window` ops in flight.
    #[test]
    fn fixed_overlapped_batch_issues_monotonically_within_window() {
        use crate::system::MemOp;
        let mut c = MindCluster::new(MindConfig::small());
        let pid = c.exec().unwrap();
        let base = c.mmap(pid, 1 << 16).unwrap();
        // Warm four pages so every batched op is a local hit with an
        // identical (tied) completion latency.
        for p in 0..4u64 {
            c.access_as(SimTime::ZERO, 0, pid, base + (p << 12), AccessKind::Read)
                .unwrap();
        }
        let mut batch = OpBatch::fixed().with_window(2);
        for p in 0..4u64 {
            batch.push(MemOp {
                at: SimTime::from_micros(100),
                blade: 0,
                pdid: None,
                vaddr: base + (p << 12),
                kind: AccessKind::Read,
            });
        }
        c.execute_batch(SimTime::from_micros(100), &mut batch);
        for i in 0..batch.len() {
            assert!(batch.result(i).is_ok());
            if i > 0 {
                assert!(
                    batch.op(i).at >= batch.op(i - 1).at,
                    "fixed issue times regressed: op {i} at {:?} after {:?}",
                    batch.op(i).at,
                    batch.op(i - 1).at
                );
            }
            let in_flight = (0..i)
                .filter(|&j| batch.op(j).at <= batch.op(i).at && batch.completion(j) > batch.op(i).at)
                .count();
            assert!(in_flight < 2, "op {i} issued with {in_flight} in flight");
        }
    }

    #[test]
    fn run_batch_records_errors_and_advances_by_gap() {
        use crate::system::MemOp;
        let mut c = MindCluster::new(MindConfig::small());
        let pid = c.exec().unwrap();
        let base = c.mmap(pid, 1 << 16).unwrap();
        c.fail_blade(0);
        let gap = SimTime::from_nanos(100);
        let mut batch = OpBatch::chained(gap);
        for &blade in &[0u16, 1] {
            batch.push(MemOp {
                at: SimTime::ZERO,
                blade,
                pdid: None,
                vaddr: base,
                kind: AccessKind::Read,
            });
        }
        c.execute_batch(SimTime::ZERO, &mut batch);
        assert!(
            matches!(batch.result(0), Err(AccessError::BladeFailed)),
            "failed blade's op recorded as an error: {:?}",
            batch.result(0)
        );
        assert!(batch.result(1).is_ok(), "healthy blade proceeds");
        assert_eq!(
            batch.op(1).at,
            gap,
            "a refused chained op contributes no service time"
        );
    }

    #[test]
    fn reset_region_accessor_flushes_and_removes() {
        let (mut c, pid, base) = functional_cluster();
        c.write_bytes(SimTime::ZERO, 0, pid, base, b"dirty").unwrap();
        let (rbase, rk) = c.engine().directory().region_of(base).unwrap();
        c.reset_region(SimTime::from_micros(50), rbase, rk);
        assert!(
            c.engine().directory().region_of(base).is_none(),
            "entry removed by the reset protocol"
        );
        assert!(!c.engine().cache(0).contains(base), "cache flushed");
    }

    fn functional_cluster() -> (MindCluster, Pid, u64) {
        let mut c = MindCluster::new(MindConfig::small());
        let pid = c.exec().unwrap();
        let base = c.mmap(pid, 1 << 20).unwrap();
        (c, pid, base)
    }

    #[test]
    fn bytes_roundtrip_same_blade() {
        let (mut c, pid, base) = functional_cluster();
        c.write_bytes(SimTime::ZERO, 0, pid, base + 100, b"disaggregated")
            .unwrap();
        let got = c
            .read_bytes(SimTime::from_micros(100), 0, pid, base + 100, 13)
            .unwrap();
        assert_eq!(&got, b"disaggregated");
    }

    #[test]
    fn bytes_coherent_across_blades() {
        let (mut c, pid, base) = functional_cluster();
        c.write_bytes(SimTime::ZERO, 0, pid, base, b"written on cb0")
            .unwrap();
        let got = c
            .read_bytes(SimTime::from_millis(1), 1, pid, base, 14)
            .unwrap();
        assert_eq!(&got, b"written on cb0");
        // And back: cb1 updates, cb0 observes.
        c.write_bytes(SimTime::from_millis(2), 1, pid, base, b"updated on cb1")
            .unwrap();
        let got = c
            .read_bytes(SimTime::from_millis(3), 0, pid, base, 14)
            .unwrap();
        assert_eq!(&got, b"updated on cb1");
    }

    #[test]
    fn cross_page_write_spans_pages() {
        let (mut c, pid, base) = functional_cluster();
        let addr = base + PAGE_SIZE - 3; // Straddles a page boundary.
        c.write_bytes(SimTime::ZERO, 0, pid, addr, b"straddle")
            .unwrap();
        let got = c
            .read_bytes(SimTime::from_millis(1), 1, pid, addr, 8)
            .unwrap();
        assert_eq!(&got, b"straddle");
    }

    #[test]
    fn permission_enforced_between_processes() {
        let mut c = MindCluster::new(MindConfig::small());
        let p1 = c.exec().unwrap();
        let p2 = c.exec().unwrap();
        let base = c.mmap(p1, 4096).unwrap();
        assert!(c
            .access_as(SimTime::ZERO, 0, p1, base, AccessKind::Write)
            .is_ok());
        let err = c
            .access_as(SimTime::ZERO, 0, p2, base, AccessKind::Read)
            .unwrap_err();
        assert_eq!(err, AccessError::PermissionDenied);
    }

    #[test]
    fn read_only_vma_rejects_writes() {
        let mut c = MindCluster::new(MindConfig::small());
        let pid = c.exec().unwrap();
        let vma = c.mmap_with(pid, 4096, PermClass::ReadOnly).unwrap();
        assert!(c
            .access_as(SimTime::ZERO, 0, pid, vma.base, AccessKind::Read)
            .is_ok());
        assert_eq!(
            c.access_as(SimTime::ZERO, 0, pid, vma.base, AccessKind::Write)
                .unwrap_err(),
            AccessError::PermissionDenied
        );
    }

    #[test]
    fn trace_interface_uses_first_process() {
        let mut c = MindCluster::new(MindConfig::small());
        let pid = c.exec().unwrap();
        let base = c.mmap(pid, 1 << 16).unwrap();
        let out = MemorySystem::access(&mut c, SimTime::ZERO, 0, base, AccessKind::Read);
        assert!(out.remote, "first touch faults");
        let out = MemorySystem::access(&mut c, SimTime::from_micros(20), 0, base, AccessKind::Read);
        assert!(!out.remote, "second touch hits the cache");
        assert_eq!(c.metrics().get("accesses"), 2);
    }

    #[test]
    fn epochs_fire_during_accesses() {
        let mut c = MindCluster::new(MindConfig::small());
        let pid = c.exec().unwrap();
        let base = c.mmap(pid, 1 << 16).unwrap();
        c.access_as(SimTime::ZERO, 0, pid, base, AccessKind::Read)
            .unwrap();
        // Jump past several epoch boundaries.
        c.access_as(SimTime::from_millis(350), 0, pid, base, AccessKind::Read)
            .unwrap();
        assert!(c.splitter().epochs_run() >= 3);
        assert!(!c.directory_series().points().is_empty());
    }

    #[test]
    fn migration_preserves_contents() {
        let (mut c, pid, base) = functional_cluster();
        c.write_bytes(SimTime::ZERO, 0, pid, base, b"premigration")
            .unwrap();
        // Move the vma's first 64 KB to memory blade 1 at offset 32 MB...
        // within capacity (the small config has 64 MB blades).
        c.migrate(SimTime::from_millis(1), base, 1 << 16, 1, 1 << 25)
            .unwrap();
        // NOTE: migration moves the *mapping*; in a real system the pages
        // would be copied. The model reads the destination, which is fresh
        // (zeroed) — verify the mapping moved and access still works.
        let out = c
            .access_as(SimTime::from_millis(2), 1, pid, base, AccessKind::Read)
            .unwrap();
        assert!(out.remote);
        assert!(c.match_action_rules() > 0);
    }

    /// Freeing an extent scrubs the frames its pages translate to, which
    /// after a migration are the outlier entries' targets.
    #[test]
    fn a_migrated_extent_is_scrubbed_where_it_went() {
        let (mut c, pid, base) = functional_cluster();
        c.migrate(SimTime::ZERO, base, 1 << 16, 1, 1 << 25).unwrap();
        c.write_bytes(SimTime::from_millis(1), 0, pid, base, b"moved")
            .unwrap();
        c.munmap(SimTime::from_millis(2), pid, base).unwrap();
        assert_eq!(c.engine().memory(1).pages_populated(), 0);
        let again = c.mmap(pid, 1 << 20).unwrap();
        assert_eq!(again, base, "the freed extent is handed out again");
        let read = c.read_bytes(SimTime::from_millis(3), 1, pid, again, 5);
        assert_eq!(read.unwrap(), [0; 5]);
    }

    /// A migration's destination frames are its own: a vma another
    /// tenant maps next is placed elsewhere and reads zeros, not what the
    /// migrated vma holds, and frames a migration or a vma holds are refused.
    #[test]
    fn a_migration_reserves_its_frames() {
        let ms = SimTime::from_millis;
        let (mut c, a, base) = functional_cluster();
        let b = c.exec().unwrap();
        c.migrate(SimTime::ZERO, base, 1 << 20, 1, 0).unwrap();
        c.write_bytes(ms(1), 0, a, base, b"secret").unwrap();
        c.switch_failover(ms(2)).unwrap(); // The cold start flushes it.
        let other = c.mmap(b, 1 << 20).unwrap();
        assert_eq!(c.read_bytes(ms(3), 1, b, other, 6).unwrap(), [0; 6]);
        let refused = Err(SysError::NoMem);
        assert_eq!(c.migrate(ms(4), base, 1 << 20, 1, 0), refused, "migrated");
        assert_eq!(other, base + (1 << 20), "blade 0, after the first vma");
        assert_eq!(c.migrate(ms(4), base, 1 << 20, 0, 1 << 20), refused, "vma");
    }

    /// `munmap` undoes a vma's migration: its frames, outlier entry and log
    /// record go, so the rules are the two partitions' again and a backup
    /// switch replays nothing.
    #[test]
    fn munmap_undoes_a_migration() {
        let (mut c, pid, base) = functional_cluster();
        c.migrate(SimTime::ZERO, base, 1 << 20, 1, 0).unwrap();
        assert_eq!(c.match_action_rules(), 4, "partitions, grant, outlier");
        c.munmap(SimTime::from_millis(1), pid, base).unwrap();
        assert_eq!(c.match_action_rules(), 2);
        assert_eq!(c.controller.allocator().allocated(), 0);
        let failover = c.switch_failover(SimTime::from_millis(2)).unwrap();
        assert_eq!(failover.rules_replayed, 0);
    }

    /// A migration stays inside one live vma: a range that runs into the
    /// next vma, or one never mapped, is refused and reserves no frame, so
    /// unmapping one vma never undoes a move of another's pages.
    #[test]
    fn a_migration_outside_one_vma_is_refused() {
        let (mut c, pid, base) = functional_cluster();
        let next = c.mmap_in(pid, 1 << 20, 0..1).unwrap();
        assert_eq!(next, base + (1 << 20), "adjacent on blade 0");
        let allocated = c.controller.allocator().allocated();
        let mut to_blade_1 = |base, len| c.migrate(SimTime::ZERO, base, len, 1, 0);
        let fault = Err(SysError::Fault);
        assert_eq!(to_blade_1(base, 1 << 21), fault, "two vmas");
        assert_eq!(to_blade_1(next + (1 << 20), 1 << 16), fault, "unmapped");
        assert_eq!(to_blade_1(base - (1 << 16), 1 << 16), fault, "below");
        assert_eq!(to_blade_1(next + (1 << 16), 1 << 16), Ok(1), "inside");
        let reserved = c.controller.allocator().allocated();
        assert_eq!(reserved, allocated + (1 << 16), "only the last one");
    }

    /// The backup rebuilds translation from the migration log: a migrated
    /// vma routes and reads after a failover as it did before.
    #[test]
    fn a_migration_survives_failover() {
        let (mut c, pid, base) = functional_cluster();
        c.migrate(SimTime::ZERO, base, 1 << 16, 1, 1 << 25).unwrap();
        c.write_bytes(SimTime::from_millis(1), 0, pid, base, b"migrated")
            .unwrap();
        let route = |c: &MindCluster, page| c.engine.translation.translate(page);
        let pages = (base..base + (1 << 20)).step_by(PAGE_SIZE as usize);
        let before: Vec<_> = pages.clone().map(|p| route(&c, p)).collect();
        assert_eq!(before[0].map(|pa| pa.blade), Some(1), "migrated");
        c.switch_failover(SimTime::from_millis(2)).unwrap();
        let after: Vec<_> = pages.map(|p| route(&c, p)).collect();
        assert_eq!(after, before);
        let read = c.read_bytes(SimTime::from_millis(3), 1, pid, base, 8);
        assert_eq!(read.unwrap(), b"migrated");
    }

    #[test]
    fn memory_utilization_tracks_allocation() {
        let mut c = MindCluster::new(MindConfig::small());
        assert_eq!(c.memory_utilization(), 0.0);
        let pid = c.exec().unwrap();
        // Small config: 2 blades x 64 MB; a 32 MB vma is 1/4 of capacity.
        let base = c.mmap(pid, 1 << 25).unwrap();
        assert!((c.memory_utilization() - 0.25).abs() < 1e-9);
        c.munmap(SimTime::ZERO, pid, base).unwrap();
        assert_eq!(c.memory_utilization(), 0.0);
        // No power of two holds these lengths: ENOMEM, not a panic.
        assert_eq!(c.mmap(pid, u64::MAX), Err(SysError::NoMem));
        assert_eq!(c.mmap(pid, (1 << 63) + 1), Err(SysError::NoMem));
    }

    #[test]
    fn protection_entries_reclaimed_on_exit() {
        let mut c = MindCluster::new(MindConfig::small());
        let pid = c.exec().unwrap();
        c.mmap(pid, 1 << 16).unwrap();
        c.mmap(pid, 1 << 20).unwrap();
        assert!(c.protection_entries_for(pid) >= 2);
        c.exit(SimTime::ZERO, pid).unwrap();
        assert_eq!(c.protection_entries_for(pid), 0, "TCAM reclaimed");
    }

    /// The default NIC gate is the CX-5 calibration, and it is inert for
    /// one batch at every window depth ≤ 16: a single-blade window-16
    /// batch runs byte-identically with the calibrated and unbounded
    /// queues, because the batch's own pool already caps the blade's
    /// in-flight ops at the adapter's limit. (Not so in a cluster-mode
    /// replay, which pools the windows of a blade's threads.)
    #[test]
    fn default_nic_depth_is_cx5_and_inert_within_window() {
        assert_eq!(MindConfig::default().nic_depth, CX5_NIC_DEPTH);
        let run = |nic_depth: u32| {
            let mut cfg = MindConfig::small();
            cfg.nic_depth = nic_depth;
            let mut c = MindCluster::new(cfg);
            let pid = c.exec().unwrap();
            let base = c.mmap(pid, 1 << 22).unwrap();
            let mut batch = OpBatch::fixed().with_window(16);
            for i in 0..64u64 {
                batch.push(crate::system::MemOp {
                    at: SimTime::from_nanos(i * 10),
                    blade: 0,
                    pdid: None,
                    vaddr: base + (((i * 37) % 1024) << 12),
                    kind: if i % 3 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                });
            }
            c.execute_batch(SimTime::ZERO, &mut batch);
            (0..batch.len())
                .map(|i| (batch.op(i).at, batch.outcome(i).latency.total()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(CX5_NIC_DEPTH), run(0));
    }

    /// What one life observes that grows every table a rack owns: bytes
    /// moved between blades, a migration, false invalidations over several
    /// splitting epochs, retransmitted invalidations under packet loss, a
    /// failed blade, a failover, a windowed batch that evicts, `munmap`,
    /// `exit`, and a grant, a stored page and `variant` more tenants left
    /// behind; then the caches' residency, the outlier routes and the live
    /// allocations. `variant` also moves addresses and draws and stretches
    /// time, so a longer life leaves state a shorter one would not.
    fn life(c: &mut MindCluster, variant: u64) -> Vec<String> {
        let at = |us: u64| SimTime::from_micros(us * (1 + variant));
        let (a, b, d) = (c.exec().unwrap(), c.exec().unwrap(), c.exec().unwrap());
        let (base, other) = (c.mmap(a, 1 << 20).unwrap(), c.mmap(b, 1 << 16).unwrap());
        let kept = c.mmap(d, 1 << 16).unwrap();
        let mut log = vec![format!("{a} {b} {d} {base:#x} {other:#x} {kept:#x} {:?}", c.place_thread(a))];
        let page = base + (variant << 12);
        c.write_bytes(at(1), 0, a, page, &variant.to_le_bytes()).unwrap();
        c.write_bytes(at(2), 0, d, kept + (variant << 12), b"kept").unwrap();
        log.push(format!("{:?}", c.read_bytes(at(40), 1, a, page, 8)));
        c.migrate(at(80), base + ((1 + variant) << 16), 1 << 16, 1, 1 << 25).unwrap();
        for i in 0..400u64 {
            if i == 200 {
                c.inject_loss(0.2, variant);
            }
            let vaddr = base + (((i * 3 + variant) % 4) << 12);
            let out = c.access_as(at(100 + i * 600), (i % 2) as u16, a, vaddr, AccessKind::Write);
            log.push(format!("{out:?}"));
        }
        // Both blades write one page while packets drop: rounds retransmit.
        for i in 0..8u64 {
            let (blade, t) = ((i % 2) as u16, at(240_000 + i * 600));
            log.push(format!("{:?}", c.access_as(t, blade, a, base, AccessKind::Write)));
        }
        c.fail_blade(1);
        log.push(format!("{:?}", c.access_as(at(250_000), 1, a, base, AccessKind::Read)));
        log.push(format!("{:?}", c.switch_failover(at(251_000))));
        log.extend((0..3).map(|p| format!("{:?}", c.read_bytes(at(251_500), 0, d, kept + (p << 12), 8))));
        let mut batch = OpBatch::fixed().with_window(4);
        batch.extend((0..16).map(|i| crate::system::MemOp {
            at: at(252_000 + i),
            blade: 0,
            pdid: None,
            vaddr: base + (i << 12),
            kind: AccessKind::Read,
        }));
        c.execute_batch(at(252_000), &mut batch);
        log.extend((0..16).map(|i| format!("{:?} {:?}", batch.result(i), batch.completion(i))));
        c.munmap(at(260_000), b, other).unwrap();
        // Pids are recycled, last freed first: the next default is `b`, not 1.
        c.exit(at(261_000), a).unwrap();
        c.exit(at(261_000), b).unwrap();
        for _ in 0..variant {
            let pid = c.exec().unwrap();
            log.push(format!("{pid} {:?}", c.mmap(pid, 1 << 12)));
        }
        let (entries, rules, used) = (c.directory_entries(), c.match_action_rules(), c.memory_utilization());
        log.push(format!("{:?} {entries} {rules} {used}", c.metrics_snapshot()));
        log.push(format!("{:?} {}", c.directory_series().points(), c.splitter().epochs_run()));
        let (engine, live) = (&c.engine, c.controller.allocator().live_allocations());
        let resident = [0, 1].map(|b| engine.cache(b).resident_pages());
        let route = |k: u64| engine.translation.translate(base + (k << 16));
        log.push(format!("{resident:?} {:?} {live}", [0, 1, 2, 3].map(route)));
        log
    }

    /// After a longer life and `reset`, a life observes on the rack what it
    /// observes on a new one, trace included, under TSO and PSO's store buffers.
    #[test]
    fn a_reset_rack_is_a_new_rack() {
        for consistency in [ConsistencyModel::Tso, ConsistencyModel::Pso] {
            let mut cfg = MindConfig::small().consistency(consistency);
            cfg.trace = mind_obs::TraceConfig::with_mode(mind_obs::TraceMode::On);
            cfg.cache_pages = 8; // The windowed batch's 16 pages evict.
            let (mut reused, mut fresh) = (MindCluster::new(cfg), MindCluster::new(cfg));
            life(&mut reused, 2);
            let m = reused.metrics_snapshot();
            assert!(m.get("evictions") > 0 && m.get("retransmissions") > 0);
            reused = reused.reset();
            assert_eq!(life(&mut reused, 1), life(&mut fresh, 1), "{consistency:?}");
            assert_eq!(reused.take_trace(), fresh.take_trace(), "{consistency:?}");
        }
    }

    #[test]
    fn metrics_include_rule_counts() {
        let (c, _pid, _base) = functional_cluster();
        let m = c.metrics_snapshot();
        assert!(m.get("match_action_rules") >= 3, "2 blade ranges + 1 vma");
        assert_eq!(m.get("syscalls"), 2, "exec + mmap");
    }
}
