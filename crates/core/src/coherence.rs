//! The in-network MSI coherence protocol (paper §4.3.2, §6.3).
//!
//! The switch data plane intercepts page-fault RDMA requests addressed by
//! virtual address, runs protection + translation + the directory state
//! machine (two MAUs and a recirculation, Figure 4), multicasts invalidation
//! requests with sharer-list egress pruning, and forwards the fetch to the
//! right memory blade. Placing the directory *in* the data path gives:
//!
//! - common transitions (I→S/M, S→S, S→M) one round trip (~9 µs),
//! - the expensive M→S/M transitions two sequential round trips (~18 µs),
//!
//! matching Figure 7 (left). The engine also accounts false invalidations —
//! dirty pages flushed only because they share a directory region with the
//! requested page (§4.3.1) — which feed the bounded-splitting algorithm.

use mind_blade::{
    page_base, CacheProbe, DramCache, InvalidationOutcome, InvalidationQueue, MemoryBlade,
    PageData, TaggedLookup, PAGE_SIZE,
};
use mind_net::fabric::Fabric;
use mind_net::link::LatencyConfig;
use mind_net::node::{BladeSet, NodeId};
use mind_net::packet::{Packet, PacketKind};
use mind_net::reliability::AckTracker;
use mind_obs::{EventKind, TraceBuf};
use mind_sim::stats::Metrics;
use mind_sim::SimTime;
use mind_switch::pipeline::Pipeline;

use crate::directory::{MsiState, RegionDirectory};
use crate::protect::{Pdid, ProtectionTable};
use crate::stt::{FetchSource, InvalScope, Protocol, Role, SttTable};
use crate::system::{AccessKind, AccessOutcome, ConsistencyModel, LatencyBreakdown};
use crate::translate::TranslationTable;

/// Why an access was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessError {
    /// `<PDID, vaddr>` failed the protection check (or no entry exists).
    PermissionDenied,
    /// The address does not translate to any memory blade.
    BadAddress,
    /// The target compute blade has been failed by fault injection.
    BladeFailed,
}

impl std::fmt::Display for AccessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessError::PermissionDenied => write!(f, "permission denied"),
            AccessError::BadAddress => write!(f, "bad address"),
            AccessError::BladeFailed => write!(f, "compute blade failed"),
        }
    }
}

impl std::error::Error for AccessError {}

/// A resolved, in-flight access: the **issue phase**'s product.
///
/// The issue phase runs the whole switch data path — protection,
/// translation, the directory state machine, invalidation rounds — and
/// commits the resulting state transitions (the recirculated directory
/// update, Figure 4 #3), exactly as the monolithic access path always did.
/// What it *returns* is new: an explicit completion record. The
/// **completion phase** is the caller's — retiring the record from an
/// in-flight window ([`crate::window::InFlightWindow`]), which is what
/// lets up to `W` independent faults overlap their fabric round trips
/// while [`region`](IssuedAccess::region) lets same-region transitions
/// serialize at issue.
#[derive(Debug, Clone, Copy)]
pub struct IssuedAccess {
    /// Latency attribution and protocol side effects, as
    /// [`CoherenceEngine::access`] reports them.
    pub outcome: AccessOutcome,
    /// When the operation issued.
    pub issued_at: SimTime,
    /// When the operation completes (`issued_at` plus the outcome's total
    /// latency): the time its in-flight slot frees.
    pub complete_at: SimTime,
    /// The directory region `(base, size_log2)` this access transitioned,
    /// or `None` when it touched no directory state (local hits,
    /// cross-domain remaps, cache bypasses).
    pub region: Option<(u64, u8)>,
}

impl IssuedAccess {
    fn new(issued_at: SimTime, outcome: AccessOutcome, region: Option<(u64, u8)>) -> Self {
        IssuedAccess {
            outcome,
            issued_at,
            complete_at: issued_at + outcome.latency.total(),
            region,
        }
    }
}

/// Engine tunables.
#[derive(Debug, Clone, Copy)]
pub struct CoherenceConfig {
    /// Consistency model at the compute blades (§6.1).
    pub consistency: ConsistencyModel,
    /// The coherence protocol's state-transition table (MSI in the paper;
    /// MESI/MOESI are the §8 extensions).
    pub protocol: Protocol,
    /// Whether page data is physically carried (functional mode) or elided
    /// (pure performance simulation).
    pub carry_data: bool,
    /// ACK timeout for invalidation rounds (§4.4).
    pub ack_timeout: SimTime,
    /// Retransmissions before the reset protocol fires (§4.4).
    pub max_retries: u32,
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        CoherenceConfig {
            consistency: ConsistencyModel::Tso,
            protocol: Protocol::Msi,
            carry_data: false,
            ack_timeout: SimTime::from_micros(100),
            max_retries: 3,
        }
    }
}

/// Result of one invalidation round.
#[derive(Debug, Clone, Copy, Default)]
struct InvalRound {
    /// When the last ACK reached the switch.
    done_at: SimTime,
    /// Dirty pages flushed across victims.
    flushed: u32,
    /// Of those, false invalidations (not the requested page).
    false_inv: u32,
    /// Invalidation requests delivered.
    requests: u32,
    /// Queue delay of the critical (last-acking) victim.
    crit_queue: SimTime,
    /// TLB shootdown time of the critical victim.
    crit_tlb: SimTime,
    /// Whether the round ended in a reset (§4.4).
    reset: bool,
}

/// The engine's event counters.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    accesses: u64,
    local_hits: u64,
    remote_accesses: u64,
    upgrades: u64,
    inval_requests: u64,
    inval_rounds: u64,
    flushed_pages: u64,
    false_invalidations: u64,
    bypasses: u64,
    resets: u64,
    denials: u64,
    async_writes: u64,
}

/// The in-network memory management engine: switch data plane + blades.
#[derive(Debug)]
pub struct CoherenceEngine {
    cfg: CoherenceConfig,
    lat: LatencyConfig,
    fabric: Fabric,
    pipeline: Pipeline,
    pub(crate) directory: RegionDirectory,
    pub(crate) translation: TranslationTable,
    pub(crate) protection: ProtectionTable,
    caches: Vec<DramCache>,
    inv_queues: Vec<InvalidationQueue>,
    memory: Vec<MemoryBlade>,
    failed: Vec<bool>,
    /// Per-blade PSO write buffer: completion times of in-flight
    /// asynchronous writes. A bounded store buffer — when full, further
    /// writes stall until the oldest drains (real PSO hardware has finite
    /// store-buffer capacity).
    pso_buffer: Vec<std::collections::VecDeque<SimTime>>,
    /// The materialized state-transition table in the second MAU (§6.3).
    stt: SttTable,
    acks: AckTracker,
    ctrs: Counters,
    /// Reusable multicast-delivery buffer for invalidation rounds.
    deliveries_scratch: Vec<(u16, SimTime)>,
    /// Reusable invalidation-outcome buffer (per-victim cache scans).
    inval_scratch: InvalidationOutcome,
    /// Deterministic event sink (disabled unless the owning cluster
    /// installs a live one via [`CoherenceEngine::set_trace`]).
    pub(crate) trace: TraceBuf,
}

impl CoherenceEngine {
    /// Builds the engine for a rack.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n_compute: u16,
        n_memory: u16,
        cache_pages: u32,
        blade_span: u64,
        memory_blade_bytes: u64,
        dir_capacity: usize,
        initial_region_log2: u8,
        tcam_capacity: usize,
        lat: LatencyConfig,
        cfg: CoherenceConfig,
    ) -> Self {
        let dir_capacity = if cfg.consistency.infinite_directory() {
            usize::MAX / 2
        } else {
            dir_capacity
        };
        CoherenceEngine {
            cfg,
            lat,
            fabric: Fabric::new(n_compute, n_memory, lat),
            pipeline: Pipeline::new(lat.switch_pipeline, lat.switch_recirculation),
            directory: RegionDirectory::new(dir_capacity, initial_region_log2),
            translation: TranslationTable::new(n_memory, blade_span, tcam_capacity),
            protection: ProtectionTable::new(tcam_capacity),
            caches: (0..n_compute)
                .map(|_| DramCache::new(cache_pages))
                .collect(),
            inv_queues: (0..n_compute).map(|_| InvalidationQueue::new()).collect(),
            memory: (0..n_memory)
                .map(|_| MemoryBlade::new(memory_blade_bytes))
                .collect(),
            failed: vec![false; n_compute as usize],
            pso_buffer: (0..n_compute)
                .map(|_| std::collections::VecDeque::new())
                .collect(),
            stt: SttTable::new(cfg.protocol),
            acks: AckTracker::new(cfg.ack_timeout, cfg.max_retries),
            ctrs: Counters::default(),
            deliveries_scratch: Vec::new(),
            inval_scratch: InvalidationOutcome::default(),
            trace: TraceBuf::disabled(),
        }
    }

    /// Installs the event sink (called by the owning cluster at build
    /// time; the default is a disabled sink).
    pub fn set_trace(&mut self, trace: TraceBuf) {
        self.trace = trace;
    }

    /// Extracts the recorded trace, leaving the sink live (`None` when
    /// tracing is disabled).
    pub fn take_trace(&mut self) -> Option<mind_obs::TraceData> {
        self.trace.take()
    }

    /// Number of compute blades.
    pub fn n_compute(&self) -> u16 {
        self.caches.len() as u16
    }

    /// Number of memory blades.
    pub fn n_memory(&self) -> u16 {
        self.memory.len() as u16
    }

    /// The fabric (for loss injection in tests).
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// The directory (for the epoch driver and reporting).
    pub fn directory(&self) -> &RegionDirectory {
        &self.directory
    }

    /// Mutable directory access (epoch driver).
    pub fn directory_mut(&mut self) -> &mut RegionDirectory {
        &mut self.directory
    }

    /// A compute blade's cache (for functional data access).
    pub fn cache(&self, blade: u16) -> &DramCache {
        &self.caches[blade as usize]
    }

    /// A memory blade (for functional data inspection).
    pub fn memory(&self, blade: u16) -> &MemoryBlade {
        &self.memory[blade as usize]
    }

    /// What the memory blades store for the page holding `vaddr`, if
    /// anything (an inspection: no traffic, no counters).
    pub fn stored_page(&self, vaddr: u64) -> Option<&PageData> {
        let pa = self.translation.resolve(page_base(vaddr))?;
        self.memory.get(pa.blade as usize)?.peek(pa.page())
    }

    /// Mutable cache access.
    pub fn cache_mut(&mut self, blade: u16) -> &mut DramCache {
        &mut self.caches[blade as usize]
    }

    /// What `blade`'s cache holds for the page of `vaddr`. Non-mutating:
    /// no LRU bump, no counters — the cluster engine's issue gates read it
    /// ([`CacheProbe::would_fault`]: a miss or a write upgrade leaves the
    /// blade and consults the switch directory), and
    /// [`CoherenceEngine::issue_probed`] takes it.
    pub fn probe_cache(&self, blade: u16, vaddr: u64) -> CacheProbe {
        self.caches[blade as usize].probe(page_base(vaddr))
    }

    /// The earliest time `blade`'s RNIC can put a new request on the
    /// wire: its up-link's serialization backlog. Bulk dirty flushes (a
    /// force-merged region's invalidation writing back every dirty page)
    /// book the up-link far into the future; a fault issued before the
    /// backlog drains would only queue behind it.
    pub fn nic_tx_release(&self, blade: u16) -> SimTime {
        self.fabric.tx_free_at(NodeId::Compute(blade))
    }

    /// The directory's transition-serialization release time for the
    /// region containing `vaddr` (`busy_until`, §4.4): `SimTime::ZERO`
    /// when the region is untracked or idle. The directory remembers the
    /// resolution, so the fault this probe admits does not repeat it.
    pub fn region_busy_until(&mut self, vaddr: u64) -> SimTime {
        match self.directory.lookup(page_base(vaddr)) {
            Some(region) => self.directory.entry_at(region).busy_until,
            None => SimTime::ZERO,
        }
    }

    /// Marks a compute blade as failed: it stops ACKing invalidations and
    /// its cache contents are lost (fault-injection hook, §4.4).
    pub fn fail_blade(&mut self, blade: u16) {
        self.failed[blade as usize] = true;
        self.caches[blade as usize] = DramCache::new(self.caches[blade as usize].capacity_pages());
    }

    /// Performs one memory access. This is the full MIND data path —
    /// the issue phase of [`CoherenceEngine::issue`] with the completion
    /// record discarded, for callers that serialize anyway.
    pub fn access(
        &mut self,
        now: SimTime,
        blade: u16,
        pdid: Pdid,
        vaddr: u64,
        kind: AccessKind,
    ) -> Result<AccessOutcome, AccessError> {
        self.issue(now, blade, pdid, vaddr, kind).map(|ia| ia.outcome)
    }

    /// The issue phase: resolves protection, translation, and directory
    /// state, commits the transition, and returns the completion record
    /// an in-flight window arbitrates on (see [`IssuedAccess`]).
    pub fn issue(
        &mut self,
        now: SimTime,
        blade: u16,
        pdid: Pdid,
        vaddr: u64,
        kind: AccessKind,
    ) -> Result<IssuedAccess, AccessError> {
        let probe = self.probe_cache(blade, vaddr);
        self.issue_probed(now, blade, pdid, kind, probe)
    }

    /// [`CoherenceEngine::issue`] of the page `probe` looked up in
    /// `blade`'s cache ([`CoherenceEngine::probe_cache`]), without looking
    /// again. That cache must not have been mutated in between.
    pub fn issue_probed(
        &mut self,
        now: SimTime,
        blade: u16,
        pdid: Pdid,
        kind: AccessKind,
        probe: CacheProbe,
    ) -> Result<IssuedAccess, AccessError> {
        let result = self.issue_inner(now, blade, pdid, kind, probe);
        if self.trace.enabled() {
            if let Ok(ia) = &result {
                self.trace.record(
                    now,
                    blade as u32,
                    EventKind::Issue,
                    ia.complete_at.saturating_sub(ia.issued_at),
                    ia.outcome.remote as u64,
                    ia.outcome.invalidations as u64,
                );
            }
        }
        result
    }

    fn issue_inner(
        &mut self,
        now: SimTime,
        blade: u16,
        pdid: Pdid,
        kind: AccessKind,
        probe: CacheProbe,
    ) -> Result<IssuedAccess, AccessError> {
        if self.failed[blade as usize] {
            return Err(AccessError::BladeFailed);
        }
        self.ctrs.accesses += 1;
        let page = probe.page();
        match self.caches[blade as usize].access_probed(probe, kind.is_write()) {
            TaggedLookup::Hit { frame, tag } => {
                // The local page tables are per protection domain: a page
                // cached under another domain is not mapped for this one.
                // The fault consults the switch, which either denies or
                // installs the mapping for the new domain. The domain tag
                // rides in the frame slab, so the probe resolved it with
                // no extra lookup.
                if tag != pdid {
                    if !self.protection.check(pdid, page, kind) {
                        self.ctrs.denials += 1;
                        self.trace.record(
                            now + self.lat.fault_handler,
                            blade as u32,
                            EventKind::TcamMiss,
                            SimTime::ZERO,
                            kind.is_write() as u64,
                            0,
                        );
                        return Err(AccessError::PermissionDenied);
                    }
                    self.caches[blade as usize].set_frame_tag(frame, pdid);
                    self.ctrs.remote_accesses += 1;
                    let t_done = self.grant(now + self.lat.fault_handler, blade);
                    let outcome = AccessOutcome {
                        latency: LatencyBreakdown {
                            fault: self.lat.fault_handler,
                            network: t_done.saturating_sub(now + self.lat.fault_handler),
                            ..Default::default()
                        },
                        remote: true,
                        ..Default::default()
                    };
                    return Ok(IssuedAccess::new(now, outcome, None));
                }
                self.ctrs.local_hits += 1;
                let outcome = AccessOutcome {
                    latency: LatencyBreakdown::local(self.lat.local_dram),
                    ..Default::default()
                };
                Ok(IssuedAccess::new(now, outcome, None))
            }
            TaggedLookup::Miss => self.page_fault(now, blade, pdid, page, kind, true),
            TaggedLookup::NeedUpgrade => {
                self.ctrs.upgrades += 1;
                self.page_fault(now, blade, pdid, page, kind, false)
            }
        }
    }

    /// The page-fault path: RDMA to the switch, coherence, fetch.
    fn page_fault(
        &mut self,
        now: SimTime,
        blade: u16,
        pdid: Pdid,
        page: u64,
        kind: AccessKind,
        need_data: bool,
    ) -> Result<IssuedAccess, AccessError> {
        self.ctrs.remote_accesses += 1;
        let t0 = now + self.lat.fault_handler;

        // One-sided RDMA request, addressed by virtual address, intercepted
        // by the switch data plane.
        let req = Packet::new(
            NodeId::Compute(blade),
            NodeId::Switch,
            PacketKind::RdmaReadReq {
                vaddr: page,
                len: PAGE_SIZE as u32,
            },
        );
        let t_switch = self.fabric.send(t0, &req);

        // Protection: TCAM parallel range match on <PDID, vaddr> (§4.2).
        if !self.protection.check(pdid, page, kind) {
            self.ctrs.denials += 1;
            self.trace.record(
                t_switch,
                blade as u32,
                EventKind::TcamMiss,
                SimTime::ZERO,
                kind.is_write() as u64,
                0,
            );
            return Err(AccessError::PermissionDenied);
        }

        // Directory lookup/transition: two MAUs + recirculation (Figure 4).
        let region = match self.directory.ensure(page) {
            Ok(r) => r,
            // No directory slot: the access bypasses the cache and holds no
            // region (nothing for an in-flight window to serialize on).
            Err(_) => {
                return self
                    .bypass(t_switch, blade, page, kind)
                    .map(|outcome| IssuedAccess::new(now, outcome, None))
            }
        };
        let (base, k) = region.bounds();
        let dt = self
            .pipeline
            .directory_transition()
            .expect("MIND's pipeline program fits the MAU budget");
        let entry = self.directory.entry_at(region);
        // Transitions on a region serialize at the directory.
        let t_dir = entry.admit_transition(t_switch + dt);

        let state = entry.state;
        let sharers = entry.sharers;
        let owner = entry.owner();

        // Classify the requester and look up the materialized transition
        // row in the second MAU (Figure 4, §6.3): the ASIC cannot compute
        // the transition, so the whole function is a table.
        let role = if owner == Some(blade) {
            Role::Owner
        } else if sharers.contains(blade) {
            Role::Sharer
        } else {
            Role::Other
        };
        let row = self.stt.lookup(state, kind, role);

        // Execute the row.
        let mut round = InvalRound::default();
        let victims = match row.inval {
            InvalScope::None => BladeSet::EMPTY,
            _ => {
                let mut v = sharers;
                v.remove(blade);
                v
            }
        };
        let downgrade = row.inval == InvalScope::DowngradeOthers;
        if !victims.is_empty() {
            round = self.invalidate(t_dir, base, k, victims, downgrade, row.flush_dirty, page);
        }
        let fetch_at = if row.sequential && !victims.is_empty() {
            round.done_at
        } else {
            t_dir
        };
        let fetch_done = if need_data {
            match row.fetch {
                FetchSource::Memory => self.fetch(fetch_at, blade, page, true)?,
                FetchSource::OwnerCache => {
                    let supplier = owner.expect("OwnerCache rows require an owner");
                    self.fetch_from_owner(fetch_at, blade, supplier)
                }
            }
        } else {
            self.grant(fetch_at, blade)
        };
        // The requester waits for its data and — under TSO — all ACKs.
        let done = fetch_done.max(round.done_at);

        // Apply the directory update (the recirculated pass, Figure 4 #3).
        // The entry serializes only while the transition is in flight: for
        // plain fetches that is the pipeline pass itself (the recirculated
        // update commits the new state before the data even leaves the
        // memory blade); a transition that issued invalidations holds the
        // entry in a transient state until every ACK arrives (§4.4).
        let new_busy = if round.requests > 0 {
            round.done_at
        } else {
            t_dir
        };
        let mut held_region = (base, k);
        if round.reset {
            // Reset protocol removed the entry; recreate and treat the
            // requester as a fresh fetch.
            let recreated = self.directory.ensure(page).expect("slot freed by reset");
            held_region = recreated.bounds();
            let e = self.directory.entry_at_mut(recreated);
            e.state = match kind {
                AccessKind::Read => MsiState::Shared,
                AccessKind::Write => MsiState::Modified,
            };
            e.sharers = BladeSet::singleton(blade);
            e.owner_blade = Some(blade);
            e.busy_until = new_busy;
        } else {
            let e = self.directory.entry_at_mut(region);
            e.state = row.next;
            e.sharers = match row.inval {
                // Full invalidation leaves only the requester.
                InvalScope::InvalidateOthers => BladeSet::singleton(blade),
                // Downgrades keep the old holders as (read-only) sharers.
                _ => {
                    let mut s = sharers;
                    s.insert(blade);
                    s
                }
            };
            e.owner_blade = match row.next {
                MsiState::Modified | MsiState::Exclusive => Some(blade),
                // M→O keeps the *old* owner as the dirty-data supplier.
                MsiState::Owned => owner.or(e.owner_blade),
                _ => None,
            };
            e.busy_until = new_busy;
        }

        // Install the page at the requester.
        if need_data {
            let data = if self.cfg.carry_data {
                match self.supply_data(
                    page,
                    if row.fetch == FetchSource::OwnerCache {
                        owner
                    } else {
                        None
                    },
                ) {
                    Ok(d) => Some(d),
                    Err(e) => return Err(e),
                }
            } else {
                None
            };
            // MESI's Exclusive grant maps writable but *clean*; a plain
            // write fault dirties immediately.
            let dirty = row.insert_writable && kind.is_write();
            let evicted = self.caches[blade as usize].insert_with(
                page,
                row.insert_writable,
                dirty,
                pdid,
                data,
            );
            if let Some(ev) = evicted {
                if ev.dirty {
                    // The kernel picks and writes back the victim when the
                    // fault begins (charged at t0 so the link stays
                    // time-ordered); the write-back DMA overlaps the fetch
                    // and does not extend the thread's latency.
                    self.writeback(t0, blade, ev.page, ev.data)?;
                }
            }
        } else if kind.is_write() || row.insert_writable {
            self.caches[blade as usize].grant_write(page);
        }

        // Account the round.
        let ctrs = &mut self.ctrs;
        ctrs.inval_requests += round.requests as u64;
        if round.requests > 0 {
            ctrs.inval_rounds += 1;
        }
        ctrs.flushed_pages += round.flushed as u64;
        ctrs.false_invalidations += round.false_inv as u64;
        if round.requests > 0 {
            if round.reset {
                // The reset removed the entry the round ran on: whatever
                // region starts at its base now (if any) takes the count.
                self.directory.record_invalidation(base, round.false_inv);
            } else {
                self.directory
                    .record_invalidation_at(region, round.false_inv);
            }
        }
        if self.trace.enabled() {
            self.trace.record(
                t_dir,
                blade as u32,
                EventKind::DirTransition,
                SimTime::ZERO,
                round.requests as u64,
                round.flushed as u64,
            );
            if round.requests > 0 {
                self.trace.record(
                    t_dir,
                    blade as u32,
                    EventKind::Invalidation,
                    round.done_at.saturating_sub(t_dir),
                    round.requests as u64,
                    round.false_inv as u64,
                );
            }
        }

        // Latency attribution. Under PSO, writes are buffered at the blade
        // and propagate asynchronously: the thread sees only the fault
        // handler + write-buffer insertion, while the protocol completes in
        // the background (its completion still serializes the region via
        // busy_until). §7.1's MIND-PSO simulation.
        let total_wait = done.saturating_sub(now);
        if kind.is_write() && self.cfg.consistency.async_writes() {
            self.ctrs.async_writes += 1;
            // Bounded store buffer: drain completed writes, stall if full.
            const PSO_BUFFER_DEPTH: usize = 16;
            let buf = &mut self.pso_buffer[blade as usize];
            while buf.front().is_some_and(|&t| t <= now) {
                buf.pop_front();
            }
            let stall = if buf.len() >= PSO_BUFFER_DEPTH {
                let oldest = buf.pop_front().expect("buffer full");
                oldest.saturating_sub(now)
            } else {
                SimTime::ZERO
            };
            buf.push_back(done);
            let outcome = AccessOutcome {
                latency: LatencyBreakdown {
                    fault: self.lat.fault_handler,
                    dram: self.lat.local_dram + stall,
                    ..Default::default()
                },
                remote: true,
                invalidations: round.requests,
                flushed_pages: round.flushed,
                false_invalidations: round.false_inv,
            };
            return Ok(IssuedAccess::new(now, outcome, Some(held_region)));
        }

        let inv_queue = round.crit_queue.min(total_wait);
        let inv_tlb = round.crit_tlb;
        let network = total_wait
            .saturating_sub(self.lat.fault_handler)
            .saturating_sub(inv_queue)
            .saturating_sub(inv_tlb);
        let outcome = AccessOutcome {
            latency: LatencyBreakdown {
                fault: self.lat.fault_handler,
                network,
                inv_queue,
                inv_tlb,
                ..Default::default()
            },
            remote: true,
            invalidations: round.requests,
            flushed_pages: round.flushed,
            false_invalidations: round.false_inv,
        };
        Ok(IssuedAccess::new(now, outcome, Some(held_region)))
    }

    /// Fetches `page` from its memory blade to `blade`, starting at the
    /// switch at `t_switch`. Returns the arrival time of the page.
    fn fetch(
        &mut self,
        t_switch: SimTime,
        blade: u16,
        page: u64,
        _carry: bool,
    ) -> Result<SimTime, AccessError> {
        let pa = self.translation.translate(page).ok_or(AccessError::BadAddress)?;
        if pa.blade >= self.n_memory() {
            return Err(AccessError::BadAddress);
        }
        // Switch → memory blade (header-rewritten RDMA read, §6.3).
        let fwd = Packet::new(
            NodeId::Switch,
            NodeId::Memory(pa.blade),
            PacketKind::RdmaReadReq {
                vaddr: page,
                len: PAGE_SIZE as u32,
            },
        );
        let t_mem = self.fabric.send(t_switch, &fwd) + self.lat.memory_service;
        if !self.cfg.carry_data {
            self.memory[pa.blade as usize]
                .read_page_nodata(pa.page())
                .map_err(|_| AccessError::BadAddress)?;
        }
        // Memory blade → requester (page-sized response through the switch).
        let resp = Packet::new(
            NodeId::Memory(pa.blade),
            NodeId::Compute(blade),
            PacketKind::RdmaReadResp {
                vaddr: page,
                len: PAGE_SIZE as u32,
            },
        );
        Ok(self.fabric.send(t_mem, &resp))
    }

    /// Cache-to-cache page transfer from the current owner (MOESI's Owned
    /// state, §8): the switch redirects the fetch to the owner blade, whose
    /// NIC serves the page from its registered DRAM cache.
    fn fetch_from_owner(&mut self, t_switch: SimTime, blade: u16, owner: u16) -> SimTime {
        // Switch → owner: redirected one-sided read.
        let fwd = Packet::new(
            NodeId::Switch,
            NodeId::Compute(owner),
            PacketKind::RdmaReadReq {
                vaddr: 0,
                len: PAGE_SIZE as u32,
            },
        );
        let t_owner = self.fabric.send(t_switch, &fwd) + self.lat.memory_service;
        // Owner → requester (page response through the switch).
        let resp = Packet::new(
            NodeId::Compute(owner),
            NodeId::Compute(blade),
            PacketKind::RdmaReadResp {
                vaddr: 0,
                len: PAGE_SIZE as u32,
            },
        );
        self.fabric.send(t_owner, &resp)
    }

    /// Resolves the page contents for a data-carrying insert: the owner's
    /// cache when the row fetched cache-to-cache (memory may be stale under
    /// MOESI), otherwise the memory blade.
    fn supply_data(&mut self, page: u64, owner: Option<u16>) -> Result<PageData, AccessError> {
        if let Some(b) = owner {
            if let Some(data) = self.caches[b as usize].page_data(page) {
                return Ok(data);
            }
            // The owner evicted the page: its write-back made memory
            // current again.
        }
        let pa = self.translation.translate(page).ok_or(AccessError::BadAddress)?;
        self.memory[pa.blade as usize]
            .read_page(pa.page())
            .map_err(|_| AccessError::BadAddress)
    }

    /// A data-less permission grant from the switch back to the requester
    /// (S→M upgrade of a page the requester already caches).
    fn grant(&mut self, t_switch: SimTime, blade: u16) -> SimTime {
        let resp = Packet::new(
            NodeId::Switch,
            NodeId::Compute(blade),
            PacketKind::RdmaWriteResp { vaddr: 0 },
        );
        self.fabric.send(t_switch, &resp)
    }

    /// Writes a dirty evicted/flushed page back to its memory blade.
    fn writeback(
        &mut self,
        t: SimTime,
        blade: u16,
        page: u64,
        data: Option<PageData>,
    ) -> Result<SimTime, AccessError> {
        let pa = self.translation.translate(page).ok_or(AccessError::BadAddress)?;
        let pkt = Packet::new(
            NodeId::Compute(blade),
            NodeId::Memory(pa.blade),
            PacketKind::RdmaWriteReq {
                vaddr: page,
                len: PAGE_SIZE as u32,
            },
        );
        let arrive = self.fabric.send(t, &pkt) + self.lat.memory_service;
        match data {
            Some(d) => self.memory[pa.blade as usize]
                .write_page(pa.page(), d)
                .map_err(|_| AccessError::BadAddress)?,
            None => self.memory[pa.blade as usize]
                .write_page_nodata(pa.page())
                .map_err(|_| AccessError::BadAddress)?,
        }
        Ok(arrive)
    }

    /// Runs one invalidation round against `victims`, with ACK tracking,
    /// retransmission on loss, and the reset protocol after exhausted
    /// retries (§4.4).
    #[allow(clippy::too_many_arguments)]
    fn invalidate(
        &mut self,
        t_switch: SimTime,
        base: u64,
        k: u8,
        victims: BladeSet,
        downgrade: bool,
        flush_dirty: bool,
        requested_page: u64,
    ) -> InvalRound {
        debug_assert!(!victims.is_empty());
        let mut round = InvalRound::default();
        let inval_bytes = PacketKind::Invalidate {
            region_base: base,
            region_size_log2: k,
            sharers: victims,
            downgrade_to_shared: downgrade,
        }
        .wire_bytes();

        let round_id = self.acks.begin(t_switch, base, victims);
        let mut pending = victims;
        let mut t = t_switch;
        // Reused across rounds and victims: no per-round allocations on
        // the invalidation hot path.
        let mut deliveries = std::mem::take(&mut self.deliveries_scratch);
        let mut outcome = std::mem::take(&mut self.inval_scratch);
        while !pending.is_empty() {
            // Multicast to the remaining sharers; egress pruning drops
            // copies for blades outside `pending` (§4.3.2).
            self.fabric
                .multicast_from_switch_into(t, pending, inval_bytes, &mut deliveries);
            round.requests += deliveries.len() as u32;
            for &(victim, arrive) in deliveries.iter() {
                if self.failed[victim as usize] {
                    continue; // Failed blade: never ACKs.
                }
                // MOESI downgrades keep the dirty data at the old owner
                // (no write-back); everything else flushes dirty pages.
                if downgrade && !flush_dirty {
                    self.caches[victim as usize]
                        .downgrade_region_keep_dirty_into(base, k, &mut outcome);
                } else {
                    self.caches[victim as usize]
                        .invalidate_region_into(base, k, downgrade, &mut outcome);
                }
                let n_flushed = outcome.flushed.len() as u32;
                let touched = outcome.unmapped + outcome.downgraded;
                // Handler work + synchronous TLB shootdown (batched per
                // invalidation) + flush DMA initiation per dirty page.
                let tlb = if touched > 0 {
                    self.lat.tlb_shootdown
                } else {
                    SimTime::ZERO
                };
                let service = self.lat.invalidation_service
                    + tlb
                    + self.lat.serialization(PAGE_SIZE as u32) * n_flushed as u64;
                let served = self.inv_queues[victim as usize].enqueue(arrive, service);
                // Flush dirty pages to their memory blades.
                let mut flush_done = served.done;
                for fi in 0..outcome.flushed.len() {
                    let (page, data) = (outcome.flushed[fi].0, outcome.flushed[fi].1.take());
                    if let Ok(done) = self.writeback(served.done, victim, page, data) {
                        flush_done = flush_done.max(done);
                    }
                    round.flushed += 1;
                    if page != requested_page {
                        round.false_inv += 1;
                    }
                }
                // ACK back to the switch once flushes are durable; the ACK
                // itself may be lost, in which case the round retransmits
                // and the (idempotent) invalidation repeats.
                let ack = Packet::new(
                    NodeId::Compute(victim),
                    NodeId::Switch,
                    PacketKind::InvalidateAck {
                        region_base: base,
                        flushed_pages: n_flushed,
                    },
                );
                let Some(ack_at) = self.fabric.try_send(flush_done, &ack).arrival() else {
                    continue; // Lost ACK: victim stays pending.
                };
                self.acks.ack(round_id, victim);
                pending.remove(victim);
                if ack_at >= round.done_at {
                    round.done_at = ack_at;
                    round.crit_queue = served.queue_delay;
                    round.crit_tlb = tlb;
                }
            }
            if pending.is_empty() {
                break;
            }
            // ACK timeout: the tracker decides between retransmission and
            // — after the retry budget — the reset protocol (§4.4).
            t += self.cfg.ack_timeout;
            let mut do_reset = false;
            for action in self.acks.poll(t) {
                if let mind_net::reliability::ReliabilityAction::Reset { .. } = action {
                    do_reset = true;
                }
            }
            if do_reset {
                let done = self.reset_region(t, base, k);
                round.done_at = round.done_at.max(done);
                round.reset = true;
                self.ctrs.resets += 1;
                break;
            }
        }
        self.deliveries_scratch = deliveries;
        self.inval_scratch = outcome;
        round
    }

    /// The reset protocol: force every live blade to flush its data for the
    /// region and remove the directory entry (§4.4).
    pub fn reset_region(&mut self, now: SimTime, base: u64, k: u8) -> SimTime {
        let mut done = now;
        let mut outcome = std::mem::take(&mut self.inval_scratch);
        for b in 0..self.n_compute() {
            if self.failed[b as usize] {
                continue;
            }
            self.caches[b as usize].invalidate_region_into(base, k, false, &mut outcome);
            let mut t = now + self.lat.invalidation_service;
            for (page, data) in outcome.flushed.drain(..) {
                if let Ok(fin) = self.writeback(t, b, page, data) {
                    t = fin;
                }
                self.ctrs.flushed_pages += 1;
            }
            done = done.max(t);
        }
        self.inval_scratch = outcome;
        self.directory.remove(base);
        done
    }

    /// Drops what the memory blades store for `[base, base + len)`: the
    /// control plane freed the extent, and its next owner must read zeros.
    pub fn free_backing(&mut self, base: u64, len: u64) {
        if !self.cfg.carry_data {
            return; // Nothing is ever stored.
        }
        if self.translation.outlier_count() == 0 {
            // Range partition alone: an extent is one run of one blade's
            // frames.
            if let Some(pa) = self.translation.partition_of(base) {
                self.memory[pa.blade as usize].free_range(pa.page(), len / PAGE_SIZE);
            }
            return;
        }
        for page in (base..base + len).step_by(PAGE_SIZE as usize) {
            let Some(pa) = self.translation.resolve(page) else {
                continue;
            };
            if let Some(blade) = self.memory.get_mut(pa.blade as usize) {
                blade.free_range(pa.page(), 1);
            }
        }
    }

    /// Cache-bypass path when no directory slot can be made available: the
    /// access goes straight to the memory blade without caching.
    fn bypass(
        &mut self,
        t_switch: SimTime,
        blade: u16,
        page: u64,
        kind: AccessKind,
    ) -> Result<AccessOutcome, AccessError> {
        self.ctrs.bypasses += 1;
        self.trace.record(
            t_switch,
            blade as u32,
            EventKind::Bypass,
            SimTime::ZERO,
            kind.is_write() as u64,
            0,
        );
        let done = match kind {
            AccessKind::Read => self.fetch(t_switch, blade, page, false)?,
            AccessKind::Write => self.writeback(t_switch, blade, page, None)?,
        };
        let network = done.saturating_sub(t_switch) + self.lat.hop_latency;
        Ok(AccessOutcome {
            latency: LatencyBreakdown {
                fault: self.lat.fault_handler,
                network,
                ..Default::default()
            },
            remote: true,
            ..Default::default()
        })
    }

    /// Lifetime metrics snapshot.
    pub fn metrics(&self) -> Metrics {
        let c = self.ctrs;
        let mut m = Metrics::new();
        m.add("accesses", c.accesses);
        m.add("local_hits", c.local_hits);
        m.add("remote_accesses", c.remote_accesses);
        m.add("upgrades", c.upgrades);
        m.add("invalidation_requests", c.inval_requests);
        m.add("invalidation_rounds", c.inval_rounds);
        m.add("flushed_pages", c.flushed_pages);
        m.add("false_invalidations", c.false_invalidations);
        m.add("bypasses", c.bypasses);
        m.add("resets", c.resets);
        m.add("denials", c.denials);
        m.add("async_writes", c.async_writes);
        m.add("directory_entries", self.directory.entries() as u64);
        m.add(
            "directory_watermark",
            self.directory.high_watermark() as u64,
        );
        m.add("directory_splits", self.directory.splits());
        m.add("directory_merges", self.directory.merges());
        m.add("forced_merges", self.directory.forced_merges());
        m.add("pipeline_recirculations", self.pipeline.recirculations());
        m.add("multicast_pruned", self.fabric.multicast_pruned());
        m.add("retransmissions", self.acks.retransmissions());
        let tlb: u64 = self.caches.iter().map(|c| c.tlb_shootdowns()).sum();
        m.add("tlb_shootdowns", tlb);
        let evictions: u64 = self.caches.iter().map(|c| c.evictions()).sum();
        m.add("evictions", evictions);
        m
    }

    /// Translation + protection match-action rule count (Figure 8 center).
    pub fn rule_count(&self) -> usize {
        self.translation.rule_count() + self.protection.rule_count()
    }

    /// Protection TCAM entries installed for one protection domain.
    pub fn protection_entries_for(&self, pdid: crate::protect::Pdid) -> usize {
        self.protection.entries_for(pdid)
    }
}
