//! The in-network coherence protocol (paper §4.3.2, §6.3).
//!
//! The switch data plane intercepts page-fault RDMA requests addressed by
//! virtual address, checks protection, runs the directory state machine,
//! multicasts invalidation requests with sharer-list egress pruning, and
//! forwards the fetch to the right memory blade. The switch computes no
//! transition: the whole coherence function is an exact-match STT row plus
//! one recirculated entry update (Figure 4). So a fault runs these steps,
//! in this order:
//!
//! 1. **protect** — the TCAM range match on `<PDID, vaddr>` (§4.2);
//! 2. **ensure** — resolve or create the page's directory region;
//! 3. **plan** — `Transition::plan` reads the entry and its STT row and
//!    returns the transition as a value: the victims, the fetch source and
//!    the next `(state, sharers, owner)`. It reads no clock and mutates
//!    nothing;
//! 4. **charge** — the invalidation round and the fetch, on the fabric;
//! 5. **apply** — `Transition::apply` writes the next entry (the
//!    recirculated pass). A round that ended in the §4.4 reset applies a
//!    fresh-fetch plan to the recreated entry through the same `apply`;
//! 6. **install** — the page, or the write permission, at the requester;
//! 7. **account** — counters, trace events and the latency attribution.
//!
//! The lookup, STT and update passes are charged as one fixed delay,
//! `switch_pipeline + switch_recirculation`, and counted in
//! `pipeline_recirculations`. Common transitions (I→S/M, S→S, S→M) take one
//! round trip (~9 µs), the M→S/M transitions two sequential round trips
//! (~18 µs), matching Figure 7 (left). The engine also accounts false
//! invalidations — dirty pages flushed only because they share a directory
//! region with the requested page (§4.3.1) — which feed the
//! bounded-splitting algorithm.

use mind_blade::{
    page_base, CacheProbe, DramCache, InvalidationOutcome, InvalidationQueue, MemoryBlade,
    PageData, TaggedLookup, PAGE_SIZE,
};
use mind_net::fabric::Fabric;
use mind_net::link::LatencyConfig;
use mind_net::node::{BladeSet, NodeId};
use mind_net::packet::{Packet, PacketKind};
use mind_obs::{EventKind, TraceBuf};
use mind_sim::spare::{rebuild, reuse};
use mind_sim::stats::Metrics;
use mind_sim::SimTime;

use crate::cluster::MindConfig;
use crate::directory::{DirEntry, MsiState, RegionDirectory};
use crate::protect::{Pdid, ProtectionTable};
use crate::stt::{FetchSource, InvalScope, Protocol, Role, SttRow, SttTable};
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
/// The issue phase runs the whole switch data path and commits its
/// transition (the recirculated directory update, Figure 4 #3); it returns
/// this completion record. The **completion phase** is the caller's:
/// retiring the record from an issue engine's pool
/// ([`crate::engine::ClusterEngine`]) lets up to `W` independent faults
/// overlap their fabric round trips, while
/// [`region`](IssuedAccess::region) lets same-region transitions serialize
/// at issue.
#[derive(Debug, Clone, Copy)]
pub struct IssuedAccess {
    /// Latency attribution and protocol side effects, as
    /// [`CoherenceEngine::access`] reports them.
    pub outcome: AccessOutcome,
    /// When the operation completes (issue time plus the outcome's total
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
}

/// ACK timeout of an invalidation round (§4.4).
pub const ACK_TIMEOUT: SimTime = SimTime::from_micros(100);
/// Retransmissions before the reset protocol fires (§4.4).
pub const MAX_RETRIES: u32 = 3;

impl Default for CoherenceConfig {
    fn default() -> Self {
        CoherenceConfig {
            consistency: ConsistencyModel::Tso,
            protocol: Protocol::Msi,
            carry_data: false,
        }
    }
}

/// Result of one invalidation round.
#[derive(Debug, Clone, Copy, Default)]
struct InvalRound {
    /// When the last ACK reached the switch.
    done_at: SimTime,
    /// Dirty pages flushed, by the victims and by the round's reset.
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

/// Where a planned transition's page comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fetch {
    /// One-sided RDMA read from the home memory blade.
    Memory,
    /// Cache-to-cache transfer from this owner blade (MOESI).
    Owner(u16),
    /// No data: a permission grant to a requester that holds the page.
    Grant,
}

/// One directory transition as a value: the STT row a fault matches and
/// all the switch does about it, decided before any of it happens.
#[derive(Debug, Clone, Copy)]
struct Transition {
    /// The matched row (the second MAU, Figure 4).
    row: SttRow,
    /// The holders the round reaches: the sharers less the requester when
    /// the row invalidates, nobody otherwise.
    victims: BladeSet,
    /// Whether the victims keep read-only copies.
    downgrade: bool,
    /// Whether the victims flush their dirty pages to memory.
    flush: bool,
    fetch: Fetch,
    /// Whether the fetch waits for the round's last ACK.
    sequential: bool,
    /// The entry's next `(state, sharers, owner_blade)`.
    next: (MsiState, BladeSet, Option<u16>),
}

impl Transition {
    /// The transition `blade`'s fault of `kind` makes on `entry`, a pure
    /// function of the entry and the table. `need_data` is false for an
    /// upgrade of a page the requester already caches.
    fn plan(
        entry: &DirEntry,
        blade: u16,
        kind: AccessKind,
        need_data: bool,
        stt: &SttTable,
    ) -> Self {
        // The requester's role keys the row: the ASIC cannot compute the
        // transition, so the whole function is a table (§6.3).
        let owner = entry.owner();
        let role = if owner == Some(blade) {
            Role::Owner
        } else if entry.sharers.contains(blade) {
            Role::Sharer
        } else {
            Role::Other
        };
        let row = stt.lookup(entry.state, kind, role);
        let mut victims = BladeSet::EMPTY;
        if row.inval != InvalScope::None {
            victims = entry.sharers;
            victims.remove(blade);
        }
        let fetch = match row.fetch {
            _ if !need_data => Fetch::Grant,
            FetchSource::Memory => Fetch::Memory,
            FetchSource::OwnerCache => {
                Fetch::Owner(owner.expect("OwnerCache rows require an owner"))
            }
        };
        // Full invalidation leaves only the requester; downgrades keep the
        // old holders as read-only sharers.
        let sharers = match row.inval {
            InvalScope::InvalidateOthers => BladeSet::singleton(blade),
            _ => entry.sharers.union(BladeSet::singleton(blade)),
        };
        let next_owner = match row.next {
            MsiState::Modified | MsiState::Exclusive => Some(blade),
            // M→O keeps the *old* owner as the dirty-data supplier.
            MsiState::Owned => owner,
            _ => None,
        };
        Transition {
            row,
            victims,
            downgrade: row.inval == InvalScope::DowngradeOthers,
            flush: row.flush_dirty,
            fetch,
            sequential: row.sequential && !victims.is_empty(),
            next: (row.next, sharers, next_owner),
        }
    }

    /// This plan as a fresh fetch into an empty region: what the §4.4 reset
    /// leaves the requester once it removed the entry the round ran on and
    /// flushed every copy, the requester's too. The page comes from memory
    /// (stale only under rows that leave dirty data, which are sequential).
    fn fresh(self, blade: u16, kind: AccessKind) -> Self {
        let (state, owner) = match kind {
            AccessKind::Read => (MsiState::Shared, None),
            AccessKind::Write => (MsiState::Modified, Some(blade)),
        };
        Transition {
            fetch: Fetch::Memory,
            next: (state, BladeSet::singleton(blade), owner),
            ..self
        }
    }

    /// Writes the next entry (the recirculated pass, Figure 4 #3), which
    /// stays mid-transition until `busy_until`.
    fn apply(&self, entry: &mut DirEntry, busy_until: SimTime) {
        (entry.state, entry.sharers, entry.owner_blade) = self.next;
        entry.busy_until = busy_until;
    }
}

/// ALU ops an RMT match-action stage runs per packet (§6.3).
const MAU_OP_BUDGET: u32 = 4;

// A directory transition is a lookup (1 op), an STT match (3 ops) and an
// entry update (2 ops). The whole program does not fit one stage, but each
// pass does: the lookup MAU, then the STT MAU, then a recirculation back to
// the lookup MAU for the update (Figure 4). Hence one recirculation per
// transition.
const _: () = assert!(1 + 3 + 2 > MAU_OP_BUDGET && 3 <= MAU_OP_BUDGET && 2 <= MAU_OP_BUDGET);

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
    /// Invalidations resent to the sharers pending at an ACK timeout (§4.4).
    retransmissions: u64,
    /// Directory transitions, each one recirculation (Figure 4).
    recirculations: u64,
}

/// The in-network memory management engine: switch data plane + blades.
#[derive(Debug)]
pub struct CoherenceEngine {
    cfg: CoherenceConfig,
    lat: LatencyConfig,
    fabric: Fabric,
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
    ctrs: Counters,
    /// Reusable multicast-delivery buffer for invalidation rounds.
    deliveries_scratch: Vec<(u16, SimTime)>,
    /// Reusable invalidation-outcome buffer (per-victim cache scans).
    inval_scratch: InvalidationOutcome,
    /// Reusable list of the regions a teardown of a sparse range resets.
    regions_scratch: Vec<(u64, u8)>,
    /// Deterministic event sink (disabled unless the owning cluster
    /// installs a live one).
    pub(crate) trace: TraceBuf,
}

impl CoherenceEngine {
    /// Builds the engine for a rack, tracing as `cfg.trace` says.
    pub fn new(cfg: &MindConfig) -> Self {
        Self::build(cfg, None)
    }

    /// [`CoherenceEngine::new`], in a spare's tables, caches and queues.
    pub(crate) fn build(cfg: &MindConfig, spare: Option<Self>) -> Self {
        let dir_capacity = if cfg.coherence.consistency.infinite_directory() {
            mind_switch::sram::UNBOUNDED_SLOTS
        } else {
            cfg.dir_capacity
        };
        let (n_compute, n_memory) = (cfg.n_compute as usize, cfg.n_memory as usize);
        let (fabric, dir, translation, protection, caches, queues, memory, failed, pso) = match spare {
            Some(e) => (Some(e.fabric), Some(e.directory), Some(e.translation), Some(e.protection),
                Some(e.caches), Some(e.inv_queues), Some(e.memory), Some(e.failed), Some(e.pso_buffer)),
            None => Default::default(),
        };
        CoherenceEngine {
            cfg: cfg.coherence,
            lat: cfg.latency,
            fabric: Fabric::build(cfg.n_compute, cfg.n_memory, cfg.latency, fabric),
            directory: RegionDirectory::build(dir_capacity, cfg.split.initial_region_log2, dir),
            translation: TranslationTable::build(cfg.n_memory, cfg.blade_span, cfg.rule_capacity, translation),
            protection: ProtectionTable::build(cfg.rule_capacity, protection),
            caches: rebuild(caches, n_compute, |c| DramCache::build(cfg.cache_pages, c)),
            inv_queues: rebuild(queues, n_compute, |_| InvalidationQueue::default()),
            memory: rebuild(memory, n_memory, |_| MemoryBlade::new(cfg.memory_blade_bytes)),
            failed: rebuild(failed, n_compute, |_| false),
            pso_buffer: rebuild(pso, n_compute, reuse),
            stt: SttTable::new(cfg.coherence.protocol),
            ctrs: Counters::default(),
            deliveries_scratch: Vec::new(),
            inval_scratch: InvalidationOutcome::default(),
            regions_scratch: Vec::new(),
            trace: TraceBuf::new(cfg.trace),
        }
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
    /// anything (an inspection: no packet, no simulated time).
    pub fn stored_page(&self, vaddr: u64) -> Option<&PageData> {
        let pa = self.translation.translate(page_base(vaddr))?;
        self.memory.get(pa.blade as usize)?.peek(pa.page())
    }

    /// Mutable cache access.
    pub fn cache_mut(&mut self, blade: u16) -> &mut DramCache {
        &mut self.caches[blade as usize]
    }

    /// What `blade`'s cache holds for the page of `vaddr`. Non-mutating:
    /// no LRU bump, no dirty mark — the cluster engine's issue gates read it
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
        self.caches[blade as usize] = DramCache::new(self.cache(blade).capacity_pages());
    }

    /// Performs one memory access. This is the full MIND data path — the
    /// issue phase of [`CoherenceEngine::issue_probed`] on a fresh probe,
    /// with the completion record discarded, for callers that serialize
    /// anyway.
    pub fn access(
        &mut self,
        now: SimTime,
        blade: u16,
        pdid: Pdid,
        vaddr: u64,
        kind: AccessKind,
    ) -> Result<AccessOutcome, AccessError> {
        let probe = self.probe_cache(blade, vaddr);
        self.issue_probed(now, blade, pdid, kind, probe)
            .map(|ia| ia.outcome)
    }

    /// The issue phase of an access to the page `probe` looked up in
    /// `blade`'s cache ([`CoherenceEngine::probe_cache`]), without looking
    /// again; that cache must not have been mutated in between. Resolves
    /// protection, translation, and directory state, commits the
    /// transition, and returns the completion record an in-flight window
    /// arbitrates on (see [`IssuedAccess`]).
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
                    ia.complete_at.saturating_sub(now),
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
                        return Err(self.deny(now + self.lat.fault_handler, blade, kind));
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

    /// Refuses `blade`'s access at `at`: the protection TCAM holds no entry
    /// for it (§4.2).
    fn deny(&mut self, at: SimTime, blade: u16, kind: AccessKind) -> AccessError {
        self.ctrs.denials += 1;
        let is_write = kind.is_write() as u64;
        self.trace.record(at, blade as u32, EventKind::TcamMiss, SimTime::ZERO, is_write, 0);
        AccessError::PermissionDenied
    }

    /// The page-fault path: RDMA to the switch, then the module's steps in
    /// order — protect, ensure, plan, charge, apply, install, account.
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

        // Protect.
        if !self.protection.check(pdid, page, kind) {
            return Err(self.deny(t_switch, blade, kind));
        }

        // Ensure. With no directory slot the access bypasses the cache and
        // holds no region (nothing for an in-flight window to serialize on).
        let Ok(region) = self.directory.ensure(page) else {
            return self
                .bypass(t_switch, blade, page, kind)
                .map(|outcome| IssuedAccess::new(now, outcome, None));
        };
        let (base, k) = region.bounds();
        // One traversal of the lookup and STT MAUs, then one recirculation
        // for the lookup MAU to apply the update (see `MAU_OP_BUDGET`).
        // Transitions on a region serialize at the directory.
        self.ctrs.recirculations += 1;
        let entry = self.directory.entry_at(region);
        let dt = self.lat.switch_pipeline + self.lat.switch_recirculation;
        let t_dir = entry.admit_transition(t_switch + dt);

        // Plan.
        let plan = Transition::plan(entry, blade, kind, need_data, &self.stt);

        // Charge: the invalidation round, and the fetch after its last ACK
        // when the plan is sequential.
        let ran = !plan.victims.is_empty();
        let round = self.invalidate(t_dir, base, k, &plan, page);
        let plan = if round.reset { plan.fresh(blade, kind) } else { plan };
        let fetch_at = if plan.sequential { round.done_at } else { t_dir };
        // The requester waits for its data and — under TSO — all ACKs.
        let done = self.fetch(fetch_at, blade, page, plan.fetch)?.max(round.done_at);

        // Apply. The entry serializes only while the transition is in
        // flight: for plain fetches that is the pipeline pass itself (the
        // recirculated update commits the new state before the data even
        // leaves the memory blade); a transition that issued invalidations
        // holds the entry in a transient state until every ACK arrives
        // (§4.4), all its copies lost or not. Its count goes to its region.
        let busy = if ran { round.done_at } else { t_dir };
        let held = if round.reset {
            // The reset removed the entry: the requester fetches into a
            // recreated one, and whatever region now starts at the old
            // base (if any) takes the count.
            let recreated = self.directory.ensure(page).expect("slot freed by reset");
            plan.apply(self.directory.entry_at_mut(recreated), busy);
            self.directory.record_invalidation(base, round.false_inv);
            recreated.bounds()
        } else {
            plan.apply(self.directory.entry_at_mut(region), busy);
            if ran {
                self.directory.record_invalidation_at(region, round.false_inv);
            }
            (base, k)
        };

        // Install.
        self.install(t0, blade, pdid, page, kind, &plan)?;

        // Account.
        let ctrs = &mut self.ctrs;
        ctrs.inval_requests += round.requests as u64;
        ctrs.inval_rounds += ran as u64;
        ctrs.false_invalidations += round.false_inv as u64;
        if self.trace.enabled() {
            let (requests, flushed) = (round.requests as u64, round.flushed as u64);
            let trace = &mut self.trace;
            let ev = EventKind::DirTransition;
            trace.record(t_dir, blade as u32, ev, SimTime::ZERO, requests, flushed);
            if ran {
                let wait = round.done_at.saturating_sub(t_dir);
                let ev = EventKind::Invalidation;
                trace.record(t_dir, blade as u32, ev, wait, requests, round.false_inv as u64);
            }
        }
        let outcome = self.attribute(now, blade, kind, done, &round);
        Ok(IssuedAccess::new(now, outcome, Some(held)))
    }

    /// Installs `page` at the requester as `plan` grants it: the fetched
    /// page, or only the write permission for an upgrade.
    fn install(
        &mut self,
        t0: SimTime,
        blade: u16,
        pdid: Pdid,
        page: u64,
        kind: AccessKind,
        plan: &Transition,
    ) -> Result<(), AccessError> {
        let writable = plan.row.insert_writable;
        let supplier = match plan.fetch {
            Fetch::Memory => None,
            Fetch::Owner(owner) => Some(owner),
            Fetch::Grant => {
                if kind.is_write() || writable {
                    self.caches[blade as usize].grant_write(page);
                }
                return Ok(());
            }
        };
        let data = match self.cfg.carry_data {
            true => Some(self.supply_data(page, supplier)?),
            false => None,
        };
        // MESI's Exclusive grant maps writable but *clean*; a plain write
        // fault dirties immediately.
        let dirty = writable && kind.is_write();
        let evicted = self.caches[blade as usize].insert_with(page, writable, dirty, pdid, data);
        if let Some(ev) = evicted.filter(|ev| ev.dirty) {
            // The kernel picks and writes back the victim when the fault
            // begins (charged at t0 so the link stays time-ordered); the
            // write-back DMA overlaps the fetch and does not extend the
            // thread's latency.
            self.writeback(t0, blade, ev.page, ev.data)?;
        }
        Ok(())
    }

    /// What a fault whose transition finished at `done` costs its thread.
    /// Under PSO, writes are buffered at the blade and propagate
    /// asynchronously: the thread sees only the fault handler and the
    /// write-buffer insertion, while the protocol completes in the
    /// background (its completion still serializes the region via
    /// `busy_until`). §7.1's MIND-PSO simulation.
    fn attribute(
        &mut self,
        now: SimTime,
        blade: u16,
        kind: AccessKind,
        done: SimTime,
        round: &InvalRound,
    ) -> AccessOutcome {
        let mut latency = LatencyBreakdown {
            fault: self.lat.fault_handler,
            ..Default::default()
        };
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
            latency.dram = self.lat.local_dram + stall;
        } else {
            let total_wait = done.saturating_sub(now);
            latency.inv_queue = round.crit_queue.min(total_wait);
            latency.inv_tlb = round.crit_tlb;
            latency.network = total_wait
                .saturating_sub(self.lat.fault_handler)
                .saturating_sub(latency.inv_queue)
                .saturating_sub(latency.inv_tlb);
        }
        AccessOutcome {
            latency,
            remote: true,
            invalidations: round.requests,
            flushed_pages: round.flushed,
            false_invalidations: round.false_inv,
        }
    }

    /// Carries a fetch from the switch at `t_switch` to `blade` and returns
    /// when the page arrives: the read forwarded to the page's memory blade
    /// (header-rewritten, §6.3) or redirected to the owner, whose NIC serves
    /// it from its registered DRAM cache (MOESI's Owned state, §8), then the
    /// page-sized response back through the switch; or a data-less grant.
    fn fetch(
        &mut self,
        t_switch: SimTime,
        blade: u16,
        page: u64,
        fetch: Fetch,
    ) -> Result<SimTime, AccessError> {
        let (src, vaddr, frame) = match fetch {
            Fetch::Memory => {
                let pa = self.translation.translate(page).ok_or(AccessError::BadAddress)?;
                if pa.blade >= self.n_memory() {
                    return Err(AccessError::BadAddress);
                }
                (NodeId::Memory(pa.blade), page, Some(pa))
            }
            Fetch::Owner(owner) => (NodeId::Compute(owner), 0, None),
            Fetch::Grant => return Ok(self.grant(t_switch, blade)),
        };
        let len = PAGE_SIZE as u32;
        let fwd = Packet::new(NodeId::Switch, src, PacketKind::RdmaReadReq { vaddr, len });
        let t_src = self.fabric.send(t_switch, &fwd) + self.lat.memory_service;
        if let Some(pa) = frame.filter(|_| !self.cfg.carry_data) {
            self.memory[pa.blade as usize]
                .read_page_nodata(pa.page())
                .map_err(|_| AccessError::BadAddress)?;
        }
        let resp = PacketKind::RdmaReadResp { vaddr, len };
        let resp = Packet::new(src, NodeId::Compute(blade), resp);
        Ok(self.fabric.send(t_src, &resp))
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

    /// Runs `plan`'s invalidation round, if any, on the region `(base, k)`
    /// (§4.4): it waits for every victim's ACK, retransmits to the pending
    /// ones at each ACK timeout, and resets after [`MAX_RETRIES`] retransmissions.
    fn invalidate(
        &mut self,
        t_switch: SimTime,
        base: u64,
        k: u8,
        plan: &Transition,
        requested_page: u64,
    ) -> InvalRound {
        let Transition { victims, downgrade, flush, .. } = *plan;
        if victims.is_empty() {
            return InvalRound::default();
        }
        let mut round = InvalRound::default();
        let inval_bytes = PacketKind::Invalidate {
            region_base: base,
            region_size_log2: k,
            sharers: victims,
            downgrade_to_shared: downgrade,
        }
        .wire_bytes();

        let (mut pending, mut retries, mut t) = (victims, 0, t_switch);
        // Reused across rounds and victims: no per-round allocations on
        // the invalidation hot path.
        let mut deliveries = std::mem::take(&mut self.deliveries_scratch);
        let mut outcome = std::mem::take(&mut self.inval_scratch);
        loop {
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
                if downgrade && !flush {
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
                    self.ctrs.flushed_pages += 1;
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
                let Some(ack_at) = self.fabric.try_send(flush_done, &ack) else {
                    continue; // Lost ACK: victim stays pending.
                };
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
            // ACK timeout: retransmit to the pending victims, or, once the
            // retry budget is spent, reset the region as part of this round.
            t += ACK_TIMEOUT;
            if retries == MAX_RETRIES {
                let (done, flushed) = self.reset_region(t, base, k);
                round.done_at = round.done_at.max(done);
                round.flushed += flushed;
                round.reset = true;
                self.ctrs.resets += 1;
                break;
            }
            retries += 1;
            self.ctrs.retransmissions += 1;
        }
        self.deliveries_scratch = deliveries;
        self.inval_scratch = outcome;
        round
    }

    /// The reset protocol: force every live blade to flush its data for the
    /// region and remove the directory entry (§4.4). Returns when the
    /// flushes complete, and how many pages they flushed.
    pub fn reset_region(&mut self, now: SimTime, base: u64, k: u8) -> (SimTime, u32) {
        let (mut done, mut flushed) = (now, 0);
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
                flushed += 1;
            }
            done = done.max(t);
        }
        self.inval_scratch = outcome;
        self.directory.remove(base);
        (done, flushed)
    }

    /// [`CoherenceEngine::reset_region`] on every region overlapping
    /// `[base, end)`, ascending: `munmap`, `mprotect` and `migrate` teardown.
    pub(crate) fn reset_range(&mut self, now: SimTime, base: u64, end: u64) {
        let mut regions = std::mem::take(&mut self.regions_scratch);
        if self.directory.list_sparse(base, end, &mut regions) {
            for &(rbase, rk) in &regions {
                self.reset_region(now, rbase, rk);
            }
        } else {
            let mut addr = base;
            while let Some((rbase, rk)) = self.directory.next_region(addr, end) {
                self.reset_region(now, rbase, rk);
                addr = rbase + (1u64 << rk);
            }
        }
        self.regions_scratch = regions;
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
                self.free_frames(pa.blade, pa.offset, len);
            }
            return;
        }
        for page in (base..base + len).step_by(PAGE_SIZE as usize) {
            let Some(pa) = self.translation.translate(page) else {
                continue;
            };
            if let Some(blade) = self.memory.get_mut(pa.blade as usize) {
                blade.free_range(pa.page(), 1);
            }
        }
    }

    /// Drops what memory blade `blade` stores for the `len` bytes of frames
    /// from physical offset `offset` on.
    pub(crate) fn free_frames(&mut self, blade: u16, offset: u64, len: u64) {
        if let Some(memory) = self.memory.get_mut(blade as usize) {
            memory.free_range(offset / PAGE_SIZE, len / PAGE_SIZE);
        }
    }

    /// Runs `remap` on the translation table while the pages stored for
    /// `[base, base + len)` move, as copy-on-write handles, from the frames
    /// their addresses translate to before to those they translate to
    /// after. A frame past its blade's memory takes no page, as it takes no
    /// write-back.
    pub(crate) fn remap_backing<R>(
        &mut self,
        base: u64,
        len: u64,
        remap: impl FnOnce(&mut TranslationTable) -> R,
    ) -> R {
        if !self.cfg.carry_data {
            return remap(&mut self.translation); // Nothing is ever stored.
        }
        let mut pages = Vec::new();
        for vaddr in (base..base + len).step_by(PAGE_SIZE as usize) {
            if let Some(pa) = self.translation.translate(vaddr) {
                let memory = &mut self.memory[pa.blade as usize];
                if let Some(data) = memory.peek(pa.page()).cloned() {
                    memory.free_range(pa.page(), 1);
                    pages.push((vaddr, data));
                }
            }
        }
        let remapped = remap(&mut self.translation);
        for (vaddr, data) in pages {
            if let Some(pa) = self.translation.translate(vaddr) {
                let _ = self.memory[pa.blade as usize].write_page(pa.page(), data);
            }
        }
        remapped
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
            AccessKind::Read => self.fetch(t_switch, blade, page, Fetch::Memory)?,
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

    /// Adds the lifetime metrics to `m`.
    pub(crate) fn add_metrics(&self, m: &mut Metrics) {
        let (c, dir) = (self.ctrs, &self.directory);
        let tlb = self.caches.iter().map(|c| c.tlb_shootdowns()).sum();
        let evictions = self.caches.iter().map(|c| c.evictions()).sum();
        m.extend([
            ("accesses", c.accesses),
            ("local_hits", c.local_hits),
            ("remote_accesses", c.remote_accesses),
            ("upgrades", c.upgrades),
            ("invalidation_requests", c.inval_requests),
            ("invalidation_rounds", c.inval_rounds),
            ("flushed_pages", c.flushed_pages),
            ("false_invalidations", c.false_invalidations),
            ("bypasses", c.bypasses),
            ("resets", c.resets),
            ("denials", c.denials),
            ("async_writes", c.async_writes),
            ("directory_entries", dir.entries() as u64),
            ("directory_watermark", dir.high_watermark() as u64),
            ("directory_splits", dir.splits()),
            ("directory_merges", dir.merges()),
            ("forced_merges", dir.forced_merges()),
            ("pipeline_recirculations", c.recirculations),
            ("multicast_pruned", self.fabric.multicast_pruned()),
            ("retransmissions", c.retransmissions),
            ("tlb_shootdowns", tlb),
            ("evictions", evictions),
        ]);
    }

    /// Dirty pages flushed to the memory blades so far (the
    /// `flushed_pages` metric).
    pub(crate) fn flushed_pages(&self) -> u64 {
        self.ctrs.flushed_pages
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

#[cfg(test)]
mod tests {
    use super::*;
    use MsiState::*;

    /// Small-scope exhaustive check of the protocol, with no timed run:
    /// MSI, MESI and MOESI × every reachable directory state and sharer
    /// set over 3 blades (and owner, for Owned) × requester × read/write
    /// × `need_data`. Every applied plan leaves one writer or only
    /// readers, the requester holding the region, no holder dropped
    /// without an invalidation, and the right owner, stored only where
    /// the state has one; so does the same plan as the fresh fetch a
    /// reset leaves its requester.
    #[test]
    fn every_planned_transition_keeps_the_protocol_invariants() {
        let kinds = [AccessKind::Read, AccessKind::Write];
        let cases: Vec<_> = (0u16..3)
            .flat_map(|b| kinds.into_iter().flat_map(move |k| [(b, k, false), (b, k, true)]))
            .collect();
        for (protocol, keys) in [(Protocol::Msi, 10), (Protocol::Mesi, 14), (Protocol::Moesi, 20)] {
            let stt = SttTable::new(protocol);
            let mut entries = Vec::new();
            for state in [Invalid, Shared, Modified, Exclusive, Owned] {
                for bits in 0u64..8 {
                    let sharers: BladeSet = (0u16..3).filter(|&b| bits >> b & 1 == 1).collect();
                    let reachable = match state {
                        Invalid => sharers.is_empty(),
                        Shared => !sharers.is_empty(),
                        Modified => sharers.len() == 1,
                        Exclusive => sharers.len() == 1 && protocol != Protocol::Msi,
                        Owned => protocol == Protocol::Moesi,
                    };
                    let owners = match state {
                        Owned => sharers.iter().map(Some).collect(),
                        _ => vec![None],
                    };
                    for owner_blade in owners.into_iter().filter(|_| reachable) {
                        let mut e = DirEntry::new(16);
                        (e.state, e.sharers, e.owner_blade) = (state, sharers, owner_blade);
                        entries.push(e);
                    }
                }
            }
            let mut seen = std::collections::HashSet::new();
            let all = entries.iter().flat_map(|e| cases.iter().map(move |&c| (e, c)));
            for (old, (blade, kind, need_data)) in all {
                let case = format!("{protocol:?} {old:?}: {blade} {kind:?} {need_data}");
                let plan = Transition::plan(old, blade, kind, need_data, &stt);
                let role = match (old.owner() == Some(blade), old.sharers.contains(blade)) {
                    (true, _) => Role::Owner,
                    (_, true) => Role::Sharer,
                    _ => Role::Other,
                };
                assert_eq!(plan.row, stt.lookup(old.state, kind, role), "{case}");
                seen.insert((old.state as u8, kind.is_write(), role as u8));
                let others = old.sharers.difference(BladeSet::singleton(blade));
                let invalidates = plan.row.inval != InvalScope::None;
                let victims = if invalidates { others } else { BladeSet::EMPTY };
                assert_eq!(plan.victims, victims, "{case}");
                assert_eq!(plan.fetch == Fetch::Grant, !need_data, "{case}");
                if let Fetch::Owner(supplier) = plan.fetch {
                    assert_eq!(Some(supplier), old.owner(), "{case}");
                }

                let mut e = old.clone();
                plan.apply(&mut e, SimTime::ZERO);
                assert_eq!(e.owner_blade, e.owner(), "{case}");
                // The §4.4 reset's fresh fetch, into the region it emptied.
                let mut fresh = DirEntry::new(16);
                plan.fresh(blade, kind).apply(&mut fresh, SimTime::ZERO);
                assert_eq!(fresh.sharers, BladeSet::singleton(blade), "fresh: {case}");
                assert_eq!(fresh.owner_blade, fresh.owner(), "fresh: {case}");
                assert!(e.sharers.contains(blade), "requester holds nothing: {case}");
                let dropped = old.sharers.difference(plan.victims).difference(e.sharers);
                assert!(dropped.is_empty(), "{dropped:?} dropped uninvalidated: {case}");
                match e.state {
                    // One writer: the requester, alone.
                    Modified | Exclusive => {
                        let sole = (BladeSet::singleton(blade), Some(blade));
                        assert_eq!((e.sharers, e.owner()), sole, "{case}");
                    }
                    // Readers only; M→O keeps the old owner as supplier.
                    Owned => {
                        assert_eq!(e.owner_blade, old.owner(), "{case}");
                        assert!(e.sharers.contains(e.owner_blade.unwrap()), "{case}");
                    }
                    _ => assert!(e.state == Shared && !plan.row.insert_writable, "{case}"),
                }
                assert!(!kind.is_write() || matches!(e.state, Modified | Exclusive), "{case}");
            }
            assert_eq!(seen.len(), keys, "{protocol:?}: reachable rows");
            assert!(keys < stt.rows(), "no Sharer meets M/E, no Owner meets S");
        }
    }
}
