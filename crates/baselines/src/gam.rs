//! GAM-like software DSM adapted to disaggregation (paper §7, [35]).
//!
//! GAM is a *compute-centric* transparent design (§2.2): the cache
//! directory is partitioned across compute blades by home node, coherence
//! runs in a user-level library, and the consistency model is the weaker
//! PSO (writes propagate asynchronously). The performance-relevant traits
//! the paper calls out, all modelled here:
//!
//! - **Software access checks**: every load/store goes through the library
//!   (permission check under a lock), making *local* accesses ~10× slower
//!   than MIND's hardware-MMU path — and contended beyond a few threads per
//!   blade (GAM turns sub-linear past 4 threads, Figure 5 left).
//! - **Home-node indirection**: a miss consults the page's home compute
//!   blade before (or in parallel with) the data fetch; invalidations are
//!   unicast from the home, one message per sharer (no switch multicast).
//! - **PSO writes**: write misses return after buffering locally; the
//!   protocol completes in the background, and only later *reads* of a busy
//!   page stall. This is why GAM keeps scaling on write-heavy workloads
//!   where MIND's TSO page faults serialize (Figure 5 center).

use std::collections::HashMap;

use mind_blade::{page_base, DramCache, InvalidationQueue, MemoryBlade, PAGE_SIZE};
use mind_core::addr::VA_BASE;
use mind_core::system::{AccessKind, AccessOutcome, LatencyBreakdown, MemorySystem};
use mind_net::fabric::Fabric;
use mind_net::link::LatencyConfig;
use mind_net::node::{BladeSet, NodeId};
use mind_net::packet::{Packet, PacketKind};
use mind_sim::stats::Metrics;
use mind_sim::SimTime;

/// GAM configuration.
#[derive(Debug, Clone, Copy)]
pub struct GamConfig {
    /// Compute blades (directory homes are partitioned across these).
    pub n_compute: u16,
    /// Memory blades.
    pub n_memory: u16,
    /// Local cache per blade, in pages.
    pub cache_pages: u32,
    /// Virtual address span per memory blade.
    pub blade_span: u64,
    /// Physical bytes per memory blade.
    pub memory_blade_bytes: u64,
    /// Shared latency calibration.
    pub latency: LatencyConfig,
    /// User-level library overhead per access (lock + permission check).
    /// 800 ns makes GAM's local accesses 10× MIND's 80 ns DRAM hit (§7.1).
    pub software_overhead: SimTime,
    /// Home-node software service time per directory request.
    pub home_service: SimTime,
    /// Threads co-located per blade (drives software-lock contention).
    pub threads_per_blade: u16,
    /// Threads beyond which the software path contends (GAM is linear to 4
    /// threads in Figure 5 left).
    pub contention_knee: u16,
}

impl Default for GamConfig {
    fn default() -> Self {
        GamConfig {
            n_compute: 1,
            n_memory: 8,
            cache_pages: 131_072,
            blade_span: 1 << 34,
            memory_blade_bytes: 1 << 34,
            latency: LatencyConfig::default(),
            software_overhead: SimTime::from_nanos(800),
            home_service: SimTime::from_nanos(1_000),
            threads_per_blade: 1,
            contention_knee: 4,
        }
    }
}

impl GamConfig {
    /// A GAM system scaled for a workload of `footprint_pages`, with the
    /// same cache ratio as [`mind_core::cluster::MindConfig::scaled_to`]
    /// so cross-system comparisons stay fair.
    pub fn scaled_to(footprint_pages: u64, n_compute: u16, threads_per_blade: u16) -> Self {
        GamConfig {
            n_compute,
            cache_pages: mind_core::cluster::scaled_cache_pages(footprint_pages),
            threads_per_blade,
            ..Default::default()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    Invalid,
    Shared,
    Modified,
}

#[derive(Debug, Clone)]
struct PageEntry {
    state: PageState,
    sharers: BladeSet,
    busy_until: SimTime,
}

/// The GAM system model.
#[derive(Debug)]
pub struct GamSystem {
    cfg: GamConfig,
    fabric: Fabric,
    caches: Vec<DramCache>,
    /// Software directory-service queue per home blade.
    home_queues: Vec<InvalidationQueue>,
    memory: Vec<MemoryBlade>,
    /// Page-granularity directory (software: effectively unbounded).
    directory: HashMap<u64, PageEntry>,
    next_alloc: u64,
    accesses: u64,
    local_hits: u64,
    remote_accesses: u64,
    invalidations: u64,
    flushed_pages: u64,
    async_writes: u64,
}

impl GamSystem {
    /// Builds the system.
    pub fn new(cfg: GamConfig) -> Self {
        GamSystem {
            fabric: Fabric::new(cfg.n_compute, cfg.n_memory, cfg.latency),
            caches: (0..cfg.n_compute)
                .map(|_| DramCache::new(cfg.cache_pages))
                .collect(),
            home_queues: vec![InvalidationQueue::default(); cfg.n_compute as usize],
            memory: (0..cfg.n_memory)
                .map(|_| MemoryBlade::new(cfg.memory_blade_bytes))
                .collect(),
            directory: HashMap::new(),
            next_alloc: VA_BASE,
            cfg,
            accesses: 0,
            local_hits: 0,
            remote_accesses: 0,
            invalidations: 0,
            flushed_pages: 0,
            async_writes: 0,
        }
    }

    /// Effective software overhead under thread contention on one blade.
    fn software_cost(&self) -> SimTime {
        let t = self.cfg.threads_per_blade;
        let knee = self.cfg.contention_knee;
        if t <= knee {
            self.cfg.software_overhead
        } else {
            // Each extra thread adds lock contention to the shared library
            // path.
            let factor = 1.0 + 0.25 * (t - knee) as f64;
            self.cfg.software_overhead.scale(factor)
        }
    }

    fn home_of(&self, page: u64) -> u16 {
        ((page >> 12) % self.cfg.n_compute as u64) as u16
    }

    fn memory_blade_of(&self, vaddr: u64) -> u16 {
        (((vaddr - VA_BASE) / self.cfg.blade_span) % self.cfg.n_memory as u64) as u16
    }

    /// Requester → home directory request; returns service completion time.
    fn home_leg(&mut self, t: SimTime, blade: u16, home: u16) -> SimTime {
        let arrive = if home == blade {
            t
        } else {
            let req = Packet::new(
                NodeId::Compute(blade),
                NodeId::Compute(home),
                PacketKind::CtrlSyscall { call: 0 },
            );
            self.fabric.send(t, &req)
        };
        self.home_queues[home as usize]
            .enqueue(arrive, self.cfg.home_service)
            .done
    }

    /// Home → requester reply.
    fn reply_leg(&mut self, t: SimTime, home: u16, blade: u16) -> SimTime {
        if home == blade {
            t
        } else {
            let resp = Packet::new(
                NodeId::Compute(home),
                NodeId::Compute(blade),
                PacketKind::CtrlResp { ret: 0 },
            );
            self.fabric.send(t, &resp)
        }
    }

    /// Data fetch from the memory blade to the requester.
    fn fetch(&mut self, t: SimTime, blade: u16, page: u64) -> SimTime {
        let mb = self.memory_blade_of(page);
        let req = Packet::new(
            NodeId::Compute(blade),
            NodeId::Memory(mb),
            PacketKind::RdmaReadReq {
                vaddr: page,
                len: PAGE_SIZE as u32,
            },
        );
        let t = self.fabric.send(t, &req) + self.cfg.latency.memory_service;
        let _ = self.memory[mb as usize].read_page_nodata((page - VA_BASE) >> 12);
        let resp = Packet::new(
            NodeId::Memory(mb),
            NodeId::Compute(blade),
            PacketKind::RdmaReadResp {
                vaddr: page,
                len: PAGE_SIZE as u32,
            },
        );
        self.fabric.send(t, &resp)
    }

    /// Dirty page write-back from a blade to its memory blade.
    fn writeback(&mut self, t: SimTime, blade: u16, page: u64) -> SimTime {
        let mb = self.memory_blade_of(page);
        let pkt = Packet::new(
            NodeId::Compute(blade),
            NodeId::Memory(mb),
            PacketKind::RdmaWriteReq {
                vaddr: page,
                len: PAGE_SIZE as u32,
            },
        );
        let done = self.fabric.send(t, &pkt) + self.cfg.latency.memory_service;
        let _ = self.memory[mb as usize].write_page_nodata((page - VA_BASE) >> 12);
        done
    }

    /// Home-driven unicast invalidation of `victims` for one page.
    /// Returns when the last ACK reached the home.
    fn invalidate(
        &mut self,
        t_home: SimTime,
        home: u16,
        page: u64,
        victims: BladeSet,
        downgrade: bool,
    ) -> SimTime {
        let mut done = t_home;
        for victim in victims.iter() {
            self.invalidations += 1;
            // Unicast request (software loop at the home — one message per
            // sharer; no switch multicast for GAM).
            let req = Packet::new(
                NodeId::Compute(home),
                NodeId::Compute(victim),
                PacketKind::CtrlSyscall { call: 1 },
            );
            let arrive = if victim == home {
                t_home
            } else {
                self.fabric.send(t_home, &req)
            };
            let out = self.caches[victim as usize].invalidate_region(page, 12, downgrade);
            let mut t = arrive + self.cfg.home_service;
            for (p, _) in out.flushed {
                t = self.writeback(t, victim, p);
                self.flushed_pages += 1;
            }
            let ack_at = self.reply_leg(t, victim, home);
            done = done.max(ack_at);
        }
        done
    }
}

impl MemorySystem for GamSystem {
    fn access(&mut self, now: SimTime, blade: u16, vaddr: u64, kind: AccessKind) -> AccessOutcome {
        self.accesses += 1;
        let sw = self.software_cost();
        let page = page_base(vaddr);
        let probe = self.caches[blade as usize].access(page, kind.is_write());
        if probe == mind_blade::CacheLookup::Hit {
            self.local_hits += 1;
            return AccessOutcome {
                latency: LatencyBreakdown {
                    software: sw,
                    dram: self.cfg.latency.local_dram,
                    ..Default::default()
                },
                ..Default::default()
            };
        }

        // Library-level "fault": consult the home node.
        self.remote_accesses += 1;
        let home = self.home_of(page);
        let t0 = now + sw;
        let entry = self
            .directory
            .entry(page)
            .or_insert(PageEntry {
                state: PageState::Invalid,
                sharers: BladeSet::EMPTY,
                busy_until: SimTime::ZERO,
            })
            .clone();
        let t_start = t0.max(entry.busy_until);
        let t_home = self.home_leg(t_start, blade, home);

        let need_data = probe == mind_blade::CacheLookup::Miss;
        let mut invalidations = 0u32;
        let flushed_before = self.flushed_pages;
        let done;
        match (entry.state, kind) {
            (PageState::Invalid, _) => {
                // Grant + fetch in parallel (GAM overlaps the directory
                // round with the speculative data fetch).
                let grant = self.reply_leg(t_home, home, blade);
                let fetch = if need_data {
                    self.fetch(t_start, blade, page)
                } else {
                    t_start
                };
                done = grant.max(fetch);
            }
            (PageState::Shared, AccessKind::Read) => {
                let grant = self.reply_leg(t_home, home, blade);
                let fetch = if need_data {
                    self.fetch(t_start, blade, page)
                } else {
                    t_start
                };
                done = grant.max(fetch);
            }
            (PageState::Shared, AccessKind::Write) => {
                let mut victims = entry.sharers;
                victims.remove(blade);
                invalidations = victims.len();
                let inv_done = if victims.is_empty() {
                    t_home
                } else {
                    self.invalidate(t_home, home, page, victims, false)
                };
                let grant = self.reply_leg(inv_done, home, blade);
                let fetch = if need_data {
                    self.fetch(t_start, blade, page)
                } else {
                    t_start
                };
                done = grant.max(fetch);
            }
            (PageState::Modified, _) => {
                let owner = entry.sharers;
                if owner.sole_member() == Some(blade) {
                    // Re-fetch of our own (previously evicted) page.
                    let grant = self.reply_leg(t_home, home, blade);
                    let fetch = if need_data {
                        self.fetch(t_start, blade, page)
                    } else {
                        t_start
                    };
                    done = grant.max(fetch);
                } else {
                    invalidations = owner.len();
                    let downgrade = kind == AccessKind::Read;
                    let inv_done = self.invalidate(t_home, home, page, owner, downgrade);
                    // Data is valid at the memory blade only after the
                    // owner's flush: fetch follows sequentially.
                    let fetch = if need_data {
                        self.fetch(inv_done, blade, page)
                    } else {
                        self.reply_leg(inv_done, home, blade)
                    };
                    done = fetch;
                }
            }
        }

        // Directory update at the home.
        let e = self.directory.get_mut(&page).expect("inserted above");
        match kind {
            AccessKind::Read => {
                if e.state == PageState::Modified && e.sharers.sole_member() == Some(blade) {
                    // Owner re-read keeps M.
                } else {
                    e.state = PageState::Shared;
                    e.sharers.insert(blade);
                }
            }
            AccessKind::Write => {
                e.state = PageState::Modified;
                e.sharers = BladeSet::singleton(blade);
            }
        }
        e.busy_until = done;

        // Install locally.
        if need_data {
            let evicted = self.caches[blade as usize].insert(page, kind.is_write(), None);
            if let Some(ev) = evicted {
                if ev.dirty {
                    // Victim write-back issued at fault entry, overlapping
                    // the protocol.
                    self.writeback(t0, blade, ev.page);
                }
            }
        } else if kind.is_write() {
            self.caches[blade as usize].grant_write(page);
        }

        let flushed = (self.flushed_pages - flushed_before) as u32;
        // PSO: writes buffer locally and complete asynchronously.
        if kind.is_write() {
            self.async_writes += 1;
            return AccessOutcome {
                latency: LatencyBreakdown {
                    software: sw,
                    dram: self.cfg.latency.local_dram,
                    ..Default::default()
                },
                remote: true,
                invalidations,
                flushed_pages: flushed,
                ..Default::default()
            };
        }
        AccessOutcome {
            latency: LatencyBreakdown {
                software: sw,
                network: done.saturating_sub(t0),
                ..Default::default()
            },
            remote: true,
            invalidations,
            flushed_pages: flushed,
            ..Default::default()
        }
    }

    fn n_compute(&self) -> u16 {
        self.cfg.n_compute
    }

    fn metrics_into(&self, m: &mut Metrics) {
        m.clear();
        m.add("accesses", self.accesses);
        m.add("local_hits", self.local_hits);
        m.add("remote_accesses", self.remote_accesses);
        m.add("invalidation_requests", self.invalidations);
        m.add("flushed_pages", self.flushed_pages);
        m.add("async_writes", self.async_writes);
        m.add("directory_entries", self.directory.len() as u64);
        let evictions: u64 = self.caches.iter().map(|c| c.evictions()).sum();
        m.add("evictions", evictions);
    }

    fn alloc(&mut self, len: u64) -> u64 {
        let size = len.max(PAGE_SIZE).next_power_of_two();
        let base = self.next_alloc.next_multiple_of(size);
        self.next_alloc = base + size;
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(n_compute: u16, threads: u16) -> GamSystem {
        GamSystem::new(GamConfig {
            n_compute,
            threads_per_blade: threads,
            cache_pages: 1024,
            ..Default::default()
        })
    }

    #[test]
    fn local_hits_pay_software_tax() {
        let mut s = system(1, 1);
        let base = s.alloc(1 << 20);
        s.access(SimTime::ZERO, 0, base, AccessKind::Read);
        let out = s.access(SimTime::from_micros(50), 0, base, AccessKind::Read);
        // 800 ns software + 80 ns DRAM = 10x+ MIND's 80 ns local hit.
        assert_eq!(out.latency.total(), SimTime::from_nanos(880));
        assert_eq!(out.latency.software, SimTime::from_nanos(800));
    }

    #[test]
    fn software_contention_beyond_knee() {
        let uncontended = system(1, 4).software_cost();
        let contended = system(1, 10).software_cost();
        assert_eq!(uncontended, SimTime::from_nanos(800));
        assert!(contended > uncontended * 2, "10 threads: {contended}");
    }

    #[test]
    fn read_miss_latency_comparable_to_mind() {
        let mut s = system(2, 1);
        let base = s.alloc(1 << 20);
        let out = s.access(SimTime::ZERO, 0, base, AccessKind::Read);
        let us = out.latency.total().as_micros_f64();
        assert!((8.0..13.0).contains(&us), "read miss = {us:.1}us");
    }

    #[test]
    fn pso_write_miss_returns_fast() {
        let mut s = system(2, 1);
        let base = s.alloc(1 << 20);
        let out = s.access(SimTime::ZERO, 0, base, AccessKind::Write);
        assert!(out.remote);
        // Thread sees only software + buffer, not the full protocol.
        assert!(out.latency.total() < SimTime::from_micros(2));
    }

    #[test]
    fn subsequent_read_blocks_behind_async_write() {
        let mut s = system(2, 1);
        let base = s.alloc(1 << 20);
        // Blade 0 writes (async); blade 1 reads immediately after: it must
        // wait for the protocol via the page's busy_until.
        s.access(SimTime::ZERO, 0, base, AccessKind::Write);
        let out = s.access(SimTime::from_nanos(100), 1, base, AccessKind::Read);
        let us = out.latency.total().as_micros_f64();
        assert!(us > 9.0, "read blocked behind write completion: {us:.1}us");
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut s = system(2, 1);
        let base = s.alloc(1 << 20);
        s.access(SimTime::ZERO, 0, base, AccessKind::Read);
        s.access(SimTime::ZERO, 1, base, AccessKind::Read);
        let out = s.access(SimTime::from_micros(50), 0, base, AccessKind::Write);
        assert_eq!(out.invalidations, 1, "blade 1 invalidated");
        // Blade 1's copy is gone.
        let again = s.access(SimTime::from_micros(100), 1, base, AccessKind::Read);
        assert!(again.remote);
    }

    #[test]
    fn modified_read_flushes_owner() {
        let mut s = system(2, 1);
        let base = s.alloc(1 << 20);
        s.access(SimTime::ZERO, 0, base, AccessKind::Write);
        let out = s.access(SimTime::from_micros(100), 1, base, AccessKind::Read);
        assert_eq!(out.flushed_pages, 1, "owner's dirty page flushed");
        assert!(out.latency.total() > SimTime::from_micros(10));
    }

    #[test]
    fn page_granularity_directory_no_false_invalidations() {
        let mut s = system(2, 1);
        let base = s.alloc(1 << 20);
        // Dirty two adjacent pages on blade 0.
        s.access(SimTime::ZERO, 0, base, AccessKind::Write);
        s.access(SimTime::ZERO, 0, base + PAGE_SIZE, AccessKind::Write);
        // Blade 1 reads page 0: only page 0 flushes (no region coupling).
        let out = s.access(SimTime::from_micros(100), 1, base, AccessKind::Read);
        assert_eq!(out.flushed_pages, 1);
        assert_eq!(out.false_invalidations, 0);
    }

    #[test]
    fn alloc_matches_mind_layout() {
        let mut s = system(1, 1);
        assert_eq!(s.alloc(4096), VA_BASE);
    }
}
