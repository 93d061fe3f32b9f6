//! FastSwap-like swap-based disaggregated memory (paper §7, [12]).
//!
//! FastSwap exposes far memory through the kernel swap path: a page fault
//! fetches the page from a memory blade over RDMA, evictions write dirty
//! victims back. It is fast and scales nearly linearly *within* one compute
//! blade — but processes cannot share memory across blades, so compute
//! elasticity stops at a single blade (§2.2 "Non-transparent designs").
//!
//! In the model, each compute blade runs an *independent* swap domain: no
//! coherence, no cross-blade visibility. The evaluation harness only ever
//! runs FastSwap on one blade, matching the paper.

use mind_blade::{page_base, DramCache, MemoryBlade, PAGE_SIZE};
use mind_core::addr::VA_BASE;
use mind_core::system::{AccessKind, AccessOutcome, LatencyBreakdown, MemorySystem};
use mind_net::fabric::Fabric;
use mind_net::link::LatencyConfig;
use mind_net::node::NodeId;
use mind_net::packet::{Packet, PacketKind};
use mind_sim::stats::Metrics;
use mind_sim::SimTime;

/// FastSwap configuration.
#[derive(Debug, Clone, Copy)]
pub struct FastSwapConfig {
    /// Compute blades (only blade 0 is meaningful; others fault
    /// independently with no shared state).
    pub n_compute: u16,
    /// Memory blades backing the swap device.
    pub n_memory: u16,
    /// Local DRAM cache per blade, in pages.
    pub cache_pages: u32,
    /// Virtual address span per memory blade.
    pub blade_span: u64,
    /// Physical bytes per memory blade.
    pub memory_blade_bytes: u64,
    /// Calibrated latencies (shared with MIND for a fair comparison).
    pub latency: LatencyConfig,
}

impl Default for FastSwapConfig {
    fn default() -> Self {
        FastSwapConfig {
            n_compute: 1,
            n_memory: 8,
            cache_pages: 131_072,
            blade_span: 1 << 34,
            memory_blade_bytes: 1 << 34,
            latency: LatencyConfig::default(),
        }
    }
}

impl FastSwapConfig {
    /// A FastSwap system scaled for a workload of `footprint_pages`
    /// (single compute blade — FastSwap cannot share across blades), with
    /// the same cache ratio as
    /// [`mind_core::cluster::MindConfig::scaled_to`].
    pub fn scaled_to(footprint_pages: u64) -> Self {
        FastSwapConfig {
            n_compute: 1,
            cache_pages: mind_core::cluster::scaled_cache_pages(footprint_pages),
            ..Default::default()
        }
    }
}

/// The FastSwap system model.
#[derive(Debug)]
pub struct FastSwapSystem {
    cfg: FastSwapConfig,
    fabric: Fabric,
    caches: Vec<DramCache>,
    memory: Vec<MemoryBlade>,
    next_alloc: u64,
    accesses: u64,
    local_hits: u64,
    remote_accesses: u64,
}

impl FastSwapSystem {
    /// Builds the system.
    pub fn new(cfg: FastSwapConfig) -> Self {
        FastSwapSystem {
            fabric: Fabric::new(cfg.n_compute, cfg.n_memory, cfg.latency),
            caches: (0..cfg.n_compute)
                .map(|_| DramCache::new(cfg.cache_pages))
                .collect(),
            memory: (0..cfg.n_memory)
                .map(|_| MemoryBlade::new(cfg.memory_blade_bytes))
                .collect(),
            next_alloc: VA_BASE,
            cfg,
            accesses: 0,
            local_hits: 0,
            remote_accesses: 0,
        }
    }

    fn memory_blade_of(&self, vaddr: u64) -> u16 {
        (((vaddr - VA_BASE) / self.cfg.blade_span) % self.cfg.n_memory as u64) as u16
    }

    fn swap_in(&mut self, now: SimTime, blade: u16, page: u64) -> SimTime {
        let mb = self.memory_blade_of(page);
        let req = Packet::new(
            NodeId::Compute(blade),
            NodeId::Memory(mb),
            PacketKind::RdmaReadReq {
                vaddr: page,
                len: PAGE_SIZE as u32,
            },
        );
        let t = self.fabric.send(now, &req) + self.cfg.latency.memory_service;
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

    fn swap_out(&mut self, now: SimTime, blade: u16, page: u64) {
        let mb = self.memory_blade_of(page);
        let pkt = Packet::new(
            NodeId::Compute(blade),
            NodeId::Memory(mb),
            PacketKind::RdmaWriteReq {
                vaddr: page,
                len: PAGE_SIZE as u32,
            },
        );
        let _ = self.fabric.send(now, &pkt);
        let _ = self.memory[mb as usize].write_page_nodata((page - VA_BASE) >> 12);
    }
}

impl MemorySystem for FastSwapSystem {
    fn access(&mut self, now: SimTime, blade: u16, vaddr: u64, kind: AccessKind) -> AccessOutcome {
        self.accesses += 1;
        let page = page_base(vaddr);
        let cache = &mut self.caches[blade as usize];
        match cache.access(page, kind.is_write()) {
            mind_blade::CacheLookup::Hit => {
                self.local_hits += 1;
                AccessOutcome {
                    latency: LatencyBreakdown::local(self.cfg.latency.local_dram),
                    ..Default::default()
                }
            }
            // Swap PTEs are writable; the first store to a page swapped in
            // by a read fault just sets the dirty bit — no fault, no
            // coherence, local DRAM cost.
            mind_blade::CacheLookup::NeedUpgrade => {
                self.caches[blade as usize].grant_write(page);
                self.local_hits += 1;
                AccessOutcome {
                    latency: LatencyBreakdown::local(self.cfg.latency.local_dram),
                    ..Default::default()
                }
            }
            mind_blade::CacheLookup::Miss => {
                self.remote_accesses += 1;
                let t0 = now + self.cfg.latency.fault_handler;
                let done = self.swap_in(t0, blade, page);
                // The swap path maps pages writable; a clean page is still
                // only swapped out if later dirtied (the cache tracks a
                // writable insert as dirty, matching a faulting store; for
                // read faults keep it clean by inserting read-write via
                // grant-on-first-write semantics).
                let evicted = self.caches[blade as usize].insert(page, kind.is_write(), None);
                if let Some(ev) = evicted {
                    if ev.dirty {
                        // Victim selected and written back at fault entry;
                        // the DMA overlaps the swap-in.
                        self.swap_out(t0, blade, ev.page);
                    }
                }
                AccessOutcome {
                    latency: LatencyBreakdown {
                        fault: self.cfg.latency.fault_handler,
                        network: done.saturating_sub(t0),
                        ..Default::default()
                    },
                    remote: true,
                    ..Default::default()
                }
            }
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
        let evictions: u64 = self.caches.iter().map(|c| c.evictions()).sum();
        m.add("evictions", evictions);
    }

    fn alloc(&mut self, len: u64) -> u64 {
        // Bump allocation over the same VA layout as MIND's partition so
        // traces address the same bytes.
        let size = len.max(PAGE_SIZE).next_power_of_two();
        let base = self.next_alloc.next_multiple_of(size);
        self.next_alloc = base + size;
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> FastSwapSystem {
        FastSwapSystem::new(FastSwapConfig {
            cache_pages: 4,
            ..Default::default()
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut s = system();
        let base = s.alloc(1 << 20);
        let out = s.access(SimTime::ZERO, 0, base, AccessKind::Read);
        assert!(out.remote);
        let us = out.latency.total().as_micros_f64();
        assert!((8.0..11.0).contains(&us), "swap-in = {us:.1}us");
        let out = s.access(SimTime::from_micros(20), 0, base, AccessKind::Read);
        assert!(!out.remote);
        assert_eq!(out.latency.total(), SimTime::from_nanos(80));
    }

    #[test]
    fn never_any_invalidations() {
        let mut s = system();
        let base = s.alloc(1 << 20);
        // Two blades write the same page: no coherence — swap domains are
        // independent (this is exactly FastSwap's non-transparency).
        s.access(SimTime::ZERO, 0, base, AccessKind::Write);
        let out = s.access(SimTime::ZERO, 0, base + 4096, AccessKind::Write);
        assert_eq!(out.invalidations, 0);
        assert_eq!(s.metrics().get("remote_accesses"), 2);
    }

    #[test]
    fn eviction_swaps_out_dirty_pages() {
        let mut s = system();
        let base = s.alloc(1 << 20);
        // Fill the 4-page cache with dirty pages, then overflow it.
        for i in 0..5u64 {
            s.access(SimTime::ZERO, 0, base + i * PAGE_SIZE, AccessKind::Write);
        }
        assert_eq!(s.metrics().get("evictions"), 1);
    }

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut s = system();
        let a = s.alloc(10_000);
        let b = s.alloc(10_000);
        assert_eq!(a % 16384, 0);
        assert!(b >= a + 16384);
    }
}
