//! Blade-local page table: MIND virtual addresses → local DRAM frames.
//!
//! Although applications see only the global virtual address space, each
//! compute blade maintains a local page-based virtual memory to translate
//! MIND virtual addresses to physical addresses of cached pages in local
//! DRAM (paper Figure 2, footnote 2). Unmapping or downgrading a PTE on
//! invalidation forces a synchronous TLB shootdown — one of the two extra
//! overhead sources in Figure 7 (right).

use std::collections::hash_map::Entry;

use mind_sim::hash::FastMap;

/// A page-table entry: the local frame plus permission bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Index of the local DRAM frame holding the page.
    pub frame: u32,
    /// Whether the mapping permits stores.
    pub writable: bool,
}

/// The blade-local page table with a bounded frame pool.
#[derive(Debug, Clone)]
pub struct PageTable {
    ptes: FastMap<u64, Pte>,
    free_frames: Vec<u32>,
    n_frames: u32,
    tlb_shootdowns: u64,
}

impl PageTable {
    /// Creates a page table over `n_frames` local DRAM frames.
    pub fn new(n_frames: u32) -> Self {
        PageTable {
            ptes: FastMap::default(),
            free_frames: (0..n_frames).rev().collect(),
            n_frames,
            tlb_shootdowns: 0,
        }
    }

    /// Total local frames.
    pub fn n_frames(&self) -> u32 {
        self.n_frames
    }

    /// Frames not currently mapped.
    pub fn free_frames(&self) -> usize {
        self.free_frames.len()
    }

    /// Mapped pages.
    pub fn mapped(&self) -> usize {
        self.ptes.len()
    }

    /// Looks up the PTE for `page` (a page-aligned virtual address).
    pub fn lookup(&self, page: u64) -> Option<Pte> {
        self.ptes.get(&page).copied()
    }

    /// Maps `page` into a free frame with the given permission.
    ///
    /// Returns `None` if no frames are free (the caller must evict first).
    ///
    /// # Panics
    ///
    /// Panics if `page` is already mapped.
    pub fn map(&mut self, page: u64, writable: bool) -> Option<Pte> {
        let Entry::Vacant(slot) = self.ptes.entry(page) else {
            panic!("page {page:#x} already mapped");
        };
        let frame = self.free_frames.pop()?;
        let pte = Pte { frame, writable };
        slot.insert(pte);
        Some(pte)
    }

    /// Unmaps `page`, freeing its frame; counts a TLB shootdown.
    pub fn unmap(&mut self, page: u64) -> Option<Pte> {
        let pte = self.ptes.remove(&page)?;
        self.free_frames.push(pte.frame);
        self.tlb_shootdowns += 1;
        Some(pte)
    }

    /// Downgrades `page` to read-only (M→S invalidation); counts a TLB
    /// shootdown if the permission actually changed.
    pub fn downgrade(&mut self, page: u64) -> Option<Pte> {
        let pte = self.ptes.get_mut(&page)?;
        if pte.writable {
            pte.writable = false;
            self.tlb_shootdowns += 1;
        }
        Some(*pte)
    }

    /// Upgrades `page` to writable (after the coherence protocol granted M).
    pub fn upgrade(&mut self, page: u64) -> Option<Pte> {
        let pte = self.ptes.get_mut(&page)?;
        pte.writable = true;
        Some(*pte)
    }

    /// TLB shootdowns performed so far.
    pub fn tlb_shootdowns(&self) -> u64 {
        self.tlb_shootdowns
    }

    /// Iterates mapped pages (unspecified order).
    pub fn pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.ptes.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_lookup_unmap_roundtrip() {
        let mut pt = PageTable::new(2);
        let pte = pt.map(0x1000, true).unwrap();
        assert_eq!(pt.lookup(0x1000), Some(pte));
        assert!(pte.writable);
        assert_eq!(pt.mapped(), 1);
        assert_eq!(pt.unmap(0x1000).unwrap().frame, pte.frame);
        assert_eq!(pt.lookup(0x1000), None);
        assert_eq!(pt.free_frames(), 2);
    }

    #[test]
    fn frame_pool_exhaustion() {
        let mut pt = PageTable::new(2);
        assert!(pt.map(0x1000, false).is_some());
        assert!(pt.map(0x2000, false).is_some());
        assert!(pt.map(0x3000, false).is_none(), "no frames left");
        pt.unmap(0x1000);
        assert!(pt.map(0x3000, false).is_some(), "freed frame reused");
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_map_panics() {
        let mut pt = PageTable::new(2);
        pt.map(0x1000, false);
        pt.map(0x1000, true);
    }

    #[test]
    fn downgrade_counts_shootdown_once() {
        let mut pt = PageTable::new(1);
        pt.map(0x1000, true);
        assert_eq!(pt.tlb_shootdowns(), 0);
        pt.downgrade(0x1000);
        assert_eq!(pt.tlb_shootdowns(), 1);
        assert!(!pt.lookup(0x1000).unwrap().writable);
        // Downgrading an already read-only page is free (no PTE change).
        pt.downgrade(0x1000);
        assert_eq!(pt.tlb_shootdowns(), 1);
    }

    #[test]
    fn unmap_counts_shootdown() {
        let mut pt = PageTable::new(1);
        pt.map(0x1000, false);
        pt.unmap(0x1000);
        assert_eq!(pt.tlb_shootdowns(), 1);
        assert!(pt.unmap(0x2000).is_none(), "unmapped page is a no-op");
        assert_eq!(pt.tlb_shootdowns(), 1);
    }

    #[test]
    fn upgrade_sets_writable() {
        let mut pt = PageTable::new(1);
        pt.map(0x1000, false);
        pt.upgrade(0x1000);
        assert!(pt.lookup(0x1000).unwrap().writable);
        assert!(pt.upgrade(0x9000).is_none());
    }

    #[test]
    fn distinct_frames_assigned() {
        let mut pt = PageTable::new(3);
        let a = pt.map(0x1000, false).unwrap().frame;
        let b = pt.map(0x2000, false).unwrap().frame;
        let c = pt.map(0x3000, false).unwrap().frame;
        let mut frames = vec![a, b, c];
        frames.sort_unstable();
        frames.dedup();
        assert_eq!(frames.len(), 3);
    }
}
