//! Blade-local page table: MIND virtual addresses → local DRAM frames.
//!
//! Although applications see only the global virtual address space, each
//! compute blade maintains a local page-based virtual memory to translate
//! MIND virtual addresses to physical addresses of cached pages in local
//! DRAM (paper Figure 2, footnote 2). Unmapping or downgrading a PTE on
//! invalidation forces a synchronous TLB shootdown — one of the two extra
//! overhead sources in Figure 7 (right).
//!
//! Directory regions are decoupled from pages (§4.3.1) and an invalidation
//! covers a whole region (§6.1), so the table is built to be walked by
//! address range: PTEs live in *leaves* of 16 consecutive pages, one word
//! per page, stored in the hash map's own slots. A point lookup is one hash
//! probe for the leaf and one word; a range walk is one probe per leaf the
//! range covers and then that leaf's words.

use std::collections::hash_map::Entry;
use std::ops::Range;

use mind_sim::hash::FastMap;

use crate::page::PAGE_SHIFT;

/// A page-table entry: the local frame plus permission bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Index of the local DRAM frame holding the page.
    pub frame: u32,
    /// Whether the mapping permits stores.
    pub writable: bool,
}

/// Pages per leaf.
///
/// Sixteen, by measurement. The map keeps up to half its slots spare and
/// both tables alive while it grows, so a slot's size is paid more than
/// once per leaf: 64-page leaves (280-byte slots) cost `apps_scalar`, whose
/// leaves are a fifth full, 13 % of its peak RSS, 16-page leaves 3 %, at
/// the same speed on `remote_faults`; 8-page leaves walk a region in twice
/// the probes and were slower. Leaves kept out of line behind an index cost
/// no memory but a dependent load on every cache hit.
const LEAF_PAGES: usize = 16;

/// log2 of the bytes of address space one leaf covers.
const LEAF_SHIFT: u32 = PAGE_SHIFT as u32 + LEAF_PAGES.trailing_zeros();

/// The word of a page that is not mapped.
const ABSENT: u32 = u32::MAX;

/// Set in the word of a page mapped writable; the rest is its frame id.
const WRITABLE: u32 = 1 << 31;

/// The PTEs of [`LEAF_PAGES`] consecutive pages, a word each: [`ABSENT`],
/// or the frame id with [`WRITABLE`]. One word rather than presence and
/// permission bitmaps beside the frame ids, because a cache hit then reads
/// what it read from a flat `page → PTE` map: with bitmaps a lookup took a
/// third longer and `resident_hits` lost 5 %. A leaf of only absent pages
/// is removed from the table.
#[derive(Debug, Clone)]
struct Leaf([u32; LEAF_PAGES]);

impl Leaf {
    fn is_empty(&self) -> bool {
        self.0.iter().all(|&word| word == ABSENT)
    }
}

fn decode(word: u32) -> Option<Pte> {
    (word != ABSENT).then_some(Pte {
        frame: word & !WRITABLE,
        writable: word & WRITABLE != 0,
    })
}

fn encode(pte: Pte) -> u32 {
    pte.frame | if pte.writable { WRITABLE } else { 0 }
}

/// Leaf key and index within the leaf of `page`.
fn locate(page: u64) -> (u64, usize) {
    (
        page >> LEAF_SHIFT,
        (page >> PAGE_SHIFT) as usize % LEAF_PAGES,
    )
}

/// The address of page `i` of leaf `key`.
fn page_of(key: u64, i: usize) -> u64 {
    key << LEAF_SHIFT | (i as u64) << PAGE_SHIFT
}

/// A range of page numbers, `[first, end)`.
#[derive(Clone, Copy)]
struct PageRange {
    first: u64,
    end: u64,
}

impl PageRange {
    /// The pages of `[base, base + 2^size_log2)`; at least one.
    fn new(base: u64, size_log2: u8) -> Self {
        let first = base >> PAGE_SHIFT;
        PageRange {
            first,
            end: first + (1u64 << size_log2.saturating_sub(PAGE_SHIFT)),
        }
    }

    /// Keys of the first and last leaf the range touches.
    fn leaf_keys(self) -> (u64, u64) {
        let pages_log2 = LEAF_PAGES.trailing_zeros();
        (self.first >> pages_log2, (self.end - 1) >> pages_log2)
    }

    /// Which pages of leaf `key`, one the range touches, lie inside it.
    fn within(self, key: u64) -> Range<usize> {
        let leaf_first = key * LEAF_PAGES as u64;
        let lo = self.first.max(leaf_first) - leaf_first;
        let hi = self.end.min(leaf_first + LEAF_PAGES as u64) - leaf_first;
        lo as usize..hi as usize
    }
}

/// The blade-local page table with a bounded frame pool.
#[derive(Debug, Clone)]
pub struct PageTable {
    leaves: FastMap<u64, Leaf>,
    mapped: usize,
    free_frames: Vec<u32>,
    n_frames: u32,
    tlb_shootdowns: u64,
    /// Reusable buffer for the sorted leaf keys of a range wider than the
    /// table (no allocation per walk).
    key_scratch: Vec<u64>,
}

impl PageTable {
    /// Creates a page table over `n_frames` local DRAM frames.
    ///
    /// # Panics
    ///
    /// Panics if `n_frames` exceeds 2^31 (8 TB of blade DRAM).
    pub fn new(n_frames: u32) -> Self {
        assert!(n_frames <= WRITABLE, "frame ids must fit 31 bits");
        PageTable {
            leaves: FastMap::default(),
            mapped: 0,
            free_frames: (0..n_frames).rev().collect(),
            n_frames,
            tlb_shootdowns: 0,
            key_scratch: Vec::new(),
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
        self.mapped
    }

    /// Looks up the PTE for `page` (a page-aligned virtual address).
    pub fn lookup(&self, page: u64) -> Option<Pte> {
        let (key, i) = locate(page);
        decode(self.leaves.get(&key)?.0[i])
    }

    /// The word of `page`, if its leaf exists.
    fn word_mut(&mut self, page: u64) -> Option<&mut u32> {
        let (key, i) = locate(page);
        Some(&mut self.leaves.get_mut(&key)?.0[i])
    }

    /// Maps `page` into a free frame with the given permission.
    ///
    /// Returns `None` if no frames are free (the caller must evict first).
    ///
    /// # Panics
    ///
    /// Panics if `page` is already mapped.
    pub fn map(&mut self, page: u64, writable: bool) -> Option<Pte> {
        let (key, i) = locate(page);
        let leaf = match self.leaves.entry(key) {
            Entry::Occupied(leaf) => leaf.into_mut(),
            // An empty leaf must not outlive a refused mapping.
            Entry::Vacant(_) if self.free_frames.is_empty() => return None,
            Entry::Vacant(slot) => slot.insert(Leaf([ABSENT; LEAF_PAGES])),
        };
        assert!(leaf.0[i] == ABSENT, "page {page:#x} already mapped");
        let pte = Pte {
            frame: self.free_frames.pop()?,
            writable,
        };
        leaf.0[i] = encode(pte);
        self.mapped += 1;
        Some(pte)
    }

    /// Unmaps `page`, freeing its frame; counts a TLB shootdown.
    pub fn unmap(&mut self, page: u64) -> Option<Pte> {
        let (key, i) = locate(page);
        let leaf = self.leaves.get_mut(&key)?;
        let pte = decode(std::mem::replace(&mut leaf.0[i], ABSENT))?;
        if leaf.is_empty() {
            self.leaves.remove(&key);
        }
        self.mapped -= 1;
        self.free_frames.push(pte.frame);
        self.tlb_shootdowns += 1;
        Some(pte)
    }

    /// Downgrades `page` to read-only (M→S invalidation); counts a TLB
    /// shootdown if the permission actually changed.
    pub fn downgrade(&mut self, page: u64) -> Option<Pte> {
        let word = self.word_mut(page)?;
        let pte = decode(*word)?;
        *word &= !WRITABLE;
        self.tlb_shootdowns += pte.writable as u64;
        Some(Pte {
            writable: false,
            ..pte
        })
    }

    /// Upgrades `page` to writable (after the coherence protocol granted M).
    pub fn upgrade(&mut self, page: u64) -> Option<Pte> {
        let word = self.word_mut(page)?;
        let pte = decode(*word)?;
        *word |= WRITABLE;
        Some(Pte {
            writable: true,
            ..pte
        })
    }

    /// Visits the leaves holding a page of `range` with the indices of their
    /// pages inside it, in ascending address order; `visit` says whether it
    /// unmapped a page, and a leaf it emptied is dropped. Walks whichever is
    /// fewer: the range's leaf keys (one probe each) or the table's leaves
    /// (filtered, then sorted).
    fn walk_leaves(
        leaves: &mut FastMap<u64, Leaf>,
        key_scratch: &mut Vec<u64>,
        range: PageRange,
        mut visit: impl FnMut(u64, Range<usize>, &mut Leaf) -> bool,
    ) {
        let mut visit_key = |leaves: &mut FastMap<u64, Leaf>, key: u64| {
            let Some(leaf) = leaves.get_mut(&key) else {
                return;
            };
            if visit(key, range.within(key), leaf) && leaf.is_empty() {
                leaves.remove(&key);
            }
        };
        let (first_key, last_key) = range.leaf_keys();
        if last_key - first_key < leaves.len() as u64 {
            for key in first_key..=last_key {
                visit_key(leaves, key);
            }
        } else {
            key_scratch.clear();
            key_scratch.extend(
                leaves
                    .keys()
                    .filter(|&&key| key >= first_key && key <= last_key),
            );
            key_scratch.sort_unstable();
            for &key in key_scratch.iter() {
                visit_key(leaves, key);
            }
        }
    }

    /// Unmaps every mapped page of `[base, base + 2^size_log2)` in ascending
    /// address order, handing each page and its entry to `each`. Frames are
    /// freed in that order, with one TLB shootdown per page.
    pub fn unmap_range(&mut self, base: u64, size_log2: u8, mut each: impl FnMut(u64, Pte)) {
        let range = PageRange::new(base, size_log2);
        let (free_frames, mut unmapped) = (&mut self.free_frames, 0);
        Self::walk_leaves(
            &mut self.leaves,
            &mut self.key_scratch,
            range,
            |key, within, leaf| {
                let before = unmapped;
                for i in within {
                    if let Some(pte) = decode(std::mem::replace(&mut leaf.0[i], ABSENT)) {
                        free_frames.push(pte.frame);
                        each(page_of(key, i), pte);
                        unmapped += 1;
                    }
                }
                unmapped > before
            },
        );
        self.mapped -= unmapped;
        self.tlb_shootdowns += unmapped as u64;
    }

    /// Hands every mapped page of `[base, base + 2^size_log2)` and its entry
    /// to `each` in ascending address order, then makes the page read-only:
    /// one TLB shootdown per page that was writable.
    pub fn downgrade_range(&mut self, base: u64, size_log2: u8, mut each: impl FnMut(u64, Pte)) {
        let range = PageRange::new(base, size_log2);
        let mut downgraded = 0;
        Self::walk_leaves(
            &mut self.leaves,
            &mut self.key_scratch,
            range,
            |key, within, leaf| {
                for i in within {
                    if let Some(pte) = decode(leaf.0[i]) {
                        each(page_of(key, i), pte);
                        leaf.0[i] &= !WRITABLE;
                        downgraded += pte.writable as u64;
                    }
                }
                false
            },
        );
        self.tlb_shootdowns += downgraded;
    }

    /// Hands every mapped page of `[base, base + 2^size_log2)` and its entry
    /// to `each` (unspecified order).
    pub fn for_each_in_range(&self, base: u64, size_log2: u8, mut each: impl FnMut(u64, Pte)) {
        let range = PageRange::new(base, size_log2);
        let mut visit = |key: u64, leaf: &Leaf| {
            for i in range.within(key) {
                if let Some(pte) = decode(leaf.0[i]) {
                    each(page_of(key, i), pte);
                }
            }
        };
        let (first_key, last_key) = range.leaf_keys();
        if last_key - first_key < self.leaves.len() as u64 {
            for key in first_key..=last_key {
                if let Some(leaf) = self.leaves.get(&key) {
                    visit(key, leaf);
                }
            }
        } else {
            for (&key, leaf) in &self.leaves {
                if key >= first_key && key <= last_key {
                    visit(key, leaf);
                }
            }
        }
    }

    /// TLB shootdowns performed so far.
    pub fn tlb_shootdowns(&self) -> u64 {
        self.tlb_shootdowns
    }

    /// Iterates mapped pages (unspecified order).
    pub fn pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.leaves.iter().flat_map(|(&key, leaf)| {
            (0..LEAF_PAGES)
                .filter(|&i| leaf.0[i] != ABSENT)
                .map(move |i| page_of(key, i))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_sim::SimRng;

    /// The flat `page → PTE` map the table used to be, as the oracle for
    /// the leaves: same frame pool discipline, ranges enumerated by
    /// filtering and sorting every entry.
    struct FlatOracle {
        ptes: FastMap<u64, Pte>,
        free_frames: Vec<u32>,
        tlb_shootdowns: u64,
    }

    impl FlatOracle {
        fn new(n_frames: u32) -> Self {
            FlatOracle {
                ptes: FastMap::default(),
                free_frames: (0..n_frames).rev().collect(),
                tlb_shootdowns: 0,
            }
        }

        fn map(&mut self, page: u64, writable: bool) -> Option<Pte> {
            assert!(!self.ptes.contains_key(&page));
            let frame = self.free_frames.pop()?;
            self.ptes.insert(page, Pte { frame, writable });
            Some(Pte { frame, writable })
        }

        fn unmap(&mut self, page: u64) -> Option<Pte> {
            let pte = self.ptes.remove(&page)?;
            self.free_frames.push(pte.frame);
            self.tlb_shootdowns += 1;
            Some(pte)
        }

        fn downgrade(&mut self, page: u64) -> Option<Pte> {
            let pte = self.ptes.get_mut(&page)?;
            self.tlb_shootdowns += pte.writable as u64;
            pte.writable = false;
            Some(*pte)
        }

        fn upgrade(&mut self, page: u64) -> Option<Pte> {
            let pte = self.ptes.get_mut(&page)?;
            pte.writable = true;
            Some(*pte)
        }

        /// The mapped pages of `[base, base + 2^size_log2)`, ascending.
        fn in_range(&self, base: u64, size_log2: u8) -> Vec<(u64, Pte)> {
            let end = base + (1u64 << size_log2);
            let mut found: Vec<(u64, Pte)> = self
                .ptes
                .iter()
                .filter(|(&page, _)| page >= base && page < end)
                .map(|(&page, &pte)| (page, pte))
                .collect();
            found.sort_unstable_by_key(|&(page, _)| page);
            found
        }
    }

    /// Random point and range operations against the flat map: every
    /// return value, every range enumeration (order included for the
    /// mutating walks), the frame pool, the shootdown count, `pages()` and
    /// the reclamation of emptied leaves. Pages cluster on and around leaf
    /// boundaries in leaves far enough apart that ranges of every size from
    /// a page to 2^30 bytes are walked both by leaf key and by table scan.
    #[test]
    fn leaves_match_flat_map_under_churn() {
        const LEAF: u64 = LEAF_PAGES as u64;
        // First page numbers of the populated neighbourhoods; all below
        // 2^19, so two 2^30-byte ranges cover them.
        let clusters = [
            0,
            3 * LEAF,
            64 * LEAF - 2,
            1_000 * LEAF,
            (1 << 18) - LEAF,
            (1 << 19) - 2 * LEAF,
        ];
        let (mut by_key, mut by_scan) = (0, 0);
        for seed in 0..6u64 {
            let mut rng = SimRng::new(seed);
            let n_frames = [12, 40, 200][seed as usize % 3];
            let mut pt = PageTable::new(n_frames);
            let mut flat = FlatOracle::new(n_frames);
            let random_page = |rng: &mut SimRng| {
                let cluster = clusters[rng.gen_below(clusters.len() as u64) as usize];
                (cluster + rng.gen_below(2 * LEAF)) << PAGE_SHIFT
            };
            for step in 0..6_000u64 {
                let page = random_page(&mut rng);
                match rng.gen_below(8) {
                    0..=2 => {
                        if flat.ptes.contains_key(&page) {
                            assert_eq!(pt.unmap(page), flat.unmap(page));
                        } else {
                            let writable = rng.gen_bool(0.5);
                            assert_eq!(pt.map(page, writable), flat.map(page, writable));
                        }
                    }
                    3 => assert_eq!(pt.downgrade(page), flat.downgrade(page)),
                    4 => assert_eq!(pt.upgrade(page), flat.upgrade(page)),
                    _ => {
                        // Every size in turn; bases aligned like a region's
                        // or merely to a page, beside a leaf boundary.
                        let size_log2 = PAGE_SHIFT + (step % 19) as u8;
                        let base = if rng.gen_bool(0.5) {
                            page & !((1u64 << size_log2) - 1)
                        } else {
                            page
                        };
                        let range = PageRange::new(base, size_log2);
                        let (first_key, last_key) = range.leaf_keys();
                        if last_key - first_key < pt.leaves.len() as u64 {
                            by_key += 1;
                        } else {
                            by_scan += 1;
                        }
                        let expected = flat.in_range(base, size_log2);
                        let mut seen = Vec::new();
                        match rng.gen_below(3) {
                            0 => {
                                pt.for_each_in_range(base, size_log2, |p, pte| seen.push((p, pte)));
                                seen.sort_unstable_by_key(|&(p, _)| p);
                            }
                            1 => {
                                pt.unmap_range(base, size_log2, |p, pte| seen.push((p, pte)));
                                for &(p, _) in &expected {
                                    flat.unmap(p);
                                }
                            }
                            _ => {
                                pt.downgrade_range(base, size_log2, |p, pte| seen.push((p, pte)));
                                for &(p, _) in &expected {
                                    flat.downgrade(p);
                                }
                            }
                        }
                        assert_eq!(
                            seen, expected,
                            "seed {seed} step {step}: 2^{size_log2} at {base:#x}"
                        );
                    }
                }
                assert_eq!(pt.lookup(page), flat.ptes.get(&page).copied());
                assert_eq!(pt.mapped(), flat.ptes.len());
                assert_eq!(pt.free_frames, flat.free_frames, "frame pool, in order");
                assert_eq!(pt.tlb_shootdowns(), flat.tlb_shootdowns);
                if step % 64 == 0 {
                    let mut pages: Vec<u64> = pt.pages().collect();
                    pages.sort_unstable();
                    let mut mapped: Vec<u64> = flat.ptes.keys().copied().collect();
                    mapped.sort_unstable();
                    assert_eq!(pages, mapped, "pages() is the mapped set");
                    let mut live_leaves: Vec<u64> =
                        mapped.iter().map(|p| p >> LEAF_SHIFT).collect();
                    live_leaves.dedup();
                    assert_eq!(
                        pt.leaves.len(),
                        live_leaves.len(),
                        "emptied leaves are dropped"
                    );
                    for cluster in clusters {
                        for i in 0..2 * LEAF {
                            let p = (cluster + i) << PAGE_SHIFT;
                            assert_eq!(pt.lookup(p), flat.ptes.get(&p).copied());
                        }
                    }
                }
            }
        }
        assert!(
            by_key > 1_000 && by_scan > 1_000,
            "both walks ran: {by_key} {by_scan}"
        );
    }

    #[test]
    #[should_panic(expected = "fit 31 bits")]
    fn frame_ids_must_leave_room_for_the_permission_bit() {
        PageTable::new((1 << 31) + 1);
    }

    #[test]
    fn refused_mapping_leaves_no_empty_leaf() {
        let mut pt = PageTable::new(1);
        pt.map(0x1000, false).unwrap();
        assert!(pt.map(1 << 40, false).is_none());
        assert_eq!(pt.leaves.len(), 1);
        assert_eq!(pt.pages().collect::<Vec<_>>(), vec![0x1000]);
    }

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
