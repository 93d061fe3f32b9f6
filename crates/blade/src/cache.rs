//! The compute blade's local DRAM cache.
//!
//! LOAD/STOREs from user threads are served from this cache; a miss (or a
//! store to a read-only cached page) triggers a page fault and the in-network
//! coherence protocol (paper §3.2). The cache is virtually addressed, tracks
//! writable/dirty pages, evicts LRU pages when full (writing dirty victims
//! back to memory blades), and — on receiving an invalidation for a region —
//! flushes all dirty pages in the region and unmaps the rest (§6.1).

use mind_sim::spare::reuse;

use crate::page::{PageData, PAGE_SIZE};
use crate::pagetable::{PageTable, Pte};

/// Result of probing the cache for an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLookup {
    /// Present with sufficient permission; served at DRAM latency.
    Hit,
    /// Not present; page fault fetches the page remotely.
    Miss,
    /// Present but read-only and the access is a store; page fault triggers
    /// a coherence upgrade (S→M) without re-fetching data.
    NeedUpgrade,
}

/// [`CacheLookup`] with the hit frame and its owner tag, so callers that
/// track per-page ownership (the per-domain local page tables of MIND's
/// coherence engine) read and update it in O(1) through the frame slab
/// instead of a second page-keyed map lookup per access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaggedLookup {
    /// Present with sufficient permission.
    Hit {
        /// Frame holding the page (for [`DramCache::set_frame_tag`]).
        frame: u32,
        /// The frame's owner tag (0 until first set).
        tag: u64,
    },
    /// Not present.
    Miss,
    /// Present read-only, store requested.
    NeedUpgrade,
}

/// What a cache's page table held for one page when
/// [`DramCache::probe`] looked: the admission gate reads it, and the access
/// that follows takes it instead of looking again. Good only until that
/// cache is next mutated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheProbe {
    page: u64,
    pte: Option<Pte>,
}

impl CacheProbe {
    /// The probed page (page-aligned VA).
    pub fn page(&self) -> u64 {
        self.page
    }

    /// Whether an access would leave the blade — a miss, or a store to a
    /// read-only page.
    pub fn would_fault(&self, is_write: bool) -> bool {
        self.pte.is_none_or(|pte| is_write && !pte.writable)
    }
}

/// A page evicted to make room, to be written back if dirty.
#[derive(Debug, Clone)]
pub struct Evicted {
    /// Page-aligned virtual address.
    pub page: u64,
    /// Whether the page was dirty (must be flushed to its memory blade).
    pub dirty: bool,
    /// Page contents, if data is being carried.
    pub data: Option<PageData>,
}

/// Result of applying an invalidation to the cache.
#[derive(Debug, Clone, Default)]
pub struct InvalidationOutcome {
    /// Dirty pages flushed back to memory blades (page address + data).
    pub flushed: Vec<(u64, Option<PageData>)>,
    /// Pages whose mapping was removed (excluding permission downgrades).
    pub unmapped: u32,
    /// Pages downgraded from writable to read-only (M→S).
    pub downgraded: u32,
}

impl InvalidationOutcome {
    /// Resets the outcome for reuse, keeping the `flushed` allocation.
    pub fn clear(&mut self) {
        self.flushed.clear();
        self.unmapped = 0;
        self.downgraded = 0;
    }
}

/// Sentinel for "no frame" in the intrusive LRU list.
const NO_FRAME: u32 = u32::MAX;

/// The `page` of a frame that holds none (never a page-aligned address).
const NO_PAGE: u64 = u64::MAX;

/// Per-frame metadata: the cached page occupying a local DRAM frame plus
/// its links in the intrusive LRU list. Keeping this in a frame-indexed
/// slab (instead of page-keyed maps) makes the hit path a single page-
/// table lookup followed by O(1) pointer updates — the dominant cost of
/// the access hot path before this layout.
#[derive(Debug, Clone)]
struct Frame {
    page: u64,
    dirty: bool,
    /// Opaque owner tag (e.g. the protection domain the page is mapped
    /// for); 0 until set, wiped on eviction/unmap with the frame.
    tag: u64,
    data: Option<PageData>,
    /// Toward the LRU end.
    prev: u32,
    /// Toward the MRU end.
    next: u32,
}

impl Frame {
    fn vacant() -> Self {
        Frame {
            page: NO_PAGE,
            dirty: false,
            tag: 0,
            data: None,
            prev: NO_FRAME,
            next: NO_FRAME,
        }
    }
}

/// The LRU DRAM page cache.
///
/// Layout: the page table maps page → frame id; `frames` holds per-frame
/// state indexed by frame id (reserved at the capacity, filled as frames
/// are first used); the frames form an intrusive doubly-linked LRU list
/// (`lru_head` = next victim, `lru_tail` = most recently used). The page
/// table is the only record of residency; region-range operations walk a
/// region's resident pages in it (see [`PageTable::unmap_range`]).
/// Eviction order is exactly least-recently-touched.
#[derive(Debug, Clone)]
pub struct DramCache {
    pt: PageTable,
    frames: Vec<Frame>,
    lru_head: u32,
    lru_tail: u32,
    evictions: u64,
}

impl DramCache {
    /// Creates a cache with room for `capacity_pages` pages.
    pub fn new(capacity_pages: u32) -> Self {
        Self::build(capacity_pages, None)
    }

    /// [`DramCache::new`], in a spare's page table and frame slab.
    pub fn build(capacity_pages: u32, spare: Option<Self>) -> Self {
        let (pt, frames) = spare.map(|c| (c.pt, c.frames)).unzip();
        let mut frames = reuse(frames);
        frames.reserve_exact(capacity_pages as usize);
        DramCache {
            pt: PageTable::build(capacity_pages, pt),
            frames,
            lru_head: NO_FRAME,
            lru_tail: NO_FRAME,
            evictions: 0,
        }
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> u32 {
        self.pt.n_frames()
    }

    /// Pages currently resident.
    pub fn resident_pages(&self) -> usize {
        self.pt.mapped()
    }

    /// Looks `page` up without touching anything: no LRU bump, no dirty
    /// mark.
    pub fn probe(&self, page: u64) -> CacheProbe {
        debug_assert_eq!(page % PAGE_SIZE, 0, "page-aligned address expected");
        CacheProbe {
            page,
            pte: self.pt.lookup(page),
        }
    }

    /// Detaches frame `f` from the LRU list.
    fn unlink(&mut self, f: u32) {
        Self::unlink_in(&mut self.frames, &mut self.lru_head, &mut self.lru_tail, f);
    }

    /// [`DramCache::unlink`] on the list's parts, for callers that hold the
    /// page table borrowed (a range walk).
    fn unlink_in(frames: &mut [Frame], lru_head: &mut u32, lru_tail: &mut u32, f: u32) {
        let Frame { prev, next, .. } = frames[f as usize];
        if prev == NO_FRAME {
            *lru_head = next;
        } else {
            frames[prev as usize].next = next;
        }
        if next == NO_FRAME {
            *lru_tail = prev;
        } else {
            frames[next as usize].prev = prev;
        }
    }

    /// Appends frame `f` at the MRU end of the LRU list.
    fn push_mru(&mut self, f: u32) {
        let tail = self.lru_tail;
        {
            let frame = &mut self.frames[f as usize];
            frame.prev = tail;
            frame.next = NO_FRAME;
        }
        if tail == NO_FRAME {
            self.lru_head = f;
        } else {
            self.frames[tail as usize].next = f;
        }
        self.lru_tail = f;
    }

    fn touch(&mut self, f: u32) {
        if self.lru_tail != f {
            self.unlink(f);
            self.push_mru(f);
        }
    }

    /// Probes the cache for an access to `page` (page-aligned VA):
    /// [`DramCache::access_probed`] without the frame and its tag.
    pub fn access(&mut self, page: u64, is_write: bool) -> CacheLookup {
        match self.access_probed(self.probe(page), is_write) {
            TaggedLookup::Hit { .. } => CacheLookup::Hit,
            TaggedLookup::Miss => CacheLookup::Miss,
            TaggedLookup::NeedUpgrade => CacheLookup::NeedUpgrade,
        }
    }

    /// The access to the probed page, without a second lookup: on a hit
    /// with `is_write`, marks the page dirty, and on every hit updates LRU
    /// recency and returns the frame's id and owner tag. The cache must not
    /// have been mutated since the probe (checked in debug builds).
    pub fn access_probed(&mut self, probe: CacheProbe, is_write: bool) -> TaggedLookup {
        debug_assert_eq!(probe, self.probe(probe.page), "stale cache probe");
        match probe.pte {
            None => TaggedLookup::Miss,
            Some(pte) if is_write && !pte.writable => TaggedLookup::NeedUpgrade,
            Some(pte) => {
                let frame = &mut self.frames[pte.frame as usize];
                if is_write {
                    frame.dirty = true;
                }
                let tag = frame.tag;
                self.touch(pte.frame);
                TaggedLookup::Hit {
                    frame: pte.frame,
                    tag,
                }
            }
        }
    }

    /// Sets the owner tag of a frame returned by
    /// [`DramCache::access_probed`].
    pub fn set_frame_tag(&mut self, frame: u32, tag: u64) {
        self.frames[frame as usize].tag = tag;
    }

    /// The owner tag of a resident page (0 until set).
    #[cfg(test)]
    fn page_tag(&self, page: u64) -> Option<u64> {
        let pte = self.pt.lookup(page)?;
        Some(self.frames[pte.frame as usize].tag)
    }

    /// Inserts a fetched page, evicting the LRU victim if the cache is full.
    /// Returns the eviction (if any) so the caller can write back dirty data.
    ///
    /// Under MSI a page is only fetched writable on a write fault, so a
    /// writable insert is immediately dirtied by the faulting store; use
    /// [`DramCache::insert_with`] for MESI's clean-but-writable Exclusive
    /// grants.
    ///
    /// # Panics
    ///
    /// Panics if `page` is already resident.
    pub fn insert(&mut self, page: u64, writable: bool, data: Option<PageData>) -> Option<Evicted> {
        self.insert_with(page, writable, writable, 0, data)
    }

    /// Inserts a page with explicit permission and dirty flags and its
    /// owner tag (see [`DramCache::access_probed`]).
    ///
    /// # Panics
    ///
    /// Panics if `page` is already resident.
    pub fn insert_with(
        &mut self,
        page: u64,
        writable: bool,
        dirty: bool,
        tag: u64,
        data: Option<PageData>,
    ) -> Option<Evicted> {
        let evicted = if self.pt.free_frames() == 0 {
            Some(self.evict_lru().expect("full cache has a victim"))
        } else {
            None
        };
        let pte = self
            .pt
            .map(page, writable)
            .expect("frame freed by eviction");
        let f = pte.frame as usize;
        if f >= self.frames.len() {
            // Fresh frame ids are handed out in ascending order, so the
            // slab grows by exactly one slot at a time.
            debug_assert_eq!(f, self.frames.len());
            self.frames.push(Frame::vacant());
        }
        self.frames[f] = Frame {
            page,
            dirty,
            tag,
            data,
            prev: NO_FRAME,
            next: NO_FRAME,
        };
        self.push_mru(pte.frame);
        evicted
    }

    /// Downgrades every writable page in the region to read-only while
    /// *keeping dirty pages dirty and unflushed* — the MOESI M→O
    /// transition, where the old owner retains the only up-to-date copy
    /// and serves it cache-to-cache (paper §8). Dirty data eventually
    /// reaches memory via eviction write-back or a later full
    /// invalidation. Writes into a reusable outcome buffer (cleared
    /// first).
    pub fn downgrade_region_keep_dirty_into(
        &mut self,
        region_base: u64,
        size_log2: u8,
        out: &mut InvalidationOutcome,
    ) {
        out.clear();
        self.pt.downgrade_range(region_base, size_log2, |_, pte| {
            out.downgraded += pte.writable as u32;
        });
    }

    fn evict_lru(&mut self) -> Option<Evicted> {
        let f = self.lru_head;
        if f == NO_FRAME {
            return None;
        }
        self.unlink(f);
        let frame = std::mem::replace(&mut self.frames[f as usize], Frame::vacant());
        self.pt.unmap(frame.page);
        self.evictions += 1;
        Some(Evicted {
            page: frame.page,
            dirty: frame.dirty,
            data: frame.data,
        })
    }

    /// Grants write permission to a cached page after an S→M upgrade and
    /// marks it dirty.
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident.
    pub fn grant_write(&mut self, page: u64) {
        let pte = self.pt.upgrade(page).expect("upgrading resident page");
        self.frames[pte.frame as usize].dirty = true;
        self.touch(pte.frame);
    }

    /// Applies an invalidation to every cached page in
    /// `[region_base, region_base + 2^size_log2)`.
    ///
    /// Dirty pages are flushed (returned with their data). With
    /// `downgrade_to_shared`, writable pages become read-only but stay
    /// resident (M→S); otherwise all pages in the region are unmapped.
    pub fn invalidate_region(
        &mut self,
        region_base: u64,
        size_log2: u8,
        downgrade_to_shared: bool,
    ) -> InvalidationOutcome {
        let mut out = InvalidationOutcome::default();
        self.invalidate_region_into(region_base, size_log2, downgrade_to_shared, &mut out);
        out
    }

    /// [`DramCache::invalidate_region`] writing into a reusable outcome
    /// buffer (cleared first) instead of allocating one.
    pub fn invalidate_region_into(
        &mut self,
        region_base: u64,
        size_log2: u8,
        downgrade_to_shared: bool,
        out: &mut InvalidationOutcome,
    ) {
        out.clear();
        let frames = &mut self.frames;
        if downgrade_to_shared {
            self.pt
                .downgrade_range(region_base, size_log2, |page, pte| {
                    let frame = &mut frames[pte.frame as usize];
                    if frame.dirty {
                        // The page stays resident and shares its bytes with the
                        // write-back.
                        out.flushed.push((page, frame.data.clone()));
                        frame.dirty = false;
                    }
                    out.downgraded += pte.writable as u32;
                });
        } else {
            let (lru_head, lru_tail) = (&mut self.lru_head, &mut self.lru_tail);
            self.pt.unmap_range(region_base, size_log2, |page, pte| {
                Self::unlink_in(frames, lru_head, lru_tail, pte.frame);
                let frame = std::mem::replace(&mut frames[pte.frame as usize], Frame::vacant());
                if frame.dirty {
                    // An unmapped page hands its bytes to the write-back.
                    out.flushed.push((page, frame.data));
                }
                out.unmapped += 1;
            });
        }
    }

    /// Number of resident pages within a region.
    #[cfg(test)]
    fn resident_in_region(&self, region_base: u64, size_log2: u8) -> usize {
        let mut resident = 0;
        self.pt
            .for_each_in_range(region_base, size_log2, |_, _| resident += 1);
        resident
    }

    /// Number of *dirty* resident pages within a region.
    #[cfg(test)]
    fn dirty_in_region(&self, region_base: u64, size_log2: u8) -> usize {
        let mut dirty = 0;
        self.pt.for_each_in_range(region_base, size_log2, |_, pte| {
            dirty += self.frames[pte.frame as usize].dirty as usize;
        });
        dirty
    }

    /// Whether `page` is resident.
    pub fn contains(&self, page: u64) -> bool {
        self.pt.lookup(page).is_some()
    }

    /// Whether `page` is resident and writable.
    pub fn is_writable(&self, page: u64) -> bool {
        self.pt.lookup(page).is_some_and(|pte| pte.writable)
    }

    /// A handle to the contents of a resident page (cache-to-cache supply).
    pub fn page_data(&self, page: u64) -> Option<PageData> {
        let pte = self.pt.lookup(page)?;
        self.frames[pte.frame as usize].data.clone()
    }

    /// Reads bytes from a resident page.
    pub fn read_data(&self, page: u64, offset: usize, buf: &mut [u8]) -> bool {
        let Some(pte) = self.pt.lookup(page) else {
            return false;
        };
        match self.frames[pte.frame as usize].data.as_ref() {
            Some(data) => {
                data.read(offset, buf);
                true
            }
            None => false,
        }
    }

    /// Writes bytes into a resident page (caller must hold write permission).
    pub fn write_data(&mut self, page: u64, offset: usize, buf: &[u8]) -> bool {
        let Some(pte) = self.pt.lookup(page) else {
            return false;
        };
        let frame = &mut self.frames[pte.frame as usize];
        match frame.data.as_mut() {
            Some(data) => {
                data.write(offset, buf);
                frame.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Evictions performed.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// TLB shootdowns incurred (from unmaps/downgrades).
    pub fn tlb_shootdowns(&self) -> u64 {
        self.pt.tlb_shootdowns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SHIFT;

    #[test]
    fn frame_tags_track_ownership_and_reset_on_eviction() {
        let mut c = DramCache::new(1);
        c.insert_with(0x1000, false, false, 7, None);
        assert_eq!(c.page_tag(0x1000), Some(7), "tagged at insert");
        match c.access_probed(c.probe(0x1000), false) {
            TaggedLookup::Hit { frame, tag } => {
                assert_eq!(tag, 7);
                c.set_frame_tag(frame, 9);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.page_tag(0x1000), Some(9));
        // Eviction recycles the frame with a clean tag.
        c.insert(0x2000, false, None);
        assert_eq!(c.page_tag(0x1000), None, "evicted");
        assert_eq!(c.page_tag(0x2000), Some(0), "fresh frame untagged");
        // Tagged probe mirrors the plain probe's misses and upgrades.
        assert_eq!(c.access_probed(c.probe(0x3000), false), TaggedLookup::Miss);
        let upgrade = c.access_probed(c.probe(0x2000), true);
        assert_eq!(upgrade, TaggedLookup::NeedUpgrade);
    }

    #[test]
    fn a_probe_reads_without_touching_and_feeds_the_access() {
        let mut c = DramCache::new(2);
        c.insert(0x1000, false, None);
        c.insert(0x2000, true, None);
        let probe = c.probe(0x1000);
        assert_eq!(probe.page(), 0x1000);
        assert!(!probe.would_fault(false) && probe.would_fault(true));
        assert!(c.probe(0x3000).would_fault(false), "absent page");
        assert!(!c.probe(0x2000).would_fault(true), "writable page");
        // The probe did not bump 0x1000: it is still the LRU victim.
        assert!(matches!(
            c.access_probed(c.probe(0x2000), true),
            TaggedLookup::Hit { .. }
        ));
        assert_eq!(c.insert(0x3000, false, None).map(|e| e.page), Some(0x1000));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale cache probe")]
    fn a_probe_from_before_a_mutation_is_refused() {
        let mut c = DramCache::new(1);
        let probe = c.probe(0x1000);
        c.insert(0x1000, false, None);
        c.access_probed(probe, false);
    }

    /// Region invalidation against the ordered resident set it used to
    /// keep: the flush list (ascending dirty pages), the unmap / downgrade
    /// counts and what stays resident must match for all three kinds of
    /// invalidation — unmap, downgrade with write-back, and the MOESI
    /// downgrade that keeps dirty pages dirty. Dense caches under regions
    /// from one page to 2^19 bytes, and caches of at most three pages under
    /// regions of 128 to 512 pages.
    #[test]
    fn region_invalidation_matches_sorted_reference() {
        use mind_sim::SimRng;
        use std::collections::BTreeMap;
        // (seed, capacity, resident pages, span in pages, region sizes).
        for (seed, capacity, fill, span_pages, (min_log2, max_log2)) in [
            (1u64, 8u32, 5u64, 512u64, (12u8, 19u8)),
            (2, 64, 40, 512, (12, 19)),
            (3, 512, 300, 512, (12, 19)),
            (4, 512, 512, 512, (12, 19)),
            (5, 8, 3, 4_096, (19, 21)),
            (6, 512, 2, 4_096, (19, 21)),
        ] {
            let mut rng = SimRng::new(seed);
            let mut cache = DramCache::new(capacity);
            // page -> (writable, dirty): the reference, in address order.
            let mut resident: BTreeMap<u64, (bool, bool)> = BTreeMap::new();
            let mut out = InvalidationOutcome::default();
            let mut kept_dirty = 0;
            for round in 0..400 {
                // Top the cache back up with random pages.
                while (resident.len() as u64) < fill.min(capacity as u64) {
                    let page = rng.gen_below(span_pages) << PAGE_SHIFT;
                    if resident.contains_key(&page) {
                        continue;
                    }
                    let (writable, dirty) = (rng.gen_bool(0.6), rng.gen_bool(0.5));
                    cache.insert_with(page, writable, writable && dirty, 0, None);
                    resident.insert(page, (writable, writable && dirty));
                }
                let size_log2 = min_log2 + rng.gen_below((max_log2 - min_log2) as u64 + 1) as u8;
                let region_pages = 1u64 << (size_log2 - PAGE_SHIFT);
                let base = (rng.gen_below(span_pages) / region_pages * region_pages) << PAGE_SHIFT;
                let end = base + (1u64 << size_log2);
                let in_region: Vec<(u64, (bool, bool))> =
                    resident.range(base..end).map(|(&p, &f)| (p, f)).collect();
                let dirty: Vec<u64> = in_region
                    .iter()
                    .filter(|(_, (_, d))| *d)
                    .map(|&(p, _)| p)
                    .collect();
                let writable = in_region.iter().filter(|(_, (w, _))| *w).count() as u32;

                assert_eq!(cache.resident_in_region(base, size_log2), in_region.len());
                assert_eq!(cache.dirty_in_region(base, size_log2), dirty.len());
                let kind = round % 4;
                match kind {
                    0 => cache.invalidate_region_into(base, size_log2, true, &mut out),
                    1 => cache.downgrade_region_keep_dirty_into(base, size_log2, &mut out),
                    _ => cache.invalidate_region_into(base, size_log2, false, &mut out),
                }
                let flushed: Vec<u64> = out.flushed.iter().map(|&(p, _)| p).collect();
                if kind == 1 {
                    assert_eq!(flushed, [], "kept, not flushed");
                    assert_eq!(cache.dirty_in_region(base, size_log2), dirty.len());
                    kept_dirty += dirty.len();
                } else {
                    assert_eq!(flushed, dirty, "flush order, seed {seed} round {round}");
                    assert_eq!(cache.dirty_in_region(base, size_log2), 0, "flush-once");
                }
                if kind <= 1 {
                    assert_eq!((out.unmapped, out.downgraded), (0, writable));
                    for (page, (_, was_dirty)) in in_region {
                        resident.insert(page, (false, was_dirty && kind == 1));
                        assert!(cache.contains(page) && !cache.is_writable(page));
                    }
                } else {
                    assert_eq!((out.unmapped, out.downgraded), (in_region.len() as u32, 0));
                    for (page, _) in in_region {
                        resident.remove(&page);
                        assert!(!cache.contains(page));
                    }
                }
                assert_eq!(cache.resident_pages(), resident.len());
            }
            assert!(kept_dirty > 0, "a downgrade kept dirty pages, seed {seed}");
        }
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut c = DramCache::new(4);
        assert_eq!(c.access(0x1000, false), CacheLookup::Miss);
        c.insert(0x1000, false, None);
        assert_eq!(c.access(0x1000, false), CacheLookup::Hit);
    }

    #[test]
    fn store_to_read_only_page_needs_upgrade() {
        let mut c = DramCache::new(4);
        c.insert(0x1000, false, None);
        assert_eq!(c.access(0x1000, true), CacheLookup::NeedUpgrade);
        c.grant_write(0x1000);
        assert_eq!(c.access(0x1000, true), CacheLookup::Hit);
        assert!(c.is_writable(0x1000));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = DramCache::new(2);
        c.insert(0x1000, false, None);
        c.insert(0x2000, false, None);
        // Touch 0x1000 so 0x2000 becomes LRU.
        c.access(0x1000, false);
        let evicted = c.insert(0x3000, false, None).expect("cache full");
        assert_eq!(evicted.page, 0x2000);
        assert!(!evicted.dirty);
        assert!(c.contains(0x1000) && c.contains(0x3000));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = DramCache::new(1);
        c.insert(0x1000, true, None);
        c.access(0x1000, true); // Mark dirty.
        let evicted = c.insert(0x2000, false, None).unwrap();
        assert!(evicted.dirty);
    }

    #[test]
    fn invalidate_region_flushes_dirty_and_unmaps_all() {
        let mut c = DramCache::new(8);
        // Region [0x0, 0x4000): 4 pages; cache 3 of them, 2 dirty.
        c.insert(0x0000, true, None);
        c.insert(0x1000, true, None);
        c.insert(0x2000, false, None);
        c.access(0x0000, true);
        c.access(0x1000, true);
        // Outside the region.
        c.insert(0x8000, true, None);
        c.access(0x8000, true);

        let out = c.invalidate_region(0x0, 14, false);
        assert_eq!(out.flushed.len(), 2);
        assert_eq!(out.unmapped, 3);
        assert_eq!(out.downgraded, 0);
        assert!(!c.contains(0x0000) && !c.contains(0x1000) && !c.contains(0x2000));
        assert!(c.contains(0x8000), "outside region untouched");
    }

    #[test]
    fn downgrade_invalidation_keeps_pages_read_only() {
        let mut c = DramCache::new(4);
        c.insert(0x1000, true, None);
        c.access(0x1000, true);
        let out = c.invalidate_region(0x0, 14, true);
        assert_eq!(out.flushed.len(), 1, "dirty page flushed");
        assert_eq!(out.downgraded, 1);
        assert_eq!(out.unmapped, 0);
        assert!(c.contains(0x1000), "page stays resident");
        assert!(!c.is_writable(0x1000));
        // A subsequent read hits; a write needs an upgrade.
        assert_eq!(c.access(0x1000, false), CacheLookup::Hit);
        assert_eq!(c.access(0x1000, true), CacheLookup::NeedUpgrade);
    }

    #[test]
    fn invalidation_is_flush_once() {
        let mut c = DramCache::new(4);
        c.insert(0x1000, true, None);
        c.access(0x1000, true);
        let first = c.invalidate_region(0x0, 20, true);
        assert_eq!(first.flushed.len(), 1);
        // Second invalidation: page is clean now, nothing to flush.
        let second = c.invalidate_region(0x0, 20, true);
        assert!(second.flushed.is_empty());
    }

    #[test]
    fn region_residency_counts() {
        let mut c = DramCache::new(8);
        c.insert(0x0000, true, None);
        c.insert(0x1000, false, None);
        c.insert(0x4000, false, None);
        c.access(0x0000, true);
        // A 16 KB region at 0 covers [0x0, 0x4000): pages 0x0000 and 0x1000.
        assert_eq!(c.resident_in_region(0x0, 14), 2);
        assert_eq!(c.dirty_in_region(0x0, 14), 1);
        assert_eq!(c.resident_in_region(0x0, 12), 1);
        // A 32 KB region additionally covers 0x4000.
        assert_eq!(c.resident_in_region(0x0, 15), 3);
    }

    #[test]
    fn data_read_write_roundtrip() {
        let mut c = DramCache::new(2);
        c.insert(0x1000, true, Some(PageData::zeroed()));
        assert!(c.write_data(0x1000, 16, b"mind"));
        let mut buf = [0u8; 4];
        assert!(c.read_data(0x1000, 16, &mut buf));
        assert_eq!(&buf, b"mind");
        // Pages without data refuse data ops.
        c.insert(0x2000, true, None);
        assert!(!c.read_data(0x2000, 0, &mut buf));
        assert!(!c.write_data(0x2000, 0, b"x"));
        assert!(!c.read_data(0x9000, 0, &mut buf), "non-resident");
    }

    #[test]
    fn flushed_data_travels_with_invalidation() {
        let mut c = DramCache::new(2);
        c.insert(0x1000, true, Some(PageData::zeroed()));
        c.write_data(0x1000, 0, b"dirty!");
        let out = c.invalidate_region(0x1000, 12, false);
        let (page, data) = &out.flushed[0];
        assert_eq!(*page, 0x1000);
        let mut buf = [0u8; 6];
        data.as_ref().unwrap().read(0, &mut buf);
        assert_eq!(&buf, b"dirty!");
    }

    #[test]
    fn tlb_shootdowns_surface_from_pagetable() {
        let mut c = DramCache::new(4);
        c.insert(0x1000, true, None);
        c.insert(0x2000, false, None);
        c.invalidate_region(0x0, 16, false);
        assert_eq!(c.tlb_shootdowns(), 2);
    }

    #[test]
    fn eviction_then_reinsert_same_page() {
        let mut c = DramCache::new(1);
        c.insert(0x1000, false, None);
        c.insert(0x2000, false, None); // Evicts 0x1000.
        assert_eq!(c.access(0x1000, false), CacheLookup::Miss);
        c.insert(0x1000, false, None); // Evicts 0x2000.
        assert_eq!(c.access(0x1000, false), CacheLookup::Hit);
        assert_eq!(c.resident_pages(), 1);
    }

    /// The frame slab is reserved at the capacity it models: filling the
    /// cache, evicting through it and rebuilding it never moves the slab.
    #[test]
    fn filling_to_capacity_never_moves_the_frame_slab() {
        let mut c = DramCache::new(300);
        let slab = c.frames.as_ptr();
        for page in 0..301u64 {
            c.insert(page << PAGE_SHIFT, false, None);
            assert_eq!(c.frames.as_ptr(), slab, "moved at page {page}");
        }
        assert_eq!(c.resident_pages(), 300);
        let mut c = DramCache::build(300, Some(c));
        c.insert(0, true, None);
        assert_eq!(c.frames.as_ptr(), slab);
    }
}
