//! The in-network cache directory (paper §4.3, §6.3).
//!
//! Directory entries live in switch SRAM slots and track *regions* —
//! power-of-two sized, size-aligned virtual ranges whose granularity is
//! decoupled from the 4 KB page granularity of cache accesses (§4.3.1).
//! Each entry records the MSI state and the sharer list; entries are
//! created lazily when a page in the region is first cached, split/merged
//! by the bounded-splitting algorithm (§5), and *force-merged* when the
//! SRAM capacity is reached — the capacity pressure that pins Memcached
//! workloads at the 30 k limit in Figure 8 (left).

use mind_blade::PAGE_SHIFT;
use mind_net::node::BladeSet;
use mind_sim::SimTime;
use mind_switch::sram::{SlotStore, SramFull};

/// Coherence states (§2.1). MIND runs MSI; the Exclusive and Owned states
/// appear only when the switch is configured with the MESI/MOESI
/// state-transition tables of paper §8 ("Other coherence protocols").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsiState {
    /// Not present in any compute-blade cache.
    Invalid,
    /// One or more blades hold read-only copies.
    Shared,
    /// Exactly one blade owns the region read-write.
    Modified,
    /// MESI: one blade holds the region with write permission but the
    /// memory copy is (initially) clean; treated like Modified when
    /// leaving the state, since it may have been silently dirtied.
    Exclusive,
    /// MOESI: one blade holds a dirty copy it serves to (clean) sharers
    /// cache-to-cache; memory is stale until the owner flushes.
    Owned,
}

/// One epoch's activity snapshot for a region (bounded-splitting input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochCounter {
    /// Region base.
    pub base: u64,
    /// log2 of the region size in bytes.
    pub size_log2: u8,
    /// False invalidations charged to the region this epoch.
    pub false_inv: u32,
    /// Invalidation rounds on the region this epoch.
    pub invalidations: u32,
}

/// One directory entry: the coherence state of a region.
#[derive(Debug, Clone)]
pub struct DirEntry {
    /// log2 of the region size in bytes.
    pub size_log2: u8,
    /// Current MSI state.
    pub state: MsiState,
    /// Blades holding the region (singleton owner when `Modified`).
    pub sharers: BladeSet,
    /// The distinguished owner for `Owned` regions (MOESI): the blade that
    /// holds the dirty data and serves cache-to-cache fetches.
    pub owner_blade: Option<u16>,
    /// The region is mid-transition until this time; later requests queue.
    pub busy_until: SimTime,
    /// Invalidations sent for this region in the current epoch.
    pub epoch_invalidations: u32,
    /// False invalidations charged to this region in the current epoch
    /// (bounded splitting's split signal, §5).
    pub epoch_false_inv: u32,
    /// This entry's place among the directory's buddy pairs; set and
    /// cleared by `install` / `uninstall` only.
    pair: PairLinks,
}

/// "No slot": an absent buddy, or the end of the pair list.
const NO_SLOT: u32 = u32::MAX;

/// A *buddy pair* is both halves of an aligned block present at one size:
/// the only regions [`RegionDirectory::merge`] can coalesce. The directory
/// threads its pairs on a doubly-linked list kept in the entries
/// themselves, so that the merge passes walk pairs, not slots, and listing
/// allocates nothing. A pair's two links are split between its halves.
/// Slots are stable while their entries are installed, and a pair is
/// listed exactly that long.
#[derive(Debug, Clone, Copy)]
struct PairLinks {
    /// Slot of the same-size buddy.
    buddy: u32,
    /// Left half of a neighbouring pair: the next one when held by a left
    /// half, the previous one when held by a right half.
    link: u32,
}

impl PairLinks {
    const NONE: PairLinks = PairLinks {
        buddy: NO_SLOT,
        link: NO_SLOT,
    };
}

impl DirEntry {
    fn new(size_log2: u8) -> Self {
        DirEntry {
            size_log2,
            state: MsiState::Invalid,
            sharers: BladeSet::EMPTY,
            owner_blade: None,
            busy_until: SimTime::ZERO,
            epoch_invalidations: 0,
            epoch_false_inv: 0,
            pair: PairLinks::NONE,
        }
    }

    /// Region-busy arbitration: when a transition reaching the directory
    /// pipeline at `t_pipe` may actually execute. Transitions on one
    /// region serialize — a region mid-transition (invalidation round
    /// outstanding, §4.4) holds later requests at `busy_until`. This is
    /// the single place that ordering rule lives; the issue/complete
    /// datapath relies on it so that overlapped batches can never reorder
    /// same-region transitions.
    pub fn admit_transition(&self, t_pipe: SimTime) -> SimTime {
        t_pipe.max(self.busy_until)
    }

    /// The owner blade: the exclusive holder for `Modified`/`Exclusive`,
    /// the dirty-data supplier for `Owned`.
    pub fn owner(&self) -> Option<u16> {
        match self.state {
            MsiState::Modified | MsiState::Exclusive => self.sharers.sole_member(),
            MsiState::Owned => self.owner_blade,
            _ => None,
        }
    }

    /// Whether this entry can merge with `other` without violating
    /// coherence: merging must not grant any blade more rights than it has.
    fn mergeable_with(&self, other: &DirEntry) -> bool {
        match (self.state, other.state) {
            (MsiState::Invalid, _) | (_, MsiState::Invalid) => true,
            (MsiState::Shared, MsiState::Shared) => true,
            // Owned regions carry a dirty supplier: merging would couple
            // its flush obligations with unrelated pages — never merged
            // except with Invalid (handled above).
            (MsiState::Owned, _) | (_, MsiState::Owned) => false,
            // Merging M/E with M/E/S would mix an exclusive owner with
            // other holders; only allowed when the sharer sets coincide on
            // the single owner.
            _ => self.sharers == other.sharers && self.sharers.len() == 1,
        }
    }

    fn merged_with(&self, other: &DirEntry) -> DirEntry {
        let state = match (self.state, other.state) {
            (MsiState::Invalid, s) | (s, MsiState::Invalid) => s,
            (MsiState::Shared, MsiState::Shared) => MsiState::Shared,
            (a, b) if a == b => a,
            // Mixed exclusive-ish states with the same single holder:
            // conservatively Modified.
            _ => MsiState::Modified,
        };
        DirEntry {
            size_log2: self.size_log2 + 1,
            state,
            sharers: self.sharers.union(other.sharers),
            owner_blade: self.owner_blade.or(other.owner_blade),
            busy_until: self.busy_until.max(other.busy_until),
            epoch_invalidations: self.epoch_invalidations + other.epoch_invalidations,
            epoch_false_inv: self.epoch_false_inv + other.epoch_false_inv,
            pair: PairLinks::NONE,
        }
    }
}

/// A resolved directory region: where its entry sits in the slot slab,
/// plus its bounds. Resolving costs a few hash probes; every later step of
/// the same fault (gate, transition, directory update, invalidation
/// accounting) reaches the entry through the handle with none.
///
/// A handle is valid while the region *map* is unchanged — until the next
/// create, split, merge or remove, each of which bumps
/// [`RegionDirectory::generation`]. Entry contents (state, sharers,
/// counters) may change freely underneath it. Using a stale handle panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionRef {
    slot: usize,
    base: u64,
    size_log2: u8,
    generation: u64,
}

impl RegionRef {
    /// Region base address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// log2 of the region size in bytes.
    pub fn size_log2(&self) -> u8 {
        self.size_log2
    }

    /// `(base, size_log2)`, the form the window gates and reports carry.
    pub fn bounds(&self) -> (u64, u8) {
        (self.base, self.size_log2)
    }

    /// Whether `addr` lies inside the region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr - self.base < 1u64 << self.size_log2
    }
}

/// Entries in the directory's resolution memo: enough that the pending
/// ops of a rack's concurrently gated threads rarely evict one another.
const MEMO_WAYS: usize = 32;

/// The region directory.
///
/// The slot store (slab + `base → slot` map, paper §6.3) is the only owner
/// of the region map. Regions are size-aligned and disjoint, so the region
/// containing an address, if any, starts at that address rounded down to
/// one of the size classes in use: lookup probes the slot map once per
/// *populated* class and needs no ordered index.
#[derive(Debug)]
pub struct RegionDirectory {
    slots: SlotStore<DirEntry>,
    /// Regions per size class (`size_log2`).
    class_count: [u32; 64],
    /// Bit `k` is set exactly while `class_count[k] > 0`.
    classes: u64,
    /// The populated size classes, the one with most regions first: the
    /// order [`RegionDirectory::probe`] tries them in.
    by_count: Vec<u8>,
    /// Left half of the first listed buddy pair (see [`PairLinks`]).
    pair_head: u32,
    /// Recent resolutions, direct-mapped by page number and valid while
    /// their generation is current: the issue gate resolves an op's
    /// region, and the re-offers of a gated op and the fault that finally
    /// follows (same page, possibly an epoch tick later) find it here.
    memo: [Option<RegionRef>; MEMO_WAYS],
    /// Bases whose epoch counters went zero → nonzero since the last drain.
    /// Keeps per-epoch maintenance O(active regions), not O(capacity); may
    /// hold stale or duplicate bases (split/merge/remove churn), which the
    /// drain filters out.
    touched: Vec<u64>,
    initial_region_log2: u8,
    /// Bumped on every change to the region *map* (create/split/merge/
    /// remove): the validity guard of every [`RegionRef`].
    generation: u64,
    splits: u64,
    merges: u64,
    forced_merges: u64,
    total_false_inv: u64,
    total_invalidations: u64,
}

impl RegionDirectory {
    /// Creates a directory with `capacity` SRAM slots and the given initial
    /// region size (16 KB default in MIND, §5).
    pub fn new(capacity: usize, initial_region_log2: u8) -> Self {
        assert!(initial_region_log2 >= PAGE_SHIFT, "region below page size");
        RegionDirectory {
            slots: SlotStore::new(capacity),
            class_count: [0; 64],
            classes: 0,
            by_count: Vec::new(),
            pair_head: NO_SLOT,
            memo: [None; MEMO_WAYS],
            touched: Vec::new(),
            initial_region_log2,
            generation: 0,
            splits: 0,
            merges: 0,
            forced_merges: 0,
            total_false_inv: 0,
            total_invalidations: 0,
        }
    }

    /// Directory entries installed.
    pub fn entries(&self) -> usize {
        self.slots.used()
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// SRAM utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.slots.utilization()
    }

    /// Installs a region entry, accounts its size class and lists the buddy
    /// pair it completes, if any (one probe for the buddy).
    fn install(&mut self, base: u64, entry: DirEntry) -> Result<usize, SramFull> {
        let k = entry.size_log2;
        let slot = self.slots.insert(base, entry)?;
        self.class_count[k as usize] += 1;
        self.classes |= 1u64 << k;
        self.rerank(k);
        let buddy = self
            .slots
            .slot_of(base ^ (1u64 << k))
            .filter(|&buddy| self.slots.at(buddy).size_log2 == k);
        if let Some(buddy) = buddy {
            let as_link = |slot: usize| u32::try_from(slot).expect("directory slots fit 32 bits");
            let (new, buddy) = (as_link(slot), as_link(buddy));
            let (left, right) = if base & (1u64 << k) == 0 {
                (new, buddy)
            } else {
                (buddy, new)
            };
            self.slots.at_mut(left as usize).pair = PairLinks {
                buddy: right,
                link: self.pair_head,
            };
            self.slots.at_mut(right as usize).pair = PairLinks {
                buddy: left,
                link: NO_SLOT,
            };
            self.set_prev_of(self.pair_head, left);
            self.pair_head = left;
        }
        Ok(slot)
    }

    /// Removes a region entry, accounts its size class and unlists the
    /// buddy pair it was half of, if any.
    fn uninstall(&mut self, base: u64) -> Option<DirEntry> {
        let entry = self.slots.remove(base)?;
        let k = entry.size_log2;
        self.class_count[k as usize] -= 1;
        if self.class_count[k as usize] == 0 {
            self.classes &= !(1u64 << k);
        }
        self.rerank(k);
        let buddy = entry.pair.buddy;
        if buddy != NO_SLOT {
            let survivor =
                std::mem::replace(&mut self.slots.at_mut(buddy as usize).pair, PairLinks::NONE);
            let (next, prev) = if base & (1u64 << k) == 0 {
                (entry.pair.link, survivor.link)
            } else {
                (survivor.link, entry.pair.link)
            };
            if prev == NO_SLOT {
                self.pair_head = next;
            } else {
                self.slots.at_mut(prev as usize).pair.link = next;
            }
            self.set_prev_of(next, prev);
        }
        Some(entry)
    }

    /// Points the pair whose left half sits in slot `pair` (if any) back at
    /// `prev`; the right half holds that link.
    fn set_prev_of(&mut self, pair: u32, prev: u32) {
        if pair != NO_SLOT {
            let right = self.slots.at(pair as usize).pair.buddy;
            self.slots.at_mut(right as usize).pair.link = prev;
        }
    }

    /// The listed buddy pairs as `(left base, left half, right half)`, in
    /// no particular order.
    fn pairs(&self) -> impl Iterator<Item = (u64, &DirEntry, &DirEntry)> + '_ {
        let mut at = self.pair_head;
        std::iter::from_fn(move || {
            (at != NO_SLOT).then(|| {
                let (base, left) = self.slots.at_with_base(at as usize);
                at = left.pair.link;
                (base, left, self.slots.at(left.pair.buddy as usize))
            })
        })
    }

    /// Restores `by_count`'s order after class `k` gained or lost a region.
    fn rerank(&mut self, k: u8) {
        let count = |c: u8| self.class_count[c as usize];
        let order = &mut self.by_count;
        let mut i = order.iter().position(|&c| c == k).unwrap_or_else(|| {
            order.push(k);
            order.len() - 1
        });
        while i > 0 && count(order[i - 1]) < count(k) {
            order.swap(i - 1, i);
            i -= 1;
        }
        while i + 1 < order.len() && count(order[i + 1]) > count(k) {
            order.swap(i, i + 1);
            i += 1;
        }
        if count(k) == 0 {
            order.pop(); // Every other listed class has a region: `k` sank last.
        }
    }

    /// Resolves the region containing `addr` by probing the populated size
    /// classes, most regions first (regions are disjoint, so the order
    /// cannot change the answer).
    fn probe(&self, addr: u64) -> Option<RegionRef> {
        let floor = |k: u8| addr & !((1u64 << k) - 1);
        for (i, &k) in self.by_count.iter().enumerate() {
            let base = floor(k);
            // Zero bits of `addr` make neighbouring classes round to the
            // same base; the probe made for one answers for all of them.
            if self.by_count[..i].iter().any(|&j| floor(j) == base) {
                continue;
            }
            if let Some(slot) = self.slots.slot_of(base) {
                let size_log2 = self.slots.at(slot).size_log2;
                if addr - base < 1u64 << size_log2 {
                    return Some(RegionRef {
                        slot,
                        base,
                        size_log2,
                        generation: self.generation,
                    });
                }
            }
        }
        None
    }

    fn memo_way(addr: u64) -> usize {
        (addr >> PAGE_SHIFT) as usize % MEMO_WAYS
    }

    /// Resolves the region containing `addr` to a handle, remembering it
    /// for the next resolution of the same page.
    pub fn lookup(&mut self, addr: u64) -> Option<RegionRef> {
        let way = Self::memo_way(addr);
        let hit = self.memo[way].filter(|m| m.generation == self.generation && m.contains(addr));
        if hit.is_some() {
            return hit;
        }
        let found = self.probe(addr)?;
        self.memo[way] = Some(found);
        Some(found)
    }

    /// The region `(base, size_log2)` containing `addr`, if tracked.
    pub fn region_of(&self, addr: u64) -> Option<(u64, u8)> {
        self.probe(addr).map(|r| r.bounds())
    }

    /// The entry behind a live handle.
    ///
    /// # Panics
    ///
    /// Panics if the region map changed since `region` was resolved.
    pub fn entry_at(&self, region: RegionRef) -> &DirEntry {
        assert_eq!(region.generation, self.generation, "stale region handle");
        self.slots.at(region.slot)
    }

    /// Mutable access to the entry behind a live handle.
    ///
    /// # Panics
    ///
    /// Panics if the region map changed since `region` was resolved.
    pub fn entry_at_mut(&mut self, region: RegionRef) -> &mut DirEntry {
        assert_eq!(region.generation, self.generation, "stale region handle");
        self.slots.at_mut(region.slot)
    }

    /// Immutable entry access.
    pub fn entry(&self, base: u64) -> Option<&DirEntry> {
        self.slots.get(base)
    }

    /// Mutable entry access.
    pub fn entry_mut(&mut self, base: u64) -> Option<&mut DirEntry> {
        self.slots.get_mut(base)
    }

    /// Finds or creates the region entry containing `addr`.
    ///
    /// New regions start at the configured initial size, *coarsened* under
    /// SRAM pressure (the capacity-adaptive analog of §5's `c` adjustment:
    /// as utilization climbs, fresh entries must each cover more address
    /// space or the directory cannot track the working set at all) and
    /// shrunk as needed to avoid overlapping existing finer regions. At
    /// full occupancy, force-merges the coldest compatible buddy pair; if
    /// nothing can merge, returns [`SramFull`] and the caller must bypass
    /// the cache.
    pub fn ensure(&mut self, addr: u64) -> Result<RegionRef, SramFull> {
        if let Some(found) = self.lookup(addr) {
            return Ok(found);
        }
        // Pressure-adaptive creation size: up to 2 MB extra coarseness as
        // the directory approaches capacity.
        let boost = match self.utilization() {
            u if u > 0.90 => 5,
            u if u > 0.80 => 4,
            u if u > 0.65 => 3,
            u if u > 0.50 => 2,
            u if u > 0.35 => 1,
            _ => 0,
        };
        let size_log2 = self.largest_free_block(addr, (self.initial_region_log2 + boost).min(30));
        let base = addr & !((1u64 << size_log2) - 1);
        if self.slots.free() == 0 {
            self.force_merge_one()?;
        }
        let slot = self.install(base, DirEntry::new(size_log2))?;
        self.generation += 1;
        let created = RegionRef {
            slot,
            base,
            size_log2,
            generation: self.generation,
        };
        self.memo[Self::memo_way(addr)] = Some(created);
        Ok(created)
    }

    /// [`RegionDirectory::ensure`] returning the bare `(base, size_log2)`.
    pub fn ensure_region(&mut self, addr: u64) -> Result<(u64, u8), SramFull> {
        self.ensure(addr).map(|r| r.bounds())
    }

    /// The region-map generation (see the field docs): a [`RegionRef`] is
    /// valid exactly while it is unchanged.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// log2 of the largest aligned block, at most `2^cap`, that contains
    /// `addr` and overlaps no region. Requires that no region contains
    /// `addr`, so an overlapping region lies strictly inside the block.
    ///
    /// Grows the block from the smallest populated size class `j` — a
    /// block that small cannot hold a whole region beside `addr` — one
    /// level at a time while the sibling half is empty. A region inside
    /// the sibling starts at a multiple of `2^j`, so `sibling / 2^j`
    /// probes of the slot map decide each level, and the first region
    /// found ends the search: in a populated neighbourhood that is a
    /// handful of probes.
    fn largest_free_block(&self, addr: u64, cap: u8) -> u8 {
        let smallest = self.classes.trailing_zeros() as u8;
        let mut k = smallest.min(cap);
        while k < cap {
            let sibling = (addr & !((1u64 << k) - 1)) ^ (1u64 << k);
            let occupied =
                (0..1u64 << (k - smallest)).any(|i| self.slots.contains(sibling + (i << smallest)));
            if occupied {
                break;
            }
            k += 1;
        }
        k
    }

    /// Splits the region at `base` into two halves (bounded splitting, §5).
    ///
    /// Children inherit the parent's state and sharers (pages could reside
    /// anywhere in the region). Epoch counters reset on split.
    pub fn split(&mut self, base: u64) -> Result<(u64, u64), SramFull> {
        let entry = self.slots.get(base).expect("splitting existing region");
        assert!(
            entry.size_log2 > PAGE_SHIFT,
            "cannot split a page-sized region"
        );
        if self.slots.free() == 0 {
            return Err(SramFull);
        }
        let parent = self.uninstall(base).expect("entry exists");
        let child_k = parent.size_log2 - 1;
        let right_base = base + (1u64 << child_k);
        let mk_child = || DirEntry {
            size_log2: child_k,
            state: parent.state,
            sharers: parent.sharers,
            owner_blade: parent.owner_blade,
            busy_until: parent.busy_until,
            epoch_invalidations: 0,
            epoch_false_inv: 0,
            pair: PairLinks::NONE,
        };
        self.install(base, mk_child()).expect("slot freed");
        self.install(right_base, mk_child())
            .expect("free slot checked");
        self.generation += 1;
        self.splits += 1;
        Ok((base, right_base))
    }

    /// `(left base, size_log2)` of every buddy pair [`RegionDirectory::merge`]
    /// would coalesce — both halves present at one size and
    /// coherence-compatible — in no particular order.
    pub fn mergeable_pairs(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        self.pairs().filter_map(|(base, left, right)| {
            left.mergeable_with(right).then_some((base, left.size_log2))
        })
    }

    /// Merges the region at `base` with its buddy if both exist at the same
    /// size and are coherence-compatible. Returns the merged base.
    pub fn merge(&mut self, base: u64) -> Option<u64> {
        let a = self.slots.get(base)?;
        if a.pair.buddy == NO_SLOT {
            return None;
        }
        let b = self.slots.at(a.pair.buddy as usize);
        if !a.mergeable_with(b) {
            return None;
        }
        let k = a.size_log2;
        let buddy_base = base ^ (1u64 << k);
        let merged = a.merged_with(b);
        let parent_base = base & !(1u64 << k);
        if merged.epoch_invalidations != 0 || merged.epoch_false_inv != 0 {
            self.touched.push(parent_base);
        }
        self.uninstall(base);
        self.uninstall(buddy_base);
        self.install(parent_base, merged)
            .expect("merge frees two slots");
        self.generation += 1;
        self.merges += 1;
        Some(parent_base)
    }

    /// Frees one slot under capacity pressure by merging the coldest
    /// compatible buddy pair: least `(epoch invalidations, base)`.
    fn force_merge_one(&mut self) -> Result<(), SramFull> {
        let coldest = self
            .pairs()
            .filter(|(_, left, right)| left.mergeable_with(right))
            .map(|(base, left, right)| (left.epoch_invalidations + right.epoch_invalidations, base))
            .min();
        let (_, base) = coldest.ok_or(SramFull)?;
        self.merge(base).expect("candidate verified mergeable");
        self.forced_merges += 1;
        Ok(())
    }

    /// Removes the region entry at `base` (reset protocol §4.4, or
    /// deallocation).
    pub fn remove(&mut self, base: u64) -> Option<DirEntry> {
        let removed = self.uninstall(base)?;
        self.generation += 1;
        Some(removed)
    }

    /// Records invalidation traffic for the region at `base`
    /// (bounded-splitting signal); only the lifetime totals move when no
    /// region starts there.
    pub fn record_invalidation(&mut self, base: u64, false_invalidations: u32) {
        self.record_invalidation_in(self.slots.slot_of(base), base, false_invalidations);
    }

    /// [`RegionDirectory::record_invalidation`] through a live handle.
    ///
    /// # Panics
    ///
    /// Panics if the region map changed since `region` was resolved.
    pub fn record_invalidation_at(&mut self, region: RegionRef, false_invalidations: u32) {
        assert_eq!(region.generation, self.generation, "stale region handle");
        self.record_invalidation_in(Some(region.slot), region.base, false_invalidations);
    }

    fn record_invalidation_in(&mut self, slot: Option<usize>, base: u64, false_invalidations: u32) {
        self.total_invalidations += 1;
        self.total_false_inv += false_invalidations as u64;
        let Some(slot) = slot else { return };
        let e = self.slots.at_mut(slot);
        if e.epoch_invalidations == 0 && e.epoch_false_inv == 0 {
            self.touched.push(base);
        }
        e.epoch_invalidations += 1;
        e.epoch_false_inv += false_invalidations;
    }

    /// Takes and resets the per-epoch counters, returning one
    /// [`EpochCounter`] per region *with activity this epoch*, sorted by
    /// base. Regions that saw no invalidation traffic are not listed —
    /// draining costs O(active regions), so the epoch driver stays cheap
    /// even when the directory tracks tens of thousands of idle regions.
    pub fn drain_epoch_counters(&mut self) -> Vec<EpochCounter> {
        let mut out = Vec::new();
        self.drain_epoch_counters_into(&mut out);
        out
    }

    /// [`RegionDirectory::drain_epoch_counters`] writing into a reusable
    /// buffer (cleared first) instead of allocating one.
    pub fn drain_epoch_counters_into(&mut self, out: &mut Vec<EpochCounter>) {
        out.clear();
        self.touched.sort_unstable();
        self.touched.dedup();
        for i in 0..self.touched.len() {
            let base = self.touched[i];
            // Stale bases (split/removed since being touched) or zeroed
            // entries (split children reuse the parent base) drop out here.
            let Some(e) = self.slots.get_mut(base) else {
                continue;
            };
            if e.epoch_invalidations == 0 && e.epoch_false_inv == 0 {
                continue;
            }
            out.push(EpochCounter {
                base,
                size_log2: e.size_log2,
                false_inv: e.epoch_false_inv,
                invalidations: e.epoch_invalidations,
            });
            e.epoch_false_inv = 0;
            e.epoch_invalidations = 0;
        }
        self.touched.clear();
    }

    /// All region bases, sorted.
    pub fn bases_sorted(&self) -> Vec<u64> {
        self.slots.bases_sorted()
    }

    /// Splits performed (policy-driven).
    pub fn splits(&self) -> u64 {
        self.splits
    }

    /// Merges performed (including forced).
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Merges forced by SRAM pressure.
    pub fn forced_merges(&self) -> u64 {
        self.forced_merges
    }

    /// Lifetime false invalidations.
    pub fn total_false_invalidations(&self) -> u64 {
        self.total_false_inv
    }

    /// Lifetime invalidation rounds.
    pub fn total_invalidations(&self) -> u64 {
        self.total_invalidations
    }

    /// Highest simultaneous entry count.
    pub fn high_watermark(&self) -> usize {
        self.slots.high_watermark()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use mind_sim::SimRng;

    fn dir() -> RegionDirectory {
        RegionDirectory::new(64, 14) // 16 KB initial regions.
    }

    /// The ordered `base → size_log2` mirror the directory used to keep,
    /// and the algorithms that ran on it: the oracle for the treeless
    /// lookup, creation sizing and forced-merge pick.
    struct OrderedOracle(BTreeMap<u64, u8>);

    impl OrderedOracle {
        fn of(d: &RegionDirectory) -> Self {
            OrderedOracle(
                d.bases_sorted()
                    .into_iter()
                    .map(|base| (base, d.entry(base).unwrap().size_log2))
                    .collect(),
            )
        }

        fn region_of(&self, addr: u64) -> Option<(u64, u8)> {
            let (&base, &k) = self.0.range(..=addr).next_back()?;
            (addr < base + (1u64 << k)).then_some((base, k))
        }

        fn overlaps(&self, base: u64, k: u8) -> bool {
            let end = base + (1u64 << k);
            self.0.range(base..end).next().is_some()
                || self
                    .0
                    .range(..base)
                    .next_back()
                    .is_some_and(|(&pbase, &pk)| pbase + (1u64 << pk) > base)
        }

        /// Where `ensure_region` must create the region for an untracked
        /// `addr`, starting the shrink from `2^cap`.
        fn creation_bounds(&self, addr: u64, cap: u8) -> (u64, u8) {
            let mut k = cap;
            loop {
                let base = addr & !((1u64 << k) - 1);
                if !self.overlaps(base, k) {
                    return (base, k);
                }
                k -= 1;
            }
        }

        /// The forced-merge pick: least `(heat, left base)` over mergeable
        /// same-size buddy pairs.
        fn coldest_pair(&self, d: &RegionDirectory) -> Option<(u32, u64)> {
            self.0
                .iter()
                .filter_map(|(&base, &k)| {
                    let buddy = base ^ (1u64 << k);
                    if buddy < base || self.0.get(&buddy) != Some(&k) {
                        return None;
                    }
                    let (a, b) = (d.entry(base).unwrap(), d.entry(buddy).unwrap());
                    a.mergeable_with(b)
                        .then_some((a.epoch_invalidations + b.epoch_invalidations, base))
                })
                .min()
        }

        fn assert_disjoint(&self) {
            let mut end = 0u64;
            for (&base, &k) in &self.0 {
                assert_eq!(base & ((1u64 << k) - 1), 0, "{base:#x} aligned to 2^{k}");
                assert!(base >= end, "{base:#x} overlaps its predecessor");
                end = base + (1u64 << k);
            }
        }
    }

    /// The full-slab scans the pair list replaced, as its oracle: one pass
    /// over every slot, one probe per left half for its buddy.
    impl RegionDirectory {
        /// `(left base, size_log2)` of every same-size buddy pair, sorted.
        fn buddy_pairs_by_scan(&self) -> Vec<(u64, u8)> {
            let mut pairs: Vec<(u64, u8)> = self
                .slots
                .iter()
                .filter(|&(base, left)| {
                    base & (1u64 << left.size_log2) == 0
                        && self
                            .slots
                            .get(base | (1u64 << left.size_log2))
                            .is_some_and(|right| right.size_log2 == left.size_log2)
                })
                .map(|(base, left)| (base, left.size_log2))
                .collect();
            pairs.sort_unstable();
            pairs
        }

        /// The pairs of [`Self::buddy_pairs_by_scan`] that `merge` accepts.
        fn mergeable_pairs_by_scan(&self) -> Vec<(u64, u8)> {
            let mut pairs = self.buddy_pairs_by_scan();
            pairs.retain(|&(base, k)| {
                let (left, right) = (self.entry(base), self.entry(base | (1u64 << k)));
                left.unwrap().mergeable_with(right.unwrap())
            });
            pairs
        }

        /// The pair list against the scans, and its links against the list.
        fn assert_pairs_match_scan(&self) {
            let mut listed: Vec<(u64, u8)> = self
                .pairs()
                .map(|(base, left, right)| {
                    assert_eq!(left.size_log2, right.size_log2);
                    (base, left.size_log2)
                })
                .collect();
            listed.sort_unstable();
            assert_eq!(listed, self.buddy_pairs_by_scan(), "listed pairs");
            let mut mergeable: Vec<(u64, u8)> = self.mergeable_pairs().collect();
            mergeable.sort_unstable();
            assert_eq!(mergeable, self.mergeable_pairs_by_scan(), "mergeable pairs");
            // Exactly the halves of listed pairs carry links, each to its
            // buddy and back.
            let mut linked = 0;
            for (base, e) in self.slots.iter() {
                if e.pair.buddy == NO_SLOT {
                    assert_eq!(e.pair.link, NO_SLOT, "stray link at {base:#x}");
                    continue;
                }
                linked += 1;
                let buddy = self.slots.at(e.pair.buddy as usize);
                assert_eq!(
                    self.slots.slot_of(base),
                    Some(buddy.pair.buddy as usize),
                    "buddy of {base:#x} points back"
                );
            }
            assert_eq!(linked, 2 * listed.len());
        }
    }

    /// Random create / split / merge / remove / force-merge / state churn
    /// on a small directory that spends most of the run at capacity: every
    /// lookup, creation size and forced-merge pick must agree with the
    /// ordered-tree oracle, and the pair list with a scan of the slab.
    #[test]
    fn treeless_directory_matches_ordered_oracle() {
        const SPAN_PAGES: u64 = 1 << 10; // 4 MB: 256 initial-size regions.
        for seed in 0..8u64 {
            let mut rng = SimRng::new(seed);
            let mut d = RegionDirectory::new(48, 14);
            let random_base = |d: &RegionDirectory, rng: &mut SimRng| {
                let bases = d.bases_sorted();
                (!bases.is_empty()).then(|| bases[rng.gen_below(bases.len() as u64) as usize])
            };
            for step in 0..3_000 {
                let addr = rng.gen_below(SPAN_PAGES) << PAGE_SHIFT;
                match rng.gen_below(10) {
                    0..=3 => {
                        let oracle = OrderedOracle::of(&d);
                        let expected = oracle.region_of(addr).or_else(|| {
                            let boost = match d.utilization() {
                                u if u > 0.90 => 5,
                                u if u > 0.80 => 4,
                                u if u > 0.65 => 3,
                                u if u > 0.50 => 2,
                                u if u > 0.35 => 1,
                                _ => 0,
                            };
                            Some(oracle.creation_bounds(addr, 14 + boost))
                        });
                        let coldest = oracle.coldest_pair(&d);
                        let full = d.slots.free() == 0;
                        match d.ensure(addr) {
                            Ok(r) => {
                                assert_eq!(Some(r.bounds()), expected, "seed {seed} step {step}");
                                assert_eq!(d.entry_at(r).size_log2, r.size_log2());
                            }
                            Err(SramFull) => {
                                assert!(
                                    full && coldest.is_none() && oracle.region_of(addr).is_none()
                                );
                            }
                        }
                    }
                    4 => {
                        if let Some(base) = random_base(&d, &mut rng) {
                            if d.entry(base).unwrap().size_log2 > PAGE_SHIFT {
                                let _ = d.split(base);
                            }
                        }
                    }
                    5 => {
                        if let Some(base) = random_base(&d, &mut rng) {
                            d.merge(base);
                        }
                    }
                    6 => {
                        if let Some(base) = random_base(&d, &mut rng) {
                            d.remove(base);
                        }
                    }
                    7 => {
                        if let Some(base) = random_base(&d, &mut rng) {
                            d.record_invalidation(base, rng.gen_below(3) as u32);
                            let e = d.entry_mut(base).unwrap();
                            e.sharers = BladeSet::singleton(rng.gen_below(2) as u16);
                            e.state = [MsiState::Invalid, MsiState::Shared, MsiState::Modified]
                                [rng.gen_below(3) as usize];
                        }
                    }
                    8 => {
                        let oracle = OrderedOracle::of(&d);
                        let pick = oracle.coldest_pair(&d);
                        let before = d.entries();
                        match d.force_merge_one() {
                            Ok(()) => {
                                let (_, left) = pick.expect("oracle found a pair too");
                                let k = oracle.0[&left];
                                assert_eq!(d.region_of(left), Some((left, k + 1)));
                                assert_eq!(d.entries(), before - 1);
                            }
                            Err(SramFull) => assert_eq!(pick, None),
                        }
                    }
                    _ => {
                        if rng.gen_bool(0.05) {
                            d.drain_epoch_counters();
                        }
                    }
                }
                // Lookups — memoized, handle and plain — against the tree,
                // at the touched address and at a fresh one.
                let oracle = OrderedOracle::of(&d);
                oracle.assert_disjoint();
                for probe in [addr, rng.gen_below(SPAN_PAGES) << PAGE_SHIFT, addr | 0xFFF] {
                    let expected = oracle.region_of(probe);
                    assert_eq!(d.region_of(probe), expected, "seed {seed} step {step}");
                    assert_eq!(d.lookup(probe).map(|r| r.bounds()), expected);
                    assert_eq!(d.lookup(probe).map(|r| r.bounds()), expected, "memo hit");
                }
                let classes: u64 = oracle.0.values().fold(0, |m, &k| m | 1u64 << k);
                assert_eq!(d.classes, classes, "populated-class mask");
                let mut ranked: Vec<u8> = (0..64).filter(|k| classes >> k & 1 == 1).collect();
                ranked.sort_by_key(|&k| std::cmp::Reverse(d.class_count[k as usize]));
                let counts = |order: &[u8]| -> Vec<u32> {
                    order.iter().map(|&k| d.class_count[k as usize]).collect()
                };
                assert_eq!(counts(&d.by_count), counts(&ranked), "probe order");
                ranked.sort_unstable();
                let mut listed = d.by_count.clone();
                listed.sort_unstable();
                assert_eq!(listed, ranked, "every populated class listed once");
                d.assert_pairs_match_scan();
            }
        }
    }

    #[test]
    fn mergeable_pairs_lists_exactly_what_merge_accepts() {
        let mut d = dir();
        for i in 0..6u64 {
            d.ensure_region(i << 14).unwrap();
        }
        // (0x0, 0x4000) compatible; (0x8000, 0xC000) conflicting owners;
        // 0x10000's buddy 0x14000 split one level finer.
        d.entry_mut(0x8000).unwrap().state = MsiState::Modified;
        d.entry_mut(0x8000).unwrap().sharers = BladeSet::singleton(0);
        d.entry_mut(0xC000).unwrap().state = MsiState::Modified;
        d.entry_mut(0xC000).unwrap().sharers = BladeSet::singleton(1);
        d.split(0x14000).unwrap();
        let mut pairs: Vec<(u64, u8)> = d.mergeable_pairs().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0x0, 14), (0x14000, 13)]);
        for (left, _) in pairs {
            assert!(d.merge(left).is_some());
        }
        assert!(d.merge(0x8000).is_none());
    }

    #[test]
    #[should_panic(expected = "stale region handle")]
    fn stale_handle_is_refused() {
        let mut d = dir();
        let r = d.ensure(0x1_0000).unwrap();
        d.split(r.base()).unwrap();
        let _ = d.entry_at(r);
    }

    #[test]
    fn handle_survives_entry_updates_and_memo_survives_lookups() {
        let mut d = dir();
        let r = d.ensure(0x1_0000).unwrap();
        d.entry_at_mut(r).state = MsiState::Shared;
        d.record_invalidation_at(r, 2);
        d.record_invalidation(r.base(), 1);
        assert_eq!(d.entry_at(r).epoch_invalidations, 2);
        assert_eq!(d.entry_at(r).epoch_false_inv, 3);
        // Same generation: the memo answers, with the same handle.
        assert_eq!(d.lookup(0x1_2FFF), Some(r));
        assert_eq!(d.ensure(0x1_3000).unwrap(), r);
        // A region that does not start at the recorded base only moves the
        // lifetime totals.
        d.record_invalidation(0x9_0000, 4);
        assert_eq!(d.total_invalidations(), 3);
        assert_eq!(d.total_false_invalidations(), 7);
    }

    #[test]
    fn ensure_creates_aligned_initial_region() {
        let mut d = dir();
        let (base, k) = d.ensure_region(0x1_2345).unwrap();
        assert_eq!(k, 14);
        assert_eq!(base, 0x1_0000, "aligned to 16 KB");
        assert_eq!(d.entries(), 1);
        // Idempotent.
        assert_eq!(d.ensure_region(0x1_3000).unwrap(), (base, k));
        assert_eq!(d.entries(), 1);
    }

    #[test]
    fn region_of_respects_bounds() {
        let mut d = dir();
        d.ensure_region(0x1_0000).unwrap();
        assert_eq!(d.region_of(0x1_3FFF), Some((0x1_0000, 14)));
        assert_eq!(d.region_of(0x1_4000), None);
        assert_eq!(d.region_of(0x0_FFFF), None);
    }

    #[test]
    fn split_halves_region() {
        let mut d = dir();
        let (base, _) = d.ensure_region(0x1_0000).unwrap();
        d.entry_mut(base).unwrap().state = MsiState::Shared;
        d.entry_mut(base).unwrap().sharers = BladeSet::singleton(2);
        let (l, r) = d.split(base).unwrap();
        assert_eq!(l, 0x1_0000);
        assert_eq!(r, 0x1_2000);
        assert_eq!(d.entries(), 2);
        // Children inherit coherence state conservatively.
        assert_eq!(d.entry(l).unwrap().state, MsiState::Shared);
        assert!(d.entry(r).unwrap().sharers.contains(2));
        assert_eq!(d.region_of(0x1_2000), Some((r, 13)));
        assert_eq!(d.splits(), 1);
    }

    #[test]
    fn split_down_to_page_size_only() {
        let mut d = RegionDirectory::new(64, 13);
        let (base, _) = d.ensure_region(0x2000).unwrap();
        let (l, _r) = d.split(base).unwrap();
        assert_eq!(d.entry(l).unwrap().size_log2, 12);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn page_region_split_panics() {
        let mut d = RegionDirectory::new(64, 12);
        let (base, _) = d.ensure_region(0x1000).unwrap();
        let _ = d.split(base);
    }

    #[test]
    fn merge_requires_compatible_buddies() {
        let mut d = dir();
        let (base, _) = d.ensure_region(0x1_0000).unwrap();
        let (l, r) = d.split(base).unwrap();
        // I + I merges.
        let merged = d.merge(l).unwrap();
        assert_eq!(merged, 0x1_0000);
        assert_eq!(d.entries(), 1);
        assert_eq!(d.entry(merged).unwrap().size_log2, 14);
        let _ = r;
    }

    #[test]
    fn merge_unions_sharers() {
        let mut d = dir();
        let (base, _) = d.ensure_region(0x1_0000).unwrap();
        let (l, r) = d.split(base).unwrap();
        d.entry_mut(l).unwrap().state = MsiState::Shared;
        d.entry_mut(l).unwrap().sharers = BladeSet::singleton(0);
        d.entry_mut(r).unwrap().state = MsiState::Shared;
        d.entry_mut(r).unwrap().sharers = BladeSet::singleton(1);
        let merged = d.merge(l).unwrap();
        let e = d.entry(merged).unwrap();
        assert_eq!(e.state, MsiState::Shared);
        assert!(e.sharers.contains(0) && e.sharers.contains(1));
    }

    #[test]
    fn merge_refuses_conflicting_modified() {
        let mut d = dir();
        let (base, _) = d.ensure_region(0x1_0000).unwrap();
        let (l, r) = d.split(base).unwrap();
        d.entry_mut(l).unwrap().state = MsiState::Modified;
        d.entry_mut(l).unwrap().sharers = BladeSet::singleton(0);
        d.entry_mut(r).unwrap().state = MsiState::Shared;
        d.entry_mut(r).unwrap().sharers = BladeSet::singleton(1);
        assert!(d.merge(l).is_none(), "M + S with different blades");
        // Same single owner on both sides is fine.
        d.entry_mut(r).unwrap().state = MsiState::Modified;
        d.entry_mut(r).unwrap().sharers = BladeSet::singleton(0);
        assert!(d.merge(l).is_some());
        assert_eq!(
            d.entry(0x1_0000).unwrap().owner(),
            Some(0),
            "owner preserved"
        );
    }

    #[test]
    fn lazy_creation_avoids_overlap_with_finer_regions() {
        let mut d = dir();
        // Create a 16 KB region and split it to 8 KB; remove the right half.
        let (base, _) = d.ensure_region(0x1_0000).unwrap();
        let (l, r) = d.split(base).unwrap();
        d.remove(r);
        // A new access at the removed right half must not create a 16 KB
        // region overlapping the left 8 KB one.
        let (nbase, nk) = d.ensure_region(0x1_2000).unwrap();
        assert_eq!((nbase, nk), (0x1_2000, 13));
        assert_eq!(d.region_of(0x1_1000), Some((l, 13)), "left intact");
    }

    #[test]
    fn capacity_pressure_forces_merges() {
        let mut d = RegionDirectory::new(4, 14);
        // Fill all 4 slots with adjacent 16 KB regions (pre-sizing them via
        // split from a pair of 32 KB parents keeps creation sizes exact).
        for i in 0..4u64 {
            let (base, k) = d.ensure_region(i * 0x4000).unwrap();
            let _ = (base, k);
        }
        assert!(d.entries() >= 3, "pressure may coarsen creation");
        let before = d.entries();
        // Another region far away forces a cold buddy pair to merge once
        // the store is full.
        while d.slots.free() > 0 {
            let next = 0x100_0000 + d.entries() as u64 * 0x40_0000;
            d.ensure_region(next).unwrap();
        }
        d.ensure_region(0x900_0000).unwrap();
        assert!(d.entries() <= 4, "stayed at capacity");
        assert!(d.forced_merges() >= 1 || d.entries() < before + 1);
        // All original addresses are still covered by some region.
        for i in 0..4u64 {
            assert!(d.region_of(i * 0x4000).is_some());
        }
    }

    #[test]
    fn creation_size_coarsens_under_pressure() {
        let mut d = RegionDirectory::new(10, 14);
        let (_, k0) = d.ensure_region(0x0).unwrap();
        assert_eq!(k0, 14, "no pressure: initial size");
        // Fill to >65% utilization with far-apart regions.
        for i in 1..8u64 {
            d.ensure_region(i << 30).unwrap();
        }
        let (_, k_hot) = d.ensure_region(0x4000_0000_0000).unwrap();
        assert!(k_hot > 14, "creation coarsened under pressure: {k_hot}");
    }

    #[test]
    fn sram_full_when_nothing_mergeable() {
        let mut d = RegionDirectory::new(2, 14);
        let (a, _) = d.ensure_region(0x0).unwrap();
        let (b, _) = d.ensure_region(0x10_0000).unwrap();
        // Make both unmergeable: different M owners, and they are not
        // buddies anyway.
        d.entry_mut(a).unwrap().state = MsiState::Modified;
        d.entry_mut(a).unwrap().sharers = BladeSet::singleton(0);
        d.entry_mut(b).unwrap().state = MsiState::Modified;
        d.entry_mut(b).unwrap().sharers = BladeSet::singleton(1);
        assert!(d.ensure_region(0x20_0000).is_err());
    }

    #[test]
    fn epoch_counters_drain_and_reset() {
        let mut d = dir();
        let (base, _) = d.ensure_region(0x1_0000).unwrap();
        d.record_invalidation(base, 3);
        d.record_invalidation(base, 2);
        let drained = d.drain_epoch_counters();
        assert_eq!(
            drained,
            vec![EpochCounter {
                base,
                size_log2: 14,
                false_inv: 5,
                invalidations: 2,
            }]
        );
        assert_eq!(d.total_false_invalidations(), 5);
        assert_eq!(d.total_invalidations(), 2);
        // Second drain: no activity since the first, so nothing is listed.
        let again = d.drain_epoch_counters();
        assert!(again.is_empty());
    }

    #[test]
    fn drain_lists_only_active_regions() {
        let mut d = dir();
        let (a, _) = d.ensure_region(0x1_0000).unwrap();
        let (_b, _) = d.ensure_region(0x8_0000).unwrap();
        d.record_invalidation(a, 0);
        d.record_invalidation(a, 4);
        let drained = d.drain_epoch_counters();
        assert_eq!(drained.len(), 1, "idle region not listed");
        assert_eq!(drained[0].base, a);
        assert_eq!(drained[0].invalidations, 2);
        assert_eq!(drained[0].false_inv, 4);
        // Merging actives carries the summed counters to the parent.
        let (l, _r) = d.split(a).unwrap();
        d.record_invalidation(l, 1);
        let parent = d.merge(l).unwrap();
        let drained = d.drain_epoch_counters();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].base, parent);
        assert_eq!(drained[0].invalidations, 1);
    }

    #[test]
    fn generation_tracks_region_map_changes() {
        let mut d = dir();
        let g0 = d.generation();
        let (base, _) = d.ensure_region(0x1_0000).unwrap();
        assert!(d.generation() > g0, "creation bumps");
        let g1 = d.generation();
        d.ensure_region(0x1_2000).unwrap(); // Same region: pure lookup.
        assert_eq!(d.generation(), g1, "lookup does not bump");
        d.record_invalidation(base, 2); // Counters do not move boundaries.
        assert_eq!(d.generation(), g1);
        let (l, _) = d.split(base).unwrap();
        assert!(d.generation() > g1, "split bumps");
        let g2 = d.generation();
        d.merge(l).unwrap();
        assert!(d.generation() > g2, "merge bumps");
        let g3 = d.generation();
        d.remove(base);
        assert!(d.generation() > g3, "remove bumps");
    }

    #[test]
    fn admit_transition_serializes_on_busy_until() {
        let mut d = dir();
        let (base, _) = d.ensure_region(0x0).unwrap();
        let e = d.entry_mut(base).unwrap();
        assert_eq!(
            e.admit_transition(SimTime::from_micros(3)),
            SimTime::from_micros(3),
            "idle region admits immediately"
        );
        e.busy_until = SimTime::from_micros(10);
        assert_eq!(
            e.admit_transition(SimTime::from_micros(3)),
            SimTime::from_micros(10),
            "mid-transition region holds the request"
        );
        assert_eq!(
            e.admit_transition(SimTime::from_micros(12)),
            SimTime::from_micros(12)
        );
    }

    #[test]
    fn owner_accessor() {
        let mut d = dir();
        let (base, _) = d.ensure_region(0x0).unwrap();
        assert_eq!(d.entry(base).unwrap().owner(), None);
        d.entry_mut(base).unwrap().state = MsiState::Modified;
        d.entry_mut(base).unwrap().sharers = BladeSet::singleton(5);
        assert_eq!(d.entry(base).unwrap().owner(), Some(5));
    }
}
