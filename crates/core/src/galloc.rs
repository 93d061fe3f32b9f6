//! Global memory allocation at the switch control plane.
//!
//! Because the virtual address space is range-partitioned across memory
//! blades with a one-to-one VA↔PA mapping per blade (§4.1), allocation
//! decides both placement and addressing:
//!
//! - **Balanced placement**: the control plane tracks total allocation per
//!   blade and places each new allocation on the least-loaded blade,
//!   yielding near-optimal balance (Figure 8 right).
//! - **Low fragmentation**: within a blade, a classic first-fit allocator
//!   over the blade's contiguous range.
//! - **TCAM-friendly sizing**: only power-of-two sized, size-aligned areas
//!   are carved so each vma is one TCAM protection entry (§4.2).

use mind_sim::hash::FastMap;
use mind_sim::spare::{rebuild, reuse};

use crate::addr::{pow2_alloc_size, Vma, VA_BASE};

/// First-fit allocator over one memory blade's contiguous range.
#[derive(Debug, Clone)]
pub struct BladeAllocator {
    /// Free extents `(offset, length)` by offset, disjoint and coalesced.
    free: Vec<(u64, u64)>,
    allocated: u64,
}

impl BladeAllocator {
    /// Creates an allocator over `[0, capacity)`.
    pub fn new(capacity: u64) -> Self {
        Self::build(capacity, None)
    }

    /// [`BladeAllocator::new`], in a spare's free list.
    pub(crate) fn build(capacity: u64, spare: Option<Self>) -> Self {
        let mut free = reuse(spare.map(|b| b.free));
        if capacity > 0 {
            free.push((0, capacity));
        }
        BladeAllocator { free, allocated: 0 }
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Allocates `size` bytes aligned to `size` (power of two), first-fit.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two.
    pub fn alloc(&mut self, size: u64) -> Option<u64> {
        assert!(size.is_power_of_two(), "allocation size must be pow2");
        let (i, aligned) = self.free.iter().enumerate().find_map(|(i, &(off, len))| {
            let aligned = off.next_multiple_of(size);
            (len >= aligned - off + size).then_some((i, aligned))
        })?;
        self.take(i, aligned, size);
        Some(aligned)
    }

    /// Reserves `[offset, offset + size)`, aligned or not; returns `false`,
    /// reserving nothing, unless the range is nonempty and wholly free.
    pub(crate) fn reserve(&mut self, offset: u64, size: u64) -> bool {
        let after = self.free.partition_point(|&(off, _)| off <= offset);
        let Some(i) = after.checked_sub(1) else {
            return false;
        };
        let (off, len) = self.free[i];
        let fits = size > 0 && offset.checked_add(size).is_some_and(|end| end <= off + len);
        if fits {
            self.take(i, offset, size);
        }
        fits
    }

    /// Allocates `[at, at + size)` out of free extent `i`, which holds it.
    fn take(&mut self, i: usize, at: u64, size: u64) {
        let ((off, len), end) = (self.free[i], at + size);
        let head = (off < at).then_some((off, at - off));
        let tail = (end < off + len).then(|| (end, off + len - end));
        self.free.splice(i..=i, head.into_iter().chain(tail));
        self.allocated += size;
    }

    /// Frees `[offset, offset + size)`, coalescing with neighbours.
    ///
    /// # Panics
    ///
    /// Panics if the range overlaps a free extent (double free).
    pub fn free(&mut self, offset: u64, size: u64) {
        // Extents `i..` start at or after `offset`; `i - 1` is its predecessor.
        let i = self.free.partition_point(|&(off, _)| off < offset);
        let (mut merged, mut start, mut end) = (i..i, offset, offset + size);
        if let Some(&(poff, plen)) = i.checked_sub(1).map(|p| &self.free[p]) {
            assert!(poff + plen <= offset, "double free at {offset:#x}");
            if poff + plen == offset {
                (start, merged.start) = (poff, i - 1);
            }
        }
        if let Some(&(noff, nlen)) = self.free.get(i) {
            assert!(end <= noff, "double free at {offset:#x}");
            if end == noff {
                (end, merged.end) = (noff + nlen, i + 1);
            }
        }
        self.free.splice(merged, [(start, end - start)]);
        self.allocated -= size;
    }
}

/// The rack-wide allocator: balanced placement across blades plus per-blade
/// first-fit.
#[derive(Debug, Clone)]
pub struct GlobalAllocator {
    blades: Vec<BladeAllocator>,
    blade_span: u64,
    /// The log2 of each live vma's reserved size, by base; its blade is
    /// [`GlobalAllocator::blade_of`] the base.
    allocations: FastMap<u64, u8>,
}

impl GlobalAllocator {
    /// An allocator over `n_blades` memory blades of `blade_span` bytes
    /// each, in a spare's blade list and record table when there is one.
    /// The virtual address space is laid out as
    /// `VA_BASE + blade * blade_span + offset`.
    ///
    /// # Panics
    ///
    /// Panics if `blade_span` is not a power of two (keeps blade-range
    /// translation a single shift/mask, as a switch pipeline requires).
    pub fn build(n_blades: u16, blade_span: u64, spare: Option<Self>) -> Self {
        assert!(blade_span.is_power_of_two(), "blade span must be pow2");
        let (blades, allocations) = spare.map(|g| (g.blades, g.allocations)).unzip();
        let blade = |spare| BladeAllocator::build(blade_span, spare);
        GlobalAllocator {
            blades: rebuild(blades, n_blades as usize, blade),
            blade_span,
            allocations: reuse(allocations),
        }
    }

    /// Number of memory blades.
    pub fn n_blades(&self) -> u16 {
        self.blades.len() as u16
    }

    /// Allocates a vma of at least `len` bytes on the least-loaded blade
    /// that fits; returns `None` when no blade can satisfy it (ENOMEM).
    pub fn alloc(&mut self, len: u64) -> Option<Vma> {
        self.alloc_in(len, 0..self.n_blades())
    }

    /// Allocates like [`GlobalAllocator::alloc`] but confined to the memory
    /// blades in `blades`: balanced placement runs over that slice only, so
    /// placement inside the slice is independent of load on blades outside
    /// it. A partitioned simulation uses this to pin each partition's
    /// regions onto its own blade slice (region ownership); `alloc` is the
    /// whole-rack special case.
    pub fn alloc_in(&mut self, len: u64, blades: std::ops::Range<u16>) -> Option<Vma> {
        assert!(
            blades.end <= self.n_blades(),
            "blade slice {blades:?} exceeds rack ({} blades)",
            self.n_blades()
        );
        let size = pow2_alloc_size(len)?;
        // Least-allocated blade first (P2: global view); ties by index for
        // determinism. A blade that cannot fit the request keeps its load,
        // so "the next key above the last one tried" walks the same order a
        // sort would.
        let mut tried = None;
        loop {
            let (load, blade) = blades
                .clone()
                .map(|b| (self.blades[b as usize].allocated(), b))
                .filter(|&key| tried.is_none_or(|t| key > t))
                .min()?;
            if let Some(offset) = self.blades[blade as usize].alloc(size) {
                let base = VA_BASE + blade as u64 * self.blade_span + offset;
                self.allocations.insert(base, size.trailing_zeros() as u8);
                return Some(Vma::new(base, len));
            }
            tried = Some((load, blade));
        }
    }

    /// Frees the vma based at `base`; returns `false` if unknown.
    pub fn dealloc(&mut self, base: u64) -> bool {
        let Some(size_log2) = self.allocations.remove(&base) else {
            return false;
        };
        let blade = (base - VA_BASE) / self.blade_span;
        let offset = (base - VA_BASE) % self.blade_span;
        self.blades[blade as usize].free(offset, 1 << size_log2);
        true
    }

    /// Reserves `[offset, offset + size)` of memory blade `blade`'s frames
    /// outside any vma (a migration's destination); returns `false`,
    /// reserving nothing, unless they are all free.
    pub(crate) fn reserve(&mut self, blade: u16, offset: u64, size: u64) -> bool {
        let blade = self.blades.get_mut(blade as usize);
        blade.is_some_and(|b| b.reserve(offset, size))
    }

    /// Frees frames [`GlobalAllocator::reserve`] reserved.
    pub(crate) fn release(&mut self, blade: u16, offset: u64, size: u64) {
        self.blades[blade as usize].free(offset, size);
    }

    /// The live vma, at its reserved size, that holds `addr`.
    pub(crate) fn vma_at(&self, addr: u64) -> Option<Vma> {
        let blade_base = VA_BASE + self.blade_of(addr)? as u64 * self.blade_span;
        // A vma's offset in its blade is a multiple of its power-of-two size.
        (0..=self.blade_span.trailing_zeros() as u8).find_map(|log2| {
            let base = blade_base + ((addr - blade_base) & !((1 << log2) - 1));
            (self.allocations.get(&base) == Some(&log2)).then(|| Vma::new(base, 1 << log2))
        })
    }

    /// The power-of-two size actually reserved for the vma at `base`.
    pub fn reserved_size(&self, base: u64) -> Option<u64> {
        self.allocations.get(&base).map(|&size_log2| 1 << size_log2)
    }

    /// The memory blade owning virtual address `vaddr` under the range
    /// partition (independent of whether it is allocated).
    pub fn blade_of(&self, vaddr: u64) -> Option<u16> {
        if vaddr < VA_BASE {
            return None;
        }
        let blade = (vaddr - VA_BASE) / self.blade_span;
        if blade < self.blades.len() as u64 {
            Some(blade as u16)
        } else {
            None
        }
    }

    /// Bytes allocated per blade (for Jain's fairness, Figure 8 right).
    pub fn allocated_per_blade(&self) -> Vec<u64> {
        self.blades.iter().map(|b| b.allocated()).collect()
    }

    /// Bytes allocated across all blades.
    pub fn allocated(&self) -> u64 {
        self.blades.iter().map(|b| b.allocated()).sum()
    }

    /// Total live allocations.
    pub fn live_allocations(&self) -> usize {
        self.allocations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_sim::stats::jains_index;

    #[test]
    fn first_fit_allocates_lowest_fit() {
        let mut b = BladeAllocator::new(1 << 20);
        let a = b.alloc(4096).unwrap();
        let c = b.alloc(4096).unwrap();
        assert_eq!(a, 0);
        assert_eq!(c, 4096);
        b.free(a, 4096);
        // First fit reuses the hole at 0.
        assert_eq!(b.alloc(4096).unwrap(), 0);
    }

    #[test]
    fn alignment_respected() {
        let mut b = BladeAllocator::new(1 << 20);
        b.alloc(4096).unwrap(); // [0, 4K)
        let big = b.alloc(1 << 16).unwrap(); // Needs 64K alignment.
        assert_eq!(big % (1 << 16), 0);
        assert_eq!(big, 1 << 16, "first aligned spot");
        // The gap [4K, 64K) remains free for small allocations.
        assert_eq!(b.alloc(4096).unwrap(), 4096);
    }

    #[test]
    fn free_coalesces_neighbours() {
        let mut b = BladeAllocator::new(1 << 16);
        let a = b.alloc(4096).unwrap();
        let c = b.alloc(4096).unwrap();
        let d = b.alloc(4096).unwrap();
        b.free(a, 4096);
        b.free(d, 4096);
        assert_eq!(b.free.len(), 2, "hole at 0 + tail");
        b.free(c, 4096);
        assert_eq!(b.free.len(), 1, "all free space coalesced");
        assert_eq!(b.allocated(), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_detected() {
        let mut b = BladeAllocator::new(1 << 16);
        let a = b.alloc(4096).unwrap();
        b.free(a, 4096);
        b.free(a, 4096);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut b = BladeAllocator::new(8192);
        assert!(b.alloc(4096).is_some());
        assert!(b.alloc(4096).is_some());
        assert!(b.alloc(4096).is_none());
    }

    #[test]
    fn global_alloc_balances_across_blades() {
        let mut g = GlobalAllocator::build(4, 1 << 30, None);
        // 64 equal allocations spread evenly.
        for _ in 0..64 {
            g.alloc(1 << 20).unwrap();
        }
        let per: Vec<f64> = g.allocated_per_blade().iter().map(|&x| x as f64).collect();
        let fairness = jains_index(&per);
        assert!(fairness > 0.999, "fairness {fairness}");
    }

    #[test]
    fn global_alloc_balances_mixed_sizes() {
        let mut g = GlobalAllocator::build(4, 1 << 30, None);
        let sizes = [1 << 20, 1 << 24, 1 << 16, 1 << 22, 1 << 24, 1 << 20];
        for (i, &s) in sizes.iter().cycle().take(60).enumerate() {
            let _ = i;
            g.alloc(s).unwrap();
        }
        let per: Vec<f64> = g.allocated_per_blade().iter().map(|&x| x as f64).collect();
        assert!(jains_index(&per) > 0.95);
    }

    #[test]
    fn va_layout_is_range_partitioned() {
        let mut g = GlobalAllocator::build(2, 1 << 30, None);
        let v1 = g.alloc(4096).unwrap();
        let v2 = g.alloc(4096).unwrap();
        // Balanced placement sends the second allocation to the other blade.
        assert_eq!(g.blade_of(v1.base), Some(0));
        assert_eq!(g.blade_of(v2.base), Some(1));
        assert_eq!(v2.base - v1.base, 1 << 30);
        assert_eq!(g.blade_of(VA_BASE - 1), None);
        assert_eq!(g.blade_of(VA_BASE + (2u64 << 30)), None);
    }

    #[test]
    fn alloc_in_confines_and_balances_within_slice() {
        let mut g = GlobalAllocator::build(4, 1 << 30, None);
        // Load blade 2 so the global least-loaded choice would avoid it...
        g.alloc_in(1 << 24, 2..3).unwrap();
        // ...yet slice-confined allocation must stay inside [2, 4) and
        // balance within it, ignoring the empty blades 0 and 1.
        let a = g.alloc_in(4096, 2..4).unwrap();
        let b = g.alloc_in(4096, 2..4).unwrap();
        assert_eq!(g.blade_of(a.base), Some(3), "least loaded in slice");
        assert_eq!(g.blade_of(b.base), Some(3), "still lighter than blade 2");
        let c = g.alloc_in(1 << 24, 2..4).unwrap();
        assert_eq!(g.blade_of(c.base), Some(3));
        let d = g.alloc_in(4096, 2..4).unwrap();
        assert_eq!(g.blade_of(d.base), Some(2), "balance flips inside slice");
        assert_eq!(g.allocated_per_blade()[..2], [0, 0], "slice confined");
    }

    #[test]
    #[should_panic(expected = "blade slice")]
    fn alloc_in_rejects_out_of_range_slice() {
        let mut g = GlobalAllocator::build(2, 1 << 20, None);
        g.alloc_in(4096, 1..3);
    }

    #[test]
    fn dealloc_returns_space() {
        let mut g = GlobalAllocator::build(1, 1 << 20, None);
        let v = g.alloc(1 << 19).unwrap();
        assert!(g.alloc(1 << 20).is_none(), "not enough room");
        assert!(g.dealloc(v.base));
        assert!(!g.dealloc(v.base), "second dealloc is unknown");
        assert!(g.alloc(1 << 20).is_some(), "full blade available again");
    }

    #[test]
    fn reserved_size_is_pow2_rounded() {
        let mut g = GlobalAllocator::build(1, 1 << 30, None);
        let v = g.alloc(5000).unwrap();
        assert_eq!(v.len, 5000, "vma keeps requested length");
        assert_eq!(g.reserved_size(v.base), Some(8192));
        assert_eq!(g.live_allocations(), 1);
    }

    #[test]
    fn vma_base_is_size_aligned_for_tcam() {
        let mut g = GlobalAllocator::build(2, 1 << 30, None);
        for len in [4096u64, 10_000, 1 << 20, 3 << 20] {
            let v = g.alloc(len).unwrap();
            let size = pow2_alloc_size(len).unwrap();
            assert_eq!(v.base % size, 0, "base aligned to reserved size");
        }
    }

    #[test]
    fn allocations_never_overlap() {
        let mut g = GlobalAllocator::build(2, 1 << 24, None);
        let mut vmas: Vec<Vma> = Vec::new();
        for len in [4096u64, 8192, 4096, 1 << 20, 9000, 4096, 1 << 16] {
            let v = g.alloc(len).unwrap();
            let size = pow2_alloc_size(len).unwrap();
            let reserved = Vma::new(v.base, size);
            for prev in &vmas {
                assert!(!reserved.overlaps(prev), "{reserved:?} vs {prev:?}");
            }
            vmas.push(reserved);
        }
    }
}
