//! The global virtual address space and its range partitioning.
//!
//! MIND uses a *single* virtual address space shared by all processes, range
//! partitioned across memory blades so that the whole space maps to a
//! contiguous physical range per blade — one translation entry per memory
//! blade (paper §4.1). Isolation between processes comes from protection
//! domains (§4.2), not from separate address spaces.

use mind_blade::{PAGE_SHIFT, PAGE_SIZE};

/// Base of the allocatable global virtual address space.
///
/// Kept away from 0 so null-ish addresses are always faults, and 4 KB
/// aligned like everything else.
pub const VA_BASE: u64 = 0x0000_1000_0000_0000;

/// A physical address: a memory blade plus a byte offset within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysAddr {
    /// Owning memory blade.
    pub blade: u16,
    /// Byte offset within the blade.
    pub offset: u64,
}

impl PhysAddr {
    /// The physical page index within the blade.
    pub fn page(&self) -> u64 {
        self.offset >> PAGE_SHIFT
    }
}

/// A virtual memory area: the unit of allocation and protection (§4.1).
///
/// Identified by base address and length, e.g. `<0x00007f84b862d000,
/// 0x400>`. MIND's control plane only creates power-of-two aligned vmas so
/// each fits a single TCAM protection entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Vma {
    /// Base virtual address.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Vma {
    /// Creates a vma.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(base: u64, len: u64) -> Self {
        assert!(len > 0, "empty vma");
        Vma { base, len }
    }

    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.base + self.len
    }

    /// Whether `addr` falls inside the vma.
    pub fn contains(&self, addr: u64) -> bool {
        (self.base..self.end()).contains(&addr)
    }

    /// Whether two vmas overlap.
    pub fn overlaps(&self, other: &Vma) -> bool {
        self.base < other.end() && other.base < self.end()
    }

    /// Number of pages spanned (length rounded up).
    pub fn pages(&self) -> u64 {
        (self.len + PAGE_SIZE - 1) >> PAGE_SHIFT
    }
}

/// Rounds `len` up to the next power of two (minimum one page); `None`
/// when that exceeds 2^63, the largest power of two a `u64` holds.
///
/// MIND's control plane performs only power-of-two sized, size-aligned
/// virtual allocations so each region is a single TCAM entry (§4.2); glibc
/// requests are mostly power-of-two sized anyway.
pub fn pow2_alloc_size(len: u64) -> Option<u64> {
    len.max(PAGE_SIZE).checked_next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vma_bounds() {
        let v = Vma::new(0x1000, 0x2000);
        assert_eq!(v.end(), 0x3000);
        assert!(v.contains(0x1000));
        assert!(v.contains(0x2FFF));
        assert!(!v.contains(0x3000));
        assert!(!v.contains(0xFFF));
    }

    #[test]
    fn vma_overlap() {
        let a = Vma::new(0x1000, 0x1000);
        let b = Vma::new(0x1800, 0x1000);
        let c = Vma::new(0x2000, 0x1000);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c), "touching vmas do not overlap");
    }

    #[test]
    fn vma_pages() {
        assert_eq!(Vma::new(0x1000, 1).pages(), 1);
        assert_eq!(Vma::new(0x1000, 4096).pages(), 1);
        assert_eq!(Vma::new(0x1000, 4097).pages(), 2);
    }

    #[test]
    #[should_panic(expected = "empty vma")]
    fn empty_vma_rejected() {
        Vma::new(0x1000, 0);
    }

    #[test]
    fn pow2_alloc_sizes() {
        assert_eq!(pow2_alloc_size(1), Some(PAGE_SIZE));
        assert_eq!(pow2_alloc_size(4096), Some(4096));
        assert_eq!(pow2_alloc_size(4097), Some(8192));
        assert_eq!(pow2_alloc_size(1 << 20), Some(1 << 20));
        assert_eq!(pow2_alloc_size((1 << 20) + 1), Some(1 << 21));
        assert_eq!(pow2_alloc_size(1 << 63), Some(1 << 63));
        assert_eq!(pow2_alloc_size((1 << 63) + 1), None);
        assert_eq!(pow2_alloc_size(u64::MAX), None);
    }

    #[test]
    fn phys_addr_page() {
        let pa = PhysAddr {
            blade: 3,
            offset: 0x5432,
        };
        assert_eq!(pa.page(), 5);
    }
}
