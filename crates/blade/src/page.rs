//! The 4 KB page: MIND's unit of memory access and data movement.
//!
//! Cache *accesses* and data movement between blades happen at page
//! granularity, while the coherence directory tracks coarser, dynamically
//! sized regions (paper §4.3.1) — so the page constants here are used by
//! every layer above. In data-carrying mode the bytes move as MIND moves
//! them, by reference: [`PageData`] is a shared copy-on-write handle.

use std::sync::{Arc, OnceLock};

/// log2 of the page size.
pub const PAGE_SHIFT: u8 = 12;

/// Page size in bytes (4 KB, as in the paper and prior work).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// Rounds `addr` down to its page base.
pub const fn page_base(addr: u64) -> u64 {
    addr & !(PAGE_SIZE - 1)
}

/// The page number containing `addr`.
pub const fn page_index(addr: u64) -> u64 {
    addr >> PAGE_SHIFT
}

/// Rounds `len` up to a whole number of pages.
pub const fn pages_for(len: u64) -> u64 {
    len.div_ceil(PAGE_SIZE)
}

/// Contents of one page: a shared handle, copied on write.
///
/// `clone` — a fetch, a flush, a cache-to-cache supply — shares the bytes;
/// the first [`PageData::write`] or [`PageData::bytes_mut`] through a
/// handle that is not the only one copies them first, so no other holder
/// sees the store. Simulation-only runs skip page data entirely (the cache
/// stores `Option<PageData>`).
#[derive(Clone, PartialEq, Eq)]
pub struct PageData(Arc<[u8; PAGE_SIZE as usize]>);

impl PageData {
    /// A zero-filled page: every caller shares one process-wide page.
    pub fn zeroed() -> Self {
        static ZERO: OnceLock<PageData> = OnceLock::new();
        ZERO.get_or_init(|| PageData(Arc::new([0u8; PAGE_SIZE as usize])))
            .clone()
    }

    /// Builds a page from a byte slice (zero-padded).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than a page.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() <= PAGE_SIZE as usize,
            "more than a page of data"
        );
        let mut p = Self::zeroed();
        p.write(0, bytes);
        p
    }

    /// Read access to the page bytes.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE as usize] {
        &self.0
    }

    /// Write access to the page bytes (copies them first if shared).
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE as usize] {
        Arc::make_mut(&mut self.0)
    }

    /// Reads `buf.len()` bytes at `offset` within the page.
    ///
    /// # Panics
    ///
    /// Panics if the read would cross the page boundary.
    pub fn read(&self, offset: usize, buf: &mut [u8]) {
        buf.copy_from_slice(&self.0[offset..offset + buf.len()]);
    }

    /// Writes `buf` at `offset` within the page.
    ///
    /// # Panics
    ///
    /// Panics if the write would cross the page boundary.
    pub fn write(&mut self, offset: usize, buf: &[u8]) {
        self.bytes_mut()[offset..offset + buf.len()].copy_from_slice(buf);
    }
}

impl std::fmt::Debug for PageData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let nonzero = self.0.iter().filter(|&&b| b != 0).count();
        write!(f, "PageData({nonzero} nonzero bytes)")
    }
}

impl Default for PageData {
    fn default() -> Self {
        Self::zeroed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_arithmetic() {
        assert_eq!(page_base(0x1234), 0x1000);
        assert_eq!(page_base(0x1000), 0x1000);
        assert_eq!(page_index(0x3FFF), 3);
        assert_eq!(page_index(0x4000), 4);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(4096), 1);
        assert_eq!(pages_for(4097), 2);
        assert_eq!(pages_for(0), 0);
    }

    #[test]
    fn page_data_read_write_roundtrip() {
        let mut p = PageData::zeroed();
        p.write(100, b"hello");
        let mut buf = [0u8; 5];
        p.read(100, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn from_bytes_pads_with_zeros() {
        let p = PageData::from_bytes(b"abc");
        assert_eq!(&p.bytes()[..3], b"abc");
        assert!(p.bytes()[3..].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic]
    fn cross_page_read_panics() {
        let p = PageData::zeroed();
        let mut buf = [0u8; 8];
        p.read(PAGE_SIZE as usize - 4, &mut buf);
    }

    #[test]
    fn a_write_through_one_handle_is_invisible_to_the_others() {
        let mut a = PageData::from_bytes(b"shared");
        let b = a.clone();
        a.write(0, b"A");
        assert_eq!(&a.bytes()[..6], b"Ahared");
        assert_eq!(&b.bytes()[..6], b"shared", "the other holder keeps its bytes");
        let mut z = PageData::zeroed();
        z.bytes_mut()[7] = 9;
        assert!(PageData::zeroed().bytes().iter().all(|&x| x == 0));
    }

    #[test]
    fn debug_counts_nonzero() {
        let mut p = PageData::zeroed();
        p.write(0, &[1, 2, 3]);
        assert_eq!(format!("{p:?}"), "PageData(3 nonzero bytes)");
    }
}
