//! The passive memory blade.
//!
//! MIND memory blades store pages and serve one-sided RDMA reads/writes with
//! *no CPU involvement* (paper §6.2): after registering its physical memory
//! with the NIC at boot, all requests are handled by the NIC. The model here
//! is therefore just a bounded page store — any latency is charged by the
//! fabric and the NIC service constant.

use mind_sim::hash::FastMap;

use crate::page::{PageData, PAGE_SHIFT};

/// Error: physical page index beyond the blade's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRange {
    /// The offending physical page index.
    pub ppage: u64,
    /// The blade's capacity in pages.
    pub capacity_pages: u64,
}

impl std::fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "physical page {} out of range (capacity {} pages)",
            self.ppage, self.capacity_pages
        )
    }
}

impl std::error::Error for OutOfRange {}

/// A memory blade: a sparse store of physical pages.
#[derive(Debug, Clone)]
pub struct MemoryBlade {
    capacity_pages: u64,
    pages: FastMap<u64, PageData>,
}

impl MemoryBlade {
    /// Creates a blade with `capacity_bytes` of memory.
    pub fn new(capacity_bytes: u64) -> Self {
        MemoryBlade {
            capacity_pages: capacity_bytes >> PAGE_SHIFT,
            pages: FastMap::default(),
        }
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    fn check(&self, ppage: u64) -> Result<(), OutOfRange> {
        if ppage < self.capacity_pages {
            Ok(())
        } else {
            Err(OutOfRange {
                ppage,
                capacity_pages: self.capacity_pages,
            })
        }
    }

    /// Serves a one-sided RDMA read of physical page `ppage`.
    ///
    /// Never-written pages read as zeros (fresh DRAM in the model).
    pub fn read_page(&self, ppage: u64) -> Result<PageData, OutOfRange> {
        self.check(ppage)?;
        Ok(self.pages.get(&ppage).cloned().unwrap_or_default())
    }

    /// Serves a read without carrying data (pure-simulation fast path).
    pub fn read_page_nodata(&self, ppage: u64) -> Result<(), OutOfRange> {
        self.check(ppage)
    }

    /// Serves a one-sided RDMA write (flush / eviction write-back).
    pub fn write_page(&mut self, ppage: u64, data: PageData) -> Result<(), OutOfRange> {
        self.check(ppage)?;
        self.pages.insert(ppage, data);
        Ok(())
    }

    /// Serves a write without data (pure-simulation fast path).
    pub fn write_page_nodata(&self, ppage: u64) -> Result<(), OutOfRange> {
        self.check(ppage)
    }

    /// Forgets the `pages` physical pages from `first`: their extent was
    /// freed, and its next owner must read zeros, not the last one's bytes.
    /// Walks the range or the store, whichever is smaller.
    pub fn free_range(&mut self, first: u64, pages: u64) {
        let range = first..first + pages;
        if (self.pages.len() as u64) < pages {
            self.pages.retain(|ppage, _| !range.contains(ppage));
        } else {
            for ppage in range {
                self.pages.remove(&ppage);
            }
        }
    }

    /// The stored contents of `ppage`, if any (an inspection, not an RDMA
    /// read: no range check, and a never-written page is `None`).
    pub fn peek(&self, ppage: u64) -> Option<&PageData> {
        self.pages.get(&ppage)
    }

    /// Pages currently holding written data (sparse occupancy).
    pub fn pages_populated(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_pages_read_zero() {
        let mb = MemoryBlade::new(1 << 20); // 256 pages.
        let page = mb.read_page(5).unwrap();
        assert!(page.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut mb = MemoryBlade::new(1 << 20);
        let mut data = PageData::zeroed();
        data.write(0, b"persisted");
        mb.write_page(7, data).unwrap();
        let back = mb.read_page(7).unwrap();
        let mut buf = [0u8; 9];
        back.read(0, &mut buf);
        assert_eq!(&buf, b"persisted");
        assert_eq!(mb.pages_populated(), 1);
    }

    #[test]
    fn freed_pages_read_zero_again() {
        let mut mb = MemoryBlade::new(1 << 20);
        for ppage in [3, 7, 8, 40] {
            mb.write_page(ppage, PageData::from_bytes(b"old owner")).unwrap();
        }
        assert!(mb.peek(7).is_some());
        mb.free_range(4, 8); // Wider than the store: the store is walked.
        assert!(mb.peek(7).is_none() && mb.peek(8).is_none());
        mb.free_range(40, 1); // Narrower: the range is.
        assert_eq!(mb.pages_populated(), 1, "page 3 was outside both");
        assert_eq!(mb.read_page(7).unwrap(), PageData::zeroed());
    }

    #[test]
    fn capacity_enforced() {
        let mut mb = MemoryBlade::new(2 << PAGE_SHIFT); // 2 pages.
        assert!(mb.read_page(1).is_ok());
        let err = mb.read_page(2).unwrap_err();
        assert_eq!(err.ppage, 2);
        assert_eq!(err.capacity_pages, 2);
        assert!(mb.write_page(9, PageData::zeroed()).is_err());
    }

    #[test]
    fn nodata_paths_count_traffic() {
        let mb = MemoryBlade::new(1 << 20);
        mb.read_page_nodata(0).unwrap();
        mb.write_page_nodata(0).unwrap();
        assert!(mb.write_page_nodata(256).is_err(), "range still checked");
        assert_eq!(mb.pages_populated(), 0, "nodata writes store nothing");
    }
}
