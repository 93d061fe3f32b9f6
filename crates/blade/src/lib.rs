//! Compute- and memory-blade models.
//!
//! Under MIND's partial-disaggregation model (paper §2, §6.1) compute blades
//! keep a few GB of local DRAM as a *cache* over the disaggregated memory
//! pool, managed by a page-fault-driven kernel module; memory blades are
//! passive page stores served entirely by one-sided RDMA with no CPU
//! involvement (§6.2).
//!
//! This crate provides:
//! - [`page`]: the 4 KB page unit and page-data container;
//! - [`pagetable`]: the blade-local VA→PA map (frames + PTEs) that backs the
//!   cache, with TLB-shootdown accounting on unmap/downgrade;
//! - [`cache`]: the LRU DRAM cache, tracking writable/dirty pages per region
//!   so invalidations can flush exactly the dirty pages (§6.1);
//! - [`invalidation`]: the per-blade invalidation-handler queue whose delay
//!   shows up as "Inv (queue)" in Figure 7 (right);
//! - [`membld`]: the passive memory blade.

#![forbid(unsafe_code)]

pub mod cache;
pub mod invalidation;
pub mod membld;
pub mod page;
pub mod pagetable;

pub use cache::{CacheLookup, CacheProbe, DramCache, InvalidationOutcome, TaggedLookup};
pub use invalidation::InvalidationQueue;
pub use membld::MemoryBlade;
pub use page::{page_base, page_index, PageData, PAGE_SHIFT, PAGE_SIZE};
pub use pagetable::{PageTable, Pte};
