//! # MIND: in-network memory management for disaggregated data centers
//!
//! A full reproduction of the SOSP 2021 paper's system as a deterministic
//! simulation. MIND places *all* memory-management logic and metadata in the
//! rack's network fabric: the programmable top-of-rack switch performs
//! address translation, memory protection, and directory-based MSI cache
//! coherence at line rate, while compute blades keep only a local DRAM page
//! cache and memory blades are passive one-sided-RDMA page stores.
//!
//! The crate mirrors the paper's structure:
//!
//! - [`addr`]: the single global virtual address space, range-partitioned
//!   across memory blades (§4.1);
//! - [`galloc`]: load-balanced, fragmentation-minimizing memory allocation
//!   at the switch control plane (§4.1);
//! - [`translate`]: storage-efficient blade-granularity address translation
//!   with TCAM "outlier" entries for migrated/static ranges (§4.1);
//! - [`protect`]: domain-based `<PDID, vma> → permission-class` protection,
//!   decoupled from translation (§4.2);
//! - [`directory`]: the region-granularity cache directory held in switch
//!   SRAM slots (§4.3, §6.3);
//! - [`split`]: the Bounded Splitting algorithm that dynamically sizes the
//!   regions each directory entry tracks (§5);
//! - [`coherence`]: the in-network MSI protocol with multicast
//!   invalidations, the fixed pipeline-plus-recirculation delay of each
//!   directory transition, and false-invalidation accounting (§4.3.2, §6.3);
//! - [`controller`]: the switch control plane — processes, system-call
//!   intercepts, epoch driver (§6.3);
//! - [`failure`]: ACK/timeout/reset handling (§4.4);
//! - [`cluster`]: [`cluster::MindCluster`], the top-level public API tying a
//!   simulated rack together;
//! - [`system`]: the [`system::MemorySystem`] trait shared with the
//!   baseline systems (GAM, FastSwap) for apples-to-apples evaluation;
//! - [`engine`]: the event-driven issue engine that lets the
//!   issue/complete datapath overlap independent page-fault round trips
//!   (memory-level parallelism) for one windowed batch or every compute
//!   thread at once — slot pool, region serialization, and a per-NIC
//!   issue-bandwidth gate;
//! - [`shard`]: blade-slice partition layout and sub-cluster configs for
//!   the deterministic sharded simulation (see `mind_workloads::shard`).
//!
//! ## Quick start
//!
//! ```
//! use mind_core::cluster::{MindCluster, MindConfig};
//! use mind_core::system::AccessKind;
//! use mind_sim::SimTime;
//!
//! // A rack: 2 compute blades, 2 memory blades, default calibration.
//! let mut cluster = MindCluster::new(MindConfig::small());
//! let pid = cluster.exec().unwrap();
//! let vaddr = cluster.mmap(pid, 1 << 20).unwrap(); // 1 MB shared region.
//!
//! // Thread on blade 0 writes, thread on blade 1 reads — transparently
//! // coherent through the switch.
//! cluster.write_bytes(SimTime::ZERO, 0, pid, vaddr, b"hello rack").unwrap();
//! let out = cluster
//!     .read_bytes(SimTime::from_micros(50), 1, pid, vaddr, 10)
//!     .unwrap();
//! assert_eq!(&out, b"hello rack");
//! # let _ = AccessKind::Read;
//! ```

#![forbid(unsafe_code)]

pub mod addr;
pub mod cluster;
pub mod coherence;
pub mod controller;
pub mod directory;
pub mod engine;
pub mod failure;
pub mod galloc;
pub mod protect;
pub mod shard;
pub mod split;
pub mod stt;
pub mod system;
pub mod translate;

pub use addr::{PhysAddr, Vma};
pub use cluster::{MindCluster, MindConfig, CX5_NIC_DEPTH};
pub use engine::{ClusterEngine, ClusterStep};
pub use system::{
    AccessKind, AccessOutcome, ConsistencyModel, LatencyBreakdown, MemOp, MemorySystem, OpBatch,
};
