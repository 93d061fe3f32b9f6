//! Workload generators and the trace-replay runner (paper §7 methodology).
//!
//! The paper captures memory accesses from real applications with Intel PIN
//! and replays identical traces against MIND, GAM, and FastSwap. Here each
//! workload is a deterministic *generator* parameterised to match the
//! published access-pattern statistics of its application:
//!
//! - [`tf`]: TensorFlow/ResNet-50 — large read-mostly weight tensors,
//!   per-thread activations, rare shared parameter updates; scales well.
//! - [`gc`]: GraphChi/PageRank on a social graph — random, contended access
//!   to shared rank state; writes ~2.5× more shared data than TF.
//! - [`memcached`]: Memcached under YCSB-A (50/50) and YCSB-C (read-only),
//!   with the shared LRU/metadata writes memcached performs on *every*
//!   operation — the reason even read-only M_C triggers invalidation storms.
//! - [`kvs`]: Native-KVS — a partitioned key-value store whose state splits
//!   cleanly across blades (scales better than memcached, Figure 5 right).
//! - [`micro`]: the §7.2 microbenchmark — 400 k-page working set, uniform
//!   random, swept over read ratio × sharing ratio.
//!
//! [`runner`] replays any [`trace::Workload`] against any
//! [`mind_core::system::MemorySystem`], maintaining per-thread virtual
//! clocks and aggregating the latency breakdowns the figures report.
//! [`shard`] scales that replay to partitioned multi-tenant scenarios: a
//! fused serialized reference and a deterministic sharded executor over
//! per-partition sub-clusters, merged exactly.

#![forbid(unsafe_code)]

pub mod gc;
pub mod kvs;
pub mod memcached;
pub mod micro;
pub mod runner;
pub mod shard;
pub mod tf;
pub mod trace;

pub use runner::{merge_reports, run, Concurrency, ReportMerger, RunConfig, RunReport};
pub use shard::{
    run_group, run_shard, run_sharded, run_sharded_threads, ShardError, ShardSpec, StreamedMerge,
    SHARD_THREADS_ENV,
};
pub use trace::{TraceOp, Workload};
