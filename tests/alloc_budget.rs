//! Steady-state allocation budget of the remote-fault path.
//!
//! `mind_obs::mem::alloc_counts()` is process-wide, so this is the only
//! test in its target: a sibling test thread's allocations would land in
//! the measured delta.

use mind_core::cluster::{MindCluster, MindConfig};
use mind_obs::mem::alloc_counts;
use mind_sim::SimTime;
use mind_workloads::micro::{MicroConfig, MicroWorkload};
use mind_workloads::{run, Concurrency, RunConfig, RunReport, Workload};

/// What is left per 1 000 operations once nothing on the fault path
/// allocates per fault or per epoch: the amortized growth of long-lived
/// buffers (the splitter's two per-epoch series, the report's samples). The
/// stream cost 164 while the directory and the caches mirrored their maps
/// in ordered trees, and 13.5 while every bounded-splitting epoch built its
/// working lists afresh.
const BUDGET_PER_KOP: f64 = 2.0;

const THREADS: u16 = 4;
const SHARED_PAGES: u64 = 20_000;
const PRIVATE_PAGES: u64 = 1_000;
const WARMUP_PER_THREAD: u64 = 4_000;

/// The benchmark's `remote_faults` shape at half its footprint: a
/// shared region far beyond the blade caches, replayed through the
/// cluster engine. Returns the report and the allocations the whole
/// replay made.
fn replay(ops_per_thread: u64) -> (RunReport, u64) {
    let mut workload = MicroWorkload::new(MicroConfig {
        n_threads: THREADS,
        read_ratio: 0.5,
        sharing_ratio: 1.0,
        shared_pages: SHARED_PAGES,
        private_pages: PRIVATE_PAGES,
        seed: 7,
    });
    let footprint: u64 = workload.regions().iter().map(|len| len >> 12).sum();
    let mut cluster = MindCluster::new(MindConfig::scaled_to(footprint, 2));
    let cfg = RunConfig {
        ops_per_thread,
        warmup_ops_per_thread: WARMUP_PER_THREAD,
        threads_per_blade: 2,
        think_time: SimTime::from_nanos(100),
        ..Default::default()
    }
    .with_batch_ops(64)
    .with_window(16)
    .with_concurrency(Concurrency::Cluster);
    let (before, _) = alloc_counts();
    let report = run(&mut cluster, &mut workload, cfg);
    let (after, _) = alloc_counts();
    (report, after - before)
}

#[test]
fn remote_fault_stream_stays_within_its_allocation_budget() {
    // Set-up and warm-up are identical in both replays, so the difference
    // is what the extra measured operations allocated, in steady state.
    const SHORT: u64 = 4_000;
    const LONG: u64 = 12_000;
    let (short, short_allocs) = replay(SHORT);
    let (long, long_allocs) = replay(LONG);

    // The stream is the one the budget is about: nearly every op faults,
    // and the directory filled up (it had to force merges to admit new
    // regions).
    assert!(
        long.remote_per_op > 0.8,
        "remote per op {}",
        long.remote_per_op
    );
    assert!(long.metrics.get("forced_merges") > 0);
    let footprint = SHARED_PAGES + PRIVATE_PAGES * THREADS as u64;
    assert_eq!(
        long.metrics.get("directory_watermark"),
        MindConfig::scaled_to(footprint, 2).dir_capacity as u64
    );

    let extra_ops = long.total_ops - short.total_ops;
    assert_eq!(extra_ops, (LONG - SHORT) * THREADS as u64);
    let per_kop = (long_allocs - short_allocs) as f64 * 1_000.0 / extra_ops as f64;
    assert!(
        per_kop <= BUDGET_PER_KOP,
        "{per_kop:.1} allocations per 1 000 remote-fault ops, budget {BUDGET_PER_KOP}"
    );
}
