//! Allocation gate of a shard lane: one worker lane replays every shard of
//! a tenant population, so each shard after the first runs on the rack the
//! lane built for the first one.
//!
//! `mind_obs::mem::alloc_counts()` is process-wide, so this is the only
//! test in its target: a sibling test thread's allocations would land in
//! the measured delta.

use mind_obs::mem::alloc_counts;
use mind_obs::{TraceConfig, TraceMode};
use mind_service::{population_spec, tenant_partitions, TenantGroupConfig};
use mind_workloads::run_sharded_threads;

/// Allocations of one single-lane run over `partitions` shards of 64
/// tenants each. Every shard gets the same sub-rack whatever `partitions`
/// is: the population sizes the rack's capacities per partition.
fn lane_run(partitions: u16) -> u64 {
    let population = TenantGroupConfig {
        tenants_per_group: 64,
        pages_per_tenant: 16,
        read_ratio: 0.7,
        seed: 1,
    };
    let mut spec = population_spec("lane", partitions, population);
    let untraced = TraceConfig::with_mode(TraceMode::Off);
    spec.base.trace = untraced;
    spec.run = spec.run.with_trace(untraced);
    let factory = tenant_partitions(population);
    let (before, _) = alloc_counts();
    let report = run_sharded_threads(&spec, partitions, 1, &factory).expect("confined population");
    let (after, _) = alloc_counts();
    assert_eq!(report.total_ops, partitions as u64 * 64 * 8);
    after - before
}

#[test]
fn a_shard_after_the_first_reuses_the_lanes_rack() {
    // The first call pays the process's one-time costs; 2 and 8 shards
    // then differ by six shards on a warm lane.
    lane_run(2);
    let per_shard = (lane_run(8) - lane_run(2)) / 6;
    // A lane that builds a new rack per shard makes 67 allocations per
    // shard here, and 74 with a new replay too; one that rebuilds its rack
    // in the old rack's storage and keeps its replay makes 25: the shard's
    // workload, name, pids, region bases and report.
    assert!(per_shard <= 25, "each later shard made {per_shard} allocations");
}
