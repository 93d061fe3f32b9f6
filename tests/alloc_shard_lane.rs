//! Allocation gate of a shard lane: one worker lane replays every shard of
//! a tenant population, so each shard after the first runs in the storage
//! the lane grew for the first one.
//!
//! `mind_obs::mem::alloc_counts()` is process-wide, so this is the only
//! test in its target: a sibling test thread's allocations would land in
//! the measured delta.

use mind_obs::mem::alloc_counts;
use mind_service::{population_spec, tenant_partitions, TenantGroupConfig};
use mind_sim::SimTime;
use mind_workloads::run_sharded_threads;

/// Allocations of one single-lane run over `partitions` shards of 64
/// tenants each. Every shard gets the same sub-rack whatever `partitions`
/// is: the population sizes the rack's capacities per partition. A shard
/// replays for 2.2-2.4 ms of simulated time, so a 1 ms splitting epoch
/// ends twice in each, as epochs end in the benchmark's larger shards.
fn lane_run(partitions: u16) -> u64 {
    let population = TenantGroupConfig {
        tenants_per_group: 64,
        pages_per_tenant: 16,
        read_ratio: 0.7,
        seed: 1,
    };
    let mut spec = population_spec("lane", partitions, population);
    spec.base.split.epoch_len = SimTime::from_millis(1);
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
    let later = lane_run(8) - lane_run(2);
    // A lane that builds a new rack per shard makes 67 allocations per
    // shard here, and 74 with a new replay too; one that rebuilt its rack
    // in the old rack's storage and kept its replay made 25. A lane that
    // builds each shard's rack, report, workload list, sources and region
    // bases in the storage of the shard before makes the 4 the caller's
    // factory makes: the tenant group's box, its RNGs and cursors, and the
    // list `Workload::regions` returns.
    assert_eq!(later, 6 * 4, "six later shards made {later} allocations");
}
