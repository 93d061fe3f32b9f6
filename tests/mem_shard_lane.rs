//! Memory gate of a shard lane: the heap one worker lane holds at its peak
//! while it replays every shard of a tenant population. A lane builds one
//! rack for its first shard and, for every later one, rebuilds it through
//! the constructor in the old rack's storage, and each finished shard's
//! report folds into the run's one report, so the peak does not depend on
//! how many shards the lane replays.
//!
//! `mind_obs::mem::live_bytes()` is process-wide, so this is the only test
//! in its target: a sibling test thread's allocations would land in the
//! measured peak.

use mind_obs::mem::{live_bytes, reset_peak_live};
use mind_service::{population_spec, tenant_partitions, TenantGroupConfig};
use mind_workloads::run_sharded_threads;

/// Bytes above the starting point that one single-lane run over
/// `partitions` shards of 64 tenants each holds live at its peak. Every
/// shard gets the same sub-rack whatever `partitions` is: the population
/// sizes the rack's capacities per partition.
fn lane_peak(partitions: u16) -> u64 {
    let population = TenantGroupConfig {
        tenants_per_group: 64,
        pages_per_tenant: 16,
        read_ratio: 0.7,
        seed: 1,
    };
    let spec = population_spec("lane", partitions, population);
    let factory = tenant_partitions(population);
    reset_peak_live();
    let (before, _) = live_bytes();
    let report = run_sharded_threads(&spec, partitions, 1, &factory).expect("confined population");
    let (_, peak) = live_bytes();
    assert_eq!(report.total_ops, partitions as u64 * 64 * 8);
    peak - before
}

#[test]
fn a_lanes_peak_heap_does_not_grow_with_its_shards() {
    // The first call pays the process's one-time costs.
    lane_peak(2);
    let (two, eight) = (lane_peak(2), lane_peak(8));
    assert_eq!(two, eight, "2 shards peak at {two} B, 8 shards at {eight} B");
    let golden: u64 = include_str!("golden/live_peak_shard_lane.txt")
        .trim()
        .parse()
        .expect("a byte count");
    assert!(
        eight <= golden,
        "a lane peaks at {eight} B of live heap, over the {golden} B in tests/golden/live_peak_shard_lane.txt"
    );
}
