//! Allocation gate of a tenant's control-plane life cycle: `exec`, one
//! `mmap_in`, a store so that the exit has a page to write back, `exit`.
//!
//! `mind_obs::mem::alloc_counts()` is process-wide, so this is the only
//! test in its target: a sibling test thread's allocations would land in
//! the measured delta.

use mind_core::cluster::{MindCluster, MindConfig};
use mind_core::system::AccessKind;
use mind_obs::mem::alloc_counts;
use mind_sim::SimTime;

/// Builds a rack, keeps a few long-lived tenants on it, then runs `cycles`
/// short-lived single-region tenants through it one after the other.
/// Returns the allocations of the whole run.
fn churn(cycles: u64) -> u64 {
    let (before, _) = alloc_counts();
    let mut rack = MindCluster::new(MindConfig::scaled_to(4_096, 2));
    let mut now = SimTime::ZERO;
    for _ in 0..8 {
        let pid = rack.exec().unwrap();
        rack.mmap_in(pid, 1 << 16, 0..2).unwrap();
    }
    for cycle in 0..cycles {
        // Both runs stay inside the first bounded-splitting epoch, whose
        // per-epoch series for the figures would grow with the run.
        now += SimTime::from_nanos(100);
        let pid = rack.exec().unwrap();
        let base = rack.mmap_in(pid, 1 << 16, 0..2).unwrap();
        rack.access_as(now, (cycle % 2) as u16, pid, base, AccessKind::Write)
            .unwrap();
        rack.exit(now, pid).unwrap();
        assert_eq!(rack.protection_entries_for(pid), 0);
    }
    assert_eq!(rack.metrics_snapshot().get("flushed_pages"), cycles);
    let (after, _) = alloc_counts();
    after - before
}

#[test]
fn a_tenant_life_cycle_on_a_warm_rack_allocates_nothing() {
    // Building the rack and the first cycles (tables and scratch buffers
    // reaching their working size) cost the same in both runs, so the
    // difference is what 3 000 more cycles allocated.
    let short = churn(1_000);
    let long = churn(4_000);
    assert!(
        long <= short,
        "3 000 more tenant life cycles made {} allocations",
        long - short
    );
}
