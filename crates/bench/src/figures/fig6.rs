//! Figure 6: invalidation overhead of MIND per workload and blade count.
//!
//! Reports remote accesses, invalidation requests, and flushed pages as a
//! fraction of total memory accesses for TF / GC / MA / MC at 1–8 compute
//! blades. Expected shape (paper): all three rates grow with blade count;
//! GC's growth is much steeper than TF's; MA and MC trigger over 10× more
//! invalidations and page flushes than either. Here remote accesses grow
//! for every workload, GC's more steeply than TF's, but invalidations and
//! flushes grow only for MA and MC: TF's and GC's stay small and flat (TF's
//! flushes fall from 2 to 8 blades). `tests/figure_claims.rs` asserts what
//! holds.

use mind_core::system::ConsistencyModel;
use mind_harness::{Scenario, SystemSpec, WorkloadSpec, REAL_WORKLOADS};
use mind_workloads::runner::RunConfig;

use super::scaled_ops;

const THREADS_PER_BLADE: u16 = 10;
const BLADES: [u16; 4] = [1, 2, 4, 8];
const TOTAL_OPS: u64 = 400_000;

/// Scenario table for Figure 6.
pub fn build(quick: bool) -> Vec<Scenario> {
    let total = scaled_ops(TOTAL_OPS, quick);
    let mut table = Vec::new();
    for wl_name in REAL_WORKLOADS {
        for &blades in &BLADES {
            let n_threads = blades * THREADS_PER_BLADE;
            let ops_per_thread = total / n_threads as u64;
            let workload = WorkloadSpec::real(wl_name, n_threads);
            let regions = workload.regions();
            table.push(Scenario::replay(
                format!("fig6_invalidation/{wl_name}/b{blades}"),
                SystemSpec::mind_scaled(&regions, blades, ConsistencyModel::Tso),
                workload,
                RunConfig {
                    ops_per_thread,
                    warmup_ops_per_thread: ops_per_thread / 2,
                    threads_per_blade: THREADS_PER_BLADE,
                    ..Default::default()
                },
            ));
        }
    }
    table
}
