//! Figure 5: end-to-end performance scaling (left: intra-blade; center:
//! inter-blade; right: Native-KVS throughput).

use mind_core::system::ConsistencyModel;
use mind_harness::{Scenario, SystemSpec, WorkloadSpec, REAL_WORKLOADS};
use mind_workloads::kvs::KvsConfig;
use mind_workloads::runner::RunConfig;

use super::scaled_ops;

fn replay_cfg(ops_per_thread: u64, threads_per_blade: u16) -> RunConfig {
    RunConfig {
        ops_per_thread,
        warmup_ops_per_thread: ops_per_thread / 2,
        threads_per_blade,
        ..Default::default()
    }
}

// ---- Figure 5 (left): intra-blade scaling ----
//
// 1–10 threads on a single compute blade for TF / GC / MA / MC under MIND,
// FastSwap, and GAM, normalized to MIND at 1 thread. Expected shape
// (paper): MIND and FastSwap scale almost linearly; GAM is linear only to
// ~4 threads (its user-level library takes a lock on *every* access).

const INTRA_THREADS: [u16; 4] = [1, 2, 4, 10];
const INTRA_TOTAL_OPS: u64 = 400_000;

/// Scenario table for Figure 5 (left).
pub fn intra_build(quick: bool) -> Vec<Scenario> {
    let total = scaled_ops(INTRA_TOTAL_OPS, quick);
    let mut table = Vec::new();
    for wl_name in REAL_WORKLOADS {
        for &threads in &INTRA_THREADS {
            let run = replay_cfg(total / threads as u64, threads);
            let workload = WorkloadSpec::real(wl_name, threads);
            let regions = workload.regions();
            for system in [
                SystemSpec::mind_scaled(&regions, 1, ConsistencyModel::Tso),
                SystemSpec::fastswap_scaled(&regions),
                SystemSpec::gam_scaled(&regions, 1, threads),
            ] {
                table.push(Scenario::replay(
                    format!("fig5_intra/{wl_name}/{}/t{threads}", system.label()),
                    system,
                    workload,
                    run,
                ));
            }
        }
    }
    table
}

// ---- Figure 5 (center): inter-blade scaling ----
//
// 10 threads per compute blade, 1–8 blades, under MIND (TSO), MIND-PSO,
// MIND-PSO+ (infinite directory), and GAM, normalized to MIND at 1 blade.
// FastSwap is omitted: it does not transparently scale beyond one blade
// (§7.1). Expected shape (paper): TF scales ~1.67× per doubling; GC peaks
// at 2 blades; MA/MC do not scale past 1 blade under TSO; PSO(+) recovers
// some scaling; GAM scales better on write-heavy workloads but from a much
// lower single-blade baseline.

const INTER_BLADES: [u16; 4] = [1, 2, 4, 8];
const INTER_TPB: u16 = 10;
const INTER_TOTAL_OPS: u64 = 600_000;

/// Scenario table for Figure 5 (center).
pub fn inter_build(quick: bool) -> Vec<Scenario> {
    let total = scaled_ops(INTER_TOTAL_OPS, quick);
    let mut table = Vec::new();
    for wl_name in REAL_WORKLOADS {
        for &blades in &INTER_BLADES {
            let n_threads = blades * INTER_TPB;
            let run = replay_cfg(total / n_threads as u64, INTER_TPB);
            let workload = WorkloadSpec::real(wl_name, n_threads);
            let regions = workload.regions();
            for system in [
                SystemSpec::mind_scaled(&regions, blades, ConsistencyModel::Tso),
                SystemSpec::mind_scaled(&regions, blades, ConsistencyModel::Pso),
                SystemSpec::mind_scaled(&regions, blades, ConsistencyModel::PsoPlus),
                SystemSpec::gam_scaled(&regions, blades, INTER_TPB),
            ] {
                table.push(Scenario::replay(
                    format!("fig5_inter/{wl_name}/{}/b{blades}", system.label()),
                    system,
                    workload,
                    run,
                ));
            }
        }
    }
    table
}

// ---- Figure 5 (right): Native-KVS throughput (MOPS) ----
//
// Single-blade scaling (1–10 threads) for MIND and FastSwap, then
// multi-blade scaling (20–80 threads at 10/blade) for MIND only —
// FastSwap cannot share state across blades. Expected shape (paper):
// near-linear intra-blade scaling for both; YCSB-A stops scaling past one
// blade (read-write contention) while YCSB-C keeps scaling linearly.

const KVS_OPS_PER_THREAD: u64 = 20_000;
const KVS_MIXES: [&str; 2] = ["A", "C"];
const KVS_SINGLE_THREADS: [u16; 4] = [1, 2, 4, 10];
const KVS_MULTI_THREADS: [u16; 3] = [20, 40, 80];

fn kvs_spec(mix: &str, threads: u16) -> WorkloadSpec {
    WorkloadSpec::Kvs(match mix {
        "A" => KvsConfig::ycsb_a(threads),
        _ => KvsConfig::ycsb_c(threads),
    })
}

/// Scenario table for Figure 5 (right).
pub fn kvs_build(quick: bool) -> Vec<Scenario> {
    let ops = scaled_ops(KVS_OPS_PER_THREAD, quick);
    let mut table = Vec::new();
    // Single blade: MIND + FastSwap.
    for mix in KVS_MIXES {
        for &threads in &KVS_SINGLE_THREADS {
            let workload = kvs_spec(mix, threads);
            let regions = workload.regions();
            let run = replay_cfg(ops, threads);
            for system in [
                SystemSpec::mind_scaled(&regions, 1, ConsistencyModel::Tso),
                SystemSpec::fastswap_scaled(&regions),
            ] {
                table.push(Scenario::replay(
                    format!("fig5_kvs/YCSB-{mix}/{}/t{threads}", system.label()),
                    system,
                    workload,
                    run,
                ));
            }
        }
    }
    // Multiple blades: MIND only.
    for mix in KVS_MIXES {
        for &threads in &KVS_MULTI_THREADS {
            let blades = threads / 10;
            let workload = kvs_spec(mix, threads);
            let regions = workload.regions();
            table.push(Scenario::replay(
                format!("fig5_kvs/YCSB-{mix}/MIND/t{threads}b{blades}"),
                SystemSpec::mind_scaled(&regions, blades, ConsistencyModel::Tso),
                workload,
                replay_cfg(ops, threads.div_ceil(blades)),
            ));
        }
    }
    table
}
