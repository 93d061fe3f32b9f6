//! §8 ablations: coherence protocols beyond MSI, and sharer-aware thread
//! placement.

use mind_core::cluster::MindConfig;
use mind_core::stt::Protocol;
use mind_core::system::ConsistencyModel;
use mind_harness::{footprint_pages, Scenario, SystemSpec, WorkloadSpec, REAL_WORKLOADS};
use mind_workloads::kvs::KvsConfig;
use mind_workloads::runner::RunConfig;

use super::scaled_ops;

// ---- Coherence protocols: MSI vs MESI vs MOESI ----
//
// The paper implements MSI and conjectures MOESI "may offer better
// scalability by reducing broadcasts and write-backs" at the cost of a
// larger state-transition table. Quantified here at 4 blades × 10
// threads: MESI removes the S→M upgrade fault for private
// read-then-write patterns; MOESI additionally removes the write-back on
// M→S downgrades.

const PROTO_BLADES: u16 = 4;
const PROTO_TPB: u16 = 10;
const PROTO_TOTAL_OPS: u64 = 400_000;
const PROTOCOLS: [Protocol; 3] = [Protocol::Msi, Protocol::Mesi, Protocol::Moesi];

/// Scenario table for the protocol ablation.
pub fn protocols_build(quick: bool) -> Vec<Scenario> {
    let total = scaled_ops(PROTO_TOTAL_OPS, quick);
    let mut table = Vec::new();
    for wl_name in REAL_WORKLOADS {
        for protocol in PROTOCOLS {
            let n_threads = PROTO_BLADES * PROTO_TPB;
            let workload = WorkloadSpec::real(wl_name, n_threads);
            let regions = workload.regions();
            let cfg = MindConfig::scaled_to(footprint_pages(&regions), PROTO_BLADES)
                .consistency(ConsistencyModel::Tso)
                .protocol(protocol);
            let ops_per_thread = total / n_threads as u64;
            table.push(Scenario::replay(
                format!("ablation_protocols/{wl_name}/{}", protocol.name()),
                SystemSpec::Mind(cfg),
                workload,
                RunConfig {
                    ops_per_thread,
                    warmup_ops_per_thread: ops_per_thread / 2,
                    threads_per_blade: PROTO_TPB,
                    ..Default::default()
                },
            ));
        }
    }
    table
}

// ---- Thread placement: sharers split vs co-located ----
//
// A partitioned KVS under YCSB-A where threads `t` and `t + n/2` share a
// partition. Grouped placement (`t / threads_per_blade`) puts the two
// sharers of every partition on *different* blades — every shared write
// ping-pongs; interleaved placement (`t % n_blades`) co-locates them —
// shared writes become local cache hits.

const PLACE_BLADES: u16 = 2;
const PLACE_THREADS: u16 = 20;
const PLACE_OPS_PER_THREAD: u64 = 15_000;

/// Scenario table for the placement ablation: grouped, then co-located.
pub fn placement_build(quick: bool) -> Vec<Scenario> {
    let ops_per_thread = scaled_ops(PLACE_OPS_PER_THREAD, quick);
    [("sharers-split", false), ("sharers-colocated", true)]
        .into_iter()
        .map(|(label, interleave)| {
            let workload = WorkloadSpec::Kvs(KvsConfig {
                n_partitions: PLACE_THREADS / 2,
                locality: 1.0,
                ..KvsConfig::ycsb_a(PLACE_THREADS)
            });
            let regions = workload.regions();
            Scenario::replay(
                format!("ablation_placement/{label}"),
                SystemSpec::mind_scaled(&regions, PLACE_BLADES, ConsistencyModel::Tso),
                workload,
                RunConfig {
                    ops_per_thread,
                    warmup_ops_per_thread: ops_per_thread / 2,
                    threads_per_blade: PLACE_THREADS / PLACE_BLADES,
                    interleave,
                    ..Default::default()
                },
            )
        })
        .collect()
}
