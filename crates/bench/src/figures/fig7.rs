//! Figure 7: coherence microbenchmarks (left: MSI transition latency;
//! center: IOPS vs sharing ratio; right: latency breakdown).

use mind_core::cluster::{MindCluster, MindConfig};
use mind_core::system::{AccessKind, ConsistencyModel};
use mind_harness::{Scenario, ScenarioOutput, SystemSpec, WorkloadSpec};
use mind_sim::SimTime;
use mind_workloads::micro::MicroConfig;
use mind_workloads::runner::RunConfig;

use super::scaled_ops;

// ---- Figure 7 (left): MSI transition latency ----
//
// Orchestrates each transition on fresh pages and measures the
// requester's access latency, for 2, 4, and 8 compute blades requesting
// the same page. Expected shape (paper): transitions without
// invalidations (S→S, I→S/M) cost one RDMA round trip (~8.5–9.4 µs); S→M
// overlaps its invalidation with the data path (~8.6 µs, flat in the
// sharer count thanks to switch multicast); transitions out of M are two
// sequential round trips (~18 µs).

const TRANSITION_RACKS: [u16; 3] = [2, 4, 8];
const TRANSITION_ITERS: u64 = 200;
const PAGE: u64 = 4096;

/// One MSI transition of Figure 7 (left), identified by requester intent
/// and orchestrated prior state.
#[derive(Debug, Clone, Copy)]
enum Transition {
    /// Sharers exist; blade 0 reads.
    SToS,
    /// Fresh page; blade 0 reads.
    IToS,
    /// Fresh page; blade 0 writes.
    IToM,
    /// Sharers exist; blade 0 writes (invalidation multicast overlaps the
    /// data fetch, §7.2).
    SToM,
    /// Blade 1 owns dirty; blade 0 reads.
    MToS,
    /// Blade 1 owns dirty; blade 0 writes.
    MToM,
}

const TRANSITIONS: [(&str, Transition); 6] = [
    ("S->S", Transition::SToS),
    ("I->S", Transition::IToS),
    ("I->M", Transition::IToM),
    ("S->M (inval)", Transition::SToM),
    ("M->S (inval)", Transition::MToS),
    ("M->M (inval)", Transition::MToM),
];

fn access(c: &mut MindCluster, pid: u64, vaddr: u64, at: SimTime, blade: u16, kind: AccessKind) -> SimTime {
    c.access_as(at, blade, pid, vaddr, kind)
        .expect("orchestrated access")
        .latency
        .total()
}

/// Mean latency (µs) of `transition` across `iters` fresh pages in a rack
/// of `blades` compute blades.
fn measure_transition(blades: u16, transition: Transition, iters: u64) -> f64 {
    let mut cluster = MindCluster::new(MindConfig {
        n_compute: blades,
        ..Default::default()
    });
    let pid = cluster.exec().unwrap();
    let base = cluster.mmap(pid, iters * PAGE).unwrap();
    let mut total = SimTime::ZERO;
    for i in 0..iters {
        let vaddr = base + i * PAGE;
        // Generous spacing so iterations never queue behind each other.
        let t0 = SimTime::from_micros(1 + i * 500);
        // Orchestrate the prior state.
        match transition {
            Transition::SToS | Transition::SToM => {
                for b in 1..blades {
                    access(
                        &mut cluster,
                        pid,
                        vaddr,
                        t0 + SimTime::from_micros(20 * b as u64),
                        b,
                        AccessKind::Read,
                    );
                }
            }
            Transition::MToS | Transition::MToM => {
                access(&mut cluster, pid, vaddr, t0, 1, AccessKind::Write);
            }
            Transition::IToS | Transition::IToM => {}
        }
        // Measure the requester.
        let kind = match transition {
            Transition::SToS | Transition::IToS | Transition::MToS => AccessKind::Read,
            _ => AccessKind::Write,
        };
        total += access(
            &mut cluster,
            pid,
            vaddr,
            t0 + SimTime::from_micros(200),
            0,
            kind,
        );
    }
    total.as_micros_f64() / iters as f64
}

/// Scenario table for Figure 7 (left): one custom scenario per
/// (rack size, transition).
pub fn transitions_build(quick: bool) -> Vec<Scenario> {
    let iters = if quick { 50 } else { TRANSITION_ITERS };
    let mut table = Vec::new();
    for &blades in &TRANSITION_RACKS {
        for (label, transition) in TRANSITIONS {
            table.push(Scenario::custom(
                format!("fig7_transitions/{blades}C/{label}"),
                move || {
                    ScenarioOutput::default()
                        .value("latency_us", measure_transition(blades, transition, iters))
                },
            ));
        }
    }
    table
}

// ---- Figure 7 (center): 4 KB IOPS vs sharing ratio ----
//
// 8 compute blades × 1 thread over the §7.2 microbenchmark (uniform
// random; the harness scales the 400 k-page set down 4× with the cache
// scaled proportionally). Expected shape (paper): throughput is high
// (~10⁶ IOPS) at read ratio 1 for every sharing ratio, and at sharing
// ratio 0 for every read ratio; raising both the write fraction and the
// sharing ratio collapses it by ~10×.

const MICRO_BLADES: u16 = 8;
const MICRO_OPS_PER_THREAD: u64 = 40_000;
const MICRO_SHARED_PAGES: u64 = 100_000;
const MICRO_PRIVATE_PAGES: u64 = 12_500;
const SHARING_RATIOS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
const READ_RATIOS: [f64; 5] = [1.0, 0.75, 0.5, 0.25, 0.0];

fn micro_scenario(
    prefix: &str,
    read_ratio: f64,
    sharing_ratio: f64,
    blades: u16,
    private_pages: u64,
    ops_per_thread: u64,
) -> Scenario {
    let workload = WorkloadSpec::Micro(MicroConfig {
        n_threads: blades,
        read_ratio,
        sharing_ratio,
        shared_pages: MICRO_SHARED_PAGES,
        private_pages,
        seed: 42,
    });
    let regions = workload.regions();
    Scenario::replay(
        format!("{prefix}/r{read_ratio}/s{sharing_ratio}/b{blades}"),
        SystemSpec::mind_scaled(&regions, blades, ConsistencyModel::Tso),
        workload,
        RunConfig {
            ops_per_thread,
            warmup_ops_per_thread: ops_per_thread / 2,
            threads_per_blade: 1,
            ..Default::default()
        },
    )
}

/// Scenario table for Figure 7 (center).
pub fn throughput_build(quick: bool) -> Vec<Scenario> {
    let ops = scaled_ops(MICRO_OPS_PER_THREAD, quick);
    let mut table = Vec::new();
    for &sharing in &SHARING_RATIOS {
        for &read in &READ_RATIOS {
            table.push(micro_scenario(
                "fig7_throughput",
                read,
                sharing,
                MICRO_BLADES,
                MICRO_PRIVATE_PAGES,
                ops,
            ));
        }
    }
    table
}

// ---- Figure 7 (right): latency breakdown at sharing ratio 1 ----
//
// Mean per-remote-access latency decomposed into page-fault handling,
// network, invalidation queueing, and TLB shootdowns, for read ratios
// {0, 0.5, 1} at 1–8 compute blades. Expected shape (paper): at R=1
// latency stays near the S→S round trip regardless of blade count; at
// R=0.5 and R=0 it grows with blade count, from invalidation queueing and
// synchronous TLB shootdowns. Paper values at 8 blades: R=0 31.6 µs,
// R=0.5 20.5 µs, R=1 15.1 µs.

const BREAKDOWN_READ_RATIOS: [f64; 3] = [0.0, 0.5, 1.0];
const BREAKDOWN_BLADES: [u16; 4] = [1, 2, 4, 8];

/// Scenario table for Figure 7 (right).
pub fn breakdown_build(quick: bool) -> Vec<Scenario> {
    let ops = scaled_ops(MICRO_OPS_PER_THREAD, quick);
    let mut table = Vec::new();
    for &read_ratio in &BREAKDOWN_READ_RATIOS {
        for &blades in &BREAKDOWN_BLADES {
            table.push(micro_scenario(
                "fig7_breakdown",
                read_ratio,
                1.0,
                blades,
                1,
                ops,
            ));
        }
    }
    table
}
