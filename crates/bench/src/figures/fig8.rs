//! Figure 8: switch-resource behaviour (left: directory occupancy over
//! time; center: match-action rule counts; right: allocation fairness).
//!
//! Expected shapes (paper) are given per panel below. Here TF's directory
//! peaks under 10 % of capacity and MA's and MC's reach 70 % or more, but
//! GC's reaches 93 % in quick mode rather than staying well below. MIND's
//! rule count stays under 2 % of one rule per 2 MB page, yet grows with the
//! rack (TF: 10 rules at 1 blade, 73 at 8) rather than staying nearly
//! constant. The 2 MB-page rules cross the ~45 k switch limit only at full
//! size: quick mode shrinks the heap 8×, so they stop near 6 k.
//! `tests/figure_claims.rs` asserts what holds.

use mind_core::cluster::{scaled_dir_capacity, MindCluster, MindConfig};
use mind_core::galloc::GlobalAllocator;
use mind_core::system::ConsistencyModel;
use mind_harness::{footprint_pages, Scenario, ScenarioOutput, WorkloadSpec, REAL_WORKLOADS};
use mind_sim::stats::jains_index;
use mind_workloads::runner::{run, RunConfig};

use super::scaled_ops;

// ---- Figure 8 (left): directory entries over time ----
//
// Runs each workload at 8 blades × 10 threads and samples the number of
// directory entries at every bounded-splitting epoch. Expected shape
// (paper): TF and GC stay well below the SRAM limit; MA and MC have so
// many actively shared regions that they sit pinned at the capacity limit
// for the whole run.

const DIR_BLADES: u16 = 8;
const DIR_TPB: u16 = 10;
const DIR_TOTAL_OPS: u64 = 600_000;

/// Scenario table for Figure 8 (left). Custom scenarios: the directory
/// time series lives on the concrete `MindCluster`, which the generic
/// replay path (deliberately) does not expose.
pub fn directory_build(quick: bool) -> Vec<Scenario> {
    let total = scaled_ops(DIR_TOTAL_OPS, quick);
    REAL_WORKLOADS
        .iter()
        .map(|&wl_name| {
            let n_threads = DIR_BLADES * DIR_TPB;
            let workload = WorkloadSpec::real(wl_name, n_threads);
            Scenario::custom(format!("fig8_directory/{wl_name}"), move || {
                let mut wl = workload.build();
                let regions = wl.regions();
                let footprint = footprint_pages(&regions);
                let mut sys = MindCluster::new(
                    MindConfig::scaled_to(footprint, DIR_BLADES)
                        .consistency(ConsistencyModel::Tso),
                );
                let report = run(
                    &mut sys,
                    wl.as_mut(),
                    RunConfig {
                        ops_per_thread: total / n_threads as u64,
                        warmup_ops_per_thread: 0,
                        threads_per_blade: DIR_TPB,
                        ..Default::default()
                    },
                );
                let series: Vec<(f64, f64)> = sys
                    .directory_series()
                    .points()
                    .iter()
                    .map(|&(t, v)| (t.as_millis_f64(), v))
                    .collect();
                ScenarioOutput::from_report(report)
                    .value("dir_capacity", scaled_dir_capacity(footprint) as f64)
                    .with_series("directory_entries", series)
            })
        })
        .collect()
}

// ---- Figure 8 (center): match-action rules vs rack size ----
//
// Compares MIND's translation+protection rule count against page-table
// approaches that would install one match-action rule per 2 MB or 1 GB
// page, as the dataset scales with the number of memory blades. Expected
// shape (paper): MIND's count is nearly constant; page-granularity rules
// grow linearly with dataset size, crossing the ~45 k switch limit for
// 2 MB pages.

const RULE_BLADES: [u16; 4] = [1, 2, 4, 8];
/// MA and MC share allocations; group them as the paper does.
const GROUPS: [(&str, &str); 3] = [("TF", "TF"), ("GC", "GC"), ("MA&C", "MA")];
/// Heap contributed per memory blade (the dataset grows with the rack).
const HEAP_PER_BLADE: u64 = 12 << 30;

/// Scenario table for Figure 8 (center). The experiment allocates, it
/// never replays — a custom scenario per (group, rack size).
pub fn rules_build(quick: bool) -> Vec<Scenario> {
    // The rack-size sweep is allocation-bound, not op-bound; quick mode
    // shrinks the heap instead of the op budget.
    let heap_per_blade = if quick { HEAP_PER_BLADE / 8 } else { HEAP_PER_BLADE };
    let mut table = Vec::new();
    for (label, wl_name) in GROUPS {
        for &blades in &RULE_BLADES {
            let workload = WorkloadSpec::real(wl_name, 8);
            table.push(Scenario::custom(
                format!("fig8_rules/{label}/b{blades}"),
                move || {
                    let regions = workload.regions();
                    let instance_bytes: u64 = regions.iter().sum();
                    let instances = (heap_per_blade * blades as u64) / instance_bytes;
                    let mut cluster = MindCluster::new(MindConfig {
                        n_memory: blades,
                        blade_span: 1 << 44,
                        memory_blade_bytes: 1 << 44,
                        ..Default::default()
                    });
                    let pid = cluster.exec().unwrap();
                    let mut total_bytes = 0u64;
                    let mut vma_count = 0u64;
                    for _ in 0..instances {
                        for &len in &regions {
                            cluster.mmap(pid, len).expect("fits");
                            total_bytes += len;
                            vma_count += 1;
                        }
                    }
                    let rules_2mb = total_bytes.div_ceil(2 << 20);
                    // 1 GB pages: a page cannot span allocation groups;
                    // count pages needed per instance, summed.
                    let rules_1gb: u64 =
                        instances * regions.iter().map(|l| l.div_ceil(1 << 30)).sum::<u64>();
                    ScenarioOutput::default()
                        .value("mind_rules", cluster.match_action_rules() as f64)
                        .value("vma_count", vma_count as f64)
                        .value("rules_2mb", rules_2mb as f64)
                        .value("rules_1gb", rules_1gb as f64)
                },
            ));
        }
    }
    table
}

// ---- Figure 8 (right): allocation fairness across memory blades ----
//
// Jain's fairness index of bytes allocated per memory blade, for MIND's
// least-loaded vma placement vs page-granularity placement at 2 MB and
// 1 GB. Expected shape (paper): MIND ≈ 1.0 everywhere; 2 MB pages also
// balance well (at the rule-explosion cost of Figure 8 center); 1 GB
// pages balance poorly for allocation-intensive workloads.

/// Places `vmas` on `n` blades with `chunk`-granularity pages.
///
/// A page lives wholly on one blade, and new vmas *pack into* the open
/// partially-filled page before a fresh page is opened on the
/// least-loaded blade — the standard huge-page allocation behaviour. With
/// 1 GB pages, many small vmas pile onto a single blade before the next
/// page opens.
fn paged_fairness(vmas: &[u64], n: u16, chunk: u64) -> f64 {
    let mut load = vec![0u64; n as usize]; // Bytes resident per blade.
    let mut open: Option<(usize, u64)> = None; // (blade, bytes left in page).
    for &len in vmas {
        let mut remaining = len;
        while remaining > 0 {
            let (blade, left) = match open {
                Some((b, l)) if l > 0 => (b, l),
                _ => {
                    let (idx, _) = load
                        .iter()
                        .enumerate()
                        .min_by_key(|&(i, &l)| (l, i))
                        .expect("non-empty");
                    (idx, chunk)
                }
            };
            let piece = remaining.min(left);
            load[blade] += piece;
            remaining -= piece;
            open = Some((blade, left - piece));
        }
    }
    jains_index(&load.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

fn mind_fairness(vmas: &[u64], n: u16) -> f64 {
    let mut galloc = GlobalAllocator::build(n, 1 << 34, None);
    for &len in vmas {
        galloc.alloc(len).expect("fits");
    }
    jains_index(
        &galloc
            .allocated_per_blade()
            .iter()
            .map(|&x| x as f64)
            .collect::<Vec<_>>(),
    )
}

/// The allocation-request stream for a group at a rack size: one workload
/// instance per memory blade, with MA/MC's allocation-intensive pattern
/// of many smaller slab requests (memcached grows its arena in 1 MB
/// chunks).
fn vma_stream(label: &str, wl_name: &str, blades: u16) -> Vec<u64> {
    let workload = WorkloadSpec::real(wl_name, 8);
    let mut vmas = Vec::new();
    for _ in 0..blades {
        for &len in &workload.regions() {
            if label == "MA&C" {
                let mut left = len;
                while left > 0 {
                    let piece = left.min(1 << 20);
                    vmas.push(piece);
                    left -= piece;
                }
            } else {
                vmas.push(len);
            }
        }
    }
    vmas
}

/// Scenario table for Figure 8 (right) — pure allocation-model
/// computations, one custom scenario per (group, rack size).
pub fn fairness_build(_quick: bool) -> Vec<Scenario> {
    let mut table = Vec::new();
    for (label, wl_name) in GROUPS {
        for &blades in &RULE_BLADES {
            table.push(Scenario::custom(
                format!("fig8_fairness/{label}/b{blades}"),
                move || {
                    let vmas = vma_stream(label, wl_name, blades);
                    ScenarioOutput::default()
                        .value("mind", mind_fairness(&vmas, blades))
                        .value("pages_2mb", paged_fairness(&vmas, blades, 2 << 20))
                        .value("pages_1gb", paged_fairness(&vmas, blades, 1 << 30))
                },
            ));
        }
    }
    table
}
