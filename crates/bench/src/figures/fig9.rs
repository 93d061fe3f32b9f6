//! Figure 9: the storage-vs-performance tradeoff Bounded Splitting
//! navigates (left) and its parameter sensitivity (right).

use mind_core::cluster::{scaled_cache_pages, scaled_dir_capacity, MindConfig};
use mind_core::split::SplitConfig;
use mind_core::system::ConsistencyModel;
use mind_harness::{footprint_pages, Scenario, SystemSpec, WorkloadSpec};
use mind_sim::SimTime;
use mind_workloads::runner::RunConfig;

use super::scaled_ops;

const THREADS_PER_BLADE: u16 = 10;
const BLADES: u16 = 8;
const TOTAL_OPS: u64 = 400_000;
const WORKLOADS: [&str; 2] = ["TF", "GC"];
const FIXED_GRANULARITIES: [(&str, u8); 5] = [
    ("2MB", 21),
    ("1MB", 20),
    ("256KB", 18),
    ("64KB", 16),
    ("16KB", 14),
];

/// A replay scenario for one splitting configuration at the standard
/// 8-blade × 10-thread evaluation rack.
fn split_scenario(
    name: String,
    wl_name: &str,
    split: SplitConfig,
    dir_capacity: usize,
    warmup: bool,
    quick: bool,
) -> Scenario {
    let n_threads = BLADES * THREADS_PER_BLADE;
    let workload = WorkloadSpec::real(wl_name, n_threads);
    let regions = workload.regions();
    let cfg = MindConfig {
        n_compute: BLADES,
        cache_pages: scaled_cache_pages(footprint_pages(&regions)),
        dir_capacity,
        split,
        ..Default::default()
    }
    .consistency(ConsistencyModel::Tso);
    let ops_per_thread = scaled_ops(TOTAL_OPS, quick) / n_threads as u64;
    Scenario::replay(
        name,
        SystemSpec::Mind(cfg),
        workload,
        RunConfig {
            ops_per_thread,
            warmup_ops_per_thread: if warmup { ops_per_thread / 2 } else { 0 },
            threads_per_blade: THREADS_PER_BLADE,
            ..Default::default()
        },
    )
}

// ---- Figure 9 (left): region-granularity tradeoff ----
//
// For TF and GC: false invalidations and directory entries under *fixed*
// region granularities (2 MB … 16 KB, splitting disabled, unbounded SRAM
// so the granularity is actually held) and under Bounded Splitting ("BS",
// default capacity). Expected shape (paper): small fixed regions → few
// false invalidations but many directory entries; large fixed regions →
// the opposite; BS lands near the small-region false-invalidation count
// with far fewer entries.

/// Scenario table for Figure 9 (left).
pub fn tradeoff_build(quick: bool) -> Vec<Scenario> {
    let mut table = Vec::new();
    for wl_name in WORKLOADS {
        for (label, k) in FIXED_GRANULARITIES {
            table.push(split_scenario(
                format!("fig9_tradeoff/{wl_name}/{label}"),
                wl_name,
                SplitConfig::fixed(k),
                usize::MAX / 2,
                false,
                quick,
            ));
        }
        let scaled_cap =
            scaled_dir_capacity(footprint_pages(&WorkloadSpec::real(wl_name, 8).regions()));
        table.push(split_scenario(
            format!("fig9_tradeoff/{wl_name}/BS"),
            wl_name,
            SplitConfig {
                epoch_len: SimTime::from_millis(2),
                ..Default::default()
            },
            scaled_cap,
            false,
            quick,
        ));
    }
    table
}

// ---- Figure 9 (right): epoch and initial-region-size sensitivity ----
//
// Sweeps (a) the epoch length and (b) the initial region size, reporting
// total false invalidations normalized to the default configuration
// (epoch 2 ms — the paper's 100 ms scaled by run length — and 16 KB
// initial regions). Expected shape (paper): epoch length barely matters
// across two orders of magnitude; smaller initial regions give fewer
// false invalidations because large ones pay several lossy epochs of
// splitting before stabilizing.

const EPOCHS_US: [(&str, u64); 3] = [("0.02ms", 20), ("0.2ms", 200), ("2ms", 2_000)];

fn sensitivity_scenario(
    wl_name: &str,
    label: &str,
    split: SplitConfig,
    quick: bool,
) -> Scenario {
    let dir_capacity =
        scaled_dir_capacity(footprint_pages(&WorkloadSpec::real(wl_name, 8).regions()));
    split_scenario(
        format!("fig9_sensitivity/{wl_name}/{label}"),
        wl_name,
        split,
        dir_capacity,
        false,
        quick,
    )
}

/// Scenario table for Figure 9 (right): per workload, the epoch sweep
/// then the initial-region-size sweep. The `2ms` epoch point doubles as
/// the normalization baseline (it *is* the default configuration).
pub fn sensitivity_build(quick: bool) -> Vec<Scenario> {
    let mut table = Vec::new();
    for wl_name in WORKLOADS {
        for (label, us) in EPOCHS_US {
            table.push(sensitivity_scenario(
                wl_name,
                label,
                SplitConfig {
                    epoch_len: SimTime::from_micros(us),
                    ..Default::default()
                },
                quick,
            ));
        }
        for (label, k) in FIXED_GRANULARITIES {
            table.push(sensitivity_scenario(
                wl_name,
                &format!("init{label}"),
                SplitConfig {
                    initial_region_log2: k,
                    epoch_len: SimTime::from_millis(2),
                    ..Default::default()
                },
                quick,
            ));
        }
    }
    table
}
