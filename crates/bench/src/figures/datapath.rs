//! The `datapath` figure: what scheduling granularity, in-flight windows
//! and sharding do to a replay.
//!
//! Everything the three replay regimes report is *simulated* and fully
//! deterministic; host-time numbers for the same hot paths come from the
//! repo benchmark (`BENCHMARK.json`), not from here. Per batch size the
//! figure reports `sim_mops_b<N>` / `runtime_ns_b<N>`: every op takes the
//! same path whatever the turn size, so the sweep shows only what coarser
//! turns do to the interleaving of threads (and so to sharing, queueing
//! and simulated throughput).
//!
//! The figure also sweeps the **window axis** ([`WINDOWS`] ×
//! [`WINDOW_BATCHES`]): simulated MOPS with each thread keeping up to W
//! page-fault RTTs in flight. Every op of these points goes through the
//! one issue gate (`MindCluster::issue_clustered`); the two families differ
//! only in the schedule around it. `*_b<N>_w<W>` is
//! [`Concurrency::Turnwise`]: a thread's turn of N ops shares W slots and
//! the thread waits for all of them before its next turn, so
//! `overlap_recovery_w<W>` — windowed batch-64 throughput over the batch-1
//! serialized baseline — shows what latency hiding buys back of the
//! coarse-quantum loss *with* a drain barrier per turn. `*_b64_xturn_w<W>`
//! and `xturn_recovery_w<W>` are the same cell in [`Concurrency::Cluster`]:
//! no barrier, the threads' windows pooled per partition. Their ratio is
//! the cost of the barrier (it can be below 1: a barrier also keeps a
//! thread's invalidations from piling onto a contended region). These
//! points are simulation-only and deterministic.
//!
//! Finally the **shards axis** (`datapath/shards`): a large multi-tenant
//! population — every tenant in its own protection domain — replayed
//! fused and as 2/4 deterministic shards via
//! [`mind_workloads::shard::run_sharded_threads`]. The scenario first
//! asserts every (shard count × thread count) replay is *byte-identical*
//! to the fused serialized reference, then reports the wall-clock speedup
//! sharding buys (`shard_speedup_s<K>`): per-tenant TCAM admission scans
//! the rack-wide rule table, so the fused control plane pays O(tenants²)
//! while each shard pays only for its slice. The **threads axis**
//! (`shard_wall_secs_s<K>_t<T>` / `shard_speedup_s<K>_t<T>`) re-measures
//! the top shard count with 1/2/4 OS threads driving the shard
//! sub-clusters — identical output, multi-core wall clock.
//! `shard_wall_*` and `shard_speedup_*` measure the host and are **not**
//! run-to-run deterministic; the `shard_sim_*` values are.
//!
//! `datapath/shards_xl` scales the same population to 131 072 tenants —
//! affordable only sharded ([`XL_SHARDS`] ways) and only because the
//! shard driver is multi-core. With no affordable fused reference,
//! determinism is asserted as byte-identity across thread counts, and
//! those identity runs double as the `shard_xl_wall_secs_t<T>`
//! measurements.
//!
//! `datapath/shards_xxl` is the million-tenant point: 1 048 576 tenants
//! ([`XXL_SHARDS`] × 16 384), affordable only because the streamed shard
//! datapath holds O(worker lanes × one shard) of state — shards are
//! built lazily, run to completion, and folded into the running merge as
//! they finish. Both XL and XXL runs record their peak RSS
//! (`shard_*_peak_rss_mb_t<T>`, from `VmHWM` with a reset per cell; 0
//! when the platform exposes no peak counter), which is how the
//! constant-memory claim is gated: the 8×-tenant XXL run must stay
//! within ~2× the XL peak.

use std::sync::Mutex;
use std::time::Instant;

use mind_core::system::ConsistencyModel;
use mind_harness::{Scenario, ScenarioOutput, SystemSpec, WorkloadSpec};
use mind_service::{population_spec, tenant_partitions, TenantGroupConfig};
use mind_workloads::micro::MicroConfig;
use mind_workloads::run_sharded_threads;
use mind_workloads::runner::{self, Concurrency, RunConfig, RunReport};

use super::scaled_ops;

/// Batch sizes swept (1 = the earliest thread is re-picked after every op).
pub const BATCH_SIZES: [u64; 4] = [1, 8, 64, 256];

/// In-flight window depths swept beyond the serialized baseline (the
/// batch sweep above runs at window 1): the *modelled* effect of
/// memory-level parallelism.
pub const WINDOWS: [u32; 2] = [4, 16];

/// Batch sizes the window axis sweeps (a batch of 1 has nothing to
/// overlap: the window is intra-batch).
pub const WINDOW_BATCHES: [u64; 3] = [8, 64, 256];

const OPS_PER_THREAD: u64 = 30_000;

/// Shard counts the scaling point sweeps (1 = the fused serialized
/// reference).
pub const SHARD_COUNTS: [u16; 3] = [1, 2, 4];

/// OS-thread counts the multi-core axis sweeps at the top shard count
/// (1 = the single-threaded sharded driver the original figure measured).
pub const SHARD_THREADS: [usize; 3] = [1, 2, 4];

/// Shard count of the 131 072-tenant `datapath/shards_xl` point.
pub const XL_SHARDS: u16 = 16;

/// Shard count of the 1 048 576-tenant `datapath/shards_xxl` point (one
/// shard per partition).
pub const XXL_SHARDS: u16 = 64;

/// OS-thread counts the XXL point sweeps: the single-lane baseline and
/// the multi-core cell the perf gate compares against it.
pub const XXL_THREADS: [usize; 2] = [1, 4];

/// Wall-clock passes for the sharded scaling point (each pass replays the
/// whole population at every shard count, so fewer passes suffice).
const SHARD_PASSES: u32 = 3;

/// Serializes the shard scenarios' wall-clock sections, so a parallel
/// engine does not run two measurements on sibling cores at once (they
/// would distort each other). Other figures' scenarios can still
/// interfere when the whole `suite` runs; the dedicated `datapath` bin is
/// the clean measurement path.
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// One hot-path regime of the sweep.
#[derive(Clone, Copy)]
struct Regime {
    /// Short key used in scenario names.
    key: &'static str,
    micro: MicroConfig,
    n_compute: u16,
    threads_per_blade: u16,
}

/// The three regimes the access hot path decomposes into: fault-dominated
/// (TCAM walk + directory transition per op), cache-resident (local-hit
/// bookkeeping per op), and invalidation-heavy (multicast rounds per op).
fn regimes() -> [Regime; 3] {
    [
        Regime {
            key: "remote",
            micro: MicroConfig {
                n_threads: 4,
                read_ratio: 0.5,
                sharing_ratio: 1.0,
                shared_pages: 40_000,
                private_pages: 2_000,
                seed: 42,
            },
            n_compute: 2,
            threads_per_blade: 2,
        },
        Regime {
            key: "resident",
            micro: MicroConfig {
                n_threads: 8,
                read_ratio: 0.9,
                sharing_ratio: 0.2,
                shared_pages: 64,
                private_pages: 64,
                seed: 42,
            },
            n_compute: 4,
            threads_per_blade: 2,
        },
        Regime {
            key: "contended",
            micro: MicroConfig {
                n_threads: 8,
                read_ratio: 0.3,
                sharing_ratio: 1.0,
                shared_pages: 64,
                private_pages: 32,
                seed: 42,
            },
            n_compute: 4,
            threads_per_blade: 2,
        },
    ]
}

/// One point: the regime replayed at the given batch size with an
/// in-flight window of `window`, as `(sim MOPS, runtime ns, overlapped
/// ns)`. In [`Concurrency::Turnwise`] the window overlaps RTTs within each
/// thread's turn; in [`Concurrency::Cluster`] there is no turn barrier and
/// RTTs overlap *across* turns and threads. Deterministic either way — a
/// single pass, no wall clock.
fn run_point(
    regime: &Regime,
    batch_ops: u64,
    window: u32,
    ops: u64,
    concurrency: Concurrency,
) -> (f64, u128, u128) {
    let workload = WorkloadSpec::Micro(regime.micro);
    let regions = workload.regions();
    let run_cfg = RunConfig {
        ops_per_thread: ops,
        warmup_ops_per_thread: ops / 2,
        threads_per_blade: regime.threads_per_blade,
        concurrency,
        ..Default::default()
    }
    .with_batch_ops(batch_ops)
    .with_window(window);
    let system = SystemSpec::mind_scaled(&regions, regime.n_compute, ConsistencyModel::Tso);
    let mut sys = system.build();
    let mut wl = workload.build();
    let report = runner::run(sys.as_mut(), wl.as_mut(), run_cfg);
    (
        report.mops,
        report.runtime.as_nanos() as u128,
        report.sum_overlapped_ns,
    )
}

/// The tenant population of every shard point: `tenants_per_group`
/// single-threaded tenants per partition, each in its own protection
/// domain with a 16-page footprint, keyed by global partition index so
/// every shard count replays identical op streams. Such a population is
/// confined by construction (single-threaded tenants never invalidate),
/// and [`mind_service::population_spec`] sizes the rack so directory
/// utilization stays at 1/4.
fn shard_population(tenants_per_group: u16) -> TenantGroupConfig {
    TenantGroupConfig {
        tenants_per_group,
        pages_per_tenant: 16,
        read_ratio: 0.7,
        seed: 42,
    }
}

/// One sharded-only population point, `datapath/shards_<tag>`:
/// `partitions` × [`shard_population`]`(tenants_per_group)` tenants
/// replayed as `shards` shards, once per thread count. At these sizes the
/// fused O(tenants²) admission makes a serialized reference unaffordable,
/// so determinism is asserted the way the multi-core contract states it —
/// the merged report is byte-identical across `thread_counts` — and each
/// identity run doubles as that cell's wall-clock and peak-RSS measurement
/// (the peak counter is reset per cell, so each cell's figure is its own
/// high-water mark).
fn population_point(
    tag: &'static str,
    partitions: u16,
    tenants_per_group: u16,
    shards: u16,
    thread_counts: &'static [usize],
) -> Scenario {
    let name = format!("datapath/shards_{tag}");
    Scenario::custom(name.clone(), move |_| {
        let _serial = MEASURE_LOCK.lock().expect("measure lock");
        let population = shard_population(tenants_per_group);
        let spec = population_spec(&name, partitions, population);
        let factory = tenant_partitions(population);
        let tenants = partitions as u64 * tenants_per_group as u64;

        let mut reference: Option<RunReport> = None;
        let mut cells = Vec::with_capacity(thread_counts.len());
        for &threads in thread_counts {
            mind_obs::mem::reset_peak_rss();
            let start = Instant::now();
            let merged = run_sharded_threads(&spec, shards, threads, &factory).expect("confined");
            cells.push((threads, start.elapsed().as_secs_f64().max(1e-9), peak_rss_mb()));
            match &reference {
                None => {
                    assert_eq!(merged.invalidations, 0, "population must be confined");
                    assert!(
                        merged.total_ops >= tenants,
                        "every tenant must issue at least one measured op"
                    );
                    reference = Some(merged);
                }
                Some(reference) => {
                    assert_eq!(
                        report_key(reference),
                        report_key(&merged),
                        "thread count changed the merged report at threads={threads}"
                    );
                    assert_eq!(reference.metrics, merged.metrics, "threads={threads}");
                    assert_eq!(reference.window_metrics, merged.window_metrics);
                }
            }
        }
        let reference = reference.expect("at least one thread count");

        let mut out = ScenarioOutput::default()
            .value(format!("shard_{tag}_tenants"), tenants as f64)
            .value(format!("shard_{tag}_shards"), shards as f64)
            .value(format!("shard_{tag}_total_ops"), reference.total_ops as f64)
            .value(
                format!("shard_{tag}_sim_runtime_ns"),
                reference.runtime.as_nanos() as f64,
            );
        let single_lane_wall = cells[0].1;
        for (threads, wall, peak) in cells {
            out = out.value(format!("shard_{tag}_wall_secs_t{threads}"), wall);
            out = out.value(format!("shard_{tag}_peak_rss_mb_t{threads}"), peak);
            if threads > 1 {
                out = out.value(
                    format!("shard_{tag}_speedup_t{threads}"),
                    single_lane_wall / wall.max(1e-12),
                );
            }
        }
        out
    })
}

/// Peak process RSS in MiB since the last reset, or 0.0 where the
/// platform exposes no peak counter (the RSS gate skips on 0).
fn peak_rss_mb() -> f64 {
    mind_obs::mem::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1 << 20) as f64)
}

/// The byte-identity key of a merged report: every integer the merge adds
/// plus the recomputed floats (compared at the bit level).
fn report_key(r: &RunReport) -> (u128, u64, u64, u64, u128, u128, u64, u64) {
    (
        r.runtime.as_nanos() as u128,
        r.total_ops,
        r.remote_ops,
        r.flushed_pages,
        r.sum_network_ns,
        r.sum_remote_lat_ns,
        r.latency.quantile(0.999),
        r.mops.to_bits(),
    )
}

/// Scenario table: one scenario per regime, plus the sharded scaling
/// points.
pub fn build(quick: bool) -> Vec<Scenario> {
    let ops = scaled_ops(OPS_PER_THREAD, quick) / 4;
    let mut table: Vec<Scenario> = regimes()
        .into_iter()
        .map(|regime| {
            Scenario::custom(format!("datapath/{}", regime.key), move |_| {
                let mut out = ScenarioOutput::default();
                let mut base_sim_mops = 0.0;
                for &batch in &BATCH_SIZES {
                    let (sim_mops, runtime_ns, _) =
                        run_point(&regime, batch, 1, ops, Concurrency::Turnwise);
                    out = out
                        .value(format!("sim_mops_b{batch}"), sim_mops)
                        .value(format!("runtime_ns_b{batch}"), runtime_ns as f64);
                    if batch == 1 {
                        base_sim_mops = sim_mops;
                    }
                }
                // The window axis: simulated MOPS with up to W fault RTTs
                // in flight per turn. `overlap_recovery_w<W>` is the
                // figure's headline — windowed batch-64 throughput over
                // the batch-1 serialized baseline; ≥ 1.0 means the
                // latency hiding bought back the coarse-quantum loss.
                for &window in &WINDOWS {
                    for &batch in &WINDOW_BATCHES {
                        let (sim_mops, runtime_ns, overlapped_ns) =
                            run_point(&regime, batch, window, ops, Concurrency::Turnwise);
                        out = out
                            .value(format!("sim_mops_b{batch}_w{window}"), sim_mops)
                            .value(format!("runtime_ns_b{batch}_w{window}"), runtime_ns as f64)
                            .value(
                                format!("overlapped_ns_b{batch}_w{window}"),
                                overlapped_ns as f64,
                            );
                        if batch == 64 {
                            out = out.value(
                                format!("overlap_recovery_w{window}"),
                                sim_mops / base_sim_mops.max(1e-12),
                            );
                        }
                    }
                }
                // The cross-turn axis: the same windowed batch-64 cell in
                // cluster concurrency — the same gate without the turn
                // barrier, so `xturn_recovery_w<W>` over
                // `overlap_recovery_w<W>` is what the barrier costs.
                for &window in &WINDOWS {
                    let (sim_mops, runtime_ns, overlapped_ns) =
                        run_point(&regime, 64, window, ops, Concurrency::Cluster);
                    out = out
                        .value(format!("sim_mops_b64_xturn_w{window}"), sim_mops)
                        .value(format!("runtime_ns_b64_xturn_w{window}"), runtime_ns as f64)
                        .value(
                            format!("overlapped_ns_b64_xturn_w{window}"),
                            overlapped_ns as f64,
                        )
                        .value(
                            format!("xturn_recovery_w{window}"),
                            sim_mops / base_sim_mops.max(1e-12),
                        );
                }
                out
            })
        })
        .collect();

    table.push(Scenario::custom("datapath/shards".to_string(), move |_| {
        let _serial = MEASURE_LOCK.lock().expect("measure lock");
        // 16 384 tenants in the full run, on a 16+16-blade rack.
        let population = shard_population(if quick { 256 } else { 1024 });
        let spec = population_spec("datapath/shards", 16, population);
        let factory = tenant_partitions(population);
        let tenants = spec.partitions as u64 * spec.run.threads_per_blade as u64;

        // Determinism first: the fused serialized reference, then every
        // (shard count × thread count) cell checked byte-identical
        // against it before any wall-clock pass is trusted. Thread
        // counts are asserted explicitly — the multi-core driver's
        // contract is that they are invisible in the output.
        let reference = run_sharded_threads(&spec, 1, 1, &factory).expect("confined population");
        assert_eq!(reference.invalidations, 0, "population must be confined");
        for &shards in &SHARD_COUNTS {
            for &threads in &SHARD_THREADS {
                let merged =
                    run_sharded_threads(&spec, shards, threads, &factory).expect("confined");
                assert_eq!(
                    report_key(&reference),
                    report_key(&merged),
                    "sharded replay diverged from the serialized reference at \
                     shards={shards} threads={threads}"
                );
                assert_eq!(reference.metrics, merged.metrics, "shards={shards}");
                assert_eq!(reference.window_metrics, merged.window_metrics, "shards={shards}");
            }
        }

        // Wall clock, pass-major across cells (same drift reasoning as
        // the batch sweep): the classic shard axis single-threaded, plus
        // the thread axis at the top shard count.
        let top_shards = *SHARD_COUNTS.last().expect("non-empty");
        let mut best = [f64::INFINITY; SHARD_COUNTS.len()];
        let mut best_threads = [f64::INFINITY; SHARD_THREADS.len()];
        for _ in 0..SHARD_PASSES {
            for (i, &shards) in SHARD_COUNTS.iter().enumerate() {
                let start = Instant::now();
                let merged = run_sharded_threads(&spec, shards, 1, &factory).expect("confined");
                let secs = start.elapsed().as_secs_f64().max(1e-9);
                best[i] = best[i].min(secs);
                assert_eq!(report_key(&reference), report_key(&merged));
            }
            for (i, &threads) in SHARD_THREADS.iter().enumerate() {
                let start = Instant::now();
                let merged =
                    run_sharded_threads(&spec, top_shards, threads, &factory).expect("confined");
                let secs = start.elapsed().as_secs_f64().max(1e-9);
                best_threads[i] = best_threads[i].min(secs);
                assert_eq!(report_key(&reference), report_key(&merged));
            }
        }

        let mut out = ScenarioOutput::default()
            .value("shard_tenants", tenants as f64)
            .value("shard_total_ops", reference.total_ops as f64)
            .value("shard_sim_runtime_ns", reference.runtime.as_nanos() as f64);
        for (i, &shards) in SHARD_COUNTS.iter().enumerate() {
            out = out.value(format!("shard_wall_secs_s{shards}"), best[i]);
            if shards > 1 {
                out = out.value(
                    format!("shard_speedup_s{shards}"),
                    best[0] / best[i].max(1e-12),
                );
            }
        }
        for (i, &threads) in SHARD_THREADS.iter().enumerate() {
            out = out.value(
                format!("shard_wall_secs_s{top_shards}_t{threads}"),
                best_threads[i],
            );
            out = out.value(
                format!("shard_speedup_s{top_shards}_t{threads}"),
                best[0] / best_threads[i].max(1e-12),
            );
        }
        out
    }));

    // 131 072 tenants (16 × 8192) and 1 048 576 (64 × 16 384, one shard per
    // partition), `--quick` included; the module doc says what each shows.
    table.push(population_point("xl", 16, 8192, XL_SHARDS, &SHARD_THREADS));
    table.push(population_point("xxl", XXL_SHARDS, 16_384, XXL_SHARDS, &XXL_THREADS));
    table
}
