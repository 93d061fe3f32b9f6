//! One table for the claim every figure rests on: how an experiment is
//! executed never changes its bytes. Each cell renders BENCH JSON, plus
//! TRACE JSON when traced, and equals its degenerate reference: the fused
//! run (`run_sharded_threads(spec, 1, 1, ..)`) for shards, lanes and the
//! collect-then-merge fold; the serial engine for engine workers; turn size
//! 1 for one thread's turn size; window 1 for window 0; the turnwise
//! discipline for cluster mode at window 1 and for one thread in one turn;
//! the environment's trace default for tracing pinned off. Every other axis
//! is explicit, so that cell is the only one the environment reaches. The
//! sharded scenarios honour the confinement contract of
//! `mind_workloads::shard`: symmetric partitions, slice confinement, zero
//! invalidations, directory utilization at or below one half.

use proptest::prelude::*;

use mind::core::cluster::{MindCluster, MindConfig};
use mind::core::system::ConsistencyModel;
use mind::harness::{
    report, Engine, Scenario, ScenarioOutput, ScenarioResult, ServiceSpec, SystemSpec, WorkloadSpec,
};
use mind::obs::{EventKind, TraceConfig, TraceData, TraceEvent, TraceMode};
use mind::service::{tenant_partitions, MemoryService, ServiceConfig, TenantGroupConfig};
use mind::sim::{SimRng, SimTime};
use mind::workloads::kvs::KvsConfig;
use mind::workloads::memcached::MemcachedConfig;
use mind::workloads::micro::{MicroConfig, MicroWorkload};
use mind::workloads::runner::{self, Concurrency, RunConfig, RunReport};
use mind::workloads::shard::PartitionFactory;
use mind::workloads::{run_shard, run_sharded_threads, ShardSpec};

fn trace(on: bool) -> TraceConfig {
    TraceConfig::with_mode(if on { TraceMode::On } else { TraceMode::Off })
}

/// What a cell renders: the BENCH JSON, and the TRACE JSON when traced.
#[derive(Debug, PartialEq)]
struct Rendered {
    bench: String,
    trace: Option<String>,
}

/// Renders a report exactly as the bench suite would.
fn render(report: RunReport) -> Rendered {
    let traced = report.trace.is_some();
    let result = [ScenarioResult {
        name: report.name.clone(),
        output: ScenarioOutput::from_report(report),
    }];
    Rendered {
        bench: report::suite_json("equivalence", &result).render(),
        trace: traced.then(|| report::trace_json("equivalence", &result)),
    }
}

/// Four partitions at turn size 8, turnwise and untraced, on a rack whose
/// resources divide evenly into 1, 2 or 4 shards; the directory is sized
/// so even fully split regions stay well under the contract's ½
/// utilization ceiling. Each partition sits on one compute blade, so
/// writes touch a single cache and no invalidation couples the partitions.
fn spec(name: &str, threads_per_partition: u16, domain_per_thread: bool) -> ShardSpec {
    ShardSpec {
        name: name.to_string(),
        base: MindConfig {
            n_compute: 4,
            n_memory: 4,
            cache_pages: 1_024,
            blade_span: 1 << 26,
            memory_blade_bytes: 1 << 26,
            dir_capacity: 16_384,
            rule_capacity: 8_192,
            trace: trace(false),
            ..MindConfig::default()
        },
        partitions: 4,
        run: RunConfig {
            ops_per_thread: 240,
            warmup_ops_per_thread: 40,
            threads_per_blade: threads_per_partition,
            trace: trace(false),
            ..Default::default()
        }
        .with_batch_ops(8),
        domain_per_thread,
    }
}

/// The partitions of one sharded family, keyed by partition index.
fn factory(family: &str) -> Box<PartitionFactory<'static>> {
    match family {
        // Shared and private regions, writes confined to one blade.
        "micro" => Box::new(|p: u16| {
            WorkloadSpec::Micro(MicroConfig {
                n_threads: 4,
                shared_pages: 512,
                private_pages: 64,
                seed: 7 + p as u64,
                ..Default::default()
            })
            .build()
        }),
        // Read-only YCSB-C: even cross-blade sharing cannot invalidate.
        "kvs" => Box::new(|p: u16| {
            WorkloadSpec::Kvs(KvsConfig {
                n_partitions: 4,
                partition_pages: 64,
                seed: 17 + p as u64,
                ..KvsConfig::ycsb_c(4)
            })
            .build()
        }),
        // One thread, one region and one protection domain per tenant.
        _ => Box::new(tenant_partitions(TenantGroupConfig {
            tenants_per_group: 8,
            pages_per_tenant: 16,
            read_ratio: 0.7,
            seed: 42,
        })),
    }
}

/// One row of the sharded table: family, turn size, cluster mode (window 8
/// over NICs of depth 2, else turnwise at window 1), traced. Every family
/// runs turnwise at turn size 8 and in cluster mode, untraced and traced;
/// cluster mode is traced on micro only (the other traced cluster rows add
/// seconds, not an axis), and micro also runs untraced at turn sizes 1 and
/// 64. The tests below split the twelve rows between them, each named for
/// the claim its rows carry.
type Row = (&'static str, u64, bool, bool);

/// The cells of a row that a test compares with the row's fused run.
#[derive(Clone, Copy, PartialEq)]
enum Cells {
    /// Shards 2 and 4 on lanes up to the shard count.
    Lanes,
    /// Collect-then-merge at shards 2 and 4.
    Merge,
    Both,
}

/// Every shard's report, each from a new rack (`run_shard`), in index order.
fn shard_reports(spec: &ShardSpec, shards: u16, factory: &PartitionFactory) -> Vec<RunReport> {
    (0..shards)
        .map(|s| run_shard(spec, shards, s, factory).expect("confined scenario"))
        .collect()
}

/// Collect-then-merge: `reports` folded with `RunReport::merge`, in order.
fn merge_all(name: &str, reports: impl IntoIterator<Item = RunReport>) -> RunReport {
    let mut merged = RunReport {
        name: name.to_string(),
        ..RunReport::default()
    };
    for mut r in reports {
        merged.merge(&mut r);
    }
    merged
}

/// Renders `report` after checking that it carries a trace (events, none
/// dropped) and a timeseries (ops recorded) exactly when `traced`.
fn observed(label: &str, traced: bool, report: RunReport) -> Rendered {
    assert_eq!(report.trace.is_some(), traced, "{label}: trace");
    let ops = report.timeseries.as_ref().map(|t| t.total_ops());
    assert_eq!(ops.is_some_and(|n| n > 0), traced, "{label}: timeseries");
    if let Some(trace) = &report.trace {
        assert!(!trace.events.is_empty(), "{label}: the run recorded events");
        assert_eq!(trace.dropped, 0, "{label}: dropped events");
    }
    let rendered = render(report);
    assert_eq!(rendered.bench.contains("\"timeseries\""), traced, "{label}");
    rendered
}

/// The spec of a row: the family's partitions at its turn size, schedule
/// and trace mode.
fn row_spec((family, batch_ops, cluster, traced): Row) -> ShardSpec {
    let schedule = if cluster { "cluster" } else { "turnwise" };
    let service = family == "service";
    let mut spec = spec(
        &format!("equiv/{family}/b{batch_ops}/{schedule}/{traced}"),
        if service { 8 } else { 4 },
        service,
    );
    // The rack's trace drives the cluster's event sink; the run's drives
    // the windowed timeseries.
    spec.base.trace = trace(traced);
    spec.run = spec.run.with_batch_ops(batch_ops).with_trace(trace(traced));
    if cluster {
        spec.base.nic_depth = 2;
        spec.run.window = 8;
        spec.run.concurrency = Concurrency::Cluster;
    }
    spec
}

/// A row's fused run, then its `cells`, each equal to the fused bytes.
fn check_row(row: Row, cells: Cells) {
    let (family, _, cluster, traced) = row;
    let spec = row_spec(row);
    let label = &spec.name;
    let factory = factory(family);
    let run = |shards: u16, lanes: usize| {
        run_sharded_threads(&spec, shards, lanes, &*factory).expect("confined scenario")
    };
    let fused = run(1, 1);
    assert_eq!(fused.invalidations, 0, "{label}: not confined");
    assert!(fused.total_ops > 0, "{label}: the run did work");
    let reference = observed(label, traced, fused);
    if cluster && traced {
        // Bounded NICs under a traced cluster run record the NIC lane.
        let trace = reference.trace.as_deref().expect("traced");
        assert!(trace.contains("\"name\":\"nic_stall\""), "{label}");
        assert!(reference.bench.contains("\"nic_stall_ns\""), "{label}");
    }
    for shards in [2u16, 4] {
        if cells != Cells::Merge {
            for lanes in [1usize, 2, 4].into_iter().filter(|&l| l <= shards as usize) {
                let cell = format!("{label} shards = {shards}, lanes = {lanes}");
                let rendered = observed(&cell, traced, run(shards, lanes));
                assert_eq!(rendered, reference, "{cell} diverged from the fused run");
            }
        }
        if cells != Cells::Lanes {
            let cell = format!("{label} collect-then-merge at shards = {shards}");
            let merged = merge_all(label, shard_reports(&spec, shards, &*factory));
            let rendered = observed(&cell, traced, merged);
            assert_eq!(rendered, reference, "{cell} diverged from the fused run");
        }
    }
}

/// Micro partitions at turn size 8, turnwise and in cluster mode.
#[test]
fn micro_partitions_render_identical_bench_json() {
    check_row(("micro", 8, false, false), Cells::Lanes);
    check_row(("micro", 8, true, false), Cells::Both);
}

/// Micro partitions at turn sizes 1 and 64 (turn size 8 is the row above).
#[test]
fn sharded_replay_matches_fused_at_every_batch_size() {
    check_row(("micro", 1, false, false), Cells::Both);
    check_row(("micro", 64, false, false), Cells::Both);
}

/// Read-only YCSB-C partitions, turnwise and in cluster mode.
#[test]
fn kvs_ycsb_c_partitions_render_identical_bench_json() {
    check_row(("kvs", 8, false, false), Cells::Both);
    check_row(("kvs", 8, true, false), Cells::Both);
}

/// `tenant_partitions` service tenants, one protection domain each,
/// turnwise and in cluster mode.
#[test]
fn service_tenant_partitions_render_identical_bench_json() {
    check_row(("service", 8, false, false), Cells::Lanes);
    check_row(("service", 8, true, false), Cells::Both);
}

/// Collect-then-merge folds the micro shards' reports to the fused bytes.
#[test]
fn micro_streamed_merge_matches_in_memory_untraced() {
    check_row(("micro", 8, false, false), Cells::Merge);
}

#[test]
fn micro_streamed_merge_matches_in_memory_traced() {
    check_row(("micro", 8, false, true), Cells::Merge);
}

/// Collect-then-merge folds the service tenants' reports to the fused bytes.
#[test]
fn service_streamed_merge_matches_in_memory_untraced() {
    check_row(("service", 8, false, false), Cells::Merge);
}

#[test]
fn service_streamed_merge_matches_in_memory_traced() {
    check_row(("service", 8, false, true), Cells::Merge);
}

/// Every traced cell compares the TRACE JSON and the BENCH JSON with its
/// timeseries section; the traced turnwise rows are split between this
/// test and the next by family, so no row runs twice.
#[test]
fn trace_json_is_byte_identical_across_every_shard_thread_cell() {
    check_row(("micro", 8, false, true), Cells::Lanes);
    check_row(("kvs", 8, false, true), Cells::Both);
}

#[test]
fn timeseries_is_byte_identical_across_every_shard_thread_cell() {
    check_row(("service", 8, false, true), Cells::Lanes);
}

/// Micro in cluster mode, traced: the NIC lane shows in both outputs.
#[test]
fn cluster_trace_and_timeseries_are_byte_identical_across_cells() {
    check_row(("micro", 8, true, true), Cells::Both);
}

/// Each family's fused run with tracing pinned off carries neither a trace
/// nor a timeseries; every untraced cell above asserts the same.
#[test]
fn tracing_off_reports_carry_no_observability_sections() {
    for family in ["micro", "kvs", "service"] {
        let spec = row_spec((family, 8, false, false));
        let report = run_sharded_threads(&spec, 1, 1, &*factory(family)).expect("confined");
        observed(&spec.name, false, report);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The merge never depends on OS-thread completion order: any lane
    /// count — dividing the shard count or not, larger than it or not —
    /// merges to the same report. (Lane counts shift which lane owns which
    /// shards and in which order they finish; none of it may show.)
    #[test]
    fn random_thread_counts_never_change_the_merged_report(threads in 1usize..9) {
        let factory = tenant_partitions(TenantGroupConfig {
            tenants_per_group: 2,
            pages_per_tenant: 8,
            read_ratio: 0.7,
            seed: 9,
        });
        let mut s = spec("equiv/threads", 2, true);
        s.run.ops_per_thread = 60;
        s.run.warmup_ops_per_thread = 10;
        let reference = render(run_sharded_threads(&s, 4, 1, &factory).expect("confined"));
        let merged = render(run_sharded_threads(&s, 4, threads, &factory).expect("confined"));
        prop_assert_eq!(merged, reference, "threads = {} diverged", threads);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fold order is free: folding the same per-shard reports in *any*
    /// order renders the same BENCH bytes and the same canonicalized
    /// trace as the index-order fold. Runs traced because the trace is
    /// the one fold whose order shows (events extend a vector) until it
    /// is canonicalized — integer folds would pass this trivially.
    #[test]
    fn fold_order_never_changes_the_merged_report(seed in 0u64..10_000) {
        let factory = factory("service");
        let mut s = spec("equiv/fold-order", 8, true);
        s.base.trace = trace(true);
        s.run.trace = trace(true);
        s.run.ops_per_thread = 60;
        s.run.warmup_ops_per_thread = 10;
        let shards = 4u16;
        let reports = shard_reports(&s, shards, &*factory);
        let reference = merge_all(&s.name, reports.clone());

        // A seeded Fisher-Yates permutation stands in for an arbitrary
        // completion order.
        let mut rng = SimRng::new(seed);
        let mut order: Vec<usize> = (0..shards as usize).collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_below(i as u64 + 1) as usize;
            order.swap(i, j);
        }

        let folded = merge_all(&s.name, order.iter().map(|&i| reports[i].clone()));
        let canonical = |r: &RunReport| {
            let mut trace = r.trace.clone().expect("traced");
            trace.canonicalize();
            trace
        };
        prop_assert_eq!(
            canonical(&folded),
            canonical(&reference),
            "canonical trace depended on fold order {:?}",
            order
        );
        prop_assert_eq!(
            render(folded),
            render(reference),
            "merged bytes depended on fold order {:?}",
            order
        );
    }
}

/// A service of `millis` simulated milliseconds, traced or not.
fn service_cfg(millis: u64, traced: bool) -> ServiceConfig {
    let rack = MindConfig {
        trace: trace(traced),
        ..ServiceConfig::default().rack
    };
    ServiceConfig {
        duration: SimTime::from_millis(millis),
        rack,
        ..Default::default()
    }
}

fn micro(n_threads: u16, shared_pages: u64, private_pages: u64) -> WorkloadSpec {
    WorkloadSpec::Micro(MicroConfig {
        n_threads,
        shared_pages,
        private_pages,
        ..Default::default()
    })
}

fn run_cfg(batch_ops: u64) -> RunConfig {
    RunConfig {
        ops_per_thread: 1_200,
        warmup_ops_per_thread: 300,
        threads_per_blade: 2,
        trace: trace(false),
        ..Default::default()
    }
    .with_batch_ops(batch_ops)
}

/// Replays `workload` on `system` and renders the BENCH JSON. A pinned
/// trace mode in `cfg` overrides the system's, as in a replay scenario.
fn replay_json_on(system: SystemSpec, workload: &WorkloadSpec, cfg: RunConfig) -> String {
    let mut sys = system.with_trace(cfg.trace).build();
    let mut wl = workload.build();
    render(runner::run(sys.as_mut(), wl.as_mut(), cfg)).bench
}

/// Micro, KVS-A and memcached at turn sizes 8 and 64: `check` gets each
/// cell's label and its BENCH JSON at a window and discipline.
fn serialized_cells(check: impl Fn(&str, &dyn Fn(u32, Concurrency) -> String)) {
    let workloads = [
        micro(4, 2_048, 256),
        WorkloadSpec::Kvs(KvsConfig {
            partition_pages: 128,
            ..KvsConfig::ycsb_a(4)
        }),
        WorkloadSpec::Memcached(MemcachedConfig {
            n_threads: 4,
            value_pages: 1_024,
            bucket_pages: 128,
            meta_pages: 32,
            ..MemcachedConfig::workload_a()
        }),
    ];
    for workload in workloads {
        let system = SystemSpec::mind_scaled(&workload.regions(), 2, ConsistencyModel::Tso);
        let name = workload.build().name();
        for batch_ops in [8u64, 64] {
            let render = |window: u32, concurrency: Concurrency| {
                let cfg = run_cfg(batch_ops)
                    .with_window(window)
                    .with_concurrency(concurrency);
                replay_json_on(system, &workload, cfg)
            };
            check(&format!("{name} at turn size {batch_ops}"), &render);
        }
    }
}

/// `window: 0` and `window: 1` both spell the serialized schedule, for the
/// replays above and for the service's quanta.
#[test]
fn window_one_json_is_byte_identical_to_the_serialized_path() {
    serialized_cells(|label, render| {
        assert_eq!(
            render(0, Concurrency::Turnwise),
            render(1, Concurrency::Turnwise),
            "window 0 diverged from window 1: {label}"
        );
    });
    let service_json = |window: u32| {
        let report = MemoryService::new(ServiceConfig {
            window,
            ..service_cfg(30, false)
        })
        .run();
        assert!(report.total_ops > 0, "the run served requests");
        report::service_json(&report).render()
    };
    assert_eq!(service_json(0), service_json(1), "service window 0 vs 1");
}

/// At window 1 cluster mode keeps the turnwise discipline.
#[test]
fn cluster_window_one_json_is_byte_identical_to_turnwise() {
    serialized_cells(|label, render| {
        assert_eq!(
            render(1, Concurrency::Cluster),
            render(1, Concurrency::Turnwise),
            "cluster mode at window 1 diverged from turnwise: {label}"
        );
    });
}

/// Chained issue makes a single thread's schedule independent of its turn
/// size: op `i + 1` issues at op `i`'s completion plus the gap whether or
/// not a turn boundary falls between them. So one thread renders the same
/// BENCH JSON at every `batch_ops`, on every system.
#[test]
fn one_thread_is_independent_of_turn_size_on_every_system() {
    let workload = micro(1, 1_024, 256);
    let regions = workload.regions();
    for system in [
        SystemSpec::mind_scaled(&regions, 1, ConsistencyModel::Tso),
        SystemSpec::gam_scaled(&regions, 1, 1),
        SystemSpec::fastswap_scaled(&regions),
    ] {
        let render = |batch_ops: u64| {
            let cfg = RunConfig {
                threads_per_blade: 1,
                ..run_cfg(batch_ops)
            };
            replay_json_on(system, &workload, cfg)
        };
        let reference = render(1);
        assert!(reference.contains("\"metrics\""), "full metrics");
        for batch_ops in [8u64, 64] {
            assert_eq!(
                render(batch_ops),
                reference,
                "turn size {batch_ops} changed a single thread's replay on {}",
                system.label()
            );
        }
    }
}

/// The degenerate point of the two scheduling disciplines: one thread
/// replayed in a single turn, no warm-up, is one issue stream over a pool
/// of `window` slots either way, so [`Concurrency::Turnwise`] and
/// [`Concurrency::Cluster`] render the same BENCH JSON byte for byte.
#[test]
fn one_thread_in_one_turn_is_the_same_schedule_under_both_disciplines() {
    let workload = micro(1, 1_024, 256);
    let system = SystemSpec::mind_scaled(&workload.regions(), 1, ConsistencyModel::Tso);
    for window in [4u32, 16] {
        let render = |concurrency: Concurrency| {
            let cfg = RunConfig {
                ops_per_thread: 1_500,
                threads_per_blade: 1,
                trace: trace(false),
                ..Default::default()
            }
            .with_batch_ops(1_500)
            .with_window(window)
            .with_concurrency(concurrency);
            replay_json_on(system, &workload, cfg)
        };
        let turnwise = render(Concurrency::Turnwise);
        assert_eq!(turnwise, render(Concurrency::Cluster), "window {window}");
    }
}

/// Tracing is observation, never behaviour: pinning the trace mode off
/// renders the BENCH JSON of the environment-resolved default. The one
/// cell the environment reaches: it is the environment's point.
#[test]
fn tracing_pinned_off_renders_the_environment_default() {
    let workload = micro(4, 2_048, 256);
    let system = SystemSpec::mind_scaled(&workload.regions(), 2, ConsistencyModel::Tso);
    let render =
        |trace: TraceConfig| replay_json_on(system, &workload, run_cfg(8).with_trace(trace));
    let pinned_off = render(trace(false));
    assert!(!pinned_off.contains("\"timeseries\""), "no telemetry");
    assert_eq!(
        pinned_off,
        render(TraceConfig::default()),
        "disabled tracing must be inert"
    );
}

/// [`runner::run`] is the one-partition case of the group replay: the same
/// workload as a single partition of a [`ShardSpec`] replays to the same
/// runtime, op count, latency distribution and measured-window metrics —
/// turnwise and through the cluster engine.
#[test]
fn run_equals_a_group_run_of_one_partition() {
    let workload = micro(4, 512, 64);
    let rack = MindConfig {
        trace: trace(false),
        ..MindConfig::scaled_to(workload.regions().iter().map(|len| len >> 12).sum(), 2)
    };
    for (window, concurrency) in [(1, Concurrency::Turnwise), (4, Concurrency::Cluster)] {
        let cfg = run_cfg(8).with_window(window).with_concurrency(concurrency);
        let direct = {
            let mut sys = MindCluster::new(rack);
            let mut wl = workload.build();
            runner::run(&mut sys, wl.as_mut(), cfg)
        };
        let spec = ShardSpec {
            name: "equiv/one-partition".into(),
            base: rack,
            partitions: 1,
            run: cfg,
            domain_per_thread: false,
        };
        let group = run_sharded_threads(&spec, 1, 1, &|_| workload.build())
            .expect("one partition always fits");
        let key = |r: &RunReport| {
            let quantiles = [0.5, 0.9, 0.99, 0.999, 1.0].map(|q| r.latency.quantile(q));
            let latency = (r.latency.count(), quantiles, r.latency.mean().to_bits());
            let totals = (r.runtime, r.warmup_end, r.total_ops, r.sum_overlapped_ns);
            (totals, latency, r.window_metrics.clone())
        };
        assert_eq!(key(&direct), key(&group), "w{window}");
    }
}

/// Replayed twice on fresh systems, `workload` renders the same BENCH JSON
/// (runtime, op counts, latency sums, lifetime and windowed metrics): a
/// run is a function of its configuration and seeds.
fn assert_replays_identically(system: SystemSpec, workload: &WorkloadSpec, cfg: RunConfig) {
    let first = replay_json_on(system, workload, cfg);
    assert!(first.contains("\"metrics\""), "full metrics");
    let second = replay_json_on(system, workload, cfg);
    assert_eq!(first, second, "{} replayed differently", system.label());
}

#[test]
fn mind_replay_is_bit_identical() {
    let workload = micro(4, 2_048, 256);
    let system = SystemSpec::mind_scaled(&workload.regions(), 2, ConsistencyModel::Tso);
    assert_replays_identically(system, &workload, run_cfg(1));
}

#[test]
fn mind_kvs_replay_is_bit_identical() {
    let workload = WorkloadSpec::Kvs(KvsConfig {
        partition_pages: 128,
        ..KvsConfig::ycsb_a(4)
    });
    let system = SystemSpec::mind_scaled(&workload.regions(), 2, ConsistencyModel::Tso);
    assert_replays_identically(system, &workload, run_cfg(1));
}

#[test]
fn baseline_replays_are_bit_identical() {
    let workload = micro(4, 2_048, 256);
    let regions = workload.regions();
    let gam = SystemSpec::gam_scaled(&regions, 2, 2);
    assert_replays_identically(gam, &workload, run_cfg(1));
    // FastSwap cannot share across blades: all four threads on one.
    let cfg = RunConfig {
        threads_per_blade: 4,
        ..run_cfg(1)
    };
    assert_replays_identically(SystemSpec::fastswap_scaled(&regions), &workload, cfg);
}

/// The raw RNG is stable across constructions and clones: the lowest-level
/// half of the determinism contract.
#[test]
fn sim_rng_streams_are_reproducible() {
    let mut a = SimRng::new(0xDEAD_BEEF);
    let mut b = SimRng::new(0xDEAD_BEEF);
    let xs: Vec<u64> = (0..1_000).map(|_| a.gen_below(1 << 30)).collect();
    let ys: Vec<u64> = (0..1_000).map(|_| b.gen_below(1 << 30)).collect();
    assert_eq!(xs, ys);

    let mut c = a.clone();
    assert_eq!(a.gen_below(u64::MAX), c.gen_below(u64::MAX));
}

/// The equalities above have teeth: a different seed steers the
/// simulation somewhere else.
#[test]
fn different_seed_changes_the_run() {
    let run = |seed: u64| {
        let mut sys = MindCluster::new(MindConfig {
            trace: trace(false),
            ..MindConfig::small()
        });
        let mut workload = MicroWorkload::new(MicroConfig {
            n_threads: 4,
            read_ratio: 0.7,
            sharing_ratio: 0.4,
            shared_pages: 2_000,
            private_pages: 500,
            seed,
        });
        let cfg = RunConfig {
            ops_per_thread: 2_000,
            warmup_ops_per_thread: 500,
            ..run_cfg(1)
        };
        runner::run(&mut sys, &mut workload, cfg)
    };
    let (a, b) = (run(42), run(43));
    assert_ne!(
        (a.runtime, a.metrics),
        (b.runtime, b.metrics),
        "two seeds produced byte-identical runs — the workload ignores its seed"
    );
}

/// A mixed table: all three system kinds, two workload families, a
/// service, a custom scenario and a batched replay, with uneven
/// per-scenario costs so a parallel run completes out of table order.
fn mixed_table() -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    let micro = micro(4, 2_048, 256);
    let regions = micro.regions();
    let run = RunConfig {
        ops_per_thread: 1_500,
        warmup_ops_per_thread: 250,
        ..run_cfg(1)
    };
    let mind = SystemSpec::mind_scaled(&regions, 2, ConsistencyModel::Tso);
    for (i, system) in [
        mind,
        SystemSpec::mind_scaled(&regions, 2, ConsistencyModel::Pso),
        SystemSpec::gam_scaled(&regions, 2, 2),
    ]
    .into_iter()
    .enumerate()
    {
        let name = format!("equiv/micro/{}/{i}", system.label());
        scenarios.push(Scenario::replay(name, system, micro, run));
    }
    // FastSwap cannot share across blades: all four threads on one.
    let fs_run = RunConfig {
        threads_per_blade: 4,
        ..run
    };
    let fastswap = SystemSpec::fastswap_scaled(&regions);
    scenarios.push(Scenario::replay("equiv/FastSwap", fastswap, micro, fs_run));

    let kvs = WorkloadSpec::Kvs(KvsConfig {
        partition_pages: 64,
        ..KvsConfig::ycsb_a(4)
    });
    let kvs_mind = SystemSpec::mind_scaled(&kvs.regions(), 2, ConsistencyModel::Tso);
    scenarios.push(Scenario::replay("equiv/kvs/MIND", kvs_mind, kvs, run));

    let service = ServiceSpec::new(service_cfg(20, false));
    scenarios.push(Scenario::service("equiv/service", service));

    scenarios.push(Scenario::custom("equiv/custom", || {
        ScenarioOutput::default()
            .value("answer", 42.0)
            .with_series("ts", vec![(0.0, 1.0), (1.0, 0.5)])
    }));

    let batched = run.with_batch_ops(16);
    scenarios.push(Scenario::replay("equiv/batched16", mind, micro, batched));
    scenarios
}

/// `table`'s suite JSON at 2, 4 and 7 engine workers equals the serial
/// engine's, which is returned.
fn assert_engine_workers_never_change(table: impl Fn() -> Vec<Scenario>) -> Vec<ScenarioResult> {
    let serial = Engine::new(1).run(table());
    let reference = report::suite_json("equivalence", &serial).render();
    for workers in [2, 4, 7] {
        let parallel = Engine::new(workers).run(table());
        assert_eq!(
            report::suite_json("equivalence", &parallel).render(),
            reference,
            "suite JSON diverged at {workers} engine workers"
        );
    }
    serial
}

#[test]
fn parallel_suite_json_is_byte_identical_to_serial() {
    let serial = assert_engine_workers_never_change(mixed_table);
    assert!(serial[5].service().tenants_admitted > 0, "service ran");
}

/// Scenario names carry their sweep parameters, and so does the workload
/// name in each report.
#[test]
fn scenario_names_carry_sweep_parameters() {
    let table = mixed_table();
    assert_eq!(table[0].name, "equiv/micro/MIND/0");
    assert_eq!(table[1].name, "equiv/micro/MIND-PSO/1");
    let results = Engine::new(2).run(table);
    assert_eq!(results[0].report().name, "micro(r=0.5,s=0.5)");
    assert!(results[4].report().name.starts_with("KVS-A(p="));
}

/// The whole stack at once: service-tenant sharded replays at 1, 2 and 4
/// shard lanes, nested inside engine workers.
#[test]
fn sharded_runs_nested_in_a_parallel_engine_render_identical_bench_json() {
    let table = || -> Vec<Scenario> {
        [1usize, 2, 4]
            .into_iter()
            .map(|lanes| {
                Scenario::custom(format!("equiv/sharded/l{lanes}"), move || {
                    let mut s = spec("equiv/sharded", 8, true);
                    s.run.ops_per_thread = 60;
                    s.run.warmup_ops_per_thread = 10;
                    let factory = factory("service");
                    let merged = run_sharded_threads(&s, 4, lanes, &*factory);
                    ScenarioOutput::from_report(merged.expect("confined scenario"))
                })
            })
            .collect()
    };
    let serial = assert_engine_workers_never_change(table);
    assert!(
        serial.iter().all(|r| r.report().total_ops > 0),
        "the runs did work"
    );
}

/// The `service` suite's quick tables (exactly what the `service --quick`
/// binary runs) render byte-identical `BENCH_service.json` at 1, 2 and 4
/// workers.
#[test]
fn engine_workers_never_change_the_service_tables() {
    let build = || {
        let mut table = Vec::new();
        for figure in mind::bench::figures::matching("service") {
            table.extend((figure.build)(true));
        }
        table
    };
    let serial = Engine::new(1).run(build());
    let reference = report::suite_json("service", &serial).render();
    assert!(reference.contains("\"service_qos/load1\""));
    assert!(reference.contains("\"service_churn/arrivals3200\""));
    assert!(reference.contains("\"service_elastic/rate80000\""));
    assert!(reference.contains("\"p999_ns\""));
    for workers in [2, 4] {
        let parallel = Engine::new(workers).run(build());
        assert_eq!(
            report::suite_json("service", &parallel).render(),
            reference,
            "BENCH_service.json diverged at {workers} engine workers"
        );
    }
}

#[test]
fn service_trace_is_deterministic_across_runs_and_dispatch_paths() {
    let cfg = service_cfg(20, true);
    let render = |r: mind::service::ServiceReport| -> (String, String) {
        let result = ScenarioResult {
            name: "svc".into(),
            output: ScenarioOutput::from_service(r),
        };
        (
            report::trace_json("svc", std::slice::from_ref(&result)),
            report::suite_json("svc", std::slice::from_ref(&result)).render(),
        )
    };
    let a = MemoryService::new(cfg).run();
    assert!(a.trace.is_some(), "service traces through rack.trace");
    assert!(
        a.timeseries.is_some(),
        "service carries per-class telemetry"
    );
    let (trace_a, suite_a) = render(a);
    assert!(trace_a.contains("\"name\":\"dispatch\""), "{trace_a}");
    assert!(trace_a.contains("\"name\":\"tenant_admit\""), "{trace_a}");
    assert!(suite_a.contains("\"timeseries\""));
    let (trace_b, suite_b) = render(MemoryService::new(cfg).run());
    assert_eq!(trace_a, trace_b, "service trace must replay identically");
    assert_eq!(suite_a, suite_b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Canonicalization is grouping-invariant and virtual-time monotone:
    /// however a random event multiset is split into per-shard buffers
    /// (recording order included), merging and canonicalizing yields one
    /// sequence, sorted by timestamp — so per lane (and per shard) the
    /// canonical order is monotone in virtual time.
    #[test]
    fn canonical_trace_order_is_monotone_and_split_invariant(
        seed in 0u64..10_000,
        n_events in 1usize..128,
        split_at in 0usize..128,
    ) {
        let mut rng = SimRng::new(seed);
        let kinds = [
            EventKind::Issue,
            EventKind::DirTransition,
            EventKind::Invalidation,
            EventKind::WindowAdmit,
            EventKind::WindowStall,
        ];
        let events: Vec<TraceEvent> = (0..n_events)
            .map(|_| TraceEvent {
                ts: SimTime::from_nanos(rng.gen_below(500)),
                lane: rng.gen_below(4) as u32,
                kind: kinds[rng.gen_below(kinds.len() as u64) as usize],
                dur: SimTime::from_nanos(rng.gen_below(50)),
                a0: rng.gen_below(8),
                a1: rng.gen_below(8),
            })
            .collect();
        let split = split_at % (n_events + 1);

        // One "fused" buffer versus two "shard" buffers with the same
        // multiset, merged in the opposite order.
        let mut fused = TraceData { events: events.clone(), dropped: 0 };
        let mut sharded = TraceData {
            events: events[split..].to_vec(),
            dropped: 0,
        };
        sharded.merge(TraceData { events: events[..split].to_vec(), dropped: 0 });
        fused.canonicalize();
        sharded.canonicalize();
        prop_assert_eq!(&fused, &sharded, "canonical order depends only on the multiset");

        for w in fused.events.windows(2) {
            prop_assert!(w[0].ts <= w[1].ts, "canonical order regressed in virtual time");
        }
        for lane in 0..4u32 {
            let mut last = SimTime::ZERO;
            for e in fused.events.iter().filter(|e| e.lane == lane) {
                prop_assert!(e.ts >= last, "lane {lane} regressed");
                last = e.ts;
            }
        }
    }
}
