//! The tracing tentpole's contract: with tracing **on**, the rendered
//! Chrome trace JSON and the windowed `timeseries` telemetry are
//! byte-identical across every `(shard count × OS-thread count)`
//! execution cell — traces are replay artifacts, not logs. With tracing
//! **off**, reports carry no trace or timeseries sections at all and the
//! BENCH JSON is byte-identical to a run that predates the
//! instrumentation (the disabled path is a branch, never a behavioural
//! change).
//!
//! The determinism argument mirrors the shard-equivalence contract:
//! every traced event is built from simulated quantities only, so the
//! event *multiset* is grouping-invariant, and `TraceData::canonicalize`
//! (a total-order sort over the full event tuple) erases recording
//! order. These tests pin that argument end to end, through the real
//! shard driver and the real renderer.

use proptest::prelude::*;

use mind::core::cluster::MindConfig;
use mind::harness::{report, ScenarioOutput, ScenarioResult, WorkloadSpec};
use mind::obs::{EventKind, TraceConfig, TraceData, TraceEvent, TraceMode};
use mind::service::{MemoryService, ServiceConfig};
use mind::sim::{SimRng, SimTime};
use mind::workloads::micro::MicroConfig;
use mind::workloads::runner::{Concurrency, RunConfig, RunReport};
use mind::workloads::{run_group, run_sharded_threads, ShardSpec};

/// A four-partition rack that divides evenly into 1, 2, or 4 shards,
/// with tracing pinned on in both the rack config (drives the cluster's
/// event sink) and the run config (drives the windowed telemetry).
fn traced_spec(name: &str) -> ShardSpec {
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
            trace: TraceConfig::with_mode(TraceMode::On),
            ..MindConfig::default()
        },
        partitions: 4,
        run: RunConfig {
            ops_per_thread: 240,
            warmup_ops_per_thread: 40,
            threads_per_blade: 4,
            trace: TraceConfig::with_mode(TraceMode::On),
            ..Default::default()
        }
        .with_batch_ops(8),
        domain_per_thread: false,
    }
}

fn micro_factory(p: u16) -> Box<dyn mind::workloads::Workload> {
    WorkloadSpec::Micro(MicroConfig {
        n_threads: 4,
        shared_pages: 512,
        private_pages: 64,
        seed: 7 + p as u64,
        ..Default::default()
    })
    .build()
}

/// Renders a merged report's trace exactly as the bench suite would
/// (`TRACE_<suite>.json` content).
fn trace_json(report: RunReport) -> String {
    let result = ScenarioResult {
        name: report.name.clone(),
        output: ScenarioOutput::from_report(report),
    };
    report::trace_json("trace_determinism", &[result])
}

/// Renders a merged report's suite JSON (carries the `timeseries`
/// section when tracing was on).
fn bench_json(report: RunReport) -> String {
    let result = ScenarioResult {
        name: report.name.clone(),
        output: ScenarioOutput::from_report(report),
    };
    report::suite_json("trace_determinism", &[result]).render()
}

#[test]
fn trace_json_is_byte_identical_across_every_shard_thread_cell() {
    let spec = traced_spec("trace/micro");
    let factory: &mind::workloads::shard::PartitionFactory = &micro_factory;
    let fused = run_group(&spec, factory).expect("confined scenario");
    let trace = fused.trace.as_ref().expect("tracing pinned on");
    assert!(!trace.events.is_empty(), "the run recorded events");
    assert_eq!(trace.dropped, 0, "capacity valve untouched");
    let reference_trace = trace_json(fused);
    for shards in [1u16, 2, 4] {
        for threads in [1usize, 2, 4] {
            let merged = run_sharded_threads(&spec, shards, threads, factory)
                .expect("confined scenario");
            assert_eq!(
                merged.trace.as_ref().expect("tracing pinned on").dropped,
                0,
                "shards = {shards}, threads = {threads} dropped events"
            );
            assert_eq!(
                trace_json(merged),
                reference_trace,
                "trace JSON diverged from the fused reference at \
                 shards = {shards}, threads = {threads}"
            );
        }
    }
}

#[test]
fn timeseries_is_byte_identical_across_every_shard_thread_cell() {
    let spec = traced_spec("trace/timeseries");
    let factory: &mind::workloads::shard::PartitionFactory = &micro_factory;
    let fused = run_group(&spec, factory).expect("confined scenario");
    let series = fused.timeseries.as_ref().expect("tracing pinned on");
    assert!(series.total_ops() > 0, "telemetry recorded the run");
    let reference = bench_json(fused);
    assert!(
        reference.contains("\"timeseries\""),
        "suite JSON carries the timeseries section"
    );
    for shards in [1u16, 2, 4] {
        for threads in [1usize, 2, 4] {
            let merged = run_sharded_threads(&spec, shards, threads, factory)
                .expect("confined scenario");
            assert_eq!(
                bench_json(merged),
                reference,
                "timeseries diverged from the fused reference at \
                 shards = {shards}, threads = {threads}"
            );
        }
    }
}

/// The same cell-invariance contract through the cluster-wide
/// event-driven engine: with `Concurrency::Cluster`, a deep window, and
/// bounded NICs, every `(shards × threads)` cell still renders the fused
/// run's exact trace and timeseries bytes — and the trace now carries
/// `nic_stall` events with the matching `nic_stall_ns` telemetry lane,
/// so NIC pressure is attributable without breaking determinism.
#[test]
fn cluster_trace_and_timeseries_are_byte_identical_across_cells() {
    let mut spec = traced_spec("trace/cluster");
    spec.base.nic_depth = 2;
    spec.run = spec
        .run
        .with_window(8)
        .with_concurrency(Concurrency::Cluster);
    let factory: &mind::workloads::shard::PartitionFactory = &micro_factory;
    let fused = run_group(&spec, factory).expect("confined scenario");
    let trace = fused.trace.as_ref().expect("tracing pinned on");
    assert!(
        trace
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::NicStall)),
        "bounded NICs under a traced cluster run record nic_stall events"
    );
    assert_eq!(trace.dropped, 0, "capacity valve untouched");
    let reference_trace = trace_json(fused.clone());
    let reference_bench = bench_json(fused);
    assert!(
        reference_trace.contains("\"name\":\"nic_stall\""),
        "trace JSON names the NIC lane"
    );
    assert!(
        reference_bench.contains("\"nic_stall_ns\""),
        "timeseries carries the NIC stall lane"
    );
    for shards in [1u16, 2, 4] {
        for threads in [1usize, 2, 4] {
            let merged = run_sharded_threads(&spec, shards, threads, factory)
                .expect("confined scenario");
            assert_eq!(
                trace_json(merged.clone()),
                reference_trace,
                "cluster trace diverged from the fused reference at \
                 shards = {shards}, threads = {threads}"
            );
            assert_eq!(
                bench_json(merged),
                reference_bench,
                "cluster timeseries diverged from the fused reference at \
                 shards = {shards}, threads = {threads}"
            );
        }
    }
}

#[test]
fn tracing_off_reports_carry_no_observability_sections() {
    let mut spec = traced_spec("trace/off");
    spec.base.trace = TraceConfig::with_mode(TraceMode::Off);
    spec.run.trace = TraceConfig::with_mode(TraceMode::Off);
    let factory: &mind::workloads::shard::PartitionFactory = &micro_factory;
    let report = run_group(&spec, factory).expect("confined scenario");
    assert!(report.trace.is_none(), "no trace when off");
    assert!(report.timeseries.is_none(), "no telemetry when off");
    let json = bench_json(report);
    assert!(!json.contains("\"timeseries\""), "no timeseries key: {json}");
}

#[test]
fn service_trace_is_deterministic_across_runs_and_dispatch_paths() {
    let cfg = ServiceConfig {
        duration: SimTime::from_millis(20),
        rack: MindConfig {
            trace: TraceConfig::with_mode(TraceMode::On),
            ..ServiceConfig::default().rack
        },
        ..Default::default()
    };
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
