//! The streamed constant-memory merge contract: folding per-shard
//! reports into a running accumulator **as each shard completes** must
//! render byte-identical output to the in-memory path that collects
//! every report first and merges the whole `Vec` at once — for every
//! shard count × thread count cell, traced and untraced.
//!
//! Two layers are covered:
//!
//! - **End to end**: `run_sharded_threads` (lazy shard build, worker
//!   lanes, `StreamedMerge` fold) against a reference that materializes
//!   every shard's report in memory (`run_shard`, one shard at a time)
//!   and merges them through `merge_reports` — the exact shape the
//!   executor had before the streaming fold existed.
//! - **The reorder buffer in isolation**: a proptest offers the same
//!   reports to `StreamedMerge` in arbitrary completion orders and
//!   checks the fused bytes never move — fold order is a function of
//!   shard *indices* alone, so completion order, thread count, and OS
//!   scheduling cannot reach it. Trace merge is the part that would
//!   break (it extends event vectors), so the proptest runs traced.

use proptest::prelude::*;

use mind::core::cluster::MindConfig;
use mind::harness::{report, ScenarioOutput, ScenarioResult, WorkloadSpec};
use mind::obs::{TraceConfig, TraceMode};
use mind::service::{tenant_partitions, TenantGroupConfig};
use mind::sim::SimRng;
use mind::workloads::micro::MicroConfig;
use mind::workloads::runner::{RunConfig, RunReport};
use mind::workloads::shard::PartitionFactory;
use mind::workloads::{
    merge_reports, run_shard, run_sharded_threads, ShardSpec, StreamedMerge, Workload,
};

/// A four-partition rack whose resources divide evenly into 1, 2, or 4
/// shards (mirrors `tests/shard_equivalence.rs`).
fn rack(partitions: u16) -> MindConfig {
    MindConfig {
        n_compute: partitions,
        n_memory: partitions,
        cache_pages: 1_024,
        blade_span: 1 << 26,
        memory_blade_bytes: 1 << 26,
        dir_capacity: 16_384,
        rule_capacity: 8_192,
        ..MindConfig::default()
    }
}

fn spec(name: &str, threads_per_partition: u16, domain_per_thread: bool, traced: bool) -> ShardSpec {
    let mode = if traced { TraceMode::On } else { TraceMode::Off };
    ShardSpec {
        name: name.to_string(),
        // The cluster trace is configured on the system config; the run
        // config's copy gates the windowed timeseries.
        base: MindConfig {
            trace: TraceConfig::with_mode(mode),
            ..rack(4)
        },
        partitions: 4,
        run: RunConfig {
            ops_per_thread: 160,
            warmup_ops_per_thread: 24,
            threads_per_blade: threads_per_partition,
            ..Default::default()
        }
        .with_batch_ops(8)
        .with_trace(TraceConfig::with_mode(mode)),
        domain_per_thread,
    }
}

/// Renders a merged report exactly as the bench suite would.
fn bench_json(report: RunReport) -> String {
    let result = ScenarioResult {
        name: report.name.clone(),
        output: ScenarioOutput::from_report(report),
    };
    report::suite_json("streamed_merge", &[result]).render()
}

/// The in-memory reference: every shard report materialized in a `Vec`,
/// to be merged at once in index order.
fn shard_reports(spec: &ShardSpec, shards: u16, factory: &PartitionFactory) -> Vec<RunReport> {
    (0..shards)
        .map(|s| run_shard(spec, shards, s, factory).expect("confined scenario"))
        .collect()
}

fn assert_reports_identical(label: &str, reference: &RunReport, streamed: &RunReport) {
    assert_eq!(
        reference.trace, streamed.trace,
        "{label}: merged trace diverged from the in-memory merge"
    );
    assert_eq!(
        bench_json(reference.clone()),
        bench_json(streamed.clone()),
        "{label}: merged BENCH JSON diverged from the in-memory merge"
    );
}

/// Every shard count × thread count cell of the streamed executor
/// against the in-memory reference.
fn assert_streamed_matches_in_memory(spec: &ShardSpec, factory: &PartitionFactory) {
    for shards in [1u16, 2, 4] {
        let reports = shard_reports(spec, shards, factory);
        let reference = merge_reports(spec.name.clone(), &reports);
        assert!(reference.total_ops > 0, "{}: the run did work", spec.name);
        if spec.run.trace.enabled() {
            assert!(
                reference.trace.as_ref().is_some_and(|t| !t.events.is_empty()),
                "{}: traced cells must actually carry events",
                spec.name
            );
        }
        for threads in [1usize, 2, 4] {
            let streamed =
                run_sharded_threads(spec, shards, threads, factory).expect("confined scenario");
            assert_reports_identical(
                &format!("{} shards={shards} threads={threads}", spec.name),
                &reference,
                &streamed,
            );
        }
    }
}

fn micro_factory() -> impl Fn(u16) -> Box<dyn Workload> + Sync {
    |p: u16| {
        WorkloadSpec::Micro(MicroConfig {
            n_threads: 4,
            shared_pages: 512,
            private_pages: 64,
            seed: 7 + p as u64,
            ..Default::default()
        })
        .build()
    }
}

fn service_factory() -> impl Fn(u16) -> Box<dyn Workload> + Sync {
    tenant_partitions(TenantGroupConfig {
        tenants_per_group: 8,
        pages_per_tenant: 16,
        read_ratio: 0.7,
        seed: 42,
    })
}

#[test]
fn micro_streamed_merge_matches_in_memory_untraced() {
    assert_streamed_matches_in_memory(
        &spec("streamed/micro", 4, false, false),
        &micro_factory(),
    );
}

#[test]
fn micro_streamed_merge_matches_in_memory_traced() {
    assert_streamed_matches_in_memory(&spec("streamed/micro-on", 4, false, true), &micro_factory());
}

#[test]
fn service_streamed_merge_matches_in_memory_untraced() {
    assert_streamed_matches_in_memory(
        &spec("streamed/service", 8, true, false),
        &service_factory(),
    );
}

#[test]
fn service_streamed_merge_matches_in_memory_traced() {
    assert_streamed_matches_in_memory(
        &spec("streamed/service-on", 8, true, true),
        &service_factory(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The reorder buffer makes the fold order a function of shard
    /// indices alone: offering the same per-shard reports in *any*
    /// completion order fuses to the same bytes as the index-order
    /// in-memory merge. Runs traced because trace merge (vector
    /// extension) is the one fold that is order-sensitive — integer
    /// folds would pass this trivially. Along the way the accounting
    /// invariant holds: everything offered is either folded or parked
    /// in the buffer.
    #[test]
    fn reorder_buffer_fold_is_completion_order_invariant(seed in 0u64..10_000) {
        let factory = service_factory();
        let mut s = spec("streamed/reorder", 8, true, true);
        s.run.ops_per_thread = 60;
        s.run.warmup_ops_per_thread = 10;
        let shards = 4u16;
        let reports = shard_reports(&s, shards, &factory);
        let reference = merge_reports(s.name.clone(), &reports);

        // A seeded Fisher-Yates permutation stands in for an arbitrary
        // completion order.
        let mut rng = SimRng::new(seed);
        let mut order: Vec<usize> = (0..shards as usize).collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_below(i as u64 + 1) as usize;
            order.swap(i, j);
        }

        let mut merge = StreamedMerge::new(s.name.clone(), shards as usize);
        for (offered, &shard) in order.iter().enumerate() {
            merge.offer(shard, reports[shard].clone());
            prop_assert_eq!(
                merge.folded() + merge.pending(),
                offered + 1,
                "every offered report is folded or buffered"
            );
        }
        prop_assert_eq!(merge.pending(), 0, "a complete offer set drains the buffer");
        let streamed = merge.finish();
        prop_assert_eq!(
            streamed.trace.clone(),
            reference.trace.clone(),
            "trace fold depended on completion order {:?}",
            order
        );
        prop_assert_eq!(
            bench_json(streamed),
            bench_json(reference),
            "merged bytes depended on completion order {:?}",
            order
        );
    }
}
