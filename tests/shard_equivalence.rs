//! The sharded simulation's core guarantee: replaying a partitioned
//! scenario as `shards` independent sub-clusters, each run to completion
//! on its own, renders **byte-identical** BENCH JSON to the one-shard
//! run — the fused rack, every partition on one cluster — whenever the
//! scenario honours the confinement contract
//! spelled out in `mind_workloads::shard` (symmetric partitions, slice
//! confinement, zero invalidations, directory utilization at or below
//! one half).
//!
//! Three scenario families cover the contract's surface: a micro-style
//! partition (shared + private regions, writes confined to one blade), a
//! read-only YCSB-C KVS partition, and the `mind_service` multi-tenant
//! population with one protection domain per tenant.
//!
//! The guarantee extends across the executor's **OS-thread axis**: every
//! (shard count × thread count) cell must render the identical JSON —
//! thread counts (and thus completion order) are scheduling decisions,
//! never semantic ones — including when the sharded run is itself nested
//! inside a parallel harness engine (`MIND_THREADS`, exercised by the CI
//! matrix).

use proptest::prelude::*;

use mind::core::cluster::MindConfig;
use mind::harness::{report, Engine, Scenario, ScenarioOutput, ScenarioResult, WorkloadSpec};
use mind::service::{tenant_partitions, TenantGroupConfig};
use mind::workloads::kvs::KvsConfig;
use mind::workloads::micro::MicroConfig;
use mind::workloads::runner::{RunConfig, RunReport};
use mind::workloads::shard::PartitionFactory;
use mind::workloads::{run_sharded_threads, ShardSpec};

/// A four-partition rack whose resources divide evenly into 1, 2, or 4
/// shards; the directory is sized so even fully split regions stay well
/// under the contract's 1/2 utilization ceiling.
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

fn spec(name: &str, threads_per_partition: u16, domain_per_thread: bool) -> ShardSpec {
    ShardSpec {
        name: name.to_string(),
        base: rack(4),
        partitions: 4,
        run: RunConfig {
            ops_per_thread: 240,
            warmup_ops_per_thread: 40,
            // The whole partition on one compute blade: writes then touch
            // a single cache, so no invalidations couple the partitions.
            threads_per_blade: threads_per_partition,
            ..Default::default()
        }
        .with_batch_ops(8),
        domain_per_thread,
    }
}

/// Renders a group/merged report exactly as the bench suite would.
fn bench_json(report: RunReport) -> String {
    let result = ScenarioResult {
        name: report.name.clone(),
        output: ScenarioOutput::from_report(report),
    };
    report::suite_json("shard_equivalence", &[result]).render()
}

/// The fused reference versus every (shard count × OS-thread count)
/// cell, compared on the full rendered BENCH JSON (values, metrics,
/// series — everything).
fn assert_shards_reproduce_fused(spec: &ShardSpec, factory: &PartitionFactory) {
    let fused = run_sharded_threads(spec, 1, 1, factory).expect("confined scenario");
    assert_eq!(
        fused.invalidations, 0,
        "{}: scenario must be confined for the contract to hold",
        spec.name
    );
    assert!(fused.total_ops > 0, "{}: the run did work", spec.name);
    let reference = bench_json(fused);
    for shards in [1u16, 2, 4] {
        for threads in [1usize, 2, 4] {
            let merged = bench_json(
                run_sharded_threads(spec, shards, threads, factory).expect("confined scenario"),
            );
            assert_eq!(
                merged, reference,
                "{} BENCH JSON diverged from the fused reference at \
                 shards = {shards}, threads = {threads}",
                spec.name
            );
        }
    }
}

#[test]
fn micro_partitions_render_identical_bench_json() {
    let factory = |p: u16| {
        WorkloadSpec::Micro(MicroConfig {
            n_threads: 4,
            shared_pages: 512,
            private_pages: 64,
            seed: 7 + p as u64,
            ..Default::default()
        })
        .build()
    };
    assert_shards_reproduce_fused(&spec("shard-equiv/micro", 4, false), &factory);
}

#[test]
fn kvs_ycsb_c_partitions_render_identical_bench_json() {
    // YCSB-C is read-only, so even cross-blade sharing inside a
    // partition cannot generate invalidations.
    let factory = |p: u16| {
        WorkloadSpec::Kvs(KvsConfig {
            n_partitions: 4,
            partition_pages: 64,
            seed: 17 + p as u64,
            ..KvsConfig::ycsb_c(4)
        })
        .build()
    };
    assert_shards_reproduce_fused(&spec("shard-equiv/kvs", 4, false), &factory);
}

#[test]
fn service_tenant_partitions_render_identical_bench_json() {
    // The mind_service population: one replay thread, one region, and —
    // via `domain_per_thread` — one protection domain per tenant.
    let factory = tenant_partitions(TenantGroupConfig {
        tenants_per_group: 8,
        pages_per_tenant: 16,
        read_ratio: 0.7,
        seed: 42,
    });
    assert_shards_reproduce_fused(&spec("shard-equiv/service", 8, true), &factory);
}

#[test]
fn sharded_runs_nested_in_a_parallel_engine_render_identical_bench_json() {
    // The whole stack at once: a scenario table whose cells each run a
    // multi-threaded sharded replay, executed under the environment-sized
    // engine (the CI matrix sets MIND_THREADS to 1 and 4) and under a
    // serial engine. The rendered suite JSON must match byte for byte —
    // engine workers and the shard lanes nested inside them are both
    // scheduling-only.
    let table = || -> Vec<Scenario> {
        [1usize, 2, 4]
            .into_iter()
            .map(|threads| {
                Scenario::custom(format!("shard-equiv/nested-t{threads}"), move || {
                    let factory = tenant_partitions(TenantGroupConfig {
                        tenants_per_group: 8,
                        pages_per_tenant: 16,
                        read_ratio: 0.7,
                        seed: 42,
                    });
                    let s = spec("shard-equiv/nested", 8, true);
                    let merged = run_sharded_threads(&s, 4, threads, &factory)
                        .expect("confined scenario");
                    ScenarioOutput::from_report(merged)
                })
            })
            .collect()
    };
    let serial = report::suite_json("shard_equivalence", &Engine::new(1).run(table())).render();
    let parallel =
        report::suite_json("shard_equivalence", &Engine::from_env().run(table())).render();
    assert_eq!(
        serial, parallel,
        "suite JSON diverged between a serial and an environment-sized engine"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The merge never depends on OS-thread completion order: any thread
    /// count — dividing the shard count or not, larger than it or not —
    /// merges to the same report. (Thread counts shift which worker owns
    /// which shards and in which order they finish; none of it may show.)
    #[test]
    fn random_thread_counts_never_change_the_merged_report(threads in 1usize..9) {
        let factory = tenant_partitions(TenantGroupConfig {
            tenants_per_group: 2,
            pages_per_tenant: 8,
            read_ratio: 0.7,
            seed: 9,
        });
        let mut s = spec("shard-equiv/threads", 2, true);
        s.run.ops_per_thread = 60;
        s.run.warmup_ops_per_thread = 10;
        let reference = bench_json(run_sharded_threads(&s, 4, 1, &factory).expect("confined"));
        let merged = bench_json(run_sharded_threads(&s, 4, threads, &factory).expect("confined"));
        prop_assert_eq!(merged, reference, "threads = {} diverged", threads);
    }
}
