//! The engine's core guarantee: a scenario table executed across any
//! number of worker threads produces output byte-identical to a serial
//! run — thread scheduling decides only *when* a scenario runs, never
//! *what* it computes.

use mind::core::cluster::MindConfig;
use mind::core::system::ConsistencyModel;
use mind::harness::{report, Engine, Scenario, ScenarioOutput, ServiceSpec, SystemSpec, WorkloadSpec};
use mind::service::{tenant_partitions, ServiceConfig, TenantGroupConfig};
use mind::sim::SimTime;
use mind::workloads::kvs::KvsConfig;
use mind::workloads::micro::MicroConfig;
use mind::workloads::runner::RunConfig;
use mind::workloads::{run_sharded, ShardSpec};

/// A small but representative table: all three system kinds, two workload
/// families, plus a custom scenario — and uneven per-scenario costs so a
/// parallel run genuinely completes out of table order.
fn table() -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    let micro = WorkloadSpec::Micro(MicroConfig {
        n_threads: 4,
        shared_pages: 2_048,
        private_pages: 256,
        ..Default::default()
    });
    let regions = micro.regions();
    let run = RunConfig {
        ops_per_thread: 1_500,
        warmup_ops_per_thread: 250,
        threads_per_blade: 2,
        ..Default::default()
    };
    for (i, system) in [
        SystemSpec::mind_scaled(&regions, 2, ConsistencyModel::Tso),
        SystemSpec::mind_scaled(&regions, 2, ConsistencyModel::Pso),
        SystemSpec::gam_scaled(&regions, 2, 2),
    ]
    .into_iter()
    .enumerate()
    {
        scenarios.push(Scenario::replay(
            format!("det/micro/{}/{i}", system.label()),
            system,
            micro,
            run,
        ));
    }
    let fs_run = RunConfig {
        threads_per_blade: 4,
        ..run
    };
    scenarios.push(Scenario::replay(
        "det/micro/FastSwap",
        SystemSpec::fastswap_scaled(&regions),
        micro,
        fs_run,
    ));

    let kvs = WorkloadSpec::Kvs(KvsConfig {
        partition_pages: 64,
        ..KvsConfig::ycsb_a(4)
    });
    let kvs_regions = kvs.regions();
    scenarios.push(Scenario::replay(
        "det/kvs/MIND",
        SystemSpec::mind_scaled(&kvs_regions, 2, ConsistencyModel::Tso),
        kvs,
        run,
    ));

    scenarios.push(Scenario::service(
        "det/service",
        ServiceSpec::new(ServiceConfig {
            duration: SimTime::from_millis(20),
            ..Default::default()
        }),
    ));

    scenarios.push(Scenario::custom("det/custom", || {
        ScenarioOutput::default()
            .value("answer", 42.0)
            .with_series("ts", vec![(0.0, 1.0), (1.0, 0.5)])
    }));

    // A replay in 16-op turns: as schedule-independent across worker
    // threads as the op-at-a-time one.
    scenarios.push(Scenario::replay(
        "det/micro/MIND/batched16",
        SystemSpec::mind_scaled(&regions, 2, ConsistencyModel::Tso),
        micro,
        run.with_batch_ops(16),
    ));

    // A sharded large-scenario replay: the merged windowed report must be
    // just as worker-count independent as any single-cluster scenario.
    scenarios.push(Scenario::custom("det/sharded", || {
        let spec = ShardSpec {
            name: "det/sharded".to_string(),
            base: MindConfig {
                n_compute: 2,
                n_memory: 2,
                cache_pages: 512,
                blade_span: 1 << 26,
                memory_blade_bytes: 1 << 26,
                dir_capacity: 8_192,
                rule_capacity: 4_096,
                ..MindConfig::default()
            },
            partitions: 2,
            run: RunConfig {
                ops_per_thread: 400,
                warmup_ops_per_thread: 80,
                threads_per_blade: 2,
                ..Default::default()
            }
            .with_batch_ops(8),
            domain_per_thread: true,
        };
        let factory = tenant_partitions(TenantGroupConfig {
            tenants_per_group: 2,
            pages_per_tenant: 16,
            read_ratio: 0.7,
            seed: 42,
        });
        ScenarioOutput::from_report(run_sharded(&spec, 2, &factory).expect("confined scenario"))
    }));
    scenarios
}

#[test]
fn parallel_suite_json_is_byte_identical_to_serial() {
    let serial = Engine::new(1).run(table());
    let reference = report::suite_json("determinism", &serial).render();
    assert!(reference.contains("\"det/kvs/MIND\""));

    for threads in [2, 4, 7] {
        let parallel = Engine::new(threads).run(table());
        let rendered = report::suite_json("determinism", &parallel).render();
        assert_eq!(
            rendered, reference,
            "JSON diverged at {threads} worker threads"
        );
    }
}

#[test]
fn scenario_names_carry_sweep_parameters() {
    let results = Engine::new(2).run(table());
    assert_eq!(results[0].name, "det/micro/MIND/0");
    assert_eq!(results[1].name, "det/micro/MIND-PSO/1");
    // The workload-level report name is parameterized too (satellite:
    // owned names instead of a shared static label).
    assert_eq!(results[0].report().name, "micro(r=0.5,s=0.5)");
    assert!(results[4].report().name.starts_with("KVS-A(p="));
    assert!(results[5].service().tenants_admitted > 0, "service ran");
}

/// The new-subsystem acceptance bar: the `service` suite's quick tables
/// (exactly what the `service --quick` binary runs) render to
/// byte-identical `BENCH_service.json` at 1, 2, and 4 workers.
#[test]
fn service_suite_json_is_byte_identical_across_workers() {
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

    for threads in [2, 4] {
        let parallel = Engine::new(threads).run(build());
        let rendered = report::suite_json("service", &parallel).render();
        assert_eq!(
            rendered, reference,
            "BENCH_service.json diverged at {threads} worker threads"
        );
    }
}
