//! Allocation gate of report building: a suite document borrows every
//! field and metric name it holds, so building and rendering it allocates
//! one vector per object or array, the strings it owns (scenario and
//! workload names), and the output buffer's growth.
//!
//! `mind_obs::mem::alloc_counts()` is process-wide, so this is the only
//! test in its target: a sibling test thread's allocations would land in
//! the measured delta.

use mind_core::system::ConsistencyModel;
use mind_harness::{
    report, Engine, Json, Scenario, ScenarioOutput, ServiceSpec, SystemSpec, WorkloadSpec,
};
use mind_obs::mem::alloc_counts;
use mind_service::ServiceConfig;
use mind_sim::SimTime;
use mind_workloads::micro::MicroConfig;
use mind_workloads::runner::RunConfig;

/// What a document needs beyond its own parts: the rendered text's
/// doublings (12 for this table's 8.6 kB), the merged aggregate metrics,
/// and the few keys a custom scenario names at run time.
const SLACK: u64 = 24;

/// Two replays, a service with its per-tenant records and a custom
/// scenario: every section [`report::suite_json`] writes.
fn table() -> Vec<Scenario> {
    let micro = WorkloadSpec::Micro(MicroConfig {
        n_threads: 2,
        shared_pages: 256,
        private_pages: 32,
        ..Default::default()
    });
    let regions = micro.regions();
    let run = RunConfig {
        ops_per_thread: 500,
        warmup_ops_per_thread: 100,
        ..Default::default()
    };
    vec![
        Scenario::replay(
            "alloc/micro/tso",
            SystemSpec::mind_scaled(&regions, 2, ConsistencyModel::Tso),
            micro,
            run,
        ),
        Scenario::replay(
            "alloc/micro/pso",
            SystemSpec::mind_scaled(&regions, 2, ConsistencyModel::Pso),
            micro,
            run,
        ),
        Scenario::service(
            "alloc/service",
            ServiceSpec::new(ServiceConfig {
                duration: SimTime::from_millis(10),
                ..Default::default()
            }),
        ),
        Scenario::custom("alloc/custom", || {
            ScenarioOutput::default()
                .value("answer", 42.0)
                .with_series("ts", vec![(0.0, 1.0), (1.0, 0.5)])
        }),
    ]
}

/// An upper bound on the allocations a document's tree must own: one per
/// non-empty object or array, and one per string value. Keys are not
/// counted: a report's keys are static names.
fn parts(doc: &Json) -> u64 {
    match doc {
        Json::Str(_) => 1,
        Json::Arr(items) => !items.is_empty() as u64 + items.iter().map(parts).sum::<u64>(),
        Json::Obj(pairs) => {
            !pairs.is_empty() as u64 + pairs.iter().map(|(_, value)| parts(value)).sum::<u64>()
        }
        _ => 0,
    }
}

#[test]
fn a_report_allocates_its_containers_and_owned_strings_only() {
    let results = Engine::new(1).run(table());
    // The generator stamp is resolved once per process.
    report::generator();
    let (before, _) = alloc_counts();
    let rendered = report::suite_json("alloc", &results).render();
    let (after, _) = alloc_counts();
    let made = after - before;
    let doc = report::suite_json("alloc", &results);
    assert_eq!(doc.render(), rendered);
    let bound = parts(&doc);
    // This makes 55 allocations; one string per key instead makes 349.
    assert!(
        made <= bound + SLACK,
        "building and rendering a {}-byte report made {made} allocations; \
         its containers and string values bound it at {bound} + {SLACK}",
        rendered.len()
    );
}
