//! The paper's figures and ablations as declarative scenario tables.
//!
//! Each figure contributes two functions: `*_build(quick) ->
//! Vec<Scenario>` (the declarative table — every experiment point is pure
//! data) and `*_present(&[ScenarioResult])` (prints the paper-style table
//! from results, which arrive in table order regardless of how the engine
//! interleaved execution). The [`all`] registry ties them together so the
//! `suite` binary (`--filter <name>` for one figure) and the gating bins
//! share one definition.

use mind_harness::{report, Engine, Scenario, ScenarioResult};

pub mod ablations;
pub mod datapath;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod service;

/// One figure: a named scenario table plus its presentation.
pub struct Figure {
    /// Binary/suite name, e.g. `fig5_intra`.
    pub name: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Builds the scenario table; `true` requests the quick (CI-sized)
    /// variant.
    pub build: fn(bool) -> Vec<Scenario>,
    /// Prints the paper-style tables from the results.
    pub present: fn(&[ScenarioResult]),
}

/// Every figure and ablation, in paper order.
pub fn all() -> Vec<Figure> {
    vec![
        Figure {
            name: "fig5_intra",
            title: "Figure 5 (left): intra-blade performance scaling",
            build: fig5::intra_build,
            present: fig5::intra_present,
        },
        Figure {
            name: "fig5_inter",
            title: "Figure 5 (center): inter-blade performance scaling",
            build: fig5::inter_build,
            present: fig5::inter_present,
        },
        Figure {
            name: "fig5_kvs",
            title: "Figure 5 (right): Native-KVS throughput",
            build: fig5::kvs_build,
            present: fig5::kvs_present,
        },
        Figure {
            name: "fig6_invalidation",
            title: "Figure 6: invalidation overhead per workload and blade count",
            build: fig6::build,
            present: fig6::present,
        },
        Figure {
            name: "fig7_transitions",
            title: "Figure 7 (left): MSI transition latency",
            build: fig7::transitions_build,
            present: fig7::transitions_present,
        },
        Figure {
            name: "fig7_throughput",
            title: "Figure 7 (center): IOPS vs sharing ratio x read ratio",
            build: fig7::throughput_build,
            present: fig7::throughput_present,
        },
        Figure {
            name: "fig7_breakdown",
            title: "Figure 7 (right): latency breakdown per remote access",
            build: fig7::breakdown_build,
            present: fig7::breakdown_present,
        },
        Figure {
            name: "fig8_directory",
            title: "Figure 8 (left): directory entries over time vs the SRAM limit",
            build: fig8::directory_build,
            present: fig8::directory_present,
        },
        Figure {
            name: "fig8_rules",
            title: "Figure 8 (center): match-action rules vs rack size",
            build: fig8::rules_build,
            present: fig8::rules_present,
        },
        Figure {
            name: "fig8_fairness",
            title: "Figure 8 (right): memory-allocation load balance",
            build: fig8::fairness_build,
            present: fig8::fairness_present,
        },
        Figure {
            name: "fig9_tradeoff",
            title: "Figure 9 (left): region-granularity storage/performance tradeoff",
            build: fig9::tradeoff_build,
            present: fig9::tradeoff_present,
        },
        Figure {
            name: "fig9_sensitivity",
            title: "Figure 9 (right): bounded-splitting sensitivity",
            build: fig9::sensitivity_build,
            present: fig9::sensitivity_present,
        },
        Figure {
            name: "ablation_protocols",
            title: "§8 ablation: MSI vs MESI vs MOESI",
            build: ablations::protocols_build,
            present: ablations::protocols_present,
        },
        Figure {
            name: "ablation_placement",
            title: "§8 ablation: sharer-aware thread placement",
            build: ablations::placement_build,
            present: ablations::placement_present,
        },
        Figure {
            name: "service_qos",
            title: "service: per-class SLOs (p50/p99/p99.9) vs offered load",
            build: service::qos_build,
            present: service::qos_present,
        },
        Figure {
            name: "service_churn",
            title: "service: tenant churn, admission control, and TCAM reclamation",
            build: service::churn_build,
            present: service::churn_present,
        },
        Figure {
            name: "service_elastic",
            title: "service: elastic blade assignment vs per-tenant load",
            build: service::elastic_build,
            present: service::elastic_present,
        },
        Figure {
            name: "service_scale",
            title: "service: 10^5-tenant sharded populations on the multi-core executor",
            build: service::scale_build,
            present: service::scale_present,
        },
        Figure {
            name: "datapath",
            title: "datapath: turn size, in-flight windows and sharded replay",
            build: datapath::build,
            present: datapath::present,
        },
    ]
}

/// The figure registry filtered to a name substring (the `--filter` flag
/// of the `suite` binary; the `service` binary uses the `"service"`
/// prefix).
pub fn matching(filter: &str) -> Vec<Figure> {
    all().into_iter().filter(|f| f.name.contains(filter)).collect()
}

/// Operation-count scaling: the quick (CI) variant divides op budgets by
/// 20 with a floor that keeps every scenario meaningfully exercised.
pub(crate) fn scaled_ops(full: u64, quick: bool) -> u64 {
    if quick {
        (full / 20).max(2_000)
    } else {
        full
    }
}

/// Entry point of a single-figure binary: builds the named
/// figure's table (honouring a `--quick` argument), executes it on the
/// environment-sized engine, prints the tables, and writes
/// `BENCH_<name>.json`. Returns the results so a binary can gate on them
/// (the `datapath` bin's `--quick` perf-guard).
pub fn run_main(name: &str) -> Vec<ScenarioResult> {
    let quick = std::env::args().any(|a| a == "--quick");
    let figure = all()
        .into_iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("unknown figure {name}"));
    let engine = Engine::from_env();
    let results = engine.run((figure.build)(quick));
    (figure.present)(&results);
    let path = report::write_suite(figure.name, quick, &results).expect("write BENCH json");
    println!("\nwrote {}", path.display());
    write_trace_if_enabled(figure.name, &results);
    results
}

/// Writes `TRACE_<suite>.json` when `MIND_TRACE` enables tracing —
/// disabled runs produce no trace files, so the default BENCH output set
/// is unchanged.
fn write_trace_if_enabled(suite: &str, results: &[ScenarioResult]) {
    if mind_sim::env::trace_level().enabled() {
        let path = report::write_trace(suite, results).expect("write TRACE json");
        println!("wrote {}", path.display());
    }
}

/// Entry point shared by the multi-figure binaries (`suite`, `service`):
/// concatenates the given figures' tables, fans the combined table across
/// the engine's workers, prints each figure's rows, and writes
/// `BENCH_<suite>.json`. Output is byte-identical for any worker count.
pub fn run_suite(suite: &str, figures: &[Figure], quick: bool) {
    let mut table = Vec::new();
    let mut spans = Vec::new();
    for figure in figures {
        let scenarios = (figure.build)(quick);
        spans.push(scenarios.len());
        table.extend(scenarios);
    }

    let engine = Engine::from_env();
    eprintln!(
        "{suite}: {} scenarios across {} figures on {} worker(s){}",
        table.len(),
        figures.len(),
        engine.threads(),
        if quick { " (quick)" } else { "" },
    );
    let results = engine.run(table);

    let mut offset = 0;
    for (figure, span) in figures.iter().zip(spans) {
        println!("\n#### {} — {}", figure.name, figure.title);
        (figure.present)(&results[offset..offset + span]);
        offset += span;
    }

    let path = report::write_suite(suite, quick, &results).expect("write BENCH json");
    println!("\nwrote {}", path.display());
    write_trace_if_enabled(suite, &results);
}
