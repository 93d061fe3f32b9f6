//! The paper's figures and ablations as declarative scenario tables.
//!
//! A figure is a table, its columns, and its claims. `*_build(quick) ->
//! Vec<Scenario>` is the table — every experiment point is pure data. The
//! columns are BENCH paths relative to one scenario object (`mops`,
//! `window_metrics/flushed_pages`, `values/latency_us`,
//! `service/classes/0/p99_ns`), and [`render`] prints any figure from a
//! BENCH document: one row per scenario, each cell the document's text
//! verbatim. The claims are assertions over the committed BENCH files
//! (`tests/figure_claims.rs`). The [`all`] registry ties them together so
//! the `suite` binary (`--filter <name>` for one figure) and the
//! single-family bins share one definition.

use std::collections::BTreeMap;

use mind_harness::{report, Engine, Scenario, ScenarioKind, ScenarioResult};
use mind_obs::TraceMode;

pub mod ablations;
pub mod datapath;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod service;

/// One figure: a named scenario table plus the BENCH columns it prints.
pub struct Figure {
    /// Binary/suite name, e.g. `fig5_intra`.
    pub name: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Builds the scenario table; `true` requests the quick (CI-sized)
    /// variant.
    pub build: fn(bool) -> Vec<Scenario>,
    /// BENCH paths relative to a scenario object, one per printed column.
    pub columns: &'static [&'static str],
}

/// Every figure and ablation, in paper order.
pub fn all() -> Vec<Figure> {
    vec![
        Figure {
            name: "fig5_intra",
            title: "Figure 5 (left): intra-blade performance scaling",
            build: fig5::intra_build,
            columns: &["runtime_ns", "mops", "remote_per_op"],
        },
        Figure {
            name: "fig5_inter",
            title: "Figure 5 (center): inter-blade performance scaling",
            build: fig5::inter_build,
            columns: &["runtime_ns", "mops", "remote_per_op"],
        },
        Figure {
            name: "fig5_kvs",
            title: "Figure 5 (right): Native-KVS throughput",
            build: fig5::kvs_build,
            columns: &["mops", "remote_per_op"],
        },
        Figure {
            name: "fig6_invalidation",
            title: "Figure 6: invalidation overhead per workload and blade count",
            build: fig6::build,
            columns: &["remote_per_op", "invalidations_per_op", "flushed_per_op"],
        },
        Figure {
            name: "fig7_transitions",
            title: "Figure 7 (left): MSI transition latency",
            build: fig7::transitions_build,
            columns: &["values/latency_us"],
        },
        Figure {
            name: "fig7_throughput",
            title: "Figure 7 (center): IOPS vs sharing ratio x read ratio",
            build: fig7::throughput_build,
            columns: &["mops", "remote_per_op", "invalidations_per_op"],
        },
        Figure {
            name: "fig7_breakdown",
            title: "Figure 7 (right): latency breakdown per remote access",
            build: fig7::breakdown_build,
            columns: &[
                "total_ops",
                "remote_per_op",
                "latency_ns/fault",
                "latency_ns/network",
                "latency_ns/inv_queue",
                "latency_ns/inv_tlb",
            ],
        },
        Figure {
            name: "fig8_directory",
            title: "Figure 8 (left): directory entries over time vs the SRAM limit",
            build: fig8::directory_build,
            columns: &[
                "values/dir_capacity",
                "metrics/directory_watermark",
                "metrics/forced_merges",
                "runtime_ns",
            ],
        },
        Figure {
            name: "fig8_rules",
            title: "Figure 8 (center): match-action rules vs rack size",
            build: fig8::rules_build,
            columns: &[
                "values/mind_rules",
                "values/vma_count",
                "values/rules_2mb",
                "values/rules_1gb",
            ],
        },
        Figure {
            name: "fig8_fairness",
            title: "Figure 8 (right): memory-allocation load balance",
            build: fig8::fairness_build,
            columns: &["values/mind", "values/pages_2mb", "values/pages_1gb"],
        },
        Figure {
            name: "fig9_tradeoff",
            title: "Figure 9 (left): region-granularity storage/performance tradeoff",
            build: fig9::tradeoff_build,
            columns: &["metrics/false_invalidations", "metrics/directory_watermark"],
        },
        Figure {
            name: "fig9_sensitivity",
            title: "Figure 9 (right): bounded-splitting sensitivity",
            build: fig9::sensitivity_build,
            columns: &["metrics/false_invalidations", "metrics/directory_entries"],
        },
        Figure {
            name: "ablation_protocols",
            title: "§8 ablation: MSI vs MESI vs MOESI",
            build: ablations::protocols_build,
            columns: &[
                "runtime_ns",
                "metrics/upgrades",
                "metrics/flushed_pages",
                "metrics/invalidation_rounds",
            ],
        },
        Figure {
            name: "ablation_placement",
            title: "§8 ablation: sharer-aware thread placement",
            build: ablations::placement_build,
            columns: &[
                "mops",
                "window_metrics/invalidation_rounds",
                "window_metrics/flushed_pages",
            ],
        },
        Figure {
            name: "service_qos",
            title: "service: per-class SLOs (p50/p99/p99.9) vs offered load",
            build: service::qos_build,
            columns: &[
                "service/total_ops",
                "service/classes/0/mops",
                "service/classes/0/p99_ns",
                "service/classes/1/mops",
                "service/classes/1/p99_ns",
                "service/classes/2/mops",
                "service/classes/2/p99_ns",
                "service/rejected_requests",
            ],
        },
        Figure {
            name: "service_churn",
            title: "service: tenant churn, admission control, and TCAM reclamation",
            build: service::churn_build,
            columns: &[
                "service/tenants_admitted",
                "service/tenants_rejected",
                "service/tenants_departed",
                "service/tenants_live",
                "service/peak_live_tenants",
                "service/memory_utilization",
                "service/match_action_rules",
            ],
        },
        Figure {
            name: "service_elastic",
            title: "service: elastic blade assignment vs per-tenant load",
            build: service::elastic_build,
            columns: &[
                "service/tenants_admitted",
                "service/total_ops",
                "service/duration_ns",
                "service/tenants/0/blades_peak",
            ],
        },
        Figure {
            name: "service_scale",
            title: "service: 10^5-tenant sharded populations on the multi-core executor",
            build: service::scale_build,
            columns: &[
                "values/tenants",
                "values/total_ops",
                "values/sim_runtime_ns",
                "values/sim_mops",
                "values/remote_per_op",
                "values/p999_ns",
            ],
        },
        Figure {
            name: "datapath",
            title: "datapath: turn size, in-flight windows and sharded replay",
            build: datapath::build,
            columns: &[
                "values/sim_mops_b1",
                "values/sim_mops_b8",
                "values/sim_mops_b64",
                "values/sim_mops_b256",
                "values/sim_mops_b64_w16",
                "values/overlap_recovery_w16",
                "values/xturn_recovery_w16",
                "values/shard_total_ops",
                "values/shard_xl_total_ops",
                "values/shard_xxl_total_ops",
            ],
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

/// `figure`'s table from the scenarios of a BENCH document
/// ([`report::scenario_values`]): one row per scenario named
/// `<figure>/<label>`, labelled `<label>`, and one cell per column — the
/// document's text at that path verbatim, or `-` where the row has none.
pub fn render(figure: &Figure, scenarios: &[BTreeMap<&str, &str>]) -> String {
    let prefix = format!("{}/", figure.name);
    let mut rows = vec![std::iter::once("scenario")
        .chain(figure.columns.iter().copied())
        .collect::<Vec<_>>()];
    for scenario in scenarios {
        let Some(label) = scenario
            .get("name")
            .and_then(|name| name.trim_matches('"').strip_prefix(&prefix))
        else {
            continue;
        };
        let cells = figure
            .columns
            .iter()
            .map(|column| scenario.get(column).copied().unwrap_or("-"));
        rows.push(std::iter::once(label).chain(cells).collect());
    }
    let widths: Vec<usize> = (0..rows[0].len())
        .map(|i| rows.iter().map(|row| row[i].len()).max().unwrap_or(0))
        .collect();
    let mut out = format!("\n#### {} — {}\n", figure.name, figure.title);
    for row in &rows {
        let mut line = format!("{:<w$}", row[0], w = widths[0]);
        for (cell, w) in row[1..].iter().zip(&widths[1..]) {
            line.push_str(&format!("  {cell:>w$}"));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Entry point of the figure binaries (`suite`, `service`, `datapath`):
/// concatenates the given figures' tables, fans the combined table across
/// the engine's workers, writes `BENCH_<suite>.json`, and prints each
/// figure's columns from the file it wrote. The environment is read here
/// and nowhere below: `MIND_THREADS` sizes the engine (default
/// `available_parallelism`), `MIND_TRACE` sets the trace mode of every
/// scenario and then adds a `TRACE_<suite>.json`, and
/// `MIND_BENCH_DIR` names the output directory (default the current one).
/// Output is byte-identical for any worker count. Returns the results so
/// a binary can gate on them (the `datapath` bin's `--quick` perf-guard).
pub fn run_suite(suite: &str, figures: &[Figure], quick: bool) -> Vec<ScenarioResult> {
    let engine = Engine::new(mind_sim::env::threads());
    let traced = mind_sim::env::trace_level();
    let mode = if traced {
        TraceMode::On
    } else {
        TraceMode::Off
    };
    let dir = mind_sim::env::bench_dir().unwrap_or_else(|| ".".into());
    let mut table: Vec<Scenario> = figures.iter().flat_map(|f| (f.build)(quick)).collect();
    // A replay's run switch (its rack's too), a service rack's, and the
    // settings a custom scenario is handed (only `fig8_directory`, which
    // reports a replay, uses them).
    for scenario in &mut table {
        let trace = match &mut scenario.kind {
            ScenarioKind::Replay(spec) => &mut spec.run.trace,
            ScenarioKind::Service(spec) => &mut spec.cfg.rack.trace,
            ScenarioKind::Custom(trace, _) => trace,
        };
        trace.mode = mode;
    }
    eprintln!(
        "{suite}: {} scenarios across {} figures on {} worker(s){}",
        table.len(),
        figures.len(),
        engine.threads(),
        if quick { " (quick)" } else { "" },
    );
    let results = engine.run(table);

    let path = report::write_suite(&dir, suite, quick, &results).expect("write BENCH json");
    let text = std::fs::read_to_string(&path).expect("read back BENCH json");
    let values = report::read_values(&text);
    let scenarios = report::scenario_values(&values);
    for figure in figures {
        print!("{}", render(figure, &scenarios));
    }
    println!("\nwrote {}", path.display());
    if traced {
        let path = report::write_trace(&dir, suite, &results).expect("write TRACE json");
        println!("wrote {}", path.display());
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every declared column names a value some scenario of its figure
    /// holds in a committed BENCH file, so a misspelt path fails here
    /// instead of printing a column of `-`.
    #[test]
    fn every_column_resolves_in_a_committed_bench_file() {
        let texts: Vec<String> = ["suite", "service", "datapath"]
            .iter()
            .map(|suite| {
                let path = format!("{}/../../BENCH_{suite}.json", env!("CARGO_MANIFEST_DIR"));
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
            })
            .collect();
        let values: Vec<_> = texts.iter().map(|text| report::read_values(text)).collect();
        let scenarios: Vec<_> = values.iter().flat_map(report::scenario_values).collect();
        for figure in all() {
            let prefix = format!("\"{}/", figure.name);
            let rows: Vec<_> = scenarios
                .iter()
                .filter(|s| s.get("name").is_some_and(|n| n.starts_with(&prefix)))
                .collect();
            assert!(!rows.is_empty(), "{}: no scenario", figure.name);
            for column in figure.columns {
                assert!(
                    rows.iter().any(|row| row.contains_key(column)),
                    "{}: no scenario holds `{column}`",
                    figure.name
                );
            }
        }
        // A rendered cell is the file's text verbatim.
        let fig7 = all()
            .into_iter()
            .find(|f| f.name == "fig7_transitions")
            .unwrap();
        let table = render(&fig7, &scenarios);
        let row = table
            .lines()
            .find(|l| l.starts_with("2C/S->S "))
            .expect("a 2C/S->S row");
        let cell = scenarios
            .iter()
            .find(|s| s["name"] == "\"fig7_transitions/2C/S->S\"")
            .map(|s| s["values/latency_us"])
            .unwrap();
        assert!(row.ends_with(&format!(" {cell}")), "{row}");
    }
}
