//! Serializing scenario results into `BENCH_<suite>.json` perf reports.
//!
//! Schema (stable, hand-rolled — see `crates/harness/src/json.rs`):
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "generator": "v0.1.0-12-gabc1234",   // git describe (or MIND_GIT_DESCRIBE)
//!   "mode": "quick",                      // or "full"; files written by write_suite
//!   "suite": "fig5_intra",
//!   "scenarios": [
//!     {
//!       "name": "fig5_intra/TF/MIND/t1",
//!       "workload": "TF",            // replay scenarios only
//!       "runtime_ns": 123,
//!       "total_ops": 400000,
//!       "mops": 1.5,
//!       "remote_per_op": 0.01,
//!       "invalidations_per_op": 0.0,
//!       "flushed_per_op": 0.0,
//!       "mean_remote_ns": 9100.0,
//!       "latency_ns": { "fault": 1, "network": 2, "inv_queue": 3,
//!                        "inv_tlb": 4, "software": 5, "overlapped": 6 },
//!       "latency_percentiles_ns": { "p50": 1, "p99": 2, "p999": 3 },
//!       "window_metrics": { "...": 0 },
//!       "metrics": { "...": 0 },
//!       "timeseries": { "interval_ns": 1000000, "buckets": [ { "...": 0 } ] },
//!                                    // replay scenarios when tracing is on
//!       "service": { "...": 0 },     // service scenarios: churn totals,
//!                                    // per-class and per-tenant SLOs
//!       "values": { "...": 0.0 },    // custom scenarios
//!       "series": { "name": [[x, y], ...] }
//!     }
//!   ],
//!   "aggregate": {                    // Metrics::merge over all replays
//!     "replayed_scenarios": 3,
//!     "total_ops": 1200000,
//!     "runtime_ns_sum": 456,
//!     "window_metrics": { "...": 0 }
//!   }
//! }
//! ```

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use mind_obs::{chrome_process_name, TraceData, WindowSeries};
use mind_service::{ServiceReport, TenantSlo};
use mind_sim::stats::{Histogram, Metrics};

use crate::json::Json;
use crate::scenario::ScenarioResult;

/// BENCH JSON schema version. Bump when the document shape changes so
/// downstream consumers can tell versions apart instead of sniffing keys.
/// Version 2 added this field, `generator`, and the optional `timeseries`
/// sections.
pub const SCHEMA_VERSION: i128 = 2;

/// The generator string stamped into every suite document:
/// `MIND_GIT_DESCRIBE` when set (an override for reproducible
/// regeneration; no CI step sets it), otherwise `git describe --always
/// --dirty` resolved once per process, otherwise `"unknown"`.
pub fn generator() -> &'static str {
    static GEN: OnceLock<String> = OnceLock::new();
    GEN.get_or_init(|| {
        if let Ok(s) = std::env::var("MIND_GIT_DESCRIBE") {
            if !s.is_empty() {
                return s;
            }
        }
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

/// Windowed telemetry as JSON: the bucket width plus one object per
/// virtual-time bucket (including empty gap buckets, so the time axis is
/// contiguous). `mops` is the bucket's throughput in million ops/sec.
fn series_json(s: &WindowSeries) -> Json {
    let interval_ns = s.interval().as_nanos();
    Json::obj([
        ("interval_ns", Json::Int(interval_ns as i128)),
        (
            "buckets",
            Json::Arr(
                s.buckets()
                    .iter()
                    .enumerate()
                    .map(|(i, b)| {
                        Json::obj([
                            ("t_ns", Json::Int((i as u64 * interval_ns) as i128)),
                            ("ops", Json::Int(b.ops as i128)),
                            (
                                "mops",
                                Json::Num(b.ops as f64 * 1000.0 / interval_ns as f64),
                            ),
                            ("remote", Json::Int(b.remote as i128)),
                            ("invalidations", Json::Int(b.invalidations as i128)),
                            ("stall_ns", Json::Int(b.stall_ns as i128)),
                            ("nic_stall_ns", Json::Int(b.nic_stall_ns as i128)),
                            ("p50_ns", Json::Int(b.lat.quantile(0.5) as i128)),
                            ("p99_ns", Json::Int(b.lat.quantile(0.99) as i128)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn metrics_json(m: &Metrics) -> Json {
    Json::obj(m.iter().map(|(k, v)| (k, Json::Int(v as i128))))
}

/// The latency-percentile block: p50, p99, and the deep-tail p99.9 that
/// per-tenant SLOs are written against.
fn percentiles_json(h: &Histogram) -> Json {
    Json::obj([
        ("p50", Json::Int(h.quantile(0.5) as i128)),
        ("p99", Json::Int(h.quantile(0.99) as i128)),
        ("p999", Json::Int(h.quantile(0.999) as i128)),
    ])
}

fn tenant_json(t: &TenantSlo) -> Json {
    Json::obj([
        ("tenant", Json::Int(t.tenant as i128)),
        ("class", Json::str(t.qos.label())),
        ("pages", Json::Int(t.pages as i128)),
        ("arrived_at_ns", Json::Int(t.arrived_at.as_nanos() as i128)),
        ("departed", Json::Bool(t.departed)),
        ("ops", Json::Int(t.ops as i128)),
        ("rejected", Json::Int(t.rejected as i128)),
        ("mops", Json::Num(t.mops)),
        ("p50_ns", Json::Int(t.p50_ns as i128)),
        ("p99_ns", Json::Int(t.p99_ns as i128)),
        ("p999_ns", Json::Int(t.p999_ns as i128)),
        ("mean_ns", Json::Num(t.mean_ns)),
        ("blades_peak", Json::Int(t.blades_peak as i128)),
    ])
}

/// A service scenario's report as JSON: churn totals, per-class SLO
/// aggregates, and the per-tenant records.
pub fn service_json(s: &ServiceReport) -> Json {
    let mut pairs = obj_pairs([
        ("duration_ns", Json::Int(s.duration.as_nanos() as i128)),
        ("tenants_admitted", Json::Int(s.tenants_admitted as i128)),
        ("tenants_rejected", Json::Int(s.tenants_rejected as i128)),
        ("tenants_departed", Json::Int(s.tenants_departed as i128)),
        ("tenants_live", Json::Int(s.tenants_live as i128)),
        ("peak_live_tenants", Json::Int(s.peak_live_tenants as i128)),
        ("total_ops", Json::Int(s.total_ops as i128)),
        ("rejected_requests", Json::Int(s.rejected_requests as i128)),
        ("memory_utilization", Json::Num(s.memory_utilization)),
        ("match_action_rules", Json::Int(s.match_action_rules as i128)),
        (
            "classes",
            Json::Arr(
                s.classes
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("class", Json::str(c.qos.label())),
                            ("tenants_admitted", Json::Int(c.tenants_admitted as i128)),
                            ("tenants_rejected", Json::Int(c.tenants_rejected as i128)),
                            ("ops", Json::Int(c.ops as i128)),
                            ("rejected_requests", Json::Int(c.rejected_requests as i128)),
                            ("mops", Json::Num(c.mops)),
                            ("p50_ns", Json::Int(c.p50_ns as i128)),
                            ("p99_ns", Json::Int(c.p99_ns as i128)),
                            ("p999_ns", Json::Int(c.p999_ns as i128)),
                            ("mean_ns", Json::Num(c.mean_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("tenants", Json::Arr(s.tenants.iter().map(tenant_json).collect())),
        ("metrics", metrics_json(&s.metrics)),
    ]);
    if let Some(series) = &s.timeseries {
        // Per-class windowed telemetry, keyed by class label
        // (`QosClass::ALL` order matches the array).
        pairs.push((
            "timeseries".into(),
            Json::obj(
                mind_service::QosClass::ALL
                    .iter()
                    .zip(series.iter())
                    .map(|(qos, s)| (qos.label(), series_json(s))),
            ),
        ));
    }
    Json::Obj(pairs)
}

/// A `Json::obj`-style pair list with room for one optional trailing
/// section, for a document that may append it.
fn obj_pairs<const N: usize>(pairs: [(&'static str, Json); N]) -> Vec<(Cow<'static, str>, Json)> {
    let mut out = Vec::with_capacity(N + 1);
    out.extend(pairs.into_iter().map(|(k, v)| (k.into(), v)));
    out
}

/// The most pairs [`result_json`] writes: one allocation holds them all.
const RESULT_PAIRS: usize = 17;

/// One scenario result as JSON.
pub fn result_json(result: &ScenarioResult) -> Json {
    let mut pairs = Vec::with_capacity(RESULT_PAIRS);
    pairs.push(("name".into(), Json::str(result.name.clone())));
    if let Some(report) = &result.output.report {
        pairs.push(("workload".into(), Json::str(report.name.clone())));
        pairs.push(("runtime_ns".into(), Json::Int(report.runtime.as_nanos() as i128)));
        pairs.push(("total_ops".into(), Json::Int(report.total_ops as i128)));
        pairs.push(("mops".into(), Json::Num(report.mops)));
        pairs.push(("remote_per_op".into(), Json::Num(report.remote_per_op)));
        pairs.push((
            "invalidations_per_op".into(),
            Json::Num(report.invalidations_per_op),
        ));
        pairs.push(("flushed_per_op".into(), Json::Num(report.flushed_per_op)));
        pairs.push(("mean_remote_ns".into(), Json::Num(report.mean_remote_ns)));
        pairs.push((
            "latency_percentiles_ns".into(),
            percentiles_json(&report.latency),
        ));
        pairs.push((
            "latency_ns".into(),
            Json::obj([
                ("fault", Json::Int(report.sum_fault_ns as i128)),
                ("network", Json::Int(report.sum_network_ns as i128)),
                ("inv_queue", Json::Int(report.sum_inv_queue_ns as i128)),
                ("inv_tlb", Json::Int(report.sum_inv_tlb_ns as i128)),
                ("software", Json::Int(report.sum_software_ns as i128)),
                ("overlapped", Json::Int(report.sum_overlapped_ns as i128)),
            ]),
        ));
        pairs.push(("window_metrics".into(), metrics_json(&report.window_metrics)));
        pairs.push(("metrics".into(), metrics_json(&report.metrics)));
        if let Some(series) = &report.timeseries {
            pairs.push(("timeseries".into(), series_json(series)));
        }
    }
    if let Some(service) = &result.output.service {
        pairs.push(("service".into(), service_json(service)));
    }
    if !result.output.values.is_empty() {
        pairs.push((
            "values".into(),
            Json::Obj(
                result
                    .output
                    .values
                    .iter()
                    .map(|(k, v)| (k.clone().into(), Json::Num(*v)))
                    .collect(),
            ),
        ));
    }
    if !result.output.series.is_empty() {
        pairs.push((
            "series".into(),
            Json::Obj(
                result
                    .output
                    .series
                    .iter()
                    .map(|(k, points)| {
                        (
                            k.clone().into(),
                            Json::Arr(
                                points
                                    .iter()
                                    .map(|&(x, y)| Json::Arr(vec![Json::Num(x), Json::Num(y)]))
                                    .collect(),
                            ),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    Json::Obj(pairs)
}

/// Suite-level aggregation over every replay result, built with
/// [`Metrics::merge`] — the rack-wide totals a perf trajectory tracks.
pub fn aggregate_json(results: &[ScenarioResult]) -> Json {
    let mut merged = Metrics::new();
    let mut replayed = 0i128;
    let mut total_ops = 0i128;
    let mut runtime_ns_sum = 0i128;
    let mut service_scenarios = 0i128;
    let mut service_ops = 0i128;
    // Recoveries per prefix, then per window depth: `overlap_recovery_w<W>`
    // values are simulated MOPS at the windowed batch point over the
    // batch-1 serialized baseline, `xturn_recovery_w<W>` the same ratio
    // with the cluster engine overlapping across turns and threads.
    const RECOVERIES: [&str; 2] = ["overlap_recovery", "xturn_recovery"];
    let mut recoveries: [BTreeMap<&str, Vec<f64>>; 2] = Default::default();
    for result in results {
        if let Some(report) = &result.output.report {
            merged.merge(&report.window_metrics);
            replayed += 1;
            total_ops += report.total_ops as i128;
            runtime_ns_sum += report.runtime.as_nanos() as i128;
        }
        if let Some(service) = &result.output.service {
            service_scenarios += 1;
            service_ops += service.total_ops as i128;
        }
        for (key, value) in &result.output.values {
            for (prefix, by_window) in RECOVERIES.iter().zip(&mut recoveries) {
                if let Some(window) = key.strip_prefix(prefix).and_then(|k| k.strip_prefix('_')) {
                    by_window.entry(window).or_default().push(*value);
                }
            }
        }
    }
    let geomean = |xs: &[f64]| -> f64 {
        (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
    };
    // Five counts, two optional pairs of recovery sections, the metrics.
    let mut pairs = Vec::with_capacity(10);
    pairs.extend([
        ("replayed_scenarios".into(), Json::Int(replayed)),
        ("total_ops".into(), Json::Int(total_ops)),
        ("runtime_ns_sum".into(), Json::Int(runtime_ns_sum)),
        ("service_scenarios".into(), Json::Int(service_scenarios)),
        ("service_ops".into(), Json::Int(service_ops)),
    ]);
    for (prefix, by_window) in RECOVERIES.iter().zip(&recoveries) {
        if by_window.is_empty() {
            continue;
        }
        // Geomean and worst case per window depth. An overlap recovery
        // ≥ 1.0 means intra-batch RTT overlap fully bought back the
        // coarse-quantum simulated-MOPS loss relative to the batch-1
        // baseline; a cross-turn recovery above it for the same depth
        // means the cluster engine's cross-turn overlap beat the
        // per-batch window.
        let per_window = |f: fn(&[f64]) -> f64| {
            let by = by_window
                .iter()
                .map(|(w, xs)| (w.to_string().into(), Json::Num(f(xs))));
            Json::Obj(by.collect())
        };
        let min = |xs: &[f64]| xs.iter().copied().fold(f64::MAX, f64::min);
        pairs.push((prefix.to_string().into(), per_window(geomean)));
        pairs.push((format!("{prefix}_min").into(), per_window(min)));
    }
    pairs.push(("window_metrics".into(), metrics_json(&merged)));
    Json::Obj(pairs)
}

/// The whole suite as one JSON document.
pub fn suite_json(suite: &str, results: &[ScenarioResult]) -> Json {
    Json::obj([
        ("schema_version", Json::Int(SCHEMA_VERSION)),
        ("generator", Json::str(generator())),
        ("suite", Json::str(suite.to_owned())),
        (
            "scenarios",
            Json::Arr(results.iter().map(result_json).collect()),
        ),
        ("aggregate", aggregate_json(results)),
    ])
}

/// [`suite_json`] as a BENCH file carries it: with a `mode` header after
/// `generator`, saying which scenario table produced the file.
fn written_suite_json(suite: &str, quick: bool, results: &[ScenarioResult]) -> Json {
    let mut doc = suite_json(suite, results);
    if let Json::Obj(pairs) = &mut doc {
        let mode = if quick { "quick" } else { "full" };
        pairs.insert(2, ("mode".into(), Json::str(mode)));
    }
    doc
}

/// Every scalar of a rendered BENCH document, keyed by its path: the
/// object keys and array positions above it joined with `/`, outermost
/// first, without the document's own braces (`mode`,
/// `scenarios/3/latency_ns/fault`, `scenarios/0/series/x/1/0`). Each value
/// is the document's text verbatim — strings keep their quotes — and an
/// empty container is the scalar `[]` or `{}`.
///
/// The writer ([`Json::render`]) puts one key or array element on a line,
/// so the reader is line-based and needs no JSON parser.
pub fn read_values(text: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    // The open containers: (name, elements seen so far).
    let mut stack: Vec<(String, usize)> = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if line == "}" || line == "]" {
            stack.pop();
            continue;
        }
        let (key, value) = match line.strip_prefix('"').and_then(|l| l.split_once("\": ")) {
            Some((key, value)) => (key.to_string(), value),
            // An array element: keyed by its position.
            None => {
                let position = stack.last_mut().map_or(0, |(_, seen)| {
                    *seen += 1;
                    *seen - 1
                });
                (position.to_string(), line)
            }
        };
        if value == "{" || value == "[" {
            stack.push((key, 0));
            continue;
        }
        let mut path: String = stack
            .iter()
            .skip(1)
            .map(|(name, _)| format!("{name}/"))
            .collect();
        path.push_str(&key);
        out.insert(path, value.to_string());
    }
    out
}

/// The scenarios of a document [`read_values`] read, in document order:
/// each one's values keyed by their path below `scenarios/<i>/` (`name`,
/// `mops`, `service/classes/0/p99_ns`, …).
pub fn scenario_values(values: &BTreeMap<String, String>) -> Vec<BTreeMap<&str, &str>> {
    let mut out: Vec<BTreeMap<&str, &str>> = Vec::new();
    for (path, value) in values {
        let Some((index, rest)) = path
            .strip_prefix("scenarios/")
            .and_then(|p| p.split_once('/'))
        else {
            continue;
        };
        let Ok(index) = index.parse::<usize>() else {
            continue;
        };
        if out.len() <= index {
            out.resize_with(index + 1, BTreeMap::new);
        }
        out[index].insert(rest, value);
    }
    out
}

/// Renders and writes `BENCH_<suite>.json` into `dir` (created if
/// missing), returning the path written. The header says which scenario
/// table produced the file — `"mode": "quick"` or `"full"` — so that
/// `bench_diff` can refuse to compare one with the other.
pub fn write_suite(
    dir: &Path,
    suite: &str,
    quick: bool,
    results: &[ScenarioResult],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{suite}.json"));
    std::fs::write(&path, written_suite_json(suite, quick, results).render())?;
    Ok(path)
}

/// The suite's deterministic event traces as one Chrome-trace-event JSON
/// document (loadable in Perfetto / `chrome://tracing`). Every scenario
/// gets a `process_name` metadata record (pid = its index in the suite);
/// scenarios that carried a trace contribute their canonicalized events.
/// Extra top-level keys (`schemaVersion`, `suite`, `dropped`) are
/// tolerated by trace viewers and identify the document.
pub fn trace_json(suite: &str, results: &[ScenarioResult]) -> String {
    let mut lines: Vec<String> = Vec::new();
    let mut dropped = 0u64;
    for (pid, result) in results.iter().enumerate() {
        lines.push(chrome_process_name(pid, &result.name));
    }
    for (pid, result) in results.iter().enumerate() {
        let trace: Option<&TraceData> = result
            .output
            .report
            .as_ref()
            .and_then(|r| r.trace.as_ref())
            .or_else(|| result.output.service.as_ref().and_then(|s| s.trace.as_ref()));
        if let Some(trace) = trace {
            dropped += trace.dropped;
            let mut canon = trace.clone();
            canon.canonicalize();
            canon.render_chrome(pid, &mut lines);
        }
    }
    let mut out = String::with_capacity(64 + lines.iter().map(|l| l.len() + 3).sum::<usize>());
    out.push_str("{\"schemaVersion\":");
    out.push_str(&SCHEMA_VERSION.to_string());
    out.push_str(",\"suite\":");
    // `render()` appends a trailing newline (documents end with one);
    // trim it for inline embedding.
    out.push_str(Json::str(suite.to_owned()).render().trim_end());
    out.push_str(",\"dropped\":");
    out.push_str(&dropped.to_string());
    out.push_str(",\"traceEvents\":[\n");
    for (i, line) in lines.iter().enumerate() {
        out.push_str(line);
        if i + 1 < lines.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Writes `TRACE_<suite>.json` into `dir` (created if missing), returning
/// the path written. Callers write one only for a traced table, so
/// untraced runs produce no trace files at all.
pub fn write_trace(
    dir: &Path,
    suite: &str,
    results: &[ScenarioResult],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("TRACE_{suite}.json"));
    std::fs::write(&path, trace_json(suite, results))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioOutput;

    fn custom_result() -> ScenarioResult {
        ScenarioResult {
            name: "c".into(),
            output: ScenarioOutput::default()
                .value("x", 1.25)
                .with_series("ts", vec![(0.0, 2.0)]),
        }
    }

    #[test]
    fn custom_result_serializes_values_and_series() {
        let text = result_json(&custom_result()).render();
        assert!(text.contains("\"x\": 1.25"));
        assert!(text.contains("\"ts\""));
        assert!(!text.contains("runtime_ns"), "no replay fields");
    }

    #[test]
    fn suite_json_has_schema_header() {
        let doc = suite_json("t", &[custom_result()]).render();
        assert!(
            doc.starts_with("{\n  \"schema_version\": 2,\n  \"generator\": \""),
            "schema header leads the document: {doc}"
        );
    }

    /// The written file's header names its scenario table; the document is
    /// otherwise the one [`suite_json`] renders.
    #[test]
    fn written_suites_carry_their_mode() {
        let results = [custom_result()];
        let quick = written_suite_json("t", true, &results).render();
        assert!(quick.contains("\",\n  \"mode\": \"quick\",\n  \"suite\": \"t\""), "{quick}");
        let plain = suite_json("t", &results).render();
        assert_eq!(quick.replace("  \"mode\": \"quick\",\n", ""), plain);
    }

    /// Every scalar of `doc`, keyed by the path the writer nests it at.
    fn scalars(doc: &Json, path: String, out: &mut BTreeMap<String, String>) {
        let child = |key: &str| match path.as_str() {
            "" => key.to_string(),
            _ => format!("{path}/{key}"),
        };
        match doc {
            Json::Arr(items) if !items.is_empty() => {
                for (i, item) in items.iter().enumerate() {
                    scalars(item, child(&i.to_string()), out);
                }
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                for (key, value) in pairs {
                    scalars(value, child(key), out);
                }
            }
            scalar => {
                out.insert(path, scalar.render().trim_end().to_string());
            }
        }
    }

    #[test]
    fn the_reader_returns_every_scalar_at_its_written_path() {
        let results = [custom_result(), service_result(), replay_result()];
        let doc = suite_json("t", &results);
        let mut written = BTreeMap::new();
        scalars(&doc, String::new(), &mut written);
        let read = read_values(&doc.render());
        assert_eq!(read, written);
        // A nested array element: the `ts` series' first point's y.
        assert_eq!(read["scenarios/0/series/ts/0/1"], "2");
        let scenarios = scenario_values(&read);
        assert_eq!(scenarios.len(), results.len());
        assert_eq!(scenarios[1]["service/classes/0/class"], "\"Gold\"");
        assert_eq!(scenarios[2]["name"], "\"r\"");
    }

    #[test]
    fn traced_replay_serializes_timeseries() {
        use mind_obs::{TraceConfig, TraceMode};

        let traced = replay_result_with_trace(TraceConfig::with_mode(TraceMode::On));
        let text = result_json(&traced).render();
        assert!(text.contains("\"timeseries\""), "timeseries section: {text}");
        assert!(text.contains("\"interval_ns\": 1000000"));
        assert!(text.contains("\"mops\""));
        assert!(text.contains("\"stall_ns\""));

        let off = replay_result();
        let text = result_json(&off).render();
        assert!(!text.contains("\"timeseries\""), "absent when tracing off");
    }

    #[test]
    fn trace_json_renders_chrome_events() {
        use mind_obs::{TraceConfig, TraceMode};

        let traced = replay_result_with_trace(TraceConfig::with_mode(TraceMode::On));
        let doc = trace_json("t", std::slice::from_ref(&traced));
        assert!(doc.starts_with("{\"schemaVersion\":2,\"suite\":\"t\",\"dropped\":0,"));
        assert!(doc.contains("\"name\":\"process_name\""));
        assert!(doc.contains("\"name\":\"issue\""));
        assert!(doc.ends_with("]}\n"));

        let off = replay_result();
        let doc = trace_json("t", std::slice::from_ref(&off));
        assert!(
            doc.contains("process_name") && !doc.contains("\"ph\":\"X\""),
            "untraced scenarios contribute only metadata: {doc}"
        );
    }

    #[test]
    fn suite_json_has_aggregate() {
        let doc = suite_json("t", &[custom_result()]).render();
        assert!(doc.contains("\"suite\": \"t\""));
        assert!(doc.contains("\"replayed_scenarios\": 0"));
        assert!(doc.contains("\"service_scenarios\": 0"));
    }

    #[test]
    fn aggregate_reports_overlap_recovery() {
        let results = vec![
            ScenarioResult {
                name: "datapath/a".into(),
                output: ScenarioOutput::default().value("overlap_recovery_w4", 2.0),
            },
            ScenarioResult {
                name: "datapath/b".into(),
                output: ScenarioOutput::default().value("overlap_recovery_w4", 8.0),
            },
        ];
        let doc = suite_json("datapath", &results).render();
        // geomean(2, 8) = 4; min(2, 8) = 2.
        assert!(
            doc.contains("\"overlap_recovery\": {\n      \"w4\": 4"),
            "recovery geomean missing or wrong: {doc}"
        );
        assert!(
            doc.contains("\"overlap_recovery_min\": {\n      \"w4\": 2"),
            "recovery min missing or wrong: {doc}"
        );
        let empty = suite_json("t", &[custom_result()]).render();
        assert!(!empty.contains("overlap_recovery"), "absent without values");
    }

    #[test]
    fn aggregate_reports_xturn_recovery() {
        let results = vec![
            ScenarioResult {
                name: "datapath/a".into(),
                output: ScenarioOutput::default().value("xturn_recovery_w16", 3.0),
            },
            ScenarioResult {
                name: "datapath/b".into(),
                output: ScenarioOutput::default().value("xturn_recovery_w16", 12.0),
            },
        ];
        let doc = suite_json("datapath", &results).render();
        // geomean(3, 12) = 6; min(3, 12) = 3.
        assert!(
            doc.contains("\"xturn_recovery\": {\n      \"w16\": 6"),
            "xturn geomean missing or wrong: {doc}"
        );
        assert!(
            doc.contains("\"xturn_recovery_min\": {\n      \"w16\": 3"),
            "xturn min missing or wrong: {doc}"
        );
        let empty = suite_json("t", &[custom_result()]).render();
        assert!(!empty.contains("xturn_recovery"), "absent without values");
    }

    #[test]
    fn replay_result_serializes_overlapped_breakdown() {
        let text = result_json(&replay_result()).render();
        assert!(
            text.contains("\"overlapped\": 0"),
            "serialized replays report a zero overlapped component: {text}"
        );
    }

    fn replay_result() -> ScenarioResult {
        replay_result_with_trace(mind_obs::TraceConfig::with_mode(mind_obs::TraceMode::Off))
    }

    fn replay_result_with_trace(trace: mind_obs::TraceConfig) -> ScenarioResult {
        use crate::spec::{SystemSpec, WorkloadSpec};
        use mind_core::system::ConsistencyModel;
        use mind_workloads::micro::MicroConfig;
        use mind_workloads::runner::RunConfig;

        let wl = WorkloadSpec::Micro(MicroConfig {
            n_threads: 2,
            shared_pages: 64,
            private_pages: 8,
            ..Default::default()
        });
        let regions = wl.regions();
        crate::Scenario::replay(
            "r",
            SystemSpec::mind_scaled(&regions, 2, ConsistencyModel::Tso),
            wl,
            RunConfig {
                ops_per_thread: 200,
                trace,
                ..Default::default()
            },
        )
        .execute()
    }

    #[test]
    fn replay_result_serializes_latency_percentiles() {
        let result = replay_result();
        let text = result_json(&result).render();
        assert!(text.contains("\"latency_percentiles_ns\""));
        assert!(text.contains("\"p999\""));
        // Round-trip: the serialized integers are the histogram's cuts.
        let report = result.report();
        for (key, q) in [("p50", 0.5), ("p99", 0.99), ("p999", 0.999)] {
            let expect = format!("\"{key}\": {}", report.latency.quantile(q));
            assert!(text.contains(&expect), "missing {expect}");
        }
    }

    fn service_result() -> ScenarioResult {
        use crate::spec::ServiceSpec;
        crate::Scenario::service(
            "s",
            ServiceSpec::new(mind_service::ServiceConfig {
                duration: mind_sim::SimTime::from_millis(10),
                ..Default::default()
            }),
        )
        .execute()
    }

    #[test]
    fn service_result_serializes_slo_report() {
        let result = service_result();
        let text = result_json(&result).render();
        assert!(text.contains("\"service\""));
        assert!(text.contains("\"tenants_admitted\""));
        assert!(text.contains("\"class\": \"Gold\""));
        assert!(text.contains("\"p999_ns\""));
        assert!(!text.contains("\"runtime_ns\""), "no replay fields");
        // The aggregate counts service work.
        let doc = suite_json("svc", &[service_result()]).render();
        assert!(doc.contains("\"service_scenarios\": 1"));
        let ops = service_result().service().total_ops;
        assert!(doc.contains(&format!("\"service_ops\": {ops}")));
    }
}
