//! The traced run of one workload: every per-layer metric, and the spans.
//!
//! Never mixed into the end-to-end run. It alternates untraced and traced
//! repetitions (their wall difference is `obs.trace_overhead_pct`), reads
//! the simulated counts off the traced reports and event trace, then runs
//! the host probes over the workload's captured stream.

use std::collections::BTreeMap;
use std::time::Instant;

use mind::harness::{report, Engine, ScenarioKind, ScenarioOutput, ScenarioResult};
use mind::obs::{profile, EventKind, TraceData, TraceMode};
use mind::service::MemoryService;
use mind::sim::stats::Metrics;
use mind::workloads::runner;

use crate::measure::{one_time_checks, stream_seed, summarize, timed_repetition, Checker};
use crate::names::PER_LAYER;
use crate::probes;
use crate::spans::Spans;
use crate::stream;
use crate::workloads::{Output, Shape, Workload};

pub struct Traced {
    pub checker: Checker,
    /// Every per-layer metric, in `names::PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Spans,
    pub reps: usize,
}

type Values = BTreeMap<&'static str, f64>;

fn ratio(n: f64, d: f64) -> f64 {
    if d == 0.0 || n == 0.0 {
        0.0 // also turns the -0.0 an empty float sum yields into 0.0
    } else {
        n / d
    }
}

/// Simulated counts of one traced repetition. Exact for a seed. Returns the
/// invalidation rounds per op, a call count only the unattributed share uses.
fn sim_counts(output: &Output, traces: &[TraceData], v: &mut Values) -> f64 {
    // Stalls come from the event trace alone, and the trace may stop short
    // of the run (see `TRACE_CAPACITY`): they are taken per recorded op,
    // every op leaving one `Issue` event, warm-up included.
    let (mut issues, mut window_stall_ns, mut nic_stall_ns) = (0.0, 0.0, 0.0);
    for event in traces.iter().flat_map(|t| &t.events) {
        match event.kind {
            EventKind::Issue => issues += 1.0,
            EventKind::WindowStall => window_stall_ns += event.dur.as_nanos() as f64,
            EventKind::NicStall => nic_stall_ns += event.dur.as_nanos() as f64,
            _ => {}
        }
    }
    let events: f64 = traces.iter().map(|t| t.events.len() as f64).sum();
    let dropped: f64 = traces.iter().map(|t| t.dropped as f64).sum();

    // Counters of the measured window (replay) or of the whole run (the
    // service has no warm-up to exclude), and the operations they cover.
    let (ops, m, rules): (f64, Metrics, f64) = match output {
        Output::Replay(reports) => {
            let mut merged = Metrics::new();
            for r in reports {
                merged.merge(&r.window_metrics);
            }
            let rules = reports
                .iter()
                .map(|r| r.metrics.get("match_action_rules"))
                .max()
                .unwrap_or(0);
            (
                reports.iter().map(|r| r.total_ops as f64).sum(),
                merged,
                rules as f64,
            )
        }
        Output::Service(s) => (
            s.total_ops as f64,
            s.metrics.clone(),
            s.match_action_rules as f64,
        ),
    };
    let per_op = |name: &str| ratio(m.get(name) as f64, ops);

    v.insert("workloads.sim_p99_ns", output.sim_p99_ns() as f64);
    v.insert("core.remote_per_op", per_op("remote_accesses"));
    v.insert("core.upgrades_per_op", per_op("upgrades"));
    v.insert("core.invalidations_per_op", per_op("invalidation_requests"));
    v.insert(
        "core.false_invalidations_per_op",
        per_op("false_invalidations"),
    );
    v.insert("core.bypasses_per_op", per_op("bypasses"));
    v.insert("core.directory_splits", m.get("directory_splits") as f64);
    v.insert("core.directory_merges", m.get("directory_merges") as f64);
    v.insert("core.forced_merges", m.get("forced_merges") as f64);
    v.insert(
        "core.window_stall_ns_per_op",
        ratio(window_stall_ns, issues),
    );
    v.insert("core.nic_stall_ns_per_op", ratio(nic_stall_ns, issues));
    v.insert("switch.tcam_miss_per_op", per_op("denials"));
    v.insert(
        "switch.recirculations_per_op",
        per_op("pipeline_recirculations"),
    );
    v.insert("switch.rules", rules);
    v.insert(
        "blade.hit_ratio",
        ratio(m.get("local_hits") as f64, m.get("accesses") as f64),
    );
    v.insert("blade.evictions_per_op", per_op("evictions"));
    v.insert("blade.flushed_per_op", per_op("flushed_pages"));
    v.insert("blade.tlb_shootdowns_per_op", per_op("tlb_shootdowns"));
    v.insert("net.retransmissions", m.get("retransmissions") as f64);
    v.insert("net.multicast_pruned_per_op", per_op("multicast_pruned"));
    v.insert("obs.trace_events_per_op", ratio(events, ops));
    v.insert("obs.trace_events_dropped", dropped);
    let inv_rounds_per_op = per_op("invalidation_rounds");

    match output {
        Output::Replay(reports) => {
            let sum = |f: fn(&runner::RunReport) -> u128| {
                reports.iter().map(|r| f(r) as f64).sum::<f64>()
            };
            let network = sum(|r| r.sum_network_ns);
            let overlapped = sum(|r| r.sum_overlapped_ns);
            v.insert(
                "blade.inv_queue_ns_per_op",
                ratio(sum(|r| r.sum_inv_queue_ns), ops),
            );
            v.insert("net.network_ns_per_op", ratio(network, ops));
            v.insert(
                "core.overlapped_share",
                ratio(overlapped, network + overlapped),
            );
        }
        Output::Service(s) => {
            let refused = (s.rejected_requests + s.tenants_rejected) as f64;
            let asked = (s.total_ops + s.tenants_admitted) as f64 + refused;
            v.insert("service.reject_share", ratio(refused, asked));
            v.insert("service.tenants_admitted", s.tenants_admitted as f64);
            v.insert("service.peak_live_tenants", s.peak_live_tenants as f64);
            v.insert("service.be_p99_ns", s.classes[2].p99_ns as f64);
        }
    }
    inv_rounds_per_op
}

/// Gold-class p99 at fixed offered rates either side of the end-to-end
/// point, from two short extra service runs.
fn service_load_points(w: &Workload, seed: u64, spans: &mut Spans, v: &mut Values) {
    let Shape::Service { duration, .. } = w.shape else {
        return;
    };
    for (name, load) in [
        ("service.gold_p99_ns.load050", 0.5),
        ("service.gold_p99_ns.load100", 1.0),
    ] {
        let point = Workload {
            name: w.name,
            shape: Shape::Service {
                duration: duration.scale(0.25),
                load,
            },
        };
        let cfg = point
            .service_config(seed, TraceMode::Off)
            .expect("service shape");
        let report = spans.scope(&format!("probe.{name}"), |_| MemoryService::new(cfg).run());
        v.insert(name, report.classes[0].p99_ns as f64);
    }
}

/// What the harness adds on top of the replays it drives: the same four
/// scenarios through `Engine::run` against built and run by hand.
fn engine_overhead_pct(w: &Workload, seed: u64) -> f64 {
    if !matches!(w.shape, Shape::Apps { .. }) {
        return 0.0;
    }
    let mut by_hand = f64::INFINITY;
    let mut by_engine = f64::INFINITY;
    for _ in 0..3 {
        let table = w.app_table(seed, TraceMode::Off).expect("apps shape");
        let start = Instant::now();
        for scenario in &table {
            let ScenarioKind::Replay(spec) = &scenario.kind else {
                unreachable!("the app table holds replay scenarios")
            };
            let mut sys = spec.system.with_trace(spec.run.trace).build();
            let mut wl = spec.workload.build();
            std::hint::black_box(runner::run(sys.as_mut(), wl.as_mut(), spec.run));
        }
        by_hand = by_hand.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        std::hint::black_box(Engine::new(1).run(table));
        by_engine = by_engine.min(start.elapsed().as_secs_f64());
    }
    (by_engine - by_hand) / by_hand * 100.0
}

/// Wall of the sharded replay on one worker lane over its wall on two.
fn shard_lanes2_speedup(w: &Workload, seed: u64) -> f64 {
    if mind::sim::env::available_parallelism() < 2 || w.sharded_digest(seed, 1).is_none() {
        return 0.0;
    }
    let wall = |lanes| {
        (0..2)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(w.sharded_digest(seed, lanes));
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    wall(1) / wall(2)
}

fn suite_json_ms(name: &str, output: Output) -> f64 {
    let results: Vec<ScenarioResult> = match output {
        Output::Replay(reports) => reports
            .into_iter()
            .map(|r| ScenarioResult {
                name: r.name.clone(),
                output: ScenarioOutput::from_report(r),
            })
            .collect(),
        Output::Service(s) => vec![ScenarioResult {
            name: name.to_string(),
            output: ScenarioOutput::from_service(*s),
        }],
    };
    let walls: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(report::suite_json(name, &results).render().len());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    summarize(&walls).median
}

/// Call counts the unattributed share needs beyond the reported metrics.
struct Calls {
    inv_rounds_per_op: f64,
    /// Requests the service took in (its `executed` count).
    requests: f64,
    /// Ops a thread issues per scheduling turn.
    burst: usize,
}

/// Share of the run's host time per op that the probes, weighted by how
/// often each layer is called per op, do not explain.
fn unattributed_pct(w: &Workload, v: &Values, calls: &Calls) -> f64 {
    let g = |name: &str| v.get(name).copied().unwrap_or(0.0);
    let run = g("workloads.run_ns_per_op");
    let attributed = match w.shape {
        Shape::Shards { .. } => {
            // The shard driver's own stage timers, per op.
            let stages = g("workloads.shard_build_s")
                + g("workloads.shard_advance_s")
                + g("workloads.shard_merge_s");
            let ops = w.replay_ops().map_or(1, |(measured, _)| measured) as f64;
            stages * 1e9 / ops
        }
        Shape::Service { .. } => {
            let admits_per_req = ratio(g("service.tenants_admitted"), calls.requests);
            g("service.submit_dispatch_ns")
                + 2.0 * g("sim.event_queue_ns")
                + (g("service.admit_us") + g("core.tenant_exit_us")) * 1e3 * admits_per_req
        }
        Shape::Apps { .. } | Shape::Micro(_) => {
            // The switch sees an op only when it leaves the blade.
            let transitions = g("core.remote_per_op") + g("core.upgrades_per_op");
            let turns_per_op = match w.shape {
                Shape::Micro(_) => 1.0, // the cluster engine schedules per op
                _ => 1.0 / calls.burst as f64,
            };
            g("workloads.fill_ops_ns")
                + g("sim.histogram_record_ns")
                + g("sim.event_queue_ns") * turns_per_op
                + g("blade.cache_hit_ns") * g("blade.hit_ratio")
                + (g("core.protect_check_ns")
                    + g("core.translate_ns")
                    + g("core.directory_ensure_ns"))
                    * transitions
                + (g("blade.cache_miss_insert_ns") + 2.0 * g("net.fabric_send_ns"))
                    * g("core.remote_per_op")
                + g("net.fabric_multicast_ns") * calls.inv_rounds_per_op
                + g("blade.cache_invalidate_region_ns") * g("core.invalidations_per_op")
        }
    };
    (100.0 * (1.0 - ratio(attributed, run))).clamp(0.0, 100.0)
}

/// Runs on the seed's first input stream only: the per-layer numbers describe
/// one stream in depth, not the end-to-end run's median over all of them.
pub fn traced_run(w: &Workload, seed: u64, seconds: f64) -> Traced {
    let stream = stream_seed(seed, 0);
    let mut spans = Spans::enabled();
    let mut checker = Checker::default();
    let mut v: Values = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut reps = 0;

    spans.scope("workload", |spans| {
        spans.scope("setup", |spans| {
            one_time_checks(w, seed, &mut checker);
            let rep = timed_repetition(w, seed, 0, TraceMode::Off, spans);
            checker.fold(w, 0, rep.as_ref().map(|r| &r.output));
        });
        // The set-up repetition ran the shard stage timers too.
        profile::take();

        // Alternate so that host drift lands on both sides alike.
        let mut untraced_walls = Vec::new();
        let mut traced_walls = Vec::new();
        let mut stages: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut executed = 0;
        let mut last: Option<Output> = None;
        let start = Instant::now();
        while traced_walls.len() < 2 || start.elapsed().as_secs_f64() < seconds * 0.5 {
            let rep = timed_repetition(w, seed, 0, TraceMode::Off, &mut Spans::disabled());
            checker.fold(w, 0, rep.as_ref().map(|r| &r.output));
            // The shard driver's stage timers, of the untraced repetition so
            // that they add up against `run_ns_per_op`.
            for (key, _, total) in profile::take() {
                stages.entry(key).or_default().push(total.as_secs_f64());
            }
            let traced = spans.scope("repetition", |spans| {
                timed_repetition(w, seed, 0, TraceMode::On, spans)
            });
            executed = checker.fold(w, 0, traced.as_ref().map(|r| &r.output));
            profile::take();
            let (Some(rep), Some(traced)) = (rep, traced) else {
                break; // A panic is already counted; do not loop on it.
            };
            untraced_walls.push(rep.host_s);
            traced_walls.push(traced.host_s);
            last = Some(traced.output);
        }
        reps = traced_walls.len();
        let Some(mut output) = last else {
            return;
        };

        let untraced = summarize(&untraced_walls).median;
        v.insert(
            "workloads.run_ns_per_op",
            ratio(untraced * 1e9, executed as f64),
        );
        v.insert(
            "obs.trace_overhead_pct",
            (summarize(&traced_walls).median - untraced) / untraced * 100.0,
        );
        let stage = |key: &str| stages.get(key).map_or(0.0, |walls| summarize(walls).median);
        v.insert("workloads.shard_build_s", stage("shard.build"));
        v.insert("workloads.shard_advance_s", stage("shard.advance"));
        v.insert("workloads.shard_merge_s", stage("shard.merge"));
        if let Output::Service(_) = output {
            v.insert("service.run_ns_per_req", v["workloads.run_ns_per_op"]);
        }

        let traces = output.take_trace();
        let inv_rounds_per_op = sim_counts(&output, &traces, &mut v);
        drop(traces);

        let (segments, fill_ns) = spans.scope("probe.workloads.fill_ops_ns", |_| {
            stream::capture(w, stream, stream::STREAM_OPS)
        });
        v.insert("workloads.fill_ops_ns", fill_ns);
        let ctx = probes::Ctx::new(w, stream, &segments, v["switch.rules"] as usize);
        for (name, value) in probes::run_all(&ctx, spans) {
            v.insert(name, value);
        }
        service_load_points(w, stream, spans, &mut v);
        let pct = spans.scope("probe.harness.engine_overhead_pct", |_| {
            engine_overhead_pct(w, stream)
        });
        v.insert("harness.engine_overhead_pct", pct);
        let speedup = spans.scope("probe.workloads.shard_lanes2_speedup", |_| {
            shard_lanes2_speedup(w, stream)
        });
        v.insert("workloads.shard_lanes2_speedup", speedup);
        let ms = spans.scope("probe.harness.suite_json_ms", |_| {
            suite_json_ms(w.name, output)
        });
        v.insert("harness.suite_json_ms", ms);
        let calls = Calls {
            inv_rounds_per_op,
            requests: executed as f64,
            burst: segments[0].burst,
        };
        let pct = unattributed_pct(w, &v, &calls);
        v.insert("workloads.unattributed_pct", pct);
    });

    Traced {
        checker,
        metrics: PER_LAYER.iter().map(|m| (m.name, v[m.name])).collect(),
        spans,
        reps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_traced_run_reports_every_per_layer_metric() {
        for name in ["resident_hits", "service_churn"] {
            let w = Workload::tiny(name).unwrap();
            let run = traced_run(&w, 1, 0.0);
            assert!(
                run.checker.correct(),
                "{name}: {:?}",
                run.checker.violations
            );
            let names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(
                run.metrics.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
                names
            );
            let value = |n: &str| run.metrics.iter().find(|(m, _)| *m == n).unwrap().1;
            assert!(run.metrics.iter().all(|(_, x)| x.is_finite()), "{name}");
            assert!(value("workloads.run_ns_per_op") > 0.0);
            assert!(value("blade.hit_ratio") > 0.0 && value("blade.hit_ratio") <= 1.0);
            assert!(
                value("obs.trace_events_per_op") > 0.0,
                "{name}: tracing was on"
            );
            assert_eq!(
                value("service.tenants_admitted") > 0.0,
                name == "service_churn"
            );
        }
    }
}
