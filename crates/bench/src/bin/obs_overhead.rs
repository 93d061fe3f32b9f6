//! `obs_overhead`: perf-guard for the tracing-disabled fast path.
//!
//! The observability contract is "near-zero cost when off": with tracing
//! disabled, every instrumentation site reduces to a branch on a cached
//! level. This bin makes that budget a gate. It measures
//!
//! 1. the per-operation wall cost of an untraced replay
//!    (the datapath the instrumentation rides on), and
//! 2. the per-call wall cost of the disabled `TraceBuf::record` path,
//!
//! and exits non-zero if a disabled record call costs more than
//! [`THRESHOLD`] of one replayed operation — i.e. if the handful of trace
//! points an op crosses could move the tracing-off wall time by more than
//! the 3% the CI perf budget allows. The measurement is pure host time
//! and noisy in the absolute, but the two quantities differ by ~2-3
//! orders of magnitude, so the ratio gate is stable even on loaded hosts.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::Instant;

use mind_core::cluster::{MindCluster, MindConfig};
use mind_obs::{EventKind, TraceBuf, TraceConfig, TraceMode};
use mind_sim::SimTime;
use mind_workloads::micro::{MicroConfig, MicroWorkload};
use mind_workloads::runner::{self, RunConfig};
use mind_workloads::Workload;

/// Maximum accepted (disabled record cost) / (replay op cost) ratio.
const THRESHOLD: f64 = 0.03;

/// Ops replayed to estimate the per-operation datapath cost.
const REPLAY_OPS: u64 = 40_000;

/// Disabled record calls timed to estimate the fast-path cost.
const RECORD_CALLS: u64 = 20_000_000;

fn replay_ns_per_op() -> f64 {
    let wl_cfg = MicroConfig {
        n_threads: 4,
        shared_pages: 256,
        private_pages: 64,
        ..Default::default()
    };
    let mut wl = MicroWorkload::new(wl_cfg);
    let footprint: u64 = wl.regions().iter().map(|len| len.div_ceil(4096)).sum();
    let mut sys = MindCluster::new(MindConfig::scaled_to(footprint, 4));
    let run = RunConfig {
        ops_per_thread: REPLAY_OPS / wl_cfg.n_threads as u64,
        ..Default::default()
    };
    let start = Instant::now();
    let report = runner::run(&mut sys, &mut wl, run);
    let wall = start.elapsed();
    assert!(report.trace.is_none(), "untraced by default");
    wall.as_secs_f64() * 1e9 / report.total_ops as f64
}

fn disabled_record_ns_per_call() -> f64 {
    let mut buf = TraceBuf::new(TraceConfig::with_mode(TraceMode::Off));
    let start = Instant::now();
    for i in 0..RECORD_CALLS {
        buf.record(
            SimTime::from_nanos(black_box(i)),
            (i & 7) as u32,
            EventKind::Issue,
            SimTime::from_nanos(3),
            i & 1,
            0,
        );
    }
    let wall = start.elapsed();
    assert!(buf.is_empty(), "disabled sink must record nothing");
    black_box(&buf);
    wall.as_secs_f64() * 1e9 / RECORD_CALLS as f64
}

fn main() {
    let op_ns = replay_ns_per_op();
    let record_ns = disabled_record_ns_per_call();
    let ratio = record_ns / op_ns;
    println!("replay:          {op_ns:>10.2} ns/op (tracing off)");
    println!("record disabled: {record_ns:>10.3} ns/call");
    println!(
        "ratio:           {:>10.4} (budget {THRESHOLD})",
        ratio
    );
    if ratio > THRESHOLD {
        eprintln!(
            "perf-guard: disabled trace record costs {ratio:.4} of a replayed op \
             (> {THRESHOLD}); the tracing-off fast path has regressed"
        );
        std::process::exit(1);
    }
    println!("obs_overhead: PASS");
}
