//! The `datapath` figure: simulated throughput over turn sizes
//! 1/8/64/256, in-flight windows with and without the turn barrier, plus
//! the sharded large-scenario scaling points (shard counts, OS-thread
//! counts, the 131 072-tenant XL population, and the 1 048 576-tenant
//! streamed XXL population), writing `BENCH_datapath.json`. Pass `--quick` for the
//! CI-sized variant. The `shard_wall_*` / `shard_x*_wall_*`, `*speedup*`
//! and `*peak_rss_mb*` values measure the host and vary run to run;
//! everything else is deterministic (CI diffs it against the committed
//! file with `bench_diff`).
//!
//! Under `--quick` the bin doubles as a guard: it exits non-zero if
//!
//! - the multi-core shard driver at the top shard count
//!   (`shard_speedup_s4_t4`) falls below [`GUARD_FLOOR`] × the
//!   single-threaded figure (`shard_speedup_s4`) — threads must never
//!   cost wall time, and on a multi-core host they must gain it; or
//! - the million-tenant streamed point loses its scaling or its memory
//!   bound: `shard_xxl_speedup_t4` (multi-lane over single-lane wall)
//!   must stay ≥ [`GUARD_FLOOR`], and the XXL peak RSS must stay within
//!   [`RSS_CEILING`] × the XL peak at the same thread count — the
//!   constant-memory contract (8× the tenants must not mean 8× the
//!   memory). The RSS gate skips where the platform reports no peak
//!   counter (recorded as 0).
//!
//! The floor sits under 1.0 only to absorb wall-clock noise on loaded
//! CI hosts; the committed full-run figures keep every guarded ratio at
//! or above parity. The two thread-scaling gates additionally require
//! the host to expose at least as many cores as the gated thread count
//! (`std::thread::available_parallelism`): on a single-core host extra
//! worker lanes can only add scheduling and cache pressure, so a
//! wall-clock "threads must not cost time" assertion is unsatisfiable
//! there and the gate prints a skip note instead of failing. The RSS
//! gate is parallelism-independent and always applies.

use mind_bench::figures::datapath::{SHARD_COUNTS, SHARD_THREADS, XXL_THREADS};

/// Minimum accepted multi-thread/single-thread shard-speedup ratio under
/// `--quick`.
const GUARD_FLOOR: f64 = 0.95;

/// Maximum accepted `shard_xxl_peak_rss_mb / shard_xl_peak_rss_mb` at the
/// gate's thread count. The streamed datapath's promise is that peak
/// memory tracks worker lanes, not tenants; the XXL population carries 8×
/// the tenants and 2× the per-shard slice of XL, so ~2× (plus headroom
/// for allocator retention between the two measurements) is the bound.
const RSS_CEILING: f64 = 2.25;

/// Cores the host actually exposes; wall-clock thread-scaling gates only
/// apply when this covers the gated thread count.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let results = mind_bench::figures::run_main("datapath");
    if !std::env::args().any(|a| a == "--quick") {
        return;
    }
    let mut failed = false;
    // The multi-core gate: at the top shard count, the threaded driver
    // must keep (on one core) or beat (on many) the single-threaded
    // sharded wall clock.
    let top_shards = *SHARD_COUNTS.last().expect("non-empty");
    let top_threads = *SHARD_THREADS.last().expect("non-empty");
    if let Some(r) = results.iter().find(|r| r.name.ends_with("/shards")) {
        if host_cores() < top_threads {
            println!(
                "perf-guard: shard_speedup_s{top_shards}_t{top_threads} skipped \
                 (host exposes {} core(s) < {top_threads} gated threads)",
                host_cores()
            );
        } else {
            let single = r.value(&format!("shard_speedup_s{top_shards}"));
            let threaded = r.value(&format!("shard_speedup_s{top_shards}_t{top_threads}"));
            if threaded < GUARD_FLOOR * single {
                eprintln!(
                    "perf-guard: shard_speedup_s{top_shards}_t{top_threads} = {threaded:.3} < \
                     {GUARD_FLOOR} x shard_speedup_s{top_shards} ({single:.3}) \
                     (OS threads must not cost sharded wall time)"
                );
                failed = true;
            }
        }
    }
    // The streamed million-tenant gates: multi-lane execution must not
    // cost wall time against the single lane, and peak RSS must honor
    // the constant-memory contract against the XL run.
    let xxl_threads = *XXL_THREADS.last().expect("non-empty");
    let xl = results.iter().find(|r| r.name.ends_with("/shards_xl"));
    if let Some(r) = results.iter().find(|r| r.name.ends_with("/shards_xxl")) {
        if host_cores() < xxl_threads {
            println!(
                "perf-guard: shard_xxl_speedup_t{xxl_threads} skipped \
                 (host exposes {} core(s) < {xxl_threads} gated lanes)",
                host_cores()
            );
        } else {
            let speedup = r.value(&format!("shard_xxl_speedup_t{xxl_threads}"));
            if speedup < GUARD_FLOOR {
                eprintln!(
                    "perf-guard: shard_xxl_speedup_t{xxl_threads} = {speedup:.3} < {GUARD_FLOOR} \
                     (worker lanes must not cost streamed sharded wall time)"
                );
                failed = true;
            }
        }
        let xxl_rss = r.value(&format!("shard_xxl_peak_rss_mb_t{xxl_threads}"));
        let xl_rss =
            xl.map_or(0.0, |r| r.value(&format!("shard_xl_peak_rss_mb_t{xxl_threads}")));
        if xxl_rss > 0.0 && xl_rss > 0.0 {
            let ratio = xxl_rss / xl_rss;
            if ratio > RSS_CEILING {
                eprintln!(
                    "perf-guard: shards_xxl peak RSS {xxl_rss:.0} MiB = {ratio:.2}x the \
                     shards_xl peak ({xl_rss:.0} MiB) > {RSS_CEILING} \
                     (streamed sharding must keep peak memory O(lanes x one shard))"
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "perf-guard: the thread-scaling gates held (or were skipped on an \
         under-provisioned host), and shards_xxl kept peak RSS <= {RSS_CEILING}x the XL peak"
    );
}
