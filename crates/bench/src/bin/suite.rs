//! The whole evaluation in one parallel invocation.
//!
//! Concatenates every figure's scenario table (see
//! `mind_bench::figures::all`), fans the combined table across the
//! engine's workers (`MIND_THREADS`, default `available_parallelism`),
//! writes the combined `BENCH_suite.json` perf report — per-scenario
//! metrics plus the `Metrics::merge` suite aggregate — and prints each
//! figure's declared columns from that file, one row per scenario, every
//! cell a BENCH value verbatim. Output is byte-identical for any worker
//! count.
//!
//! Flags:
//! - `--quick`: the CI-sized variant (smaller op budgets, shorter spans);
//! - `--list`: print every figure name and title, run nothing;
//! - `--filter <substr>`: run only figures whose name contains the
//!   substring (e.g. `--filter service_qos` for a single figure, or
//!   `--filter fig5` for a family). Unfiltered output is unaffected.

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");

    if args.iter().any(|a| a == "--list") {
        for figure in mind_bench::figures::all() {
            println!("{:<20} {}", figure.name, figure.title);
        }
        return;
    }

    let filter = args.iter().position(|a| a == "--filter").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--filter requires a substring argument (see --list)");
            std::process::exit(2);
        })
    });
    let figures = match &filter {
        Some(substr) => mind_bench::figures::matching(substr),
        None => mind_bench::figures::all(),
    };
    if figures.is_empty() {
        eprintln!(
            "no figure matches {:?} (see --list)",
            filter.as_deref().unwrap_or("")
        );
        std::process::exit(2);
    }

    mind_bench::figures::run_suite("suite", &figures, quick);
}
