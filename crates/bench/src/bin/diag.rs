//! Diagnostic: per-run metric dump for calibration work (not a paper
//! figure). Usage: `diag [workload] [blades...]`.
//!
//! Builds one replay scenario per blade count and executes them through
//! the engine (so even ad-hoc diagnostics fan out across `MIND_THREADS`
//! workers), then dumps every metric and writes `BENCH_diag.json`.

use mind_core::system::ConsistencyModel;
use mind_harness::{report, Engine, Scenario, SystemSpec, WorkloadSpec};
use mind_workloads::runner::RunConfig;

const TOTAL_OPS: u64 = 600_000;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let wl_name = args.get(1).map(|s| s.as_str()).unwrap_or("TF");
    let blades: Vec<u16> = if args.len() > 2 {
        args[2..].iter().map(|s| s.parse().unwrap()).collect()
    } else {
        vec![1, 2, 4, 8]
    };

    let table: Vec<Scenario> = blades
        .iter()
        .map(|&b| {
            let n_threads = b * 10;
            let ops_per_thread = TOTAL_OPS / n_threads as u64;
            let workload = WorkloadSpec::real(wl_name, n_threads);
            let regions = workload.regions();
            Scenario::replay(
                format!("diag/{wl_name}/b{b}"),
                SystemSpec::mind_scaled(&regions, b, ConsistencyModel::Tso),
                workload,
                RunConfig {
                    ops_per_thread,
                    warmup_ops_per_thread: ops_per_thread / 2,
                    threads_per_blade: 10,
                    ..Default::default()
                },
            )
        })
        .collect();
    let results = Engine::from_env().run(table);

    for (r, &b) in results.iter().zip(&blades) {
        let report = r.report();
        println!(
            "\n{} blades={} runtime={} mops={:.3} remote/op={:.4} inval/op={:.4} flushed/op={:.4} mean_remote={:.1}us",
            wl_name, b, report.runtime, report.mops, report.remote_per_op,
            report.invalidations_per_op, report.flushed_per_op,
            report.mean_remote_ns / 1000.0
        );
        let ops = report.total_ops as f64;
        println!(
            "  per-op ns: fault={:.0} net={:.0} invq={:.0} invtlb={:.0}",
            report.sum_fault_ns as f64 / ops,
            report.sum_network_ns as f64 / ops,
            report.sum_inv_queue_ns as f64 / ops,
            report.sum_inv_tlb_ns as f64 / ops
        );
        for key in [
            "local_hits",
            "remote_accesses",
            "upgrades",
            "invalidation_rounds",
            "false_invalidations",
            "bypasses",
            "forced_merges",
            "directory_entries",
            "directory_watermark",
            "directory_splits",
            "directory_merges",
            "evictions",
            "tlb_shootdowns",
            "resets",
        ] {
            print!("  {}={}", key, report.metrics.get(key));
        }
        println!();
    }

    let path = report::write_suite("diag", false, &results).expect("write BENCH json");
    println!("\nwrote {}", path.display());
}
