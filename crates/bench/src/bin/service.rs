//! The multi-tenant serving suite: every `service_*` figure (QoS classes
//! under overload, tenant churn with admission control and TCAM
//! reclamation, elastic blade assignment) in one parallel invocation,
//! writing `BENCH_service.json`. Pass `--quick` for the CI-sized variant.

#![forbid(unsafe_code)]

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let figures = mind_bench::figures::matching("service");
    mind_bench::figures::run_suite("service", &figures, quick);
}
