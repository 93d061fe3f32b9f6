//! The `service` figure family: the multi-tenant serving layer
//! (`mind_service`) swept along its four axes — offered load vs QoS
//! class, tenant churn, per-tenant elasticity, and static population
//! scale (10⁵ tenants through the multi-core sharded executor).
//!
//! These figures go beyond the paper: §4.2's protection domains and the
//! controller's round-robin placement exist there as *mechanisms*; here
//! they are driven the way a shared rack is driven — many tenants
//! arriving, leaving, and contending at once — and judged by the numbers
//! an operator owes each tenant (p50/p99/p99.9, throughput, rejects).

use mind_harness::{Scenario, ScenarioOutput, ServiceSpec};
use mind_service::{
    population_spec, tenant_partitions, AccessPattern, ServiceConfig, TenantGroupConfig,
};
use mind_sim::SimTime;
use mind_workloads::{run_sharded, run_sharded_threads};

/// Simulated span per scenario; the quick (CI) variant shortens the run
/// but keeps every sweep point.
fn span(quick: bool) -> SimTime {
    if quick {
        SimTime::from_millis(60)
    } else {
        SimTime::from_millis(250)
    }
}

// ---- service_qos: per-class SLOs vs offered load ----
//
// The same tenant mix offered at 1x / 2x / 3x the dispatcher's capacity,
// with per-class workload diversity: Gold tenants are Zipfian-skewed
// (hot-key, cache-friendly), Silver uniform, BestEffort sequential
// scanners. Expected shape: at 1x every class meets a tight tail; at 2x
// Gold's weighted share still covers its demand (short p99) while Silver
// backs up and BestEffort starts starving; at 3x BestEffort serves
// almost nothing and absorbs nearly all rejected requests. A fourth
// scenario re-runs the 2x point with an in-flight window of 2: the
// dispatcher's quantum grants execute through the issue/complete
// datapath with finite memory-level parallelism, so grants beyond the
// window queue for a slot and the wait bills to per-tenant latency.

const QOS_LOADS: [f64; 3] = [1.0, 2.0, 3.0];

/// Window depth of the overlapped-dispatch QoS scenario: deliberately
/// *below* the default `slots_per_quantum` (4), so the quantum's grants
/// contend for finite memory-level parallelism through the
/// issue/complete datapath — a window at or above the slot budget
/// reproduces the serialized path's all-at-the-boundary optimism
/// exactly.
const QOS_OVERLAP_WINDOW: u32 = 2;

/// The per-class access-pattern mix the QoS scenarios run (in
/// Gold/Silver/BestEffort order).
const QOS_PATTERNS: [AccessPattern; 3] = [
    AccessPattern::Zipfian(0.99),
    AccessPattern::Uniform,
    AccessPattern::Scan,
];

/// Scenario table for the QoS figure.
pub fn qos_build(quick: bool) -> Vec<Scenario> {
    let base = |factor: f64| {
        ServiceConfig {
            duration: span(quick),
            class_patterns: QOS_PATTERNS,
            ..Default::default()
        }
        .load_scaled(factor)
    };
    let mut scenarios: Vec<Scenario> = QOS_LOADS
        .iter()
        .map(|&factor| {
            Scenario::service(format!("service_qos/load{factor}"), ServiceSpec::new(base(factor)))
        })
        .collect();
    scenarios.push(Scenario::service(
        format!("service_qos/load2_w{QOS_OVERLAP_WINDOW}"),
        ServiceSpec::new(ServiceConfig {
            window: QOS_OVERLAP_WINDOW,
            ..base(2.0)
        }),
    ));
    scenarios
}

// ---- service_churn: tenant lifecycle under increasing arrival rates ----
//
// Short-lived tenants arriving ever faster. Expected shape: admissions
// scale with the arrival rate until memory pressure engages (BestEffort
// refused first); departures track admissions (no tenant leaks); the
// match-action rule count at the end stays bounded because departed
// tenants' TCAM entries are reclaimed.

const CHURN_ARRIVALS: [f64; 3] = [200.0, 800.0, 3_200.0];

/// Scenario table for the churn figure.
pub fn churn_build(quick: bool) -> Vec<Scenario> {
    CHURN_ARRIVALS
        .iter()
        .map(|&rate| {
            let cfg = ServiceConfig {
                duration: span(quick),
                arrival_rate_hz: rate,
                mean_lifetime: SimTime::from_millis(20),
                ..Default::default()
            };
            Scenario::service(
                format!("service_churn/arrivals{rate}"),
                ServiceSpec::new(cfg),
            )
        })
        .collect()
}

// ---- service_elastic: blade footprint vs offered load ----
//
// A few long-lived tenants, swept over per-tenant offered load with a
// fixed per-blade capacity. Expected shape: light tenants stay on one
// blade; heavier tenants grow toward the rack's four compute blades
// (peak blade count rises with the rate), and served throughput rises
// with the extra compute until dispatch capacity caps it.

const ELASTIC_RATES: [f64; 3] = [2_000.0, 20_000.0, 80_000.0];

/// Scenario table for the elasticity figure.
pub fn elastic_build(quick: bool) -> Vec<Scenario> {
    ELASTIC_RATES
        .iter()
        .map(|&rate| {
            let cfg = ServiceConfig {
                duration: span(quick),
                arrival_rate_hz: 100.0,
                mean_lifetime: SimTime::from_millis(80),
                min_rate_hz: rate,
                max_rate_hz: rate,
                blade_capacity_hz: 20_000.0,
                ..Default::default()
            };
            Scenario::service(
                format!("service_elastic/rate{rate}"),
                ServiceSpec::new(cfg),
            )
        })
        .collect()
}

// ---- service_scale: 10^5-tenant static populations, sharded ----
//
// The serving layer's steady state scaled past what the event loop (or
// the fused replay) can host: 4 096 -> 131 072 single-threaded tenants
// built by `mind_service::population_spec` and replayed through the
// multi-core sharded executor. The smallest point is also replayed fused
// and checked byte-identical — the determinism contract extends to the
// larger points by construction (same population shape, same confinement).
// Expected shape: simulated MOPS grows roughly linearly with the tenant
// count (tenants are independent), while fused-equivalent wall cost would
// grow quadratically — the reason only the sharded path reaches 10^5.

/// Tenants-per-partition sweep of the scale family (16 partitions each:
/// 4 096, 16 384, and 131 072 total tenants). `--quick` drops the
/// largest point; the `datapath/shards_xl` perf point covers it in CI.
const SCALE_GROUPS: [u16; 3] = [256, 1024, 8192];

/// Shards the scale points replay at.
const SCALE_SHARDS: u16 = 16;

fn scale_points(quick: bool) -> Vec<u16> {
    let mut points: Vec<u16> = SCALE_GROUPS.to_vec();
    if quick {
        points.pop();
    }
    points
}

/// Scenario table for the population-scale figure.
pub fn scale_build(quick: bool) -> Vec<Scenario> {
    scale_points(quick)
        .into_iter()
        .map(|tenants_per_group| {
            Scenario::custom(
                format!("service_scale/tenants{}", 16 * tenants_per_group as u32),
                move || {
                    let population = TenantGroupConfig {
                        tenants_per_group,
                        pages_per_tenant: 16,
                        read_ratio: 0.7,
                        seed: 42,
                    };
                    let spec = population_spec("service_scale", 16, population);
                    let factory = tenant_partitions(population);
                    let merged =
                        run_sharded(&spec, SCALE_SHARDS, &factory).expect("confined population");
                    assert_eq!(merged.invalidations, 0, "population must be confined");
                    if tenants_per_group == SCALE_GROUPS[0] {
                        // Affordable only here: the fused serialized
                        // reference, asserting the contract end to end.
                        let fused = run_sharded_threads(&spec, 1, 1, &factory)
                            .expect("confined population");
                        assert_eq!(fused.runtime, merged.runtime, "sharded replay diverged");
                        assert_eq!(fused.total_ops, merged.total_ops);
                        assert_eq!(fused.mops.to_bits(), merged.mops.to_bits());
                        assert_eq!(fused.metrics, merged.metrics);
                    }
                    ScenarioOutput::default()
                        .value("tenants", 16.0 * tenants_per_group as f64)
                        .value("total_ops", merged.total_ops as f64)
                        .value("sim_runtime_ns", merged.runtime.as_nanos() as f64)
                        .value("sim_mops", merged.mops)
                        .value("remote_per_op", merged.remote_per_op)
                        .value("p999_ns", merged.latency.quantile(0.999) as f64)
                },
            )
        })
        .collect()
}
