//! Allocation gate of a service tenant's whole life cycle on a warm
//! service: admission, a queue filled to its bound, a dispatch quantum, an
//! elasticity epoch that grows the tenant onto every compute blade and one
//! that shrinks it back, departure with requests still queued.
//!
//! `mind_obs::mem::alloc_counts()` is process-wide, so this is the only
//! test in its target: a sibling test thread's allocations would land in
//! the measured delta.

use mind_obs::mem::alloc_counts;
use mind_obs::{TraceConfig, TraceMode};
use mind_service::{AccessPattern, MemoryService, QosClass, ServiceConfig};
use mind_sim::SimTime;

/// One tenant from admission to departure.
fn life_cycle(svc: &mut MemoryService, now: &mut SimTime, cycle: u64) {
    let cfg = *svc.config();
    let id = svc
        .admit(*now, QosClass::ALL[(cycle % 3) as usize], 32 + cycle % 64, 10_000.0)
        .unwrap();
    for _ in 0..cfg.max_queue_depth {
        assert!(svc.submit(*now, id), "the queue takes its bound");
    }
    *now += cfg.dispatch_quantum;
    svc.dispatch(*now);
    let t = svc.tenant(id).unwrap();
    assert_eq!(t.queue.len(), cfg.max_queue_depth - cfg.slots_per_quantum as usize);
    svc.rebalance();
    let grown = svc.blades(id).unwrap().len();
    assert_eq!(grown, cfg.rack.n_compute as usize, "a busy epoch grows");
    svc.rebalance();
    assert_eq!(svc.blades(id).unwrap().len(), 1, "an idle epoch shrinks");
    let slo = svc.depart(*now, id).unwrap();
    assert_eq!(slo.ops, cfg.slots_per_quantum as u64);
}

#[test]
fn a_tenant_life_cycle_on_a_warm_service_allocates_nothing() {
    let mut cfg = ServiceConfig {
        slots_per_quantum: 48,
        // 48 requests in one 5 ms epoch ask for ten blades of this size.
        blade_capacity_hz: 1_000.0,
        class_patterns: [AccessPattern::Zipfian(0.99), AccessPattern::Uniform, AccessPattern::Scan],
        ..ServiceConfig::default()
    };
    // Page frames belong to the data model, not to the life cycle; and the
    // run stays inside the first bounded-splitting epoch, whose per-epoch
    // series for the figures would grow with it.
    cfg.rack.coherence.carry_data = false;
    cfg.rack.split.epoch_len = SimTime::from_secs(10);
    cfg.rack.trace = TraceConfig::with_mode(TraceMode::Off);
    let mut svc = MemoryService::new(cfg);
    let mut now = SimTime::ZERO;
    // Long-lived neighbours, so the rack's tables never empty out.
    for i in 0..4 {
        svc.admit(now, QosClass::ALL[i % 3], 64, 1_000.0).unwrap();
    }
    const WARM: u64 = 600;
    const MEASURED: u64 = 3_000;
    for cycle in 0..WARM {
        life_cycle(&mut svc, &mut now, cycle);
    }

    let (before, _) = alloc_counts();
    for cycle in WARM..WARM + MEASURED {
        life_cycle(&mut svc, &mut now, cycle);
    }
    let (after, _) = alloc_counts();

    // Every departure appends one SLO record to a list that grows by
    // doubling: it may reallocate once per power of two it passes.
    let doublings = (WARM..WARM + MEASURED).filter(|n| n.is_power_of_two()).count() as u64;
    let allocs = after - before;
    assert!(
        allocs <= doublings,
        "{MEASURED} more tenant life cycles made {allocs} allocations"
    );
}
