//! Steady-state allocation gate of the service's dispatch quantum.
//!
//! `mind_obs::mem::alloc_counts()` is process-wide, so this is the only
//! test in its target: a sibling test thread's allocations would land in
//! the measured delta.

use mind_obs::mem::alloc_counts;
use mind_service::{MemoryService, QosClass, ServiceConfig, TenantId};
use mind_sim::SimTime;

const TENANTS: u64 = 12;
/// Small enough that every tenant's footprint stays resident on its blade,
/// so a warmed page is never fetched (and copied for its next store) again.
const PAGES: u64 = 64;

/// `quanta` dispatch periods of a steady open loop: three tenants submit
/// per period, rotating, against four slots. Returns the requests served.
fn drive(svc: &mut MemoryService, tenants: &[TenantId], now: &mut SimTime, quanta: u64) -> u64 {
    let served = |svc: &MemoryService| -> u64 {
        tenants.iter().map(|&id| svc.tenant(id).unwrap().ops).sum()
    };
    let before = served(svc);
    for q in 0..quanta {
        *now += svc.config().dispatch_quantum;
        for k in 0..3 {
            let id = tenants[((q * 3 + k) % TENANTS) as usize];
            assert!(svc.submit(*now, id), "the loop runs below capacity");
        }
        svc.dispatch(*now);
    }
    served(svc) - before
}

#[test]
fn a_quantum_over_a_steady_tenant_set_allocates_nothing() {
    // The serialized quantum, then the windowed quantum through the rack's
    // issue gate (one cluster-owned engine, emptied per quantum).
    let windowed = ServiceConfig {
        window: 4,
        ..ServiceConfig::default()
    };
    for (name, cfg) in [("serialized", ServiceConfig::default()), ("window 4", windowed)] {
        let mut svc = MemoryService::new(cfg);
        let mut now = SimTime::ZERO;
        let tenants: Vec<TenantId> = (0..TENANTS)
            .map(|i| {
                let qos = QosClass::ALL[(i % 3) as usize];
                svc.admit(now, qos, PAGES, 10_000.0).unwrap()
            })
            .collect();
        // Warm-up: every page fetched and stored to once, every queue,
        // batch and table at the size the loop needs.
        drive(&mut svc, &tenants, &mut now, 40_000);

        let (allocs_before, _) = alloc_counts();
        let served = drive(&mut svc, &tenants, &mut now, 20_000);
        let (allocs_after, _) = alloc_counts();

        assert_eq!(served, 60_000, "{name}: every submitted request was served");
        // The bounded-splitting driver keeps two per-epoch series for the
        // figures, and a vector that grows for 200 more epochs doubles at
        // most once; nothing a quantum does may allocate.
        let allocs = allocs_after - allocs_before;
        assert!(
            allocs <= 2,
            "{name}: {allocs} allocations over {served} served requests"
        );
    }
}
