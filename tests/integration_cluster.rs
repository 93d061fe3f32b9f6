//! Full-stack cluster tests: system calls, allocation policy, data
//! integrity against a reference model, migration, epoch machinery.

use std::collections::HashMap;

use mind_core::cluster::{MindCluster, MindConfig};
use mind_core::system::{AccessKind, MemorySystem};
use mind_sim::stats::jains_index;
use mind_sim::{SimRng, SimTime};

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

#[test]
fn process_lifecycle_and_reuse() {
    let mut c = MindCluster::new(MindConfig::small());
    let p1 = c.exec().unwrap();
    let v1 = c.mmap(p1, 1 << 20).unwrap();
    c.write_bytes(ms(1), 0, p1, v1, b"gone soon").unwrap();
    c.exit(ms(2), p1).unwrap();

    // The address space is free again: a new process can claim it.
    let p2 = c.exec().unwrap();
    let v2 = c.mmap(p2, 1 << 20).unwrap();
    assert_eq!(v1, v2, "first-fit reuses the freed range");
    // And sees fresh memory, not p1's data (p1's pages were flushed to the
    // memory blade, but protection prevents p1-era access and the new
    // process state starts from whatever the blade holds -- here we only
    // assert access works and is isolated at the API level).
    assert!(c.read_bytes(ms(3), 0, p2, v2, 16).is_ok());
}

#[test]
fn allocation_balances_and_reports_fairness() {
    let mut cfg = MindConfig::small();
    cfg.n_memory = 4;
    cfg.blade_span = 1 << 26;
    let mut c = MindCluster::new(cfg);
    let pid = c.exec().unwrap();
    for _ in 0..32 {
        c.mmap(pid, 1 << 20).unwrap();
    }
    let per_blade = c.controller().allocator().allocated_per_blade();
    let loads: Vec<f64> = per_blade.iter().map(|&x| x as f64).collect();
    assert!(jains_index(&loads) > 0.99, "balanced: {loads:?}");
}

#[test]
fn functional_model_matches_reference_hashmap() {
    // Random byte writes/reads across blades vs a HashMap reference model.
    let mut c = MindCluster::new(MindConfig::small());
    let pid = c.exec().unwrap();
    let base = c.mmap(pid, 1 << 18).unwrap(); // 64 pages.
    let mut reference: HashMap<u64, u8> = HashMap::new();
    let mut rng = SimRng::new(4242);
    for i in 0..3_000u64 {
        let addr = base + rng.gen_below(1 << 18);
        let blade = rng.gen_below(2) as u16;
        let t = SimTime::from_micros(i * 50);
        if rng.gen_bool(0.5) {
            let val = rng.gen_below(256) as u8;
            c.write_bytes(t, blade, pid, addr, &[val]).unwrap();
            reference.insert(addr, val);
        } else {
            let got = c.read_bytes(t, blade, pid, addr, 1).unwrap();
            let expect = reference.get(&addr).copied().unwrap_or(0);
            assert_eq!(got[0], expect, "addr {addr:#x} iteration {i}");
        }
    }
}

#[test]
fn trace_replay_is_deterministic() {
    let run_once = || {
        let mut c = MindCluster::new(MindConfig::small());
        let base = c.alloc(1 << 20);
        let mut rng = SimRng::new(7);
        let mut total = SimTime::ZERO;
        for i in 0..2_000u64 {
            let kind = if rng.gen_bool(0.3) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let out = MemorySystem::access(
                &mut c,
                SimTime::from_micros(i * 30),
                rng.gen_below(2) as u16,
                base + rng.gen_below(256) * 4096,
                kind,
            );
            total += out.latency.total();
        }
        (total, c.metrics().get("invalidation_requests"))
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn migration_installs_outliers_and_keeps_working() {
    let mut c = MindCluster::new(MindConfig::small());
    let pid = c.exec().unwrap();
    let base = c.mmap(pid, 1 << 18).unwrap();
    c.access_as(ms(1), 0, pid, base, AccessKind::Write).unwrap();
    let rules_before = c.match_action_rules();
    let pieces = c.migrate(ms(2), base, 1 << 18, 1, 1 << 25).unwrap();
    assert!(pieces >= 1);
    assert!(c.match_action_rules() > rules_before);
    // Post-migration accesses work and hit the new blade's range.
    assert!(c.access_as(ms(3), 1, pid, base, AccessKind::Read).is_ok());
}

#[test]
fn bounded_splitting_splits_contended_regions() {
    // Two blades hammer two pages of one initial region with writes:
    // false invalidations accumulate and the region splits.
    let mut cfg = MindConfig::small();
    cfg.split.epoch_len = SimTime::from_micros(500);
    let mut c = MindCluster::new(cfg);
    let pid = c.exec().unwrap();
    let base = c.mmap(pid, 1 << 16).unwrap();
    // A second, cold region: with a single region the hot one always sits
    // exactly at the mean and the threshold t = mean never trips.
    let cold = c.mmap(pid, 1 << 16).unwrap();
    c.access_as(SimTime::ZERO, 0, pid, cold, AccessKind::Read)
        .unwrap();
    let (_, k0) = {
        c.access_as(SimTime::ZERO, 0, pid, base, AccessKind::Read)
            .unwrap();
        c.engine().directory().region_of(base).unwrap()
    };
    let mut t = SimTime::from_micros(10);
    for i in 0..400u64 {
        let blade = (i % 2) as u16;
        // Keep both pages dirty at the victim so every invalidation
        // falsely flushes the sibling page.
        c.access_as(t, blade, pid, base, AccessKind::Write).unwrap();
        t += SimTime::from_micros(15);
        c.access_as(t, blade, pid, base + 4096, AccessKind::Write)
            .unwrap();
        t += SimTime::from_micros(15);
    }
    let (_, k_after) = c.engine().directory().region_of(base).unwrap();
    assert!(
        k_after < k0,
        "hot region split below its initial size: {k_after} vs {k0}"
    );
    assert!(c.splitter().epochs_run() > 0);
    assert!(c.metrics_snapshot().get("directory_splits") > 0);
}

#[test]
fn syscall_counters_flow_to_metrics() {
    let mut c = MindCluster::new(MindConfig::small());
    let pid = c.exec().unwrap();
    let v = c.mmap(pid, 4096).unwrap();
    c.munmap(ms(1), pid, v).unwrap();
    let m = c.metrics_snapshot();
    assert_eq!(m.get("syscalls"), 3);
    assert!(m.get("rules_installed") >= 1);
}

#[test]
fn two_processes_share_via_same_pdid_threads() {
    // Threads of the SAME process on different blades share transparently;
    // this is the elasticity story. Place threads via the controller.
    let mut c = MindCluster::new(MindConfig::small());
    let pid = c.exec().unwrap();
    let b0 = c.place_thread(pid).unwrap();
    let b1 = c.place_thread(pid).unwrap();
    assert_ne!(b0, b1, "round-robin placement");
    let base = c.mmap(pid, 1 << 16).unwrap();
    c.write_bytes(ms(1), b0, pid, base, b"thread0").unwrap();
    let got = c.read_bytes(ms(2), b1, pid, base, 7).unwrap();
    assert_eq!(&got, b"thread0");
}

#[test]
fn memory_exhaustion_is_enomem_not_panic() {
    let mut cfg = MindConfig::small();
    cfg.blade_span = 1 << 20;
    cfg.memory_blade_bytes = 1 << 20;
    cfg.n_memory = 1;
    let mut c = MindCluster::new(cfg);
    let pid = c.exec().unwrap();
    assert!(c.mmap(pid, 1 << 20).is_ok());
    assert!(c.mmap(pid, 4096).is_err());
}
