//! Cross-crate coherence litmus tests: the shared-memory semantics MIND
//! promises (§4.3) hold end-to-end through switch tables, blade caches,
//! and the fabric.

use mind_core::cluster::{MindCluster, MindConfig};
use mind_core::directory::MsiState;
use mind_core::system::{AccessKind, ConsistencyModel};
use mind_sim::SimTime;

fn rack() -> (MindCluster, u64, u64) {
    let mut c = MindCluster::new(MindConfig::small());
    let pid = c.exec().unwrap();
    let base = c.mmap(pid, 1 << 20).unwrap();
    (c, pid, base)
}

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

#[test]
fn message_passing_litmus() {
    // Blade 0: data = 42; flag = 1. Blade 1: sees flag == 1 => must see
    // data == 42 (TSO forbids the stale-data outcome).
    let (mut c, pid, base) = rack();
    let data = base;
    let flag = base + 4096;
    c.write_bytes(ms(1), 0, pid, data, &[42]).unwrap();
    c.write_bytes(ms(2), 0, pid, flag, &[1]).unwrap();
    let f = c.read_bytes(ms(3), 1, pid, flag, 1).unwrap();
    assert_eq!(f, [1]);
    let d = c.read_bytes(ms(4), 1, pid, data, 1).unwrap();
    assert_eq!(d, [42], "TSO: flag visible implies data visible");
}

#[test]
fn write_ping_pong_preserves_last_value() {
    let (mut c, pid, base) = rack();
    for round in 0u8..20 {
        let blade = (round % 2) as u16;
        c.write_bytes(ms(1 + round as u64 * 2), blade, pid, base, &[round])
            .unwrap();
        let got = c
            .read_bytes(ms(2 + round as u64 * 2), 1 - blade, pid, base, 1)
            .unwrap();
        assert_eq!(got, [round], "round {round}");
    }
}

#[test]
fn directory_tracks_sharers_and_owner() {
    let (mut c, pid, base) = rack();
    // Both blades read: region Shared with both sharers.
    c.access_as(ms(1), 0, pid, base, AccessKind::Read).unwrap();
    c.access_as(ms(2), 1, pid, base, AccessKind::Read).unwrap();
    let (rbase, _) = c.engine().directory().region_of(base).unwrap();
    let e = c.engine().directory().entry(rbase).unwrap();
    assert_eq!(e.state, MsiState::Shared);
    assert!(e.sharers.contains(0) && e.sharers.contains(1));

    // Blade 1 writes: region Modified, sole owner 1, blade 0 invalidated.
    c.access_as(ms(3), 1, pid, base, AccessKind::Write).unwrap();
    let e = c.engine().directory().entry(rbase).unwrap();
    assert_eq!(e.state, MsiState::Modified);
    assert_eq!(e.owner(), Some(1));
    assert!(!c.engine().cache(0).contains(base), "blade 0 invalidated");
}

#[test]
fn single_writer_invariant_under_random_traffic() {
    let (mut c, pid, base) = rack();
    let mut rng = mind_sim::SimRng::new(99);
    for i in 0..2_000u64 {
        let blade = rng.gen_below(2) as u16;
        let page = base + rng.gen_below(64) * 4096;
        let kind = if rng.gen_bool(0.5) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        c.access_as(SimTime::from_micros(i * 40), blade, pid, page, kind)
            .unwrap();
        // Invariant: a page writable on one blade is not cached anywhere
        // else.
        for p in (0..64).map(|k| base + k * 4096) {
            let w0 = c.engine().cache(0).is_writable(p);
            let w1 = c.engine().cache(1).is_writable(p);
            assert!(
                !(w0 && c.engine().cache(1).contains(p) || w1 && c.engine().cache(0).contains(p)),
                "page {p:#x} writable on one blade while cached on the other"
            );
        }
    }
}

#[test]
fn downgrade_keeps_readonly_copy_at_old_owner() {
    let (mut c, pid, base) = rack();
    c.write_bytes(ms(1), 0, pid, base, b"owned").unwrap();
    assert!(c.engine().cache(0).is_writable(base));
    // Blade 1 reads: M->S. Blade 0 keeps a read-only copy.
    c.access_as(ms(2), 1, pid, base, AccessKind::Read).unwrap();
    assert!(c.engine().cache(0).contains(base));
    assert!(!c.engine().cache(0).is_writable(base));
    // Blade 0's next read is a local hit (no fault).
    let out = c.access_as(ms(3), 0, pid, base, AccessKind::Read).unwrap();
    assert!(!out.remote);
}

#[test]
fn false_invalidations_accounted_within_region() {
    let (mut c, pid, base) = rack();
    // Dirty two pages of the same initial 16 KB region on blade 0.
    c.access_as(ms(1), 0, pid, base, AccessKind::Write).unwrap();
    c.access_as(ms(1), 0, pid, base + 4096, AccessKind::Write)
        .unwrap();
    // Blade 1 writes the first page: region invalidation flushes both dirty
    // pages; the second is a false invalidation (§4.3.1).
    let out = c.access_as(ms(2), 1, pid, base, AccessKind::Write).unwrap();
    assert_eq!(out.flushed_pages, 2);
    assert_eq!(out.false_invalidations, 1);
}

#[test]
fn eviction_roundtrips_data_through_memory_blade() {
    // Cache of 8 pages; write 32 distinct pages, then read them all back.
    let mut cfg = MindConfig::small();
    cfg.cache_pages = 8;
    let mut c = MindCluster::new(cfg);
    let pid = c.exec().unwrap();
    let base = c.mmap(pid, 1 << 20).unwrap();
    for i in 0..32u64 {
        c.write_bytes(ms(1 + i), 0, pid, base + i * 4096, &[i as u8 ^ 0x5A])
            .unwrap();
    }
    for i in 0..32u64 {
        let got = c
            .read_bytes(ms(100 + i), 0, pid, base + i * 4096, 1)
            .unwrap();
        assert_eq!(got, [i as u8 ^ 0x5A], "page {i} survived eviction");
    }
    assert!(c.metrics_snapshot().get("evictions") >= 24);
}

#[test]
fn multicast_prunes_non_sharers() {
    let mut cfg = MindConfig::small();
    cfg.n_compute = 4;
    let mut c = MindCluster::new(cfg);
    let pid = c.exec().unwrap();
    let base = c.mmap(pid, 1 << 16).unwrap();
    // Only blades 0 and 1 share; blade 2 writes -> invalidations must not
    // reach blade 3 (egress pruning, 4.3.2).
    c.access_as(ms(1), 0, pid, base, AccessKind::Read).unwrap();
    c.access_as(ms(2), 1, pid, base, AccessKind::Read).unwrap();
    let before = c.metrics_snapshot().get("multicast_pruned");
    c.access_as(ms(3), 2, pid, base, AccessKind::Write).unwrap();
    let m = c.metrics_snapshot();
    assert_eq!(m.get("invalidation_requests"), 2, "only the two sharers");
    assert!(
        m.get("multicast_pruned") > before,
        "copies for non-sharers pruned in egress"
    );
}

#[test]
fn upgrades_skip_data_fetch() {
    let (mut c, pid, base) = rack();
    c.access_as(ms(1), 0, pid, base, AccessKind::Read).unwrap();
    let reads_before = c.metrics_snapshot().get("remote_accesses");
    let out = c.access_as(ms(2), 0, pid, base, AccessKind::Write).unwrap();
    assert!(out.remote, "upgrade consults the switch");
    // An S->M upgrade with no other sharers: no invalidations, and the
    // latency is below a data-carrying fetch (grant only).
    assert_eq!(out.invalidations, 0);
    assert!(out.latency.total() < SimTime::from_micros(9));
    assert_eq!(
        c.metrics_snapshot().get("remote_accesses"),
        reads_before + 1
    );
}

#[test]
fn pipeline_recirculates_per_transition() {
    let (mut c, pid, base) = rack();
    c.access_as(ms(1), 0, pid, base, AccessKind::Read).unwrap();
    c.access_as(ms(2), 1, pid, base, AccessKind::Write).unwrap();
    assert_eq!(
        c.metrics_snapshot().get("pipeline_recirculations"),
        2,
        "each directory transition recirculates once (Figure 4)"
    );
    // A local hit never reaches the switch pipeline.
    let out = c.access_as(ms(3), 1, pid, base, AccessKind::Read).unwrap();
    assert!(!out.remote);
    assert_eq!(c.metrics_snapshot().get("pipeline_recirculations"), 2);
}

#[test]
fn latency_calibration_matches_paper_figure7() {
    let (mut c, pid, base) = rack();
    // Cold fetch ~= 9-10us (paper: 9.3-9.4).
    let out = c.access_as(ms(1), 0, pid, base, AccessKind::Read).unwrap();
    let us = out.latency.total().as_micros_f64();
    assert!((8.5..10.5).contains(&us), "I->S fetch {us:.1}us");
    // Modified-elsewhere read ~= 18-22us (paper: 18.0).
    c.access_as(ms(2), 1, pid, base, AccessKind::Write).unwrap();
    let out = c.access_as(ms(3), 0, pid, base, AccessKind::Read).unwrap();
    let us = out.latency.total().as_micros_f64();
    assert!((16.0..24.0).contains(&us), "M->S path {us:.1}us");
    // Local hit < 100ns.
    let out = c.access_as(ms(4), 0, pid, base, AccessKind::Read).unwrap();
    assert!(out.latency.total() <= SimTime::from_nanos(100));
}

#[test]
fn data_coherent_under_all_protocols() {
    use mind_core::stt::Protocol;
    for protocol in [Protocol::Msi, Protocol::Mesi, Protocol::Moesi] {
        let mut c = MindCluster::new(MindConfig::small().protocol(protocol));
        let pid = c.exec().unwrap();
        let base = c.mmap(pid, 1 << 18).unwrap();
        let mut rng = mind_sim::SimRng::new(31);
        let mut reference = std::collections::HashMap::new();
        for i in 0..600u64 {
            let addr = base + rng.gen_below(1 << 18);
            let blade = rng.gen_below(2) as u16;
            let t = SimTime::from_micros(i * 60);
            if rng.gen_bool(0.5) {
                let val = rng.gen_below(256) as u8;
                c.write_bytes(t, blade, pid, addr, &[val]).unwrap();
                reference.insert(addr, val);
            } else {
                let got = c.read_bytes(t, blade, pid, addr, 1).unwrap();
                let expect = reference.get(&addr).copied().unwrap_or(0);
                assert_eq!(got[0], expect, "{protocol:?} addr {addr:#x} op {i}");
            }
        }
    }
}

#[test]
fn mesi_first_write_after_sole_read_is_silent() {
    use mind_core::stt::Protocol;
    let mut c = MindCluster::new(MindConfig::small().protocol(Protocol::Mesi));
    let pid = c.exec().unwrap();
    let base = c.mmap(pid, 1 << 16).unwrap();
    // Sole read grants Exclusive (writable mapping)...
    let out = c.access_as(ms(1), 0, pid, base, AccessKind::Read).unwrap();
    assert!(out.remote);
    // ...so the first write is a pure cache hit — no fault, no switch trip.
    let out = c.access_as(ms(2), 0, pid, base, AccessKind::Write).unwrap();
    assert!(!out.remote, "silent E->M upgrade");
    assert_eq!(out.latency.total(), SimTime::from_nanos(80));
}

#[test]
fn moesi_downgrade_skips_writeback() {
    use mind_core::stt::Protocol;
    let mut c = MindCluster::new(MindConfig::small().protocol(Protocol::Moesi));
    let pid = c.exec().unwrap();
    let base = c.mmap(pid, 1 << 16).unwrap();
    c.write_bytes(ms(1), 0, pid, base, b"owned dirty").unwrap();
    // Blade 1 reads: M->O, no flush, data served cache-to-cache.
    let got = c.read_bytes(ms(2), 1, pid, base, 11).unwrap();
    assert_eq!(&got, b"owned dirty");
    assert_eq!(
        c.metrics_snapshot().get("flushed_pages"),
        0,
        "MOESI downgrade keeps the dirty copy at the owner"
    );
    // A later write collapses O: now the flush happens.
    c.write_bytes(ms(3), 1, pid, base, b"new owner!!").unwrap();
    assert!(c.metrics_snapshot().get("flushed_pages") >= 1);
    let got = c.read_bytes(ms(4), 0, pid, base, 11).unwrap();
    assert_eq!(&got, b"new owner!!");
}

/// §4.4: under TSO the requester of a write waits for its data *and* every
/// invalidation ACK, so the write completes no earlier than the end of its
/// invalidation round (the traced `invalidation` span, admit to last ACK).
#[test]
fn a_write_completes_no_earlier_than_its_last_ack() {
    use mind_obs::{EventKind, TraceConfig, TraceMode};

    for blades in [2u16, 4, 8] {
        let mut c = MindCluster::new(
            MindConfig {
                n_compute: blades,
                trace: TraceConfig::with_mode(TraceMode::On),
                ..MindConfig::small()
            }
            .consistency(ConsistencyModel::Tso),
        );
        let pid = c.exec().unwrap();
        let page = c.mmap(pid, 1 << 20).unwrap();
        for b in 1..blades {
            c.access_as(
                ms(1) + SimTime::from_micros(20 * b as u64),
                b,
                pid,
                page,
                AccessKind::Read,
            )
            .unwrap();
        }
        let now = ms(2);
        let write = c.access_as(now, 0, pid, page, AccessKind::Write).unwrap();
        let done = now + write.latency.total();
        let last_ack = c
            .take_trace()
            .expect("tracing is on")
            .events
            .iter()
            .filter(|e| e.lane == 0 && e.kind == EventKind::Invalidation)
            .map(|e| e.ts + e.dur)
            .max()
            .expect("the write invalidated the readers");
        let (done, last_ack) = (done.as_nanos(), last_ack.as_nanos());
        assert!(
            done >= last_ack,
            "{blades} blades: done {done} ns < last ACK {last_ack} ns"
        );
    }
}

/// The STT's `sequential` rows (§4.4): leaving a dirty exclusive state,
/// the fetch waits for the invalidation round's last ACK, so the access
/// completes no earlier than the least a fetch takes after that ACK.
#[test]
fn a_sequential_rows_fetch_starts_no_earlier_than_its_last_ack() {
    use mind_core::stt::{Protocol, Role, SttTable};
    use mind_obs::{EventKind, TraceConfig, TraceMode};
    use AccessKind::{Read, Write};

    // Accesses (blade, kind) that set a region up, then the access under
    // test: by protocol they reach M, E and O, and leave each by a read and
    // a write.
    type Access = (u16, AccessKind);
    let cases: [(&[Access], Access); 7] = [
        (&[(0, Write)], (1, Read)),
        (&[(0, Write)], (1, Write)),
        (&[(0, Read)], (1, Read)),
        (&[(0, Read)], (1, Write)),
        (&[(0, Write), (1, Read)], (0, Write)),
        (&[(0, Write), (1, Read)], (1, Write)),
        (&[(0, Write), (1, Read)], (2, Write)),
    ];
    let mut checked = 0;
    for protocol in [Protocol::Msi, Protocol::Mesi, Protocol::Moesi] {
        let stt = SttTable::new(protocol);
        for (setup, (blade, kind)) in cases {
            let cfg = MindConfig {
                n_compute: 4,
                trace: TraceConfig::with_mode(TraceMode::On),
                ..MindConfig::small()
            };
            let mut c = MindCluster::new(cfg.protocol(protocol).consistency(ConsistencyModel::Tso));
            let pid = c.exec().unwrap();
            let page = c.mmap(pid, 1 << 20).unwrap();
            for (i, &(b, k)) in setup.iter().enumerate() {
                c.access_as(ms(1 + i as u64), b, pid, page, k).unwrap();
            }
            let (base, _) = c.engine().directory().region_of(page).unwrap();
            let e = c.engine().directory().entry(base).unwrap();
            let role = match e.owner() {
                Some(owner) if owner == blade => Role::Owner,
                _ if e.sharers.contains(blade) => Role::Sharer,
                _ => Role::Other,
            };
            // Leaving a dirty exclusive state: M or E by another blade, or O
            // by a write. The STT marks exactly these rows sequential.
            let state = e.state;
            let leaves_dirty = match state {
                MsiState::Modified | MsiState::Exclusive => role != Role::Owner,
                MsiState::Owned => kind.is_write(),
                _ => false,
            };
            if !leaves_dirty && !stt.lookup(state, kind, role).sequential {
                continue;
            }
            // A fetch is a read request to the page's holder, its service
            // there and the page's way back: two hops at least. A requester
            // that holds the page waits only for a one-hop grant.
            let lat = c.config().latency;
            let least = if c.engine().cache(blade).contains(page) {
                lat.hop_latency
            } else {
                lat.hop_latency + lat.memory_service + lat.hop_latency
            };
            c.take_trace();
            let now = ms(10);
            let out = c.access_as(now, blade, pid, page, kind).unwrap();
            let last_ack = c
                .take_trace()
                .expect("tracing is on")
                .events
                .iter()
                .filter(|e| e.lane == blade as u32 && e.kind == EventKind::Invalidation)
                .map(|e| e.ts + e.dur)
                .max()
                .expect("a sequential row invalidates");
            let done = now + out.latency.total();
            assert!(
                done >= last_ack + least,
                "{protocol:?} {state:?} {kind:?} by {role:?}: done {} ns, last ACK {} ns, fetch {} ns",
                done.as_nanos(),
                last_ack.as_nanos(),
                least.as_nanos()
            );
            checked += 1;
        }
    }
    // MSI leaves M by a read and a write; MESI leaves E too; MOESI adds
    // the three writes to an Owned region.
    assert_eq!(checked, 2 + 4 + 7);
}

/// The directory against the blade cache: a page the owner of an
/// Exclusive or Modified region faults in is mapped writable, so the
/// owner's next write to it is a hit, as both states promise.
#[test]
fn a_page_an_e_or_m_owner_faults_in_is_mapped_writable() {
    use mind_core::stt::Protocol;
    use mind_sim::SimRng;

    for protocol in [Protocol::Msi, Protocol::Mesi, Protocol::Moesi] {
        let cfg = MindConfig {
            n_compute: 4,
            ..MindConfig::small()
        };
        let mut c = MindCluster::new(cfg.protocol(protocol));
        let pid = c.exec().unwrap();
        let base = c.mmap(pid, 1 << 20).unwrap();
        let mut rng = SimRng::new(7);
        let mut owned = 0;
        for i in 0..4_000u64 {
            // 64 pages in 16 regions; each region's home blade issues most
            // of its accesses, so regions sit in E and M often.
            let page = base + rng.gen_below(64) * 4096;
            let home = ((page - base) >> 14) as u16 % 4;
            let blade = if rng.gen_bool(0.8) { home } else { rng.gen_below(4) as u16 };
            let kind = if rng.gen_bool(0.7) { AccessKind::Read } else { AccessKind::Write };
            let now = ms(1) + SimTime::from_micros(50 * i);
            if !c.access_as(now, blade, pid, page, kind).unwrap().remote {
                continue;
            }
            let (rbase, _) = c.engine().directory().region_of(page).unwrap();
            let e = c.engine().directory().entry(rbase).unwrap();
            if matches!(e.state, MsiState::Exclusive | MsiState::Modified) && e.owner() == Some(blade) {
                let state = e.state;
                assert!(
                    c.engine().cache(blade).is_writable(page),
                    "{protocol:?}: access {i}, {kind:?} by the {state:?} owner, blade {blade}, mapped read-only"
                );
                owned += 1;
            }
        }
        assert!(owned > 100, "{protocol:?}: only {owned} faults left an owner");
    }
}
