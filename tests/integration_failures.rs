//! Failure handling end-to-end (paper §4.4): packet loss with
//! retransmission, blade failure driving the reset protocol, and
//! switch failover with control-plane reconstruction.

use mind_core::cluster::{MindCluster, MindConfig};
use mind_core::coherence::AccessError;
use mind_core::controller::Pid;
use mind_core::system::AccessKind;
use mind_sim::SimTime;
use mind_workloads::micro::{MicroConfig, MicroWorkload};
use mind_workloads::runner::{run, RunConfig};

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

/// A small rack of `n_compute` blades with one process and a 64 KiB mapping.
fn rack(n_compute: u16) -> (MindCluster, Pid, u64) {
    let mut c = MindCluster::new(MindConfig { n_compute, ..MindConfig::small() });
    let pid = c.exec().unwrap();
    let base = c.mmap(pid, 1 << 16).unwrap();
    (c, pid, base)
}

#[test]
fn packet_loss_retransmits_and_completes() {
    let mut c = MindCluster::new(MindConfig::small());
    let pid = c.exec().unwrap();
    let base = c.mmap(pid, 1 << 18).unwrap();
    c.inject_loss(0.1, 777);
    // Plenty of cross-blade write traffic: invalidation rounds lose
    // packets and retransmit, but data stays correct throughout.
    for i in 0..100u64 {
        let blade = (i % 2) as u16;
        c.write_bytes(ms(1 + i * 2), blade, pid, base + (i % 8) * 4096, &[i as u8])
            .unwrap();
        let got = c
            .read_bytes(ms(2 + i * 2), 1 - blade, pid, base + (i % 8) * 4096, 1)
            .unwrap();
        assert_eq!(got, [i as u8]);
    }
    let m = c.metrics_snapshot();
    assert!(
        m.get("retransmissions") > 0,
        "loss at 10% must force retransmissions"
    );
    // A reset needs max_retries+1 consecutive failures (~0.1% per round at
    // this rate); data stayed correct above either way.
    assert!(
        m.get("resets") <= 2,
        "resets stay rare: {}",
        m.get("resets")
    );
}

#[test]
fn failed_blade_triggers_reset_and_releases_region() {
    let (mut c, pid, base) = rack(2);
    // Blade 1 owns the page dirty, then dies silently.
    c.access_as(ms(1), 1, pid, base, AccessKind::Write).unwrap();
    c.fail_blade(1);
    // Blade 0's access needs blade 1 invalidated; ACKs never come, the
    // reset protocol fires, and the access still completes (no deadlock).
    let out = c.access_as(ms(2), 0, pid, base, AccessKind::Write).unwrap();
    assert!(out.remote);
    let m = c.metrics_snapshot();
    assert_eq!(m.get("resets"), 1, "reset protocol fired");
    let retries = c.config().coherence.max_retries as u64;
    assert_eq!(m.get("retransmissions"), retries, "the whole retry budget preceded the reset");
    // The failed blade rejects new work.
    assert_eq!(
        c.access_as(ms(3), 1, pid, base, AccessKind::Read)
            .unwrap_err(),
        AccessError::BladeFailed
    );
    // The survivor continues normally.
    assert!(c.access_as(ms(4), 0, pid, base, AccessKind::Read).is_ok());
}

#[test]
fn reset_latency_is_bounded_by_retry_budget() {
    let (mut c, pid, base) = rack(2);
    c.access_as(ms(1), 1, pid, base, AccessKind::Write).unwrap();
    c.fail_blade(1);
    let out = c.access_as(ms(2), 0, pid, base, AccessKind::Write).unwrap();
    // (max_retries + 1) x ack_timeout plus protocol time.
    let cfg = c.config().coherence;
    let round = cfg.ack_timeout * (cfg.max_retries as u64 + 1);
    let bound = round + cfg.ack_timeout;
    assert!(
        out.latency.total() < bound + SimTime::from_micros(50),
        "reset bounded: {} vs {}",
        out.latency.total(),
        bound
    );
    assert!(out.latency.total() >= round, "the reset waits out every retry");
}

#[test]
fn retransmissions_go_to_pending_sharers_only() {
    let (mut c, pid, base) = rack(3);
    c.access_as(ms(1), 1, pid, base, AccessKind::Read).unwrap();
    c.access_as(ms(2), 2, pid, base, AccessKind::Read).unwrap();
    c.fail_blade(2);
    // Both sharers get the first copy and blade 1 ACKs it; every
    // retransmission goes to blade 2 alone.
    c.access_as(ms(3), 0, pid, base, AccessKind::Write).unwrap();
    let m = c.metrics_snapshot();
    let retries = c.config().coherence.max_retries as u64;
    assert_eq!(m.get("invalidation_requests"), 2 + retries);
    assert_eq!(m.get("retransmissions"), retries);
}

#[test]
fn switch_failover_preserves_data_and_permissions() {
    let mut c = MindCluster::new(MindConfig::small());
    let p1 = c.exec().unwrap();
    let p2 = c.exec().unwrap();
    let v1 = c.mmap(p1, 1 << 16).unwrap();
    c.write_bytes(ms(1), 0, p1, v1, b"survives failover")
        .unwrap();

    let report = c
        .switch_failover(ms(2))
        .expect("the backup holds every grant");
    assert!(report.rules_replayed >= 1);
    assert_eq!(report.pages_flushed, 1, "dirty data flushed before drop");

    // Data survives (flushed to memory blades), permissions survive
    // (replayed from the control-plane log), isolation survives.
    let got = c.read_bytes(ms(3), 1, p1, v1, 17).unwrap();
    assert_eq!(&got, b"survives failover");
    assert!(c.access_as(ms(4), 0, p2, v1, AccessKind::Read).is_err());
}

#[test]
fn failover_mid_write_traffic_stays_coherent() {
    let mut c = MindCluster::new(MindConfig::small());
    let pid = c.exec().unwrap();
    let base = c.mmap(pid, 1 << 18).unwrap();
    for i in 0..16u64 {
        c.write_bytes(ms(1 + i), (i % 2) as u16, pid, base + i * 4096, &[i as u8])
            .unwrap();
    }
    c.switch_failover(ms(40))
        .expect("the backup holds every grant");
    for i in 0..16u64 {
        let got = c
            .read_bytes(ms(50 + i), ((i + 1) % 2) as u16, pid, base + i * 4096, 1)
            .unwrap();
        assert_eq!(got, [i as u8], "page {i} after failover");
    }
}

#[test]
fn loss_free_runs_have_no_reliability_activity() {
    let (mut c, pid, base) = rack(2);
    for i in 0..50u64 {
        c.write_bytes(ms(1 + i), (i % 2) as u16, pid, base, &[i as u8])
            .unwrap();
    }
    let m = c.metrics_snapshot();
    assert_eq!(m.get("retransmissions"), 0);
    assert_eq!(m.get("resets"), 0);
}

#[test]
fn a_reset_region_stays_busy_until_its_round_ends() {
    // Blade 1's ACK never comes: it dies silently, or the fabric drops
    // every copy of the round, which then delivers no request at all.
    for lossy in [false, true] {
        let (mut c, pid, base) = rack(3);
        // Blade 1 holds a clean Shared copy. A dirty one would be flushed
        // by the reset, and that flush's fabric booking would delay the
        // next access on its own.
        c.access_as(ms(1), 1, pid, base, AccessKind::Read).unwrap();
        if lossy {
            c.inject_loss(1.0, 1);
        } else {
            c.fail_blade(1);
        }
        // Blade 0's write waits out every retry and ends in the reset.
        c.access_as(ms(2), 0, pid, base, AccessKind::Write).unwrap();
        c.inject_loss(0.0, 1);
        assert_eq!(c.metrics_snapshot().get("invalidation_rounds"), 1, "lossy: {lossy}");
        // A read just after must queue behind the region the reset recreated.
        let at = ms(2) + SimTime::from_micros(1);
        let out = c.access_as(at, 2, pid, base, AccessKind::Read).unwrap();
        let cfg = c.config().coherence;
        let round = cfg.ack_timeout * (cfg.max_retries as u64 + 1);
        assert!(
            at + out.latency.total() >= ms(2) + round,
            "lossy: {lossy}: read done at {} before the reset round's {}",
            at + out.latency.total(),
            ms(2) + round
        );
        if lossy {
            // The reset flushed the live holder's copy too.
            let again = c.access_as(ms(3), 1, pid, base, AccessKind::Read).unwrap();
            assert!(again.remote, "blade 1 kept its copy through the reset");
        }
    }
}

#[test]
fn a_lossy_run_reports_what_its_metrics_count() {
    // The fabric drops every copy of blade 0's read round: its reset
    // flushes blade 1's dirty page, and the read reports that flush.
    let (mut c, pid, base) = rack(2);
    c.access_as(ms(1), 1, pid, base, AccessKind::Write).unwrap();
    c.inject_loss(1.0, 1);
    let out = c.access_as(ms(2), 0, pid, base, AccessKind::Read).unwrap();
    assert_eq!((out.flushed_pages, c.metrics_snapshot().get("flushed_pages")), (1, 1));
    // Write-heavy sharing on a lossy rack: rounds retransmit and some end
    // in a reset, whose flushes belong to the op whose round reset.
    let mut c = MindCluster::new(MindConfig::small());
    c.inject_loss(0.5, 3);
    let mut wl = MicroWorkload::new(MicroConfig {
        n_threads: 2,
        read_ratio: 0.3,
        sharing_ratio: 0.9,
        shared_pages: 64,
        private_pages: 64,
        seed: 5,
    });
    let cfg = RunConfig {
        ops_per_thread: 2_000,
        warmup_ops_per_thread: 200,
        ..Default::default()
    };
    let r = run(&mut c, &mut wl, cfg);
    let w = &r.window_metrics;
    assert!(w.get("resets") > 0 && w.get("flushed_pages") > 0);
    assert_eq!(r.flushed_pages, w.get("flushed_pages"));
    assert_eq!(r.invalidations, w.get("invalidation_requests"));
}
