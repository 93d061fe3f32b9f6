//! Failure handling (paper §4.4).
//!
//! Three mechanisms cooperate:
//!
//! 1. **Communication failures**: each invalidation round of the
//!    coherence engine waits for its sharers' ACKs and retransmits to the
//!    ones still pending on timeout; after the retry budget a *reset*
//!    flushes every blade's data for the address and removes the directory
//!    entry, preventing deadlock when a blade dies mid-transition.
//! 2. **Compute-blade failures**: injected via
//!    [`crate::coherence::CoherenceEngine::fail_blade`]; a failed blade
//!    stops ACKing, which funnels into the reset path.
//! 3. **Switch failures**: the control plane replicates to a backup switch;
//!    on failover the data plane is *reconstructed from control-plane
//!    state* — translation and protection rules are replayed from the grant
//!    log, while coherence state restarts cold (all blades flush, directory
//!    empty). Control-plane state changes only on metadata operations, so
//!    replication overhead is minimal.
//!
//! This module implements the switch-failover reconstruction and the
//! plan-level helpers; the engine hooks are exercised in
//! `tests/integration_failures.rs`.

use mind_sim::SimTime;

use crate::coherence::CoherenceEngine;
use crate::controller::Controller;

/// Outcome of a switch failover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverReport {
    /// Protection/translation rules replayed into the backup's data plane.
    pub rules_replayed: usize,
    /// Directory entries dropped (coherence restarts cold).
    pub directory_entries_dropped: usize,
    /// Dirty pages flushed by blades during the cold restart.
    pub pages_flushed: u64,
    /// Whether the backup was current when the primary failed (replication
    /// lag = 0).
    pub backup_was_current: bool,
}

/// Why a switch failover could not rebuild the backup's data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailoverError {
    /// The backup's protection TCAM ran out of rows while the grant log
    /// was replayed into it.
    BackupTcamFull,
}

impl std::fmt::Display for FailoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailoverError::BackupTcamFull => {
                write!(
                    f,
                    "backup protection TCAM cannot hold the replicated grant log"
                )
            }
        }
    }
}

impl std::error::Error for FailoverError {}

/// Fails over from the primary switch to the backup: replays control-plane
/// state into a fresh data plane and cold-starts coherence.
///
/// `engine` is mutated in place to represent the backup switch's data plane
/// after reconstruction: same translation partition, protection rules
/// replayed from the controller's grant log, empty directory, and all
/// compute-blade caches flushed (their dirty data written back so no updates
/// are lost).
///
/// Returns [`FailoverError::BackupTcamFull`] if the grant log does not fit
/// the backup's protection TCAM; coherence has then already cold-started
/// and the grants replayed before the full one stay installed.
pub fn switch_failover(
    controller: &mut Controller,
    engine: &mut CoherenceEngine,
    now: SimTime,
) -> Result<FailoverReport, FailoverError> {
    let backup_was_current = controller.control_plane().backup_is_current();
    controller.control_plane_mut().replicate_to_backup();

    // Cold-start coherence: every region entry is dropped after forcing the
    // blades holding it to flush. Iterate over a snapshot of bases since
    // reset_region mutates the directory.
    let bases: Vec<(u64, u8)> = engine
        .directory()
        .bases_sorted()
        .into_iter()
        .map(|b| {
            let k = engine
                .directory()
                .entry(b)
                .expect("listed entry exists")
                .size_log2;
            (b, k)
        })
        .collect();
    let flushed_before = engine.flushed_pages();
    let dropped = bases.len();
    for (base, k) in bases {
        engine.reset_region(now, base, k);
    }
    let pages_flushed = engine.flushed_pages() - flushed_before;

    // Replay protection rules from the replicated grant log. (Translation
    // needs no replay: the blade-range partition is config, not state.)
    let mut replayed = 0;
    for g in controller.grants() {
        // The grant may target a TCAM that already holds the entry (we reuse
        // the same engine object as "the backup"); revoke first for
        // idempotence.
        engine.protection.revoke(g.pdid, g.vma);
        engine
            .protection
            .grant(g.pdid, g.vma, g.pc)
            .map_err(|_| FailoverError::BackupTcamFull)?;
        replayed += 1;
    }

    Ok(FailoverReport {
        rules_replayed: replayed,
        directory_entries_dropped: dropped,
        pages_flushed,
        backup_was_current,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_sim::SimTime;

    use crate::controller::tests::rig;
    use crate::protect::PermClass;
    use crate::system::AccessKind;

    fn setup() -> (Controller, CoherenceEngine) {
        rig(2, 2, 1 << 30, 1000)
    }

    #[test]
    fn failover_preserves_protection_and_drops_directory() {
        let (mut ctl, mut eng) = setup();
        let pid = ctl.exec();
        let vma = ctl
            .mmap(&mut eng, pid, 1 << 16, PermClass::ReadWrite)
            .unwrap();
        // Dirty a page on blade 0.
        eng.access(SimTime::ZERO, 0, pid, vma.base, AccessKind::Write)
            .unwrap();
        assert!(eng.directory().entries() > 0);

        let report = switch_failover(&mut ctl, &mut eng, SimTime::from_millis(5)).unwrap();
        assert_eq!(report.rules_replayed, 1);
        assert!(report.directory_entries_dropped >= 1);
        assert_eq!(report.pages_flushed, 1, "dirty page not lost");
        assert_eq!(eng.directory().entries(), 0);

        // Post-failover: permissions still enforced, accesses still work.
        assert!(eng.protection.check(pid, vma.base, AccessKind::Write));
        let out = eng
            .access(SimTime::from_millis(6), 1, pid, vma.base, AccessKind::Read)
            .unwrap();
        assert!(out.remote);
    }

    #[test]
    fn failover_reports_replication_lag() {
        let (mut ctl, mut eng) = setup();
        let pid = ctl.exec();
        // Replicate, then mutate: backup is stale at failure time.
        ctl.control_plane_mut().replicate_to_backup();
        ctl.mmap(&mut eng, pid, 4096, PermClass::ReadOnly).unwrap();
        let report = switch_failover(&mut ctl, &mut eng, SimTime::ZERO).unwrap();
        assert!(!report.backup_was_current);
        // A second failover right after is current.
        let report2 = switch_failover(&mut ctl, &mut eng, SimTime::ZERO).unwrap();
        assert!(report2.backup_was_current);
    }

    #[test]
    fn failover_on_idle_system_is_trivial() {
        let (mut ctl, mut eng) = setup();
        let report = switch_failover(&mut ctl, &mut eng, SimTime::ZERO).unwrap();
        assert_eq!(report.rules_replayed, 0);
        assert_eq!(report.directory_entries_dropped, 0);
        assert_eq!(report.pages_flushed, 0);
    }

    #[test]
    fn a_grant_log_the_backup_tcam_cannot_hold_is_an_error() {
        let (mut ctl, mut eng) = setup();
        let pid = ctl.exec();
        ctl.mmap(&mut eng, pid, 1 << 16, PermClass::ReadWrite)
            .unwrap();
        // The data plane lost the logged grant, and other domains' rows
        // took every TCAM row it held.
        let logged = ctl.grants().next().unwrap();
        eng.protection.revoke(pid, logged.vma);
        let mut other = pid + 1;
        while eng
            .protection
            .grant(other, logged.vma, PermClass::ReadOnly)
            .is_ok()
        {
            other += 1;
        }
        assert_eq!(
            switch_failover(&mut ctl, &mut eng, SimTime::ZERO),
            Err(FailoverError::BackupTcamFull)
        );
    }
}
