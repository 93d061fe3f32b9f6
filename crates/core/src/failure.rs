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
//! 3. **Switch failures**: every control-plane mutation reaches the
//!    backup switch as it happens (control-plane state changes only on
//!    metadata operations, so this costs little). On failover the backup's
//!    data plane is *built from control-plane state*: protection from the
//!    grant log and translation from the migration log, while coherence
//!    restarts cold (all blades flush, directory empty).
//!
//! This module implements the switch-failover reconstruction; the engine
//! hooks are exercised in `tests/integration_failures.rs`.

use mind_sim::SimTime;

use crate::addr::VA_BASE;
use crate::cluster::MindConfig;
use crate::coherence::CoherenceEngine;
use crate::controller::Controller;
use crate::protect::ProtectionTable;
use crate::translate::TranslationTable;

/// Outcome of a switch failover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverReport {
    /// Grant and migration records replayed into the backup's tables.
    pub rules_replayed: usize,
    /// Directory entries dropped (coherence restarts cold).
    pub directory_entries_dropped: usize,
    /// Dirty pages flushed by blades during the cold restart.
    pub pages_flushed: u64,
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

/// Fails over from the primary switch to the backup: cold-starts coherence
/// and builds the backup's match-action tables from the control plane's
/// state.
///
/// `engine` becomes the backup switch's data plane: every region reset
/// (its holders flush their dirty data, so no update is lost, and the
/// directory ends empty), then a new translation table holding the
/// controller's migration log and a new protection table holding its
/// grant log, each built from `cfg` in the primary table's storage. A row
/// the control plane never logged does not reach the backup.
///
/// Returns [`FailoverError::BackupTcamFull`] if the grant log does not fit
/// the backup's protection TCAM. The log replays in pid order, not in the
/// order the primary granted it, so coalescing buddies can need a row the
/// primary never did. Coherence has then cold-started, translation is
/// rebuilt, and the grants replayed before the full one are installed.
pub fn switch_failover(
    controller: &Controller,
    engine: &mut CoherenceEngine,
    cfg: &MindConfig,
    now: SimTime,
) -> Result<FailoverReport, FailoverError> {
    let dropped = engine.directory().entries();
    let flushed_before = engine.flushed_pages();
    // Every region, ascending: a span this sparse walks the directory's
    // entries, so it starts where addresses do.
    engine.reset_range(now, VA_BASE, u64::MAX);
    let pages_flushed = engine.flushed_pages() - flushed_before;

    // Each table is moved out for its successor's build to take over its
    // storage; an empty table holds its place meanwhile.
    let old = std::mem::replace(&mut engine.translation, TranslationTable::new(0, 1, 0));
    engine.translation =
        TranslationTable::build(cfg.n_memory, cfg.blade_span, cfg.rule_capacity, Some(old));
    for &(range, to) in &controller.migrations {
        // Replayed in install order into a table of the primary's size.
        engine
            .translation
            .add_outlier(range.base, range.len, to.blade, to.pa_base)
            .expect("the primary's translation table held this log");
    }
    let old = std::mem::replace(&mut engine.protection, ProtectionTable::new(0));
    engine.protection = ProtectionTable::build(cfg.rule_capacity, Some(old));
    for g in controller.grants() {
        engine
            .protection
            .grant(g.pdid, g.vma, g.pc)
            .map_err(|_| FailoverError::BackupTcamFull)?;
    }

    Ok(FailoverReport {
        rules_replayed: controller.grants().count() + controller.migrations.len(),
        directory_entries_dropped: dropped,
        pages_flushed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_sim::SimTime;

    use crate::controller::tests::rig;
    use crate::protect::PermClass;
    use crate::system::AccessKind;

    fn setup() -> (Controller, CoherenceEngine, MindConfig) {
        rig(2, 2, 1 << 30, 1000)
    }

    #[test]
    fn failover_preserves_protection_and_drops_directory() {
        let (mut ctl, mut eng, cfg) = setup();
        let pid = ctl.exec();
        let vma = ctl
            .mmap(&mut eng, pid, 1 << 16, PermClass::ReadWrite)
            .unwrap();
        // Dirty a page on blade 0.
        eng.access(SimTime::ZERO, 0, pid, vma.base, AccessKind::Write)
            .unwrap();
        assert!(eng.directory().entries() > 0);

        let report = switch_failover(&ctl, &mut eng, &cfg, SimTime::from_millis(5)).unwrap();
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
    fn failover_on_idle_system_is_trivial() {
        let (ctl, mut eng, cfg) = setup();
        let report = switch_failover(&ctl, &mut eng, &cfg, SimTime::ZERO).unwrap();
        assert_eq!(report.rules_replayed, 0);
        assert_eq!(report.directory_entries_dropped, 0);
        assert_eq!(report.pages_flushed, 0);
    }

    /// A row granted on the primary's table behind the control plane's
    /// back has no log record, so the backup never holds it.
    #[test]
    fn the_backup_holds_exactly_the_log() {
        let (mut ctl, mut eng, cfg) = setup();
        let pid = ctl.exec();
        ctl.mmap(&mut eng, pid, 1 << 16, PermClass::ReadWrite)
            .unwrap();
        let logged = ctl.grants().next().unwrap();
        eng.protection
            .grant(pid + 1, logged.vma, PermClass::ReadOnly)
            .unwrap();
        switch_failover(&ctl, &mut eng, &cfg, SimTime::ZERO).unwrap();
        let base = logged.vma.base;
        let foreign = eng.protection.check(pid + 1, base, AccessKind::Read);
        assert!(!foreign, "unlogged row kept");
        assert!(eng.protection.check(pid, base, AccessKind::Write));
        assert_eq!(eng.protection.rule_count(), 1);
    }

    /// The second process's two buddy vmas coalesced into one row before
    /// the first process took the TCAM's other row, so the primary never
    /// needed a third. The backup replays the first process's grant first,
    /// and the second buddy then needs a third row before it coalesces.
    #[test]
    fn a_grant_log_the_backup_tcam_cannot_hold_is_an_error() {
        let (mut ctl, mut eng, cfg) = rig(1, 1, 1 << 20, 2);
        let (first, second) = (ctl.exec(), ctl.exec());
        for _ in 0..2 {
            ctl.mmap(&mut eng, second, 4096, PermClass::ReadWrite)
                .unwrap();
        }
        assert_eq!(eng.protection.rule_count(), 1, "buddies coalesce");
        ctl.mmap(&mut eng, first, 4096, PermClass::ReadWrite)
            .unwrap();
        assert_eq!(eng.protection.rule_count(), 2, "the primary is full");
        assert_eq!(
            switch_failover(&ctl, &mut eng, &cfg, SimTime::ZERO),
            Err(FailoverError::BackupTcamFull)
        );
    }
}
