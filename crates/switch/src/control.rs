//! Switch control-plane CPU model.
//!
//! The general-purpose CPU on the switch hosts MIND's control program:
//! process/memory management, permission assignment, directory-entry
//! allocation, and the bounded-splitting epoch driver (paper Figure 2). It
//! also replicates its state to a backup switch for fault tolerance (§4.4);
//! since control-plane state only changes on metadata operations, the
//! replication overhead is small. This module counts control-plane work and
//! models the primary/backup version handshake; control-plane operations
//! take no simulated time.

/// The switch control plane (general-purpose CPU + DRAM).
#[derive(Debug, Clone, Default)]
pub struct ControlPlane {
    syscalls_handled: u64,
    rules_installed: u64,
    /// Monotone version of control-plane state; bumped on every mutation.
    version: u64,
    /// Version most recently replicated to the backup switch.
    replicated_version: u64,
    replications: u64,
}

impl ControlPlane {
    /// Handles one intercepted system call.
    pub fn handle_syscall(&mut self) {
        self.syscalls_handled += 1;
        self.version += 1;
    }

    /// Installs one data-plane rule (match-action entry or directory slot)
    /// over PCIe.
    pub fn install_rule(&mut self) {
        self.rules_installed += 1;
        self.version += 1;
    }

    /// Removes one data-plane rule.
    pub fn remove_rule(&mut self) {
        self.version += 1;
    }

    /// Replicates state to the backup switch; returns the number of
    /// mutations shipped (0 means the backup was already current).
    pub fn replicate_to_backup(&mut self) -> u64 {
        let delta = self.version - self.replicated_version;
        self.replicated_version = self.version;
        if delta > 0 {
            self.replications += 1;
        }
        delta
    }

    /// Whether a backup promoted now would observe the latest state.
    pub fn backup_is_current(&self) -> bool {
        self.replicated_version == self.version
    }

    /// Reconstructs data-plane state at the backup after a switch failure:
    /// in the model this is just a check that replication was current,
    /// returning the replayable version.
    pub fn failover(&self) -> u64 {
        self.replicated_version
    }

    /// System calls handled.
    pub fn syscalls_handled(&self) -> u64 {
        self.syscalls_handled
    }

    /// Rules installed into the data plane.
    pub fn rules_installed(&self) -> u64 {
        self.rules_installed
    }

    /// Current state version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Replication rounds that shipped at least one mutation.
    pub fn replications(&self) -> u64 {
        self.replications
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syscalls_bump_version() {
        let mut c = ControlPlane::default();
        c.handle_syscall();
        assert_eq!(c.syscalls_handled(), 1);
        assert_eq!(c.version(), 1);
    }

    #[test]
    fn rule_lifecycle_counted() {
        let mut c = ControlPlane::default();
        c.install_rule();
        c.install_rule();
        c.remove_rule();
        assert_eq!(c.rules_installed(), 2);
        assert_eq!(c.version(), 3);
    }

    #[test]
    fn replication_ships_deltas_once() {
        let mut c = ControlPlane::default();
        c.handle_syscall();
        c.install_rule();
        assert!(!c.backup_is_current());
        assert_eq!(c.replicate_to_backup(), 2);
        assert!(c.backup_is_current());
        assert_eq!(c.replicate_to_backup(), 0, "no new mutations");
        assert_eq!(c.replications(), 1);
    }

    #[test]
    fn failover_returns_replicated_version() {
        let mut c = ControlPlane::default();
        c.handle_syscall();
        c.replicate_to_backup();
        c.install_rule(); // Not yet replicated.
        assert_eq!(c.failover(), 1, "backup lags by the unreplicated rule");
    }
}
