//! Materialized coherence state-transition tables (paper §6.3, §8).
//!
//! A single MAU cannot compute a coherence transition, so MIND stores the
//! *entire* transition function as an exact-match table in the second MAU:
//! `(state, access kind, requester role) → (actions, next state)`. This
//! module generates those tables for three protocols:
//!
//! - **MSI** — the paper's implementation;
//! - **MESI** — adds Exclusive: a sole reader is granted a writable
//!   mapping, so private read-then-write patterns never pay the S→M
//!   upgrade fault;
//! - **MOESI** — adds Owned: a modified region downgrades *without*
//!   writing back, the old owner serves subsequent fetches cache-to-cache,
//!   eliminating the write-back and one memory round trip (§8 "Other
//!   coherence protocols" conjectures better scalability from exactly
//!   these two savings).
//!
//! The row count stays in the tens (§8: "the number of TCAM entries
//! required for STT entries would be quite small"); a unit test checks it.

use crate::directory::MsiState;
use crate::system::AccessKind;

/// Which coherence protocol the switch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Protocol {
    /// Modified / Shared / Invalid — the paper's choice (§4.3.2).
    #[default]
    Msi,
    /// MSI + Exclusive.
    Mesi,
    /// MESI + Owned.
    Moesi,
}

impl Protocol {
    /// Short label for reports.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Msi => "MSI",
            Protocol::Mesi => "MESI",
            Protocol::Moesi => "MOESI",
        }
    }
}

/// The requester's relation to the region's current holders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The requester is the region's exclusive owner (M/E/O).
    Owner,
    /// The requester already holds a shared copy.
    Sharer,
    /// The requester holds nothing.
    Other,
}

/// Who must be invalidated before/while the request completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalScope {
    /// Nobody.
    None,
    /// Every holder except the requester, downgraded to read-only copies.
    DowngradeOthers,
    /// Every holder except the requester, fully invalidated.
    InvalidateOthers,
}

/// Where the requested page's data comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchSource {
    /// One-sided RDMA read from the home memory blade.
    Memory,
    /// Cache-to-cache transfer from the current owner blade (MOESI).
    OwnerCache,
}

/// One materialized transition row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SttRow {
    /// The region's next stable state.
    pub next: MsiState,
    /// Invalidation action.
    pub inval: InvalScope,
    /// Whether invalidated holders must flush dirty pages to memory.
    /// MOESI's Owned transitions skip the flush — that is the protocol's
    /// write-back saving.
    pub flush_dirty: bool,
    /// Data source for the fetch (ignored for upgrade-only faults).
    pub fetch: FetchSource,
    /// Whether the fetch must wait for invalidation ACKs (true for
    /// transitions out of a dirty exclusive state).
    pub sequential: bool,
    /// Whether the page is installed writable at the requester (a write,
    /// or MESI's exclusive read grant).
    pub insert_writable: bool,
}

/// Every directory state, in discriminant order.
const STATES: [MsiState; 5] = [
    MsiState::Invalid,
    MsiState::Shared,
    MsiState::Modified,
    MsiState::Exclusive,
    MsiState::Owned,
];

/// Every requester role, in discriminant order.
const ROLES: [Role; 3] = [Role::Owner, Role::Sharer, Role::Other];

/// Size of the key space `state × is_write × role`.
const KEYS: usize = STATES.len() * 2 * ROLES.len();

/// A key's place in [`SttTable::rows_by_key`].
fn key_index(state: MsiState, is_write: bool, role: Role) -> usize {
    (state as usize * 2 + is_write as usize) * ROLES.len() + role as usize
}

/// A protocol's full materialized table, as the second MAU holds it.
#[derive(Debug)]
pub struct SttTable {
    /// The rows indexed by [`key_index`]; `None` where the combination
    /// cannot occur. The key space is tiny, so no hasher is needed.
    rows_by_key: [Option<SttRow>; KEYS],
}

impl SttTable {
    /// Materializes the table for `protocol`.
    pub fn new(protocol: Protocol) -> Self {
        let mut rows_by_key = [None; KEYS];
        for state in STATES {
            for is_write in [false, true] {
                for role in ROLES {
                    rows_by_key[key_index(state, is_write, role)] =
                        Self::row(protocol, state, is_write, role);
                }
            }
        }
        SttTable { rows_by_key }
    }

    /// Number of materialized rows (switch storage cost, §8).
    #[cfg(test)]
    pub(crate) fn rows(&self) -> usize {
        self.rows_by_key.iter().filter(|row| row.is_some()).count()
    }

    /// Looks up the transition for a fault.
    ///
    /// # Panics
    ///
    /// Panics if the combination is not in the table — that would be a
    /// protocol bug, not a runtime condition.
    pub fn lookup(&self, state: MsiState, kind: AccessKind, role: Role) -> SttRow {
        self.rows_by_key[key_index(state, kind.is_write(), role)]
            .unwrap_or_else(|| panic!("no STT row for {state:?}/{kind:?}/{role:?}"))
    }

    /// Defines one row; `None` where the combination cannot occur (e.g. a
    /// Sharer role on an Invalid region).
    fn row(protocol: Protocol, state: MsiState, is_write: bool, role: Role) -> Option<SttRow> {
        use FetchSource::*;
        use InvalScope::*;
        use MsiState::*;
        use Role::*;

        let row = |next, inval, flush_dirty, fetch, sequential, insert_writable| {
            Some(SttRow {
                next,
                inval,
                flush_dirty,
                fetch,
                sequential,
                insert_writable,
            })
        };

        match (state, is_write, role) {
            // --- Invalid: plain fetches. MESI/MOESI grant Exclusive on a
            // read so the first write is a silent cache hit.
            (Invalid, false, Other) => match protocol {
                Protocol::Msi => row(Shared, None, false, Memory, false, false),
                _ => row(Exclusive, None, false, Memory, false, true),
            },
            (Invalid, true, Other) => row(Modified, None, false, Memory, false, true),
            (Invalid, _, _) => Option::None, // No holders => no Owner/Sharer.

            // --- Shared: reads join; writes invalidate the other sharers
            // in parallel with the fetch (their copies are clean).
            (Shared, false, _) => row(Shared, None, false, Memory, false, false),
            (Shared, true, _) => row(Modified, InvalidateOthers, false, Memory, false, true),

            // --- Exclusive: possibly silently dirtied, so leaving it is
            // exactly like leaving Modified.
            (Exclusive, _, _) if protocol == Protocol::Msi => Option::None,
            (Exclusive, false, Owner) => row(Exclusive, None, false, Memory, false, true),
            (Exclusive, true, Owner) => row(Exclusive, None, false, Memory, false, true),
            (Exclusive, false, _) => Self::read_of_dirty(protocol),
            (Exclusive, true, _) => row(Modified, InvalidateOthers, true, Memory, true, true),

            // --- Modified.
            (Modified, false, Owner) => row(Modified, None, false, Memory, false, true),
            (Modified, true, Owner) => row(Modified, None, false, Memory, false, true),
            (Modified, false, _) => Self::read_of_dirty(protocol),
            (Modified, true, _) => row(Modified, InvalidateOthers, true, Memory, true, true),

            // --- Owned (MOESI only): the owner serves reads cache-to-cache
            // with no write-back; a write collapses everything back to M.
            (Owned, _, _) if protocol != Protocol::Moesi => Option::None,
            (Owned, false, Owner) => row(Owned, None, false, Memory, false, false),
            (Owned, false, _) => row(Owned, None, false, OwnerCache, false, false),
            (Owned, true, _) => row(Modified, InvalidateOthers, true, Memory, true, true),
        }
    }

    /// A read of a dirty-exclusive (M or E) region by a non-owner: MSI and
    /// MESI downgrade the owner with a write-back and fetch from memory,
    /// sequentially; MOESI downgrades *without* write-back and the old
    /// owner serves the data (→ Owned).
    fn read_of_dirty(protocol: Protocol) -> Option<SttRow> {
        match protocol {
            Protocol::Moesi => Some(SttRow {
                next: MsiState::Owned,
                inval: InvalScope::DowngradeOthers,
                flush_dirty: false,
                fetch: FetchSource::OwnerCache,
                sequential: true,
                insert_writable: false,
            }),
            _ => Some(SttRow {
                next: MsiState::Shared,
                inval: InvalScope::DowngradeOthers,
                flush_dirty: true,
                fetch: FetchSource::Memory,
                sequential: true,
                insert_writable: false,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_counts_are_tens_not_thousands() {
        let msi = SttTable::new(Protocol::Msi).rows();
        let mesi = SttTable::new(Protocol::Mesi).rows();
        let moesi = SttTable::new(Protocol::Moesi).rows();
        assert!(msi < mesi && mesi < moesi, "{msi} {mesi} {moesi}");
        assert!(moesi <= 40, "STT stays tiny: {moesi} rows");
    }

    #[test]
    fn msi_matches_paper_transitions() {
        let stt = SttTable::new(Protocol::Msi);
        // I + read -> S, plain fetch.
        let r = stt.lookup(MsiState::Invalid, AccessKind::Read, Role::Other);
        assert_eq!(r.next, MsiState::Shared);
        assert_eq!(r.inval, InvalScope::None);
        assert!(!r.insert_writable);
        // S + write -> M with parallel invalidation of the other sharers.
        let r = stt.lookup(MsiState::Shared, AccessKind::Write, Role::Sharer);
        assert_eq!(r.next, MsiState::Modified);
        assert_eq!(r.inval, InvalScope::InvalidateOthers);
        assert!(!r.sequential, "S->M overlaps inval with fetch (Fig 7)");
        // M + read by another blade -> sequential downgrade with flush.
        let r = stt.lookup(MsiState::Modified, AccessKind::Read, Role::Other);
        assert_eq!(r.next, MsiState::Shared);
        assert!(r.sequential && r.flush_dirty);
    }

    #[test]
    fn mesi_grants_exclusive_on_sole_read() {
        let stt = SttTable::new(Protocol::Mesi);
        let r = stt.lookup(MsiState::Invalid, AccessKind::Read, Role::Other);
        assert_eq!(r.next, MsiState::Exclusive);
        assert!(r.insert_writable, "E maps writable: silent first write");
        // Leaving E behaves like leaving M (may be silently dirty).
        let r = stt.lookup(MsiState::Exclusive, AccessKind::Read, Role::Other);
        assert!(r.flush_dirty && r.sequential);
    }

    #[test]
    fn moesi_skips_writeback_on_downgrade() {
        let stt = SttTable::new(Protocol::Moesi);
        let r = stt.lookup(MsiState::Modified, AccessKind::Read, Role::Other);
        assert_eq!(r.next, MsiState::Owned);
        assert!(!r.flush_dirty, "no write-back to disaggregated memory");
        assert_eq!(r.fetch, FetchSource::OwnerCache);
        // Owned serves further readers cache-to-cache with no invalidation.
        let r = stt.lookup(MsiState::Owned, AccessKind::Read, Role::Other);
        assert_eq!(r.inval, InvalScope::None);
        assert_eq!(r.fetch, FetchSource::OwnerCache);
        // A write anywhere collapses O back to M with a full flush.
        let r = stt.lookup(MsiState::Owned, AccessKind::Write, Role::Sharer);
        assert_eq!(r.next, MsiState::Modified);
        assert!(r.flush_dirty);
    }

    /// The array the simulator resolves through against the protocol's
    /// definition of its rows: the same row or the same absence for every
    /// key of every protocol, and no two keys in one place.
    #[test]
    fn dense_lookup_agrees_with_the_mau_table() {
        let mut places = std::collections::HashSet::new();
        for protocol in [Protocol::Msi, Protocol::Mesi, Protocol::Moesi] {
            let stt = SttTable::new(protocol);
            let mut present = 0;
            for state in STATES {
                for (is_write, kind) in [(false, AccessKind::Read), (true, AccessKind::Write)] {
                    for role in ROLES {
                        let by_key = stt.rows_by_key[key_index(state, is_write, role)];
                        let defined = SttTable::row(protocol, state, is_write, role);
                        assert_eq!(by_key, defined, "{protocol:?} {state:?}/{kind:?}/{role:?}");
                        if let Some(row) = defined {
                            assert_eq!(stt.lookup(state, kind, role), row);
                            present += 1;
                        }
                        places.insert(key_index(state, is_write, role));
                    }
                }
            }
            assert_eq!(present, stt.rows());
        }
        assert_eq!(places.len(), KEYS);
    }

    #[test]
    fn msi_has_no_exclusive_or_owned_rows() {
        let stt = SttTable::new(Protocol::Msi);
        for state in [MsiState::Exclusive, MsiState::Owned] {
            for is_write in [false, true] {
                for role in ROLES {
                    assert_eq!(stt.rows_by_key[key_index(state, is_write, role)], None);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no STT row")]
    fn impossible_combination_panics() {
        let stt = SttTable::new(Protocol::Msi);
        stt.lookup(MsiState::Invalid, AccessKind::Read, Role::Owner);
    }
}
