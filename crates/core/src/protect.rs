//! Domain-based memory protection (paper §4.2).
//!
//! MIND decouples protection from translation: permissions attach to
//! `<protection domain, vma>` pairs of arbitrary size, stored as TCAM range
//! entries. A protection domain (PDID) identifies *who* may access — for
//! unmodified applications MIND uses the PID, but richer schemes (per-client
//! sessions of a database, capability-style domains) are expressible. The
//! permission class (PC) identifies *what* they may do.
//!
//! TCAM entries match power-of-two ranges only; arbitrary vmas are split by
//! [`pow2_cover`] (bounded by ⌈log₂ s⌉ pieces), and the control plane keeps
//! entry counts low by (1) power-of-two aligned allocation so each vma is
//! one entry and (2) coalescing buddy entries with identical domain and
//! class.
//!
//! ## Representation
//!
//! Grants within a domain are **disjoint by invariant** (see
//! [`ProtectionTable::grant`]), so a lookup has at most one match and LPM
//! priority is vacuous. The table therefore stores each domain's entries as
//! packed 8-byte [`Row`]s keyed by PDID rather than sharing a
//! level-indexed TCAM map: a million-tenant population holds one `Row`
//! per tenant after coalescing (the [`Rows::One`] inline case — no heap
//! allocation at all), instead of a hash entry in a 49-level shared map.
//! Lookups scan the domain's own rows — O(rows-in-domain), and
//! coalescing keeps that a handful.

use mind_sim::hash::FastMap;
use mind_switch::tcam::{pow2_cover, TcamFull, VA_BITS};

use crate::addr::Vma;
use crate::system::AccessKind;

/// Protection domain identifier (PID for unmodified applications).
pub type Pdid = u64;

/// Permission classes, mirroring Linux memory permissions for unmodified
/// applications (richer classes are possible, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PermClass {
    /// No access.
    None,
    /// Loads only.
    ReadOnly,
    /// Loads and stores.
    ReadWrite,
}

impl PermClass {
    /// Whether the class admits the access kind.
    pub fn allows(self, kind: AccessKind) -> bool {
        match (self, kind) {
            (PermClass::None, _) => false,
            (PermClass::ReadOnly, AccessKind::Read) => true,
            (PermClass::ReadOnly, AccessKind::Write) => false,
            (PermClass::ReadWrite, _) => true,
        }
    }

    fn to_bits(self) -> u64 {
        match self {
            PermClass::None => 0,
            PermClass::ReadOnly => 1,
            PermClass::ReadWrite => 2,
        }
    }

    fn from_bits(bits: u64) -> Self {
        match bits {
            0 => PermClass::None,
            1 => PermClass::ReadOnly,
            _ => PermClass::ReadWrite,
        }
    }
}

/// One protection entry packed into 8 bytes, laid out `(base << 8) |
/// (size_log2 << 2) | class`: a 48-bit canonical-VA range base, the
/// range's `size_log2` (6 bits), and the permission class (2 bits). The
/// range semantics are exactly [`mind_switch::tcam::TcamEntry`]'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row(u64);

impl Row {
    fn new(base: u64, size_log2: u8, pc: PermClass) -> Row {
        debug_assert!(size_log2 <= VA_BITS, "range wider than address space");
        debug_assert_eq!(
            base & ((1u64 << size_log2) - 1),
            0,
            "row base must be aligned to its size"
        );
        debug_assert!(base < 1u64 << VA_BITS, "base beyond canonical VAs");
        Row((base << 8) | ((size_log2 as u64) << 2) | pc.to_bits())
    }

    fn base(self) -> u64 {
        self.0 >> 8
    }

    fn size_log2(self) -> u8 {
        ((self.0 >> 2) & 0x3F) as u8
    }

    fn pc(self) -> PermClass {
        PermClass::from_bits(self.0 & 0x3)
    }

    /// Whether `addr` falls inside this row's range.
    fn matches(self, addr: u64) -> bool {
        addr >> self.size_log2() == self.base() >> self.size_log2()
    }

    /// Whether this row covers exactly `[base, base + 2^k)`.
    fn is(self, base: u64, k: u8) -> bool {
        self.base() == base && self.size_log2() == k
    }
}

/// A domain's installed rows. Coalescing drives most domains to a single
/// entry, so the one-row case is stored inline — a million-tenant table
/// costs one map slot and zero side allocations per tenant.
#[derive(Debug, Clone)]
enum Rows {
    One(Row),
    Many(Vec<Row>),
}

impl Rows {
    fn iter(&self) -> std::slice::Iter<'_, Row> {
        match self {
            Rows::One(row) => std::slice::from_ref(row).iter(),
            Rows::Many(rows) => rows.iter(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Rows::One(_) => 1,
            Rows::Many(rows) => rows.len(),
        }
    }

    fn push(&mut self, row: Row) {
        match self {
            Rows::One(first) => *self = Rows::Many(vec![*first, row]),
            Rows::Many(rows) => rows.push(row),
        }
    }
}

/// The in-switch protection table.
#[derive(Debug, Clone)]
pub struct ProtectionTable {
    /// Per-domain packed rows; a domain with no grants holds no slot.
    rows: FastMap<Pdid, Rows>,
    capacity: usize,
    used: usize,
    checks: u64,
    denials: u64,
}

impl ProtectionTable {
    /// Creates a table with `tcam_capacity` entries.
    pub fn new(tcam_capacity: usize) -> Self {
        ProtectionTable {
            rows: FastMap::default(),
            capacity: tcam_capacity,
            used: 0,
            checks: 0,
            denials: 0,
        }
    }

    /// Grants `pc` to `<pdid, vma>`; splits unaligned vmas into
    /// power-of-two pieces and coalesces buddies afterwards.
    ///
    /// Rolls back on TCAM exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if the vma overlaps an existing grant of the same domain.
    /// A domain's grants are **disjoint by invariant** (change a range's
    /// class with [`ProtectionTable::revoke`] + re-grant, not by stacking
    /// nested entries): the control plane allocates disjoint vmas, and
    /// [`ProtectionTable::check`] takes a domain's first matching row as
    /// its only one, with no longest-prefix priority among rows.
    pub fn grant(&mut self, pdid: Pdid, vma: Vma, pc: PermClass) -> Result<(), TcamFull> {
        assert!(
            !self.overlaps(pdid, vma),
            "protection grants within a domain must be disjoint \
             (revoke before re-granting {:#x}+{:#x} for domain {pdid})",
            vma.base,
            vma.len,
        );
        let pieces = pow2_cover(vma.base, vma.len);
        for (installed, (base, k)) in pieces.clone().enumerate() {
            if let Err(full) = self.insert_row(pdid, Row::new(base, k, pc)) {
                for (base, k) in pieces.take(installed) {
                    self.remove_row(pdid, base, k);
                }
                return Err(full);
            }
        }
        for (base, k) in pieces {
            self.coalesce_from(pdid, base, k);
        }
        Ok(())
    }

    /// Whether any existing entry of `pdid` overlaps `vma` (the
    /// disjointness check behind [`ProtectionTable::grant`]; control-plane
    /// cold path, and only scans the domain's own rows).
    fn overlaps(&self, pdid: Pdid, vma: Vma) -> bool {
        let end = vma.base + vma.len;
        self.rows.get(&pdid).is_some_and(|rows| {
            rows.iter().any(|r| {
                let rbase = r.base();
                let rend = rbase + (1u64 << r.size_log2());
                rbase < end && vma.base < rend
            })
        })
    }

    /// Installs one row under `pdid`, or reports the table full.
    fn insert_row(&mut self, pdid: Pdid, row: Row) -> Result<(), TcamFull> {
        if self.used >= self.capacity {
            return Err(TcamFull);
        }
        match self.rows.entry(pdid) {
            std::collections::hash_map::Entry::Occupied(mut slot) => slot.get_mut().push(row),
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Rows::One(row));
            }
        }
        self.used += 1;
        Ok(())
    }

    /// Removes the row covering exactly `[base, base + 2^k)`, returning
    /// its class. Drops the domain's map slot when its last row goes.
    fn remove_row(&mut self, pdid: Pdid, base: u64, k: u8) -> Option<PermClass> {
        let rows = self.rows.get_mut(&pdid)?;
        let (pc, now_empty) = match rows {
            Rows::One(row) => {
                if !row.is(base, k) {
                    return None;
                }
                (row.pc(), true)
            }
            Rows::Many(many) => {
                let i = many.iter().position(|r| r.is(base, k))?;
                let pc = many.swap_remove(i).pc();
                if many.len() == 1 {
                    let only = many[0];
                    *rows = Rows::One(only);
                }
                (pc, false)
            }
        };
        if now_empty {
            self.rows.remove(&pdid);
        }
        self.used -= 1;
        Some(pc)
    }

    /// The class of the row covering exactly `[base, base + 2^k)`, if
    /// installed.
    fn class_of(&self, pdid: Pdid, base: u64, k: u8) -> Option<PermClass> {
        self.rows
            .get(&pdid)?
            .iter()
            .find(|r| r.is(base, k))
            .map(|r| r.pc())
    }

    /// The domain's row covering `vaddr`, if any. Disjointness makes the
    /// first match the only match.
    fn matching(&self, pdid: Pdid, vaddr: u64) -> Option<Row> {
        self.rows
            .get(&pdid)?
            .iter()
            .copied()
            .find(|r| r.matches(vaddr))
    }

    /// Repeatedly merges `[base, base + 2^k)` with its buddy while both
    /// exist with the same permission class (§4.2 "coalesces adjacent
    /// entries"). Buddy/parent arithmetic matches
    /// [`mind_switch::tcam::TcamEntry`]'s `buddy` / `parent`.
    fn coalesce_from(&mut self, pdid: Pdid, mut base: u64, mut k: u8) {
        loop {
            let Some(pc) = self.class_of(pdid, base, k) else {
                return;
            };
            let buddy = base ^ (1u64 << k);
            let Some(buddy_pc) = self.class_of(pdid, buddy, k) else {
                return;
            };
            if buddy_pc != pc {
                return;
            }
            self.remove_row(pdid, base, k);
            self.remove_row(pdid, buddy, k);
            base &= !(1u64 << k);
            k += 1;
            self.insert_row(pdid, Row::new(base, k, pc))
                .expect("merge frees two entries, parent always fits");
        }
    }

    /// Revokes the entries covering `<pdid, vma>`. Returns entries removed.
    ///
    /// The vma must have been granted as a whole (partial revocation of a
    /// coalesced entry re-splits it first).
    pub fn revoke(&mut self, pdid: Pdid, vma: Vma) -> usize {
        let mut removed = 0;
        for (base, k) in pow2_cover(vma.base, vma.len) {
            removed += self.revoke_range(pdid, base, k);
        }
        removed
    }

    fn revoke_range(&mut self, pdid: Pdid, base: u64, k: u8) -> usize {
        if self.remove_row(pdid, base, k).is_some() {
            return 1;
        }
        // The range may be covered by a coalesced ancestor: split it down.
        if let Some(covering) = self.matching(pdid, base) {
            if covering.size_log2() > k {
                let pc = covering.pc();
                self.remove_row(pdid, covering.base(), covering.size_log2());
                // Re-install the ancestor minus [base, base + 2^k).
                let (mut cur_base, mut cur_k) = (covering.base(), covering.size_log2());
                while cur_k > k {
                    cur_k -= 1;
                    let half = 1u64 << cur_k;
                    let (keep, descend) = if base & half == 0 {
                        (cur_base + half, cur_base)
                    } else {
                        (cur_base, cur_base + half)
                    };
                    self.insert_row(pdid, Row::new(keep, cur_k, pc))
                        .expect("split of removed entry fits");
                    cur_base = descend;
                }
                return 1;
            }
        }
        0
    }

    /// Checks whether `<pdid>` may perform `kind` at `vaddr` — the data-
    /// plane TCAM parallel range match.
    pub fn check(&mut self, pdid: Pdid, vaddr: u64, kind: AccessKind) -> bool {
        self.checks += 1;
        let allowed = self
            .matching(pdid, vaddr)
            .is_some_and(|row| row.pc().allows(kind));
        if !allowed {
            self.denials += 1;
        }
        allowed
    }

    /// Installed TCAM entries (Figure 8 center counts these).
    pub fn rule_count(&self) -> usize {
        self.used
    }

    /// Installed TCAM entries belonging to one protection domain — the
    /// quantity a multi-tenant control plane must drive back to zero when
    /// the domain's owner departs.
    pub fn entries_for(&self, pdid: Pdid) -> usize {
        self.rows.get(&pdid).map_or(0, Rows::len)
    }

    /// Checks performed.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Checks denied.
    pub fn denials(&self) -> u64 {
        self.denials
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perm_class_semantics() {
        assert!(PermClass::ReadWrite.allows(AccessKind::Write));
        assert!(PermClass::ReadWrite.allows(AccessKind::Read));
        assert!(PermClass::ReadOnly.allows(AccessKind::Read));
        assert!(!PermClass::ReadOnly.allows(AccessKind::Write));
        assert!(!PermClass::None.allows(AccessKind::Read));
    }

    #[test]
    fn row_packing_round_trips() {
        for &(base, k, pc) in &[
            (0u64, 0u8, PermClass::None),
            (0x4000, 12, PermClass::ReadOnly),
            ((1u64 << VA_BITS) - (1 << 20), 20, PermClass::ReadWrite),
            (0, VA_BITS, PermClass::ReadWrite),
        ] {
            let row = Row::new(base, k, pc);
            assert_eq!(row.base(), base);
            assert_eq!(row.size_log2(), k);
            assert_eq!(row.pc(), pc);
        }
    }

    #[test]
    fn grant_and_check_basic() {
        let mut p = ProtectionTable::new(64);
        p.grant(7, Vma::new(0x4000, 0x4000), PermClass::ReadWrite)
            .unwrap();
        assert!(p.check(7, 0x4000, AccessKind::Write));
        assert!(p.check(7, 0x7FFF, AccessKind::Read));
        assert!(!p.check(7, 0x8000, AccessKind::Read), "past the vma");
        assert!(!p.check(8, 0x4000, AccessKind::Read), "other domain");
        assert_eq!(p.denials(), 2);
        assert_eq!(p.checks(), 4);
    }

    #[test]
    fn pow2_vma_is_single_entry() {
        let mut p = ProtectionTable::new(64);
        p.grant(1, Vma::new(0x10_0000, 1 << 20), PermClass::ReadOnly)
            .unwrap();
        assert_eq!(p.rule_count(), 1);
    }

    #[test]
    fn unaligned_vma_splits_bounded() {
        let mut p = ProtectionTable::new(64);
        // 12 KB = 4K + 8K pieces = 2 entries <= ceil(log2(12K)).
        p.grant(1, Vma::new(0x1000, 0x3000), PermClass::ReadWrite)
            .unwrap();
        assert!(p.rule_count() <= 14);
        assert!(p.check(1, 0x1000, AccessKind::Write));
        assert!(p.check(1, 0x3FFF, AccessKind::Write));
        assert!(!p.check(1, 0x4000, AccessKind::Read));
    }

    #[test]
    fn adjacent_grants_coalesce() {
        let mut p = ProtectionTable::new(64);
        p.grant(1, Vma::new(0x8000, 0x1000), PermClass::ReadWrite)
            .unwrap();
        p.grant(1, Vma::new(0x9000, 0x1000), PermClass::ReadWrite)
            .unwrap();
        assert_eq!(p.rule_count(), 1, "buddies merged into one 8K entry");
        assert!(p.check(1, 0x8000, AccessKind::Write));
        assert!(p.check(1, 0x9FFF, AccessKind::Write));
    }

    #[test]
    fn coalescing_cascades() {
        let mut p = ProtectionTable::new(64);
        for i in 0..4u64 {
            p.grant(
                1,
                Vma::new(0x1_0000 + i * 0x1000, 0x1000),
                PermClass::ReadOnly,
            )
            .unwrap();
        }
        assert_eq!(p.rule_count(), 1, "four 4K buddies -> one 16K entry");
    }

    #[test]
    fn different_classes_do_not_coalesce() {
        let mut p = ProtectionTable::new(64);
        p.grant(1, Vma::new(0x8000, 0x1000), PermClass::ReadWrite)
            .unwrap();
        p.grant(1, Vma::new(0x9000, 0x1000), PermClass::ReadOnly)
            .unwrap();
        assert_eq!(p.rule_count(), 2);
        assert!(p.check(1, 0x8000, AccessKind::Write));
        assert!(!p.check(1, 0x9000, AccessKind::Write));
    }

    #[test]
    fn different_domains_do_not_coalesce() {
        let mut p = ProtectionTable::new(64);
        p.grant(1, Vma::new(0x8000, 0x1000), PermClass::ReadWrite)
            .unwrap();
        p.grant(2, Vma::new(0x9000, 0x1000), PermClass::ReadWrite)
            .unwrap();
        assert_eq!(p.rule_count(), 2);
    }

    #[test]
    fn revoke_removes_access() {
        let mut p = ProtectionTable::new(64);
        let vma = Vma::new(0x4000, 0x4000);
        p.grant(1, vma, PermClass::ReadWrite).unwrap();
        assert_eq!(p.revoke(1, vma), 1);
        assert!(!p.check(1, 0x4000, AccessKind::Read));
        assert_eq!(p.rule_count(), 0);
    }

    #[test]
    fn revoke_part_of_coalesced_entry_resplits() {
        let mut p = ProtectionTable::new(64);
        p.grant(1, Vma::new(0x8000, 0x1000), PermClass::ReadWrite)
            .unwrap();
        p.grant(1, Vma::new(0x9000, 0x1000), PermClass::ReadWrite)
            .unwrap();
        assert_eq!(p.rule_count(), 1);
        // Revoke just the first page: the 8K entry must split.
        assert_eq!(p.revoke(1, Vma::new(0x8000, 0x1000)), 1);
        assert!(!p.check(1, 0x8000, AccessKind::Read));
        assert!(p.check(1, 0x9000, AccessKind::Write), "other half intact");
    }

    #[test]
    fn session_isolation_use_case() {
        // A database assigns one domain per client session (§4.2).
        let mut p = ProtectionTable::new(64);
        let session_a = 100;
        let session_b = 101;
        let buf_a = Vma::new(0x10_0000, 1 << 16);
        let buf_b = Vma::new(0x20_0000, 1 << 16);
        p.grant(session_a, buf_a, PermClass::ReadWrite).unwrap();
        p.grant(session_b, buf_b, PermClass::ReadWrite).unwrap();
        assert!(p.check(session_a, buf_a.base, AccessKind::Write));
        assert!(!p.check(session_a, buf_b.base, AccessKind::Read));
        assert!(!p.check(session_b, buf_a.base, AccessKind::Read));
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn nested_grant_rejected() {
        // A check takes a domain's first matching row as its only one;
        // stacking a nested entry must be refused loudly rather than
        // silently shadowing LPM.
        let mut p = ProtectionTable::new(64);
        p.grant(1, Vma::new(0x0, 1 << 20), PermClass::ReadOnly).unwrap();
        let _ = p.grant(1, Vma::new(0x4000, 0x4000), PermClass::ReadWrite);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn enclosing_grant_rejected() {
        let mut p = ProtectionTable::new(64);
        p.grant(1, Vma::new(0x4000, 0x4000), PermClass::ReadWrite).unwrap();
        let _ = p.grant(1, Vma::new(0x0, 1 << 20), PermClass::ReadOnly);
    }

    #[test]
    fn disjoint_and_cross_domain_grants_accepted() {
        let mut p = ProtectionTable::new(64);
        p.grant(1, Vma::new(0x0, 0x4000), PermClass::ReadWrite).unwrap();
        p.grant(1, Vma::new(0x4000, 0x4000), PermClass::ReadOnly).unwrap();
        // Same range under another domain is not an overlap.
        p.grant(2, Vma::new(0x0, 0x4000), PermClass::ReadWrite).unwrap();
        // Revoke + re-grant is the sanctioned way to change a range.
        p.revoke(1, Vma::new(0x0, 0x4000));
        p.grant(1, Vma::new(0x0, 0x4000), PermClass::ReadOnly).unwrap();
        assert!(!p.check(1, 0x0, AccessKind::Write));
    }

    #[test]
    fn tcam_exhaustion_rolls_back_grant() {
        let mut p = ProtectionTable::new(1);
        // Requires 2 entries.
        let err = p.grant(1, Vma::new(0x1000, 0x3000), PermClass::ReadOnly);
        assert!(err.is_err());
        assert_eq!(p.rule_count(), 0);
    }

    #[test]
    fn departure_drops_every_row_and_the_domain_slot() {
        // A churn workload's whole-domain teardown: grant a few disjoint
        // vmas, revoke them all, and both the per-domain and global entry
        // counts return exactly to zero.
        let mut p = ProtectionTable::new(64);
        let vmas = [
            Vma::new(0x1_0000, 0x1000),
            Vma::new(0x4_0000, 0x3000),
            Vma::new(0x8_0000, 0x8000),
        ];
        for vma in vmas {
            p.grant(9, vma, PermClass::ReadWrite).unwrap();
        }
        assert!(p.entries_for(9) >= 3);
        for vma in vmas {
            assert!(p.revoke(9, vma) >= 1);
        }
        assert_eq!(p.entries_for(9), 0);
        assert_eq!(p.rule_count(), 0);
    }
}
