//! Storage-efficient in-network address translation (paper §4.1).
//!
//! Because the global VA space is range-partitioned across memory blades
//! with a one-to-one VA↔PA mapping inside each partition, translation needs
//! just **one entry per memory blade**: any address in a blade's range is
//! routed to that blade at `offset = vaddr - partition_base`.
//!
//! Two exceptions need *outlier entries*, stored in switch TCAM where
//! longest-prefix matching guarantees the most specific entry wins:
//!
//! - static virtual addresses embedded in unmodified binaries, and
//! - pages migrated between memory blades.

use mind_switch::tcam::{pow2_cover, Tcam, TcamEntry, TcamFull};

use crate::addr::{PhysAddr, VA_BASE};

/// An outlier translation target: the range maps to `blade` starting at
/// `pa_base` (physical offset of the range's first byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutlierTarget {
    /// Destination memory blade.
    pub blade: u16,
    /// Physical offset of the first byte of the matched range.
    pub pa_base: u64,
}

/// The translation module installed in the switch data plane.
#[derive(Debug, Clone)]
pub struct TranslationTable {
    n_blades: u16,
    /// log2 of the (power-of-two) span, so the partition is a shift and a
    /// mask, as it is in the switch pipeline.
    span_log2: u32,
    outliers: Tcam<OutlierTarget>,
}

impl TranslationTable {
    /// Creates the table for `n_blades` partitions of `blade_span` bytes,
    /// with `tcam_capacity` outlier entries available.
    pub fn new(n_blades: u16, blade_span: u64, tcam_capacity: usize) -> Self {
        assert!(blade_span.is_power_of_two(), "blade span must be pow2");
        TranslationTable {
            n_blades,
            span_log2: blade_span.trailing_zeros(),
            outliers: Tcam::new(tcam_capacity),
        }
    }

    /// Translates a global virtual address to its physical location.
    ///
    /// Outlier TCAM entries (most specific) take precedence over the
    /// blade-range partition. Returns `None` for addresses outside the
    /// space.
    pub fn translate(&mut self, vaddr: u64) -> Option<PhysAddr> {
        let redirected = Self::redirect(self.outliers.lookup(0, vaddr), vaddr);
        redirected.or_else(|| self.partition_of(vaddr))
    }

    /// [`TranslationTable::translate`] as the control plane sees it: the
    /// same answer without counting a data-plane TCAM lookup.
    pub fn resolve(&self, vaddr: u64) -> Option<PhysAddr> {
        Self::redirect(self.outliers.peek_lookup(0, vaddr), vaddr)
            .or_else(|| self.partition_of(vaddr))
    }

    fn redirect(hit: Option<(TcamEntry, &OutlierTarget)>, vaddr: u64) -> Option<PhysAddr> {
        hit.map(|(entry, target)| PhysAddr {
            blade: target.blade,
            offset: target.pa_base + (vaddr - entry.base),
        })
    }

    /// The range-partition translation alone — pure arithmetic, no TCAM.
    ///
    /// Equals [`TranslationTable::translate`] whenever no outlier entry
    /// covers `vaddr`.
    #[inline]
    pub fn partition_of(&self, vaddr: u64) -> Option<PhysAddr> {
        if vaddr < VA_BASE {
            return None;
        }
        let rel = vaddr - VA_BASE;
        let blade = rel >> self.span_log2;
        if blade >= self.n_blades as u64 {
            return None;
        }
        Some(PhysAddr {
            blade: blade as u16,
            offset: rel & ((1u64 << self.span_log2) - 1),
        })
    }

    /// Installs outlier entries mapping `[va_base, va_base + len)` to
    /// `blade` at physical offset `pa_base` (page migration §4.1, or a
    /// static binary address range).
    ///
    /// The range is decomposed into power-of-two TCAM entries; on TCAM
    /// exhaustion, already-installed pieces are rolled back.
    pub fn add_outlier(
        &mut self,
        va_base: u64,
        len: u64,
        blade: u16,
        pa_base: u64,
    ) -> Result<usize, TcamFull> {
        let pieces = pow2_cover(va_base, len);
        let mut installed = 0;
        for (base, k) in pieces.clone() {
            let target = OutlierTarget {
                blade,
                pa_base: pa_base + (base - va_base),
            };
            if let Err(full) = self.outliers.insert(TcamEntry::new(0, base, k), target) {
                for (base, k) in pieces.take(installed) {
                    self.outliers.remove(&TcamEntry::new(0, base, k));
                }
                return Err(full);
            }
            installed += 1;
        }
        Ok(installed)
    }

    /// Removes the outlier entries covering `[va_base, va_base + len)`.
    /// Returns the number of entries removed.
    pub fn remove_outlier(&mut self, va_base: u64, len: u64) -> usize {
        pow2_cover(va_base, len)
            .filter(|&(base, k)| self.outliers.remove(&TcamEntry::new(0, base, k)).is_some())
            .count()
    }

    /// Total match-action rules consumed by translation: one per blade
    /// partition plus the outlier TCAM entries (Figure 8 center counts
    /// these).
    pub fn rule_count(&self) -> usize {
        self.n_blades as usize + self.outliers.used()
    }

    /// Outlier entries installed.
    pub fn outlier_count(&self) -> usize {
        self.outliers.used()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TranslationTable {
        TranslationTable::new(4, 1 << 30, 64)
    }

    #[test]
    fn range_partition_translation() {
        let mut t = table();
        let pa = t.translate(VA_BASE + 5).unwrap();
        assert_eq!(
            pa,
            PhysAddr {
                blade: 0,
                offset: 5
            }
        );
        let pa = t.translate(VA_BASE + (1 << 30) + 0x2000).unwrap();
        assert_eq!(
            pa,
            PhysAddr {
                blade: 1,
                offset: 0x2000
            }
        );
        let pa = t.translate(VA_BASE + 3 * (1 << 30)).unwrap();
        assert_eq!(pa.blade, 3);
    }

    #[test]
    fn partition_of_matches_translate_without_outliers() {
        let mut t = table();
        for addr in [0, VA_BASE - 1, VA_BASE + 5, VA_BASE + 3 * (1 << 30), VA_BASE + 4 * (1 << 30)] {
            assert_eq!(t.partition_of(addr), t.translate(addr));
        }
        // With an outlier installed, translate diverges (LPM wins) while
        // partition_of keeps reporting the underlying partition.
        let va = VA_BASE + 0x10_0000;
        t.add_outlier(va, 1 << 14, 2, 0x5000).unwrap();
        assert_eq!(t.translate(va).unwrap().blade, 2);
        assert_eq!(t.partition_of(va).unwrap().blade, 0);
    }

    #[test]
    fn out_of_space_addresses_fail() {
        let mut t = table();
        assert!(t.translate(0).is_none());
        assert!(t.translate(VA_BASE - 1).is_none());
        assert!(t.translate(VA_BASE + 4 * (1 << 30)).is_none());
    }

    #[test]
    fn one_rule_per_blade_without_outliers() {
        let t = table();
        assert_eq!(t.rule_count(), 4);
    }

    #[test]
    fn outlier_overrides_partition() {
        let mut t = table();
        // Migrate a 16 KB range from blade 0's partition to blade 2.
        let va = VA_BASE + 0x10_0000;
        t.add_outlier(va, 1 << 14, 2, 0x5000).unwrap();
        let pa = t.translate(va + 0x1234).unwrap();
        assert_eq!(
            pa,
            PhysAddr {
                blade: 2,
                offset: 0x5000 + 0x1234
            }
        );
        // Outside the migrated range, the partition still applies.
        let pa = t.translate(va + (1 << 14)).unwrap();
        assert_eq!(pa.blade, 0);
        assert_eq!(t.rule_count(), 5);
    }

    #[test]
    fn lpm_prefers_nested_outlier() {
        let mut t = table();
        let va = VA_BASE + 0x20_0000;
        t.add_outlier(va, 1 << 20, 1, 0).unwrap(); // 1 MB to blade 1.
        t.add_outlier(va + 0x4000, 1 << 12, 3, 0x9000).unwrap(); // 4 KB hole to blade 3.
        assert_eq!(t.translate(va).unwrap().blade, 1);
        assert_eq!(t.translate(va + 0x4000).unwrap().blade, 3);
        assert_eq!(t.translate(va + 0x5000).unwrap().blade, 1);
    }

    #[test]
    fn remove_outlier_restores_partition() {
        let mut t = table();
        let va = VA_BASE + 0x40_0000;
        t.add_outlier(va, 1 << 13, 2, 0).unwrap();
        assert_eq!(t.translate(va).unwrap().blade, 2);
        assert_eq!(t.remove_outlier(va, 1 << 13), 1);
        assert_eq!(t.translate(va).unwrap().blade, 0);
        assert_eq!(t.outlier_count(), 0);
    }

    #[test]
    fn unaligned_outlier_splits_into_pieces() {
        let mut t = table();
        let va = VA_BASE + 0x1000;
        // 12 KB at a 4 KB-aligned base: 4K + 8K pieces.
        let n = t.add_outlier(va, 0x3000, 1, 0x100_0000).unwrap();
        assert_eq!(n, 2);
        // Physical contiguity across pieces.
        let a = t.translate(va + 0x0FFF).unwrap();
        let b = t.translate(va + 0x1000).unwrap();
        assert_eq!(a.offset, 0x100_0000 + 0x0FFF);
        assert_eq!(b.offset, 0x100_0000 + 0x1000);
    }

    #[test]
    fn tcam_exhaustion_rolls_back() {
        let mut t = TranslationTable::new(1, 1 << 30, 1);
        let va = VA_BASE + 0x1000;
        // Needs 2 entries, capacity is 1: must fail cleanly.
        assert!(t.add_outlier(va, 0x3000, 0, 0).is_err());
        assert_eq!(t.outlier_count(), 0, "partial install rolled back");
        // A single-entry outlier still fits.
        assert!(t.add_outlier(va, 0x1000, 0, 0).is_ok());
    }
}
