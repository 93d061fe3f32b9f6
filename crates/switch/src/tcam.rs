//! TCAM model: longest-prefix matching over power-of-two address ranges.
//!
//! Switch TCAMs match a key against `(value, mask)` pairs in parallel; a
//! power-of-two aligned address range `[base, base + 2^k)` is exactly one
//! TCAM entry (mask the low `k` bits). MIND uses this for both address
//! translation outliers (§4.1) and `<PDID, vma>` protection entries (§4.2),
//! relying on longest-prefix-match priority so the most specific entry wins.
//!
//! Arbitrary ranges are first decomposed into power-of-two aligned pieces by
//! [`pow2_cover`]; MIND's control plane keeps that decomposition small by
//! allocating power-of-two aligned vmas and coalescing buddies.

use mind_sim::hash::FastMap;
use mind_sim::spare::{rebuild, reuse};

/// Number of virtual-address bits the TCAM matches (48-bit canonical VAs).
pub const VA_BITS: u8 = 48;

/// One TCAM entry: an exact-match context plus a power-of-two address range.
///
/// The `ctx` field models the packet-header fields matched exactly alongside
/// the address (protection uses the protection-domain id; translation uses
/// 0). `size_log2` is the log2 of the range length in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TcamEntry {
    /// Exact-match context (e.g. PDID); 0 when unused.
    pub ctx: u64,
    /// Range base; must be aligned to `1 << size_log2`.
    pub base: u64,
    /// log2 of the range size in bytes.
    pub size_log2: u8,
}

impl TcamEntry {
    /// Creates an entry, checking alignment.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not aligned to the range size or `size_log2`
    /// exceeds [`VA_BITS`].
    pub fn new(ctx: u64, base: u64, size_log2: u8) -> Self {
        assert!(size_log2 <= VA_BITS, "range wider than address space");
        assert_eq!(
            base & ((1u64 << size_log2) - 1),
            0,
            "TCAM range base must be aligned to its size"
        );
        TcamEntry {
            ctx,
            base,
            size_log2,
        }
    }

    /// Whether `addr` falls inside this entry's range.
    pub fn matches(&self, addr: u64) -> bool {
        addr >> self.size_log2 == self.base >> self.size_log2
    }

    /// The buddy range that, together with this one, forms the next larger
    /// power-of-two range (used for coalescing).
    pub fn buddy(&self) -> TcamEntry {
        TcamEntry {
            ctx: self.ctx,
            base: self.base ^ (1u64 << self.size_log2),
            size_log2: self.size_log2,
        }
    }

    /// The enclosing range one size up (the merge result of this + buddy).
    pub fn parent(&self) -> TcamEntry {
        TcamEntry {
            ctx: self.ctx,
            base: self.base & !(1u64 << self.size_log2),
            size_log2: self.size_log2 + 1,
        }
    }
}

/// A capacity-limited TCAM with longest-prefix-match lookup.
///
/// Internally indexed per `(ctx, size_log2)` so a lookup probes one hash
/// bucket per *populated* prefix level, from most- to least-specific,
/// returning the first hit — exactly LPM priority. An empty TCAM probes
/// nothing.
#[derive(Debug, Clone)]
pub struct Tcam<V> {
    /// `levels[k]` maps `(ctx, base >> k)` to the value for that range.
    levels: Vec<FastMap<(u64, u64), V>>,
    /// Bit `k` is set exactly while `levels[k]` holds an entry; lookups
    /// skip every other level.
    populated: u64,
    capacity: usize,
    used: usize,
}

/// Error returned when the TCAM is out of entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcamFull;

impl std::fmt::Display for TcamFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TCAM capacity exhausted")
    }
}

impl std::error::Error for TcamFull {}

impl<V> Tcam<V> {
    /// Creates a TCAM holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self::build(capacity, None)
    }

    /// [`Tcam::new`], in a spare's level tables.
    pub fn build(capacity: usize, spare: Option<Self>) -> Self {
        Tcam {
            levels: rebuild(spare.map(|t| t.levels), VA_BITS as usize + 1, reuse),
            populated: 0,
            capacity,
            used: 0,
        }
    }

    /// Entries currently installed.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Remaining free entries.
    pub fn free(&self) -> usize {
        self.capacity - self.used
    }

    /// Installs an entry, replacing any existing entry for the same range.
    ///
    /// Returns [`TcamFull`] if a new entry would exceed capacity.
    pub fn insert(&mut self, entry: TcamEntry, value: V) -> Result<Option<V>, TcamFull> {
        let key = (entry.ctx, entry.base >> entry.size_log2);
        let level = &mut self.levels[entry.size_log2 as usize];
        if !level.contains_key(&key) {
            if self.used >= self.capacity {
                return Err(TcamFull);
            }
            self.used += 1;
            self.populated |= 1u64 << entry.size_log2;
        }
        Ok(level.insert(key, value))
    }

    /// Removes an entry, returning its value if present.
    pub fn remove(&mut self, entry: &TcamEntry) -> Option<V> {
        let key = (entry.ctx, entry.base >> entry.size_log2);
        let level = &mut self.levels[entry.size_log2 as usize];
        let removed = level.remove(&key);
        if removed.is_some() {
            self.used -= 1;
            if level.is_empty() {
                self.populated &= !(1u64 << entry.size_log2);
            }
        }
        removed
    }

    /// Longest-prefix-match lookup: returns the most specific (smallest)
    /// range containing `addr` under context `ctx`. A read: it probes the
    /// populated levels, most specific first, and changes nothing.
    pub fn lookup(&self, ctx: u64, addr: u64) -> Option<(TcamEntry, &V)> {
        let mut levels = self.populated;
        while levels != 0 {
            let k = levels.trailing_zeros() as u8;
            levels &= levels - 1;
            if let Some(v) = self.levels[k as usize].get(&(ctx, addr >> k)) {
                let entry = TcamEntry {
                    ctx,
                    base: (addr >> k) << k,
                    size_log2: k,
                };
                return Some((entry, v));
            }
        }
        None
    }

    /// Peeks at an exact entry without LPM.
    pub fn get(&self, entry: &TcamEntry) -> Option<&V> {
        self.levels[entry.size_log2 as usize].get(&(entry.ctx, entry.base >> entry.size_log2))
    }

    /// Iterates all installed entries (order unspecified).
    pub fn iter(&self) -> impl Iterator<Item = (TcamEntry, &V)> {
        self.levels.iter().enumerate().flat_map(|(k, level)| {
            level.iter().map(move |(&(ctx, shifted), v)| {
                (
                    TcamEntry {
                        ctx,
                        base: shifted << k,
                        size_log2: k as u8,
                    },
                    v,
                )
            })
        })
    }
}

/// Decomposes `[base, base + len)` into the minimal set of power-of-two
/// aligned ranges, yielded as `(base, size_log2)` pairs in address order.
///
/// For a power-of-two aligned allocation (MIND's control plane only makes
/// those, §4.2) this yields exactly one range; for arbitrary ranges the
/// count is bounded by `2 · log2(len)`.
///
/// # Panics
///
/// Panics if `len == 0` or the range overflows the address space.
pub fn pow2_cover(base: u64, len: u64) -> impl Iterator<Item = (u64, u8)> + Clone {
    assert!(len > 0, "empty range");
    assert!(base.checked_add(len).is_some(), "range overflows");
    let (mut cur, mut remaining) = (base, len);
    std::iter::from_fn(move || {
        if remaining == 0 {
            return None;
        }
        // Largest size that is aligned at `cur` and fits in `remaining`.
        let align = if cur == 0 { 63 } else { cur.trailing_zeros() };
        let fit = 63 - remaining.leading_zeros();
        let k = align.min(fit) as u8;
        let piece = (cur, k);
        cur += 1u64 << k;
        remaining -= 1u64 << k;
        Some(piece)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_alignment_enforced() {
        TcamEntry::new(0, 0x4000, 14); // OK: 16 KB aligned.
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_entry_panics() {
        TcamEntry::new(0, 0x4100, 14);
    }

    #[test]
    fn entry_match_and_buddy() {
        let e = TcamEntry::new(0, 0x4000, 12);
        assert!(e.matches(0x4000));
        assert!(e.matches(0x4FFF));
        assert!(!e.matches(0x5000));
        assert_eq!(e.buddy().base, 0x5000);
        assert_eq!(e.buddy().buddy(), e);
        assert_eq!(e.parent().base, 0x4000);
        assert_eq!(e.parent().size_log2, 13);
        assert_eq!(e.buddy().parent(), e.parent());
    }

    #[test]
    fn lpm_prefers_most_specific() {
        let mut tcam = Tcam::new(16);
        tcam.insert(TcamEntry::new(0, 0x0, 20), "outer").unwrap();
        tcam.insert(TcamEntry::new(0, 0x4000, 12), "inner").unwrap();
        // Inside the nested 4 KB range: inner wins.
        let (e, v) = tcam.lookup(0, 0x4010).unwrap();
        assert_eq!(*v, "inner");
        assert_eq!(e.size_log2, 12);
        // Elsewhere in the 1 MB range: outer.
        assert_eq!(*tcam.lookup(0, 0x9000).unwrap().1, "outer");
        // Outside both: miss.
        assert!(tcam.lookup(0, 0x200000).is_none());
    }

    #[test]
    fn context_isolates_lookups() {
        let mut tcam = Tcam::new(16);
        tcam.insert(TcamEntry::new(1, 0x1000, 12), "pd1").unwrap();
        tcam.insert(TcamEntry::new(2, 0x1000, 12), "pd2").unwrap();
        assert_eq!(*tcam.lookup(1, 0x1000).unwrap().1, "pd1");
        assert_eq!(*tcam.lookup(2, 0x1000).unwrap().1, "pd2");
        assert!(tcam.lookup(3, 0x1000).is_none());
    }

    #[test]
    fn capacity_enforced() {
        let mut tcam = Tcam::new(2);
        tcam.insert(TcamEntry::new(0, 0x1000, 12), 1).unwrap();
        tcam.insert(TcamEntry::new(0, 0x2000, 12), 2).unwrap();
        assert_eq!(tcam.insert(TcamEntry::new(0, 0x3000, 12), 3), Err(TcamFull));
        assert_eq!(tcam.used(), 2);
        assert_eq!(tcam.free(), 0);
        // Replacing an existing range does not consume capacity.
        assert_eq!(
            tcam.insert(TcamEntry::new(0, 0x1000, 12), 9).unwrap(),
            Some(1)
        );
    }

    #[test]
    fn remove_frees_capacity() {
        let mut tcam = Tcam::new(1);
        let e = TcamEntry::new(0, 0x1000, 12);
        tcam.insert(e, 7).unwrap();
        assert_eq!(tcam.remove(&e), Some(7));
        assert_eq!(tcam.used(), 0);
        assert!(tcam.lookup(0, 0x1000).is_none());
        assert_eq!(tcam.remove(&e), None);
    }

    #[test]
    fn iter_sees_all_entries() {
        let mut tcam = Tcam::new(8);
        tcam.insert(TcamEntry::new(0, 0x1000, 12), 1).unwrap();
        tcam.insert(TcamEntry::new(5, 0x0, 20), 2).unwrap();
        let mut entries: Vec<(u64, u64, u8)> = tcam
            .iter()
            .map(|(e, _)| (e.ctx, e.base, e.size_log2))
            .collect();
        entries.sort_unstable();
        assert_eq!(entries, vec![(0, 0x1000, 12), (5, 0x0, 20)]);
    }

    #[test]
    fn pow2_cover_power_of_two_is_single_entry() {
        assert!(pow2_cover(0x4000, 0x4000).eq([(0x4000, 14)]));
        assert!(pow2_cover(0, 1 << 30).eq([(0, 30)]));
    }

    #[test]
    fn pow2_cover_unaligned_range() {
        // [0x1000, 0x1000 + 0x3000) = 4K + 8K pieces.
        let cover: Vec<_> = pow2_cover(0x1000, 0x3000).collect();
        assert_eq!(cover, vec![(0x1000, 12), (0x2000, 13)]);
        // Pieces tile the range exactly.
        let total: u64 = cover.iter().map(|&(_, k)| 1u64 << k).sum();
        assert_eq!(total, 0x3000);
    }

    #[test]
    fn pow2_cover_count_bounded_by_2log() {
        for (base, len) in [
            (0x1234_5000u64, 0x6_7000u64),
            (0x1000, 0xF000),
            (4096, 12288),
        ] {
            let cover: Vec<_> = pow2_cover(base, len).collect();
            let bound = 2 * (64 - len.leading_zeros()) as usize;
            assert!(
                cover.len() <= bound,
                "{} pieces for len {len:#x}",
                cover.len()
            );
            // Contiguity check.
            let mut cur = base;
            for &(b, k) in &cover {
                assert_eq!(b, cur);
                assert_eq!(b & ((1 << k) - 1), 0, "piece aligned");
                cur += 1u64 << k;
            }
            assert_eq!(cur, base + len);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn pow2_cover_rejects_empty() {
        let _ = pow2_cover(0x1000, 0);
    }

    /// The walk the populated-level mask replaced: every prefix level,
    /// most specific first.
    fn full_walk(tcam: &Tcam<u32>, ctx: u64, addr: u64) -> Option<(TcamEntry, u32)> {
        (0..=VA_BITS).find_map(|k| {
            let entry = TcamEntry {
                ctx,
                base: (addr >> k) << k,
                size_log2: k,
            };
            tcam.get(&entry).map(|&v| (entry, v))
        })
    }

    /// Masked LPM against the full 49-level walk under insert/remove
    /// churn, from an empty table through single-level and nested ones and
    /// back to empty.
    #[test]
    fn masked_lookup_matches_full_walk_under_churn() {
        use mind_sim::SimRng;
        for (seed, levels) in [
            (1u64, &[14u8][..]),
            (2, &[12, 16, 21, 30][..]),
            (3, &[0, 48][..]),
        ] {
            let mut rng = SimRng::new(seed);
            let mut tcam: Tcam<u32> = Tcam::new(64);
            let mut installed: Vec<TcamEntry> = Vec::new();
            let probe_all = |tcam: &Tcam<u32>, rng: &mut SimRng| {
                for _ in 0..32 {
                    let (ctx, addr) = (rng.gen_below(3), rng.gen_below(1 << 24));
                    let expected = full_walk(tcam, ctx, addr);
                    assert_eq!(tcam.lookup(ctx, addr).map(|(e, &v)| (e, v)), expected);
                }
            };
            assert_eq!(tcam.populated, 0);
            probe_all(&tcam, &mut rng);
            for step in 0..600u32 {
                // Fill for the first half of the run, drain in the second.
                if rng.gen_bool(if step < 300 { 0.7 } else { 0.3 }) {
                    let k = levels[rng.gen_below(levels.len() as u64) as usize];
                    let entry =
                        TcamEntry::new(rng.gen_below(3), (rng.gen_below(1 << 24) >> k) << k, k);
                    if tcam.insert(entry, step).is_ok() && !installed.contains(&entry) {
                        installed.push(entry);
                    }
                } else if !installed.is_empty() {
                    let victim =
                        installed.swap_remove(rng.gen_below(installed.len() as u64) as usize);
                    assert!(tcam.remove(&victim).is_some());
                }
                let expected_mask = installed.iter().fold(0u64, |m, e| m | 1u64 << e.size_log2);
                assert_eq!(
                    tcam.populated, expected_mask,
                    "level mask tracks the entries"
                );
                assert_eq!(tcam.used(), installed.len());
                probe_all(&tcam, &mut rng);
            }
            for entry in installed.drain(..) {
                tcam.remove(&entry);
            }
            assert_eq!(tcam.populated, 0, "emptied table probes nothing");
            probe_all(&tcam, &mut rng);
            assert!(tcam.lookup(0, 0x1234).is_none());
        }
    }
}
