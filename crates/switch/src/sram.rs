//! SRAM slot store for cache-directory entries.
//!
//! MIND reserves a fixed amount of switch SRAM for directory entries,
//! partitions it into fixed-size slots, keeps a free list of available
//! slots, and a `used` map from the base virtual address of each
//! (dynamically sized) region to the slot storing its entry (paper §6.3,
//! "Cache directory management"). The 30 k-entry capacity is the resource
//! bound Figure 8 (left) plots against.

use std::collections::hash_map::Entry;

use mind_sim::hash::FastMap;
use mind_sim::spare::reuse;

/// Error returned when no SRAM slots remain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramFull;

impl std::fmt::Display for SramFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "directory SRAM capacity exhausted")
    }
}

impl std::error::Error for SramFull {}

/// The capacity that models an unbounded SRAM (the paper's MIND-PSO+
/// simulation).
pub const UNBOUNDED_SLOTS: usize = usize::MAX / 2;

/// The slots a store of `capacity` reserves when it is built: every one
/// it models, except for an unbounded store ([`UNBOUNDED_SLOTS`]), whose
/// slab grows on demand.
pub fn reserved_slots(capacity: usize) -> usize {
    if capacity >= UNBOUNDED_SLOTS {
        0
    } else {
        capacity
    }
}

/// Reserves [`reserved_slots`] of `capacity` in a work list that has no
/// storage yet, so a list is one allocation made by its first use, and a
/// list that is never used holds none.
pub fn reserve_slots<T>(list: &mut Vec<T>, capacity: usize) {
    if list.capacity() == 0 {
        list.reserve_exact(reserved_slots(capacity));
    }
}

/// A fixed-capacity slot store keyed by region base address.
///
/// The slot slab is reserved at `capacity` ([`reserved_slots`]), so filling
/// the store never moves it; the `used` map is not presized, since a map
/// sized for every slot would touch all of its pages up front.
///
/// A slot index is a *handle*: [`SlotStore::slot_of`] resolves a base to
/// its slot once, and [`SlotStore::at`] / [`SlotStore::at_mut`] then reach
/// the entry with no further hashing. A handle stays valid until that
/// entry is removed.
#[derive(Debug, Clone)]
pub struct SlotStore<T> {
    /// Each occupied slot holds its region base beside the entry, so the
    /// slab can be walked without consulting `used_map`.
    slots: Vec<Option<(u64, T)>>,
    free_list: Vec<usize>,
    used_map: FastMap<u64, usize>,
    capacity: usize,
    high_watermark: usize,
}

impl<T> SlotStore<T> {
    /// A store with `capacity` slots, all free, in a spare's slab and map
    /// when there is one.
    pub fn build(capacity: usize, spare: Option<Self>) -> Self {
        let (slots, used_map) = spare.map(|s| (s.slots, s.used_map)).unzip();
        let mut slots = reuse(slots);
        slots.reserve_exact(reserved_slots(capacity));
        SlotStore {
            slots,
            free_list: Vec::new(),
            used_map: reuse(used_map),
            capacity,
            high_watermark: 0,
        }
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots in use.
    pub fn used(&self) -> usize {
        self.used_map.len()
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        self.capacity - self.used()
    }

    /// Largest simultaneous occupancy observed.
    pub fn high_watermark(&self) -> usize {
        self.high_watermark
    }

    /// Occupancy as a fraction of capacity.
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.used() as f64 / self.capacity as f64
        }
    }

    /// Allocates a slot for region `base`, stores `value`, and returns the
    /// slot.
    ///
    /// Returns [`SramFull`] when no slots remain.
    ///
    /// # Panics
    ///
    /// Panics if `base` already has a slot — directory entries must be
    /// removed before being re-created.
    pub fn insert(&mut self, base: u64, value: T) -> Result<usize, SramFull> {
        let used = self.used_map.len();
        let Entry::Vacant(unused) = self.used_map.entry(base) else {
            panic!("slot already allocated for region {base:#x}");
        };
        if used >= self.capacity {
            return Err(SramFull);
        }
        let slot = match self.free_list.pop() {
            Some(s) => {
                self.slots[s] = Some((base, value));
                s
            }
            None => {
                self.slots.push(Some((base, value)));
                self.slots.len() - 1
            }
        };
        unused.insert(slot);
        self.high_watermark = self.high_watermark.max(used + 1);
        Ok(slot)
    }

    /// The slot holding region `base`, if it has one.
    pub fn slot_of(&self, base: u64) -> Option<usize> {
        self.used_map.get(&base).copied()
    }

    /// The entry in an occupied `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free (a stale handle).
    pub fn at(&self, slot: usize) -> &T {
        self.at_with_base(slot).1
    }

    /// The region base and entry in an occupied `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free (a stale handle).
    pub fn at_with_base(&self, slot: usize) -> (u64, &T) {
        let (base, value) = self.slots[slot].as_ref().expect("slot is occupied");
        (*base, value)
    }

    /// Mutable access to the entry in an occupied `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free (a stale handle).
    pub fn at_mut(&mut self, slot: usize) -> &mut T {
        &mut self.slots[slot].as_mut().expect("slot is occupied").1
    }

    /// Looks up the entry for region `base`.
    pub fn get(&self, base: u64) -> Option<&T> {
        self.slot_of(base).map(|slot| self.at(slot))
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, base: u64) -> Option<&mut T> {
        let slot = self.slot_of(base)?;
        Some(self.at_mut(slot))
    }

    /// Removes the entry for region `base`, returning the slot to the free
    /// list.
    pub fn remove(&mut self, base: u64) -> Option<T> {
        let slot = self.used_map.remove(&base)?;
        let (_, value) = self.slots[slot].take().expect("used slot is populated");
        self.free_list.push(slot);
        Some(value)
    }

    /// Whether a region has a slot.
    pub fn contains(&self, base: u64) -> bool {
        self.used_map.contains_key(&base)
    }

    /// Iterates `(base, entry)` pairs in slot order: one linear pass over
    /// the slab, no hashing. The order is deterministic for a given
    /// insert/remove history but otherwise unspecified.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .filter_map(|slot| slot.as_ref().map(|(base, value)| (*base, value)))
    }

    /// Region bases currently stored, sorted (for deterministic iteration).
    pub fn bases_sorted(&self) -> Vec<u64> {
        let mut bases: Vec<u64> = self.used_map.keys().copied().collect();
        bases.sort_unstable();
        bases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = SlotStore::build(4, None);
        s.insert(0x1000, "a").unwrap();
        s.insert(0x2000, "b").unwrap();
        assert_eq!(s.get(0x1000), Some(&"a"));
        assert_eq!(s.get(0x2000), Some(&"b"));
        assert_eq!(s.used(), 2);
        assert_eq!(s.remove(0x1000), Some("a"));
        assert_eq!(s.get(0x1000), None);
        assert_eq!(s.free(), 3);
    }

    #[test]
    fn capacity_exhaustion() {
        let mut s = SlotStore::build(2, None);
        s.insert(1, ()).unwrap();
        s.insert(2, ()).unwrap();
        assert_eq!(s.insert(3, ()), Err(SramFull));
        // Freeing a slot makes room again.
        s.remove(1);
        assert!(s.insert(3, ()).is_ok());
    }

    #[test]
    #[should_panic(expected = "already allocated")]
    fn double_insert_panics() {
        let mut s = SlotStore::build(2, None);
        s.insert(1, ()).unwrap();
        let _ = s.insert(1, ());
    }

    #[test]
    fn slots_are_recycled() {
        let mut s = SlotStore::build(1, None);
        for i in 0..100u64 {
            s.insert(i, i).unwrap();
            assert_eq!(s.remove(i), Some(i));
        }
        assert_eq!(s.capacity(), 1);
        assert_eq!(s.free(), 1);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut s = SlotStore::build(2, None);
        s.insert(7, 10u32).unwrap();
        *s.get_mut(7).unwrap() += 5;
        assert_eq!(s.get(7), Some(&15));
        assert!(s.get_mut(99).is_none());
    }

    #[test]
    fn watermark_and_utilization() {
        let mut s = SlotStore::build(4, None);
        s.insert(1, ()).unwrap();
        s.insert(2, ()).unwrap();
        s.insert(3, ()).unwrap();
        s.remove(2);
        assert_eq!(s.high_watermark(), 3);
        assert_eq!(s.used(), 2);
        assert!((s.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn iteration_and_sorted_bases() {
        let mut s = SlotStore::build(4, None);
        s.insert(0x3000, 3).unwrap();
        s.insert(0x1000, 1).unwrap();
        s.insert(0x2000, 2).unwrap();
        assert_eq!(s.bases_sorted(), vec![0x1000, 0x2000, 0x3000]);
        let mut pairs: Vec<(u64, i32)> = s.iter().map(|(b, &v)| (b, v)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0x1000, 1), (0x2000, 2), (0x3000, 3)]);
    }

    #[test]
    fn filling_to_capacity_never_moves_the_slab() {
        let mut s = SlotStore::build(200, None);
        let slab = s.slots.as_ptr();
        for base in 0..200u64 {
            s.insert(base, base).unwrap();
            assert_eq!(s.slots.as_ptr(), slab, "moved at slot {base}");
        }
        assert_eq!(s.insert(200, 200), Err(SramFull));
        let mut s = SlotStore::build(200, Some(s));
        s.insert(7, 7).unwrap();
        assert_eq!(s.slots.as_ptr(), slab);
    }

    #[test]
    fn an_unbounded_store_reserves_nothing() {
        let mut s = SlotStore::build(UNBOUNDED_SLOTS, None);
        assert_eq!(s.slots.capacity(), 0);
        s.insert(1, ()).unwrap();
        assert_eq!(s.free(), UNBOUNDED_SLOTS - 1);
    }

    #[test]
    fn zero_capacity_store() {
        let mut s: SlotStore<()> = SlotStore::build(0, None);
        assert_eq!(s.insert(1, ()), Err(SramFull));
        assert_eq!(s.utilization(), 0.0);
    }
}
