//! Node identities in the disaggregated rack.

use std::fmt;

/// Identifies a network-attached entity in the rack.
///
/// The rack is a star: every blade connects to the single programmable
/// switch. Compute and memory blades are numbered independently, mirroring
/// the paper's topology of up to 8 compute-blade VMs and multiple
/// memory-blade VMs behind one Tofino switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// A compute blade (runs threads, holds the local DRAM cache).
    Compute(u16),
    /// A memory blade (passive page store served by one-sided RDMA).
    Memory(u16),
    /// The programmable top-of-rack switch.
    Switch,
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Compute(i) => write!(f, "cb{i}"),
            NodeId::Memory(i) => write!(f, "mb{i}"),
            NodeId::Switch => write!(f, "switch"),
        }
    }
}

/// A compact bitmap over compute blades, used for coherence sharer lists.
///
/// The paper's rack has at most 8 compute blades; we allow up to 64 so the
/// sharer list fits in a register-sized value — exactly the representation a
/// switch ASIC would embed in an invalidation packet (§4.3.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct BladeSet(u64);

impl BladeSet {
    /// Maximum number of compute blades representable.
    pub const CAPACITY: u16 = 64;

    /// The empty set.
    pub const EMPTY: BladeSet = BladeSet(0);

    /// Creates an empty set.
    pub fn new() -> Self {
        BladeSet(0)
    }

    /// Creates a set containing a single blade.
    pub fn singleton(blade: u16) -> Self {
        let mut s = BladeSet::new();
        s.insert(blade);
        s
    }

    /// Inserts a blade.
    ///
    /// # Panics
    ///
    /// Panics if `blade >= 64`.
    pub fn insert(&mut self, blade: u16) {
        assert!(blade < Self::CAPACITY, "blade index out of range");
        self.0 |= 1 << blade;
    }

    /// Removes a blade; no-op if absent.
    pub fn remove(&mut self, blade: u16) {
        if blade < Self::CAPACITY {
            self.0 &= !(1 << blade);
        }
    }

    /// Whether `blade` is in the set.
    pub fn contains(self, blade: u16) -> bool {
        blade < Self::CAPACITY && self.0 & (1 << blade) != 0
    }

    /// Number of blades in the set.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Clears the set.
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    /// Iterates blade indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = u16> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as u16;
                bits &= bits - 1;
                Some(i)
            }
        })
    }

    /// Set union.
    pub fn union(self, other: BladeSet) -> BladeSet {
        BladeSet(self.0 | other.0)
    }

    /// Set difference (`self` minus `other`).
    pub fn difference(self, other: BladeSet) -> BladeSet {
        BladeSet(self.0 & !other.0)
    }

    /// If the set holds exactly one blade, returns it.
    pub fn sole_member(self) -> Option<u16> {
        if self.len() == 1 {
            Some(self.0.trailing_zeros() as u16)
        } else {
            None
        }
    }

    /// Raw bit representation, as embedded in invalidation packets.
    pub fn bits(self) -> u64 {
        self.0
    }
}

impl FromIterator<u16> for BladeSet {
    fn from_iter<I: IntoIterator<Item = u16>>(iter: I) -> Self {
        let mut s = BladeSet::new();
        for b in iter {
            s.insert(b);
        }
        s
    }
}

impl fmt::Display for BladeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (n, b) in self.iter().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            write!(f, "cb{b}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId::Compute(2).to_string(), "cb2");
        assert_eq!(NodeId::Memory(0).to_string(), "mb0");
        assert_eq!(NodeId::Switch.to_string(), "switch");
    }

    #[test]
    fn bladeset_insert_remove_contains() {
        let mut s = BladeSet::new();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(7);
        s.insert(63);
        assert!(s.contains(0) && s.contains(7) && s.contains(63));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
        s.remove(7);
        assert!(!s.contains(7));
        assert_eq!(s.len(), 2);
        s.remove(50); // absent: no-op
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bladeset_insert_out_of_range_panics() {
        BladeSet::new().insert(64);
    }

    #[test]
    fn bladeset_iter_ascending() {
        let s: BladeSet = [5u16, 1, 9].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5, 9]);
    }

    #[test]
    fn bladeset_union_difference() {
        let a: BladeSet = [1u16, 2, 3].into_iter().collect();
        let b: BladeSet = [3u16, 4].into_iter().collect();
        assert_eq!(a.union(b).iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(a.difference(b).iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn bladeset_sole_member() {
        assert_eq!(BladeSet::singleton(4).sole_member(), Some(4));
        let two: BladeSet = [1u16, 2].into_iter().collect();
        assert_eq!(two.sole_member(), None);
        assert_eq!(BladeSet::EMPTY.sole_member(), None);
    }

    #[test]
    fn bladeset_display() {
        let s: BladeSet = [0u16, 2].into_iter().collect();
        assert_eq!(s.to_string(), "{cb0,cb2}");
        assert_eq!(BladeSet::EMPTY.to_string(), "{}");
    }

    #[test]
    fn bladeset_clear() {
        let mut s = BladeSet::singleton(3);
        s.clear();
        assert!(s.is_empty());
    }
}
