//! Partitioning a rack for sharded simulation.
//!
//! A *partition* is a slice of the rack — a contiguous run of compute
//! blades plus a contiguous run of memory blades — whose tenants never
//! touch state outside the slice. When every partition is confined (its
//! threads pinned to its compute slice, its vmas placed with
//! [`crate::cluster::MindCluster::mmap_in`] on its memory slice, and no
//! cross-partition sharing), the fused simulation decomposes exactly: the
//! per-blade fabric links, caches, and directory regions a partition
//! exercises are disjoint from every other partition's, so running each
//! partition on its own sub-cluster reproduces the fused run's per-op
//! timings bit for bit. `mind_workloads::shard` builds the sharded
//! executor on top of this layout; this module owns the arithmetic.
//!
//! The layout is deliberately *symmetric*: every partition gets the same
//! number of compute and memory blades, and [`MindConfig::partition`]
//! scales the switch-resource capacities (directory slots, match-action
//! rules) by the same factor, keeping per-partition pressure — and hence
//! Bounded-Splitting behaviour — identical between the fused rack and the
//! sub-clusters.

use std::fmt;
use std::ops::Range;

use crate::cluster::MindConfig;

/// Why a rack cannot divide into the requested partitions. Each variant
/// names the invariant that failed, so a misconfigured sharded scenario
/// reports *what* to fix instead of aborting mid-setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// Zero partitions requested.
    ZeroPartitions,
    /// Compute blades do not divide evenly into the partitions.
    UnevenCompute { blades: u16, partitions: u16 },
    /// Memory blades do not divide evenly into the partitions.
    UnevenMemory { blades: u16, partitions: u16 },
    /// Directory slots do not divide evenly into the partitions.
    UnevenDirCapacity { capacity: usize, partitions: u16 },
    /// Match-action rules do not divide evenly into the partitions.
    UnevenRuleCapacity { capacity: usize, partitions: u16 },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PartitionError::ZeroPartitions => write!(f, "at least one partition required"),
            PartitionError::UnevenCompute { blades, partitions } => write!(
                f,
                "{blades} compute blades do not divide into {partitions} partitions"
            ),
            PartitionError::UnevenMemory { blades, partitions } => write!(
                f,
                "{blades} memory blades do not divide into {partitions} partitions"
            ),
            PartitionError::UnevenDirCapacity { capacity, partitions } => write!(
                f,
                "dir_capacity {capacity} does not divide into {partitions} partitions"
            ),
            PartitionError::UnevenRuleCapacity { capacity, partitions } => write!(
                f,
                "rule_capacity {capacity} does not divide into {partitions} partitions"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// How a rack's blades divide into `partitions` symmetric slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionLayout {
    /// Number of partitions.
    pub partitions: u16,
    /// Compute blades per partition.
    pub compute_per_partition: u16,
    /// Memory blades per partition.
    pub memory_per_partition: u16,
}

impl PartitionLayout {
    /// Computes the layout of `cfg` divided into `partitions` slices,
    /// reporting which symmetry invariant failed: `partitions` zero or
    /// not dividing both blade counts evenly — asymmetric partitions would
    /// not be interchangeable with the sub-clusters
    /// [`MindConfig::partition`] builds.
    pub fn try_new(cfg: &MindConfig, partitions: u16) -> Result<Self, PartitionError> {
        if partitions == 0 {
            return Err(PartitionError::ZeroPartitions);
        }
        if !cfg.n_compute.is_multiple_of(partitions) {
            return Err(PartitionError::UnevenCompute {
                blades: cfg.n_compute,
                partitions,
            });
        }
        if !cfg.n_memory.is_multiple_of(partitions) {
            return Err(PartitionError::UnevenMemory {
                blades: cfg.n_memory,
                partitions,
            });
        }
        Ok(PartitionLayout {
            partitions,
            compute_per_partition: cfg.n_compute / partitions,
            memory_per_partition: cfg.n_memory / partitions,
        })
    }

    /// The compute blades owned by partition `p`.
    pub fn compute_slice(&self, p: u16) -> Range<u16> {
        assert!(p < self.partitions, "partition {p} out of range");
        p * self.compute_per_partition..(p + 1) * self.compute_per_partition
    }

    /// The memory blades owned by partition `p`.
    pub fn memory_slice(&self, p: u16) -> Range<u16> {
        assert!(p < self.partitions, "partition {p} out of range");
        p * self.memory_per_partition..(p + 1) * self.memory_per_partition
    }
}

impl MindConfig {
    /// The sub-cluster configuration hosting `1/factor` of this rack: blade
    /// counts and switch-resource capacities divide by `factor`; per-blade
    /// quantities (cache pages, blade span, latencies, splitting
    /// parameters) are unchanged. A rack split this way is the unit a
    /// sharded run simulates independently; `partition(1)` is the identity.
    ///
    /// # Panics
    ///
    /// Panics if `factor` does not evenly divide the blade counts or the
    /// directory/rule capacities — uneven shares would change the resource
    /// pressure a partition sees relative to the fused rack. Fallible
    /// setup paths use [`MindConfig::try_partition`] instead.
    pub fn partition(&self, factor: u16) -> MindConfig {
        match self.try_partition(factor) {
            Ok(sub) => sub,
            Err(e) => panic!("{e}"),
        }
    }

    /// The sub-cluster configuration hosting `1/factor` of this rack,
    /// reporting which divisibility invariant failed instead of
    /// panicking.
    pub fn try_partition(&self, factor: u16) -> Result<MindConfig, PartitionError> {
        let layout = PartitionLayout::try_new(self, factor)?;
        if !self.dir_capacity.is_multiple_of(factor as usize) {
            return Err(PartitionError::UnevenDirCapacity {
                capacity: self.dir_capacity,
                partitions: factor,
            });
        }
        if !self.rule_capacity.is_multiple_of(factor as usize) {
            return Err(PartitionError::UnevenRuleCapacity {
                capacity: self.rule_capacity,
                partitions: factor,
            });
        }
        Ok(MindConfig {
            n_compute: layout.compute_per_partition,
            n_memory: layout.memory_per_partition,
            dir_capacity: self.dir_capacity / factor as usize,
            rule_capacity: self.rule_capacity / factor as usize,
            ..*self
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n_compute: u16, n_memory: u16) -> MindConfig {
        MindConfig {
            n_compute,
            n_memory,
            dir_capacity: 4_000,
            rule_capacity: 8_000,
            ..MindConfig::small()
        }
    }

    #[test]
    fn slices_tile_the_rack_disjointly() {
        let layout = PartitionLayout::try_new(&cfg(8, 4), 4).expect("8 and 4 divide by 4");
        let mut compute = Vec::new();
        let mut memory = Vec::new();
        for p in 0..4 {
            compute.extend(layout.compute_slice(p));
            memory.extend(layout.memory_slice(p));
        }
        assert_eq!(compute, (0..8).collect::<Vec<u16>>());
        assert_eq!(memory, (0..4).collect::<Vec<u16>>());
    }

    #[test]
    fn partition_divides_shared_resources_only() {
        let base = cfg(8, 4);
        let sub = base.partition(4);
        assert_eq!(sub.n_compute, 2);
        assert_eq!(sub.n_memory, 1);
        assert_eq!(sub.dir_capacity, 1_000);
        assert_eq!(sub.rule_capacity, 2_000);
        assert_eq!(sub.cache_pages, base.cache_pages, "per-blade unchanged");
        assert_eq!(sub.blade_span, base.blade_span);
        assert_eq!(sub.split.epoch_len, base.split.epoch_len);
    }

    #[test]
    fn partition_by_one_is_identity() {
        let base = cfg(8, 4);
        let sub = base.partition(1);
        assert_eq!(sub.n_compute, base.n_compute);
        assert_eq!(sub.n_memory, base.n_memory);
        assert_eq!(sub.dir_capacity, base.dir_capacity);
        assert_eq!(sub.rule_capacity, base.rule_capacity);
    }

    #[test]
    #[should_panic(expected = "do not divide")]
    fn uneven_compute_split_rejected() {
        cfg(6, 4).partition(4);
    }

    #[test]
    #[should_panic(expected = "dir_capacity")]
    fn uneven_dir_capacity_rejected() {
        let mut base = cfg(8, 4);
        base.dir_capacity = 4_001;
        base.partition(4);
    }

    #[test]
    fn try_new_names_the_failed_invariant() {
        assert_eq!(
            PartitionLayout::try_new(&cfg(8, 4), 0),
            Err(PartitionError::ZeroPartitions)
        );
        assert_eq!(
            PartitionLayout::try_new(&cfg(6, 4), 4),
            Err(PartitionError::UnevenCompute { blades: 6, partitions: 4 })
        );
        assert_eq!(
            PartitionLayout::try_new(&cfg(8, 6), 4),
            Err(PartitionError::UnevenMemory { blades: 6, partitions: 4 })
        );
        assert!(PartitionLayout::try_new(&cfg(8, 4), 4).is_ok());
    }

    #[test]
    fn try_partition_names_the_failed_capacity() {
        let mut base = cfg(8, 4);
        base.dir_capacity = 4_001;
        assert_eq!(
            base.try_partition(4).unwrap_err(),
            PartitionError::UnevenDirCapacity { capacity: 4_001, partitions: 4 }
        );
        base.dir_capacity = 4_000;
        base.rule_capacity = 8_001;
        assert_eq!(
            base.try_partition(4).unwrap_err(),
            PartitionError::UnevenRuleCapacity { capacity: 8_001, partitions: 4 }
        );
        base.rule_capacity = 8_000;
        assert!(base.try_partition(4).is_ok());
        let display = format!("{}", PartitionError::UnevenCompute { blades: 6, partitions: 4 });
        assert!(display.contains("6 compute blades"), "{display}");
    }
}
