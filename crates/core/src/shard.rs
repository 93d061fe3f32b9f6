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
//! executor on top of [`MindConfig::try_partition`], the one place the
//! slice arithmetic lives: a rack split `n` ways is `n` copies of
//! `try_partition(n)`, and partition `p` owns that sub-rack's width of
//! blades starting at `p` times it.
//!
//! The split is deliberately *symmetric*: every partition gets the same
//! number of compute and memory blades, and [`MindConfig::partition`]
//! scales the switch-resource capacities (directory slots, match-action
//! rules) by the same factor, keeping per-partition pressure — and hence
//! Bounded-Splitting behaviour — identical between the fused rack and the
//! sub-clusters.

use std::fmt;

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
    /// reporting which invariant failed (zero `factor`, or a blade count or
    /// capacity it does not divide) instead of panicking.
    pub fn try_partition(&self, factor: u16) -> Result<MindConfig, PartitionError> {
        if factor == 0 {
            return Err(PartitionError::ZeroPartitions);
        }
        if !self.n_compute.is_multiple_of(factor) {
            return Err(PartitionError::UnevenCompute {
                blades: self.n_compute,
                partitions: factor,
            });
        }
        if !self.n_memory.is_multiple_of(factor) {
            return Err(PartitionError::UnevenMemory {
                blades: self.n_memory,
                partitions: factor,
            });
        }
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
            n_compute: self.n_compute / factor,
            n_memory: self.n_memory / factor,
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
        assert_eq!(cfg(8, 4).try_partition(0).unwrap_err(), PartitionError::ZeroPartitions);
        let err = cfg(6, 4).try_partition(4).unwrap_err();
        assert_eq!(err, PartitionError::UnevenCompute { blades: 6, partitions: 4 });
        assert!(err.to_string().contains("6 compute blades"), "{err}");
        assert_eq!(
            cfg(8, 6).try_partition(4).unwrap_err(),
            PartitionError::UnevenMemory { blades: 6, partitions: 4 }
        );
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
    }
}
