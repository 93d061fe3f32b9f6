//! Shard-aware serving scenarios: a large static tenant population as a
//! partitioned replay.
//!
//! The full [`crate::MemoryService`] event loop is globally coupled —
//! admission reads rack-wide memory pressure and the elastic controller
//! rebalances across every blade — so it cannot be sharded without
//! changing its results. What *does* shard is the serving layer's steady
//! state: thousands of admitted single-threaded tenants, each in its own
//! protection domain, walking its own footprint. This module builds that
//! population as symmetric [`TenantGroup`] partitions (one group per
//! partition, one tenant per thread, patterns cycling per tenant exactly
//! like the service's QoS-diverse populations) for
//! `mind_workloads::shard::run_sharded_threads` — the path 10⁴–10⁶-tenant
//! scenarios go through.
//!
//! Every tenant is single-threaded, so writes stay on one compute blade
//! and the population satisfies the sharding determinism contract (no
//! invalidations) by construction.

use mind_core::cluster::MindConfig;
use mind_sim::SimRng;
use mind_workloads::runner::RunConfig;
use mind_workloads::trace::{TraceOp, Workload};
use mind_workloads::ShardSpec;

use mind_sim::rng::Zipfian;

use crate::tenant::{sample_op, AccessPattern};

/// Parameters of one partitioned tenant population.
#[derive(Debug, Clone, Copy)]
pub struct TenantGroupConfig {
    /// Tenants per partition (each is one replay thread).
    pub tenants_per_group: u16,
    /// Footprint of each tenant, in 4 KB pages.
    pub pages_per_tenant: u64,
    /// Read fraction of every tenant's traffic.
    pub read_ratio: f64,
    /// Root seed; each (group, tenant) forks its own RNG from it.
    pub seed: u64,
}

/// The access-pattern mix a tenant population cycles through — the same
/// uniform/zipfian/scan diversity [`crate::ServiceConfig`] populations
/// carry, keyed by *global* tenant index so the mix is identical however
/// the groups are sharded.
fn pattern_of(global_tenant: u64) -> AccessPattern {
    match global_tenant % 3 {
        0 => AccessPattern::Zipfian(0.99),
        1 => AccessPattern::Uniform,
        _ => AccessPattern::Scan,
    }
}

/// One partition's worth of tenants as a single [`Workload`]: thread `t`
/// is tenant `t`, region `t` is its footprint.
///
/// Stored structure-of-arrays with everything derivable pooled: tenants
/// in a group share one footprint, one read ratio, and (since the
/// pattern mix uses a single skew) one Zipfian sampler — the sampler's
/// `sample(&self, rng)` is read-only, so sharing it changes no draw —
/// while each tenant keeps only what is truly its own: a 32-byte RNG and
/// a scan cursor. Per-tenant patterns are recomputed from the pure
/// global-index cycle rather than stored. That takes the per-tenant
/// footprint from ~128 bytes (a full `TenantWorkload` with its own
/// `Option<Zipfian>`) to 40 bytes, the difference between 10⁵- and
/// 10⁶-tenant populations fitting in RSS. Op streams are byte-identical
/// to the per-struct layout: both call the same
/// [`sample_op`] body with the same RNG fork order.
#[derive(Debug)]
pub struct TenantGroup {
    group: u16,
    pages: u64,
    read_ratio: f64,
    /// Global index of tenant 0, for the pattern cycle.
    first_global: u64,
    /// One pooled sampler for every Zipfian tenant in the group (the mix
    /// uses a single `(pages, theta)`); `None` when no tenant needs it.
    zipf: Option<Zipfian>,
    /// Per-tenant private RNG, forked from the group root in tenant
    /// order.
    rngs: Vec<SimRng>,
    /// Per-tenant scan cursor (only scan tenants advance theirs).
    cursors: Vec<u64>,
}

impl TenantGroup {
    /// Builds partition `group` of the population: RNGs fork from a
    /// per-group root, so a group's op stream depends only on `(cfg,
    /// group)` — not on which shard hosts it.
    pub fn new(cfg: &TenantGroupConfig, group: u16) -> Self {
        let mut root = SimRng::new(
            cfg.seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(group as u64 + 1)),
        );
        let n = cfg.tenants_per_group;
        let first_global = group as u64 * n as u64;
        let zipf_theta = (0..n).find_map(|t| match pattern_of(first_global + t as u64) {
            AccessPattern::Zipfian(theta) => Some(theta),
            _ => None,
        });
        TenantGroup {
            group,
            pages: cfg.pages_per_tenant,
            read_ratio: cfg.read_ratio,
            first_global,
            zipf: zipf_theta.map(|theta| Zipfian::new(cfg.pages_per_tenant, theta)),
            rngs: (0..n).map(|_| root.fork()).collect(),
            cursors: vec![0; n as usize],
        }
    }

    /// The access pattern of local tenant `tenant` (derived from the
    /// global-index cycle, not stored).
    pub fn pattern(&self, tenant: u16) -> AccessPattern {
        pattern_of(self.first_global + tenant as u64)
    }
}

impl Workload for TenantGroup {
    fn name(&self) -> String {
        format!("tenant-group{}(n={})", self.group, self.rngs.len())
    }

    fn regions(&self) -> Vec<u64> {
        vec![self.pages << 12; self.rngs.len()]
    }

    fn n_threads(&self) -> u16 {
        self.rngs.len() as u16
    }

    fn next_op(&mut self, thread: u16) -> TraceOp {
        let t = thread as usize;
        let mut op = sample_op(
            self.pages,
            self.read_ratio,
            self.pattern(thread),
            self.zipf.as_ref(),
            &mut self.cursors[t],
            &mut self.rngs[t],
        );
        op.region = thread;
        op
    }
}

/// A [`mind_workloads::shard::PartitionFactory`] over this population:
/// pass `&tenant_partitions(cfg)` to `run_sharded_threads`.
pub fn tenant_partitions(cfg: TenantGroupConfig) -> impl Fn(u16) -> Box<dyn Workload> + Sync {
    move |group| Box::new(TenantGroup::new(&cfg, group))
}

/// Sizes a rack and [`ShardSpec`] for `partitions × cfg.tenants_per_group`
/// tenants — the constructor behind the 10⁵-tenant scenario family.
///
/// Every capacity scales with the population so the determinism contract
/// holds at any size:
///
/// - one compute and one memory blade per partition, the blade sized to
///   2× the partition's aggregate footprint;
/// - directory capacity at 4× the initial region-entry population (16 KB
///   initial regions), keeping utilization at ¼ — half the contract's ½
///   ceiling;
/// - rule capacity at 4 rules per tenant (each tenant is its own
///   protection domain), rounded to a power of two so every shard count
///   that divides `partitions` also divides the capacities.
///
/// The returned spec replays 8-op turns in batches of 8 with no warmup;
/// pair it with [`tenant_partitions`]`(cfg)`.
pub fn population_spec(name: &str, partitions: u16, cfg: TenantGroupConfig) -> ShardSpec {
    let total = partitions as u64 * cfg.tenants_per_group as u64;
    let region_bytes = cfg.pages_per_tenant << 12;
    // Initial directory entries materialize at 16 KB granularity.
    let entries_per_tenant = (region_bytes >> 14).max(1);
    let dir_capacity = (entries_per_tenant * total * 4).next_power_of_two() as usize;
    let rule_capacity = (total * 4).next_power_of_two() as usize;
    let blade_bytes = (cfg.tenants_per_group as u64 * region_bytes * 2).next_power_of_two();
    ShardSpec {
        name: name.to_string(),
        base: MindConfig {
            n_compute: partitions,
            n_memory: partitions,
            cache_pages: 4096,
            blade_span: blade_bytes,
            memory_blade_bytes: blade_bytes,
            dir_capacity,
            rule_capacity,
            ..MindConfig::default()
        },
        partitions,
        run: RunConfig {
            ops_per_thread: 8,
            warmup_ops_per_thread: 0,
            threads_per_blade: cfg.tenants_per_group,
            ..Default::default()
        }
        .with_batch_ops(8),
        domain_per_thread: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TenantGroupConfig {
        TenantGroupConfig {
            tenants_per_group: 9,
            pages_per_tenant: 16,
            read_ratio: 0.7,
            seed: 42,
        }
    }

    #[test]
    fn group_exposes_one_thread_and_region_per_tenant() {
        let g = TenantGroup::new(&cfg(), 0);
        assert_eq!(g.n_threads(), 9);
        assert_eq!(g.regions(), vec![16 << 12; 9]);
    }

    #[test]
    fn ops_stay_in_the_issuing_tenants_region() {
        let mut g = TenantGroup::new(&cfg(), 3);
        for t in 0..9u16 {
            for _ in 0..200 {
                let op = g.next_op(t);
                assert_eq!(op.region, t, "tenant confined to its own region");
                assert!(op.offset < 16 << 12);
            }
        }
    }

    #[test]
    fn groups_are_deterministic_and_distinct() {
        let mut a = TenantGroup::new(&cfg(), 5);
        let mut b = TenantGroup::new(&cfg(), 5);
        let mut c = TenantGroup::new(&cfg(), 6);
        let mut same = true;
        for _ in 0..100 {
            assert_eq!(a.next_op(2), b.next_op(2), "same group, same stream");
            same &= a.next_op(1) == c.next_op(1);
        }
        assert!(!same, "different groups draw different streams");
    }

    #[test]
    fn population_spec_scales_capacities_with_the_population() {
        // The committed datapath/shards geometry: 16 × 1024 tenants of 16
        // pages each must come out exactly as the hand-sized original.
        let pop = TenantGroupConfig {
            tenants_per_group: 1024,
            pages_per_tenant: 16,
            read_ratio: 0.7,
            seed: 42,
        };
        let spec = population_spec("pop", 16, pop);
        assert_eq!(spec.base.n_compute, 16);
        assert_eq!(spec.base.dir_capacity, 262_144, "1/4 utilization");
        assert_eq!(spec.base.rule_capacity, 65_536);
        assert_eq!(spec.base.memory_blade_bytes, 1 << 27);
        assert_eq!(spec.run.threads_per_blade, 1024);
        assert!(spec.domain_per_thread);
        // Power-of-two capacities divide every power-of-two shard count.
        for shards in [1u16, 2, 4, 8, 16] {
            assert!(spec.base.try_partition(shards).is_ok(), "shards={shards}");
        }
    }

    #[test]
    fn population_spec_is_confined_at_small_scale() {
        let pop = TenantGroupConfig {
            tenants_per_group: 8,
            pages_per_tenant: 16,
            read_ratio: 0.7,
            seed: 7,
        };
        let spec = population_spec("pop-small", 4, pop);
        let factory = tenant_partitions(pop);
        let fused =
            mind_workloads::run_sharded_threads(&spec, 1, 1, &factory).expect("confined population");
        assert_eq!(fused.invalidations, 0, "single-threaded tenants never share");
        let sharded = mind_workloads::run_sharded(&spec, 4, &factory).expect("confined population");
        assert_eq!(fused.total_ops, sharded.total_ops);
        assert_eq!(fused.runtime, sharded.runtime);
        assert_eq!(fused.mops.to_bits(), sharded.mops.to_bits());
    }

    #[test]
    fn soa_group_matches_per_tenant_struct_layout() {
        // The compaction contract: the structure-of-arrays group must
        // draw the identical op stream the pre-SoA layout — one full
        // TenantWorkload per tenant — drew, fork-for-fork.
        use crate::tenant::TenantWorkload;
        let c = cfg();
        let mut g = TenantGroup::new(&c, 2);
        let mut root = SimRng::new(
            c.seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(2 + 1)),
        );
        let mut reference: Vec<TenantWorkload> = (0..c.tenants_per_group)
            .map(|t| {
                let global = 2 * c.tenants_per_group as u64 + t as u64;
                TenantWorkload::with_pattern(
                    c.pages_per_tenant,
                    c.read_ratio,
                    pattern_of(global),
                    root.fork(),
                )
            })
            .collect();
        for _ in 0..50 {
            for t in 0..c.tenants_per_group {
                let mut want = reference[t as usize].next_op(0);
                want.region = t;
                assert_eq!(g.next_op(t), want, "tenant {t}");
            }
        }
    }

    #[test]
    fn pattern_mix_cycles_by_global_tenant_index() {
        // Group boundaries must not reset the cycle: tenant 9 (group 1,
        // local 0) continues where tenant 8 left off.
        assert_eq!(pattern_of(0), AccessPattern::Zipfian(0.99));
        assert_eq!(pattern_of(1), AccessPattern::Uniform);
        assert_eq!(pattern_of(2), AccessPattern::Scan);
        assert_eq!(pattern_of(9), AccessPattern::Zipfian(0.99));
        let g1 = TenantGroup::new(&cfg(), 1);
        assert_eq!(g1.pattern(0), pattern_of(9));
    }
}
