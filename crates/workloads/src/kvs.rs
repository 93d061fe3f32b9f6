//! Native-KVS: a simple key-value store written *against* the transparent
//! shared-memory interface ("Native-KVS", Figure 5 right).
//!
//! Unlike memcached — whose global LRU/statistics structures couple all
//! threads — the native store partitions its state per thread, with only a
//! small fraction of operations crossing partitions. The paper attributes
//! its better YCSB-A scaling to exactly this partitioning, and YCSB-C
//! scales linearly across blades because a read-only workload with no
//! metadata writes triggers no invalidations at all.

use mind_core::system::AccessKind;
use mind_sim::rng::Zipfian;
use mind_sim::SimRng;

use crate::memcached::YcsbMix;
use crate::trace::{TraceOp, Workload};

/// Native-KVS parameters. The store has a fixed number of partitions
/// (footprint independent of thread count); thread `t` "owns" partition
/// `t % n_partitions`.
#[derive(Debug, Clone, Copy)]
pub struct KvsConfig {
    /// Client threads.
    pub n_threads: u16,
    /// Fixed store partitions.
    pub n_partitions: u16,
    /// YCSB mix (A or C).
    pub mix: YcsbMix,
    /// Pages per partition.
    pub partition_pages: u64,
    /// Fraction of ops that target the thread's own partition.
    pub locality: f64,
    /// Zipfian skew within a partition.
    pub zipf_theta: f64,
    /// RNG seed.
    pub seed: u64,
}

impl KvsConfig {
    /// Defaults for YCSB-A.
    pub fn ycsb_a(n_threads: u16) -> Self {
        KvsConfig {
            n_threads,
            n_partitions: 16,
            mix: YcsbMix::A,
            partition_pages: 4_096,
            locality: 0.95,
            zipf_theta: 0.99,
            seed: 17,
        }
    }

    /// Defaults for YCSB-C.
    pub fn ycsb_c(n_threads: u16) -> Self {
        KvsConfig {
            mix: YcsbMix::C,
            ..Self::ycsb_a(n_threads)
        }
    }
}

/// The Native-KVS generator.
#[derive(Debug)]
pub struct KvsWorkload {
    cfg: KvsConfig,
    zipf: Zipfian,
    rngs: Vec<SimRng>,
}

impl KvsWorkload {
    /// Creates the generator.
    pub fn new(cfg: KvsConfig) -> Self {
        let mut root = SimRng::new(cfg.seed);
        KvsWorkload {
            zipf: Zipfian::new(cfg.partition_pages, cfg.zipf_theta),
            rngs: (0..cfg.n_threads).map(|_| root.fork()).collect(),
            cfg,
        }
    }
}

impl Workload for KvsWorkload {
    fn name(&self) -> String {
        format!(
            "KVS-{}(p={})",
            match self.cfg.mix {
                YcsbMix::A => "A",
                YcsbMix::C => "C",
            },
            self.cfg.n_partitions
        )
    }

    fn regions(&self) -> Vec<u64> {
        (0..self.cfg.n_partitions)
            .map(|_| self.cfg.partition_pages << 12)
            .collect()
    }

    fn n_threads(&self) -> u16 {
        self.cfg.n_threads
    }

    fn next_op(&mut self, thread: u16) -> TraceOp {
        let rng = &mut self.rngs[thread as usize];
        draw(&self.cfg, &self.zipf, thread, rng)
    }

    fn fill_ops(&mut self, thread: u16, n: usize, out: &mut Vec<TraceOp>) {
        // One RNG borrow and config read for the whole run of ops.
        let (cfg, zipf, rng) = (&self.cfg, &self.zipf, &mut self.rngs[thread as usize]);
        out.extend((0..n).map(|_| draw(cfg, zipf, thread, rng)));
    }
}

/// Thread `thread`'s next op, drawn from its RNG `rng`: the one generator
/// body behind [`Workload::next_op`] and [`Workload::fill_ops`].
fn draw(cfg: &KvsConfig, zipf: &Zipfian, thread: u16, rng: &mut SimRng) -> TraceOp {
    let own = thread % cfg.n_partitions;
    let region = if rng.gen_bool(cfg.locality) || cfg.n_partitions == 1 {
        own
    } else {
        // Cross-partition access (remote key lookup).
        let mut other = rng.gen_below(cfg.n_partitions as u64) as u16;
        if other == own {
            other = (other + 1) % cfg.n_partitions;
        }
        other
    };
    let page = zipf.sample(rng);
    let kind = if rng.gen_bool(cfg.mix.update_fraction()) {
        AccessKind::Write
    } else {
        AccessKind::Read
    };
    TraceOp {
        region,
        offset: page << 12,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ycsb_c_is_read_only() {
        let mut wl = KvsWorkload::new(KvsConfig::ycsb_c(4));
        for i in 0..20_000 {
            assert!(!wl.next_op((i % 4) as u16).kind.is_write());
        }
    }

    #[test]
    fn ycsb_a_is_half_writes() {
        let mut wl = KvsWorkload::new(KvsConfig::ycsb_a(4));
        let writes = (0..40_000)
            .filter(|i| wl.next_op((i % 4) as u16).kind.is_write())
            .count();
        let frac = writes as f64 / 40_000.0;
        assert!((frac - 0.5).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn ops_mostly_local_partition() {
        let mut wl = KvsWorkload::new(KvsConfig::ycsb_a(8));
        let local = (0..10_000).filter(|_| wl.next_op(3).region == 3).count();
        let frac = local as f64 / 10_000.0;
        assert!((frac - 0.95).abs() < 0.02, "local fraction {frac}");
    }

    #[test]
    fn cross_partition_never_self() {
        let mut wl = KvsWorkload::new(KvsConfig {
            locality: 0.0,
            ..KvsConfig::ycsb_a(4)
        });
        for _ in 0..5_000 {
            assert_ne!(wl.next_op(2).region, 2);
        }
    }

    #[test]
    fn single_partition_stays_local() {
        let mut wl = KvsWorkload::new(KvsConfig {
            locality: 0.0,
            n_partitions: 1,
            ..KvsConfig::ycsb_a(1)
        });
        assert_eq!(wl.next_op(0).region, 0);
    }

    #[test]
    fn fill_ops_matches_scalar_stream() {
        let cfg = KvsConfig::ycsb_a(4);
        let mut scalar = KvsWorkload::new(cfg);
        let mut batched = KvsWorkload::new(cfg);
        for (thread, n) in [(0u16, 64usize), (3, 1), (1, 200), (0, 8)] {
            let want: Vec<TraceOp> = (0..n).map(|_| scalar.next_op(thread)).collect();
            let mut got = Vec::new();
            batched.fill_ops(thread, n, &mut got);
            assert_eq!(got, want, "thread {thread} batch of {n}");
        }
    }

    #[test]
    fn footprint_is_thread_independent() {
        let a = KvsWorkload::new(KvsConfig::ycsb_a(1)).regions();
        let b = KvsWorkload::new(KvsConfig::ycsb_a(80)).regions();
        assert_eq!(a, b);
    }
}
