//! The §7.2 microbenchmark: uniform random accesses over a large working
//! set, swept over *read ratio* (fraction of loads) and *sharing ratio*
//! (fraction of accesses that target a region shared by all threads).
//!
//! The paper uses a 400 k-page working set with uniform random access;
//! Figure 7 (center) plots 4 KB IOPS over the sweep and Figure 7 (right)
//! the latency breakdown at sharing ratio 1.

use mind_core::system::AccessKind;
use mind_sim::SimRng;

use crate::trace::{TraceOp, Workload};

/// Microbenchmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct MicroConfig {
    /// Threads issuing accesses.
    pub n_threads: u16,
    /// Fraction of accesses that are reads.
    pub read_ratio: f64,
    /// Fraction of accesses that target the shared region.
    pub sharing_ratio: f64,
    /// Shared region size in pages (400 k in the paper).
    pub shared_pages: u64,
    /// Private region size per thread, in pages.
    pub private_pages: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MicroConfig {
    fn default() -> Self {
        MicroConfig {
            n_threads: 8,
            read_ratio: 0.5,
            sharing_ratio: 0.5,
            shared_pages: 400_000,
            private_pages: 50_000,
            seed: 42,
        }
    }
}

/// The microbenchmark generator.
#[derive(Debug)]
pub struct MicroWorkload {
    cfg: MicroConfig,
    rngs: Vec<SimRng>,
}

impl MicroWorkload {
    /// Creates the generator.
    pub fn new(cfg: MicroConfig) -> Self {
        let mut root = SimRng::new(cfg.seed);
        MicroWorkload {
            rngs: (0..cfg.n_threads).map(|_| root.fork()).collect(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MicroConfig {
        &self.cfg
    }
}

impl Workload for MicroWorkload {
    fn name(&self) -> String {
        format!(
            "micro(r={},s={})",
            self.cfg.read_ratio, self.cfg.sharing_ratio
        )
    }

    fn regions(&self) -> Vec<u64> {
        // Region 0: shared; regions 1..=n: per-thread private.
        let mut r = vec![self.cfg.shared_pages << 12];
        r.extend((0..self.cfg.n_threads).map(|_| self.cfg.private_pages << 12));
        r
    }

    fn n_threads(&self) -> u16 {
        self.cfg.n_threads
    }

    fn next_op(&mut self, thread: u16) -> TraceOp {
        draw(&self.cfg, thread, &mut self.rngs[thread as usize])
    }

    fn fill_ops(&mut self, thread: u16, n: usize, out: &mut Vec<TraceOp>) {
        // One RNG borrow and config read for the whole run of ops.
        let (cfg, rng) = (&self.cfg, &mut self.rngs[thread as usize]);
        out.extend((0..n).map(|_| draw(cfg, thread, rng)));
    }
}

/// Thread `thread`'s next op, drawn from its RNG `rng`: the one generator
/// body behind [`Workload::next_op`] and [`Workload::fill_ops`].
fn draw(cfg: &MicroConfig, thread: u16, rng: &mut SimRng) -> TraceOp {
    let (region, pages) = if rng.gen_bool(cfg.sharing_ratio) {
        (0u16, cfg.shared_pages)
    } else {
        (1 + thread, cfg.private_pages)
    };
    let page = rng.gen_below(pages);
    let kind = if rng.gen_bool(cfg.read_ratio) {
        AccessKind::Read
    } else {
        AccessKind::Write
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

    fn sample_ops(cfg: MicroConfig, n: usize) -> Vec<TraceOp> {
        let mut wl = MicroWorkload::new(cfg);
        (0..n)
            .map(|i| wl.next_op((i % cfg.n_threads as usize) as u16))
            .collect()
    }

    #[test]
    fn read_ratio_respected() {
        let ops = sample_ops(
            MicroConfig {
                read_ratio: 0.75,
                ..Default::default()
            },
            40_000,
        );
        let reads = ops.iter().filter(|o| !o.kind.is_write()).count();
        let frac = reads as f64 / ops.len() as f64;
        assert!((frac - 0.75).abs() < 0.02, "read fraction {frac}");
    }

    #[test]
    fn sharing_ratio_respected() {
        let ops = sample_ops(
            MicroConfig {
                sharing_ratio: 0.25,
                ..Default::default()
            },
            40_000,
        );
        let shared = ops.iter().filter(|o| o.region == 0).count();
        let frac = shared as f64 / ops.len() as f64;
        assert!((frac - 0.25).abs() < 0.02, "shared fraction {frac}");
    }

    #[test]
    fn offsets_stay_in_bounds() {
        let cfg = MicroConfig {
            shared_pages: 100,
            private_pages: 10,
            ..Default::default()
        };
        let mut wl = MicroWorkload::new(cfg);
        let regions = wl.regions();
        for i in 0..10_000 {
            let op = wl.next_op((i % 8) as u16);
            assert!(op.offset < regions[op.region as usize]);
        }
    }

    #[test]
    fn private_regions_are_per_thread() {
        let mut wl = MicroWorkload::new(MicroConfig {
            sharing_ratio: 0.0,
            n_threads: 4,
            ..Default::default()
        });
        for t in 0..4u16 {
            for _ in 0..100 {
                assert_eq!(wl.next_op(t).region, 1 + t);
            }
        }
    }

    #[test]
    fn fill_ops_matches_scalar_stream() {
        let cfg = MicroConfig::default();
        let mut scalar = MicroWorkload::new(cfg);
        let mut batched = MicroWorkload::new(cfg);
        // Interleave threads and batch sizes: the batched stream must be
        // exactly the concatenation of the scalar per-thread streams.
        for (thread, n) in [(0u16, 1usize), (1, 64), (0, 7), (2, 256), (1, 3)] {
            let want: Vec<TraceOp> = (0..n).map(|_| scalar.next_op(thread)).collect();
            let mut got = Vec::new();
            batched.fill_ops(thread, n, &mut got);
            assert_eq!(got, want, "thread {thread} batch of {n}");
        }
    }

    #[test]
    fn deterministic_per_thread_streams() {
        let mk = |order: &[u16]| {
            let mut wl = MicroWorkload::new(MicroConfig::default());
            let mut t0_ops = Vec::new();
            for &t in order {
                let op = wl.next_op(t);
                if t == 0 {
                    t0_ops.push(op);
                }
            }
            t0_ops
        };
        // Thread 0's stream is identical regardless of interleaving.
        let a = mk(&[0, 0, 0, 0]);
        let b = mk(&[0, 1, 2, 0, 3, 0, 1, 0]);
        assert_eq!(a, b);
    }
}
