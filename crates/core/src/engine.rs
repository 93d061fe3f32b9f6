//! The issue engine: the scheduling state behind the one issue gate.
//!
//! Real MIND blades do not run in lockstep — a blade whose fault is in
//! flight does not stop its neighbours from issuing, and the fabric keeps
//! round trips from *every* blade outstanding at once (paper §3, §7). The
//! engine models that as a set of concurrent *sources* (issue streams)
//! whose readiness is an event in a deterministic [`EventQueue`], over one
//! shared [`InFlightWindow`]. Three gates arbitrate each issue —
//!
//! 1. **slot pool** — at most `depth` operations in flight across all
//!    sources;
//! 2. **region serialization** — an op that consults the directory region
//!    of an in-flight transition waits for that transition, whichever
//!    source started it;
//! 3. **per-NIC bandwidth** — each compute blade's RNIC keeps at most
//!    `nic_depth` operations outstanding (`0` = unbounded).
//!
//! The engine itself is pure scheduling: it owns the pooled window, the
//! ready queue, and per-source bookkeeping, while the decision whether an
//! op may issue is made in exactly one place,
//! [`MindCluster::issue_clustered`](crate::cluster::MindCluster), which
//! consults the gates and either issues at the popped virtual time,
//! returns a *gated* step, or hands back the rack's refusal. A gated
//! source is re-scheduled at the exact gate-release time (a completion of
//! an already-admitted op, so virtual time strictly advances and the loop
//! terminates); ties pop in schedule order, which keeps the whole
//! interleaving deterministic for a fixed source count regardless of OS
//! threads or sharding.
//!
//! Who drives it, and with what pool:
//!
//! - a cluster-mode replay (`Concurrency::Cluster` in `mind_workloads`):
//!   one source per compute thread for the whole run, `window × threads`
//!   slots ([`ClusterEngine::new`]);
//! - one windowed batch (`MindCluster::run_batch` at `window > 1` — a
//!   turnwise replay's turn, a service quantum): the batch's ops as one
//!   chained source or one source per fixed op, exactly `window` slots,
//!   the engine emptied before each batch ([`ClusterEngine::reset`]).
//!
//! At `window <= 1` nothing is driven through the engine: one op in
//! flight per issuer is the serialized schedule.

use mind_sim::{EventQueue, SimTime};

use crate::coherence::AccessError;
use crate::system::AccessOutcome;
use crate::window::InFlightWindow;

/// The outcome of offering one source's next operation to the engine.
#[derive(Debug, Clone, Copy)]
pub enum ClusterStep {
    /// The operation issued at the popped time.
    Issued {
        /// The access outcome, with hidden fabric time already attributed
        /// to `latency.overlapped` against the pool's frontier.
        outcome: AccessOutcome,
        /// When the operation completes (virtual time).
        complete_at: SimTime,
        /// The directory region `(base, log2 size)` this op transitioned,
        /// if it consulted the switch — the span the region gate
        /// serializes cluster-wide until `complete_at` (`None` for local
        /// hits, which hold no region).
        region: Option<(u64, u8)>,
    },
    /// A gate held the operation; the source must be re-offered at
    /// `until`.
    Gated {
        /// The earliest time every gate is clear (strictly in the future).
        until: SimTime,
        /// The share of the wait attributable to the per-NIC bandwidth
        /// gate alone — the extra delay beyond what the slot pool and
        /// region serialization already imposed ([`SimTime::ZERO`] when
        /// the NIC was not the binding constraint).
        nic_stall: SimTime,
    },
    /// The rack refused the access (protection, translation, a failed
    /// blade). The operation occupied no slot and is not re-offered.
    Refused(AccessError),
}

/// Issue state shared by a set of sources: the pooled in-flight window
/// plus a deterministic ready queue.
#[derive(Debug)]
pub struct ClusterEngine {
    window: InFlightWindow,
    queue: EventQueue<u32>,
    /// Per-source time the source first became ready (ungated) for its
    /// current op — survives gated deferrals so stall spans start where
    /// the wait actually began.
    ready0: Vec<SimTime>,
}

impl ClusterEngine {
    /// An engine for `sources` concurrent issue streams, each with a
    /// per-source window of `window` (pooled: the cluster-wide in-flight
    /// cap is `window × sources`), over blades whose RNICs hold
    /// `nic_depth` ops each (`0` = unbounded).
    pub fn new(window: u32, nic_depth: u32, sources: u32) -> Self {
        let sources = sources.max(1) as usize;
        ClusterEngine {
            window: InFlightWindow::new(window.max(1) as usize * sources)
                .with_nic_depth(nic_depth),
            queue: EventQueue::new(),
            ready0: vec![SimTime::ZERO; sources],
        }
    }

    /// Empties the engine for `sources` streams sharing a pool of exactly
    /// `slots` (not `slots` each): nothing in flight, no frontier, an
    /// empty ready queue — keeping the NIC depth and the storage.
    pub fn reset(&mut self, slots: u32, sources: u32) {
        self.window.reset(slots as usize);
        self.queue.clear();
        self.ready0.clear();
        self.ready0.resize(sources as usize, SimTime::ZERO);
    }

    /// The number of issue streams the engine arbitrates.
    pub fn sources(&self) -> u32 {
        self.ready0.len() as u32
    }

    /// The pooled in-flight window (slot, region, and NIC gates).
    pub fn window(&self) -> &InFlightWindow {
        &self.window
    }

    /// Mutable access for the issuing system (retire/admit).
    pub fn window_mut(&mut self) -> &mut InFlightWindow {
        &mut self.window
    }

    /// Starts a fresh scheduling phase (e.g. warmup → measured): drops any
    /// pending readiness events and resets the clock so sources can be
    /// re-seeded at their resume times, which may precede the old queue's
    /// final pop. In-flight state and the overlap frontier persist — a
    /// phase boundary is an accounting boundary, not a fabric drain.
    pub fn begin_phase(&mut self) {
        self.queue.clear();
    }

    /// Declares `source` ready to issue its next operation at `at`,
    /// starting a new ungated-wait span ([`ClusterEngine::ready0`]).
    pub fn seed(&mut self, at: SimTime, source: u32) {
        self.ready0[source as usize] = at;
        self.queue.schedule(at, source);
    }

    /// Re-schedules a gated `source` at `until`, preserving the start of
    /// its wait span.
    pub fn defer(&mut self, until: SimTime, source: u32) {
        self.queue.schedule(until, source);
    }

    /// Pops the next ready source and the virtual time it pops at.
    /// Same-timestamp sources pop in schedule order (the queue's
    /// `(at, seq)` order is total).
    pub fn next_ready(&mut self) -> Option<(SimTime, u32)> {
        self.queue.pop().map(|ev| (ev.at, ev.event))
    }

    /// When `source` first became ready for its current operation.
    pub fn ready0(&self, source: u32) -> SimTime {
        self.ready0[source as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    /// The ready queue as it used to be: the standard library's heap on
    /// `(at, seq)`, drained a whole timestamp at a time into a scratch
    /// batch that `next_ready` walks with a cursor.
    #[derive(Default)]
    struct ScratchBatchOracle {
        heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
        next_seq: u64,
        scratch: Vec<(SimTime, u32)>,
        cursor: usize,
    }

    impl ScratchBatchOracle {
        fn schedule(&mut self, at: SimTime, source: u32) {
            self.heap.push(Reverse((at, self.next_seq, source)));
            self.next_seq += 1;
        }

        fn queue_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|ev| ev.0 .0)
        }

        fn next_ready(&mut self) -> Option<(SimTime, u32)> {
            if self.cursor == self.scratch.len() {
                self.scratch.clear();
                self.cursor = 0;
                let at = self.queue_time();
                while at.is_some() && self.queue_time() == at {
                    let Reverse((at, _, source)) = self.heap.pop().unwrap();
                    self.scratch.push((at, source));
                }
            }
            let ev = *self.scratch.get(self.cursor)?;
            self.cursor += 1;
            Some(ev)
        }
    }

    /// The runner's traffic over the engine — pop a source, then re-seed it
    /// (think time, often zero: the same timestamp again), defer it to a
    /// later gate release, or let it finish — pops the sources in the order
    /// the same-timestamp scratch batch did, phase changes and resets
    /// included.
    #[test]
    fn pop_order_matches_the_scratch_batch_engine() {
        use mind_sim::SimRng;
        for (seed, sources) in [(1u64, 4u32), (2, 40), (3, 512)] {
            let mut rng = SimRng::new(seed);
            let mut eng = ClusterEngine::new(2, 0, sources);
            let mut oracle = ScratchBatchOracle::default();
            let mut idle: Vec<u32> = Vec::new();
            let reseed = |eng: &mut ClusterEngine, oracle: &mut ScratchBatchOracle, at| {
                for src in 0..sources {
                    eng.seed(at, src);
                    oracle.schedule(at, src);
                }
            };
            reseed(&mut eng, &mut oracle, SimTime::ZERO);
            let mut same_time_reseeds = 0;
            for step in 0..40_000 {
                let ctx = format!("seed {seed} step {step}");
                let popped = eng.next_ready();
                assert_eq!(popped, oracle.next_ready(), "{ctx}: pop");
                let Some((now, src)) = popped else {
                    // Everything finished: a new phase (the old clock may
                    // be ahead of the new seeds) or a reset engine.
                    if rng.gen_bool(0.5) {
                        eng.begin_phase();
                    } else {
                        eng.reset(2 * sources, sources);
                        assert_eq!(eng.sources(), sources);
                    }
                    oracle = ScratchBatchOracle::default();
                    idle.clear();
                    reseed(&mut eng, &mut oracle, ns(rng.gen_below(50)));
                    continue;
                };
                match rng.gen_below(10) {
                    0..=5 => {
                        let gap = ns(20 * rng.gen_below(3));
                        same_time_reseeds += (gap == SimTime::ZERO) as u32;
                        eng.seed(now + gap, src);
                        oracle.schedule(now + gap, src);
                    }
                    6..=8 => {
                        let until = now + ns(1 + 20 * rng.gen_below(4));
                        eng.defer(until, src);
                        oracle.schedule(until, src);
                    }
                    _ => idle.push(src),
                }
                // A finished source sometimes comes back (a later batch).
                if !idle.is_empty() && rng.gen_bool(0.08) {
                    let src = idle.swap_remove(rng.gen_below(idle.len() as u64) as usize);
                    eng.seed(now + ns(40), src);
                    oracle.schedule(now + ns(40), src);
                }
            }
            assert!(same_time_reseeds > 2_000, "seed {seed}");
        }
    }

    #[test]
    fn reset_resizes_the_pool_and_forgets_the_run() {
        let mut eng = ClusterEngine::new(4, 2, 3);
        eng.seed(ns(100), 2);
        eng.next_ready();
        eng.window_mut().admit(ns(250), None, 0);
        eng.reset(4, 5);
        assert_eq!(eng.sources(), 5);
        assert_eq!(eng.window().depth(), 4, "the pool is shared, not per source");
        assert_eq!(eng.window().nic_depth(), 2);
        assert_eq!(eng.window().in_flight(), 0);
        assert_eq!(eng.window().frontier(), SimTime::ZERO);
        assert_eq!(eng.next_ready(), None);
        assert_eq!(eng.ready0(4), SimTime::ZERO);
        // Seeding before the old clock is allowed again.
        eng.seed(ns(30), 4);
        assert_eq!(eng.next_ready(), Some((ns(30), 4)));
        eng.reset(0, 0);
        assert_eq!((eng.sources(), eng.window().depth()), (0, 1));
    }

    #[test]
    fn pool_depth_is_window_times_sources() {
        let eng = ClusterEngine::new(4, 2, 3);
        assert_eq!(eng.sources(), 3);
        assert_eq!(eng.window().depth(), 12);
        assert_eq!(eng.window().nic_depth(), 2);
        // Degenerate parameters clamp rather than collapse.
        assert_eq!(ClusterEngine::new(0, 0, 0).window().depth(), 1);
    }

    #[test]
    fn sources_pop_in_time_then_seed_order() {
        let mut eng = ClusterEngine::new(1, 0, 3);
        eng.seed(ns(20), 2);
        eng.seed(ns(10), 0);
        eng.seed(ns(10), 1);
        assert_eq!(eng.next_ready(), Some((ns(10), 0)));
        assert_eq!(eng.next_ready(), Some((ns(10), 1)));
        assert_eq!(eng.next_ready(), Some((ns(20), 2)));
        assert!(eng.next_ready().is_none());
    }

    #[test]
    fn ready0_survives_deferral() {
        let mut eng = ClusterEngine::new(2, 0, 2);
        eng.seed(ns(5), 0);
        let (now, src) = eng.next_ready().unwrap();
        assert_eq!((now, src), (ns(5), 0));
        eng.defer(ns(40), src);
        assert_eq!(eng.ready0(0), ns(5), "wait span anchored at first ready");
        assert_eq!(eng.next_ready(), Some((ns(40), 0)));
        eng.seed(ns(50), 0);
        assert_eq!(eng.ready0(0), ns(50), "re-seeding starts a new span");
    }

    #[test]
    fn begin_phase_resets_the_clock_but_not_the_window() {
        let mut eng = ClusterEngine::new(1, 0, 2);
        eng.seed(ns(100), 0);
        eng.next_ready();
        eng.window_mut().admit(ns(250), None, 0);
        eng.begin_phase();
        // Re-seeding *before* the old queue's last pop must not panic.
        eng.seed(ns(30), 1);
        assert_eq!(eng.next_ready(), Some((ns(30), 1)));
        assert_eq!(eng.window().in_flight(), 1, "in-flight state persists");
        assert_eq!(eng.window().frontier(), ns(250));
    }
}
