//! The issue engine: the scheduling state behind the one issue gate.
//!
//! MIND's premise is that disaggregated memory is viable because the RDMA
//! NICs and the in-network directory keep many page-fault round trips in
//! flight at once (paper §3, §7): while one fault's fabric RTT is
//! outstanding, the blade issues the next, and a blade whose fault is in
//! flight does not stop its neighbours from issuing. The engine models
//! that as a set of concurrent *sources* (issue streams) whose readiness is
//! an event in a deterministic [`EventQueue`], over one pool of in-flight
//! operations. Three gates arbitrate each issue —
//!
//! 1. **slot pool** — at most `depth` operations in flight across all
//!    sources; an op that would exceed it waits for the earliest in-flight
//!    completion;
//! 2. **region serialization** — an op that consults the directory region
//!    of an in-flight transition waits for that transition, whichever
//!    source started it (the region's `busy_until` already orders them
//!    inside the switch; the gate keeps the *issue* side honest so the
//!    rack never has two transitions of one region outstanding);
//! 3. **per-NIC bandwidth** — each compute blade's RNIC keeps at most
//!    `nic_depth` operations outstanding (`0` = unbounded); a blade whose
//!    queue is full waits for its own earliest completion.
//!
//! The engine itself is pure scheduling over completion records
//! ([`IssuedAccess`](crate::coherence::IssuedAccess) supplies them): it
//! owns the pool, the ready queue, and per-source bookkeeping, and answers
//! one question per offered operation, [`ClusterEngine::sweep`] — when
//! each gate releases. The decision whether an op may issue is made in
//! exactly one place,
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
//! - one windowed batch (`MemorySystem::execute_batch` on a `MindCluster`
//!   at `window > 1` — a turnwise replay's turn, a service quantum): the
//!   batch's ops as one chained source or one source per fixed op,
//!   exactly `window` slots, the engine emptied before each batch
//!   ([`ClusterEngine::reset`]).
//!
//! At `window <= 1` nothing is driven through the engine: one op in
//! flight per issuer is the serialized schedule
//! ([`OpBatch::run_serialized`](crate::system::OpBatch::run_serialized)).

use mind_sim::{EventQueue, SimTime};

use crate::coherence::AccessError;
use crate::system::AccessOutcome;

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

/// One in-flight operation: when it completes, which directory region
/// (if any) its transition holds, and which compute blade's RNIC carries
/// it.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    complete_at: SimTime,
    /// The held region as `[region_base, region_base + region_len)`;
    /// `region_len == 0` when the op holds none.
    region_base: u64,
    region_len: u64,
    blade: u16,
}

impl InFlight {
    /// Whether this operation's directory region contains `addr`.
    fn holds(&self, addr: u64) -> bool {
        addr.wrapping_sub(self.region_base) < self.region_len
    }
}

/// What one [`ClusterEngine::sweep`] found: the release time of each
/// issue gate for one candidate operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gates {
    /// Earliest time the candidate can claim a slot: [`SimTime::ZERO`]
    /// (no constraint) while one is free, otherwise the earliest in-flight
    /// completion.
    pub slot_free_at: SimTime,
    /// Earliest time the candidate's blade may issue through its RNIC:
    /// [`SimTime::ZERO`] while its queue has a free entry or the NIC is
    /// unbounded, otherwise the earliest completion among the blade's
    /// in-flight ops.
    pub nic_free_at: SimTime,
    /// In-flight operations issued by the candidate's blade.
    pub nic_in_flight: usize,
    /// The latest completion among in-flight ops whose directory region
    /// contains the page the candidate would transition;
    /// [`SimTime::ZERO`] when none does, and for a candidate that consults
    /// no directory region (a local hit), which the gate does not hold.
    pub region_release: SimTime,
}

/// Issue state shared by a set of sources: the pool of in-flight
/// operations plus a deterministic ready queue.
///
/// The pool is kept ordered by completion time and each blade's share of
/// it is counted, so retirement pops a prefix, the slot gate reads the
/// front, and the NIC gate is a counter compare that scans (from the
/// front, stopping at the blade's first op) only when the queue is full.
/// Only the region gate walks the pool, and only for an operation that
/// will consult the directory.
#[derive(Debug)]
pub struct ClusterEngine {
    /// Slots in the pool: how many operations may be in flight at once.
    depth: usize,
    /// Per-blade RNIC queue depth: how many of the in-flight ops may
    /// belong to one issuing blade at once. `0` models an unbounded NIC
    /// queue.
    nic_depth: usize,
    /// In-flight ops, earliest completion first.
    slots: Vec<InFlight>,
    /// In-flight ops per issuing blade (grown on first use of a blade).
    per_blade: Vec<usize>,
    /// Latest completion among every op ever admitted — the overlap
    /// frontier used to attribute hidden fabric time.
    frontier: SimTime,
    queue: EventQueue<u32>,
    /// Per-source time the source first became ready (ungated) for its
    /// current op — survives gated deferrals so stall spans start where
    /// the wait actually began.
    ready0: Vec<SimTime>,
}

impl ClusterEngine {
    /// An engine for `sources` concurrent issue streams, each with a
    /// per-source window of `window` (pooled: the cluster-wide in-flight
    /// cap is `window × sources`, at least 1), over blades whose RNICs
    /// hold `nic_depth` ops each (`0` = unbounded).
    pub fn new(window: u32, nic_depth: u32, sources: u32) -> Self {
        let sources = sources.max(1) as usize;
        let depth = window.max(1) as usize * sources;
        // A source is pending at most once: one queue slot each.
        let mut queue = EventQueue::new();
        queue.reserve(sources);
        ClusterEngine {
            depth,
            nic_depth: nic_depth as usize,
            slots: Vec::with_capacity(depth),
            per_blade: Vec::new(),
            frontier: SimTime::ZERO,
            queue,
            ready0: vec![SimTime::ZERO; sources],
        }
    }

    /// Empties the engine for `sources` streams sharing a pool of exactly
    /// `depth` slots (not `depth` each; clamped to at least 1): nothing in
    /// flight, no frontier, an empty ready queue — keeping the NIC depth
    /// and the storage.
    pub fn reset(&mut self, depth: u32, sources: u32) {
        self.depth = (depth as usize).max(1);
        self.slots.clear();
        self.per_blade.fill(0);
        self.frontier = SimTime::ZERO;
        self.queue.clear();
        self.queue.reserve(sources as usize);
        self.ready0.clear();
        self.ready0.resize(sources as usize, SimTime::ZERO);
    }

    /// The number of issue streams the engine arbitrates.
    pub fn sources(&self) -> u32 {
        self.ready0.len() as u32
    }

    /// The slot pool's depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The per-blade RNIC queue depth (`0` = unbounded).
    pub fn nic_depth(&self) -> usize {
        self.nic_depth
    }

    /// Operations currently in flight.
    pub fn in_flight(&self) -> usize {
        self.slots.len()
    }

    /// In-flight operations issued by `blade`'s RNIC.
    pub fn nic_in_flight(&self, blade: u16) -> usize {
        self.per_blade.get(blade as usize).copied().unwrap_or(0)
    }

    /// The overlap frontier: the latest completion among every op admitted
    /// so far (retired or not). An op's fabric time spent below the
    /// frontier ran concurrently with earlier in-flight work.
    pub fn frontier(&self) -> SimTime {
        self.frontier
    }

    /// [`Gates::slot_free_at`].
    fn slot_free_at(&self) -> SimTime {
        if self.slots.len() < self.depth {
            SimTime::ZERO
        } else {
            self.slots[0].complete_at
        }
    }

    /// [`Gates::region_release`] for the page at `addr`.
    fn region_release(&self, addr: u64) -> SimTime {
        self.slots
            .iter()
            .rev()
            .find(|s| s.holds(addr))
            .map_or(SimTime::ZERO, |s| s.complete_at)
    }

    /// [`Gates::nic_free_at`] for `blade`.
    fn nic_free_at(&self, blade: u16) -> SimTime {
        if self.nic_depth == 0 || self.nic_in_flight(blade) < self.nic_depth {
            return SimTime::ZERO;
        }
        self.slots
            .iter()
            .find(|s| s.blade == blade)
            .map_or(SimTime::ZERO, |s| s.complete_at)
    }

    /// Retires every operation that completed at or before `now`.
    fn retire_through(&mut self, now: SimTime) {
        // Counted from the front, not searched for: most offers retire
        // nothing or an op or two.
        let retired = self
            .slots
            .iter()
            .take_while(|s| s.complete_at <= now)
            .count();
        for s in self.slots.drain(..retired) {
            self.per_blade[s.blade as usize] -= 1;
        }
    }

    /// Retires every operation that completed at or before `now`, then
    /// reports the gates for an operation by `blade` — what the issue gate
    /// asks per offered operation. `consults` is the page whose directory
    /// region the operation would transition, `None` for a local hit:
    /// only then is the pool walked for the region gate.
    pub fn sweep(&mut self, now: SimTime, blade: u16, consults: Option<u64>) -> Gates {
        self.retire_through(now);
        Gates {
            slot_free_at: self.slot_free_at(),
            nic_free_at: self.nic_free_at(blade),
            nic_in_flight: self.nic_in_flight(blade),
            region_release: consults.map_or(SimTime::ZERO, |addr| self.region_release(addr)),
        }
    }

    /// Admits an operation issued by `blade` occupying a slot until
    /// `complete_at`.
    ///
    /// # Panics
    ///
    /// Panics if the pool is full — callers must gate issue on a
    /// [`ClusterEngine::sweep`] at the issue time — and, in debug builds,
    /// if `blade`'s RNIC queue is already at its depth.
    pub fn admit(&mut self, complete_at: SimTime, region: Option<(u64, u8)>, blade: u16) {
        assert!(self.slots.len() < self.depth, "in-flight window overflow");
        debug_assert!(
            self.nic_depth == 0 || self.nic_in_flight(blade) < self.nic_depth,
            "per-NIC queue overflow on blade {blade}"
        );
        let (region_base, region_len) = region.map_or((0, 0), |(base, k)| (base, 1u64 << k));
        // A new op usually completes after most of the pool: find its
        // place from the back.
        let at = self
            .slots
            .iter()
            .rposition(|s| s.complete_at <= complete_at)
            .map_or(0, |i| i + 1);
        self.slots.insert(
            at,
            InFlight {
                complete_at,
                region_base,
                region_len,
                blade,
            },
        );
        if self.per_blade.len() <= blade as usize {
            self.per_blade.resize(blade as usize + 1, 0);
        }
        self.per_blade[blade as usize] += 1;
        self.frontier = self.frontier.max(complete_at);
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
        eng.admit(ns(250), None, 0);
        eng.reset(4, 5);
        assert_eq!(eng.sources(), 5);
        assert_eq!(eng.depth(), 4, "the pool is shared, not per source");
        assert_eq!(eng.nic_depth(), 2);
        assert_eq!(eng.in_flight(), 0);
        assert_eq!(eng.frontier(), SimTime::ZERO);
        assert_eq!(eng.next_ready(), None);
        assert_eq!(eng.ready0(4), SimTime::ZERO);
        // Seeding before the old clock is allowed again.
        eng.seed(ns(30), 4);
        assert_eq!(eng.next_ready(), Some((ns(30), 4)));
        eng.reset(0, 0);
        assert_eq!((eng.sources(), eng.depth()), (0, 1));
    }

    #[test]
    fn pool_depth_is_window_times_sources() {
        let eng = ClusterEngine::new(4, 2, 3);
        assert_eq!(eng.sources(), 3);
        assert_eq!(eng.depth(), 12);
        assert_eq!(eng.nic_depth(), 2);
        // Degenerate parameters clamp rather than collapse.
        assert_eq!(ClusterEngine::new(0, 0, 0).depth(), 1);
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
        eng.admit(ns(250), None, 0);
        eng.begin_phase();
        // Re-seeding *before* the old queue's last pop must not panic.
        eng.seed(ns(30), 1);
        assert_eq!(eng.next_ready(), Some((ns(30), 1)));
        assert_eq!(eng.in_flight(), 1, "in-flight state persists");
        assert_eq!(eng.frontier(), ns(250));
    }

    /// One op of the reference pool.
    struct Held {
        complete_at: SimTime,
        region: Option<(u64, u8)>,
        blade: u16,
    }

    /// The pool as it used to be kept — unordered, every gate its own
    /// linear scan: the oracle for the ordered pool and the one-call sweep.
    #[derive(Default)]
    struct ScanOracle {
        slots: Vec<Held>,
    }

    impl ScanOracle {
        fn retire_through(&mut self, now: SimTime) {
            self.slots.retain(|s| s.complete_at > now);
        }

        fn slot_free_at(&self, depth: usize) -> SimTime {
            if self.slots.len() < depth {
                SimTime::ZERO
            } else {
                self.slots.iter().map(|s| s.complete_at).min().unwrap()
            }
        }

        fn nic_in_flight(&self, blade: u16) -> usize {
            self.slots.iter().filter(|s| s.blade == blade).count()
        }

        fn nic_free_at(&self, nic_depth: usize, blade: u16) -> SimTime {
            if nic_depth == 0 || self.nic_in_flight(blade) < nic_depth {
                return SimTime::ZERO;
            }
            let own = self.slots.iter().filter(|s| s.blade == blade);
            own.map(|s| s.complete_at).min().unwrap()
        }

        fn region_release(&self, addr: u64) -> SimTime {
            self.slots
                .iter()
                .filter(|s| {
                    s.region
                        .is_some_and(|(base, k)| addr >= base && addr - base < 1u64 << k)
                })
                .map(|s| s.complete_at)
                .fold(SimTime::ZERO, SimTime::max)
        }
    }

    /// Random offers against a pool under slot, NIC and region pressure:
    /// one `sweep` must report what retire + the three separate scans
    /// report on the unordered reference, ties and nested regions included
    /// — the region scan for an op that consults the directory, no region
    /// hold for one that does not.
    #[test]
    fn sweep_matches_the_four_separate_scans() {
        use mind_sim::SimRng;
        let mut region_holds = 0;
        for (seed, depth, nic_depth) in [(1u64, 1usize, 0u32), (2, 8, 2), (3, 24, 4), (4, 64, 0)] {
            let mut rng = SimRng::new(seed);
            let mut w = ClusterEngine::new(depth as u32, nic_depth, 1);
            let mut oracle = ScanOracle::default();
            let mut now = SimTime::ZERO;
            for step in 0..4_000 {
                // Mostly small steps, so that most offers retire nothing
                // and some land exactly on a completion time.
                now += ns(rng.gen_below(40) * rng.gen_below(2));
                let blade = rng.gen_below(3) as u16;
                let addr = rng.gen_below(64) << 12;
                let consults = rng.gen_bool(0.5);
                oracle.retire_through(now);
                let expected = Gates {
                    slot_free_at: oracle.slot_free_at(depth),
                    nic_free_at: oracle.nic_free_at(nic_depth as usize, blade),
                    nic_in_flight: oracle.nic_in_flight(blade),
                    region_release: if consults {
                        oracle.region_release(addr)
                    } else {
                        SimTime::ZERO
                    },
                };
                region_holds += (expected.region_release > now) as u32;
                assert_eq!(
                    w.sweep(now, blade, consults.then_some(addr)),
                    expected,
                    "seed {seed} step {step} at {now:?}"
                );
                assert_eq!(w.in_flight(), oracle.slots.len());
                if expected.slot_free_at > now || expected.nic_free_at > now {
                    continue; // Gated: the op is re-offered later.
                }
                // Coarse completion times make ties; regions nest.
                let complete_at = now + ns(20 * (1 + rng.gen_below(12)));
                let region = rng.gen_bool(0.7).then(|| {
                    let k = 12 + rng.gen_below(4) as u8;
                    ((addr >> k) << k, k)
                });
                w.admit(complete_at, region, blade);
                oracle.slots.push(Held {
                    complete_at,
                    region,
                    blade,
                });
            }
        }
        assert!(region_holds > 1_000, "the region gate held {region_holds}");
    }

    #[test]
    fn reset_is_a_fresh_window_of_the_new_depth() {
        let mut w = ClusterEngine::new(2, 1, 1);
        w.admit(ns(100), Some((0x1000, 12)), 1);
        w.reset(3, 1);
        assert_eq!((w.depth(), w.nic_depth(), w.in_flight()), (3, 1, 0));
        assert_eq!(w.frontier(), SimTime::ZERO);
        assert_eq!(w.nic_in_flight(1), 0, "the blade's count is gone");
        assert_eq!(w.region_release(0x1000), SimTime::ZERO);
        w.reset(0, 1);
        assert_eq!(w.depth(), 1, "clamped like `new`");
    }

    #[test]
    fn depth_clamps_to_one() {
        assert_eq!(ClusterEngine::new(0, 0, 1).depth(), 1);
        assert_eq!(ClusterEngine::new(4, 0, 1).depth(), 4);
    }

    #[test]
    fn slot_gate_frees_at_earliest_completion() {
        let mut w = ClusterEngine::new(2, 0, 1);
        assert_eq!(w.slot_free_at(), SimTime::ZERO, "empty window is free");
        w.admit(ns(100), None, 0);
        assert_eq!(w.slot_free_at(), SimTime::ZERO, "one slot still free");
        w.admit(ns(60), None, 0);
        assert_eq!(w.slot_free_at(), ns(60), "full: earliest completion");
        w.retire_through(ns(60));
        assert_eq!(w.in_flight(), 1);
        assert_eq!(w.slot_free_at(), SimTime::ZERO);
    }

    #[test]
    fn region_release_serializes_containing_region_only() {
        let mut w = ClusterEngine::new(4, 0, 1);
        w.admit(ns(500), Some((0x1_0000, 14)), 0); // [0x10000, 0x14000)
        w.admit(ns(300), Some((0x4_0000, 13)), 0); // [0x40000, 0x42000)
        w.admit(ns(900), None, 0); // Local hit: holds no region.
        assert_eq!(w.region_release(0x1_3FFF), ns(500), "inside first");
        assert_eq!(w.region_release(0x1_4000), SimTime::ZERO, "just past it");
        assert_eq!(w.region_release(0x4_1000), ns(300), "inside second");
        assert_eq!(w.region_release(0x9_0000), SimTime::ZERO, "untracked");
        // Two holders of nested ranges: the latest completion wins.
        w.admit(ns(800), Some((0x1_0000, 16)), 0);
        assert_eq!(w.region_release(0x1_2000), ns(800));
    }

    #[test]
    fn frontier_tracks_all_issued_ops() {
        let mut w = ClusterEngine::new(2, 0, 1);
        assert_eq!(w.frontier(), SimTime::ZERO);
        w.admit(ns(400), None, 0);
        w.admit(ns(200), None, 0);
        assert_eq!(w.frontier(), ns(400));
        w.retire_through(ns(1_000));
        assert_eq!(w.in_flight(), 0);
        assert_eq!(w.frontier(), ns(400), "retirement keeps the frontier");
    }

    #[test]
    #[should_panic(expected = "in-flight window overflow")]
    fn admit_beyond_depth_panics() {
        let mut w = ClusterEngine::new(1, 0, 1);
        w.admit(ns(10), None, 0);
        w.admit(ns(20), None, 0);
    }

    #[test]
    fn nic_gate_is_unbounded_by_default() {
        let mut w = ClusterEngine::new(4, 0, 1);
        assert_eq!(w.nic_depth(), 0);
        w.admit(ns(100), None, 3);
        w.admit(ns(200), None, 3);
        assert_eq!(w.nic_in_flight(3), 2);
        assert_eq!(w.nic_free_at(3), SimTime::ZERO, "depth 0 never gates");
    }

    #[test]
    fn nic_gate_frees_at_the_blades_earliest_completion() {
        let mut w = ClusterEngine::new(8, 2, 1);
        assert_eq!(w.nic_depth(), 2);
        w.admit(ns(100), None, 0);
        w.admit(ns(60), None, 1);
        assert_eq!(w.nic_free_at(0), SimTime::ZERO, "one entry left");
        w.admit(ns(40), None, 0);
        assert_eq!(w.nic_free_at(0), ns(40), "blade 0 full: its earliest");
        assert_eq!(w.nic_free_at(1), SimTime::ZERO, "blade 1 unaffected");
        w.retire_through(ns(40));
        assert_eq!(w.nic_in_flight(0), 1);
        assert_eq!(w.nic_free_at(0), SimTime::ZERO);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "per-NIC queue overflow")]
    fn admit_beyond_nic_depth_panics() {
        let mut w = ClusterEngine::new(8, 1, 1);
        w.admit(ns(10), None, 2);
        w.admit(ns(20), None, 2);
    }
}
