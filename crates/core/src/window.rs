//! The in-flight window: the bookkeeping under the issue gate.
//!
//! MIND's premise is that disaggregated memory is viable because the RDMA
//! NICs and the in-network directory keep many page-fault round trips in
//! flight at once (paper §3, §7): while one fault's fabric RTT is
//! outstanding, the blade issues the next. A window of depth `W` holds up
//! to `W` concurrently in-flight operations; an op that would exceed the
//! depth waits for the earliest in-flight completion, an op whose blade's
//! RNIC queue is full waits for that blade's earliest completion, and an
//! op that consults the *directory region* of an in-flight op waits for
//! that op to complete — same-region transitions serialize (the region's
//! `busy_until` already orders them inside the switch; the window keeps
//! the *issue* side honest so the rack never has two transitions of one
//! region outstanding).
//!
//! The window is pure bookkeeping over completion records
//! ([`mind_core::coherence::IssuedAccess`](crate::coherence::IssuedAccess)
//! supplies them) and performs no simulation itself. It answers one
//! question per offered operation, [`InFlightWindow::sweep`] — when each
//! gate releases — and the one caller that turns the answer into "issue"
//! or "wait" is
//! [`MindCluster::issue_clustered`](crate::cluster::MindCluster::issue_clustered).

use mind_sim::SimTime;

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

/// What one [`InFlightWindow::sweep`] found: the release time of each
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

/// A fixed-depth window of in-flight operations.
///
/// The pool is kept ordered by completion time and each blade's share of
/// it is counted, so retirement pops a prefix, the slot gate reads the
/// front, and the NIC gate is a counter compare that scans (from the
/// front, stopping at the blade's first op) only when the queue is full.
/// Only the region gate walks the pool, and only for an operation that
/// will consult the directory.
#[derive(Debug)]
pub struct InFlightWindow {
    depth: usize,
    /// Per-blade RNIC queue depth: how many of the in-flight ops may
    /// belong to one issuing blade at once. `0` models an unbounded NIC
    /// queue (the pre-NIC-gate behaviour, byte-identical).
    nic_depth: usize,
    /// In-flight ops, earliest completion first.
    slots: Vec<InFlight>,
    /// In-flight ops per issuing blade (grown on first use of a blade).
    per_blade: Vec<usize>,
    /// Latest completion among every op ever issued through this window —
    /// the overlap frontier used to attribute hidden fabric time.
    frontier: SimTime,
}

impl InFlightWindow {
    /// A window admitting up to `depth` concurrent operations (`depth` is
    /// clamped to at least 1). The per-NIC gate starts unbounded; see
    /// [`InFlightWindow::with_nic_depth`].
    pub fn new(depth: usize) -> Self {
        let depth = depth.max(1);
        InFlightWindow {
            depth,
            nic_depth: 0,
            slots: Vec::with_capacity(depth),
            per_blade: Vec::new(),
            frontier: SimTime::ZERO,
        }
    }

    /// Bounds each issuing blade's RNIC to `depth` concurrent operations
    /// (builder-style). `0` — the default — models an unbounded NIC queue
    /// and changes nothing.
    pub fn with_nic_depth(mut self, depth: u32) -> Self {
        self.nic_depth = depth as usize;
        self
    }

    /// Empties the window and gives it `depth` slots (clamped to at least
    /// 1), keeping the NIC depth and the storage: nothing in flight, no
    /// frontier — the window [`InFlightWindow::new`] would build.
    pub fn reset(&mut self, depth: usize) {
        self.depth = depth.max(1);
        self.slots.clear();
        self.per_blade.fill(0);
        self.frontier = SimTime::ZERO;
    }

    /// The window depth.
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

    /// In-flight operations issued by `blade`'s RNIC.
    pub fn nic_in_flight(&self, blade: u16) -> usize {
        self.per_blade.get(blade as usize).copied().unwrap_or(0)
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
    /// asks per offered operation. `consults` is the page whose directory region the
    /// operation would transition, `None` for a local hit: only then is
    /// the pool walked for the region gate.
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
    /// Panics if the window is full — callers must gate issue on a
    /// [`InFlightWindow::sweep`] at the issue time — and, in debug builds,
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

    /// The overlap frontier: the latest completion among every op issued
    /// through this window so far (retired or not). An op's fabric time
    /// spent below the frontier ran concurrently with earlier in-flight
    /// work.
    pub fn frontier(&self) -> SimTime {
        self.frontier
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
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
            let mut w = InFlightWindow::new(depth).with_nic_depth(nic_depth);
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
        let mut w = InFlightWindow::new(2).with_nic_depth(1);
        w.admit(ns(100), Some((0x1000, 12)), 1);
        w.reset(3);
        assert_eq!((w.depth(), w.nic_depth(), w.in_flight()), (3, 1, 0));
        assert_eq!(w.frontier(), SimTime::ZERO);
        assert_eq!(w.nic_in_flight(1), 0, "the blade's count is gone");
        assert_eq!(w.region_release(0x1000), SimTime::ZERO);
        w.reset(0);
        assert_eq!(w.depth(), 1, "clamped like `new`");
    }

    #[test]
    fn depth_clamps_to_one() {
        assert_eq!(InFlightWindow::new(0).depth(), 1);
        assert_eq!(InFlightWindow::new(4).depth(), 4);
    }

    #[test]
    fn slot_gate_frees_at_earliest_completion() {
        let mut w = InFlightWindow::new(2);
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
        let mut w = InFlightWindow::new(4);
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
        let mut w = InFlightWindow::new(2);
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
        let mut w = InFlightWindow::new(1);
        w.admit(ns(10), None, 0);
        w.admit(ns(20), None, 0);
    }

    #[test]
    fn nic_gate_is_unbounded_by_default() {
        let mut w = InFlightWindow::new(4);
        assert_eq!(w.nic_depth(), 0);
        w.admit(ns(100), None, 3);
        w.admit(ns(200), None, 3);
        assert_eq!(w.nic_in_flight(3), 2);
        assert_eq!(w.nic_free_at(3), SimTime::ZERO, "depth 0 never gates");
    }

    #[test]
    fn nic_gate_frees_at_the_blades_earliest_completion() {
        let mut w = InFlightWindow::new(8).with_nic_depth(2);
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
        let mut w = InFlightWindow::new(8).with_nic_depth(1);
        w.admit(ns(10), None, 2);
        w.admit(ns(20), None, 2);
    }
}
