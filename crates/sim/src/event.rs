//! Stable-ordered discrete-event queue.
//!
//! The queue orders events by timestamp and breaks ties by insertion order,
//! which keeps simulation runs deterministic even when many events share a
//! timestamp (common for multicast invalidations, which fan out to all
//! sharers "at the same time" in the switch egress pipeline).

use crate::time::SimTime;

/// An event scheduled for a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotonic sequence number for deterministic tie-breaking.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> Scheduled<E> {
    /// The queue's strict total order: earlier time first, then lower
    /// sequence number. Sequence numbers are unique, so no two entries tie
    /// and every correct heap pops in the same order.
    fn before(&self, other: &Self) -> bool {
        self.key() < other.key()
    }

    /// `(at, seq)` as one integer, so that the order is one comparison.
    fn key(&self) -> u128 {
        (self.at.as_nanos() as u128) << 64 | self.seq as u128
    }
}

/// A deterministic discrete-event queue.
///
/// A binary min-heap on `(at, seq)` built for the traffic the simulator
/// has: every loop's steady state is *pop the earliest, then schedule the
/// same entity again*. [`pop`](Self::pop) therefore hands out the root and
/// leaves it vacant, and the [`schedule`](Self::schedule) that follows
/// fills the root and sifts down once. A pop that is followed by another
/// pop (a drain) first closes the vacancy by bottom-up deletion — the hole
/// walks to a leaf along the smaller children, one comparison a level, and
/// the last entry sifts up from there — which is what a drain of thousands
/// of pre-seeded events needs.
///
/// # Examples
///
/// ```
/// use mind_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), "second");
/// q.schedule(SimTime::from_nanos(10), "first");
/// assert_eq!(q.pop().unwrap().event, "first");
/// assert_eq!(q.pop().unwrap().event, "second");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The heap, root at index 0. While `vacant`, index 0 still holds a
    /// copy of the entry the last pop handed out and is not part of the
    /// queue.
    heap: Vec<Scheduled<E>>,
    vacant: bool,
    next_seq: u64,
    now: SimTime,
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            vacant: false,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Empties the queue and rewinds the clock and the sequence counter,
    /// keeping the heap's storage: the queue is as [`EventQueue::new`]
    /// made it.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.vacant = false;
        self.next_seq = 0;
        self.now = SimTime::ZERO;
    }

    /// Current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.vacant as usize
    }

    /// Whether there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is in the past — the simulation must
    /// never travel backwards.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        let item = Scheduled { at, seq, event };
        if self.vacant {
            self.vacant = false;
            self.sift_down_from_root(item);
        } else {
            self.heap.push(item);
            self.sift_up(self.heap.len() - 1, item);
        }
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        if self.vacant {
            self.close_vacancy();
        }
        let next = *self.heap.first()?;
        self.vacant = true;
        self.now = next.at;
        Some(next)
    }

    /// Returns the timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.vacant {
            // The earliest pending entry is one of the vacant root's
            // children.
            self.heap.iter().skip(1).take(2).map(|s| s.at).min()
        } else {
            self.heap.first().map(|s| s.at)
        }
    }

    /// Places `item` at the vacant root and sifts it down: the fused half
    /// of a pop-then-schedule.
    fn sift_down_from_root(&mut self, item: Scheduled<E>) {
        let heap = self.heap.as_mut_slice();
        let mut hole = 0;
        loop {
            let mut child = 2 * hole + 1;
            if child >= heap.len() {
                break;
            }
            // Which child is earlier is a coin toss: add the comparison,
            // do not branch on it.
            if child + 1 < heap.len() {
                child += heap[child + 1].before(&heap[child]) as usize;
            }
            if !heap[child].before(&item) {
                break;
            }
            heap[hole] = heap[child];
            hole = child;
        }
        heap[hole] = item;
    }

    /// Moves `item` from the hole at `hole` towards the root until its
    /// parent is earlier, and stores it there.
    fn sift_up(&mut self, mut hole: usize, item: Scheduled<E>) {
        let heap = self.heap.as_mut_slice();
        while hole > 0 {
            let parent = (hole - 1) / 2;
            if !item.before(&heap[parent]) {
                break;
            }
            heap[hole] = heap[parent];
            hole = parent;
        }
        heap[hole] = item;
    }

    /// Removes the vacant root for good (no schedule came to fill it):
    /// bottom-up deletion with the heap's last entry.
    fn close_vacancy(&mut self) {
        self.vacant = false;
        let last = self.heap.pop().expect("the vacant root holds a slot");
        let heap = self.heap.as_mut_slice();
        if heap.is_empty() {
            return;
        }
        let mut hole = 0;
        let mut child = 1;
        while child + 1 < heap.len() {
            child += heap[child + 1].before(&heap[child]) as usize;
            heap[hole] = heap[child];
            hole = child;
            child = 2 * hole + 1;
        }
        if child + 1 == heap.len() {
            heap[hole] = heap[child];
            hole = child;
        }
        self.sift_up(hole, last);
    }
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The queue as it used to be: the standard library's heap on
    /// `(at, seq)`, every pop a full deletion.
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
        next_seq: u64,
        now: SimTime,
    }

    impl HeapOracle {
        fn schedule(&mut self, at: SimTime, event: u32) {
            self.heap.push(Reverse((at, self.next_seq, event)));
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<Scheduled<u32>> {
            let Reverse((at, seq, event)) = self.heap.pop()?;
            self.now = at;
            Some(Scheduled { at, seq, event })
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse((at, _, _))| *at)
        }
    }

    /// Seeded mixed traffic at three queue sizes, every observable compared
    /// after every operation: pop then schedule (the fused path), pop then
    /// pop (bottom-up deletion), bursts at one timestamp, a schedule off the
    /// queue's own clock with the root vacant or not, reuse after `clear`.
    #[test]
    fn matches_a_binary_heap_under_mixed_traffic() {
        for (seed, target) in [(1u64, 4usize), (2, 40), (3, 4_096)] {
            let mut rng = SimRng::new(seed);
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut oracle = HeapOracle::default();
            let (mut fused, mut unfused, mut vacant_peeks) = (0, 0, 0);
            let mut last_was_pop = false;
            for step in 0..60_000 {
                let ctx = format!("seed {seed} step {step}");
                // Steer the size towards the target; ties are common
                // (delays are multiples of 10 ns, often zero).
                let grow = oracle.heap.len() < target;
                let delay = SimTime::from_nanos(10 * rng.gen_below(6));
                match rng.gen_below(10) {
                    0..=3 => {
                        let (a, b) = (q.pop(), oracle.pop());
                        assert_eq!(a, b, "{ctx}: pop");
                        unfused += last_was_pop as u32;
                        last_was_pop = a.is_some();
                        if let (Some(ev), true) = (a, rng.gen_bool(0.7)) {
                            // Payloads are random, so an order that looked
                            // at them would differ from insertion order.
                            let event = if rng.gen_bool(0.5) {
                                ev.event
                            } else {
                                rng.next_u64() as u32
                            };
                            q.schedule(ev.at + delay, event);
                            oracle.schedule(ev.at + delay, event);
                            fused += 1;
                            last_was_pop = false;
                        }
                    }
                    4 | 5 if grow => {
                        let at = oracle.now + delay;
                        for _ in 0..1 + rng.gen_below(16) {
                            let event = rng.next_u64() as u32;
                            q.schedule(at, event);
                            oracle.schedule(at, event);
                        }
                        last_was_pop = false;
                    }
                    6 if grow => {
                        let event = rng.next_u64() as u32;
                        q.schedule(q.now() + delay, event);
                        oracle.schedule(oracle.now + delay, event);
                        last_was_pop = false;
                    }
                    8 if rng.gen_below(500) == 0 => {
                        q.clear();
                        oracle = HeapOracle::default();
                        last_was_pop = false;
                    }
                    _ => {}
                }
                vacant_peeks += last_was_pop as u32;
                assert_eq!(q.peek_time(), oracle.peek_time(), "{ctx}: peek_time");
                assert_eq!(q.len(), oracle.heap.len(), "{ctx}: len");
                assert_eq!(q.is_empty(), oracle.heap.is_empty(), "{ctx}: is_empty");
                assert_eq!(q.now(), oracle.now, "{ctx}: now");
            }
            // Drain what is left: pop after pop to the end.
            while let Some(ev) = oracle.pop() {
                assert_eq!(q.pop(), Some(ev), "seed {seed}: drain");
                assert_eq!(q.len(), oracle.heap.len(), "seed {seed}: drain len");
            }
            assert_eq!(q.pop(), None);
            assert!(q.is_empty());
            assert!(
                fused > 5_000 && unfused > 2_000 && vacant_peeks > 5_000,
                "seed {seed}: fused {fused}, unfused {unfused}, vacant peeks {vacant_peeks}"
            );
        }
    }

    #[test]
    fn clear_rewinds_clock_and_sequence() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(50), 1u32);
        q.schedule(SimTime::from_nanos(60), 2);
        q.pop();
        q.clear();
        assert!(q.is_empty() && q.peek_time().is_none());
        assert_eq!(q.now(), SimTime::ZERO);
        // Scheduling before the old clock must not trip the past check.
        q.schedule(SimTime::from_nanos(5), 3);
        let ev = q.pop().unwrap();
        assert_eq!((ev.at, ev.seq, ev.event), (SimTime::from_nanos(5), 0, 3));
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3u32);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(42));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert!(q.peek_time().is_none());
    }
}
