//! Per-blade invalidation-handler queue.
//!
//! Invalidation requests arriving at a compute blade are serviced by a
//! kernel handler one at a time; under contention they queue, and that
//! queueing delay is a major latency component at high blade counts and low
//! read ratios — the "Inv (queue)" bars of Figure 7 (right).

use mind_sim::SimTime;

/// Outcome of enqueueing one invalidation for service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedService {
    /// When service began (>= arrival).
    pub start: SimTime,
    /// When the handler finished (invalidation ACK can be sent).
    pub done: SimTime,
    /// Time spent waiting behind earlier invalidations.
    pub queue_delay: SimTime,
}

/// FIFO single-server queue for the blade's invalidation handler; the
/// default queue is idle.
#[derive(Debug, Clone, Default)]
pub struct InvalidationQueue {
    busy_until: SimTime,
}

impl InvalidationQueue {
    /// Enqueues an invalidation arriving at `arrival` with the given
    /// service time (handler work + any TLB shootdowns + dirty flush DMA).
    ///
    /// Service order is **enqueue order**, not arrival-time order: the
    /// handler's `busy_until` only ever moves forward, so an invalidation
    /// enqueued after another is served after it even when its arrival
    /// timestamp is *earlier*. That regressed-arrival case is real under
    /// the issue/complete datapath — an overlapped batch can trigger an
    /// invalidation round whose multicast lands at a timestamp before a
    /// previously processed round's — and FIFO-by-enqueue keeps the queue
    /// deterministic and consistent with the switch's program order.
    pub fn enqueue(&mut self, arrival: SimTime, service: SimTime) -> QueuedService {
        let start = arrival.max(self.busy_until);
        let done = start + service;
        self.busy_until = done;
        QueuedService {
            start,
            done,
            queue_delay: start - arrival,
        }
    }

    /// When the handler next goes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_queue_serves_immediately() {
        let mut q = InvalidationQueue::default();
        let s = q.enqueue(SimTime::from_micros(5), SimTime::from_micros(1));
        assert_eq!(s.start, SimTime::from_micros(5));
        assert_eq!(s.done, SimTime::from_micros(6));
        assert_eq!(s.queue_delay, SimTime::ZERO);
    }

    #[test]
    fn concurrent_arrivals_queue_fifo() {
        let mut q = InvalidationQueue::default();
        let a = q.enqueue(SimTime::ZERO, SimTime::from_micros(2));
        let b = q.enqueue(SimTime::ZERO, SimTime::from_micros(2));
        let c = q.enqueue(SimTime::ZERO, SimTime::from_micros(2));
        assert_eq!(a.queue_delay, SimTime::ZERO);
        assert_eq!(b.queue_delay, SimTime::from_micros(2));
        assert_eq!(c.queue_delay, SimTime::from_micros(4));
        assert_eq!(q.busy_until(), SimTime::from_micros(6));
    }

    #[test]
    fn late_arrival_after_drain_no_delay() {
        let mut q = InvalidationQueue::default();
        q.enqueue(SimTime::ZERO, SimTime::from_micros(3));
        let s = q.enqueue(SimTime::from_micros(10), SimTime::from_micros(1));
        assert_eq!(s.queue_delay, SimTime::ZERO);
        assert_eq!(s.done, SimTime::from_micros(11));
    }

    /// The overlap contract: arrival timestamps may regress (a later
    /// enqueue from an overlapped batch can carry an earlier arrival),
    /// but service stays FIFO in enqueue order and time never runs
    /// backwards at the handler.
    #[test]
    fn regressed_arrival_still_serves_fifo() {
        let mut q = InvalidationQueue::default();
        let first = q.enqueue(SimTime::from_micros(10), SimTime::from_micros(2));
        // Enqueued second, "arrives" earlier: waits behind the first.
        let second = q.enqueue(SimTime::from_micros(4), SimTime::from_micros(1));
        assert_eq!(first.start, SimTime::from_micros(10));
        assert_eq!(second.start, first.done, "FIFO by enqueue order");
        assert_eq!(second.queue_delay, SimTime::from_micros(8));
        assert_eq!(q.busy_until(), SimTime::from_micros(13));
    }

    #[test]
    fn empty_queue_stats() {
        let q = InvalidationQueue::default();
        assert_eq!(q.busy_until(), SimTime::ZERO);
    }
}
