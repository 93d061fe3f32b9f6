//! ACK/timeout reliability and the reset protocol (paper §4.4).
//!
//! When a memory access triggers invalidations, the requesting compute blade
//! waits for ACKs from all sharers and retransmits on timeout. After a
//! predefined number of retransmissions it sends a *reset* for the virtual
//! address to the switch control plane, which forces all blades to flush
//! their data for that address and removes the directory entry — preventing
//! deadlock when a blade fails mid-transition.

use mind_sim::hash::FastMap;
use mind_sim::SimTime;

use crate::node::BladeSet;

/// Identifier for an in-flight invalidation round.
pub type RoundId = u64;

/// What the reliability layer wants the caller to do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReliabilityAction {
    /// Retransmit the invalidation to the still-unacked sharers.
    Retransmit {
        /// The round to retransmit.
        round: RoundId,
        /// Sharers that have not yet acknowledged.
        pending: BladeSet,
    },
    /// Give up and send a reset for this address to the control plane.
    Reset {
        /// The abandoned round.
        round: RoundId,
        /// Virtual address whose coherence state must be reset.
        vaddr: u64,
    },
}

#[derive(Debug, Clone)]
struct Round {
    vaddr: u64,
    pending: BladeSet,
    deadline: SimTime,
    retries_left: u32,
}

/// Tracks outstanding invalidation rounds awaiting ACKs.
#[derive(Debug, Clone)]
pub struct AckTracker {
    timeout: SimTime,
    max_retries: u32,
    rounds: FastMap<RoundId, Round>,
    next_round: RoundId,
    retransmissions: u64,
    resets: u64,
}

impl AckTracker {
    /// Creates a tracker with the given per-round timeout and retry budget.
    pub fn new(timeout: SimTime, max_retries: u32) -> Self {
        AckTracker {
            timeout,
            max_retries,
            rounds: FastMap::default(),
            next_round: 0,
            retransmissions: 0,
            resets: 0,
        }
    }

    /// Begins tracking an invalidation round covering `sharers` for `vaddr`.
    /// Returns the round id carried in the invalidation packets.
    ///
    /// # Panics
    ///
    /// Panics if `sharers` is empty — a round with nothing to wait for must
    /// not be opened.
    pub fn begin(&mut self, now: SimTime, vaddr: u64, sharers: BladeSet) -> RoundId {
        assert!(!sharers.is_empty(), "invalidation round with no sharers");
        let id = self.next_round;
        self.next_round += 1;
        self.rounds.insert(
            id,
            Round {
                vaddr,
                pending: sharers,
                deadline: now + self.timeout,
                retries_left: self.max_retries,
            },
        );
        id
    }

    /// Records an ACK from `blade`; returns `true` when the round completed
    /// (all sharers acknowledged).
    pub fn ack(&mut self, round: RoundId, blade: u16) -> bool {
        let Some(r) = self.rounds.get_mut(&round) else {
            return false; // Stale ACK after reset; ignore.
        };
        r.pending.remove(blade);
        if r.pending.is_empty() {
            self.rounds.remove(&round);
            true
        } else {
            false
        }
    }

    /// Whether a round is still outstanding.
    pub fn is_pending(&self, round: RoundId) -> bool {
        self.rounds.contains_key(&round)
    }

    /// Advances time to `now`, expiring rounds whose deadline passed.
    /// Expired rounds either schedule a retransmission (extending the
    /// deadline) or — once out of retries — are abandoned with a reset.
    pub fn poll(&mut self, now: SimTime) -> Vec<ReliabilityAction> {
        let mut actions = Vec::new();
        let mut expired: Vec<RoundId> = self
            .rounds
            .iter()
            .filter(|(_, r)| r.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        expired.sort_unstable(); // Deterministic order.
        for id in expired {
            let r = self.rounds.get_mut(&id).expect("expired round exists");
            if r.retries_left == 0 {
                let vaddr = r.vaddr;
                self.rounds.remove(&id);
                self.resets += 1;
                actions.push(ReliabilityAction::Reset { round: id, vaddr });
            } else {
                r.retries_left -= 1;
                r.deadline = now + self.timeout;
                self.retransmissions += 1;
                actions.push(ReliabilityAction::Retransmit {
                    round: id,
                    pending: r.pending,
                });
            }
        }
        actions
    }

    /// Total retransmissions performed.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Total resets issued.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Number of rounds in flight.
    pub fn in_flight(&self) -> usize {
        self.rounds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharers(blades: &[u16]) -> BladeSet {
        blades.iter().copied().collect()
    }

    #[test]
    fn round_completes_when_all_ack() {
        let mut t = AckTracker::new(SimTime::from_micros(100), 3);
        let id = t.begin(SimTime::ZERO, 0x1000, sharers(&[0, 1, 2]));
        assert!(!t.ack(id, 0));
        assert!(!t.ack(id, 1));
        assert!(t.ack(id, 2), "last ACK completes the round");
        assert!(!t.is_pending(id));
    }

    #[test]
    fn duplicate_acks_are_idempotent() {
        let mut t = AckTracker::new(SimTime::from_micros(100), 3);
        let id = t.begin(SimTime::ZERO, 0x1000, sharers(&[0, 1]));
        assert!(!t.ack(id, 0));
        assert!(!t.ack(id, 0), "duplicate ACK does not complete");
        assert!(t.ack(id, 1));
    }

    #[test]
    fn stale_ack_after_completion_ignored() {
        let mut t = AckTracker::new(SimTime::from_micros(100), 3);
        let id = t.begin(SimTime::ZERO, 0x1000, sharers(&[0]));
        assert!(t.ack(id, 0));
        assert!(!t.ack(id, 0), "round already closed");
    }

    #[test]
    fn timeout_triggers_retransmit_to_pending_only() {
        let mut t = AckTracker::new(SimTime::from_micros(10), 3);
        let id = t.begin(SimTime::ZERO, 0x2000, sharers(&[0, 1, 2]));
        t.ack(id, 1);
        let actions = t.poll(SimTime::from_micros(10));
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            ReliabilityAction::Retransmit { round, pending } => {
                assert_eq!(*round, id);
                assert_eq!(pending.iter().collect::<Vec<_>>(), vec![0, 2]);
            }
            other => panic!("expected retransmit, got {other:?}"),
        }
        assert_eq!(t.retransmissions(), 1);
    }

    #[test]
    fn poll_before_deadline_is_quiet() {
        let mut t = AckTracker::new(SimTime::from_micros(10), 3);
        t.begin(SimTime::ZERO, 0x2000, sharers(&[0]));
        assert!(t.poll(SimTime::from_micros(9)).is_empty());
    }

    #[test]
    fn exhausted_retries_produce_reset() {
        let mut t = AckTracker::new(SimTime::from_micros(10), 2);
        let id = t.begin(SimTime::ZERO, 0xABC000, sharers(&[3]));
        let mut now = SimTime::ZERO;
        // Two retransmissions...
        for _ in 0..2 {
            now += SimTime::from_micros(10);
            let actions = t.poll(now);
            assert!(matches!(actions[0], ReliabilityAction::Retransmit { .. }));
        }
        // ...then the reset.
        now += SimTime::from_micros(10);
        let actions = t.poll(now);
        assert_eq!(
            actions,
            vec![ReliabilityAction::Reset {
                round: id,
                vaddr: 0xABC000
            }]
        );
        assert!(!t.is_pending(id));
        assert_eq!(t.resets(), 1);
    }

    #[test]
    fn retransmit_extends_deadline() {
        let mut t = AckTracker::new(SimTime::from_micros(10), 5);
        let id = t.begin(SimTime::ZERO, 0x1, sharers(&[0]));
        assert_eq!(t.poll(SimTime::from_micros(10)).len(), 1);
        // Immediately after, deadline has moved; nothing expires.
        assert!(t.poll(SimTime::from_micros(15)).is_empty());
        assert!(t.is_pending(id));
    }

    #[test]
    fn multiple_rounds_expire_deterministically() {
        let mut t = AckTracker::new(SimTime::from_micros(10), 1);
        let a = t.begin(SimTime::ZERO, 0xA, sharers(&[0]));
        let b = t.begin(SimTime::ZERO, 0xB, sharers(&[1]));
        let actions = t.poll(SimTime::from_micros(10));
        let rounds: Vec<RoundId> = actions
            .iter()
            .map(|x| match x {
                ReliabilityAction::Retransmit { round, .. } => *round,
                ReliabilityAction::Reset { round, .. } => *round,
            })
            .collect();
        assert_eq!(rounds, vec![a, b], "expiry order is round-id order");
        assert_eq!(t.in_flight(), 2);
    }

    #[test]
    #[should_panic(expected = "no sharers")]
    fn empty_round_rejected() {
        let mut t = AckTracker::new(SimTime::from_micros(10), 1);
        t.begin(SimTime::ZERO, 0x1, BladeSet::EMPTY);
    }
}
