//! The rack's star topology: every blade connects to the single
//! programmable switch by a dedicated full-duplex link.
//!
//! The fabric routes unicast packets through the switch (two hops plus one
//! pipeline traversal) and supports native multicast: the switch replicates
//! an invalidation to its egress ports and *prunes* copies whose port does
//! not lead to a blade in the embedded sharer list, so non-sharers consume
//! no bandwidth (paper §4.3.2).

use mind_sim::spare::rebuild;
use mind_sim::{SimRng, SimTime};

use crate::link::{LatencyConfig, Link};
use crate::node::{BladeSet, NodeId};
use crate::packet::Packet;

/// A named multicast group (the rack keeps one for "all compute blades").
#[derive(Debug, Clone, Default)]
pub struct MulticastGroup {
    members: BladeSet,
}

impl MulticastGroup {
    /// Creates a group over the given compute blades.
    pub fn new(members: BladeSet) -> Self {
        MulticastGroup { members }
    }

    /// Group membership.
    pub fn members(&self) -> BladeSet {
        self.members
    }
}

/// Per-node pair of directed links (to and from the switch).
#[derive(Debug, Clone)]
struct NodeLinks {
    up: Link,
    down: Link,
}

/// The rack fabric.
#[derive(Debug, Clone)]
pub struct Fabric {
    cfg: LatencyConfig,
    compute: Vec<NodeLinks>,
    memory: Vec<NodeLinks>,
    all_compute_group: MulticastGroup,
    loss_rate: f64,
    loss_rng: SimRng,
    multicast_pruned: u64,
}

impl Fabric {
    /// Builds a rack with `n_compute` compute blades and `n_memory` memory
    /// blades around one switch.
    ///
    /// # Panics
    ///
    /// Panics if `n_compute` exceeds [`BladeSet::CAPACITY`].
    pub fn new(n_compute: u16, n_memory: u16, cfg: LatencyConfig) -> Self {
        Self::build(n_compute, n_memory, cfg, None)
    }

    /// [`Fabric::new`], in a spare's link tables.
    pub fn build(n_compute: u16, n_memory: u16, cfg: LatencyConfig, spare: Option<Self>) -> Self {
        assert!(n_compute <= BladeSet::CAPACITY, "too many compute blades");
        let idle = |_| NodeLinks {
            up: Link::from_config(&cfg),
            down: Link::from_config(&cfg),
        };
        let (compute, memory) = spare.map(|f| (f.compute, f.memory)).unzip();
        let members: BladeSet = (0..n_compute).collect();
        Fabric {
            cfg,
            compute: rebuild(compute, n_compute as usize, idle),
            memory: rebuild(memory, n_memory as usize, idle),
            all_compute_group: MulticastGroup::new(members),
            loss_rate: 0.0,
            loss_rng: SimRng::new(0),
            multicast_pruned: 0,
        }
    }

    /// Enables random packet loss with probability `rate` (for testing the
    /// §4.4 ACK timeout, retransmission and reset).
    pub fn set_loss(&mut self, rate: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&rate), "loss rate out of range");
        self.loss_rate = rate;
        self.loss_rng = SimRng::new(seed);
    }

    /// The earliest time a new transfer from `node` could start
    /// serializing onto its up-link — the node's NIC TX backlog. A node
    /// whose up-link is booked into the future (e.g. behind a bulk dirty
    /// flush) cannot put a new request on the wire before this.
    pub fn tx_free_at(&self, node: NodeId) -> SimTime {
        let links = match node {
            NodeId::Compute(i) => self.compute.get(i as usize),
            NodeId::Memory(i) => self.memory.get(i as usize),
            NodeId::Switch => None,
        };
        links.map(|l| l.up.free_at()).unwrap_or(SimTime::ZERO)
    }

    fn links_mut(&mut self, node: NodeId) -> Option<&mut NodeLinks> {
        match node {
            NodeId::Compute(i) => self.compute.get_mut(i as usize),
            NodeId::Memory(i) => self.memory.get_mut(i as usize),
            NodeId::Switch => None,
        }
    }

    /// Sends `packet` at time `now`, charging link serialization/queueing and
    /// the switch pipeline; returns the arrival time at the destination.
    ///
    /// Blade→blade packets take two hops through the switch; blade↔switch
    /// packets take one hop. `send` models reliably-connected RDMA
    /// transfers (link-level retransmission is transparent), so it is
    /// exempt from loss injection; use [`Fabric::try_send`] for the
    /// datagram-style coherence messages whose loss §4.4's ACK timeout
    /// recovers from.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint blade index does not exist in the rack.
    pub fn send(&mut self, now: SimTime, packet: &Packet) -> SimTime {
        let bytes = packet.wire_bytes();
        let mut t = now;
        // First hop: src → switch (unless the switch itself originates).
        if packet.src != NodeId::Switch {
            let links = self
                .links_mut(packet.src)
                .expect("source blade exists in rack");
            t = links.up.transfer(t, bytes);
        }
        // Pipeline traversal for any packet passing the ASIC.
        if packet.kind.is_data_plane() {
            t += self.cfg.switch_pipeline;
        }
        // Second hop: switch → dst (unless destined to the switch).
        if packet.dst != NodeId::Switch {
            let links = self
                .links_mut(packet.dst)
                .expect("destination blade exists in rack");
            t = links.down.transfer(t, bytes);
        }
        t
    }

    /// Like [`Fabric::send`] but subject to loss injection: the arrival
    /// time, or `None` when the fabric dropped the packet.
    pub fn try_send(&mut self, now: SimTime, packet: &Packet) -> Option<SimTime> {
        if self.loss_rate > 0.0 && self.loss_rng.gen_bool(self.loss_rate) {
            return None;
        }
        Some(self.send(now, packet))
    }

    /// Multicasts an invalidation from the switch to the all-compute group,
    /// pruning copies for blades outside `sharers` in the egress pipeline.
    ///
    /// Writes `(blade, arrival)` for every blade that actually receives a
    /// copy into `deliveries` (cleared first, so one buffer serves every
    /// round). Pruned copies consume no link bandwidth.
    pub fn multicast_from_switch_into(
        &mut self,
        now: SimTime,
        sharers: BladeSet,
        bytes: u32,
        deliveries: &mut Vec<(u16, SimTime)>,
    ) {
        deliveries.clear();
        let after_pipeline = now + self.cfg.switch_pipeline;
        let members = self.all_compute_group.members();
        for blade in members.iter() {
            if sharers.contains(blade) {
                // Loss injection applies per replicated copy.
                if self.loss_rate > 0.0 && self.loss_rng.gen_bool(self.loss_rate) {
                    continue;
                }
                let links = &mut self.compute[blade as usize];
                let arrive = links.down.transfer(after_pipeline, bytes);
                deliveries.push((blade, arrive));
            } else {
                self.multicast_pruned += 1;
            }
        }
    }

    /// The rack-wide "all compute blades" multicast group.
    pub fn all_compute_group(&self) -> &MulticastGroup {
        &self.all_compute_group
    }

    /// Multicast copies pruned in the egress pipeline.
    pub fn multicast_pruned(&self) -> u64 {
        self.multicast_pruned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    fn read_req(src: NodeId, dst: NodeId) -> Packet {
        Packet::new(
            src,
            dst,
            PacketKind::RdmaReadReq {
                vaddr: 0x1000,
                len: 4096,
            },
        )
    }

    #[test]
    fn unicast_through_switch_charges_two_hops() {
        let cfg = LatencyConfig::default();
        let mut fabric = Fabric::new(2, 2, cfg);
        let pkt = read_req(NodeId::Compute(0), NodeId::Memory(1));
        let arrive = fabric.send(SimTime::ZERO, &pkt);
        let expect = cfg.hop(pkt.wire_bytes()) + cfg.switch_pipeline + cfg.hop(pkt.wire_bytes());
        assert_eq!(arrive, expect);
    }

    #[test]
    fn blade_to_switch_is_one_hop() {
        let cfg = LatencyConfig::default();
        let mut fabric = Fabric::new(1, 1, cfg);
        let pkt = read_req(NodeId::Compute(0), NodeId::Switch);
        let arrive = fabric.send(SimTime::ZERO, &pkt);
        assert_eq!(arrive, cfg.hop(pkt.wire_bytes()) + cfg.switch_pipeline);
    }

    #[test]
    fn control_plane_packets_skip_pipeline() {
        let cfg = LatencyConfig::default();
        let mut fabric = Fabric::new(1, 1, cfg);
        let pkt = Packet::new(
            NodeId::Compute(0),
            NodeId::Switch,
            PacketKind::CtrlSyscall { call: 1 },
        );
        let arrive = fabric.send(SimTime::ZERO, &pkt);
        assert_eq!(arrive, cfg.hop(pkt.wire_bytes()));
    }

    #[test]
    fn multicast_prunes_non_sharers() {
        let mut fabric = Fabric::new(4, 1, LatencyConfig::default());
        let sharers: BladeSet = [1u16, 3].into_iter().collect();
        let mut deliveries = vec![(9, SimTime::ZERO)];
        fabric.multicast_from_switch_into(SimTime::ZERO, sharers, 82, &mut deliveries);
        let blades: Vec<u16> = deliveries.iter().map(|&(b, _)| b).collect();
        assert_eq!(blades, vec![1, 3], "the buffer is cleared first");
        assert_eq!(fabric.multicast_pruned(), 2);
    }

    #[test]
    fn multicast_arrivals_share_pipeline_cost() {
        let cfg = LatencyConfig::default();
        let mut fabric = Fabric::new(2, 1, cfg);
        let sharers: BladeSet = [0u16, 1].into_iter().collect();
        let mut deliveries = Vec::new();
        fabric.multicast_from_switch_into(SimTime::ZERO, sharers, 82, &mut deliveries);
        // Replication happens in the egress stage: both copies see the same
        // single pipeline traversal, then independent down-links.
        let expect = cfg.switch_pipeline + cfg.hop(82);
        assert!(deliveries.iter().all(|&(_, t)| t == expect));
    }

    #[test]
    fn concurrent_sends_to_same_destination_queue() {
        let cfg = LatencyConfig::default();
        let mut fabric = Fabric::new(1, 1, cfg);
        let pkt = Packet::new(
            NodeId::Memory(0),
            NodeId::Compute(0),
            PacketKind::RdmaReadResp {
                vaddr: 0,
                len: 4096,
            },
        );
        let a = fabric.send(SimTime::ZERO, &pkt);
        let b = fabric.send(SimTime::ZERO, &pkt);
        assert!(b > a, "second page response queues behind the first");
        let gap = (b - a).as_nanos();
        let serialize = cfg.serialization(pkt.wire_bytes()).as_nanos();
        assert_eq!(gap, serialize);
    }

    #[test]
    fn loss_injection_drops_packets() {
        let mut fabric = Fabric::new(1, 1, LatencyConfig::default());
        fabric.set_loss(1.0, 42);
        let pkt = read_req(NodeId::Compute(0), NodeId::Memory(0));
        assert_eq!(fabric.try_send(SimTime::ZERO, &pkt), None);
    }

    #[test]
    fn loss_rate_roughly_respected() {
        let mut fabric = Fabric::new(1, 1, LatencyConfig::default());
        fabric.set_loss(0.25, 7);
        let pkt = read_req(NodeId::Compute(0), NodeId::Memory(0));
        let lost = (0..10_000)
            .filter(|_| fabric.try_send(SimTime::ZERO, &pkt).is_none())
            .count();
        let frac = lost as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.03, "loss fraction {frac}");
    }

    #[test]
    fn delivery_arrival_accessor() {
        // A delivered packet arrives when the reliable path would deliver it.
        let pkt = read_req(NodeId::Compute(0), NodeId::Memory(0));
        let sent = Fabric::new(1, 1, LatencyConfig::default()).send(SimTime::ZERO, &pkt);
        let mut fabric = Fabric::new(1, 1, LatencyConfig::default());
        assert_eq!(fabric.try_send(SimTime::ZERO, &pkt), Some(sent));
    }

    #[test]
    #[should_panic(expected = "destination blade exists")]
    fn unknown_destination_panics() {
        let mut fabric = Fabric::new(1, 1, LatencyConfig::default());
        let pkt = read_req(NodeId::Compute(0), NodeId::Memory(9));
        fabric.send(SimTime::ZERO, &pkt);
    }
}
