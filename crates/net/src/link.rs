//! Point-to-point link model with propagation latency, bandwidth-derived
//! serialization delay, and FIFO queueing.
//!
//! Each blade↔switch link is full-duplex 100 Gbps (the paper gives every
//! blade VM a dedicated CX-5 100 Gbps NIC). A transfer's arrival time is:
//!
//! ```text
//! depart = max(now, link_free)        // FIFO queueing behind earlier sends
//! arrive = depart + bytes/bandwidth   // serialization
//!          + propagation              // wire + NIC DMA latency
//! ```

use mind_sim::SimTime;

/// Calibrated latency constants for the simulated rack.
///
/// These are chosen so the end-to-end composition reproduces the paper's
/// §7.2 measurements: an uncontended one-sided RDMA 4 KB page fetch through
/// the switch costs ≈9 µs and an invalidate-then-fetch (M-state) costs
/// ≈18 µs (Figure 7 left). Local DRAM cache hits cost ≈80 ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyConfig {
    /// One-way wire propagation + NIC DMA latency per hop (blade↔switch).
    pub hop_latency: SimTime,
    /// Link bandwidth in bytes per nanosecond (100 Gbps = 12.5 B/ns).
    pub bandwidth_bytes_per_ns: f64,
    /// Switch ASIC pipeline traversal (parser + MAU stages + deparser).
    pub switch_pipeline: SimTime,
    /// Extra pipeline pass when a packet is recirculated (directory update,
    /// §6.3 step 2).
    pub switch_recirculation: SimTime,
    /// Memory-blade NIC servicing a one-sided RDMA request (no CPU!).
    pub memory_service: SimTime,
    /// Compute-blade page-fault handler entry/exit + PTE installation.
    pub fault_handler: SimTime,
    /// Local DRAM access on a compute-blade cache hit.
    pub local_dram: SimTime,
    /// Synchronous TLB shootdown on an invalidated mapping, per affected
    /// page ("several microseconds", §7.2 / LATR).
    pub tlb_shootdown: SimTime,
    /// Invalidation-handler service time per request at a compute blade
    /// (used for the queueing-delay component in Figure 7 right).
    pub invalidation_service: SimTime,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            hop_latency: SimTime::from_nanos(1_300),
            bandwidth_bytes_per_ns: 12.5,
            switch_pipeline: SimTime::from_nanos(400),
            switch_recirculation: SimTime::from_nanos(600),
            memory_service: SimTime::from_nanos(1_000),
            fault_handler: SimTime::from_nanos(500),
            local_dram: SimTime::from_nanos(80),
            tlb_shootdown: SimTime::from_nanos(2_500),
            invalidation_service: SimTime::from_nanos(800),
        }
    }
}

/// Whole nanoseconds to put `bytes` on a wire of the given bandwidth:
/// `(bytes / bandwidth).ceil()`, bit for bit, without the call into libm
/// that `f64::ceil` is on the baseline x86-64 target — this runs once per
/// packet per hop.
fn serialization_ns(bytes: u32, bandwidth_bytes_per_ns: f64) -> u64 {
    let exact = bytes as f64 / bandwidth_bytes_per_ns;
    // The cast truncates toward zero and saturates (NaN and negatives to 0).
    let whole = exact as u64;
    whole.saturating_add(((whole as f64) < exact) as u64)
}

impl LatencyConfig {
    /// Serialization delay for `bytes` on a link of this bandwidth.
    pub fn serialization(&self, bytes: u32) -> SimTime {
        SimTime::from_nanos(serialization_ns(bytes, self.bandwidth_bytes_per_ns))
    }

    /// Uncontended one-way latency for `bytes` over one hop.
    pub fn hop(&self, bytes: u32) -> SimTime {
        self.hop_latency + self.serialization(bytes)
    }
}

/// Wire sizes a link remembers the serialization delay of. A link carries
/// three or four (a request, a page, an invalidation, an ACK), so the
/// division is paid once per size, not once per packet.
const REMEMBERED_SIZES: usize = 4;

/// One direction of a full-duplex link.
#[derive(Debug, Clone)]
pub struct Link {
    latency: SimTime,
    bandwidth_bytes_per_ns: f64,
    free_at: SimTime,
    /// `(bytes, serialization ns)` of the last distinct wire sizes carried,
    /// replaced in turn. Starts out true: no bytes take no time.
    serialization_memo: [(u32, u64); REMEMBERED_SIZES],
    memo_turn: usize,
}

impl Link {
    /// Creates a link with the given propagation latency and bandwidth.
    pub fn new(latency: SimTime, bandwidth_bytes_per_ns: f64) -> Self {
        assert!(bandwidth_bytes_per_ns > 0.0, "bandwidth must be positive");
        Link {
            latency,
            bandwidth_bytes_per_ns,
            free_at: SimTime::ZERO,
            serialization_memo: [(0, 0); REMEMBERED_SIZES],
            memo_turn: 0,
        }
    }

    /// [`serialization_ns`] of `bytes` on this link, remembered per size.
    fn remembered_serialization_ns(&mut self, bytes: u32) -> u64 {
        if let Some(&(_, ns)) = self.serialization_memo.iter().find(|m| m.0 == bytes) {
            return ns;
        }
        let ns = serialization_ns(bytes, self.bandwidth_bytes_per_ns);
        self.serialization_memo[self.memo_turn] = (bytes, ns);
        self.memo_turn = (self.memo_turn + 1) % REMEMBERED_SIZES;
        ns
    }

    /// Creates a link from a [`LatencyConfig`].
    pub fn from_config(cfg: &LatencyConfig) -> Self {
        Link::new(cfg.hop_latency, cfg.bandwidth_bytes_per_ns)
    }

    /// Enqueues a transfer of `bytes` at time `now`; returns the arrival
    /// time at the far end. Transfers queue FIFO behind earlier ones.
    pub fn transfer(&mut self, now: SimTime, bytes: u32) -> SimTime {
        let depart = now.max(self.free_at);
        let serialize = SimTime::from_nanos(self.remembered_serialization_ns(bytes));
        // The link is busy while the packet serializes onto the wire.
        self.free_at = depart + serialize;
        depart + serialize + self.latency
    }

    /// Earliest time a new transfer could start serializing.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_reproduces_nine_microsecond_fetch() {
        // Compose an uncontended page fetch the way `Fabric::rdma_read` does:
        // req: cb→switch hop + pipeline + switch→mb hop + memory service
        // resp: mb→switch hop (4KB) + pipeline + switch→cb hop (4KB)
        // plus the compute-blade fault handler.
        let cfg = LatencyConfig::default();
        let req = cfg.hop(74) + cfg.switch_pipeline + cfg.hop(74) + cfg.memory_service;
        let resp = cfg.hop(4154) + cfg.switch_pipeline + cfg.hop(4154);
        let total = cfg.fault_handler + req + resp;
        let us = total.as_micros_f64();
        assert!((8.0..10.0).contains(&us), "page fetch = {us:.2}us");
    }

    #[test]
    fn serialization_scales_with_bytes() {
        let cfg = LatencyConfig::default();
        assert_eq!(cfg.serialization(125).as_nanos(), 10);
        let page = cfg.serialization(4096).as_nanos();
        assert!((320..340).contains(&page), "4KB serialization = {page}ns");
    }

    /// The libm-free rounding against `f64::ceil`, for the wire size of
    /// every packet kind (page-sized and odd payloads) and every size near
    /// them, at the rack's bandwidth and at ones that divide unevenly.
    #[test]
    fn serialization_rounds_up_exactly_as_ceil() {
        use crate::node::BladeSet;
        use crate::packet::PacketKind;
        let payloads = [0u32, 1, 64, 4096, 4097, 1 << 21];
        let mut sizes = vec![
            PacketKind::RdmaReadReq {
                vaddr: 0,
                len: 4096,
            }
            .wire_bytes(),
            PacketKind::RdmaWriteResp { vaddr: 0 }.wire_bytes(),
            PacketKind::Invalidate {
                region_base: 0,
                region_size_log2: 14,
                sharers: BladeSet::EMPTY,
                downgrade_to_shared: false,
            }
            .wire_bytes(),
            PacketKind::InvalidateAck {
                region_base: 0,
                flushed_pages: 3,
            }
            .wire_bytes(),
            PacketKind::CtrlSyscall { call: 9 }.wire_bytes(),
            PacketKind::CtrlResp { ret: 0 }.wire_bytes(),
            PacketKind::Reset { vaddr: 0 }.wire_bytes(),
        ];
        for len in payloads {
            sizes.push(PacketKind::RdmaReadResp { vaddr: 0, len }.wire_bytes());
            sizes.push(PacketKind::RdmaWriteReq { vaddr: 0, len }.wire_bytes());
        }
        sizes.extend(0..=10_000);
        sizes.extend([u32::MAX - 1, u32::MAX]);
        let default_bw = LatencyConfig::default().bandwidth_bytes_per_ns;
        for bw in [default_bw, 1.0, 0.3, 3.0, 7.7, 1e-12, 1e-300, f64::INFINITY] {
            let cfg = LatencyConfig {
                bandwidth_bytes_per_ns: bw,
                ..Default::default()
            };
            // One link carries every size twice over, each twice in a row:
            // computed, remembered, and long since replaced.
            let mut wire = Link::new(SimTime::ZERO, bw);
            for &bytes in sizes.iter().chain(&sizes) {
                let by_ceil = (bytes as f64 / bw).ceil() as u64;
                assert_eq!(
                    serialization_ns(bytes, bw),
                    by_ceil,
                    "{bytes} B at {bw} B/ns"
                );
                assert_eq!(cfg.serialization(bytes).as_nanos(), by_ceil);
                if by_ceil < 1 << 40 {
                    for _ in 0..2 {
                        let sent = wire.free_at();
                        assert_eq!((wire.transfer(sent, bytes) - sent).as_nanos(), by_ceil);
                    }
                }
            }
        }
        // What no link accepts but a config can hold: the cast's edge cases.
        for bw in [-12.5, 0.0, -0.0, f64::NAN] {
            for bytes in [0u32, 74, 4154] {
                let by_ceil = (bytes as f64 / bw).ceil() as u64;
                assert_eq!(
                    serialization_ns(bytes, bw),
                    by_ceil,
                    "{bytes} B at {bw} B/ns"
                );
            }
        }
    }

    #[test]
    fn uncontended_transfer_is_latency_plus_serialization() {
        let mut link = Link::new(SimTime::from_nanos(1_000), 1.0);
        let arrive = link.transfer(SimTime::from_nanos(100), 50);
        assert_eq!(arrive.as_nanos(), 100 + 50 + 1_000);
    }

    #[test]
    fn back_to_back_transfers_queue_fifo() {
        let mut link = Link::new(SimTime::from_nanos(1_000), 1.0);
        let now = SimTime::ZERO;
        let a = link.transfer(now, 100);
        let b = link.transfer(now, 100);
        // Second transfer waits for the first to finish serializing.
        assert_eq!(a.as_nanos(), 100 + 1_000);
        assert_eq!(b.as_nanos(), 200 + 1_000);
    }

    #[test]
    fn idle_link_does_not_queue() {
        let mut link = Link::new(SimTime::from_nanos(10), 1.0);
        link.transfer(SimTime::ZERO, 100);
        // Long after the first transfer drained.
        let late = link.transfer(SimTime::from_nanos(10_000), 100);
        assert_eq!(late.as_nanos(), 10_000 + 100 + 10);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        Link::new(SimTime::ZERO, 0.0);
    }
}
