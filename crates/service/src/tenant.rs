//! Tenant state: identity, protection domain, footprint, request
//! generator, and per-tenant SLO accounting.
//!
//! Each admitted tenant owns one protection domain (its PID on the rack),
//! one contiguous vma, a private fork of the service's seeded RNG (so a
//! run is deterministic regardless of how tenants interleave), and a
//! latency histogram from which its SLO report (p50/p99/p99.9,
//! throughput, rejects) is cut when it departs.

use std::collections::VecDeque;
use std::fmt;

use mind_core::controller::Pid;
use mind_core::system::AccessKind;
use mind_sim::rng::Zipfian;
use mind_sim::stats::Histogram;
use mind_sim::{SimRng, SimTime};
use mind_workloads::trace::{TraceOp, Workload};

use crate::qos::QosClass;

/// Service-level tenant identifier (distinct from the rack PID).
pub type TenantId = u64;

/// Cache-line stride of a scanning tenant (matches the TF/GC streaming
/// workloads' access granularity).
const SCAN_LINE: u64 = 64;

/// How a tenant walks its footprint — the per-class workload-diversity
/// axis of the serving scenarios. Pure `Copy` configuration so it rides
/// inside [`crate::ServiceConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Uniform random pages (the original tenant generator).
    Uniform,
    /// Zipfian-popular pages with the given skew (`theta < 1`; YCSB uses
    /// 0.99) — a hot-key cache-friendly tenant.
    Zipfian(f64),
    /// Sequential cache-line scan over the footprint — the streaming
    /// pattern of the TF/GC replay workloads, with high page locality but
    /// a working set that wraps through every page.
    Scan,
}

/// The short label workload names carry: `uniform`, `zipf<theta>`, `scan`.
impl fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessPattern::Uniform => f.write_str("uniform"),
            AccessPattern::Zipfian(theta) => write!(f, "zipf{theta}"),
            AccessPattern::Scan => f.write_str("scan"),
        }
    }
}

/// Draws one operation of the given pattern — the single generator body
/// behind both per-tenant state layouts: [`TenantWorkload`] (one struct
/// per tenant, sampler included) and the service population's
/// structure-of-arrays groups (`crate::shard::TenantGroup`, which pools
/// one sampler and keeps only an RNG and a cursor per tenant). Sharing
/// the body is what keeps the two layouts byte-identical: same RNG draw
/// order, same offsets, same kinds.
pub(crate) fn sample_op(
    pages: u64,
    read_ratio: f64,
    pattern: AccessPattern,
    zipf: Option<&Zipfian>,
    cursor: &mut u64,
    rng: &mut SimRng,
) -> TraceOp {
    let offset = match pattern {
        AccessPattern::Uniform => rng.gen_below(pages) << 12,
        AccessPattern::Zipfian(_) => {
            zipf.expect("sampler built with pattern").sample(rng) << 12
        }
        AccessPattern::Scan => {
            let offset = (*cursor * SCAN_LINE) % (pages << 12);
            *cursor += 1;
            offset
        }
    };
    let kind = if rng.gen_bool(read_ratio) {
        AccessKind::Read
    } else {
        AccessKind::Write
    };
    TraceOp {
        region: 0,
        offset,
        kind,
    }
}

/// The tenant-scoped request generator: single-logical-thread
/// reads/writes over the tenant's own region, walked per the tenant's
/// [`AccessPattern`] — the [`Workload`] trait reused at per-tenant
/// granularity, so the service's traffic is built from the same
/// abstraction (and the same Zipfian/scan generators) the replay harness
/// uses.
#[derive(Debug)]
pub struct TenantWorkload {
    pages: u64,
    read_ratio: f64,
    pattern: AccessPattern,
    /// Zipfian sampler, built once when the pattern asks for it.
    zipf: Option<Zipfian>,
    /// Scan cursor (cache lines advanced).
    cursor: u64,
    rng: SimRng,
}

impl TenantWorkload {
    /// A uniform-random generator over `pages` 4 KB pages with the given
    /// read fraction.
    pub fn new(pages: u64, read_ratio: f64, rng: SimRng) -> Self {
        TenantWorkload::with_pattern(pages, read_ratio, AccessPattern::Uniform, rng)
    }

    /// A generator with an explicit access pattern.
    pub fn with_pattern(pages: u64, read_ratio: f64, pattern: AccessPattern, rng: SimRng) -> Self {
        let zipf = match pattern {
            AccessPattern::Zipfian(theta) => Some(Zipfian::new(pages, theta)),
            _ => None,
        };
        TenantWorkload {
            pages,
            read_ratio,
            pattern,
            zipf,
            cursor: 0,
            rng,
        }
    }

    /// The pattern in force.
    pub fn pattern(&self) -> AccessPattern {
        self.pattern
    }
}

impl Workload for TenantWorkload {
    fn name(&self) -> String {
        format!(
            "tenant(p={},r={},{})",
            self.pages, self.read_ratio, self.pattern
        )
    }

    fn regions(&self) -> Vec<u64> {
        vec![self.pages << 12]
    }

    fn n_threads(&self) -> u16 {
        1
    }

    fn next_op(&mut self, _thread: u16) -> TraceOp {
        sample_op(
            self.pages,
            self.read_ratio,
            self.pattern,
            self.zipf.as_ref(),
            &mut self.cursor,
            &mut self.rng,
        )
    }
}

/// A queued request: when it entered the tenant's queue and what it asks.
#[derive(Debug, Clone, Copy)]
pub struct PendingRequest {
    /// Open-loop arrival time.
    pub enqueued_at: SimTime,
    /// The memory operation.
    pub op: TraceOp,
}

/// A live tenant.
#[derive(Debug)]
pub struct Tenant {
    /// Service-level id.
    pub id: TenantId,
    /// Rack PID — also the tenant's protection domain (PDID).
    pub pid: Pid,
    /// Service class.
    pub qos: QosClass,
    /// Base of the tenant's vma on the rack.
    pub region_base: u64,
    /// Footprint in 4 KB pages.
    pub pages: u64,
    /// Offered load, requests per simulated second.
    pub rate_hz: f64,
    /// Arrival time.
    pub arrived_at: SimTime,
    /// Request generator (private RNG fork).
    pub workload: TenantWorkload,
    /// Open-loop queue awaiting dispatch.
    pub queue: VecDeque<PendingRequest>,
    /// Peak blade-count watermark.
    pub blades_peak: u16,
    /// Round-robin cursor over the tenant's blades.
    pub next_blade: usize,
    /// End-to-end request latency (queueing + memory access), ns.
    pub latency: Histogram,
    /// Requests served.
    pub ops: u64,
    /// Requests rejected (queue overflow) or dropped at departure.
    pub rejected: u64,
    /// Requests served since the last elasticity epoch.
    pub ops_this_epoch: u64,
}

impl Tenant {
    /// The blade the next dispatched request runs on (round-robin over
    /// `blades`, the tenant's assigned blades: its process's thread roster
    /// in the controller).
    pub fn pick_blade(&mut self, blades: &[u16]) -> u16 {
        let blade = blades[self.next_blade % blades.len()];
        self.next_blade = (self.next_blade + 1) % blades.len();
        blade
    }

    /// Cuts the tenant's SLO record at time `now`.
    pub fn slo(&self, now: SimTime, departed: bool) -> TenantSlo {
        let span = now.saturating_sub(self.arrived_at).as_secs_f64().max(1e-12);
        TenantSlo {
            tenant: self.id,
            qos: self.qos,
            pages: self.pages,
            arrived_at: self.arrived_at,
            departed,
            ops: self.ops,
            rejected: self.rejected,
            mops: self.ops as f64 / span / 1e6,
            p50_ns: self.latency.quantile(0.5),
            p99_ns: self.latency.quantile(0.99),
            p999_ns: self.latency.quantile(0.999),
            mean_ns: self.latency.mean(),
            blades_peak: self.blades_peak,
        }
    }
}

/// Per-tenant SLO report: what the serving layer owes each customer.
#[derive(Debug, Clone, Copy)]
pub struct TenantSlo {
    /// Service-level id.
    pub tenant: TenantId,
    /// Service class.
    pub qos: QosClass,
    /// Footprint in pages.
    pub pages: u64,
    /// Arrival time.
    pub arrived_at: SimTime,
    /// Whether the tenant departed before the run ended.
    pub departed: bool,
    /// Requests served.
    pub ops: u64,
    /// Requests rejected or dropped.
    pub rejected: u64,
    /// Served throughput in MOPS over the tenant's lifetime.
    pub mops: f64,
    /// Median end-to-end latency (ns).
    pub p50_ns: u64,
    /// Tail latency (ns).
    pub p99_ns: u64,
    /// Deep-tail latency (ns) — the SLO class the p99.9 satellite exists
    /// for.
    pub p999_ns: u64,
    /// Mean latency (ns).
    pub mean_ns: f64,
    /// Peak concurrent blade assignment.
    pub blades_peak: u16,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_workload_stays_in_bounds() {
        let mut wl = TenantWorkload::new(64, 0.5, SimRng::new(9));
        assert_eq!(wl.regions(), vec![64 << 12]);
        assert_eq!(wl.n_threads(), 1);
        for _ in 0..1000 {
            let op = wl.next_op(0);
            assert_eq!(op.region, 0);
            assert!(op.offset < 64 << 12);
        }
    }

    #[test]
    fn tenant_workload_read_ratio_respected() {
        let mut wl = TenantWorkload::new(1024, 0.8, SimRng::new(3));
        let reads = (0..20_000)
            .filter(|_| !wl.next_op(0).kind.is_write())
            .count();
        let frac = reads as f64 / 20_000.0;
        assert!((frac - 0.8).abs() < 0.02, "read fraction {frac}");
    }

    #[test]
    fn zipfian_tenant_skews_toward_hot_pages() {
        let mut wl =
            TenantWorkload::with_pattern(1024, 0.5, AccessPattern::Zipfian(0.99), SimRng::new(5));
        assert!(wl.name().contains("zipf0.99"));
        let mut hot = 0u64;
        for _ in 0..20_000 {
            let op = wl.next_op(0);
            assert!(op.offset < 1024 << 12);
            if op.offset < 16 << 12 {
                hot += 1;
            }
        }
        // Uniform would put ~1.6% of accesses on the first 16 pages;
        // zipf(0.99) concentrates far more.
        assert!(hot > 4_000, "hot-page mass {hot}");
    }

    #[test]
    fn scan_tenant_streams_sequentially_with_page_locality() {
        let mut wl = TenantWorkload::with_pattern(8, 0.9, AccessPattern::Scan, SimRng::new(5));
        assert!(wl.name().contains("scan"));
        let mut prev = None;
        let mut page_changes = 0u64;
        let n = 4_000u64;
        for _ in 0..n {
            let op = wl.next_op(0);
            assert!(op.offset < 8 << 12);
            if let Some(p) = prev {
                assert_eq!(op.offset, (p + SCAN_LINE) % (8 << 12), "sequential");
                if op.offset >> 12 != p >> 12 {
                    page_changes += 1;
                }
            }
            prev = Some(op.offset);
        }
        // 64 lines per 4 KB page: high page locality.
        assert!(page_changes <= n / 60, "page changes {page_changes}");
    }

    #[test]
    fn tenant_workload_is_deterministic() {
        let mut a = TenantWorkload::new(128, 0.5, SimRng::new(11));
        let mut b = TenantWorkload::new(128, 0.5, SimRng::new(11));
        for _ in 0..100 {
            assert_eq!(a.next_op(0), b.next_op(0));
        }
    }

    fn tenant() -> Tenant {
        Tenant {
            id: 1,
            pid: 10,
            qos: QosClass::Gold,
            region_base: 0,
            pages: 16,
            rate_hz: 1000.0,
            arrived_at: SimTime::ZERO,
            workload: TenantWorkload::new(16, 0.5, SimRng::new(1)),
            queue: VecDeque::new(),
            blades_peak: 1,
            next_blade: 0,
            latency: Histogram::new(),
            ops: 0,
            rejected: 0,
            ops_this_epoch: 0,
        }
    }

    #[test]
    fn pick_blade_round_robins() {
        let mut t = tenant();
        let picks: Vec<u16> = (0..6).map(|_| t.pick_blade(&[0, 2, 3])).collect();
        assert_eq!(picks, vec![0, 2, 3, 0, 2, 3]);
    }

    #[test]
    fn slo_reports_throughput_over_lifetime() {
        let mut t = tenant();
        t.ops = 2_000_000;
        for v in [100u64, 200, 400] {
            t.latency.record(v);
        }
        let slo = t.slo(SimTime::from_secs(2), true);
        assert!((slo.mops - 1.0).abs() < 1e-9);
        assert!(slo.departed);
        assert!(slo.p50_ns <= slo.p99_ns && slo.p99_ns <= slo.p999_ns);
    }
}
