//! The memory service: a deterministic discrete-event serving loop over a
//! MIND rack.
//!
//! Tenants arrive open-loop (Poisson), each getting its own protection
//! domain, vma, compute-blade foothold, and forked RNG; they offer
//! requests open-loop at their own Poisson rate into per-tenant queues; a
//! dispatcher with a fixed slot budget per quantum drains the queues under
//! weighted round-robin across QoS classes; an elasticity driver re-sizes
//! each tenant's blade set to its measured throughput every epoch; and
//! departures tear the tenant's domain down (TCAM entries, directory
//! state, memory) through the ordinary `exit` path.
//!
//! Determinism: a single event loop ordered by `(time, sequence)`, all
//! randomness drawn from one seeded root RNG in event order (tenants hold
//! private forks), no wall-clock anywhere — the same config always
//! produces the same [`ServiceReport`], which is what lets the harness
//! fan service scenarios across worker threads.

use std::collections::VecDeque;

use mind_core::addr::pow2_alloc_size;
use mind_core::cluster::{MindCluster, MindConfig};
use mind_core::controller::Pid;
use mind_core::protect::PermClass;
use mind_core::system::{MemOp, MemorySystem, OpBatch};
use mind_obs::{EventKind, TraceData, WindowSeries};
use mind_sim::stats::{Histogram, Metrics};
use mind_sim::{EventQueue, SimRng, SimTime};
use mind_workloads::trace::Workload;

use crate::admission::{self, AdmitError};
use crate::elastic;
use crate::qos::QosClass;
use crate::tenant::{AccessPattern, PendingRequest, Tenant, TenantId, TenantSlo, TenantWorkload};

/// Configuration of a service run — pure `Copy` data, so a service
/// scenario can be rebuilt identically inside any harness worker.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// The rack underneath.
    pub rack: MindConfig,
    /// Root RNG seed; everything random forks from it deterministically.
    pub seed: u64,
    /// Simulated span of the run.
    pub duration: SimTime,
    /// Tenant arrival rate (Poisson, per simulated second).
    pub arrival_rate_hz: f64,
    /// Mean tenant lifetime (exponential).
    pub mean_lifetime: SimTime,
    /// `[P(Gold), P(Silver)]`; the remainder is BestEffort.
    pub qos_mix: [f64; 2],
    /// Tenant footprint bounds, in 4 KB pages (uniform).
    pub min_pages: u64,
    /// Upper footprint bound (inclusive).
    pub max_pages: u64,
    /// Fraction of tenant requests that are reads.
    pub read_ratio: f64,
    /// Per-tenant offered-load bounds, requests per second (uniform).
    pub min_rate_hz: f64,
    /// Upper offered-load bound.
    pub max_rate_hz: f64,
    /// Dispatcher period.
    pub dispatch_quantum: SimTime,
    /// Requests the dispatcher may serve per quantum.
    pub slots_per_quantum: u32,
    /// Per-tenant queue bound; arrivals beyond it are rejected.
    pub max_queue_depth: usize,
    /// Elasticity epoch (blade re-sizing period).
    pub elastic_epoch: SimTime,
    /// Assumed per-blade service capacity, requests per second.
    pub blade_capacity_hz: f64,
    /// In-flight window depth of the quantum batch: how many of a
    /// quantum's grants the rack keeps in flight at once. At `1` (the
    /// default) every grant issues at the quantum boundary. A deeper
    /// window offers the grants to the rack's issue gate
    /// ([`MindCluster::issue_clustered`]) over a pool of `window` slots they
    /// share: up to `window` independent faults overlap their fabric RTTs,
    /// a grant that finds the pool, its blade's RNIC
    /// ([`MindConfig::nic_depth`]) or its directory region busy issues when
    /// that clears without holding back the grants behind it, and the wait
    /// bills to the request's latency.
    pub window: u32,
    /// Access pattern per QoS class, in [`QosClass::ALL`] order — the
    /// tenant workload-diversity axis. Defaults to uniform everywhere;
    /// the QoS figure mixes Zipfian / uniform / scanning classes.
    pub class_patterns: [AccessPattern; 3],
}

impl Default for ServiceConfig {
    /// A 4-compute-blade functional rack under moderate overload: ~20
    /// concurrent tenants offering ~1.25× the dispatcher's capacity, so
    /// QoS classes visibly separate.
    fn default() -> Self {
        let mut rack = MindConfig::small();
        rack.n_compute = 4;
        rack.split.epoch_len = SimTime::from_millis(2);
        ServiceConfig {
            rack,
            seed: 2021,
            duration: SimTime::from_millis(200),
            arrival_rate_hz: 400.0,
            mean_lifetime: SimTime::from_millis(50),
            qos_mix: [0.2, 0.3],
            min_pages: 64,
            max_pages: 512,
            read_ratio: 0.7,
            min_rate_hz: 5_000.0,
            max_rate_hz: 20_000.0,
            dispatch_quantum: SimTime::from_micros(20),
            slots_per_quantum: 4,
            max_queue_depth: 64,
            elastic_epoch: SimTime::from_millis(5),
            blade_capacity_hz: 50_000.0,
            window: 1,
            class_patterns: [AccessPattern::Uniform; 3],
        }
    }
}

impl ServiceConfig {
    /// Scales every load knob (arrival rate and per-tenant request rates)
    /// by `factor`, holding capacity fixed — the overload axis the QoS
    /// figure sweeps.
    pub fn load_scaled(mut self, factor: f64) -> Self {
        self.arrival_rate_hz *= factor;
        self.min_rate_hz *= factor;
        self.max_rate_hz *= factor;
        self
    }
}

/// Aggregate SLO numbers for one QoS class over a whole run.
#[derive(Debug, Clone, Copy)]
pub struct ClassReport {
    /// The class.
    pub qos: QosClass,
    /// Tenants admitted into the class.
    pub tenants_admitted: u64,
    /// Arrivals refused by admission control.
    pub tenants_rejected: u64,
    /// Requests served.
    pub ops: u64,
    /// Requests rejected (queue overflow or dropped at departure).
    pub rejected_requests: u64,
    /// Served throughput in MOPS over the run.
    pub mops: f64,
    /// Median end-to-end latency (ns).
    pub p50_ns: u64,
    /// Tail latency (ns).
    pub p99_ns: u64,
    /// Deep-tail latency (ns).
    pub p999_ns: u64,
    /// Mean latency (ns).
    pub mean_ns: f64,
}

/// Everything a service run produced.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Simulated span.
    pub duration: SimTime,
    /// Tenants admitted.
    pub tenants_admitted: u64,
    /// Arrivals refused by admission control or the rack.
    pub tenants_rejected: u64,
    /// Tenants that departed before the run ended.
    pub tenants_departed: u64,
    /// Tenants still live at the end.
    pub tenants_live: u64,
    /// Peak concurrent tenants.
    pub peak_live_tenants: u64,
    /// Requests served.
    pub total_ops: u64,
    /// Requests rejected.
    pub rejected_requests: u64,
    /// Final rack memory utilization.
    pub memory_utilization: f64,
    /// Final match-action rule count (translation + protection).
    pub match_action_rules: usize,
    /// Per-class aggregates, in [`QosClass::ALL`] order.
    pub classes: [ClassReport; 3],
    /// Per-tenant SLO records, in admission order.
    pub tenants: Vec<TenantSlo>,
    /// Rack metrics snapshot at completion.
    pub metrics: Metrics,
    /// Per-class windowed telemetry (end-to-end request latency bucketed
    /// by virtual completion time), in [`QosClass::ALL`] order; `None`
    /// when tracing is off, so untraced reports are unchanged.
    pub timeseries: Option<[WindowSeries; 3]>,
    /// The rack's deterministic event trace, service control-plane events
    /// included; `None` when tracing is off.
    pub trace: Option<TraceData>,
}

/// What the event loop processes. Events are ordered by the
/// [`EventQueue`]'s `(time, insertion-seq)` key, so the run is
/// deterministic even when events share a timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// The next tenant arrival.
    Arrival,
    /// A tenant's lifetime ended.
    Departure(TenantId),
    /// A tenant's next open-loop request, and the slot it was admitted to.
    Request(TenantId, u32),
    /// A dispatch quantum boundary.
    Dispatch,
    /// An elasticity epoch boundary.
    Rebalance,
}

/// The live tenant in `slot` of the slot table.
fn tenant_in(slots: &mut [Option<Tenant>], slot: u32) -> &mut Tenant {
    slots[slot as usize]
        .as_mut()
        .expect("listed tenant is live")
}

/// The compute blades the live process `pid` runs on, in placement order:
/// the controller's thread roster is a tenant's one blade list.
fn blades_of(cluster: &MindCluster, pid: Pid) -> &[u16] {
    &cluster
        .controller()
        .process(pid)
        .expect("tenant is live")
        .blades
}

/// The multi-tenant memory service.
#[derive(Debug)]
pub struct MemoryService {
    cfg: ServiceConfig,
    cluster: MindCluster,
    rng: SimRng,
    /// Live tenants in a dense slot table; a departed tenant's slot is
    /// handed to the next admission.
    slots: Vec<Option<Tenant>>,
    /// Vacant slots, each with its last tenant's cleared queue and latency
    /// histogram, which the next admission reuses.
    vacant: Vec<(u32, VecDeque<PendingRequest>, Histogram)>,
    /// The live tenants as `(id, slot)`, ascending by id. Ids are handed
    /// out in admission order, so an admission appends.
    live: Vec<(TenantId, u32)>,
    /// Per class, the tenants with a non-empty queue as `(id, slot)`,
    /// ascending by id: kept current at submit, queue drain and departure,
    /// so a quantum never walks the tenants that have nothing to serve.
    ready: [Vec<(TenantId, u32)>; 3],
    /// Per class, requests queued across its tenants.
    queued: [u64; 3],
    next_tenant_id: TenantId,
    queue: EventQueue<Event>,
    wrr_cursor: [usize; 3],
    class_latency: [Histogram; 3],
    class_ops: [u64; 3],
    class_rejected_requests: [u64; 3],
    class_admitted: [u64; 3],
    class_rejected_tenants: [u64; 3],
    slos: Vec<TenantSlo>,
    departed: u64,
    peak_live: usize,
    /// Reusable quantum batch (cleared each dispatch, keeps allocations).
    quantum: OpBatch,
    /// Reusable grant list paired with `quantum`: `(slot, class, request)`.
    grants: Vec<(u32, usize, PendingRequest)>,
    /// Reusable list of the ready-list positions a quantum drained.
    drained: Vec<usize>,
    /// Per-class windowed telemetry, present only when the rack traces.
    class_series: Option<[WindowSeries; 3]>,
}

impl MemoryService {
    /// Builds the service (rack included) from its configuration. Tracing
    /// and telemetry follow the rack's [`MindConfig::trace`] settings.
    ///
    /// # Panics
    ///
    /// Panics if `dispatch_quantum` or `elastic_epoch` is zero: `run` would
    /// reschedule that period's event at the instant it fired, forever.
    pub fn new(cfg: ServiceConfig) -> Self {
        assert!(cfg.dispatch_quantum > SimTime::ZERO, "dispatch_quantum must be non-zero");
        assert!(cfg.elastic_epoch > SimTime::ZERO, "elastic_epoch must be non-zero");
        let class_series = if cfg.rack.trace.enabled() {
            Some(std::array::from_fn(|_| {
                WindowSeries::new(cfg.rack.trace.interval)
            }))
        } else {
            None
        };
        MemoryService {
            cluster: MindCluster::new(cfg.rack),
            class_series,
            rng: SimRng::new(cfg.seed),
            cfg,
            slots: Vec::new(),
            vacant: Vec::new(),
            live: Vec::new(),
            ready: Default::default(),
            queued: [0; 3],
            next_tenant_id: 1,
            queue: EventQueue::new(),
            wrr_cursor: [0; 3],
            class_latency: [Histogram::new(), Histogram::new(), Histogram::new()],
            class_ops: [0; 3],
            class_rejected_requests: [0; 3],
            class_admitted: [0; 3],
            class_rejected_tenants: [0; 3],
            slos: Vec::new(),
            departed: 0,
            peak_live: 0,
            quantum: OpBatch::fixed().with_window(cfg.window),
            grants: Vec::new(),
            drained: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The rack underneath (isolation tests inspect TCAM state through
    /// it).
    pub fn cluster(&self) -> &MindCluster {
        &self.cluster
    }

    /// Mutable rack access (isolation tests drive cross-tenant probes).
    pub fn cluster_mut(&mut self) -> &mut MindCluster {
        &mut self.cluster
    }

    /// Records a service event on the control lane: one past the rack's
    /// last compute blade.
    fn trace_control(&mut self, now: SimTime, kind: EventKind, a: u64, b: u64) {
        let lane = self.cfg.rack.n_compute as u32;
        self.cluster
            .trace()
            .record(now, lane, kind, SimTime::ZERO, a, b);
    }

    /// Live tenant ids, in admission order.
    pub fn live_tenants(&self) -> Vec<TenantId> {
        self.live.iter().map(|&(id, _)| id).collect()
    }

    /// A live tenant.
    pub fn tenant(&self, id: TenantId) -> Option<&Tenant> {
        self.slots[self.slot_of(id)? as usize].as_ref()
    }

    /// The compute blades a live tenant runs on, in placement order (at
    /// least one).
    pub fn blades(&self, id: TenantId) -> Option<&[u16]> {
        Some(blades_of(&self.cluster, self.tenant(id)?.pid))
    }

    /// Where `id` sits in `list` (ascending by id), or where it would go.
    fn position(list: &[(TenantId, u32)], id: TenantId) -> Result<usize, usize> {
        list.binary_search_by_key(&id, |&(listed, _)| listed)
    }

    /// The slot of a live tenant.
    fn slot_of(&self, id: TenantId) -> Option<u32> {
        let at = Self::position(&self.live, id).ok()?;
        Some(self.live[at].1)
    }

    // ----- Scripted control plane (tests and the event loop share it) -----

    /// Admits a tenant of `qos` with a `pages`-page footprint offering
    /// `rate_hz` requests/s: admission check against memory pressure, then
    /// `exec` (a fresh protection domain), `mmap`, and a compute-blade
    /// foothold via the controller's round-robin placement.
    pub fn admit(
        &mut self,
        now: SimTime,
        qos: QosClass,
        pages: u64,
        rate_hz: f64,
    ) -> Result<TenantId, AdmitError> {
        let capacity = self.cfg.rack.n_memory as u64 * self.cfg.rack.memory_blade_bytes;
        // Project the power-of-two extent the allocator will actually
        // reserve, not the raw ask — otherwise the class ceiling can be
        // silently overshot by up to 2x.
        let footprint_frac = pow2_alloc_size(pages << 12).unwrap_or(u64::MAX) as f64 / capacity as f64;
        if let Err(e) = admission::admit(self.cluster.memory_utilization(), footprint_frac, qos) {
            self.class_rejected_tenants[qos.index()] += 1;
            self.trace_control(now, EventKind::TenantReject, qos.index() as u64, 0);
            return Err(e);
        }
        let pid = self.cluster.exec().expect("exec cannot fail");
        let vma = match self.cluster.mmap_with(pid, pages << 12, PermClass::ReadWrite) {
            Ok(vma) => vma,
            Err(_) => {
                // Unwind the half-created tenant; its domain leaves nothing.
                self.cluster.exit(now, pid).expect("fresh pid exists");
                self.class_rejected_tenants[qos.index()] += 1;
                self.trace_control(now, EventKind::TenantReject, qos.index() as u64, 0);
                return Err(AdmitError::RackFull);
            }
        };
        self.cluster.place_thread(pid).expect("pid exists");
        let id = self.next_tenant_id;
        self.next_tenant_id += 1;
        let workload = TenantWorkload::with_pattern(
            pages,
            self.cfg.read_ratio,
            self.cfg.class_patterns[qos.index()],
            self.rng.fork(),
        );
        let (slot, queue, latency) = self.vacant.pop().unwrap_or_else(|| {
            self.slots.push(None);
            let queue = VecDeque::with_capacity(self.cfg.max_queue_depth);
            (self.slots.len() as u32 - 1, queue, Histogram::new())
        });
        self.live.push((id, slot));
        self.slots[slot as usize] = Some(Tenant {
            id,
            pid,
            qos,
            region_base: vma.base,
            pages,
            rate_hz,
            arrived_at: now,
            workload,
            queue,
            blades_peak: 1,
            next_blade: 0,
            latency,
            ops: 0,
            rejected: 0,
            ops_this_epoch: 0,
        });
        self.class_admitted[qos.index()] += 1;
        self.peak_live = self.peak_live.max(self.live.len());
        self.trace_control(now, EventKind::TenantAdmit, qos.index() as u64, 0);
        Ok(id)
    }

    /// Departs a tenant: pending requests are dropped (counted rejected),
    /// the SLO record is cut, and the process exits — which revokes its
    /// protection grants, tears down directory state, and frees memory.
    pub fn depart(&mut self, now: SimTime, id: TenantId) -> Option<TenantSlo> {
        let at = Self::position(&self.live, id).ok()?;
        let (_, slot) = self.live.remove(at);
        let mut t = self.slots[slot as usize]
            .take()
            .expect("listed tenant is live");
        let ci = t.qos.index();
        let dropped = t.queue.len() as u64;
        if let Ok(at) = Self::position(&self.ready[ci], id) {
            self.ready[ci].remove(at);
        }
        self.queued[ci] -= dropped;
        t.rejected += dropped;
        self.class_rejected_requests[ci] += dropped;
        t.queue.clear();
        self.cluster.exit(now, t.pid).expect("live tenant has a pid");
        debug_assert_eq!(
            self.cluster.protection_entries_for(t.pid),
            0,
            "departed tenant's TCAM entries reclaimed"
        );
        let slo = t.slo(now, true);
        t.latency.clear();
        self.vacant.push((slot, t.queue, t.latency));
        self.slos.push(slo);
        self.departed += 1;
        self.trace_control(now, EventKind::TenantDepart, ci as u64, 0);
        Some(slo)
    }

    /// Enqueues one open-loop request for tenant `id` (rejecting it if the
    /// queue is at its bound). Returns whether it was accepted.
    pub fn submit(&mut self, now: SimTime, id: TenantId) -> bool {
        self.slot_of(id).is_some_and(|slot| self.enqueue(now, slot))
    }

    /// [`MemoryService::submit`] for the live tenant in `slot`.
    fn enqueue(&mut self, now: SimTime, slot: u32) -> bool {
        let t = tenant_in(&mut self.slots, slot);
        let ci = t.qos.index();
        if t.queue.len() >= self.cfg.max_queue_depth {
            t.rejected += 1;
            self.class_rejected_requests[ci] += 1;
            self.trace_control(now, EventKind::RequestReject, ci as u64, 0);
            return false;
        }
        let op = t.workload.next_op(0);
        if t.queue.is_empty() {
            let ready = &mut self.ready[ci];
            let at = Self::position(ready, t.id).expect_err("an idle tenant is not listed");
            ready.insert(at, (t.id, slot));
        }
        t.queue.push_back(PendingRequest {
            enqueued_at: now,
            op,
        });
        self.queued[ci] += 1;
        true
    }

    /// One dispatch quantum: serves up to `slots_per_quantum` queued
    /// requests, split across QoS classes by weighted round-robin (see
    /// [`admission::wrr_shares`]) and within a class round-robin across
    /// its tenants: the class's tenants that had a request queued when the
    /// quantum began, in ascending id, starting where the class's cursor
    /// left off. A tenant the quantum drains keeps its turn until the
    /// quantum ends.
    ///
    /// The WRR pass hands out the quantum's *batch grant* — the selected
    /// `(tenant, request)` list — which then executes as one fixed-time
    /// [`OpBatch`].
    pub fn dispatch(&mut self, now: SimTime) {
        let shares = admission::wrr_shares(self.cfg.slots_per_quantum, self.queued);

        // Selection pass: weighted round-robin hands out the quantum's
        // grants. Every request in the grant issues at `now`, so selection
        // and execution decompose without changing any outcome. The batch
        // and grant buffers are service-lifetime and reused per quantum.
        let mut grants = std::mem::take(&mut self.grants);
        let mut batch = std::mem::take(&mut self.quantum);
        grants.clear();
        batch.clear();
        for class in QosClass::ALL {
            let ci = class.index();
            let list = &mut self.ready[ci];
            if list.is_empty() || shares[ci] == 0 {
                continue;
            }
            let mut budget = shares[ci];
            let mut cursor = self.wrr_cursor[ci] % list.len();
            let mut empty_streak = 0;
            self.drained.clear();
            while budget > 0 && empty_streak < list.len() {
                let (at, (_, slot)) = (cursor, list[cursor]);
                cursor = (cursor + 1) % list.len();
                let t = tenant_in(&mut self.slots, slot);
                let Some(req) = t.queue.pop_front() else {
                    empty_streak += 1;
                    continue;
                };
                if t.queue.is_empty() {
                    self.drained.push(at);
                }
                empty_streak = 0;
                budget -= 1;
                batch.push(MemOp {
                    at: now,
                    blade: t.pick_blade(blades_of(&self.cluster, t.pid)),
                    pdid: Some(t.pid),
                    vaddr: t.region_base + req.op.offset,
                    kind: req.op.kind,
                });
                grants.push((slot, ci, req));
            }
            self.wrr_cursor[ci] = cursor;
            self.queued[ci] -= shares[ci] - budget;
            // Highest position first, so a removal never moves one still
            // to come.
            self.drained.sort_unstable_by(|a, b| b.cmp(a));
            for &at in &self.drained {
                list.remove(at);
            }
        }

        // Execution pass: the whole quantum through the datapath at once.
        self.cluster.execute_batch(now, &mut batch);

        // Accounting pass, in grant order. End-to-end latency is derived
        // from each grant's completion record (recorded issue time +
        // latency): at window 1 the issue time is the quantum boundary
        // `now` exactly; deeper windows delay grants that waited at
        // the issue gate, and that wait bills to the request.
        for (i, &(slot, ci, ref req)) in grants.iter().enumerate() {
            let t = tenant_in(&mut self.slots, slot);
            match batch.result(i) {
                Ok(outcome) => {
                    let latency = batch.op(i).at.saturating_sub(req.enqueued_at)
                        + outcome.latency.total();
                    t.latency.record(latency.as_nanos());
                    t.ops += 1;
                    t.ops_this_epoch += 1;
                    self.class_latency[ci].record(latency.as_nanos());
                    self.class_ops[ci] += 1;
                    if let Some(series) = &mut self.class_series {
                        let stall = outcome.latency.inv_queue + outcome.latency.inv_tlb;
                        series[ci].record(
                            batch.op(i).at + outcome.latency.total(),
                            latency.as_nanos(),
                            outcome.remote,
                            outcome.invalidations,
                            stall.as_nanos(),
                        );
                    }
                }
                Err(_) => {
                    // A request the rack refused (e.g. a failed blade)
                    // still consumed its slot; it counts as rejected.
                    t.rejected += 1;
                    self.class_rejected_requests[ci] += 1;
                }
            }
        }
        let queued = self.queued.iter().sum();
        self.trace_control(now, EventKind::Dispatch, grants.len() as u64, queued);
        self.grants = grants;
        self.quantum = batch;
    }

    /// One elasticity epoch: re-sizes every tenant's blade set to its
    /// measured throughput, growing through the controller's round-robin
    /// placement and shrinking back toward a single blade.
    pub fn rebalance(&mut self) {
        let n_compute = self.cfg.rack.n_compute;
        let epoch = self.cfg.elastic_epoch;
        let capacity_hz = self.cfg.blade_capacity_hz;
        for &(_, slot) in &self.live {
            let t = tenant_in(&mut self.slots, slot);
            let target = elastic::target_blades(t.ops_this_epoch, epoch, capacity_hz, n_compute);
            t.ops_this_epoch = 0;
            // place_thread round-robins over the whole rack, so within
            // n_compute probes in a row a blade not yet held appears; fewer
            // mean the tenant is already on every blade. A probe that lands
            // on a held blade is undone, which retires the registration it
            // just made.
            let mut misses = 0;
            while (blades_of(&self.cluster, t.pid).len() as u16) < target && misses < n_compute {
                let blade = self.cluster.place_thread(t.pid).expect("tenant is live");
                let held = blades_of(&self.cluster, t.pid);
                misses = if held[..held.len() - 1].contains(&blade) {
                    self.cluster
                        .unplace_thread(t.pid, blade)
                        .expect("tenant is live");
                    misses + 1
                } else {
                    0
                };
            }
            while (blades_of(&self.cluster, t.pid).len() as u16) > target {
                let &blade = blades_of(&self.cluster, t.pid)
                    .last()
                    .expect("held > target");
                self.cluster
                    .unplace_thread(t.pid, blade)
                    .expect("tenant is live");
                t.next_blade = 0;
            }
            t.blades_peak = t
                .blades_peak
                .max(blades_of(&self.cluster, t.pid).len() as u16);
        }
    }

    // ----- The event loop -----

    /// Exponential inter-event gap with the given mean, floored at 1 ns so
    /// the loop always advances.
    fn exp_gap(&mut self, mean_ns: f64) -> SimTime {
        let u = self.rng.gen_f64();
        let ns = -(1.0 - u).ln() * mean_ns;
        SimTime::from_nanos((ns as u64).max(1))
    }

    fn exp_gap_rate(&mut self, rate_hz: f64) -> SimTime {
        self.exp_gap(1e9 / rate_hz.max(1e-9))
    }

    /// Runs the configured span and returns the report.
    pub fn run(mut self) -> ServiceReport {
        let duration = self.cfg.duration;
        let first_arrival = self.exp_gap_rate(self.cfg.arrival_rate_hz);
        self.queue.schedule(first_arrival, Event::Arrival);
        self.queue.schedule(self.cfg.dispatch_quantum, Event::Dispatch);
        self.queue.schedule(self.cfg.elastic_epoch, Event::Rebalance);

        while let Some(scheduled) = self.queue.pop() {
            let at = scheduled.at;
            if at > duration {
                break;
            }
            match scheduled.event {
                Event::Arrival => {
                    self.handle_arrival(at);
                    let gap = self.exp_gap_rate(self.cfg.arrival_rate_hz);
                    self.queue.schedule(at + gap, Event::Arrival);
                }
                Event::Departure(id) => {
                    self.depart(at, id);
                }
                Event::Request(id, slot) => {
                    if self.slots[slot as usize].as_ref().is_some_and(|t| t.id == id) {
                        self.enqueue(at, slot);
                        let rate = tenant_in(&mut self.slots, slot).rate_hz;
                        let gap = self.exp_gap_rate(rate);
                        self.queue.schedule(at + gap, Event::Request(id, slot));
                    }
                }
                Event::Dispatch => {
                    self.dispatch(at);
                    self.queue.schedule(at + self.cfg.dispatch_quantum, Event::Dispatch);
                }
                Event::Rebalance => {
                    self.rebalance();
                    self.queue.schedule(at + self.cfg.elastic_epoch, Event::Rebalance);
                }
            }
        }
        self.finish(duration)
    }

    /// An arrival: sample the tenant's class, footprint, load, and
    /// lifetime from the root RNG (in a fixed order), then try to admit.
    fn handle_arrival(&mut self, now: SimTime) {
        let qos = QosClass::from_mix(self.rng.gen_f64(), self.cfg.qos_mix);
        let pages = self.rng.gen_range(self.cfg.min_pages, self.cfg.max_pages + 1);
        let rate_hz = self.cfg.min_rate_hz
            + self.rng.gen_f64() * (self.cfg.max_rate_hz - self.cfg.min_rate_hz);
        let lifetime = self.exp_gap(self.cfg.mean_lifetime.as_nanos() as f64);
        if let Ok(id) = self.admit(now, qos, pages, rate_hz) {
            let slot = self.live.last().expect("just admitted").1;
            let first_request = self.exp_gap_rate(rate_hz);
            self.queue.schedule(now + first_request, Event::Request(id, slot));
            self.queue.schedule(now + lifetime, Event::Departure(id));
        }
    }

    /// Cuts the final report: still-live tenants contribute SLO records
    /// (not marked departed) and the rack is snapshotted.
    fn finish(mut self, duration: SimTime) -> ServiceReport {
        let tenants_live = self.live.len() as u64;
        for &(_, slot) in &self.live {
            let slo = tenant_in(&mut self.slots, slot).slo(duration, false);
            self.slos.push(slo);
        }
        // Ids are assigned monotonically, so this is admission order (the
        // records accumulate in departure order during the run).
        self.slos.sort_by_key(|s| s.tenant);
        let secs = duration.as_secs_f64().max(1e-12);
        let classes = QosClass::ALL.map(|qos| {
            let i = qos.index();
            let h = &self.class_latency[i];
            ClassReport {
                qos,
                tenants_admitted: self.class_admitted[i],
                tenants_rejected: self.class_rejected_tenants[i],
                ops: self.class_ops[i],
                rejected_requests: self.class_rejected_requests[i],
                mops: self.class_ops[i] as f64 / secs / 1e6,
                p50_ns: h.quantile(0.5),
                p99_ns: h.quantile(0.99),
                p999_ns: h.quantile(0.999),
                mean_ns: h.mean(),
            }
        });
        let trace = self.cluster.take_trace();
        ServiceReport {
            duration,
            tenants_admitted: self.class_admitted.iter().sum(),
            tenants_rejected: self.class_rejected_tenants.iter().sum(),
            tenants_departed: self.departed,
            tenants_live,
            peak_live_tenants: self.peak_live as u64,
            total_ops: self.class_ops.iter().sum(),
            rejected_requests: self.class_rejected_requests.iter().sum(),
            memory_utilization: self.cluster.memory_utilization(),
            match_action_rules: self.cluster.match_action_rules(),
            classes,
            tenants: self.slos,
            metrics: self.cluster.metrics_snapshot(),
            timeseries: self.class_series,
            trace,
        }
    }
}

#[cfg(test)]
impl MemoryService {
    /// The dispatcher this one replaced, kept as its order oracle: walk
    /// every live tenant in id order, list per class the ones with a queue,
    /// hand each class's share out round-robin from its cursor. Returns the
    /// tenants the next quantum must grant, in grant order, the cursors it
    /// must leave, and how often it came back to a tenant it had drained.
    /// Reads the slot table only, none of the ready lists.
    fn oracle_grants(&self) -> (Vec<TenantId>, [usize; 3], usize) {
        use std::collections::BTreeMap;
        let mut tenants: BTreeMap<TenantId, (usize, usize)> = self
            .slots
            .iter()
            .flatten()
            .map(|t| (t.id, (t.qos.index(), t.queue.len())))
            .collect();
        let mut pending: [Vec<TenantId>; 3] = Default::default();
        let mut demand = [0u64; 3];
        for (&id, &(ci, queued)) in &tenants {
            if queued > 0 {
                pending[ci].push(id);
                demand[ci] += queued as u64;
            }
        }
        let shares = admission::wrr_shares(self.cfg.slots_per_quantum, demand);
        let mut cursors = self.wrr_cursor;
        let (mut granted, mut revisits) = (Vec::new(), 0);
        for ci in 0..3 {
            let list = &pending[ci];
            if list.is_empty() || shares[ci] == 0 {
                continue;
            }
            let mut budget = shares[ci];
            let mut cursor = cursors[ci] % list.len();
            let mut empty_streak = 0;
            while budget > 0 && empty_streak < list.len() {
                let id = list[cursor];
                cursor = (cursor + 1) % list.len();
                let queued = &mut tenants.get_mut(&id).expect("listed").1;
                if *queued == 0 {
                    empty_streak += 1;
                    revisits += 1;
                    continue;
                }
                *queued -= 1;
                empty_streak = 0;
                budget -= 1;
                granted.push(id);
            }
            cursors[ci] = cursor;
        }
        (granted, cursors, revisits)
    }

    /// The ready lists and queue counters say exactly what the slot table
    /// says.
    fn assert_ready_lists_current(&self) {
        let mut ready: [Vec<(TenantId, u32)>; 3] = Default::default();
        let mut queued = [0u64; 3];
        for &(id, slot) in &self.live {
            let t = self.slots[slot as usize].as_ref().expect("listed");
            assert_eq!(t.id, id);
            if !t.queue.is_empty() {
                ready[t.qos.index()].push((id, slot));
                queued[t.qos.index()] += t.queue.len() as u64;
            }
        }
        assert_eq!(self.ready, ready);
        assert_eq!(self.queued, queued);
        assert_eq!(self.live.len(), self.slots.iter().flatten().count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_core::system::AccessKind;

    fn quick_cfg() -> ServiceConfig {
        ServiceConfig {
            duration: SimTime::from_millis(40),
            arrival_rate_hz: 500.0,
            mean_lifetime: SimTime::from_millis(15),
            ..Default::default()
        }
    }

    #[test]
    #[should_panic(expected = "dispatch_quantum")]
    fn zero_dispatch_quantum_panics_naming_the_field() {
        MemoryService::new(ServiceConfig { dispatch_quantum: SimTime::ZERO, ..quick_cfg() });
    }

    #[test]
    #[should_panic(expected = "elastic_epoch")]
    fn zero_elastic_epoch_panics_naming_the_field() {
        MemoryService::new(ServiceConfig { elastic_epoch: SimTime::ZERO, ..quick_cfg() });
    }

    /// Overlapped quanta serve the same requests (the window changes
    /// dispatch timing, not what gets granted) and the run stays
    /// deterministic.
    #[test]
    fn windowed_dispatch_serves_same_requests_deterministically() {
        let windowed_cfg = ServiceConfig {
            window: 4,
            ..quick_cfg()
        };
        let a = MemoryService::new(windowed_cfg).run();
        let b = MemoryService::new(windowed_cfg).run();
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.metrics, b.metrics);
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.p999_ns, y.p999_ns);
        }
        // Same grant schedule as the serialized window: WRR selection is
        // window-independent, so every quantum serves the same requests.
        let serialized = MemoryService::new(quick_cfg()).run();
        assert_eq!(a.tenants_admitted, serialized.tenants_admitted);
        assert_eq!(a.total_ops, serialized.total_ops);
        assert_eq!(a.rejected_requests, serialized.rejected_requests);
    }

    /// The per-NIC issue gate reaches dispatch with zero wiring: it rides
    /// in `rack.nic_depth` straight into the rack's issue gate. A
    /// bounded depth keeps the run deterministic, and — like the window —
    /// shifts dispatch timing without changing what gets granted.
    #[test]
    fn nic_bounded_dispatch_stays_deterministic() {
        let mut bounded_cfg = ServiceConfig {
            window: 4,
            ..quick_cfg()
        };
        bounded_cfg.rack.nic_depth = 1;
        let a = MemoryService::new(bounded_cfg).run();
        let b = MemoryService::new(bounded_cfg).run();
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.metrics, b.metrics);
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.p999_ns, y.p999_ns);
        }
        let unbounded = MemoryService::new(ServiceConfig {
            window: 4,
            ..quick_cfg()
        })
        .run();
        assert_eq!(a.tenants_admitted, unbounded.tenants_admitted);
        assert_eq!(a.total_ops, unbounded.total_ops);
        assert_eq!(a.rejected_requests, unbounded.rejected_requests);
    }

    /// A grant the rack refuses (here: the tenant's only blade has failed)
    /// is billed to the tenant as a rejected request, serialized or through
    /// the issue gate.
    #[test]
    fn a_refused_grant_is_a_rejection_under_every_dispatch_config() {
        let windowed = ServiceConfig {
            window: 4,
            ..quick_cfg()
        };
        for cfg in [quick_cfg(), windowed] {
            let mut svc = MemoryService::new(cfg);
            let id = svc
                .admit(SimTime::ZERO, QosClass::Gold, 64, 1_000.0)
                .unwrap();
            let blade = svc.blades(id).unwrap()[0];
            svc.cluster_mut().fail_blade(blade);
            for _ in 0..4 {
                assert!(svc.submit(SimTime::from_micros(1), id));
            }
            svc.dispatch(SimTime::from_micros(2));
            let t = svc.tenant(id).unwrap();
            assert_eq!((t.ops, t.rejected, t.queue.len()), (0, 4, 0), "window {}", cfg.window);
        }
    }

    /// Random admit / submit / depart / dispatch scripts: every quantum
    /// grants exactly the tenants, in exactly the order, the per-quantum
    /// walk of all tenants would have, and leaves the same cursors.
    #[test]
    fn ready_lists_grant_in_the_order_of_the_per_quantum_walk() {
        let (mut quanta, mut drained_revisits, mut queued_departures) = (0, 0, 0);
        for seed in 0..12 {
            let mut rng = SimRng::new(seed);
            let mut svc = MemoryService::new(ServiceConfig {
                slots_per_quantum: 1 + seed as u32 % 7,
                max_queue_depth: 6,
                ..quick_cfg()
            });
            let mut now = SimTime::ZERO;
            for _ in 0..1_500 {
                now += SimTime::from_micros(1);
                let live = svc.live_tenants();
                let pick = |rng: &mut SimRng| live[rng.gen_below(live.len() as u64) as usize];
                match rng.gen_below(10) {
                    0 if live.len() < 24 => {
                        let qos = QosClass::ALL[rng.gen_below(3) as usize];
                        svc.admit(now, qos, 16, 1_000.0).unwrap();
                    }
                    1 if !live.is_empty() => {
                        let id = pick(&mut rng);
                        if !svc.tenant(id).unwrap().queue.is_empty() {
                            queued_departures += 1;
                        }
                        svc.depart(now, id).unwrap();
                    }
                    2..=6 if !live.is_empty() => {
                        // Bursts, so that queues both build up and run dry.
                        let id = pick(&mut rng);
                        for _ in 0..rng.gen_below(4) {
                            svc.submit(now, id);
                        }
                    }
                    _ => {
                        let (expected, cursors, revisits) = svc.oracle_grants();
                        svc.dispatch(now);
                        let granted: Vec<TenantId> = svc
                            .grants
                            .iter()
                            .map(|&(slot, ..)| svc.slots[slot as usize].as_ref().unwrap().id)
                            .collect();
                        assert_eq!(granted, expected, "seed {seed} at {now:?}");
                        assert_eq!(svc.wrr_cursor, cursors, "seed {seed} at {now:?}");
                        quanta += !granted.is_empty() as u32;
                        drained_revisits += revisits;
                    }
                }
                svc.assert_ready_lists_current();
            }
        }
        assert!(quanta > 1_000, "{quanta} quanta granted something");
        assert!(drained_revisits > 100, "{drained_revisits} turns of a drained tenant");
        assert!(queued_departures > 20, "{queued_departures} departures with a queue");
    }

    #[test]
    fn class_patterns_shape_tenant_traffic() {
        let cfg = ServiceConfig {
            class_patterns: [
                AccessPattern::Zipfian(0.99),
                AccessPattern::Uniform,
                AccessPattern::Scan,
            ],
            ..quick_cfg()
        };
        let mut svc = MemoryService::new(cfg);
        let gold = svc.admit(SimTime::ZERO, QosClass::Gold, 64, 1_000.0).unwrap();
        let be = svc
            .admit(SimTime::ZERO, QosClass::BestEffort, 64, 1_000.0)
            .unwrap();
        assert_eq!(
            svc.tenant(gold).unwrap().workload.pattern(),
            AccessPattern::Zipfian(0.99)
        );
        assert_eq!(svc.tenant(be).unwrap().workload.pattern(), AccessPattern::Scan);
        // A pattern-mixed full run still balances its books.
        let report = MemoryService::new(cfg).run();
        assert!(report.total_ops > 0);
        assert_eq!(
            report.tenants_admitted,
            report.tenants_departed + report.tenants_live
        );
    }

    #[test]
    fn service_run_is_deterministic() {
        let a = MemoryService::new(quick_cfg()).run();
        let b = MemoryService::new(quick_cfg()).run();
        assert_eq!(a.tenants_admitted, b.tenants_admitted);
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.rejected_requests, b.rejected_requests);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.tenants.len(), b.tenants.len());
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.ops, y.ops);
            assert_eq!(x.p999_ns, y.p999_ns);
        }
    }

    #[test]
    fn churn_admits_and_departs_tenants() {
        let report = MemoryService::new(quick_cfg()).run();
        assert!(report.tenants_admitted > 5, "churn produced tenants");
        assert!(report.tenants_departed > 0, "lifetimes expired");
        assert_eq!(
            report.tenants_admitted,
            report.tenants_departed + report.tenants_live
        );
        assert!(report.total_ops > 0);
        assert_eq!(
            report.tenants.len() as u64,
            report.tenants_admitted,
            "every admitted tenant has an SLO record"
        );
    }

    #[test]
    fn qos_classes_separate_under_overload() {
        // 2x overload: Gold's demand fits inside its weighted share, so
        // its tail stays short while Silver backs up; BestEffort is
        // starved, bearing nearly all rejects. (Served-latency
        // percentiles of a *starved* class are survivor-biased, so the
        // BestEffort assertion is on its reject fraction, not its tail.)
        let cfg = quick_cfg().load_scaled(2.0);
        let report = MemoryService::new(cfg).run();
        let gold = report.classes[QosClass::Gold.index()];
        let silver = report.classes[QosClass::Silver.index()];
        let be = report.classes[QosClass::BestEffort.index()];
        assert!(gold.ops > 0 && silver.ops > 0 && be.ops > 0, "all served");
        assert!(
            gold.p99_ns < silver.p99_ns,
            "Gold p99 {} should undercut Silver p99 {}",
            gold.p99_ns,
            silver.p99_ns
        );
        let reject_frac = |c: ClassReport| c.rejected_requests as f64
            / (c.ops + c.rejected_requests).max(1) as f64;
        assert!(
            reject_frac(be) > 10.0 * reject_frac(gold),
            "BestEffort bears the rejects: {} vs {}",
            reject_frac(be),
            reject_frac(gold)
        );
    }

    #[test]
    fn departed_tenants_leave_no_tcam_entries() {
        let mut svc = MemoryService::new(quick_cfg());
        let id = svc
            .admit(SimTime::ZERO, QosClass::Gold, 128, 1_000.0)
            .unwrap();
        let pid = svc.tenant(id).unwrap().pid;
        assert!(svc.cluster().protection_entries_for(pid) > 0);
        svc.depart(SimTime::from_millis(1), id).unwrap();
        assert_eq!(svc.cluster().protection_entries_for(pid), 0);
        assert_eq!(svc.cluster().memory_utilization(), 0.0);
    }

    #[test]
    fn tenants_cannot_touch_each_others_domains() {
        let mut svc = MemoryService::new(quick_cfg());
        let a = svc
            .admit(SimTime::ZERO, QosClass::Gold, 64, 1_000.0)
            .unwrap();
        let b = svc
            .admit(SimTime::ZERO, QosClass::Silver, 64, 1_000.0)
            .unwrap();
        let (pid_a, base_a) = {
            let t = svc.tenant(a).unwrap();
            (t.pid, t.region_base)
        };
        let (pid_b, base_b) = {
            let t = svc.tenant(b).unwrap();
            (t.pid, t.region_base)
        };
        let now = SimTime::from_micros(10);
        assert!(svc
            .cluster_mut()
            .access_as(now, 0, pid_a, base_a, AccessKind::Write)
            .is_ok());
        assert!(svc
            .cluster_mut()
            .access_as(now, 0, pid_a, base_b, AccessKind::Read)
            .is_err());
        assert!(svc
            .cluster_mut()
            .access_as(now, 0, pid_b, base_a, AccessKind::Read)
            .is_err());
    }

    #[test]
    fn admission_rejects_under_memory_pressure() {
        let mut cfg = quick_cfg();
        // Tiny rack: 2 memory blades x 4 MB = 2048 pages total, so
        // 128-page tenants hit the BestEffort ceiling within a few dozen
        // admissions.
        cfg.rack.memory_blade_bytes = 1 << 22;
        let mut svc = MemoryService::new(cfg);
        let mut admitted = 0;
        let mut rejected = 0;
        for _ in 0..40 {
            match svc.admit(SimTime::ZERO, QosClass::BestEffort, 128, 100.0) {
                Ok(_) => admitted += 1,
                Err(AdmitError::MemoryPressure) => rejected += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(admitted > 0, "some fit");
        assert!(rejected > 0, "pressure eventually refuses BestEffort");
    }

    #[test]
    fn elastic_growth_tracks_offered_load() {
        let mut cfg = quick_cfg();
        cfg.blade_capacity_hz = 1_000.0; // Tiny per-blade capacity.
        let mut svc = MemoryService::new(cfg);
        let id = svc
            .admit(SimTime::ZERO, QosClass::Gold, 64, 50_000.0)
            .unwrap();
        assert_eq!(svc.blades(id).unwrap().len(), 1);
        // Simulate a busy epoch: many served ops, then rebalance.
        for _ in 0..200 {
            svc.submit(SimTime::from_micros(1), id);
        }
        for i in 0..100 {
            svc.dispatch(SimTime::from_micros(2 + i));
        }
        svc.rebalance();
        let grown = svc.blades(id).unwrap().len();
        assert!(grown > 1, "busy tenant grew to {grown} blades");
        // The controller's thread roster is the tenant's blade list, in
        // placement order: probe registrations are undone.
        let first = svc.blades(id).unwrap()[0];
        let n = cfg.rack.n_compute;
        let expected: Vec<u16> = (0..grown as u16).map(|i| (first + i) % n).collect();
        assert_eq!(svc.blades(id).unwrap(), expected);
        // An idle epoch shrinks it back.
        svc.rebalance();
        assert_eq!(svc.blades(id).unwrap(), [first], "shrink retired roster");
        assert_eq!(svc.tenant(id).unwrap().blades_peak, grown as u16);
    }

    #[test]
    fn queue_bound_rejects_excess_requests() {
        let mut cfg = quick_cfg();
        cfg.max_queue_depth = 4;
        let mut svc = MemoryService::new(cfg);
        let id = svc
            .admit(SimTime::ZERO, QosClass::Gold, 64, 1_000.0)
            .unwrap();
        let mut accepted = 0;
        for _ in 0..10 {
            if svc.submit(SimTime::from_micros(1), id) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4);
        assert_eq!(svc.tenant(id).unwrap().rejected, 6);
    }
}
