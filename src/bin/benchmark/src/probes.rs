//! Host probes: one layer's public function, timed in isolation over the
//! workload's captured stream (see `stream.rs`).
//!
//! Every probe builds its structure untimed, then times whole passes over
//! the stream and reports the median pass divided by its calls, so a clock
//! read costs nothing per call. Probes run in the traced run only.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mind::blade::cache::{CacheLookup, DramCache, InvalidationOutcome};
use mind::core::addr::Vma;
use mind::core::cluster::MindCluster;
use mind::core::directory::RegionDirectory;
use mind::core::protect::{PermClass, ProtectionTable};
use mind::core::split::BoundedSplitting;
use mind::core::system::{MemorySystem, OpBatch};
use mind::core::translate::TranslationTable;
use mind::net::node::BladeSet;
use mind::net::{Fabric, NodeId, Packet, PacketKind};
use mind::service::{MemoryService, QosClass, TenantId};
use mind::sim::hash::FastSet;
use mind::sim::rng::Zipfian;
use mind::sim::stats::Histogram;
use mind::sim::{EventQueue, SimRng, SimTime};
use mind::switch::tcam::{Tcam, TcamEntry};

use crate::spans::Spans;
use crate::stream::{Live, Segment};
use crate::workloads::{Shape, Workload};

const PAGE: u64 = 4096;
const THINK: SimTime = SimTime::from_nanos(100);
/// Timed passes per probe; the median is reported.
const PASSES: usize = 3;

pub struct Ctx<'a> {
    w: &'a Workload,
    seed: u64,
    segments: &'a [Segment],
    /// Every segment bound to a rack once, for the probes that only read its
    /// addresses and grants. A probe that runs a rack builds its own.
    bound: Vec<Live>,
    /// Match-action rules the workload's rack held when its run ended: the
    /// population the TCAM probes are taken at.
    rules: usize,
}

impl<'a> Ctx<'a> {
    pub fn new(w: &'a Workload, seed: u64, segments: &'a [Segment], rules: usize) -> Self {
        Ctx {
            w,
            seed,
            segments,
            bound: segments.iter().map(Segment::instantiate).collect(),
            rules,
        }
    }
}

/// Median over `PASSES` of one pass's nanoseconds per call. `pass` does its
/// own untimed preparation and returns `(calls, timed wall)`.
fn per_call_ns(mut pass: impl FnMut(usize) -> (usize, Duration)) -> f64 {
    let mut samples: Vec<f64> = (0..PASSES)
        .map(|i| {
            let (calls, wall) = pass(i);
            wall.as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Nanoseconds per call of a probe that visits every segment: `timed` is
/// given a segment and its bound stream and returns `(calls, timed wall)`.
fn per_call_over_segments(
    ctx: &Ctx,
    mut timed: impl FnMut(&Segment, &Live) -> (usize, Duration),
) -> f64 {
    per_call_ns(|_| {
        ctx.segments
            .iter()
            .zip(&ctx.bound)
            .map(|(segment, bound)| timed(segment, bound))
            .fold((0, Duration::ZERO), |(calls, wall), (c, w)| {
                (calls + c, wall + w)
            })
    })
}

/// In-flight window the workload replays its batches with.
fn window(w: &Workload) -> u32 {
    match w.shape {
        Shape::Micro(m) => m.run_config(mind::obs::TraceMode::Off).window,
        _ => 1,
    }
}

fn execute_batch_ns(ctx: &Ctx) -> f64 {
    per_call_over_segments(ctx, |segment, _| {
        let mut live = segment.instantiate();
        let mut batch = OpBatch::chained(THINK).with_window(window(ctx.w));
        let mut now = SimTime::ZERO;
        let start = Instant::now();
        for turn in live.ops.chunks(segment.burst) {
            batch.clear();
            for op in turn {
                batch.push(*op);
            }
            live.cluster.execute_batch(now, &mut batch);
            now = (0..batch.len())
                .map(|i| batch.completion(i))
                .max()
                .expect("turns are non-empty")
                + THINK;
        }
        let wall = start.elapsed();
        assert!(
            batch.results().iter().all(Result::is_ok),
            "a probe access was refused"
        );
        (live.ops.len(), wall)
    })
}

fn access_ns(ctx: &Ctx) -> f64 {
    per_call_over_segments(ctx, |segment, _| {
        let mut live = segment.instantiate();
        let mut now = SimTime::ZERO;
        let start = Instant::now();
        for op in &live.ops {
            let outcome = match op.pdid {
                Some(pid) => live
                    .cluster
                    .access_as(now, op.blade, pid, op.vaddr, op.kind)
                    .expect("a probe access was refused"),
                None => live.cluster.access(now, op.blade, op.vaddr, op.kind),
            };
            now = now + outcome.latency.total() + THINK;
        }
        (live.ops.len(), start.elapsed())
    })
}

fn cluster_new_us(ctx: &Ctx) -> f64 {
    per_call_ns(|_| {
        let start = Instant::now();
        // Kept alive so that dropping a rack is not timed as building one.
        let built: Vec<MindCluster> = ctx
            .segments
            .iter()
            .map(|s| MindCluster::new(s.cfg))
            .collect();
        let wall = start.elapsed();
        (built.len(), wall)
    }) / 1e3
}

/// Admits tenants (`exec` + `mmap` + `place_thread`) onto the workload's
/// first rack, then exits them all. Returns microseconds per admission and
/// per exit.
fn tenant_admit_exit_us(ctx: &Ctx) -> (f64, f64) {
    const TENANTS: usize = 512;
    let segment = &ctx.segments[0];
    let len = if segment.per_tenant {
        segment.ranges[0]
    } else {
        segment.ranges[0].min(1 << 20)
    };
    let mut cluster = MindCluster::new(segment.cfg);
    let mut pids = Vec::with_capacity(TENANTS);
    let start = Instant::now();
    for _ in 0..TENANTS {
        let pid = cluster.exec().expect("exec");
        // A rack too small for this many domains stops the probe early.
        if cluster.mmap(pid, len).is_err() {
            break;
        }
        cluster.place_thread(pid).expect("fresh pid");
        pids.push(pid);
    }
    let admit = start.elapsed();
    let start = Instant::now();
    for &pid in &pids {
        cluster
            .exit(SimTime::from_micros(1), pid)
            .expect("admitted pid");
    }
    let exit = start.elapsed();
    let n = pids.len().max(1) as f64;
    (
        admit.as_nanos() as f64 / 1e3 / n,
        exit.as_nanos() as f64 / 1e3 / n,
    )
}

fn protect_check_ns(ctx: &Ctx) -> f64 {
    per_call_over_segments(ctx, |segment, bound| {
        let mut table = ProtectionTable::new(segment.cfg.rule_capacity);
        for &(pdid, base, len) in &bound.grants {
            table
                .grant(pdid, Vma::new(base, len), PermClass::ReadWrite)
                .expect("the rack held these grants");
        }
        let start = Instant::now();
        let mut allowed = 0usize;
        for op in &bound.ops {
            allowed += table.check(op.pdid.unwrap_or(1), op.vaddr, op.kind) as usize;
        }
        let wall = start.elapsed();
        assert_eq!(allowed, bound.ops.len(), "a granted access was denied");
        (bound.ops.len(), wall)
    })
}

fn translate_ns(ctx: &Ctx) -> f64 {
    per_call_over_segments(ctx, |segment, bound| {
        let cfg = segment.cfg;
        let mut table = TranslationTable::new(cfg.n_memory, cfg.blade_span, cfg.rule_capacity);
        let start = Instant::now();
        for op in &bound.ops {
            black_box(table.translate(op.vaddr));
        }
        (bound.ops.len(), start.elapsed())
    })
}

fn directory_for(segment: &Segment) -> RegionDirectory {
    RegionDirectory::new(
        segment.cfg.dir_capacity,
        segment.cfg.split.initial_region_log2,
    )
}

fn directory_ensure_ns(ctx: &Ctx) -> f64 {
    per_call_over_segments(ctx, |segment, bound| {
        let mut dir = directory_for(segment);
        let start = Instant::now();
        for op in &bound.ops {
            let _ = black_box(dir.ensure_region(op.vaddr & !(PAGE - 1)));
        }
        (bound.ops.len(), start.elapsed())
    })
}

/// One bounded-splitting epoch over a directory holding the stream's
/// regions, every write counted as an invalidation of its region.
fn split_epoch_us(ctx: &Ctx) -> f64 {
    let (segment, live) = (&ctx.segments[0], &ctx.bound[0]);
    let mut dir = directory_for(segment);
    for op in &live.ops {
        let _ = dir.ensure_region(op.vaddr & !(PAGE - 1));
    }
    let mut splitter = BoundedSplitting::new(segment.cfg.split);
    per_call_ns(|pass| {
        for (i, op) in live.ops.iter().enumerate() {
            if op.kind.is_write() {
                if let Some((base, _)) = dir.region_of(op.vaddr) {
                    dir.record_invalidation(base, (i % 4 == 0) as u32);
                }
            }
        }
        let at = segment.cfg.split.epoch_len.scale((pass + 1) as f64);
        let start = Instant::now();
        black_box(splitter.run_epoch(at, &mut dir));
        (1, start.elapsed())
    }) / 1e3
}

/// A TCAM holding the workload's rule population, one 64 KB entry per
/// domain as the protection table installs them.
fn populated_tcam(rules: usize) -> Tcam<u32> {
    let mut tcam = Tcam::new(rules + 1);
    for i in 0..rules as u64 {
        tcam.insert(TcamEntry::new(i + 1, i << 16, 16), i as u32)
            .expect("sized to fit");
    }
    tcam
}

fn tcam_lookup_ns(ctx: &Ctx) -> f64 {
    let rules = ctx.rules.max(1);
    let mut tcam = populated_tcam(rules);
    let ops = &ctx.segments[0].ops;
    per_call_ns(|_| {
        let mut found = 0usize;
        let start = Instant::now();
        for (j, op) in ops.iter().enumerate() {
            let i = (j.wrapping_mul(0x9E37_79B1) % rules) as u64;
            found += tcam
                .lookup(i + 1, (i << 16) | (op.offset & 0xffff))
                .is_some() as usize;
        }
        let wall = start.elapsed();
        assert_eq!(found, ops.len());
        (ops.len(), wall)
    })
}

fn tcam_insert_remove_ns(ctx: &Ctx) -> f64 {
    let rules = ctx.rules.max(1) as u64;
    let mut tcam = populated_tcam(rules as usize);
    let n = ctx.segments[0].ops.len() as u64;
    per_call_ns(|_| {
        let start = Instant::now();
        for j in 0..n {
            let entry = TcamEntry::new(rules + 1 + j, (rules + j) << 16, 16);
            tcam.insert(entry, 0).expect("one free entry");
            black_box(tcam.remove(&entry));
        }
        (n as usize, start.elapsed())
    })
}

fn cache_hit_ns(ctx: &Ctx) -> f64 {
    per_call_over_segments(ctx, |segment, bound| {
        let mut cache = DramCache::new(segment.cfg.cache_pages);
        let mut resident: FastSet<u64> = FastSet::default();
        for op in &bound.ops {
            let page = op.vaddr & !(PAGE - 1);
            if resident.len() < segment.cfg.cache_pages as usize && resident.insert(page) {
                cache.insert(page, true, None);
            }
        }
        let hits: Vec<(u64, bool)> = bound
            .ops
            .iter()
            .map(|op| (op.vaddr & !(PAGE - 1), op.kind.is_write()))
            .filter(|(page, _)| resident.contains(page))
            .collect();
        let start = Instant::now();
        let mut hit = 0usize;
        for &(page, write) in &hits {
            hit += (cache.access(page, write) == CacheLookup::Hit) as usize;
        }
        let wall = start.elapsed();
        assert_eq!(hit, hits.len());
        (hits.len(), wall)
    })
}

/// A miss followed by the insert that resolves it, on a full cache (every
/// insert evicts the least recently used page).
fn cache_miss_insert_ns(ctx: &Ctx) -> f64 {
    let segment = &ctx.segments[0];
    let capacity = segment.cfg.cache_pages.min(4096);
    let mut cache = DramCache::new(capacity);
    let mut next_page = 1u64 << 40;
    for _ in 0..capacity {
        cache.insert(next_page, false, None);
        next_page += PAGE;
    }
    per_call_ns(|_| {
        let start = Instant::now();
        for op in &segment.ops {
            let write = op.kind.is_write();
            if cache.access(next_page, write) == CacheLookup::Miss {
                black_box(cache.insert(next_page, write, None));
            }
            next_page += PAGE;
        }
        (segment.ops.len(), start.elapsed())
    })
}

/// Invalidating one 16 KB region of four resident pages, dirty where the
/// stream writes.
fn cache_invalidate_region_ns(ctx: &Ctx) -> f64 {
    const REGIONS: u64 = 1024;
    const REGION_LOG2: u8 = 14;
    let ops = &ctx.segments[0].ops;
    let mut cache = DramCache::new((REGIONS * 4) as u32);
    let mut out = InvalidationOutcome::default();
    per_call_ns(|_| {
        for i in 0..REGIONS * 4 {
            cache.insert(i * PAGE, ops[i as usize % ops.len()].kind.is_write(), None);
        }
        let start = Instant::now();
        for r in 0..REGIONS {
            cache.invalidate_region_into(r << REGION_LOG2, REGION_LOG2, false, &mut out);
        }
        let wall = start.elapsed();
        assert_eq!(cache.resident_pages(), 0);
        (REGIONS as usize, wall)
    })
}

/// A page fetch's two transfers: request up to the memory blade, page back.
fn fabric_send_ns(ctx: &Ctx) -> f64 {
    let (cfg, live) = (ctx.segments[0].cfg, &ctx.bound[0]);
    let mut fabric = Fabric::new(cfg.n_compute, cfg.n_memory, cfg.latency);
    per_call_ns(|_| {
        let mut now = SimTime::ZERO;
        let start = Instant::now();
        for op in &live.ops {
            let compute = NodeId::Compute(op.blade);
            let memory = NodeId::Memory(((op.vaddr / cfg.blade_span) % cfg.n_memory as u64) as u16);
            let vaddr = op.vaddr;
            let sent = fabric.send(
                now,
                &Packet::new(
                    compute,
                    memory,
                    PacketKind::RdmaReadReq { vaddr, len: 4096 },
                ),
            );
            now = fabric.send(
                sent,
                &Packet::new(
                    memory,
                    compute,
                    PacketKind::RdmaReadResp { vaddr, len: 4096 },
                ),
            );
        }
        (live.ops.len() * 2, start.elapsed())
    })
}

/// An invalidation multicast to every compute blade but the requester.
fn fabric_multicast_ns(ctx: &Ctx) -> f64 {
    let (cfg, live) = (ctx.segments[0].cfg, &ctx.bound[0]);
    let mut fabric = Fabric::new(cfg.n_compute, cfg.n_memory, cfg.latency);
    let mut deliveries = Vec::new();
    let invalidate_bytes = PacketKind::Invalidate {
        region_base: 0,
        region_size_log2: 14,
        sharers: BladeSet::new(),
        downgrade_to_shared: false,
    }
    .wire_bytes();
    per_call_ns(|_| {
        let mut now = SimTime::ZERO;
        let start = Instant::now();
        for op in &live.ops {
            let mut sharers = fabric.all_compute_group().members();
            sharers.remove(op.blade);
            fabric.multicast_from_switch_into(now, sharers, invalidate_bytes, &mut deliveries);
            now += SimTime::from_micros(1);
        }
        (live.ops.len(), start.elapsed())
    })
}

/// A pop and the schedule that follows it, at a queue depth of one event
/// per simulated thread (the runner's and the service's steady state).
fn event_queue_ns(ctx: &Ctx) -> f64 {
    let ops = &ctx.segments[0].ops;
    let threads = ops.iter().map(|op| op.thread).max().unwrap_or(0) + 1;
    per_call_ns(|_| {
        let mut queue: EventQueue<u16> = EventQueue::new();
        for t in 0..threads {
            queue.schedule(SimTime::from_nanos(t as u64), t);
        }
        let start = Instant::now();
        for op in ops {
            let ev = queue.pop().expect("one event per thread");
            queue.schedule(
                ev.at + SimTime::from_nanos(100 + (op.offset & 0xfff)),
                ev.event,
            );
        }
        (ops.len(), start.elapsed())
    })
}

fn histogram_record_ns(ctx: &Ctx) -> f64 {
    let ops = &ctx.segments[0].ops;
    per_call_ns(|_| {
        let mut histogram = Histogram::new();
        let start = Instant::now();
        for op in ops {
            // Local-hit to fault-sized latencies, spread by the stream.
            histogram.record(100 + ((op.offset >> 3) & 0x3fff));
        }
        let wall = start.elapsed();
        black_box(histogram.quantile(0.99));
        (ops.len(), wall)
    })
}

fn rng_zipf_ns(ctx: &Ctx) -> f64 {
    let pages = (ctx.segments[0].ranges.iter().sum::<u64>() / PAGE).max(2);
    let zipf = Zipfian::new(pages, 0.99);
    let n = ctx.segments[0].ops.len();
    per_call_ns(|pass| {
        let mut rng = SimRng::new(ctx.seed + pass as u64);
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..n {
            sum = sum.wrapping_add(zipf.sample(&mut rng));
        }
        black_box(sum);
        (n, start.elapsed())
    })
}

/// The service's control and request paths on its own rack: admissions,
/// then quanta of `submit` + `dispatch` at the configured slots per
/// quantum. Returns `(admit_us, submit_dispatch_ns)`.
fn service_paths(ctx: &Ctx) -> (f64, f64) {
    const TENANTS: usize = 64;
    let Some(cfg) = ctx.w.service_config(ctx.seed, mind::obs::TraceMode::Off) else {
        return (0.0, 0.0);
    };
    let mut service = MemoryService::new(cfg);
    let mut rng = SimRng::new(ctx.seed);
    let mut tenants: Vec<TenantId> = Vec::with_capacity(TENANTS);
    let start = Instant::now();
    for i in 0..TENANTS {
        let pages = rng.gen_range(cfg.min_pages, cfg.max_pages + 1);
        if let Ok(id) = service.admit(SimTime::ZERO, QosClass::ALL[i % 3], pages, cfg.max_rate_hz) {
            tenants.push(id);
        }
    }
    let admit_us = start.elapsed().as_nanos() as f64 / 1e3 / TENANTS as f64;
    if tenants.is_empty() {
        return (admit_us, 0.0);
    }

    let slots = cfg.slots_per_quantum as usize;
    let quanta = ctx.segments[0].ops.len() / slots;
    let mut now = cfg.dispatch_quantum;
    let mut cursor = 0usize;
    let ns = per_call_ns(|_| {
        let start = Instant::now();
        for _ in 0..quanta {
            for _ in 0..slots {
                black_box(service.submit(now, tenants[cursor % tenants.len()]));
                cursor += 1;
            }
            service.dispatch(now);
            now += cfg.dispatch_quantum;
        }
        (quanta * slots, start.elapsed())
    });
    (admit_us, ns)
}

/// Runs every stream probe, one `probe.<metric>` span each.
pub fn run_all(ctx: &Ctx, spans: &mut Spans) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut probe = |name: &'static str, f: &mut dyn FnMut() -> f64| {
        let value = spans.scope(&format!("probe.{name}"), |_| f());
        out.push((name, value));
    };
    probe("core.cluster_new_us", &mut || cluster_new_us(ctx));
    let mut exit_us = 0.0;
    probe("core.tenant_admit_us", &mut || {
        let (admit, exit) = tenant_admit_exit_us(ctx);
        exit_us = exit;
        admit
    });
    probe("core.tenant_exit_us", &mut || exit_us);
    probe("core.execute_batch_ns", &mut || execute_batch_ns(ctx));
    probe("core.access_ns", &mut || access_ns(ctx));
    probe("core.protect_check_ns", &mut || protect_check_ns(ctx));
    probe("core.translate_ns", &mut || translate_ns(ctx));
    probe("core.directory_ensure_ns", &mut || directory_ensure_ns(ctx));
    probe("core.split_epoch_us", &mut || split_epoch_us(ctx));
    probe("switch.tcam_lookup_ns", &mut || tcam_lookup_ns(ctx));
    probe("switch.tcam_insert_remove_ns", &mut || {
        tcam_insert_remove_ns(ctx)
    });
    probe("blade.cache_hit_ns", &mut || cache_hit_ns(ctx));
    probe("blade.cache_miss_insert_ns", &mut || {
        cache_miss_insert_ns(ctx)
    });
    probe("blade.cache_invalidate_region_ns", &mut || {
        cache_invalidate_region_ns(ctx)
    });
    probe("net.fabric_send_ns", &mut || fabric_send_ns(ctx));
    probe("net.fabric_multicast_ns", &mut || fabric_multicast_ns(ctx));
    probe("sim.event_queue_ns", &mut || event_queue_ns(ctx));
    probe("sim.histogram_record_ns", &mut || histogram_record_ns(ctx));
    probe("sim.rng_zipf_ns", &mut || rng_zipf_ns(ctx));
    let mut dispatch_ns = 0.0;
    probe("service.admit_us", &mut || {
        let (admit, dispatch) = service_paths(ctx);
        dispatch_ns = dispatch;
        admit
    });
    probe("service.submit_dispatch_ns", &mut || dispatch_ns);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::capture;
    use crate::workloads::NAMES;

    #[test]
    fn every_probe_returns_a_finite_time_on_every_workload() {
        for name in NAMES {
            let w = Workload::tiny(name).unwrap();
            let (segments, _) = capture(&w, 1, 2_048);
            let ctx = Ctx::new(&w, 1, &segments, 64);
            let mut spans = Spans::enabled();
            let values = run_all(&ctx, &mut spans);
            for (metric, value) in &values {
                assert!(
                    value.is_finite() && *value >= 0.0,
                    "{name} {metric} = {value}"
                );
                let applies = !metric.starts_with("service.") || name == "service_churn";
                assert_eq!(*value > 0.0, applies, "{name} {metric} = {value}");
            }
        }
    }
}
