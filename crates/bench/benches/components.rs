//! Criterion micro-benchmarks for MIND's building blocks.
//!
//! These measure the *simulator's* cost per modelled operation (host
//! nanoseconds, not simulated time) — they are the budget that determines
//! how large a rack/workload the harness can replay, and they catch
//! algorithmic regressions in the hot structures (TCAM LPM, directory
//! region lookup, bounded-splitting epochs, first-fit allocation, LRU
//! cache maintenance).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::collections::VecDeque;
use std::hint::black_box;

use mind_blade::{DramCache, InvalidationOutcome, MemoryBlade, PageData, PageTable};
use mind_core::cluster::{MindCluster, MindConfig};
use mind_core::directory::{MsiState, RegionDirectory};
use mind_core::galloc::GlobalAllocator;
use mind_core::split::{BoundedSplitting, SplitConfig};
use mind_core::stt::{Protocol, Role, SttTable};
use mind_core::window::InFlightWindow;
use mind_core::AccessKind;
use mind_service::{MemoryService, QosClass, ServiceConfig};
use mind_sim::rng::Zipfian;
use mind_sim::{EventQueue, SimRng, SimTime};
use mind_switch::tcam::{Tcam, TcamEntry};

fn bench_tcam(c: &mut Criterion) {
    let mut group = c.benchmark_group("tcam");
    // A realistically loaded protection TCAM: 2k entries over many domains.
    let mut tcam: Tcam<u32> = Tcam::new(45_000);
    let mut rng = SimRng::new(1);
    for i in 0..2_000u64 {
        let base = (rng.gen_below(1 << 30) >> 14) << 14;
        let _ = tcam.insert(TcamEntry::new(i % 64, base, 14), i as u32);
    }
    group.bench_function("lpm_lookup", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9E37_79B9);
            black_box(tcam.lookup(i % 64, i % (1 << 30)).map(|(e, &v)| (e, v)))
        })
    });
    group.bench_function("insert_remove", |b| {
        b.iter(|| {
            let e = TcamEntry::new(99, 0x4000_0000, 14);
            tcam.insert(e, 7).unwrap();
            tcam.remove(&e)
        })
    });
    // LPM cost against the rule population: the empty outlier TCAM every
    // translation consults, a rack's handful of rules, a loaded table.
    // One size class per population, so the cost is the probe count.
    for rules in [0u64, 13, 8_192] {
        let mut tcam: Tcam<u32> = Tcam::new(rules as usize + 1);
        for i in 0..rules {
            tcam.insert(TcamEntry::new(0, i << 16, 16), i as u32)
                .unwrap();
        }
        group.bench_function(&format!("lookup_{rules}_rules"), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(0x9E37_79B9);
                black_box(tcam.lookup(0, i % (1 << 30)).map(|(e, &v)| (e, v)))
            })
        });
    }
    group.finish();
}

fn bench_directory(c: &mut Criterion) {
    let mut group = c.benchmark_group("directory");
    group.bench_function("ensure_region_hot", |b| {
        let mut dir = RegionDirectory::new(30_000, 14);
        for i in 0..10_000u64 {
            dir.ensure_region(i << 14).unwrap();
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 10_000;
            black_box(dir.ensure_region(i << 14))
        })
    });
    // A directory pinned at capacity, regions spread over sizes 2^14..2^19
    // as pressure-coarsened creation leaves them. `lookup` is the
    // containing-region resolution every fault and every gated offer pays;
    // `ensure_forced_merge` is a miss that must force-merge the coldest
    // buddy pair to make room.
    let at_capacity = || {
        let mut dir = RegionDirectory::new(3_000, 14);
        let mut rng = SimRng::new(5);
        let mut pages = Vec::new();
        while dir.entries() < dir.capacity() {
            let page = rng.gen_below(1 << 18) << 12;
            dir.ensure_region(page).unwrap();
            pages.push(page);
        }
        (dir, pages)
    };
    group.bench_function("lookup_at_capacity", |b| {
        let (mut dir, pages) = at_capacity();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7) % pages.len();
            black_box(dir.lookup(pages[i]))
        })
    });
    // A page's first resolution, 1 000 a sample: the stride walks the
    // whole list before a page comes round again, so the 32-entry memo
    // never answers and every lookup probes the populated size classes.
    group.bench_function("lookup_first_touch_at_capacity", |b| {
        let (mut dir, pages) = at_capacity();
        let mut i = 0usize;
        b.iter(|| {
            let mut found = 0usize;
            for _ in 0..1_000 {
                i = (i + 7) % pages.len();
                found += dir.lookup(pages[i]).is_some() as usize;
            }
            black_box(found)
        })
    });
    group.bench_function("ensure_forced_merge", |b| {
        let (mut dir, _) = at_capacity();
        // Every region is idle, so the coldest pair is the lowest one.
        let (left, _) = dir.mergeable_pairs().min().expect("idle buddy pairs");
        b.iter(|| {
            let (fresh, _) = dir.ensure_region(1 << 40).expect("the coldest pair merges");
            // Undo: drop the new region and split the merged pair again.
            dir.remove(fresh);
            black_box(dir.split(left))
        })
    });
    group.bench_function("split_merge_cycle", |b| {
        let mut dir = RegionDirectory::new(30_000, 14);
        dir.ensure_region(0).unwrap();
        b.iter(|| {
            let (l, _r) = dir.split(0).unwrap();
            dir.merge(l).unwrap()
        })
    });
    group.finish();
}

fn bench_bounded_splitting(c: &mut Criterion) {
    c.bench_function("bounded_splitting/epoch_10k_regions", |b| {
        b.iter_batched(
            || {
                let mut dir = RegionDirectory::new(30_000, 14);
                let mut rng = SimRng::new(3);
                for i in 0..10_000u64 {
                    dir.ensure_region(i << 14).unwrap();
                }
                for i in 0..10_000u64 {
                    dir.record_invalidation(i << 14, rng.gen_below(20) as u32);
                }
                (BoundedSplitting::new(SplitConfig::default()), dir)
            },
            |(mut bs, mut dir)| bs.run_epoch(SimTime::from_millis(100), &mut dir),
            BatchSize::SmallInput,
        )
    });
}

/// One epoch on a directory split down to capacity, so that every region
/// has its buddy and nothing more may split. Every region is held Modified:
/// `idle` with a different owner in each half of every buddy pair, so the
/// merge pass walks the pairs and coalesces none; `churning` with one owner
/// per other pair, those pairs invalidated before every epoch, so the pass
/// also drains, sorts and searches the activity list and still coalesces
/// none. Both are steady states.
fn bench_epoch_at_capacity(c: &mut Criterion) {
    let mut group = c.benchmark_group("split");
    let held = |mergeable_every_other: bool| {
        let mut dir = RegionDirectory::new(3_000, 20);
        let mut whole: VecDeque<u64> = (0..12u64)
            .map(|i| dir.ensure_region(i << 20).unwrap().0)
            .collect();
        while dir.entries() < dir.capacity() {
            let (left, right) = dir.split(whole.pop_front().unwrap()).unwrap();
            whole.extend([left, right]);
        }
        for base in dir.bases_sorted() {
            let e = dir.entry_mut(base).unwrap();
            let (half, pair) = (base >> e.size_log2 & 1, base >> (e.size_log2 + 1) & 1);
            let same_owner = mergeable_every_other && pair == 0;
            e.state = MsiState::Modified;
            e.sharers.clear();
            e.sharers.insert(if same_owner { 0 } else { half as u16 });
        }
        (BoundedSplitting::new(SplitConfig::default()), dir)
    };
    group.bench_function("run_epoch_at_capacity_idle", |b| {
        let (mut bs, mut dir) = held(false);
        assert_eq!(dir.mergeable_pairs().count(), 0);
        b.iter(|| bs.run_epoch(SimTime::from_millis(100), &mut dir))
    });
    group.bench_function("run_epoch_at_capacity_churning", |b| {
        let (mut bs, mut dir) = held(true);
        let active: Vec<u64> = dir.mergeable_pairs().map(|(left, _)| left).collect();
        assert!(active.len() > 500, "{} mergeable pairs", active.len());
        b.iter(|| {
            for (i, &left) in active.iter().enumerate() {
                dir.record_invalidation(left, (i % 4 == 0) as u32);
            }
            let report = bs.run_epoch(SimTime::from_millis(100), &mut dir);
            assert_eq!(report.merges + report.splits, 0);
            report
        })
    });
    group.finish();
}

fn bench_stt(c: &mut Criterion) {
    c.bench_function("stt/lookup", |b| {
        let stt = SttTable::new(Protocol::Moesi);
        let faults = [
            (MsiState::Invalid, AccessKind::Read, Role::Other),
            (MsiState::Shared, AccessKind::Write, Role::Sharer),
            (MsiState::Modified, AccessKind::Read, Role::Other),
            (MsiState::Owned, AccessKind::Write, Role::Owner),
        ];
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % faults.len();
            let (state, kind, role) = faults[i];
            black_box(stt.lookup(state, kind, role))
        })
    });
}

/// The blade page table at the size of `remote_faults`' blade cache, every
/// fourth page of its span mapped.
fn bench_pagetable(c: &mut Criterion) {
    const FRAMES: u64 = 12_000;
    let mut group = c.benchmark_group("pagetable");
    let populated = |mapped: u64| {
        let mut pt = PageTable::new(FRAMES as u32);
        for i in 0..mapped {
            pt.map((4 * i) << 12, i % 2 == 0).unwrap();
        }
        pt
    };
    group.bench_function("lookup_hit", |b| {
        let pt = populated(FRAMES);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 127) % FRAMES;
            black_box(pt.lookup((4 * i) << 12))
        })
    });
    group.bench_function("lookup_miss", |b| {
        let pt = populated(FRAMES);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 127) % FRAMES;
            black_box(pt.lookup((4 * i + 1) << 12))
        })
    });
    group.bench_function("map_unmap", |b| {
        let mut pt = populated(FRAMES - 1);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 127) % FRAMES;
            let page = (4 * i + 2) << 12;
            pt.map(page, true).unwrap();
            black_box(pt.unmap(page))
        })
    });
    group.finish();
}

fn bench_allocator(c: &mut Criterion) {
    c.bench_function("galloc/alloc_dealloc_1MB", |b| {
        let mut galloc = GlobalAllocator::new(8, 1 << 34);
        b.iter(|| {
            let vma = galloc.alloc(1 << 20).unwrap();
            galloc.dealloc(vma.base)
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("dram_cache");
    group.bench_function("hit", |b| {
        let mut cache = DramCache::new(1 << 17);
        for i in 0..(1 << 17) as u64 {
            cache.insert(i << 12, false, None);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 127) % (1 << 17);
            black_box(cache.access(i << 12, false))
        })
    });
    group.bench_function("miss_insert_evict", |b| {
        let mut cache = DramCache::new(1 << 10);
        let mut page = 0u64;
        b.iter(|| {
            page += 1 << 12;
            cache.access(page, true);
            black_box(cache.insert(page, true, None))
        })
    });
    // Region invalidation by region size, on a blade cache whose other
    // 1 000 resident pages lie outside the region: the walk is over the
    // region's pages, a quarter of them resident.
    for pages in [1u64, 4, 128] {
        let size_log2 = 12 + pages.trailing_zeros() as u8;
        group.bench_function(&format!("invalidate_region_{pages}_pages"), |b| {
            let mut cache = DramCache::new(1 << 11);
            for i in 0..1_000u64 {
                cache.insert((1 << 30) + (i << 12), false, None);
            }
            let mut out = InvalidationOutcome::default();
            b.iter(|| {
                for i in (0..pages).step_by(4) {
                    cache.insert(i << 12, true, None);
                }
                cache.invalidate_region_into(0, size_log2, false, &mut out);
                black_box(out.unmapped)
            })
        });
    }
    // A wide region of which the blade holds three pages, as a merged
    // region looks to a blade that touched little of it.
    for pages in [128u64, 512] {
        let size_log2 = 12 + pages.trailing_zeros() as u8;
        let name = format!("invalidate_region_sparse_{pages}_pages");
        group.bench_function(&name, |b| {
            let mut cache = DramCache::new(1 << 11);
            for i in 0..1_000u64 {
                cache.insert((1 << 30) + (i << 12), false, None);
            }
            let mut out = InvalidationOutcome::default();
            b.iter(|| {
                for i in [1, pages / 2, pages - 2] {
                    cache.insert(i << 12, true, None);
                }
                cache.invalidate_region_into(0, size_log2, false, &mut out);
                black_box(out.unmapped)
            })
        });
    }
    // The same walk in data-carrying mode with every resident page dirty:
    // each flushed page hands its contents to the write-back.
    for pages in [1u64, 128] {
        let size_log2 = 12 + pages.trailing_zeros() as u8;
        let name = format!("invalidate_region_dirty_carrying_{pages}_pages");
        group.bench_function(&name, |b| {
            let mut cache = DramCache::new(1 << 11);
            let mut out = InvalidationOutcome::default();
            b.iter(|| {
                for i in 0..pages {
                    cache.insert(i << 12, true, Some(PageData::zeroed()));
                }
                cache.invalidate_region_into(0, size_log2, false, &mut out);
                black_box(out.flushed.len())
            })
        });
    }
    group.finish();
}

/// A one-sided read of a page nobody wrote, and of one among 64 k written.
fn bench_memory_blade(c: &mut Criterion) {
    let mut group = c.benchmark_group("membld");
    group.bench_function("read_page_fresh", |b| {
        let mut blade = MemoryBlade::new(1 << 34);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 127) % (1 << 16);
            black_box(blade.read_page(i))
        })
    });
    group.bench_function("read_page_populated", |b| {
        let mut blade = MemoryBlade::new(1 << 34);
        for i in 0..(1u64 << 16) {
            let stamp = i.to_le_bytes();
            blade.write_page(i, PageData::from_bytes(&stamp)).unwrap();
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 127) % (1 << 16);
            black_box(blade.read_page(i))
        })
    });
    group.finish();
}

/// One dispatch quantum (four slots) by how many tenants are live; half of
/// them submit a request before each quantum, so queues neither empty nor
/// fill.
fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("service");
    for tenants in [4u64, 32, 256] {
        group.bench_function(&format!("dispatch_quantum_{tenants}_tenants"), |b| {
            let mut cfg = ServiceConfig::default();
            cfg.rack.cache_pages = 1 << 14;
            let mut svc = MemoryService::new(cfg);
            let ids: Vec<_> = (0..tenants)
                .map(|i| {
                    let qos = QosClass::ALL[(i % 3) as usize];
                    svc.admit(SimTime::ZERO, qos, 16, 1_000.0).unwrap()
                })
                .collect();
            let mut now = SimTime::ZERO;
            let mut turn = 0usize;
            b.iter(|| {
                now += cfg.dispatch_quantum;
                for _ in 0..2 {
                    turn = (turn + 7) % ids.len();
                    svc.submit(now, ids[turn]);
                }
                svc.dispatch(now)
            })
        });
    }
    group.finish();
}

/// The event core's two kinds of traffic, 1 000 operations a sample: pop
/// the earliest and schedule the same source again (the runner, the
/// cluster engine and the service, at 8, 40 and 4 096 pending events), and
/// pop after pop until the queue is empty (the shard driver's pre-seeded
/// threads, which are never rescheduled).
fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for pending in [8u32, 40, 4_096] {
        group.bench_function(&format!("pop_reschedule_{pending}"), |b| {
            let mut rng = SimRng::new(7);
            let mut queue: EventQueue<u32> = EventQueue::new();
            for source in 0..pending {
                queue.schedule(SimTime::from_nanos(rng.gen_below(4_096)), source);
            }
            b.iter(|| {
                for _ in 0..1_000 {
                    let ev = queue.pop().expect("one event per source");
                    let gap = SimTime::from_nanos(100 + (rng.next_u64() & 0xfff));
                    queue.schedule(ev.at + gap, ev.event);
                }
                queue.len()
            })
        });
    }
    group.bench_function("drain_8192", |b| {
        let mut rng = SimRng::new(7);
        b.iter_batched(
            || {
                let mut queue: EventQueue<u32> = EventQueue::new();
                for source in 0..8_192 {
                    queue.schedule(SimTime::from_nanos(rng.gen_below(1 << 20)), source);
                }
                queue
            },
            |mut queue| {
                let mut last = 0;
                while let Some(ev) = queue.pop() {
                    last = ev.event;
                }
                last
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// The issue gate for an op that hits its blade's cache (19 of 20 offers on
/// a resident stream) against a full pool: 64 in flight, half holding a
/// region, none due to retire. 1 000 offers a sample.
fn bench_window(c: &mut Criterion) {
    c.bench_function("window/sweep_hit_offer_64_in_flight", |b| {
        let mut window = InFlightWindow::new(65).with_nic_depth(16);
        for i in 0..64u64 {
            let region = (i % 2 == 0).then_some((i << 14, 14u8));
            window.admit(SimTime::from_micros(10 + i), region, (i % 4) as u16);
        }
        let mut i = 0u64;
        b.iter(|| {
            let mut free = 0u64;
            for _ in 0..1_000 {
                i += 1;
                let now = SimTime::from_nanos(i % 4_096);
                let gates = window.sweep(now, (i % 4) as u16, None);
                free += (gates.slot_free_at <= now && gates.region_release <= now) as u64;
            }
            black_box(free)
        })
    });
}

/// A single-region tenant's control-plane life: `exec`, `mmap`, `exit`.
fn bench_controller(c: &mut Criterion) {
    c.bench_function("controller/mmap_exit_single_region", |b| {
        let mut rack = MindCluster::new(MindConfig::small());
        b.iter(|| {
            let pid = rack.exec().unwrap();
            black_box(rack.mmap(pid, 1 << 16).unwrap());
            rack.exit(SimTime::ZERO, pid).unwrap()
        })
    });
}

fn bench_rng(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng");
    group.bench_function("xoshiro_next", |b| {
        let mut rng = SimRng::new(9);
        b.iter(|| black_box(rng.next_u64()))
    });
    group.bench_function("zipfian_sample", |b| {
        let mut rng = SimRng::new(9);
        let z = Zipfian::new(1 << 20, 0.99);
        b.iter(|| black_box(z.sample(&mut rng)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tcam,
    bench_directory,
    bench_bounded_splitting,
    bench_epoch_at_capacity,
    bench_stt,
    bench_pagetable,
    bench_allocator,
    bench_cache,
    bench_memory_blade,
    bench_dispatch,
    bench_event_queue,
    bench_window,
    bench_controller,
    bench_rng
);
criterion_main!(benches);
