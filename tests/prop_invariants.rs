//! Property-based tests over the core data structures and the paper's
//! formal claims (Theorem 5.1, TCAM LPM, allocation disjointness, cache
//! and coherence invariants).

use proptest::prelude::*;

use mind_blade::DramCache;
use mind_core::cluster::{MindCluster, MindConfig};
use mind_core::directory::RegionDirectory;
use mind_core::galloc::GlobalAllocator;
use mind_core::split::{BoundedSplitting, SplitConfig};
use mind_core::system::AccessKind;
use mind_net::node::BladeSet;
use mind_sim::SimTime;
use mind_switch::tcam::{pow2_cover, Tcam, TcamEntry};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// pow2_cover tiles the range exactly with aligned power-of-two pieces,
    /// bounded by 2*log2(len) pieces.
    #[test]
    fn pow2_cover_tiles_exactly(base in 0u64..(1 << 40), len in 1u64..(1 << 30)) {
        let base = base & !0xFFF;
        let len = (len + 0xFFF) & !0xFFF;
        let pieces: Vec<_> = pow2_cover(base, len).collect();
        let mut cursor = base;
        for &(b, k) in &pieces {
            prop_assert_eq!(b, cursor, "contiguous");
            prop_assert_eq!(b & ((1u64 << k) - 1), 0, "aligned");
            cursor += 1u64 << k;
        }
        prop_assert_eq!(cursor, base + len, "covers exactly");
        prop_assert!(pieces.len() <= 2 * (64 - len.leading_zeros()) as usize);
    }

    /// The allocator never hands out overlapping reservations, keeps its
    /// byte accounting exact, and frees restore capacity.
    #[test]
    fn allocator_disjoint_and_conserving(ops in prop::collection::vec((0u8..2, 1u64..(1 << 22)), 1..60)) {
        let mut galloc = GlobalAllocator::build(4, 1 << 26, None);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (op, len) in ops {
            if op == 0 || live.is_empty() {
                if let Some(vma) = galloc.alloc(len) {
                    let size = galloc.reserved_size(vma.base).unwrap();
                    for &(b, s) in &live {
                        prop_assert!(vma.base + size <= b || b + s <= vma.base,
                            "overlap: [{:#x},+{:#x}) vs [{:#x},+{:#x})", vma.base, size, b, s);
                    }
                    live.push((vma.base, size));
                }
            } else {
                let idx = (len as usize) % live.len();
                let (base, _) = live.swap_remove(idx);
                prop_assert!(galloc.dealloc(base));
            }
            let total: u64 = galloc.allocated_per_blade().iter().sum();
            let expect: u64 = live.iter().map(|&(_, s)| s).sum();
            prop_assert_eq!(total, expect, "byte accounting");
            prop_assert_eq!(galloc.allocated(), total, "the allocator total is the per-blade sum");
        }
        for (base, _) in live {
            galloc.dealloc(base);
        }
        prop_assert_eq!(galloc.allocated_per_blade().iter().sum::<u64>(), 0);
    }

    /// TCAM longest-prefix-match agrees with a naive reference scan.
    #[test]
    fn tcam_lpm_matches_reference(
        entries in prop::collection::vec((0u64..4, 0u64..(1 << 24), 12u8..22), 1..40),
        probes in prop::collection::vec((0u64..4, 0u64..(1 << 24)), 1..50),
    ) {
        let mut tcam: Tcam<usize> = Tcam::new(10_000);
        let mut reference: Vec<(u64, u64, u8, usize)> = Vec::new();
        for (i, (ctx, base, k)) in entries.into_iter().enumerate() {
            let base = (base >> k) << k;
            let entry = TcamEntry::new(ctx, base, k);
            tcam.insert(entry, i).unwrap();
            reference.retain(|&(c, b, kk, _)| !(c == ctx && b == base && kk == k));
            reference.push((ctx, base, k, i));
        }
        for (ctx, addr) in probes {
            let expect = reference
                .iter()
                .filter(|&&(c, b, k, _)| c == ctx && addr >> k == b >> k)
                .min_by_key(|&&(_, _, k, _)| k)
                .map(|&(_, _, _, v)| v);
            let got = tcam.lookup(ctx, addr).map(|(_, &v)| v);
            prop_assert_eq!(got, expect);
        }
    }

    /// Directory regions always form a disjoint, aligned partition, and
    /// region_of agrees with the entry set, under random churn.
    #[test]
    fn directory_partition_invariant(ops in prop::collection::vec((0u8..3, 0u64..(1 << 22)), 1..120)) {
        let mut dir = RegionDirectory::new(4_000, 14);
        for (op, addr) in ops {
            match op {
                0 => { let _ = dir.ensure_region(addr); }
                1 => {
                    if let Some((base, k)) = dir.region_of(addr) {
                        if k > 12 {
                            let _ = dir.split(base);
                        }
                    }
                }
                _ => {
                    if let Some((base, _)) = dir.region_of(addr) {
                        let _ = dir.merge(base);
                    }
                }
            }
            // Invariant: regions are aligned, pow2, disjoint, and indexed.
            let bases = dir.bases_sorted();
            let mut prev_end = 0u64;
            for base in bases {
                let e = dir.entry(base).unwrap();
                let size = 1u64 << e.size_log2;
                prop_assert_eq!(base % size, 0, "aligned");
                prop_assert!(base >= prev_end, "disjoint");
                prev_end = base + size;
                prop_assert_eq!(dir.region_of(base), Some((base, e.size_log2)));
                prop_assert_eq!(dir.region_of(base + size - 1), Some((base, e.size_log2)));
            }
        }
    }

    /// Theorem 5.1: a region with per-epoch false-invalidation count f
    /// under threshold t yields at most (ceil(f/t) - 1)(1 + log2 M)
    /// sub-regions.
    #[test]
    fn theorem_5_1_bound_holds(f_per_epoch in 1u32..40, seed in 0u64..100) {
        let _ = seed;
        let mut bs = BoundedSplitting::new(SplitConfig {
            initial_region_log2: 21, // 2 MB.
            enable_merge: false,
            c: 1.0,
            ..Default::default()
        });
        let mut dir = RegionDirectory::new(100_000, 21);
        dir.ensure_region(0).unwrap();
        // A cold sibling keeps N >= 2 so t stays below the hot count.
        dir.ensure_region(1 << 30).unwrap();
        let mut min_t = f64::MAX;
        for epoch in 1..=12u64 {
            // Observation O1: the false-invalidation count of a region is
            // conserved (children sum to at most the parent). Model the
            // worst case by concentrating the whole per-epoch count f on
            // the sub-region containing address 0.
            let (hot, _) = dir.region_of(0).unwrap();
            dir.record_invalidation(hot, f_per_epoch);
            let report = bs.run_epoch(SimTime::from_millis(epoch * 100), &mut dir);
            min_t = min_t.min(report.threshold);
        }
        let hot_regions = dir.bases_sorted().iter().filter(|&&b| b < (1 << 21)).count() as u64;
        // Case 2 of Theorem 5.1: with f concentrated on one chain the
        // region splits at most once per epoch down to the 4 KB floor,
        // yielding at most 1 + log2(M / 4K) sub-regions.
        let bound = BoundedSplitting::theorem_bound(2 * f_per_epoch as u64, f_per_epoch as f64, 21);
        prop_assert!(
            hot_regions <= bound,
            "{} regions exceed Theorem 5.1 Case-2 bound {}",
            hot_regions,
            bound
        );
    }

    /// The DRAM cache never exceeds capacity and tracks membership like a
    /// reference set.
    #[test]
    fn cache_capacity_and_membership(ops in prop::collection::vec((0u64..64, prop::bool::ANY), 1..300)) {
        let capacity = 16u32;
        let mut cache = DramCache::new(capacity);
        let mut reference: std::collections::HashSet<u64> = Default::default();
        for (page_idx, write) in ops {
            let page = page_idx << 12;
            match cache.access(page, write) {
                mind_blade::CacheLookup::Hit => {
                    prop_assert!(reference.contains(&page), "hit implies resident");
                }
                mind_blade::CacheLookup::NeedUpgrade => {
                    cache.grant_write(page);
                    prop_assert!(reference.contains(&page));
                }
                mind_blade::CacheLookup::Miss => {
                    prop_assert!(!reference.contains(&page), "miss implies absent");
                    if let Some(ev) = cache.insert(page, write, None) {
                        reference.remove(&ev.page);
                    }
                    reference.insert(page);
                }
            }
            prop_assert!(cache.resident_pages() <= capacity as usize);
            prop_assert_eq!(cache.resident_pages(), reference.len());
        }
    }

    /// BladeSet behaves like a HashSet<u16> under union/difference/insert.
    #[test]
    fn bladeset_matches_hashset(ops in prop::collection::vec((0u8..3, 0u16..64), 1..100)) {
        let mut set = BladeSet::new();
        let mut reference: std::collections::HashSet<u16> = Default::default();
        for (op, blade) in ops {
            match op {
                0 => {
                    set.insert(blade);
                    reference.insert(blade);
                }
                1 => {
                    set.remove(blade);
                    reference.remove(&blade);
                }
                _ => {
                    prop_assert_eq!(set.contains(blade), reference.contains(&blade));
                }
            }
            prop_assert_eq!(set.len() as usize, reference.len());
            let listed: std::collections::HashSet<u16> = set.iter().collect();
            prop_assert_eq!(&listed, &reference);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end functional property: the rack's shared memory behaves
    /// like one flat byte array no matter which blades touch it.
    #[test]
    fn cluster_is_a_coherent_flat_byte_array(
        ops in prop::collection::vec((0u64..(1 << 14), 0u16..2, prop::bool::ANY, 0u8..=255), 1..80)
    ) {
        let mut rack = MindCluster::new(MindConfig::small());
        let pid = rack.exec().unwrap();
        let base = rack.mmap(pid, 1 << 14).unwrap();
        let mut reference = vec![0u8; 1 << 14];
        let mut t = SimTime::ZERO;
        for (offset, blade, is_write, val) in ops {
            t += SimTime::from_micros(100);
            if is_write {
                rack.write_bytes(t, blade, pid, base + offset, &[val]).unwrap();
                reference[offset as usize] = val;
            } else {
                let got = rack.read_bytes(t, blade, pid, base + offset, 1).unwrap();
                prop_assert_eq!(got[0], reference[offset as usize]);
            }
        }
    }

    /// Coherence single-writer invariant under random multi-blade traffic.
    #[test]
    fn single_writer_or_many_readers(seed in 0u64..40) {
        let mut cfg = MindConfig::small();
        cfg.n_compute = 3;
        let mut rack = MindCluster::new(cfg);
        let pid = rack.exec().unwrap();
        let base = rack.mmap(pid, 1 << 15).unwrap();
        let mut rng = mind_sim::SimRng::new(seed);
        for i in 0..300u64 {
            let blade = rng.gen_below(3) as u16;
            let page = base + rng.gen_below(8) * 4096;
            let kind = if rng.gen_bool(0.5) { AccessKind::Write } else { AccessKind::Read };
            rack.access_as(SimTime::from_micros(i * 50), blade, pid, page, kind).unwrap();
            for p in (0..8).map(|k| base + k * 4096) {
                let writers = (0..3)
                    .filter(|&b| rack.engine().cache(b).is_writable(p))
                    .count();
                let holders = (0..3)
                    .filter(|&b| rack.engine().cache(b).contains(p))
                    .count();
                prop_assert!(writers <= 1, "at most one writer");
                prop_assert!(writers == 0 || holders == 1, "writer excludes readers");
            }
        }
    }
}
