//! The Bounded Splitting algorithm (paper §5).
//!
//! Works in fixed-length epochs (100 ms default). Each epoch it examines the
//! false-invalidation count `f` of every region and:
//!
//! - **splits** any region with `f > t` into two halves (one level per
//!   epoch, never below the 4 KB page size), where the threshold
//!   `t = Σf / (c·N)` is a fraction of the mean false-invalidation count;
//! - **merges** buddy pairs whose combined count stays well below `t`
//!   (the equivalent merge-based formulation, §5.2);
//! - **adapts `c`** so switch SRAM utilization stays below the 95 % target —
//!   raising `t` (fewer, coarser regions) under pressure and lowering it
//!   when there is headroom.
//!
//! The worst-case region count is `c·N·(1 + log₂ M)` (Theorem 5.1 /
//! "Bounding the total number of regions"); the property tests in
//! `tests/prop_invariants.rs` check the per-region bound
//! `S ≤ (⌈f/t⌉ − 1)(1 + log₂ M)`.

use mind_blade::PAGE_SHIFT;
use mind_sim::stats::TimeSeries;
use mind_sim::SimTime;

use crate::directory::{EpochCounter, RegionDirectory};

/// Tunables for bounded splitting.
#[derive(Debug, Clone, Copy)]
pub struct SplitConfig {
    /// Initial region size (log2 bytes); 16 KB default (§5 "From theory to
    /// practice" / §7.3).
    pub initial_region_log2: u8,
    /// Epoch length; 100 ms default (§7.3).
    pub epoch_len: SimTime,
    /// Initial threshold constant `c` in `t = Σf / (c·N)`.
    pub c: f64,
    /// SRAM utilization ceiling before `c` is raised (0.95 in the paper).
    pub target_utilization: f64,
    /// Whether the merge pass runs (disable to study pure splitting).
    pub enable_merge: bool,
    /// Whether the split pass runs (disable together with merging to pin
    /// regions at the initial size — the fixed-granularity points of
    /// Figure 9 left).
    pub enable_split: bool,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            initial_region_log2: 14,
            epoch_len: SimTime::from_millis(100),
            c: 1.0,
            target_utilization: 0.95,
            enable_merge: true,
            enable_split: true,
        }
    }
}

impl SplitConfig {
    /// A configuration that pins every region at `size_log2` (no splits, no
    /// merges) — the fixed-granularity baselines of Figure 9 (left).
    pub fn fixed(size_log2: u8) -> Self {
        SplitConfig {
            initial_region_log2: size_log2,
            enable_merge: false,
            enable_split: false,
            ..Default::default()
        }
    }
}

/// Per-epoch outcome, for reporting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochReport {
    /// Regions split this epoch.
    pub splits: u32,
    /// Buddy pairs merged this epoch.
    pub merges: u32,
    /// The threshold `t` used.
    pub threshold: f64,
    /// Total false invalidations observed in the epoch.
    pub false_invalidations: u64,
    /// Directory entries after the epoch.
    pub entries: usize,
}

/// The epoch driver.
#[derive(Debug, Clone)]
pub struct BoundedSplitting {
    cfg: SplitConfig,
    c: f64,
    next_epoch: SimTime,
    epochs_run: u64,
    entries_series: TimeSeries,
    last_report: EpochReport,
    /// Per-epoch working sets, kept so that an epoch allocates nothing: the
    /// drained activity counters, the split list `(f, base)` and the merge
    /// list (left bases).
    counters: Vec<EpochCounter>,
    hot: Vec<(u32, u64)>,
    candidates: Vec<u64>,
}

impl BoundedSplitting {
    /// Creates a driver; the first epoch ends at `epoch_len`.
    pub fn new(cfg: SplitConfig) -> Self {
        BoundedSplitting {
            c: cfg.c,
            next_epoch: cfg.epoch_len,
            cfg,
            epochs_run: 0,
            entries_series: TimeSeries::new(),
            last_report: EpochReport::default(),
            counters: Vec::new(),
            hot: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &SplitConfig {
        &self.cfg
    }

    /// Current adaptive `c`.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Runs any epochs that have elapsed by `now`. Returns the number run.
    pub fn advance_to(&mut self, now: SimTime, dir: &mut RegionDirectory) -> u32 {
        let mut ran = 0;
        while now >= self.next_epoch {
            let at = self.next_epoch;
            self.run_epoch(at, dir);
            self.next_epoch += self.cfg.epoch_len;
            ran += 1;
        }
        ran
    }

    /// Executes one epoch at time `at` (public for targeted tests/benches).
    pub fn run_epoch(&mut self, at: SimTime, dir: &mut RegionDirectory) -> EpochReport {
        self.epochs_run += 1;
        // `counters` lists only regions with activity this epoch; idle
        // regions contribute zero to Σf and can never exceed t (≥ 1), so
        // the split scan over it is exhaustive. N in t = Σf / (c·N) is the
        // total region count, per §5.
        let counters = &mut self.counters;
        dir.drain_epoch_counters_into(counters);
        let n = dir.entries().max(1);
        let total_f: u64 = counters.iter().map(|c| c.false_inv as u64).sum();

        // t = Σf / (c·N), at least 1 so zero-traffic epochs are stable.
        let threshold = (total_f as f64 / (self.c * n as f64)).max(1.0);

        // Split phase: regions whose false-invalidation count exceeded t,
        // hottest first so limited SRAM goes to the worst offenders.
        let mut splits = 0;
        if self.cfg.enable_split {
            let hot = &mut self.hot;
            hot.clear();
            hot.extend(
                counters
                    .iter()
                    .filter(|c| c.false_inv as f64 > threshold && c.size_log2 > PAGE_SHIFT)
                    .map(|c| (c.false_inv, c.base)),
            );
            hot.sort_unstable_by(|a, b| b.cmp(a));
            for &(_, base) in hot.iter() {
                if dir.utilization() >= self.cfg.target_utilization {
                    break;
                }
                if dir.split(base).is_ok() {
                    splits += 1;
                }
            }
        }

        // Merge phase (the merge-based equivalent, §5.2): reclaim SRAM by
        // coalescing buddies — but only when reclaiming matters (the store
        // is at least half full) and only regions that saw *no coherence
        // activity at all* this epoch. Merging by false-invalidation count
        // alone would coalesce regions that are invalidated often but
        // precisely (zero false invalidations) — and the very next
        // invalidation of the merged giant would wipe entire cached working
        // sets.
        let mut merges = 0;
        if self.cfg.enable_merge && dir.utilization() > 0.5 {
            // A coherence-compatible buddy pair merges (one level per
            // epoch) only when neither half appears in the active list —
            // `counters` is sorted by base, so membership is a binary
            // search. Pairs are disjoint, so the merges are independent;
            // they run in base order.
            let is_active = |base: u64| counters.binary_search_by_key(&base, |c| c.base).is_ok();
            let candidates = &mut self.candidates;
            candidates.clear();
            candidates.extend(
                dir.mergeable_pairs()
                    .filter(|&(left, k)| !is_active(left) && !is_active(left | (1u64 << k)))
                    .map(|(left, _)| left),
            );
            candidates.sort_unstable();
            for &base in candidates.iter() {
                if dir.merge(base).is_some() {
                    merges += 1;
                }
            }
        }

        // Adapt c to SRAM pressure: raise t when close to capacity, relax
        // back toward the configured value when there is room.
        let util = dir.utilization();
        if util > self.cfg.target_utilization * 0.9 {
            self.c *= 1.5;
        } else if util < self.cfg.target_utilization * 0.5 && self.c > self.cfg.c {
            self.c = (self.c / 1.5).max(self.cfg.c);
        }

        self.entries_series.push(at, dir.entries() as f64);
        self.last_report = EpochReport {
            splits,
            merges,
            threshold,
            false_invalidations: total_f,
            entries: dir.entries(),
        };
        self.last_report
    }

    /// Epochs executed.
    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    /// Directory-entry count per epoch (Figure 8 left).
    pub fn entries_series(&self) -> &TimeSeries {
        &self.entries_series
    }

    /// The most recent epoch's report.
    pub fn last_report(&self) -> EpochReport {
        self.last_report
    }

    /// Theorem 5.1 bound on sub-regions from one region with count `f`
    /// under threshold `t` and initial size `M` bytes:
    /// `S = (⌈f/t⌉ − 1) · (1 + log₂(M / 4 KB))`, and 1 when `f ≤ t`.
    pub fn theorem_bound(f: u64, t: f64, region_log2: u8) -> u64 {
        if f as f64 <= t {
            return 1;
        }
        let k = (f as f64 / t).ceil() as u64;
        let levels = (region_log2 - PAGE_SHIFT) as u64;
        (k - 1) * (1 + levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver(epoch_ms: u64) -> BoundedSplitting {
        BoundedSplitting::new(SplitConfig {
            epoch_len: SimTime::from_millis(epoch_ms),
            ..Default::default()
        })
    }

    fn dir_with_regions(n: u64) -> RegionDirectory {
        let mut d = RegionDirectory::new(10_000, 14);
        for i in 0..n {
            d.ensure_region(i << 14).unwrap();
        }
        d
    }

    #[test]
    fn hot_region_splits() {
        let mut bs = driver(100);
        let mut d = dir_with_regions(4);
        // Region 0 takes all the false invalidations.
        d.record_invalidation(0, 100);
        let report = bs.run_epoch(SimTime::from_millis(100), &mut d);
        assert!(report.splits >= 1, "hot region split: {report:?}");
        // Region 0 is now two 8 KB halves.
        assert_eq!(d.region_of(0x0).unwrap().1, 13);
        assert_eq!(d.region_of(0x2000).unwrap().1, 13);
    }

    #[test]
    fn uniform_load_below_threshold_no_splits() {
        let mut bs = driver(100);
        let mut d = dir_with_regions(8);
        // All equal counts: f_i == mean == t (with c=1), never strictly above.
        for i in 0..8u64 {
            d.record_invalidation(i << 14, 10);
        }
        let report = bs.run_epoch(SimTime::from_millis(100), &mut d);
        assert_eq!(report.splits, 0);
    }

    #[test]
    fn cold_buddies_merge_under_pressure() {
        let mut bs = driver(100);
        // A small store: 4 buddy-paired 16 KB regions fill it past 50%.
        let mut d = RegionDirectory::new(6, 14);
        for i in 0..4u64 {
            d.ensure_region(i << 14).unwrap();
        }
        assert!(d.utilization() > 0.5);
        // Nothing was invalidated this epoch: cold buddies coalesce.
        let r = bs.run_epoch(SimTime::from_millis(100), &mut d);
        assert!(r.merges >= 1, "cold halves merged: {r:?}");
        assert!(d.entries() < 4);
    }

    #[test]
    fn active_regions_do_not_merge() {
        let mut bs = driver(100);
        let mut d = RegionDirectory::new(6, 14);
        for i in 0..4u64 {
            d.ensure_region(i << 14).unwrap();
        }
        // Every region saw invalidation traffic (even with zero *false*
        // invalidations): none may merge — a merged giant would couple
        // actively-shared pages.
        for i in 0..4u64 {
            d.record_invalidation(i << 14, 0);
        }
        let r = bs.run_epoch(SimTime::from_millis(100), &mut d);
        assert_eq!(r.merges, 0, "{r:?}");
    }

    #[test]
    fn split_floor_is_page_size() {
        let mut bs = BoundedSplitting::new(SplitConfig {
            initial_region_log2: 13,
            enable_merge: false,
            ..Default::default()
        });
        let mut d = RegionDirectory::new(1000, 13);
        d.ensure_region(0).unwrap();
        // A second, cold region keeps the mean (and thus t) below the hot
        // region's count — a lone region always sits exactly at the mean
        // and never splits.
        d.ensure_region(0x10_0000).unwrap();
        for epoch in 1..=6 {
            // Keep hammering whatever region covers address 0.
            let (base, _) = d.region_of(0).unwrap();
            d.record_invalidation(base, 1_000);
            bs.run_epoch(SimTime::from_millis(epoch * 100), &mut d);
        }
        let (_, k) = d.region_of(0).unwrap();
        assert_eq!(k, PAGE_SHIFT, "stabilized at page size, never below");
    }

    #[test]
    fn advance_runs_elapsed_epochs() {
        let mut bs = driver(100);
        let mut d = dir_with_regions(1);
        assert_eq!(bs.advance_to(SimTime::from_millis(99), &mut d), 0);
        assert_eq!(bs.advance_to(SimTime::from_millis(100), &mut d), 1);
        assert_eq!(bs.advance_to(SimTime::from_millis(350), &mut d), 2);
        assert_eq!(bs.epochs_run(), 3);
        assert_eq!(bs.entries_series().points().len(), 3);
    }

    #[test]
    fn c_rises_under_sram_pressure() {
        // Merging is the first pressure valve; disable it so the c
        // adjustment is observable in isolation.
        let mut bs = BoundedSplitting::new(SplitConfig {
            epoch_len: SimTime::from_millis(100),
            enable_merge: false,
            ..Default::default()
        });
        let mut d = RegionDirectory::new(8, 14);
        // Far-apart regions: pressure-adaptive creation cannot coalesce
        // them into fewer entries.
        for i in 0..8u64 {
            d.ensure_region(i << 32).unwrap();
        }
        assert!(d.utilization() >= 0.9);
        let c0 = bs.c();
        bs.run_epoch(SimTime::from_millis(100), &mut d);
        assert!(bs.c() > c0, "c raised under pressure");
    }

    #[test]
    fn c_relaxes_with_headroom() {
        let mut bs = driver(100);
        let mut d = RegionDirectory::new(10_000, 14);
        d.ensure_region(0).unwrap();
        // Induce pressure artificially by raising c, then give headroom.
        bs.c = 10.0;
        bs.run_epoch(SimTime::from_millis(100), &mut d);
        assert!(bs.c() < 10.0, "c relaxes toward configured value");
        for epoch in 2..50 {
            bs.run_epoch(SimTime::from_millis(epoch * 100), &mut d);
        }
        assert!((bs.c() - 1.0).abs() < 1e-9, "c floors at configured value");
    }

    #[test]
    fn theorem_bound_shape() {
        // f <= t: single region.
        assert_eq!(BoundedSplitting::theorem_bound(5, 10.0, 21), 1);
        // t < f <= 2t: 1 + log2(M/4K) regions (Case 2). M = 2 MB -> 10.
        assert_eq!(BoundedSplitting::theorem_bound(20, 10.0, 21), 10);
        // 2t < f <= 3t: (3-1)(1+9) = 20 (Case 3).
        assert_eq!(BoundedSplitting::theorem_bound(30, 10.0, 21), 20);
    }

    #[test]
    fn splitting_respects_theorem_bound_single_region() {
        // Drive one 2 MB region with a fixed per-epoch count and check the
        // final region count against Theorem 5.1 with t computed per epoch.
        let mut bs = BoundedSplitting::new(SplitConfig {
            initial_region_log2: 21,
            enable_merge: false,
            c: 1.0,
            ..Default::default()
        });
        let mut d = RegionDirectory::new(100_000, 21);
        d.ensure_region(0).unwrap();
        // Every epoch, charge the region containing address 0 with f = 3t
        // -> worst-case k = 3.
        for epoch in 1..=12u64 {
            for base in d.bases_sorted() {
                d.record_invalidation(base, 3);
            }
            bs.run_epoch(SimTime::from_millis(epoch * 100), &mut d);
        }
        let bound = BoundedSplitting::theorem_bound(3 * 512, 512.0, 21);
        assert!(
            d.entries() as u64 <= bound.max(1 + 9),
            "entries {} exceed theorem envelope {}",
            d.entries(),
            bound
        );
    }

    /// Collects `(base, size)` for every region and asserts the §5
    /// structural invariants: power-of-two sized, naturally aligned, and
    /// mutually disjoint.
    fn check_partition(d: &RegionDirectory) -> Vec<(u64, u64)> {
        let mut regions = Vec::new();
        let mut prev_end = 0u64;
        for base in d.bases_sorted() {
            let e = d.entry(base).unwrap();
            let size = 1u64 << e.size_log2;
            assert_eq!(base % size, 0, "region {base:#x} not aligned to {size:#x}");
            assert!(
                base >= prev_end,
                "region {base:#x} overlaps previous end {prev_end:#x}"
            );
            prev_end = base + size;
            regions.push((base, size));
        }
        regions
    }

    /// Splitting and merging under sustained churn must be cover-preserving:
    /// every byte of the initially registered regions stays tracked by
    /// exactly one region, and no region ever strays outside the initial
    /// footprint. (A lost range would silently drop coherence for its pages;
    /// an overlap would give two directory entries authority over one page.)
    #[test]
    fn epoch_churn_preserves_cover_and_disjointness() {
        let mut bs = BoundedSplitting::new(SplitConfig {
            initial_region_log2: 16,
            ..Default::default()
        });
        let mut d = RegionDirectory::new(4_096, 16);
        let n_regions = 8u64;
        for i in 0..n_regions {
            d.ensure_region(i << 16).unwrap();
        }
        let footprint = n_regions << 16;

        let mut rng = mind_sim::SimRng::new(0x5EED);
        for epoch in 1..=40u64 {
            // Concentrate churn on a few pseudo-random addresses so some
            // regions split while others go cold and merge.
            for _ in 0..4 {
                let addr = rng.gen_below(footprint);
                let (base, _) = d.region_of(addr).unwrap();
                d.record_invalidation(base, 1 + rng.gen_below(64) as u32);
            }
            bs.run_epoch(SimTime::from_millis(epoch * 100), &mut d);

            let regions = check_partition(&d);
            let covered: u64 = regions.iter().map(|&(_, s)| s).sum();
            assert_eq!(covered, footprint, "cover gained or lost bytes");
            assert!(
                regions.iter().all(|&(b, s)| b + s <= footprint),
                "region escaped the initial footprint"
            );
            // Exact-cover double check: every page of the footprint resolves
            // to a region that contains it.
            for page in (0..footprint).step_by(1 << PAGE_SHIFT) {
                let (b, k) = d.region_of(page).unwrap();
                assert!(b <= page && page < b + (1u64 << k));
            }
        }
    }

    /// The split phase must respect the directory-slot budget: with far more
    /// split pressure than SRAM, entries never exceed capacity and splitting
    /// stops at the configured utilization target (modulo the one entry a
    /// final split adds) instead of erroring out on a full store.
    #[test]
    fn split_storm_respects_slot_budget() {
        let capacity = 64usize;
        let target = 0.95;
        let mut bs = BoundedSplitting::new(SplitConfig {
            initial_region_log2: 21, // 2 MB: 512 potential 4 KB leaves each.
            enable_merge: false,
            target_utilization: target,
            ..Default::default()
        });
        let mut d = RegionDirectory::new(capacity, 21);
        for i in 0..4u64 {
            d.ensure_region(i << 21).unwrap();
        }

        for epoch in 1..=30u64 {
            // Skewed hammering: the upper half of the regions sits well
            // above the mean every epoch (equal counts would tie the
            // threshold exactly and never split), so split pressure vastly
            // outstrips the 64-slot budget.
            for (j, base) in d.bases_sorted().into_iter().enumerate() {
                d.record_invalidation(base, 100 * (1 + j as u32));
            }
            bs.run_epoch(SimTime::from_millis(epoch * 100), &mut d);
            assert!(
                d.entries() <= capacity,
                "directory exceeded its slot budget: {} > {capacity}",
                d.entries()
            );
            assert!(
                d.utilization() <= target + 1.0 / capacity as f64 + f64::EPSILON,
                "splitting blew through the utilization target: {}",
                d.utilization()
            );
            check_partition(&d);
        }
        // The storm actually used the budget (the bound above is not
        // vacuous) and pressure pushed c upward.
        assert!(d.entries() > 4, "no splits happened at all");
        assert!(bs.c() > bs.config().c, "c never adapted under pressure");
    }

    #[test]
    fn epoch_report_exposed() {
        let mut bs = driver(100);
        let mut d = dir_with_regions(2);
        d.record_invalidation(0, 50);
        let r = bs.run_epoch(SimTime::from_millis(100), &mut d);
        assert_eq!(bs.last_report(), r);
        assert_eq!(r.false_invalidations, 50);
        assert!(r.threshold > 0.0);
        assert_eq!(r.entries, d.entries());
    }
}
