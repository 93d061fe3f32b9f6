//! Measurement toolkit used by the evaluation harness.
//!
//! Provides counters, latency histograms with percentile queries, epoch time
//! series (Figure 8 left tracks directory entries over time), and Jain's
//! fairness index (Figure 8 right measures memory-blade load balance).

use std::collections::BTreeMap;

use crate::time::SimTime;

/// A latency histogram with exact-ish percentiles.
///
/// Values are bucketed logarithmically (64 major × 16 minor buckets, ~6 %
/// relative error), so recording is O(1) and memory is constant regardless of
/// sample count.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const MINOR_BITS: u32 = 4;
const MINOR: usize = 1 << MINOR_BITS;

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64 * MINOR],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value < MINOR as u64 {
            return value as usize;
        }
        let major = 63 - value.leading_zeros();
        let minor = ((value >> (major - MINOR_BITS)) & (MINOR as u64 - 1)) as usize;
        ((major - MINOR_BITS + 1) as usize) * MINOR + minor
    }

    fn bucket_low(index: usize) -> u64 {
        if index < MINOR {
            return index as u64;
        }
        let major = (index / MINOR) as u32 + MINOR_BITS - 1;
        let minor = (index % MINOR) as u64;
        (1u64 << major) | (minor << (major - MINOR_BITS))
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Minimum sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Maximum sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]` (lower bucket bound; 0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0)) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_low(i);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A `(time, value)` series sampled during a run, e.g. directory entries per
/// bounded-splitting epoch for Figure 8 (left).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a point; times must be non-decreasing.
    pub fn push(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(t, _)| t <= at),
            "time series must be appended in order"
        );
        self.points.push((at, value));
    }

    /// All points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Last value (None when empty).
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Mean of values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }
}

/// Jain's fairness index: `(Σx)² / (n · Σx²)`.
///
/// Equals 1.0 for perfectly balanced loads and `1/n` when a single entity
/// receives all load. Used to evaluate memory-allocation balance across
/// memory blades (paper Figure 8 right).
///
/// Returns 1.0 for empty input (vacuously fair) and for all-zero loads.
pub fn jains_index(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let sum: f64 = loads.iter().sum();
    let sum_sq: f64 = loads.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (loads.len() as f64 * sum_sq)
}

/// A labelled collection of counters, used for per-run metric snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    values: BTreeMap<&'static str, u64>,
}

impl Metrics {
    /// Creates an empty metric set.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `n` to metric `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.values.entry(name).or_insert(0) += n;
    }

    /// Increments metric `name`.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Reads metric `name` (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.values.iter().map(|(&k, &v)| (k, v))
    }

    /// Merges another metric set into this one.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// Returns `self - baseline` per metric (saturating at zero), for
    /// measuring a steady-state window after a warmup phase.
    pub fn diff(&self, baseline: &Metrics) -> Metrics {
        let mut out = Metrics::new();
        for (k, v) in self.iter() {
            out.add(k, v.saturating_sub(baseline.get(k)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
    }

    #[test]
    fn histogram_percentiles_approximate() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.10, "p50 = {p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.10, "p99 = {p99}");
        assert!((h.mean() - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn histogram_merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000);
    }

    #[test]
    fn histogram_merge_round_trips_deep_tail() {
        // The p99.9 cut of a merged histogram equals the cut over the
        // combined samples — partial (per-worker) histograms can be merged
        // without losing the deep tail the SLO reports are written
        // against.
        let mut combined = Histogram::new();
        let mut parts = [Histogram::new(), Histogram::new(), Histogram::new()];
        for v in 1..=30_000u64 {
            combined.record(v);
            parts[(v % 3) as usize].record(v);
        }
        let mut merged = Histogram::new();
        for p in &parts {
            merged.merge(p);
        }
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(merged.quantile(q), combined.quantile(q), "q={q}");
        }
        assert_eq!(merged.count(), combined.count());
        let p999 = merged.quantile(0.999) as f64;
        assert!((p999 - 29_970.0).abs() / 29_970.0 < 0.10, "p999 = {p999}");
    }

    #[test]
    fn histogram_empty_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn bucket_low_is_inverse_lower_bound() {
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456, u32::MAX as u64] {
            let b = Histogram::bucket_of(v);
            let low = Histogram::bucket_low(b);
            assert!(low <= v, "low {low} > value {v}");
            // Relative error bounded by one minor bucket (~6%).
            assert!((v - low) as f64 <= (v as f64 / MINOR as f64) + 1.0);
        }
    }

    #[test]
    fn time_series_tracks_points() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_millis(100), 10.0);
        ts.push(SimTime::from_millis(200), 30.0);
        ts.push(SimTime::from_millis(300), 20.0);
        assert_eq!(ts.points().len(), 3);
        assert_eq!(ts.last(), Some(20.0));
        assert!((ts.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn jains_index_extremes() {
        assert!((jains_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skewed = jains_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12);
        assert_eq!(jains_index(&[]), 1.0);
        assert_eq!(jains_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jains_index_monotone_in_balance() {
        let balanced = jains_index(&[4.0, 4.0, 4.0, 4.0]);
        let slightly = jains_index(&[5.0, 4.0, 4.0, 3.0]);
        let heavily = jains_index(&[13.0, 1.0, 1.0, 1.0]);
        assert!(balanced > slightly && slightly > heavily);
    }

    #[test]
    fn metrics_accumulate_and_merge() {
        let mut m = Metrics::new();
        m.incr("invalidations");
        m.add("invalidations", 2);
        m.add("remote_accesses", 7);
        assert_eq!(m.get("invalidations"), 3);
        assert_eq!(m.get("missing"), 0);

        let mut other = Metrics::new();
        other.add("remote_accesses", 3);
        m.merge(&other);
        assert_eq!(m.get("remote_accesses"), 10);
        let names: Vec<_> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["invalidations", "remote_accesses"]);
    }

    #[test]
    fn metrics_merge_diff_round_trip() {
        // diff is merge's inverse: (a ∪ b) − b == a whenever every key of
        // b also appears in the merge (which merge guarantees), so a
        // windowed measurement (merge during, diff after) recovers exactly
        // the window's contribution.
        let mut a = Metrics::new();
        a.add("remote_accesses", 7);
        a.add("invalidations", 3);
        let mut b = Metrics::new();
        b.add("remote_accesses", 5);
        b.add("flushed_pages", 2);

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.get("remote_accesses"), 12);
        assert_eq!(merged.get("flushed_pages"), 2);

        let recovered = merged.diff(&b);
        assert_eq!(recovered.get("remote_accesses"), a.get("remote_accesses"));
        assert_eq!(recovered.get("invalidations"), a.get("invalidations"));
        // Keys only in b diff away to zero (but stay present).
        assert_eq!(recovered.get("flushed_pages"), 0);

        // And merging the baseline back restores the merged totals.
        let mut round = recovered;
        round.merge(&b);
        assert_eq!(round, merged);
    }

    #[test]
    fn metrics_diff_saturates_at_zero() {
        let mut a = Metrics::new();
        a.add("x", 2);
        let mut b = Metrics::new();
        b.add("x", 5);
        assert_eq!(a.diff(&b).get("x"), 0, "never underflows");
    }
}
