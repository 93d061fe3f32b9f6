//! Process memory accounting for `MIND_PROFILE`.
//!
//! Two complementary lanes, both host-side and therefore — like the
//! wall-clock timers in [`crate::profile`] — reported on stderr only,
//! never in BENCH JSON or trace files:
//!
//! - **Allocation counters**: a [`CountingAlloc`] global allocator wraps
//!   the system allocator with relaxed atomic counters (allocation
//!   count, requested bytes, live bytes and their high-water mark).
//!   Always on — the cost is a few uncontended
//!   atomic adds per allocation, invisible next to the allocation itself
//!   and covered by the `obs_overhead` gate — so hot-path allocation
//!   regressions (a scratch buffer that stopped being reused, a string
//!   key materialized per sample) show up as count deltas in CI logs.
//!   The live bytes make a memory footprint an exact number for a seed
//!   rather than a noisy RSS.
//! - **Peak RSS**: `VmHWM` from `/proc/self/status`, resettable via
//!   `/proc/self/clear_refs` so a scenario can measure its own
//!   high-water mark. Linux-only; elsewhere the probes return `None` /
//!   `false` and callers skip the lane.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator behind relaxed counters; installed as the
/// process global allocator by this crate so every binary in the
/// workspace reports allocation deltas for free.
pub struct CountingAlloc;

/// Counts `bytes` more requested bytes live, and raises the high-water
/// mark to the new total.
fn grow_live(bytes: u64) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK_LIVE_BYTES.load(Ordering::Relaxed) {
        PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: defers every operation to `System` unchanged; the counters are
// plain relaxed atomics with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grow_live(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grow_live(layout.size() as u64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still pressures the allocator; count it, and
        // charge only the growth so byte totals stay an upper bound on
        // traffic rather than double-counting the moved prefix. The old
        // block stops being live as the new one starts.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        grow_live(new_size as u64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and requested bytes since process start (monotone; take
/// deltas around a region of interest).
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
}

/// Requested bytes allocated and not yet freed, process-wide, and their
/// high-water mark since start or the last [`reset_peak_live`]. Exact
/// for a seed when one thread allocates, unlike RSS, which also counts
/// what the system allocator keeps after a free. The peak is never below
/// the live total returned with it: an allocation adds to the total
/// before it raises the mark, and a reset stores a total read earlier,
/// so while other threads allocate the stored mark can lag the total.
pub fn live_bytes() -> (u64, u64) {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    (live, PEAK_LIVE_BYTES.load(Ordering::Relaxed).max(live))
}

/// Lowers the live-bytes high-water mark to the bytes live now, so a
/// later [`live_bytes`] reads the peak of just the region in between.
pub fn reset_peak_live() {
    PEAK_LIVE_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Reads one `kB`-suffixed field from `/proc/self/status`, in bytes.
#[cfg(target_os = "linux")]
fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The process's peak resident set size (`VmHWM`) in bytes, since start
/// or the last [`reset_peak_rss`]. `None` off Linux or if `/proc` is
/// unreadable.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        proc_status_bytes("VmHWM:")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// The process's current resident set size (`VmRSS`) in bytes. `None`
/// off Linux or if `/proc` is unreadable.
pub fn current_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        proc_status_bytes("VmRSS:")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Resets the kernel's peak-RSS watermark to the current RSS (writes `5`
/// to `/proc/self/clear_refs`), so a subsequent [`peak_rss_bytes`] reads
/// the high-water mark of just the region in between. Returns whether
/// the reset took effect; callers skip RSS lanes when it did not.
pub fn reset_peak_rss() -> bool {
    #[cfg(target_os = "linux")]
    {
        std::fs::write("/proc/self/clear_refs", b"5").is_ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_counters_are_monotone_and_see_allocations() {
        let (a0, b0) = alloc_counts();
        let v: Vec<u8> = Vec::with_capacity(64 * 1024);
        let (a1, b1) = alloc_counts();
        assert!(a1 > a0, "an allocation must bump the count");
        assert!(b1 >= b0 + 64 * 1024, "bytes must cover the request");
        drop(v);
        let (a2, b2) = alloc_counts();
        assert!(a2 >= a1 && b2 >= b1, "counters never go backwards");
    }

    #[test]
    fn the_live_peak_covers_a_block_while_it_lives() {
        reset_peak_live();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let (live, peak) = live_bytes();
        assert!(peak >= live && live >= 1 << 20, "live {live}, peak {peak}");
        drop(v);
        assert!(live_bytes().1 >= 1 << 20, "a free keeps the peak");
    }
}
