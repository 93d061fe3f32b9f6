//! Process memory accounting for `MIND_PROFILE`.
//!
//! Two complementary lanes, both host-side and therefore — like the
//! wall-clock timers in [`crate::profile`] — reported on stderr only,
//! never in BENCH JSON or trace files:
//!
//! - **Allocation counters**: a [`CountingAlloc`] global allocator wraps
//!   the system allocator with two relaxed atomic counters (allocation
//!   count and requested bytes). Always on — the cost is two uncontended
//!   atomic adds per allocation, invisible next to the allocation itself
//!   and covered by the `obs_overhead` gate — so hot-path allocation
//!   regressions (a scratch buffer that stopped being reused, a string
//!   key materialized per sample) show up as count deltas in CI logs.
//! - **Peak RSS**: `VmHWM` from `/proc/self/status`, resettable via
//!   `/proc/self/clear_refs` so a scenario can measure its own
//!   high-water mark. Linux-only; elsewhere the probes return `None` /
//!   `false` and callers skip the lane.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator behind two relaxed counters; installed as the
/// process global allocator by this crate so every binary in the
/// workspace reports allocation deltas for free.
pub struct CountingAlloc;

// SAFETY: defers every operation to `System` unchanged; the counters are
// plain relaxed atomics with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still pressures the allocator; count it, and
        // charge only the growth so byte totals stay an upper bound on
        // traffic rather than double-counting the moved prefix.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and requested bytes since process start (monotone; take
/// deltas around a region of interest).
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), ALLOC_BYTES.load(Ordering::Relaxed))
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
}
