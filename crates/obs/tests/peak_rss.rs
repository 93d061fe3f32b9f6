//! `VmHWM` is process-wide, so this is the only test in its target: with
//! sibling test threads allocating between the reset and the re-read (as
//! in the crate's unit-test binary) the watermark check below races them.

#![cfg(target_os = "linux")]

use mind_obs::mem::{current_rss_bytes, peak_rss_bytes, reset_peak_rss};

const MIB: u64 = 1 << 20;
/// Larger than glibc's biggest `mmap` threshold (32 MiB), so the block is
/// its own mapping and freeing it returns every page to the kernel.
const BLOCK: u64 = 48 * MIB;
/// What the test itself may add to RSS between two `/proc` reads (the
/// status text, the harness's own buffers), plus the kernel's per-thread
/// batching of RSS counters.
const SLACK: u64 = 4 * MIB;

#[test]
fn peak_rss_reads_and_resets() {
    let block = vec![1u8; BLOCK as usize];
    std::hint::black_box(&block);
    let peak = peak_rss_bytes().expect("/proc/self/status is readable on Linux");
    drop(block);
    let rss = current_rss_bytes().expect("/proc/self/status is readable on Linux");
    assert!(rss > 0);
    assert!(
        peak >= rss + BLOCK - SLACK,
        "the watermark keeps the freed block: peak {peak}, rss {rss}"
    );

    if !reset_peak_rss() {
        return; // No clear_refs here: callers skip the RSS lane too.
    }
    let after = peak_rss_bytes().expect("still readable");
    let rss = current_rss_bytes().expect("still readable");
    assert!(
        after <= rss + SLACK,
        "the reset collapses the watermark to the current RSS: {after} vs {rss}"
    );
    assert!(
        after + BLOCK - SLACK <= peak,
        "the reset forgot the freed block: {after} vs {peak}"
    );
}
