//! Copy-on-write page handles are invisible: a rack whose pages move as
//! shared handles behaves, byte for byte, like a memory that copies eagerly.
//!
//! The reference is that memory: a plain map from page to its own 4 KiB
//! array, written in place. Random byte reads and writes from three compute
//! blades run against both, interleaved with everything that makes handles
//! alias — a read that downgrades a writer (the page stays in its cache
//! *and* goes to the memory blade), read sharing on several blades,
//! write-back of LRU victims from caches a few pages big, `mprotect`, and
//! `munmap` followed by a fresh `mmap`. Every read must match the
//! reference, and a store must never show through the memory blade's copy
//! of the page before the page is next written back.

use std::collections::HashMap;

use proptest::prelude::*;

use mind::core::cluster::{MindCluster, MindConfig};
use mind::core::protect::PermClass;
use mind::sim::SimTime;

const PAGE: u64 = 4096;
const BLADES: u16 = 3;
const REGION_PAGES: u64 = 12;

type Page = [u8; PAGE as usize];

/// The eager-copy memory: each page its own bytes, never shared.
#[derive(Default)]
struct Reference(HashMap<u64, Page>);

impl Reference {
    fn page(&self, page: u64) -> Page {
        self.0.get(&page).copied().unwrap_or([0; PAGE as usize])
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let at = addr + i as u64;
            self.0.entry(at & !(PAGE - 1)).or_insert([0; PAGE as usize])[(at % PAGE) as usize] = b;
        }
    }

    fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        (addr..addr + len as u64)
            .map(|at| self.page(at & !(PAGE - 1))[(at % PAGE) as usize])
            .collect()
    }

    /// A fresh mapping reads zeros.
    fn forget(&mut self, base: u64, pages: u64) {
        for p in 0..pages {
            self.0.remove(&(base + p * PAGE));
        }
    }
}

/// What the memory blade stores for the page at `vaddr` (zeros if nothing).
fn memory_copy(rack: &MindCluster, vaddr: u64) -> Page {
    match rack.engine().stored_page(vaddr) {
        Some(data) => *data.bytes(),
        None => [0; PAGE as usize],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shared_handles_read_like_an_eager_copy_memory(
        ops in prop::collection::vec((0u8..16, 0u64..(1 << 40), 0u64..(1 << 40)), 1..400)
    ) {
        let mut cfg = MindConfig::small();
        cfg.n_compute = BLADES;
        cfg.cache_pages = 6;
        let mut rack = MindCluster::new(cfg);
        let pid = rack.exec().unwrap();
        let mut regions = [0u64; 2];
        for base in &mut regions {
            *base = rack.mmap(pid, REGION_PAGES * PAGE).unwrap();
        }
        let mut reference = Reference::default();
        let mut now = SimTime::ZERO;
        let mut stamp = 0u8;
        for (op, a, b) in ops {
            now += SimTime::from_micros(40);
            let blade = (a % BLADES as u64) as u16;
            let region = (a >> 8) as usize % regions.len();
            let base = regions[region];
            let len = 1 + (b % 40) as usize;
            let addr = base + (b >> 8) % (REGION_PAGES * PAGE - len as u64);
            match op {
                // Stores: bytes no earlier store wrote, so an aliased write
                // cannot pass for the old contents.
                0..=6 => {
                    stamp = stamp.wrapping_add(1);
                    let bytes: Vec<u8> = (0..len).map(|i| stamp ^ (i as u8) | 1).collect();
                    let pages: Vec<u64> = ((addr & !(PAGE - 1))..addr + len as u64)
                        .step_by(PAGE as usize)
                        .collect();
                    let before: Vec<(Page, Page)> = pages
                        .iter()
                        .map(|&p| (memory_copy(&rack, p), reference.page(p)))
                        .collect();
                    rack.write_bytes(now, blade, pid, addr, &bytes).unwrap();
                    reference.write(addr, &bytes);
                    // The store reached the writer's cache only. The memory
                    // blade holds what it held, or — if the fault made
                    // another blade write the page back — what the program
                    // had stored before.
                    for (&p, (stored, program)) in pages.iter().zip(&before) {
                        let now_stored = memory_copy(&rack, p);
                        prop_assert!(
                            now_stored == *stored || now_stored == *program,
                            "a store to {:#x} showed through the memory blade's copy", p
                        );
                    }
                }
                7..=13 => {
                    let read = rack.read_bytes(now, blade, pid, addr, len).unwrap();
                    prop_assert_eq!(read, reference.read(addr, len), "read at {:#x}", addr);
                }
                14 => {
                    rack.mprotect(now, pid, base, PermClass::ReadOnly).unwrap();
                    let read = rack.read_bytes(now, blade, pid, addr, len).unwrap();
                    prop_assert_eq!(read, reference.read(addr, len), "read-only at {:#x}", addr);
                    rack.mprotect(now, pid, base, PermClass::ReadWrite).unwrap();
                }
                _ => {
                    rack.munmap(now, pid, base).unwrap();
                    reference.forget(base, REGION_PAGES);
                    regions[region] = rack.mmap(pid, REGION_PAGES * PAGE).unwrap();
                }
            }
        }
        // Every page, from a blade that may or may not hold it.
        for (i, &base) in regions.iter().enumerate() {
            now += SimTime::from_micros(40);
            let len = (REGION_PAGES * PAGE) as usize;
            let read = rack.read_bytes(now, i as u16, pid, base, len).unwrap();
            prop_assert!(read == reference.read(base, len), "final sweep of region {}", i);
        }
    }
}
