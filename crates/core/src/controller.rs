//! The switch control plane: processes and system-call intercepts (§6.1,
//! §6.3).
//!
//! Compute-blade kernel modules intercept process and memory system calls
//! (`exec`, `exit`, `mmap`, `munmap`, `mprotect`) and forward them to
//! the switch control plane over a reliable channel. The control plane keeps
//! the canonical `task_struct`/`mm_struct` equivalents, performs balanced
//! allocation, installs data-plane rules, and replies with Linux-compatible
//! return values — keeping user applications unmodified.
//!
//! Threads of the same process run on different compute blades under one
//! PID, sharing the address space through the in-switch tables; placement is
//! round-robin (the paper does not innovate on scheduling, §6.1).

use mind_sim::slab::IdSlab;
use mind_sim::spare::reuse;
use mind_sim::SimTime;

use crate::addr::Vma;
use crate::coherence::CoherenceEngine;
use crate::galloc::GlobalAllocator;
use crate::protect::{slot, Pdid, PermClass};
use crate::translate::OutlierTarget;

/// Process identifier. For unmodified applications `PDID = PID` (§4.2).
/// A pid is its record's id in the process slab plus one ([`slot`] maps
/// it back), so 0 is never issued; an exited process's pid is reissued.
pub type Pid = u64;

/// Linux-compatible errors returned by syscalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysError {
    /// Out of disaggregated memory (`ENOMEM`).
    NoMem,
    /// Unknown process (`ESRCH`).
    NoProcess,
    /// Bad address / unknown vma (`EFAULT`).
    Fault,
}

impl std::fmt::Display for SysError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SysError::NoMem => write!(f, "ENOMEM"),
            SysError::NoProcess => write!(f, "ESRCH"),
            SysError::Fault => write!(f, "EFAULT"),
        }
    }
}

impl std::error::Error for SysError {}

/// One live vma of a process: where it starts and the class it is granted
/// with (its reserved extent is the allocator's to know).
#[derive(Debug, Clone, Copy)]
struct Mapping {
    base: u64,
    pc: PermClass,
}

/// Control-plane record of a process (`task_struct` + `mm_struct`).
#[derive(Debug, Clone, Default)]
pub struct Process {
    /// Live vmas in allocation order: `first`, then `rest`. A process with
    /// one vma — every service tenant — keeps it inline and owns no heap.
    first: Option<Mapping>,
    rest: Vec<Mapping>,
    /// Compute blades hosting this process's threads.
    pub blades: Vec<u16>,
}

impl Process {
    fn mappings(&self) -> impl Iterator<Item = &Mapping> {
        self.first.iter().chain(&self.rest)
    }

    fn mapping_mut(&mut self, base: u64) -> Option<&mut Mapping> {
        self.first
            .iter_mut()
            .chain(&mut self.rest)
            .find(|m| m.base == base)
    }

    fn map(&mut self, mapping: Mapping) {
        if self.first.is_none() {
            self.first = Some(mapping);
        } else {
            self.rest.push(mapping);
        }
    }

    /// Forgets the vma at `base`; whether there was one.
    fn unmap(&mut self, base: u64) -> bool {
        let Some(idx) = self.mappings().position(|m| m.base == base) else {
            return false;
        };
        if idx > 0 {
            self.rest.remove(idx - 1);
        } else {
            self.first = (!self.rest.is_empty()).then(|| self.rest.remove(0));
        }
        true
    }
}

/// A grant, as the backup switch replays it (§4.4).
#[derive(Debug, Clone, Copy)]
pub struct GrantRecord {
    /// Protection domain.
    pub pdid: Pdid,
    /// The granted vma (reserved, power-of-two size).
    pub vma: Vma,
    /// Permission class.
    pub pc: PermClass,
}

/// The MIND control program running on the switch CPU.
#[derive(Debug)]
pub struct Controller {
    galloc: GlobalAllocator,
    /// Live processes, each at its pid's [`slot`].
    processes: IdSlab<Process>,
    /// The migration log the backup switch rebuilds translation from:
    /// every migration's outlier entries, in install order.
    pub(crate) migrations: Vec<(Vma, OutlierTarget)>,
    /// System calls handled.
    pub syscalls: u64,
    /// Data-plane rules installed over PCIe.
    pub rules_installed: u64,
    rr_next_blade: u16,
    n_compute: u16,
    /// Exited processes' cleared blade lists, for the next `exec`s to reuse.
    spare_blades: Vec<Vec<u16>>,
}

impl Controller {
    /// A controller for a rack with `n_compute` compute blades and
    /// `n_memory` memory blades of `blade_span` VA bytes each, in a spare's
    /// tables when there is one.
    pub fn build(n_compute: u16, n_memory: u16, blade_span: u64, spare: Option<Self>) -> Self {
        let (galloc, processes) = spare.map(|c| (c.galloc, c.processes)).unzip();
        Controller {
            galloc: GlobalAllocator::build(n_memory, blade_span, galloc),
            processes: reuse(processes),
            migrations: Vec::new(),
            syscalls: 0,
            rules_installed: 0,
            rr_next_blade: 0,
            n_compute,
            spare_blades: Vec::new(),
        }
    }

    /// `exec`: creates a process; the PID doubles as its protection domain.
    /// The pid of the process that exited last is issued first.
    pub fn exec(&mut self) -> Pid {
        self.syscalls += 1;
        let blades = self.spare_blades.pop().unwrap_or_default();
        let id = self.processes.insert(Process { blades, ..Process::default() });
        id as Pid + 1
    }

    /// Places a new thread of `pid` on a compute blade, round-robin (§6.1).
    /// A refused placement leaves the round-robin cursor where it was.
    pub fn place_thread(&mut self, pid: Pid) -> Result<u16, SysError> {
        let p = self.processes.get_mut(slot(pid)).ok_or(SysError::NoProcess)?;
        let blade = self.rr_next_blade;
        self.rr_next_blade = (blade + 1) % self.n_compute;
        p.blades.push(blade);
        Ok(blade)
    }

    /// Retires one thread of `pid` from `blade` (elastic shrink): removes
    /// the most recent matching registration, so undoing a placement
    /// leaves the rest in placement order. Returns whether one was found.
    pub fn unplace_thread(&mut self, pid: Pid, blade: u16) -> Result<bool, SysError> {
        let p = self.processes.get_mut(slot(pid)).ok_or(SysError::NoProcess)?;
        match p.blades.iter().rposition(|&b| b == blade) {
            Some(idx) => {
                p.blades.remove(idx);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// `mmap`: allocates a vma on the least-loaded memory blade and installs
    /// the `<PDID, vma> → PC` protection entry.
    pub fn mmap(
        &mut self,
        engine: &mut CoherenceEngine,
        pid: Pid,
        len: u64,
        pc: PermClass,
    ) -> Result<Vma, SysError> {
        let all = 0..self.galloc.n_blades();
        self.mmap_in(engine, pid, len, pc, all)
    }

    /// `mmap` with placement confined to the memory blades in `blades`:
    /// the region-ownership path a partitioned simulation uses so each
    /// partition's vmas live on its own blade slice. `mmap` is the
    /// whole-rack special case.
    pub fn mmap_in(
        &mut self,
        engine: &mut CoherenceEngine,
        pid: Pid,
        len: u64,
        pc: PermClass,
        blades: std::ops::Range<u16>,
    ) -> Result<Vma, SysError> {
        self.syscalls += 1;
        if self.processes.get(slot(pid)).is_none() {
            return Err(SysError::NoProcess);
        }
        let vma = self.galloc.alloc_in(len, blades).ok_or(SysError::NoMem)?;
        // Grant over the reserved power-of-two extent: a single TCAM entry
        // (§4.2 "Optimizing for TCAM storage").
        let reserved = Vma::new(
            vma.base,
            self.galloc.reserved_size(vma.base).expect("just allocated"),
        );
        if engine.protection.grant(pid, reserved, pc).is_err() {
            self.galloc.dealloc(vma.base);
            return Err(SysError::NoMem);
        }
        self.rules_installed += 1;
        self.processes
            .get_mut(slot(pid))
            .expect("checked above")
            .map(Mapping { base: vma.base, pc });
        Ok(vma)
    }

    /// `munmap`: revokes protection, resets coherence state for all regions
    /// overlapping the vma (flushing cached pages), undoes its migrations
    /// and frees the memory.
    pub fn munmap(
        &mut self,
        engine: &mut CoherenceEngine,
        now: SimTime,
        pid: Pid,
        base: u64,
    ) -> Result<(), SysError> {
        self.syscalls += 1;
        let p = self.processes.get_mut(slot(pid)).ok_or(SysError::NoProcess)?;
        if !p.unmap(base) {
            return Err(SysError::Fault);
        }
        let reserved_len = self.galloc.reserved_size(base).ok_or(SysError::Fault)?;
        let reserved = Vma::new(base, reserved_len);
        engine.protection.revoke(pid, reserved);
        // Tear down directory entries covering the vma, flushing caches.
        engine.reset_range(now, reserved.base, reserved.end());
        // Each migration of the vma's pages: its frames, outlier entries
        // and log record go, so neither the next owner of the frames nor a
        // backup switch sees them.
        self.migrations.retain(|&(range, to)| {
            if !range.overlaps(&reserved) {
                return true;
            }
            engine.free_frames(to.blade, to.pa_base, range.len);
            engine.translation.remove_outlier(range.base, range.len);
            self.galloc.release(to.blade, to.pa_base, range.len);
            false
        });
        self.galloc.dealloc(base);
        engine.free_backing(reserved.base, reserved.len);
        Ok(())
    }

    /// `mprotect`: changes the permission class of an existing vma.
    ///
    /// Cached mappings for the vma are torn down (dirty pages flushed) so
    /// blades re-fault and re-check the new class — the analog of the PTE
    /// update + TLB shootdown a host kernel performs.
    pub fn mprotect(
        &mut self,
        engine: &mut CoherenceEngine,
        now: SimTime,
        pid: Pid,
        base: u64,
        pc: PermClass,
    ) -> Result<(), SysError> {
        self.syscalls += 1;
        if self.processes.get(slot(pid)).is_none() {
            return Err(SysError::NoProcess);
        }
        let reserved_len = self.galloc.reserved_size(base).ok_or(SysError::Fault)?;
        let reserved = Vma::new(base, reserved_len);
        engine.protection.revoke(pid, reserved);
        engine
            .protection
            .grant(pid, reserved, pc)
            .map_err(|_| SysError::NoMem)?;
        self.rules_installed += 1;
        engine.reset_range(now, reserved.base, reserved.end());
        if let Some(m) = self.processes.get_mut(slot(pid)).and_then(|p| p.mapping_mut(base)) {
            m.pc = pc;
        }
        Ok(())
    }

    /// `exit`: tears down every vma of the process.
    pub fn exit(
        &mut self,
        engine: &mut CoherenceEngine,
        now: SimTime,
        pid: Pid,
    ) -> Result<(), SysError> {
        self.syscalls += 1;
        loop {
            let p = self.processes.get(slot(pid)).ok_or(SysError::NoProcess)?;
            let Some(oldest) = p.first else { break };
            self.munmap(engine, now, pid, oldest.base)?;
        }
        let mut blades = self.processes.remove(slot(pid)).expect("checked above").blades;
        blades.clear();
        self.spare_blades.push(blades);
        Ok(())
    }

    /// Looks up a process.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.processes.get(slot(pid))
    }

    /// The allocator (for fairness reporting).
    pub fn allocator(&self) -> &GlobalAllocator {
        &self.galloc
    }

    /// Migrates `range` to memory blade `to.blade` at physical offset
    /// `to.pa_base`: reserves the destination frames, tears down the
    /// range's coherence state so no stale copy outlives the move, installs
    /// outlier translation entries (§4.1), and logs the move until `munmap`
    /// undoes it. Returns the entries installed; `Fault` unless the range
    /// lies in one live vma, `NoMem` if a destination frame is taken or the
    /// TCAM is full.
    pub fn migrate(
        &mut self,
        engine: &mut CoherenceEngine,
        now: SimTime,
        range: Vma,
        to: OutlierTarget,
    ) -> Result<usize, SysError> {
        let vma = self.galloc.vma_at(range.base).ok_or(SysError::Fault)?;
        if range.end() > vma.end() {
            return Err(SysError::Fault);
        }
        if !self.galloc.reserve(to.blade, to.pa_base, range.len) {
            return Err(SysError::NoMem);
        }
        engine.reset_range(now, range.base, range.end());
        let installed = engine
            .translation
            .add_outlier(range.base, range.len, to.blade, to.pa_base);
        let Ok(pieces) = installed else {
            self.galloc.release(to.blade, to.pa_base, range.len);
            return Err(SysError::NoMem);
        };
        self.migrations.push((range, to));
        Ok(pieces)
    }

    /// The grant log the backup switch reconstructs protection from: every
    /// live vma of every process, in pid order, each process's in
    /// allocation order.
    pub fn grants(&self) -> impl Iterator<Item = GrantRecord> + '_ {
        self.processes.iter().flat_map(move |(id, p)| {
            p.mappings().map(move |m| {
                let reserved = self.galloc.reserved_size(m.base);
                GrantRecord {
                    pdid: id as Pid + 1,
                    vma: Vma::new(m.base, reserved.expect("a live vma is allocated")),
                    pc: m.pc,
                }
            })
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    use crate::cluster::MindConfig;
    use crate::system::AccessKind;

    /// A controller and engine over `n_compute` compute blades and
    /// `n_memory` memory blades of `span` bytes, with `slots` directory
    /// slots and as many TCAM rows.
    pub(crate) fn rig(n_compute: u16, n_memory: u16, span: u64, slots: usize) -> (Controller, CoherenceEngine, MindConfig) {
        let cfg = MindConfig {
            n_compute, n_memory, cache_pages: 1024, blade_span: span, memory_blade_bytes: span,
            dir_capacity: slots, rule_capacity: slots, ..Default::default()
        };
        (Controller::build(n_compute, n_memory, span, None), CoherenceEngine::new(&cfg), cfg)
    }

    fn setup() -> (Controller, CoherenceEngine) {
        let (ctl, eng, _) = rig(4, 2, 1 << 30, 1000);
        (ctl, eng)
    }

    #[test]
    fn exec_assigns_fresh_pids() {
        let (mut ctl, _) = setup();
        let a = ctl.exec();
        let b = ctl.exec();
        assert_ne!(a, b);
        assert_eq!(ctl.processes.iter().count(), 2);
        assert_eq!(ctl.syscalls, 2);
    }

    #[test]
    fn round_robin_thread_placement() {
        let (mut ctl, _) = setup();
        let pid = ctl.exec();
        let blades: Vec<u16> = (0..6).map(|_| ctl.place_thread(pid).unwrap()).collect();
        assert_eq!(blades, vec![0, 1, 2, 3, 0, 1]);
        // A refused placement leaves the cursor on blade 2.
        assert_eq!(ctl.place_thread(999), Err(SysError::NoProcess));
        assert_eq!(ctl.place_thread(pid), Ok(2));
    }

    #[test]
    fn unplace_thread_retires_one_registration() {
        let (mut ctl, _) = setup();
        let pid = ctl.exec();
        for _ in 0..5 {
            ctl.place_thread(pid).unwrap(); // Blades 0,1,2,3,0.
        }
        assert_eq!(ctl.unplace_thread(pid, 0), Ok(true));
        assert_eq!(ctl.process(pid).unwrap().blades, vec![0, 1, 2, 3]);
        assert_eq!(ctl.unplace_thread(pid, 0), Ok(true));
        assert_eq!(ctl.unplace_thread(pid, 0), Ok(false), "none left");
        assert_eq!(ctl.unplace_thread(999, 0), Err(SysError::NoProcess));
    }

    #[test]
    fn mmap_grants_protection_and_allocates() {
        let (mut ctl, mut eng) = setup();
        let pid = ctl.exec();
        let vma = ctl
            .mmap(&mut eng, pid, 1 << 20, PermClass::ReadWrite)
            .unwrap();
        assert_eq!(vma.len, 1 << 20);
        assert!(eng.protection.check(pid, vma.base, AccessKind::Write));
        assert!(
            !eng.protection.check(pid + 1, vma.base, AccessKind::Read),
            "other domains denied"
        );
        assert_eq!(ctl.grants().count(), 1);
    }

    #[test]
    fn mmap_in_confines_placement_to_slice() {
        let (mut ctl, mut eng) = setup();
        let pid = ctl.exec();
        for _ in 0..4 {
            let vma = ctl
                .mmap_in(&mut eng, pid, 1 << 20, PermClass::ReadWrite, 1..2)
                .unwrap();
            assert_eq!(ctl.allocator().blade_of(vma.base), Some(1));
        }
        assert_eq!(ctl.allocator().allocated_per_blade()[0], 0);
        // An exhausted slice reports ENOMEM even though other blades fit.
        let mut small = Controller::build(1, 2, 1 << 16, None);
        let pid = small.exec();
        small
            .mmap_in(&mut eng, pid, 1 << 16, PermClass::ReadWrite, 0..1)
            .unwrap();
        assert_eq!(
            small.mmap_in(&mut eng, pid, 4096, PermClass::ReadWrite, 0..1),
            Err(SysError::NoMem)
        );
    }

    #[test]
    fn mmap_unknown_process_fails() {
        let (mut ctl, mut eng) = setup();
        assert_eq!(
            ctl.mmap(&mut eng, 42, 4096, PermClass::ReadOnly),
            Err(SysError::NoProcess)
        );
    }

    #[test]
    fn munmap_revokes_and_frees() {
        let (mut ctl, mut eng) = setup();
        let pid = ctl.exec();
        let vma = ctl
            .mmap(&mut eng, pid, 1 << 16, PermClass::ReadWrite)
            .unwrap();
        // Touch a page so a directory entry exists.
        eng.access(SimTime::ZERO, 0, pid, vma.base, AccessKind::Write)
            .unwrap();
        assert!(eng.directory().region_of(vma.base).is_some());
        ctl.munmap(&mut eng, SimTime::from_millis(1), pid, vma.base)
            .unwrap();
        assert!(!eng.protection.check(pid, vma.base, AccessKind::Read));
        assert!(
            eng.directory().region_of(vma.base).is_none(),
            "directory entries torn down"
        );
        assert!(!eng.cache(0).contains(vma.base), "cached page dropped");
        assert_eq!(ctl.allocator().live_allocations(), 0);
    }

    #[test]
    fn mprotect_downgrades_permissions() {
        let (mut ctl, mut eng) = setup();
        let pid = ctl.exec();
        let vma = ctl.mmap(&mut eng, pid, 4096, PermClass::ReadWrite).unwrap();
        ctl.mprotect(&mut eng, SimTime::ZERO, pid, vma.base, PermClass::ReadOnly)
            .unwrap();
        assert!(eng.protection.check(pid, vma.base, AccessKind::Read));
        assert!(!eng.protection.check(pid, vma.base, AccessKind::Write));
    }

    #[test]
    fn exit_tears_down_everything() {
        let (mut ctl, mut eng) = setup();
        let pid = ctl.exec();
        ctl.mmap(&mut eng, pid, 4096, PermClass::ReadWrite).unwrap();
        ctl.mmap(&mut eng, pid, 1 << 16, PermClass::ReadOnly)
            .unwrap();
        ctl.exit(&mut eng, SimTime::ZERO, pid).unwrap();
        assert_eq!(ctl.processes.iter().count(), 0);
        assert_eq!(ctl.allocator().live_allocations(), 0);
        assert_eq!(ctl.grants().count(), 0);
    }

    #[test]
    fn vmas_unmap_in_any_order_and_the_grant_log_follows() {
        let (mut ctl, mut eng) = setup();
        let pid = ctl.exec();
        let v: Vec<u64> = (0..4)
            .map(|_| ctl.mmap(&mut eng, pid, 4096, PermClass::ReadWrite).unwrap().base)
            .collect();
        let now = SimTime::ZERO;
        ctl.munmap(&mut eng, now, pid, v[2]).unwrap();
        ctl.munmap(&mut eng, now, pid, v[0]).unwrap(); // The inline one.
        assert_eq!(ctl.munmap(&mut eng, now, pid, v[0]), Err(SysError::Fault));
        ctl.mprotect(&mut eng, now, pid, v[3], PermClass::ReadOnly).unwrap();
        let log: Vec<_> = ctl.grants().map(|g| (g.pdid, g.vma.base, g.pc)).collect();
        assert_eq!(
            log,
            [(pid, v[1], PermClass::ReadWrite), (pid, v[3], PermClass::ReadOnly)],
            "allocation order, current classes"
        );
        ctl.exit(&mut eng, now, pid).unwrap();
        assert_eq!(ctl.allocator().live_allocations(), 0);
    }

    #[test]
    fn an_exited_pid_is_issued_again_without_its_grants() {
        let (mut ctl, mut eng) = setup();
        let (old, kept) = (ctl.exec(), ctl.exec());
        let vma = ctl.mmap(&mut eng, old, 4096, PermClass::ReadWrite).unwrap();
        let live = ctl.mmap(&mut eng, kept, 4096, PermClass::ReadOnly).unwrap();
        ctl.exit(&mut eng, SimTime::ZERO, old).unwrap();
        let pid = ctl.exec();
        assert_eq!(pid, old, "the freed pid first");
        assert!(!eng.protection.check(pid, vma.base, AccessKind::Read));
        let log: Vec<_> = ctl.grants().map(|g| (g.pdid, g.vma.base)).collect();
        assert_eq!(log, [(kept, live.base)], "only live grants");
        assert_eq!(ctl.exec(), 3, "a new pid once none is free");
    }

    #[test]
    fn enomem_when_memory_exhausted() {
        let (mut ctl, mut eng, _) = rig(1, 1, 1 << 16, 100);
        let pid = ctl.exec();
        assert!(ctl
            .mmap(&mut eng, pid, 1 << 16, PermClass::ReadWrite)
            .is_ok());
        assert_eq!(
            ctl.mmap(&mut eng, pid, 4096, PermClass::ReadWrite),
            Err(SysError::NoMem)
        );
    }

    #[test]
    fn isolation_allocations_never_overlap_across_processes() {
        let (mut ctl, mut eng) = setup();
        let p1 = ctl.exec();
        let p2 = ctl.exec();
        let v1 = ctl
            .mmap(&mut eng, p1, 1 << 16, PermClass::ReadWrite)
            .unwrap();
        let v2 = ctl
            .mmap(&mut eng, p2, 1 << 16, PermClass::ReadWrite)
            .unwrap();
        let r1 = Vma::new(v1.base, ctl.allocator().reserved_size(v1.base).unwrap());
        let r2 = Vma::new(v2.base, ctl.allocator().reserved_size(v2.base).unwrap());
        assert!(!r1.overlaps(&r2), "single address space, disjoint vmas");
    }
}
