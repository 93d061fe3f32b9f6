//! Trace representation shared by all workloads.

use mind_core::system::AccessKind;

/// One memory operation in a workload trace, addressed relative to a
/// workload region (the runner resolves regions to system-assigned bases so
/// every compared system replays identical addresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Index into the workload's region table.
    pub region: u16,
    /// Byte offset within the region.
    pub offset: u64,
    /// LOAD or STORE.
    pub kind: AccessKind,
}

/// A deterministic workload generator.
///
/// Generators produce each thread's next operation on demand; all
/// randomness derives from per-thread forks of a seed RNG, so the operation
/// stream of a thread is independent of global interleaving — the property
/// that makes cross-system comparisons exact.
///
/// `Send` is a supertrait so a whole replay — generator included — can be
/// moved onto a worker thread: the multi-core sharded executor advances
/// each shard's sub-cluster (and the partition workloads it owns) on its
/// own OS thread. Generators are plain owned state (forked RNGs, cursors,
/// configs), so this costs implementors nothing.
pub trait Workload: Send {
    /// Name for reports ("TF", "GC", "MA", "MC", ...). Owned so
    /// parameterized workloads can carry their sweep parameters (e.g.
    /// `micro(r=0.5,s=1)`) into the report instead of a shared static label.
    fn name(&self) -> String;

    /// Region sizes in bytes, allocated once by the runner before replay.
    fn regions(&self) -> Vec<u64>;

    /// Number of threads the workload drives.
    fn n_threads(&self) -> u16;

    /// The next operation for `thread`.
    fn next_op(&mut self, thread: u16) -> TraceOp;

    /// Appends `thread`'s next `n` operations to `out` — the batched form
    /// a scheduling turn is generated with.
    ///
    /// The default implementation loops [`Workload::next_op`]; overrides
    /// may hoist per-op work (RNG borrows, config reads) out of the loop
    /// but **must** produce the exact op stream of `n` scalar calls —
    /// batch size must never change what a thread executes.
    fn fill_ops(&mut self, thread: u16, n: usize, out: &mut Vec<TraceOp>) {
        out.reserve(n);
        for _ in 0..n {
            out.push(self.next_op(thread));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_op_holds_fields() {
        let op = TraceOp {
            region: 2,
            offset: 0x1234,
            kind: AccessKind::Write,
        };
        assert_eq!(op.region, 2);
        assert!(op.kind.is_write());
    }
}
