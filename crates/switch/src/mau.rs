//! Match-action units with limited per-packet compute.
//!
//! A single MAU in today's switch ASICs cannot (i) look up a directory
//! entry, (ii) determine the transition from the current state and the
//! request, and (iii) update the entry, all in one pass (paper §6.3). MIND
//! therefore splits (i)–(ii) across two MAUs — the second holding a
//! *materialized state-transition table* — and performs (iii) by
//! recirculating the packet back to the first MAU. This module models the
//! MAU op budget and the exact-match table container used for the STT.

use std::collections::HashMap;

/// Error: a packet program exceeded the MAU's per-packet op budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpBudgetExceeded {
    /// Ops the program needed.
    pub needed: u32,
    /// Ops the MAU offers per packet.
    pub budget: u32,
}

impl std::fmt::Display for OpBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MAU op budget exceeded: needed {} of {}",
            self.needed, self.budget
        )
    }
}

impl std::error::Error for OpBudgetExceeded {}

/// One match-action stage.
///
/// The op budget is deliberately small (RMT stages execute a handful of ALU
/// ops per packet); MIND's per-stage programs must fit or the pipeline
/// design is invalid. [`MauStage::execute`] enforces this at "compile time"
/// of the simulated program.
#[derive(Debug, Clone)]
pub struct MauStage {
    op_budget: u32,
}

impl MauStage {
    /// Default per-packet ALU op budget of an RMT stage.
    pub const DEFAULT_OP_BUDGET: u32 = 4;

    /// Creates a stage offering `op_budget` ALU ops per packet.
    pub fn new(op_budget: u32) -> Self {
        MauStage { op_budget }
    }

    /// Runs a packet program consuming `ops` ALU operations.
    pub fn execute(&self, ops: u32) -> Result<(), OpBudgetExceeded> {
        if ops > self.op_budget {
            return Err(OpBudgetExceeded {
                needed: ops,
                budget: self.op_budget,
            });
        }
        Ok(())
    }
}

/// A capacity-limited exact-match table (SRAM-backed), e.g. MIND's
/// materialized state-transition table.
///
/// Explicitly storing all `(state, request) → (actions, next state)` rows
/// trades data-plane memory for the compute an MAU lacks (§6.3).
#[derive(Debug, Clone)]
pub struct ExactTable<K, V> {
    name: &'static str,
    entries: HashMap<K, V>,
    capacity: usize,
}

/// Error: the exact-match table is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFull;

impl std::fmt::Display for TableFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exact-match table capacity exhausted")
    }
}

impl std::error::Error for TableFull {}

impl<K: std::hash::Hash + Eq, V> ExactTable<K, V> {
    /// Creates a table with the given capacity.
    pub fn new(name: &'static str, capacity: usize) -> Self {
        ExactTable {
            name,
            entries: HashMap::new(),
            capacity,
        }
    }

    /// Table name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Installs a row; replaces an existing row for the same key.
    pub fn insert(&mut self, key: K, value: V) -> Result<Option<V>, TableFull> {
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            return Err(TableFull);
        }
        Ok(self.entries.insert(key, value))
    }

    /// Looks up a row.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key)
    }

    /// Removes a row.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key)
    }

    /// Rows installed.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_enforces_op_budget() {
        let mau = MauStage::new(MauStage::DEFAULT_OP_BUDGET);
        assert!(mau.execute(3).is_ok());
        assert!(mau.execute(4).is_ok());
        let err = mau.execute(5).unwrap_err();
        assert_eq!(err.needed, 5);
        assert_eq!(err.budget, 4);
    }

    #[test]
    fn single_mau_cannot_do_full_transition() {
        // Lookup (1 op) + state-transition decision (3 ops) + entry update
        // (2 ops) = 6 ops: more than one RMT stage offers. This is the
        // hardware fact that forces MIND's two-MAU + recirculation design.
        let mau = MauStage::new(MauStage::DEFAULT_OP_BUDGET);
        assert!(mau.execute(6).is_err());
        // Split across two stages + recirculated update, each fits.
        let (lookup, stt) = (mau.clone(), mau);
        assert!(lookup.execute(1).is_ok());
        assert!(stt.execute(3).is_ok());
        assert!(lookup.execute(2).is_ok()); // Recirculated update pass.
    }

    #[test]
    fn exact_table_insert_get_remove() {
        let mut t: ExactTable<(u8, u8), &str> = ExactTable::new("stt", 8);
        t.insert((0, 1), "I+read->S").unwrap();
        assert_eq!(t.get(&(0, 1)), Some(&"I+read->S"));
        assert_eq!(t.remove(&(0, 1)), Some("I+read->S"));
        assert!(t.is_empty());
    }

    #[test]
    fn exact_table_capacity() {
        let mut t: ExactTable<u32, ()> = ExactTable::new("t", 2);
        t.insert(1, ()).unwrap();
        t.insert(2, ()).unwrap();
        assert_eq!(t.insert(3, ()), Err(TableFull));
        // Overwrite of an existing key is allowed at capacity.
        assert!(t.insert(1, ()).is_ok());
        assert_eq!(t.len(), 2);
        assert_eq!(t.capacity(), 2);
        assert_eq!(t.name(), "t");
    }
}
