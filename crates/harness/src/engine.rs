//! The experiment engine: executes a scenario table across worker threads
//! with results collected by scenario index, so parallel output is
//! byte-identical to a serial run.
//!
//! Determinism argument: each scenario builds its own system and workload
//! from pure-data specs *inside* the worker, shares no state with other
//! scenarios, and the simulation itself is a pure function of its
//! configuration and seeds. Threads only decide *when* a scenario runs,
//! never *what* it computes; reassembling results by index erases the
//! scheduling order. `MIND_THREADS=1` forces a serial run (the reference
//! ordering the determinism tests compare against). A scenario that runs a
//! sharded replay inside a worker brings its own lane count
//! (`mind_workloads::shard`); the two counts multiply.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::scenario::{Scenario, ScenarioResult};

/// Executes scenario tables.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    threads: usize,
}

impl Engine {
    /// An engine with an explicit worker count (min 1).
    pub fn new(threads: usize) -> Self {
        Engine {
            threads: threads.max(1),
        }
    }

    /// An engine sized from the environment: `MIND_THREADS` if set and
    /// parseable, otherwise `std::thread::available_parallelism`
    /// (the [`mind_sim::env::threads`] policy).
    pub fn from_env() -> Self {
        Engine::new(mind_sim::env::threads())
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes every scenario and returns results in table order. With
    /// `MIND_PROFILE` set, per-scenario and whole-table wall times
    /// accumulate under `engine.scenario` / `engine.table` and are
    /// printed to stderr when the table completes.
    pub fn run(&self, scenarios: Vec<Scenario>) -> Vec<ScenarioResult> {
        let results = self.run_inner(scenarios);
        mind_obs::profile::report_stderr("engine");
        results
    }

    fn run_inner(&self, scenarios: Vec<Scenario>) -> Vec<ScenarioResult> {
        let _table_timer = mind_obs::profile::scope("engine.table");
        let n = scenarios.len();
        if self.threads == 1 || n <= 1 {
            return scenarios
                .iter()
                .map(|s| {
                    let _t = mind_obs::profile::scope("engine.scenario");
                    s.execute()
                })
                .collect();
        }

        // Work-stealing by index: a shared cursor hands out scenarios, and
        // each worker writes its result into the slot of the scenario's
        // index — output order is the table order, not completion order.
        let jobs: Vec<Mutex<Option<Scenario>>> =
            scenarios.into_iter().map(|s| Mutex::new(Some(s))).collect();
        let slots: Vec<Mutex<Option<ScenarioResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = jobs[i].lock().unwrap().take().expect("job taken once");
                    let _t = mind_obs::profile::scope("engine.scenario");
                    let result = job.execute();
                    drop(_t);
                    *slots[i].lock().unwrap() = Some(result);
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every scenario executed")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioOutput;

    fn table(n: usize) -> Vec<Scenario> {
        (0..n)
            .map(|i| {
                Scenario::custom(format!("s{i}"), move || {
                    // Uneven work so completion order differs from table
                    // order under parallel execution.
                    let spin = (n - i) * 10_000;
                    let mut acc = 0u64;
                    for k in 0..spin as u64 {
                        acc = acc.wrapping_mul(31).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                    ScenarioOutput::default().value("i", i as f64)
                })
            })
            .collect()
    }

    #[test]
    fn results_come_back_in_table_order() {
        for threads in [1, 2, 8] {
            let results = Engine::new(threads).run(table(16));
            for (i, r) in results.iter().enumerate() {
                assert_eq!(r.name, format!("s{i}"));
                assert_eq!(r.value("i"), i as f64);
            }
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Engine::new(0).threads(), 1);
    }

    #[test]
    fn empty_table_is_fine() {
        assert!(Engine::new(4).run(Vec::new()).is_empty());
    }

    #[test]
    fn env_policy_parses_mind_threads() {
        // The parse policy itself lives (and is unit-tested) in
        // `mind_sim::env`; this pins the engine to it.
        assert_eq!(mind_sim::env::parse_threads(Some("3")), 3);
        assert!(mind_sim::env::parse_threads(None) >= 1);
    }
}
