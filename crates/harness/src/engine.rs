//! The experiment engine: executes a scenario table across worker threads
//! with results collected by scenario index, so parallel output is
//! byte-identical to a serial run.
//!
//! Determinism argument: each scenario builds its own system and workload
//! from pure-data specs *inside* the worker, shares no state with other
//! scenarios, and the simulation itself is a pure function of its
//! configuration and seeds. Threads only decide *when* a scenario runs,
//! never *what* it computes; reassembling results by index erases the
//! scheduling order. `n` workers are the calling thread plus `n − 1`
//! scoped threads ([`mind_sim::pool::run_lanes`]); one worker is the
//! same loop on the caller alone, the serial reference ordering the
//! determinism tests compare against. A scenario that runs a
//! sharded replay inside a worker brings its own lane count
//! (`mind_workloads::shard`); the two counts multiply.

use std::sync::Mutex;

use crate::scenario::{Scenario, ScenarioResult};

/// Executes scenario tables.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    threads: usize,
}

impl Engine {
    /// An engine with an explicit worker count (min 1), the caller
    /// included.
    pub fn new(threads: usize) -> Self {
        Engine {
            threads: threads.max(1),
        }
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
        // Workers take scenarios off the table's own iterator and write
        // each result into the slot of its index: output order is the
        // table order, not completion order.
        let jobs = Mutex::new(scenarios.into_iter().enumerate());
        let slots = Mutex::new((0..n).map(|_| None).collect::<Vec<_>>());
        mind_sim::pool::run_lanes(self.threads.min(n), || loop {
            let Some((i, job)) = jobs.lock().expect("no panic holds the jobs").next() else {
                break;
            };
            let _t = mind_obs::profile::scope("engine.scenario");
            let result = job.execute();
            drop(_t);
            slots.lock().expect("no panic holds the slots")[i] = Some(result);
        });
        slots
            .into_inner()
            .expect("workers joined")
            .into_iter()
            .map(|slot| slot.expect("every scenario executed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioOutput;
    use std::sync::{Arc, Barrier};
    use std::thread::{self, ThreadId};

    fn table(n: usize) -> Vec<Scenario> {
        (0..n)
            .map(|i| {
                Scenario::custom(format!("s{i}"), move |_| {
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

    /// The threads that ran each of `n` scenarios on `threads` workers;
    /// with `meet`, a scenario waits until the other one has started too,
    /// so two workers must hold a scenario each at once.
    fn scenario_threads(threads: usize, n: usize, meet: bool) -> Vec<ThreadId> {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(Barrier::new(2));
        let table = (0..n)
            .map(|i| {
                let (ran, barrier) = (ran.clone(), barrier.clone());
                Scenario::custom(format!("s{i}"), move |_| {
                    ran.lock().unwrap().push(thread::current().id());
                    if meet {
                        barrier.wait();
                    }
                    ScenarioOutput::default()
                })
            })
            .collect();
        Engine::new(threads).run(table);
        Arc::into_inner(ran).unwrap().into_inner().unwrap()
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        let caller = thread::current().id();
        let two = scenario_threads(2, 2, true);
        assert_eq!(two.len(), 2);
        assert_eq!(two.iter().filter(|&&t| t == caller).count(), 1, "{two:?}");
        for (threads, n) in [(1, 4), (4, 1)] {
            let ran = scenario_threads(threads, n, false);
            assert!(ran.iter().all(|&t| t == caller), "{threads} workers, {n} scenarios");
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
}
