//! The workspace's one thread-pool shape: the calling thread is a lane.
//!
//! The shard executor (`mind_workloads::shard::run_sharded_threads`) and
//! the harness engine (`mind_harness::Engine`) both run one loop on `n`
//! lanes that claim work from a shared source until it is empty. An
//! `n`-lane pool is the caller plus `n − 1` scoped threads, so the caller
//! never sits idle in a join, and a one-lane pool is the same loop on the
//! caller, not a second code path. Under glibc a spawned thread that
//! allocates gets a malloc arena of its own, which stays resident after
//! the thread exits; a pool that spawns one thread fewer leaves one arena
//! fewer.

/// Runs `lane` on `lanes` lanes, clamped to at least one, and returns
/// once every lane has returned: the caller runs it, and `lanes − 1`
/// scoped threads run it beside the caller. One lane calls `lane` on the
/// caller and opens no `std::thread::scope`, so it spawns and allocates
/// nothing.
pub fn run_lanes(lanes: usize, lane: impl Fn() + Sync) {
    if lanes <= 1 {
        return lane();
    }
    std::thread::scope(|scope| {
        for _ in 1..lanes {
            scope.spawn(&lane);
        }
        lane();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread;

    #[test]
    fn n_lanes_are_the_caller_and_n_minus_one_threads() {
        let caller = thread::current().id();
        for lanes in [0, 1, 2, 4] {
            let threads = Mutex::new(Vec::new());
            run_lanes(lanes, || threads.lock().unwrap().push(thread::current().id()));
            let threads = threads.into_inner().unwrap();
            assert_eq!(threads.len(), lanes.max(1), "{lanes} lanes");
            assert_eq!(threads.iter().filter(|&&t| t == caller).count(), 1, "{lanes} lanes");
            let distinct: HashSet<_> = threads.into_iter().collect();
            assert_eq!(distinct.len(), lanes.max(1), "every lane on its own thread");
        }
    }
}
