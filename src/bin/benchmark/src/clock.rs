//! The clock the end-to-end host metrics are read from.
//!
//! Host seconds here are seconds the measuring thread spent on a CPU, not
//! wall seconds. The sandbox is a small virtual machine on a shared host:
//! the hypervisor takes 10-15 % of wall time away in bursts that last
//! longer than a run, so wall readings of identical runs differ by more
//! than any bound worth setting, while the thread's own CPU time leaves
//! most of that out. Every workload is single-threaded by construction
//! (one engine worker, one shard lane), so on a quiet host the two clocks
//! agree; `helper_thread_share` checks that nothing ran elsewhere.

use std::time::Instant;

/// Nanoseconds the calling thread has run on a CPU (first field of
/// `/proc/thread-self/schedstat`). `None` where the kernel has no such file.
fn thread_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// User plus system CPU seconds of the whole process, every thread that ever
/// ran in it, in clock ticks of 10 ms (fields 14 and 15 of `/proc/self/stat`).
fn process_cpu_s() -> Option<f64> {
    const TICKS_PER_SECOND: f64 = 100.0; // USER_HZ, fixed by the /proc ABI
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name, field 2, may hold spaces; fields count from its ')'.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

#[derive(Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    thread_ns: Option<u64>,
    process_s: Option<f64>,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            process_s: process_cpu_s(),
            thread_ns: thread_cpu_ns(),
            wall: Instant::now(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Host seconds since the start: this thread's CPU seconds, or wall
    /// seconds on a platform without per-thread accounting.
    pub fn host_s(&self) -> f64 {
        let wall = self.wall_s();
        match (self.thread_ns, thread_cpu_ns()) {
            (Some(then), Some(now)) if now > then => (now - then) as f64 / 1e9,
            _ => wall,
        }
    }

    /// Share of the process's CPU time since the start that other threads
    /// than this one spent. The host metrics count this thread only, so a
    /// large share means they understate the program's cost. Resolution is
    /// one 10 ms tick; `None` where `/proc` does not say.
    pub fn helper_thread_share(&self) -> Option<f64> {
        let process = process_cpu_s()? - self.process_s?;
        let thread = (thread_cpu_ns()? - self.thread_ns?) as f64 / 1e9;
        (process > 0.0).then(|| ((process - thread) / process).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u128) -> u64 {
        let start = Instant::now();
        let mut x = 1u64;
        while start.elapsed().as_millis() < ms {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        x
    }

    #[test]
    fn host_seconds_advance_with_work_and_stay_below_wall() {
        let watch = Stopwatch::start();
        spin(30);
        let (host, wall) = (watch.host_s(), watch.wall_s());
        assert!(host > 0.005, "{host}");
        assert!(host <= wall * 1.05 + 0.001, "cpu {host} > wall {wall}");
    }

    #[test]
    fn work_on_another_thread_shows_as_helper_share() {
        let watch = Stopwatch::start();
        std::thread::scope(|s| {
            s.spawn(|| spin(120));
        });
        // Other tests' threads run in this process too; they only add to it.
        if let Some(share) = watch.helper_thread_share() {
            assert!(share > 0.5, "{share}");
        }
    }
}
