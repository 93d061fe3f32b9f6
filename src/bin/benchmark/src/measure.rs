//! The end-to-end run of one workload: checked set-ups, then timed
//! repetitions for a fixed number of seconds, tracing off.
//!
//! Discipline, identical on every commit: one process, one thread (shard
//! lanes and engine workers are pinned to 1), one workload per process so
//! that RSS and allocator state never depend on what ran before.
//!
//! A seed expands to `STREAMS` input streams and the repetitions take them
//! in turn. One stream makes a run's numbers hang on accidents of that
//! stream (which pages collide, where a hash map doubles: up to 20 % in
//! RSS and host rate between neighbouring seeds); a median over several
//! streams moves far less from seed to seed.

use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mind::obs::{mem, TraceMode};

use crate::clock::Stopwatch;
use crate::spans::Spans;
use crate::workloads::{round_trip_check, Output, Workload};

/// Input streams one `--seed` expands to.
pub const STREAMS: usize = 8;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Timed repetitions a run makes at least, however short `--seconds` is:
/// two per stream, so that every stream's digest is checked to repeat.
pub const MIN_REPS: usize = 2 * STREAMS;
/// Share of CPU time on other threads above which the host metrics, which
/// count the measuring thread only, no longer describe the run.
const MAX_HELPER_SHARE: f64 = 0.1;

/// Generator seed of stream `i` of `--seed seed`. Distinct seeds share no
/// stream.
pub fn stream_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(STREAMS as u64)
        .wrapping_add((i % STREAMS) as u64)
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Distance between the quartiles as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so that spreads computed here match the ones
/// the acceptance procedure computes.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    match m {
        0 => Summary::default(),
        1 => Summary {
            n: 1,
            min: v[0],
            q1: v[0],
            median: v[0],
            q3: v[0],
            max: v[0],
        },
        _ => {
            let cut = |i: usize| {
                let j = (i * (m + 1) / 4).clamp(1, m - 1);
                let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Summary {
                n: m,
                min: v[0],
                q1: cut(1),
                median: cut(2),
                q3: cut(3),
                max: v[m - 1],
            }
        }
    }
}

/// One repetition with its host cost.
pub struct Timed {
    pub output: Output,
    /// Host seconds (see `clock.rs`).
    pub host_s: f64,
    pub allocs: u64,
}

/// Runs one repetition on input stream `stream` of `seed`, timing it from
/// outside. A panic inside the program is caught and returned as `None`: the
/// caller counts every operation of that repetition as failed.
pub fn timed_repetition(
    w: &Workload,
    seed: u64,
    stream: usize,
    trace: TraceMode,
    spans: &mut Spans,
) -> Option<Timed> {
    let seed = stream_seed(seed, stream);
    let (allocs_before, _) = mem::alloc_counts();
    let watch = Stopwatch::start();
    let output = catch_unwind(AssertUnwindSafe(|| w.repetition(seed, trace, spans))).ok()?;
    let host_s = watch.host_s();
    let (allocs_after, _) = mem::alloc_counts();
    Some(Timed {
        output,
        host_s,
        allocs: allocs_after - allocs_before,
    })
}

/// The output check: every repetition of a stream must simulate the same
/// thing and satisfy the accounting identities. Violations are collected,
/// not fatal, so that one run reports all of them.
#[derive(Default)]
pub struct Checker {
    digests: [Option<u64>; STREAMS],
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Checker {
    /// Folds one repetition of `stream` in and returns the operations it
    /// executed.
    pub fn fold(&mut self, w: &Workload, stream: usize, rep: Option<&Output>) -> u64 {
        let (measured, warmup) = w.replay_ops().map_or((None, 0), |(m, wu)| (Some(m), wu));
        let Some(output) = rep else {
            // The repetition panicked: all of its operations failed.
            let lost = measured.map_or(1, |m| m + warmup);
            self.attempted += lost;
            self.failed += lost;
            self.violations.push("a repetition panicked".to_string());
            return 0;
        };
        let executed = output.executed_ops(warmup);
        self.attempted += executed;
        if let Err(e) = output.conservation(measured) {
            self.violations.push(e);
        }
        self.fold_digest(stream, output.digest());
        executed
    }

    pub fn fold_digest(&mut self, stream: usize, digest: u64) {
        match self.digests[stream % STREAMS] {
            None => self.digests[stream % STREAMS] = Some(digest),
            Some(first) if first != digest => self.violations.push(format!(
                "stream {stream}: sim_digest {digest:016x} differs from its first repetition's {first:016x}"
            )),
            Some(_) => {}
        }
    }

    /// `sim_digest`: the streams' digests hashed in order. Equal on two
    /// commits exactly when simulated behaviour is unchanged on every
    /// stream that ran.
    pub fn digest(&self) -> u64 {
        let mut h = mind::sim::hash::FastHasher::default();
        for d in self.digests.iter().flatten() {
            h.write_u64(*d);
        }
        h.finish()
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }
}

/// Checks that do not depend on a repetition: the cross-blade data round
/// trip, and for the sharded workload that two worker lanes replay the
/// same thing as one (skipped on a single-core host).
pub fn one_time_checks(w: &Workload, seed: u64, checker: &mut Checker) {
    if let Err(e) = round_trip_check(seed) {
        checker.violations.push(e);
    }
    if mind::sim::env::available_parallelism() >= 2 {
        if let Some(two_lanes) = w.sharded_digest(stream_seed(seed, 0), 2) {
            checker.fold_digest(0, two_lanes);
        }
    }
}

pub struct EndToEnd {
    pub checker: Checker,
    pub reps: usize,
    pub setup_s: Summary,
    /// Per-repetition host rate, thousand simulated ops per host second.
    pub kops: Summary,
    pub allocs_per_kop: Summary,
    pub peak_rss_mb: f64,
    /// Mean over the streams; each stream's value is exact.
    pub sim_mops: f64,
    /// The worst stream's.
    pub sim_p99_ns: u64,
}

impl EndToEnd {
    /// The end-to-end metrics by name, in `names::END_TO_END` order.
    ///
    /// `host_kops` is the median repetition's rate. Host noise is one-sided,
    /// which argues for the fastest repetition, but its bursts outlast a run:
    /// measured over ten runs the fastest repetition moved more from run to
    /// run (10-14 %) than the median of a few dozen (8-12 %).
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("host_kops", self.kops.median),
            ("setup_s", self.setup_s.median),
            ("peak_rss_mb", self.peak_rss_mb),
            ("allocs_per_kop", self.allocs_per_kop.median),
            ("sim_mops", self.sim_mops),
        ]
    }

    /// The per-repetition distributions behind the host metrics, by metric
    /// name, so that a result shows how steady the run itself was.
    pub fn spreads(&self) -> [(&'static str, &Summary); 3] {
        [
            ("host_kops", &self.kops),
            ("setup_s", &self.setup_s),
            ("allocs_per_kop", &self.allocs_per_kop),
        ]
    }
}

/// Puts glibc's adaptive `mmap`/trim thresholds in their end state before
/// anything is measured: freeing one block just under the 32 MiB cap raises
/// both to their maximum, after which every smaller block comes from the heap
/// and stays there. Left to adapt on their own, the thresholds settle
/// wherever the first large frees of a stream happen to push them, and
/// `tenant_shards` peaked at 11.4 or 14.4 MiB depending on the seed (18 %
/// spread); pinned, it peaks at 25 MiB on every seed (1.5 %). The block is
/// never touched, so it costs no resident memory; other allocators ignore it.
fn pin_allocator_thresholds() {
    drop(std::hint::black_box(vec![0u8; (32 << 20) - (64 << 10)]));
}

pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> EndToEnd {
    pin_allocator_thresholds();
    let mut spans = Spans::disabled();
    let mut checker = Checker::default();
    one_time_checks(w, seed, &mut checker);
    // Repetitions take the streams in turn, set-ups included.
    let mut turn = 0usize;

    // Set-up: everything between entering the workload and the first timed
    // repetition, i.e. a first, checked repetition. Repeated because one
    // reading of a few hundred milliseconds is too noisy to bound.
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let watch = Stopwatch::start();
        let rep = timed_repetition(w, seed, turn, TraceMode::Off, &mut spans);
        checker.fold(w, turn, rep.as_ref().map(|r| &r.output));
        setup_s.push(watch.host_s());
        turn += 1;
    }

    // VmHWM from here on is the high-water mark of the timed repetitions
    // alone; where the platform has no such counter the metric reads the
    // current RSS instead of 0 (an end-to-end metric is never 0).
    mem::reset_peak_rss();
    let mut kops = Vec::new();
    let mut allocs_per_kop = Vec::new();
    let mut sim: [Option<(f64, u64)>; STREAMS] = [None; STREAMS];
    let mut panics = 0;
    let phase = Stopwatch::start();
    while kops.len() < MIN_REPS || phase.wall_s() < seconds {
        let rep = timed_repetition(w, seed, turn, TraceMode::Off, &mut spans);
        let executed = checker.fold(w, turn, rep.as_ref().map(|r| &r.output));
        if let Some(rep) = rep {
            kops.push(executed as f64 / rep.host_s / 1e3);
            allocs_per_kop.push(rep.allocs as f64 * 1e3 / executed as f64);
            sim[turn % STREAMS] = Some((rep.output.sim_mops(), rep.output.sim_p99_ns()));
        } else {
            panics += 1;
            if panics > MIN_REPS {
                break; // A program that panics every time must not spin here.
            }
        }
        turn += 1;
    }
    let peak = mem::peak_rss_bytes()
        .or_else(mem::current_rss_bytes)
        .unwrap_or(0);
    if let Some(share) = phase
        .helper_thread_share()
        .filter(|&s| s > MAX_HELPER_SHARE)
    {
        checker.violations.push(format!(
            "{:.0} % of the CPU time ran on other threads, which host_kops does not count",
            share * 100.0
        ));
    }

    let ran: Vec<(f64, u64)> = sim.iter().flatten().copied().collect();
    EndToEnd {
        reps: kops.len(),
        checker,
        setup_s: summarize(&setup_s),
        kops: summarize(&kops),
        allocs_per_kop: summarize(&allocs_per_kop),
        peak_rss_mb: peak as f64 / (1u64 << 20) as f64,
        sim_mops: ran.iter().map(|r| r.0).sum::<f64>() / ran.len().max(1) as f64,
        sim_p99_ns: ran.iter().map(|r| r.1).max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&[3.0, 1.0, 2.0, 10.0, 9.0, 4.0, 8.0, 5.0, 7.0, 6.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.min, 1.0);
        assert!((s.iqr_share() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = summarize(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let s = summarize(&[1.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
    }

    #[test]
    fn a_forced_digest_mismatch_fails_the_check() {
        let w = Workload::tiny("resident_hits").unwrap();
        let mut checker = Checker::default();
        let a = w.repetition(1, TraceMode::Off, &mut Spans::disabled());
        let b = w.repetition(2, TraceMode::Off, &mut Spans::disabled());
        checker.fold(&w, 0, Some(&a));
        checker.fold(&w, 0, Some(&a));
        checker.fold(&w, 1, Some(&b));
        assert!(checker.correct(), "each stream repeating itself passes");
        let both = checker.digest();
        checker.fold(&w, 0, Some(&b));
        assert!(!checker.correct());
        assert!(checker.violations[0].contains("sim_digest"));
        assert_eq!(
            checker.digest(),
            both,
            "the first repetition's digest stands"
        );
    }

    #[test]
    fn a_panicked_repetition_counts_all_its_operations_failed() {
        let w = Workload::tiny("remote_faults").unwrap();
        let mut checker = Checker::default();
        checker.fold(&w, 0, None);
        let (measured, warmup) = w.replay_ops().unwrap();
        assert_eq!(checker.failed, measured + warmup);
        assert_eq!(checker.attempted, checker.failed);
        assert!(!checker.correct());
    }

    #[test]
    fn a_short_run_reports_every_end_to_end_metric_nonzero() {
        let w = Workload::tiny("contended_writes").unwrap();
        let run = end_to_end(&w, 3, 0.0);
        // The other tests' threads share this process, so the check on CPU
        // time spent off the measuring thread may fire here; nothing else may.
        let violations = &run.checker.violations;
        assert!(
            violations.iter().all(|v| v.contains("other threads")),
            "{violations:?}"
        );
        assert_eq!(run.reps, MIN_REPS);
        assert_ne!(
            run.checker.digest(),
            end_to_end(&w, 4, 0.0).checker.digest(),
            "another seed, other streams"
        );
        let names: Vec<&str> = crate::names::END_TO_END.iter().map(|m| m.name).collect();
        let metrics = run.metrics();
        assert_eq!(metrics.iter().map(|(n, _)| *n).collect::<Vec<_>>(), names);
        assert!(metrics.iter().all(|(_, v)| *v > 0.0), "{metrics:?}");
    }
}
