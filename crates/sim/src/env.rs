//! Typed access to the workspace's environment knobs.
//!
//! Every `MIND_*` environment variable the workspace honours is parsed
//! here, in one place, with one policy per knob — instead of ad-hoc
//! `std::env::var` calls scattered across the harness engine, the shard
//! executor, and the thread budget. Each accessor comes in two layers: a
//! pure `parse_*` function over an `Option<&str>` (unit-tested without
//! touching process state) and a thin reader that applies it to the
//! process environment.
//!
//! Knobs that configure process-wide singletons ([`trace_level`],
//! [`profile_enabled`]) are read once and cached: the observability layer
//! consults them on hot paths, and a mid-process flip could never apply
//! retroactively anyway. Worker-count knobs are re-read on each call,
//! matching their historical semantics (each `Engine::from_env` or
//! `run_sharded` invocation sees the current environment).

use std::sync::OnceLock;

/// Harness engine worker count (`mind_harness::Engine::from_env`).
pub const THREADS_ENV: &str = "MIND_THREADS";
/// Shard-executor OS-thread override (`mind_workloads::shard`).
pub const SHARD_THREADS_ENV: &str = "MIND_SHARD_THREADS";
/// Process-wide thread-budget total ([`crate::threads::budget`]).
pub const BUDGET_ENV: &str = "MIND_THREAD_BUDGET";
/// Trace level for the observability layer (`mind_obs`).
pub const TRACE_ENV: &str = "MIND_TRACE";
/// Wall-clock self-profiling switch (`mind_obs::profile`).
pub const PROFILE_ENV: &str = "MIND_PROFILE";
/// Output directory for `BENCH_*.json` / `TRACE_*.json` reports.
pub const BENCH_DIR_ENV: &str = "MIND_BENCH_DIR";

/// Whether the deterministic trace layer records.
///
/// Everything recorded at [`On`] is *grouping-invariant* — the same
/// events with the same virtual timestamps regardless of `MIND_THREADS`,
/// `MIND_SHARD_THREADS`, or the shard count — so rendered traces are
/// byte-identical across every execution cell.
///
/// [`On`]: TraceLevel::On
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// No events recorded; the instrumented paths reduce to a branch.
    #[default]
    Off,
    /// The grouping-invariant event set (datapath, window, service).
    On,
}

impl TraceLevel {
    /// Whether any tracing is active.
    pub fn enabled(self) -> bool {
        self != TraceLevel::Off
    }
}

/// Parses a positive integer knob; `None` when absent, unparseable, or
/// zero.
fn parse_positive(var: Option<&str>) -> Option<usize> {
    var.and_then(|s| s.trim().parse::<usize>().ok()).filter(|&n| n > 0)
}

/// The machine's available parallelism (1 when undeterminable).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Parse policy for [`THREADS_ENV`]: the positive integer, else the
/// machine's available parallelism.
pub fn parse_threads(var: Option<&str>) -> usize {
    parse_positive(var).unwrap_or_else(available_parallelism)
}

/// Harness worker count from the environment.
pub fn threads() -> usize {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref())
}

/// Parse policy for [`SHARD_THREADS_ENV`]: an explicit positive override,
/// else `None` (the shard executor then negotiates politely with the
/// thread budget).
pub fn parse_shard_threads(var: Option<&str>) -> Option<usize> {
    parse_positive(var)
}

/// Shard-executor OS-thread override from the environment.
pub fn shard_threads() -> Option<usize> {
    parse_shard_threads(std::env::var(SHARD_THREADS_ENV).ok().as_deref())
}

/// Parse policy for [`BUDGET_ENV`]: the positive integer, else the
/// machine's available parallelism.
pub fn parse_thread_budget(var: Option<&str>) -> usize {
    parse_positive(var).unwrap_or_else(available_parallelism)
}

/// Thread-budget total from the environment.
pub fn thread_budget() -> usize {
    parse_thread_budget(std::env::var(BUDGET_ENV).ok().as_deref())
}

/// Parse policy for [`TRACE_ENV`]: `1`/`on`/`true` enable the
/// grouping-invariant set, everything else (including absence) is off.
pub fn parse_trace_level(var: Option<&str>) -> TraceLevel {
    match var.map(|s| s.trim().to_ascii_lowercase()).as_deref() {
        Some("1") | Some("on") | Some("true") => TraceLevel::On,
        _ => TraceLevel::Off,
    }
}

/// Trace level from the environment, read once per process and cached
/// (the hot-path gate must be a load, not a syscall).
pub fn trace_level() -> TraceLevel {
    static LEVEL: OnceLock<TraceLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| parse_trace_level(std::env::var(TRACE_ENV).ok().as_deref()))
}

/// Parse policy for [`PROFILE_ENV`]: any value but `0`/`off`/empty
/// enables wall-clock self-profiling.
pub fn parse_profile(var: Option<&str>) -> bool {
    match var.map(|s| s.trim().to_ascii_lowercase()) {
        None => false,
        Some(v) => !matches!(v.as_str(), "" | "0" | "off" | "false"),
    }
}

/// Whether wall-clock self-profiling is on, read once per process and
/// cached.
pub fn profile_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| parse_profile(std::env::var(PROFILE_ENV).ok().as_deref()))
}

/// Output directory for bench reports (`None` → current directory).
pub fn bench_dir() -> Option<std::path::PathBuf> {
    std::env::var_os(BENCH_DIR_ENV).map(std::path::PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_integers_parse_with_whitespace() {
        assert_eq!(parse_positive(Some("4")), Some(4));
        assert_eq!(parse_positive(Some(" 12 ")), Some(12));
        assert_eq!(parse_positive(Some("0")), None, "zero rejected");
        assert_eq!(parse_positive(Some("-3")), None);
        assert_eq!(parse_positive(Some("four")), None);
        assert_eq!(parse_positive(None), None);
    }

    #[test]
    fn threads_fall_back_to_machine_parallelism() {
        assert_eq!(parse_threads(Some("3")), 3);
        assert!(parse_threads(Some("not-a-number")) >= 1);
        assert!(parse_threads(Some("0")) >= 1);
        assert!(parse_threads(None) >= 1);
    }

    #[test]
    fn shard_threads_are_an_explicit_override_only() {
        assert_eq!(parse_shard_threads(Some("2")), Some(2));
        assert_eq!(parse_shard_threads(Some("0")), None);
        assert_eq!(parse_shard_threads(None), None, "no machine fallback");
    }

    #[test]
    fn budget_falls_back_to_machine_parallelism() {
        assert_eq!(parse_thread_budget(Some("7")), 7);
        assert!(parse_thread_budget(None) >= 1);
    }

    #[test]
    fn trace_level_parses_the_documented_values() {
        assert_eq!(parse_trace_level(None), TraceLevel::Off);
        assert_eq!(parse_trace_level(Some("0")), TraceLevel::Off);
        assert_eq!(parse_trace_level(Some("off")), TraceLevel::Off);
        assert_eq!(parse_trace_level(Some("1")), TraceLevel::On);
        assert_eq!(parse_trace_level(Some("on")), TraceLevel::On);
        assert_eq!(parse_trace_level(Some("TRUE")), TraceLevel::On);
        assert_eq!(parse_trace_level(Some("garbage")), TraceLevel::Off);
    }

    /// The retired shard-mark level's spellings are no longer values.
    #[test]
    fn retired_full_spellings_are_off_like_any_unrecognised_value() {
        assert_eq!(parse_trace_level(Some("2")), TraceLevel::Off);
        assert_eq!(parse_trace_level(Some("full")), TraceLevel::Off);
    }

    #[test]
    fn trace_level_ordering_matches_verbosity() {
        assert!(TraceLevel::Off < TraceLevel::On);
        assert!(!TraceLevel::Off.enabled());
        assert!(TraceLevel::On.enabled());
    }

    #[test]
    fn profile_switch_parses_the_documented_values() {
        assert!(!parse_profile(None));
        assert!(!parse_profile(Some("0")));
        assert!(!parse_profile(Some("off")));
        assert!(!parse_profile(Some("")));
        assert!(parse_profile(Some("1")));
        assert!(parse_profile(Some("yes")));
    }
}
