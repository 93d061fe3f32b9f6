//! Typed access to the workspace's environment knobs.
//!
//! Every `MIND_*` environment variable the workspace honours is parsed
//! here, in one place, with one policy per knob. Each accessor comes in two
//! layers: a pure `parse_*` function over an `Option<&str>` (unit-tested
//! without touching process state) and a thin reader that applies it to the
//! process environment.
//!
//! Only the figure binaries (`mind_bench::figures::run_suite`) call
//! [`threads`], [`trace_level`] and [`bench_dir`]: a run is a function of
//! its configuration. Of the knobs here the library reads only
//! [`profile_enabled`] (once, cached): host-side timings reach no artifact.

use std::sync::OnceLock;

/// Worker count of the figure binaries' engine.
pub const THREADS_ENV: &str = "MIND_THREADS";
/// The shard executor's former lane-count knob. No library code reads it:
/// the lane count is an argument of
/// `mind_workloads::shard::run_sharded_threads`. Kept because the repo
/// benchmark (`src/bin/benchmark`) still pins it.
pub const SHARD_THREADS_ENV: &str = "MIND_SHARD_THREADS";
/// Whether the figure binaries trace their scenarios.
pub const TRACE_ENV: &str = "MIND_TRACE";
/// Wall-clock self-profiling switch (`mind_obs::profile`).
pub const PROFILE_ENV: &str = "MIND_PROFILE";
/// Output directory of the figure binaries' `BENCH_*.json` /
/// `TRACE_*.json` reports.
pub const BENCH_DIR_ENV: &str = "MIND_BENCH_DIR";

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

/// Engine worker count from the environment.
pub fn threads() -> usize {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref())
}

/// Parse policy for [`TRACE_ENV`]: `1`/`on`/`true` turn the deterministic
/// trace layer on, everything else (including absence) leaves it off.
///
pub fn parse_trace_level(var: Option<&str>) -> bool {
    matches!(
        var.map(|s| s.trim().to_ascii_lowercase()).as_deref(),
        Some("1" | "on" | "true")
    )
}

/// Whether the environment asks for tracing.
pub fn trace_level() -> bool {
    parse_trace_level(std::env::var(TRACE_ENV).ok().as_deref())
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

/// Output directory for bench reports (`None`: the current directory).
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
    fn trace_level_parses_the_documented_values() {
        assert!(!parse_trace_level(None));
        assert!(!parse_trace_level(Some("0")));
        assert!(!parse_trace_level(Some("off")));
        assert!(parse_trace_level(Some("1")));
        assert!(parse_trace_level(Some("on")));
        assert!(parse_trace_level(Some("TRUE")));
        assert!(!parse_trace_level(Some("garbage")));
    }

    /// The retired shard-mark level's spellings are no longer values.
    #[test]
    fn retired_full_spellings_are_off_like_any_unrecognised_value() {
        assert!(!parse_trace_level(Some("2")));
        assert!(!parse_trace_level(Some("full")));
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
