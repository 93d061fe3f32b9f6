//! Deterministic observability for the MIND simulation.
//!
//! Three pillars, all subordinate to the repo's correctness contract
//! (byte-identical replay across thread and shard counts):
//!
//! - [`trace`] — structured event tracing with virtual-time timestamps
//!   and stable event ids. The default event set is *grouping-invariant*:
//!   the same events, in the same canonical order, whatever
//!   `MIND_THREADS`/`MIND_SHARD_THREADS`/shard-count cell executed the
//!   run — so a rendered `TRACE_*.json` is itself a replay artifact, not
//!   just a debugging aid (and a substrate for protocol-conformance
//!   checking, ROADMAP item 5).
//! - [`timeseries`] — windowed counters and latency histograms over the
//!   virtual clock (per-interval MOPS, fault rate, invalidation stalls,
//!   p99), additive under merge and therefore identical across execution
//!   cells. Rendered as the `timeseries` section of BENCH JSON.
//! - [`profile`] — wall-clock stage timers (host time, *not* virtual
//!   time) plus the [`mem`] lanes (peak RSS, allocation counters).
//!   Inherently nondeterministic, so they are reported on stderr only
//!   and never enter BENCH or trace output.
//!
//! Everything is gated by [`TraceConfig`] / the `MIND_TRACE` and
//! `MIND_PROFILE` environment knobs ([`mind_sim::env`]); the disabled
//! paths reduce to a branch on a cached flag.

#![deny(unsafe_code)]

// The counting global allocator is the one place that needs `unsafe`.
#[allow(unsafe_code)]
pub mod mem;
pub mod profile;
pub mod timeseries;
pub mod trace;

/// Count every allocation in every workspace binary (see [`mem`]): the
/// delta costs two relaxed atomic adds per allocation, bounded in CI by
/// the `obs_overhead` gate alongside the rest of the always-on surface.
#[global_allocator]
static COUNTING_ALLOC: mem::CountingAlloc = mem::CountingAlloc;

pub use timeseries::{SeriesBucket, WindowSeries};
pub use trace::{
    chrome_process_name, EventKind, TraceBuf, TraceConfig, TraceData, TraceEvent, TraceMode,
};
