//! The figure-regeneration suite, as declarative scenario tables.
//!
//! Every table and figure in the paper's evaluation (§7–§8) is described
//! in [`figures`] as a *scenario table* — pure data (system spec +
//! workload spec + run parameters) executed by the
//! [`mind_harness::Engine`] — plus the BENCH columns it prints, which
//! [`figures::render`] draws verbatim from the written file. The `suite`
//! binary runs every figure in a single parallel invocation and emits
//! `BENCH_suite.json` (`--filter <name>` runs one figure or a family);
//! `service` and `datapath` are the two tables with a binary of their own.
//!
//! ## Scaling
//!
//! The paper's testbed workloads have ~2 GB footprints with 512 MB caches
//! (25 %) and a 30 k-entry switch directory. Simulating a full run of that
//! size per figure point would take hours, so the factories
//! ([`mind_core::cluster::MindConfig::scaled_to`] and friends) scale
//! footprints down while holding the *ratios* fixed: cache = 25 % of
//! footprint, directory entries ≈ 6 % of footprint pages (30 k / 500 k).
//! Shapes — who wins, by what factor, where scaling breaks — are
//! preserved; absolute seconds are not comparable to the paper's testbed
//! (and are not meant to be).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use mind_harness::report;

pub mod figures;

/// Key fragments that mark a host-time or host-memory value: two runs of
/// one commit need not agree on them, so no comparison reads them.
const HOST_LANE: [&str; 3] = ["wall_secs", "speedup", "peak_rss_mb"];

/// Every compared scalar of a rendered BENCH document, by path: what
/// [`report::read_values`] reads, less `generator` and the host lane
/// (any key containing `wall_secs`, `speedup` or `peak_rss_mb`) — what
/// `bench_diff` and `tests/figure_claims.rs` compare.
pub fn compared_values(text: &str) -> BTreeMap<String, String> {
    let mut out = report::read_values(text);
    out.retain(|path, _| path != "generator" && !HOST_LANE.iter().any(|lane| path.contains(lane)));
    out
}
