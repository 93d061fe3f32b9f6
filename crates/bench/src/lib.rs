//! The figure-regeneration suite, as declarative scenario tables.
//!
//! Every table and figure in the paper's evaluation (§7–§8) is described
//! in [`figures`] as a *scenario table* — pure data (system spec +
//! workload spec + run parameters) executed by the
//! [`mind_harness::Engine`] — plus a presentation function that prints the
//! corresponding rows. The `suite` binary runs every figure in a single
//! parallel invocation and emits `BENCH_suite.json` (`--filter <name>`
//! runs one figure or a family); `service` and `datapath` are the two
//! tables with a binary of their own.
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

pub mod figures;

/// Prints a header row followed by aligned columns.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}
