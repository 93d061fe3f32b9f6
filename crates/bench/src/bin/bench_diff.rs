//! `bench_diff <committed> <fresh>`: compares two BENCH files value by
//! value and exits non-zero if any deterministic value differs or exists
//! in only one of them.
//!
//! Each scalar is keyed by the path of object keys and array positions
//! above it, as `mind_bench::compared_values` reads the file.
//! Ignored: `generator`, and the host-lane keys — anything at or under a
//! key that contains `wall_secs`, `speedup` or `peak_rss_mb`. Two files whose `mode` headers differ (a
//! `--quick` run against a full one) are not compared at all: exit 2,
//! "modes differ", instead of a difference per value.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use mind_bench::compared_values;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [committed, fresh] = args.as_slice() else {
        eprintln!("usage: bench_diff <committed BENCH json> <fresh BENCH json>");
        return ExitCode::from(2);
    };
    let read = |path: &String| match std::fs::read_to_string(path) {
        Ok(text) => Some(compared_values(&text)),
        Err(e) => {
            eprintln!("bench_diff: {path}: {e}");
            None
        }
    };
    let (Some(a), Some(b)) = (read(committed), read(fresh)) else {
        return ExitCode::from(2);
    };
    // A file from before the header existed has no mode: it is compared,
    // and the key shows up as a difference of its own.
    if let (Some(ours), Some(theirs)) = (a.get("mode"), b.get("mode")) {
        if ours != theirs {
            eprintln!(
                "bench_diff: modes differ: {committed} is {ours}, {fresh} is {theirs} \
                 (was one written with --quick and the other without?)"
            );
            return ExitCode::from(2);
        }
    }
    let mut differences = 0;
    for (path, value) in &a {
        match b.get(path) {
            Some(other) if other == value => {}
            Some(other) => {
                println!("{path}: {value} != {other}");
                differences += 1;
            }
            None => {
                println!("{path}: only in {committed}");
                differences += 1;
            }
        }
    }
    for path in b.keys().filter(|path| !a.contains_key(*path)) {
        println!("{path}: only in {fresh}");
        differences += 1;
    }
    println!(
        "bench_diff: {} values compared, {differences} differences",
        a.len().max(b.len())
    );
    if differences == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
