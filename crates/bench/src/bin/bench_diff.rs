//! `bench_diff <committed> <fresh>`: compares two BENCH files value by
//! value and exits non-zero if any deterministic value differs or exists
//! in only one of them.
//!
//! The harness writer prints one key or array element per line, so the
//! comparison is line-based: each scalar is keyed by the path of object
//! keys and array positions above it. Ignored: `generator`, and the
//! host-lane keys — anything at or under a key that contains `wall_secs`,
//! `speedup` or `peak_rss_mb`. Two files whose `mode` headers differ (a
//! `--quick` run against a full one) are not compared at all: exit 2,
//! "modes differ", instead of a difference per value.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Key fragments that mark a host-time or host-memory value.
const HOST_LANE: [&str; 3] = ["wall_secs", "speedup", "peak_rss_mb"];

/// Every compared scalar of a rendered BENCH document, by path.
fn values(text: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    // The open containers: (name, elements seen so far).
    let mut stack: Vec<(String, usize)> = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if line == "}" || line == "]" {
            stack.pop();
            continue;
        }
        let (key, value) = match line.strip_prefix('"').and_then(|l| l.split_once("\": ")) {
            Some((key, value)) => (key.to_string(), value),
            // An array element: keyed by its position.
            None => {
                let position = stack.last_mut().map_or(0, |(_, seen)| {
                    *seen += 1;
                    *seen - 1
                });
                (position.to_string(), line)
            }
        };
        if value == "{" || value == "[" {
            stack.push((key, 0));
            continue;
        }
        // The document's own braces are the outermost container.
        let mut path: String = stack
            .iter()
            .skip(1)
            .map(|(name, _)| format!("{name}/"))
            .collect();
        path.push_str(&key);
        if key == "generator" || HOST_LANE.iter().any(|lane| path.contains(lane)) {
            continue;
        }
        out.insert(path, value.to_string());
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [committed, fresh] = args.as_slice() else {
        eprintln!("usage: bench_diff <committed BENCH json> <fresh BENCH json>");
        return ExitCode::from(2);
    };
    let read = |path: &String| match std::fs::read_to_string(path) {
        Ok(text) => Some(values(&text)),
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
