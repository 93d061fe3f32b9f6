//! The paper's figure claims, checked against the committed
//! `BENCH_suite.json`.
//!
//! Figure 7 (left), as `fig7.rs` documents it (paper §7.2): transitions
//! without invalidations (S→S, I→S, I→M) cost one round trip; S→M overlaps
//! its invalidation with the fetch; M→S and M→M take two sequential round
//! trips; and switch multicast keeps every transition flat in the number of
//! blades.

use std::collections::BTreeMap;

const RACKS: [u16; 3] = [2, 4, 8];
const TRANSITIONS: [&str; 6] = [
    "S->S",
    "I->S",
    "I->M",
    "S->M (inval)",
    "M->S (inval)",
    "M->M (inval)",
];

/// `(blades, transition) → latency_us` of every `fig7_transitions` row.
/// The report writer prints one key a line, and a row's `latency_us`
/// follows its `name`.
fn fig7_transitions() -> BTreeMap<(u16, String), f64> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_suite.json");
    let text = std::fs::read_to_string(path).expect("the committed BENCH_suite.json");
    let mut out = BTreeMap::new();
    let mut row = None;
    for line in text.lines().map(|l| l.trim().trim_end_matches(',')) {
        if let Some(name) = line.strip_prefix("\"name\": \"") {
            row = name
                .trim_end_matches('"')
                .strip_prefix("fig7_transitions/")
                .and_then(|rest| rest.split_once("C/"))
                .map(|(blades, t)| (blades.parse().expect("blade count"), t.to_string()));
        } else if let (Some(key), Some(us)) = (&row, line.strip_prefix("\"latency_us\": ")) {
            out.insert(key.clone(), us.parse().expect("latency_us"));
            row = None;
        }
    }
    assert_eq!(out.len(), RACKS.len() * TRANSITIONS.len(), "{out:?}");
    out
}

fn latency(rows: &BTreeMap<(u16, String), f64>, blades: u16, transition: &str) -> f64 {
    rows[&(blades, transition.to_string())]
}

#[test]
fn fig7_transitions_without_invalidation_cost_one_round_trip() {
    let rows = fig7_transitions();
    for blades in RACKS {
        let i_s = latency(&rows, blades, "I->S");
        assert_eq!(latency(&rows, blades, "S->S"), i_s, "{blades} blades");
        assert_eq!(latency(&rows, blades, "I->M"), i_s, "{blades} blades");
    }
}

#[test]
fn fig7_s_to_m_overlaps_its_invalidation_with_the_fetch() {
    let rows = fig7_transitions();
    for blades in RACKS {
        let i_s = latency(&rows, blades, "I->S");
        let s_m = latency(&rows, blades, "S->M (inval)");
        assert!((s_m - i_s).abs() <= 0.1 * i_s, "{blades} blades: S->M {s_m} vs I->S {i_s}");
    }
}

#[test]
fn fig7_transitions_out_of_modified_take_two_round_trips() {
    let rows = fig7_transitions();
    for blades in RACKS {
        let i_s = latency(&rows, blades, "I->S");
        for t in ["M->S (inval)", "M->M (inval)"] {
            let ratio = latency(&rows, blades, t) / i_s;
            assert!((1.8..=2.5).contains(&ratio), "{blades} blades: {t} is {ratio:.2}x I->S");
        }
    }
}

#[test]
fn fig7_multicast_keeps_transitions_flat_in_blade_count() {
    let rows = fig7_transitions();
    for t in TRANSITIONS {
        let at_two = latency(&rows, 2, t);
        for blades in RACKS {
            assert_eq!(latency(&rows, blades, t), at_two, "{t} at {blades} blades");
        }
    }
}
