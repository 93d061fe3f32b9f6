//! The paper's figure claims, checked on a fresh in-process run of the
//! quick suite's figure and ablation tables, which must also equal the
//! committed `BENCH_suite.json` value by value.
//!
//! Figure 7 (left), as `fig7.rs` documents it (paper §7.2): transitions
//! without invalidations (S→S, I→S, I→M) cost one round trip; S→M overlaps
//! its invalidation with the fetch; M→S and M→M take two sequential round
//! trips; and switch multicast keeps every transition flat in the number of
//! blades.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use mind_bench::{compared_values, figures};
use mind_harness::report::{self, scenario_values};
use mind_harness::Engine;

const RACKS: [u16; 3] = [2, 4, 8];
const TRANSITIONS: [&str; 6] = [
    "S->S",
    "I->S",
    "I->M",
    "S->M (inval)",
    "M->S (inval)",
    "M->M (inval)",
];
const WORKLOADS: [&str; 4] = ["TF", "GC", "MA", "MC"];
const BLADES: [u16; 4] = [1, 2, 4, 8];

/// Every compared value of the quick suite's figure and ablation tables
/// (`fig*`, `ablation_*`), run in process and read back as `bench_diff`
/// reads a BENCH file. The serving and datapath tables are left to CI's
/// fresh `suite` run: they take most of the quick suite's time.
fn fresh() -> &'static BTreeMap<String, String> {
    static VALUES: OnceLock<BTreeMap<String, String>> = OnceLock::new();
    VALUES.get_or_init(|| {
        let table = figures::all()
            .into_iter()
            .filter(|f| f.name.starts_with("fig") || f.name.starts_with("ablation_"))
            .flat_map(|f| (f.build)(true))
            .collect();
        let results = Engine::new(mind_sim::env::available_parallelism()).run(table);
        compared_values(&report::suite_json("suite", &results).render())
    })
}

/// Each freshly run scenario has the values its namesake in the committed
/// `BENCH_suite.json` has, so a model change shows in tier-1, not only in
/// CI's `bench_diff`.
#[test]
fn fresh_figures_equal_the_committed_bench_suite() {
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_suite.json");
    let text = std::fs::read_to_string(file).expect("the committed BENCH_suite.json");
    let committed = compared_values(&text);
    assert_eq!(
        committed["mode"], "\"quick\"",
        "the committed suite is the quick table"
    );
    let committed: BTreeMap<&str, BTreeMap<&str, &str>> = scenario_values(&committed)
        .into_iter()
        .map(|scenario| (scenario["name"], scenario))
        .collect();
    let scenarios = scenario_values(fresh());
    assert!(scenarios.len() > 250, "{} scenarios", scenarios.len());
    let mut differences = Vec::new();
    for scenario in &scenarios {
        let name = scenario["name"];
        let Some(old) = committed.get(name) else {
            differences.push(format!("{name}: not in the committed suite"));
            continue;
        };
        for (path, value) in scenario {
            match old.get(path) {
                Some(other) if other == value => {}
                other => {
                    differences.push(format!("{name} {path}: fresh {value}, committed {other:?}"))
                }
            }
        }
        let missing = old.keys().filter(|path| !scenario.contains_key(*path));
        differences.extend(missing.map(|path| format!("{name} {path}: only committed")));
    }
    assert!(
        differences.is_empty(),
        "{} differences, the first: {:#?}",
        differences.len(),
        &differences[..differences.len().min(20)]
    );
}

/// The value at `path` of every freshly run scenario named
/// `<figure>/<label>`, by label.
fn column(figure: &str, path: &str) -> BTreeMap<String, f64> {
    let prefix = format!("\"{figure}/");
    scenario_values(fresh())
        .into_iter()
        .filter_map(|scenario| {
            let label = scenario
                .get("name")?
                .strip_prefix(&prefix)?
                .trim_end_matches('"');
            let value = scenario.get(path)?.parse().expect("a number");
            Some((label.to_string(), value))
        })
        .collect()
}

/// `(blades, transition) → latency_us` of every `fig7_transitions` row.
fn fig7_transitions() -> BTreeMap<String, f64> {
    let rows = column("fig7_transitions", "values/latency_us");
    assert_eq!(rows.len(), RACKS.len() * TRANSITIONS.len(), "{rows:?}");
    rows
}

fn latency(rows: &BTreeMap<String, f64>, blades: u16, transition: &str) -> f64 {
    rows[&format!("{blades}C/{transition}")]
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
        assert!(
            (s_m - i_s).abs() <= 0.1 * i_s,
            "{blades} blades: S->M {s_m} vs I->S {i_s}"
        );
    }
}

#[test]
fn fig7_transitions_out_of_modified_take_two_round_trips() {
    let rows = fig7_transitions();
    for blades in RACKS {
        let i_s = latency(&rows, blades, "I->S");
        for t in ["M->S (inval)", "M->M (inval)"] {
            let ratio = latency(&rows, blades, t) / i_s;
            assert!(
                (1.8..=2.5).contains(&ratio),
                "{blades} blades: {t} is {ratio:.2}x I->S"
            );
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

/// Figure 5 (right), as `fig5.rs` states it: the KVS scales near-linearly
/// within one blade on MIND and FastSwap; across blades read-only YCSB-C
/// keeps scaling while YCSB-A's read-write contention stops it.
#[test]
fn fig5_kvs_scales_within_a_blade_and_only_read_only_scales_across_blades() {
    let mops = column("fig5_kvs", "mops");
    for mix in ["A", "C"] {
        for system in ["MIND", "FastSwap"] {
            let at = |t: &str| mops[&format!("YCSB-{mix}/{system}/{t}")];
            let speedup = at("t10") / at("t1");
            assert!(speedup >= 8.0, "YCSB-{mix} {system}: t10 is {speedup:.2}x t1");
        }
    }
    let mind = |mix: &str, t: &str| mops[&format!("YCSB-{mix}/MIND/{t}")];
    let steps = ["t10", "t20b2", "t40b4", "t80b8"];
    for pair in steps.windows(2) {
        let step = mind("C", pair[1]) / mind("C", pair[0]);
        assert!(step >= 1.8, "YCSB-C: {} is {step:.2}x {}", pair[1], pair[0]);
    }
    for t in &steps[1..] {
        let (a, single) = (mind("A", t), mind("A", "t10"));
        assert!(a < 0.5 * single, "YCSB-A: {t} at {a} MOPS against {single} at t10");
    }
}

/// One Figure 6 rate per `(workload, blades)`.
fn fig6(path: &str) -> impl Fn(&str, u16) -> f64 {
    let rows = column("fig6_invalidation", path);
    assert_eq!(
        rows.len(),
        WORKLOADS.len() * BLADES.len(),
        "{path}: {rows:?}"
    );
    move |workload, blades| rows[&format!("{workload}/b{blades}")]
}

/// Figure 6 (§7.3): remote accesses per access grow with blade count for
/// every workload, and GC's grow much more steeply than TF's. The paper
/// says all three rates grow; here that holds for MA and MC only: TF's and
/// GC's invalidation and flush rates are small and not monotone (TF's
/// flushes per access fall from 0.00055 at 2 blades to 0.0003 at 8).
#[test]
fn fig6_remote_accesses_grow_with_blade_count_steepest_for_gc() {
    let remote = fig6("remote_per_op");
    for workload in WORKLOADS {
        for pair in BLADES.windows(2) {
            let (fewer, more) = (remote(workload, pair[0]), remote(workload, pair[1]));
            assert!(
                fewer < more,
                "{workload}: b{} {fewer} !< b{} {more}",
                pair[0],
                pair[1]
            );
        }
    }
    let rise = |workload| remote(workload, 8) / remote(workload, 1);
    assert!(
        rise("GC") > rise("TF"),
        "GC x{} vs TF x{}",
        rise("GC"),
        rise("TF")
    );
    for path in ["invalidations_per_op", "flushed_per_op"] {
        let rate = fig6(path);
        for workload in ["MA", "MC"] {
            assert!(
                BLADES
                    .windows(2)
                    .all(|p| rate(workload, p[0]) < rate(workload, p[1])),
                "{workload}: {path} does not grow with blade count"
            );
        }
    }
}

/// Figure 6: from 2 blades on, MA and MC trigger at least 10x the
/// invalidations and page flushes per access of GC and TF.
#[test]
fn fig6_ma_and_mc_invalidate_and_flush_ten_times_more() {
    for path in ["invalidations_per_op", "flushed_per_op"] {
        let rate = fig6(path);
        for blades in &BLADES[1..] {
            for heavy in ["MA", "MC"] {
                for light in ["GC", "TF"] {
                    let (h, l) = (rate(heavy, *blades), rate(light, *blades));
                    assert!(
                        h >= 10.0 * l,
                        "b{blades} {path}: {heavy} {h} < 10x {light} {l}"
                    );
                }
            }
        }
    }
}

/// §8 "Thread management": co-locating the two sharers of each partition
/// keeps their invalidations inside one blade, so no round leaves it and
/// throughput rises.
#[test]
fn ablation_colocated_sharers_beat_split_sharers_without_invalidation_rounds() {
    let mops = column("ablation_placement", "mops");
    let rounds = column("ablation_placement", "window_metrics/invalidation_rounds");
    assert!(
        mops["sharers-colocated"] > mops["sharers-split"],
        "{mops:?}"
    );
    assert_eq!(rounds["sharers-colocated"], 0.0, "{rounds:?}");
}

/// Figure 8 (left), as `fig8.rs` documents it: no workload's directory
/// outgrows the switch's capacity; TF stays well below it while MA and MC
/// press against it.
#[test]
fn fig8_directory_stays_within_capacity_tf_far_below_ma_mc_near_it() {
    let peak = column("fig8_directory", "metrics/directory_watermark");
    let capacity = column("fig8_directory", "values/dir_capacity");
    assert_eq!(peak.len(), WORKLOADS.len(), "{peak:?}");
    let share = |workload: &str| peak[workload] / capacity[workload];
    for workload in WORKLOADS {
        let (p, c) = (peak[workload], capacity[workload]);
        assert!(p <= c, "{workload}: {p} entries of {c}");
    }
    assert!(share("TF") < 0.10, "TF at {:.3} of capacity", share("TF"));
    for workload in ["MA", "MC"] {
        assert!(share(workload) >= 0.70, "{workload} at {:.3} of capacity", share(workload));
    }
}

const GROUPS: [&str; 3] = ["TF", "GC", "MA&C"];

/// One Figure 8 (center or right) value per `(group, blades)`.
fn fig8(figure: &str, path: &str) -> impl Fn(&str, u16) -> f64 {
    let rows = column(figure, path);
    assert_eq!(rows.len(), GROUPS.len() * BLADES.len(), "{figure} {path}: {rows:?}");
    move |group, blades| rows[&format!("{group}/b{blades}")]
}

/// Figure 8 (center): MIND's translation and protection rules stay a
/// small fraction of one rule per 2 MB page, which grows with the rack's
/// dataset.
#[test]
fn fig8_mind_needs_under_two_percent_of_the_2mb_page_rules() {
    let mind = fig8("fig8_rules", "values/mind_rules");
    let pages = fig8("fig8_rules", "values/rules_2mb");
    for group in GROUPS {
        for blades in BLADES {
            let share = mind(group, blades) / pages(group, blades);
            assert!(share < 0.02, "{group} b{blades}: MIND needs {share:.4} of the 2 MB rules");
        }
        let growth = pages(group, 8) / pages(group, 1);
        assert!(growth >= 7.0, "{group}: 2 MB rules grow {growth:.2}x from b1 to b8");
    }
}

/// Figure 8 (right): MIND's vma placement balances memory blades, 2 MB
/// pages balance almost perfectly, and 1 GB pages pile small vmas onto one
/// blade once there is more than one.
#[test]
fn fig8_mind_and_2mb_pages_balance_blades_1gb_pages_do_not() {
    let mind = fig8("fig8_fairness", "values/mind");
    let pages_2mb = fig8("fig8_fairness", "values/pages_2mb");
    let pages_1gb = fig8("fig8_fairness", "values/pages_1gb");
    for group in GROUPS {
        for blades in BLADES {
            let m = mind(group, blades);
            let (two, one) = (pages_2mb(group, blades), pages_1gb(group, blades));
            assert!(m >= 0.90, "{group} b{blades}: MIND {m}");
            assert!(two >= 0.999, "{group} b{blades}: 2 MB pages {two}");
            if blades >= 2 {
                assert!(one <= 0.5 && one < m, "{group} b{blades}: 1 GB pages {one}, MIND {m}");
            }
        }
    }
}
