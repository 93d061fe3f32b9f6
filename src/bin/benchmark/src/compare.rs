//! `benchmark compare <a.json> <b.json>`: two result files, one row per
//! end-to-end metric and workload, each with a verdict against the
//! metric's bound. `a` is the base of every ratio.

use crate::json::Json;
use crate::measure::{summarize, Summary};
use crate::names::{Better, EndToEnd, END_TO_END};
use crate::workloads::NAMES;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so the
    /// comparison cannot tell a change of that size from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub a: Summary,
    pub b: Summary,
    /// `b`'s median over `a`'s.
    pub ratio: f64,
    pub verdict: Verdict,
}

pub fn judge(a: &[f64], b: &[f64], metric: &EndToEnd) -> Row {
    let (a, b) = (summarize(a), summarize(b));
    let ratio = b.median / a.median;
    let worse = match metric.better {
        Better::Higher => ratio < 1.0 - metric.bound,
        Better::Lower => ratio > 1.0 + metric.bound,
    };
    let verdict = if a.iqr_share().max(b.iqr_share()) > metric.bound {
        Verdict::Unresolved
    } else if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Row {
        a,
        b,
        ratio,
        verdict,
    }
}

/// The untraced runs of `workload` in a result file: `(seed, digest,
/// end-to-end metric values by name)`.
fn runs_of<'a>(doc: &'a Json, workload: &str) -> Vec<(f64, &'a str, &'a Json)> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|run| run.get("trace").and_then(Json::as_f64) == Some(0.0))
        .filter_map(|run| {
            Some((
                run.get("seed")?.as_f64()?,
                run.get("digest")?.as_str()?,
                run.get("result")?.get("metrics")?,
            ))
        })
        .collect()
}

fn values(runs: &[(f64, &str, &Json)], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|(_, _, metrics)| metrics.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Prints the table; returns whether any row is worse.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let generator = |doc: &Json| {
        doc.get("provenance")
            .and_then(|p| p.get("generator"))
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    println!(
        "a = {}   b = {}   (ratio = b / a)",
        generator(a),
        generator(b)
    );
    println!(
        "{:<17} {:<15} {:>12} {:>7} {:>12} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "a median", "a iqr", "b median", "b iqr", "ratio", "bound"
    );
    let mut any_worse = false;
    for workload in NAMES {
        let (runs_a, runs_b) = (runs_of(a, workload), runs_of(b, workload));
        if runs_a.is_empty() || runs_b.is_empty() {
            return Err(format!("no untraced run of {workload} in one of the files"));
        }
        for metric in &END_TO_END {
            let (va, vb) = (values(&runs_a, metric.name), values(&runs_b, metric.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{workload} has no {} in one of the files",
                    metric.name
                ));
            }
            let row = judge(&va, &vb, metric);
            any_worse |= row.verdict == Verdict::Worse;
            println!(
                "{:<17} {:<15} {:>12.4} {:>6.1}% {:>12.4} {:>6.1}% {:>7.4} {:>5.0}%  {}",
                workload,
                metric.name,
                row.a.median,
                row.a.iqr_share() * 100.0,
                row.b.median,
                row.b.iqr_share() * 100.0,
                row.ratio,
                metric.bound * 100.0,
                row.verdict.as_str()
            );
        }
        // Simulated behaviour: equal digests seed by seed, or it changed.
        let same = runs_a.iter().all(|(seed, digest, _)| {
            runs_b
                .iter()
                .filter(|(s, _, _)| s == seed)
                .all(|(_, d, _)| d == digest)
        });
        println!(
            "{:<17} {:<15} {}",
            workload,
            "sim_digest",
            if same {
                "equal on every shared seed"
            } else {
                "DIFFERS: simulated behaviour changed"
            }
        );
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::end_to_end;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let kops = end_to_end("host_kops").unwrap(); // higher is better
        let rss = end_to_end("peak_rss_mb").unwrap(); // lower is better
        let steady = [100.0, 100.5, 99.5, 100.2, 99.8];
        let scaled = |f: f64| steady.iter().map(|v| v * f).collect::<Vec<_>>();

        assert_eq!(judge(&steady, &scaled(1.0), kops).verdict, Verdict::Ok);
        assert_eq!(
            judge(&steady, &scaled(1.0 - kops.bound / 2.0), kops).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &scaled(1.0 - kops.bound * 1.5), kops).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &scaled(2.0), kops).verdict,
            Verdict::Ok,
            "faster is not worse"
        );
        assert_eq!(
            judge(&steady, &scaled(1.0 + rss.bound * 1.5), rss).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &scaled(0.5), rss).verdict,
            Verdict::Ok,
            "smaller is not worse"
        );

        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(&noisy, &steady, kops).verdict, Verdict::Unresolved);
        let row = judge(&steady, &scaled(0.5), kops);
        assert!((row.ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn compare_reads_result_files() {
        let file = |kops: f64| {
            let metrics = Json::Obj(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let value = if m.name == "host_kops" { kops } else { 1.0 };
                        (m.name.to_string(), Json::obj([("value", Json::Num(value))]))
                    })
                    .collect(),
            );
            Json::obj([(
                "runs",
                Json::Arr(
                    NAMES
                        .iter()
                        .map(|w| {
                            Json::obj([
                                ("workload", Json::str(*w)),
                                ("seed", Json::Num(1.0)),
                                ("trace", Json::Num(0.0)),
                                ("digest", Json::str("00")),
                                ("result", Json::obj([("metrics", metrics.clone())])),
                            ])
                        })
                        .collect(),
                ),
            )])
        };
        assert_eq!(compare(&file(100.0), &file(100.0)), Ok(false));
        assert_eq!(compare(&file(100.0), &file(50.0)), Ok(true));
        assert!(compare(&file(100.0), &Json::obj([("runs", Json::Arr(vec![]))])).is_err());
    }
}
