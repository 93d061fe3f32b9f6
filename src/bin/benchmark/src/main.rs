//! The repo benchmark. See README.md beside the manifest for what it
//! measures and why; `BENCHMARK.json` at the repo root names the workloads
//! and metrics.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark [--seed <n>] [--runs <k>] [--seconds <s>] [--traced] [--out <file>] [--allow-dirty]
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form measures one workload in this process and prints, last,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! The second runs every workload, each in a sequential child process of
//! this binary, and writes a result file `compare` reads.

mod clock;
mod compare;
mod json;
mod measure;
mod names;
mod probes;
mod spans;
mod stream;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use measure::Checker;
use names::{END_TO_END, PER_LAYER};
use workloads::Workload;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    allow_dirty: bool,
}

const USAGE: &str =
    "usage: benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1> | --traced] \
                     [--runs <k>] [--out <file>] [--trace-out <file>] [--allow-dirty]\n       \
                     benchmark compare <a.json> <b.json>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        trace: false,
        runs: 1,
        out: None,
        trace_out: None,
        allow_dirty: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=120.0).contains(&args.seconds) {
                    return Err("--seconds must lie in 0..=120".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--traced" => args.trace = true,
            "--runs" => {
                args.runs = value()?
                    .parse()
                    .map_err(|_| "--runs takes a whole number")?;
                if !(1..=100).contains(&args.runs) {
                    return Err("--runs must lie in 1..=100".to_string());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--allow-dirty" => args.allow_dirty = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where this run may leave files: under the build directory, which the
/// repo's `.gitignore` already covers.
fn artifact_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("benchmark")
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// One reported metric: name, value, unit, which direction is better.
type Row = (&'static str, f64, &'static str, names::Better);

/// The contract's result object.
fn result_json(checker: &Checker, metrics: Json) -> Json {
    Json::obj([
        ("correct", Json::Bool(checker.correct())),
        ("attempted", Json::Num(checker.attempted.max(1) as f64)),
        ("failed", Json::Num(checker.failed as f64)),
        ("metrics", metrics),
    ])
}

/// What either kind of run hands back for printing.
struct Measured {
    rows: Vec<Row>,
    repetitions: usize,
    checker: Checker,
    /// Per-repetition distribution behind each host metric (end-to-end only).
    spreads: Vec<(String, Json)>,
}

fn measure_traced(w: &Workload, args: &Args) -> Measured {
    let run = traced::traced_run(w, args.seed, args.seconds);
    let path = args
        .trace_out
        .clone()
        .unwrap_or_else(|| artifact_dir().join(format!("spans-{}.json", w.name)));
    match write_file(&path, &run.spans.json(w.name).render()) {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
    }
    Measured {
        rows: run
            .metrics
            .iter()
            .zip(&PER_LAYER)
            .map(|(&(name, value), m)| (name, value, m.unit, m.better))
            .collect(),
        repetitions: run.reps,
        checker: run.checker,
        spreads: Vec::new(),
    }
}

fn measure_end_to_end(w: &Workload, args: &Args) -> Measured {
    let run = measure::end_to_end(w, args.seed, args.seconds);
    println!(
        "  {:<34} {:>16} ns         (simulated; reported as a per-layer metric)",
        "sim_p99_ns", run.sim_p99_ns
    );
    let spreads = run
        .spreads()
        .into_iter()
        .map(|(name, s)| {
            let bound = names::end_to_end(name).map_or(f64::INFINITY, |m| m.bound);
            println!(
                "  {name:<34} over {} repetitions: least {:.4}, quartiles {:.4} {:.4} {:.4}, most {:.4}, iqr {:.1}%{}",
                s.n,
                s.min,
                s.q1,
                s.median,
                s.q3,
                s.max,
                s.iqr_share() * 100.0,
                if s.iqr_share() > bound {
                    "  UNRESOLVED within this run: wider than the bound"
                } else {
                    ""
                }
            );
            let summary = [
                ("n", s.n as f64),
                ("min", s.min),
                ("q1", s.q1),
                ("median", s.median),
                ("q3", s.q3),
                ("max", s.max),
            ];
            (name.to_string(), Json::obj(summary.map(|(k, v)| (k, Json::Num(v)))))
        })
        .collect();
    Measured {
        rows: run
            .metrics()
            .into_iter()
            .zip(&END_TO_END)
            .map(|((name, value), m)| (name, value, m.unit, m.better))
            .collect(),
        repetitions: run.reps,
        checker: run.checker,
        spreads,
    }
}

/// Measures one workload in this process.
fn run_workload(w: &Workload, args: &Args) -> ExitCode {
    // Pin what the library reads from the environment, before any call
    // into it: one engine worker, one shard lane, tracing only where this
    // binary turns it on. The shard driver's stage timers are the one thing
    // the traced run needs `MIND_PROFILE` for.
    std::env::set_var(mind::sim::env::THREADS_ENV, "1");
    std::env::set_var(mind::sim::env::SHARD_THREADS_ENV, "1");
    std::env::remove_var(mind::sim::env::TRACE_ENV);
    if args.trace && matches!(w.shape, workloads::Shape::Shards { .. }) {
        std::env::set_var(mind::sim::env::PROFILE_ENV, "1");
    } else {
        std::env::remove_var(mind::sim::env::PROFILE_ENV);
    }

    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    let Measured {
        rows,
        repetitions,
        checker,
        spreads,
    } = if args.trace {
        measure_traced(w, args)
    } else {
        measure_end_to_end(w, args)
    };
    for (name, value, unit, better) in &rows {
        println!(
            "  {name:<34} {value:>16.4} {unit:<10} ({} is better)",
            better.as_str()
        );
    }
    let metrics = Json::Obj(
        rows.iter()
            .map(|(name, value, unit, _)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })
            .collect(),
    );
    let digest = format!("{:016x}", checker.digest());
    println!("  sim_digest      {digest}   model unvalidated against hardware: no accuracy figure");
    for violation in &checker.violations {
        eprintln!("OUTPUT CHECK FAILED ({}): {violation}", w.name);
    }

    let result = result_json(&checker, metrics);
    let run = Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Num(args.trace as u8 as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("repetitions", Json::Num(repetitions as f64)),
        ("digest", Json::str(digest)),
        ("repetition_spread", Json::Obj(spreads)),
        (
            "sizes",
            Json::Obj(
                w.sizes()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(v)))
                    .collect(),
            ),
        ),
        ("result", result.clone()),
    ]);
    println!("#run {}", run.render());
    println!("{}", result.render());
    if checker.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Runs every workload, one sequential child process each, `--runs` times
/// with consecutive seeds, and writes the result file.
fn run_all(args: &Args) -> ExitCode {
    let generator = mind::harness::report::generator();
    if generator.ends_with("-dirty") && !args.allow_dirty {
        eprintln!(
            "refusing to record results from a dirty tree ({generator}): commit first, or pass --allow-dirty"
        );
        return ExitCode::from(2);
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this binary to start workload processes: {e}");
            return ExitCode::from(2);
        }
    };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for seed in args.seed..args.seed + args.runs {
        for name in workloads::NAMES {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }]);
            // `output` waits for the child to end.
            let output = match child.output() {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("cannot start the {name} process: {e}");
                    return ExitCode::from(2);
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            all_correct &= output.status.success();
            match stdout
                .lines()
                .find_map(|l| l.strip_prefix("#run "))
                .map(Json::parse)
            {
                Some(Ok(run)) => runs.push(run),
                _ => {
                    eprintln!("the {name} process printed no result");
                    all_correct = false;
                }
            }
        }
    }

    let doc = Json::obj([
        (
            "provenance",
            Json::obj([
                ("generator", Json::str(generator)),
                ("rustc", Json::str(rustc_version())),
                (
                    "nproc",
                    Json::Num(mind::sim::env::available_parallelism() as f64),
                ),
                ("threads_per_workload", Json::Num(1.0)),
                ("first_seed", Json::Num(args.seed as f64)),
                ("runs_per_workload", Json::Num(args.runs as f64)),
                ("seconds", Json::Num(args.seconds)),
                ("streams_per_seed", Json::Num(measure::STREAMS as f64)),
                ("setups_per_run", Json::Num(measure::SETUPS as f64)),
                ("least_repetitions", Json::Num(measure::MIN_REPS as f64)),
                (
                    "model_validation",
                    Json::str("unvalidated: the repo holds no hardware reference results"),
                ),
                ("claim", Json::Null),
            ]),
        ),
        ("runs", Json::Arr(runs)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| artifact_dir().join("result.json"));
    if let Err(e) = write_file(&path, &(doc.render() + "\n")) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("results written to {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match load(a)
        .and_then(|a| Ok((a, load(b)?)))
        .and_then(|(a, b)| compare::compare(&a, &b))
    {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return run_compare(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        None => run_all(&args),
        Some(name) => match Workload::full(name) {
            Some(w) => run_workload(&w, &args),
            None => {
                eprintln!(
                    "unknown workload {name}; the workloads are {}",
                    workloads::NAMES.join(", ")
                );
                ExitCode::from(2)
            }
        },
    }
}
