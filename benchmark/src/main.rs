//! The Infinity Stream benchmark: four workloads, two clocks. See
//! `README.md` beside this package and `BENCHMARK.json` at the repository
//! root, which names every metric this binary prints.
//!
//! `--workload NAME` runs one workload in this process and ends standard
//! output with one JSON line of results: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Without `--workload`
//! every workload runs in a child process of its own, so that `peak_rss_mb`
//! is per workload, and the results are printed as a table.

mod compile_cold;
mod gen;
mod harness;
mod heads;
mod paper_suite;
mod serve;
mod spans;
mod stats;
mod wire;

use harness::{Outcome, RunArgs, Workload};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// The single list of metric names, units and bounds.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");
const DEFAULT_SEED: u64 = 20230325;
/// Windows per set-up under `--selfcheck` unless `--windows` says otherwise:
/// counts repeat exactly only when both runs make the same number of windows.
const SELFCHECK_WINDOWS: usize = 3;
/// Units of metrics measured on the host clock. Every other unit is a count
/// or a simulated quantity and must repeat exactly.
const HOST_UNITS: [&str; 7] = ["s", "ms", "us", "1/s", "MB", "ratio", "cycles/s"];

#[derive(Deserialize)]
struct Manifest {
    run_seconds: u64,
    workloads: Vec<WorkloadDecl>,
    end_to_end: Vec<MetricDecl>,
    per_layer: Vec<MetricDecl>,
}

#[derive(Deserialize)]
struct WorkloadDecl {
    name: String,
}

#[derive(Deserialize)]
struct MetricDecl {
    name: String,
    unit: String,
    better: String,
    bound: Option<f64>,
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    windows: Option<usize>,
    trace: bool,
    selfcheck: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        windows: None,
        trace: false,
        selfcheck: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cli.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--windows" => cli.windows = Some(value()?.parse().map_err(|e| format!("--windows: {e}"))?),
            "--trace" => cli.trace = value()? == "1",
            "--traced" => cli.trace = true,
            "--selfcheck" => cli.selfcheck = true,
            other => {
                return Err(format!(
                    "unknown argument {other}; flags: --workload NAME --seed N --seconds S --windows N --trace 0|1 --traced --selfcheck"
                ))
            }
        }
    }
    Ok(cli)
}

fn run_one(name: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match name {
        paper_suite::PaperSuite::NAME => harness::run::<paper_suite::PaperSuite>(args),
        compile_cold::CompileCold::NAME => harness::run::<compile_cold::CompileCold>(args),
        serve::ServeWarm::NAME => harness::run::<serve::ServeWarm>(args),
        serve::ServeChurn::NAME => harness::run::<serve::ServeChurn>(args),
        _ => return None,
    })
}

/// The result line a workload run ends standard output with, and the suite
/// modes read back: exactly `correct`, `attempted`, `failed`, `metrics`.
#[derive(Serialize, Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Measured>,
}

#[derive(Serialize, Deserialize)]
struct Measured {
    value: f64,
    unit: String,
}

/// One workload in this process: the driver's entry point.
fn workload_mode(cli: &Cli, manifest: &Manifest, name: &str) -> ExitCode {
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(manifest.run_seconds as f64),
        windows: cli.windows,
        trace: cli.trace,
    };
    let Some(outcome) = run_one(name, &args) else {
        eprintln!("unknown workload {name}");
        return ExitCode::from(2);
    };

    let (decls, computed) = if cli.trace {
        (&manifest.per_layer, &outcome.per_layer)
    } else {
        (&manifest.end_to_end, &outcome.end_to_end)
    };
    // Every workload prints every declared metric; a layer a workload does
    // not exercise reads 0. A computed metric the manifest does not declare
    // is a bug in one of the two.
    if let Some(stray) = computed
        .keys()
        .find(|k| !decls.iter().any(|d| d.name == **k))
    {
        eprintln!("metric {stray} is not declared in BENCHMARK.json");
        return ExitCode::from(2);
    }
    let mut result = ResultLine {
        correct: outcome.failed == 0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: BTreeMap::new(),
    };
    for d in decls.iter() {
        let value = match computed.get(&d.name) {
            Some(&v) => v,
            None if cli.trace => 0.0,
            None => {
                eprintln!("end-to-end metric {} was not measured", d.name);
                return ExitCode::from(2);
            }
        };
        let unit = d.unit.clone();
        result
            .metrics
            .insert(d.name.clone(), Measured { value, unit });
    }

    println!("workload {name}");
    for note in &outcome.notes {
        println!("  {note}");
    }
    for d in decls.iter().filter(|d| computed.contains_key(&d.name)) {
        println!("  {:40} {:>18.6} {}", d.name, computed[&d.name], d.unit);
    }
    if let Some(json) = &outcome.trace_json {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace_{name}.json");
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("  spans written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    println!(
        "{}",
        serde_json::to_string(&result).expect("a result line serialises")
    );
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_child(cli: &Cli, name: &str, trace: bool) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &cli.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = cli.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if let Some(w) = cli.windows.or(cli.selfcheck.then_some(SELFCHECK_WINDOWS)) {
        cmd.args(["--windows", &w.to_string()]);
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{name} printed nothing"))?;
    let mut result: ResultLine = serde_json::from_str(last).map_err(|e| format!("{name}: {e}"))?;
    result.correct &= out.status.success();
    Ok(result)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Every workload, each in its own child process; one table per metric set.
fn suite(
    cli: &Cli,
    manifest: &Manifest,
    traced: bool,
) -> Result<Vec<(String, bool, ResultLine)>, String> {
    let mut results = Vec::new();
    for w in &manifest.workloads {
        for trace in [false, true] {
            if trace && !traced {
                continue;
            }
            eprintln!("running {} (trace {})", w.name, u8::from(trace));
            results.push((w.name.clone(), trace, run_child(cli, &w.name, trace)?));
        }
    }
    Ok(results)
}

fn print_table(manifest: &Manifest, results: &[(String, bool, ResultLine)]) {
    for (title, trace, decls) in [
        ("end-to-end (untraced runs)", false, &manifest.end_to_end),
        ("per-layer (traced runs)", true, &manifest.per_layer),
    ] {
        let runs: Vec<_> = results.iter().filter(|(_, t, _)| *t == trace).collect();
        if runs.is_empty() {
            continue;
        }
        println!("\n{title}");
        print!("{:40} {:>8}", "metric", "unit");
        for (name, _, _) in &runs {
            print!(" {name:>16}");
        }
        println!();
        for d in decls.iter() {
            print!("{:40} {:>8}", d.name, d.unit);
            for (_, _, r) in &runs {
                print!(
                    " {:>16.4}",
                    r.metrics.get(&d.name).map_or(f64::NAN, |m| m.value)
                );
            }
            println!();
        }
        print!("{:40} {:>8}", "fail_rate", "share");
        for (_, _, r) in &runs {
            print!(" {:>16.6}", r.failed as f64 / r.attempted.max(1) as f64);
        }
        println!();
    }
}

/// Runs the suite twice and holds the second run to the first: host metrics
/// within their bound, exact metrics identical.
fn selfcheck(cli: &Cli, manifest: &Manifest) -> Result<bool, String> {
    let first = suite(cli, manifest, true)?;
    let second = suite(cli, manifest, true)?;
    let mut ok = true;
    println!(
        "{:14} {:40} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((name, trace, a), (_, _, b)) in first.iter().zip(&second) {
        ok &= a.correct && b.correct;
        let decls = if *trace {
            &manifest.per_layer
        } else {
            &manifest.end_to_end
        };
        for d in decls {
            let (x, y) = (a.metrics[&d.name].value, b.metrics[&d.name].value);
            let exact = !HOST_UNITS.contains(&d.unit.as_str());
            // Per-layer host metrics carry no bound; they are held to nothing.
            let (verdict, bound) = match (exact, d.bound) {
                (true, _) => (x == y, "exact".to_string()),
                (false, Some(bound)) => {
                    let worse = if d.better == "lower" { y - x } else { x - y };
                    (worse <= bound * x.abs(), format!("{bound:.2}"))
                }
                (false, None) => (true, "-".to_string()),
            };
            ok &= verdict;
            // Every end-to-end row; of the per-layer rows, the exact ones this
            // workload measures.
            if !verdict || !trace || (exact && (x != 0.0 || y != 0.0)) {
                let diff = if x == 0.0 { 0.0 } else { (y - x) / x };
                println!(
                    "{name:14} {:40} {x:>16.4} {y:>16.4} {:>+8.2}% {bound:>7}{}",
                    d.name,
                    diff * 100.0,
                    if verdict { "" } else { "  FAIL" }
                );
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let manifest: Manifest = serde_json::from_str(MANIFEST).expect("BENCHMARK.json parses");
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &cli.workload {
        return workload_mode(&cli, &manifest, name);
    }
    println!(
        "seed {} nproc {} commit {} {}",
        cli.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["-V"]),
    );
    let outcome = if cli.selfcheck {
        selfcheck(&cli, &manifest)
    } else {
        suite(&cli, &manifest, cli.trace).map(|results| {
            print_table(&manifest, &results);
            results.iter().all(|(_, _, r)| r.correct)
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
