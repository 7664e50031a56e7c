//! Figure/table regeneration CLI.
//!
//! ```text
//! cargo run --release -p infs-bench --bin figures -- all          # paper scale
//! cargo run --release -p infs-bench --bin figures -- fig11 --quick
//! cargo run --release -p infs-bench --bin figures -- matrix --quick --trace t.json
//! cargo run --release -p infs-bench --bin figures -- verify       # results/ vs a fresh run
//! ```
//!
//! Results land under `results/` as Markdown and are echoed to stdout. With
//! `--trace PATH`, compiler/JIT/simulator spans for the whole run are written
//! as a Chrome trace to PATH (open in Perfetto) plus flat counters to
//! `PATH.metrics.json`.
//!
//! `verify [targets…]` regenerates the targets (default: all) at paper scale
//! into a temporary directory instead and compares the files with the
//! committed `results/`; it prints one `STALE` / `MISSING` / `ORPHAN` line
//! per disagreement and exits 1 if there is any.

use infs_bench::verify::{verify, Target};
use infs_bench::{figures, Ctx};
use std::path::Path;

/// Every target, in the order `all` runs them.
const TARGETS: &[Target] = &[
    ("eq1", figures::eq1),
    ("area", figures::area),
    ("table3", figures::table3),
    ("fig2", figures::fig2),
    // The 13×6 run matrix itself (matrix.json), its per-workload JIT-cache
    // summary and BENCH_jit.json: the target for wall-clock scaling runs
    // (`RAYON_NUM_THREADS=1` forces the sequential path).
    ("matrix", figures::matrix_summary),
    ("fig11", figures::fig11),
    ("fig12", figures::fig12),
    ("fig13", figures::fig13),
    ("fig14", figures::fig14),
    ("fig15", figures::fig15),
    // Also writes tiling.md, the §4.1 heuristic-vs-oracle view of its sweep.
    ("fig16", figures::fig16),
    ("fig17", figures::fig17),
    ("fig18", figures::fig18),
    ("fig19", figures::fig19),
    ("jit", figures::jit),
    // Fused streaming regions vs per-kernel round-trip on the multi-kernel
    // model graphs (DESIGN.md §13); writes BENCH_pipeline.json.
    ("pipeline", figures::pipeline),
    ("ablate", figures::ablate),
    ("ablate_dtype", figures::ablate_dtype),
    // The DESIGN.md §10 degradation-ladder report (EXPERIMENTS.md "Chaos").
    ("chaos", figures::chaos),
    // The DESIGN.md §11 verification coverage report (EXPERIMENTS.md "Check").
    ("check", figures::check),
    // The DESIGN.md §14 serving soak; writes BENCH_serve.json. Host-timed:
    // the one target `verify` bounds instead of comparing.
    ("serve", figures::serve),
    // The DESIGN.md §15 autotuning soak plus the chaos retune drill; writes
    // BENCH_tune.json.
    ("tune", figures::tune),
];

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = TARGETS.iter().map(|t| t.0).collect();
    eprintln!("{problem}\nusage: figures [verify] [all | TARGET…] [--quick] [--trace PATH]\ntargets: {names:?}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut trace_path: Option<String> = None;
    let mut names: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--trace" => match it.next() {
                Some(p) => trace_path = Some(p.clone()),
                None => usage("--trace requires a path"),
            },
            other if other.starts_with("--") => usage(&format!("unknown flag '{other}'")),
            other => names.push(other),
        }
    }
    let verifying = names.first() == Some(&"verify");
    if verifying {
        names.remove(0);
        if quick {
            usage("verify takes no --quick: results/ is committed at paper scale only");
        }
    }
    let whole = names.is_empty() || names.contains(&"all");
    let targets: Vec<Target> = if whole {
        TARGETS.to_vec()
    } else {
        names
            .iter()
            .map(|name| {
                *TARGETS
                    .iter()
                    .find(|t| t.0 == *name)
                    .unwrap_or_else(|| usage(&format!("unknown target '{name}'")))
            })
            .collect()
    };

    let _session = trace_path.as_ref().map(|_| infs_trace::exclusive());
    let mut stale = false;
    if verifying {
        let findings = verify(&targets, false, Path::new("results"), whole).unwrap_or_else(|e| {
            eprintln!("[figures] cannot verify results/: {e}");
            std::process::exit(1);
        });
        for f in &findings {
            println!("{f}");
        }
        stale = !findings.is_empty();
        eprintln!(
            "[figures] results/ vs a fresh run of {} target(s): {} disagreement(s)",
            targets.len(),
            findings.len()
        );
    } else {
        let ctx = Ctx::new(quick);
        for (name, run) in &targets {
            let t0 = std::time::Instant::now();
            run(&ctx);
            eprintln!(
                "[figures] {name} done in {:.1}s",
                t0.elapsed().as_secs_f64()
            );
        }
    }
    if let Some(path) = trace_path {
        let metrics_path = format!("{path}.metrics.json");
        if let Err(e) = infs_trace::write_chrome(path.as_ref())
            .and_then(|()| infs_trace::write_metrics(metrics_path.as_ref()))
        {
            eprintln!("[figures] cannot write trace {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[figures] trace written to {path} (+ {metrics_path})");
    }
    if stale {
        std::process::exit(1);
    }
}
