//! Differential fuzzing campaign driver.
//!
//! ```text
//! cargo run --release -p infs-check --example fuzz_hunt -- [base_seed] [count]
//! cargo run --release -p infs-check --example fuzz_hunt -- --replay <repro-dir>
//! ```
//!
//! Exits non-zero if any kernel diverges; reproducers are dumped under
//! `$INFS_CHECK_REPRO_DIR` (default `check-repro`).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--replay") {
        let dir = std::path::PathBuf::from(args.get(1).expect("--replay <repro-dir>"));
        match infs_check::replay(&dir) {
            Ok(Ok(o)) => println!(
                "reproducer no longer diverges ({} nodes, {}/{} in-memory)",
                o.nodes, o.in_memory_runs, o.machine_runs
            ),
            Ok(Err(d)) => {
                println!("still diverges in {}: {}", d.config, d.what);
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("cannot replay: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let base_seed = args.first().map(|s| parse_u64(s)).unwrap_or(0xC0FFEE);
    let count = args
        .get(1)
        .map(|s| s.parse().expect("count"))
        .unwrap_or(200);
    let report = infs_check::fuzz_many(base_seed, count);
    println!(
        "{} kernels ({} tDFG nodes), {} machine runs, {} in-memory, {} divergences; \
         cycles: {} Inf-S, {} In-L3",
        report.run,
        report.total_nodes,
        report.machine_runs,
        report.in_memory_runs,
        report.failures.len(),
        report.infs_cycles,
        report.inl3_cycles
    );
    for f in &report.failures {
        println!(
            "  seed {:#018x}: {} — {} (repro: {})",
            f.seed,
            f.divergence.config,
            f.divergence.what,
            f.repro_dir
                .as_ref()
                .map_or("dump failed".to_string(), |p| p.display().to_string())
        );
    }
    if !report.passed() {
        std::process::exit(1);
    }
}

fn parse_u64(s: &str) -> u64 {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).expect("seed")
    } else {
        s.parse().expect("seed")
    }
}
