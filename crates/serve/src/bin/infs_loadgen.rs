//! `infs-loadgen` — deterministic open-loop load generator for a running
//! `infs-served` (`DESIGN.md` §14).
//!
//! ```text
//! infs-loadgen [--addr HOST:PORT] [--rate RPS] [--duration MS]
//!              [--connections N] [--tenants N] [--variants N]
//!              [--seed N] [--len N]
//! ```
//!
//! Requests are scheduled on a fixed open-loop clock (`i / rate`) — the
//! generator does not slow down when the server queues, so tail latency is
//! measured honestly. The whole request stream derives from `--seed`: two
//! runs with the same flags are byte-identical. Prints a one-line summary
//! (plus one line per error kind) and exits nonzero if any response was
//! lost — the exit code is the harness interface.

use infs_serve::loadgen::{self, LoadgenConfig};
use std::process::ExitCode;

struct Args {
    addr: String,
    cfg: LoadgenConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7199".to_string(),
        cfg: LoadgenConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        macro_rules! num {
            ($name:literal) => {
                value($name)?
                    .parse()
                    .map_err(|e| format!("{}: {e}", $name))?
            };
        }
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--rate" => args.cfg.rate_rps = num!("--rate"),
            "--duration" => args.cfg.duration_ms = num!("--duration"),
            "--connections" => args.cfg.connections = num!("--connections"),
            "--tenants" => args.cfg.tenants = num!("--tenants"),
            "--variants" => args.cfg.variants = num!("--variants"),
            "--seed" => args.cfg.seed = num!("--seed"),
            "--len" => args.cfg.array_len = num!("--len"),
            "--help" | "-h" => return Err(
                "usage: infs-loadgen [--addr HOST:PORT] [--rate RPS] [--duration MS] [--connections N] [--tenants N] [--variants N] [--seed N] [--len N]"
                    .to_string(),
            ),
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "infs-loadgen: {} rps open-loop for {} ms over {} connections ({} tenants, {} variants, seed {})",
        args.cfg.rate_rps,
        args.cfg.duration_ms,
        args.cfg.connections,
        args.cfg.tenants,
        args.cfg.variants,
        args.cfg.seed,
    );
    let report = match loadgen::run(args.addr.as_str(), &args.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("infs-loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "infs-loadgen: sent={} ok={} lost={} rps={:.1} p50={}us p99={}us max={}us batched={} artifact_hits={}",
        report.sent,
        report.ok,
        report.lost,
        report.achieved_rps,
        report.latency.percentile(0.50),
        report.latency.percentile(0.99),
        report.latency.max(),
        report.batched_responses,
        report.artifact_hits,
    );
    for (kind, n) in &report.errors {
        println!("infs-loadgen:   error {kind}: {n}");
    }
    // Lost responses mean the server stalled past the read timeout — a
    // harness should treat that as failure.
    if report.lost > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
